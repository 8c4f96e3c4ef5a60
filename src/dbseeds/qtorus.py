"""Exact quantum-torus arithmetic over a formal unit v = sqrt(q).

Scalars live in the Laurent ring Q[v^e : e rational]; frames record the
integer exponent matrix psi of a multiplicatively skew-symmetric matrix via
r_{kj} = v^{psi_{kj}}.  Each value type has one validating constructor,
`VLaurent(terms)` and `FrameMatrix(psi)`, and a private trusted path for
values built from valid ones.  A scalar is reduced: its terms map Fraction
exponents to nonzero Fraction coefficients.  Only `VLaurent`'s own ring
operations take `VLaurent._reduced`, and each deletes the coefficients that
cancel.  Frames built from a valid frame take `FrameMatrix._trusted`.  See
`VLaurent` and `FrameMatrix` for why each skipped check holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from numbers import Complex, Rational
from operator import mul
from typing import Mapping, Sequence

from . import linalg


class DimensionMismatch(ValueError):
    pass


class NonIntegralFrame(ValueError):
    """A frame exponent is not an integer."""


class InexactScalar(TypeError):
    """A scalar exponent or coefficient that is not an exact rational, such as a float."""


def _exact(x) -> Q:
    """x as a Fraction; an inexact number (a float or a complex) raises InexactScalar.

    A float is refused rather than read as the binary rational it stores.
    Exact values, such as ints, Fractions and strings like "1/2", are
    converted by `Fraction`, which raises on anything it cannot read.
    """
    if type(x) is not int and type(x) is not Q and isinstance(x, Complex) and not isinstance(x, Rational):
        raise InexactScalar(f"scalar {x!r} is not an exact rational")
    return Q(x)


class VLaurent:
    """Finite rational-coefficient sum of rational powers of v.

    Invariant: `_terms` maps Fraction exponents to nonzero Fraction
    coefficients.  `VLaurent(terms)` coerces exact keys and values (ints,
    Fractions, rational strings), raises InexactScalar on a float or another
    inexact number, merges equal exponents and drops zeros; `v_power`,
    `q_power` and `scale` test their outside numbers the same way.
    `_reduced` stores a dict as it is; its only callers are the ring operations below, whose operands
    already hold the invariant, so their keys and values are Fractions
    (sums, products, negatives and reciprocals of Fractions) and each exponent
    is written once.  Each keeps the nonzero rule itself: `__add__` deletes
    a coefficient that cancels; `__neg__` and `inverse` map nonzeros to
    nonzeros; `__mul__` drops the collected coefficients that cancel; and
    `scale` returns the zero scalar for a zero factor.  `__sub__` and
    `__pow__` are built from these.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        clean: dict[Q, Q] = {}
        if terms:
            for e, c in terms.items():
                e, c = _exact(e), _exact(c)
                if c != 0:
                    clean[e] = clean.get(e, Q(0)) + c
        self._terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def _reduced(cls, terms: dict[Q, Q]) -> "VLaurent":
        """Scalar of a dict that already holds the invariant; no check is run."""
        z = object.__new__(cls)
        z._terms = terms
        return z

    # -- constructors -------------------------------------------------
    @classmethod
    def one(cls) -> "VLaurent":
        return cls({Q(0): Q(1)})

    @classmethod
    def v_power(cls, e) -> "VLaurent":
        return cls({e: 1})

    @classmethod
    def q_power(cls, e) -> "VLaurent":
        return cls({2 * _exact(e): 1})

    # -- structure ----------------------------------------------------
    @property
    def terms(self) -> dict[Q, Q]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def monomial_parts(self) -> tuple[Q, Q]:
        """(exponent, coefficient) of a one-term scalar."""
        if not self.is_monomial():
            raise ValueError(f"not a single v-power: {self}")
        ((e, c),) = self._terms.items()
        return e, c

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "VLaurent") -> "VLaurent":
        out = dict(self._terms)
        for e, c in other._terms.items():
            c = out[e] + c if e in out else c
            if c:
                out[e] = c
            else:
                del out[e]
        return VLaurent._reduced(out)

    def __neg__(self) -> "VLaurent":
        return VLaurent._reduced({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "VLaurent") -> "VLaurent":
        return self + (-other)

    def __mul__(self, other: "VLaurent") -> "VLaurent":
        out: dict[Q, Q] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return VLaurent._reduced({e: c for e, c in out.items() if c})

    def scale(self, coef) -> "VLaurent":
        c0 = _exact(coef)
        return VLaurent._reduced({e: c * c0 for e, c in self._terms.items()} if c0 else {})

    def inverse(self) -> "VLaurent":
        e, c = self.monomial_parts()
        return VLaurent._reduced({-e: 1 / c})

    def __pow__(self, n: int) -> "VLaurent":
        if n < 0:
            return self.inverse() ** (-n)
        out = VLaurent.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, VLaurent) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = [f"{c}*v^{e}" for e, c in sorted(self._terms.items())]
        return " + ".join(bits)


@dataclass(frozen=True)
class FrameMatrix:
    """Integer exponent matrix psi of a multiplicatively skew-symmetric matrix.

    `FrameMatrix(psi)` checks that psi is square with int entries and is
    skew-symmetric with a zero diagonal.  `_trusted` skips these checks; its
    only callers build from a valid psi what keeps them by construction:
    `principal` gathers the same indices for rows and columns, which keeps
    skew-symmetry and the zero diagonal (`reindex` is its case at a checked
    permutation); `negate` gives -psi; and `frame_restrict` (int vectors of
    length n, checked) and `dbc.sigma_frame` (the growing `dbc.ChainTable`,
    wrapped for one gather, never kept) give V psi V^T with V integral, so
    skew-symmetric in integers with a zero diagonal: (V psi V^T)^T = V psi^T V^T.
    """

    psi: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.psi)
        for i in range(n):
            if len(self.psi[i]) != n:
                raise DimensionMismatch("psi must be square")
            for x in self.psi[i]:
                if type(x) is not int:
                    raise NonIntegralFrame(f"frame exponent {x!r} is not an int")
            if self.psi[i][i] != 0:
                raise ValueError("psi must vanish on the diagonal")
            for j in range(i):
                if self.psi[i][j] != -self.psi[j][i]:
                    raise ValueError("psi must be skew-symmetric")

    @classmethod
    def _trusted(cls, psi: tuple[tuple[int, ...], ...]) -> "FrameMatrix":
        """Frame of a psi that its construction makes valid; no check is run."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "psi", psi)
        return frame

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], den: int = 1) -> "FrameMatrix":
        """Frame with exponents rows[i][j] / den; this is the one integrality gate.

        Entries are ints or any exact rational type.  The first fractional
        quotient in row-major order raises NonIntegralFrame naming it in
        lowest terms.
        """
        exact = [[x // den if type(x) is int and x % den == 0 else Q(x, den) for x in r] for r in rows]
        bad = next((q for r in exact for q in r if type(q) is not int and q.denominator != 1), None)
        if bad is not None:
            raise NonIntegralFrame(f"fractional frame exponent {bad}")
        return cls(tuple(tuple(int(q) for q in r) for r in exact))

    @property
    def size(self) -> int:
        return len(self.psi)

    def omega_exp(self, f: Sequence, g: Sequence) -> int:
        """v-exponent of the bicharacter at (f, g), i.e. f^T psi g.  No library code calls it; `perfbench/` keeps it."""
        if len(f) != self.size or len(g) != self.size:
            raise DimensionMismatch("vector length does not match frame size")
        return linalg.bilinear(f, self.psi, g)

    def principal(self, index: Sequence[int]) -> "FrameMatrix":
        """psi'_{jk} = psi_{index(j), index(k)}: the principal submatrix at `index`, one gather.

        This is the one gather rule of frames.  psi'_{kj} =
        psi_{index(k), index(j)} = -psi'_{jk} and psi'_{jj} = 0, so any index
        sequence that the gather can read gives a frame.
        """
        at = linalg.gather(index)
        return FrameMatrix._trusted(tuple(map(at, at(self.psi))))

    def reindex(self, tau: Sequence[int]) -> "FrameMatrix":
        """psi'_{jk} = psi_{tau(j), tau(k)}: `principal` at tau, which must be a permutation of the ints 0..n-1."""
        if not (all(type(x) is int for x in tau) and sorted(tau) == list(range(self.size))):
            raise ValueError("tau must be a permutation of 0..n-1")
        return self.principal(tau)

    def negate(self) -> "FrameMatrix":
        return FrameMatrix._trusted(tuple(tuple(-x for x in row) for row in self.psi))


def scr(exp_matrix: Sequence[Sequence], f: Sequence) -> VLaurent:
    """Symmetrization scalar: product over j < k of lambda_{jk}^(-f_j f_k).

    exp_matrix supplies the v-exponents of the skew-symmetric scalar matrix.
    """
    n = len(f)
    if len(exp_matrix) != n:
        raise DimensionMismatch("matrix size does not match vector length")
    e = Q(0)
    for j in range(n):
        if f[j] == 0:
            continue
        for k in range(j + 1, n):
            if f[k] != 0:
                e -= Q(f[j]) * Q(f[k]) * Q(exp_matrix[j][k])
    return VLaurent.v_power(e)


def _peels(vectors: Sequence[tuple]) -> bool:
    """Whether the vectors peel away one at a time, each as the only nonzero of some column.

    If every vector goes, the columns that removed them, taken in removal
    order, cut out a triangular block with a nonzero diagonal: the vector
    removed at step t has a nonzero in column t, and no vector removed later
    does.  So the vectors are independent.  Column counts of the vectors
    still present keep the test O(nnz).
    """
    support = [[c for c, x in enumerate(v) if x] for v in vectors]
    count: dict[int, int] = {}   # per column: how many vectors still present reach it
    owner: dict[int, int] = {}   # per column: the sum of their indices, so the index when count is 1
    for i, cs in enumerate(support):
        for c in cs:
            count[c] = count.get(c, 0) + 1
            owner[c] = owner.get(c, 0) + i
    alone = [c for c, m in count.items() if m == 1]
    left = len(vectors)
    while alone:
        c = alone.pop()
        if count[c] != 1:   # its one vector went through another column
            continue
        i = owner[c]
        left -= 1
        for c2 in support[i]:
            count[c2] -= 1
            owner[c2] -= i
            if count[c2] == 1:
                alone.append(c2)
    return left == 0


def moved_indices(vectors: Sequence[Sequence]) -> list[int]:
    """The indices a whose vector is not the unit vector e_a: the rows that restriction moves."""
    n = len(vectors)
    return [a for a, v in enumerate(vectors) if v[a] != 1 or v.count(0) != n - 1]


def restricted_rows(psi: Sequence[Sequence], vectors: Sequence[Sequence], moved: Sequence[int]) -> list[tuple]:
    """Rows `moved` of V psi V^T, for a skew-symmetric psi and integer vectors V.

    This is the moved-row rule of restriction.  `moved` must hold every
    index of `moved_indices(V)`, and may hold more.  Row a is
    r = V_a psi, one sparse row sum (`linalg.combine`), paired with every
    V_j: r_j itself where V_j = e_j, and one dot product at each j in
    `moved`.  The other entries need no sum: where V_i = e_i and V_j = e_j,
    entry (i, j) pairs two unit vectors and is psi_ij, and column a is
    minus row a, since (V psi V^T)^T = V psi^T V^T = -V psi V^T.  Unlike
    `frame_restrict`, it checks neither the vectors' lengths nor their
    independence.
    """
    out = []
    for a in moved:
        r = linalg.combine(psi, vectors[a])
        row = list(r)
        for b in moved:
            row[b] = sum(map(mul, r, vectors[b]))
        out.append(tuple(row))
    return out


def frame_restrict(frame: FrameMatrix, vectors: Sequence[Sequence]) -> FrameMatrix:
    """Frame of the sublattice spanned by the given independent integer vectors.

    Independence is shown first by a pattern test (`_peels`), which the
    mutation bases, the reduction shifts and the chain vectors all pass:
    each has a vector that alone reaches some coordinate, and so on down.
    Other inputs take an integer rank; dependent vectors raise ValueError.
    The vectors' lengths and int entries are checked first, so the pairings
    V psi V^T make a valid frame (see `FrameMatrix`).
    """
    vecs = [tuple(v) for v in vectors]
    if any(len(v) != frame.size for v in vecs):
        raise DimensionMismatch("vector length does not match frame size")
    if any(type(x) is not int for v in vecs for x in v):
        raise NonIntegralFrame("restriction vectors must have int entries")
    if not _peels(vecs) and linalg.rank(tuple(vecs)) != len(vecs):
        raise ValueError("restriction vectors are linearly dependent")
    psi = frame.psi
    return FrameMatrix._trusted(tuple(tuple(linalg.bilinear(a, psi, b) for b in vecs) for a in vecs))
