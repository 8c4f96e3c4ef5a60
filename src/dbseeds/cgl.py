"""Normal-form engine for explicitly presented iterated skew polynomial algebras.

A presentation on n generators consists of the n x n v-exponent matrix of
the commutation scalars and straightening tails T_{kj} supported strictly
between j and k, encoding  x_k x_j = lambda_{kj} x_j x_k + T_{kj}  for k > j.
Elements are kept in the PBW basis x_1^{m_1} ... x_n^{m_n}.

The engine validates presentations by a randomized associativity audit and
validates caller-supplied chain elements (the c_k of the prime-element
recursion) through leading-term and homogeneity assertions; it never
searches for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction as Q
from heapq import heappop, heappush
from typing import Mapping, Sequence

from . import dbc
from .coxeter import Walk, cartan_init, walk
from .linalg import combine
from .qtorus import FrameMatrix, VLaurent, scr
from .seedcore import mutate_seed


class PresentationError(ValueError):
    pass


class ExampleMismatch(ValueError):
    """A step of the rank-one worked example does not reproduce."""


class GeneratorOutOfRange(IndexError):
    """A generator index outside 0..n-1."""


class RewriteBudgetExceeded(RuntimeError):
    """A product exceeded the rewrite budget; the tails are suspect."""


REWRITE_BUDGET = 10**6   # words one `nf_mul` product may expand


Exponent = tuple[int, ...]


class NFPoly:
    """Normal-form element: finite map from PBW exponent vectors to scalars."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, VLaurent] | None = None):
        clean: dict[Exponent, VLaurent] = {}
        if terms:
            for f, c in terms.items():
                key = tuple(int(x) for x in f)
                if key != tuple(f):
                    raise ValueError(f"PBW exponents must be integers, not {tuple(f)}")
                if any(x < 0 for x in key):
                    raise ValueError("PBW exponents must be nonnegative")
                cur = clean.get(key)
                c = cur + c if cur is not None else c
                if c.is_zero():
                    clean.pop(key, None)
                else:
                    clean[key] = c
        self._terms = clean

    @classmethod
    def one(cls, n: int) -> "NFPoly":
        return cls({(0,) * n: VLaurent.one()})

    @classmethod
    def monomial(cls, f: Sequence[int]) -> "NFPoly":
        return cls({tuple(f): VLaurent.one()})

    @classmethod
    def generator(cls, n: int, i: int) -> "NFPoly":
        """x_i among n generators (0-based i); raises GeneratorOutOfRange outside 0..n-1."""
        if not 0 <= i < n:
            raise GeneratorOutOfRange(f"generator {i} out of range 0..{n - 1}")
        return cls.monomial(tuple(1 if t == i else 0 for t in range(n)))

    @property
    def terms(self) -> dict[Exponent, VLaurent]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "NFPoly") -> "NFPoly":
        out = dict(self._terms)
        for f, c in other._terms.items():
            out[f] = out[f] + c if f in out else c
        return NFPoly(out)

    def __neg__(self) -> "NFPoly":
        return NFPoly({f: -c for f, c in self._terms.items()})

    def __sub__(self, other: "NFPoly") -> "NFPoly":
        return self + (-other)

    def scale(self, coef: VLaurent) -> "NFPoly":
        return NFPoly({f: c * coef for f, c in self._terms.items()})

    def support_indices(self) -> set[int]:
        out: set[int] = set()
        for f in self._terms:
            out.update(i for i, x in enumerate(f) if x)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, NFPoly) and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*x^{f}" for f, c in sorted(self._terms.items(), key=lambda t: revlex_key(t[0])))


def revlex_key(f: Exponent) -> tuple[int, ...]:
    """The PBW order: exponents compared from the last generator down; the one sort key of terms."""
    return tuple(reversed(f))


def leading_term(a: NFPoly) -> tuple[VLaurent, Exponent]:
    """Maximal term in the order comparing exponents from the last generator down."""
    if a.is_zero():
        raise ValueError("zero element has no leading term")
    f = max(a._terms, key=revlex_key)
    return a._terms[f], f


@dataclass(frozen=True)
class CGLPresentation:
    """Presented skew polynomial algebra with level and degree bookkeeping; eta is walked once (`walk`)."""

    lambda_exp: tuple[tuple[int, ...], ...]       # v-exponents, skew-symmetric, one row per generator
    tails: dict[tuple[int, int], NFPoly]          # (k, j) with k > j; absent = 0
    eta: tuple[int, ...]
    degrees: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        lengths = {len(row) for row in self.lambda_exp} | {len(self.eta), len(self.degrees)}
        if lengths != {n} or len(set(map(len, self.degrees))) > 1:
            raise PresentationError(f"lambda rows, eta and degrees must each have {n} entries, and degrees one width")
        try:
            FrameMatrix(self.lambda_exp)   # int entries, a zero diagonal, skew-symmetric
        except ValueError as exc:
            raise PresentationError(f"lambda exponents are not a frame: {exc}") from None
        for (k, j), tail in self.tails.items():
            if not n > k > j >= 0:
                raise PresentationError(f"tails are indexed by generator pairs k > j, not ({k},{j})")
            inside = set(range(j + 1, k))
            if not tail.support_indices() <= inside:
                raise PresentationError(f"tail ({k},{j}) leaves the open interval")
            want = tuple(a + b for a, b in zip(self.degrees[k], self.degrees[j]))
            for f in tail.terms:
                if len(f) != n:
                    raise PresentationError(f"tail ({k},{j}) has a term with other than {n} exponents")
                if self.monomial_degree(f) != want:
                    raise PresentationError(f"tail ({k},{j}) is not degree-homogeneous")

    @property
    def n(self) -> int:
        """The generator count."""
        return len(self.lambda_exp)

    @property
    def nu_exp(self) -> tuple[tuple[Q, ...], ...]:
        return tuple(tuple(Q(x, 2) for x in row) for row in self.lambda_exp)

    @cached_property
    def walk(self) -> Walk:
        """The same-level walk of eta (`coxeter.walk`)."""
        return walk(self.eta)

    @cached_property
    def rewrite_rules(self) -> tuple[tuple[tuple[VLaurent, tuple], ...], ...]:
        """rules[k][j] = (v^lambda_kj, the tail as (word, coefficient) pairs) for j < k; built once."""

        def rule(k: int, j: int) -> tuple[VLaurent, tuple]:
            tail = self.tails.get((k, j), NFPoly())
            return VLaurent.v_power(self.lambda_exp[k][j]), tuple((_word_of(g), c) for g, c in tail.terms.items())

        return tuple(tuple(rule(k, j) for j in range(k)) for k in range(self.n))

    def chain(self, i: int, m: int) -> list[int]:
        """The positions i, s(i), ..., s^m(i) of i's level; raises if s^m(i) does not exist."""
        s = self.walk.succ
        out = [i]
        for _ in range(m):
            if s[out[-1]] is None:
                raise PresentationError(f"chain out of range: s^{m}({i}) does not exist")
            out.append(s[out[-1]])
        return out

    def monomial_degree(self, f: Sequence[int]) -> tuple[int, ...]:
        return combine(self.degrees, f)

    def poly_degree(self, a: NFPoly) -> tuple[int, ...]:
        """Common degree of a homogeneous element; raises if mixed."""
        degs = {self.monomial_degree(f) for f in a.terms}
        if len(degs) != 1:
            raise PresentationError(f"element is not homogeneous: degrees {degs}")
        return degs.pop()


def _word_of(f: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for i, m in enumerate(f):
        out.extend([i] * m)
    return tuple(out)


def _inversions(w: Sequence[int]) -> int:
    """Number of out-of-order letter pairs of a word; 0 exactly for a PBW-ordered word."""
    return sum(x > y for i, x in enumerate(w) for y in w[i + 1:])


def nf_mul(pres: CGLPresentation, a: NFPoly, b: NFPoly) -> NFPoly:
    """Product in normal form, straightening each distinct word once; associative, unit-preserving.

    The words of all term pairs join one worklist keyed by word, and the
    coefficients that reach one word are added before it is rewritten, which
    is exact since the normal-form map is linear.  A word is rewritten at its
    first descent x_k x_j (k > j) into lambda_kj x_j x_k plus the tail.  The
    longest word with the most inversions is expanded first, so with tails
    of fewer than two letters every word waits for all words that rewrite
    into it.  A PBW-ordered word goes straight to the one accumulator; the
    engine's rewrite budget, `REWRITE_BUDGET` words per product, counts the
    words expanded.  Every operand term must have one exponent per generator.
    """
    n = pres.n
    if any(len(f) != n for f in a._terms) or any(len(g) != n for g in b._terms):
        raise PresentationError(f"nf_mul operands must have {n} exponents per term")
    rules = pres.rewrite_rules
    budget = REWRITE_BUDGET
    done: dict[tuple[int, ...], VLaurent] = {}      # PBW-ordered words
    pending: dict[tuple[int, ...], VLaurent] = {}
    heap: list[tuple[int, int, tuple[int, ...]]] = []

    def put(w: tuple[int, ...], c: VLaurent, inv: int) -> None:
        if not inv:
            done[w] = done[w] + c if w in done else c
        elif w in pending:
            pending[w] = pending[w] + c
        else:
            pending[w] = c
            heappush(heap, (-len(w), -inv, w))

    for f, cf in a._terms.items():
        for g, cg in b._terms.items():
            w = _word_of(f) + _word_of(g)
            put(w, cf * cg, _inversions(w))
    while heap:
        _, neg_inv, w = heappop(heap)
        c = pending.pop(w)
        if c.is_zero():
            continue
        budget -= 1
        if budget < 0:
            raise RewriteBudgetExceeded("rewrite budget exhausted; check the presentation tails")
        t = next(i for i in range(len(w) - 1) if w[i] > w[i + 1])
        k, j = w[t], w[t + 1]
        lam, tail = rules[k][j]
        head, rest = w[:t], w[t + 2:]
        put(head + (j, k) + rest, c * lam, -neg_inv - 1)
        for g, cg in tail:
            v = head + g + rest
            put(v, c * cg, _inversions(v))
    return NFPoly({tuple(map(w.count, range(n))): c for w, c in done.items()})


def nf_mul_all(pres: CGLPresentation, factors: Sequence[NFPoly]) -> NFPoly:
    out = NFPoly.one(pres.n)
    for x in factors:
        out = nf_mul(pres, out, x)
    return out


def audit_presentation(pres: CGLPresentation, trials: int = 200, seed: int = 0) -> None:
    """Randomized associativity audit on monomials of degree at most 3; raises PresentationError on failure."""
    rng = random.Random(seed)

    def rand_monomial() -> NFPoly:
        f = [0] * pres.n
        for _ in range(rng.randint(0, 3)):
            f[rng.randrange(pres.n)] += 1
        return NFPoly.monomial(tuple(f))

    for _ in range(trials):
        a, b, c = rand_monomial(), rand_monomial(), rand_monomial()
        left = nf_mul(pres, nf_mul(pres, a, b), c)
        right = nf_mul(pres, a, nf_mul(pres, b, c))
        if left != right:
            raise PresentationError(f"associativity fails on {a}, {b}, {c}")


def xcomm_check(pres: CGLPresentation, f: Sequence[int]) -> bool:
    """Leading term of the reverse-ordered monomial against the symmetrization scalar."""
    factors = []
    for i in range(pres.n - 1, -1, -1):
        for _ in range(f[i]):
            factors.append(NFPoly.generator(pres.n, i))
    prod = nf_mul_all(pres, factors)
    coef, exp = leading_term(prod)
    return exp == tuple(f) and coef == scr(pres.lambda_exp, f)


def quasi_commutation_scalar(pres: CGLPresentation, a: NFPoly, b: NFPoly) -> VLaurent | None:
    """The v-power z with a b = z b a, or None when they do not quasi-commute.

    ab and ba share their leading exponent, the sum of a's and b's, and so
    vanish together: a rewrite keeps the sorted word with a v-power and adds
    only lower words.  So z is read off the two leading coefficients.
    """
    ab = nf_mul(pres, a, b)
    ba = nf_mul(pres, b, a)
    if ab.is_zero():
        return VLaurent.one()
    e = min(leading_term(ab)[0].terms) - min(leading_term(ba)[0].terms)
    z = VLaurent.v_power(e)
    return z if ab == ba.scale(z) else None


# ---------------------------------------------------------------------------
# Chain elements
# ---------------------------------------------------------------------------

CTable = dict[tuple[int, int], NFPoly]


def interval_y(pres: CGLPresentation, i: int, m: int, c_table: CTable) -> NFPoly:
    """Chain element with leading term x_i x_{s(i)} ... x_{s^m(i)}.

    Built by the recursion  y_[i, s^l(i)] = y_[i, s^{l-1}(i)] x_{s^l(i)} - c,
    with the caller-supplied c validated through homogeneity and the
    leading-term formula.
    """
    chain = pres.chain(i, m)
    y = NFPoly.generator(pres.n, i)
    for j in chain[1:]:
        c = c_table.get((i, j))
        if c is None:
            raise PresentationError(f"missing chain element c[{(i, j)}]")
        y = nf_mul(pres, y, NFPoly.generator(pres.n, j)) - c
    lead = interval_exponent(pres, i, m)
    if pres.poly_degree(y) != pres.monomial_degree(lead):
        raise PresentationError(f"chain element [{i},{chain[-1]}] has wrong degree")
    coef, exp = leading_term(y)
    if exp != lead or coef != VLaurent.one():
        raise PresentationError(f"chain element [{i},{chain[-1]}] has wrong leading term")
    return y


def _keyed_chain(pres: CGLPresentation, key) -> list[int]:
    """The chain from i to end that a chain input c[(i, end)] is keyed by; raises if there is none."""
    if not (isinstance(key, tuple) and len(key) == 2 and 0 <= key[0] < key[1] < pres.n):
        raise PresentationError(f"chain input key {key!r} is not a (start, end) pair of positions")
    i, end = key
    o_minus = pres.walk.o_minus
    chain = pres.chain(i, o_minus[end] - o_minus[i])
    if chain[-1] != end:
        raise PresentationError(f"c[{key}] does not key a chain from {i} to {end}")
    return chain


def y_elements(pres: CGLPresentation, c_table: CTable) -> list[NFPoly]:
    """The full prime-element chain y_0, ..., y_{n-1} of the presentation.

    Chain inputs are keyed by (start, end) pairs of one chain.  y_k runs
    from root(k), the first position of k's level, over O_-(k) steps to k,
    and root(k) = root(p(k)) is read off the walk in one pass.
    """
    for key in c_table:
        _keyed_chain(pres, key)
    p, o_minus = pres.walk.pred, pres.walk.o_minus
    roots: list[int] = []
    out = []
    for k in range(pres.n):
        roots.append(k if p[k] is None else roots[p[k]])
        y = interval_y(pres, roots[k], o_minus[k], c_table)
        for j in range(k + 1):
            if quasi_commutation_scalar(pres, y, NFPoly.generator(pres.n, j)) is None:
                raise PresentationError(f"y_{k} does not normalize x_{j}")
        out.append(y)
    return out


def interval_exponent(pres: CGLPresentation, i: int, m: int) -> tuple[int, ...]:
    """Indicator vector of the chain i, s(i), ..., s^m(i)."""
    chain = pres.chain(i, m)
    return tuple(int(t in chain) for t in range(pres.n))


def u_element(pres: CGLPresentation, c_table: CTable, i: int, m: int) -> NFPoly:
    """Normal element of the open interval produced by two chain elements.

    For m >= 1 with s^m(i) in range:
        u = y_[i, s^{m-1}(i)] y_[s(i), s^m(i)]
            - Omega_lambda(e_i, e_[s(i), s^{m-1}(i)]) y_[s(i), s^{m-1}(i)] y_[i, s^m(i)]
    with the empty-interval conventions for m = 1.  The support is asserted
    to lie strictly between i and s^m(i).
    """
    if m < 1:
        raise PresentationError(f"interval elements need m >= 1, not {m}")
    chain = pres.chain(i, m)
    si, hi = chain[1], chain[-1]
    y_left = interval_y(pres, i, m - 1, c_table)
    y_right = interval_y(pres, si, m - 1, c_table)
    y_full = interval_y(pres, i, m, c_table)
    y_mid = NFPoly.one(pres.n) if m == 1 else interval_y(pres, si, m - 2, c_table)
    omega_e = Q(sum(pres.lambda_exp[i][t] for t in chain[1:-1]))   # Omega(e_i, e_[s(i), s^{m-1}(i)])
    u = nf_mul(pres, y_left, y_right) - nf_mul(pres, y_mid, y_full).scale(VLaurent.v_power(omega_e))
    inside = set(range(i + 1, hi))
    if u.is_zero():
        raise PresentationError(f"interval element [{i},{hi}] vanishes")
    if not u.support_indices() <= inside:
        raise PresentationError(f"interval element [{i},{hi}] leaves the open interval")
    pres.poly_degree(u)
    return u


def rescale_scalar_identity(pres: CGLPresentation, c_table: CTable, i: int, m: int) -> bool:
    """Leading coefficient of the m-step interval element against its predicted scalar.

    At m = 1 this is the normalization condition: the tail is the one
    position s(i), whose symmetrization scalar is v^0, so the leading
    coefficient must be the symmetrization scalar of the exponent less e_i.
    """
    coef, f = leading_term(u_element(pres, c_table, i, m))
    shifted = tuple(x - (1 if t == i else 0) for t, x in enumerate(f))
    tail_vec = interval_exponent(pres, pres.chain(i, 1)[1], m - 1)
    return coef == scr(pres.nu_exp, tail_vec).inverse() ** 2 * scr(pres.nu_exp, shifted)


# ---------------------------------------------------------------------------
# Rescaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RescaleReport:
    y_scalars: tuple[VLaurent, ...]
    u_scalars: dict[tuple[int, int], VLaurent]


def _product(t: Sequence[VLaurent], indices: Sequence[int]) -> VLaurent:
    """prod_j t_j over the indices, with multiplicity."""
    out = VLaurent.one()
    for j in indices:
        out = out * t[j]
    return out


def _rescaled(poly: NFPoly, t: Sequence[VLaurent], z: VLaurent) -> NFPoly:
    """z poly in the generators t_i x_i: each x^f also picks up (prod_i t_i^(f_i))^(-1)."""
    return NFPoly({f: c * z * _product(t, _word_of(f)).inverse() for f, c in poly.terms.items()})


def rescale(pres: CGLPresentation, t: Sequence[VLaurent]) -> tuple[CGLPresentation, RescaleReport]:
    """Presentation on the rescaled generators t_j x_j, with induced scalars.

    The commutation exponents do not change; every tail picks up t_k t_j and
    is rewritten in the scaled generators.  The report carries the scalars
    by which the chain elements y and the interval elements u transform.
    """
    if len(t) != pres.n:
        raise PresentationError("one unit per generator required")
    if not all(z.is_monomial() for z in t):
        raise PresentationError("rescaling units must be nonzero monomials")

    new_tails = {(k, j): _rescaled(tail, t, _product(t, (k, j))) for (k, j), tail in pres.tails.items()}
    new_pres = CGLPresentation(lambda_exp=pres.lambda_exp, tails=new_tails, eta=pres.eta, degrees=pres.degrees)
    p, o_plus = pres.walk.pred, pres.walk.o_plus
    y_scalars: list = [None] * pres.n
    u_scalars: dict[tuple[int, int], VLaurent] = {}
    for i in range(pres.n):
        chain = pres.chain(i, o_plus[i])
        if p[i] is None:   # y_k runs from the first position of k's level to k
            for a, k in enumerate(chain):
                y_scalars[k] = _product(t, chain[: a + 1])
        for m in range(1, len(chain)):
            u_scalars[(i, m)] = _product(t, chain[: m + 1] + chain[1:m])   # t_i t_{s^m(i)}, the middle squared
    return new_pres, RescaleReport(tuple(y_scalars), u_scalars)


def rescale_c_table(pres: CGLPresentation, c_table: CTable, t: Sequence[VLaurent]) -> CTable:
    """Chain-element inputs matching a rescaled presentation: c[(i, end)] scales by the t over its chain."""
    return {key: _rescaled(c, t, _product(t, _keyed_chain(pres, key))) for key, c in c_table.items()}


# ---------------------------------------------------------------------------
# Shipped presentations
# ---------------------------------------------------------------------------


def sl2_presentation() -> tuple[CGLPresentation, CTable]:
    """Two generators with  x_2 x_1 = q^2 x_1 x_2 + (1 - q^2)."""
    one_minus_q2 = VLaurent({0: 1, 4: -1})
    pres = CGLPresentation(
        lambda_exp=((0, -4), (4, 0)),
        tails={(1, 0): NFPoly({(0, 0): one_minus_q2})},
        eta=(1, 1),
        degrees=((-1,), (1,)),
    )
    c_table: CTable = {(0, 1): NFPoly.one(2)}
    return pres, c_table


def a2_presentation() -> tuple[CGLPresentation, CTable]:
    """Four-generator double-cell fragment with a three-step level chain.

    Generators x_1, x_2, x_3 span the longest-word cell of rank two, x_4 is
    the extra column generator; levels are (1, 2, 1, 1), so the first level
    class has a two-step successor chain, which is what the multi-step
    interval-element identities need.
    """
    one_minus_q2 = VLaurent({0: 1, 4: -1})
    kappa_prime = VLaurent({-1: 1, 3: -1})   # v^{-1} - v^3
    pres = CGLPresentation(
        lambda_exp=(
            (0, 2, -2, 2),
            (-2, 0, 2, -2),
            (2, -2, 0, -4),
            (-2, 2, 4, 0),
        ),
        tails={
            (2, 0): NFPoly({(0, 1, 0, 0): kappa_prime}),
            (3, 2): NFPoly({(0, 0, 0, 0): one_minus_q2}),
        },
        eta=(1, 2, 1, 1),
        degrees=((0, -1), (-1, -1), (-1, 0), (1, 0)),
    )
    c_table: CTable = {
        (0, 2): NFPoly({(0, 1, 0, 0): VLaurent.v_power(1)}),
        (2, 3): NFPoly.one(4),
        (0, 3): NFPoly({(1, 0, 0, 0): VLaurent.one()}),
    }
    return pres, c_table


def shipped_presentations() -> dict[str, tuple[CGLPresentation, CTable]]:
    return {"sl2": sl2_presentation(), "a2": a2_presentation()}


# ---------------------------------------------------------------------------
# The rank-one worked example
# ---------------------------------------------------------------------------


def _require(ok: bool, step: str) -> None:
    if not ok:
        raise ExampleMismatch(f"rank-one example: {step} does not hold")


def sl2_example() -> dict:
    """Build and verify the rank-one example end to end.

    Checks, by normal-form arithmetic: the defining relation, the frozen
    chain element q(Y- Y+ - 1) shared by both seeds, the exchange relation
    Y+ Y- = q p + 1, the commutation p Y- = q^2 Y- p matching the seed
    frame, and the mutation exchanging the two cluster variables.
    """
    pres, c_table = sl2_presentation()
    audit_presentation(pres, trials=60, seed=7)
    x1 = NFPoly.generator(2, 0)   # Y-
    x2 = NFPoly.generator(2, 1)   # Y+

    # defining relation
    q2 = VLaurent.q_power(2)
    rel = nf_mul(pres, x2, x1) - nf_mul(pres, x1, x2).scale(q2) - NFPoly({(0, 0): VLaurent({0: 1, 4: -1})})
    _require(rel.is_zero(), "defining relation x2 x1 = q^2 x1 x2 + (1 - q^2)")

    ys = y_elements(pres, c_table)
    y2 = ys[1]                                    # Y- Y+ - 1
    normalizer = scr(pres.nu_exp, (1, 1))         # the chain's symmetrization scalar, q
    _require(normalizer == VLaurent.q_power(1), "chain normalizer is q")
    p_elem = y2.scale(normalizer)                 # q (Y- Y+ - 1), the frozen variable
    _require(
        p_elem == NFPoly({(1, 1): VLaurent.q_power(1), (0, 0): VLaurent.q_power(1).scale(-1)}),
        "frozen variable is q (Y- Y+ - 1)",
    )

    # exchange relation Y+ Y- = q p + 1
    lhs = nf_mul(pres, x2, x1)
    rhs = p_elem.scale(VLaurent.q_power(1)) + NFPoly.one(2)
    _require(lhs == rhs, "exchange relation Y+ Y- = q p + 1")

    # commutation p Y- = q^2 Y- p, the value the seed frame must reproduce
    z = quasi_commutation_scalar(pres, p_elem, x1)
    _require(z == VLaurent.q_power(2), "commutation p Y- = q^2 Y- p")

    cartan = cartan_init("A", 1)
    bow = dbc.bowtie_build(cartan, (1,), (1,))
    seed_id = dbc.sigma_seed(bow, (0, 1)).seed
    seed_swap = dbc.sigma_seed(bow, (1, 0)).seed
    _require(seed_id.frame.psi[1][0] == 2, "identity seed frame exponent")
    _require(seed_id.exchange.column(0) == (0, 1), "identity seed exchange column")

    # mutation at the first index exchanges the two cluster variables:
    # matrix level ...
    mutated = mutate_seed(seed_id, 0)
    _require(mutated.frame.psi == seed_swap.frame.psi, "mutated frame equals the swapped seed's")
    _require(mutated.exchange == seed_swap.exchange, "mutated exchange matrix equals the swapped seed's")
    _require(mutated.degrees == seed_swap.degrees, "mutated degrees equal the swapped seed's")
    # ... and value level: the cleared form of M(-e1+e2) + M(-e1) = Y+ is
    # exactly the exchange relation checked above.

    return {
        "presentation": pres,
        "c_table": c_table,
        "frozen": p_elem,
        "seed_id": seed_id,
        "seed_swap": seed_swap,
        "exchange_relation": (lhs, rhs),
        "commutation": z,
    }
