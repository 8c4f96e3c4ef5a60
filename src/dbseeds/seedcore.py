"""Quantum seeds at matrix level: compatibility, mutation, reindexing,
the antiisomorphism transform, and graded reduction.

A seed here is a frame exponent matrix together with an integer exchange
matrix, per-index degree vectors in some lattice, and a symmetrizer vector.
Cluster-variable values never appear at this level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

from . import linalg
from .qtorus import DimensionMismatch, FrameMatrix, frame_restrict


class NotExchangeable(ValueError):
    pass


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class ExchangeMatrix:
    """Integer n x |ex| matrix whose columns are keyed by exchangeable indices.

    The constructor checks one column per exchangeable index, each of
    length n.  `_trusted` skips these checks; its only callers build columns
    that keep them by construction: `dbc.double_word_matrix` makes one
    column of length n = len(letters) per index of ex, and `mutate_exchange`
    keeps b's n and ex and moves entries of b's columns in place.
    """

    n: int
    ex: tuple[int, ...]                       # ordered, 0-based
    cols: tuple[tuple[int, ...], ...]         # cols[i] is the column of ex[i]
    _pos: dict = field(init=False, repr=False, compare=False)   # k -> its place in ex

    def __post_init__(self):
        if len(self.ex) != len(self.cols):
            raise ValueError("one column per exchangeable index required")
        for c in self.cols:
            if len(c) != self.n:
                raise ValueError("column length must equal n")
        object.__setattr__(self, "_pos", {k: i for i, k in enumerate(self.ex)})

    @classmethod
    def _trusted(cls, n: int, ex: tuple[int, ...], cols: tuple[tuple[int, ...], ...]) -> "ExchangeMatrix":
        """Exchange matrix whose construction gives one column of length n per index of ex; no check is run."""
        b = object.__new__(cls)
        object.__setattr__(b, "n", n)
        object.__setattr__(b, "ex", ex)
        object.__setattr__(b, "cols", cols)
        object.__setattr__(b, "_pos", {k: i for i, k in enumerate(ex)})
        return b

    def column(self, k: int) -> tuple[int, ...]:
        try:
            return self.cols[self._pos[k]]
        except KeyError:
            raise NotExchangeable(f"index {k} is not exchangeable") from None

    def is_skew_symmetrizable(self, d: Sequence[int]) -> bool:
        """d_j b_jk = -d_k b_kj for all exchangeable j, k, read from the columns by position."""
        ex, cols = self.ex, self.cols
        return all(
            d[j] * cols[b][j] == -d[k] * cols[a][k]
            for a, j in enumerate(ex) for b, k in enumerate(ex[: a + 1])
        )

    def negate(self) -> "ExchangeMatrix":
        return ExchangeMatrix(self.n, self.ex, tuple(tuple(-x for x in c) for c in self.cols))


@dataclass(frozen=True)
class QuantumSeed:
    """Frame + exchange matrix + frozen data + degrees + symmetrizers."""

    frame: FrameMatrix
    exchange: ExchangeMatrix
    inv: frozenset[int]
    degrees: tuple[tuple[int, ...], ...]      # one lattice vector per index
    d: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.frame.size

    @property
    def ex(self) -> tuple[int, ...]:
        return self.exchange.ex


@dataclass(frozen=True)
class CompatReport:
    ok: bool
    orthogonality_failures: tuple[tuple[int, int], ...]   # (k, j) with psi(b^k, e_j) != 0
    value_exponents: dict[int, int]                       # psi(b^k, e_k) per k in ex
    degenerate: tuple[int, ...]                           # k with psi(b^k, e_k) == 0
    degree_failures: tuple[int, ...]                      # k with nonzero degree balance


@dataclass
class CheckResult:
    """The outcome of one named check: `dbc.connections_check` and the sweeps of `verify`."""

    name: str
    ok: bool
    detail: str = ""


def degree_balance(seed: QuantumSeed, k: int) -> tuple[int, ...]:
    """Sum_j b^k_j * degrees_j, which must vanish for a graded seed."""
    return linalg.combine(seed.degrees, seed.exchange.column(k))


def exchange_pairings(frame: FrameMatrix, exchange: ExchangeMatrix) -> tuple[tuple[int, ...], ...]:
    """Rows of B^T psi: row i holds psi(b^k, e_j) for k = exchange.ex[i] and every j.

    Row i is the sum of psi's rows over the nonzero entries of column i.
    """
    if exchange.n != frame.size:
        raise DimensionMismatch("exchange matrix height does not match frame size")
    return tuple(linalg.combine(frame.psi, b) for b in exchange.cols)


def check_compatible(seed: QuantumSeed) -> CompatReport:
    """Frame/exchange compatibility and degree balance, reported per column."""
    orth = []
    values: dict[int, int] = {}
    degenerate = []
    bad_degrees = []
    for k, row in zip(seed.ex, exchange_pairings(seed.frame, seed.exchange)):
        for j, e in enumerate(row):
            if j == k:
                values[k] = e
                if e == 0:
                    degenerate.append(k)
            elif e != 0:
                orth.append((k, j))
        if any(x != 0 for x in degree_balance(seed, k)):
            bad_degrees.append(k)
    ok = not orth and not degenerate and not bad_degrees
    return CompatReport(ok, tuple(orth), values, tuple(degenerate), tuple(bad_degrees))


def mutate_exchange(b: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k; involutive.

    b'_ij = b_ij + [b_ik]_+ [b_kj]_+ - [-b_ik]_+ [-b_kj]_+ off row and column
    k, b'_kj = -b_kj, and column k is negated.  Each added term carries the
    factor [+-b_kj]_+, so a column with b_kj = 0 passes through as the same
    tuple (its entry k is -0).  Any other column moves at entry k and at the
    rows i != k where b_ik has the sign of b_kj, by b_ik |b_kj|; those rows
    are read from column k's nonzeros once per call.
    """
    col_k = b.column(k)
    rises = [(i, x) for i, x in enumerate(col_k) if x > 0 and i != k]
    falls = [(i, x) for i, x in enumerate(col_k) if x < 0 and i != k]
    new_cols = []
    for j, col_j in zip(b.ex, b.cols):
        bkj = col_j[k]
        if j == k:
            col_j = tuple(-x for x in col_j)
        elif bkj:
            new = list(col_j)
            new[k] = -bkj
            scale = abs(bkj)
            for i, bik in rises if bkj > 0 else falls:
                new[i] += bik * scale
            col_j = tuple(new)
        new_cols.append(col_j)
    return ExchangeMatrix._trusted(b.n, b.ex, tuple(new_cols))


def _mutation_row(seed: QuantumSeed, k: int, sign: int) -> tuple[int, ...]:
    """Row k of the mutation basis: -e_k + sum over i != k of [sign b_ik]_+ e_i, for sign +1 or -1."""
    col = seed.exchange.column(k)
    g = [x if x > 0 else 0 for x in col] if sign > 0 else [-x if x < 0 else 0 for x in col]
    g[k] = -1
    return tuple(g)


@lru_cache(maxsize=32)
def _unit_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The unit vectors e_0..e_{n-1}, cut from one row of zeros once per n and shared by every basis of that size."""
    zeros = (0,) * (n - 1)
    return tuple(zeros[:j] + (1,) + zeros[j:] for j in range(n))


def mutation_basis(seed: QuantumSeed, k: int, sign: int) -> list[tuple[int, ...]]:
    """Basis change of mutation at k: e_k -> -e_k + sum [sign b_ik]_+ e_i.

    Every other row is the unit vector e_j, shared through `_unit_rows`; the
    list is new, so a caller may replace its rows.
    """
    row = _mutation_row(seed, k, sign)
    basis = list(_unit_rows(seed.size))
    basis[k] = row
    return basis


def mutated_degree(seed: QuantumSeed, k: int) -> tuple[int, ...]:
    """Degree of the variable that replaces x_k: row k of `mutation_basis(seed, k, +1)` applied to the degrees."""
    return linalg.combine(seed.degrees, _mutation_row(seed, k, +1))


def mutate_seed(seed: QuantumSeed, k: int) -> QuantumSeed:
    """Seed mutation in direction k: frame, exchange matrix and degrees.

    The frame is restricted along `mutation_basis(seed, k, +1)`; for a
    compatible seed the opposite sign gives the same frame.  Nothing is
    checked here: callers run `check_compatible`, and `verify.xi_linkage`,
    which never calls this, compares the two signs by the moved-row rule.
    """
    if k not in seed.ex:
        raise NotExchangeable(f"index {k} is not exchangeable")
    new_frame = frame_restrict(seed.frame, mutation_basis(seed, k, +1))
    new_deg = list(seed.degrees)
    new_deg[k] = mutated_degree(seed, k)
    return QuantumSeed(
        frame=new_frame,
        exchange=mutate_exchange(seed.exchange, k),
        inv=seed.inv,
        degrees=tuple(new_deg),
        d=seed.d,
    )


def seed_fields(seed: QuantumSeed) -> tuple:
    """The values that seed equality compares, in order: psi, the exchange matrix's n, ex and columns, inv, degrees, d."""
    b = seed.exchange
    return seed.frame.psi, b.n, b.ex, b.cols, seed.inv, seed.degrees, seed.d


def reindex_fields(seed: QuantumSeed, tau: Sequence[int]) -> tuple:
    """`seed_fields(reindex(seed, tau))` with no seed or exchange matrix built: the one gather rule of reindexing.

    psi is the frame's principal submatrix at tau (`FrameMatrix.principal`),
    and one `linalg.gather` reads the exchange columns, the degrees and d.
    The columns are sorted by their new index tau^-1(k); the indices are
    distinct, so no column is ever compared.  inv is mapped by tau^-1.  tau
    must permute 0..n-1 (unchecked).
    """
    n = seed.size
    inverse = [0] * n
    for j, v in enumerate(tau):
        inverse[v] = j
    at_tau = linalg.gather(tau)
    b = seed.exchange
    moved = sorted(zip(map(inverse.__getitem__, b.ex), map(at_tau, b.cols)))
    new_ex, new_cols = zip(*moved) if moved else ((), ())
    return (
        seed.frame.principal(tau).psi, n, new_ex, new_cols,
        frozenset(inverse[k] for k in seed.inv), at_tau(seed.degrees), at_tau(seed.d),
    )


def reindex(seed: QuantumSeed, tau: Sequence[int]) -> QuantumSeed:
    """Right action of a permutation: position j of the result carries tau(j).

    `FrameMatrix.reindex` first raises ValueError unless tau permutes the
    ints 0..n-1 and gives the checked frame; the other fields are
    `reindex_fields`', whose unchecked psi is dropped.  No library code
    calls it; `perfbench/` keeps it.
    """
    frame = seed.frame.reindex(tau)
    _, n, ex, cols, inv, degrees, d = reindex_fields(seed, tau)
    return QuantumSeed(frame=frame, exchange=ExchangeMatrix(n, ex, cols), inv=inv, degrees=degrees, d=d)


def antiiso_transform(seed: QuantumSeed) -> QuantumSeed:
    """Matrix shadow of an algebra antiisomorphism: psi -> -psi, B -> -B."""
    return replace(seed, frame=seed.frame.negate(), exchange=seed.exchange.negate())


def graded_reduce(seed: QuantumSeed, n_reduce: int) -> QuantumSeed:
    """Quotient a graded seed by its first n_reduce frozen, invertible indices.

    The degrees of the first n_reduce variables must span every degree of
    the seed with integer coordinates; all of the shifts come from one
    elimination (`linalg.solve_columns`).  The result lives on the remaining
    indices, with all degrees zero.
    """
    if n_reduce == 0:
        return seed
    n = seed.size
    if len(seed.degrees) != n:
        raise ReductionError("degree table must cover every index")
    head = set(range(n_reduce))
    if head & set(seed.ex):
        raise ReductionError("reduced indices must be frozen")
    if not head <= seed.inv:
        raise ReductionError("reduced indices must be invertible")

    phi = linalg.transpose(seed.degrees[:n_reduce])
    try:
        shifts = linalg.solve_columns(phi, seed.degrees[n_reduce:])
    except linalg.LinearSolveError as exc:
        raise ReductionError(
            f"degree of index {n_reduce + exc.column} is not an integer combination of the leading degrees: {exc}"
        ) from None

    vectors = []
    for k in range(n_reduce, n):
        g = [0] * n
        g[k] = 1
        for i, c in enumerate(shifts[k - n_reduce]):
            g[i] -= c
        vectors.append(g)

    new_ex = tuple(k - n_reduce for k in seed.ex)
    new_cols = tuple(
        tuple(seed.exchange.column(k)[j] for j in range(n_reduce, n)) for k in seed.ex
    )
    width = len(seed.degrees[0]) if seed.degrees else 0
    return QuantumSeed(
        frame=frame_restrict(seed.frame, vectors),
        exchange=ExchangeMatrix(n - n_reduce, new_ex, new_cols),
        inv=frozenset(k - n_reduce for k in seed.inv if k >= n_reduce),
        degrees=tuple((0,) * width for _ in range(n - n_reduce)),
        d=seed.d[n_reduce:],
    )
