"""Quantum seeds at matrix level: compatibility, mutation, reindexing,
the antiisomorphism transform, and graded reduction.

A seed here is a frame exponent matrix together with an integer exchange
matrix, per-index degree vectors in some lattice, and a symmetrizer vector.
Cluster-variable values never appear at this level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from . import linalg
from .qtorus import DimensionMismatch, FrameMatrix, frame_restrict


class NotExchangeable(ValueError):
    pass


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class ExchangeMatrix:
    """Integer n x |ex| matrix whose columns are keyed by exchangeable indices."""

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


def _basis(n: int, k: int) -> tuple[int, ...]:
    return tuple(1 if i == k else 0 for i in range(n))


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
    """Matrix mutation in direction k; involutive."""
    col_k = b.column(k)
    new_cols = []
    for idx, j in enumerate(b.ex):
        col_j = b.cols[idx]
        if j == k:
            new_cols.append(tuple(-x for x in col_j))
            continue
        bkj = col_j[k]
        new = []
        for i in range(b.n):
            if i == k:
                new.append(-col_j[i])
            else:
                bik = col_k[i]
                new.append(col_j[i] + max(bik, 0) * max(bkj, 0) - max(-bik, 0) * max(-bkj, 0))
        new_cols.append(tuple(new))
    return ExchangeMatrix(b.n, b.ex, tuple(new_cols))


def _mutation_row(seed: QuantumSeed, k: int, sign: int) -> tuple[int, ...]:
    """Row k of the mutation basis: -e_k + sum over i != k of [sign b_ik]_+ e_i."""
    g = [max(sign * x, 0) for x in seed.exchange.column(k)]
    g[k] = -1
    return tuple(g)


def mutation_basis(seed: QuantumSeed, k: int, sign: int) -> list[tuple[int, ...]]:
    """Basis change of mutation at k: e_k -> -e_k + sum [sign b_ik]_+ e_i."""
    n = seed.size
    return [_mutation_row(seed, k, sign) if j == k else _basis(n, j) for j in range(n)]


def mutated_degree(seed: QuantumSeed, k: int) -> tuple[int, ...]:
    """Degree of the variable that replaces x_k: row k of `mutation_basis(seed, k, +1)` applied to the degrees."""
    return linalg.combine(seed.degrees, _mutation_row(seed, k, +1))


def mutate_seed(seed: QuantumSeed, k: int) -> QuantumSeed:
    """Seed mutation in direction k: frame, exchange matrix and degrees.

    The frame is restricted along `mutation_basis(seed, k, +1)`; for a
    compatible seed the opposite sign gives the same frame.  Nothing is
    checked here: `verify.xi_linkage` compares the two signs, and callers
    run `check_compatible`.
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


def reindex(seed: QuantumSeed, tau: Sequence[int]) -> QuantumSeed:
    """Right action of a permutation: position j of the result carries tau(j).

    `FrameMatrix.reindex` first raises ValueError unless tau permutes the ints
    0..n-1; the exchange columns, degrees and d are then gathered along tau.
    """
    new_frame = seed.frame.reindex(tau)
    inverse = [0] * seed.size
    for j, v in enumerate(tau):
        inverse[v] = j
    at_tau = linalg.gather(tau)
    # (new index, gathered column) pairs, sorted by the index: the indices are
    # distinct, so no column is ever compared
    moved = sorted(zip(map(inverse.__getitem__, seed.ex), map(at_tau, seed.exchange.cols)))
    new_ex, new_cols = zip(*moved) if moved else ((), ())
    return QuantumSeed(
        frame=new_frame,
        exchange=ExchangeMatrix(seed.size, new_ex, new_cols),
        inv=frozenset(inverse[k] for k in seed.inv),
        degrees=at_tau(seed.degrees),
        d=at_tau(seed.d),
    )


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
