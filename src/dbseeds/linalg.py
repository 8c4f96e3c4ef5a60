"""Small exact linear algebra on tuples of tuples (rows).

Matrices are small (a few dozen rows at most).  `bilinear` computes in the
type of its inputs: integer frames and vectors give an `int`, and a
`Fraction` matrix or coordinate gives a `Fraction`.  It skips zero
coordinates, since most of its vectors are basis vectors or sparse exchange
columns.  The
eliminations convert their input to `Fraction` and pivot exactly; they serve
the solves that are genuinely linear systems (the exchange-column oracle,
graded reduction, rank tests).  The chain-basis changes of the seed
constructors have a closed integer form instead (`dbc.chain_transport`).
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence

Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_vec(a: Mat, v: Sequence) -> Vec:
    return tuple(sum(x * Q(y) for x, y in zip(row, v)) for row in a)


def bilinear(u: Sequence, a: Sequence[Sequence], v: Sequence):
    """u^T a v in the type of the inputs; zero coordinates of u and v are skipped.

    The sum starts from the zero of the matrix's entry type, so an int matrix
    with int vectors gives an int, and a Fraction matrix, or a Fraction
    coordinate that enters a product, gives a Fraction.
    """
    v_nz = [(j, y) for j, y in enumerate(v) if y]
    total = 0 * a[0][0] if a else 0
    for i, x in enumerate(u):
        if x:
            row = a[i]
            total += x * sum(row[j] * y for j, y in v_nz)
    return total


def _echelon(rows: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def rank(a: Mat) -> int:
    if not a:
        return 0
    rows = [[Q(x) for x in row] for row in a]
    _, pivots = _echelon(rows)
    return len(pivots)


def mat_inv(a: Mat) -> Mat:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    n = len(a)
    rows = [[Q(x) for x in row] + [Q(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    rows, pivots = _echelon(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


class LinearSolveError(ValueError):
    """Stacked linear system is inconsistent or does not pin a unique solution."""


def solve_unique(a: Mat, b: Sequence) -> Vec:
    """Solve a x = b where a may be rectangular; the solution must be unique.

    Raises LinearSolveError when the system is inconsistent (no solution)
    or underdetermined (free variables remain).
    """
    n = len(a)
    m = len(a[0]) if n else 0
    rows = [[Q(x) for x in row] + [Q(b[i])] for i, row in enumerate(a)]
    rows, pivots = _echelon(rows)
    if m in pivots:
        raise LinearSolveError("inconsistent system")
    if len(pivots) < m:
        raise LinearSolveError("underdetermined system")
    sol = [Q(0)] * m
    for r, c in enumerate(pivots):
        sol[c] = rows[r][m]
    return tuple(sol)


def as_int_vec(v: Sequence[Q]) -> tuple[int, ...]:
    """Cast an exact rational vector to integers; raises ValueError otherwise."""
    out = []
    for x in v:
        q = Q(x)
        if q.denominator != 1:
            raise ValueError(f"non-integer entry {q}")
        out.append(int(q))
    return tuple(out)
