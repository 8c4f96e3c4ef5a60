"""Small exact linear algebra on tuples of tuples (rows).

Matrices are small (a few dozen rows at most).  `bilinear` computes in the
type of its inputs: integer frames and vectors give an `int`, and a
`Fraction` matrix or coordinate gives a `Fraction`.  It skips zero
coordinates, since most of its vectors are basis vectors or sparse exchange
columns.  The eliminations take integer matrices (an integral `Fraction`
entry is accepted) and share one fraction-free routine, `_bareiss`, so
`rank` and `solve_unique` compute with and return `int`s; only `mat_inv`
divides, by the determinant, at the end.  They serve the genuine linear
systems: the exchange-column oracle (one rank per sigma of a block with one
column per level, and the whole system only when that block falls short),
its solver, and graded reduction.  `frame_restrict` takes a rank only for
vectors that fail its triangular-pattern test; mutation bases and
reduction shifts pass it.  The sigma-seeds need none: their exchange
matrices and frames are closed integer rules (`dbc.double_word_matrix`,
`dbc.sigma_frame`).

`combine(rows, coeffs)` is the one sparse row sum, sum_i c_i rows_i over
the nonzero c_i: the compatibility pairings B^T psi, the degree balance and
mutated degree of an exchange column, the exchange-column oracle's product,
and the degree of a CGL monomial all read it.  Unlike `zip`, it raises
ValueError on a length mismatch instead of truncating.
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


def combine(rows: Sequence[Sequence], coeffs: Sequence) -> tuple:
    """sum_i coeffs[i] * rows[i], over the nonzero coeffs[i] only.

    The rows share one width, the sum's; raises ValueError when there is not
    one coefficient per row.
    """
    if len(coeffs) != len(rows):
        raise ValueError(f"{len(coeffs)} coefficients for {len(rows)} rows")
    out = [0] * (len(rows[0]) if rows else 0)
    for i, c in enumerate(coeffs):
        if c:
            out = [x + c * y for x, y in zip(out, rows[i])]
    return tuple(out)


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


def _int(x) -> int:
    if type(x) is int:
        return x
    if x.denominator != 1:
        raise TypeError(f"matrix entry {x} is not an integer")
    return int(x)


def _int_row(row: Sequence) -> list[int]:
    return [x if type(x) is int else _int(x) for x in row]


def _bareiss(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Returns (rows, pivot columns, d).  Row r ends with d in column
    pivots[r] and 0 in every other pivot column; the rows past the pivots
    are zero.  A step replaces each other row by (p * row - f * pivot row)
    over the previous pivot (Bareiss, 1968).  Every entry stays an integer
    minor of the input, so the division is exact.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                rows[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots, prev


def rank(a: Sequence[Sequence]) -> int:
    return len(_bareiss([_int_row(row) for row in a])[1])


def mat_inv(a: Sequence[Sequence]) -> Mat:
    """Exact rational inverse of a square integer matrix; raises ValueError if singular."""
    n = len(a)
    rows = [_int_row(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    rows, pivots, d = _bareiss(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(Q(x, d) for x in row[n:]) for row in rows)


class LinearSolveError(ValueError):
    """Stacked linear system is inconsistent, does not pin a unique solution, or pins a non-integer one."""


def solve_unique(a: Sequence[Sequence], b: Sequence) -> tuple[int, ...]:
    """The unique integer solution of a x = b, where a may be rectangular.

    Raises LinearSolveError when the system is inconsistent (no solution),
    underdetermined (free variables remain), or its unique solution has a
    non-integer entry (the first one is named).
    """
    m = len(a[0]) if a else 0
    rows = [_int_row(row) + [_int(b[i])] for i, row in enumerate(a)]
    rows, pivots, d = _bareiss(rows)
    if m in pivots:
        raise LinearSolveError("inconsistent system")
    if len(pivots) < m:
        raise LinearSolveError("underdetermined system")
    sol = []
    for row in rows[:m]:   # the pivots are the columns 0..m-1, in order
        x, rem = divmod(row[m], d)
        if rem:
            raise LinearSolveError(f"non-integer entry {Q(row[m], d)}")
        sol.append(x)
    return tuple(sol)
