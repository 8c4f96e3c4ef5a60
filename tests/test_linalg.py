import random
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbseeds import linalg


def dense_bilinear(u, a, v):
    return sum(Q(u[i]) * a[i][j] * Q(v[j]) for i in range(len(a)) for j in range(len(a[0])))


def test_bilinear_matches_dense_sum():
    # an int matrix with int vectors stays int; a Fraction matrix gives a Fraction
    rng = random.Random(0)

    def entry(density, fractions):
        if rng.random() > density:
            return 0
        x = rng.randint(-5, 5)
        return Q(x, rng.randint(1, 4)) if fractions and rng.random() < 0.5 else x

    for _ in range(300):
        n = rng.randint(1, 7)
        density = rng.choice([0.0, 0.2, 0.6, 1.0])
        for fractions in (False, True):
            a = tuple(tuple(entry(1.0, fractions) for _ in range(n)) for _ in range(n))
            if fractions:
                a = tuple(tuple(Q(x) for x in row) for row in a)
            u = [entry(density, fractions) for _ in range(n)]
            v = [entry(rng.choice([0.0, 0.3, 1.0]), fractions) for _ in range(n)]
            got = linalg.bilinear(u, a, v)
            assert got == dense_bilinear(u, a, v)
            assert type(got) is (Q if fractions else int)


def test_bilinear_type_follows_inputs_for_zero_vectors():
    int_a = ((0, 1), (-1, 0))
    frac_a = ((Q(0), Q(1)), (Q(-1), Q(0)))
    cases = (((0, 0), (1, 0), 0), ((1, 0), (0, 0), 0), ((0, 0), (0, 0), 0), ((1, 2), (3, 1), -5))
    for u, v, want in cases:
        got = linalg.bilinear(u, int_a, v)
        assert got == want and type(got) is int
        got = linalg.bilinear(u, frac_a, v)
        assert got == want and type(got) is Q
    # a Fraction coordinate that enters a product makes the result a Fraction
    got = linalg.bilinear((Q(1, 2), 0), int_a, (0, 3))
    assert got == Q(3, 2) and type(got) is Q
    got = linalg.bilinear((Q(2), 0), int_a, (0, 3))
    assert got == 6 and type(got) is Q


def test_combine_is_the_sparse_row_sum():
    rows = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    rng = random.Random(0)
    for _ in range(50):
        coeffs = [rng.choice([0, 0, 1, -2, 3]) for _ in rows]
        want = tuple(sum(c * row[t] for c, row in zip(coeffs, rows)) for t in range(3))
        assert linalg.combine(rows, coeffs) == want
    assert linalg.combine((), ()) == ()
    # one coefficient per row, never a truncated sum
    for coeffs in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="coefficients for 3 rows"):
            linalg.combine(rows, coeffs)


@st.composite
def int_systems(draw):
    """A small integer matrix, half the time of rank at most k, and a right-hand side."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.integers(-4, 4)

    def matrix(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    if draw(st.booleans()):   # an n x k times a k x m product has rank at most k
        k = draw(st.integers(0, min(n, m)))
        left, right = matrix(n, k), matrix(k, m)
        a = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    else:
        a = matrix(n, m)
    return a, draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))


def _sympy_solve_text(a, b):
    """The integer solution of a x = b by sympy, or the error text solve_unique must raise."""
    s, rhs = sympy.Matrix(a), sympy.Matrix(b)
    if s.row_join(rhs).rank() > s.rank():
        return "inconsistent system"
    if s.rank() < s.cols:
        return "underdetermined system"
    x = (s.T * s).LUsolve(s.T * rhs)
    for q in x:
        if not q.is_integer:
            return f"non-integer entry {Q(int(q.p), int(q.q))}"
    return tuple(int(q) for q in x)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(int_systems())
@example(([[2, 1], [1, 1]], [3, 2]))                  # square, invertible, integer solution
@example(([[1, 0], [0, 1], [1, 1]], [1, 2, 3]))       # rectangular, consistent
@example(([[1, 2], [2, 4]], [1, 2]))                  # rank-deficient
@example(([[1, 0], [0, 1], [1, 1]], [1, 2, 4]))       # inconsistent
@example(([[2, 0], [0, 3]], [1, 3]))                  # unique but non-integral
@example(([[0, 0, 0]], [0]))                          # zero matrix
def test_eliminations_match_sympy(system):
    a, b = system
    r = linalg.rank(a)
    assert type(r) is int and r == sympy.Matrix(a).rank()
    want = _sympy_solve_text(a, b)
    if isinstance(want, tuple):
        got = linalg.solve_unique(a, b)
        assert got == want and all(type(x) is int for x in got)
    else:
        with pytest.raises(linalg.LinearSolveError) as info:
            linalg.solve_unique(a, b)
        assert str(info.value) == want
    if len(a[0]) >= len(a):
        square = [row[: len(a)] for row in a]
        s = sympy.Matrix(square)
        if s.det() == 0:
            with pytest.raises(ValueError):
                linalg.mat_inv(square)
        else:
            assert sympy.Matrix(linalg.mat_inv(square)) == s.inv()


def test_eliminations_take_integral_fractions_only():
    assert linalg.solve_unique([[Q(2), Q(0)], [Q(0), Q(1)]], [Q(4), 3]) == (2, 3)
    assert linalg.rank([[Q(1), 2], [Q(2), 4]]) == 1
    with pytest.raises(TypeError):
        linalg.rank([[Q(1, 2)]])
