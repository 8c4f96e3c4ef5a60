import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dbseeds import linalg
from dbseeds.qtorus import (
    DimensionMismatch,
    FrameMatrix,
    InexactScalar,
    NonIntegralFrame,
    VLaurent,
    frame_restrict,
    moved_indices,
    restricted_rows,
    scr,
)

PSI = FrameMatrix.from_rows([[0, 2], [-2, 0]])


def test_vlaurent_arithmetic():
    a = VLaurent({0: 1, 2: -1})
    b = VLaurent({2: 1})
    assert a + b == VLaurent({0: 1})
    assert a * b == VLaurent({2: 1, 4: -1})
    assert (a - a).is_zero()
    assert VLaurent.v_power(3).inverse() == VLaurent.v_power(-3)
    assert VLaurent.q_power(1) == VLaurent.v_power(2)


def test_vlaurent_hash_agrees_with_equality():
    # equal scalars, built from other exact types, in another term order or
    # by arithmetic, hash alike, so a set or a dict key treats them as one
    a = VLaurent({0: 1, Q(1, 2): -3})
    b = VLaurent({"1/2": -3, Q(0): Q(1)})
    c = a + VLaurent.v_power(1) - VLaurent.v_power(1)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1 and {a: 1}[b] == 1
    zero = VLaurent.one() - VLaurent.one()
    assert zero == VLaurent() and hash(zero) == hash(VLaurent())
    assert a not in {zero, VLaurent.one()}


def test_zero_vlaurent_reprs_as_zero():
    assert repr(VLaurent()) == "0"
    assert repr(VLaurent.v_power(1) - VLaurent.v_power(1)) == "0"
    assert repr(VLaurent({2: -1, 0: 1})) == "1*v^0 + -1*v^2"


def test_vlaurent_rational_exponents():
    z = VLaurent.v_power(Q(1, 2))
    assert (z * z) == VLaurent.v_power(1)


half_exponents = st.integers(-6, 6).map(lambda k: Q(k, 2))
coefficients = st.sampled_from([Q(-2), Q(-1), Q(-1, 2), Q(1, 2), Q(1), Q(2)])


@st.composite
def cancelling_pairs(draw):
    """Two scalars with half-integer exponents, b negating a random part of a's terms."""
    a = VLaurent(draw(st.dictionaries(half_exponents, coefficients, max_size=4)))
    b = draw(st.dictionaries(half_exponents, coefficients, max_size=3))
    for e, c in a.terms.items():
        if draw(st.booleans()):
            b[e] = -c
    return a, VLaurent(b)


def _evaluate(z):
    """z at v = (3/2)^2, a ring map for half-integer exponents."""
    return sum((c * Q(3, 2) ** int(2 * e) for e, c in z.terms.items()), Q(0))


def _assert_reduced(z):
    """z holds the scalar invariant: what the validating constructor would build from its terms."""
    assert z == VLaurent(z.terms)
    assert all(c != 0 for c in z.terms.values())
    assert all(type(e) is Q and type(c) is Q for e, c in z.terms.items())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair=cancelling_pairs(), s=st.sampled_from([Q(0), Q(-1), Q(1, 2), 3]), n=st.integers(0, 3))
def test_vlaurent_arithmetic_results_are_reduced(pair, s, n):
    a, b = pair
    results = {
        "+": (a + b, _evaluate(a) + _evaluate(b)),
        "-": (a - b, _evaluate(a) - _evaluate(b)),
        "neg": (-a, -_evaluate(a)),
        "*": (a * b, _evaluate(a) * _evaluate(b)),
        "scale": (a.scale(s), s * _evaluate(a)),
        "**": (a**n, _evaluate(a) ** n),
    }
    if a.is_monomial():
        results["inverse"] = (a.inverse(), 1 / _evaluate(a))
        results["**-n"] = (a ** -(n + 1), _evaluate(a) ** -(n + 1))
    for op, (z, value) in results.items():
        _assert_reduced(z)
        assert _evaluate(z) == value, op


def test_vlaurent_cancellations_leave_no_zero_term():
    a = VLaurent({Q(-1, 2): 3, 0: Q(1, 2), Q(5, 2): -1})
    v = VLaurent.v_power(1)
    one = VLaurent.one()
    for z in (a - a, a + (-a), a.scale(0)):
        _assert_reduced(z)
        assert z.is_zero() and z.terms == {}
    z = (one + v) * (one - v)
    _assert_reduced(z)
    assert z.terms == {0: 1, 2: -1}


@pytest.mark.parametrize(
    "build",
    [
        lambda: VLaurent({0: 0.1}),
        lambda: VLaurent({0.5: 1}),
        lambda: VLaurent({Q(1, 2): 1, 1: 2.0}),
        lambda: VLaurent({0: 1j}),
        lambda: VLaurent.v_power(0.5),
        lambda: VLaurent.v_power(1).scale(0.25),
        lambda: VLaurent.q_power(0.5),
        lambda: VLaurent.q_power(1).scale(1.0),
        lambda: VLaurent.one().scale(0.25),
        lambda: VLaurent.one().scale(1.0),
    ],
    ids=["coef", "exponent", "second-term", "complex", "v_power", "v_power-coef", "q_power", "q_power-coef",
         "scale", "scale-integral-float"],
)
def test_scalars_refuse_inexact_numbers(build):
    # there is no floating point anywhere: a float exponent or coefficient is
    # refused, even an integral one, rather than read as the binary rational
    # it stores (0.1 would be 3602879701896397/36028797018963968)
    with pytest.raises(InexactScalar, match="is not an exact rational"):
        build()


def test_only_a_single_v_power_is_inverted():
    with pytest.raises(ValueError, match="not a single v-power"):
        (VLaurent.one() + VLaurent.v_power(1)).inverse()


def test_scalars_take_every_exact_number():
    half = VLaurent({Q(1, 2): Q(1, 2)})
    assert VLaurent({"1/2": "1/2"}) == VLaurent.v_power(Q(1, 2)).scale(Q(1, 2)) == half
    assert VLaurent.q_power(Q(1, 4)).scale(Q(1, 2)) == half
    assert VLaurent.q_power(1).scale(-3) == VLaurent({2: -3}) == VLaurent.v_power(2).scale(-3)


# The bicharacter Omega(f, g) = v^(f^T psi g) is read through its exponent `omega_exp`.


def test_bicharacter_examples():
    assert PSI.omega_exp((1, 0), (1, 0)) == 0
    assert PSI.omega_exp((1, 0), (0, 1)) == 2
    assert PSI.omega_exp((1, 1), (0, 1)) == 2


def test_bicharacter_skew():
    rng = random.Random(5)
    for _ in range(50):
        f = tuple(rng.randint(-3, 3) for _ in range(2))
        g = tuple(rng.randint(-3, 3) for _ in range(2))
        assert PSI.omega_exp(f, g) + PSI.omega_exp(g, f) == 0
        assert PSI.omega_exp(f, f) == 0


def test_bicharacter_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        PSI.omega_exp((1, 0, 0), (0, 1))


def test_bicharacter_cocycle_random():
    # Omega(f, g) Omega(f + g, h) = Omega(g, h) Omega(f, g + h): the identity
    # that makes M(f) M(g) = Omega(f, g) M(f + g) associative
    rng = random.Random(11)
    for n in (2, 3, 6):
        psi_rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                e = rng.randint(-3, 3)
                psi_rows[i][j] = e
                psi_rows[j][i] = -e
        frame = FrameMatrix.from_rows(psi_rows)
        for _ in range(30):
            f, g, h = (tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3))
            fg = tuple(x + y for x, y in zip(f, g))
            gh = tuple(x + y for x, y in zip(g, h))
            left = frame.omega_exp(f, g) + frame.omega_exp(fg, h)
            assert left == frame.omega_exp(g, h) + frame.omega_exp(f, gh)


def test_scr_examples():
    lam = [[0, 2], [-2, 0]]
    assert scr(lam, (1, 0)) == VLaurent.one()
    assert scr(lam, (0, 1)) == VLaurent.one()
    assert scr(lam, (1, 1)) == VLaurent.v_power(-2)
    assert scr(lam, (2, 2)) == VLaurent.v_power(-8)
    with pytest.raises(DimensionMismatch):
        scr(lam, (1, 0, 0))


def test_frame_restrict():
    same = frame_restrict(PSI, [(1, 0), (0, 1)])
    assert same.psi == PSI.psi
    cong = frame_restrict(PSI, [(1, 0), (1, 1)])
    assert cong.psi == PSI.psi
    flipped = frame_restrict(PSI, [(0, 1), (1, 0)])
    assert flipped.psi[0][1] == -2


def test_frame_restrict_rejects_dependent():
    with pytest.raises(ValueError):
        frame_restrict(PSI, [(1, 1), (2, 2)])
    # sets that peel in part: down to the zero vector, and past the first vector only
    with pytest.raises(ValueError, match="linearly dependent"):
        frame_restrict(PSI, [(1, 0), (0, 0)])
    with pytest.raises(ValueError, match="linearly dependent"):
        frame_restrict(FrameMatrix.from_rows([[0, 2, 1], [-2, 0, 3], [-1, -3, 0]]), [(1, 0, 0), (0, 1, 1), (0, 2, 2)])


def test_frame_restrict_rejects_a_wrong_length_or_non_int_vector():
    # independent vectors, each of the wrong length for the 2x2 frame
    with pytest.raises(DimensionMismatch):
        frame_restrict(PSI, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(DimensionMismatch):
        frame_restrict(PSI, [(1,)])
    # the same restriction with one entry that is not an int
    for bad in (1.0, Q(1)):
        with pytest.raises(NonIntegralFrame):
            frame_restrict(PSI, [(bad, 0), (1, 1)])


def test_frame_restrict_takes_a_rank_only_for_vectors_that_do_not_peel(monkeypatch):
    ranks = []
    honest = linalg.rank

    def counted(a):
        ranks.append(a)
        return honest(a)

    monkeypatch.setattr(linalg, "rank", counted)
    # each vector of a triangular set is alone in some coordinate, in turn
    assert frame_restrict(PSI, [(1, 0), (1, 1)]).psi == PSI.psi
    assert frame_restrict(PSI, [(-1, 3), (0, 1)]).psi == ((0, -2), (2, 0))
    assert ranks == []
    # both vectors reach both coordinates: the independence test is a rank
    assert frame_restrict(PSI, [(1, 1), (1, -1)]).psi == ((0, -4), (4, 0))
    assert ranks == [((1, 1), (1, -1))]


@st.composite
def frames_and_bases(draw):
    """A random integer skew psi and an independent integer basis: the identity with some rows replaced.

    A replaced row is -e_a or any small integer row, so two moved rows may
    reach each other's index.
    """
    n = draw(st.integers(1, 6))
    psi = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            psi[i][j] = draw(st.integers(-4, 4))
            psi[j][i] = -psi[i][j]
    basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for a in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        minus_unit = tuple(-int(i == a) for i in range(n))
        basis[a] = draw(st.just(minus_unit) | st.tuples(*[st.integers(-2, 2)] * n))
    return tuple(map(tuple, psi)), basis


def _restriction_from_rows(psi, basis, moved):
    """V psi V^T from the moved-row rule: psi off `moved`, the rule's rows at it, minus them as the other columns."""
    rows = dict(zip(moved, restricted_rows(psi, basis, moved)))
    out = [list(rows.get(i, psi[i])) for i in range(len(psi))]
    for a, row in rows.items():
        for i in range(len(psi)):
            if i not in rows:
                out[i][a] = -row[i]
    return tuple(map(tuple, out))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(frames_and_bases())
# one row -e_a; two moved rows, each reaching the other's index; nothing moved
@example((((0, 3, -1), (-3, 0, 2), (1, -2, 0)), [(1, 0, 0), (0, -1, 0), (0, 0, 1)]))
@example((((0, 3, -1), (-3, 0, 2), (1, -2, 0)), [(1, 0, 0), (2, -1, 1), (0, 1, 1)]))
@example((((0, 3), (-3, 0)), [(1, 0), (0, 1)]))
def test_moved_row_rule_gives_the_full_restriction(case):
    # the rule with psi outside the moved rows gives every entry of
    # V psi V^T, for any set of moved rows, and a larger `moved` changes nothing
    psi, basis = case
    n = len(basis)
    assume(linalg.rank(basis) == n)
    moved = moved_indices(basis)
    assert moved == [a for a, v in enumerate(basis) if v != tuple(int(i == a) for i in range(n))]
    want = frame_restrict(FrameMatrix(psi), basis).psi
    assert _restriction_from_rows(psi, basis, moved) == want
    assert _restriction_from_rows(psi, basis, list(range(n))) == want


def test_frame_validation():
    with pytest.raises(ValueError):
        FrameMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        FrameMatrix.from_rows([[1, 0], [0, 1]])


SQUARE = (DimensionMismatch, "psi must be square")
DIAGONAL = (ValueError, "psi must vanish on the diagonal")
SKEW = (ValueError, "psi must be skew-symmetric")


def _not_an_int(x):
    return (NonIntegralFrame, f"frame exponent {x!r} is not an int")


@pytest.mark.parametrize(
    "psi, want",
    [
        # ragged rows: a short or long row anywhere, and a short row after a
        # valid prefix, which a zip(*psi) shortcut would truncate silently
        (((0,), (1, 0)), SQUARE),
        (((0, 1), (-1, 0, 5)), SQUARE),
        (((0, 1, 2), (-1, 0, 3), (-2,)), SQUARE),
        (((),), SQUARE),
        # entries that are not ints, named by the first in row-major order
        (((0, True), (-1, 0)), _not_an_int(True)),
        (((0, 1.0), (-1, 0)), _not_an_int(1.0)),
        (((0, Q(1)), (-1, 0)), _not_an_int(Q(1))),
        (((0, Q(1), 1.0), (-1, 0, 0), (0, 0, 0)), _not_an_int(Q(1))),
        (((False,),), _not_an_int(False)),
        # the diagonal, then skew-symmetry
        (((1, 0), (0, 0)), DIAGONAL),
        (((0, 1), (1, 0)), SKEW),
        (((0, 1, 2), (-1, 0, 3), (-2, 3, 0)), SKEW),
        # several defects: the first that the row-by-row check meets wins
        (((0, 1.5, 0), (-1, 0, 0), (0,)), _not_an_int(1.5)),
        (((0, 1, 0), (-1,), (0, 0, 2.5)), SQUARE),
        (((0, 1, 0), (1, 0, 0), (0,)), SKEW),
        (((0, 0), (1.5, 1)), _not_an_int(1.5)),
        (((0, 1), (5, 3)), DIAGONAL),
        (((0, 1, 0), (-1, 0, 0), (0, 0, 0.5)), _not_an_int(0.5)),
    ],
)
def test_frame_validation_names_the_first_defect(psi, want):
    cls, message = want
    with pytest.raises(ValueError) as exc:
        FrameMatrix(psi)
    assert type(exc.value) is cls
    assert str(exc.value) == message


def test_frame_validation_takes_the_empty_and_the_one_by_one_frame():
    assert FrameMatrix(()).size == 0
    assert FrameMatrix(((0,),)).size == 1


def test_from_rows_numerators_and_rationals_raise_alike():
    # the first fractional entry in row-major order is named, in lowest terms
    numerators = [[0, 3, 2], [-3, 0, 4], [-2, -4, 0]]
    rationals = [[Q(x, 6) for x in row] for row in numerators]
    for args in ((numerators, 6), (rationals,)):
        with pytest.raises(NonIntegralFrame) as exc:
            FrameMatrix.from_rows(*args)
        assert str(exc.value) == "fractional frame exponent 1/2"
    whole = [[0, 6, -12], [-6, 0, 18], [12, -18, 0]]
    assert FrameMatrix.from_rows(whole, 6).psi == ((0, 1, -2), (-1, 0, 3), (2, -3, 0))
