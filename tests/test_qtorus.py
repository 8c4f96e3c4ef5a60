import random
from fractions import Fraction as Q

import pytest

from dbseeds import linalg
from dbseeds.qtorus import (
    DimensionMismatch,
    FrameMatrix,
    NonIntegralFrame,
    VLaurent,
    bicharacter,
    frame_restrict,
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


def test_vlaurent_rational_exponents():
    z = VLaurent.v_power(Q(1, 2))
    assert (z * z) == VLaurent.v_power(1)


def test_bicharacter_examples():
    assert bicharacter(PSI, (1, 0), (1, 0)) == VLaurent.one()
    assert bicharacter(PSI, (1, 0), (0, 1)) == VLaurent.q_power(1)
    assert bicharacter(PSI, (1, 1), (0, 1)) == VLaurent.q_power(1)


def test_bicharacter_skew():
    rng = random.Random(5)
    for _ in range(50):
        f = tuple(rng.randint(-3, 3) for _ in range(2))
        g = tuple(rng.randint(-3, 3) for _ in range(2))
        assert bicharacter(PSI, f, g) * bicharacter(PSI, g, f) == VLaurent.one()
        assert bicharacter(PSI, f, f) == VLaurent.one()


def test_bicharacter_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bicharacter(PSI, (1, 0, 0), (0, 1))


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
            left = bicharacter(frame, f, g) * bicharacter(frame, fg, h)
            assert left == bicharacter(frame, g, h) * bicharacter(frame, f, gh)


def test_scr_examples():
    lam = [[0, 2], [-2, 0]]
    assert scr(lam, (1, 0)) == VLaurent.one()
    assert scr(lam, (0, 1)) == VLaurent.one()
    assert scr(lam, (1, 1)) == VLaurent.v_power(-2)
    assert scr(lam, (2, 2)) == VLaurent.v_power(-8)


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


def test_frame_validation():
    with pytest.raises(ValueError):
        FrameMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        FrameMatrix.from_rows([[1, 0], [0, 1]])


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
