import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbseeds.qtorus import DimensionMismatch, FrameMatrix, frame_restrict
from dbseeds.seedcore import (
    ExchangeMatrix,
    NotExchangeable,
    QuantumSeed,
    ReductionError,
    antiiso_transform,
    check_compatible,
    degree_balance,
    exchange_pairings,
    graded_reduce,
    mutate_exchange,
    mutate_seed,
    mutation_basis,
    reindex,
)


def sl2_seed() -> QuantumSeed:
    # frame of (Y-, q(Y-Y+ - 1)); the frozen variable commutes up to q^2
    return QuantumSeed(
        frame=FrameMatrix.from_rows([[0, -2], [2, 0]]),
        exchange=ExchangeMatrix(2, (0,), ((0, 1),)),
        inv=frozenset(),
        degrees=((-1,), (0,)),
        d=(1, 1),
    )


def test_check_compatible_sl2():
    report = check_compatible(sl2_seed())
    assert report.ok
    assert report.value_exponents[0] == 2


def test_check_compatible_zero_column():
    seed = QuantumSeed(
        frame=FrameMatrix.from_rows([[0, -2], [2, 0]]),
        exchange=ExchangeMatrix(2, (0,), ((0, 0),)),
        inv=frozenset(),
        degrees=((0,), (0,)),
        d=(1, 1),
    )
    report = check_compatible(seed)
    assert not report.ok
    assert report.degenerate == (0,)


def test_check_compatible_flags_orthogonality():
    # perturbing one frame entry breaks exactly one orthogonality pairing
    seed = QuantumSeed(
        frame=FrameMatrix.from_rows([[0, -2, 0], [2, 0, 1], [0, -1, 0]]),
        exchange=ExchangeMatrix(3, (0,), ((0, 1, 0),)),
        inv=frozenset(),
        degrees=((0,), (0,), (0,)),
        d=(1, 1, 1),
    )
    report = check_compatible(seed)
    assert not report.ok
    assert report.orthogonality_failures == ((0, 2),)


def test_exchange_pairings_sum_frame_rows_over_column_entries():
    frame = FrameMatrix.from_rows([[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
    b = ExchangeMatrix(3, (0, 2), ((0, 2, -1), (1, 0, 0)))
    assert exchange_pairings(frame, b) == ((-4, 3, 6), (0, 1, -2))
    with pytest.raises(DimensionMismatch):
        exchange_pairings(FrameMatrix.from_rows([[0, 1], [-1, 0]]), b)


def test_exchange_matrix_position_map_is_not_part_of_the_value():
    a = ExchangeMatrix(3, (0, 2), ((0, 0, 1), (1, 0, 0)))
    b = dataclasses.replace(a)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "ExchangeMatrix(n=3, ex=(0, 2), cols=((0, 0, 1), (1, 0, 0)))"
    assert (a.column(2), a.column(0)) == ((1, 0, 0), (0, 0, 1))
    with pytest.raises(NotExchangeable):
        a.column(1)


def test_exchange_matrix_rejects_a_column_it_cannot_key():
    with pytest.raises(ValueError, match="one column per exchangeable index"):
        ExchangeMatrix(3, (0, 2), ((0, 0, 1),))
    with pytest.raises(ValueError, match="column length must equal n"):
        ExchangeMatrix(3, (0, 2), ((0, 0, 1), (1, 0)))


def test_mutate_exchange_rank2():
    b = ExchangeMatrix(2, (0, 1), ((0, -1), (1, 0)))
    mutated = mutate_exchange(b, 0)
    assert mutated.cols == ((0, 1), (-1, 0))
    assert mutate_exchange(mutated, 0) == b


def test_mutate_exchange_involution_bigger():
    b = ExchangeMatrix(3, (0, 1), ((0, -1, 2), (1, 0, -3)))
    for k in (0, 1):
        assert mutate_exchange(mutate_exchange(b, k), k) == b


def _four_max_mutation(b: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Reference: every entry of every column from b_ij + [b_ik]_+ [b_kj]_+ - [-b_ik]_+ [-b_kj]_+."""
    col_k = b.column(k)
    cols = []
    for j, col_j in zip(b.ex, b.cols):
        if j == k:
            cols.append(tuple(-x for x in col_j))
            continue
        bkj = col_j[k]
        cols.append(tuple(
            -col_j[i] if i == k
            else col_j[i] + max(col_k[i], 0) * max(bkj, 0) - max(-col_k[i], 0) * max(-bkj, 0)
            for i in range(b.n)
        ))
    return ExchangeMatrix(b.n, b.ex, tuple(cols))


@st.composite
def exchange_and_direction(draw):
    """Any n <= 8 and ex, entries -3..3 (b_kk among them), some columns zero; rows off ex are frozen."""
    n = draw(st.integers(1, 8))
    ex = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    entry = st.integers(-3, 3)
    cols = tuple(
        (0,) * n if draw(st.integers(0, 4)) == 0 else tuple(draw(st.lists(entry, min_size=n, max_size=n)))
        for _ in ex
    )
    return ExchangeMatrix(n, ex, cols), draw(st.sampled_from(ex))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(exchange_and_direction())
def test_mutate_exchange_matches_the_four_max_rule(case):
    b, k = case
    assert mutate_exchange(b, k) == _four_max_mutation(b, k)


def test_mutate_exchange_passes_columns_with_zero_bkj_through():
    # row 3 is frozen, column 2 is zero, and b_11 != 0
    b = ExchangeMatrix(5, (0, 1, 2, 4), ((0, 2, 0, -1, 0), (-2, 1, 0, 3, 1), (0,) * 5, (0, -1, 0, 2, 0)))
    passed = 0
    for k in b.ex:
        got = mutate_exchange(b, k)
        assert got == _four_max_mutation(b, k)
        for j, before, after in zip(b.ex, b.cols, got.cols):
            if j != k and before[k] == 0:
                assert after is before
                passed += 1
    assert passed == 2 + 1 + 3 + 2


def test_mutate_exchange_requires_exchangeable():
    b = ExchangeMatrix(2, (0,), ((0, 1),))
    with pytest.raises(NotExchangeable):
        mutate_exchange(b, 1)


def test_mutate_seed_sl2():
    seed = sl2_seed()
    out = mutate_seed(seed, 0)
    assert out.frame.psi[0][1] == 2
    assert out.exchange.column(0) == (0, -1)
    assert out.degrees == ((1,), (0,))
    assert check_compatible(out).ok
    assert frame_restrict(seed.frame, mutation_basis(seed, 0, -1)) == out.frame


def test_mutate_seed_involution():
    seed = sl2_seed()
    again = mutate_seed(mutate_seed(seed, 0), 0)
    assert again.frame.psi == seed.frame.psi
    assert again.exchange == seed.exchange
    assert again.degrees == seed.degrees


def test_degree_balance_preserved_by_mutation():
    seed = sl2_seed()
    out = mutate_seed(seed, 0)
    assert degree_balance(out, 0) == (0,)


def test_reindex_identity_and_transposition():
    seed = sl2_seed()
    ident = reindex(seed, (0, 1))
    assert ident == seed
    swapped = reindex(seed, (1, 0))
    assert swapped.frame.psi[0][1] == 2
    assert swapped.degrees == ((0,), (-1,))
    assert swapped.ex == (1,)
    assert swapped.exchange.column(1) == (1, 0)
    assert check_compatible(swapped).ok


@pytest.mark.parametrize("tau", [(0.0, 1.0), (-1, 0), (1, 1), (0,), (0, 1, 2), (True, False)])
def test_reindex_rejects_a_tau_that_is_not_a_permutation_of_the_ints(tau):
    # floats and bools pass a sorted() comparison, and a negative entry indexes
    # from the end; each must raise the same ValueError, for the seed and the frame
    seed = sl2_seed()
    with pytest.raises(ValueError, match="permutation"):
        reindex(seed, tau)
    with pytest.raises(ValueError, match="permutation"):
        seed.frame.reindex(tau)


def test_reindex_right_action():
    import itertools
    import random

    rng = random.Random(2)
    frame = FrameMatrix.from_rows(
        [[0, 1, -2, 3], [-1, 0, 4, -5], [2, -4, 0, 6], [-3, 5, -6, 0]]
    )
    seed = QuantumSeed(
        frame=frame,
        exchange=ExchangeMatrix(4, (), ()),
        inv=frozenset({0}),
        degrees=((1, 0), (0, 1), (2, 2), (-1, 3)),
        d=(1, 2, 1, 2),
    )
    perms = list(itertools.permutations(range(4)))
    for _ in range(20):
        tau1 = rng.choice(perms)
        tau2 = rng.choice(perms)
        composed = tuple(tau1[t] for t in tau2)
        a = reindex(reindex(seed, tau1), tau2)
        b = reindex(seed, composed)
        assert a == b


def test_antiiso_transform():
    seed = sl2_seed()
    out = antiiso_transform(seed)
    assert out.frame.psi[0][1] == 2
    assert out.exchange.column(0) == (0, -1)
    assert check_compatible(out).ok
    assert antiiso_transform(out) == seed
    assert degree_balance(out, 0) == (0,)


def test_graded_reduce_trivial():
    seed = sl2_seed()
    assert graded_reduce(seed, 0) is seed


def test_graded_reduce_requires_frozen_invertible():
    seed = QuantumSeed(
        frame=FrameMatrix.from_rows([[0, -2], [2, 0]]),
        exchange=ExchangeMatrix(2, (1,), ((0, 0),)),
        inv=frozenset(),
        degrees=((1,), (1,)),
        d=(1, 1),
    )
    with pytest.raises(ReductionError, match="invertible"):
        graded_reduce(seed, 1)
    # an exchangeable index among the reduced ones, and a degree table short of the frame
    exchangeable = dataclasses.replace(seed, exchange=ExchangeMatrix(2, (0,), ((0, 0),)), inv=frozenset({0}))
    with pytest.raises(ReductionError, match="frozen"):
        graded_reduce(exchangeable, 1)
    with pytest.raises(ReductionError, match="degree table must cover every index"):
        graded_reduce(dataclasses.replace(seed, inv=frozenset({0}), degrees=((1,),)), 1)


def test_graded_reduce_requires_integer_span():
    seed = QuantumSeed(
        frame=FrameMatrix.from_rows([[0, 0, 0], [0, 0, -2], [0, 2, 0]]),
        exchange=ExchangeMatrix(3, (1,), ((0, 0, 1),)),
        inv=frozenset({0}),
        degrees=((2,), (1,), (0,)),
        d=(1, 1, 1),
    )
    with pytest.raises(ReductionError):
        graded_reduce(seed, 1)


@pytest.mark.parametrize("degrees,k,reason", [
    (((2,), (1,), (3,)), 1, "non-integer entry 1/2"),
    (((2,), (4,), (3,)), 2, "non-integer entry 3/2"),
    (((0,), (0,), (1,)), 1, "underdetermined system"),
    (((2, 0), (4, 0), (2, 1)), 2, "inconsistent system"),
])
def test_graded_reduce_names_the_first_failing_index(degrees, k, reason):
    # all of the shifts come from one elimination, and the error still names
    # the first index whose degree is not an integer combination, and why
    seed = QuantumSeed(
        frame=FrameMatrix.from_rows([[0, 0, 0], [0, 0, -2], [0, 2, 0]]),
        exchange=ExchangeMatrix(3, (1,), ((0, 0, 1),)),
        inv=frozenset({0}),
        degrees=degrees,
        d=(1, 1, 1),
    )
    want = f"degree of index {k} is not an integer combination of the leading degrees: {reason}"
    with pytest.raises(ReductionError) as info:
        graded_reduce(seed, 1)
    assert str(info.value) == want
