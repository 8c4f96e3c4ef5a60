import dataclasses

import pytest

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
