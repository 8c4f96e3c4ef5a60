from fractions import Fraction as Q

import pytest
from hypothesis import given, settings

from dbseeds import coxeter
from dbseeds.coxeter import (
    InvalidCartanType,
    NonReducedWordError,
    cartan_init,
    enumerate_reduced_words,
    eta_machinery,
    is_reduced,
    reflect,
    sigma_chain,
    word_roots,
    xi_enumerate,
    xi_is_member,
)
from test_properties import TYPES, word_pairs


def test_cartan_a2():
    c = cartan_init("A", 2)
    assert c.cartan == ((2, -1), (-1, 2))
    assert c.d == (1, 1)
    assert c.pair_weight((1, 0), (1, 0)) == Q(2, 3)
    assert c.pair_weight((1, 0), (0, 1)) == Q(1, 3)


def test_cartan_g2():
    c = cartan_init("G", 2)
    off = {c.cartan[0][1], c.cartan[1][0]}
    assert off == {-1, -3}
    assert set(c.d) == {1, 3}


def test_cartan_b2_symmetrizable():
    c = cartan_init("B", 2)
    assert c.d == (2, 1)
    for i in range(2):
        for j in range(2):
            assert c.d[i] * c.cartan[i][j] == c.d[j] * c.cartan[j][i]
    # short simple root has squared length 2
    short = c.d.index(1)
    a = tuple(1 if t == short else 0 for t in range(2))
    assert c.pair_alpha(a, a) == 2


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 9), ("F", 3), ("G", 3), ("H", 2)])
def test_cartan_invalid(family, rank):
    with pytest.raises(InvalidCartanType):
        cartan_init(family, rank)


def test_pairing_consistency_all_types():
    # <alpha_i, w_j> = d_i delta_ij ties the two pairing tables together
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)]:
        c = cartan_init(fam, rank)
        for i in range(rank):
            alpha = c.alpha_in_weights(i)
            for j in range(rank):
                wj = tuple(1 if t == j else 0 for t in range(rank))
                want = c.d[i] if i == j else 0
                assert c.pair_weight(alpha, wj) == want


def test_reflect_basics():
    c = cartan_init("A", 2)
    w1 = (1, 0)
    # s_1 w_1 = w_1 - alpha_1
    assert reflect(c, 1, w1) == (-1, 1)
    # s_1 fixes w_2
    assert reflect(c, 1, (0, 1)) == (0, 1)
    # s_1 s_2 s_1 w_1 = w_1 - alpha_1 - alpha_2
    out = reflect(c, 1, reflect(c, 2, reflect(c, 1, w1)))
    assert out == (0, -1)


def test_reflect_involution():
    c = cartan_init("B", 2)
    for mu in [(1, 0), (2, -3), (0, 5), (-1, -1)]:
        for i in (1, 2):
            assert reflect(c, i, reflect(c, i, mu)) == mu


def test_reflect_index_range():
    c = cartan_init("A", 2)
    with pytest.raises(IndexError):
        reflect(c, 3, (0, 0))


def test_word_roots_a2():
    c = cartan_init("A", 2)
    assert word_roots(c, (1, 2, 1)) == [(1, 0), (1, 1), (0, 1)]
    assert word_roots(c, (1,)) == [(1, 0)]


def test_word_roots_nonreduced():
    c = cartan_init("A", 1)
    roots = word_roots(c, (1, 1))
    assert roots == [(1,), (-1,)]
    assert not is_reduced(c, (1, 1))
    assert is_reduced(c, (1,))


def test_reduced_words_distinct_positive():
    c = cartan_init("B", 2)
    for w in enumerate_reduced_words(c, 4):
        roots = word_roots(c, w)
        assert len(set(roots)) == len(roots)
        for a in roots:
            assert all(x >= 0 for x in a)


def test_eta_machinery_a1():
    c = cartan_init("A", 1)
    dwd = eta_machinery(c, (1,), (1,))
    assert dwd.eta == (1, 1)
    assert dwd.p == (None, 0)
    assert dwd.s == (1, None)
    assert dwd.epsilon == (-1, 1)
    assert dwd.degree_at(0) == (-1,)
    assert dwd.degree_at(1) == (1,)


def test_eta_machinery_a2():
    c = cartan_init("A", 2)
    dwd = eta_machinery(c, (1, 2, 1), (1,))
    assert dwd.eta == (1, 2, 1, 1)
    assert dwd.s[2] == 3
    assert dwd.p[2] == 0
    assert dwd.o_minus == (0, 0, 1, 2)
    assert dwd.o_plus == (2, 0, 1, 0)
    assert dwd.support == {1, 2}


def test_eta_machinery_injective_levels():
    c = cartan_init("A", 2)
    dwd = eta_machinery(c, (1, 2), ())
    assert all(x is None for x in dwd.p)
    assert all(x is None for x in dwd.s)


def test_eta_machinery_rejects_nonreduced():
    c = cartan_init("A", 1)
    with pytest.raises(NonReducedWordError):
        eta_machinery(c, (1, 1), ())


def test_p_s_mutually_inverse():
    c = cartan_init("A", 2)
    dwd = eta_machinery(c, (1, 2, 1), (2, 1))
    for k in range(dwd.size):
        if dwd.s[k] is not None:
            assert dwd.p[dwd.s[k]] == k
        if dwd.p[k] is not None:
            assert dwd.s[dwd.p[k]] == k
        assert dwd.eta[k] == dwd.eta[dwd.p[k]] if dwd.p[k] is not None else True


def test_order_functions_count_independently():
    # O_-(k), O_+(k) equal plain occurrence counts of the level before/after k,
    # on the double words the property sweep draws for each of its types
    for name in TYPES:
        cartan = cartan_init(name[0], int(name[1:]))

        @settings(max_examples=8, deadline=None, derandomize=True)
        @given(pair=word_pairs(cartan))
        def counts_match(pair):
            dwd = eta_machinery(cartan, *pair)
            for k in range(dwd.size):
                before = sum(1 for j in range(k) if dwd.eta[j] == dwd.eta[k])
                after = sum(1 for j in range(k + 1, dwd.size) if dwd.eta[j] == dwd.eta[k])
                assert dwd.o_minus[k] == before
                assert dwd.o_plus[k] == after

        counts_match()


def test_frozen_count_matches_level_count():
    for fam, rank, w, u in [("A", 2, (1, 2, 1), (1,)), ("B", 2, (1, 2, 1, 2), (1,)), ("G", 2, (1, 2), (2, 1))]:
        c = cartan_init(fam, rank)
        dwd = eta_machinery(c, w, u)
        # one frozen position (no later same-level position) per level
        assert sum(1 for k in range(dwd.size) if dwd.s[k] is None) == len(set(dwd.eta))


def test_root_sum_invariant():
    # sum of the beta_k over occurrences of each letter equals (1 - w) w_i
    cases = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2), ("A", 4), ("D", 4), ("F", 4)]
    for fam, rank in cases:
        c = cartan_init(fam, rank)
        max_len = 6 if rank <= 3 else 4
        for w in enumerate_reduced_words(c, max_len):
            roots = word_roots(c, w)
            for i in range(1, rank + 1):
                total = [0] * rank
                for k, letter in enumerate(w):
                    if letter == i:
                        total = [a + b for a, b in zip(total, roots[k])]
                wi = tuple(1 if t == i - 1 else 0 for t in range(rank))
                delta = tuple(a - b for a, b in zip(wi, coxeter.act_word_on_weight(c, w, wi)))
                # the weight of sum_i total_i alpha_i
                in_weights = [0] * rank
                for i_root, coef in enumerate(total):
                    for t, x in enumerate(c.alpha_in_weights(i_root)):
                        in_weights[t] += coef * x
                assert tuple(in_weights) == delta


def test_xi_enumerate_sizes():
    assert list(xi_enumerate(1)) == [(0,)]
    assert list(xi_enumerate(2)) == [(0, 1), (1, 0)]
    for n in range(1, 7):
        perms = list(xi_enumerate(n))
        assert len(perms) == 2 ** (n - 1)
        assert len(set(perms)) == len(perms)
        for s in perms:
            assert xi_is_member(s)


def test_xi_enumerate_order_is_stable():
    # binary-choice order: most significant bit decides the second position,
    # 0 extends upward; frozen so golden outputs stay byte-stable
    assert list(xi_enumerate(3)) == [(0, 1, 2), (1, 2, 0), (1, 0, 2), (2, 1, 0)]


def test_xi_enumerate_matches_brute_force():
    import itertools

    for n in (2, 3, 4):
        brute = {s for s in itertools.permutations(range(n)) if xi_is_member(s)}
        assert set(xi_enumerate(n)) == brute


def test_sigma_chain_cases():
    c = cartan_init("A", 1)
    dwd = eta_machinery(c, (1,), (1,))
    assert sigma_chain(dwd.eta, dwd.s, (0, 1)) == ((0,), (0, 1))
    assert sigma_chain(dwd.eta, dwd.s, (1, 0)) == ((1,), (0, 1))


def test_sigma_chain_identity_and_reversal():
    c = cartan_init("A", 2)
    dwd = eta_machinery(c, (1, 2, 1), (1,))
    ident = tuple(range(4))
    chains = sigma_chain(dwd.eta, dwd.s, ident)
    for k in range(4):
        # a predecessor chain ending at k, rebuilt from the whole head
        assert chains[k] == tuple(i for i in range(k + 1) if dwd.eta[i] == dwd.eta[k])
        assert chains[k][-1] == k
    rev = (3, 2, 1, 0)
    chains = sigma_chain(dwd.eta, dwd.s, rev)
    for k in range(4):
        # a successor chain starting at rev[k]
        assert chains[k] == tuple(i for i in range(rev[k], 4) if dwd.eta[i] == dwd.eta[rev[k]])
        assert chains[k][0] == rev[k]


def test_sigma_chain_rejects_non_interval():
    c = cartan_init("A", 2)
    dwd = eta_machinery(c, (1, 2, 1), (1,))
    with pytest.raises(coxeter.NotIntervalPermutation):
        sigma_chain(dwd.eta, dwd.s, (0, 2, 1, 3))


@pytest.mark.parametrize("w", [(3,), (3, 1), (0,), (1, -1)])
def test_eta_machinery_rejects_out_of_range_letter(w):
    with pytest.raises(coxeter.LetterOutOfRange, match=r"letter -?\d outside 1\.\.2"):
        eta_machinery(cartan_init("A", 2), w, ())
    with pytest.raises(coxeter.LetterOutOfRange, match=r"u word"):
        eta_machinery(cartan_init("A", 2), (), w)


def test_sigma_chain_raises_on_inconsistent_successors():
    # eta (1, 1, 1) with s skipping position 1: the chain {0, 1} is not contiguous
    eta, s = (1, 1, 1), (2, 2, None)
    with pytest.raises(coxeter.ChainError):
        sigma_chain(eta, s, (0, 1, 2))
    # read downward, the chain {0, 1, 2} breaks where 0 is prepended
    with pytest.raises(coxeter.ChainError, match="position 2"):
        sigma_chain(eta, s, (2, 1, 0))
