from fractions import Fraction as Q
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbseeds import coxeter, jsonio
from dbseeds.coxeter import (
    InvalidCartanType,
    NonReducedWordError,
    cartan_init,
    enumerate_reduced_words,
    eta_machinery,
    is_reduced,
    prefix_weight_images,
    sigma_chain,
    walk,
    word_roots,
    xi_enumerate,
    xi_is_member,
)
from test_properties import TYPES, act_word_on_weight, word_pairs


def reflect_root(cartan, i, a):
    """s_i a = a - <alpha_i^vee, a> alpha_i on a root-lattice vector; the reference for `word_roots`."""
    coef = sum(map(mul, cartan.cartan[i - 1], a))
    return tuple(x - coef if t == i - 1 else x for t, x in enumerate(a))


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
    assert sum(map(mul, a, c.gram_image(a))) == 2


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 9), ("F", 3), ("G", 3), ("H", 2)])
def test_cartan_invalid(family, rank):
    with pytest.raises(InvalidCartanType):
        cartan_init(family, rank)


def test_pairing_consistency_all_types():
    # <alpha_i, w_j> = d_i delta_ij ties the two pairing tables together
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)]:
        c = cartan_init(fam, rank)
        for i in range(rank):
            alpha = c.alpha_weights[i]
            for j in range(rank):
                wj = tuple(1 if t == j else 0 for t in range(rank))
                want = c.d[i] if i == j else 0
                assert c.pair_weight(alpha, wj) == want


@settings(max_examples=140, deadline=None, derandomize=True)
@given(st.sampled_from(TYPES), st.data())
def test_cartan_tables_match_their_defining_formulas(name, data):
    # the Gram matrix and the simple roots in weights are tables of C and d,
    # and every pairing, image and reflection that reads them row by row
    # agrees with its entry-by-entry formula
    c = cartan_init(name[0], int(name[1:]))
    r, cm, d = c.rank, c.cartan, c.d
    assert c.gram == tuple(tuple(d[i] * cm[i][j] for j in range(r)) for i in range(r))
    assert all(c.gram[i][j] == c.gram[j][i] for i in range(r) for j in range(r))
    assert c.alpha_weights == tuple(tuple(cm[j][i] for j in range(r)) for i in range(r))
    vec = st.lists(st.integers(-6, 6), min_size=r, max_size=r).map(tuple)
    a, b, mu = data.draw(vec), data.draw(vec), data.draw(vec)
    i = data.draw(st.integers(1, r))
    assert sum(map(mul, a, c.gram_image(b))) == sum(a[s] * d[s] * cm[s][t] * b[t] for s in range(r) for t in range(r))
    assert c.gram_image(b) == tuple(sum(d[s] * cm[s][t] * b[t] for t in range(r)) for s in range(r))
    assert c.weight_image(mu) == tuple(sum(c.weight_form[s][t] * mu[t] for t in range(r)) for s in range(r))
    # s_i mu = mu - <alpha_i^vee, mu> alpha_i, with alpha_i = sum_t c_ti w_t,
    # read off the images of the fundamental weights by linearity
    s_i = prefix_weight_images(c, (i,))[1]
    assert tuple(sum(mu[j] * s_i[j][t] for j in range(r)) for t in range(r)) == tuple(
        mu[t] - mu[i - 1] * cm[t][i - 1] for t in range(r)
    )
    coef = sum(cm[i - 1][t] * a[t] for t in range(r))
    assert reflect_root(c, i, a) == tuple(a[t] - (coef if t == i - 1 else 0) for t in range(r))


@settings(max_examples=140, deadline=None, derandomize=True)
@given(st.sampled_from(TYPES), st.data())
def test_prefix_walks_match_the_prefix_by_prefix_rule(name, data):
    # the one-pass walks agree with reflecting through every prefix anew, on
    # any word, reduced or not
    c = cartan_init(name[0], int(name[1:]))
    r = c.rank
    word = tuple(data.draw(st.lists(st.integers(1, r), max_size=12)))
    want = []
    for k, letter in enumerate(word):
        a = tuple(1 if j == letter - 1 else 0 for j in range(r))
        for prev in reversed(word[:k]):
            a = reflect_root(c, prev, a)
        want.append(a)
    assert word_roots(c, word) == want
    fundamental = [tuple(1 if t == j else 0 for t in range(r)) for j in range(r)]
    images = prefix_weight_images(c, word)
    assert len(images) == len(word) + 1
    for p, table in enumerate(images):
        assert table == tuple(act_word_on_weight(c, word[:p], mu) for mu in fundamental)


def test_prefix_walks_reject_a_letter_out_of_range():
    c = cartan_init("A", 2)
    for walk_word in (word_roots, prefix_weight_images):
        for letter in (0, 3):
            with pytest.raises(IndexError):
                walk_word(c, (1, letter))


def test_reflect_basics():
    c = cartan_init("A", 2)
    # s_1 w_1 = w_1 - alpha_1, and s_1 fixes w_2
    assert prefix_weight_images(c, (1,))[1] == ((-1, 1), (0, 1))
    # s_1 s_2 s_1 w_1 = w_1 - alpha_1 - alpha_2
    assert prefix_weight_images(c, (1, 2, 1))[3][0] == (0, -1)


def test_reflect_involution():
    c = cartan_init("B", 2)
    for i in (1, 2):
        images = prefix_weight_images(c, (i, i))
        assert images[2] == images[0] != images[1]


def test_reflect_index_range():
    c = cartan_init("A", 2)
    for letter in (0, 3):
        with pytest.raises(IndexError):
            prefix_weight_images(c, (letter,))


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
    assert dwd.walk.pred == (None, 0)
    assert dwd.walk.succ == (1, None)
    assert dwd.epsilon == (-1, 1)
    assert dwd.degree_at(0) == (-1,)
    assert dwd.degree_at(1) == (1,)


def test_eta_machinery_a2():
    c = cartan_init("A", 2)
    dwd = eta_machinery(c, (1, 2, 1), (1,))
    assert dwd.eta == (1, 2, 1, 1)
    assert dwd.walk.succ[2] == 3
    assert dwd.walk.pred[2] == 0
    assert dwd.walk.o_minus == (0, 0, 1, 2)
    assert dwd.walk.o_plus == (2, 0, 1, 0)
    assert jsonio.encode_double_word(dwd)["support"] == [1, 2]


def test_eta_machinery_injective_levels():
    c = cartan_init("A", 2)
    dwd = eta_machinery(c, (1, 2), ())
    assert all(x is None for x in dwd.walk.pred)
    assert all(x is None for x in dwd.walk.succ)


def test_eta_machinery_rejects_nonreduced():
    c = cartan_init("A", 1)
    with pytest.raises(NonReducedWordError):
        eta_machinery(c, (1, 1), ())


def test_p_s_mutually_inverse():
    c = cartan_init("A", 2)
    dwd = eta_machinery(c, (1, 2, 1), (2, 1))
    p, s = dwd.walk.pred, dwd.walk.succ
    for k in range(dwd.size):
        if s[k] is not None:
            assert p[s[k]] == k
        if p[k] is not None:
            assert s[p[k]] == k
        assert dwd.eta[k] == dwd.eta[p[k]] if p[k] is not None else True


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
                assert dwd.walk.o_minus[k] == before
                assert dwd.walk.o_plus[k] == after

        counts_match()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(letters=st.lists(st.integers(1, 4), max_size=14))
@example(letters=[])
@example(letters=[3])
@example(letters=[2, 2, 2, 2])
@example(letters=[1, 1, 2, 1, 2, 2])
def test_walk_matches_the_occurrence_counts(letters):
    # any letter sequence, not only reduced double words: CGL etas and
    # sigma-words repeat their levels freely
    got = walk(letters)
    n = len(letters)
    for k, x in enumerate(letters):
        earlier = [j for j in range(k) if letters[j] == x]
        later = [j for j in range(k + 1, n) if letters[j] == x]
        assert got.pred[k] == (earlier[-1] if earlier else None)
        assert got.succ[k] == (later[0] if later else None)
        assert got.o_minus[k] == len(earlier)
        assert got.o_plus[k] == len(later)
    # succ is the inverse of pred
    assert {k: j for k, j in enumerate(got.succ) if j is not None} == {
        j: k for k, j in enumerate(got.pred) if j is not None
    }
    # a walk holds p and s; the order counts are read off them
    assert tuple(got) == (got.pred, got.succ)
    assert all(len(field) == n for field in (got.pred, got.succ, got.o_minus, got.o_plus))


def test_frozen_count_matches_level_count():
    for fam, rank, w, u in [("A", 2, (1, 2, 1), (1,)), ("B", 2, (1, 2, 1, 2), (1,)), ("G", 2, (1, 2), (2, 1))]:
        c = cartan_init(fam, rank)
        dwd = eta_machinery(c, w, u)
        # one frozen position (no later same-level position) per level
        assert sum(1 for k in range(dwd.size) if dwd.walk.succ[k] is None) == len(set(dwd.eta))


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
                delta = tuple(a - b for a, b in zip(wi, act_word_on_weight(c, w, wi)))
                # the weight of sum_i total_i alpha_i
                in_weights = [0] * rank
                for i_root, coef in enumerate(total):
                    for t, x in enumerate(c.alpha_weights[i_root]):
                        in_weights[t] += coef * x
                assert tuple(in_weights) == delta


def test_xi_enumerate_refuses_zero_positions():
    with pytest.raises(ValueError, match="n must be positive"):
        list(xi_enumerate(0))


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
    assert sigma_chain(dwd.eta, dwd.walk.succ, (0, 1)) == ((0,), (0, 1))
    assert sigma_chain(dwd.eta, dwd.walk.succ, (1, 0)) == ((1,), (0, 1))


def test_sigma_chain_identity_and_reversal():
    c = cartan_init("A", 2)
    dwd = eta_machinery(c, (1, 2, 1), (1,))
    ident = tuple(range(4))
    chains = sigma_chain(dwd.eta, dwd.walk.succ, ident)
    for k in range(4):
        # a predecessor chain ending at k, rebuilt from the whole head
        assert chains[k] == tuple(i for i in range(k + 1) if dwd.eta[i] == dwd.eta[k])
        assert chains[k][-1] == k
    rev = (3, 2, 1, 0)
    chains = sigma_chain(dwd.eta, dwd.walk.succ, rev)
    for k in range(4):
        # a successor chain starting at rev[k]
        assert chains[k] == tuple(i for i in range(rev[k], 4) if dwd.eta[i] == dwd.eta[rev[k]])
        assert chains[k][0] == rev[k]


def test_sigma_chain_rejects_non_interval():
    c = cartan_init("A", 2)
    dwd = eta_machinery(c, (1, 2, 1), (1,))
    with pytest.raises(coxeter.NotIntervalPermutation):
        sigma_chain(dwd.eta, dwd.walk.succ, (0, 2, 1, 3))


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
