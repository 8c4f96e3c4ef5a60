"""Property sweeps over random reduced word pairs in every finite family."""

import random
from dataclasses import replace
from fractions import Fraction as Q
from functools import cache
from operator import add
from types import SimpleNamespace
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dbseeds import dbc, linalg, seedcore, verify
from dbseeds.coxeter import cartan_init, eta_machinery, is_reduced, sigma_chain, xi_enumerate, xi_is_member
from dbseeds.qtorus import FrameMatrix, frame_restrict
from dbseeds.seedcore import ExchangeMatrix, graded_reduce, mutate_exchange, mutate_seed, mutation_basis, reindex

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2", "E6"]
EVERY_TYPE = (
    [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)] + [f"C{r}" for r in range(3, 9)]
    + [f"D{r}" for r in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


def act_word_on_weight(cartan, word, mu):
    """w = s_{i_1} ... s_{i_N} applied to a weight, one letter at a time, the last letter first.

    The reference for `coxeter.prefix_weight_images`: each step is the simple
    reflection s_i mu = mu - <alpha_i^vee, mu> alpha_i, with alpha_i = sum_t c_ti w_t.
    """
    out = tuple(mu)
    for letter in reversed(word):
        coef = out[letter - 1]
        out = tuple(m - coef * a for m, a in zip(out, cartan.alpha_weights[letter - 1]))
    return out


def _reduced_word(draw, cartan, length):
    """A random reduced word, grown one letter at a time (shorter if w0 is reached)."""
    word = ()
    for _ in range(length):
        options = [a for a in range(1, cartan.rank + 1) if is_reduced(cartan, word + (a,))]
        if not options:
            break
        word += (draw(st.sampled_from(options)),)
    return word


@st.composite
def word_pairs(draw, cartan, max_size=6):
    size = draw(st.integers(0, max_size))
    n_w = draw(st.integers(0, size))
    w = _reduced_word(draw, cartan, n_w)
    u = _reduced_word(draw, cartan, size - n_w)
    return w, u


def _all_int(frame):
    return all(type(x) is int for row in frame.psi for x in row)


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_frames_are_integer_and_pairs_verify(name, data):
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    for _, seed in pres.sweep:
        assert _all_int(seed.frame)
        if seed.ex:
            assert _all_int(mutate_seed(seed, seed.ex[0]).frame)
    for data in pres.bz.values():
        assert _all_int(data.seed.frame)
    results = verify.verify_pair(cartan, w, u, all_xi=True)
    assert all(r.ok for r in results), [(r.name, r.detail) for r in results if not r.ok]


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_sigma_frame_recursion_is_the_chain_congruence(name, data):
    # the chain tables of `sigma_chain` are the reference for the predecessor
    # recursion: the restriction rule along their indicator vectors and the
    # product formula for `sigma_frame`, and their sums for `sigma_degrees`
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    n = pres.size
    for sigma in xi_enumerate(n) if n else [()]:
        chains = sigma_chain(pres.dwd.eta, pres.dwd.walk.succ, sigma)
        vectors = [tuple(int(j in chain) for j in range(n)) for chain in chains]
        word = pres.dwd.spell(sigma)
        ids = pres.chains.ids(word)
        frame = dbc.sigma_frame(pres, ids)
        assert frame == frame_restrict(pres.nu, vectors) == dbc.sigma_frame_product(pres, word)
        sums = tuple(tuple(map(sum, zip(*(pres.degrees[i] for i in chain)))) for chain in chains)
        assert dbc.sigma_degrees(pres, ids) == sums


def _chain_recursion(pres, word):
    """Reference: frame and degrees of one word by the predecessor recursion, summed afresh for every word.

    Row k is row p(k) plus the table's row at sigma(k), p(k) the word's walk
    predecessor and a missing one the zero row: once over nu's rows, once
    over the columns of the result, and once over the generator degrees.
    """
    def sums(table):
        zero = (0,) * (len(table[0]) if table else 0)
        rows = []
        for x, p in zip(word.sigma, word.walk.pred):
            rows.append(tuple(map(add, zero if p is None else rows[p], table[x])))
        return rows

    rows = sums(pres.nu.psi)
    return tuple(zip(*sums(tuple(zip(*rows))))), tuple(sums(pres.degrees))


def _level_runs(eta) -> set:
    """Every run of consecutive same-level positions of eta, each in increasing order."""
    runs = set()
    for level in set(eta):
        at = [i for i, a in enumerate(eta) if a == level]
        runs |= {tuple(at[i:j]) for i in range(len(at)) for j in range(i + 1, len(at) + 1)}
    return runs


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_sigma_frames_are_gathered_from_one_chain_table(name, data):
    # after the sweep, the chain table `pres.chains` names exactly the chains
    # of `sigma_chain`: one row per run of a level, sum m(m+1)/2 over the
    # levels, each reached by a key from at most its two ends.  Every frame
    # and degree table gathered from it is the per-word recursion's, and
    # lone `pres.seed(sigma)` calls, which grow their presentation's one
    # table, give the sweep's seeds and, all of Xi asked for, the same chains
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan, max_size=10))
    sweep, lone = dbc.bowtie_build(cartan, w, u), dbc.bowtie_build(cartan, w, u)
    seeds = sweep.sweep
    table = sweep.chains
    eta, succ = sweep.dwd.eta, sweep.dwd.walk.succ
    runs = _level_runs(eta)
    assert len(runs) == sum(m * (m + 1) // 2 for m in map(eta.count, set(eta)))
    assert sorted(table.chains) == sorted(runs)
    reached = {}
    for word, seed in seeds:
        sigma = word.sigma
        ids = table.ids(word)
        assert tuple(table.chains[c] for c in ids) == sigma_chain(eta, succ, sigma)
        for x, p, c in zip(sigma, word.walk.pred, ids):
            reached.setdefault(c, set()).add((None if p is None else ids[p], x))
        assert (seed.frame.psi, seed.degrees) == _chain_recursion(sweep, word)
        assert lone.seed(sigma) == seed
    assert len(table.chains) == len(runs)
    assert "sweep" not in lone.__dict__ and sorted(lone.chains.chains) == sorted(runs)
    for c, keys in reached.items():
        chain = table.chains[c]
        assert len(keys) <= len({chain[0], chain[-1]})
        for parent, x in keys:
            assert x in (chain[0], chain[-1])
            assert (() if parent is None else table.chains[parent]) == tuple(i for i in chain if i != x)


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_seeds_do_not_depend_on_the_order_they_are_asked_for(name, data):
    # lone seeds for a random subset of Xi, asked for in a random order,
    # then the sweep: the chain table grows in another order, so its chain
    # ids differ, but every seed equals a fresh presentation's sweep, seed
    # for seed and in `xi_enumerate` order, and the table never holds more
    # than the runs of the levels.  A lone product frame asked for before
    # the sweep equals the one asked for after it
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan, max_size=10))
    pres, fresh = dbc.bowtie_build(cartan, w, u), dbc.bowtie_build(cartan, w, u)
    sigmas = list(xi_enumerate(pres.size)) if pres.size else [()]
    first = data.draw(st.lists(st.sampled_from(sigmas), max_size=8))
    runs = _level_runs(pres.dwd.eta)
    before = {}
    for sigma in first:
        pres.seed(sigma)
        before[sigma] = dbc.sigma_frame_product(pres, pres.dwd.spell(sigma))
        assert len(pres.chains.chains) <= len(runs)
    assert [(word.sigma, seed) for word, seed in pres.sweep] == [(word.sigma, seed) for word, seed in fresh.sweep]
    assert [word.sigma for word, _ in pres.sweep] == sigmas
    assert sorted(pres.chains.chains) == sorted(runs)
    for sigma, frame in before.items():
        assert dbc.sigma_frame_product(pres, pres.dwd.spell(sigma)) == frame == fresh.seed(sigma).frame


def _product_formula(pres, sigma):
    """Reference: psi_kj as the double sum of nu_il over i in S_k and l in S_j, entry by entry."""
    eta, nu = pres.dwd.eta, pres.nu.psi
    supports = [[i for i in sigma[: k + 1] if eta[i] == eta[x]] for k, x in enumerate(sigma)]
    return tuple(tuple(sum(nu[i][l] for i in sk for l in sj) for sj in supports) for sk in supports)


def _entrywise_double_word_columns(cartan, letters, eps, walk, ex):
    """Reference: the columns of the Berenstein-Fomin-Zelevinsky rule, one entry (j, k) at a time."""
    n = len(letters)
    pred = walk.pred
    s = tuple(n if x is None else x for x in walk.succ)

    def entry(j, k):
        if j == pred[k]:
            return -eps[k]
        if j == s[k]:
            return eps[j]
        cjk = cartan[letters[j] - 1][letters[k] - 1]
        sj, sk = s[j], s[k]
        if j < k:
            if (k < sj and sj < sk and eps[k] == eps[sj]) or (k < sk and sk < sj and eps[k] != eps[sk]):
                return -eps[k] * cjk
        if k < j:
            if (j < sk and sk < sj and eps[j] == eps[sk]) or (j < sj and sj < sk and eps[j] != eps[sj]):
                return eps[j] * cjk
        return 0

    return tuple(tuple(entry(j, k) for j in range(n)) for k in ex)


def _entrywise_reindex(seed, tau):
    """Reference: (psi, ex, columns, inv, degrees, d) of the seed reindexed by tau, entry by entry."""
    n = seed.size
    inverse = {v: j for j, v in enumerate(tau)}
    ex = tuple(sorted(inverse[k] for k in seed.ex))
    return (
        tuple(tuple(seed.frame.psi[tau[j]][tau[k]] for k in range(n)) for j in range(n)),
        ex,
        tuple(tuple(seed.exchange.column(tau[k])[tau[j]] for j in range(n)) for k in ex),
        frozenset(inverse[k] for k in seed.inv),
        tuple(seed.degrees[tau[j]] for j in range(n)),
        tuple(seed.d[tau[j]] for j in range(n)),
    )


def _assert_kernels_match_their_references(pres, rng):
    """Every sigma-seed's frame, exchange matrix and reindexings against the entrywise rules above.

    The minor-labelled seed, whose frozen indices are invertible, is checked
    and reindexed too.
    """
    cartan = pres.cartan.cartan

    def reindexings(seed):
        n = seed.size
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        taus = [tuple(range(n)), tuple(reversed(range(n))), tuple(shuffled)]
        taus += [tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, n)) for k in range(n - 1)]
        for tau in taus:
            moved = reindex(seed, tau)
            got = (moved.frame.psi, moved.ex, moved.exchange.cols, moved.inv, moved.degrees, moved.d)
            assert got == _entrywise_reindex(seed, tau)
            assert moved.frame == seed.frame.reindex(tau)

    for word, seed in pres.sweep:
        sigma = word.sigma
        assert seed.frame.psi == dbc.sigma_frame_product(pres, word).psi == _product_formula(pres, sigma)
        want = _entrywise_double_word_columns(cartan, word.letters, word.eps, word.walk, word.ex)
        assert seed.exchange.cols == dbc.btau_columns(pres.dwd, word).cols == want
        reindexings(seed)
    bz = pres.bz["plain"]
    eps = tuple(1 if k < pres.cartan.rank + len(pres.dwd.w_word) else -1 for k in range(len(bz.eta)))
    assert bz.seed.exchange.cols == _entrywise_double_word_columns(cartan, bz.eta, eps, bz.walk, bz.seed.ex)
    assert bz.seed.inv
    reindexings(bz.seed)


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_sweep_kernels_match_their_entrywise_references(name, data):
    # the product formula, the double-word exchange rule and the reindexing
    # gather whole rows; each must give what its rule gives entry by entry
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    _assert_kernels_match_their_references(dbc.bowtie_build(cartan, w, u), data.draw(st.randoms(use_true_random=False)))


@pytest.mark.parametrize(
    "name, w, u",
    [("A1", (), ()), ("A1", (1,), ()), ("A1", (), (1,)), ("A1", (1,), (1,)), ("A2", (1,), (2,)), ("G2", (2,), (1,))],
)
def test_sweep_kernels_match_their_entrywise_references_on_the_smallest_words(name, w, u):
    # n = 0, n = 1 and one-letter words: a gather of fewer than two indices
    # must still give tuples
    pres = dbc.bowtie_build(cartan_init(name[0], int(name[1:])), w, u)
    assert pres.size == len(w) + len(u)
    _assert_kernels_match_their_references(pres, random.Random(0))


def _adjacent(pres):
    """(sigma, k, sigma o (k k+1), same level) for every ordered pair of adjacent seeds."""
    n, eta = pres.size, pres.dwd.eta
    sigmas = [word.sigma for word, _ in pres.sweep]
    members = set(sigmas)
    for sigma in sigmas:
        for k in range(n - 1):
            sigma2 = sigma[:k] + (sigma[k + 1], sigma[k]) + sigma[k + 2:]
            if sigma2 in members:
                yield sigma, k, sigma2, eta[sigma[k]] == eta[sigma[k + 1]]


def test_word_signs_find_exactly_the_xi_links():
    # the rule `xi_linkage` finds its links by: for sigma in Xi,
    # sigma o (k k+1) is in Xi exactly when k = 0 or the word's signs at k
    # and k+1 differ, on every sigma and k up to n = 10 (prefixes of a
    # reduced word of w0 in A4)
    cartan = cartan_init("A", 4)
    w0 = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)
    for n in range(1, len(w0) + 1):
        dwd = eta_machinery(cartan, w0[:n], ())
        for sigma in xi_enumerate(n):
            eps = dwd.spell(sigma).eps
            for k in range(n - 1):
                swapped = sigma[:k] + (sigma[k + 1], sigma[k]) + sigma[k + 2:]
                assert (k == 0 or eps[k] != eps[k + 1]) == xi_is_member(swapped), (sigma, k)


def _corrupted(data, seed):
    """seed with one field changed by `_corrupt`, of a drawn kind (an exchange entry only when there is a column)."""
    kind = data.draw(st.sampled_from(["frame", "ex", "degree", "d", "inv"] + ["exchange"] * bool(seed.ex)))
    return _corrupt(seed, kind, data.draw(st.integers(0, 63)), data.draw(st.integers(0, 63)))


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_in_place_reindexing_test_is_reindex_equality(name, data):
    # `xi_linkage` compares a cross-level neighbour's fields with
    # `reindex_fields` along the transposition; `reindex` is the reference:
    # the test must be `reindex(seed, t) == other` on every honest
    # neighbour, and on one with exactly one field changed, and the check
    # must answer as the two-end check that builds the reindexed seed
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    n = pres.size
    links = [(sigma, k, sigma2) for sigma, k, sigma2, same_level in _adjacent(pres) if not same_level]
    for sigma, k, sigma2 in links:
        seed = pres.seed(sigma)
        tau = tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, n))

        def agrees(other):
            got = seedcore.reindex_fields(seed, tau) == seedcore.seed_fields(other)
            assert got == (reindex(seed, tau) == other)
            return got

        assert agrees(pres.seed(sigma2))
        assert not agrees(_corrupted(data, pres.seed(sigma2)))
    if links:
        sigma, k, sigma2 = data.draw(st.sampled_from(links))
        assert not _both_rules(pres, {sigma2: _corrupted(data, pres.seed(sigma2))}).ok


def test_in_place_reindexing_test_reads_the_exchange_height():
    # with no exchangeable index, only the exchange matrix's n tells a
    # neighbour whose matrix has another height apart, as `reindex` does
    pres = dbc.bowtie_build(cartan_init("A", 2), (1,), (2,))
    seed, other = pres.seed((0, 1)), pres.seed((1, 0))
    assert seed.ex == ()
    taller = replace(other, exchange=ExchangeMatrix(3, (), ()))
    for neighbour, want in ((other, True), (taller, False)):
        assert (seedcore.reindex_fields(seed, (1, 0)) == seedcore.seed_fields(neighbour)) == want
        assert (reindex(seed, (1, 0)) == neighbour) == want
        assert _both_rules(pres, {(1, 0): neighbour}).ok == want


def _two_end_xi_linkage(pres):
    """Reference: the linkage check that checks every link from both of its ends."""
    dwd = pres.dwd
    w, u = dwd.w_word, dwd.u_word
    n = dwd.size
    seeds = {word.sigma: seed for word, seed in pres.sweep}
    for sigma, seed in seeds.items():
        for k in range(n - 1):
            tau = list(range(n))
            tau[k], tau[k + 1] = tau[k + 1], tau[k]
            sigma2 = tuple(sigma[t] for t in tau)
            if not xi_is_member(sigma2):
                continue
            other = seeds[sigma2]
            if dwd.eta[sigma[k]] != dwd.eta[sigma[k + 1]]:
                moved = reindex(seed, tuple(tau))
            else:
                moved = mutate_seed(seed, k)
                if frame_restrict(seed.frame, mutation_basis(seed, k, -1)) != other.frame:
                    detail = f"w={w} u={u}: sigma={sigma}, k={k}: frame mutation depends on the sign choice"
                    return verify.CheckResult("xi-linkage", False, detail)
            same = (
                moved.frame.psi == other.frame.psi
                and moved.exchange == other.exchange
                and moved.degrees == other.degrees
                and moved.d == other.d
                and moved.inv == other.inv
            )
            if not same:
                return verify.CheckResult(
                    "xi-linkage", False,
                    f"w={w} u={u}: sigma={sigma}, k={k} does not link to {sigma2}",
                )
    return verify.CheckResult("xi-linkage", True)


def _both_rules(pres, replaced=None):
    """Result of the one-end check, asserted equal to the two-end check's, with some seeds replaced."""
    if replaced:
        sweep = tuple((word, replaced.get(word.sigma, seed)) for word, seed in pres.sweep)
        pres = SimpleNamespace(dwd=pres.dwd, size=pres.size, sweep=sweep)
    got = verify.xi_linkage(pres)
    assert got == _two_end_xi_linkage(pres)
    return got


def _corrupt(seed, kind, a, b):
    """seed with one field changed.

    One entry moved by one: a frame entry (kept skew), an exchange entry, a
    degree or d; or index a toggled in the exchangeable set (its column
    dropped, or a zero column added) or in inv.
    """
    n = seed.size
    if kind == "ex":
        cols = dict(zip(seed.ex, seed.exchange.cols))
        if cols.pop(a % n, None) is None:
            cols[a % n] = (0,) * n
        ex = tuple(sorted(cols))
        return replace(seed, exchange=ExchangeMatrix(n, ex, tuple(map(cols.__getitem__, ex))))
    if kind == "d":
        return replace(seed, d=seed.d[: a % n] + (seed.d[a % n] + 1,) + seed.d[a % n + 1:])
    if kind == "inv":
        return replace(seed, inv=seed.inv ^ {a % n})
    if kind == "frame":
        i, j = a % n, b % (n - 1)
        j += j >= i
        psi = [list(row) for row in seed.frame.psi]
        psi[i][j] += 1
        psi[j][i] -= 1
        return replace(seed, frame=FrameMatrix(tuple(map(tuple, psi))))
    if kind == "exchange":
        cols = [list(c) for c in seed.exchange.cols]
        cols[a % len(cols)][b % n] += 1
        return replace(seed, exchange=ExchangeMatrix(n, seed.ex, tuple(map(tuple, cols))))
    degrees = [list(x) for x in seed.degrees]
    degrees[a % n][b % len(degrees[0])] += 1
    return replace(seed, degrees=tuple(map(tuple, degrees)))


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_end_xi_linkage_matches_the_two_end_check(name, data):
    # the one-end rule drops only checks that the first end implies, so it
    # must agree with the both-ends rule on honest seeds and on every fault;
    # every sigma links to sigma o (0 1), so every fault fails the check
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    assert _both_rules(pres) == verify.CheckResult("xi-linkage", True)
    perms = [word.sigma for word, _ in pres.sweep]
    for _ in range(3 if pres.size >= 2 else 0):   # smaller seeds have no links
        sigma = data.draw(st.sampled_from(perms))
        seed = pres.seed(sigma)
        kind = data.draw(st.sampled_from(["degree", "frame"] + ["exchange"] * bool(seed.ex)))
        a, b = data.draw(st.integers(0, 63)), data.draw(st.integers(0, 63))
        assert not _both_rules(pres, {sigma: _corrupt(seed, kind, a, b)}).ok
    # a degree off balance in an earlier seed, whose exact mutation replaces the
    # later seed: a fault that only the second end of that link can see
    place = {sigma: i for i, sigma in enumerate(perms)}
    for sigma, k, sigma2, same_level in _adjacent(pres):
        column = pres.seed(sigma).exchange.column(k) if same_level else ()
        off_k = [i for i, x in enumerate(column) if x and i != k]
        if place[sigma] < place[sigma2] and off_k:
            seed = _corrupt(pres.seed(sigma), "degree", off_k[0], 0)
            assert not _both_rules(pres, {sigma: seed, sigma2: mutate_seed(seed, k)}).ok
            break


def test_one_end_xi_linkage_reports_an_ungraded_column_from_the_second_end():
    # seed(0, 1) with a degree off balance at exchange column 0, and its exact
    # mutation as seed(1, 0): the first end agrees, only the second end fails
    pres = dbc.bowtie_build(cartan_init("A", 1), (1,), (1,))
    low, high = (word.sigma for word, _ in pres.sweep)
    seed = _corrupt(pres.seed(low), "degree", 1, 0)
    want = verify.CheckResult("xi-linkage", False, f"w=(1,) u=(1,): sigma={high}, k=0 does not link to {low}")
    assert _both_rules(pres, {low: seed, high: mutate_seed(seed, 0)}) == want


@pytest.mark.parametrize("field", ["d", "inv"])
def test_xi_linkage_compares_symmetrizer_and_invertible_indices(field):
    # reindexing permutes d and inv and mutation keeps them, so a seed whose
    # d is reversed, or which claims an invertible index, does not link
    pres = dbc.bowtie_build(cartan_init("B", 2), (1, 2), (2, 1))
    sigma = (0, 1, 2, 3)
    seed = pres.seed(sigma)
    bad = replace(seed, d=seed.d[::-1]) if field == "d" else replace(seed, inv=frozenset({0}))
    assert bad != seed
    want = verify.CheckResult("xi-linkage", False, f"w=(1, 2) u=(2, 1): sigma={sigma}, k=0 does not link to (1, 0, 2, 3)")
    assert _both_rules(pres, {sigma: bad}) == want


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutation_links_adjacent_seeds_from_either_end(name, data):
    # xi-linkage reads a same-level link in place and builds no mutated
    # seed, so the constructor's own oracle is here: `mutate_seed` carries
    # each seed of the link to the other, from the end that comes first in
    # `pres.sweep` and from the later one
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    place = {word.sigma: i for i, (word, _) in enumerate(pres.sweep)}
    for sigma, k, sigma2, same_level in _adjacent(pres):
        if same_level and place[sigma] < place[sigma2]:
            assert mutate_seed(pres.seed(sigma), k) == pres.seed(sigma2)
            assert mutate_seed(pres.seed(sigma2), k) == pres.seed(sigma)


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_moved_row_sign_test_agrees_with_the_full_restriction(name, data):
    # the reference is the restriction along the whole -1 basis, and along
    # the whole +1 basis, each compared with the neighbour's frame; on every
    # same-level edge the moved-row rule must answer as they do: on the
    # honest neighbour, on the neighbour with one frame entry moved (kept
    # skew), and with one row of either basis plus a multiple of another,
    # which keeps the basis integral and independent
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    n = pres.size
    for sigma, k, sigma2, same_level in _adjacent(pres):
        if not same_level:
            continue
        seed, other = pres.seed(sigma), pres.seed(sigma2)

        def agrees(basis, frame):
            want = tuple(frame_restrict(seed.frame, basis(seed, k, sign)) == frame for sign in (-1, 1))
            with mock.patch.object(seedcore, "mutation_basis", basis):
                assert verify._restrictions_give(seed, k, frame.psi) == want
            return want

        assert agrees(mutation_basis, other.frame) == (True, True)
        bad = _corrupt(other, "frame", data.draw(st.integers(0, 63)), data.draw(st.integers(0, 63)))
        assert agrees(mutation_basis, bad.frame) == (False, False)
        j = data.draw(st.integers(0, n - 1))
        m = data.draw(st.integers(0, n - 2))
        m += m >= j
        c = data.draw(st.sampled_from([-2, -1, 1, 2]))
        faulty_sign = data.draw(st.sampled_from([-1, 1]))

        def skewed(seed, k, sign, j=j, m=m, c=c, faulty_sign=faulty_sign):
            basis = mutation_basis(seed, k, sign)
            if sign == faulty_sign:
                basis[j] = tuple(x + c * y for x, y in zip(basis[j], basis[m]))
            return basis

        agrees(skewed, other.frame)


def test_moved_row_sign_test_reads_one_basis_when_column_k_is_zero():
    # with column k of B all zero the two bases coincide, G+ = G-, and row k
    # of each is -e_k: both sign choices must answer as the full restriction
    pres = dbc.bowtie_build(cartan_init("A", 2), (1, 2, 1), (1, 2, 1))
    seed = pres.seed((0, 1, 2, 3, 4, 5))
    cols = seed.exchange.cols
    for i, k in enumerate(seed.ex):
        zero = cols[:i] + ((0,) * seed.size,) + cols[i + 1:]
        flat = replace(seed, exchange=ExchangeMatrix(seed.size, seed.ex, zero))
        assert mutation_basis(flat, k, 1) == mutation_basis(flat, k, -1)
        flipped = frame_restrict(flat.frame, mutation_basis(flat, k, 1))
        for frame in (flipped, seed.frame, _corrupt(flat, "frame", k, 0).frame):
            want = frame_restrict(flat.frame, mutation_basis(flat, k, -1)) == frame
            assert verify._restrictions_give(flat, k, frame.psi) == (want, want)


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutation_basis_is_the_identity_but_row_k(name, data):
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    n = pres.size
    for _, seed in pres.sweep:
        for k in seed.ex:
            for sign in (1, -1):
                want = [tuple(int(i == j) for i in range(n)) for j in range(n)]
                want[k] = seedcore._mutation_row(seed, k, sign)
                assert mutation_basis(seed, k, sign) == want


def _full_elimination_btau(pres):
    """Reference: one n-column integer rank of the oracle system per sigma, then one dense product per column."""
    w, u = pres.dwd.w_word, pres.dwd.u_word
    n = pres.size
    for word, seed in pres.sweep:
        sigma = word.sigma
        rows, rhs = dbc.oracle_system(pres.cartan, word, seed)
        r = linalg.rank(rows)
        if r != n:
            return verify.CheckResult("btau-oracle", False, f"w={w} u={u} sigma={sigma}: oracle system has rank {r}, not {n}")
        for l in seed.ex:
            got = seed.exchange.column(l)
            if tuple(sum(x * y for x, y in zip(row, got)) for row in rows) == rhs.get(l):
                continue
            try:
                want = dbc.solve_b_oracle(pres, sigma, l)
            except dbc.OracleError as exc:
                want = f"fails: {exc}"
            return verify.CheckResult(
                "btau-oracle", False, f"w={w} u={u} sigma={sigma}: column {l} is {got}, oracle {want}",
            )
    return verify.CheckResult("btau-oracle", True)


def _both_oracle_rules(pres, replaced=None):
    """Result of the block-rank check, asserted equal to the full elimination's, with some seeds replaced.

    The check is also run with its block rank made to fail, so that every
    sigma takes the long way.
    """
    if replaced:
        dwd = pres.dwd
        sweep = tuple((word, replaced.get(word.sigma, seed)) for word, seed in pres.sweep)
        seeds = {word.sigma: seed for word, seed in sweep}
        pres = SimpleNamespace(
            dwd=dwd, size=pres.size, cartan=pres.cartan, sweep=sweep,
            seed=lambda sigma: seeds[dwd.spell(sigma).sigma],
        )
    got = verify.btau_oracle_equivalence(pres)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_block_rank_is_full", lambda *args: False)
        assert verify.btau_oracle_equivalence(pres) == got
    assert got == _full_elimination_btau(pres)
    return got


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_btau_block_rank_matches_full_elimination(name, data):
    # honest seeds pass; a column entry, a degree or a frame entry moved by one,
    # or all degrees zero (a singular system for an odd-sized frame), give the
    # reference's result, detail included
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    assert _both_oracle_rules(pres) == verify.CheckResult("btau-oracle", True)
    perms = [word.sigma for word, _ in pres.sweep]
    for _ in range(3 if pres.size >= 2 else 0):
        sigma = data.draw(st.sampled_from(perms))
        seed = pres.seed(sigma)
        kind = data.draw(st.sampled_from(["degree", "frame"] + ["exchange"] * bool(seed.ex)))
        a, b = data.draw(st.integers(0, 63)), data.draw(st.integers(0, 63))
        _both_oracle_rules(pres, {sigma: _corrupt(seed, kind, a, b)})
    flat = (0,) * cartan.rank
    _both_oracle_rules(pres, {word.sigma: replace(seed, degrees=(flat,) * pres.size) for word, seed in pres.sweep})


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_minor_labels_match_the_prefix_by_prefix_rule(name, data):
    # the labels read off one pass over each word equal each prefix applied anew
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    r, nw = cartan.rank, len(w)
    w_inv = w[::-1]

    def fundamental(i):
        return tuple(1 if t == i - 1 else 0 for t in range(r))

    want = (
        [(fundamental(i), act_word_on_weight(cartan, w_inv, fundamental(i))) for i in range(1, r + 1)]
        + [(fundamental(a), act_word_on_weight(cartan, w_inv[: nw - 1 - idx], fundamental(a)))
           for idx, a in enumerate(w)]
        + [(act_word_on_weight(cartan, u[: idx + 1], fundamental(a)), fundamental(a)) for idx, a in enumerate(u)]
    )
    assert dbc.bowtie_build(cartan, w, u).bz["plain"].labels == tuple(want)


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutation_and_reduction_restrict_frames_without_a_rank(name, data):
    # mutation bases and reduction shifts peel in `frame_restrict`'s pattern test
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    seeds, bz = pres.sweep, pres.bz["modified"].seed

    def refuse(a):
        raise AssertionError("frame_restrict took a rank")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rank", refuse)
        for _, seed in seeds:
            for k in seed.ex:
                frame_restrict(seed.frame, mutation_basis(seed, k, -1))
                mutate_seed(seed, k)
        graded_reduce(bz, cartan.rank)
        for k in bz.ex:
            graded_reduce(mutate_seed(bz, k), cartan.rank)


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_trusted_frames_equal_their_validated_rebuild(name, data):
    # every frame built through the trusted path passes the public
    # constructor's checks and is rebuilt equal by it
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    frames = []
    for _, seed in pres.sweep:
        frames += [seed.frame, seed.frame.negate()]   # the sigma-frame and its negative
        for k in seed.ex:
            frames += [frame_restrict(seed.frame, mutation_basis(seed, k, sign)) for sign in (1, -1)]
        if pres.size >= 2:
            frames.append(reindex(seed, (1, 0) + tuple(range(2, pres.size))).frame)
    frames.append(graded_reduce(pres.bz["modified"].seed, cartan.rank).frame)
    for frame in frames:
        assert FrameMatrix(frame.psi) == frame


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_trusted_exchange_matrices_equal_their_validated_rebuild(name, data):
    # every exchange matrix built through the trusted path (each sigma-seed's
    # and each minor-labelled seed's double-word matrix, and each mutation of
    # them) passes the public constructor's checks and is rebuilt equal by it
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    seeds = [bz.seed for bz in pres.bz.values()] + [seed for _, seed in pres.sweep]
    matrices = []
    for seed in seeds:
        matrices.append(seed.exchange)
        matrices += [mutate_exchange(seed.exchange, k) for k in seed.ex]
    for b in matrices:
        assert ExchangeMatrix(b.n, b.ex, b.cols) == b


@pytest.mark.parametrize("n", range(1, 11))
def test_xi_link_partner_codes_are_the_transposition(n):
    # on every link {sigma, sigma o (k k+1)} of Xi_n, the partner's place in
    # `xi_enumerate` order is sigma's code XOR the link's mask
    order = list(xi_enumerate(n))
    place = {sigma: code for code, sigma in enumerate(order)}
    masks = verify._partner_masks(n)
    links = 0
    for code, sigma in enumerate(order):
        for k in range(n - 1):
            sigma2 = sigma[:k] + (sigma[k + 1], sigma[k]) + sigma[k + 2:]
            if sigma2 in place:
                assert place[sigma2] == code ^ masks[k]
                links += 1
    # every sigma links at k = 0, and half of them, eps[k] != eps[k+1], at each k >= 1
    assert links == (n * 2 ** (n - 2) if n >= 2 else 0)


@cache
def _sympy_weight_pairing(name):
    """<w_i, w_j> = ((C^-1)^T D)_ij by sympy, as Fractions."""
    cartan = cartan_init(name[0], int(name[1:]))
    table = sympy.Matrix(cartan.cartan).inv().T * sympy.diag(*cartan.d)
    return tuple(tuple(Q(int(x.p), int(x.q)) for x in table.row(i)) for i in range(cartan.rank))


def _fraction_frame(table, labels):
    """Frame exponents <gamma_j, gamma_k> - <delta_j, delta_k>, one Fraction pairing per entry."""
    def pair(mu, nu):
        return sum(
            x * y * table[a][b] for a, x in enumerate(mu) if x for b, y in enumerate(nu) if y
        )

    n = len(labels)
    psi = [[Q(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(j):
            (gj, dj), (gk, dk) = labels[j], labels[k]
            psi[j][k] = pair(gj, gk) - pair(dj, dk)
            psi[k][j] = -psi[j][k]
    return psi


@pytest.mark.parametrize("name", EVERY_TYPE)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_weight_form_matches_sympy_and_fraction_frames(name, data):
    cartan = cartan_init(name[0], int(name[1:]))
    table = _sympy_weight_pairing(name)
    unit = [tuple(int(t == i) for t in range(cartan.rank)) for i in range(cartan.rank)]
    for i in range(cartan.rank):
        for j in range(cartan.rank):
            assert cartan.pair_weight(unit[i], unit[j]) == table[i][j]
    w, u = data.draw(word_pairs(cartan, max_size=8))
    seeds = dbc.bowtie_build(cartan, w, u).bz
    plain, modified = seeds["plain"], seeds["modified"]
    # the frame formula reads the plain labels under either variant
    assert modified.labels == tuple((d, g) for g, d in plain.labels)
    want = _fraction_frame(table, plain.labels)
    for bz in (plain, modified):
        assert [list(row) for row in bz.seed.frame.psi] == want
