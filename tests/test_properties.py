"""Property sweeps over random reduced word pairs in every finite family."""

from dataclasses import replace
from fractions import Fraction as Q
from functools import cache
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dbseeds import dbc, linalg, verify
from dbseeds.coxeter import cartan_init, is_reduced, sigma_chain, xi_enumerate, xi_is_member
from dbseeds.qtorus import FrameMatrix, frame_restrict
from dbseeds.seedcore import ExchangeMatrix, graded_reduce, mutate_seed, mutation_basis, reindex

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2", "E6"]
EVERY_TYPE = (
    [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)] + [f"C{r}" for r in range(3, 9)]
    + [f"D{r}" for r in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


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
    for seed in pres.seeds.values():
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
        chains = sigma_chain(pres.dwd.eta, pres.dwd.s, sigma)
        vectors = [tuple(int(j in chain) for j in range(n)) for chain in chains]
        word = pres.dwd.spell(sigma)
        frame = dbc.sigma_frame(pres, word)
        assert frame == frame_restrict(pres.nu, vectors) == dbc.sigma_frame_product(pres, sigma)
        sums = tuple(tuple(map(sum, zip(*(pres.degrees[i] for i in chain)))) for chain in chains)
        assert dbc.sigma_degrees(pres, word) == sums


def _adjacent(pres):
    """(sigma, k, sigma o (k k+1), same level) for every ordered pair of adjacent seeds."""
    n, eta = pres.size, pres.dwd.eta
    for sigma in pres.seeds:
        for k in range(n - 1):
            sigma2 = sigma[:k] + (sigma[k + 1], sigma[k]) + sigma[k + 2:]
            if sigma2 in pres.seeds:
                yield sigma, k, sigma2, eta[sigma[k]] == eta[sigma[k + 1]]


def _two_end_xi_linkage(pres):
    """Reference: the linkage check that checks every link from both of its ends."""
    dwd = pres.dwd
    w, u = dwd.w_word, dwd.u_word
    n = dwd.size
    seeds = pres.seeds
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
        pres = SimpleNamespace(dwd=pres.dwd, size=pres.size, seeds={**pres.seeds, **replaced})
    got = verify.xi_linkage(pres)
    assert got == _two_end_xi_linkage(pres)
    return got


def _corrupt(seed, kind, a, b):
    """seed with one entry moved by one: a frame entry (kept skew), an exchange entry or a degree."""
    n = seed.size
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
    perms = list(pres.seeds)
    for _ in range(3 if pres.size >= 2 else 0):   # smaller seeds have no links
        sigma = data.draw(st.sampled_from(perms))
        seed = pres.seeds[sigma]
        kind = data.draw(st.sampled_from(["degree", "frame"] + ["exchange"] * bool(seed.ex)))
        a, b = data.draw(st.integers(0, 63)), data.draw(st.integers(0, 63))
        assert not _both_rules(pres, {sigma: _corrupt(seed, kind, a, b)}).ok
    # a degree off balance in an earlier seed, whose exact mutation replaces the
    # later seed: a fault that only the second end of that link can see
    place = {sigma: i for i, sigma in enumerate(perms)}
    for sigma, k, sigma2, same_level in _adjacent(pres):
        column = pres.seeds[sigma].exchange.column(k) if same_level else ()
        off_k = [i for i, x in enumerate(column) if x and i != k]
        if place[sigma] < place[sigma2] and off_k:
            seed = _corrupt(pres.seeds[sigma], "degree", off_k[0], 0)
            assert not _both_rules(pres, {sigma: seed, sigma2: mutate_seed(seed, k)}).ok
            break


def test_one_end_xi_linkage_reports_an_ungraded_column_from_the_second_end():
    # seed(0, 1) with a degree off balance at exchange column 0, and its exact
    # mutation as seed(1, 0): the first end agrees, only the second end fails
    pres = dbc.bowtie_build(cartan_init("A", 1), (1,), (1,))
    low, high = pres.seeds
    seed = _corrupt(pres.seeds[low], "degree", 1, 0)
    want = verify.CheckResult("xi-linkage", False, f"w=(1,) u=(1,): sigma={high}, k=0 does not link to {low}")
    assert _both_rules(pres, {low: seed, high: mutate_seed(seed, 0)}) == want


@pytest.mark.parametrize("field", ["d", "inv"])
def test_xi_linkage_compares_symmetrizer_and_invertible_indices(field):
    # reindexing permutes d and inv and mutation keeps them, so a seed whose
    # d is reversed, or which claims an invertible index, does not link
    pres = dbc.bowtie_build(cartan_init("B", 2), (1, 2), (2, 1))
    sigma = (0, 1, 2, 3)
    seed = pres.seeds[sigma]
    bad = replace(seed, d=seed.d[::-1]) if field == "d" else replace(seed, inv=frozenset({0}))
    assert bad != seed
    want = verify.CheckResult("xi-linkage", False, f"w=(1, 2) u=(2, 1): sigma={sigma}, k=0 does not link to (1, 0, 2, 3)")
    assert _both_rules(pres, {sigma: bad}) == want


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutation_links_adjacent_seeds_from_either_end(name, data):
    # xi-linkage mutates only from the earlier seed of a same-level link; the
    # mutation from the later seed back to the earlier one is checked here
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    for sigma, k, sigma2, same_level in _adjacent(pres):
        if same_level:
            assert mutate_seed(pres.seeds[sigma2], k) == pres.seeds[sigma]


def _full_elimination_btau(pres):
    """Reference: one n-column integer rank of the oracle system per sigma, then one dense product per column."""
    w, u = pres.dwd.w_word, pres.dwd.u_word
    n = pres.size
    for sigma, seed in pres.seeds.items():
        rows, rhs = dbc.oracle_system(pres, pres.dwd.spell(sigma))
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
        seeds = {**pres.seeds, **replaced}
        dwd = pres.dwd
        pres = SimpleNamespace(
            dwd=dwd, size=pres.size, cartan=pres.cartan, seeds=seeds, seed=lambda sigma: seeds[dwd.spell(sigma).sigma],
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
    perms = list(pres.seeds)
    for _ in range(3 if pres.size >= 2 else 0):
        sigma = data.draw(st.sampled_from(perms))
        seed = pres.seeds[sigma]
        kind = data.draw(st.sampled_from(["degree", "frame"] + ["exchange"] * bool(seed.ex)))
        a, b = data.draw(st.integers(0, 63)), data.draw(st.integers(0, 63))
        _both_oracle_rules(pres, {sigma: _corrupt(seed, kind, a, b)})
    flat = (0,) * cartan.rank
    _both_oracle_rules(pres, {sigma: replace(seed, degrees=(flat,) * pres.size) for sigma, seed in pres.seeds.items()})


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutation_and_reduction_restrict_frames_without_a_rank(name, data):
    # mutation bases and reduction shifts peel in `frame_restrict`'s pattern test
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    seeds, bz = pres.seeds, pres.bz["modified"].seed

    def refuse(a):
        raise AssertionError("frame_restrict took a rank")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rank", refuse)
        for seed in seeds.values():
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
    for sigma, seed in pres.seeds.items():
        frames += [seed.frame, seed.frame.negate()]   # the sigma-frame and its negative
        for k in seed.ex:
            frames += [frame_restrict(seed.frame, mutation_basis(seed, k, sign)) for sign in (1, -1)]
        if pres.size >= 2:
            frames.append(reindex(seed, (1, 0) + tuple(range(2, pres.size))).frame)
    frames.append(graded_reduce(pres.bz["modified"].seed, cartan.rank).frame)
    for frame in frames:
        assert FrameMatrix(frame.psi) == frame


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
