import dataclasses
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

from dbseeds import dbc, seedcore, verify
from dbseeds.coxeter import (
    CartanData,
    NotAPermutation,
    NotIntervalPermutation,
    cartan_init,
    sigma_chain,
    xi_enumerate,
)
from dbseeds.qtorus import FrameMatrix, frame_restrict
from dbseeds.seedcore import (
    ExchangeMatrix,
    antiiso_transform,
    check_compatible,
    graded_reduce,
    mutate_seed,
    mutation_basis,
)

A1 = cartan_init("A", 1)
A2 = cartan_init("A", 2)
B2 = cartan_init("B", 2)


def _bz(cartan, w, u, variant="plain"):
    """The minor-labelled seed data of one variant, as its presentation keeps it."""
    return dbc.bowtie_build(cartan, w, u).bz[variant]


def _mutate_checked(seed, k):
    """mutate_seed, asserting compatibility before and after and sign-choice independence."""
    assert check_compatible(seed).ok
    out = mutate_seed(seed, k)
    assert frame_restrict(seed.frame, mutation_basis(seed, k, -1)) == out.frame
    assert check_compatible(out).ok
    return out


def _lambda_exp(pres):
    return tuple(tuple(2 * x for x in row) for row in pres.nu.psi)


def test_bowtie_a1():
    pres = dbc.bowtie_build(A1, (1,), (1,))
    assert _lambda_exp(pres) == ((0, -4), (4, 0))
    assert pres.nu.psi[1][0] == 2
    assert pres.degrees == ((-1,), (1,))


def test_bowtie_a2_blocks():
    pres = dbc.bowtie_build(A2, (1, 2, 1), (1,))
    assert _lambda_exp(pres) == (
        (0, 2, -2, 2),
        (-2, 0, 2, -2),
        (2, -2, 0, -4),
        (-2, 2, 4, 0),
    )
    assert pres.degrees == ((0, -1), (-1, -1), (-1, 0), (1, 0))


def test_sigma_frame_a1_identity():
    pres = dbc.bowtie_build(A1, (1,), (1,))
    frame = dbc.sigma_frame(pres, pres.dwd.spell((0, 1)))
    assert frame.psi[1][0] == 2


def test_sigma_frame_product_formula_agreement():
    pres = dbc.bowtie_build(A2, (1, 2), (1,))
    for sigma in xi_enumerate(3):
        a = dbc.sigma_frame(pres, pres.dwd.spell(sigma))
        b = dbc.sigma_frame_product(pres, sigma)
        assert a.psi == b.psi


def _chain_matrix(pres, sigma):
    """Columns are the chain indicator vectors of sigma."""
    chains = sigma_chain(pres.dwd.eta, pres.dwd.s, sigma)
    return tuple(tuple(int(j in chain) for chain in chains) for j in range(pres.size))


def test_ebar_identity_collects_chains():
    pres = dbc.bowtie_build(A2, (1, 2, 1), (1,))
    assert sigma_chain(pres.dwd.eta, pres.dwd.s, tuple(range(4))) == ((0,), (1,), (0, 2), (0, 2, 3))
    ebars = tuple(zip(*_chain_matrix(pres, tuple(range(4)))))
    assert ebars == ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, 1, 1))


def test_chain_matrix_a1():
    pres = dbc.bowtie_build(A1, (1,), (1,))
    z = _chain_matrix(pres, (0, 1))
    assert z == ((Q(1), Q(1)), (Q(0), Q(1)))


def test_chain_matrices_unimodular():
    from dbseeds import linalg

    pres = dbc.bowtie_build(B2, (1, 2, 1), (2, 1))
    for sigma in xi_enumerate(pres.size):
        z = _chain_matrix(pres, sigma)
        inverse = linalg.mat_inv(z)
        assert all(x.denominator == 1 for row in inverse for x in row)


@pytest.mark.parametrize(
    "entry",
    [
        lambda pres, sigma: dbc.sigma_seed(pres, sigma),
        lambda pres, sigma: pres.seed(sigma),
        lambda pres, sigma: dbc.sigma_frame(pres, pres.dwd.spell(sigma)),
        lambda pres, sigma: dbc.sigma_frame_product(pres, sigma),
        lambda pres, sigma: dbc.sigma_degrees(pres, pres.dwd.spell(sigma)),
        lambda pres, sigma: dbc.btau_columns(pres.dwd, pres.dwd.spell(sigma)),
        lambda pres, sigma: pres.dwd.spell(sigma),
        lambda pres, sigma: dbc.oracle_system(pres, pres.dwd.spell(sigma)),
        lambda pres, sigma: dbc.solve_b_oracle(pres, sigma, 0),
    ],
    ids=[
        "sigma_seed", "pres.seed", "sigma_frame", "sigma_frame_product", "sigma_degrees",
        "btau_columns", "spell", "oracle_system", "solve_b_oracle",
    ],
)
@pytest.mark.parametrize(
    "sigma", [(0, 1), (0, 1, 2, 3, 4), (0, 2, 1, 3), (1, 1, 2, 3), (0.0, 1.0, 2.0, 3.0), (False, True, 2, 3)]
)
def test_sigma_entry_points_reject_a_bad_sigma(entry, sigma):
    # too short, too long (each an interval permutation of its own length),
    # not an interval permutation, not a permutation, entries that are not
    # ints (floats, bools); the builders that take a word are reached
    # through `spell`, their boundary
    pres = dbc.bowtie_build(A2, (1, 2), (2, 1))
    with pytest.raises(NotIntervalPermutation):
        entry(pres, sigma)
    assert pres._seeds == {}


def test_bfz_a1():
    dwd = dbc.bowtie_build(A1, (1,), (1,)).dwd
    b = dbc.bfz_matrix(dwd)
    assert b.ex == (0,)
    assert b.column(0) == (0, 1)


def test_bfz_a2_columns():
    dwd = dbc.bowtie_build(A2, (1, 2, 1), (1,)).dwd
    b = dbc.bfz_matrix(dwd)
    assert b.ex == (0, 2)
    assert b.column(0) == (0, 1, -1, 0)
    assert b.column(2) == (1, -1, 0, 1)


def test_bfz_predecessor_entry_sign():
    # the entry at j = p'(k) is always the opposite sign of the block of k
    for cartan, w, u in [(A2, (1, 2, 1), (1, 2)), (B2, (1, 2, 1, 2), (1,))]:
        dwd = dbc.bowtie_build(cartan, w, u).dwd
        b = dbc.bfz_matrix(dwd)
        w0 = dbc.w0_permutation(dwd)
        letters = tuple(dwd.eta[w0[j]] for j in range(dwd.size))
        from dbseeds.coxeter import pred_succ

        p1, _ = pred_succ(letters)
        for k in b.ex:
            if p1[k] is not None:
                assert b.column(k)[p1[k]] == -dwd.epsilon[k]


def test_bfz_symmetrizable():
    for cartan, w, u in [(A2, (1, 2), (1, 2)), (B2, (1, 2, 1), (2,))]:
        dwd = dbc.bowtie_build(cartan, w, u).dwd
        b = dbc.bfz_matrix(dwd)
        w0 = dbc.w0_permutation(dwd)
        d = [cartan.d[dwd.eta[w0[k]] - 1] for k in range(dwd.size)]
        assert b.is_skew_symmetrizable(d)


def test_b_columns_a1():
    pres = dbc.bowtie_build(A1, (1,), (1,))
    b = dbc.b_columns(pres.dwd)
    assert b.ex == (0,)
    assert b.column(0) == (0, 1)


def test_b_columns_a2_against_oracle():
    pres = dbc.bowtie_build(A2, (1, 2, 1), (1,))
    b = dbc.b_columns(pres.dwd)
    ident = tuple(range(4))
    for l in b.ex:
        assert b.column(l) == dbc.solve_b_oracle(pres, ident, l)
    assert b.column(0) == (0, -1, 1, 0)
    assert b.column(2) == (-1, 0, 0, 1)


def test_btau_identity_is_b_columns():
    pres = dbc.bowtie_build(A2, (1, 2), (2, 1))
    dwd = pres.dwd
    b_id = dbc.b_columns(dwd)
    bt = dbc.btau_columns(dwd, dwd.spell(range(dwd.size)))
    assert bt == b_id


def test_btau_reversal_recovers_bfz():
    for cartan, w, u in [(A1, (1,), (1,)), (A2, (1, 2, 1), (1,)), (B2, (1, 2), (1, 2))]:
        pres = dbc.bowtie_build(cartan, w, u)
        dwd = pres.dwd
        bt = dbc.btau_columns(dwd, dwd.spell(dbc.w0_permutation(dwd)))
        assert bt == dbc.bfz_matrix(dwd)


def test_oracle_a1():
    pres = dbc.bowtie_build(A1, (1,), (1,))
    assert dbc.solve_b_oracle(pres, (0, 1), 0) == (0, 1)


def test_oracle_value_exponent():
    pres = dbc.bowtie_build(B2, (1, 2, 1), (2,))
    dwd = pres.dwd
    for sigma in xi_enumerate(dwd.size):
        word = dwd.spell(sigma)
        frame = dbc.sigma_frame(pres, word)
        for l in word.ex:
            b = dbc.solve_b_oracle(pres, sigma, l)
            n = dwd.size
            e_l = tuple(1 if t == l else 0 for t in range(n))
            assert frame.omega_exp(b, e_l) == 2 * pres.cartan.d[dwd.eta[sigma[l]] - 1]


def test_oracle_rejects_perturbed_system():
    pres = dbc.bowtie_build(A1, (1,), (1,))
    from dbseeds import linalg

    word = pres.dwd.spell((0, 1))
    frame = dbc.sigma_frame(pres, word)
    degrees = dbc.sigma_degrees(pres, word)
    rows = [list(frame.psi[j]) for j in range(2)]
    rows.append([Q(degrees[j][0]) for j in range(2)])
    rhs = [Q(-2), Q(0), Q(1)]   # degree row made inconsistent
    with pytest.raises(linalg.LinearSolveError):
        linalg.solve_unique(rows, rhs)


def test_oracle_rejects_frozen_position():
    pres = dbc.bowtie_build(A1, (1,), (1,))
    with pytest.raises(dbc.OracleError):
        dbc.solve_b_oracle(pres, (0, 1), 1)


def test_sigma_seed_compatible_everywhere():
    pres = dbc.bowtie_build(A2, (1, 2, 1), (1,))
    for sigma in xi_enumerate(4):
        data = dbc.sigma_seed(pres, sigma)
        assert check_compatible(data.seed).ok
        assert data.seed.exchange.is_skew_symmetrizable(data.seed.d)


def test_sigma_seed_oracle_column_source():
    pres = dbc.bowtie_build(B2, (1, 2), (2, 1))
    for sigma in xi_enumerate(4):
        seed = dbc.sigma_seed(pres, sigma).seed
        assert seed.ex == pres.dwd.spell(sigma).ex
        for l in seed.ex:
            assert seed.exchange.column(l) == dbc.solve_b_oracle(pres, sigma, l)


def test_sigma_degrees_a1():
    pres = dbc.bowtie_build(A1, (1,), (1,))
    assert dbc.sigma_degrees(pres, pres.dwd.spell((0, 1))) == ((-1,), (0,))
    assert dbc.sigma_degrees(pres, pres.dwd.spell((1, 0))) == ((1,), (0,))


def test_bz_seed_a1():
    data = _bz(A1, (1,), (1,))
    assert data.eta == (1, 1, 1)
    assert data.seed.ex == (1,)
    assert data.seed.exchange.column(1) == (-1, 0, -1)
    # leading labels: (w_i, w^{-1} w_i)
    gamma, delta = data.labels[0]
    assert gamma == (1,)
    assert delta == (-1,)
    assert check_compatible(data.seed).ok
    assert (data.p, data.s) == ((None, 0, 1), (1, 2, None))   # one level: a single chain


def test_bz_seed_frame_a1():
    data = _bz(A1, (1,), (1,))
    psi = data.seed.frame.psi
    assert psi[1][0] == 1
    assert psi[2][0] == 0
    assert psi[2][1] == -1


def test_bz_modified_labels_transpose_plain():
    seeds = dbc.bowtie_build(A2, (1, 2), (2, 1)).bz
    plain, modified = seeds["plain"], seeds["modified"]
    assert (plain.variant, modified.variant) == ("plain", "modified")
    assert modified.labels == tuple((d, g) for g, d in plain.labels)
    # same frame and exchange data for both variants
    assert plain.seed.frame.psi == modified.seed.frame.psi
    assert plain.seed.exchange == modified.seed.exchange


def test_bz_degree_balance_both_components():
    # the shipped degrees are minus the first label; the second label balances too
    for data in dbc.bowtie_build(A2, (1, 2, 1), (1, 2, 1)).bz.values():
        assert data.seed.degrees == tuple(tuple(-x for x in g) for g, _ in data.labels)
        assert check_compatible(data.seed).ok
        second = dataclasses.replace(data.seed, degrees=tuple(d for _, d in data.labels))
        assert check_compatible(second).ok


def test_bz_rejects_nonreduced():
    from dbseeds.coxeter import NonReducedWordError

    with pytest.raises(NonReducedWordError):
        dbc.bowtie_build(A2, (1,), (1, 1)).bz


def test_graded_reduce_bz_a1_matches_up_to_sign():
    data = _bz(A1, (1,), (1,))
    reduced = graded_reduce(data.seed, 1)
    pres = dbc.bowtie_build(A1, (1,), (1,))
    small = dbc.sigma_seed(pres, (0, 1)).seed
    assert reduced.frame.psi == small.frame.negate().psi
    assert reduced.exchange == small.exchange.negate()
    assert antiiso_transform(reduced).frame.psi == small.frame.psi


def test_reduce_commutes_with_mutation_bz_a2():
    data = _bz(A2, (1, 2, 1), (1, 2, 1))
    r = A2.rank
    for k in data.seed.ex:
        a = graded_reduce(_mutate_checked(data.seed, k), r)
        b = _mutate_checked(graded_reduce(data.seed, r), k - r)
        assert check_compatible(a).ok
        assert a.frame.psi == b.frame.psi
        assert a.exchange.cols == b.exchange.cols
        assert tuple(x - r for x in mutate_seed(data.seed, k).exchange.ex) == b.exchange.ex


def test_reduce_commutes_along_mutation_walks():
    # the reduction square stays commutative along random mutation walks
    import random

    rng = random.Random(23)
    for w, u in [((1, 2, 1), (1, 2, 1)), ((1, 2), (2, 1))]:
        data = _bz(A2, w, u)
        r = A2.rank
        full = data.seed
        red = graded_reduce(full, r)
        for _ in range(6):
            k = rng.choice(full.ex)
            full = _mutate_checked(full, k)
            red = _mutate_checked(red, k - r)
            again = graded_reduce(full, r)
            assert check_compatible(again).ok
            assert again.frame.psi == red.frame.psi
            assert again.exchange.cols == red.exchange.cols


def test_mutation_walks_stay_compatible():
    import random

    rng = random.Random(31)
    for cartan, w, u in [(A2, (1, 2, 1), (1,)), (B2, (1, 2), (1, 2))]:
        pres = dbc.bowtie_build(cartan, w, u)
        for sigma in xi_enumerate(pres.size):
            seed = dbc.sigma_seed(pres, sigma).seed
            if not seed.ex:
                continue
            trail = []
            for _ in range(4):
                k = rng.choice(seed.ex)
                trail.append(k)
                seed = _mutate_checked(seed, k)
            for k in reversed(trail):
                seed = _mutate_checked(seed, k)
            original = dbc.sigma_seed(pres, sigma).seed
            assert seed.frame.psi == original.frame.psi
            assert seed.exchange == original.exchange
            assert seed.degrees == original.degrees


def test_connections_check_cases():
    assert dbc.connections_check(dbc.bowtie_build(A1, (1,), (1,))).ok
    assert dbc.connections_check(dbc.bowtie_build(A2, (1, 2, 1), (1, 2, 1))).ok
    assert dbc.connections_check(dbc.bowtie_build(A2, (1, 2), (2, 1))).ok


def test_connections_check_rejects_wrong_conventions(monkeypatch):
    # the modified labels in the frame formula give the negated frame, the
    # global sign the cross-check must reject
    honest = dbc.bz_seed

    def negated(pres):
        return {
            variant: dataclasses.replace(data, seed=dataclasses.replace(data.seed, frame=data.seed.frame.negate()))
            for variant, data in honest(pres).items()
        }

    assert dbc.connections_check(dbc.bowtie_build(A1, (1,), (1,))).ok
    monkeypatch.setattr(dbc, "bz_seed", negated)
    assert not dbc.connections_check(dbc.bowtie_build(A1, (1,), (1,))).ok


def test_connections_and_integrality_small_sweep():
    # every pair with combined length <= 4 over four types, empty words included
    from dbseeds.coxeter import enumerate_reduced_words

    for cartan in (cartan_init("A", 1), A2, B2, cartan_init("G", 2)):
        words = enumerate_reduced_words(cartan, 4)
        for w in words:
            for u in words:
                if len(w) + len(u) > 4:
                    continue
                pres = dbc.bowtie_build(cartan, w, u)
                assert dbc.connections_check(pres).ok
                assert verify.bz_compatibility(pres).ok


def test_bz_integrality_fails_on_fractional_pairing(skewed_weight_images):
    result = verify.bz_compatibility(dbc.bowtie_build(A2, (1, 2), (2, 1)))
    assert result.name == "bz-integrality"
    assert result.ok is False
    assert result.detail == "w=(1, 2) u=(2, 1) plain: fractional frame exponent -1/3"


def test_verify_pair_reports_a_fractional_frame_from_connections(skewed_weight_images):
    results = {r.name: r for r in verify.verify_pair(A2, (1, 2), (2, 1))}
    assert results["bz-integrality"].detail == "w=(1, 2) u=(2, 1) plain: fractional frame exponent -1/3"
    assert results["connections"].ok is False
    assert results["connections"].detail == "minor-labelled frame: fractional frame exponent -1/3"


def test_bz_seed_takes_label_images_not_pairings(monkeypatch):
    # one integer image per gamma and per delta label, and no rational pairing
    cartan = cartan_init("A", 3)
    calls = {"weight_image": 0, "pair_weight": 0}
    for name in calls:
        honest = getattr(CartanData, name)

        def counted(self, *args, _name=name, _honest=honest):
            calls[_name] += 1
            return _honest(self, *args)

        monkeypatch.setattr(CartanData, name, counted)
    w, u = (1, 2, 1, 3), (2, 3)
    dbc.bz_seed(dbc.bowtie_build(cartan, w, u))
    n = cartan.rank + len(w) + len(u)
    assert calls == {"weight_image": 2 * n, "pair_weight": 0}


def test_connections_exchange_is_negated_reduction():
    # the reduced minor-labelled exchange matrix is the negative of the
    # reversed-w one after the index shift
    pres = dbc.bowtie_build(A2, (1, 2, 1), (1,))
    reduced = graded_reduce(pres.bz["modified"].seed, A2.rank)
    assert reduced.exchange.negate() == pres.seed(dbc.w0_permutation(pres.dwd)).exchange


def test_sigma_symmetrizable_fails_on_frame_formula_mismatch(monkeypatch):
    pres = dbc.bowtie_build(A2, (1, 2, 1), (1,))
    honest = dbc.sigma_frame_product

    def perturbed(pres, sigma):
        psi = [list(row) for row in honest(pres, sigma).psi]
        psi[0][1] += 1
        psi[1][0] -= 1
        return FrameMatrix(tuple(tuple(row) for row in psi))

    monkeypatch.setattr(dbc, "sigma_frame_product", perturbed)
    res = verify.sigma_skew_symmetrizable(pres)
    assert not res.ok
    assert res.detail == "w=(1, 2, 1) u=(1,) sigma=(0, 1, 2, 3): chain congruence and product formula disagree"


def test_xi_linkage_fails_when_frame_depends_on_sign_choice(monkeypatch):
    honest = seedcore.mutation_basis

    def skewed(seed, k, sign):
        basis = honest(seed, k, sign)
        if sign < 0:
            basis[-1] = tuple(2 * x for x in basis[-1])
        return basis

    pres = dbc.bowtie_build(A1, (1,), (1,))
    assert verify.xi_linkage(pres).ok
    monkeypatch.setattr(verify, "mutation_basis", skewed)
    res = verify.xi_linkage(pres)
    assert not res.ok
    assert "sign choice" in res.detail


def test_xi_linkage_checks_each_edge_once(monkeypatch):
    # every unordered link {sigma, sigma o (k k+1)} of the interval
    # permutations: a mutation on one level, a reindexing across two; the
    # check from both ends made twice these calls
    pres = dbc.bowtie_build(A2, (1, 2, 1), (1, 2, 1))
    members = set(xi_enumerate(pres.size))
    edges = {"mutate_seed": 0, "reindex": 0, "frame_restrict": 0}
    for sigma in members:
        for k in range(pres.size - 1):
            sigma2 = sigma[:k] + (sigma[k + 1], sigma[k]) + sigma[k + 2:]
            if sigma < sigma2 and sigma2 in members:
                if pres.dwd.eta[sigma[k]] == pres.dwd.eta[sigma[k + 1]]:
                    edges["mutate_seed"] += 1
                    edges["frame_restrict"] += 1   # the opposite sign choice
                else:
                    edges["reindex"] += 1
    assert edges["mutate_seed"] and edges["reindex"]

    calls = dict.fromkeys(edges, 0)

    def counted(name):
        original = getattr(verify, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    results = verify.verify_pair(A2, (1, 2, 1), (1, 2, 1), all_xi=True)
    assert all(r.ok for r in results)
    assert calls == edges


def test_btau_oracle_fails_on_corrupted_column(monkeypatch):
    honest = dbc.btau_columns

    def corrupted(dwd, word):
        b = honest(dwd, word)
        if word.sigma != tuple(range(dwd.size)):
            return b
        first = b.cols[0][:-1] + (b.cols[0][-1] + 1,)
        return ExchangeMatrix(b.n, b.ex, (first,) + b.cols[1:])

    monkeypatch.setattr(dbc, "btau_columns", corrupted)
    res = verify.btau_oracle_equivalence(dbc.bowtie_build(A2, (1, 2, 1), (1,)))
    assert not res.ok
    assert res.detail == "w=(1, 2, 1) u=(1,) sigma=(0, 1, 2, 3): column 0 is (0, -1, 1, 1), oracle (0, -1, 1, 0)"


def test_btau_oracle_fails_on_rank_deficient_system(monkeypatch):
    # zero degrees leave the odd-sized skew frame alone, which is singular;
    # every closed-form column still solves the system, so only the rank fails
    monkeypatch.setattr(dbc, "sigma_degrees", lambda pres, word: ((0,) * pres.cartan.rank,) * pres.size)
    res = verify.btau_oracle_equivalence(dbc.bowtie_build(A2, (1, 2, 1), (1, 2)))
    assert not res.ok
    assert res.detail == "w=(1, 2, 1) u=(1, 2) sigma=(0, 1, 2, 3, 4): oracle system has rank 4, not 5"


def test_btau_oracle_fails_when_the_solver_finds_no_column(monkeypatch):
    # all-one degrees make some degree row inconsistent with the frame rows
    monkeypatch.setattr(dbc, "sigma_degrees", lambda pres, word: ((1,) * pres.cartan.rank,) * pres.size)
    res = verify.btau_oracle_equivalence(dbc.bowtie_build(A2, (1, 2, 1), (1,)))
    assert not res.ok
    assert res.detail == (
        "w=(1, 2, 1) u=(1,) sigma=(1, 2, 3, 0): column 1 is (0, 0, 1, 0), "
        "oracle fails: no unique integer exchange column at 1: inconsistent system"
    )


def test_btau_oracle_certifies_with_one_rank_per_sigma(monkeypatch):
    # the passing path takes one rank per sigma, of a block with one column
    # per level, never the n-column elimination of the whole oracle system
    from dbseeds import linalg

    calls = _count_calls(monkeypatch, "solve_b_oracle")
    ranks, in_check = [], []
    honest_rank, honest_check = linalg.rank, verify.btau_oracle_equivalence

    def counted_rank(a):
        if in_check:
            ranks.append(len(a[0]) if a else 0)
        return honest_rank(a)

    def marked_check(pres):
        pres.seeds   # build the seeds before counting
        in_check.append(True)
        try:
            return honest_check(pres)
        finally:
            in_check.pop()

    monkeypatch.setattr(linalg, "rank", counted_rank)
    monkeypatch.setattr(verify, "btau_oracle_equivalence", marked_check)
    results = verify.verify_pair(A2, (1, 2, 1), (1, 2, 1), all_xi=True)
    assert all(r.ok for r in results) and "btau-oracle" in [r.name for r in results]
    assert calls["solve_b_oracle"] == 0
    assert len(ranks) == 2 ** (6 - 1)
    assert set(ranks) == {2}   # the two levels of A2, not n = 6


def test_btau_oracle_needs_a_nonzero_right_hand_side_to_certify():
    # d = 0 makes every right-hand side zero, which zero exchange columns
    # solve; with the frame and the degree at position 1 cleared the system is
    # singular, yet its block on the first position of the level (position 0)
    # has full rank, so only the nonzero-diagonal condition stops the shortcut
    pres = dbc.bowtie_build(A1, (1,), (1,))
    sigma = (0, 1)
    seed = pres.seeds[sigma]
    assert pres.dwd.eta == (1, 1)
    cleared = dataclasses.replace(
        seed,
        frame=FrameMatrix(((0, 0), (0, 0))),
        exchange=ExchangeMatrix(2, seed.ex, ((0, 0),) * len(seed.ex)),
        degrees=(seed.degrees[0], (0,)),
    )
    seeds = {sigma: cleared}
    view = SimpleNamespace(
        dwd=pres.dwd, size=2, cartan=SimpleNamespace(rank=1, d=(0,)), seeds=seeds,
        seed=lambda sigma: seeds[pres.dwd.spell(sigma).sigma],
    )
    res = verify.btau_oracle_equivalence(view)
    assert res == verify.CheckResult("btau-oracle", False, "w=(1,) u=(1,) sigma=(0, 1): oracle system has rank 1, not 2")


def test_mutate_and_reduce_run_no_compatibility_check(monkeypatch):
    calls = []
    honest = seedcore.check_compatible

    def counted(seed):
        calls.append(seed)
        return honest(seed)

    data = _bz(A2, (1, 2, 1), (1, 2, 1))
    monkeypatch.setattr(seedcore, "check_compatible", counted)
    for k in data.seed.ex:
        graded_reduce(mutate_seed(data.seed, k), A2.rank)
    assert calls == []


def _count_calls(monkeypatch, *names):
    """Wrap dbc functions so that each call is counted in the returned dict."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(dbc, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(dbc, name, counted(name))
    return calls


def test_verify_pair_builds_each_sigma_seed_once(monkeypatch):
    calls = _count_calls(monkeypatch, "bowtie_build", "sigma_seed", "sigma_frame_product")
    results = verify.verify_pair(A2, (1, 2, 1), (1, 2, 1), all_xi=True)
    assert all(r.ok for r in results)
    # one presentation and one seed per interval permutation, the reversed-w
    # seed included; the product formula checks each seed's frame once
    assert calls["bowtie_build"] == 1
    assert calls["sigma_seed"] == 2 ** (6 - 1)
    assert calls["sigma_frame_product"] == 2 ** (6 - 1)


def test_verify_pair_builds_each_pair_level_seed_once(monkeypatch):
    # one word validation and one minor-labelled frame per pair; the reversed-w
    # matrix is the reversed-w seed's own, not built apart from it
    from dbseeds import coxeter

    calls = _count_calls(monkeypatch, "eta_machinery", "bz_seed", "bfz_matrix")
    calls.update(is_reduced=0, weight_image=0)
    for owner, name in ((coxeter, "is_reduced"), (CartanData, "weight_image")):
        def counted(*args, _name=name, _honest=getattr(owner, name)):
            calls[_name] += 1
            return _honest(*args)

        monkeypatch.setattr(owner, name, counted)
    cartan, w, u = cartan_init("A", 3), (1, 2, 1, 3), (2, 3)
    results = verify.verify_pair(cartan, w, u)
    assert all(r.ok for r in results)
    n = cartan.rank + len(w) + len(u)
    assert calls == {"eta_machinery": 1, "bz_seed": 1, "bfz_matrix": 0, "is_reduced": 2, "weight_image": 2 * n}


def test_grading_identity_builds_one_sigma_seed(monkeypatch):
    pres = dbc.bowtie_build(B2, (1, 2, 1), (2, 1))
    calls = _count_calls(monkeypatch, "sigma_seed")
    assert verify.grading_identity(pres).ok
    assert calls["sigma_seed"] == 1


def test_seeds_spell_each_sigma_once(monkeypatch):
    # building every seed runs one interval test per sigma: the seed's frame,
    # exchange matrix and degrees all read the word `spell` built
    from dbseeds import coxeter

    calls = []
    honest = coxeter.xi_is_member
    monkeypatch.setattr(coxeter, "xi_is_member", lambda sigma: calls.append(sigma) or honest(sigma))
    pres = dbc.bowtie_build(A2, (1, 2, 1), (2, 1))
    assert calls == []
    assert list(pres.seeds) == calls == list(xi_enumerate(5))


def test_spell_reuses_only_a_word_of_the_same_double_word():
    # one word per sigma per presentation: every spelling of sigma there
    # returns it, and the same sigma on other letters spells another word
    pres = dbc.bowtie_build(A2, (1, 2), (2, 1))
    word = pres.dwd.spell((1, 2, 0, 3))
    assert word.letters == (1, 2, 2, 1) and word.eps == (-1, 1, -1, 1)
    assert word.pred == (None, None, 1, 0) and word.succ == (3, 2, None, None) and word.ex == (0, 1)
    assert pres.dwd.spell([1, 2, 0, 3]) is pres.dwd.spell(word.sigma) is word
    twin = dbc.bowtie_build(B2, (1, 2), (2, 1)).dwd.spell(word.sigma)
    assert twin == word and twin is not word
    other = dbc.bowtie_build(A2, (2, 1), (1, 2))
    respelled = other.dwd.spell(word.sigma)
    assert respelled.sigma == word.sigma and respelled.letters == (2, 1, 1, 2) and respelled != word
    assert other.seed(word.sigma) == dbc.sigma_seed(other, word.sigma).seed != pres.seed(word.sigma)
    # a sigma of another length is not a sigma of these positions, and a
    # word is not a sigma at all: spell takes a sequence only
    with pytest.raises(NotIntervalPermutation):
        dbc.bowtie_build(A2, (1, 2), (2,)).dwd.spell(word.sigma)
    with pytest.raises(TypeError):
        pres.dwd.spell(word)


def test_spell_keeps_bools_out_of_the_word_cache():
    # a bool hashes and compares like its int: a bool sigma must neither spell
    # a word that an int sigma finds later nor find the word an int sigma spelled
    pres = dbc.bowtie_build(A2, (1, 2), (2, 1))
    with pytest.raises(NotAPermutation):
        pres.dwd.spell((False, True, 2, 3))
    assert [type(x) for x in pres.dwd.spell((0, 1, 2, 3)).sigma] == [int] * 4
    with pytest.raises(NotAPermutation):
        pres.dwd.spell((False, True, 2, 3))


def test_seed_cache_hits_are_not_spelled_again(monkeypatch):
    from dbseeds import coxeter

    pres = dbc.bowtie_build(A2, (1, 2), (2, 1))
    seed = pres.seed((1, 2, 0, 3))
    tested = []
    honest = coxeter.xi_is_member
    monkeypatch.setattr(coxeter, "xi_is_member", lambda sigma: tested.append(sigma) or honest(sigma))
    # a hit, as a tuple, a list or the word's own sigma, runs no interval test
    assert pres.seed((1, 2, 0, 3)) is seed and pres.seed([1, 2, 0, 3]) is seed
    assert pres.seed(pres.dwd.spell((1, 2, 0, 3)).sigma) is seed
    assert tested == []
    # floats and bools are never looked up: they fail validation as before
    for bad in ((1.0, 2.0, 0.0, 3.0), (True, 2, False, 3)):
        with pytest.raises(NotAPermutation):
            pres.seed(bad)
    assert tested == []
    # a new sigma is tested once, on its first use only
    assert pres.seed((0, 1, 2, 3)) is pres.seed((0, 1, 2, 3))
    assert tested == [(0, 1, 2, 3)]


def test_seeds_cover_every_interval_permutation():
    pres = dbc.bowtie_build(A2, (1, 2), (1,))
    assert list(pres.seeds) == list(xi_enumerate(3))
    for sigma, seed in pres.seeds.items():
        assert seed == dbc.sigma_seed(pres, sigma).seed
        assert seed is pres.seed(sigma)
    assert pres.seeds is pres.seeds
    empty = dbc.bowtie_build(A2, (), ())
    assert list(empty.seeds) == [()]
    assert empty.seeds[()].size == 0


def test_bz_seed_takes_w_then_u():
    pres = dbc.bowtie_build(A2, (1, 2), (2, 1))
    assert pres.bz["plain"].eta == (1, 2) + (1, 2) + (2, 1)
    assert pres.bz == dbc.bz_seed(dbc.bowtie_build(A2, w_word=(1, 2), u_word=(2, 1)))
    assert pres.bz is pres.bz
