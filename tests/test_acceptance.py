"""End-to-end acceptance suite.

Every check is exact rational/integer arithmetic with zero tolerance; each
criterion prints one pass/fail line (visible with pytest -s, or in the
captured output of a failing run).
"""

import itertools
import time
from functools import lru_cache

import pytest

from dbseeds import cgl, dbc, verify
from dbseeds.cgl import audit_presentation, rescale_scalar_identity, xcomm_check
from dbseeds.coxeter import cartan_init, enumerate_reduced_words, xi_enumerate, xi_is_member
from dbseeds.qtorus import VLaurent, frame_restrict
from dbseeds.seedcore import (
    antiiso_transform,
    check_compatible,
    graded_reduce,
    mutate_seed,
    mutation_basis,
    reindex,
)

SWEEP_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2))
XI_TYPES = (("A", 1), ("A", 2), ("B", 2))


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@lru_cache(maxsize=None)
def word_pairs(family: str, rank: int, max_total: int):
    cartan = cartan_init(family, rank)
    words = enumerate_reduced_words(cartan, max_total)
    pairs = [
        (w, u)
        for w in words
        for u in words
        if len(w) + len(u) <= max_total
    ]
    return cartan, pairs


def test_criterion_1_compat_identity():
    t0 = time.time()
    count = 0
    for family, rank in SWEEP_TYPES:
        cartan, pairs = word_pairs(family, rank, 6)
        for w, u in pairs:
            res = verify.compat_identity(dbc.bowtie_build(cartan, w, u))
            if not res.ok:
                _report(1, "compat-identity", False, res.detail)
            count += 1
    elapsed = time.time() - t0
    _report(1, "compat-identity", elapsed < 60, f"{count} word pairs, {elapsed:.1f}s")


def test_criterion_2_grading_identity():
    t0 = time.time()
    count = 0
    for family, rank in SWEEP_TYPES:
        cartan, pairs = word_pairs(family, rank, 6)
        for w, u in pairs:
            pres = dbc.bowtie_build(cartan, w, u)
            res = verify.grading_identity(pres)
            if not res.ok:
                _report(2, "grading-identity", False, res.detail)
            # the graded seed's frame, by chain congruence, against the product formula
            w0 = dbc.w0_permutation(pres.dwd)
            if pres.seed(w0).frame != dbc.sigma_frame_product(pres, pres.dwd.spell(w0)):
                _report(2, "grading-identity", False, f"w={w} u={u}: frame formulas disagree")
            count += 1
    _report(2, "grading-identity", True, f"{count} word pairs, {time.time() - t0:.1f}s")


def test_criterion_3_btau_oracle_equivalence():
    t0 = time.time()
    count = 0
    for family, rank in XI_TYPES:
        cartan, pairs = word_pairs(family, rank, 5)
        for w, u in pairs:
            pres = dbc.bowtie_build(cartan, w, u)
            # the oracle columns certify compatibility of every seed; the
            # symmetrizability check compares every frame with the product formula
            for res in (verify.btau_oracle_equivalence(pres), verify.sigma_skew_symmetrizable(pres)):
                if not res.ok:
                    _report(3, "btau-oracle", False, res.detail)
            count += 1
    elapsed = time.time() - t0
    _report(3, "btau-oracle", elapsed < 120, f"{count} word pairs, all permutations, {elapsed:.1f}s")


def test_criterion_4_xi_family_linkage():
    t0 = time.time()
    count = 0
    for family, rank in XI_TYPES:
        cartan, pairs = word_pairs(family, rank, 5)
        for w, u in pairs:
            res = verify.xi_linkage(dbc.bowtie_build(cartan, w, u))
            if not res.ok:
                _report(4, "xi-linkage", False, res.detail)
            count += 1
    _report(4, "xi-linkage", True, f"{count} word pairs, {time.time() - t0:.1f}s")


def _constructed_seeds():
    """A representative family of seeds from both construction pipelines."""
    seeds = []
    for family, rank, w, u in [
        ("A", 1, (1,), (1,)),
        ("A", 2, (1, 2, 1), (1,)),
        ("A", 2, (1, 2), (2, 1)),
        ("B", 2, (1, 2, 1), (2,)),
        ("G", 2, (1, 2), (2, 1)),
    ]:
        cartan = cartan_init(family, rank)
        pres = dbc.bowtie_build(cartan, w, u)
        for sigma in xi_enumerate(pres.size):
            seeds.append(dbc.sigma_seed(pres, sigma).seed)
    for w, u in [((1,), (1,)), ((1, 2, 1), (1, 2, 1))]:
        cartan = cartan_init("A", max(max(w), max(u)))
        seeds.append(dbc.bowtie_build(cartan, w, u).bz["plain"].seed)
    return seeds


def test_criterion_5_seed_calculus():
    t0 = time.time()
    seeds = _constructed_seeds()
    mutations = 0
    for seed in seeds:
        assert check_compatible(seed).ok
        n = seed.size
        rotation = tuple(range(1, n)) + (0,)
        assert check_compatible(reindex(seed, rotation)).ok
        assert check_compatible(antiiso_transform(seed)).ok
        for k in seed.ex:
            out = mutate_seed(seed, k)
            assert frame_restrict(seed.frame, mutation_basis(seed, k, -1)) == out.frame
            assert check_compatible(out).ok
            back = mutate_seed(out, k)
            assert back.frame.psi == seed.frame.psi
            assert back.exchange == seed.exchange
            assert back.degrees == seed.degrees
            mutations += 1
    # reduce-then-mutate equals mutate-then-reduce on the minor-labelled seeds
    commuted = 0
    for w, u in [((1,), (1,)), ((1, 2, 1), (1, 2, 1)), ((1, 2), (2, 1))]:
        cartan = cartan_init("A", max(max(w), max(u)))
        data = dbc.bowtie_build(cartan, w, u).bz["plain"]
        r = cartan.rank
        for k in data.seed.ex:
            a = graded_reduce(mutate_seed(data.seed, k), r)
            b = mutate_seed(graded_reduce(data.seed, r), k - r)
            assert check_compatible(a).ok and check_compatible(b).ok
            assert a.frame.psi == b.frame.psi
            assert a.exchange.cols == b.exchange.cols
            commuted += 1
    _report(5, "seed-calculus", True,
            f"{len(seeds)} seeds, {mutations} mutations, {commuted} reduce/mutate squares, {time.time() - t0:.1f}s")


def test_criterion_6_bz_pipeline():
    cases = [
        (("A", 1), (1,), (1,)),
        (("A", 2), (1, 2, 1), (1, 2, 1)),
        (("A", 2), (1, 2), (2, 1)),
    ]
    for (family, rank), w, u in cases:
        cartan = cartan_init(family, rank)
        rep = dbc.connections_check(dbc.bowtie_build(cartan, w, u))
        if not rep.ok:
            _report(6, "bz-pipeline", False, f"{family}{rank} w={w} u={u}: {rep.detail}")
    _report(6, "bz-pipeline", True, f"{len(cases)} cases match entrywise")


def test_criterion_7_sl2_example():
    t0 = time.time()
    bundle = cgl.sl2_example()
    elapsed = time.time() - t0
    lhs, rhs = bundle["exchange_relation"]
    ok = (
        lhs == rhs
        and bundle["commutation"] == VLaurent.q_power(2)
        and bundle["frozen"].terms[(1, 1)] == VLaurent.q_power(1)
        and bundle["seed_id"].frame.psi[0][1] == -2
        and elapsed < 1.0
    )
    _report(7, "sl2-example", ok, f"{elapsed * 1000:.0f}ms")


def test_criterion_8_leading_term_law():
    t0 = time.time()
    checked = 0
    for name, (pres, _) in cgl.shipped_presentations().items():
        for f in itertools.product(range(5), repeat=pres.n):
            if 0 < sum(f) <= 4:
                if not xcomm_check(pres, f):
                    _report(8, "leading-term-law", False, f"{name}: vector {f}")
                checked += 1
        audit_presentation(pres, trials=1000, seed=101)
    _report(8, "leading-term-law", True,
            f"{checked} exponent vectors, 1000 associativity triples per presentation, {time.time() - t0:.1f}s")


def test_criterion_9_normalization_condition():
    checked_cond = 0
    checked_multi = 0
    for name, (pres, c_table) in cgl.shipped_presentations().items():
        for i in range(pres.n):
            # m = 1 is the normalization condition itself, m >= 2 its rescaling identities
            for m in range(1, pres.walk.o_plus[i] + 1):
                if not rescale_scalar_identity(pres, c_table, i, m):
                    _report(9, "normalization", False, f"{name}: index {i}, {m} steps")
                if m == 1:
                    checked_cond += 1
                else:
                    checked_multi += 1
    assert checked_multi >= 1
    _report(9, "normalization", True, f"{checked_cond} one-step, {checked_multi} multi-step identities")
