"""Cost ledger: exact kernel call counts of one all-xi `verify_pair` run.

`ledger` counts, while `verify.verify_pair(cartan, w, u, all_xi=True)`
runs on one pair, the calls of each kernel in KERNELS.  The counts are
deterministic, so the tests pin them exactly for the A2 pair
w = u = 1,2,1 and the G2 pair w = u = 2,1,2 (n = 6, |Xi| = 2^5 = 32
interval permutations) and the A3 pair w = 1,3,2,3,1, u = 2,3,2 (n = 8,
|Xi| = 128), each beside its formula in |Xi| and the link counts where
one is known (`_by_formula`).  Print the ledger of any pair:

    PYTHONPATH=src python tests/test_costs.py A3 1,2,1,3,2,1 1,2,1,3,2,1
"""

import sys
from collections import Counter
from contextlib import ExitStack
from unittest import mock

from dbseeds import coxeter, dbc, linalg, qtorus, seedcore, verify
from dbseeds.coxeter import cartan_init, xi_enumerate

# name -> (owner, attribute) of each counted kernel; `ExchangeMatrix validated`
# counts the checks of the validating constructor, which `_trusted` skips
KERNELS = {
    "DoubleWordData.spell": (coxeter.DoubleWordData, "spell"),
    "ChainTable.ids": (dbc.ChainTable, "ids"),
    "ChainTable._extend": (dbc.ChainTable, "_extend"),
    "FrameMatrix.principal": (qtorus.FrameMatrix, "principal"),
    "double_word_matrix": (dbc, "double_word_matrix"),
    "ExchangeMatrix validated": (seedcore.ExchangeMatrix, "__post_init__"),
    "linalg.combine": (linalg, "combine"),
    "linalg.rank": (linalg, "rank"),
    "seedcore.mutate_exchange": (seedcore, "mutate_exchange"),
    "dbc.sigma_frame_product": (dbc, "sigma_frame_product"),
    "seedcore.reindex_fields": (seedcore, "reindex_fields"),
    "qtorus.restricted_rows": (qtorus, "restricted_rows"),
}


def ledger(cartan, w, u) -> tuple[dict[str, int], list]:
    """The call count of every kernel while the all-xi checks run on (w, u), and the checks' results."""
    counts = dict.fromkeys(KERNELS, 0)

    def counted(name, honest):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return honest(*args, **kwargs)

        return wrapper

    with ExitStack() as patches:
        for name, (owner, attr) in KERNELS.items():
            patches.enter_context(mock.patch.object(owner, attr, counted(name, getattr(owner, attr))))
        results = verify.verify_pair(cartan, w, u, all_xi=True)
    return counts, results


def _links(eta) -> tuple[int, int]:
    """(cross-level, same-level) unordered links {sigma, sigma o (k k+1)} of the interval permutations on eta."""
    members = set(xi_enumerate(len(eta)))
    cross = same = 0
    for sigma in members:
        for k in range(len(eta) - 1):
            sigma2 = sigma[:k] + (sigma[k + 1], sigma[k]) + sigma[k + 2:]
            if sigma < sigma2 and sigma2 in members:
                if eta[sigma[k]] == eta[sigma[k + 1]]:
                    same += 1
                else:
                    cross += 1
    return cross, same


def _by_formula(pres, blocks: int) -> dict[str, int]:
    """The ledger of an all-xi run on `pres` by formula, given its number of distinct rank blocks.

    With n positions on L levels of m_1..m_L positions, |Xi| = 2^(n-1),
    e = n - L exchange columns per seed and (cross, same) links:

    - The sweep spells each sigma once and `sigma_seed` finds its word in
      the cache (2|Xi|); the three checks over all sigmas read the sweep's
      words, and compat-identity, grading-identity and connections look
      the reversed-w seed up once each (+3).
    - Each built seed looks its chain ids up once (|Xi|).  A key (chain of
      p(k), sigma(k)) names a run of a level grown by one end: each of the
      m runs of length 1 from no parent, each of the m(m-1)/2 longer runs
      from two parents, so the sweep meets sum m^2 keys, and each key's
      first meeting calls `_extend` once.
    - Each sigma-seed and the minor-labelled seed take one double-word
      matrix (|Xi| + 1).  `principal` gathers each sigma-frame from the
      chain table and each product-oracle frame from the run table (2|Xi|),
      and the frame of each cross-level link's reindexed seed (cross).
    - A cross-level link is read by one `reindex_fields`, and a same-level
      one by one `mutate_exchange` and two `restricted_rows`, from its
      first end only.
    - The row sums: e exchange columns per sigma in btau-oracle (e|Xi|);
      per same-level link two moved rows and two mutated degrees (4 per
      link); and 6e + n outside the sweep (e + e reversed-w columns in
      compat- and grading-identity, 2 x (e + e) in the minor-labelled
      seeds' compatibility, one per letter of w and u in their weight
      labels).
    - btau-oracle ranks each distinct canonical block once (`blocks`, no
      formula known); connections' restriction peels, so never ranks.
    """
    n = pres.size
    levels = Counter(pres.dwd.eta).values()
    xi, e = 2 ** (n - 1), n - len(levels)
    cross, same = _links(pres.dwd.eta)
    return {
        "DoubleWordData.spell": 2 * xi + 3,
        "ChainTable.ids": xi,
        "ChainTable._extend": sum(m * m for m in levels),
        "FrameMatrix.principal": 2 * xi + cross,
        "double_word_matrix": xi + 1,
        "ExchangeMatrix validated": 2,
        "linalg.combine": e * xi + 4 * same + 6 * e + n,
        "linalg.rank": blocks,
        "seedcore.mutate_exchange": same,
        "dbc.sigma_frame_product": xi,
        "seedcore.reindex_fields": cross,
        "qtorus.restricted_rows": 2 * same,
    }


def test_all_xi_ledger_of_the_a2_pair():
    # A2, w = u = 1,2,1: n = 6, |Xi| = 32, eta = 1,2,1,1,2,1 on two levels
    # (m = 4, 2), so e = 4 exchange columns per seed
    pres = dbc.bowtie_build(cartan_init("A", 2), (1, 2, 1), (1, 2, 1))
    assert _links(pres.dwd.eta) == (24, 24)
    counts, results = ledger(pres.cartan, (1, 2, 1), (1, 2, 1))
    assert all(r.ok for r in results)
    assert counts == _by_formula(pres, blocks=4) == {
        "DoubleWordData.spell": 67,
        "ChainTable.ids": 32,
        "ChainTable._extend": 20,
        "FrameMatrix.principal": 88,
        "double_word_matrix": 33,
        "ExchangeMatrix validated": 2,
        "linalg.combine": 254,
        "linalg.rank": 4,
        "seedcore.mutate_exchange": 24,
        "dbc.sigma_frame_product": 32,
        "seedcore.reindex_fields": 24,
        "qtorus.restricted_rows": 48,
    }


def test_all_xi_ledger_of_the_a3_pair():
    # A3, w = 1,3,2,3,1, u = 2,3,2 (allxi's A3 pair): n = 8, |Xi| = 128,
    # eta = 1,3,2,3,1,2,3,2 on three levels (m = 2, 3, 3), so e = 5
    pres = dbc.bowtie_build(cartan_init("A", 3), (1, 3, 2, 3, 1), (2, 3, 2))
    assert _links(pres.dwd.eta) == (202, 54)
    counts, results = ledger(pres.cartan, (1, 3, 2, 3, 1), (2, 3, 2))
    assert all(r.ok for r in results)
    assert counts == _by_formula(pres, blocks=7) == {
        "DoubleWordData.spell": 259,
        "ChainTable.ids": 128,
        "ChainTable._extend": 22,
        "FrameMatrix.principal": 458,
        "double_word_matrix": 129,
        "ExchangeMatrix validated": 2,
        "linalg.combine": 894,
        "linalg.rank": 7,
        "seedcore.mutate_exchange": 54,
        "dbc.sigma_frame_product": 128,
        "seedcore.reindex_fields": 202,
        "qtorus.restricted_rows": 108,
    }


def test_all_xi_ledger_of_the_g2_pair():
    # G2, w = u = 2,1,2: n = 6, |Xi| = 32, eta = 2,1,2,2,1,2 on two levels
    # (m = 4, 2), so e = 4; the A2 pair's shape, with two more rank blocks
    pres = dbc.bowtie_build(cartan_init("G", 2), (2, 1, 2), (2, 1, 2))
    assert _links(pres.dwd.eta) == (24, 24)
    counts, results = ledger(pres.cartan, (2, 1, 2), (2, 1, 2))
    assert all(r.ok for r in results)
    assert counts == _by_formula(pres, blocks=6) == {
        "DoubleWordData.spell": 67,
        "ChainTable.ids": 32,
        "ChainTable._extend": 20,
        "FrameMatrix.principal": 88,
        "double_word_matrix": 33,
        "ExchangeMatrix validated": 2,
        "linalg.combine": 254,
        "linalg.rank": 6,
        "seedcore.mutate_exchange": 24,
        "dbc.sigma_frame_product": 32,
        "seedcore.reindex_fields": 24,
        "qtorus.restricted_rows": 48,
    }


def test_no_exchange_matrix_of_the_sweep_is_validated():
    # the double-word matrices of the sweep and every mutated matrix of a
    # same-level link take the trusted path; the two validating
    # constructions left are connections' reduction and its negation
    validated = []
    honest = seedcore.ExchangeMatrix.__post_init__

    def post_init(self):
        validated.append(sys._getframe(2).f_code.co_name)   # the caller of the generated __init__
        honest(self)

    with mock.patch.object(seedcore.ExchangeMatrix, "__post_init__", post_init):
        results = verify.verify_pair(cartan_init("A", 2), (1, 2, 1), (1, 2, 1), all_xi=True)
    assert all(r.ok for r in results)
    assert sorted(validated) == ["graded_reduce", "negate"]


def _parse_word(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


if __name__ == "__main__":
    name, w, u = sys.argv[1], _parse_word(sys.argv[2]), _parse_word(sys.argv[3])
    counts, results = ledger(cartan_init(name[0], int(name[1:])), w, u)
    n = len(w) + len(u)
    print(f"{name} w={w} u={u}: n={n}, |Xi|={2 ** (n - 1) if n else 1}")
    for kernel, count in counts.items():
        print(f"  {kernel:<26}{count:>9}")
    print("  failed checks:", ", ".join(r.name for r in results if not r.ok) or "none")
