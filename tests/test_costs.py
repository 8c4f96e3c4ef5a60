"""Cost ledger: exact kernel call counts of one all-xi `verify_pair` run.

`ledger` counts, while `verify.verify_pair(cartan, w, u, all_xi=True)`
runs on one pair, the calls of each kernel in KERNELS.  The counts are
deterministic, so the tests pin them exactly for the A2 pair
w = u = 1,2,1 (n = 6, |Xi| = 2^5 = 32 interval permutations), with the
formula in |Xi| beside each count where one is known.  Print the ledger of
any pair:

    PYTHONPATH=src python tests/test_costs.py A3 1,2,1,3,2,1 1,2,1,3,2,1
"""

import sys
from contextlib import ExitStack
from unittest import mock

from dbseeds import coxeter, dbc, linalg, qtorus, seedcore, verify
from dbseeds.coxeter import cartan_init, xi_enumerate

# name -> (owner, attribute) of each counted kernel; `ExchangeMatrix validated`
# counts the checks of the validating constructor, which `_trusted` skips
KERNELS = {
    "DoubleWordData.spell": (coxeter.DoubleWordData, "spell"),
    "ChainTable.ids": (dbc.ChainTable, "ids"),
    "double_word_matrix": (dbc, "double_word_matrix"),
    "ExchangeMatrix validated": (seedcore.ExchangeMatrix, "__post_init__"),
    "linalg.combine": (linalg, "combine"),
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


def test_all_xi_ledger_of_the_a2_pair():
    # A2, w = u = 1,2,1: n = 6, |Xi| = 32, eta = 1,2,1,1,2,1 on two levels.
    # The sweep spells each sigma once and `sigma_seed` finds its word in
    # the cache (2|Xi|); the three checks over all sigmas read the sweep's
    # words, and compat-identity, grading-identity and connections look the
    # reversed-w seed up once each (+3).  Each built seed looks its chain ids
    # up once (|Xi|), and each sigma-seed and the minor-labelled seed take
    # one double-word matrix (|Xi| + 1).  A cross-level link is read by one
    # `reindex_fields` and a same-level one by two `restricted_rows`, from
    # its first end only.  The row sums: n - 2 = 4 exchange columns per
    # sigma in btau-oracle (4|Xi|); per same-level link two moved rows and
    # two mutated degrees (4 per link); and 30 outside the sweep (4 + 4
    # reversed-w columns in compat- and grading-identity, 2 x (4 + 4) in
    # the minor-labelled seeds' compatibility, one per letter of w and u in
    # their weight labels)
    pres = dbc.bowtie_build(cartan_init("A", 2), (1, 2, 1), (1, 2, 1))
    cross, same = _links(pres.dwd.eta)
    assert (cross, same) == (24, 24)
    counts, results = ledger(pres.cartan, (1, 2, 1), (1, 2, 1))
    assert all(r.ok for r in results)
    xi = 2 ** (6 - 1)
    assert counts == {
        "DoubleWordData.spell": 2 * xi + 3,
        "ChainTable.ids": xi,
        "double_word_matrix": xi + 1,
        "ExchangeMatrix validated": 2,
        "linalg.combine": 4 * xi + 4 * same + 30,
        "seedcore.reindex_fields": cross,
        "qtorus.restricted_rows": 2 * same,
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
