"""Fault census: which `verify` checks each injected fault fails.

Each fault is one monkeypatch of the library, applied while
`verify_pair(..., all_xi=True)` runs on every pair of CENSUS_PAIRS; its row
is the sorted names of the checks that fail on at least one pair.
`tests/golden/faults.json` pins every row.  Regenerate it only for an
intended change of a check or a fault:

    PYTHONPATH=src python tests/test_faults.py
"""

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest

from dbseeds import coxeter, dbc, seedcore, verify
from dbseeds.coxeter import CartanData, DoubleWordData, cartan_init
from dbseeds.qtorus import FrameMatrix

GOLDEN = Path(__file__).resolve().parent / "golden" / "faults.json"

CENSUS_PAIRS = [
    ("A", 2, (1, 2, 1), (2, 1)),
    ("B", 2, (1, 2, 1), (2, 1, 2)),
    ("G", 2, (1, 2), (2, 1)),
    ("A", 3, (1, 2, 1, 3), (2, 3)),
]


def _bumped(frame: FrameMatrix) -> FrameMatrix:
    """The frame with psi[0][1] raised by one and psi[1][0] lowered by one."""
    psi = [list(row) for row in frame.psi]
    psi[0][1] += 1
    psi[1][0] -= 1
    return FrameMatrix(tuple(map(tuple, psi)))


def frame_bump(mp):
    """The reversed-w frame that `compat_identity` pairs, bumped at (0, 1); only that check reads the name."""
    honest = verify.exchange_pairings
    mp.setattr(verify, "exchange_pairings", lambda frame, b: honest(_bumped(frame) if frame.size >= 2 else frame, b))


def _with_nu(mp, entry):
    """`bowtie_build` with nu[k][j] replaced by entry(nu, k, j, n_w)."""
    honest = dbc.bowtie_build

    def build(cartan, w, u):
        pres = honest(cartan, w, u)
        nu, n, nw = pres.nu.psi, pres.size, pres.dwd.n_w
        psi = tuple(tuple(entry(nu, k, j, nw) for j in range(n)) for k in range(n))
        return dbc.BowtiePresentation(pres.cartan, pres.dwd, FrameMatrix(psi), pres.degrees)

    mp.setattr(dbc, "bowtie_build", build)


def block_sign(mp):
    """The mixed block of nu (one position in w, one in u) with the sign of the w- and u-blocks."""
    _with_nu(mp, lambda nu, k, j, nw: -nu[k][j] if (j < nw) != (k < nw) else nu[k][j])


def nu_transposed(mp):
    """nu read as its transpose."""
    _with_nu(mp, lambda nu, k, j, nw: nu[j][k])


def direction_sign(mp):
    """The double-word rule reads the last position's direction sign flipped."""
    honest = dbc.double_word_matrix
    mp.setattr(dbc, "double_word_matrix", lambda c, letters, eps, walk, ex: honest(
        c, letters, eps[:-1] + (-eps[-1],), walk, ex))


def degree_negated(mp):
    """Every generator degree `degree_at` reports, negated."""
    honest = DoubleWordData.degree_at
    mp.setattr(DoubleWordData, "degree_at", lambda self, k: tuple(-x for x in honest(self, k)))


def predecessor_off_by_one(mp):
    """Every same-level predecessor past position 0 moved one position down."""
    honest = coxeter.walk

    def walk(letters):
        got = honest(letters)
        return coxeter.Walk(tuple(p - 1 if p else p for p in got.pred), got.succ)

    mp.setattr(coxeter, "walk", walk)


def wrong_d(mp):
    """Each sigma-seed's symmetrizer doubled at position 0."""
    honest = dbc.sigma_seed

    def sigma_seed(pres, sigma):
        seed = honest(pres, sigma).seed
        d = (2 * seed.d[0],) + seed.d[1:] if seed.d else seed.d
        return dbc.SigmaSeedData(seedcore.QuantumSeed(seed.frame, seed.exchange, seed.inv, seed.degrees, d))

    mp.setattr(dbc, "sigma_seed", sigma_seed)


def dropped_basis_entry(mp):
    """The mutation-basis row at k loses its first positive entry."""
    honest = seedcore._mutation_row

    def row(seed, k, sign):
        got = list(honest(seed, k, sign))
        first = next((i for i, x in enumerate(got) if x > 0), None)
        if first is not None:
            got[first] = 0
        return tuple(got)

    mp.setattr(seedcore, "_mutation_row", row)


def exchange_column_kept(mp):
    """Matrix mutation that also passes through every column with b_kj < 0, not only those with b_kj = 0."""
    honest = seedcore.mutate_exchange

    def mutate_exchange(b, k):
        got = honest(b, k)
        cols = tuple(old if j != k and old[k] < 0 else new for j, old, new in zip(b.ex, b.cols, got.cols))
        return seedcore.ExchangeMatrix(b.n, b.ex, cols)

    mp.setattr(seedcore, "mutate_exchange", mutate_exchange)


def weight_row_scaled(mp):
    """The weight form's first row doubled in every `weight_image`."""
    honest = CartanData.weight_image

    def weight_image(self, mu):
        image = honest(self, mu)
        return (2 * image[0],) + image[1:]

    mp.setattr(CartanData, "weight_image", weight_image)


def principal_index_swapped(mp):
    """Every `FrameMatrix.principal` gather reads its first two indices swapped."""
    honest = FrameMatrix.principal

    def principal(self, index):
        index = tuple(index)
        return honest(self, index[1::-1] + index[2:])

    mp.setattr(FrameMatrix, "principal", principal)


FAULTS = {
    "frame-bump": frame_bump,
    "block-sign": block_sign,
    "direction-sign": direction_sign,
    "degree-at-negated": degree_negated,
    "predecessor-off-by-one": predecessor_off_by_one,
    "nu-transposed": nu_transposed,
    "wrong-d": wrong_d,
    "dropped-basis-entry": dropped_basis_entry,
    "exchange-column-kept": exchange_column_kept,
    "weight-row-scaled": weight_row_scaled,
    "principal-index-swapped": principal_index_swapped,
}


@contextmanager
def injected(fault: str):
    """FAULTS[fault] in force for the duration of the block."""
    with pytest.MonkeyPatch.context() as mp:
        FAULTS[fault](mp)
        yield


# an argv entry MARK + name is no CLI argument: it names the fault to inject
MARK = "@fault:"


def marked(argv: list[str]):
    """The argv without its fault mark, and a context injecting the marked fault, if any."""
    fault = next((a[len(MARK):] for a in argv if a.startswith(MARK)), None)
    return [a for a in argv if not a.startswith(MARK)], injected(fault) if fault else nullcontext()


def failing_checks() -> list[str]:
    """Sorted names of the checks that fail on at least one census pair."""
    failed = set()
    for family, rank, w, u in CENSUS_PAIRS:
        failed.update(r.name for r in verify.verify_pair(cartan_init(family, rank), w, u, all_xi=True) if not r.ok)
    return sorted(failed)


def census() -> dict[str, list[str]]:
    out = {}
    for fault in FAULTS:
        with injected(fault):
            out[fault] = failing_checks()
    return out


def test_census_pairs_pass_every_check_without_a_fault():
    assert failing_checks() == []


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_census_row(fault):
    with injected(fault):
        assert failing_checks() == json.loads(GOLDEN.read_text())[fault]


def test_fault_census_lists_every_fault():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(FAULTS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(census(), sort_keys=True, indent=1) + "\n")
