"""CLI output pinned byte for byte: one word pair per finite type.

`tests/golden/index.json` lists every case's argv and exit code,
`tests/golden/<case>.out` holds its stdout and `tests/golden/<case>.err` its
stderr, a missing `.err` standing for none.  An argv entry "@fault:<name>"
is no CLI argument: the case runs the rest of its argv with the fault
`test_faults.FAULTS[name]` injected (`test_faults.marked`).  A refactor must
reproduce all three exactly.  Regenerate the files only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dbseeds.cli import main
from test_faults import MARK, marked

GOLDEN = Path(__file__).resolve().parent / "golden"

# (type, w, u, mutation sequence from the reversed-w seed); n <= 6 throughout
PAIRS = [
    ("A1", "1", "1", "1"),
    ("A2", "1,2,1", "2,1", "1,3"),
    ("A3", "1,2,1,3", "2,1", "1,3"),
    ("A4", "1,2,3,2", "4,3", "2,3"),
    ("B2", "1,2,1", "2,1,2", "1,4"),
    ("B3", "1,2,3,2", "3,2", "2,4"),
    ("B4", "4,3,4", "3,4,2", "1,3"),
    ("C3", "3,2,3", "2,3,1", "1,3"),
    ("D4", "1,2,1", "2,4,2", "1,4"),
    ("E6", "1,3,1", "4,3,4", "1,4"),
    ("F4", "2,3,2", "3,2,3", "1,4"),
    ("G2", "1,2,1", "2,1,2", "1,4"),
]

# types whose every sigma-seed is pinned through `seed --sigma all-xi`
ALL_XI_SEEDS = ("A2", "B2", "G2")

# the all-xi failure bytes of one pair under three census faults: wrong-d
# first fails xi-linkage at a cross-level link (k = 0), exchange-column-kept
# at a same-level one, and predecessor-off-by-one gives wrong sigma-frames,
# which fail every check but bz-compat
ALL_XI_FAULTS = ("A3", ("wrong-d", "exchange-column-kept", "predecessor-off-by-one"))

# one input per documented CLI error path (exit 2, or 3 for a frozen mutation step)
ERRORS = {
    "error-unknown-type": ["seed", "--type", "X2", "--w", "1", "--u", "1"],
    "error-non-reduced-word": ["seed", "--type", "A2", "--w", "1,1", "--u", "2"],
    "error-letter-out-of-range": ["seed", "--type", "A2", "--w", "1,3", "--u", "2"],
    "error-sigma-not-interval": ["seed", "--type", "A2", "--w", "1,2", "--u", "2,1", "--sigma", "1,3,2,4"],
    "error-sigma-wrong-length": ["seed", "--type", "A2", "--w", "1,2", "--u", "2,1", "--sigma", "1,2"],
    "error-mutate-frozen": ["mutate", "--type", "A1", "--w", "1", "--u", "1", "--sigma", "wN", "--seq", "2"],
    "error-xi-list-n17": ["xi-list", "--n", "17"],
    "error-rank-too-large": ["seed", "--type", "A", "--rank", "65", "--w", "1", "--u", "1"],
    "error-verify-n17": ["verify", "--type", "A4", "--w", "1,2,1,3,2,1,4,3,2,1", "--u", "1,2,1,3,2,1,4"],
    "error-mutate-all-xi": ["mutate", "--type", "A2", "--w", "1,1", "--u", "2", "--sigma", "all-xi", "--seq", "1"],
    "error-cgl-nf-too-long": ["cgl-nf", "--preset", "sl2", "--word", ",".join(["2"] * 25)],
    "error-seed-all-xi-n17": [
        "seed", "--type", "A4", "--w", "1,2,1,3,2,1,4,3,2,1", "--u", "1,2,1,3,2,1,4", "--sigma", "all-xi",
    ],
}


def cases() -> dict[str, list[str]]:
    """Case name -> argv, for every pair and command, and every error path."""
    out = dict(ERRORS)
    for name, w, u, seq in PAIRS:
        pair = ["--type", name, "--w", w, "--u", u]
        out[f"{name}-seed-id"] = ["seed", *pair]
        out[f"{name}-seed-bfz"] = ["seed", *pair, "--bfz"]
        if name in ALL_XI_SEEDS:
            out[f"{name}-seed-all-xi"] = ["seed", *pair, "--sigma", "all-xi"]
        out[f"{name}-seed-wN"] = ["seed", *pair, "--sigma", "wN"]
        out[f"{name}-seed-bz"] = ["seed", *pair, "--bz"]
        out[f"{name}-seed-mbz-reduce"] = ["seed", *pair, "--mbz", "--reduce"]
        out[f"{name}-verify-all-xi"] = ["verify", *pair, "--all-xi"]
        out[f"{name}-verify-fault"] = ["verify", *pair, MARK + "frame-bump"]
        out[f"{name}-mutate"] = ["mutate", *pair, "--sigma", "wN", "--seq", seq]
        if name == ALL_XI_FAULTS[0]:
            for fault in ALL_XI_FAULTS[1]:
                out[f"{name}-verify-all-xi-fault-{fault}"] = ["verify", *pair, "--all-xi", MARK + fault]
    return out


def replay(argv: list[str]) -> tuple[int, str, str]:
    argv, fault = marked(argv)
    out, err = io.StringIO(), io.StringIO()
    with fault, redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _index() -> dict:
    return json.loads((GOLDEN / "index.json").read_text())


def test_golden_index_lists_every_case():
    assert {name: case["argv"] for name, case in _index().items()} == cases()


@pytest.mark.parametrize("name", sorted(cases()))
def test_golden_output(name):
    case = _index()[name]
    code, out, err = replay(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.out").read_text()
    err_file = GOLDEN / f"{name}.err"
    assert err == (err_file.read_text() if err_file.exists() else "")


def write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in sorted(cases().items()):
        code, out, err = replay(argv)
        (GOLDEN / f"{name}.out").write_text(out)
        if err:
            (GOLDEN / f"{name}.err").write_text(err)
        index[name] = {"argv": argv, "exit": code}
    (GOLDEN / "index.json").write_text(json.dumps(index, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    write()
