"""CLI output pinned byte for byte: one word pair per finite type.

`tests/golden/index.json` lists every case's argv and exit code, and
`tests/golden/<case>.out` holds its stdout.  A refactor must reproduce both
exactly.  Regenerate the files only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dbseeds.cli import main

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


def cases() -> dict[str, list[str]]:
    """Case name -> argv, for every pair and command."""
    out = {}
    for name, w, u, seq in PAIRS:
        pair = ["--type", name, "--w", w, "--u", u]
        out[f"{name}-seed-id"] = ["seed", *pair]
        out[f"{name}-seed-bfz"] = ["seed", *pair, "--bfz"]
        if name in ALL_XI_SEEDS:
            out[f"{name}-seed-all-xi"] = ["seed", *pair, "--sigma", "all-xi"]
        out[f"{name}-seed-wN"] = ["seed", *pair, "--sigma", "wN"]
        out[f"{name}-seed-bz"] = ["seed", *pair, "--bz"]
        out[f"{name}-seed-mbz-reduce"] = ["seed", *pair, "--mbz", "--reduce"]
        out[f"{name}-seed-bz-mbz-labels"] = ["seed", *pair, "--bz", "--convention", "mbz-labels"]
        out[f"{name}-seed-mbz-bz-labels"] = ["seed", *pair, "--mbz", "--convention", "bz-labels"]
        out[f"{name}-verify-all-xi"] = ["verify", *pair, "--all-xi"]
        out[f"{name}-verify-fault"] = ["verify", *pair, "--self-test-fault"]
        out[f"{name}-mutate"] = ["mutate", *pair, "--sigma", "wN", "--seq", seq]
    return out


def replay(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _index() -> dict:
    return json.loads((GOLDEN / "index.json").read_text())


def test_golden_index_lists_every_case():
    assert {name: case["argv"] for name, case in _index().items()} == cases()


@pytest.mark.parametrize("name", sorted(cases()))
def test_golden_output(name):
    case = _index()[name]
    code, out = replay(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.out").read_text()


def write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in sorted(cases().items()):
        code, out = replay(argv)
        (GOLDEN / f"{name}.out").write_text(out)
        index[name] = {"argv": argv, "exit": code}
    (GOLDEN / "index.json").write_text(json.dumps(index, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    write()
