"""The library names that the benchmark's per-layer tracer patches still exist."""

import importlib.util
from pathlib import Path

import dbseeds

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_layertrace_targets_resolve():
    layertrace = load_layertrace()
    assert layertrace.TRACED
    missing = []
    for layer, qual in layertrace.TRACED:
        owner = getattr(dbseeds, layer)
        for part in qual.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{layer}.{qual}")
    assert missing == []
