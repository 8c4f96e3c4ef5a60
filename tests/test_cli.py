import dataclasses
import functools
import json
import os
import sys

import pytest

from dbseeds import cgl, cli, dbc
from dbseeds.cli import main
from dbseeds.coxeter import InvalidCartanType, cartan_init, enumerate_reduced_words
from dbseeds.qtorus import FrameMatrix
from dbseeds.seedcore import ExchangeMatrix, QuantumSeed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seed_sigma_wn(capsys):
    code, out, _ = run(capsys, "seed", "--type", "A1", "--w", "1", "--u", "1", "--sigma", "wN")
    assert code == 0
    payload = json.loads(out)
    seed = payload["seed"]
    assert seed["psi"] == [["0", "-2"], ["2", "0"]]
    assert seed["B"] == [[0], [1]]
    assert seed["ex"] == [1]
    assert payload["double_word"]["p"] == [None, 1]
    assert payload["double_word"]["s"] == [2, None]


def test_seed_bz(capsys):
    code, out, _ = run(capsys, "seed", "--type", "A1", "--w", "1", "--u", "1", "--bz")
    assert code == 0
    seed = json.loads(out)["seed"]
    assert seed["B"] == [[-1], [0], [-1]]
    assert seed["ex"] == [2]
    assert seed["labels"][0] == {"gamma": [1], "delta": [-1]}


def test_seed_family_with_rank_flag(capsys):
    code, out, _ = run(capsys, "seed", "--type", "A", "--rank", "2", "--w", "1,2", "--u", "", "--sigma", "id")
    assert code == 0
    assert json.loads(out)["cartan"] == {"family": "A", "rank": 2}


def test_seed_mbz_reduced(capsys):
    code, out, _ = run(capsys, "seed", "--type", "A1", "--w", "1", "--u", "1", "--mbz", "--reduce")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["seed"]["psi"]) == 2
    assert payload["reduced_from"]["variant"] == "modified"


def test_seed_empty_u(capsys):
    code, out, _ = run(capsys, "seed", "--type", "A2", "--w", "1,2", "--u", "", "--sigma", "id")
    assert code == 0
    seed = json.loads(out)["seed"]
    assert seed["ex"] == []
    assert len(seed["psi"]) == 2


def test_seed_rejects_bad_type(capsys):
    code, _, err = run(capsys, "seed", "--type", "H3", "--w", "1", "--u", "")
    assert code == 2
    assert "error" in json.loads(err)


def test_seed_rejects_unparsable_rank(capsys):
    code, _, err = run(capsys, "seed", "--type", "Ax", "--w", "1", "--u", "")
    assert code == 2
    assert "cannot parse type" in json.loads(err)["error"]


def test_seed_rejects_nonreduced(capsys):
    code, _, err = run(capsys, "seed", "--type", "A1", "--w", "1,1", "--u", "")
    assert code == 2
    assert "not reduced" in json.loads(err)["error"]


def test_mutate_involution(capsys):
    code, out, _ = run(capsys, "mutate", "--type", "A1", "--w", "1", "--u", "1", "--sigma", "id", "--seq", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert [s["compatible"] for s in payload["steps"]] == [True, True]
    code2, out2, _ = run(capsys, "seed", "--type", "A1", "--w", "1", "--u", "1", "--sigma", "id")
    base = json.loads(out2)["seed"]
    assert payload["seed"]["psi"] == base["psi"]
    assert payload["seed"]["B"] == base["B"]


def test_mutate_single_step_swaps_sides(capsys):
    code, out, _ = run(capsys, "mutate", "--type", "A1", "--w", "1", "--u", "1", "--sigma", "id", "--seq", "1")
    assert code == 0
    mutated = json.loads(out)["seed"]
    code2, out2, _ = run(capsys, "seed", "--type", "A1", "--w", "1", "--u", "1", "--sigma", "2,1")
    other = json.loads(out2)["seed"]
    assert mutated["psi"] == other["psi"]
    assert mutated["B"] == other["B"]
    assert mutated["degrees"] == other["degrees"]


def test_mutate_rejects_frozen_index(capsys):
    code, _, _ = run(capsys, "mutate", "--type", "A1", "--w", "1", "--u", "1", "--sigma", "id", "--seq", "2")
    assert code == 3


def test_mutate_frozen_index_is_named_one_based(capsys):
    # position 5 of A2 (1,2,1 | 1,2) is frozen
    code, out, _ = run(capsys, "mutate", "--type", "A2", "--w", "1,2,1", "--u", "1,2", "--seq", "1,5")
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "index 5 is not exchangeable"
    assert payload["steps"] == [
        {"k": 1, "compatible": True},
        {"k": 5, "compatible": False, "error": "index 5 is not exchangeable"},
    ]


@pytest.mark.parametrize("seq, step", [("0", 0), ("6", 6), ("1,-1", -1), ("1,2,6", 6)])
def test_mutate_rejects_step_out_of_range_before_mutating(capsys, monkeypatch, seq, step):
    mutations = []
    monkeypatch.setattr(cli, "mutate_seed", lambda seed, k: mutations.append(k))
    code, out, err = run(capsys, "mutate", "--type", "A2", "--w", "1,2,1", "--u", "1,2", "--seq", seq)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"mutation step {step} is out of range 1..5"}
    assert mutations == []


def test_mutate_rejects_incompatible_step(capsys, monkeypatch):
    # a step that yields a seed whose exchange column pairs to zero
    incompatible = QuantumSeed(
        frame=FrameMatrix.from_rows([[0, -2], [2, 0]]),
        exchange=ExchangeMatrix(2, (0,), ((0, 0),)),
        inv=frozenset(),
        degrees=((0,), (0,)),
        d=(1, 1),
    )
    monkeypatch.setattr(cli, "mutate_seed", lambda seed, k: incompatible)
    code, out, _ = run(capsys, "mutate", "--type", "A1", "--w", "1", "--u", "1", "--sigma", "id", "--seq", "1,1")
    assert code == 3
    payload = json.loads(out)
    assert payload["steps"] == [{"k": 1, "compatible": False, "error": payload["error"]}]
    assert "compatibility" in payload["error"]


def test_mutate_rejects_all_xi(capsys):
    code, _, err = run(capsys, "mutate", "--type", "A1", "--w", "1", "--u", "1", "--sigma", "all-xi", "--seq", "1")
    assert code == 2
    assert "all-xi" in json.loads(err)["error"]


def test_mutate_rejects_all_xi_before_building_the_pair(capsys):
    # the word 1,1 is not reduced, but the flag is checked first
    code, _, err = run(capsys, "mutate", "--type", "A2", "--w", "1,1", "--u", "2", "--sigma", "all-xi", "--seq", "1")
    assert code == 2
    assert "all-xi" in json.loads(err)["error"]


def test_mutate_rejects_non_integer_sigma(capsys):
    code, _, err = run(capsys, "mutate", "--type", "A1", "--w", "1", "--u", "1", "--sigma", "1,a", "--seq", "1")
    assert code == 2
    assert "bad permutation" in json.loads(err)["error"]


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A2", "--w", "1,2,1", "--u", "1,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_verify_builds_one_presentation(capsys, monkeypatch):
    calls = []
    honest = dbc.bowtie_build

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(dbc, "bowtie_build", counted)
    code, _, _ = run(capsys, "verify", "--type", "A2", "--w", "1,2", "--u", "2,1")
    assert code == 0
    assert len(calls) == 1


def test_verify_rejects_nonreduced(capsys):
    code, out, err = run(capsys, "verify", "--type", "A1", "--w", "1,1", "--u", "")
    assert code == 2 and out == ""
    assert err == '{"error": "w word (1, 1) is not reduced"}\n'


def test_verify_fault_injection(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A1", "--w", "1", "--u", "1", "--self-test-fault")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    named = {c["name"]: c["ok"] for c in payload["checks"]}
    assert named["compat-identity"] is False


def test_verify_all_xi_five(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A2", "--w", "1,2,1", "--u", "1,2", "--all-xi")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "btau-oracle" in names and "xi-linkage" in names


def test_xi_list(capsys):
    code, out, _ = run(capsys, "xi-list", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    assert payload["permutations"][0] == [1, 2, 3, 4]
    code, out, _ = run(capsys, "xi-list", "--n", "5")
    assert json.loads(out)["count"] == 16


def test_cgl_nf(capsys):
    code, out, _ = run(capsys, "cgl-nf", "--preset", "sl2", "--word", "2,1")
    assert code == 0
    nf = json.loads(out)["normal_form"]
    assert nf["terms"] == [
        {"exp": [0, 0], "coef": [{"exp": "0", "coef": "1"}, {"exp": "4", "coef": "-1"}]},
        {"exp": [1, 1], "coef": [{"exp": "4", "coef": "1"}]},
    ]


def test_cgl_nf_unknown_preset(capsys):
    code, _, err = run(capsys, "cgl-nf", "--preset", "nope", "--word", "1")
    assert code == 2


def test_cgl_nf_bounds_the_word_before_any_product(capsys, monkeypatch):
    monkeypatch.setattr(cli, "CGL_NF_MAX_LETTERS", 3)
    monkeypatch.setattr(cli, "nf_mul", lambda *args: pytest.fail("a product was computed"))
    code, out, err = run(capsys, "cgl-nf", "--preset", "sl2", "--word", "2,2,1,1")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--word takes at most 3 letters, got 4"}


def test_cgl_nf_checks_every_letter_before_any_product(capsys, monkeypatch):
    monkeypatch.setattr(cli, "nf_mul", lambda *args: pytest.fail("a product was computed"))
    code, out, err = run(capsys, "cgl-nf", "--preset", "sl2", "--word", "2,1,3")
    assert code == 2 and out == ""
    assert "out of range" in json.loads(err)["error"]


def test_cgl_nf_reports_an_exhausted_rewrite_budget(capsys, monkeypatch):
    presets = {name: (dataclasses.replace(pres, rewrite_budget=1), c) for name, (pres, c) in cgl.shipped_presentations().items()}
    monkeypatch.setattr(cli, "shipped_presentations", lambda: presets)
    code, out, err = run(capsys, "cgl-nf", "--preset", "sl2", "--word", "2,2,1,1")
    assert code == 2 and out == ""
    assert "rewrite budget" in json.loads(err)["error"]


def test_output_bytes_stable(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(["seed", "--type", "A2", "--w", "1,2", "--u", "2,1", "--sigma", "all-xi", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("target, reason", [(".", "Is a directory"), ("missing/seed.json", "No such file or directory")])
def test_unwritable_out_path_exits_2_with_json(capsys, tmp_path, target, reason):
    path = tmp_path / target
    code, out, err = run(capsys, "seed", "--type", "A1", "--w", "1", "--u", "1", "--out", str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"cannot write --out {str(path)!r}: {reason}"}
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("flag", ["--bz", "--mbz", "--bfz"])
def test_seed_rejects_sigma_with_minor_or_bfz_seed(capsys, flag):
    code, out, err = run(capsys, "seed", "--type", "A1", "--w", "1", "--u", "1", flag, "--sigma", "9,9")
    assert code == 2
    assert out == ""
    assert "--sigma" in json.loads(err)["error"]


@pytest.mark.parametrize("extra", [[], ["--bfz"], ["--sigma", "wN"]])
def test_seed_rejects_reduce_without_minor_seed(capsys, extra):
    code, out, err = run(capsys, "seed", "--type", "A1", "--w", "1", "--u", "1", "--reduce", *extra)
    assert code == 2
    assert out == ""
    assert "--reduce" in json.loads(err)["error"]


@pytest.mark.parametrize("w, word", [("3", "(3,)"), ("3,1", "(3, 1)")])
def test_seed_rejects_out_of_range_letter(capsys, w, word):
    code, _, err = run(capsys, "seed", "--type", "A2", "--w", w, "--u", "")
    assert code == 2
    assert json.loads(err)["error"] == f"w word {word} has letter 3 outside 1..2"


@pytest.mark.parametrize("flags", [["--bz", "--mbz"], ["--bz", "--bfz"], ["--mbz", "--bfz"]])
def test_seed_rejects_two_seed_kinds(capsys, flags):
    code, out, err = run(capsys, "seed", "--type", "A1", "--w", "1", "--u", "1", *flags)
    assert code == 2
    assert out == ""
    assert "at most one" in json.loads(err)["error"]


def test_closed_stdout_exits_quietly(capsys, monkeypatch, tmp_path):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        code = main(["xi-list", "--n", "4"])
    finally:
        os.close(fd)
    assert code == cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""


def test_xi_list_bounds_n_without_enumerating(capsys, monkeypatch):
    def refuse(n):
        pytest.fail("xi_enumerate ran past the bound")

    monkeypatch.setattr(cli, "xi_enumerate", refuse)
    code, out, err = run(capsys, "xi-list", "--n", str(cli.XI_LIST_MAX_N + 1))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "n must be at most 16; xi-list prints all 2^(n-1) permutations"}


@pytest.mark.parametrize("sweep", [("verify",), ("verify", "--all-xi"), ("seed", "--sigma", "all-xi")])
def test_xi_sweeps_are_bounded_before_any_seed(capsys, monkeypatch, sweep):
    def refuse(*args):
        pytest.fail("bowtie_build ran past the bound")

    monkeypatch.setattr(cli, "XI_LIST_MAX_N", 3)
    monkeypatch.setattr(dbc, "bowtie_build", refuse)
    code, out, err = run(capsys, sweep[0], "--type", "A2", "--w", "1,2", "--u", "2,1", *sweep[1:])
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("|w| + |u| must be at most 3, got 4; ")


def test_xi_sweep_bound_spares_single_seeds_and_admits_its_own_value(capsys, monkeypatch):
    pair = ("--type", "A2", "--w", "1,2", "--u", "2,1")
    monkeypatch.setattr(cli, "XI_LIST_MAX_N", 3)
    assert run(capsys, "seed", *pair, "--sigma", "id")[0] == 0
    assert run(capsys, "mutate", *pair, "--sigma", "wN", "--seq", "1")[0] == 0
    monkeypatch.setattr(cli, "XI_LIST_MAX_N", 4)
    assert run(capsys, "verify", *pair, "--all-xi")[0] == 0
    assert run(capsys, "seed", *pair, "--sigma", "all-xi")[0] == 0


@pytest.mark.parametrize("type_args", [("--type", "A", "--rank", "100000"), ("--type", "A100000",)])
def test_rank_is_bounded_before_any_cartan_data(capsys, monkeypatch, type_args):
    def refuse(family, rank):
        pytest.fail("cartan_init ran past the bound")

    monkeypatch.setattr(cli, "cartan_init", refuse)
    code, out, err = run(capsys, "seed", *type_args, "--w", "1", "--u", "1")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "rank must be at most 64; got 100000"}


def test_rank_bound_admits_its_own_value(capsys):
    code, out, _ = run(capsys, "seed", "--type", "A", "--rank", str(cli.RANK_MAX), "--w", "1", "--u", "1")
    assert code == 0
    assert json.loads(out)["cartan"]["rank"] == cli.RANK_MAX


def test_verify_reports_a_fractional_frame_as_json(capsys, skewed_weight_images):
    code, out, err = run(capsys, "verify", "--type", "A2", "--w", "1,2", "--u", "2,1")
    assert code == 1 and err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["bz-integrality"]["ok"] is False
    assert checks["connections"] == {
        "name": "connections", "ok": False, "detail": "minor-labelled frame: fractional frame exponent -1/3",
    }


FUZZ_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "E6", "F4", "G2", "A0", "X2", "A", "2A"]


@functools.cache
def _reduced_words(name):
    """Reduced words of at most 3 letters of a valid type, else none."""
    try:
        cartan = cartan_init(name[0], int(name[1:]))
    except (ValueError, InvalidCartanType):
        return []
    return enumerate_reduced_words(cartan, 3)


def _fuzz_word(rng, rank, reduced=()):
    if reduced and rng.random() < 0.7:
        return ",".join(map(str, rng.choice(reduced)))
    if rng.random() < 0.1:
        return rng.choice(["1,,2", "a", "1;2", "-1", ","])
    return ",".join(str(rng.randint(0, rank + 1)) for _ in range(rng.randint(0, 3)))


def _fuzz_sigma(rng, n):
    if rng.random() < 0.5:
        return rng.choice(["id", "wN", "all-xi", "x", "1,1"])
    positions = list(range(1, max(1, n + rng.choice([-1, 0, 0, 0, 1])) + 1))
    if rng.random() < 0.5:
        rng.shuffle(positions)
    return ",".join(map(str, positions))


def _fuzz_argv(rng):
    command = rng.choice(["seed", "mutate", "verify", "xi-list", "cgl-nf"])
    if command == "xi-list":
        return [command, "--n", str(rng.choice([-1, 0, 1, 2, 3, 6, cli.XI_LIST_MAX_N + 1]))]
    if command == "cgl-nf":
        return [command, "--preset", rng.choice(["sl2", "a2", "nope"]), "--word", _fuzz_word(rng, 4)]
    name = rng.choice(FUZZ_TYPES)
    rank = int(name[1:]) if name[1:].isdecimal() else 2
    reduced = _reduced_words(name)
    w, u = _fuzz_word(rng, rank, reduced), _fuzz_word(rng, rank, reduced)
    argv = [command, "--type", name, "--w", w, "--u", u]
    if name == "A":
        argv += ["--rank", str(rng.randint(0, 3))]
    n = len(w.split(",")) + len(u.split(","))
    if command == "seed":
        argv += rng.sample(["--bz", "--mbz", "--bfz", "--reduce"], rng.randint(0, 2))
        if rng.random() < 0.4:
            argv += ["--sigma", _fuzz_sigma(rng, n)]
    elif command == "mutate":
        argv += ["--sigma", _fuzz_sigma(rng, n), "--seq", _fuzz_word(rng, n)]
    else:
        argv += rng.sample(["--all-xi", "--self-test-fault"], rng.randint(0, 2))
    return argv


def test_fuzz_every_exit_is_documented_and_json(capsys):
    # words of at most 3 letters keep n <= 6, so --all-xi visits at most 32 permutations
    import random

    rng = random.Random(2016)
    codes = set()
    for _ in range(300):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:   # an argparse usage error
            assert exc.code == 2, argv
            capsys.readouterr()
            continue
        out, err = capsys.readouterr()
        codes.add(code)
        assert code in (0, 1, 2, 3, cli.EXIT_BROKEN_PIPE), argv
        if code == 2:
            assert out == "" and "error" in json.loads(err), argv
        elif code != cli.EXIT_BROKEN_PIPE:
            assert err == "" and isinstance(json.loads(out), dict), argv
    assert codes == {0, 1, 2, 3}
