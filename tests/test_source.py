"""Source-level rules for the library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dbseeds"


def test_library_has_no_assert():
    # `python -O` strips assert statements, so an invariant must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py"))
    assert found == []


def test_seed_modules_do_not_import_fractions():
    # frames are integer matrices; rationals stay inside FrameMatrix.from_rows and linalg
    found = []
    for name in ("seedcore.py", "dbc.py", "verify.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "fractions" or m.startswith("fractions.") for m in modules):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def _callers(name: str) -> list[str]:
    """`module:function` of every function in the library that calls `name` or `x.name` directly."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)
                    ):
                        callers.append(f"{path.name}:{fn.name}")
    return callers


def test_sigma_chain_has_no_library_caller():
    # sigma-seeds follow the predecessor recursion chain(k) = chain(p(k)) + {sigma(k)};
    # the chain tables of `sigma_chain` are only the tests' reference
    assert _callers("sigma_chain") == []


def test_spell_is_the_one_sigma_validator():
    # every sigma entry point of dbc, verify and the CLI validates through
    # `DoubleWordData.spell`; `sigma_chain`, the tests' chain reference with
    # no library caller, is the only other reader of the interval test
    assert _callers("xi_is_member") == ["coxeter.py:sigma_chain", "coxeter.py:spell"]
    assert [p.name for p in sorted(SRC.glob("*.py")) if "xi_is_member" in p.read_text()] == ["coxeter.py"]
    # and the sigma-seeds read pred and succ from the word `spell` builds;
    # only the minor-labelled seeds walk their own double word
    assert [c for c in _callers("pred_succ") if c.startswith(("dbc.py:", "verify.py:"))] == ["dbc.py:bz_seed"]


def test_eta_machinery_has_one_caller():
    # the words are validated once, when the presentation is built; every
    # seed of the pair reads the presentation's double-word data
    assert _callers("eta_machinery") == ["dbc.py:bowtie_build"]


def test_double_word_matrix_is_the_one_exchange_rule():
    # every sigma-seed's exchange matrix is the double-word matrix of the word
    # sigma spells (`btau_columns`); the minor-labelled seeds use the same rule
    assert [c for c in _callers("ExchangeMatrix") if c.startswith("dbc.py:")] == ["dbc.py:double_word_matrix"]
    assert _callers("double_word_matrix") == ["dbc.py:btau_columns", "dbc.py:bz_seed"]


def test_frame_restrict_callers_are_mutation_and_reduction():
    # sigma-frames follow the chain recursion (`dbc.sigma_frame`); the general
    # restriction rule is left to mutation, its sign-choice oracle and reduction
    assert sorted(_callers("frame_restrict")) == [
        "seedcore.py:graded_reduce", "seedcore.py:mutate_seed", "verify.py:xi_linkage",
    ]


def test_trusted_frames_come_only_from_valid_constructions():
    # `FrameMatrix._trusted` skips the frame checks, so only the builders whose
    # construction guarantees them may call it; no oracle builds the value it
    # checks that way, and input frames keep the validating constructor
    callers = sorted(_callers("_trusted"))
    assert callers == ["dbc.py:sigma_frame", "qtorus.py:frame_restrict", "qtorus.py:negate", "qtorus.py:reindex"]
    barred = ("verify.py:", "dbc.py:sigma_frame_product", "dbc.py:bowtie_build", "qtorus.py:from_rows")
    assert [c for c in callers if c.startswith(barred)] == []
    assert "_trusted" not in (SRC / "verify.py").read_text()


def test_exchange_pairings_is_the_one_compatibility_rule():
    # every frame pairing of an exchange column is a row of B^T psi; no seed
    # module pairs vectors one entry at a time
    assert _callers("exchange_pairings") == ["seedcore.py:check_compatible", "verify.py:compat_identity"]
    assert [c for c in _callers("omega_exp") if not c.startswith("qtorus.py:")] == []


def test_mutated_degree_is_the_one_degree_rule():
    # mutation and the second end of a same-level xi-link read the degree of
    # the new variable from one rule
    assert _callers("mutated_degree") == ["seedcore.py:mutate_seed", "verify.py:xi_linkage"]


def test_combine_is_the_one_sparse_row_sum_rule():
    # every sum of integer rows over a sparse coefficient vector is `linalg.combine`
    assert sorted(_callers("combine")) == [
        "cgl.py:monomial_degree",
        "seedcore.py:degree_balance",
        "seedcore.py:exchange_pairings",
        "seedcore.py:mutated_degree",
        "verify.py:btau_oracle_equivalence",
    ]


def test_builders_behind_the_sigma_boundary_take_the_word():
    # `spell` is the one sigma lookup: the boundary (`spell`, `pres.seed`,
    # `sigma_seed`, `solve_b_oracle`, `sigma_frame_product`, `bfz_matrix`,
    # `b_columns`, the CLI) spells, and the builders behind it read the word
    builders = ("dbc.py:sigma_frame", "dbc.py:sigma_degrees", "dbc.py:btau_columns",
                "dbc.py:oracle_system", "verify.py:_block_rank_is_full")
    assert [c for c in _callers("spell") if c in builders] == []
    # and no parameter takes either a sigma or its word
    unions = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef):
                for arg in fn.args.args:
                    text = ast.unparse(arg.annotation) if arg.annotation else ""
                    if "SigmaWord" in text and "|" in text:
                        unions.append(f"{path.name}:{fn.name}")
    assert unions == []


def test_only_spell_builds_a_sigma_word():
    # a word is trusted as it is, so only the validator may build one
    assert _callers("SigmaWord") == ["coxeter.py:spell"]


def test_dbc_does_not_test_sigma_entry_types():
    # the type test of a sigma's entries is `spell`'s alone
    assert [c for c in _callers("isinstance") + _callers("type") if c.startswith("dbc.py:")] == []
