"""Source-level rules for the library."""

import argparse
import ast
import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from dbseeds import cgl, cli, verify
from test_bench_api import load_layertrace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dbseeds"


def test_library_has_no_assert():
    # `python -O` strips assert statements, so an invariant must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py"))
    assert found == []


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # the package's __init__ imports its modules in one fixed order; loading
    # each module first, with that __init__ left out, finds an import cycle
    # that only another order would reach
    code = (
        "import importlib, sys, types\n"
        f"pkg = types.ModuleType('dbseeds'); pkg.__path__ = [{str(SRC)!r}]; sys.modules['dbseeds'] = pkg\n"
        f"importlib.import_module('dbseeds.{module}')\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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


def _callers(name: str, owner: str | None = None) -> list[str]:
    """`module:function` of every function in the library that calls `name` or `x.name` directly, x = `owner` if given."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)
                    ) and owner in (None, getattr(getattr(node.func, "value", None), "id", None)):
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


def test_walk_is_taken_where_a_word_is_built():
    # the double word and each sigma-word are walked once, where they are
    # built; the minor-labelled seeds walk their own double word and a CGL
    # presentation its eta, and every other reader takes a stored walk
    assert sorted(_callers("walk")) == [
        "cgl.py:walk", "coxeter.py:eta_machinery", "coxeter.py:spell", "dbc.py:bz_seed",
    ]
    assert _callers("Walk") == ["coxeter.py:walk"]


def test_no_walk_is_read_by_position():
    # a walk's fields are read by name: no `x.walk[i]` and no unpacking of `x.walk`
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Subscript):
                value = node.value
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
                value = node.value
            else:
                continue
            if getattr(value, "attr", None) == "walk":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_eta_machinery_has_one_caller():
    # the words are validated once, when the presentation is built; every
    # seed of the pair reads the presentation's double-word data
    assert _callers("eta_machinery") == ["dbc.py:bowtie_build"]


def test_double_word_matrix_is_the_one_exchange_rule():
    # every sigma-seed's exchange matrix is the double-word matrix of the word
    # sigma spells (`btau_columns`); the minor-labelled seeds use the same rule
    built = _callers("ExchangeMatrix") + _callers("_trusted", "ExchangeMatrix")
    assert [c for c in built if c.startswith("dbc.py:")] == ["dbc.py:double_word_matrix"]
    assert _callers("double_word_matrix") == ["dbc.py:btau_columns", "dbc.py:bz_seed"]


def test_frame_restrict_callers_are_mutation_and_reduction():
    # sigma-frames follow the chain recursion (`dbc.sigma_frame`); the general
    # restriction rule is left to mutation and reduction.  The linkage
    # oracle (`verify._restrictions_give`) reads both sign choices by the
    # moved-row rule, `qtorus.restricted_rows`, which sums each moved row
    # with `combine`
    assert sorted(_callers("frame_restrict")) == ["seedcore.py:graded_reduce", "seedcore.py:mutate_seed"]
    assert _callers("restricted_rows") == ["verify.py:_restrictions_give"]


def test_verify_neither_mutates_nor_restricts():
    # constructors construct and `verify` verifies: the linkage oracle checks
    # a mutation link and a reindexing link in place, so no check builds a
    # mutated or reindexed seed or a full restriction; and it reaches the
    # mutation and gather rules through the `seedcore` module, so a patched
    # rule is the one it reads
    calls = _callers("mutate_seed") + _callers("frame_restrict") + _callers("reindex")
    assert [c for c in calls if c.startswith("verify.py:")] == []
    tree = ast.parse((SRC / "verify.py").read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert imported.isdisjoint({
        "mutate_seed", "mutate_exchange", "mutation_basis", "mutated_degree", "frame_restrict", "reindex",
        "reindex_fields", "seed_fields",
    })


def test_trusted_frames_come_only_from_valid_constructions():
    # `FrameMatrix._trusted` skips the frame checks, so only the builders whose
    # construction guarantees them may call it; no oracle builds the value it
    # checks that way, and input frames keep the validating constructor.  A
    # principal submatrix is the one gather rule: `reindex` is its case at a
    # checked permutation, reindexing a seed's fields reads it too, and each
    # sigma-frame (chain congruence and product oracle alike) is a gather
    # from its presentation's table; the chain congruence wraps its growing
    # table C nu C^T trusted for that gather only
    callers = sorted(_callers("_trusted", "FrameMatrix"))
    assert callers == ["dbc.py:sigma_frame", "qtorus.py:frame_restrict", "qtorus.py:negate", "qtorus.py:principal"]
    assert sorted(_callers("principal")) == [
        "dbc.py:sigma_frame", "dbc.py:sigma_frame_product", "qtorus.py:reindex", "seedcore.py:reindex_fields",
    ]
    barred = ("verify.py:", "dbc.py:sigma_frame_product", "dbc.py:bowtie_build", "qtorus.py:from_rows")
    assert [c for c in callers if c.startswith(barred)] == []
    assert "_trusted" not in (SRC / "verify.py").read_text()


def test_trusted_exchange_matrices_come_only_from_valid_constructions():
    # `ExchangeMatrix._trusted` skips the column checks, so only the two
    # builders whose construction gives one column of length n per
    # exchangeable index may call it: the double-word matrix and matrix
    # mutation.  Every other exchange matrix (reindexing, reduction,
    # negation, input and faults) keeps the validating constructor, and no
    # check builds the value it checks that way: `verify.py` names no
    # `_trusted` at all.  Every `_trusted` call is a frame's or an exchange
    # matrix's
    callers = sorted(_callers("_trusted", "ExchangeMatrix"))
    assert callers == ["dbc.py:double_word_matrix", "seedcore.py:mutate_exchange"]
    assert "_trusted" not in (SRC / "verify.py").read_text()
    assert sorted(_callers("_trusted")) == sorted(_callers("_trusted", "FrameMatrix") + callers)


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / module).read_text(), filename=module)
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_frame_product_oracle_reads_no_chain_recursion():
    # `sigma_frame_product` checks the chain congruence `sigma_frame`, so it
    # may read neither `_chain_sums` nor a walk: of its word only sigma, and
    # of dbc only `_support_sums`, which reads neither either
    oracle = _function("dbc.py", "sigma_frame_product")
    helpers = {n.name for n in ast.parse((SRC / "dbc.py").read_text()).body if isinstance(n, ast.FunctionDef)}
    called = {n.func.id for n in ast.walk(oracle) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert called & helpers == {"_support_sums"}
    for fn in (oracle, _function("dbc.py", "_support_sums")):
        names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        attrs = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
        assert "_chain_sums" not in names and "walk" not in names | attrs
    word = oracle.args.args[1].arg
    assert {n.attr for n in ast.walk(oracle) if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == word} == {"sigma"}


def test_trusted_scalars_come_only_from_scalar_arithmetic():
    # `VLaurent._reduced` skips the term checks, so only VLaurent's own ring
    # operations, whose operands already hold the invariant, may call it
    callers = sorted(_callers("_reduced"))
    assert callers == ["qtorus.py:__add__", "qtorus.py:__mul__", "qtorus.py:__neg__", "qtorus.py:inverse", "qtorus.py:scale"]
    tree = ast.parse((SRC / "qtorus.py").read_text())
    vlaurent = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "VLaurent")
    assert set(callers) <= {f"qtorus.py:{fn.name}" for fn in vlaurent.body if isinstance(fn, ast.FunctionDef)}
    for name in ("cgl.py", "verify.py", "jsonio.py"):
        assert "_reduced" not in (SRC / name).read_text()


def test_exchange_pairings_is_the_one_compatibility_rule():
    # every frame pairing of an exchange column is a row of B^T psi; no seed
    # module pairs vectors one entry at a time
    assert _callers("exchange_pairings") == ["seedcore.py:check_compatible", "verify.py:compat_identity"]
    assert [c for c in _callers("omega_exp") if not c.startswith("qtorus.py:")] == []


def test_mutated_degree_is_the_one_degree_rule():
    # mutation and both ends of a same-level xi-link read the degree of the
    # new variable from one rule
    assert _callers("mutated_degree") == ["seedcore.py:mutate_seed", "verify.py:xi_linkage", "verify.py:xi_linkage"]


def test_combine_is_the_one_sparse_row_sum_rule():
    # every sum of integer rows over a sparse coefficient vector is `linalg.combine`
    assert sorted(_callers("combine")) == [
        "cgl.py:monomial_degree",
        "coxeter.py:prefix_weight_images",
        "qtorus.py:restricted_rows",
        "seedcore.py:degree_balance",
        "seedcore.py:exchange_pairings",
        "seedcore.py:mutated_degree",
        "verify.py:btau_oracle_equivalence",
    ]


def _functions_with(match) -> list[str]:
    """`module:function` of every library function with a node for which `match(node)` holds."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef) and any(match(n) for n in ast.walk(fn)):
                found.append(f"{path.name}:{fn.name}")
    return found


def test_reflect_is_the_one_root_reflection_rule():
    # x s_i(alpha_j) = x(alpha_j) - c_ij x(alpha_i): the roots of one word and
    # the frontier of every reduced word take the same in-place step, and
    # only that step's callers read a row of the Cartan matrix
    assert sorted(_callers("_reflect")) == ["coxeter.py:enumerate_reduced_words", "coxeter.py:word_roots"]
    cartan_row = lambda n: isinstance(n, ast.Subscript) and getattr(n.value, "attr", None) == "cartan"
    assert _functions_with(cartan_row) == ["coxeter.py:word_roots", "coxeter.py:enumerate_reduced_words"]


def test_mat_vec_is_the_one_table_product():
    # the images gram . a and weight_form . mu are one matrix-vector rule, and
    # the two tables are read only to take it
    assert sorted(_callers("mat_vec")) == ["coxeter.py:gram_image", "coxeter.py:weight_image"]
    table = lambda n: isinstance(n, ast.Attribute) and n.attr in ("gram", "weight_form")
    assert _functions_with(table) == ["coxeter.py:gram_image", "coxeter.py:weight_image"]


def test_frame_matrix_is_the_one_skew_test():
    # a CGL presentation's exponent matrix is validated as a frame: the test
    # a[i][j] != -a[j][i] is written once, in `FrameMatrix`
    def skew_test(n):
        return isinstance(n, ast.Compare) and any(
            isinstance(c, ast.UnaryOp) and isinstance(c.op, ast.USub) and isinstance(c.operand, ast.Subscript)
            and isinstance(c.operand.value, ast.Subscript)
            for c in n.comparators
        )

    assert _functions_with(skew_test) == ["qtorus.py:__post_init__"]
    assert "cgl.py:__post_init__" in _callers("FrameMatrix")


def test_revlex_key_is_the_one_pbw_order():
    # the engine's leading term, its repr and the JSON encoding order PBW
    # exponents by one key; nothing else reverses an exponent
    assert sorted(_callers("revlex_key")) == ["cgl.py:__repr__", "jsonio.py:encode_nfpoly"]
    assert "key=revlex_key" in ast.unparse(_function("cgl.py", "leading_term"))
    assert sorted(_callers("reversed")) == ["cgl.py:revlex_key", "coxeter.py:o_plus"]


def test_builders_behind_the_sigma_boundary_take_the_word():
    # `spell` is the one way from a sigma to its word, and it validates and
    # caches: the boundary (`pres.seed`, which caches seeds, `pres.sweep`,
    # `sigma_seed`, `solve_b_oracle`, `bfz_matrix`, `b_columns` and the CLI)
    # calls it, and the builders behind it take the word it returned, as do
    # the checks of `verify` over all sigmas, which read the sweep's words
    builders = ("dbc.py:sigma_frame", "dbc.py:sigma_frame_product", "dbc.py:sigma_degrees",
                "dbc.py:btau_columns", "dbc.py:oracle_system", "verify.py:_block_rank_is_full",
                "verify.py:btau_oracle_equivalence", "verify.py:xi_linkage", "verify.py:sigma_skew_symmetrizable")
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


def _unset_options() -> list[str]:
    """`module:function.parameter` of every defaulted parameter that no call in the library passes.

    A call reaches a function by its name (`f(...)` or `x.f(...)`), and
    `__init__` by its class's name or by `cls`.  It passes a parameter by
    keyword, by position (after `self` or `cls` for a method), or through a
    `*` or `**` argument.  Calls inside the function itself do not count.
    """
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unset = []
    for module, tree in trees.items():
        owner = {id(m): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for m in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            names = {cls.name, "cls"} if cls and fn.name == "__init__" else {fn.name}
            bound = cls is not None and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= len(positional) - len(fn.args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            inside = {id(n) for n in ast.walk(fn)}
            reaching = [
                c for c in calls
                if id(c) not in inside and (getattr(c.func, "id", None) in names or getattr(c.func, "attr", None) in names)
            ]
            for index, arg in defaulted:
                if not any(
                    any(k.arg in (arg, None) for k in c.keywords)
                    or any(isinstance(a, ast.Starred) for a in c.args)
                    or (index is not None and len(c.args) + bound > index)
                    for c in reaching
                ):
                    unset.append(f"{module}:{fn.name}.{arg}")
    return unset


def test_every_setting_is_one_a_caller_needs():
    # faults are the tests' monkeypatches (tests/test_faults.py), the rewrite
    # budget is the engine's constant, and a presentation's size is its
    # lambda matrix's: no switch or second copy of a size a caller could set.
    # Every defaulted parameter is one that some library call sets; the one
    # exception is `cli.main(argv)`, the tests' seam, since the console
    # script calls `main()`
    assert _unset_options() == ["cli:main.argv"]
    assert list(inspect.signature(verify.verify_pair).parameters) == ["cartan", "w", "u", "all_xi"]
    assert list(inspect.signature(verify.compat_identity).parameters) == ["pres"]
    assert [f.name for f in dataclasses.fields(cgl.CGLPresentation)] == ["lambda_exp", "tails", "eta", "degrees"]
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for a in sub.choices["verify"]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--type", "--rank", "--w", "--u", "--out", "--all-xi"}


# The CGL checks of acceptance criteria 7-9 (tests/test_acceptance.py): the
# rank-one worked example, the leading-term law of reversed monomials, and the
# normalization condition with its rescaling identities.  They are the
# library's statement of what the paper's CGL side must satisfy, so they stay
# in it although only the tests run them.
ACCEPTANCE_ONLY = {
    "cgl.rescale", "cgl.rescale_c_table", "cgl.rescale_scalar_identity", "cgl.sl2_example", "cgl.xcomm_check",
}


# Library names that no library code calls and `perfbench/` keeps, by its
# traced layers or a `lib.*` read; each docstring says so.  A name joins
# only when its last library caller goes while the benchmark still reads it:
# `seedcore.reindex`, since the linkage check compares each reindexing link
# in place through `seedcore.reindex_fields`, the gather rule that
# `reindex` is built from.  Any other name that loses its last library
# caller fails the caller guard below.
PERFBENCH_ONLY = {
    "coxeter.CartanData.pair_weight", "coxeter.enumerate_reduced_words", "coxeter.is_reduced",
    "coxeter.sigma_chain", "dbc.b_columns", "qtorus.FrameMatrix.omega_exp", "seedcore.reindex",
}


def _benchmark_names() -> set[str]:
    """`module.name` of every library name the benchmark reads: its traced layers and `lib.*` references."""
    names = {f"{layer}.{qual}" for layer, qual in load_layertrace().TRACED}
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "lib" and len(chain) >= 2:
            names.add(".".join(reversed(chain)))
    return names


def test_every_library_name_has_a_library_caller():
    # one rule per formula: a function, class or method that nothing in the
    # library reads is a second route or a test's reference, and belongs in
    # the tests.  A top-level name is read by `name` or `module.name`, a
    # method by `.name`; reads inside the definition itself do not count, nor
    # does a local variable that shares a method's name.  Dunder methods run
    # implicitly.
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{m.name}", m, True)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
                ]

    def read(name: str, definition: ast.AST, method: bool) -> bool:
        inside = {id(n) for n in ast.walk(definition)}
        for tree in trees.values():
            for n in ast.walk(tree):
                if id(n) in inside:
                    continue
                if isinstance(n, ast.Attribute) and n.attr == name and (
                    method or getattr(n.value, "id", None) in trees
                ):
                    return True
                if not method and isinstance(n, ast.Name) and n.id == name:
                    return True
        return False

    assert ACCEPTANCE_ONLY | PERFBENCH_ONLY <= {qual for qual, _, _ in defined}
    assert PERFBENCH_ONLY <= _benchmark_names()
    uncalled = {qual for qual, node, method in defined if not read(node.name, node, method)}
    assert sorted(uncalled - ACCEPTANCE_ONLY) == sorted(PERFBENCH_ONLY)
    for qual, node, _ in defined:
        assert ("`perfbench/` keeps it" in (ast.get_docstring(node) or "")) == (qual in PERFBENCH_ONLY), qual
