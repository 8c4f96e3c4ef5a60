"""Per-layer tracing of dbseeds from outside the library.

`Tracer.install(lib)` replaces each traced function with a timing wrapper in
the module that defines it and in every dbseeds module that imported the
name, and each traced method on its class; `uninstall` puts the originals
back.  Wrappers keep a stack of open frames, so a function's self time is
its duration minus the time of traced calls made inside it.

Spans (id, name, start_ns, end_ns, parent id, task id) are kept in memory
and written out by `write`.  The hot leaves in `FOLDED` run up to ~10^5
times per pass; they keep no span and are folded into counters per
(parent, function) instead, so trace memory stays bounded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("verify", "dbc", "seedcore", "qtorus", "linalg", "coxeter", "cgl")

VERIFY_CHECKS = (
    "compat_identity", "grading_identity", "btau_oracle_equivalence", "xi_linkage",
    "sigma_skew_symmetrizable", "bz_compatibility", "connections",
)

# (module, qualified name); a dotted name is a method of a class in that module
TRACED = [("verify", name) for name in VERIFY_CHECKS] + [
    ("dbc", "bowtie_build"), ("dbc", "sigma_seed"), ("dbc", "sigma_frame"),
    ("dbc", "sigma_frame_product"), ("dbc", "sigma_degrees"), ("dbc", "bfz_matrix"),
    ("dbc", "b_columns"), ("dbc", "btau_columns"), ("dbc", "solve_b_oracle"),
    ("dbc", "bz_seed"), ("dbc", "connections_check"),
    ("seedcore", "check_compatible"), ("seedcore", "mutate_seed"), ("seedcore", "mutate_exchange"),
    ("seedcore", "reindex"), ("seedcore", "graded_reduce"),
    ("qtorus", "FrameMatrix.omega_exp"), ("qtorus", "frame_restrict"), ("qtorus", "FrameMatrix.__init__"),
    ("linalg", "bilinear"), ("linalg", "solve_unique"), ("linalg", "rank"), ("linalg", "mat_vec"),
    ("coxeter", "eta_machinery"), ("coxeter", "is_reduced"), ("coxeter", "CartanData.pair_weight"),
    ("coxeter", "sigma_chain"),
    ("cgl", "nf_mul"), ("cgl", "NFPoly.__add__"),
]

# Constructing a FrameMatrix is reported as FrameMatrix.new.
RENAMED = {"qtorus.FrameMatrix.__init__": "qtorus.FrameMatrix.new"}

FOLDED = {
    "linalg.bilinear", "linalg.solve_unique", "linalg.rank", "linalg.mat_vec",
    "qtorus.FrameMatrix.omega_exp", "qtorus.FrameMatrix.new",
    "coxeter.CartanData.pair_weight", "coxeter.sigma_chain", "coxeter.is_reduced",
    "cgl.NFPoly.__add__",
}


def _cells_bilinear(args, result):
    return len(args[0]) * len(args[2])


def _cells_solve(args, result):
    a = args[0]
    return len(a) * (len(a[0]) if a else 0)


def _term_pairs(args, result):
    return len(args[1].terms) * len(args[2].terms)


def _terms_out(args, result):
    return len(result.terms)


# size counters: name -> function of (positional args, result)
SIZES = {
    "linalg.bilinear": [("linalg.bilinear.cells", _cells_bilinear)],
    "linalg.solve_unique": [("linalg.solve_unique.cells", _cells_solve)],
    "cgl.nf_mul": [("cgl.nf_mul.term_pairs", _term_pairs), ("cgl.nf_mul.terms_out", _terms_out)],
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        self.folded: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        self.spans: list[tuple] = []
        self.task: int | None = None
        self._stack: list[list] = []   # open frames: [name, layer, span id, child ns]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, name: str, layer: str, fn):
        stack, clock = self._stack, time.perf_counter_ns
        folded, sizes = name in FOLDED, SIZES.get(name, ())
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, layer, span_id, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[1] != layer:   # count where it leaves the layer
                    self.raised[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_ns[name] += dur - frame[3]
                total_ns[name] += dur
                if parent is not None:
                    parent[3] += dur
                if folded:
                    acc = self.folded[(parent[0] if parent else "task", name)]
                    acc[0] += 1
                    acc[1] += dur
                else:
                    self.spans.append((span_id, name, t0, t1, parent[2] if parent else None, self.task))
            for key, size in sizes:
                self.sizes[key] += size(args, result)
            return result

        return traced

    def install(self, lib) -> None:
        """Patch every traced function and method of the dbseeds modules in lib."""
        modules = [m for key, m in sys.modules.items() if key == "dbseeds" or key.startswith("dbseeds.")]
        for layer, qual in TRACED:
            module = getattr(lib, layer)
            name = RENAMED.get(f"{layer}.{qual}", f"{layer}.{qual}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, self._wrap(name, layer, vars(owner)[attr]))
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(name, layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------
    def write(self, path: str) -> None:
        """Spans as JSON lines, then one line per folded (parent, function) counter."""
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, task in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "task": task}) + "\n")
            for (parent, name), (calls, ns) in sorted(self.folded.items()):
                fh.write(json.dumps({"folded": name, "parent": parent, "calls": calls, "ns": ns}) + "\n")


def layer_metrics(tr: Tracer, passes: int, perms_per_pass: int) -> dict[str, tuple[float, str]]:
    """Per-pass per-layer metrics as {name: (value, unit)}."""
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        return tr.calls.get(name, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    for check in VERIFY_CHECKS:
        out[f"verify.{check}.total_ms"] = (tr.total_ns.get(f"verify.{check}", 0) / passes / 1e6, "ms")
    for layer, qual in TRACED:
        name = RENAMED.get(f"{layer}.{qual}", f"{layer}.{qual}")
        if layer == "verify":
            continue
        out[f"{name}.calls"] = (calls(name), "count")
        if name != "qtorus.FrameMatrix.new":
            out[f"{name}.self_ms"] = (tr.self_ns.get(name, 0) / passes / 1e6, "ms")
    for key in ("linalg.bilinear.cells", "linalg.solve_unique.cells", "cgl.nf_mul.term_pairs", "cgl.nf_mul.terms_out"):
        out[key] = (tr.sizes.get(key, 0) / passes, "count")
    for layer in LAYERS:
        out[f"{layer}.raised"] = (tr.raised.get(layer, 0) / passes, "count")
    sigma_seeds = calls("dbc.sigma_seed")
    out["ratio.b_columns_per_sigma_seed"] = (ratio(calls("dbc.b_columns"), sigma_seeds), "ratio")
    out["ratio.frame_product_per_sigma_seed"] = (ratio(calls("dbc.sigma_frame_product"), sigma_seeds), "ratio")
    out["ratio.check_compatible_per_mutation"] = (
        ratio(calls("seedcore.check_compatible"), calls("seedcore.mutate_seed")), "ratio")
    out["ratio.sigma_seed_per_perm"] = (ratio(sigma_seeds, perms_per_pass), "ratio")
    return out
