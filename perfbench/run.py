"""Benchmark of the dbseeds library: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload allxi --seed 0 --seconds 15 --trace 0

It imports `dbseeds` from `./src` (never from an installed copy), builds
the workload's inputs from `--seed`, repeats whole passes over them until
`--seconds` of timed work have run, checks every output outside the timed
region, and prints two JSON lines: a record with metadata and every metric
of the workload, then the result line `{"correct", "attempted", "failed",
"metrics"}`.  Its times are in reference seconds: wall time corrected for
the host's speed by a probe that runs beside the work (speedprobe.py).
With `--trace 1` it runs untraced and traced passes in
turn, reports the per-layer metrics, and writes the spans to
`.bench_out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import layertrace
import workloads
from speedprobe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("verify", "dbc", "seedcore", "qtorus", "linalg", "coxeter", "cgl", "jsonio")
SETUP_REPS = 9   # reported set-ups, after one that is not reported


class SourceMissing(RuntimeError):
    pass


def load_library() -> SimpleNamespace:
    """Import dbseeds afresh from ./src, dropping any copy imported before."""
    if not (SRC / "dbseeds" / "__init__.py").is_file():
        raise SourceMissing(f"no dbseeds sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "dbseeds" or k.startswith("dbseeds.")]:
        del sys.modules[key]
    lib = SimpleNamespace(**{m: importlib.import_module(f"dbseeds.{m}") for m in MODULES})
    if Path(sys.modules["dbseeds"].__file__).resolve().parent != (SRC / "dbseeds").resolve():
        raise SourceMissing("dbseeds was imported from outside ./src")
    return lib


def setup(workload, seed: int):
    """Import, Cartan data and inputs, 1 + SETUP_REPS times; the last set is used.

    The first set-up of a process also imports the standard-library modules
    that dbseeds uses, and in a fresh checkout compiles its bytecode; it is
    not timed.  Returns the reference seconds (see speedprobe) of the others.
    """
    lib = load_library()
    inputs = workload.make_inputs(lib, seed)
    times = []
    for _ in range(SETUP_REPS):
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            lib = load_library()
            inputs = workload.make_inputs(lib, seed)
            t1 = time.perf_counter()
        times.append(probe.ref_seconds(t0, t1)[1])
    return lib, inputs, times


def digest(lib, workload, inputs, res) -> str:
    """SHA-256 of the canonical JSON of one pass's outputs."""
    text = json.dumps(workload.encode_pass(lib, inputs, res), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def one_pass(lib, workload, inputs, tracer=None, check=False, probed=True):
    """One pass, digested; its outputs are then dropped, so memory stays flat.

    When `probed`, the pass runs under a speed probe, and each task's wall
    and reference seconds are kept in `res.task_ref`.  With `check`,
    the pass gets every check of its workload, outside the timed region.
    Digesting calls no traced function.
    """
    res = workloads.PassResult(tracer=tracer)
    if probed:
        with SpeedProbe() as probe:
            workload.run_pass(lib, inputs, res)
        res.task_ref = [probe.ref_seconds(t0, t1) for t0, t1 in res.task_t]
    else:
        workload.run_pass(lib, inputs, res)
    if check:
        res.errors.update(workload.check_pass(lib, inputs, res))
    res.digest = digest(lib, workload, inputs, res)
    res.outputs, res.start = None, None
    return res


def run_timed(lib, workload, inputs, seconds: float) -> list:
    """Whole passes until `seconds` of timed work (at least one pass); the first is checked."""
    passes = [one_pass(lib, workload, inputs, check=True)]
    while sum(res.timed_s for res in passes) < seconds:
        passes.append(one_pass(lib, workload, inputs))
    return passes


def run_traced(lib, workload, inputs, seconds: float):
    """Untraced and traced passes in turn, until `seconds` of traced work.

    The tracer is installed for each traced pass and removed after it, so
    each traced pass has an untraced pass just before it to be compared
    with.  No pass is probed: probes would add to the traced functions'
    times.  The first untraced pass gets the workload's checks.  Returns all
    passes in the order run, the traced ones, and the tracer.
    """
    tracer = layertrace.Tracer()
    passes, traced = [], []
    while not traced or sum(res.timed_s for res in traced) < seconds:
        passes.append(one_pass(lib, workload, inputs, check=not passes, probed=False))
        tracer.install(lib)
        try:
            traced.append(one_pass(lib, workload, inputs, tracer=tracer, probed=False))
        finally:
            tracer.uninstall()
        passes.append(traced[-1])
    return passes, traced, tracer


def committed_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def count_failures(passes, tasks: int, want: str | None) -> tuple[int, list[str]]:
    """Failed tasks and the reasons.

    The first pass must match the committed digest for the seed, if there
    is one, and every later pass the first pass's digest; since the first
    pass was checked, a later pass with the same digest passes the same
    checks.  A digest mismatch fails every task of its pass.
    """
    failed, reasons = 0, []
    for i, res in enumerate(passes):
        ref = want if i == 0 else passes[0].digest
        if ref is not None and res.digest != ref:
            reasons.append(f"pass {i}: digest {res.digest[:12]} does not match {ref[:12]}")
            failed += tasks
            continue
        failed += len(res.errors)
        reasons.extend(f"pass {i} task {t}: {why}" for t, why in sorted(res.errors.items()))
    return failed, reasons


def task_latencies(passes, kind: int) -> list[float]:
    """Each task's median latency over the run's passes, in seconds.

    `kind` 0 takes wall seconds, 1 reference seconds (see speedprobe).
    """
    return [statistics.median(lat[kind] for lat in task) for task in zip(*(res.task_ref for res in passes))]


def tail_beyond(tasks: int) -> int:
    """Tasks beyond the tail percentile: 10, or none with 10 or fewer tasks."""
    return 10 if tasks > 10 else 0


def tail_percentile(tasks: int) -> float:
    """Highest percentile with at least 10 tasks beyond it; the maximum with 10 or fewer tasks."""
    return 100.0 * (1 - tail_beyond(tasks) / tasks)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # ru_maxrss is in KiB on Linux


def end_to_end(latency, setup_times) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from each task's median latency in the run."""
    lat = sorted(t * 1e3 for t in latency)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "tasks_per_s": (len(lat) / sum(latency), "1/s"),
        "task_p50_ms": (statistics.median(lat), "ms"),
        "task_tail_ms": (lat[-1 - tail_beyond(len(lat))], "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    t_start = time.perf_counter()

    try:
        lib, inputs, setup_times = setup(wl, args.seed)
    except (SourceMissing, ImportError) as exc:
        print(f"perfbench: cannot import dbseeds from {SRC}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        passes, traced, tracer = run_traced(lib, wl, inputs, args.seconds)
    else:
        passes = run_timed(lib, wl, inputs, args.seconds)

    want = committed_digest(wl.name, args.seed)
    failed, reasons = count_failures(passes, inputs.tasks, want)
    attempted = inputs.tasks * len(passes)
    d0 = passes[0].digest
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "tasks_per_pass": inputs.tasks,
        "perms_per_pass": inputs.perms,
        "passes": len(passes),
        "pass_timed_s": [res.timed_s for res in passes],
        "elapsed_s": time.perf_counter() - t_start,
        "setup_s_reps": setup_times,
        "digest": d0,
        "digest_committed": "absent" if want is None else ("match" if want == d0 else "mismatch"),
        "failures": reasons[:20],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines(),
    }
    if args.trace:
        metrics = layertrace.layer_metrics(tracer, len(traced), inputs.perms)
        # passes alternate untraced, traced: compare each traced pass with the one before it
        slowdown = [t.timed_s / u.timed_s for u, t in zip(passes[::2], passes[1::2])]
        metrics["trace.overhead_frac"] = (statistics.median(slowdown) - 1, "ratio")
        record["trace_slowdown"] = slowdown
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["span_count"] = len(tracer.spans)
    else:
        latency = task_latencies(passes, 1)
        metrics = end_to_end(latency, setup_times)
        extra = {"failed_frac": (failed / attempted, "ratio")}
        if inputs.perms:
            extra["perms_per_s"] = (inputs.perms / sum(latency), "1/s")
        wall = task_latencies(passes, 0)
        record["wall"] = {"tasks_per_s": len(wall) / sum(wall), "task_p50_ms": statistics.median(wall) * 1e3,
                          "task_tail_ms": sorted(wall)[-1 - tail_beyond(len(wall))] * 1e3}
        record["tail"] = {"percentile": tail_percentile(inputs.tasks), "tasks": inputs.tasks,
                          "tasks_beyond": tail_beyond(inputs.tasks)}
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()}
    record["peak_rss_mib"] = peak_rss_mib()

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
