"""The four benchmark workloads.

Each workload turns a seed into a fixed list of inputs (`make_inputs`) and
runs one *pass* over them (`run_pass`), timing every task with the clock
around the library call only.  Checking and encoding happen afterwards,
outside the timed region (`check_pass`, `encode_pass`).  A run repeats the
same pass, so every pass of one run must produce identical outputs.

Library functions are always looked up through their module at call time
(`lib.verify.verify_pair`, never a local alias), so that the tracer's
patches take effect.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace


@dataclass
class PassResult:
    """Outcome of one pass: per-task latencies and outputs, plus failures."""

    task_t: list[tuple[float, float]] = field(default_factory=list)  # start and end of each attempted task
    timed_s: float = 0.0                                # timed wall time, set-up of the pass included
    outputs: list = field(default_factory=list)         # one output per task, None when it raised
    errors: dict[int, str] = field(default_factory=dict)  # task index -> exception text
    start: object = None                                # bigseed-walk: the seed the walk starts from
    tracer: object = None                               # when set, told which task is running
    digest: str = ""                                    # SHA-256 of the encoded outputs
    task_ref: list[tuple[float, float]] = field(default_factory=list)  # (wall s, reference s) per task


def _timed(result: PassResult, fn, *args):
    """Call fn(*args) under the clock; record latency, output or error."""
    if result.tracer is not None:
        result.tracer.task = len(result.task_t)
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:   # a raising task is a failed task, not a crashed benchmark
        dt = time.perf_counter() - t0
        result.errors[len(result.task_t)] = f"{type(exc).__name__}: {exc}"
        out = None
    else:
        dt = time.perf_counter() - t0
    result.task_t.append((t0, t0 + dt))
    result.timed_s += dt
    result.outputs.append(out)
    return out


def _words_of_length(lib, cartan, length):
    return [w for w in lib.coxeter.enumerate_reduced_words(cartan, length) if len(w) == length]


# ---------------------------------------------------------------------------
# Word-pair verification: allxi and sweep-small
# ---------------------------------------------------------------------------


def _verify_pass(lib, inputs, res: PassResult, all_xi: bool) -> PassResult:
    for cartan, _name, w, u in inputs.pairs:
        _timed(res, lambda c=cartan, w=w, u=u: lib.verify.verify_pair(c, w, u, all_xi=all_xi))
    return res


def _verify_check(lib, inputs, res: PassResult) -> dict[int, str]:
    bad = {}
    for i, checks in enumerate(res.outputs):
        if checks is None:
            continue
        failed = [c.name for c in checks if not c.ok]
        if failed:
            bad[i] = "checks failed: " + ", ".join(failed)
    return bad


def _verify_encode(lib, inputs, res: PassResult):
    out = []
    for (_cartan, name, w, u), checks in zip(inputs.pairs, res.outputs):
        out.append({
            "type": name,
            "w": list(w),
            "u": list(u),
            "checks": None if checks is None else [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
            ],
        })
    return out


def _perms(pairs) -> int:
    """Interval permutations one pass enumerates: 2^(n-1) per pair."""
    return sum(1 << (len(w) + len(u) - 1) for _c, _n, w, u in pairs)


def letter_pattern(w, u) -> tuple[int, ...]:
    """The double word reversed(w) + u with letters renamed by first occurrence."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(x, len(first)) for x in tuple(reversed(w)) + tuple(u))


def pairs_by_pattern(ws, us) -> dict[tuple[int, ...], list]:
    """The pairs of ws x us grouped by letter pattern, each group in ws x us order."""
    groups: dict[tuple[int, ...], list] = {}
    for w in ws:
        for u in us:
            groups.setdefault(letter_pattern(w, u), []).append((w, u))
    return groups


def _draw_like(rng, design_rng, ws, us, groups):
    """A random pair from ws x us with the letter pattern of a design pair.

    `groups` is `pairs_by_pattern(ws, us)`, built once per word lengths and
    shared by every draw from them.  The design pair comes from a stream
    that is the same for every seed; the seed only picks which pair of that
    pattern runs.  Pairs with one pattern build seeds of one shape (sizes,
    exchangeable sets, chains), so the seed changes the words but not the
    amount of work.
    """
    return rng.choice(groups[letter_pattern(design_rng.choice(ws), design_rng.choice(us))])


# allxi: three shapes; the A3 pair is the n=8 reference of the roadmap.
ALLXI_SHAPES = (("A", 3, 5, 3), ("B", 2, 3, 3), ("G", 2, 3, 3))


def allxi_inputs(lib, seed: int):
    rng, design = random.Random(f"allxi:{seed}"), random.Random("allxi:design")
    pairs = []
    for fam, rank, lw, lu in ALLXI_SHAPES:
        cartan = lib.coxeter.cartan_init(fam, rank)
        ws, us = _words_of_length(lib, cartan, lw), _words_of_length(lib, cartan, lu)
        w, u = _draw_like(rng, design, ws, us, pairs_by_pattern(ws, us))
        pairs.append((cartan, f"{fam}{rank}", w, u))
    return SimpleNamespace(pairs=pairs, tasks=len(pairs), perms=_perms(pairs))


# sweep-small: a fixed number of pairs of each shape per type, each drawn
# to a fixed letter pattern.
SWEEP_TYPES = (("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2))
SWEEP_SHAPES = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
SWEEP_PER_TYPE = 13   # 104 pairs per pass, so p90 leaves >= 10 samples beyond it


def sweep_inputs(lib, seed: int):
    rng, design = random.Random(f"sweep-small:{seed}"), random.Random("sweep-small:design")
    pairs = []
    for fam, rank in SWEEP_TYPES:
        cartan = lib.coxeter.cartan_init(fam, rank)
        by_len = {n: _words_of_length(lib, cartan, n) for n in (1, 2, 3)}
        groups = {(lw, lu): pairs_by_pattern(by_len[lw], by_len[lu]) for lw, lu in SWEEP_SHAPES}
        for i in range(SWEEP_PER_TYPE):
            lw, lu = SWEEP_SHAPES[i % len(SWEEP_SHAPES)]
            w, u = _draw_like(rng, design, by_len[lw], by_len[lu], groups[lw, lu])
            pairs.append((cartan, f"{fam}{rank}", w, u))
    return SimpleNamespace(pairs=pairs, tasks=len(pairs), perms=_perms(pairs))


# ---------------------------------------------------------------------------
# bigseed-walk: a seeded mutation walk on the A3 (w0, w0) seed, n = 12
# ---------------------------------------------------------------------------

WALK_OUT = 15   # steps out; as many back, so 30 tasks and a p66.7 tail per pass


def walk_inputs(lib, seed: int):
    """Mutation indices of a round trip: WALK_OUT seeded steps, then back.

    The way out never repeats the previous index.  The way back repeats the
    way out in reverse, so that each step back must restore the seed before
    the matching step out: the walk checks its own involution, and no extra
    mutations are needed to check it.
    """
    rng, design = random.Random(f"bigseed-walk:{seed}"), random.Random("bigseed-walk:design")
    cartan = lib.coxeter.cartan_init("A", 3)
    w0_words = _words_of_length(lib, cartan, 6)
    w, u = _draw_like(rng, design, w0_words, w0_words, pairs_by_pattern(w0_words, w0_words))
    # exchangeable positions of the reversed-w seed: those with a later
    # position of the same letter; mutation keeps this set
    eta = tuple(reversed(w)) + u
    ex = [k for k in range(len(eta)) if eta[k] in eta[k + 1:]]
    out, prev = [], None
    for _ in range(WALK_OUT):
        prev = rng.choice([j for j in ex if j != prev])
        out.append(prev)
    steps = out + out[::-1]
    return SimpleNamespace(cartan=cartan, w=w, u=u, steps=steps, tasks=len(steps), perms=0)


def _walk_build(lib, inputs):
    pres = lib.dbc.bowtie_build(inputs.cartan, inputs.w, inputs.u)
    return lib.dbc.sigma_seed(pres, lib.dbc.w0_permutation(pres.dwd)).seed


def walk_pass(lib, inputs, res: PassResult) -> PassResult:
    t0 = time.perf_counter()
    seed = _walk_build(lib, inputs)
    res.timed_s += time.perf_counter() - t0   # the build is timed but is not a task
    res.start = seed
    for i, k in enumerate(inputs.steps):
        seed = _timed(res, lib.seedcore.mutate_seed, seed, k)
        if seed is None:   # the walk cannot continue past a failed step
            for j in range(i + 1, len(inputs.steps)):
                res.errors[j] = "not attempted: an earlier step failed"
            break
    return res


def _same_seed(a, b) -> bool:
    return a.frame.psi == b.frame.psi and a.exchange == b.exchange and a.degrees == b.degrees


def walk_check(lib, inputs, res: PassResult) -> dict[int, str]:
    """Every seed on the way out is compatible; the way back retraces it.

    Step back j must reproduce the seed before step out n-1-j.  That is
    "mutating back at the same index restores the previous seed" for every
    step out, and, mutation being applied to equal seeds, for every step
    back; the seeds on the way back equal seeds already checked compatible.
    """
    seeds = [res.start] + res.outputs
    if any(s is None for s in seeds):
        return {}   # the failed step is already in res.errors
    half = len(inputs.steps) // 2
    bad = {}
    for i in range(half):
        if not lib.seedcore.check_compatible(seeds[i + 1]).ok:
            bad[i] = f"step {i} (k={inputs.steps[i]}) is not compatible"
    for j in range(half):
        if not _same_seed(seeds[half + 1 + j], seeds[half - 1 - j]):
            bad[half + j] = f"step back {j} does not restore the seed before step {half - 1 - j}"
    return bad


def walk_encode(lib, inputs, res: PassResult):
    enc = lib.jsonio.encode_seed
    return {
        "w": list(inputs.w),
        "u": list(inputs.u),
        "start": enc(res.start),
        "steps": [
            {"k": k, "seed": None if s is None else enc(s)} for k, s in zip(inputs.steps, res.outputs)
        ],
    }


# ---------------------------------------------------------------------------
# cgl-audit: associativity triples in the normal-form engine
# ---------------------------------------------------------------------------

CGL_TRIPLES = 150     # per shipped presentation and pass
CGL_MAX_DEGREE = 5


def cgl_inputs(lib, seed: int):
    """A fixed population of triples, run in an order the seed shuffles.

    A triple's cost grows about exponentially with the x_k x_j inversions
    its products straighten, so a few triples dominate a pass: independent
    draws of 300 triples took 2.4 to 9.4 s per pass from seed to seed.  The
    population is therefore drawn once, from a stream that does not depend
    on the seed, the way `cgl.audit_presentation` draws its monomials.
    """
    population = random.Random("cgl-audit:population")
    presets = [("sl2", lib.cgl.sl2_presentation()[0]), ("a2", lib.cgl.a2_presentation()[0])]

    def monomial(n):
        f = [0] * n
        for _ in range(population.randint(0, CGL_MAX_DEGREE)):
            f[population.randrange(n)] += 1
        return lib.cgl.NFPoly.monomial(tuple(f))

    triples = []
    for _ in range(CGL_TRIPLES):
        for name, pres in presets:
            triples.append((name, pres, monomial(pres.n), monomial(pres.n), monomial(pres.n)))
    random.Random(f"cgl-audit:{seed}").shuffle(triples)
    return SimpleNamespace(triples=triples, tasks=len(triples), perms=0)


def _associator(lib, pres, a, b, c):
    """(ab)c, and whether it equals a(bc)."""
    nf_mul = lib.cgl.nf_mul
    left = nf_mul(pres, nf_mul(pres, a, b), c)
    return left, left == nf_mul(pres, a, nf_mul(pres, b, c))


def cgl_pass(lib, inputs, res: PassResult) -> PassResult:
    for _name, pres, a, b, c in inputs.triples:
        _timed(res, _associator, lib, pres, a, b, c)
    return res


def cgl_check(lib, inputs, res: PassResult) -> dict[int, str]:
    return {
        i: "associativity fails"
        for i, out in enumerate(res.outputs)
        if out is not None and not out[1]
    }


def cgl_encode(lib, inputs, res: PassResult):
    enc = lib.jsonio.encode_nfpoly
    return [
        {
            "pres": name,
            "a": enc(a), "b": enc(b), "c": enc(c),
            "product": None if out is None else enc(out[0]),
        }
        for (name, _pres, a, b, c), out in zip(inputs.triples, res.outputs)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object   # (lib, seed) -> inputs with .tasks and .perms
    run_pass: object      # (lib, inputs, empty PassResult) -> the filled PassResult
    check_pass: object    # (lib, inputs, PassResult) -> {task index: reason}
    encode_pass: object   # (lib, inputs, PassResult) -> JSON-able outputs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("allxi", allxi_inputs, lambda lib, inp, res: _verify_pass(lib, inp, res, True), _verify_check, _verify_encode),
        Workload("bigseed-walk", walk_inputs, walk_pass, walk_check, walk_encode),
        Workload("sweep-small", sweep_inputs, lambda lib, inp, res: _verify_pass(lib, inp, res, False), _verify_check, _verify_encode),
        Workload("cgl-audit", cgl_inputs, cgl_pass, cgl_check, cgl_encode),
    )
}
