"""Command-line surface: seed construction, mutation, verification sweeps.

Exit codes: 0 success, 1 a verification check failed, 2 validation failure
(a mutation step outside 1..n among them, and an --out path that cannot be
written, refused before any work where it can be), 3 a mutation step at a
frozen index or from an incompatible seed, 141 (128 + SIGPIPE) the reader
closed stdout before the output was written; nothing is printed then.
`xi-list --n` is bounded by `coxeter.XI_MAX_N`, since it prints all 2^(n-1)
interval permutations, and the rank of a type by RANK_MAX, since the Cartan
data of rank r takes r^2 entries and about r^3 steps to build.  The same
bound, read when a command runs, caps n = |w| + |u| for `verify`, with or
without --all-xi, and for `seed --sigma all-xi`, which build all 2^(n-1)
sigma-seeds; a larger n exits 2 before any seed is built.
`cgl-nf --word` is bounded by CGL_NF_MAX_LETTERS, since straightening a
word costs about exponentially in its length; a longer word exits 2 before
any product is computed, and so does a product that exhausts the
engine's rewrite budget, `cgl.REWRITE_BUDGET`.  The README gives the time
and peak memory of the slowest inputs found at each bound.
All output is JSON with sorted keys; rationals are "p/q" strings.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys

from . import coxeter, dbc, jsonio, verify
from .cgl import NFPoly, RewriteBudgetExceeded, nf_mul_all, shipped_presentations
from .coxeter import (
    InvalidCartanType,
    LetterOutOfRange,
    NonReducedWordError,
    NotAPermutation,
    NotIntervalPermutation,
    SigmaWord,
    cartan_init,
    xi_enumerate,
)
from .seedcore import NotExchangeable, check_compatible, graded_reduce, mutate_seed


EXIT_BROKEN_PIPE = 141
RANK_MAX = 64        # Cartan data of rank r takes r^2 entries and about r^3 steps to build
CGL_NF_MAX_LETTERS = 24   # straightening cost grows about exponentially with the word length


class ValidationFailure(Exception):
    """A refused input; `main` prints it as {"error": message} and exits 2."""


def _parse_type(type_str: str, rank) :
    s = type_str.strip()
    if rank is None:
        if not (len(s) >= 2 and s[0].isalpha() and s[1:].isdecimal()):
            raise ValidationFailure(f"cannot parse type {type_str!r}; give e.g. A2 or --type A --rank 2")
        s, rank = s[0], s[1:]
    rank = int(rank)
    if rank > RANK_MAX:
        raise ValidationFailure(f"rank must be at most {RANK_MAX}; got {rank}")
    return cartan_init(s, rank)


def _parse_word(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationFailure(f"bad word {text!r}; expected comma-separated letters") from None


def _parse_sigma(text: str, dwd) -> SigmaWord:
    n = dwd.size
    if text == "id":
        return dwd.spell(range(n))
    if text == "wN":
        return dwd.spell(dbc.w0_permutation(dwd))
    try:
        perm = tuple(int(x) - 1 for x in text.split(","))
    except ValueError:
        raise ValidationFailure(
            f"bad permutation {text!r}; expected \"id\", \"wN\" or comma-separated positions"
        ) from None
    try:
        return dwd.spell(perm)
    except NotAPermutation:
        raise ValidationFailure(f"{text!r} is not a permutation of 1..{n}") from None
    except NotIntervalPermutation:
        raise ValidationFailure(f"{text!r} fails the interval test") from None


def _check_out(out_path: str | None) -> None:
    """Refuse, before any work, an --out path `_emit` could not open, with the reason `open` gives."""
    if not out_path:
        return
    parent = os.path.dirname(out_path) or "."
    try:
        if os.path.isdir(out_path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if not os.access(parent, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise ValidationFailure(f"cannot write --out {out_path!r}: {exc.strerror}") from None


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValidationFailure(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from None
    else:
        print(text)


def _parse_pair(args):
    cartan = _parse_type(args.type, getattr(args, "rank", None))
    return cartan, _parse_word(args.w), _parse_word(args.u)


def _bound_xi_sweep(w, u, sweep: str) -> None:
    """Refuse, before any seed is built, a pair whose 2^(n-1) sigma-seeds pass the bound."""
    n = len(w) + len(u)
    if n > coxeter.XI_MAX_N:
        raise ValidationFailure(
            f"|w| + |u| must be at most {coxeter.XI_MAX_N}, got {n}; {sweep} all 2^(n-1) interval permutations"
        )


def cmd_seed(args) -> int:
    sigma_text = args.sigma
    if args.bz + args.mbz + args.bfz > 1:
        raise ValidationFailure("--bz, --mbz and --bfz each select a seed; give at most one")
    if sigma_text is not None and (args.bz or args.mbz or args.bfz):
        raise ValidationFailure("--sigma selects a permutation seed; it cannot be combined with --bz, --mbz or --bfz")
    if args.reduce and not (args.bz or args.mbz):
        raise ValidationFailure("--reduce applies only to the minor-labelled seeds of --bz or --mbz")
    cartan, w, u = _parse_pair(args)
    if sigma_text == "all-xi":
        _bound_xi_sweep(w, u, "seed --sigma all-xi prints the seeds of")
    pres = dbc.bowtie_build(cartan, w, u)
    dwd = pres.dwd
    payload: dict = {
        "cartan": jsonio.encode_cartan(cartan),
        "w": list(w),
        "u": list(u),
        "double_word": jsonio.encode_double_word(dwd),
    }
    if args.bz or args.mbz:
        data = pres.bz["modified" if args.mbz else "plain"]
        if args.reduce:
            payload["seed"] = jsonio.encode_seed(graded_reduce(data.seed, cartan.rank))
            payload["reduced_from"] = jsonio.encode_bz(data)
        else:
            payload["seed"] = jsonio.encode_bz(data)
    elif args.bfz:
        payload["seed"] = jsonio.encode_exchange(dbc.bfz_matrix(dwd))
    else:
        def entry(sigma, seed) -> dict:
            return {**jsonio.encode_seed(seed), "sigma": [x + 1 for x in sigma]}

        if sigma_text == "all-xi":
            payload["seeds"] = [entry(word.sigma, seed) for word, seed in pres.sweep]
        else:
            sigma = _parse_sigma("id" if sigma_text is None else sigma_text, dwd).sigma
            payload["seed"] = entry(sigma, pres.seed(sigma))
    _emit(payload, args.out)
    return 0


def cmd_mutate(args) -> int:
    if args.sigma == "all-xi":
        raise ValidationFailure("mutate starts from one seed; --sigma all-xi is only for the seed command")
    pres = dbc.bowtie_build(*_parse_pair(args))
    seed = pres.seed(_parse_sigma(args.sigma, pres.dwd).sigma)
    seq = _parse_word(args.seq)
    n = pres.size
    for step in seq:
        if not 1 <= step <= n:
            raise ValidationFailure(f"mutation step {step} is out of range 1..{n}")
    report = check_compatible(seed)
    error = None if report.ok else f"mutation of an incompatible seed: {report}"
    steps = []
    for step in seq:
        if error is None:
            try:
                seed = mutate_seed(seed, step - 1)
            except NotExchangeable:
                error = f"index {step} is not exchangeable"
            else:
                if not check_compatible(seed).ok:
                    error = "mutation destroyed compatibility; construction bug"
        if error is not None:
            steps.append({"k": step, "compatible": False, "error": error})
            _emit({"steps": steps, "error": error}, args.out)
            return 3
        steps.append({"k": step, "compatible": True})
    _emit({"seed": jsonio.encode_seed(seed), "steps": steps}, args.out)
    return 0


def cmd_verify(args) -> int:
    cartan, w, u = _parse_pair(args)
    _bound_xi_sweep(w, u, "verify builds the seeds of")
    results = verify.verify_pair(cartan, w, u, all_xi=args.all_xi)
    payload = {
        "cartan": jsonio.encode_cartan(cartan),
        "w": list(w),
        "u": list(u),
        "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
        "ok": all(r.ok for r in results),
    }
    _emit(payload, args.out)
    return 0 if payload["ok"] else 1


def cmd_xi_list(args) -> int:
    n = args.n
    if n < 1:
        raise ValidationFailure("n must be at least 1")
    if n > coxeter.XI_MAX_N:
        raise ValidationFailure(f"n must be at most {coxeter.XI_MAX_N}; xi-list prints all 2^(n-1) permutations")
    perms = [[x + 1 for x in sigma] for sigma in xi_enumerate(n)]
    _emit({"n": n, "count": len(perms), "permutations": perms}, args.out)
    return 0


def cmd_cgl_nf(args) -> int:
    presets = shipped_presentations()
    if args.preset not in presets:
        raise ValidationFailure(f"unknown preset {args.preset!r}; have {sorted(presets)}")
    pres, _ = presets[args.preset]
    word = _parse_word(args.word)
    if len(word) > CGL_NF_MAX_LETTERS:
        raise ValidationFailure(f"--word takes at most {CGL_NF_MAX_LETTERS} letters, got {len(word)}")
    for letter in word:
        if not 1 <= letter <= pres.n:
            raise ValidationFailure(f"generator {letter} out of range 1..{pres.n}")
    out = nf_mul_all(pres, [NFPoly.generator(pres.n, letter - 1) for letter in word])
    _emit(
        {
            "preset": args.preset,
            "word": list(word),
            "normal_form": jsonio.encode_nfpoly(out),
            "presentation": jsonio.encode_presentation(pres),
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dbseeds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True, help="finite type, e.g. A2 (or letter with --rank)")
        p.add_argument("--rank", type=int, default=None)
        p.add_argument("--w", default="", help="comma-separated reduced word")
        p.add_argument("--u", default="", help="comma-separated reduced word")
        p.add_argument("--out", default=None)

    p_seed = sub.add_parser("seed", help="construct seeds")
    common(p_seed)
    p_seed.add_argument("--sigma", default=None, help='permutation, "id" (the default), "wN", or "all-xi"')
    p_seed.add_argument("--bz", action="store_true")
    p_seed.add_argument("--mbz", action="store_true")
    p_seed.add_argument("--bfz", action="store_true")
    p_seed.add_argument("--reduce", action="store_true")
    p_seed.set_defaults(func=cmd_seed)

    p_mut = sub.add_parser("mutate", help="apply a mutation sequence")
    common(p_mut)
    p_mut.add_argument("--sigma", default="id")
    p_mut.add_argument("--seq", required=True, help="comma-separated 1-based indices")
    p_mut.set_defaults(func=cmd_mutate)

    p_ver = sub.add_parser("verify", help="run the named checks for one word pair")
    common(p_ver)
    p_ver.add_argument("--all-xi", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_xi = sub.add_parser("xi-list", help="enumerate interval permutations")
    p_xi.add_argument("--n", type=int, required=True, help=f"permutation size, 1..{coxeter.XI_MAX_N}")
    p_xi.add_argument("--out", default=None)
    p_xi.set_defaults(func=cmd_xi_list)

    p_nf = sub.add_parser("cgl-nf", help="normal form of a generator word in a shipped presentation")
    p_nf.add_argument("--preset", required=True)
    p_nf.add_argument("--word", required=True, help=f"comma-separated generators, at most {CGL_NF_MAX_LETTERS}")
    p_nf.add_argument("--out", default=None)
    p_nf.set_defaults(func=cmd_cgl_nf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nothing is left for the flush at interpreter exit to write: on
        # Python 3.10-3.13 a closed pipe exits 141 with an empty stderr
        return EXIT_BROKEN_PIPE
    except (ValidationFailure, InvalidCartanType, LetterOutOfRange, NonReducedWordError, RewriteBudgetExceeded) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
