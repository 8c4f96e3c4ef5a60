"""Canonical JSON encodings: rationals as "p/q" strings, deterministic order."""

from __future__ import annotations

from fractions import Fraction as Q

from .coxeter import CartanData, DoubleWordData, Walk
from .cgl import NFPoly
from .dbc import BZSeedData
from .qtorus import FrameMatrix, VLaurent
from .seedcore import ExchangeMatrix, QuantumSeed


def qstr(x) -> str:
    q = Q(x)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def encode_vlaurent(z: VLaurent) -> list[dict]:
    return [{"exp": qstr(e), "coef": qstr(c)} for e, c in sorted(z.terms.items())]


def encode_frame(frame: FrameMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in frame.psi]


def encode_cartan(cartan: CartanData) -> dict:
    return {"family": cartan.family, "rank": cartan.rank}


def encode_walk(walk: Walk) -> dict:
    """The walk's p and s as 1-based positions, null where there is no neighbour."""
    sides = {"p": walk.pred, "s": walk.succ}
    return {key: [None if x is None else x + 1 for x in side] for key, side in sides.items()}


def encode_double_word(dwd: DoubleWordData) -> dict:
    return {
        "eta": list(dwd.eta),
        **encode_walk(dwd.walk),
        "O_minus": list(dwd.walk.o_minus),
        "O_plus": list(dwd.walk.o_plus),
        "epsilon": list(dwd.epsilon),
        "support": sorted(set(dwd.eta)),
        "beta": [list(b) for b in dwd.beta],
        "beta_prime": [list(b) for b in dwd.beta_prime],
    }


def encode_exchange(b: ExchangeMatrix) -> dict:
    """The dense n x |ex| matrix "B", a column per exchangeable index, and those indices 1-based as "ex"."""
    return {"B": [[col[j] for col in b.cols] for j in range(b.n)], "ex": [k + 1 for k in b.ex]}


def encode_seed(seed: QuantumSeed) -> dict:
    n = seed.size
    invertible = sorted(set(seed.ex) | set(seed.inv))
    return {
        "psi": encode_frame(seed.frame),
        **encode_exchange(seed.exchange),
        "inv": sorted(k + 1 for k in seed.inv),
        "degrees": [list(v) for v in seed.degrees],
        "d": list(seed.d),
        # generators of the seed's mixed torus: which come inverted
        "torus_generators": {
            "invertible": [k + 1 for k in invertible],
            "plain": [k + 1 for k in range(n) if k not in invertible],
        },
    }


def encode_bz(data: BZSeedData) -> dict:
    out = encode_seed(data.seed)
    out["variant"] = data.variant
    out["labels"] = [
        {"gamma": list(g), "delta": list(d)} for g, d in data.labels
    ]
    out["eta"] = list(data.eta)
    out.update(encode_walk(data.walk))
    return out


def encode_nfpoly(a: NFPoly) -> dict:
    items = sorted(a.terms.items(), key=lambda t: tuple(reversed(t[0])))
    return {"terms": [{"exp": list(f), "coef": encode_vlaurent(c)} for f, c in items]}


def encode_presentation(pres) -> dict:
    tails = [
        {"k": k + 1, "j": j + 1, "poly": encode_nfpoly(t)}
        for (k, j), t in sorted(pres.tails.items())
    ]
    return {
        "n": pres.n,
        "lambda_exp": [list(row) for row in pres.lambda_exp],
        "tails": tails,
        "eta": list(pres.eta),
        "degrees": [list(v) for v in pres.degrees],
    }
