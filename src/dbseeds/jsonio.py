"""Canonical JSON encodings: rationals as "p/q" strings, deterministic order."""

from __future__ import annotations

from fractions import Fraction as Q

from .coxeter import CartanData, DoubleWordData
from .cgl import NFPoly
from .dbc import BZSeedData
from .qtorus import FrameMatrix, VLaurent
from .seedcore import QuantumSeed


def qstr(x) -> str:
    q = Q(x)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def encode_vlaurent(z: VLaurent) -> list[dict]:
    return [{"exp": qstr(e), "coef": qstr(c)} for e, c in sorted(z.terms.items())]


def encode_frame(frame: FrameMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in frame.psi]


def encode_cartan(cartan: CartanData) -> dict:
    return {"family": cartan.family, "rank": cartan.rank}


def _sentinel_or_index(x: int | None) -> int | None:
    return None if x is None else x + 1


def encode_double_word(dwd: DoubleWordData) -> dict:
    return {
        "eta": list(dwd.eta),
        "p": [_sentinel_or_index(x) for x in dwd.p],
        "s": [_sentinel_or_index(x) for x in dwd.s],
        "O_minus": list(dwd.o_minus),
        "O_plus": list(dwd.o_plus),
        "epsilon": list(dwd.epsilon),
        "support": sorted(dwd.support),
        "beta": [list(b) for b in dwd.beta],
        "beta_prime": [list(b) for b in dwd.beta_prime],
    }


def encode_seed(seed: QuantumSeed) -> dict:
    n = seed.size
    dense_b = [[seed.exchange.column(k)[j] for k in seed.ex] for j in range(n)]
    invertible = sorted(set(seed.ex) | set(seed.inv))
    return {
        "psi": encode_frame(seed.frame),
        "B": dense_b,
        "ex": [k + 1 for k in seed.ex],
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
    out["p"] = [_sentinel_or_index(x) for x in data.p]
    out["s"] = [_sentinel_or_index(x) for x in data.s]
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
