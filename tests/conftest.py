import itertools
from types import SimpleNamespace

import pytest

from dbseeds import coxeter
from dbseeds.coxeter import CartanData


@pytest.fixture
def skewed_weight_images(monkeypatch):
    """Every other label image off by one in its first coordinate.

    The A2 weight denominator 3 does not divide the offset, so the
    minor-labelled frame exponents turn fractional.
    """
    honest = CartanData.weight_image
    calls = itertools.count()

    def skewed(self, mu):
        image = honest(self, mu)
        return image if next(calls) % 2 == 0 else (image[0] + 1,) + image[1:]

    monkeypatch.setattr(CartanData, "weight_image", skewed)


@pytest.fixture
def spellings(monkeypatch):
    """The sigmas `DoubleWordData.spell` validates and those it builds a word for.

    `tested` records each interval test (`coxeter.xi_is_member`) and `built`
    each `SigmaWord` construction, by sigma; a word `spell` finds in its
    cache adds to neither.
    """
    tested, built = [], []
    is_member, sigma_word = coxeter.xi_is_member, coxeter.SigmaWord
    monkeypatch.setattr(coxeter, "xi_is_member", lambda sigma: tested.append(tuple(sigma)) or is_member(sigma))
    monkeypatch.setattr(coxeter, "SigmaWord", lambda *fields: built.append(fields[0]) or sigma_word(*fields))
    return SimpleNamespace(tested=tested, built=built)
