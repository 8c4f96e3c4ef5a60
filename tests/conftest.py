import itertools

import pytest

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
