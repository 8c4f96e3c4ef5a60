"""Property sweeps over random reduced word pairs in every finite family."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbseeds import dbc, verify
from dbseeds.coxeter import cartan_init, is_reduced
from dbseeds.seedcore import mutate_seed

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2", "E6"]


def _reduced_word(draw, cartan, length):
    """A random reduced word, grown one letter at a time (shorter if w0 is reached)."""
    word = ()
    for _ in range(length):
        options = [a for a in range(1, cartan.rank + 1) if is_reduced(cartan, word + (a,))]
        if not options:
            break
        word += (draw(st.sampled_from(options)),)
    return word


@st.composite
def word_pairs(draw, cartan, max_size=6):
    size = draw(st.integers(0, max_size))
    n_w = draw(st.integers(0, size))
    w = _reduced_word(draw, cartan, n_w)
    u = _reduced_word(draw, cartan, size - n_w)
    return w, u


def _all_int(frame):
    return all(type(x) is int for row in frame.psi for x in row)


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_frames_are_integer_and_pairs_verify(name, data):
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    for seed in pres.seeds.values():
        assert _all_int(seed.frame)
        if seed.ex:
            assert _all_int(mutate_seed(seed, seed.ex[0]).frame)
    for variant in ("plain", "modified"):
        assert _all_int(dbc.bz_seed(cartan, w, u, variant=variant).seed.frame)
    results = verify.verify_pair(cartan, w, u, all_xi=True)
    assert all(r.ok for r in results), [(r.name, r.detail) for r in results if not r.ok]
