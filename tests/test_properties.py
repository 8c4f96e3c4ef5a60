"""Property sweeps over random reduced word pairs in every finite family."""

from fractions import Fraction as Q
from functools import cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dbseeds import dbc, verify
from dbseeds.coxeter import cartan_init, is_reduced, xi_enumerate
from dbseeds.qtorus import frame_restrict
from dbseeds.seedcore import mutate_seed

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2", "E6"]
EVERY_TYPE = (
    [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)] + [f"C{r}" for r in range(3, 9)]
    + [f"D{r}" for r in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


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
    for data in pres.bz.values():
        assert _all_int(data.seed.frame)
    results = verify.verify_pair(cartan, w, u, all_xi=True)
    assert all(r.ok for r in results), [(r.name, r.detail) for r in results if not r.ok]


@pytest.mark.parametrize("name", TYPES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_sigma_frame_recursion_is_the_chain_congruence(name, data):
    # the general restriction rule along the chain indicator vectors, and the
    # product formula, are both oracles for the recursion in `sigma_frame`
    cartan = cartan_init(name[0], int(name[1:]))
    w, u = data.draw(word_pairs(cartan))
    pres = dbc.bowtie_build(cartan, w, u)
    n = pres.size
    for sigma in xi_enumerate(n) if n else [()]:
        vectors = [tuple(int(j in chain) for j in range(n)) for chain in pres.chains(sigma)]
        frame = dbc.sigma_frame(pres, sigma)
        assert frame == frame_restrict(pres.nu, vectors) == dbc.sigma_frame_product(pres, sigma)


@cache
def _sympy_weight_pairing(name):
    """<w_i, w_j> = ((C^-1)^T D)_ij by sympy, as Fractions."""
    cartan = cartan_init(name[0], int(name[1:]))
    table = sympy.Matrix(cartan.cartan).inv().T * sympy.diag(*cartan.d)
    return tuple(tuple(Q(int(x.p), int(x.q)) for x in table.row(i)) for i in range(cartan.rank))


def _fraction_frame(table, labels):
    """Frame exponents <gamma_j, gamma_k> - <delta_j, delta_k>, one Fraction pairing per entry."""
    def pair(mu, nu):
        return sum(
            x * y * table[a][b] for a, x in enumerate(mu) if x for b, y in enumerate(nu) if y
        )

    n = len(labels)
    psi = [[Q(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(j):
            (gj, dj), (gk, dk) = labels[j], labels[k]
            psi[j][k] = pair(gj, gk) - pair(dj, dk)
            psi[k][j] = -psi[j][k]
    return psi


@pytest.mark.parametrize("name", EVERY_TYPE)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_weight_form_matches_sympy_and_fraction_frames(name, data):
    cartan = cartan_init(name[0], int(name[1:]))
    table = _sympy_weight_pairing(name)
    unit = [tuple(int(t == i) for t in range(cartan.rank)) for i in range(cartan.rank)]
    for i in range(cartan.rank):
        for j in range(cartan.rank):
            assert cartan.pair_weight(unit[i], unit[j]) == table[i][j]
    w, u = data.draw(word_pairs(cartan, max_size=8))
    seeds = dbc.bowtie_build(cartan, w, u).bz
    plain, modified = seeds["plain"], seeds["modified"]
    # the frame formula reads the plain labels under either variant
    assert modified.labels == tuple((d, g) for g, d in plain.labels)
    want = _fraction_frame(table, plain.labels)
    for bz in (plain, modified):
        assert [list(row) for row in bz.seed.frame.psi] == want
