from fractions import Fraction as Q

import pytest

from dbseeds import dbc, jsonio
from dbseeds.cgl import NFPoly
from dbseeds.coxeter import cartan_init, eta_machinery
from dbseeds.qtorus import FrameMatrix, NonIntegralFrame, VLaurent


def test_qstr():
    assert jsonio.qstr(3) == "3"
    assert jsonio.qstr(Q(-1, 2)) == "-1/2"
    assert jsonio.qstr(Q(4, 2)) == "2"


def test_encode_vlaurent_sorted():
    z = VLaurent({Q(1, 2): 1, -2: Q(3, 4)})
    assert jsonio.encode_vlaurent(z) == [
        {"exp": "-2", "coef": "3/4"},
        {"exp": "1/2", "coef": "1"},
    ]


def test_encode_frame():
    f = FrameMatrix.from_rows([[0, Q(4, 2)], [-2, 0]])
    assert all(type(x) is int for row in f.psi for x in row)
    assert jsonio.encode_frame(f) == [["0", "2"], ["-2", "0"]]
    with pytest.raises(NonIntegralFrame):
        FrameMatrix.from_rows([[0, Q(1, 2)], [Q(-1, 2), 0]])


def test_encode_double_word_sentinels():
    c = cartan_init("A", 1)
    dwd = eta_machinery(c, (1,), (1,))
    enc = jsonio.encode_double_word(dwd)
    assert enc["p"] == [None, 1]
    assert enc["s"] == [2, None]
    assert enc["eta"] == [1, 1]
    assert enc["beta"] == [[1]]


def test_encode_seed_shape():
    pres = dbc.bowtie_build(cartan_init("A", 2), (1, 2), (2, 1))
    data = dbc.sigma_seed(pres, (0, 1, 2, 3))
    enc = jsonio.encode_seed(data.seed)
    assert len(enc["psi"]) == 4
    assert len(enc["B"]) == 4
    assert all(len(row) == len(enc["ex"]) for row in enc["B"])
    assert enc["d"] == [1, 1, 1, 1]


def test_encode_nfpoly_order():
    a = NFPoly({(1, 0): VLaurent.one(), (0, 1): VLaurent.v_power(2)})
    enc = jsonio.encode_nfpoly(a)
    assert [t["exp"] for t in enc["terms"]] == [[1, 0], [0, 1]]
