import dataclasses
import itertools
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbseeds import cgl, jsonio
from dbseeds.cgl import (
    CGLPresentation,
    GeneratorOutOfRange,
    NFPoly,
    PresentationError,
    RewriteBudgetExceeded,
    audit_presentation,
    interval_y,
    leading_term,
    nf_mul,
    quasi_commutation_scalar,
    rescale,
    rescale_c_table,
    rescale_scalar_identity,
    u_element,
    xcomm_check,
    y_elements,
)
from dbseeds.qtorus import VLaurent


@pytest.fixture(scope="module")
def sl2():
    pres, c_table = cgl.sl2_presentation()
    return pres, c_table


@pytest.fixture(scope="module")
def a2():
    pres, c_table = cgl.a2_presentation()
    return pres, c_table


def test_sl2_relation(sl2):
    pres, _ = sl2
    x1, x2 = NFPoly.generator(2, 0), NFPoly.generator(2, 1)
    out = nf_mul(pres, x2, x1)
    assert out == NFPoly({
        (1, 1): VLaurent.q_power(2),
        (0, 0): VLaurent({0: 1, 4: -1}),
    })


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_generator_rejects_an_index_outside_the_generators(i):
    # an off-by-one index is an error, not a factor 1
    with pytest.raises(GeneratorOutOfRange, match=f"generator {i} out of range 0..1"):
        NFPoly.generator(2, i)
    assert NFPoly.generator(2, 1) == NFPoly.monomial((0, 1))


def test_nf_mul_unit(sl2):
    pres, _ = sl2
    a = NFPoly({(2, 1): VLaurent.v_power(3), (0, 1): VLaurent.one()})
    assert nf_mul(pres, a, NFPoly.one(2)) == a
    assert nf_mul(pres, NFPoly.one(2), a) == a


def test_nf_mul_associativity_random(sl2, a2):
    for pres, _ in (sl2, a2):
        audit_presentation(pres, trials=120, seed=17)


def test_rewrite_budget_guard(sl2, monkeypatch):
    pres, _ = sl2
    monkeypatch.setattr(cgl, "REWRITE_BUDGET", 1)
    big = NFPoly.monomial((0, 3))
    with pytest.raises(RewriteBudgetExceeded):
        nf_mul(pres, big, NFPoly.monomial((3, 0)))


def test_rewrite_budget_is_shared_by_the_term_pairs(sl2, monkeypatch):
    # x2 x1 and x1 x2 x1 each straighten in one rewrite; their sum needs two
    pres, _ = sl2
    monkeypatch.setattr(cgl, "REWRITE_BUDGET", 1)
    a = NFPoly({(0, 1): VLaurent.one(), (1, 1): VLaurent.one()})
    x1 = NFPoly.generator(2, 0)
    for f in a.terms:
        nf_mul(pres, NFPoly.monomial(f), x1)
    with pytest.raises(RewriteBudgetExceeded):
        nf_mul(pres, a, x1)


def test_rewrite_budget_skips_a_word_whose_coefficients_cancel(sl2, monkeypatch):
    # the term pair x2 x2 . (-v^-4 x1) rewrites to -x2 x1 x2 plus a shorter
    # word, and the pair x2 . x1 x2 brings +x2 x1 x2: the sum is zero, so of
    # the 5 words the product reaches that one takes no rewrite, and 4 fit
    pres, _ = sl2
    a = NFPoly({(0, 1): VLaurent.one(), (0, 2): VLaurent.one()})
    b = NFPoly({(1, 0): VLaurent.v_power(-4).scale(-1), (1, 1): VLaurent.one()})
    want, _, rewritten = _reference_nf_mul(pres, a, b)
    assert (1, 0, 1) in rewritten and len(rewritten) == 5
    monkeypatch.setattr(cgl, "REWRITE_BUDGET", 4)
    assert nf_mul(pres, a, b) == want
    monkeypatch.setattr(cgl, "REWRITE_BUDGET", 3)
    with pytest.raises(RewriteBudgetExceeded, match="rewrite budget exhausted"):
        nf_mul(pres, a, b)


def test_audit_rejects_a_non_associative_presentation():
    # x3 x1 = x1 x3 + x2 with x2 x1 = v^2 x1 x2: (x3 x2) x1 and x3 (x2 x1)
    # differ by (1 - v^2) x2^2
    pres = CGLPresentation(
        lambda_exp=((0, -2, 0), (2, 0, 0), (0, 0, 0)),
        tails={(2, 0): NFPoly.generator(3, 1)},
        eta=(1, 2, 3),
        degrees=((1,), (2,), (1,)),
    )
    with pytest.raises(PresentationError, match="associativity fails on"):
        audit_presentation(pres)


def _reference_nf_mul(pres, a, b):
    """The depth-first rule: every rewrite branch straightened on its own, first descent first.

    Returns the product, the number of rewrite steps it took and the set of
    distinct words it rewrote.
    """
    out, steps, rewritten = {}, 0, set()
    for f, cf in a.terms.items():
        for g, cg in b.terms.items():
            stack = [(cf * cg, cgl._word_of(f) + cgl._word_of(g))]
            while stack:
                c, w = stack.pop()
                t = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
                if t is None:
                    key = tuple(w.count(i) for i in range(pres.n))
                    out[key] = out[key] + c if key in out else c
                    continue
                steps += 1
                rewritten.add(w)
                k, j = w[t], w[t + 1]
                stack.append((c * VLaurent.v_power(pres.lambda_exp[k][j]), w[:t] + (j, k) + w[t + 2:]))
                tail = pres.tails.get((k, j))
                if tail is not None:
                    for g2, c2 in tail.terms.items():
                        stack.append((c * c2, w[:t] + cgl._word_of(g2) + w[t + 2:]))
    return NFPoly(out), steps, rewritten


def _check_against_reference(pres, a, b):
    """nf_mul agrees with the depth-first rule and rewrites each of its words at most once.

    So it takes no more rewrite steps than the depth-first rule either.
    """
    want, steps, rewritten = _reference_nf_mul(pres, a, b)
    assert len(rewritten) <= steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cgl, "REWRITE_BUDGET", len(rewritten))
        got = nf_mul(pres, a, b)
    assert got == want
    return got


@pytest.mark.parametrize("name", ["sl2", "a2", "a2-rescaled"])
def test_nf_mul_matches_the_depth_first_rule_on_the_audit(name, sl2, a2, monkeypatch):
    pres = {"sl2": sl2, "a2": a2, "a2-rescaled": a2}[name][0]
    if name == "a2-rescaled":
        t = [VLaurent.v_power(1), VLaurent({-2: 3}), VLaurent({0: "1/2"}), VLaurent({3: -1})]
        pres = rescale(pres, t)[0]
    products = []

    def checked(pres, a, b):
        products.append((a, b))
        return _check_against_reference(pres, a, b)

    monkeypatch.setattr(cgl, "nf_mul", checked)
    audit_presentation(pres)
    assert len(products) == 4 * 200


@st.composite
def pbw_elements(draw, n):
    """A sum of up to three PBW monomials of total degree at most 4, with small coefficients."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        f = [0] * n
        for _ in range(draw(st.integers(0, 4))):
            f[draw(st.integers(0, n - 1))] += 1
        terms[tuple(f)] = VLaurent({draw(st.integers(-3, 3)): draw(st.integers(-2, 2).filter(bool))})
    return NFPoly(terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_nf_mul_matches_the_depth_first_rule_on_random_elements(data):
    name = data.draw(st.sampled_from(["sl2", "a2"]))
    pres = cgl.shipped_presentations()[name][0]
    _check_against_reference(pres, data.draw(pbw_elements(pres.n)), data.draw(pbw_elements(pres.n)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_products_in_either_order_share_their_leading_exponent(data):
    # nonzero PBW elements multiply to a nonzero element whose leading
    # exponent is the sum of theirs, in either order, and a zero factor gives
    # zero: so `quasi_commutation_scalar` needs no case for a product that
    # vanishes alone or for leading exponents that differ
    name = data.draw(st.sampled_from(["sl2", "a2"]))
    pres = cgl.shipped_presentations()[name][0]
    a, b = data.draw(pbw_elements(pres.n)), data.draw(pbw_elements(pres.n))
    lead = tuple(map(operator.add, leading_term(a)[1], leading_term(b)[1]))
    assert leading_term(nf_mul(pres, a, b))[1] == lead == leading_term(nf_mul(pres, b, a))[1]
    assert nf_mul(pres, a, NFPoly()).is_zero() and nf_mul(pres, NFPoly(), a).is_zero()


def test_rewrite_rules_are_built_once_per_presentation(a2, monkeypatch):
    pres = dataclasses.replace(a2[0])
    built = []
    v_power = VLaurent.v_power
    monkeypatch.setattr(VLaurent, "v_power", classmethod(lambda cls, *args: built.append(args) or v_power(*args)))
    x = [NFPoly.generator(4, i) for i in range(4)]
    for a, b in itertools.product(x, repeat=2):
        nf_mul(pres, nf_mul(pres, b, a), a)
    assert len(built) == 4 * 3 // 2   # one v^lambda_kj per pair k > j
    assert pres.rewrite_rules is pres.rewrite_rules
    lam, tail = pres.rewrite_rules[2][0]
    assert lam == VLaurent.v_power(pres.lambda_exp[2][0])
    assert tail == (((1,), VLaurent({-1: 1, 3: -1})),)


def test_presentation_rejects_bad_tail_support():
    with pytest.raises(PresentationError):
        CGLPresentation(
            lambda_exp=((0, -4), (4, 0)),
            tails={(1, 0): NFPoly({(1, 0): VLaurent.one()})},   # touches x_1
            eta=(1, 1),
            degrees=((-1,), (1,)),
        )


@pytest.mark.parametrize("shape", [
    {"lambda_exp": ((0, 2, 5), (-2, 0))},                    # a ragged row
    {"eta": (1, 1, 1)},
    {"degrees": ((-1,),)},
    {"degrees": ((-1,), (1, 0))},                            # degrees of two widths
    {"tails": {(5, 0): NFPoly()}},                            # past the last generator
    {"tails": {(1, -1): NFPoly()}},
    {"tails": {(1, 0): NFPoly({(0,): VLaurent.one()})}},      # a term with one exponent
    {"lambda_exp": ((1, -4), (4, 0))},                        # a nonzero diagonal
    {"lambda_exp": ((0, -4), (2, 0))},                        # not skew-symmetric
    {"lambda_exp": ((0, Fraction(-4)), (Fraction(4), 0))},    # integral, but not ints
])
def test_presentation_rejects_a_shape_it_cannot_run(sl2, shape):
    # n is len(lambda_exp); every row, eta, degrees and tail must fit it
    pres, _ = sl2
    with pytest.raises(PresentationError):
        dataclasses.replace(pres, **shape)


def test_presentation_checks_lambda_as_a_frame(sl2):
    # the exponent matrix is validated by `FrameMatrix`, whose reason it names
    pres, _ = sl2
    with pytest.raises(PresentationError, match="lambda exponents are not a frame: psi must be skew-symmetric"):
        dataclasses.replace(pres, lambda_exp=((0, -4), (2, 0)))
    with pytest.raises(PresentationError, match="lambda exponents are not a frame: psi must vanish on the diagonal"):
        dataclasses.replace(pres, lambda_exp=((1, -4), (4, 0)))


def test_zero_nfpoly_reprs_as_zero():
    x = NFPoly.generator(2, 0)
    assert repr(NFPoly()) == "0" and repr(x - x) == "0"
    assert repr(x + NFPoly.generator(2, 1)) == "(1*v^0)*x^(1, 0) + (1*v^0)*x^(0, 1)"


def test_nf_mul_rejects_operands_of_another_size(sl2):
    # on two generators an x_3 factor would vanish and x_1 would pad to x^(2, 0)
    pres, _ = sl2
    with pytest.raises(PresentationError):
        nf_mul(pres, NFPoly.monomial((0, 0, 1)), NFPoly.one(2))
    with pytest.raises(PresentationError):
        nf_mul(pres, NFPoly.monomial((1,)), NFPoly.monomial((1,)))
    with pytest.raises(PresentationError):
        nf_mul(pres, NFPoly.one(2), NFPoly({(1, 0): VLaurent.one(), (1,): VLaurent.one()}))


def test_presentation_rejects_inhomogeneous_tail():
    with pytest.raises(PresentationError):
        CGLPresentation(
            lambda_exp=((0, 0, -2), (0, 0, 0), (2, 0, 0)),
            tails={(2, 0): NFPoly({(0, 2, 0): VLaurent.one()})},
            eta=(1, 2, 1),
            degrees=((-1, 0), (0, -1), (1, 0)),
        )


def test_nfpoly_rejects_non_integral_exponents():
    # int() would truncate these to x^(1,0) and to 1
    for f in ((1.5, 0), (Fraction(1, 2), 0)):
        with pytest.raises(ValueError, match="integers"):
            NFPoly.monomial(f)
    assert NFPoly.monomial((Fraction(2), 1.0)) == NFPoly.monomial((2, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        NFPoly.monomial((-1, 0))


def _audit_triples(count: int, seed: int):
    """Triples of random PBW monomials of degree at most 5 on sl2 and a2, drawn as the cgl-audit benchmark draws them."""
    rng = random.Random(seed)
    presets = [cgl.sl2_presentation()[0], cgl.a2_presentation()[0]]

    def monomial(n):
        f = [0] * n
        for _ in range(rng.randint(0, 5)):
            f[rng.randrange(n)] += 1
        return NFPoly.monomial(tuple(f))

    return [(pres, monomial(pres.n), monomial(pres.n), monomial(pres.n)) for _ in range(count // 2) for pres in presets]


def test_trusted_scalar_path_changes_no_product(monkeypatch):
    # every product of the engine is the same, to the byte, when the scalar
    # ring operations rebuild their results through the validating constructor
    triples = _audit_triples(50, seed=21)

    def products():
        out = []
        for pres, a, b, c in triples:
            out += [nf_mul(pres, nf_mul(pres, a, b), c), nf_mul(pres, a, nf_mul(pres, b, c))]
        return out

    shipped = products()
    calls = []

    def validating(cls, terms):
        calls.append(len(terms))
        return cls(terms)

    monkeypatch.setattr(VLaurent, "_reduced", classmethod(validating))
    rebuilt = products()
    assert calls
    assert rebuilt == shipped
    encode = lambda xs: [json.dumps(jsonio.encode_nfpoly(x), sort_keys=True) for x in xs]
    assert encode(rebuilt) == encode(shipped)


def test_leading_term_order():
    a = NFPoly({(1, 0): VLaurent.one(), (0, 1): VLaurent.v_power(5)})
    coef, exp = leading_term(a)
    assert exp == (0, 1)
    assert coef == VLaurent.v_power(5)
    single = NFPoly.monomial((2, 3)).scale(VLaurent.v_power(-1))
    assert leading_term(single) == (VLaurent.v_power(-1), (2, 3))
    with pytest.raises(ValueError):
        leading_term(NFPoly())


def test_leading_term_sl2_product(sl2):
    pres, _ = sl2
    out = nf_mul(pres, NFPoly.generator(2, 1), NFPoly.generator(2, 0))
    coef, exp = leading_term(out)
    assert exp == (1, 1)
    assert coef == VLaurent.q_power(2)


def test_xcomm_sl2(sl2):
    pres, _ = sl2
    for f in itertools.product(range(5), repeat=2):
        if 0 < sum(f) <= 4:
            assert xcomm_check(pres, f)


def test_xcomm_a2(a2):
    pres, _ = a2
    for f in itertools.product(range(5), repeat=4):
        if 0 < sum(f) <= 4:
            assert xcomm_check(pres, f)


def test_y_elements_trivial_when_no_chains():
    pres = CGLPresentation(
        lambda_exp=((0, -2), (2, 0)),
        tails={},
        eta=(1, 2),
        degrees=((-1, 0), (0, -1)),
    )
    ys = y_elements(pres, {})
    assert ys == [NFPoly.generator(2, 0), NFPoly.generator(2, 1)]


def test_y_elements_sl2(sl2):
    pres, c_table = sl2
    ys = y_elements(pres, c_table)
    assert ys[1] == NFPoly({(1, 1): VLaurent.one(), (0, 0): VLaurent.one().scale(-1)})
    coef, exp = leading_term(ys[1])
    assert exp == (1, 1) and coef == VLaurent.one()


def test_quasi_commutation_scalar_of_zero_is_one(sl2):
    # 0 b = z b 0 holds for every z; the scalar reported is 1
    pres, _ = sl2
    assert quasi_commutation_scalar(pres, NFPoly(), NFPoly.generator(2, 1)) == VLaurent.one()


def test_interval_y_rejects_bad_chain_inputs(sl2):
    pres, _ = sl2
    x0_x1 = NFPoly.monomial((1, 1))
    with pytest.raises(PresentationError, match=r"missing chain element c\[\(0, 1\)\]"):
        interval_y(pres, 0, 1, {})
    # x0 x1 - c = x0: homogeneous, but of the degree of x0, not of x0 x1
    with pytest.raises(PresentationError, match=r"chain element \[0,1\] has wrong degree"):
        interval_y(pres, 0, 1, {(0, 1): x0_x1 - NFPoly.monomial((1, 0))})
    # x0 x1 - c = -x0 x1: the right degree, but the leading coefficient is -1
    with pytest.raises(PresentationError, match=r"chain element \[0,1\] has wrong leading term"):
        interval_y(pres, 0, 1, {(0, 1): NFPoly({(1, 1): VLaurent({0: 2})})})


def test_interval_y_names_the_last_position_of_a_longer_chain():
    # three commuting generators of one level and equal degree: the chain
    # of 0 with m = 2 is 0, 1, 2, and an error names the interval [0, 2]
    # by its last position, not by the second
    pres = CGLPresentation(lambda_exp=((0,) * 3,) * 3, tails={}, eta=(1, 1, 1), degrees=((1,),) * 3)
    x0 = NFPoly.monomial((1, 0, 0))
    with pytest.raises(PresentationError, match=r"^chain element \[0,2\] has wrong degree$"):
        interval_y(pres, 0, 2, {(0, 1): NFPoly(), (0, 2): NFPoly.monomial((1, 1, 1)) - x0})
    with pytest.raises(PresentationError, match=r"^chain element \[0,2\] has wrong leading term$"):
        interval_y(pres, 0, 2, {(0, 1): NFPoly(), (0, 2): NFPoly({(1, 1, 1): VLaurent({0: 2})})})


def test_y_elements_reject_an_element_that_does_not_normalize(sl2):
    # with c = 0, y_2 = x1 x2, and x1 x2 x1 = q^2 x1^2 x2 + (1 - q^2) x1
    pres, _ = sl2
    with pytest.raises(PresentationError, match="y_1 does not normalize x_0"):
        y_elements(pres, {(0, 1): NFPoly()})


def test_u_element_rejects_a_vanishing_or_outside_element():
    # two commuting generators of one level and equal degree: the one-step
    # interval element is u = c itself, which must be nonzero and lie
    # strictly between positions 0 and 1, that is, be a scalar
    pres = CGLPresentation(lambda_exp=((0, 0), (0, 0)), tails={}, eta=(1, 1), degrees=((1,), (1,)))
    with pytest.raises(PresentationError, match=r"interval element \[0,1\] vanishes"):
        u_element(pres, {(0, 1): NFPoly()}, 0, 1)
    with pytest.raises(PresentationError, match=r"interval element \[0,1\] leaves the open interval"):
        u_element(pres, {(0, 1): NFPoly.monomial((2, 0))}, 0, 1)


def test_y_elements_reject_bad_c(sl2):
    pres, _ = sl2
    bad = {(0, 1): NFPoly.monomial((1, 0))}   # wrong degree
    with pytest.raises(PresentationError):
        y_elements(pres, bad)


def test_y_elements_reject_end_index_keys(sl2):
    # chain inputs are keyed by (start, end) pairs only
    pres, c_table = sl2
    with pytest.raises(PresentationError, match=r"not a \(start, end\) pair"):
        y_elements(pres, {1: c_table[(0, 1)]})
    # rescaling reads chain inputs by the same key rule, which bounds the positions
    with pytest.raises(PresentationError, match=r"not a \(start, end\) pair"):
        rescale_c_table(pres, {(0, 2): c_table[(0, 1)]}, [VLaurent.one()] * 2)


def test_y_elements_quasi_commute(sl2, a2):
    for pres, c_table in (sl2, a2):
        ys = y_elements(pres, c_table)
        for k, y in enumerate(ys):
            for j in range(k + 1):
                z = quasi_commutation_scalar(pres, y, NFPoly.generator(pres.n, j))
                assert z is not None
                assert z.is_monomial()


def test_y_homogeneous_with_chain_degree(a2):
    pres, c_table = a2
    ys = y_elements(pres, c_table)
    assert pres.poly_degree(ys[2]) == (-1, -1)
    assert pres.poly_degree(ys[3]) == (0, -1)


def test_u_element_sl2_scalar(sl2):
    pres, c_table = sl2
    u = u_element(pres, c_table, 0, 1)
    assert u == NFPoly.one(2)


def test_u_element_a2(a2):
    pres, c_table = a2
    u1 = u_element(pres, c_table, 0, 1)
    assert u1 == NFPoly({(0, 1, 0, 0): VLaurent.v_power(1)})
    u2 = u_element(pres, c_table, 0, 2)
    assert u2 == NFPoly({(0, 1, 0, 0): VLaurent.v_power(-3)})
    assert u2.support_indices() <= {1, 2}


def test_cond_shipped(sl2, a2):
    # the normalization condition is the one-step rescaling identity
    pres, c_table = sl2
    assert rescale_scalar_identity(pres, c_table, 0, 1)
    pres, c_table = a2
    assert rescale_scalar_identity(pres, c_table, 0, 1)
    assert rescale_scalar_identity(pres, c_table, 2, 1)


def test_rescale_scalar_identity_a2(a2):
    pres, c_table = a2
    assert rescale_scalar_identity(pres, c_table, 0, 2)


def test_rescale_identity(sl2):
    pres, c_table = sl2
    new_pres, report = rescale(pres, [VLaurent.one(), VLaurent.one()])
    assert new_pres.tails == pres.tails
    assert report.y_scalars == (VLaurent.one(), VLaurent.one())


def test_rescale_sl2_tail_and_y_scalar(sl2):
    pres, c_table = sl2
    v = VLaurent.v_power(1)
    new_pres, report = rescale(pres, [v, v])
    tail = new_pres.tails[(1, 0)]
    assert tail == NFPoly({(0, 0): VLaurent({0: 1, 4: -1}) * VLaurent.v_power(2)})
    assert report.y_scalars[1] == VLaurent.v_power(2)
    assert report.u_scalars[(0, 1)] == VLaurent.v_power(2)
    # rescaled chain input keeps the recursion consistent: expressing the new
    # chain element in the unscaled basis recovers t_1 t_2 times the old one
    new_c = rescale_c_table(pres, c_table, [v, v])
    ys = y_elements(new_pres, new_c)
    in_old_basis = NFPoly(
        {f: c * VLaurent.v_power(sum(f)) for f, c in ys[1].terms.items()}
    )
    assert in_old_basis == y_elements(pres, c_table)[1].scale(VLaurent.v_power(2))


def test_rescale_rejects_non_units(sl2):
    pres, _ = sl2
    for t in (
        [VLaurent.one() + VLaurent.v_power(1), VLaurent.one()],   # two terms
        [VLaurent(), VLaurent.one()],                              # zero
        [VLaurent.one()],                                          # one unit for two generators
    ):
        with pytest.raises(PresentationError):
            rescale(pres, t)


def test_rescale_preserves_lambda(a2):
    pres, _ = a2
    t = [VLaurent.v_power(e) for e in (1, -2, 0, 3)]
    new_pres, _ = rescale(pres, t)
    assert new_pres.lambda_exp == pres.lambda_exp


def test_rescale_scalars_follow_the_chains(a2):
    # levels (1, 2, 1, 1): the chain 0, 2, 3 and the single position 1
    pres, c_table = a2
    assert pres.chain(0, 2) == [0, 2, 3]
    t = [VLaurent.v_power(e) for e in (1, -2, 0, 3)]
    _, report = rescale(pres, t)
    assert report.y_scalars == tuple(VLaurent.v_power(e) for e in (1, -2, 1, 4))
    # u_(i, m) scales by t_i t_{s^m(i)} and the square of each middle position
    assert report.u_scalars == {(0, 1): VLaurent.v_power(1), (0, 2): VLaurent.v_power(4), (2, 1): VLaurent.v_power(3)}
    new_c = rescale_c_table(pres, c_table, t)
    assert new_c[(0, 3)] == c_table[(0, 3)].scale(VLaurent.v_power(4) * VLaurent.v_power(-1))


def test_chain_walk_rejects_what_is_not_a_chain(a2):
    pres, c_table = a2
    with pytest.raises(PresentationError, match="out of range"):
        pres.chain(1, 1)
    with pytest.raises(PresentationError, match="m >= 1"):
        u_element(pres, c_table, 0, 0)
    with pytest.raises(PresentationError, match="does not key a chain"):
        rescale_c_table(pres, {(0, 1): NFPoly.one(4)}, [VLaurent.one()] * 4)


def test_interval_y_direct(a2):
    pres, c_table = a2
    y13 = interval_y(pres, 0, 1, c_table)
    assert y13 == NFPoly({(1, 0, 1, 0): VLaurent.one(), (0, 1, 0, 0): VLaurent.v_power(1).scale(-1)})
    y34 = interval_y(pres, 2, 1, c_table)
    assert y34 == NFPoly({(0, 0, 1, 1): VLaurent.one(), (0, 0, 0, 0): VLaurent.one().scale(-1)})


def test_a2_presentation_matches_cell_data(a2):
    from dbseeds import dbc
    from dbseeds.coxeter import cartan_init

    pres, _ = a2
    bow = dbc.bowtie_build(cartan_init("A", 2), (1, 2, 1), (1,))
    assert pres.lambda_exp == tuple(tuple(2 * x for x in row) for row in bow.nu.psi)
    assert pres.eta == bow.dwd.eta
    assert pres.degrees == bow.degrees


def test_sl2_example_bundle():
    bundle = cgl.sl2_example()
    assert bundle["commutation"] == VLaurent.q_power(2)
    lhs, rhs = bundle["exchange_relation"]
    assert lhs == rhs
    assert bundle["seed_id"].frame.psi[0][1] == -2


def test_sl2_example_raises_on_mismatch(monkeypatch):
    monkeypatch.setattr(cgl, "quasi_commutation_scalar", lambda pres, a, b: VLaurent.q_power(1))
    with pytest.raises(cgl.ExampleMismatch, match="commutation"):
        cgl.sl2_example()
