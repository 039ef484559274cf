"""Exact-polynomial core: hand-computed oracles plus algebraic property tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz import poly
from leibniz.poly import (
    Chart,
    ChartMismatchError,
    DegreeCapError,
    Poly,
    PolyParseError,
    divide_exact,
    embed,
    grad,
    parse_poly,
    restrict,
)

C3 = Chart.standard(3)
D3 = Chart.standard(3, 3)  # x1..x3 plus xi1..xi3


def P(text, chart=C3):
    return parse_poly(chart, text)


# -- construction and canonical form -----------------------------------------


def test_zero_and_const():
    z = Poly.zero(C3)
    assert z.is_zero
    assert z.degree() == -1
    assert str(z) == "0"
    c = Poly.const(C3, Fraction(3, 4))
    assert c.degree() == 0
    assert c.coefficient((0, 0, 0)) == Fraction(3, 4)


def test_var_and_str_order():
    p = P("x2 + x1^2 - 3*x3*x1")
    # descending graded-lex: x1^2, then -3*x1*x3, then x2
    assert str(p) == "x1^2 - 3*x1*x3 + x2"


def test_coefficient_lookup():
    p = P("5*x1^2*x2 - 1/2*x3")
    assert p.coefficient((2, 1, 0)) == 5
    assert p.coefficient((0, 0, 1)) == Fraction(-1, 2)
    assert p.coefficient((1, 1, 1)) == 0


def test_zero_coefficients_dropped():
    p = P("x1") - P("x1")
    assert p.is_zero
    assert list(p.terms()) == []


# -- arithmetic oracles (hand-expanded) ---------------------------------------


def test_product_difference_of_squares():
    assert P("x1 + x2") * P("x1 - x2") == P("x1^2 - x2^2")


def test_product_trinomial():
    lhs = P("x1 + x2 + x3") * P("x1 + x2 + x3")
    rhs = P("x1^2 + x2^2 + x3^2 + 2*x1*x2 + 2*x1*x3 + 2*x2*x3")
    assert lhs == rhs


def test_pow():
    assert P("x1 + 1") ** 3 == P("x1^3 + 3*x1^2 + 3*x1 + 1")
    assert P("x1") ** 0 == Poly.const(C3, 1)


def test_scalar_ops():
    p = P("x1 - x2")
    assert 2 * p == P("2*x1 - 2*x2")
    assert p * Fraction(1, 3) == P("1/3*x1 - 1/3*x2")
    assert p + 1 == P("x1 - x2 + 1")
    assert 1 - p == P("1 - x1 + x2")


def test_rational_coefficients_stay_exact():
    p = P("1/3*x1") * 3
    assert p == P("x1")
    q = P("0.1*x1") + P("0.2*x1")
    assert q == P("3/10*x1")  # no float drift


# -- differentiation -----------------------------------------------------------


def test_diff_monomial():
    p = P("x1^3*x2")
    assert p.diff("x1") == P("3*x1^2*x2")
    assert p.diff("x2") == P("x1^3")
    assert p.diff("x3").is_zero


def test_grad_order_matches_chart():
    p = parse_poly(D3, "x1*xi2")
    g = grad(p)
    assert len(g) == 6
    assert g[0] == parse_poly(D3, "xi2")
    assert g[4] == parse_poly(D3, "x1")
    assert all(g[i].is_zero for i in (1, 2, 3, 5))


# -- evaluation ----------------------------------------------------------------


def test_evaluate_exact_and_float():
    p = P("1/2*x1^2 - x2*x3")
    assert p.evaluate_exact([Fraction(2), Fraction(3), Fraction(5)]) == 2 - 15
    assert p.evaluate([2.0, 3.0, 5.0]) == pytest.approx(-13.0)


# -- parsing and formatting ----------------------------------------------------


def test_parse_round_trip():
    texts = ["x1^2 - 3*x1*x3 + x2", "-x1 - 1/2", "3/5*x1^2*xi3 - 2*x2 + 1/4"]
    for t in texts:
        p = parse_poly(D3, t)
        assert parse_poly(D3, str(p)) == p


def test_parse_decimal_is_exact():
    assert P("0.6*x1") == P("3/5*x1")


def test_parse_implicit_one_coefficient():
    assert P("-x1") == -Poly.var(C3, "x1")


def test_parse_errors():
    with pytest.raises(PolyParseError):
        P("x1 + + x2")
    with pytest.raises(PolyParseError):
        P("y7")
    with pytest.raises(PolyParseError):
        P("x1^")
    with pytest.raises(PolyParseError):
        P("")


# -- chart handling ------------------------------------------------------------


def test_chart_mismatch_raises():
    a = Poly.var(C3, "x1")
    b = Poly.var(Chart.standard(2), "x1")
    with pytest.raises(ChartMismatchError):
        a + b
    with pytest.raises(ChartMismatchError):
        a * b


def test_embed_into_larger_chart():
    p = P("x1*x2 + 1")
    q = embed(p, D3)
    assert q.chart == D3
    assert q == parse_poly(D3, "x1*x2 + 1")
    with pytest.raises(ChartMismatchError):
        embed(parse_poly(D3, "xi1"), C3)


def test_fiber_degree():
    p = parse_poly(D3, "x1^5*xi1*xi2 + xi3")
    assert p.degree() == 7
    assert p.fiber_degree() == 2
    assert parse_poly(D3, "x1^4").fiber_degree() == 0


# -- degree cap ----------------------------------------------------------------


def test_degree_cap_enforced(monkeypatch):
    p = P("x1^8 + 1")
    with pytest.raises(DegreeCapError):
        p * p * p  # degree 24 > 16
    monkeypatch.setattr(poly, "_DEGREE_CAP", 32)
    q = p * p * p
    assert q.degree() == 24


# -- property tests ------------------------------------------------------------

_coeffs = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


@st.composite
def polys(draw, chart=C3, max_terms=4, max_deg=1):
    # per-variable exponent cap 1 keeps triple products inside the degree cap
    n = draw(st.integers(min_value=0, max_value=max_terms))
    p = Poly.zero(chart)
    for _ in range(n):
        expt = tuple(
            draw(st.integers(min_value=0, max_value=max_deg))
            for _ in range(chart.dim)
        )
        p = p + Poly(chart, {expt: draw(_coeffs)})
    return p


@settings(max_examples=120, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=120, deadline=None)
@given(polys(), polys())
def test_leibniz_rule_for_diff(p, q):
    for name in C3.base:
        lhs = (p * q).diff(name)
        rhs = p.diff(name) * q + p * q.diff(name)
        assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(
    polys(max_terms=3),
    polys(max_terms=3),
    st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ),
)
def test_evaluate_is_ring_hom(p, q, point):
    lhs = (p * q).evaluate(point)
    rhs = p.evaluate(point) * q.evaluate(point)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(polys())
def test_str_round_trip(p):
    assert parse_poly(C3, str(p)) == p


# -- the unvalidated internal constructor -----------------------------------------

# Exponents up to 2 make sums and products collide and cancel often, and keep a
# product of two drawn polynomials (degree <= 12) inside the degree cap.
_raw_terms = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    _coeffs,
    max_size=5,
)

# A chart holding C3's variables in another order, plus one more.
_WIDE = Chart(base=("x2", "y", "x3", "x1"))


def _assert_clean(p):
    """The invariant that Poly._trusted leaves to its callers."""
    for exponent, coeff in p._terms.items():
        assert type(exponent) is tuple and len(exponent) == p.chart.dim
        assert all(type(e) is int and e >= 0 for e in exponent)
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1)
        assert coeff != 0
    assert p == Poly(p.chart, dict(p._terms))


def _ref_combine(a, b, sign):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@settings(max_examples=150, deadline=None)
@given(_raw_terms, _raw_terms, _coeffs, st.integers(min_value=-3, max_value=3))
def test_internal_results_are_clean(a, b, scale, k):
    p, q = Poly(C3, a), Poly(C3, b)
    a, b = dict(p._terms), dict(q._terms)
    cases = {
        "p + q": (p + q, _ref_combine(a, b, 1)),
        "p - q": (p - q, _ref_combine(a, b, -1)),
        "p - p": (p - p, {}),
        "-p": (-p, {e: -c for e, c in a.items()}),
        "k + p": (k + p, _ref_combine({(0, 0, 0): k}, a, 1)),
        "k - p": (k - p, _ref_combine({(0, 0, 0): k}, a, -1)),
        "p * q": (p * q, _ref_mul(a, b)),
        # the cross terms cancel, so product terms must be deleted as they vanish
        "(p + q) * (p - q)": (
            (p + q) * (p - q),
            _ref_mul(_ref_combine(a, b, 1), _ref_combine(a, b, -1)),
        ),
        "scale * p": (scale * p, {e: c * scale for e, c in a.items() if c * scale}),
        "p * k": (p * k, {e: c * k for e, c in a.items() if c * k}),
        "p ** 2": (p**2, _ref_mul(a, a)),
        "p ** 0": (p**0, {(0, 0, 0): 1}),
    }
    for i, name in enumerate(C3.names):
        lowered = {}
        for e, c in a.items():
            if e[i]:
                lowered[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
        cases[f"d/d{name} p"] = (p.diff(name), lowered)
    for label, (result, expected) in cases.items():
        _assert_clean(result)
        assert result.chart is C3, label
        assert result._terms == {e: Fraction(c) for e, c in expected.items()}, label
    if not q.is_zero:
        quotient = divide_exact(p * q, q)
        _assert_clean(quotient)
        assert quotient == p
    wide = embed(p, _WIDE)
    _assert_clean(wide)
    assert wide._terms == {(e[1], 0, e[2], e[0]): c for e, c in a.items()}
    assert restrict(wide, C3) == p
    assert embed(p, C3) is p


def test_public_constructor_still_validates():
    with pytest.raises(ValueError, match="length"):
        Poly(C3, {(1, 0): 1})
    with pytest.raises(ValueError, match="negative"):
        Poly(C3, {(1, -1, 0): 1})
    with pytest.raises(TypeError, match="float"):
        Poly(C3, {(1, 0, 0): 0.5})
    assert Poly(C3, {(1, 0, 0): 0, (0, 1, 0): "3/4"})._terms == {(0, 1, 0): Fraction(3, 4)}


# -- canonical exact coefficients ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(_raw_terms, _coeffs)
def test_calculus_and_charts_keep_coefficients_canonical(a, c):
    p = Poly(C3, a)
    _assert_clean(p)
    for name in C3.names:
        _assert_clean(p.diff(name))
    for component in grad(p):
        _assert_clean(component)
    wide = embed(p, _WIDE)
    _assert_clean(wide)
    _assert_clean(restrict(wide, C3))
    _assert_clean(parse_poly(C3, str(p)))
    _assert_clean(Poly.const(C3, c))
    if not p.is_zero:
        _assert_clean(divide_exact(p * (p + c), p))


def test_integral_values_are_stored_as_int():
    half = Poly.const(C3, Fraction(1, 2))
    assert type(half.coefficient((0, 0, 0))) is Fraction
    doubled = half * 2
    assert doubled._terms == {(0, 0, 0): 1} and type(doubled.coefficient((0, 0, 0))) is int
    assert type((half + half).coefficient((0, 0, 0))) is int
    assert type(P("1/2*x1^2").diff("x1").coefficient((1, 0, 0))) is int
    assert type(Poly.var(C3, "x2").coefficient((0, 1, 0))) is int
    assert type(P("4/2*x1 + 6").coefficient((1, 0, 0))) is int
    assert type(P("0.5*x1 + 2.0").coefficient((0, 0, 0))) is int
    # a bool is an int to Python, but never a stored coefficient
    for flag in (Poly.const(C3, True), Poly(C3, {(1, 0, 0): True}), P("x1") * True):
        _assert_clean(flag)
        assert all(type(c) is int for _, c in flag.terms())
    assert Poly.const(C3, False).is_zero
    # int and Fraction compare and hash alike, so the storage change is invisible
    assert Poly.const(C3, 3) == Poly(C3, {(0, 0, 0): Fraction(3)})
    assert hash(Poly.const(C3, 3)) == hash(Poly(C3, {(0, 0, 0): Fraction(6, 2)}))
    assert str(P("6/3*x1 - 1/2")) == "2*x1 - 1/2"


def test_exact_quotient_of_integer_polynomials_is_never_a_float():
    q = divide_exact(P("x1 + 1"), P("2*x1 + 2"))
    assert q._terms == {(0, 0, 0): Fraction(1, 2)}
    _assert_clean(q)
    q = divide_exact(P("6*x1^2 + 3*x1"), P("3*x1"))
    assert q._terms == {(1, 0, 0): 2, (0, 0, 0): 1}
    _assert_clean(q)


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(PolyParseError, match="zero denominator"):
        P("3/0*x1")
    assert P("0/3*x1 + x2") == P("x2")
