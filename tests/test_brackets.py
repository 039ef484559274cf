"""Tensor brackets: reference-system oracles, identity certificates, annihilators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz.brackets import (
    MetriplecticPair,
    TensorField2,
    almost_leibniz_vf,
    annihilator_check,
    annihilator_residuals,
    check_derivation_first,
    check_derivation_second,
    check_pair_product,
    check_pair_scaling,
    hamiltonian_vf,
    prop2_equivalence_check,
)
from leibniz.dynamics import lie_derivative, rhs_from_bracket
from leibniz.poly import Chart, ChartMismatchError, Poly, parse_poly

C3 = Chart.standard(3)


def P(text, chart=C3):
    return parse_poly(chart, text)


def tensor(rows, chart=C3):
    return TensorField2.from_strings(chart, rows)


# -- reference structures used across tests ------------------------------------

# damped-oscillator-like pair: antisymmetric part couples all three coordinates,
# symmetric part is diagonal dissipation
EX2_P = [["0", "1", "0"], ["-1", "0", "x1"], ["0", "-x1", "0"]]
EX2_G = [["0", "0", "0"], ["0", "-x3^2", "0"], ["0", "0", "-x2^2"]]
EX2_H1 = "1/2*x2^2 + 1/2*x3^2"
EX2_H2 = "1/2*x1^2 + x3"

EX3_P = [["0", "-x3", "x2"], ["x3", "0", "0"], ["-x2", "0", "0"]]
EX3_G = [["-x3", "0", "0"], ["0", "0", "0"], ["0", "0", "-x1"]]
EX3_H1 = "1/2*x1^2 + x3"
EX3_H2 = "1/2*x2^2 + 1/2*x3^2"

SPIN_P = [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]


def rigid_body_pair(a1, a2, a3):
    """Antisymmetric spin tensor plus the quadratic dissipative tensor."""
    g = [
        [
            -(a2 * a2) * P("x2^2") - (a3 * a3) * P("x3^2"),
            a1 * a2 * P("x1*x2"),
            a1 * a3 * P("x1*x3"),
        ],
        [
            a1 * a2 * P("x1*x2"),
            -(a1 * a1) * P("x1^2") - (a3 * a3) * P("x3^2"),
            a2 * a3 * P("x2*x3"),
        ],
        [
            a1 * a3 * P("x1*x3"),
            a2 * a3 * P("x2*x3"),
            -(a1 * a1) * P("x1^2") - (a2 * a2) * P("x2^2"),
        ],
    ]
    h = (
        Fraction(1, 2) * (a1 + 1) * P("x1^2")
        + Fraction(1, 2) * (a2 + 1) * P("x2^2")
        + Fraction(1, 2) * (a3 + 1) * P("x3^2")
    )
    return MetriplecticPair(tensor(SPIN_P), TensorField2(C3, g)), h


def rigid_body_reference(a1, a2, a3):
    return (
        (a3 - a2) * P("x2*x3") + a2 * (a1 - a2) * P("x1*x2^2") + a3 * (a1 - a3) * P("x1*x3^2"),
        (a1 - a3) * P("x1*x3") + a3 * (a2 - a3) * P("x2*x3^2") + a1 * (a2 - a1) * P("x2*x1^2"),
        (a2 - a1) * P("x1*x2") + a1 * (a3 - a1) * P("x3*x1^2") + a2 * (a3 - a2) * P("x3*x2^2"),
    )


# -- TensorField2.apply ----------------------------------------------------------


def test_bracket_gradient_tensor_symbolic_rates():
    chart = Chart(base=("x1", "x2", "x3", "g1", "g2", "g3"))
    pe = lambda s: parse_poly(chart, s)
    z = Poly.zero(chart)
    rows = [[z] * 6 for _ in range(6)]
    for i in range(3):
        rows[i][i] = pe(f"g{i + 1}")
    B = TensorField2(chart, rows)
    assert B.apply(pe("x1"), pe("x1*x2*x3")) == pe("g1*x2*x3")
    assert B.apply(pe("x2"), pe("x1*x2*x3")) == pe("g2*x1*x3")


def test_bracket_antisymmetric_same_function_is_zero():
    B = tensor(SPIN_P)
    f = P("x1^2*x2 - 3*x3")
    assert B.apply(f, f).is_zero


def test_bracket_spin_tensor_has_radius_casimir():
    B = tensor(SPIN_P)
    casimir = Fraction(1, 2) * P("x1^2 + x2^2 + x3^2")
    for name in ("x1", "x2", "x3"):
        assert B.apply(Poly.var(C3, name), casimir).is_zero


def test_bracket_chart_mismatch():
    B = tensor(SPIN_P)
    with pytest.raises(ChartMismatchError):
        B.apply(parse_poly(Chart.standard(2), "x1"), P("x1"))


# -- hamiltonian_vf --------------------------------------------------------------


def test_hamiltonian_vf_zero_tensor():
    vf = hamiltonian_vf(TensorField2.zero(C3), P("x1*x2*x3"))
    assert all(c.is_zero for c in vf)


def test_hamiltonian_vf_rigid_body_system():
    a = (Fraction(3, 5), Fraction(2, 5), Fraction(1, 5))
    pair, h = rigid_body_pair(*a)
    vf = hamiltonian_vf(pair.P + pair.g, h)
    assert vf == rigid_body_reference(*a)


def test_hamiltonian_vf_rigid_body_symbolic_parameters():
    chart = Chart(base=("x1", "x2", "x3", "a1", "a2", "a3"))
    pe = lambda s: parse_poly(chart, s)
    z = Poly.zero(chart)
    a = [pe("a1"), pe("a2"), pe("a3")]
    x = [pe("x1"), pe("x2"), pe("x3")]
    rows = [[z] * 6 for _ in range(6)]
    spin = [[z, -x[2], x[1]], [x[2], z, -x[0]], [-x[1], x[0], z]]
    for i in range(3):
        for j in range(3):
            rows[i][j] = spin[i][j]
    P_t = TensorField2(chart, rows)
    rows_g = [[z] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            if i == j:
                acc = z
                for k in range(3):
                    if k != i:
                        acc = acc - a[k] * a[k] * x[k] * x[k]
                rows_g[i][j] = acc
            else:
                rows_g[i][j] = a[i] * a[j] * x[i] * x[j]
    g_t = TensorField2(chart, rows_g)
    h = z
    for i in range(3):
        h = h + Fraction(1, 2) * (a[i] + 1) * x[i] * x[i]
    vf = hamiltonian_vf(P_t + g_t, h)
    expectedular = [
        pe("a3*x2*x3 - a2*x2*x3 + a1*a2*x1*x2^2 - a2^2*x1*x2^2 + a1*a3*x1*x3^2 - a3^2*x1*x3^2"),
        pe("a1*x1*x3 - a3*x1*x3 + a3*a2*x2*x3^2 - a3^2*x2*x3^2 + a1*a2*x2*x1^2 - a1^2*x2*x1^2"),
        pe("a2*x1*x2 - a1*x1*x2 + a1*a3*x3*x1^2 - a1^2*x3*x1^2 + a2*a3*x3*x2^2 - a2^2*x3*x2^2"),
    ]
    assert list(vf[:3]) == expectedular
    assert all(vf[i].is_zero for i in (3, 4, 5))


def test_hamiltonian_vf_chain_rule():
    B = tensor(EX2_P)
    h = P(EX2_H1)
    f = P("x1*x3^2 - 2*x2")
    assert lie_derivative(rhs_from_bracket(B, h), f) == B.apply(f, h)


# -- almost_leibniz_vf -----------------------------------------------------------


def test_pair_vf_first_example_system():
    pair = MetriplecticPair(tensor(EX2_P), tensor(EX2_G))
    vf = almost_leibniz_vf(pair, P(EX2_H1), P(EX2_H2))
    assert vf == (P("x2"), P("x1*x3"), P("-x1*x2 - x2^2"))


def test_pair_vf_second_example_system():
    pair = MetriplecticPair(tensor(EX3_P), tensor(EX3_G))
    vf = almost_leibniz_vf(pair, P(EX3_H1), P(EX3_H2))
    assert vf == (P("x2"), P("x1*x3"), P("-x1*x2 - x1*x3"))


def test_pair_vf_equal_hamiltonians_collapse():
    pair = MetriplecticPair(tensor(EX2_P), tensor(EX2_G))
    h = P("x1*x2 + x3^2")
    assert almost_leibniz_vf(pair, h, h) == hamiltonian_vf(pair.P + pair.g, h)


def test_pair_certification_errors():
    with pytest.raises(ValueError):
        MetriplecticPair(tensor(EX2_G), tensor(EX2_G))  # not antisymmetric
    with pytest.raises(ValueError):
        MetriplecticPair(tensor(EX2_P), tensor(EX2_P))  # not symmetric


# -- identity certificates -------------------------------------------------------


def _rand_poly(rng, chart=C3, max_terms=3, max_deg=1):
    p = Poly.zero(chart)
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(chart.dim))
        p = p + Poly(chart, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
    return p


def _rand_tensor(rng, chart=C3):
    d = chart.dim
    return TensorField2(chart, [[_rand_poly(rng, chart) for _ in range(d)] for _ in range(d)])


def test_derivation_identities_random_tensors():
    rng = random.Random(20240811)
    for _ in range(25):
        B = _rand_tensor(rng)
        f, g, h = (_rand_poly(rng) for _ in range(3))
        assert check_derivation_first(B, f, g, h)
        assert check_derivation_second(B, f, g, h)


def test_pair_identities_on_example_data():
    t1, t2 = tensor(EX2_P), tensor(EX2_G)
    h1, h2 = P(EX2_H1), P(EX2_H2)
    assert check_pair_product(t1, t2, P("x1"), P("x3"), h1, h2)
    cert = check_pair_scaling(t1, t2, P("x2"), P("x1"), h1, h2)
    assert cert and cert.note


def test_pair_identities_random():
    rng = random.Random(77)
    for _ in range(25):
        t1, t2 = _rand_tensor(rng), _rand_tensor(rng)
        f, f1, h1, h2, scale = (_rand_poly(rng, max_deg=1) for _ in range(5))
        assert check_pair_product(t1, t2, f, f1, h1, h2)
        assert check_pair_scaling(t1, t2, f, scale, h1, h2)


def test_identity_dispatch():
    B = tensor(SPIN_P)
    cert = check_derivation_first(B, P("x1"), P("x2"), P("x1*x2*x3"))
    assert cert.passed and cert.identity == "derivation-first-slot"
    pair = MetriplecticPair(tensor(EX2_P), tensor(EX2_G))
    cert = check_pair_product(pair.P, pair.g, P("x1"), P("x3"), P(EX2_H1), P(EX2_H2))
    assert cert.passed and cert.identity == "two-hamiltonian-product"


# -- annihilators and the single-generator equivalence ----------------------------


def test_annihilator_example_pair():
    assert annihilator_check(tensor(EX2_P), P(EX2_H2), "first") is True
    assert annihilator_check(tensor(EX2_G), P(EX2_H1), "first") is False


def test_annihilator_constant_function():
    assert annihilator_check(tensor(EX2_G), Poly.const(C3, 7), "first") is True


def test_annihilator_residual_names():
    res = annihilator_residuals(tensor(EX2_G), P(EX2_H1), "first")
    assert set(res) == {"x1", "x2", "x3"}
    assert res["x1"].is_zero and not res["x2"].is_zero


def test_annihilator_slot_validation():
    with pytest.raises(ValueError):
        annihilator_check(tensor(EX2_P), P("x1"), "third")


def test_equivalence_passes_when_hypotheses_hold():
    pair = MetriplecticPair(tensor(EX2_P), TensorField2.zero(C3))
    cert = prop2_equivalence_check(pair, P("x3^3 - x1"), P(EX2_H2))
    assert cert.passed and not cert.failed_preconditions


def test_equivalence_zero_pair_vacuous():
    pair = MetriplecticPair(TensorField2.zero(C3), TensorField2.zero(C3))
    assert prop2_equivalence_check(pair, P("x1"), P("x2")).passed


def test_equivalence_reports_broken_hypothesis():
    pair = MetriplecticPair(tensor(EX2_P), tensor(EX2_G))
    cert = prop2_equivalence_check(pair, P(EX2_H1), P(EX2_H2))
    assert not cert.passed
    assert any(s.startswith("g-hypothesis") for s in cert.failed_preconditions)
    assert not any(s.startswith("P-hypothesis") for s in cert.failed_preconditions)


# -- symmetry classification ------------------------------------------------------


def test_symmetry_classes():
    assert tensor(SPIN_P).symmetry_classify() == "antisymmetric"
    assert tensor(EX2_G).symmetry_classify() == "symmetric"
    assert (tensor(EX2_P) + tensor(EX2_G)).symmetry_classify() == "general"
    assert TensorField2.zero(C3).symmetry_classify() == "antisymmetric"


# -- finite-difference oracle ------------------------------------------------------


def test_bracket_matches_finite_differences():
    rng = random.Random(1234)
    step = 1e-5
    for _ in range(20):
        B = _rand_tensor(rng)
        f, h = _rand_poly(rng), _rand_poly(rng)
        point = [rng.uniform(-1.5, 1.5) for _ in range(3)]
        exact = B.apply(f, h).evaluate(point)

        def central(p, k):
            up = list(point)
            dn = list(point)
            up[k] += step
            dn[k] -= step
            return (p.evaluate(up) - p.evaluate(dn)) / (2 * step)

        df = [central(f, k) for k in range(3)]
        dh = [central(h, k) for k in range(3)]
        approx = sum(
            df[i] * B.entry(i, j).evaluate(point) * dh[j]
            for i in range(3)
            for j in range(3)
        )
        scale = max(1.0, abs(exact), abs(approx))
        assert abs(exact - approx) <= 1e-6 * scale


# -- property tests ----------------------------------------------------------------

_coeffs = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4)


@st.composite
def small_polys(draw):
    p = Poly.zero(C3)
    for _ in range(draw(st.integers(0, 3))):
        e = tuple(draw(st.integers(0, 1)) for _ in range(3))
        p = p + Poly(C3, {e: draw(_coeffs)})
    return p


@st.composite
def small_tensors(draw):
    return TensorField2(
        C3, [[draw(small_polys()) for _ in range(3)] for _ in range(3)]
    )


@settings(max_examples=60, deadline=None)
@given(small_tensors(), small_polys(), small_polys(), small_polys())
def test_derivation_identity_always_holds(B, f, g, h):
    assert check_derivation_first(B, f, g, h)
    assert check_derivation_second(B, f, g, h)


@settings(max_examples=60, deadline=None)
@given(small_polys())
def test_antisymmetric_bracket_vanishes_on_diagonal(f):
    B = tensor(SPIN_P)
    assert B.apply(f, f).is_zero


@settings(max_examples=60, deadline=None)
@given(small_tensors(), small_polys(), small_polys())
def test_vf_chain_rule_property(B, f, h):
    assert lie_derivative(rhs_from_bracket(B, h), f) == B.apply(f, h)


@settings(max_examples=60, deadline=None)
@given(small_tensors(), small_polys())
def test_annihilator_residuals_equal_the_general_bracket(B, h):
    # the contraction with grad(h) against one general bracket per coordinate
    first = annihilator_residuals(B, h, "first")
    second = annihilator_residuals(B, h, "second")
    assert list(first) == list(second) == list(C3.names)
    for name in C3.names:
        coord = Poly.var(C3, name)
        assert first[name] == B.apply(h, coord)
        assert second[name] == B.apply(coord, h)


def test_annihilator_residuals_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        annihilator_residuals(tensor(EX2_P), Poly.var(Chart.standard(2), "x1"))
