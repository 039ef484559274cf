"""Algebroid structures: lifts, tensor correspondence, classification,
section brackets, the certified symmetric-partner construction, fractions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz import algebroid
from leibniz.algebroid import (
    AlgebroidStructure,
    NotLinearError,
    PolyFraction,
    Section,
    ZeroCoefficientError,
    classify_algebroid,
    fiber_linear_coefficients,
    fiber_linearity_defect,
    lambda_from_structure,
    lift_section,
    prop4_construct_dual_tensor,
    section_bracket,
    structure_from_json,
    structure_from_lambda,
    structure_to_json,
    theorem1_check,
)
from leibniz.brackets import TensorField2
from leibniz.catalog import catalog_build
from leibniz.poly import (
    Chart,
    ChartMismatchError,
    ExactDivisionError,
    Poly,
    divide_exact,
    embed,
    parse_poly,
)

BASE = Chart.standard(3)
Z = "0"


def PB(text):
    return parse_poly(BASE, text)


def _cyclic_structure_functions(signs):
    """m=3 structure functions with C[a][b][d] nonzero on cyclic slots."""
    C = [[[Z] * 3 for _ in range(3)] for _ in range(3)]
    C[0][1][2], C[0][2][1] = signs[0]
    C[1][0][2], C[1][2][0] = signs[1]
    C[2][0][1], C[2][1][0] = signs[2]
    return C


def coupled_oscillator_structure():
    """Structure whose derived flow has a documented one-term deviation from
    its transcribed reference; anchors are genuinely distinct."""
    C = _cyclic_structure_functions(
        [("-x3", "x2"), ("x3", "-x1"), ("-x2", "x1")]
    )
    rho1 = [["0", "x3", "-x2"], ["-x3", "0", "0"], ["x2", "0", "0"]]
    rho2 = [["0", "-1", "0"], ["1", "0", "-x1"], ["0", "x1", "0"]]
    return AlgebroidStructure.from_strings(BASE, 3, C, rho1, rho2)


def spin_top_structure():
    """Pre-Lie structure generating the free-top equations on the base."""
    C = _cyclic_structure_functions([("x3", "-x2"), ("-x3", "x1"), ("x2", "-x1")])
    p = [["0", "x3", "-x2"], ["-x3", "0", "x1"], ["x2", "-x1", "0"]]
    return AlgebroidStructure.from_strings(BASE, 3, C, p, p)


def top_hamiltonian(struct, a=(Fraction(3, 5), Fraction(2, 5), Fraction(1, 5))):
    chart = struct.dual_chart
    h = Poly.zero(chart)
    for i, av in enumerate(a):
        h = h + av * parse_poly(chart, f"x{i + 1}*xi{i + 1}")
    return h


# -- lift_section ----------------------------------------------------------------


def test_lift_basis_section():
    A = spin_top_structure()
    assert lift_section(A, Section.basis(BASE, 3, 0)) == parse_poly(A.dual_chart, "xi1")


def test_lift_general_section():
    A = spin_top_structure()
    s = Section(BASE, (PB("x2"), PB("0"), PB("0")))
    assert lift_section(A, s) == parse_poly(A.dual_chart, "x2*xi1")


def test_lift_module_linearity():
    A = spin_top_structure()
    s = Section(BASE, (PB("x1"), PB("1"), PB("x3^2")))
    f = PB("x2 - 2")
    scaled = Section(BASE, tuple(f * c for c in s.components))
    assert lift_section(A, scaled) == embed(f, A.dual_chart) * lift_section(A, s)


# -- lambda_from_structure / structure_from_lambda ---------------------------------


def test_lambda_block_values():
    A = coupled_oscillator_structure()
    T = lambda_from_structure(A)
    dual = A.dual_chart
    pd = lambda s: parse_poly(dual, s)
    # chart order: x1 x2 x3 xi1 xi2 xi3
    assert T.entry(3, 4) == pd("-x3*xi3")  # fiber-fiber from C[0][1][2]
    assert T.entry(3, 1) == pd("-x3")  # fiber-base from rho1[1][0]
    assert T.entry(0, 4) == pd("1")  # base-fiber from -rho2[0][1]
    assert T.entry(0, 0).is_zero and T.entry(2, 1).is_zero


def test_lambda_zero_structure():
    A = AlgebroidStructure.zero(BASE, 2)
    T = lambda_from_structure(A)
    assert all(
        T.entry(i, j).is_zero for i in range(5) for j in range(5)
    )


def test_structure_round_trip():
    for A in (coupled_oscillator_structure(), spin_top_structure()):
        assert structure_from_lambda(lambda_from_structure(A)) == A


def test_tensor_round_trip():
    A = coupled_oscillator_structure()
    L = lambda_from_structure(A)
    L2 = lambda_from_structure(structure_from_lambda(L))
    assert L2 == L


def test_not_linear_base_block():
    A = spin_top_structure()
    T = lambda_from_structure(A)
    entries = [list(row) for row in T.entries]
    entries[0][1] = parse_poly(A.dual_chart, "x1")  # nonzero base-base entry
    with pytest.raises(NotLinearError, match="base-base"):
        structure_from_lambda(TensorField2(A.dual_chart, entries))


def test_not_linear_quadratic_fiber_entry():
    A = spin_top_structure()
    T = lambda_from_structure(A)
    entries = [list(row) for row in T.entries]
    entries[3][4] = parse_poly(A.dual_chart, "x1^2*xi1 + xi2^2")
    with pytest.raises(NotLinearError, match="fiber degree 1"):
        structure_from_lambda(TensorField2(A.dual_chart, entries))


def test_not_linear_anchor_entry():
    A = spin_top_structure()
    T = lambda_from_structure(A)
    entries = [list(row) for row in T.entries]
    entries[0][3] = parse_poly(A.dual_chart, "xi1")
    with pytest.raises(NotLinearError, match="anchor entry"):
        structure_from_lambda(TensorField2(A.dual_chart, entries))


def test_fiber_names_other_than_xi_refused():
    # a structure names its fiber coordinates xi1..xim: reading one off a
    # tensor with other fiber names would rename them, and the round trip
    # would not return the tensor
    chart = Chart(base=("q",), fiber=("p",))
    T = TensorField2(chart, [[Poly.zero(chart)] * 2, [Poly.var(chart, "q"), Poly.var(chart, "p")]])
    assert fiber_linearity_defect(T) == ""
    with pytest.raises(ChartMismatchError, match="xi1"):
        structure_from_lambda(T)
    # any base names are kept
    dual = Chart(base=("q",), fiber=("xi1",))
    T = TensorField2(dual, [[Poly.zero(dual)] * 2, [Poly.var(dual, "q"), Poly.var(dual, "xi1")]])
    assert lambda_from_structure(structure_from_lambda(T)) == T


# -- section bracket ----------------------------------------------------------------


def test_section_bracket_basis_values():
    A = coupled_oscillator_structure()
    for a in range(3):
        for b in range(3):
            got = section_bracket(A, Section.basis(BASE, 3, a), Section.basis(BASE, 3, b))
            assert got.components == tuple(A.C[a][b][d] for d in range(3))


def _mixed_rule_residual(A, f, g, s1, s2):
    """Residual of the defining rule for [f s1, g s2] expanded independently."""
    fs1 = Section(BASE, tuple(f * c for c in s1.components))
    gs2 = Section(BASE, tuple(g * c for c in s2.components))
    lhs = section_bracket(A, fs1, gs2)

    # direct expansion: rho(sigma)(func) = sum_{i,a} sigma^a rho[i][a] d func/dx^i
    def anchor(rho, s, func):
        acc = Poly.zero(BASE)
        for i, name in enumerate(BASE.names):
            d = func.diff(name)
            if d.is_zero:
                continue
            for a in range(3):
                acc = acc + s.components[a] * rho[i][a] * d
        return acc

    inner = section_bracket(A, s1, s2)
    residuals = []
    for d in range(3):
        rhs = (
            f * anchor(A.rho1, s1, g) * s2.components[d]
            - g * anchor(A.rho2, s2, f) * s1.components[d]
            + f * g * inner.components[d]
        )
        residuals.append(lhs.components[d] - rhs)
    return residuals


def test_section_bracket_mixed_rule():
    A = coupled_oscillator_structure()
    f, g = PB("x1"), PB("x2")
    s1 = Section(BASE, (PB("1"), PB("x3"), PB("0")))
    s2 = Section(BASE, (PB("x2"), PB("0"), PB("1")))
    assert all(r.is_zero for r in _mixed_rule_residual(A, f, g, s1, s2))


def test_section_bracket_random_mixed_rule():
    rng = random.Random(99)

    def rp():
        p = Poly.zero(BASE)
        for _ in range(rng.randint(1, 2)):
            e = tuple(rng.randint(0, 1) for _ in range(3))
            p = p + Poly(BASE, {e: Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
        return p

    for _ in range(15):
        A = coupled_oscillator_structure()
        s1 = Section(BASE, (rp(), rp(), rp()))
        s2 = Section(BASE, (rp(), rp(), rp()))
        assert all(r.is_zero for r in _mixed_rule_residual(A, rp(), rp(), s1, s2))


# -- theorem-1 style certificates ------------------------------------------------------


def test_certificates_on_reference_structures():
    for A in (coupled_oscillator_structure(), spin_top_structure()):
        s1 = Section(BASE, (PB("x2"), PB("1"), PB("x1*x3")))
        s2 = Section(BASE, (PB("x1"), PB("x3"), PB("2")))
        certs = theorem1_check(A, s1, s2, PB("x1*x2"))
        assert [c.identity for c in certs] == ["bracket-lift", "left-anchor", "right-anchor"]
        assert all(certs)


def test_certificates_zero_structure():
    A = AlgebroidStructure.zero(BASE, 3)
    s = Section.basis(BASE, 3, 1)
    assert all(theorem1_check(A, s, s, PB("x1")))


# -- classification ---------------------------------------------------------------------


def test_classify_reference_structures():
    assert classify_algebroid(coupled_oscillator_structure()) == "general"
    assert classify_algebroid(spin_top_structure()) == "pre_lie"


def test_classify_zero_ties_to_pre_lie():
    assert classify_algebroid(AlgebroidStructure.zero(BASE, 2)) == "pre_lie"


def test_classify_symmetric_branch():
    C = [[[Z] * 2 for _ in range(2)] for _ in range(2)]
    C[0][1][0] = "x1"
    C[1][0][0] = "x1"
    rho1 = [["1", "0"], ["0", "x2"], ["0", "0"]]
    rho2 = [["-1", "0"], ["0", "-x2"], ["0", "0"]]
    A = AlgebroidStructure.from_strings(BASE, 2, C, rho1, rho2)
    assert classify_algebroid(A) == "symmetric"


def test_classify_sign_flipped_anchor_pair_is_general():
    C = _cyclic_structure_functions([("x3", "-x2"), ("-x3", "x1"), ("x2", "-x1")])
    p = [["0", "x3", "-x2"], ["-x3", "0", "x1"], ["x2", "-x1", "0"]]
    minus_p = [[e.lstrip("-") if e.startswith("-") else f"-{e}" for e in row] for row in p]
    A = AlgebroidStructure.from_strings(BASE, 3, C, minus_p, p)
    assert classify_algebroid(A) == "general"


# -- symmetric-partner construction -------------------------------------------------------


def test_partner_matches_reference_matrices():
    A = spin_top_structure()
    a1, a2, a3 = Fraction(3, 5), Fraction(2, 5), Fraction(1, 5)
    h1 = top_hamiltonian(A, (a1, a2, a3))
    p4 = prop4_construct_dual_tensor(h1)
    dual = A.dual_chart
    pd = lambda s: parse_poly(dual, s)
    V = [
        a2 * a2 * PB("x2^2") + a3 * a3 * PB("x3^2"),
        a1 * a1 * PB("x1^2") + a3 * a3 * PB("x3^2"),
        a1 * a1 * PB("x1^2") + a2 * a2 * PB("x2^2"),
    ]
    pairs = {(0, 1): a1 * a2, (0, 2): a1 * a3, (1, 2): a2 * a3}
    for i in range(3):
        assert p4.rho2[i][i] == -V[i]
        for j in range(3):
            if i != j:
                coeff = pairs[(min(i, j), max(i, j))]
                assert p4.rho2[i][j] == coeff * PB(f"x{i + 1}*x{j + 1}")
    W = [
        a2 * a2 * pd("x2*xi2") + a3 * a3 * pd("x3*xi3"),
        a1 * a1 * pd("x1*xi1") + a3 * a3 * pd("x3*xi3"),
        a1 * a1 * pd("x1*xi1") + a2 * a2 * pd("x2*xi2"),
    ]
    for a in range(3):
        xa = pd(f"x{a + 1}")
        xia = pd(f"xi{a + 1}")
        expected = PolyFraction(embed(V[a], dual) * xia - xa * W[a], xa)
        assert p4.c_diag[a] == expected


def test_partner_annihilates_generator_both_slots():
    h1 = top_hamiltonian(spin_top_structure())
    p4 = prop4_construct_dual_tensor(h1)
    assert p4.annihilates(h1, "first")
    assert p4.annihilates(h1, "second")
    assert p4.is_symmetric()


def test_partner_annihilates_any_linear_generator():
    dual = Chart.standard(3, 3)
    h1 = parse_poly(dual, "x2*xi1 + x1*x3*xi2 + xi3")
    p4 = prop4_construct_dual_tensor(h1)
    assert p4.annihilates(h1, "first")


def test_partner_zero_coefficient_error():
    dual = Chart.standard(3, 3)
    with pytest.raises(ZeroCoefficientError, match="xi2"):
        prop4_construct_dual_tensor(parse_poly(dual, "x1*xi1 + x2*xi3"))


def test_partner_requires_fiber_linear_input():
    dual = Chart.standard(3, 3)
    with pytest.raises(NotLinearError):
        prop4_construct_dual_tensor(parse_poly(dual, "xi1^2 + xi2 + xi3"))


def test_partner_requires_enough_base_directions():
    dual = Chart.standard(2, 3)
    with pytest.raises(ValueError, match="at least as many base"):
        prop4_construct_dual_tensor(parse_poly(dual, "xi1 + xi2 + xi3"))


def test_fiber_linear_coefficients():
    dual = Chart.standard(2, 2)
    h = parse_poly(dual, "x1*xi1 + x1*x2*xi2")
    c1, c2 = fiber_linear_coefficients(h)
    assert c1 == parse_poly(Chart.standard(2), "x1")
    assert c2 == parse_poly(Chart.standard(2), "x1*x2")


def test_partner_flow_contribution_is_polynomial():
    A = spin_top_structure()
    h1 = top_hamiltonian(A)
    h2 = parse_poly(A.dual_chart, "x1*xi1 + x2*xi2 + x3*xi3")
    p4 = prop4_construct_dual_tensor(h1)
    comps = p4.vf_contrib(h2)
    assert len(comps) == 6
    assert all(isinstance(c, Poly) for c in comps)
    # base components reproduce the dissipative part of the revised top flow
    a1, a2, a3 = Fraction(3, 5), Fraction(2, 5), Fraction(1, 5)
    pd = lambda s: parse_poly(A.dual_chart, s)
    assert comps[0] == a2 * (a1 - a2) * pd("x1*x2^2") + a3 * (a1 - a3) * pd("x1*x3^2")


# -- polynomial fractions -------------------------------------------------------------------


def test_fraction_equality_by_cross_multiplication():
    x1, x2 = PB("x1"), PB("x2")
    # a pair keeps the parts it was given, and compares by num1*den2 == num2*den1
    g = PolyFraction(x1 * x1 - x2 * x2, x1 - x2)
    assert (g.num, g.den) == (x1 * x1 - x2 * x2, x1 - x2)
    assert g == PolyFraction(x1 + x2)
    assert PolyFraction(x1, x2) != PolyFraction(x2, x1)
    assert PolyFraction(2 * x1, 2 * x2) == PolyFraction(x1, x2)


def test_zero_fraction_prints_as_zero():
    # a zero numerator prints as 0, whatever denominator it came with
    zero = PolyFraction(Poly.zero(BASE), PB("x1"))
    assert zero.is_zero
    assert str(zero) == "0"


def test_fraction_to_poly():
    x1, x2 = PB("x1"), PB("x2")
    assert PolyFraction(x1 * x2, x2).to_poly() == x1
    with pytest.raises(ExactDivisionError):
        PolyFraction(x1, x2).to_poly()


def test_fraction_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        PolyFraction(PB("x1"), Poly.zero(BASE))


def test_divide_exact():
    p = PB("x1^2 - x2^2")
    assert divide_exact(p, PB("x1 - x2")) == PB("x1 + x2")
    assert divide_exact(Poly.zero(BASE), PB("x1")).is_zero
    with pytest.raises(ExactDivisionError):
        divide_exact(PB("x1 + 1"), PB("x2"))
    with pytest.raises(ZeroDivisionError):
        divide_exact(PB("x1"), Poly.zero(BASE))


# -- JSON structure files ---------------------------------------------------------------------


def test_json_round_trip():
    A = coupled_oscillator_structure()
    assert structure_from_json(structure_to_json(A)) == A


def test_json_malformed():
    with pytest.raises(ValueError):
        structure_from_json('{"n": 3}')


# -- property tests -----------------------------------------------------------------------------

_coeffs = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)


@st.composite
def base_polys(draw, max_deg=2, base=BASE):
    p = Poly.zero(base)
    for _ in range(draw(st.integers(0, 2))):
        e = tuple(draw(st.integers(0, 1)) for _ in range(base.dim))
        if sum(e) > max_deg:
            e = (1,) + (0,) * (base.dim - 1)
        p = p + Poly(base, {e: draw(_coeffs)})
    return p


@st.composite
def structures(draw, m=2, base=BASE):
    n = base.dim
    polys = base_polys(base=base)
    C = [[[draw(polys) for _ in range(m)] for _ in range(m)] for _ in range(m)]
    rho1 = [[draw(polys) for _ in range(m)] for _ in range(n)]
    rho2 = [[draw(polys) for _ in range(m)] for _ in range(n)]
    return AlgebroidStructure(base, m, C, rho1, rho2)


@st.composite
def sections(draw, m=2):
    return Section(BASE, tuple(draw(base_polys()) for _ in range(m)))


@settings(max_examples=40, deadline=None)
@given(structures())
def test_round_trip_property(A):
    assert structure_from_lambda(lambda_from_structure(A)) == A


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_assembled_tensor_is_fiber_linear(data):
    # lambda_from_structure does not check its result; this is why it need not
    base = data.draw(st.sampled_from([BASE, Chart.standard(1)]))
    A = data.draw(structures(m=data.draw(st.integers(1, 3)), base=base))
    assert fiber_linearity_defect(lambda_from_structure(A)) == ""


@pytest.mark.parametrize("symbolic", [False, True])
@pytest.mark.parametrize(
    "name", ["maxwell-bloch-algebroid", "rigid-body-algebroid", "rigid-body-metriplectic-algebroid"]
)
def test_catalog_tensors_are_fiber_linear(name, symbolic):
    entry = catalog_build(name, symbolic=symbolic)
    A = entry.structure if entry.kind == "algebroid" else entry.structure[0]
    assert fiber_linearity_defect(lambda_from_structure(A)) == ""


@settings(max_examples=40, deadline=None)
@given(structures(), sections(), sections(), base_polys())
def test_certificates_property(A, s1, s2, f):
    assert all(theorem1_check(A, s1, s2, f))


@settings(max_examples=40, deadline=None)
@given(structures(), sections(), sections())
def test_lifted_bracket_is_fiber_linear(A, s1, s2):
    T = lambda_from_structure(A)
    value = T.apply(lift_section(A, s1), lift_section(A, s2))
    assert value.is_zero or value.fiber_degree() <= 1


@settings(max_examples=30, deadline=None)
@given(structures(m=3), sections(m=3), sections(m=3))
def test_lift_intertwines_brackets(A, s1, s2):
    T = lambda_from_structure(A)
    lhs = lift_section(A, section_bracket(A, s1, s2))
    rhs = T.apply(lift_section(A, s1), lift_section(A, s2))
    assert lhs == rhs


@st.composite
def fiber_linear_generators(draw, dual, nonzero=False):
    """sum_a xi_a h^a(x), each h^a of degree at most 1 in every base variable."""
    base = dual.base_only()
    h = Poly.zero(dual)
    for name in dual.fiber:
        c = draw(base_polys(max_deg=base.dim, base=base))
        if nonzero and c.is_zero:
            c = Poly.const(base, 1)
        h = h + embed(c, dual) * Poly.var(dual, name)
    return h


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_drawn_partner_residuals_equal_the_general_bracket(data):
    # the partner's quotient residuals against bracket_fraction, for drawn
    # generators; a second power of a base variable would exceed the degree
    # cap in the comparison, so the coefficients stay multilinear
    n = data.draw(st.integers(1, 3))
    dual = Chart.standard(n, data.draw(st.integers(1, n)))
    h1 = data.draw(fiber_linear_generators(dual, nonzero=True))
    h = data.draw(fiber_linear_generators(dual))
    L2 = prop4_construct_dual_tensor(h1)
    assert L2.annihilates(h1, "first") and L2.annihilates(h1, "second")
    for g in (h1, h):
        for slot in ("first", "second"):
            for name, got in L2.annihilation_residuals(g, slot).items():
                coord = Poly.var(dual, name)
                expected = L2.bracket_fraction(g, coord) if slot == "first" else L2.bracket_fraction(coord, g)
                assert got == expected


@pytest.mark.parametrize("symbolic", [False, True])
def test_partner_annihilation_residuals_equal_the_general_bracket(symbolic):
    # the catalog's partner tensor, contracted once per slot, against
    # bracket_fraction with each coordinate
    entry = catalog_build("rigid-body-metriplectic-algebroid", symbolic=symbolic)
    _A1, L2 = entry.structure
    chart = L2.dual_chart
    for h in (entry.hamiltonians["h1"], entry.hamiltonians["h2"]):
        for slot in ("first", "second"):
            residuals = L2.annihilation_residuals(h, slot)
            assert list(residuals) == list(chart.names)
            for name, got in residuals.items():
                coord = Poly.var(chart, name)
                expected = L2.bracket_fraction(h, coord) if slot == "first" else L2.bracket_fraction(coord, h)
                assert got == expected
                assert str(got) == str(expected)
    # h2 is not annihilated: the comparison is not only between zeros
    assert not L2.annihilates(entry.hamiltonians["h2"], "first")


X2 = Chart(base=("x1", "x2"))
_POOL = ("0", "1", "-1", "x1", "-x1", "x2", "2*x1*x2")


@st.composite
def biased_structures(draw):
    """Structures over a two-variable base, drawn so that C is often exactly
    antisymmetric or symmetric in (a, b) and rho2 often equals +-rho1."""
    m = draw(st.integers(1, 2))
    entry = st.sampled_from(_POOL).map(lambda text: parse_poly(X2, text))
    C = [[[draw(entry) for _ in range(m)] for _ in range(m)] for _ in range(m)]
    shape = draw(st.sampled_from(["antisymmetric", "symmetric", "free"]))
    for a in range(m):
        for b in range(a, m):
            for d in range(m):
                if shape == "antisymmetric":
                    C[a][b][d] = Poly.zero(X2) if a == b else C[a][b][d]
                    C[b][a][d] = -C[a][b][d]
                elif shape == "symmetric":
                    C[b][a][d] = C[a][b][d]
    rho1 = [[draw(entry) for _ in range(m)] for _ in range(X2.dim)]
    anchors = draw(st.sampled_from(["equal", "opposite", "free"]))
    if anchors == "free":
        rho2 = [[draw(entry) for _ in range(m)] for _ in range(X2.dim)]
    else:
        rho2 = [[p if anchors == "equal" else -p for p in row] for row in rho1]
    return AlgebroidStructure(X2, m, C, rho1, rho2)


def _classify_by_definition(A):
    """The class written out on C and the anchors, index by index."""
    triples = [(a, b, d) for a in range(A.m) for b in range(A.m) for d in range(A.m)]
    c_anti = all((A.C[a][b][d] + A.C[b][a][d]).is_zero for a, b, d in triples)
    c_sym = all((A.C[a][b][d] - A.C[b][a][d]).is_zero for a, b, d in triples)
    pairs = [(i, a) for i in range(A.n) for a in range(A.m)]
    rho_equal = all((A.rho1[i][a] - A.rho2[i][a]).is_zero for i, a in pairs)
    rho_opposite = all((A.rho1[i][a] + A.rho2[i][a]).is_zero for i, a in pairs)
    if c_anti and rho_equal:
        return "pre_lie"
    if c_sym and rho_opposite:
        return "symmetric"
    return "general"


@settings(max_examples=200, deadline=None)
@given(biased_structures())
def test_classification_equals_its_definition(A):
    assert classify_algebroid(A) == _classify_by_definition(A)


@pytest.mark.parametrize("symbolic", [False, True])
def test_partner_flow_divides_only_by_nonconstant_denominators(symbolic, monkeypatch):
    # a residual whose denominator is the constant 1 is its numerator already
    entry = catalog_build("rigid-body-metriplectic-algebroid", symbolic=symbolic)
    _A1, L2 = entry.structure
    h2 = entry.hamiltonians["h2"]
    one = Poly.const(L2.dual_chart, 1)
    residuals = list(L2.annihilation_residuals(h2, "second").values())
    nonzero = [r for r in residuals if not r.is_zero]
    assert any(r.den == one for r in nonzero) and any(r.den != one for r in nonzero)
    divisors = []

    def counting(p, d):
        divisors.append(d)
        return divide_exact(p, d)

    monkeypatch.setattr(algebroid, "divide_exact", counting)
    comps = L2.vf_contrib(h2)
    assert divisors == [r.den for r in nonzero if r.den != one]
    assert all(c * r.den == r.num for c, r in zip(comps, residuals, strict=True))
