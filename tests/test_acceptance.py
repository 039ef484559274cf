"""Acceptance suite: one test per acceptance criterion, run with -v for a
one-line pass/fail verdict each.

Criterion 5 bundles three independent claims, so it appears as 5a/5b/5c;
5a is expected to fail: the antisymmetric rigid-body structure does not
annihilate the coordinate-pairing generator (the exact residuals are
recorded in the package's known-misprints data file), and the test states
the claim faithfully rather than weakening it.

Numeric thresholds used below (everything else is exact):
  - conserved-quantity drift bound: 1e-8 (fixed-step classical scheme, step 1e-3, span 10)
  - per-step monotonicity tolerance: 1e-12
  - minimum fourth-order error-shrink factor when halving the step: 15
"""

import math
import random
from fractions import Fraction

import pytest

from leibniz.algebroid import (
    AlgebroidStructure,
    Section,
    lambda_from_structure,
    section_bracket,
    theorem1_check,
)
from leibniz.brackets import (
    TensorField2,
    annihilator_check,
    annihilator_residuals,
    check_derivation_first,
    check_derivation_second,
    check_pair_product,
    check_pair_scaling,
)
from leibniz.catalog import catalog_build, catalog_verify
from leibniz.cli import main
from leibniz.dynamics import (
    MONOTONE_TOL,
    IntegratorConfig,
    OdeSystem,
    integrate,
    lie_derivative,
    observe,
    rhs_from_bracket,
)
from leibniz.poly import Chart, Poly, parse_poly, restrict

CONSERVED_DRIFT_TOL = 1e-8
MONOTONE_STEP_TOL = 1e-12
ORDER_FACTOR_MIN = 15.0

X3 = Chart(base=("x1", "x2", "x3"))
SEED = 20260814

A_NUMERIC = (Fraction(3, 5), Fraction(2, 5), Fraction(1, 5))


def _rand_poly(chart: Chart, rng: random.Random, max_deg: int, n_terms: int = 3) -> Poly:
    total = Poly.zero(chart)
    for _ in range(n_terms):
        exponents = [0] * chart.dim
        for _ in range(rng.randint(0, max_deg)):
            exponents[rng.randrange(chart.dim)] += 1
        coeff = Fraction(rng.randint(1, 4) * rng.choice((-1, 1)), rng.randint(1, 3))
        mono = Poly.const(chart, coeff)
        for name, e in zip(chart.names, exponents):
            for _ in range(e):
                mono = mono * Poly.var(chart, name)
        total = total + mono
    return total


def _rand_structure(rng: random.Random, m: int = 3) -> AlgebroidStructure:
    """Random structure with degree <= 1 coefficient data on the 3d base."""
    C = [
        [[_rand_poly(X3, rng, 1, n_terms=1) for _ in range(m)] for _ in range(m)]
        for _ in range(m)
    ]
    rho1 = [[_rand_poly(X3, rng, 1, n_terms=1) for _ in range(m)] for _ in range(3)]
    rho2 = [[_rand_poly(X3, rng, 1, n_terms=1) for _ in range(m)] for _ in range(3)]
    return AlgebroidStructure(X3, m, C, rho1, rho2)


def _rand_section(rng: random.Random, m: int = 3) -> Section:
    return Section(X3, tuple(_rand_poly(X3, rng, 2, n_terms=2) for _ in range(m)))


def _spin_tensor(chart: Chart) -> TensorField2:
    return TensorField2.from_strings(
        chart, [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]
    )


def _top_energy(chart: Chart, a) -> Poly:
    h = Poly.zero(chart)
    for i, ai in enumerate(a, start=1):
        h = h + Fraction(1, 2) * (ai + 1) * parse_poly(chart, f"x{i}^2")
    return h


def _half_norm(chart: Chart) -> Poly:
    return parse_poly(chart, "1/2*x1^2 + 1/2*x2^2 + 1/2*x3^2")


# -- criterion 1 ---------------------------------------------------------------------


def test_criterion_1_exact_flow_reproduction():
    """Derived right-hand sides equal the transcribed references, exactly.

    All parameterized systems are compared fully symbolically (parameters as
    chart variables), so the zero residual holds for every admissible
    parameter value, not just the defaults.
    """
    # diagonal symmetric tensor, cubic generator; symbolic coefficients, unit signs
    assert catalog_verify(catalog_build("gradient-beltrami", symbolic=True)).clean
    # damped top with symbolic moments
    assert catalog_verify(catalog_build("revised-rigid-body", symbolic=True)).clean
    # the two mixed-pair examples (no parameters)
    assert catalog_verify("almost-leibniz-ex2").clean
    assert catalog_verify("almost-leibniz-ex3").clean
    # fiber-linear free top, weighted linear generator, symbolic weights
    assert catalog_verify(catalog_build("rigid-body-algebroid", symbolic=True)).clean
    # combined antisymmetric + constructed symmetric flow, symbolic weights
    assert catalog_verify(catalog_build("rigid-body-metriplectic-algebroid", symbolic=True)).clean
    # base components of the misprinted entry still match exactly
    report = catalog_verify("maxwell-bloch-algebroid")
    for diff in report.diffs:
        if diff.component in ("x1", "x2", "x3"):
            assert diff.residual.is_zero, diff.component


# -- criterion 2 ---------------------------------------------------------------------


def test_criterion_2_documented_misprint_isolated():
    """The transcribed reference differs from the derivation in exactly one
    component, by a stable, recorded residual."""
    runs = [catalog_verify("maxwell-bloch-algebroid") for _ in range(2)]
    for report in runs:
        bad = [d for d in report.diffs if not d.residual.is_zero]
        assert len(bad) == 1
        assert bad[0].component == "xi1"
        assert bad[0].residual == parse_poly(bad[0].derived.chart, "x2*xi3")
        assert bad[0].whitelisted
    first = {d.component: str(d.residual) for d in runs[0].diffs}
    second = {d.component: str(d.residual) for d in runs[1].diffs}
    assert first == second


# -- criterion 3 ---------------------------------------------------------------------


def test_criterion_3_base_flow_cross_check():
    """The base components of the combined-structure flow equal the damped-top
    flow derived independently from the tensor pair — exactly, including with
    symbolic parameters."""
    for symbolic in (False, True):
        combined = catalog_build("rigid-body-metriplectic-algebroid", symbolic=symbolic)
        damped = catalog_build("revised-rigid-body", symbolic=symbolic)
        n = damped.chart.dim
        base_part = tuple(restrict(p, damped.chart) for p in combined.system.rhs[:n])
        assert base_part == damped.system.rhs


# -- criterion 4 ---------------------------------------------------------------------


def test_criterion_4_identity_suites():
    """Exact identity checks on random inputs:

    - derivation in each bracket slot (any 2-tensor), 50 rounds, degree <= 3;
    - product and scaling rules of the two-generator bracket for a tensor
      pair, 50 rounds each on the base chart and on a dual chart;
    - structure-tensor compatibility (bracket lift + both anchor contractions)
      for 20 random degree <= 1 structures with degree <= 2 sections;
    - mixed product rule of the section bracket in both arguments.
    """
    rng = random.Random(SEED)

    pair_entry = catalog_build("revised-rigid-body")
    P = pair_entry.structure.P
    g = pair_entry.structure.g
    full = TensorField2(
        P.chart, [[P.entry(i, j) + g.entry(i, j) for j in range(3)] for i in range(3)]
    )
    for _ in range(50):
        f, h, w = (_rand_poly(X3, rng, 3) for _ in range(3))
        assert check_derivation_first(full, f, h, w).passed
        assert check_derivation_second(full, f, h, w).passed

    for _ in range(50):
        f, f1, scale, h1, h2 = (_rand_poly(X3, rng, 3) for _ in range(5))
        assert check_pair_product(P, g, f, f1, h1, h2).passed
        assert check_pair_scaling(P, g, f, scale, h1, h2).passed

    # same two rules for a pair of fiber-linear structure tensors on one dual chart
    L_top = lambda_from_structure(catalog_build("rigid-body-algebroid").structure)
    L_mb = lambda_from_structure(catalog_build("maxwell-bloch-algebroid").structure)
    dual = L_top.chart
    assert dual == L_mb.chart
    for _ in range(50):
        f, f1, scale, h1, h2 = (_rand_poly(dual, rng, 3, n_terms=2) for _ in range(5))
        assert check_pair_product(L_top, L_mb, f, f1, h1, h2).passed
        assert check_pair_scaling(L_top, L_mb, f, scale, h1, h2).passed

    for _ in range(20):
        A = _rand_structure(rng)
        s1, s2 = _rand_section(rng), _rand_section(rng)
        f = _rand_poly(X3, rng, 2, n_terms=2)
        assert all(theorem1_check(A, s1, s2, f))

        # mixed product rule of the section bracket, both arguments
        fs2 = Section(X3, tuple(f * c for c in s2.components))
        fs1 = Section(X3, tuple(f * c for c in s1.components))
        plain = section_bracket(A, s1, s2)
        left = section_bracket(A, s1, fs2)
        right = section_bracket(A, fs1, s2)
        rho1_s1_f = sum(
            (s1.components[a] * sum((A.rho1[i][a] * f.diff(X3.names[i]) for i in range(3)),
                                    Poly.zero(X3)) for a in range(A.m)),
            Poly.zero(X3),
        )
        rho2_s2_f = sum(
            (s2.components[a] * sum((A.rho2[i][a] * f.diff(X3.names[i]) for i in range(3)),
                                    Poly.zero(X3)) for a in range(A.m)),
            Poly.zero(X3),
        )
        for d in range(A.m):
            assert left.components[d] == f * plain.components[d] + rho1_s1_f * s2.components[d]
            assert right.components[d] == f * plain.components[d] - rho2_s2_f * s1.components[d]


# -- criterion 5 ---------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the antisymmetric free-top structure does not annihilate the "
        "coordinate-pairing generator: three fiber components carry an exact "
        "nonzero residual, recorded in data/known_misprints.json"
    ),
)
def test_criterion_5a_antisymmetric_part_annihilates_pairing():
    entry = catalog_build("rigid-body-metriplectic-algebroid")
    A1, _L2 = entry.structure
    L1 = lambda_from_structure(A1)
    h2 = entry.hamiltonians["h2"]
    assert annihilator_check(L1, h2, slot="first")
    assert annihilator_check(L1, h2, slot="second")


def test_criterion_5a_residuals_are_the_recorded_ones():
    """Companion to 5a: the failure is exactly the documented one — the base
    components vanish and the three fiber residuals match the data file."""
    entry = catalog_build("rigid-body-metriplectic-algebroid")
    A1, _L2 = entry.structure
    L1 = lambda_from_structure(A1)
    residuals = annihilator_residuals(L1, entry.hamiltonians["h2"], slot="first")
    dual = entry.chart
    expected = {
        "x1": Poly.zero(dual),
        "x2": Poly.zero(dual),
        "x3": Poly.zero(dual),
        "xi1": parse_poly(dual, "x2*x3*xi2 - x2*x3*xi3 - x2*xi3 + x3*xi2"),
        "xi2": parse_poly(dual, "-x1*x3*xi1 + x1*x3*xi3 + x1*xi3 - x3*xi1"),
        "xi3": parse_poly(dual, "x1*x2*xi1 - x1*x2*xi2 - x1*xi2 + x2*xi1"),
    }
    assert residuals == expected


def test_criterion_5b_constructed_partner_annihilates_generator():
    entry = catalog_build("rigid-body-metriplectic-algebroid")
    _A1, L2 = entry.structure
    h1 = entry.hamiltonians["h1"]
    assert L2.annihilates(h1, slot="first")
    assert L2.annihilates(h1, slot="second")
    # and symbolically in the weights
    sym = catalog_build("rigid-body-metriplectic-algebroid", symbolic=True)
    _A1s, L2s = sym.structure
    assert L2s.annihilates(sym.hamiltonians["h1"], slot="first")
    assert L2s.annihilates(sym.hamiltonians["h1"], slot="second")


def test_criterion_5c_constructed_partner_matches_reference():
    """The constructed right anchor and fiber structure functions equal the
    transcribed matrices entrywise; the catalog builder asserts this at build
    time, so a successful build (numeric and symbolic) is the certificate."""
    for symbolic in (False, True):
        entry = catalog_build("rigid-body-metriplectic-algebroid", symbolic=symbolic)
        _A1, L2 = entry.structure
        assert L2.is_symmetric()


# -- criterion 6 ---------------------------------------------------------------------


def test_criterion_6_conservation_and_dissipation():
    """Numeric drift claims, each gated by the exact symbolic derivative."""
    config = IntegratorConfig(method="rk4_fixed", t_end=10.0, step=1e-3)

    # (a) the antisymmetric part alone conserves the half-norm
    spin_system = rhs_from_bracket(_spin_tensor(X3), _top_energy(X3, A_NUMERIC), "spin-only")
    half_norm = _half_norm(X3)
    assert lie_derivative(spin_system, half_norm).is_zero  # exact gate
    trajectory = integrate(spin_system, (1.0, 0.5, 0.2), config)
    assert trajectory.ok
    report = observe(spin_system, trajectory, {"half-norm": half_norm})
    assert report["half-norm"].drift <= CONSERVED_DRIFT_TOL

    # (b) the combined damped flow dissipates it: the exact derivative is a
    # negated sum of squares, and the sampled series is nonincreasing
    damped = catalog_build("revised-rigid-body")
    a1, a2, a3 = A_NUMERIC
    deriv = lie_derivative(damped.system, half_norm)
    sos_terms = [
        ((a1 - a2), "x1*x2"),
        ((a1 - a3), "x1*x3"),
        ((a2 - a3), "x2*x3"),
    ]
    sos = Poly.zero(X3)
    for coeff, mono in sos_terms:
        term = Poly.const(X3, coeff) * parse_poly(X3, mono)
        sos = sos - term * term
    assert deriv == sos  # exact gate: manifestly nonpositive
    trajectory = integrate(damped.system, damped.x0, config)
    assert trajectory.ok
    assert MONOTONE_TOL == MONOTONE_STEP_TOL  # the per-step tolerance observe applies
    report = observe(damped.system, trajectory, {"half-norm": half_norm})
    assert report["half-norm"].monotonicity == "nonincreasing"

    # (c) both quadratic invariants are conserved along the misprinted entry's
    # base flow
    mb = catalog_build("maxwell-bloch-algebroid")
    base_system = OdeSystem(
        X3, tuple(restrict(p, X3) for p in mb.system.rhs[:3]), "mb-base"
    )
    h1 = parse_poly(X3, "1/2*x2^2 + 1/2*x3^2")
    h2 = parse_poly(X3, "1/2*x1^2 + x3")
    assert lie_derivative(base_system, h1).is_zero  # exact gates
    assert lie_derivative(base_system, h2).is_zero
    trajectory = integrate(base_system, (0.5, 0.5, 0.5), config)
    assert trajectory.ok
    report = observe(base_system, trajectory, {"h1": h1, "h2": h2})
    assert report["h1"].drift <= CONSERVED_DRIFT_TOL
    assert report["h2"].drift <= CONSERVED_DRIFT_TOL


# -- criterion 7 ---------------------------------------------------------------------


def test_criterion_7_integrator_order():
    """Endpoint error of the fixed-step scheme on a unit exponential shrinks
    by at least the pinned factor when the step halves."""
    chart = Chart(base=("x1",))
    system = OdeSystem(chart, (Poly.var(chart, "x1"),), "exponential")
    errors = []
    for step in (1e-2, 5e-3):
        config = IntegratorConfig(method="rk4_fixed", t_end=1.0, step=step)
        trajectory = integrate(system, (1.0,), config)
        errors.append(abs(trajectory.states[-1, 0] - math.e))
    assert errors[0] / errors[1] >= ORDER_FACTOR_MIN


# -- criterion 8 ---------------------------------------------------------------------


def test_criterion_8_orbit_figures(tmp_path):
    """Both chart projections render for each of the three fiber-linear
    flows: six standalone SVG documents, written through the CLI."""
    outputs = []
    for name in (
        "maxwell-bloch-algebroid",
        "rigid-body-algebroid",
        "rigid-body-metriplectic-algebroid",
    ):
        for proj in ("oblique3d_x", "oblique3d_xi"):
            out = tmp_path / f"{name}-{proj}.svg"
            assert main(["plot", name, "--proj", proj, "-o", str(out)]) == 0
            outputs.append(out)
    assert len(outputs) == 6
    for out in outputs:
        text = out.read_text()
        assert text.startswith("<?xml")
        assert "<polyline" in text
        assert text.rstrip().endswith("</svg>")
