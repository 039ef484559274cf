"""Tests for ODE assembly, integration kernels, and observable tracking."""

import itertools
import math
import pickle
import random
import struct
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz import _kernels, dynamics
from leibniz.algebroid import (
    AlgebroidStructure,
    lambda_from_structure,
    prop4_construct_dual_tensor,
)
from leibniz.brackets import MetriplecticPair, TensorField2
from leibniz.catalog import catalog_build
from leibniz.dynamics import (
    IntegratorConfig,
    OdeSystem,
    Trajectory,
    integrate,
    lie_derivative,
    observe,
    rhs_from_algebroid,
    rhs_from_bracket,
    rhs_from_pair,
    rhs_metriplectic_algebroid,
    trajectory_from_json,
    trajectory_to_csv,
    trajectory_to_json,
)
from leibniz.poly import Chart, ChartMismatchError, Poly, float_evaluator, parse_poly, restrict

X3 = Chart(base=("x1", "x2", "x3"))
X1 = Chart(base=("x1",))

SPIN_ROWS = [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]]


def spin_tensor() -> TensorField2:
    return TensorField2.from_strings(X3, SPIN_ROWS)


def top_energy(a1, a2, a3) -> Poly:
    """(1/2) sum_i (a_i + 1) (x^i)^2 for exact-rational a."""
    parts = []
    for i, a in enumerate((a1, a2, a3), start=1):
        coeff = (Fraction(a) + 1) / 2
        parts.append(f"{coeff}*x{i}^2")
    return parse_poly(X3, " + ".join(parts))


def spin_system(a=(Fraction(3, 5), Fraction(2, 5), Fraction(1, 5))) -> OdeSystem:
    return rhs_from_bracket(spin_tensor(), top_energy(*a), "spin-top")


def dissipative_top_system(a=(Fraction(3, 5), Fraction(2, 5), Fraction(1, 5))) -> OdeSystem:
    """Antisymmetric part plus the quadratic dissipative tensor, same energy."""
    avec = [Fraction(v) for v in a]
    x = [Poly.var(X3, name) for name in X3.names]
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            if i == j:
                entry = Poly.zero(X3)
                for k in range(3):
                    if k != i:
                        entry = entry - Poly.const(X3, avec[k] ** 2) * x[k] * x[k]
            else:
                entry = Poly.const(X3, avec[i] * avec[j]) * x[i] * x[j]
            row.append(entry)
        rows.append(row)
    pair = MetriplecticPair(spin_tensor(), TensorField2(X3, rows))
    h = top_energy(*avec)
    return rhs_from_pair(pair, h, h, "dissipative-top")


def oscillator_structure() -> AlgebroidStructure:
    """Fiber-linear structure with rotational structure functions and mixed anchors."""
    z = "0"
    C = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    C[0][1][2] = "-x3"
    C[0][2][1] = "x2"
    C[1][0][2] = "x3"
    C[1][2][0] = "-x1"
    C[2][0][1] = "-x2"
    C[2][1][0] = "x1"
    rho1 = [[z, "x3", "-x2"], ["-x3", z, z], ["x2", z, z]]
    rho2 = [[z, "-1", z], ["1", z, "-x1"], [z, "x1", z]]
    return AlgebroidStructure.from_strings(X3, 3, C, rho1, rho2)


def spin_top_structure() -> AlgebroidStructure:
    """Pre-Lie structure generating the free-top equations on the base."""
    z = "0"
    C = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    C[0][1][2] = "x3"
    C[0][2][1] = "-x2"
    C[1][0][2] = "-x3"
    C[1][2][0] = "x1"
    C[2][0][1] = "x2"
    C[2][1][0] = "-x1"
    p = [["0", "x3", "-x2"], ["-x3", "0", "x1"], ["x2", "-x1", "0"]]
    return AlgebroidStructure.from_strings(X3, 3, C, p, p)


def _rand_poly(chart: Chart, rng: random.Random, max_deg: int = 2) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        expt = [0] * chart.dim
        for _ in range(rng.randint(0, max_deg)):
            expt[rng.randrange(chart.dim)] += 1
        terms[tuple(expt)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(chart, terms)


# -- rhs assembly -------------------------------------------------------------------


class TestRhsBuilders:
    def test_bracket_rhs_spin_top(self):
        sys = spin_system()
        assert [str(p) for p in sys.rhs] == ["-1/5*x2*x3", "2/5*x1*x3", "-1/5*x1*x2"]
        assert sys.provenance == "spin-top"
        assert sys.dim == 3

    def test_zero_bracket_rhs(self):
        sys = rhs_from_bracket(TensorField2.zero(X3), parse_poly(X3, "x1*x2*x3"))
        assert all(p.is_zero for p in sys.rhs)

    def test_pair_rhs_matches_reference_components(self):
        chart = X3
        P = TensorField2.from_strings(chart, [["0", "1", "0"], ["-1", "0", "x1"], ["0", "-x1", "0"]])
        g = TensorField2.from_strings(
            chart, [["0", "0", "0"], ["0", "-x3^2", "0"], ["0", "0", "-x2^2"]]
        )
        pair = MetriplecticPair(P, g)
        h1 = parse_poly(chart, "1/2*x2^2 + 1/2*x3^2")
        h2 = parse_poly(chart, "1/2*x1^2 + x3")
        sys = rhs_from_pair(pair, h1, h2)
        assert [str(p) for p in sys.rhs] == ["x2", "x1*x3", "-x1*x2 - x2^2"]

    def test_algebroid_rhs_base_components(self):
        A = oscillator_structure()
        h = parse_poly(A.dual_chart, "x2*xi2 + x3*xi3")
        sys = rhs_from_algebroid(A, h)
        assert [str(p) for p in sys.rhs[:3]] == ["x2", "x1*x3", "-x1*x2"]

    def test_algebroid_rhs_equals_tensor_route(self):
        A = oscillator_structure()
        h = parse_poly(A.dual_chart, "x2*xi2 + x3*xi3")
        direct = rhs_from_algebroid(A, h)
        via_tensor = rhs_from_bracket(lambda_from_structure(A).tensor, h)
        assert direct.rhs == via_tensor.rhs

    def test_dual_path_equality_random(self):
        rng = random.Random(20260814)
        chart = Chart(base=("x1", "x2"))
        for _ in range(10):
            C = [
                [[_rand_poly(chart, rng, 1) for _ in range(2)] for _ in range(2)]
                for _ in range(2)
            ]
            rho1 = [[_rand_poly(chart, rng, 1) for _ in range(2)] for _ in range(2)]
            rho2 = [[_rand_poly(chart, rng, 1) for _ in range(2)] for _ in range(2)]
            A = AlgebroidStructure(chart, 2, C, rho1, rho2)
            h = _rand_poly(A.dual_chart, rng, 2)
            direct = rhs_from_algebroid(A, h)
            via_tensor = rhs_from_bracket(lambda_from_structure(A).tensor, h)
            assert direct.rhs == via_tensor.rhs

    def test_metriplectic_with_zeroed_second_part(self):
        A1 = spin_top_structure()
        h1 = parse_poly(A1.dual_chart, "3/5*x1*xi1 + 2/5*x2*xi2 + 1/5*x3*xi3")
        h2 = parse_poly(A1.dual_chart, "x1*xi1 + x2*xi2 + x3*xi3")
        A2 = AlgebroidStructure.zero(X3, 3)
        combined = rhs_metriplectic_algebroid(A1, A2, h1, h2)
        assert combined.rhs == rhs_from_algebroid(A1, h1).rhs

    def test_metriplectic_with_constructed_second_part(self):
        A1 = spin_top_structure()
        h1 = parse_poly(A1.dual_chart, "3/5*x1*xi1 + 2/5*x2*xi2 + 1/5*x3*xi3")
        h2 = parse_poly(A1.dual_chart, "x1*xi1 + x2*xi2 + x3*xi3")
        L2 = prop4_construct_dual_tensor(h1)
        combined = rhs_metriplectic_algebroid(A1, L2, h1, h2)
        # base components must reproduce the damped top built on the plain chart
        pair_route = dissipative_top_system()
        base = [restrict(p, X3) for p in combined.rhs[:3]]
        assert tuple(base) == pair_route.rhs
        # fiber components are present and fiber-linear
        assert any(not p.is_zero for p in combined.rhs[3:])
        assert all(p.fiber_degree() <= 1 for p in combined.rhs[3:])

    def test_metriplectic_chart_mismatch(self):
        A1 = spin_top_structure()
        other = AlgebroidStructure.zero(Chart(base=("x1", "x2")), 2)
        h1 = parse_poly(A1.dual_chart, "x1*xi1")
        with pytest.raises(ChartMismatchError):
            rhs_metriplectic_algebroid(A1, other, h1, h1)

    def test_system_validation(self):
        with pytest.raises(ValueError):
            OdeSystem(X3, (Poly.zero(X3),))
        with pytest.raises(ChartMismatchError):
            OdeSystem(X3, (Poly.zero(X3), Poly.zero(X3), Poly.zero(X1)))


# -- float evaluation ---------------------------------------------------------------


def _drawn_poly(data) -> Poly:
    terms = data.draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-3, max_value=3, max_denominator=50),
            max_size=6,
        )
    )
    return Poly(X3, terms)


class TestFloatEvaluator:
    """The generated evaluator against ``Poly.evaluate`` and exact evaluation."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_evaluate_bitwise_and_exact(self, data):
        polys = [_drawn_poly(data) for _ in range(data.draw(st.integers(1, 3)))]
        point = data.draw(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
        values = float_evaluator(polys)(point)
        assert len(values) == len(polys)
        for value, p in zip(values, polys):
            assert type(value) is float
            assert struct.pack("<d", value) == struct.pack("<d", p.evaluate(point))
            exact = p.evaluate_exact([Fraction(v) for v in point])
            # relative to the size of the terms, which cancellation can exceed |exact| by far
            size = Poly(X3, {e: abs(c) for e, c in p.terms()}).evaluate_exact(
                [abs(Fraction(v)) for v in point]
            )
            assert abs(Fraction(value) - exact) <= Fraction(1e-12) * max(1, size)

    def test_zero_and_constant_components(self):
        polys = [Poly.zero(X3), Poly.const(X3, Fraction(5, 2)), parse_poly(X3, "-x2 + 1/3")]
        assert float_evaluator(polys)([7.0, 2.0, -1.0]) == (0.0, 2.5, -2.0 + 1 / 3)
        with pytest.raises(ChartMismatchError):
            float_evaluator([Poly.zero(X3), Poly.zero(X1)])

    def test_large_polynomial_compiles(self):
        # one term per exponent in {0..4}^6: a single expression for this many
        # terms would exceed the compiler's recursion limit
        chart = Chart.standard(6)
        terms = {
            e: Fraction(k % 7 - 3 or 5, k % 5 + 1)
            for k, e in enumerate(itertools.product(range(5), repeat=6))
        }
        p = Poly(chart, terms)
        assert len(terms) == 15_625
        point = [0.9, 1.05, -0.95, 1.1, 0.8, -1.02]
        (value,) = float_evaluator([p])(point)
        assert struct.pack("<d", value) == struct.pack("<d", p.evaluate(point))

    def test_keyword_chart_names(self):
        chart = Chart(base=("if", "lambda"))
        p = Poly(chart, {(1, 1): Fraction(2), (0, 2): Fraction(-1)})
        assert float_evaluator([p, p.diff("if")])([3.0, 0.5]) == (2.75, 1.0)

    def test_system_pickles_after_integrate(self):
        sys = dissipative_top_system()
        before = (pickle.dumps(sys), repr(sys), hash(sys))
        cfg = IntegratorConfig(method="rk4_fixed", t_end=0.1, step=1e-2)
        assert integrate(sys, [1.0, 0.5, 0.2], cfg).ok
        assert "_evaluator" in vars(sys)  # the cached evaluator is in place
        assert (pickle.dumps(sys), repr(sys), hash(sys)) == before
        copy = pickle.loads(before[0])
        assert copy == sys and hash(copy) == hash(sys)
        assert np.array_equal(
            integrate(copy, [1.0, 0.5, 0.2], cfg).states, integrate(sys, [1.0, 0.5, 0.2], cfg).states
        )


# -- integration --------------------------------------------------------------------


def exponential_system() -> OdeSystem:
    return OdeSystem(X1, (parse_poly(X1, "x1"),), "exp")


class TestIntegrate:
    def test_exponential_endpoint(self):
        cfg = IntegratorConfig(method="rk4_fixed", t_end=1.0, step=1e-3)
        traj = integrate(exponential_system(), [1.0], cfg)
        assert traj.ok
        assert abs(traj.states[-1, 0] - math.e) < 1e-9

    def test_rk4_order(self):
        sys = exponential_system()
        errs = []
        for step in (1e-2, 5e-3):
            cfg = IntegratorConfig(method="rk4_fixed", t_end=1.0, step=step)
            traj = integrate(sys, [1.0], cfg)
            errs.append(abs(traj.states[-1, 0] - math.e))
        assert errs[0] / errs[1] >= 15.0

    def test_trajectory_shape_and_invariants(self):
        cfg = IntegratorConfig(method="rk4_fixed", t_end=0.5, step=1e-2)
        traj = integrate(spin_system(), [1.0, 0.5, 0.2], cfg)
        assert traj.times[0] == 0.0
        assert traj.states[0].tolist() == [1.0, 0.5, 0.2]
        assert len(traj.times) == math.ceil(0.5 / 1e-2) + 1
        assert np.all(np.diff(traj.times) > 0)
        assert traj.accepted == len(traj.times) - 1

    def test_zero_rhs_constant_trajectory(self):
        sys = OdeSystem(X3, (Poly.zero(X3),) * 3)
        for method in ("rk4_fixed", "rk45_adaptive"):
            cfg = IntegratorConfig(method=method, t_end=2.0, step=0.1)
            traj = integrate(sys, [1.0, -2.0, 0.5], cfg)
            assert traj.ok
            assert np.all(traj.states == np.array([1.0, -2.0, 0.5]))

    def test_adaptive_reaches_t_end(self):
        cfg = IntegratorConfig(method="rk45_adaptive", t_end=10.0)
        traj = integrate(spin_system(), [1.0, 0.5, 0.2], cfg)
        assert traj.ok
        assert traj.times[-1] == pytest.approx(10.0, abs=0, rel=0)
        assert traj.accepted == len(traj.times) - 1
        assert np.all(np.diff(traj.times) > 0)

    def test_adaptive_tolerance_consistency(self):
        ends = []
        for tol in (1e-10, 1e-12):
            cfg = IntegratorConfig(method="rk45_adaptive", t_end=10.0, abs_tol=tol, rel_tol=tol)
            traj = integrate(spin_system(), [1.0, 0.5, 0.2], cfg)
            assert traj.ok
            ends.append(traj.states[-1])
        assert np.max(np.abs(ends[0] - ends[1])) <= 1e-8

    def test_rk4_blowup_keeps_last_finite_state(self):
        sys = OdeSystem(X1, (parse_poly(X1, "x1^2"),), "blowup")
        cfg = IntegratorConfig(method="rk4_fixed", t_end=2.0, step=1e-3)
        traj = integrate(sys, [1.0], cfg)
        assert traj.status == _kernels.STATUS_NONFINITE
        assert not traj.ok
        assert np.all(np.isfinite(traj.states))
        assert 0.5 < traj.times[-1] < 2.0  # true solution blows up at t = 1

    def test_adaptive_blowup_stalls_before_singularity(self):
        sys = OdeSystem(X1, (parse_poly(X1, "x1^2"),), "blowup")
        cfg = IntegratorConfig(method="rk45_adaptive", t_end=2.0, max_steps=5000)
        traj = integrate(sys, [1.0], cfg)
        assert traj.status in (_kernels.STATUS_MAX_STEPS, _kernels.STATUS_UNDERFLOW)
        assert np.all(np.isfinite(traj.states))
        assert traj.times[-1] <= 1.01

    def test_adaptive_max_steps_status(self):
        cfg = IntegratorConfig(method="rk45_adaptive", t_end=10.0, max_steps=5)
        traj = integrate(spin_system(), [1.0, 0.5, 0.2], cfg)
        assert traj.status == _kernels.STATUS_MAX_STEPS
        assert len(traj.times) <= 6

    def test_rk4_max_steps_guard(self):
        cfg = IntegratorConfig(method="rk4_fixed", t_end=10.0, step=1e-3, max_steps=100)
        with pytest.raises(ValueError, match="max_steps"):
            integrate(spin_system(), [1.0, 0.5, 0.2], cfg)

    def test_initial_state_validation(self):
        cfg = IntegratorConfig(method="rk4_fixed", t_end=1.0, step=0.1)
        with pytest.raises(ValueError, match="shape"):
            integrate(spin_system(), [1.0, 0.5], cfg)
        with pytest.raises(ValueError, match="finite"):
            integrate(spin_system(), [1.0, float("nan"), 0.0], cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="method"):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError, match="t_end"):
            IntegratorConfig(t_end=0.0)
        with pytest.raises(ValueError, match="step"):
            IntegratorConfig(step=-1e-3)
        with pytest.raises(ValueError, match="positive"):
            IntegratorConfig(abs_tol=0.0)
        with pytest.raises(ValueError, match="positive"):
            IntegratorConfig(rel_tol=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                IntegratorConfig(abs_tol=bad)
            with pytest.raises(ValueError, match="finite"):
                IntegratorConfig(rel_tol=bad)
        with pytest.raises(ValueError, match="max_steps"):
            IntegratorConfig(max_steps=0)

    def test_adaptive_memory_follows_output_not_max_steps(self):
        # a budget of 10**9 steps must not be allocated up front
        cfg = IntegratorConfig(method="rk45_adaptive", t_end=1.0, max_steps=10**9)
        traj = integrate(spin_system(), [1.0, 0.5, 0.2], cfg)
        assert traj.ok
        assert traj.states.shape == (traj.accepted + 1, 3)

    def test_adaptive_rows_cost_little_more_than_their_floats(self):
        entry = catalog_build("revised-rigid-body")
        cfg = IntegratorConfig(method="rk45_adaptive", t_end=200.0, abs_tol=1e-12, rel_tol=1e-12)
        # the first call builds and caches the evaluator, a one-time cost per
        # system; the measured call then allocates only for its rows
        integrate(entry.system, entry.x0, IntegratorConfig(t_end=1e-3))
        tracemalloc.start()
        try:
            traj = integrate(entry.system, entry.x0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = len(traj.times)
        assert traj.ok and traj.states.shape == (rows, 3) and rows > 500
        assert peak <= 80 * rows  # the output itself is 32 bytes per row

    def test_determinism_bitwise(self):
        for method in ("rk4_fixed", "rk45_adaptive"):
            cfg = IntegratorConfig(method=method, t_end=5.0, step=1e-2)
            a = integrate(spin_system(), [1.0, 0.5, 0.2], cfg)
            b = integrate(spin_system(), [1.0, 0.5, 0.2], cfg)
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.states, b.states)
            assert (a.accepted, a.rejected) == (b.accepted, b.rejected)


# Dormand & Prince (1980), "A family of embedded Runge-Kutta formulae": the
# stage matrix and the 5th-order weights the solution advances with.
DP_A = [
    [],
    [Fraction(1, 5)],
    [Fraction(3, 40), Fraction(9, 40)],
    [Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)],
    [Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561), Fraction(-212, 729)],
    [
        Fraction(9017, 3168),
        Fraction(-355, 33),
        Fraction(46732, 5247),
        Fraction(49, 176),
        Fraction(-5103, 18656),
    ],
]
DP_B = [
    Fraction(35, 384),
    Fraction(0),
    Fraction(500, 1113),
    Fraction(125, 192),
    Fraction(-2187, 6784),
    Fraction(11, 84),
]


def _exact_rk_step(system, y, h, a, b) -> list[Fraction]:
    """One explicit Runge-Kutta step in rational arithmetic."""
    k: list[list[Fraction]] = []
    for row in a:
        stage = [yi + h * sum(aj * kj[i] for aj, kj in zip(row, k)) for i, yi in enumerate(y)]
        k.append([p.evaluate_exact(stage) for p in system.rhs])
    return [yi + h * sum(bj * kj[i] for bj, kj in zip(b, k)) for i, yi in enumerate(y)]


def _assert_close_to_exact(floats, exact):
    for value, ref in zip(floats, exact):
        assert abs(Fraction(float(value)) - ref) <= Fraction(1e-12) * max(1, abs(ref))


class TestStepsAgainstExactArithmetic:
    """Float steps of ``integrate`` against the same scheme in exact rationals."""

    @pytest.fixture(scope="class")
    def entry(self):
        entry = catalog_build("rigid-body-metriplectic-algebroid")
        assert not all(p.is_zero for p in entry.system.rhs)
        return entry

    def test_rk4_steps(self, entry):
        cfg = IntegratorConfig(method="rk4_fixed", t_end=0.05, step=1e-2)
        traj = integrate(entry.system, entry.x0, cfg)
        assert traj.ok
        h = Fraction(float(traj.times[1]))
        half = Fraction(1, 2)
        a = [[], [half], [0, half], [0, 0, 1]]
        b = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)]
        for row in (0, len(traj.times) - 2):
            y = [Fraction(float(v)) for v in traj.states[row]]
            _assert_close_to_exact(traj.states[row + 1], _exact_rk_step(entry.system, y, h, a, b))

    def test_first_accepted_dp54_step(self, entry):
        cfg = IntegratorConfig(method="rk45_adaptive", t_end=1.0, step=0.1)
        traj = integrate(entry.system, entry.x0, cfg)
        assert traj.ok and traj.accepted >= 2
        h = Fraction(float(traj.times[1]))
        y0 = [Fraction(v) for v in entry.x0]
        _assert_close_to_exact(traj.states[1], _exact_rk_step(entry.system, y0, h, DP_A, DP_B))


# -- observables --------------------------------------------------------------------


class TestObservation:
    def test_lie_derivative_rotation(self):
        chart = Chart(base=("x1", "x2"))
        sys = OdeSystem(chart, (parse_poly(chart, "x2"), parse_poly(chart, "-x1")))
        radius = parse_poly(chart, "x1^2 + x2^2")
        assert lie_derivative(sys, radius).is_zero
        assert str(lie_derivative(sys, parse_poly(chart, "x1"))) == "x2"

    def test_lie_derivative_chart_mismatch(self):
        sys = exponential_system()
        with pytest.raises(ChartMismatchError):
            lie_derivative(sys, parse_poly(X3, "x1"))

    def test_casimir_conserved_along_spin_flow(self):
        sys = spin_system()
        casimir = parse_poly(X3, "1/2*x1^2 + 1/2*x2^2 + 1/2*x3^2")
        assert lie_derivative(sys, casimir).is_zero  # symbolic gate
        cfg = IntegratorConfig(method="rk4_fixed", t_end=10.0, step=1e-3)
        traj = integrate(sys, [1.0, 0.5, 0.2], cfg)
        report = observe(sys, traj, {"casimir": casimir})["casimir"]
        assert report.symbolically_constant
        assert report.drift <= 1e-8

    def test_energy_dissipates_along_damped_flow(self):
        sys = dissipative_top_system()
        norm = parse_poly(X3, "1/2*x1^2 + 1/2*x2^2 + 1/2*x3^2")
        rate = lie_derivative(sys, norm)
        assert not rate.is_zero
        cfg = IntegratorConfig(method="rk45_adaptive", t_end=20.0)
        traj = integrate(sys, [1.0, 0.5, 0.2], cfg)
        report = observe(sys, traj, {"half-norm": norm})["half-norm"]
        assert not report.symbolically_constant
        assert report.monotonicity == "nonincreasing"
        assert report.drift > 1e-3

    def test_growing_observable_verdict(self):
        cfg = IntegratorConfig(method="rk4_fixed", t_end=1.0, step=1e-2)
        sys = exponential_system()
        traj = integrate(sys, [1.0], cfg)
        report = observe(sys, traj, {"x": parse_poly(X1, "x1")})["x"]
        assert report.monotonicity == "nondecreasing"

    def test_oscillating_observable_verdict(self):
        chart = Chart(base=("x1", "x2"))
        sys = OdeSystem(chart, (parse_poly(chart, "x2"), parse_poly(chart, "-x1")))
        cfg = IntegratorConfig(method="rk45_adaptive", t_end=10.0)
        traj = integrate(sys, [1.0, 0.0], cfg)
        report = observe(sys, traj, {"x1": parse_poly(chart, "x1")})["x1"]
        assert report.monotonicity == "neither"

    def test_constant_trajectory_zero_drift(self):
        sys = OdeSystem(X3, (Poly.zero(X3),) * 3)
        cfg = IntegratorConfig(method="rk4_fixed", t_end=1.0, step=0.1)
        traj = integrate(sys, [1.0, 2.0, 3.0], cfg)
        report = observe(sys, traj, {"f": parse_poly(X3, "x1*x2*x3 - x2^2")})["f"]
        assert report.drift == 0.0
        assert report.symbolically_constant

    def test_observe_chart_mismatch(self):
        sys = exponential_system()
        traj = integrate(sys, [1.0], IntegratorConfig(method="rk4_fixed", t_end=1.0, step=0.1))
        with pytest.raises(ChartMismatchError):
            observe(sys, traj, {"bad": parse_poly(X3, "x1")})

    def test_report_lookup(self):
        sys = exponential_system()
        traj = integrate(sys, [1.0], IntegratorConfig(method="rk4_fixed", t_end=1.0, step=0.1))
        rep = observe(sys, traj, {"x": parse_poly(X1, "x1")})
        assert rep.names() == ("x",)
        with pytest.raises(KeyError):
            rep["missing"]


def _trajectory(states) -> Trajectory:
    states = np.array(states, dtype=np.float64)
    return Trajectory(np.arange(len(states), dtype=np.float64), states, len(states) - 1, 0, 0)


class TestObserveColumns:
    """``observe`` evaluates on state columns through the cached generated evaluator."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_values_bitwise_equal_to_per_row_evaluate(self, data):
        observables = {f"p{k}": _drawn_poly(data) for k in range(data.draw(st.integers(1, 3)))}
        observables["zero"] = Poly.zero(X3)
        observables["const"] = Poly.const(X3, Fraction(-7, 3))
        rows = data.draw(st.integers(1, 6))  # a single row included
        states = data.draw(
            st.lists(st.lists(st.floats(-3, 3), min_size=3, max_size=3), min_size=rows, max_size=rows)
        )
        traj = _trajectory(states)
        report = observe(spin_system(), traj, observables)
        assert report.names() == tuple(observables)
        for name, f in observables.items():
            values = report[name].values
            expected = np.array([f.evaluate(row) for row in traj.states])
            assert values.dtype == np.float64 and values.shape == (rows,)
            assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))

    def test_empty_observables_give_empty_report(self):
        report = observe(spin_system(), _trajectory([[1.0, 2.0, 3.0]]), {})
        assert report.reports == () and report.names() == ()

    def test_constant_values_are_fresh_arrays(self):
        traj = _trajectory([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        report = observe(spin_system(), traj, {"a": Poly.const(X3, 2), "b": Poly.const(X3, 2)})
        a, b = report["a"].values, report["b"].values
        assert a.tolist() == b.tolist() == [2.0, 2.0]
        a[0] = 0.0
        assert b[0] == 2.0

    def test_overflow_and_non_finite_rows_warn_nothing(self):
        entry = catalog_build("revised-rigid-body")
        chart = entry.system.chart
        observables = {**entry.observables, "difference": parse_poly(chart, "x1^2 - x2^2")}
        inf, nan = math.inf, math.nan
        states = [[1.0, 2.0, 3.0], [1e200, 1e200, 1e200], [inf, 1.0, 1.0], [nan, 1.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = observe(entry.system, _trajectory(states), observables)
        for name, f in observables.items():
            expected = [f.evaluate(row) for row in states]  # Python floats
            np.testing.assert_array_equal(report[name].values, expected)
        # x1^2 - x2^2 at 1e200 is inf - inf
        assert math.isnan(report["difference"].values[1])
        assert math.isinf(report["half-norm"].values[1])

    def test_compiles_once_per_observable_set(self, monkeypatch):
        sys = dissipative_top_system()
        before = (pickle.dumps(sys), repr(sys), hash(sys))
        traj = integrate(sys, [1.0, 0.5, 0.2], IntegratorConfig(method="rk4_fixed", t_end=0.1, step=1e-2))
        compiled, derived = [], []
        real_compile, real_derive = dynamics.float_evaluator, dynamics.lie_derivative
        monkeypatch.setattr(
            dynamics, "float_evaluator", lambda polys: compiled.append(polys) or real_compile(polys)
        )
        monkeypatch.setattr(
            dynamics, "lie_derivative", lambda s, f: derived.append(f) or real_derive(s, f)
        )
        norm = parse_poly(X3, "1/2*x1^2 + 1/2*x2^2 + 1/2*x3^2")
        first = {"half-norm": norm, "x1": parse_poly(X3, "x1")}
        second = {"half-norm": norm}
        observe(sys, traj, first)
        report = observe(sys, traj, first)
        assert len(compiled) == 1 and len(derived) == 2
        assert report["half-norm"].symbolically_constant is False
        observe(sys, traj, second)  # a new set replaces the one slot
        assert len(compiled) == 2
        observe(sys, traj, first)
        assert len(compiled) == 3 and len(derived) == 5
        assert "_observer_slot" in vars(sys)
        assert (pickle.dumps(sys), repr(sys), hash(sys)) == before
        assert pickle.loads(before[0]) == sys


# -- export -------------------------------------------------------------------------


class TestExport:
    def test_csv_header_and_roundtrip_values(self):
        A = oscillator_structure()
        h = parse_poly(A.dual_chart, "x2*xi2 + x3*xi3")
        sys = rhs_from_algebroid(A, h)
        cfg = IntegratorConfig(method="rk4_fixed", t_end=0.1, step=0.05)
        traj = integrate(sys, [0.5, 0.5, 0.5, 1.0, 0.5, 0.2], cfg)
        text = trajectory_to_csv(sys, traj)
        lines = text.splitlines()
        assert lines[0] == "t,x1,x2,x3,xi1,xi2,xi3"
        assert len(lines) == len(traj.times) + 1
        parsed = [float(v) for v in lines[-1].split(",")]
        assert parsed[0] == traj.times[-1]
        assert parsed[1:] == traj.states[-1].tolist()  # %.17g round-trips doubles

    def test_csv_deterministic(self):
        sys = exponential_system()
        cfg = IntegratorConfig(method="rk45_adaptive", t_end=1.0)
        a = trajectory_to_csv(sys, integrate(sys, [1.0], cfg))
        b = trajectory_to_csv(sys, integrate(sys, [1.0], cfg))
        assert a == b

    def test_json_roundtrip(self):
        sys = spin_system()
        cfg = IntegratorConfig(method="rk45_adaptive", t_end=2.0)
        traj = integrate(sys, [1.0, 0.5, 0.2], cfg)
        obs = observe(sys, traj, {"casimir": parse_poly(X3, "x1^2 + x2^2 + x3^2")})
        text = trajectory_to_json(sys, traj, obs)
        names, back = trajectory_from_json(text)
        assert names == sys.chart.names
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)
        assert (back.accepted, back.rejected, back.status) == (
            traj.accepted,
            traj.rejected,
            traj.status,
        )

    def test_json_includes_observable_summary(self):
        import json

        sys = spin_system()
        traj = integrate(sys, [1.0, 0.5, 0.2], IntegratorConfig(method="rk4_fixed", t_end=1.0, step=0.1))
        obs = observe(sys, traj, {"c": parse_poly(X3, "x1^2 + x2^2 + x3^2")})
        doc = json.loads(trajectory_to_json(sys, traj, obs))
        assert doc["observables"]["c"]["symbolically_constant"] is True
        assert doc["observables"]["c"]["monotonicity"] in (
            "nonincreasing",
            "nondecreasing",
            "neither",
        )
        assert doc["provenance"] == "spin-top"

    def test_json_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            trajectory_from_json('{"times": [0.0]}')
        with pytest.raises(ValueError, match="malformed"):
            trajectory_from_json(
                '{"chart": ["x1"], "times": [0.0, 1.0], "states": [[1.0]],'
                ' "status": 0, "accepted": 1, "rejected": 0}'
            )
