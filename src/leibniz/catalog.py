"""Built-in example systems with transcribed reference right-hand sides.

Each catalog entry bundles a structure (bracket tensor, metriplectic pair,
or fiber-linear structure on a dual chart), its generator functions, a
derived :class:`~leibniz.dynamics.OdeSystem`, and a *reference* right-hand
side transcribed verbatim from the source material the entry reproduces.
References are never corrected: where the source is misprinted, the derived
flow and the reference disagree, and :func:`catalog_verify` reports the
exact polynomial residual.  Known residuals are recorded in
``data/known_misprints.json`` so verification can distinguish "documented
discrepancy" from "regression"; strict mode ignores that whitelist.

Entries with parameters can also be built *symbolically*: the parameters
become extra base-chart variables with zero dynamics, so derived-vs-reference
comparisons hold for every admissible parameter value at once, and the
systems remain integrable (parameters ride along as constants).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Mapping, NamedTuple, Sequence

from .algebroid import (
    AlgebroidStructure,
    DualChartTensor,
    PolyFraction,
    Prop4DualTensor,
    _anchor_residuals,
    _assemble_dual_tensor,
    _bracket_lift_residual,
    lift_section,
    prop4_construct_dual_tensor,
    structure_to_json,
    Section,
)
from .brackets import (
    MetriplecticPair,
    TensorField2,
    annihilator_residuals,
    check_derivation_first,
    check_derivation_second,
    check_pair_product,
    check_pair_scaling,
)
from .dynamics import (
    OdeSystem,
    rhs_from_algebroid,
    rhs_from_bracket,
    rhs_from_pair,
    rhs_metriplectic_algebroid,
)
from .poly import Chart, Poly, embed, parse_poly, restrict

__all__ = [
    "CatalogEntry",
    "ComponentDiff",
    "CheckResult",
    "VerifyReport",
    "ParameterError",
    "UnknownEntryError",
    "ENTRY_NAMES",
    "catalog_list",
    "catalog_build",
    "catalog_verify",
    "entry_certifications",
    "structure_certifications",
    "known_misprints",
    "entry_structure_json",
]


class ParameterError(ValueError):
    """Raised when entry parameters violate their admissibility constraints."""


class UnknownEntryError(KeyError):
    """Raised for catalog names that do not exist."""


@dataclass(frozen=True)
class CatalogEntry:
    """One fully built example system.

    ``reference_rhs`` is the transcribed reference flow on the same chart as
    ``system.rhs`` (components in chart order).  ``observables`` are
    quantities worth monitoring along the flow; no conservation claim is
    implied by membership.  ``structure`` holds the kind-specific objects:
    a TensorField2, a MetriplecticPair, an AlgebroidStructure, or an
    (AlgebroidStructure, Prop4DualTensor) pair.
    """

    name: str
    kind: str
    description: str
    system: OdeSystem
    reference_rhs: tuple[Poly, ...]
    hamiltonians: dict[str, Poly]
    observables: dict[str, Poly]
    x0: tuple[float, ...]
    t_end: float
    params: dict[str, tuple]
    symbolic: bool
    structure: object

    @property
    def chart(self) -> Chart:
        return self.system.chart


# -- parameter handling -------------------------------------------------------------


def _as_fraction_tuple(value, count: int, label: str) -> tuple[Fraction, ...]:
    if isinstance(value, (str, bytes)):
        raise ParameterError(f"{label} must be a sequence of {count} rationals")
    try:
        items = tuple(Fraction(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{label} must be a sequence of {count} rationals") from exc
    except ZeroDivisionError as exc:
        raise ParameterError(f"{label} has a component with a zero denominator") from exc
    if len(items) != count:
        raise ParameterError(f"{label} needs exactly {count} components, got {len(items)}")
    return items


def _gamma_params(params: Mapping) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    gamma = _as_fraction_tuple(params.get("gamma", (1, 1, -2)), 3, "gamma")
    if sum(gamma) != 0:
        raise ParameterError("gamma components must sum to zero exactly")
    s_raw = _as_fraction_tuple(params.get("s", (1, 1, 1)), 3, "s")
    s = []
    for v in s_raw:
        if v not in (1, -1):
            raise ParameterError("each s component must be -1 or 1")
        s.append(int(v))
    return gamma, tuple(s)


def _a_params(params: Mapping, symbolic: bool) -> tuple[Fraction, ...]:
    a = _as_fraction_tuple(params.get("a", (Fraction(3, 5), Fraction(2, 5), Fraction(1, 5))), 3, "a")
    if not symbolic and not (a[0] > a[1] > a[2] > 0):
        raise ParameterError("a must satisfy a1 > a2 > a3 > 0")
    return a


def _check_params(params: Mapping, allowed: Sequence[str], name: str) -> None:
    """Refuse parameters that entry ``name`` does not take (its keys: ``allowed``)."""
    unexpected = sorted(set(params) - set(allowed))
    if unexpected:
        takes = f"takes only {', '.join(allowed)}" if allowed else "takes no parameters"
        raise ParameterError(f"entry {name!r} {takes}, got {unexpected}")


# -- shared construction pieces -----------------------------------------------------

_X3 = Chart(base=("x1", "x2", "x3"))


def _param_polys(
    chart: Chart, names: Sequence[str], values: Sequence[Fraction], symbolic: bool
) -> list[Poly]:
    """Parameters as chart polynomials: variables when symbolic, constants otherwise."""
    if symbolic:
        return [Poly.var(chart, n) for n in names]
    return [Poly.const(chart, v) for v in values]


def _spin_rows(chart: Chart) -> list[list[Poly]]:
    """The antisymmetric damped-top block [[0,-x3,x2],[x3,0,-x1],[-x2,x1,0]],
    padded with zeros to the chart dimension."""
    d = chart.dim
    z = Poly.zero(chart)
    x = [Poly.var(chart, f"x{i}") for i in (1, 2, 3)]
    rows = [[z] * d for _ in range(d)]
    rows[0][1], rows[0][2] = -x[2], x[1]
    rows[1][0], rows[1][2] = x[2], -x[0]
    rows[2][0], rows[2][1] = -x[1], x[0]
    return rows


def _damping_rows(chart: Chart, a: Sequence[Poly]) -> list[list[Poly]]:
    """Symmetric block: diagonal -sum_{k!=i} a_k^2 (x^k)^2, off-diagonal a_i a_j x^i x^j."""
    d = chart.dim
    z = Poly.zero(chart)
    x = [Poly.var(chart, f"x{i}") for i in (1, 2, 3)]
    rows = [[z] * d for _ in range(d)]
    for i in range(3):
        for j in range(3):
            if i == j:
                entry = Poly.zero(chart)
                for k in range(3):
                    if k != i:
                        entry = entry - a[k] * a[k] * x[k] * x[k]
            else:
                entry = a[i] * a[j] * x[i] * x[j]
            rows[i][j] = entry
    return rows


def _top_energy(chart: Chart, a: Sequence[Poly]) -> Poly:
    """(1/2) sum_i (a_i + 1) (x^i)^2 with polynomial a."""
    x = [Poly.var(chart, f"x{i}") for i in (1, 2, 3)]
    h = Poly.zero(chart)
    half = Fraction(1, 2)
    for ai, xi in zip(a, x):
        h = h + half * (ai + 1) * xi * xi
    return h


def _half_norm(chart: Chart) -> Poly:
    return parse_poly(chart, "1/2*x1^2 + 1/2*x2^2 + 1/2*x3^2")


def _rigid_reference_x(chart: Chart, a: Sequence[Poly]) -> list[Poly]:
    """The damped-top reference components, transcribed line by line."""
    x1, x2, x3 = (Poly.var(chart, f"x{i}") for i in (1, 2, 3))
    a1, a2, a3 = a
    return [
        (a3 - a2) * x2 * x3 + a2 * (a1 - a2) * x1 * x2 * x2 + a3 * (a1 - a3) * x1 * x3 * x3,
        (a1 - a3) * x1 * x3 + a3 * (a2 - a3) * x2 * x3 * x3 + a1 * (a2 - a1) * x2 * x1 * x1,
        (a2 - a1) * x1 * x2 + a1 * (a3 - a1) * x3 * x1 * x1 + a2 * (a3 - a2) * x3 * x2 * x2,
    ]


def _free_top_structure(base_chart: Chart) -> AlgebroidStructure:
    """Pre-Lie fiber-linear structure whose base flow is the free top.

    Structure functions rotate cyclically; both anchors equal the classical
    spin matrix p = [[0,x3,-x2],[-x3,0,x1],[x2,-x1,0]].  Extra base
    directions (symbolic parameters) get zero anchor rows.
    """
    z = Poly.zero(base_chart)
    x1, x2, x3 = (Poly.var(base_chart, f"x{i}") for i in (1, 2, 3))
    C = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    C[0][1][2] = x3
    C[0][2][1] = -x2
    C[1][0][2] = -x3
    C[1][2][0] = x1
    C[2][0][1] = x2
    C[2][1][0] = -x1
    p = [[z, x3, -x2], [-x3, z, x1], [x2, -x1, z]]
    rho = p + [[z, z, z] for _ in range(base_chart.dim - 3)]
    return AlgebroidStructure(base_chart, 3, C, rho, rho)


def _vw_polys(chart: Chart, a: Sequence[Poly]) -> tuple[list[Poly], list[Poly]]:
    """The quadratic combinations V_i (base) and W_i (fiber-linear) used by
    the symmetric partner reference."""
    x = [Poly.var(chart, f"x{i}") for i in (1, 2, 3)]
    xi = [Poly.var(chart, f"xi{i}") for i in (1, 2, 3)]
    aa = [embed(ai, chart) for ai in a]
    V, W = [], []
    for i in range(3):
        v = Poly.zero(chart)
        w = Poly.zero(chart)
        for k in range(3):
            if k != i:
                v = v + aa[k] * aa[k] * x[k] * x[k]
                w = w + aa[k] * aa[k] * x[k] * xi[k]
        V.append(v)
        W.append(w)
    return V, W


# -- entry builders -----------------------------------------------------------------


def _build_gradient_beltrami(params: Mapping, symbolic: bool) -> dict:
    gamma, s = _gamma_params(params)
    if symbolic:
        chart = Chart(base=("x1", "x2", "x3", "g1", "g2", "g3"))
    else:
        chart = _X3
    g_polys = _param_polys(chart, ("g1", "g2", "g3"), gamma, symbolic)
    d = chart.dim
    z = Poly.zero(chart)
    rows = [[z] * d for _ in range(d)]
    for i in range(3):
        rows[i][i] = Fraction(s[i]) * g_polys[i]
    tensor = TensorField2(chart, rows)
    h = parse_poly(chart, "x1*x2*x3")
    system = rhs_from_bracket(tensor, h, "gradient-beltrami")
    x1, x2, x3 = (Poly.var(chart, f"x{i}") for i in (1, 2, 3))
    reference = [
        Fraction(s[0]) * g_polys[0] * x2 * x3,
        Fraction(s[1]) * g_polys[1] * x1 * x3,
        Fraction(s[2]) * g_polys[2] * x1 * x2,
    ] + [z] * (d - 3)
    x0 = (1.0, 1.0, 1.0) + (tuple(float(v) for v in gamma) if symbolic else ())
    return dict(
        system=system,
        reference_rhs=tuple(reference),
        hamiltonians={"h": h},
        observables={"generator": h},
        x0=x0,
        t_end=20.0,
        params={"gamma": gamma, "s": s},
        symbolic=symbolic,
        structure=tensor,
    )


def _build_revised_rigid_body(params: Mapping, symbolic: bool) -> dict:
    a_vals = _a_params(params, symbolic)
    chart = Chart(base=("x1", "x2", "x3", "a1", "a2", "a3")) if symbolic else _X3
    a = _param_polys(chart, ("a1", "a2", "a3"), a_vals, symbolic)
    pair = MetriplecticPair(
        TensorField2(chart, _spin_rows(chart)), TensorField2(chart, _damping_rows(chart, a))
    )
    h = _top_energy(chart, a)
    system = rhs_from_pair(pair, h, h, "revised-rigid-body")
    z = Poly.zero(chart)
    reference = _rigid_reference_x(chart, a) + [z] * (chart.dim - 3)
    x0 = (1.0, 0.5, 0.2) + (tuple(float(v) for v in a_vals) if symbolic else ())
    return dict(
        system=system,
        reference_rhs=tuple(reference),
        hamiltonians={"h1": h, "h2": h},
        observables={"half-norm": _half_norm(chart), "energy": h},
        x0=x0,
        t_end=20.0,
        params={"a": a_vals},
        symbolic=symbolic,
        structure=pair,
    )


def _build_almost_leibniz_ex2(params: Mapping, symbolic: bool) -> dict:
    chart = _X3
    P = TensorField2.from_strings(chart, [["0", "1", "0"], ["-1", "0", "x1"], ["0", "-x1", "0"]])
    g = TensorField2.from_strings(
        chart, [["0", "0", "0"], ["0", "-x3^2", "0"], ["0", "0", "-x2^2"]]
    )
    pair = MetriplecticPair(P, g)
    h1 = parse_poly(chart, "1/2*x2^2 + 1/2*x3^2")
    h2 = parse_poly(chart, "1/2*x1^2 + x3")
    system = rhs_from_pair(pair, h1, h2, "almost-leibniz-ex2")
    reference = (
        parse_poly(chart, "x2"),
        parse_poly(chart, "x1*x3"),
        parse_poly(chart, "-x1*x2 - x2^2"),
    )
    return dict(
        system=system,
        reference_rhs=reference,
        hamiltonians={"h1": h1, "h2": h2},
        observables={"h1": h1, "h2": h2},
        x0=(1.0, 0.5, 0.2),
        t_end=20.0,
        params={},
        symbolic=False,
        structure=pair,
    )


def _build_almost_leibniz_ex3(params: Mapping, symbolic: bool) -> dict:
    chart = _X3
    P = TensorField2.from_strings(chart, [["0", "-x3", "x2"], ["x3", "0", "0"], ["-x2", "0", "0"]])
    g = TensorField2.from_strings(chart, [["-x3", "0", "0"], ["0", "0", "0"], ["0", "0", "-x1"]])
    pair = MetriplecticPair(P, g)
    h1 = parse_poly(chart, "1/2*x1^2 + x3")
    h2 = parse_poly(chart, "1/2*x2^2 + 1/2*x3^2")
    system = rhs_from_pair(pair, h1, h2, "almost-leibniz-ex3")
    reference = (
        parse_poly(chart, "x2"),
        parse_poly(chart, "x1*x3"),
        parse_poly(chart, "-x1*x2 - x1*x3"),
    )
    return dict(
        system=system,
        reference_rhs=reference,
        hamiltonians={"h1": h1, "h2": h2},
        observables={"h1": h1, "h2": h2},
        x0=(1.0, 0.5, 0.2),
        t_end=20.0,
        params={},
        symbolic=False,
        structure=pair,
    )


def _build_maxwell_bloch(params: Mapping, symbolic: bool) -> dict:
    chart = _X3
    z = "0"
    C = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    C[0][1][2] = "-x3"
    C[0][2][1] = "x2"
    C[1][0][2] = "x3"
    C[1][2][0] = "-x1"
    C[2][0][1] = "-x2"
    C[2][1][0] = "x1"
    rho1 = [["0", "x3", "-x2"], ["-x3", "0", "0"], ["x2", "0", "0"]]
    rho2 = [["0", "-1", "0"], ["1", "0", "-x1"], ["0", "x1", "0"]]
    A = AlgebroidStructure.from_strings(chart, 3, C, rho1, rho2)
    dual = A.dual_chart
    h = parse_poly(dual, "x2*xi2 + x3*xi3")
    system = rhs_from_algebroid(A, h, "maxwell-bloch-algebroid")
    reference = (
        parse_poly(dual, "x2"),
        parse_poly(dual, "x1*x3"),
        parse_poly(dual, "-x1*x2"),
        # transcribed with its documented missing term; see the misprint data file
        parse_poly(dual, "x2*x3*xi2 - x3*xi2 - x2*x3*xi3"),
        parse_poly(dual, "-x1*x3*xi1"),
        parse_poly(dual, "x1*x2*xi1"),
    )
    return dict(
        system=system,
        reference_rhs=reference,
        hamiltonians={"h": h},
        observables={
            "invariant-1": parse_poly(dual, "1/2*x2^2 + 1/2*x3^2"),
            "invariant-2": parse_poly(dual, "1/2*x1^2 + x3"),
        },
        x0=(0.5, 0.5, 0.5, 1.0, 0.5, 0.2),
        t_end=20.0,
        params={},
        symbolic=False,
        structure=A,
    )


def _rigid_algebroid_pieces(params: Mapping, symbolic: bool):
    a_vals = _a_params(params, symbolic)
    base = Chart(base=("x1", "x2", "x3", "a1", "a2", "a3")) if symbolic else _X3
    A = _free_top_structure(base)
    dual = A.dual_chart
    a_base = _param_polys(base, ("a1", "a2", "a3"), a_vals, symbolic)
    a_dual = [embed(p, dual) for p in a_base]
    h1 = Poly.zero(dual)
    for i, ai in enumerate(a_dual, start=1):
        h1 = h1 + ai * parse_poly(dual, f"x{i}*xi{i}")
    return a_vals, a_base, a_dual, A, dual, h1


def _reference_51(dual: Chart, a: Sequence[Poly]) -> list[Poly]:
    a1, a2, a3 = a
    x1, x2, x3 = (Poly.var(dual, f"x{i}") for i in (1, 2, 3))
    xi1, xi2, xi3 = (Poly.var(dual, f"xi{i}") for i in (1, 2, 3))
    return [
        (a3 - a2) * x2 * x3,
        (a1 - a3) * x1 * x3,
        (a2 - a1) * x1 * x2,
        a2 * xi3 * x2 * x3 - a3 * xi2 * x2 * x3 - a2 * xi2 * x3 + a3 * xi3 * x2,
        a3 * xi1 * x1 * x3 - a1 * xi3 * x1 * x3 - a3 * xi3 * x1 + a1 * xi1 * x3,
        a1 * xi2 * x1 * x2 - a2 * xi1 * x1 * x2 - a1 * xi1 * x2 + a2 * xi2 * x1,
    ]


def _reference_52(dual: Chart, a: Sequence[Poly]) -> list[Poly]:
    a1, a2, a3 = a
    x1, x2, x3 = (Poly.var(dual, f"x{i}") for i in (1, 2, 3))
    xi1, xi2, xi3 = (Poly.var(dual, f"xi{i}") for i in (1, 2, 3))
    x_part = [
        (a3 - a2) * x2 * x3 + a2 * (a1 - a2) * x1 * x2 * x2 + a3 * (a1 - a3) * x1 * x3 * x3,
        (a1 - a3) * x1 * x3 + a3 * (a2 - a3) * x2 * x3 * x3 + a1 * (a2 - a1) * x2 * x1 * x1,
        (a2 - a1) * x1 * x2 + a1 * (a3 - a1) * x3 * x1 * x1 + a2 * (a3 - a2) * x3 * x2 * x2,
    ]
    xi_part = [
        (a2 * (a1 - a2) * x1 * x2 - a3 * x2 * x3 - a2 * x3) * xi2
        + (a3 * (a1 - a3) * x1 * x3 + a2 * x2 * x3 + a3 * x2) * xi3,
        (a1 * (a2 - a1) * x1 * x2 + a3 * x1 * x3 + a1 * x3) * xi1
        + (a3 * (a2 - a3) * x2 * x3 - a1 * x1 * x3 - a3 * x1) * xi3,
        (a2 * (a3 - a2) * x2 * x3 + a1 * x1 * x2 + a2 * x1) * xi2
        + (a1 * (a3 - a1) * x1 * x3 - a2 * x1 * x2 - a1 * x2) * xi1,
    ]
    return x_part + xi_part


def _build_rigid_body_algebroid(params: Mapping, symbolic: bool) -> dict:
    a_vals, a_base, a_dual, A, dual, h1 = _rigid_algebroid_pieces(params, symbolic)
    system = rhs_from_algebroid(A, h1, "rigid-body-algebroid")
    z = Poly.zero(dual)
    ref = _reference_51(dual, a_dual)
    reference = ref[:3] + [z] * (dual.n_base - 3) + ref[3:]
    half_norm = embed(_half_norm(_X3), dual)
    x0 = (1.0, 0.5, 0.2)
    if symbolic:
        x0 = x0 + tuple(float(v) for v in a_vals)
    x0 = x0 + (0.5, 0.5, 0.5)
    return dict(
        system=system,
        reference_rhs=tuple(reference),
        hamiltonians={"h1": h1},
        observables={"half-norm-x": half_norm, "generator": h1},
        x0=x0,
        t_end=20.0,
        params={"a": a_vals},
        symbolic=symbolic,
        structure=A,
    )


def _build_rigid_body_metriplectic(params: Mapping, symbolic: bool) -> dict:
    a_vals, a_base, a_dual, A1, dual, h1 = _rigid_algebroid_pieces(params, symbolic)
    h2 = parse_poly(dual, "x1*xi1 + x2*xi2 + x3*xi3")
    L2 = prop4_construct_dual_tensor(h1)
    _assert_partner_matches_reference(L2, dual, a_base)
    system = rhs_metriplectic_algebroid(A1, L2, h1, h2, "rigid-body-metriplectic-algebroid")
    z = Poly.zero(dual)
    ref = _reference_52(dual, a_dual)
    reference = ref[:3] + [z] * (dual.n_base - 3) + ref[3:]
    x0 = (1.0, 0.5, 0.2)
    if symbolic:
        x0 = x0 + tuple(float(v) for v in a_vals)
    x0 = x0 + (0.5, 0.5, 0.5)
    return dict(
        system=system,
        reference_rhs=tuple(reference),
        hamiltonians={"h1": h1, "h2": h2},
        observables={"half-norm-x": embed(_half_norm(_X3), dual), "generator-1": h1, "generator-2": h2},
        x0=x0,
        t_end=20.0,
        params={"a": a_vals},
        symbolic=symbolic,
        structure=(A1, L2),
    )


def _assert_partner_matches_reference(L2: Prop4DualTensor, dual: Chart, a_base: Sequence[Poly]) -> None:
    """The constructed symmetric partner must equal the transcribed matrices.

    Right anchor: diagonal -V_i, off-diagonal a_i a_j x^i x^j (3x3 block;
    any extra parameter rows must vanish).  Fiber-diagonal structure
    functions: (V_a xi_a - x^a W_a) / x^a as exact rational functions.
    """
    V, W = _vw_polys(dual, a_base)
    x = [Poly.var(dual, f"x{i}") for i in (1, 2, 3)]
    xi = [Poly.var(dual, f"xi{i}") for i in (1, 2, 3)]
    aa = [embed(p, dual) for p in a_base]
    for i in range(L2.n):
        for j in range(3):
            got = embed(L2.rho2[i][j], dual)
            if i >= 3:
                expected = Poly.zero(dual)
            elif i == j:
                expected = -V[i]
            else:
                expected = aa[i] * aa[j] * x[i] * x[j]
            if got != expected:
                raise AssertionError(
                    f"constructed right anchor entry ({i}, {j}) differs from the reference"
                )
    for a_idx in range(3):
        expected = PolyFraction(V[a_idx] * xi[a_idx] - x[a_idx] * W[a_idx], x[a_idx])
        if L2.c_diag[a_idx] != expected:
            raise AssertionError(
                f"constructed fiber structure function {a_idx} differs from the reference"
            )


_A_SCHEMA = "a=(3/5,2/5,1/5) with a1 > a2 > a3 > 0"


class _EntrySpec(NamedTuple):
    kind: str
    build: Callable[[dict, bool], dict]  # every other CatalogEntry field
    takes: tuple[str, ...]  # the parameter names the entry accepts
    schema: str
    description: str


_BUILDERS: dict[str, _EntrySpec] = {
    "gradient-beltrami": _EntrySpec(
        "leibniz_bracket",
        _build_gradient_beltrami,
        ("gamma", "s"),
        "gamma=(1,1,-2) summing to zero; s=(1,1,1) with entries in {-1,1}",
        "Gradient-like flow of a constant diagonal symmetric tensor with a cubic generator.",
    ),
    "revised-rigid-body": _EntrySpec(
        "metriplectic_pair",
        _build_revised_rigid_body,
        ("a",),
        _A_SCHEMA,
        "Damped free top: antisymmetric spin part plus exact quadratic damping, one energy in both slots.",
    ),
    "almost-leibniz-ex2": _EntrySpec(
        "almost_leibniz",
        _build_almost_leibniz_ex2,
        (),
        "none",
        "Two-generator flow: constant-plus-linear antisymmetric part with diagonal quadratic symmetric part.",
    ),
    "almost-leibniz-ex3": _EntrySpec(
        "almost_leibniz",
        _build_almost_leibniz_ex3,
        (),
        "none",
        "Two-generator flow: rotational antisymmetric part with a degenerate diagonal symmetric part.",
    ),
    "maxwell-bloch-algebroid": _EntrySpec(
        "algebroid",
        _build_maxwell_bloch,
        (),
        "none",
        "Fiber-linear structure generating the Maxwell-Bloch equations on the base; the transcribed reference carries one documented misprint.",
    ),
    "rigid-body-algebroid": _EntrySpec(
        "algebroid",
        _build_rigid_body_algebroid,
        ("a",),
        _A_SCHEMA,
        "Pre-Lie fiber-linear structure generating the free rigid body on the base, with a weighted linear generator.",
    ),
    "rigid-body-metriplectic-algebroid": _EntrySpec(
        "metriplectic_algebroid",
        _build_rigid_body_metriplectic,
        ("a",),
        _A_SCHEMA,
        "Free-top antisymmetric structure paired with its constructed symmetric partner; the base flow is the damped rigid body.",
    ),
}

ENTRY_NAMES: tuple[str, ...] = tuple(_BUILDERS)


def catalog_list() -> list[dict[str, str]]:
    """Summaries (name, kind, parameter schema, description) for every entry; builds none."""
    return [
        {"name": name, "kind": spec.kind, "params": spec.schema, "description": spec.description}
        for name, spec in _BUILDERS.items()
    ]


def catalog_build(name: str, params: Mapping | None = None, symbolic: bool = False) -> CatalogEntry:
    """Build one entry; raises UnknownEntryError / ParameterError."""
    try:
        spec = _BUILDERS[name]
    except KeyError:
        raise UnknownEntryError(
            f"unknown catalog entry {name!r}; known: {', '.join(ENTRY_NAMES)}"
        ) from None
    params = dict(params or {})
    _check_params(params, spec.takes, name)
    fields = spec.build(params, symbolic)
    return CatalogEntry(name=name, kind=spec.kind, description=spec.description, **fields)


# -- verification -------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentDiff:
    """Exact difference between derived and reference flow in one component."""

    component: str
    derived: Poly
    reference: Poly
    residual: Poly
    whitelisted: bool = False
    note: str = ""

    @property
    def matches(self) -> bool:
        return self.residual.is_zero


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one structural certification or cross-check."""

    name: str
    passed: bool
    whitelisted: bool = False
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    entry: str
    diffs: tuple[ComponentDiff, ...]
    checks: tuple[CheckResult, ...] = ()

    @property
    def clean(self) -> bool:
        """Everything matches exactly, whitelist ignored (strict reading)."""
        return all(d.matches for d in self.diffs) and all(c.passed for c in self.checks)

    @property
    def clean_modulo_known(self) -> bool:
        """Everything matches except documented, whitelisted discrepancies."""
        return all(d.matches or d.whitelisted for d in self.diffs) and all(
            c.passed or c.whitelisted for c in self.checks
        )

    def lines(self, strict: bool = False) -> list[str]:
        out = [f"entry: {self.entry}"]
        for d in self.diffs:
            if d.matches:
                out.append(f"  {d.component}: match")
            else:
                mark = "known misprint" if d.whitelisted and not strict else "MISMATCH"
                out.append(f"  {d.component}: {mark}; derived - reference = {d.residual}")
        for c in self.checks:
            if c.passed:
                out.append(f"  check {c.name}: pass")
            else:
                mark = "known discrepancy" if c.whitelisted and not strict else "FAIL"
                out.append(f"  check {c.name}: {mark}" + (f" ({c.detail})" if c.detail else ""))
        return out

    def to_dict(self) -> dict:
        return {
            "entry": self.entry,
            "clean": self.clean,
            "clean_modulo_known": self.clean_modulo_known,
            "components": [
                {
                    "component": d.component,
                    "match": d.matches,
                    "residual": str(d.residual),
                    "whitelisted": d.whitelisted,
                }
                for d in self.diffs
            ],
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "whitelisted": c.whitelisted,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


@functools.cache
def _misprint_records() -> tuple[dict[str, str], ...]:
    """The misprint data file, parsed once per process; callers must not mutate it."""
    text = resources.files("leibniz.data").joinpath("known_misprints.json").read_text()
    return tuple(json.loads(text)["known_misprints"])


def known_misprints() -> list[dict[str, str]]:
    """Records of documented derived-vs-reference discrepancies (fresh copies)."""
    return [dict(record) for record in _misprint_records()]


def _whitelist_lookup(entry: str, check: str) -> dict[str, tuple[str, str]]:
    """component -> (residual text, note) for one entry+check pair."""
    out = {}
    for record in _misprint_records():
        if record["entry"] == entry and record["check"] == check:
            out[record["component"]] = (record["residual"], record["note"])
    return out


def catalog_verify(
    entry: str | CatalogEntry, params: Mapping | None = None, symbolic: bool = False
) -> VerifyReport:
    """Diff the derived flow against the transcribed reference, component-wise.

    ``entry`` is an entry name, built here with ``params`` and ``symbolic``,
    or an entry already built by :func:`catalog_build`, which carries its own
    (combining it with ``params`` or ``symbolic`` raises ``TypeError``).
    A nonzero residual is marked whitelisted when the misprint data file
    records exactly that residual for that component (parameter-free
    records apply to symbolic builds as well).  For the combined
    antisymmetric+symmetric entry the report also carries the cross-check
    that its base flow equals the damped-top entry's flow, built
    independently from the entry's parameters.
    """
    if isinstance(entry, CatalogEntry):
        if params is not None or symbolic:
            raise TypeError("a built entry carries its own params and symbolic flag")
    else:
        entry = catalog_build(entry, params, symbolic)
    name = entry.name
    wl = _whitelist_lookup(name, "reference-system")
    diffs = []
    for comp_name, derived, reference in zip(
        entry.chart.names, entry.system.rhs, entry.reference_rhs
    ):
        residual = derived - reference
        whitelisted = False
        note = ""
        if not residual.is_zero and comp_name in wl:
            recorded, note_text = wl[comp_name]
            if residual == parse_poly(entry.chart, recorded):
                whitelisted = True
                note = note_text
        diffs.append(
            ComponentDiff(
                component=comp_name,
                derived=derived,
                reference=reference,
                residual=residual,
                whitelisted=whitelisted,
                note=note,
            )
        )
    checks: list[CheckResult] = []
    if entry.kind == "metriplectic_algebroid":
        damped = catalog_build("revised-rigid-body", entry.params, entry.symbolic)
        x_part = [restrict(p, damped.chart) for p in entry.system.rhs[: damped.chart.dim]]
        checks.append(
            CheckResult(
                name="base-flow-equals-damped-top",
                passed=tuple(x_part) == damped.system.rhs,
            )
        )
    return VerifyReport(entry=name, diffs=tuple(diffs), checks=tuple(checks))


# -- structural certifications (used by the CLI verifier) ----------------------------


def _fixed_probe_polys(chart: Chart) -> list[Poly]:
    """Small deterministic polynomial set for identity spot checks."""
    names = chart.names
    probes = [
        Poly.var(chart, names[0]),
        Poly.var(chart, names[1]) + Poly.const(chart, Fraction(1, 2)),
        Poly.var(chart, names[0]) * Poly.var(chart, names[-1]),
        Poly.var(chart, names[-1]) ** 2 - Poly.var(chart, names[1]),
    ]
    return probes


def _identity_checks_for_tensor(tensor: TensorField2) -> list[CheckResult]:
    probes = _fixed_probe_polys(tensor.chart)
    results = []
    ok_first = all(
        check_derivation_first(tensor, f, g, h).passed
        for f in probes
        for g in probes[:2]
        for h in probes[2:]
    )
    ok_second = all(
        check_derivation_second(tensor, f, g, h).passed
        for f in probes[:2]
        for g in probes[2:]
        for h in probes
    )
    results.append(CheckResult("derivation-first-slot", ok_first))
    results.append(CheckResult("derivation-second-slot", ok_second))
    return results


def _identity_checks_for_pair(pair: MetriplecticPair) -> list[CheckResult]:
    probes = _fixed_probe_polys(pair.chart)
    ok_product = all(
        check_pair_product(pair.P, pair.g, f, f1, probes[2], probes[3]).passed
        for f in probes[:2]
        for f1 in probes[2:]
    )
    ok_scaling = all(
        check_pair_scaling(pair.P, pair.g, f, scale, probes[0], probes[3]).passed
        for f in probes[:2]
        for scale in probes[1:3]
    )
    return [
        CheckResult("two-generator-product-rule", ok_product),
        CheckResult("two-generator-scaling-rule", ok_scaling),
    ]


def structure_certifications(A: AlgebroidStructure) -> list[CheckResult]:
    """Structure-level certifications for any fiber-linear structure:
    fiberwise linearity of the assembled tensor and the lift/anchor
    compatibility identities over all basis-section pairs."""
    return _structure_checks(A, _assemble_dual_tensor(A))


def _structure_checks(A: AlgebroidStructure, L: DualChartTensor) -> list[CheckResult]:
    """``structure_certifications`` against the assembled, uncertified tensor ``L`` of ``A``."""
    ok_linear, reason = L.certify_linear()
    results = [CheckResult("fiberwise-linearity", ok_linear, detail=reason)]
    if not ok_linear:
        skipped = "not checked: the assembled tensor is not fiberwise linear"
        return results + [CheckResult("structure-tensor-compatibility", False, detail=skipped)]
    base = A.base_chart
    # x1*x2, or x1^2 over a one-variable base
    f = Poly.var(base, base.names[0]) * Poly.var(base, base.names[min(1, base.dim - 1)])
    sections = [Section.basis(base, A.m, i) for i in range(A.m)]
    lifts = [lift_section(A, s) for s in sections]
    ok_anchors = all(
        r.is_zero for s, l in zip(sections, lifts) for r in _anchor_residuals(A, L.tensor, s, l, f)
    )
    ok_brackets = all(
        _bracket_lift_residual(A, L.tensor, s1, s2, l1, l2).is_zero
        for s1, l1 in zip(sections, lifts)
        for s2, l2 in zip(sections, lifts)
    )
    results.append(CheckResult("structure-tensor-compatibility", ok_anchors and ok_brackets))
    return results


def entry_certifications(entry: CatalogEntry) -> list[CheckResult]:
    """Kind-specific exact certifications for one built entry.

    Failures that correspond to documented discrepancies are marked
    whitelisted (strict mode treats them as plain failures).
    """
    results: list[CheckResult] = []
    if entry.kind == "leibniz_bracket":
        tensor: TensorField2 = entry.structure
        results.append(CheckResult("tensor-symmetric", tensor.is_symmetric()))
        results.extend(_identity_checks_for_tensor(tensor))
    elif entry.kind in ("metriplectic_pair", "almost_leibniz"):
        pair: MetriplecticPair = entry.structure
        results.append(CheckResult("antisymmetric-part", pair.P.is_antisymmetric()))
        results.append(CheckResult("symmetric-part", pair.g.is_symmetric()))
        results.extend(_identity_checks_for_pair(pair))
    elif entry.kind == "algebroid":
        results.extend(structure_certifications(entry.structure))
    elif entry.kind == "metriplectic_algebroid":
        A1, L2 = entry.structure
        L1 = _assemble_dual_tensor(A1)
        results.extend(_structure_checks(A1, L1))
        h1 = entry.hamiltonians["h1"]
        h2 = entry.hamiltonians["h2"]
        results.append(CheckResult("partner-symmetric", L2.is_symmetric()))
        results.append(
            CheckResult(
                "annihilation:second-structure:first-generator",
                L2.annihilates(h1, slot="first") and L2.annihilates(h1, slot="second"),
            )
        )
        residuals = annihilator_residuals(L1.tensor, h2, slot="first")
        bad = {k: v for k, v in residuals.items() if not v.is_zero}
        wl = _whitelist_lookup(entry.name, "annihilation:first-structure:second-generator")
        whitelisted = bool(bad) and all(
            comp in wl and parse_poly(entry.chart, wl[comp][0]) == res
            for comp, res in bad.items()
        )
        results.append(
            CheckResult(
                "annihilation:first-structure:second-generator",
                passed=not bad,
                whitelisted=whitelisted,
                detail=("nonzero defect in " + ", ".join(sorted(bad)) if bad else ""),
            )
        )
    return results


def entry_structure_json(entry: CatalogEntry) -> str:
    """Structure-file text for entries backed by a fiber-linear structure."""
    if entry.kind == "algebroid":
        return structure_to_json(entry.structure)
    if entry.kind == "metriplectic_algebroid":
        return structure_to_json(entry.structure[0])
    raise ValueError(f"entry {entry.name!r} has no structure-file representation")
