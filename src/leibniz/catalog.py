"""Built-in example systems with transcribed reference right-hand sides.

An entry is its transcription of an example in the source material.
:func:`catalog_build` resolves its parameters and makes the base chart:
``x1, x2, x3``, then, in a symbolic build, the parameters as extra base
coordinates.  The entry's builder receives that chart and the parameter
polynomials (variables when symbolic, constants otherwise) and returns only
what the source states, namely a structure (bracket tensor, metriplectic
pair, or fiber-linear structure on a dual chart), its generator functions,
observables, the initial state of the coordinates, and a *reference*
right-hand side transcribed verbatim, as a map from coordinate name to
polynomial (a coordinate left out, such as a symbolic parameter, has zero
flow).  :func:`catalog_build` derives the rest once, from the entry's kind:
the :class:`~leibniz.dynamics.OdeSystem` of the vector field its structure
generates (the kind's ``*_vf`` function, generators in their listed order)
and the reference in chart order.

References are never corrected: where the source is misprinted, the derived
flow and the reference disagree, and :func:`catalog_verify` reports the
exact polynomial residual.  Known residuals are recorded in
``data/known_misprints.json`` so verification can distinguish "documented
discrepancy" from "regression"; strict mode ignores that whitelist.

A symbolic build gives its parameters zero dynamics, so derived-vs-reference
comparisons hold for every admissible parameter value at once, and the
systems remain integrable (parameters ride along as constants).
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Mapping, NamedTuple, Sequence

from .algebroid import (
    AlgebroidStructure,
    algebroid_vf,
    basis_compatible,
    fiber_linearity_defect,
    lambda_from_structure,
    metriplectic_algebroid_vf,
    prop4_construct_dual_tensor,
    structure_to_json,
)
from .brackets import (
    MetriplecticPair,
    TensorField2,
    almost_leibniz_vf,
    annihilator_residuals,
    check_derivation_first,
    check_derivation_second,
    check_pair_product,
    check_pair_scaling,
    hamiltonian_vf,
)
from .dynamics import OdeSystem
from .poly import Chart, Poly, _poly_sum, embed, parse_poly, poly_matrix, restrict

__all__ = [
    "CatalogEntry",
    "ComponentDiff",
    "CheckResult",
    "VerifyReport",
    "ParameterError",
    "UnknownEntryError",
    "ENTRY_NAMES",
    "PARAMETER_NAMES",
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
    (AlgebroidStructure, Prop4DualTensor) pair.  The integration span is
    :class:`~leibniz.dynamics.IntegratorConfig`'s and the description is
    :func:`catalog_list`'s; an entry holds neither.  ``x0`` is in chart
    order; a symbolic parameter column holds the exact parameter value.
    """

    name: str
    kind: str
    system: OdeSystem
    reference_rhs: tuple[Poly, ...]
    hamiltonians: dict[str, Poly]
    observables: dict[str, Poly]
    x0: tuple[float | Fraction, ...]
    params: dict[str, tuple[Fraction, ...]]
    symbolic: bool
    structure: object

    @property
    def chart(self) -> Chart:
        return self.system.chart


# -- parameter handling -------------------------------------------------------------


class _Param(NamedTuple):
    default: tuple
    rule: str  # the admissibility rule, as ``list`` states it
    chart_names: tuple[str, ...]  # its base coordinates in a symbolic build; none: a number


_PARAMS = {
    "gamma": _Param((1, 1, -2), "summing to zero", ("g1", "g2", "g3")),
    "s": _Param((1, 1, 1), "with entries in {-1,1}", ()),
    "a": _Param(
        (Fraction(3, 5), Fraction(2, 5), Fraction(1, 5)), "with a1 > a2 > a3 > 0", ("a1", "a2", "a3")
    ),
}
PARAMETER_NAMES: tuple[str, ...] = tuple(_PARAMS)


def _param(params: Mapping, name: str, symbolic: bool) -> tuple[Fraction, ...]:
    """Parameter ``name`` as three admissible exact rationals; its default when
    not given.  A symbolic build holds for every ``a`` at once, ordered or not."""
    value = params.get(name, _PARAMS[name].default)
    if isinstance(value, (str, bytes)):
        raise ParameterError(f"{name} must be a sequence of 3 rationals")
    try:
        items = tuple(Fraction(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be a sequence of 3 rationals") from exc
    except ZeroDivisionError as exc:
        raise ParameterError(f"{name} has a component with a zero denominator") from exc
    if len(items) != 3:
        raise ParameterError(f"{name} needs exactly 3 components, got {len(items)}")
    if name == "gamma" and sum(items) != 0:
        raise ParameterError("gamma components must sum to zero exactly")
    if name == "s" and any(v not in (1, -1) for v in items):
        raise ParameterError("each s component must be -1 or 1")
    if name == "a" and not symbolic and not (items[0] > items[1] > items[2] > 0):
        raise ParameterError("a must satisfy a1 > a2 > a3 > 0")
    return items


def _check_params(params: Mapping, allowed: Sequence[str], name: str) -> None:
    """Refuse parameters that entry ``name`` does not take (its keys: ``allowed``)."""
    unexpected = sorted(set(params) - set(allowed))
    if unexpected:
        takes = f"takes only {', '.join(allowed)}" if allowed else "takes no parameters"
        raise ParameterError(f"entry {name!r} {takes}, got {unexpected}")


# -- shared construction pieces -----------------------------------------------------


def _padded_tensor(chart: Chart, block: Sequence[Sequence[Poly | int]]) -> TensorField2:
    """The 3x3 ``block`` on the x1..x3 rows and columns, zero on any other
    coordinate (symbolic parameters)."""
    d = chart.dim
    rows = [[Poly.zero(chart)] * d for _ in range(d)]
    for i, row in enumerate(poly_matrix(chart, block)):
        rows[i][:3] = row
    return TensorField2(chart, rows)


def _damping_block(chart: Chart, a: Sequence[Poly]) -> list[list[Poly]]:
    """Symmetric block: diagonal -sum_{k!=i} a_k^2 (x^k)^2, off-diagonal a_i a_j x^i x^j.

    That is u u^T - |u|^2 I with u_i = a_i x^i.
    """
    u = [ai * Poly.var(chart, f"x{i}") for i, ai in enumerate(a, start=1)]
    norm = _poly_sum(chart, (ui * ui for ui in u))
    return [[u[i] * u[j] - (norm if i == j else 0) for j in range(3)] for i in range(3)]


def _half_norm(chart: Chart) -> Poly:
    return parse_poly(chart, "1/2*x1^2 + 1/2*x2^2 + 1/2*x3^2")


def _rigid_reference_x(chart: Chart, a: Sequence[Poly]) -> dict[str, Poly]:
    """The damped-top reference components, transcribed line by line."""
    x1, x2, x3 = (Poly.var(chart, f"x{i}") for i in (1, 2, 3))
    a1, a2, a3 = a
    return {
        "x1": (a3 - a2) * x2 * x3 + a2 * (a1 - a2) * x1 * x2 * x2 + a3 * (a1 - a3) * x1 * x3 * x3,
        "x2": (a1 - a3) * x1 * x3 + a3 * (a2 - a3) * x2 * x3 * x3 + a1 * (a2 - a1) * x2 * x1 * x1,
        "x3": (a2 - a1) * x1 * x2 + a1 * (a3 - a1) * x3 * x1 * x1 + a2 * (a3 - a2) * x3 * x2 * x2,
    }


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


# -- entry builders -----------------------------------------------------------------


def _build_gradient_beltrami(chart: Chart, p: Mapping) -> dict:
    g, s = p["gamma"], p["s"]
    diagonal = [[s[i] * g[i] if i == j else 0 for j in range(3)] for i in range(3)]
    h = parse_poly(chart, "x1*x2*x3")
    x1, x2, x3 = (Poly.var(chart, f"x{i}") for i in (1, 2, 3))
    return dict(
        structure=_padded_tensor(chart, diagonal),
        hamiltonians={"h": h},
        observables={"generator": h},
        x0=(1.0, 1.0, 1.0),
        reference={"x1": s[0] * g[0] * x2 * x3, "x2": s[1] * g[1] * x1 * x3, "x3": s[2] * g[2] * x1 * x2},
    )


def _build_revised_rigid_body(chart: Chart, p: Mapping) -> dict:
    a = p["a"]
    x1, x2, x3 = (Poly.var(chart, f"x{i}") for i in (1, 2, 3))
    # the energy (1/2) sum_i (a_i + 1) (x^i)^2
    h = _poly_sum(chart, (Fraction(1, 2) * (ai + 1) * xi * xi for ai, xi in zip(a, (x1, x2, x3))))
    spin = [[0, -x3, x2], [x3, 0, -x1], [-x2, x1, 0]]
    return dict(
        structure=MetriplecticPair(
            _padded_tensor(chart, spin), _padded_tensor(chart, _damping_block(chart, a))
        ),
        hamiltonians={"h1": h, "h2": h},
        observables={"half-norm": _half_norm(chart), "energy": h},
        x0=(1.0, 0.5, 0.2),
        reference=_rigid_reference_x(chart, a),
    )


# The two almost-Leibniz examples as text: the tensors P and g, the two
# generators, and the reference flow.
_ALMOST_LEIBNIZ_EX2 = dict(
    P=[["0", "1", "0"], ["-1", "0", "x1"], ["0", "-x1", "0"]],
    g=[["0", "0", "0"], ["0", "-x3^2", "0"], ["0", "0", "-x2^2"]],
    h1="1/2*x2^2 + 1/2*x3^2",
    h2="1/2*x1^2 + x3",
    reference={"x1": "x2", "x2": "x1*x3", "x3": "-x1*x2 - x2^2"},
)
_ALMOST_LEIBNIZ_EX3 = dict(
    P=[["0", "-x3", "x2"], ["x3", "0", "0"], ["-x2", "0", "0"]],
    g=[["-x3", "0", "0"], ["0", "0", "0"], ["0", "0", "-x1"]],
    h1="1/2*x1^2 + x3",
    h2="1/2*x2^2 + 1/2*x3^2",
    reference={"x1": "x2", "x2": "x1*x3", "x3": "-x1*x2 - x1*x3"},
)


def _build_almost_leibniz(text: Mapping, chart: Chart, p: Mapping) -> dict:
    P = TensorField2.from_strings(chart, text["P"])
    g = TensorField2.from_strings(chart, text["g"])
    h1 = parse_poly(chart, text["h1"])
    h2 = parse_poly(chart, text["h2"])
    return dict(
        structure=MetriplecticPair(P, g),
        hamiltonians={"h1": h1, "h2": h2},
        observables={"h1": h1, "h2": h2},
        x0=(1.0, 0.5, 0.2),
        reference={name: parse_poly(chart, rhs) for name, rhs in text["reference"].items()},
    )


def _build_maxwell_bloch(chart: Chart, p: Mapping) -> dict:
    C = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
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
    reference = {
        "x1": "x2",
        "x2": "x1*x3",
        "x3": "-x1*x2",
        # transcribed with its documented missing term; see the misprint data file
        "xi1": "x2*x3*xi2 - x3*xi2 - x2*x3*xi3",
        "xi2": "-x1*x3*xi1",
        "xi3": "x1*x2*xi1",
    }
    return dict(
        structure=A,
        hamiltonians={"h": h},
        observables={
            "invariant-1": parse_poly(dual, "1/2*x2^2 + 1/2*x3^2"),
            "invariant-2": parse_poly(dual, "1/2*x1^2 + x3"),
        },
        x0=(0.5, 0.5, 0.5, 1.0, 0.5, 0.2),
        reference={name: parse_poly(dual, rhs) for name, rhs in reference.items()},
    )


def _free_top_pieces(chart: Chart, p: Mapping) -> tuple[AlgebroidStructure, Poly, list[Poly], dict]:
    """What the two free-top entries share: the structure, the weighted
    linear generator h1, the weights a on the dual chart, and the initial
    state."""
    A = _free_top_structure(chart)
    dual = A.dual_chart
    a = [embed(ai, dual) for ai in p["a"]]
    h1 = _poly_sum(dual, (ai * parse_poly(dual, f"x{i}*xi{i}") for i, ai in enumerate(a, start=1)))
    return A, h1, a, dict(x0=(1.0, 0.5, 0.2, 0.5, 0.5, 0.5))


def _reference_51(dual: Chart, a: Sequence[Poly]) -> dict[str, Poly]:
    a1, a2, a3 = a
    x1, x2, x3 = (Poly.var(dual, f"x{i}") for i in (1, 2, 3))
    xi1, xi2, xi3 = (Poly.var(dual, f"xi{i}") for i in (1, 2, 3))
    return {
        "x1": (a3 - a2) * x2 * x3,
        "x2": (a1 - a3) * x1 * x3,
        "x3": (a2 - a1) * x1 * x2,
        "xi1": a2 * xi3 * x2 * x3 - a3 * xi2 * x2 * x3 - a2 * xi2 * x3 + a3 * xi3 * x2,
        "xi2": a3 * xi1 * x1 * x3 - a1 * xi3 * x1 * x3 - a3 * xi3 * x1 + a1 * xi1 * x3,
        "xi3": a1 * xi2 * x1 * x2 - a2 * xi1 * x1 * x2 - a1 * xi1 * x2 + a2 * xi2 * x1,
    }


def _reference_52(dual: Chart, a: Sequence[Poly]) -> dict[str, Poly]:
    """The damped-top x-part, and the fiber part transcribed line by line."""
    a1, a2, a3 = a
    x1, x2, x3 = (Poly.var(dual, f"x{i}") for i in (1, 2, 3))
    xi1, xi2, xi3 = (Poly.var(dual, f"xi{i}") for i in (1, 2, 3))
    return _rigid_reference_x(dual, a) | {
        "xi1": (a2 * (a1 - a2) * x1 * x2 - a3 * x2 * x3 - a2 * x3) * xi2
        + (a3 * (a1 - a3) * x1 * x3 + a2 * x2 * x3 + a3 * x2) * xi3,
        "xi2": (a1 * (a2 - a1) * x1 * x2 + a3 * x1 * x3 + a1 * x3) * xi1
        + (a3 * (a2 - a3) * x2 * x3 - a1 * x1 * x3 - a3 * x1) * xi3,
        "xi3": (a2 * (a3 - a2) * x2 * x3 + a1 * x1 * x2 + a2 * x1) * xi2
        + (a1 * (a3 - a1) * x1 * x3 - a2 * x1 * x2 - a1 * x2) * xi1,
    }


def _build_rigid_body_algebroid(chart: Chart, p: Mapping) -> dict:
    A, h1, a, shared = _free_top_pieces(chart, p)
    return dict(
        structure=A,
        hamiltonians={"h1": h1},
        observables={"half-norm-x": _half_norm(A.dual_chart), "generator": h1},
        reference=_reference_51(A.dual_chart, a),
        **shared,
    )


def _build_rigid_body_metriplectic(chart: Chart, p: Mapping) -> dict:
    A1, h1, a, shared = _free_top_pieces(chart, p)
    dual = A1.dual_chart
    h2 = parse_poly(dual, "x1*xi1 + x2*xi2 + x3*xi3")
    return dict(
        structure=(A1, prop4_construct_dual_tensor(h1)),
        hamiltonians={"h1": h1, "h2": h2},
        observables={"half-norm-x": _half_norm(dual), "generator-1": h1, "generator-2": h2},
        reference=_reference_52(dual, a),
        **shared,
    )


class _EntrySpec(NamedTuple):
    kind: str
    build: Callable[[Chart, dict], dict]  # the transcribed fields (module docstring)
    takes: tuple[str, ...]  # the parameter names the entry accepts
    description: str


_BUILDERS: dict[str, _EntrySpec] = {
    "gradient-beltrami": _EntrySpec(
        "leibniz_bracket",
        _build_gradient_beltrami,
        ("gamma", "s"),
        "Gradient-like flow of a constant diagonal symmetric tensor with a cubic generator.",
    ),
    "revised-rigid-body": _EntrySpec(
        "metriplectic_pair",
        _build_revised_rigid_body,
        ("a",),
        "Damped free top: antisymmetric spin part plus exact quadratic damping, one energy in both slots.",
    ),
    "almost-leibniz-ex2": _EntrySpec(
        "almost_leibniz",
        functools.partial(_build_almost_leibniz, _ALMOST_LEIBNIZ_EX2),
        (),
        "Two-generator flow: constant-plus-linear antisymmetric part with diagonal quadratic symmetric part.",
    ),
    "almost-leibniz-ex3": _EntrySpec(
        "almost_leibniz",
        functools.partial(_build_almost_leibniz, _ALMOST_LEIBNIZ_EX3),
        (),
        "Two-generator flow: rotational antisymmetric part with a degenerate diagonal symmetric part.",
    ),
    "maxwell-bloch-algebroid": _EntrySpec(
        "algebroid",
        _build_maxwell_bloch,
        (),
        "Fiber-linear structure generating the Maxwell-Bloch equations on the base; the transcribed reference carries one documented misprint.",
    ),
    "rigid-body-algebroid": _EntrySpec(
        "algebroid",
        _build_rigid_body_algebroid,
        ("a",),
        "Pre-Lie fiber-linear structure generating the free rigid body on the base, with a weighted linear generator.",
    ),
    "rigid-body-metriplectic-algebroid": _EntrySpec(
        "metriplectic_algebroid",
        _build_rigid_body_metriplectic,
        ("a",),
        "Free-top antisymmetric structure paired with its constructed symmetric partner; the base flow is the damped rigid body.",
    ),
}

ENTRY_NAMES: tuple[str, ...] = tuple(_BUILDERS)

# kind -> the vector field an entry's structure generates from its generators
_FLOW_ROUTES: dict[str, Callable[..., tuple[Poly, ...]]] = {
    "leibniz_bracket": hamiltonian_vf,
    "metriplectic_pair": almost_leibniz_vf,
    "almost_leibniz": almost_leibniz_vf,
    "algebroid": algebroid_vf,
    "metriplectic_algebroid": metriplectic_algebroid_vf,
}


def _schema(takes: Sequence[str]) -> str:
    """``list``'s parameter text: each default and its admissibility rule."""
    texts = [f"{k}=({','.join(map(str, _PARAMS[k].default))}) {_PARAMS[k].rule}" for k in takes]
    return "; ".join(texts) or "none"


def catalog_list() -> list[dict[str, str]]:
    """Summaries (name, kind, parameter schema, description) for every entry; builds none."""
    return [
        {"name": name, "kind": spec.kind, "params": _schema(spec.takes), "description": spec.description}
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
    values = {key: _param(params, key, symbolic) for key in spec.takes}
    # a symbolic build carries each parameter that has chart names as base
    # coordinates after x1..x3, starting from the parameter's exact value
    carried = [key for key in spec.takes if symbolic and _PARAMS[key].chart_names]
    names = [n for key in carried for n in _PARAMS[key].chart_names]
    chart = Chart(base=("x1", "x2", "x3", *names))
    p = {
        key: tuple(Poly.var(chart, n) for n in _PARAMS[key].chart_names)
        if key in carried
        else tuple(Poly.const(chart, v) for v in vals)
        for key, vals in values.items()
    }
    fields = spec.build(chart, p)
    x0 = fields.pop("x0")
    reference = fields.pop("reference")
    structure = fields["structure"]
    # a metriplectic algebroid's structure is its (antisymmetric, symmetric) pair
    parts = structure if isinstance(structure, tuple) else (structure,)
    rhs = _FLOW_ROUTES[spec.kind](*parts, *fields["hamiltonians"].values())
    system = OdeSystem(rhs[0].chart, rhs, provenance=name)
    zero = Poly.zero(system.chart)
    return CatalogEntry(
        name=name,
        kind=spec.kind,
        system=system,
        reference_rhs=tuple(reference.get(coord, zero) for coord in system.chart.names),
        x0=x0[:3] + tuple(v for key in carried for v in values[key]) + x0[3:],
        params=values,
        # an entry without parameters has nothing to carry symbolically
        symbolic=bool(carried),
        **fields,
    )


# -- verification -------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentDiff:
    """Exact difference between derived and reference flow in one component."""

    component: str
    derived: Poly
    reference: Poly
    residual: Poly
    whitelisted: bool = False

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

    def line(self, label: str, strict: bool = False) -> str:
        """Report line headed by ``label`` (``check`` or ``certification``)."""
        if self.passed:
            return f"  {label} {self.name}: pass"
        mark = "known discrepancy" if self.whitelisted and not strict else "FAIL"
        return f"  {label} {self.name}: {mark}" + (f" ({self.detail})" if self.detail else "")


@dataclass(frozen=True)
class VerifyReport:
    """Reference diffs and cross-checks of one entry, plus its certifications
    when the caller attaches them (``entry_certifications``).  A structure
    file's report holds its ``structure_certifications`` alone."""

    entry: str
    diffs: tuple[ComponentDiff, ...]
    checks: tuple[CheckResult, ...] = ()
    certifications: tuple[CheckResult, ...] = ()

    def _verdict(self, strict: bool, certifications: bool) -> bool:
        """Each diff and check, and each certification if asked, passes or is
        whitelisted and not ``strict``."""
        checks = self.checks + self.certifications if certifications else self.checks
        outcomes = [(d.matches, d.whitelisted) for d in self.diffs]
        outcomes += [(c.passed, c.whitelisted) for c in checks]
        return all(passed or (whitelisted and not strict) for passed, whitelisted in outcomes)

    @property
    def clean(self) -> bool:
        """Diffs and checks match exactly, whitelist ignored (strict reading)."""
        return self._verdict(strict=True, certifications=False)

    @property
    def clean_modulo_known(self) -> bool:
        """Diffs and checks match except documented, whitelisted discrepancies."""
        return self._verdict(strict=False, certifications=False)

    def ok(self, strict: bool = False) -> bool:
        """The entry's verdict: diffs, checks and certifications all pass, the
        whitelisted ones excepted unless ``strict``."""
        return self._verdict(strict, certifications=True)

    def lines(self, strict: bool = False) -> list[str]:
        out = [f"entry: {self.entry}"]
        for d in self.diffs:
            if d.matches:
                out.append(f"  {d.component}: match")
            else:
                mark = "known misprint" if d.whitelisted and not strict else "MISMATCH"
                out.append(f"  {d.component}: {mark}; derived - reference = {d.residual}")
        out += [c.line("check", strict) for c in self.checks]
        out += [c.line("certification", strict) for c in self.certifications]
        return out + [f"  result: {'ok' if self.ok(strict) else 'FAILED'}"]

    def to_dict(self, strict: bool = False) -> dict:
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
            "checks": [asdict(c) for c in self.checks],
            "certifications": [asdict(c) for c in self.certifications],
            "ok": self.ok(strict),
        }


@functools.cache
def _misprint_records() -> tuple[dict[str, str], ...]:
    """The misprint data file, parsed once per process; callers must not mutate it."""
    text = resources.files("leibniz.data").joinpath("known_misprints.json").read_text()
    return tuple(json.loads(text)["known_misprints"])


def known_misprints() -> list[dict[str, str]]:
    """Records of documented derived-vs-reference discrepancies (fresh copies)."""
    return [dict(record) for record in _misprint_records()]


def _recorded_misprints(entry: CatalogEntry, check: str, residuals: Mapping[str, Poly]) -> set[str]:
    """The components whose nonzero residual of ``check`` on ``entry`` the
    misprint data file records exactly."""
    out = set()
    zero = Poly.zero(entry.chart)
    for record in _misprint_records():
        if record["entry"] == entry.name and record["check"] == check:
            residual = residuals.get(record["component"], zero)
            if not residual.is_zero and residual == parse_poly(entry.chart, record["residual"]):
                out.add(record["component"])
    return out


def catalog_verify(entry: str | CatalogEntry) -> VerifyReport:
    """Diff the derived flow against the transcribed reference, component-wise.

    ``entry`` is an entry built by :func:`catalog_build`, or an entry name,
    built here with its default parameters.
    A nonzero residual is marked whitelisted when the misprint data file
    records exactly that residual for that component (parameter-free
    records apply to symbolic builds as well).  For the combined
    antisymmetric+symmetric entry the report also carries the cross-check
    that its base flow equals the damped-top entry's flow, built
    independently from the entry's parameters.
    """
    if not isinstance(entry, CatalogEntry):
        entry = catalog_build(entry)
    components = tuple(zip(entry.chart.names, entry.system.rhs, entry.reference_rhs))
    residuals = {comp: derived - reference for comp, derived, reference in components}
    known = _recorded_misprints(entry, "reference-system", residuals)
    diffs = [
        ComponentDiff(
            component=comp,
            derived=derived,
            reference=reference,
            residual=residuals[comp],
            whitelisted=comp in known,
        )
        for comp, derived, reference in components
    ]
    checks = ()
    if entry.kind == "metriplectic_algebroid":
        damped = catalog_build("revised-rigid-body", entry.params, entry.symbolic)
        x_part = tuple(restrict(p, damped.chart) for p in entry.system.rhs[: damped.chart.dim])
        checks = (CheckResult("base-flow-equals-damped-top", x_part == damped.system.rhs),)
    return VerifyReport(entry=entry.name, diffs=tuple(diffs), checks=checks)


# -- structural certifications (used by the CLI verifier) ----------------------------


def _fixed_probe_polys(chart: Chart) -> list[Poly]:
    """Small deterministic polynomial set for identity spot checks."""
    names = chart.names
    return [
        Poly.var(chart, names[0]),
        Poly.var(chart, names[1]) + Poly.const(chart, Fraction(1, 2)),
        Poly.var(chart, names[0]) * Poly.var(chart, names[-1]),
        Poly.var(chart, names[-1]) ** 2 - Poly.var(chart, names[1]),
    ]


def _identity_checks_for_tensor(tensor: TensorField2) -> list[CheckResult]:
    probes = _fixed_probe_polys(tensor.chart)
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
    return [
        CheckResult("derivation-first-slot", ok_first),
        CheckResult("derivation-second-slot", ok_second),
    ]


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
    return _structure_checks(A, lambda_from_structure(A))


def _structure_checks(A: AlgebroidStructure, T: TensorField2) -> list[CheckResult]:
    """``structure_certifications`` against the assembled tensor ``T`` of ``A``."""
    reason = fiber_linearity_defect(T)
    results = [CheckResult("fiberwise-linearity", not reason, detail=reason)]
    if reason:
        skipped = "not checked: the assembled tensor is not fiberwise linear"
        return results + [CheckResult("structure-tensor-compatibility", False, detail=skipped)]
    results.append(CheckResult("structure-tensor-compatibility", basis_compatible(A, T)))
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
        T1 = lambda_from_structure(A1)
        results.extend(_structure_checks(A1, T1))
        h1 = entry.hamiltonians["h1"]
        h2 = entry.hamiltonians["h2"]
        results.append(CheckResult("partner-symmetric", L2.is_symmetric()))
        results.append(
            CheckResult(
                "annihilation:second-structure:first-generator",
                L2.annihilates(h1, slot="first") and L2.annihilates(h1, slot="second"),
            )
        )
        check = "annihilation:first-structure:second-generator"
        residuals = annihilator_residuals(T1, h2, slot="first")
        bad = sorted(comp for comp, res in residuals.items() if not res.is_zero)
        known = _recorded_misprints(entry, check, residuals)
        results.append(
            CheckResult(
                check,
                passed=not bad,
                whitelisted=bool(bad) and len(known) == len(bad),
                detail=("nonzero defect in " + ", ".join(bad) if bad else ""),
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
