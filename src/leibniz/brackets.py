"""Brackets generated by 2-contravariant polynomial tensor fields.

A :class:`TensorField2` is a square matrix of :class:`~leibniz.poly.Poly`
entries over one chart.  It generates the bracket

    [f, h] = (grad f)^T B (grad h)

with the row index in the first slot.  On top of that sit Hamiltonian vector
fields, two-Hamiltonian (almost-Leibniz) vector fields built from a pair of
tensors, exact derivation-identity certificates, annihilator tests and the
single-generator equivalence check for such pairs.  A vector field is the
tuple of its polynomial components in chart order, the right-hand side that
``dynamics.OdeSystem`` takes.  Everything here is exact: a certificate passes
only when its residual is the zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import Chart, ChartMismatchError, Poly, _poly_sum, grad, poly_matrix

Antisymmetric = "antisymmetric"
Symmetric = "symmetric"
General = "general"


class TensorField2:
    """Square matrix of polynomials acting as a 2-contravariant tensor field."""

    __slots__ = ("chart", "entries")

    def __init__(self, chart: Chart, entries: Sequence[Sequence[Poly]]):
        d = chart.dim
        if len(entries) != d or any(len(row) != d for row in entries):
            raise ValueError(f"tensor must be {d}x{d} on this chart")
        rows = []
        for row in entries:
            for p in row:
                if not isinstance(p, Poly):
                    raise TypeError("tensor entries must be Poly")
                if p.chart != chart:
                    raise ChartMismatchError("tensor entry on a different chart")
            rows.append(tuple(row))
        self.chart = chart
        self.entries = tuple(rows)

    @classmethod
    def from_strings(cls, chart: Chart, rows: Sequence[Sequence[str | Poly | int]]) -> "TensorField2":
        return cls(chart, poly_matrix(chart, rows))

    @classmethod
    def zero(cls, chart: Chart) -> "TensorField2":
        z = Poly.zero(chart)
        d = chart.dim
        return cls(chart, [[z] * d for _ in range(d)])

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def __add__(self, other: "TensorField2") -> "TensorField2":
        if not isinstance(other, TensorField2):
            return NotImplemented
        if other.chart != self.chart:
            raise ChartMismatchError("cannot add tensors on different charts")
        d = self.chart.dim
        return TensorField2(
            self.chart,
            [[self.entries[i][j] + other.entries[i][j] for j in range(d)] for i in range(d)],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorField2):
            return NotImplemented
        return self.chart == other.chart and self.entries == other.entries

    def apply(self, f: Poly, h: Poly) -> Poly:
        """Exact bracket value [f, h] = sum_ij (d_i f) B_ij (d_j h)."""
        if f.chart != self.chart or h.chart != self.chart:
            raise ChartMismatchError("bracket arguments must share the tensor's chart")
        df = grad(f)
        dh = grad(h)
        return _poly_sum(
            self.chart,
            (
                df[i] * b * dh[j]
                for i, row in enumerate(self.entries)
                if not df[i].is_zero
                for j, b in enumerate(row)
                if not (b.is_zero or dh[j].is_zero)
            ),
        )

    def is_antisymmetric(self) -> bool:
        d = self.chart.dim
        return all(
            (self.entries[i][j] + self.entries[j][i]).is_zero
            for i in range(d)
            for j in range(i, d)
        )

    def is_symmetric(self) -> bool:
        d = self.chart.dim
        return all(
            (self.entries[i][j] - self.entries[j][i]).is_zero
            for i in range(d)
            for j in range(i + 1, d)
        )

    def symmetry_classify(self) -> str:
        """Exact classification; the zero tensor counts as antisymmetric."""
        if self.is_antisymmetric():
            return Antisymmetric
        if self.is_symmetric():
            return Symmetric
        return General


class MetriplecticPair:
    """A certified (antisymmetric P, symmetric g) pair of tensor fields."""

    __slots__ = ("P", "g")

    def __init__(self, P: TensorField2, g: TensorField2):
        if P.chart != g.chart:
            raise ChartMismatchError("pair tensors must share one chart")
        if not P.is_antisymmetric():
            raise ValueError("P must be exactly antisymmetric")
        if not g.is_symmetric():
            raise ValueError("g must be exactly symmetric")
        self.P = P
        self.g = g

    @property
    def chart(self) -> Chart:
        return self.P.chart


def _contract(chart: Chart, lines, dh: Sequence[Poly]) -> tuple[Poly, ...]:
    """Each line (a row or column of a tensor) contracted with the gradient ``dh``."""
    return tuple(
        _poly_sum(chart, (b * d for b, d in zip(line, dh) if not (b.is_zero or d.is_zero)))
        for line in lines
    )


def hamiltonian_vf(tensor: TensorField2, h: Poly) -> tuple[Poly, ...]:
    """Vector field with component_i = [coordinate_i, h]."""
    if h.chart != tensor.chart:
        raise ChartMismatchError("Hamiltonian must share the tensor's chart")
    return _contract(tensor.chart, tensor.entries, grad(h))


def almost_leibniz_vf(pair: MetriplecticPair, h1: Poly, h2: Poly) -> tuple[Poly, ...]:
    """Two-Hamiltonian vector field: component_i = P(dx_i, dh1) + g(dx_i, dh2)."""
    return tuple(x + y for x, y in zip(hamiltonian_vf(pair.P, h1), hamiltonian_vf(pair.g, h2)))


# -- identity certificates ---------------------------------------------------


@dataclass(frozen=True)
class IdentityCertificate:
    identity: str
    passed: bool
    residual: Poly
    note: str = ""

    def __bool__(self) -> bool:
        return self.passed


def check_derivation_first(tensor: TensorField2, f: Poly, g: Poly, h: Poly) -> IdentityCertificate:
    """[f*g, h] == [f, h]*g + f*[g, h], exactly."""
    residual = tensor.apply(f * g, h) - (tensor.apply(f, h) * g + f * tensor.apply(g, h))
    return IdentityCertificate("derivation-first-slot", residual.is_zero, residual)


def check_derivation_second(tensor: TensorField2, f: Poly, g: Poly, h: Poly) -> IdentityCertificate:
    """[f, g*h] == g*[f, h] + [f, g]*h, exactly."""
    residual = tensor.apply(f, g * h) - (g * tensor.apply(f, h) + tensor.apply(f, g) * h)
    return IdentityCertificate("derivation-second-slot", residual.is_zero, residual)


def check_pair_product(
    t1: TensorField2, t2: TensorField2, f: Poly, f1: Poly, h1: Poly, h2: Poly
) -> IdentityCertificate:
    """[f1*f, (h1,h2)] == f1*[f, (h1,h2)] + f*[f1, (h1,h2)], exactly."""

    def two_ham(func: Poly) -> Poly:
        return t1.apply(func, h1) + t2.apply(func, h2)

    residual = two_ham(f1 * f) - (f1 * two_ham(f) + f * two_ham(f1))
    return IdentityCertificate("two-hamiltonian-product", residual.is_zero, residual)


def check_pair_scaling(
    t1: TensorField2, t2: TensorField2, f: Poly, scale: Poly, h1: Poly, h2: Poly
) -> IdentityCertificate:
    """[f, scale*(h1,h2)] == scale*[f,(h1,h2)] + h1*T1(df,d scale) + h2*T2(df,d scale).

    The scaled pair means (scale*h1, scale*h2) in the second slot.
    """
    lhs = t1.apply(f, scale * h1) + t2.apply(f, scale * h2)
    rhs = (
        scale * (t1.apply(f, h1) + t2.apply(f, h2))
        + h1 * t1.apply(f, scale)
        + h2 * t2.apply(f, scale)
    )
    residual = lhs - rhs
    return IdentityCertificate(
        "two-hamiltonian-scaling",
        residual.is_zero,
        residual,
        note="both gradient terms carry their Hamiltonian factor",
    )


# -- annihilators and the single-generator equivalence -----------------------


def annihilator_residuals(tensor: TensorField2, h: Poly, slot: str = "first") -> dict[str, Poly]:
    """Bracket of h against every chart coordinate, h in the given slot.

    A coordinate's gradient is a unit vector, so ``[h, x_k]`` is column k of
    the tensor contracted with ``grad(h)`` and ``[x_k, h]`` is row k: one
    gradient serves every coordinate.
    """
    if slot not in ("first", "second"):
        raise ValueError("slot must be 'first' or 'second'")
    if h.chart != tensor.chart:
        raise ChartMismatchError("bracket arguments must share the tensor's chart")
    lines = zip(*tensor.entries) if slot == "first" else tensor.entries
    return dict(zip(tensor.chart.names, _contract(tensor.chart, lines, grad(h))))


def annihilator_check(tensor: TensorField2, h: Poly, slot: str = "first") -> bool:
    """True iff the bracket of h with every coordinate vanishes exactly."""
    return all(r.is_zero for r in annihilator_residuals(tensor, h, slot).values())


@dataclass(frozen=True)
class EquivalenceCertificate:
    passed: bool
    failed_preconditions: tuple[str, ...]
    residuals: tuple[Poly, ...]
    note: str = ""

    def __bool__(self) -> bool:
        return self.passed


def prop2_equivalence_check(pair: MetriplecticPair, h1: Poly, h2: Poly) -> EquivalenceCertificate:
    """Certify that the pair dynamics for (h1, h2) equals single-generator
    dynamics for h1 + h2 under the cross-annihilation hypotheses.

    Preconditions: P annihilates h2 and g annihilates h1 (each in the first
    slot).  If either fails the certificate reports which hypothesis broke
    instead of checking the equivalence.
    """
    failed = []
    if not annihilator_check(pair.P, h2, "first"):
        failed.append("P-hypothesis: P does not annihilate h2")
    if not annihilator_check(pair.g, h1, "first"):
        failed.append("g-hypothesis: g does not annihilate h1")
    if failed:
        return EquivalenceCertificate(
            False, tuple(failed), (), note="preconditions failed; equivalence not evaluated"
        )
    combined = hamiltonian_vf(pair.P + pair.g, h1 + h2)
    split = almost_leibniz_vf(pair, h1, h2)
    residuals = tuple(a - b for a, b in zip(split, combined))
    return EquivalenceCertificate(all(r.is_zero for r in residuals), (), residuals)
