"""Leibniz algebroid structures on trivial bundles over a coordinate chart.

An :class:`AlgebroidStructure` stores the structure functions ``C[a][b][d]``
of the basis-section bracket, plus left/right anchor matrices ``rho1`` and
``rho2`` (entry ``[i][a]`` is the x^i-component of the anchor applied to the
a-th basis section).  Such a structure corresponds one-to-one with a
fiberwise-linear 2-contravariant tensor on the dual bundle chart
(x^1..x^n, xi1..xim), laid out as

    T(d xi_a, d xi_b) = C[a][b][d] * xi_d       (summed over d)
    T(d xi_a, d x^i)  = rho1[i][a]
    T(d x^i,  d xi_a) = -rho2[i][a]
    T(d x^i,  d x^j)  = 0

That correspondence (Theorem 1) is one plain ``TensorField2`` both ways:
``lambda_from_structure`` assembles it, ``structure_from_lambda`` reads the
structure back off it, and ``fiber_linearity_defect`` is the one test of the
layout.  ``theorem1_check`` certifies the compatibility identities for given
sections and ``basis_compatible`` for every pair of basis sections.
``classify_algebroid`` reads the class (pre-Lie / symmetric / general) off
the tensor's symmetry class.

Also here: the section bracket and its defining-identity certificates, a
constructor that derives a fiber-annihilating symmetric partner tensor from a
fiberwise-linear Hamiltonian (certified, never assumed), and a JSON structure
file format.  That partner's rational entries are :class:`PolyFraction`
values: plain (numerator, denominator) pairs, compared by
cross-multiplication, with no arithmetic of their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .brackets import Antisymmetric, IdentityCertificate, TensorField2, annihilator_residuals
from .poly import (
    Chart,
    ChartMismatchError,
    Poly,
    _poly_sum,
    divide_exact,
    embed,
    parse_poly,
    poly_matrix,
    restrict,
)


class NotLinearError(ValueError):
    """A dual-chart tensor is not fiberwise linear; names the bad entry."""


class ZeroCoefficientError(ValueError):
    """A fiberwise-linear Hamiltonian has an identically-zero coefficient."""


class CertificationError(ValueError):
    """A constructed object failed its exact certificate."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


# -- polynomial fractions ------------------------------------------------------


class PolyFraction:
    """Exact quotient ``num / den`` of two polynomials on one chart.

    A plain pair: no arithmetic and no normal form.  Equality is decided by
    exact cross-multiplication, and :meth:`to_poly` performs exact division.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(num.chart, 1)
        if num.chart != den.chart:
            raise ChartMismatchError("fraction parts on different charts")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @property
    def chart(self) -> Chart:
        return self.num.chart

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    def to_poly(self) -> Poly:
        """Exact conversion; raises ExactDivisionError if not polynomial."""
        if self.num.is_zero or self.den == Poly.const(self.chart, 1):
            return self.num
        return divide_exact(self.num, self.den)

    def __str__(self) -> str:
        if self.num.is_zero:
            return "0"
        if self.den == Poly.const(self.chart, 1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"PolyFraction({str(self)!r})"


# -- structures ---------------------------------------------------------------


def dual_chart_for(base: Chart, m: int) -> Chart:
    """The (x, xi) chart of the dual bundle over ``base`` with fiber rank m."""
    if base.n_fiber:
        raise ValueError("base chart must have no fiber variables")
    return Chart(base=base.base, fiber=tuple(f"xi{a + 1}" for a in range(m)))


@dataclass(frozen=True)
class Section:
    """A section of the rank-m trivial bundle: m components on the base chart."""

    chart: Chart
    components: tuple[Poly, ...]

    def __post_init__(self):
        if self.chart.n_fiber:
            raise ValueError("sections live over the base chart")
        for p in self.components:
            if p.chart != self.chart:
                raise ChartMismatchError("section component on wrong chart")

    @classmethod
    def basis(cls, chart: Chart, m: int, a: int) -> "Section":
        comps = [Poly.zero(chart)] * m
        comps[a] = Poly.const(chart, 1)
        return cls(chart, tuple(comps))

    @property
    def m(self) -> int:
        return len(self.components)


class AlgebroidStructure:
    """Structure functions and anchors of a Leibniz algebroid over a chart."""

    __slots__ = ("n", "m", "base_chart", "dual_chart", "C", "rho1", "rho2")

    def __init__(
        self,
        base_chart: Chart,
        m: int,
        C: Sequence[Sequence[Sequence[Poly]]],
        rho1: Sequence[Sequence[Poly]],
        rho2: Sequence[Sequence[Poly]],
    ):
        if base_chart.n_fiber:
            raise ValueError("base chart must have no fiber variables")
        n = base_chart.dim
        if len(C) != m or any(len(row) != m or any(len(e) != m for e in row) for row in C):
            raise ValueError(f"C must be {m}x{m}x{m}")
        if len(rho1) != n or any(len(r) != m for r in rho1):
            raise ValueError(f"rho1 must be {n}x{m} (row = base index)")
        if len(rho2) != n or any(len(r) != m for r in rho2):
            raise ValueError(f"rho2 must be {n}x{m} (row = base index)")
        for block in (C, rho1, rho2):
            for row in block:
                for entry in row:
                    for p in entry if isinstance(entry, (list, tuple)) else (entry,):
                        if p.chart != base_chart:
                            raise ChartMismatchError(
                                "structure entries must live on the base chart"
                            )
        self.n = n
        self.m = m
        self.base_chart = base_chart
        self.dual_chart = dual_chart_for(base_chart, m)
        self.C = tuple(tuple(tuple(e) for e in row) for row in C)
        self.rho1 = tuple(tuple(row) for row in rho1)
        self.rho2 = tuple(tuple(row) for row in rho2)

    @classmethod
    def from_strings(cls, base_chart: Chart, m: int, C, rho1, rho2) -> "AlgebroidStructure":
        """Build from nested lists of polynomial strings / ints / Polys."""
        C_p = [poly_matrix(base_chart, row) for row in C]
        rho1_p = poly_matrix(base_chart, rho1)
        rho2_p = poly_matrix(base_chart, rho2)
        return cls(base_chart, m, C_p, rho1_p, rho2_p)

    @classmethod
    def zero(cls, base_chart: Chart, m: int) -> "AlgebroidStructure":
        z = Poly.zero(base_chart)
        n = base_chart.dim
        return cls(
            base_chart,
            m,
            [[[z] * m for _ in range(m)] for _ in range(m)],
            [[z] * m for _ in range(n)],
            [[z] * m for _ in range(n)],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebroidStructure):
            return NotImplemented
        return (
            self.base_chart == other.base_chart
            and self.m == other.m
            and self.C == other.C
            and self.rho1 == other.rho1
            and self.rho2 == other.rho2
        )


# -- lifts and the structure <-> tensor correspondence -------------------------


def lift_section(A: AlgebroidStructure, sigma: Section) -> Poly:
    """The fiberwise-linear function sum_a xi_a * sigma^a(x) on the dual chart."""
    if sigma.m != A.m or sigma.chart != A.base_chart:
        raise ChartMismatchError("section does not match the structure's bundle")
    chart = A.dual_chart
    return _poly_sum(
        chart,
        (
            Poly.var(chart, chart.fiber[a]) * embed(comp, chart)
            for a, comp in enumerate(sigma.components)
        ),
    )


def lambda_from_structure(A: AlgebroidStructure) -> TensorField2:
    """The dual-chart tensor encoding ``A``, in the block layout of the module docstring.

    It is fiberwise linear by construction: every structure entry lives on the
    base chart, so the anchor blocks hold no fiber variable and each
    fiber-fiber entry is sum_d C[a][b][d] * xi_d.
    """
    chart = A.dual_chart
    n, m = A.n, A.m
    zero = Poly.zero(chart)
    entries = [[zero] * (n + m) for _ in range(n + m)]
    xi = [Poly.var(chart, name) for name in chart.fiber]
    for i in range(n):
        for a in range(m):
            entries[i][n + a] = -embed(A.rho2[i][a], chart)
            entries[n + a][i] = embed(A.rho1[i][a], chart)
    for a in range(m):
        for b in range(m):
            entries[n + a][n + b] = _poly_sum(
                chart,
                (embed(A.C[a][b][d], chart) * xi[d] for d in range(m) if not A.C[a][b][d].is_zero),
            )
    return TensorField2(chart, entries)


def fiber_linearity_defect(T: TensorField2) -> str:
    """Why the dual-chart tensor ``T`` is not fiberwise linear; empty when it is."""
    names = T.chart.names
    n, m = T.chart.n_base, T.chart.n_fiber
    for i in range(n):
        for j in range(n):
            if not T.entry(i, j).is_zero:
                return f"base-base entry ({names[i]}, {names[j]}) is nonzero"
    for i in range(n):
        for a in range(m):
            for p, slot in (
                (T.entry(i, n + a), (names[i], names[n + a])),
                (T.entry(n + a, i), (names[n + a], names[i])),
            ):
                if not p.is_zero and p.fiber_degree() > 0:
                    return f"anchor entry {slot} depends on fiber variables"
    for a in range(m):
        for b in range(m):
            if any(sum(exponent[n:]) != 1 for exponent, _ in T.entry(n + a, n + b).terms()):
                return (
                    f"fiber-fiber entry ({names[n + a]}, {names[n + b]}) "
                    "has a term not of fiber degree 1"
                )
    return ""


def _fiber_linear_decompose(p: Poly, n: int, m: int) -> list[Poly]:
    """Write a fiber-degree-1 Poly as sum_d xi_d * q_d(x); returns the q_d."""
    chart = p.chart
    base = chart.base_only()
    monomials: list[list[Poly]] = [[] for _ in range(m)]
    for exponent, coeff in p.terms():
        fiber = exponent[n:]
        if sum(fiber) != 1:
            raise NotLinearError("entry has a term not of fiber degree 1")
        d = next(k for k, e in enumerate(fiber) if e == 1)
        monomials[d].append(Poly(base, {tuple(exponent[:n]): coeff}))
    return [_poly_sum(base, terms) for terms in monomials]


def structure_from_lambda(T: TensorField2) -> AlgebroidStructure:
    """Read (C, rho1, rho2) back off a fiberwise-linear dual-chart tensor.

    ``T`` must live on ``dual_chart_for(base, m)``: a structure names its
    fiber coordinates xi1..xim, so other names would not survive the round trip.
    """
    chart = T.chart
    n, m = chart.n_base, chart.n_fiber
    base = chart.base_only()
    if chart != dual_chart_for(base, m):
        raise ChartMismatchError(
            f"fiber coordinates must be named xi1..xi{m}, got {', '.join(chart.fiber)}"
        )
    reason = fiber_linearity_defect(T)
    if reason:
        raise NotLinearError(reason)
    rho1 = [[restrict(T.entry(n + a, i), base) for a in range(m)] for i in range(n)]
    rho2 = [[restrict(-T.entry(i, n + a), base) for a in range(m)] for i in range(n)]
    C = [[_fiber_linear_decompose(T.entry(n + a, n + b), n, m) for b in range(m)] for a in range(m)]
    return AlgebroidStructure(base, m, C, rho1, rho2)


# -- section bracket and its defining identities --------------------------------


def _anchor_derivative(A: AlgebroidStructure, which: int, sigma: Section, f: Poly) -> Poly:
    """rho(sigma) applied to a base function f, as a base Poly."""
    rho = A.rho1 if which == 1 else A.rho2
    terms = []
    for i, name in enumerate(A.base_chart.names):
        df = f.diff(name)
        if not df.is_zero:
            terms.extend(comp * rho[i][a] * df for a, comp in enumerate(sigma.components))
    return _poly_sum(A.base_chart, terms)


def section_bracket(A: AlgebroidStructure, s1: Section, s2: Section) -> Section:
    """Bilinear bracket of sections extending the basis values C[a][b]."""
    if s1.m != A.m or s2.m != A.m:
        raise ValueError("section rank does not match the structure")
    base = A.base_chart
    comps = []
    for d in range(A.m):
        terms = [
            s1.components[a] * s2.components[b] * A.C[a][b][d]
            for a in range(A.m)
            for b in range(A.m)
            if not (s1.components[a].is_zero or s2.components[b].is_zero)
        ]
        terms.append(_anchor_derivative(A, 1, s1, s2.components[d]))
        terms.append(-_anchor_derivative(A, 2, s2, s1.components[d]))
        comps.append(_poly_sum(base, terms))
    return Section(base, tuple(comps))


def theorem1_check(
    A: AlgebroidStructure, s1: Section, s2: Section, f: Poly
) -> tuple[IdentityCertificate, IdentityCertificate, IdentityCertificate]:
    """Certify the structure <-> tensor compatibility identities exactly.

    Returns the bracket-lift, left-anchor and right-anchor certificates;
    ``all`` of them is the verdict.

    bracket-lift: lift[s1, s2] = T(d lift s1, d lift s2)
    left-anchor:  T(d lift s, d f~) = (rho1(s) f)~ for the base function f
    right-anchor: T(d f~, d lift s) = -(rho2(s) f)~; the sign is forced by
                  the block layout (the x-row block carries -rho2)
    """
    if f.chart != A.base_chart:
        raise ChartMismatchError("f must be a base-chart function")
    T = lambda_from_structure(A)
    l1 = lift_section(A, s1)
    r_bracket = _bracket_lift_residual(A, T, s1, s2, l1, lift_section(A, s2))
    r_left, r_right = _anchor_residuals(A, T, s1, l1, f)
    return (
        IdentityCertificate("bracket-lift", r_bracket.is_zero, r_bracket),
        IdentityCertificate("left-anchor", r_left.is_zero, r_left),
        IdentityCertificate(
            "right-anchor",
            r_right.is_zero,
            r_right,
            note="checked as T(df~, d lift s) = -(rho2(s) f)~",
        ),
    )


def _bracket_lift_residual(
    A: AlgebroidStructure, T: TensorField2, s1: Section, s2: Section, l1: Poly, l2: Poly
) -> Poly:
    """T(d l1, d l2) - lift[s1, s2], where ``l1``, ``l2`` are the lifts of ``s1``, ``s2``."""
    return T.apply(l1, l2) - lift_section(A, section_bracket(A, s1, s2))


def _anchor_residuals(
    A: AlgebroidStructure, T: TensorField2, s: Section, lift: Poly, f: Poly
) -> tuple[Poly, Poly]:
    """Left- and right-anchor residuals of ``s`` (lifted: ``lift``) on the base function ``f``."""
    chart = A.dual_chart
    f_lift = embed(f, chart)
    r_left = T.apply(lift, f_lift) - embed(_anchor_derivative(A, 1, s, f), chart)
    r_right = T.apply(f_lift, lift) + embed(_anchor_derivative(A, 2, s, f), chart)
    return r_left, r_right


def basis_compatible(A: AlgebroidStructure, T: TensorField2) -> bool:
    """The identities of :func:`theorem1_check` over every pair of basis sections.

    ``T`` is ``lambda_from_structure(A)``, built once by the caller.  The anchor
    identities are probed with the base function x1*x2 (x1^2 over a
    one-variable base).
    """
    base = A.base_chart
    f = Poly.var(base, base.names[0]) * Poly.var(base, base.names[min(1, base.dim - 1)])
    sections = [Section.basis(base, A.m, a) for a in range(A.m)]
    lifts = [lift_section(A, s) for s in sections]
    return all(
        r.is_zero for s, l in zip(sections, lifts) for r in _anchor_residuals(A, T, s, l, f)
    ) and all(
        _bracket_lift_residual(A, T, s1, s2, l1, l2).is_zero
        for s1, l1 in zip(sections, lifts)
        for s2, l2 in zip(sections, lifts)
    )


def classify_algebroid(A: AlgebroidStructure) -> str:
    """Exact classification: pre_lie, symmetric, or general.

    The symmetry class of ``lambda_from_structure(A)``.  By the block layout
    the tensor is antisymmetric exactly when C is antisymmetric in (a, b) and
    rho1 == rho2 (pre_lie), and symmetric exactly when C is symmetric in
    (a, b) and rho2 == -rho1.  The zero structure, both at once, is pre_lie.
    """
    symmetry = lambda_from_structure(A).symmetry_classify()
    return "pre_lie" if symmetry == Antisymmetric else symmetry


# -- construction of a fiber-annihilating symmetric partner ---------------------


def fiber_linear_coefficients(h1: Poly) -> list[Poly]:
    """Coefficients h^a(x) of a fiberwise-linear h = sum_a xi_a h^a(x)."""
    chart = h1.chart
    if chart.n_fiber == 0:
        raise ValueError("Hamiltonian chart has no fiber variables")
    return _fiber_linear_decompose(h1, chart.n_base, chart.n_fiber)


class Prop4DualTensor:
    """Symmetric-bracket partner tensor built from a fiberwise-linear h1.

    Only the diagonal of the fiber-fiber block is rational: ``c_diag`` holds
    one PolyFraction per fiber index, contracted against xi.  Everything else
    is the polynomial tensor ``anchors``, with +rho2 in both anchor blocks
    (the right-anchor slot holds -rho2, making the tensor symmetric) and a
    zero fiber-fiber block.  Brackets and residuals are ``anchors``
    contracted by :mod:`~leibniz.brackets`, plus the diagonal terms, each
    quotient written out as one (numerator, denominator) pair.  By
    construction the tensor annihilates h1 in either slot; construction
    fails rather than return an uncertified tensor.
    """

    __slots__ = ("dual_chart", "rho2", "c_diag", "anchors")

    def __init__(self, dual_chart: Chart, rho2, c_diag):
        self.dual_chart = dual_chart
        n, m = dual_chart.n_base, dual_chart.n_fiber
        self.rho2 = tuple(tuple(row) for row in rho2)  # n x m, base Polys
        self.c_diag = tuple(c_diag)  # m PolyFractions on the dual chart
        rows = [[Poly.zero(dual_chart)] * (n + m) for _ in range(n + m)]
        for i, row in enumerate(self.rho2):
            for a, p in enumerate(row):
                rows[i][n + a] = rows[n + a][i] = embed(p, dual_chart)
        self.anchors = TensorField2(dual_chart, rows)

    def bracket_fraction(self, f: Poly, h: Poly) -> PolyFraction:
        """Exact [f, h] for this tensor, as a PolyFraction.

        The reference route: the diagonal terms c_a * df/dxi_a * dh/dxi_a are
        summed over the product of the denominators that occur.
        """
        num, den = self.anchors.apply(f, h), Poly.const(self.dual_chart, 1)
        for c, name in zip(self.c_diag, self.dual_chart.fiber):
            df, dh = f.diff(name), h.diff(name)
            if not (df.is_zero or dh.is_zero):
                num, den = num * c.den + c.num * df * dh * den, den * c.den
        return PolyFraction(num, den)

    def annihilation_residuals(self, h: Poly, slot: str = "first") -> dict[str, PolyFraction]:
        """Bracket of h against every coordinate, h in the given slot.

        :func:`~leibniz.brackets.annihilator_residuals` of ``anchors``; the
        diagonal adds ``c_diag[a] * dh/dxi_a`` at each ``xi_a``, in either
        slot, so that residual is (c.num * dh/dxi_a + r * c.den) / c.den.
        """
        residuals = annihilator_residuals(self.anchors, h, slot)
        out = {name: PolyFraction(r) for name, r in residuals.items()}
        for c, name in zip(self.c_diag, self.dual_chart.fiber):
            dh = h.diff(name)
            if not dh.is_zero:
                out[name] = PolyFraction(c.num * dh + residuals[name] * c.den, c.den)
        return out

    def annihilates(self, h: Poly, slot: str = "first") -> bool:
        return all(r.is_zero for r in self.annihilation_residuals(h, slot).values())

    def is_symmetric(self) -> bool:
        return self.anchors.is_symmetric()

    def vf_contrib(self, h: Poly) -> tuple[Poly, ...]:
        """Row-contracted vector field [coordinate, h], one Poly per coordinate.

        Raises ExactDivisionError if a component is not polynomial for this h.
        """
        return tuple(r.to_poly() for r in self.annihilation_residuals(h, "second").values())


def prop4_construct_dual_tensor(h1: Poly) -> Prop4DualTensor:
    """Build the symmetric partner tensor determined by a fiberwise-linear h1.

    h1 must equal sum_a xi_a h^a(x) with every coefficient h^a not
    identically zero.  The anchor ansatz pairs fiber index a with base
    coordinate x^a:

        rho2[i][a] = h^i * h^a             (i != a, i < m)
        rho2[a][a] = -sum_{k != a} (h^k)^2
        rho2[i][a] = 0                     (i >= m, extra base directions)

    and the diagonal fiber-fiber entries are the exact fractions

        c_diag[a] = -( sum_i rho2[i][a] * dh1/dx^i ) / h^a.

    The result is accepted only after an exact annihilation certificate
    (bracket of h1 with every coordinate vanishes identically).
    """
    chart = h1.chart
    n, m = chart.n_base, chart.n_fiber
    if m == 0:
        raise ValueError("h1 must live on a chart with fiber variables")
    if n < m:
        raise ValueError("construction needs at least as many base as fiber variables")
    coeffs = fiber_linear_coefficients(h1)
    for a, c in enumerate(coeffs):
        if c.is_zero:
            raise ZeroCoefficientError(
                f"coefficient of {chart.fiber[a]} is identically zero; "
                "the construction divides by it"
            )
    base = chart.base_only()
    zero = Poly.zero(base)
    rho2 = [[zero] * m for _ in range(n)]
    for a in range(m):
        rho2[a][a] = -_poly_sum(base, (coeffs[k] * coeffs[k] for k in range(m) if k != a))
        for i in range(m):
            if i != a:
                rho2[i][a] = coeffs[i] * coeffs[a]
    dh1 = [h1.diff(name) for name in base.names]
    c_diag = []
    for a in range(m):
        num = _poly_sum(
            chart,
            (
                embed(rho2[i][a], chart) * dh
                for i, dh in enumerate(dh1)
                if not (dh.is_zero or rho2[i][a].is_zero)
            ),
        )
        c_diag.append(PolyFraction(-num, embed(coeffs[a], chart)))
    result = Prop4DualTensor(chart, rho2, c_diag)
    residuals = result.annihilation_residuals(h1, "first")
    bad = {k: v for k, v in residuals.items() if not v.is_zero}
    if bad:
        raise CertificationError(
            "constructed tensor does not annihilate its Hamiltonian", residuals=bad
        )
    return result


# -- flows -------------------------------------------------------------------------


def algebroid_vf(A: AlgebroidStructure, h: Poly) -> tuple[Poly, ...]:
    """Vector field generated by ``h`` on the dual chart, from the structure data.

    Computed directly from the structure functions and anchors:

    * base components:   dx^i/dt = -sum_a rho2[i][a] * dh/dxi_a
    * fiber components:  dxi_a/dt = sum_b (sum_d C[a][b][d] xi_d) * dh/dxi_b
                                    + sum_i rho1[i][a] * dh/dx^i

    This is an independent route from contracting the assembled dual-chart
    tensor with the gradient of ``h``; the two are checked against each other
    in the test suite rather than being collapsed into one code path.
    """
    chart = A.dual_chart
    n, m = A.n, A.m
    dh = [h.diff(name) for name in chart.names]
    xi = [Poly.var(chart, name) for name in chart.fiber]
    components: list[Poly] = []
    for i in range(n):
        components.append(-_poly_sum(chart, (embed(A.rho2[i][a], chart) * dh[n + a] for a in range(m))))
    for a in range(m):
        terms = []
        for b in range(m):
            contracted = _poly_sum(chart, (embed(A.C[a][b][d], chart) * xi[d] for d in range(m)))
            terms.append(contracted * dh[n + b])
        terms.extend(embed(A.rho1[i][a], chart) * dh[i] for i in range(n))
        components.append(_poly_sum(chart, terms))
    return tuple(components)


def metriplectic_algebroid_vf(
    A1: AlgebroidStructure, A2: AlgebroidStructure | Prop4DualTensor, h1: Poly, h2: Poly
) -> tuple[Poly, ...]:
    """Flow of an almost metriplectic algebroid: ``A1``'s flow of ``h1`` plus ``A2``'s of ``h2``.

    ``A1`` is the antisymmetric part.  ``A2``, the symmetric part, may be a
    constructed partner tensor; its flow must still be polynomial (it is
    whenever the construction succeeded for a fiber-linear generator).
    """
    if A2.dual_chart != A1.dual_chart:
        raise ChartMismatchError("the two structures live on different dual charts")
    second = A2.vf_contrib(h2) if isinstance(A2, Prop4DualTensor) else algebroid_vf(A2, h2)
    return tuple(p + q for p, q in zip(algebroid_vf(A1, h1), second))


# -- JSON structure files --------------------------------------------------------


def structure_to_json(A: AlgebroidStructure) -> str:
    doc = {
        "n": A.n,
        "m": A.m,
        "C": [[[str(p) for p in e] for e in row] for row in A.C],
        "rho1": [[str(p) for p in row] for row in A.rho1],
        "rho2": [[str(p) for p in row] for row in A.rho2],
    }
    return json.dumps(doc, indent=2)


def structure_from_json(text: str) -> AlgebroidStructure:
    try:
        data = json.loads(text)
        n = int(data["n"])
        m = int(data["m"])
        C = data["C"]
        rho1 = data["rho1"]
        rho2 = data["rho2"]
        # checked before Chart.standard(n), so a bare n cannot size the chart
        if len(rho1) != n:
            raise ValueError(f"rho1 has {len(rho1)} rows, n is {n}")
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed structure data: {exc}") from None
    base = Chart.standard(n)
    parse = lambda s: parse_poly(base, str(s))
    try:
        C_p = [[[parse(s) for s in e] for e in row] for row in C]
        rho1_p = [[parse(s) for s in row] for row in rho1]
        rho2_p = [[parse(s) for s in row] for row in rho2]
    except TypeError as exc:  # a number where a list belongs
        raise ValueError(f"malformed structure data: {exc}") from None
    return AlgebroidStructure(base, m, C_p, rho1_p, rho2_p)
