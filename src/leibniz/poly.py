"""Exact sparse multivariate polynomials over the rationals.

A polynomial is stored as a map from exponent vectors to nonzero exact
coefficients: an ``int`` when the value is integral, a ``fractions.Fraction``
otherwise (never a ``bool``, never a ``Fraction`` with denominator 1).  The
exponent vector is a tuple with one nonnegative integer per chart variable, so
the zero polynomial is the empty map and equal polynomials always have
identical storage (canonical form).  Integral coefficients thus stay in fast
``int`` arithmetic; ``int`` and ``Fraction`` compare, hash and print alike, so
equality, hashing and text output are those of all-``Fraction`` storage.
Terms are ordered graded-lexicographically on the chart's variable order;
printing, evaluation and iteration all follow that single order, which makes
every operation deterministic.

Coordinates live on a :class:`Chart`: a tuple of base variable names plus an
optional tuple of fiber variable names (for dual-bundle charts).  The text
syntax for polynomials is the one used throughout the package::

    3/5*x1^2*xi3 - 2*x2 + 0.25

Decimal literals are parsed as exact rationals (``0.6`` becomes ``3/5``).

Out of scope by design: rational functions, transcendental coefficients and
Groebner-style normal forms.  Products whose total degree would exceed the
fixed cap of 16 raise :class:`DegreeCapError` to fail fast on runaway
expression growth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]

_DEGREE_CAP = 16

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class ChartMismatchError(ValueError):
    """Raised when polynomials over different charts are combined."""


class DegreeCapError(ArithmeticError):
    """Raised when a product would exceed the degree cap."""


class PolyParseError(ValueError):
    """Raised for malformed polynomial text."""


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate chart: base variables plus optional fiber variables."""

    base: tuple[str, ...]
    fiber: tuple[str, ...] = ()
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        names = self.base + self.fiber
        if not names:
            raise ValueError("chart needs at least one variable")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("chart variable names must be distinct")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @classmethod
    def standard(cls, n: int, m: int = 0) -> "Chart":
        """Chart with base names x1..xn and fiber names xi1..xim."""
        return cls(
            base=tuple(f"x{i}" for i in range(1, n + 1)),
            fiber=tuple(f"xi{a}" for a in range(1, m + 1)),
        )

    @property
    def names(self) -> tuple[str, ...]:
        return self.base + self.fiber

    @property
    def dim(self) -> int:
        return len(self.base) + len(self.fiber)

    @property
    def n_base(self) -> int:
        return len(self.base)

    @property
    def n_fiber(self) -> int:
        return len(self.fiber)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"variable {name!r} not on chart {self.names}") from None

    def base_only(self) -> "Chart":
        return Chart(base=self.base)


def _glex_key(exponent: Exponent) -> tuple[int, Exponent]:
    return (sum(exponent), exponent)


def _canon(value: int | Fraction) -> int | Fraction:
    """An exact value in canonical form: the ``int`` when it is integral."""
    if value.__class__ is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _canon_values(terms: dict[Exponent, int | Fraction]) -> dict[Exponent, int | Fraction]:
    """Put every value of ``terms`` in canonical form, in place; returns ``terms``."""
    for exponent, coeff in terms.items():
        if coeff.__class__ is Fraction and coeff.denominator == 1:
            terms[exponent] = coeff.numerator
    return terms


def _as_fraction(value) -> int | Fraction:
    """An int, Fraction or rational text as a canonical exact coefficient."""
    if isinstance(value, Fraction):
        return _canon(value)
    if isinstance(value, int):
        return int(value)  # a bool becomes a plain int
    if isinstance(value, str):
        return _canon(Fraction(value))
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("chart", "_terms")

    def __init__(self, chart: Chart, terms: Mapping[Exponent, int | Fraction | str] | None = None):
        cleaned: dict[Exponent, int | Fraction] = {}
        if terms:
            dim = chart.dim
            for exponent, coeff in terms.items():
                exponent = tuple(exponent)
                if len(exponent) != dim:
                    raise ValueError(
                        f"exponent {exponent} has length {len(exponent)}, chart has {dim} variables"
                    )
                if any(e < 0 for e in exponent):
                    raise ValueError(f"negative exponent in {exponent}")
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    cleaned[exponent] = coeff
        self.chart = chart
        self._terms = cleaned

    @classmethod
    def _trusted(cls, chart: Chart, terms: dict[Exponent, int | Fraction]) -> "Poly":
        """Wrap ``terms`` as a Poly without validating or copying it.

        Invariant, guaranteed by the caller: every key is a tuple of
        ``chart.dim`` nonnegative ints, every value is nonzero and canonical
        (an ``int`` when integral, else a ``Fraction``; never a ``bool``, never
        a ``Fraction`` with denominator 1; see :func:`_canon`), and no one else
        holds a reference to ``terms``.  Only code in this
        module that builds such a dict by construction (arithmetic on
        already-valid Polys) may call it; everything else, including the
        parser and structure files, goes through ``Poly(chart, terms)``.
        """
        p = object.__new__(cls)
        p.chart = chart
        p._terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "Poly":
        return cls._trusted(chart, {})

    @classmethod
    def const(cls, chart: Chart, value) -> "Poly":
        value = _as_fraction(value)
        return cls._trusted(chart, {(0,) * chart.dim: value} if value else {})

    @classmethod
    def var(cls, chart: Chart, name: str) -> "Poly":
        exponent = [0] * chart.dim
        exponent[chart.index(name)] = 1
        return cls._trusted(chart, {tuple(exponent): 1})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Exponent, int | Fraction]]:
        """Terms in ascending graded-lex order (deterministic)."""
        for exponent in sorted(self._terms, key=_glex_key):
            yield exponent, self._terms[exponent]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(map(sum, self._terms))

    def fiber_degree(self) -> int:
        """Total degree in the fiber variables only; -1 for zero."""
        if not self._terms:
            return -1
        nb = self.chart.n_base
        return max(sum(e[nb:]) for e in self._terms)

    def coefficient(self, exponent: Exponent) -> int | Fraction:
        return self._terms.get(tuple(exponent), 0)

    def leading_term(self) -> tuple[Exponent, int | Fraction]:
        """Graded-lex maximal term; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        exponent = max(self._terms, key=_glex_key)
        return exponent, self._terms[exponent]

    # -- arithmetic --------------------------------------------------------

    def _check_chart(self, other: "Poly") -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError(
                f"charts differ: {self.chart.names} vs {other.chart.names}"
            )

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            self._check_chart(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.chart, other)
        return None

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _poly_sum(self.chart, (self, other))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.chart, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _poly_sum(self.chart, (self, -other))

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _poly_sum(self.chart, (other, -self))

    def __mul__(self, other) -> "Poly":
        # Poly first: isinstance against Fraction goes through the ABC machinery
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            factor = _as_fraction(other)
            if factor == 0:
                return Poly.zero(self.chart)
            return Poly._trusted(self.chart, {e: _canon(c * factor) for e, c in self._terms.items()})
        self._check_chart(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.chart)
        degree = self.degree() + other.degree()
        if degree > _DEGREE_CAP:
            raise DegreeCapError(f"product degree {degree} exceeds cap {_DEGREE_CAP}")
        result: dict[Exponent, int | Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exponent = tuple(map(add, e1, e2))
                coeff = c1 * c2
                if exponent in result:
                    coeff += result[exponent]
                    if coeff:
                        result[exponent] = coeff
                    else:
                        del result[exponent]
                else:
                    result[exponent] = coeff
        return Poly._trusted(self.chart, _canon_values(result))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Poly.const(self.chart, 1)
        for _ in range(power):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.chart == other.chart and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.chart.names, frozenset(self._terms.items())))

    # -- calculus / evaluation --------------------------------------------

    def diff(self, name: str) -> "Poly":
        """Exact partial derivative with respect to one chart variable."""
        idx = self.chart.index(name)
        result: dict[Exponent, int | Fraction] = {}
        for exponent, coeff in self._terms.items():
            e = exponent[idx]
            if e == 0:
                continue
            # lowering one exponent is injective, so no two terms collide
            result[exponent[:idx] + (e - 1,) + exponent[idx + 1 :]] = _canon(coeff * e)
        return Poly._trusted(self.chart, result)

    def evaluate(self, point: Sequence[float]) -> float:
        """Float evaluation, accumulating terms in graded-lex order."""
        if len(point) != self.chart.dim:
            raise ValueError(
                f"point has {len(point)} components, chart has {self.chart.dim}"
            )
        acc = 0.0
        for exponent, coeff in self.terms():
            term = float(coeff)
            for value, e in zip(point, exponent):
                for _ in range(e):
                    term *= value
            acc += term
        return acc

    def evaluate_exact(self, point: Sequence[Fraction]) -> Fraction:
        """Exact rational evaluation."""
        acc = Fraction(0)
        for exponent, coeff in self.terms():
            term = coeff
            for value, e in zip(point, exponent):
                term *= _as_fraction(value) ** e
            acc += term
        return acc

    # -- formatting --------------------------------------------------------

    def _format_term(self, exponent: Exponent, coeff: int | Fraction) -> str:
        factors = []
        for name, e in zip(self.chart.names, exponent):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        magnitude = abs(coeff)
        if not factors:
            return str(magnitude)
        if magnitude == 1:
            return "*".join(factors)
        return "*".join([str(magnitude)] + factors)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        # display in descending graded-lex order
        for exponent in sorted(self._terms, key=_glex_key, reverse=True):
            coeff = self._terms[exponent]
            text = self._format_term(exponent, coeff)
            if not parts:
                parts.append(f"-{text}" if coeff < 0 else text)
            else:
                parts.append(f"- {text}" if coeff < 0 else f"+ {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


def float_evaluator(polys: Sequence[Poly]) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """Compile ``polys`` (at least one, all on one chart) into ``f(y) -> tuple of floats``.

    The generated straight-line code repeats :meth:`Poly.evaluate` exactly
    (graded-lex terms, ``float(coeff)`` times each variable once per unit of
    exponent, left to right, summed from ``0.0``), so ``f(y)`` equals
    ``[p.evaluate(y) for p in polys]`` bit for bit.  One statement per term
    keeps huge polynomials within the compiler's recursion limit; the state is
    unpacked by position, so chart names never enter the source; only ``+``
    and ``*`` appear, so ``y`` may also hold numpy columns.
    """
    chart = polys[0].chart
    if any(p.chart != chart for p in polys):
        raise ChartMismatchError("the polynomials live on different charts")
    lines = ["def f(y):", f"    {''.join(f'y{j}, ' for j in range(chart.dim))}= y"]
    for i, p in enumerate(polys):
        lines.append(f"    r{i} = 0.0")
        for exponent, coeff in p.terms():
            factors = [repr(float(coeff))] + [f"y{j}" for j, e in enumerate(exponent) for _ in range(e)]
            lines.append(f"    r{i} += {' * '.join(factors)}")
    lines.append(f"    return ({''.join(f'r{i}, ' for i in range(len(polys)))})")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<float_evaluator>", "exec"), namespace)
    return namespace["f"]


def embed(p: Poly, chart: Chart) -> Poly:
    """Reinterpret ``p`` on a chart containing all of its variables."""
    if p.chart is chart or p.chart == chart:
        return p
    index = chart._index
    names = p.chart.names
    missing = [name for name in names if name not in index]
    if missing:
        raise ChartMismatchError(f"target chart is missing variables {missing}")
    positions = [index[name] for name in names]
    dim = chart.dim
    terms: dict[Exponent, int | Fraction] = {}
    for exponent, coeff in p._terms.items():
        lifted = [0] * dim
        for pos, e in zip(positions, exponent):
            lifted[pos] = e
        terms[tuple(lifted)] = coeff
    return Poly._trusted(chart, terms)


def restrict(p: Poly, chart: Chart) -> Poly:
    """Inverse of :func:`embed`: project onto a sub-chart.

    Every variable of ``p`` that is dropped by ``chart`` must appear with
    exponent zero in every term, otherwise ``ChartMismatchError`` is raised.
    """
    if p.chart is chart or p.chart == chart:
        return p
    positions = []
    for pos, name in enumerate(p.chart.names):
        if name not in chart._index:
            positions.append((pos, name))
    keep = [p.chart.index(name) for name in chart.names]
    terms: dict[Exponent, int | Fraction] = {}
    for exponent, coeff in p.terms():
        for pos, name in positions:
            if exponent[pos] != 0:
                raise ChartMismatchError(
                    f"cannot restrict: term depends on dropped variable {name!r}"
                )
        terms[tuple(exponent[k] for k in keep)] = coeff
    return Poly._trusted(chart, terms)


def _poly_sum(chart: Chart, polys: Iterable[Poly]) -> Poly:
    """Sum of ``polys`` (all on ``chart``), accumulated in place in one dict.

    Use it for sums of many terms: ``acc = acc + p`` in a loop copies the
    accumulator once per term.  Coefficients that cancel are deleted at once.
    """
    terms: dict[Exponent, int | Fraction] = {}
    for p in polys:
        if p.chart is not chart and p.chart != chart:
            raise ChartMismatchError(f"charts differ: {chart.names} vs {p.chart.names}")
        if not terms:
            terms = dict(p._terms)
            continue
        for exponent, coeff in p._terms.items():
            if exponent in terms:
                coeff += terms[exponent]
                if coeff:
                    terms[exponent] = _canon(coeff)
                else:
                    del terms[exponent]
            else:
                terms[exponent] = coeff
    return Poly._trusted(chart, terms)


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial quotient would not be exact."""


def divide_exact(p: Poly, d: Poly) -> Poly:
    """Exact quotient p / d; raises ExactDivisionError unless d divides p."""
    if not isinstance(d, Poly) or not isinstance(p, Poly):
        raise TypeError("divide_exact expects Poly operands")
    if p.chart != d.chart:
        raise ChartMismatchError("quotient operands on different charts")
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quotient: dict[Exponent, int | Fraction] = {}
    remainder = p
    d_exp, d_coeff = d.leading_term()
    while not remainder.is_zero:
        r_exp, r_coeff = remainder.leading_term()
        step = tuple(a - b for a, b in zip(r_exp, d_exp))
        if any(e < 0 for e in step):
            raise ExactDivisionError(
                f"{d} does not divide {p} (stuck at remainder term {r_exp})"
            )
        # never r_coeff / d_coeff: for two ints that is a float
        factor = _canon(Fraction(r_coeff, d_coeff))
        # the remainder's leading term strictly decreases, so every step is new
        quotient[step] = factor
        remainder = remainder - Poly._trusted(p.chart, {step: factor}) * d
    return Poly._trusted(p.chart, quotient)


def grad(p: Poly) -> tuple[Poly, ...]:
    """Gradient with respect to every chart variable, in chart order."""
    return tuple(p.diff(name) for name in p.chart.names)


# -- text syntax -----------------------------------------------------------

_DECIMAL_RE = re.compile(r"^\d+\.\d+$|^\.\d+$|^\d+\.$")
_INT_RE = re.compile(r"^\d+$")
_RATIONAL_RE = re.compile(r"^(\d+)/(\d+)$")
_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?$")


def _parse_coefficient(token: str) -> int | Fraction | None:
    if _INT_RE.match(token):
        return int(token)
    if _DECIMAL_RE.match(token):
        return Fraction(token)  # exact: "0.6" -> 3/5
    m = _RATIONAL_RE.match(token)
    if m:
        numerator, denominator = int(m.group(1)), int(m.group(2))
        if not denominator:
            raise PolyParseError(f"zero denominator in {token!r}")
        return Fraction(numerator, denominator)
    return None


def _signed_terms(text: str) -> list[tuple[int, str]]:
    """Split polynomial text into (sign, term) pieces, at most one sign per term."""
    stripped = text.strip()
    if not stripped:
        raise PolyParseError("empty polynomial text")
    first, *rest = re.split(r"([+-])", stripped)
    # a leading empty piece marks a leading sign
    signed = rest if not first else ["+", first, *rest]
    terms = [term.strip() for term in signed[1::2]]
    if not all(terms):
        raise PolyParseError(f"dangling sign in {text!r}")
    return [(-1 if sign == "-" else 1, term) for sign, term in zip(signed[::2], terms)]


def parse_poly(chart: Chart, text: str) -> Poly:
    """Parse the package's polynomial text syntax on the given chart."""
    monomials: list[Poly] = []
    for sign, term_text in _signed_terms(text):
        coeff = sign
        exponent = [0] * chart.dim
        for factor in term_text.split("*"):
            factor = factor.strip()
            if not factor:
                raise PolyParseError(f"empty factor in term {term_text!r}")
            value = _parse_coefficient(factor)
            if value is not None:
                coeff *= value
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise PolyParseError(f"cannot parse factor {factor!r}")
            name, power = m.group(1), int(m.group(2) or 1)
            try:
                idx = chart.index(name)
            except KeyError:
                raise PolyParseError(
                    f"unknown variable {name!r} (chart has {chart.names})"
                ) from None
            exponent[idx] += power
        monomials.append(Poly(chart, {tuple(exponent): coeff}))
    return _poly_sum(chart, monomials)


def poly_matrix(chart: Chart, rows: Sequence[Sequence[str | Poly | int]]) -> tuple[tuple[Poly, ...], ...]:
    """Convenience: build a matrix of Polys from text/ints/Polys."""
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, Poly):
                cells.append(cell)
            elif isinstance(cell, (int, Fraction)):
                cells.append(Poly.const(chart, cell))
            else:
                cells.append(parse_poly(chart, cell))
        out.append(tuple(cells))
    return tuple(out)
