"""Output checks that do not trust the code under test.

Each function returns a list of error strings; an empty list means the task's
output is correct.  The references are computed here: rk4 steps are redone in
exact rational arithmetic with ``Poly.evaluate_exact``, Lie derivatives are
formed from ``Poly`` products and derivatives, verdicts come from the
known-misprints data file itself, and conserved quantities are evaluated
exactly at the trajectory's end points.

Stated tolerances:

* ``ORBIT_RTOL``: an rk4 row and an observable value against the exact
  rational result from the previous exported row,
  ``|float - exact| <= ORBIT_RTOL * max(1, |exact|)``;
* ``DRIFT_TOL``: a sweep observable whose exact Lie derivative is zero, from
  the first to the last state, scaled the same way;
* ``TIME_TOL``: time stamps, relative to the span.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

ORBIT_ROWS = 3
ORBIT_RTOL = 1e-12
DRIFT_TOL = 1e-10
TIME_TOL = 1e-12


@dataclass(frozen=True)
class Table:
    """A trajectory as read back from an output file."""

    names: tuple[str, ...]
    times: list[float]
    states: list[list[float]]
    status: int | None = None
    observables: dict[str, list[float]] | None = None


def parse_trajectory_csv(text: str) -> Table:
    lines = text.splitlines()
    header = lines[0].split(",")
    if header[0] != "t":
        raise ValueError(f"first CSV column is {header[0]!r}, not 't'")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return Table(tuple(header[1:]), [r[0] for r in rows], [r[1:] for r in rows])


def parse_trajectory_json(text: str) -> Table:
    doc = json.loads(text)
    observables = {name: rep["values"] for name, rep in doc["observables"].items()}
    return Table(tuple(doc["chart"]), doc["times"], doc["states"], int(doc["status"]), observables)


def load_misprint_entries(path: Path) -> frozenset[str]:
    """Entries that ``--strict`` must fail: those named in the data file."""
    doc = json.loads(path.read_text())
    return frozenset(record["entry"] for record in doc["known_misprints"])


def _far(value, exact: Fraction, rtol: float) -> bool:
    return abs(Fraction(value) - exact) > rtol * max(1, abs(exact))


def exact_rk4_step(rhs, y: list[Fraction], h: Fraction) -> list[Fraction]:
    """One classical rk4 step in exact rational arithmetic."""

    def f(point):
        return [p.evaluate_exact(point) for p in rhs]

    k1 = f(y)
    k2 = f([a + h / 2 * b for a, b in zip(y, k1)])
    k3 = f([a + h / 2 * b for a, b in zip(y, k2)])
    k4 = f([a + h * b for a, b in zip(y, k3)])
    return [a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def check_orbit(entry, t_end: float, step: float, text: str, fmt: str) -> list[str]:
    """An rk4 trajectory file against exact rk4 steps from its own rows."""
    parse = parse_trajectory_json if fmt == "json" else parse_trajectory_csv
    try:
        table = parse(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable {fmt} output: {exc!r}"]
    names = entry.chart.names
    if table.names != names:
        return [f"columns {table.names} != chart {names}"]
    n_steps = math.ceil(Fraction(t_end) / Fraction(step))
    if len(table.times) != n_steps + 1 or len(table.states) != n_steps + 1:
        return [f"{len(table.times)} rows, expected {n_steps + 1}"]
    if any(len(row) != len(names) for row in table.states):
        return ["ragged state rows"]
    errors = []
    if table.status not in (None, 0):
        errors.append(f"status {table.status}")
    if table.times[0] != 0.0 or table.states[0] != list(entry.x0):
        errors.append("first row is not (0, x0)")
    h = Fraction(t_end / n_steps)  # the float step the fixed-step scheme takes
    for k in range(1, ORBIT_ROWS + 1):
        want = exact_rk4_step(entry.system.rhs, [Fraction(v) for v in table.states[k - 1]], h)
        bad = [n for n, v, w in zip(names, table.states[k], want) if _far(v, w, ORBIT_RTOL)]
        if bad:
            errors.append(f"row {k} differs from exact rk4 in {', '.join(bad)}")
        if _far(table.times[k], k * h, TIME_TOL):
            errors.append(f"row {k} time {table.times[k]!r} != {float(k * h)!r}")
    if _far(table.times[-1], Fraction(t_end), TIME_TOL):
        errors.append(f"last time {table.times[-1]!r} != t_end {t_end!r}")
    if table.observables is not None:
        if set(table.observables) != set(entry.observables):
            errors.append(f"observables {sorted(table.observables)} != {sorted(entry.observables)}")
        for name, f in entry.observables.items():
            values = table.observables.get(name, [])
            if len(values) != len(table.times):
                errors.append(f"observable {name}: {len(values)} values")
                continue
            for k in range(ORBIT_ROWS + 1):
                exact = f.evaluate_exact([Fraction(v) for v in table.states[k]])
                if _far(values[k], exact, ORBIT_RTOL):
                    errors.append(f"observable {name} row {k} differs from exact value")
    return errors


def lie_derivative_is_zero(rhs, names, f) -> bool:
    """Exact zero test of sum_mu rhs_mu * df/dmu, formed here from Poly algebra."""
    total = f.diff(names[0]) * rhs[0]
    for name, comp in zip(names[1:], rhs[1:]):
        total = total + comp * f.diff(name)
    return total.is_zero


def check_sweep(trajectory, report, x0, t_end, param_cols, constant, observables) -> list[str]:
    """One sweep member: status, parameter columns, conserved observables."""
    errors = []
    if trajectory.status != 0:
        errors.append(f"status {trajectory.status}")
    times, states = np.asarray(trajectory.times), np.asarray(trajectory.states)
    if _far(float(times[-1]), Fraction(t_end), TIME_TOL):
        errors.append(f"last time {float(times[-1])!r} != t_end {t_end!r}")
    start = np.asarray(x0, dtype=np.float64)
    if states.shape[1:] != start.shape or not np.array_equal(
        states[0].view(np.uint64), start.view(np.uint64)
    ):
        return errors + ["first state is not x0"]
    if param_cols:
        cols = states[:, param_cols].view(np.uint64)
        if not np.all(cols == start[param_cols].view(np.uint64)):
            errors.append("a parameter column moved")
    reports = {r.name: r for r in report.reports}
    if set(reports) != set(observables):
        return errors + [f"observed {sorted(reports)} != {sorted(observables)}"]
    first = [Fraction(float(v)) for v in states[0]]
    last = [Fraction(float(v)) for v in states[-1]]
    for name, f in observables.items():
        if reports[name].symbolically_constant != constant[name]:
            errors.append(f"observable {name}: symbolically_constant is wrong")
        if constant[name]:
            f0 = f.evaluate_exact(first)
            if _far(f.evaluate_exact(last), f0, DRIFT_TOL):
                errors.append(f"conserved {name} drifted beyond {DRIFT_TOL}")
            if reports[name].drift > DRIFT_TOL * max(1, abs(f0)):
                errors.append(f"conserved {name}: reported drift {reports[name].drift:.3e}")
    return errors


def check_verify(target: str, strict: bool, rc: int, stdout: str, misprints: frozenset[str]) -> list[str]:
    """A ``verify --json`` verdict against the known-misprints data file."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [f"verify {target}: exit code {rc} and no JSON report"]
    if target.startswith("file:"):
        checks = doc.get("checks", [])
        if rc != 0 or doc.get("ok") is not True or not checks or not all(c["passed"] for c in checks):
            return [f"structure file {target[5:]}: exit code {rc}, ok={doc.get('ok')!r}"]
        return []
    expected_ok = not (strict and target in misprints)
    entries = doc.get("entries", [])
    if (
        rc != (0 if expected_ok else 1)
        or doc.get("ok") is not expected_ok
        or len(entries) != 1
        or entries[0].get("entry") != target
        or entries[0].get("ok") is not expected_ok
    ):
        mode = "strict" if strict else "default"
        return [f"verify {target} ({mode}): exit code {rc}, ok={doc.get('ok')!r}, expected ok={expected_ok}"]
    return []
