"""Polynomial ODE systems, integrators, and conserved-quantity observation.

An ``OdeSystem`` is a chart plus a vector field, the tuple of its polynomial
components in chart order, as each structure derives it (``hamiltonian_vf``,
``almost_leibniz_vf``, ``algebroid_vf``, ``metriplectic_algebroid_vf``).  It
is compiled once into a generated straight-line float evaluator
(``poly.float_evaluator``) and integrated with either a fixed-step RK4 scheme
or an adaptive Dormand-Prince 5(4) scheme, one scalar-Python loop each in
``_kernels``.

Observables are tracked symbolically first: ``lie_derivative`` computes the
exact polynomial derivative of an observable along the flow, so tests can
gate "this quantity should be conserved / dissipated" claims on an exact
symbolic statement before measuring numerical drift.  ``observe`` then
evaluates all observables of a call with the same generated evaluator, once,
on the trajectory's state columns; the system caches that evaluator and the
exact verdicts for the last observable set it saw.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .poly import Chart, ChartMismatchError, Poly, _poly_sum, float_evaluator

__all__ = [
    "OdeSystem",
    "IntegratorConfig",
    "Trajectory",
    "ObservableReport",
    "ObservationReport",
    "integrate",
    "lie_derivative",
    "observe",
    "trajectory_to_csv",
    "trajectory_to_json",
    "trajectory_from_json",
]

MONOTONE_TOL = 1e-12


@dataclass(frozen=True)
class OdeSystem:
    """A polynomial first-order system d(coords)/dt = rhs on a chart.

    ``rhs[i]`` is the time derivative of ``chart.names[i]``.  ``provenance``
    is a short human-readable tag describing how the system was built (it is
    carried into exports, never interpreted).
    """

    chart: Chart
    rhs: tuple[Poly, ...]
    provenance: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if len(self.rhs) != len(self.chart.names):
            raise ValueError(
                f"need {len(self.chart.names)} components for chart "
                f"{self.chart.names}, got {len(self.rhs)}"
            )
        for comp in self.rhs:
            if comp.chart != self.chart:
                raise ChartMismatchError(
                    "rhs component chart does not match the system chart"
                )

    @property
    def dim(self) -> int:
        return len(self.chart.names)

    @functools.cached_property
    def _evaluator(self):
        return float_evaluator(self.rhs)

    def _observer(self, observables: tuple[Poly, ...]):
        """Compiled evaluator of ``observables`` and their exact zero-derivative verdicts.

        One slot: only the last observable set is kept, since every caller
        observes a given system with one set.
        """
        slot = self.__dict__.get("_observer_slot")
        if slot is None or slot[0] != observables:
            verdicts = tuple(lie_derivative(self, f).is_zero for f in observables)
            slot = (observables, float_evaluator(observables), verdicts)
            self.__dict__["_observer_slot"] = slot
        return slot[1], slot[2]

    def __getstate__(self) -> dict:
        # the caches hold generated code: rebuilt on demand, never pickled
        caches = ("_evaluator", "_observer_slot")
        return {k: v for k, v in self.__dict__.items() if k not in caches}


# -- integration -------------------------------------------------------------------


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    ``method`` is ``"rk4_fixed"`` (``ceil(t_end / step)`` equal steps, each
    at most ``step`` long, so the last lands on ``t_end``) or
    ``"rk45_adaptive"`` (embedded 5(4) pair; ``step`` seeds the first trial
    step and ``abs_tol``/``rel_tol`` control the per-step error test).
    """

    method: str = "rk45_adaptive"
    t_end: float = 20.0
    step: float = 1e-2
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 200_000

    def __post_init__(self) -> None:
        if self.method not in ("rk4_fixed", "rk45_adaptive"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be positive and finite")
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("step must be positive and finite")
        if not all(tol > 0 and math.isfinite(tol) for tol in (self.abs_tol, self.rel_tol)):
            raise ValueError("abs_tol and rel_tol must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Integration output; ``states[k]`` is the state at ``times[k]``.

    ``status`` is 0 on success, 1 if ``max_steps`` ran out, 2 if a
    non-finite state appeared (the last row records where), and 3 on
    adaptive step-size underflow.  On non-zero status the arrays hold the
    partial trajectory up to the failure.
    """

    times: np.ndarray
    states: np.ndarray
    accepted: int
    rejected: int
    status: int

    @property
    def ok(self) -> bool:
        return self.status == _kernels.STATUS_OK


def integrate(system: OdeSystem, x0: Sequence[float], config: IntegratorConfig) -> Trajectory:
    """Integrate from ``x0`` at t=0 to ``config.t_end``.

    Deterministic: the same system, initial state and config produce
    bitwise-identical trajectories on a given platform.
    """
    y0 = np.asarray(x0, dtype=np.float64)
    if y0.shape != (system.dim,):
        raise ValueError(f"initial state must have shape ({system.dim},), got {y0.shape}")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")
    f = system._evaluator
    if config.method == "rk4_fixed":
        steps = config.t_end / config.step  # may overflow to inf
        if steps > config.max_steps:  # same test as ceil(steps) > max_steps
            raise ValueError(
                f"rk4_fixed needs {steps:.3g} steps which exceeds max_steps={config.max_steps}"
            )
        result = _kernels.rk4(f, y0.tolist(), config.t_end, math.ceil(steps))
    else:
        result = _kernels.dp54(
            f, y0.tolist(), config.t_end, config.step, config.abs_tol, config.rel_tol, config.max_steps
        )
    times, states, accepted, rejected, status = result
    # zero-copy views of the kernel's flat buffers
    states = np.frombuffer(states).reshape(len(times), system.dim)
    return Trajectory(np.frombuffer(times), states, accepted, rejected, status)


# -- observation -------------------------------------------------------------------


def lie_derivative(system: OdeSystem, f: Poly) -> Poly:
    """Exact derivative of ``f`` along the flow: sum_mu rhs_mu * df/dmu."""
    if f.chart != system.chart:
        raise ChartMismatchError("observable chart does not match the system chart")
    return _poly_sum(
        system.chart, (comp * f.diff(name) for name, comp in zip(system.chart.names, system.rhs))
    )


@dataclass(frozen=True)
class ObservableReport:
    """One observable sampled along a trajectory.

    ``drift`` is ``max_k |values[k] - values[0]|``.  The monotonicity verdict
    uses a per-step tolerance: ``"nonincreasing"`` if no step rises by more
    than ``MONOTONE_TOL``, else ``"nondecreasing"`` if no step falls by more
    than it, else ``"neither"``.  ``symbolically_constant`` records whether
    the exact derivative along the flow is the zero polynomial.
    """

    name: str
    values: np.ndarray
    drift: float
    monotonicity: str
    symbolically_constant: bool


@dataclass(frozen=True)
class ObservationReport:
    reports: tuple[ObservableReport, ...] = field(default_factory=tuple)

    def __getitem__(self, name: str) -> ObservableReport:
        for rep in self.reports:
            if rep.name == name:
                return rep
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(rep.name for rep in self.reports)


def _monotonicity(values: np.ndarray) -> str:
    diffs = np.diff(values)
    if diffs.size == 0 or np.all(diffs <= MONOTONE_TOL):
        return "nonincreasing"
    if np.all(diffs >= -MONOTONE_TOL):
        return "nondecreasing"
    return "neither"


def observe(
    system: OdeSystem, trajectory: Trajectory, observables: Mapping[str, Poly]
) -> ObservationReport:
    """Sample observables along a trajectory and summarize their behavior.

    The values are bit for bit those of ``Poly.evaluate`` per row; overflow
    gives ``inf`` and ``nan`` without a warning.
    """
    for name, f in observables.items():
        if f.chart != system.chart:
            raise ChartMismatchError(f"observable {name!r} lives on a different chart")
    if not observables:
        return ObservationReport()
    evaluator, verdicts = system._observer(tuple(observables.values()))
    rows = len(trajectory.states)
    reports = []
    with np.errstate(over="ignore", invalid="ignore"):
        columns = evaluator(tuple(trajectory.states.T))
        for name, values, constant in zip(observables, columns, verdicts):
            if isinstance(values, float):  # a constant observable
                values = np.full(rows, values)
            drift = float(np.max(np.abs(values - values[0]))) if values.size else 0.0
            reports.append(
                ObservableReport(
                    name=name,
                    values=values,
                    drift=drift,
                    monotonicity=_monotonicity(values),
                    symbolically_constant=constant,
                )
            )
    return ObservationReport(tuple(reports))


# -- export ------------------------------------------------------------------------


def trajectory_to_csv(system: OdeSystem, trajectory: Trajectory) -> str:
    """CSV text with header ``t,<coordinate names...>`` and %.17g values.

    Chart names are plain identifiers and %.17g never prints a comma, so no
    field needs quoting.
    """
    header = ",".join(("t", *system.chart.names)) + "\n"
    row = ",".join(["%.17g"] * (system.dim + 1)) + "\n"
    table = np.column_stack([trajectory.times, trajectory.states]).tolist()
    return header + "".join([row % tuple(r) for r in table])


def trajectory_to_json(
    system: OdeSystem,
    trajectory: Trajectory,
    observations: ObservationReport | None = None,
) -> str:
    """JSON document for a trajectory, optionally with observable summaries."""
    doc: dict = {
        "chart": list(system.chart.names),
        "provenance": system.provenance,
        "status": trajectory.status,
        "accepted": trajectory.accepted,
        "rejected": trajectory.rejected,
        "times": trajectory.times.tolist(),
        "states": trajectory.states.tolist(),
    }
    if observations is not None:
        doc["observables"] = {
            rep.name: {
                "values": rep.values.tolist(),
                "drift": rep.drift,
                "monotonicity": rep.monotonicity,
                "symbolically_constant": rep.symbolically_constant,
            }
            for rep in observations.reports
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def trajectory_from_json(text: str) -> tuple[tuple[str, ...], Trajectory]:
    """Inverse of ``trajectory_to_json`` (chart names and trajectory only)."""
    try:
        doc = json.loads(text)
        names = doc["chart"]
        listed = isinstance(names, list) and all(isinstance(n, str) for n in names)
        if not (listed and len(set(names)) == len(names)):
            raise ValueError("the chart is not a list of distinct names")
        times = np.array(doc["times"], dtype=np.float64)
        states = np.array(doc["states"], dtype=np.float64)
        status = int(doc["status"])
        accepted = int(doc["accepted"])
        rejected = int(doc["rejected"])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"malformed trajectory document: {exc}") from exc
    if (
        times.ndim != 1
        or states.ndim != 2
        or states.shape[0] != times.shape[0]
        or states.shape[1] != len(names)
    ):
        raise ValueError("malformed trajectory document: inconsistent shapes")
    return tuple(names), Trajectory(
        times=times, states=states, accepted=accepted, rejected=rejected, status=status
    )
