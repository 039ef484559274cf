"""Spans around the calls into each layer, recorded from outside the program.

A traced pass replaces the public functions that the CLI and the benchmark
call (``leibniz.cli.integrate``, ``leibniz.catalog.catalog_build``, ...) with
wrappers that record a span per call: name, start, end, parent span and task
id.  Nothing inside ``src/leibniz`` is instrumented.  Spans stay in memory and
are written out when the run ends; a span's self time is its duration minus
the time its child spans cover.

Every per-layer metric is measured on the workload's own tasks when they
exercise that layer, and otherwise on the layer probe that ends each traced
run (every entry, three times: build, verify, certify, a 100-step rk4 run,
observe, both exporters).  Shares are of the workload's task time, so a layer the
workload bypasses has a share of 0.  ``dynamics.integrate.fixed_ms`` and
``poly.lie_derivative.ms`` always come from the probe: a one-step
``integrate`` and a direct ``lie_derivative`` per observable, on each entry.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import ENTRIES

# name -> unit, in report order
LAYER_UNITS = {
    "dynamics.integrate.share": "%",
    "dynamics.integrate.us_per_rhs_eval": "us",
    "dynamics.integrate.steps_per_s": "1/s",
    "dynamics.integrate.fixed_ms": "ms",
    "dynamics.rhs_evals": "count",
    "dynamics.steps_accepted": "count",
    "dynamics.steps_rejected": "count",
    "dynamics.accept_ratio": "ratio",
    "dynamics.observe.share": "%",
    "dynamics.observe.us_per_row": "us",
    "poly.lie_derivative.ms": "ms",
    "dynamics.export_csv.us_per_row": "us",
    "dynamics.export_json.us_per_row": "us",
    "dynamics.export.bytes_per_row": "bytes",
    "catalog.build.ms": "ms",
    "catalog.verify.ms": "ms",
    "brackets.certify.ms": "ms",
    "algebroid.certify.ms": "ms",
    "catalog.build.share": "%",
    "cli.self.share": "%",
    "trace.overhead_ms": "ms",
}

PROBE_SPANS = (
    "catalog.build",
    "catalog.verify",
    "brackets.certify",
    "algebroid.certify",
    "dynamics.integrate",
    "dynamics.observe",
    "dynamics.export_csv",
    "dynamics.export_json",
)
PROBE_REPS = 3
# certification of fiber-linear kinds counts as the algebroid layer, the rest
# (tensor and pair kinds) as brackets
FIBER_LINEAR_KINDS = ("algebroid", "metriplectic_algebroid")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    task: object  # task index in the stream, or a probe label
    scale: float = 1.0  # to reference speed, see speed.py
    attrs: dict = field(default_factory=dict)
    covered: float = 0.0  # time covered by child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Self time at reference speed."""
        return (self.duration - self.covered) * self.scale


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task: object = None
        self.scale = 1.0
        self._stack: list[int] = []
        self._patches: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.task, self.scale)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].covered += span.duration

    def patch(self, owner, attr: str, name, attrs=None) -> None:
        """Wrap ``owner.attr``; ``name`` is a span name or a function of the call's arguments."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name(*args) if callable(name) else name) as span:
                result = original(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def _certify_span(entry, *_args) -> str:
    return "algebroid.certify" if entry.kind in FIBER_LINEAR_KINDS else "brackets.certify"


def _integrate_attrs(args, trajectory) -> dict:
    config = args[2]
    steps = trajectory.accepted + trajectory.rejected
    # computed from public Trajectory fields: rk4 evaluates 4 stages per step;
    # the adaptive pair evaluates once up front, then 6 per attempt (its last
    # stage is the next step's first)
    evals = 4 * trajectory.accepted if config.method == "rk4_fixed" else 1 + 6 * steps
    return {"accepted": trajectory.accepted, "rejected": trajectory.rejected, "rhs_evals": evals}


def _rows_attrs(args, _result) -> dict:
    return {"rows": len(args[1].times)}


def _export_attrs(args, text) -> dict:
    # both exporters write ASCII, so characters are bytes
    return {"rows": len(args[1].times), "bytes": len(text)}


def instrument(tracer: Tracer, prog) -> None:
    """Wrap the layer entry points the CLI, the sweep and the probe call."""
    for owner in (prog.cli, prog.catalog):
        tracer.patch(owner, "catalog_build", "catalog.build")
        tracer.patch(owner, "catalog_verify", "catalog.verify")
        tracer.patch(owner, "entry_certifications", _certify_span)
    tracer.patch(prog.cli, "structure_certifications", "algebroid.certify")
    for owner in (prog.cli, prog.dynamics):
        tracer.patch(owner, "integrate", "dynamics.integrate", _integrate_attrs)
        tracer.patch(owner, "observe", "dynamics.observe", _rows_attrs)
        tracer.patch(owner, "trajectory_to_csv", "dynamics.export_csv", _export_attrs)
        tracer.patch(owner, "trajectory_to_json", "dynamics.export_json", _export_attrs)


def run_probe(tracer: Tracer, prog, speed) -> None:
    """Exercise every layer on every entry, through the wrapped entry points."""
    catalog, dynamics = prog.catalog, prog.dynamics
    short = dynamics.IntegratorConfig(method="rk4_fixed", t_end=0.1, step=1e-3)
    one_step = dynamics.IntegratorConfig(method="rk4_fixed", t_end=1e-3, step=1e-3)
    for name in ENTRIES:
        for _ in range(PROBE_REPS):
            tracer.task, tracer.scale = "probe", speed.scale()
            entry = catalog.catalog_build(name)
            catalog.catalog_verify(name)
            catalog.entry_certifications(entry)
            trajectory = dynamics.integrate(entry.system, entry.x0, short)
            observations = dynamics.observe(entry.system, trajectory, entry.observables)
            dynamics.trajectory_to_csv(entry.system, trajectory)
            dynamics.trajectory_to_json(entry.system, trajectory, observations)
            tracer.task = "probe.fixed"
            dynamics.integrate(entry.system, entry.x0, one_step)
            tracer.task = "probe.lie"
            for f in entry.observables.values():
                with tracer.span("poly.lie_derivative"):
                    dynamics.lie_derivative(entry.system, f)
    tracer.task = None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, workload, count_tasks: int, overhead_ms: float):
    """Per-layer metrics ``{name: (value, unit, samples)}`` and missing-span errors."""
    tasks = [s for s in tracer.spans if isinstance(s.task, int)]
    probe = [s for s in tracer.spans if s.task == "probe"]
    task_time = sum(s.duration * s.scale for s in tasks if s.name == workload.root_span)

    def named(pool, name):
        return [s for s in pool if s.name == name]

    def source(name):
        spans = named(tasks, name)
        return spans if spans else named(probe, name)

    def self_sum(spans):
        return sum(s.self_time for s in spans)

    def share(name):
        return _ratio(100.0 * self_sum(named(tasks, name)), task_time)

    def attr_sum(spans, key):
        return sum(s.attrs[key] for s in spans)

    def per_unit(spans, key, scale):
        return _ratio(scale * self_sum(spans), attr_sum(spans, key))

    def median_ms(spans):
        return 1e3 * statistics.median(s.self_time for s in spans) if spans else 0.0

    def prefix(spans):
        # exact counts: over a fixed prefix of the task stream, so they repeat
        return [s for s in spans if not isinstance(s.task, int) or s.task < count_tasks]

    integrate = source("dynamics.integrate")
    counted = prefix(integrate)
    accepted, rejected = attr_sum(counted, "accepted"), attr_sum(counted, "rejected")
    observe = source("dynamics.observe")
    csv_spans, json_spans = source("dynamics.export_csv"), source("dynamics.export_json")
    exports = prefix(csv_spans + json_spans)
    fixed = [s for s in tracer.spans if s.task == "probe.fixed" and s.name == "dynamics.integrate"]
    lie = [s for s in tracer.spans if s.task == "probe.lie"]
    builds = source("catalog.build")
    values = {
        "dynamics.integrate.share": (share("dynamics.integrate"), len(named(tasks, "dynamics.integrate"))),
        "dynamics.integrate.us_per_rhs_eval": (per_unit(integrate, "rhs_evals", 1e6), len(integrate)),
        "dynamics.integrate.steps_per_s": (
            _ratio(attr_sum(integrate, "accepted") + attr_sum(integrate, "rejected"), self_sum(integrate)),
            len(integrate),
        ),
        "dynamics.integrate.fixed_ms": (median_ms(fixed), len(fixed)),
        "dynamics.rhs_evals": (attr_sum(counted, "rhs_evals"), len(counted)),
        "dynamics.steps_accepted": (accepted, len(counted)),
        "dynamics.steps_rejected": (rejected, len(counted)),
        "dynamics.accept_ratio": (_ratio(accepted, accepted + rejected), len(counted)),
        "dynamics.observe.share": (share("dynamics.observe"), len(named(tasks, "dynamics.observe"))),
        "dynamics.observe.us_per_row": (per_unit(observe, "rows", 1e6), len(observe)),
        "poly.lie_derivative.ms": (median_ms(lie), len(lie)),
        "dynamics.export_csv.us_per_row": (per_unit(csv_spans, "rows", 1e6), len(csv_spans)),
        "dynamics.export_json.us_per_row": (per_unit(json_spans, "rows", 1e6), len(json_spans)),
        "dynamics.export.bytes_per_row": (_ratio(attr_sum(exports, "bytes"), attr_sum(exports, "rows")), len(exports)),
        "catalog.build.ms": (median_ms(builds), len(builds)),
        "catalog.verify.ms": (median_ms(source("catalog.verify")), len(source("catalog.verify"))),
        "brackets.certify.ms": (median_ms(source("brackets.certify")), len(source("brackets.certify"))),
        "algebroid.certify.ms": (median_ms(source("algebroid.certify")), len(source("algebroid.certify"))),
        "catalog.build.share": (share("catalog.build"), len(named(tasks, "catalog.build"))),
        "cli.self.share": (share("cli"), len(named(tasks, "cli"))),
        "trace.overhead_ms": (overhead_ms, len([s for s in tasks if s.name == workload.root_span])),
    }
    metrics = {name: (values[name][0], unit, values[name][1]) for name, unit in LAYER_UNITS.items()}
    errors = [f"span {n} never fired in the workload's tasks" for n in workload.task_spans if not named(tasks, n)]
    errors += [f"span {n} never fired in the layer probe" for n in PROBE_SPANS if not named(probe, n)]
    if not fixed or not lie:
        errors.append("probe spans dynamics.integrate (one step) or poly.lie_derivative never fired")
    return metrics, errors
