"""Self-test of the benchmark: its checks must catch faults, its report must be complete.

    python3 perfbench/selftest.py

Each injected fault must make the output check fail, and a failing check must
count as a failed task in the run loop:

* an rk4 trajectory with one value perturbed in a checked row, CSV and JSON;
* an output that differs from the warm-up run of the same task;
* a sweep member whose parameter column drifts by one ulp;
* a sweep member whose conserved observable drifts;
* a verify report with its verdict flipped, in strict and default mode;
* a traced run in which a span never fires.

Then every workload runs briefly with ``--trace 0`` and ``--trace 1``: the
result line must carry exactly the metrics of ``BENCHMARK.json`` with their
units, and the table above it must print each of them with its unit.
Finally ``compare.py`` must refuse runs made on different kernel paths.
Exits with code 0 when every check holds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import compare
import run
import tracing
import workloads
from speed import Speed

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def first_spec(wl, predicate):
    return next(wl.spec(k) for k in range(200) if predicate(wl.spec(k)))


def perturb_orbit(out: dict, fmt: str) -> dict:
    """Scale x1 in row 2 by (1 + 1e-9)."""
    bad = dict(out)
    if fmt == "json":
        doc = json.loads(out["text"])
        doc["states"][2][0] *= 1 + 1e-9
        bad["text"] = json.dumps(doc)
    else:
        lines = out["text"].splitlines()
        cells = lines[3].split(",")
        cells[1] = "%.17g" % (float(cells[1]) * (1 + 1e-9))
        lines[3] = ",".join(cells)
        bad["text"] = "\n".join(lines) + "\n"
    return bad


def test_orbit(prog, workdir: Path) -> None:
    wl = workloads.Orbit(1, workdir)
    wl.setup(prog)
    speed = Speed()
    for fmt in ("csv", "json"):
        spec = first_spec(wl, lambda s: s.fmt == fmt)
        out = wl.collect(spec, wl.run(spec))
        expect(wl.check(spec, out) == [], f"orbit-rk4 {fmt}: clean output passes")
        expect(wl.check(spec, perturb_orbit(out, fmt)) != [], f"orbit-rk4 {fmt}: one perturbed value is caught")
    collect = wl.collect
    wl.collect = lambda spec, raw: perturb_orbit(collect(spec, raw), spec.fmt)
    reference = wl.fingerprint(collect(wl.spec(0), wl.run(wl.spec(0))))
    _raw, _scaled, errors = run.run_tasks(wl, reference, speed, count=2)
    expect(all(errors), "orbit-rk4: perturbed outputs count as failed tasks")
    wl.collect = collect
    _raw, _scaled, errors = run.run_tasks(wl, b"another output", speed, count=1)
    expect(errors[0] != [], "orbit-rk4: output unlike the warm-up run counts as a failed task")


def test_sweep(prog, workdir: Path) -> None:
    wl = workloads.Sweep(1, workdir)
    wl.setup(prog)
    wl.prepare_checks()
    spec = first_spec(wl, lambda s: s.name == "revised-rigid-body")
    trajectory, report = wl.run(spec)
    expect(wl.check(spec, (trajectory, report)) == [], "sweep-rk45: clean member passes")
    states = trajectory.states.copy()
    col = prog.catalog.catalog_build(spec.name, symbolic=True).chart.names.index("a2")
    states[len(states) // 2, col] = np.nextafter(states[len(states) // 2, col], np.inf)
    drifted = dataclasses.replace(trajectory, states=states)
    expect(wl.check(spec, (drifted, report)) != [], "sweep-rk45: a parameter column moving one ulp is caught")

    spec = first_spec(wl, lambda s: s.name == "maxwell-bloch-algebroid")
    trajectory, report = wl.run(spec)
    expect(wl.check(spec, (trajectory, report)) == [], "sweep-rk45: clean member with invariants passes")
    states = trajectory.states.copy()
    states[-1, 1] *= 1 + 1e-6
    drifted = dataclasses.replace(trajectory, states=states)
    expect(wl.check(spec, (drifted, report)) != [], "sweep-rk45: a drifting conserved observable is caught")

    run_member = wl.run

    def with_moved_parameter(spec):
        trajectory, report = run_member(spec)
        states = trajectory.states.copy()
        states[-1, 3:6] += 1.0  # the parameter columns, on entries that have them
        return dataclasses.replace(trajectory, states=states), report

    wl.run = with_moved_parameter
    _raw, _scaled, errors = run.run_tasks(wl, wl.fingerprint(wl.run(wl.spec(0))), Speed(), count=7)
    wl.run = run_member
    with_params = [bool(errors[k]) for k in range(7) if wl.spec(k).name in workloads.SWEEP_PARAMS]
    expect(with_params and all(with_params), "sweep-rk45: moved parameter columns count as failed tasks")


def flip(out: dict) -> dict:
    doc = json.loads(out["stdout"])
    doc["ok"] = not doc["ok"]
    for entry in doc.get("entries", []):
        entry["ok"] = not entry["ok"]
    return {"rc": 1 - out["rc"], "stdout": json.dumps(doc), "stderr": ""}


def test_verify(prog, workdir: Path) -> None:
    misprints = checks.load_misprint_entries(run.MISPRINTS)
    wl = workloads.Verify(1, workdir, misprints)
    wl.setup(prog)
    for label, predicate in (
        ("strict, known misprint", lambda s: s.strict and s.target in misprints),
        ("strict, clean entry", lambda s: s.strict and s.target == "revised-rigid-body"),
        ("default", lambda s: not s.strict and s.target in misprints),
        ("structure file", lambda s: s.target.startswith("file:")),
    ):
        spec = first_spec(wl, predicate)
        out = wl.collect(spec, wl.run(spec))
        expect(wl.check(spec, out) == [], f"verify-sweep {label}: true verdict passes")
        expect(wl.check(spec, flip(out)) != [], f"verify-sweep {label}: flipped verdict is caught")
    collect = wl.collect
    wl.collect = lambda spec, raw: flip(collect(spec, raw))
    _raw, _scaled, errors = run.run_tasks(wl, b"", Speed(), count=3)
    wl.collect = collect
    expect(all(errors), "verify-sweep: flipped verdicts count as failed tasks")
    _metrics, span_errors = tracing.layer_metrics(tracing.Tracer(), wl, run.COUNT_TASKS, 0.0)
    expect(span_errors != [], "a traced run whose spans never fire is refused")


def test_reports() -> None:
    units = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            label = f"{workload} --trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result.get("correct") is True and result.get("failed") == 0, f"{label}: correct, no failed task")
            got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
            expect(got == units[trace], f"{label}: every metric of BENCHMARK.json, with its unit")
            table = "\n".join(lines[:-2])
            expect(
                all(f" {name} " in table and f" {unit} " in table for name, unit in units[trace].items()),
                f"{label}: each metric printed with its unit",
            )


def test_compare(workdir: Path) -> None:
    record = {"workload": "w", "trace": 0, "seed": 1, "failed": 0,
              "env": {"kernel_path": "numpy"}, "metrics": {"tasks_per_s": {"value": 1.0}}}
    numba = copy.deepcopy(record)
    numba["env"]["kernel_path"] = "numba"
    base, head = workdir / "base.log", workdir / "head.log"
    base.write_text(json.dumps({"perfbench_record": record}) + "\n")
    head.write_text(json.dumps({"perfbench_record": numba}) + "\n")
    expect(compare.main([str(base), str(head)]) == 2, "compare refuses runs on different kernel paths")
    head.write_text(json.dumps({"perfbench_record": record}) + "\n")
    expect(compare.main([str(base), str(head)]) == 0, "compare accepts runs on the same kernel path")


def main() -> int:
    workdir = run.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prog = run.load_program()
        test_orbit(prog, workdir)
        test_sweep(prog, workdir)
        test_verify(prog, workdir)
        test_compare(workdir)
        test_reports()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-test checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
