"""Benchmark of the leibniz package: three seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload orbit-rk4 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:

* ``setup_s`` -- median of ``SETUP_REPS`` set-ups in the run, each a fresh
  import of ``leibniz`` (its modules are dropped from ``sys.modules`` first),
  the workload's own preparation (catalog builds, structure-file exports) and
  one warm-up task.  The interpreter and numpy load once, before the first;
  the record line also gives that first set-up from process start.
* ``tasks_per_s`` -- tasks completed per second of timed wall time, which is
  the sum of the task durations; output checks run between tasks, untimed.
* ``task_p50_ms``, ``task_p90_ms`` -- per-task latency.
* ``peak_rss_mb`` -- the process's peak resident memory.

Times are reported at reference speed (``speed.py``): each task and set-up is
scaled by the host speed measured just before it; the record line keeps the
measured times too.

``--trace 1`` runs the same task stream twice, untraced then traced, and prints
the per-layer metrics of ``tracing.py``; ``trace.overhead_ms`` is the traced
task p50 minus the untraced one over those same tasks.  Spans are written to
``.bench_out/`` at the repository root.

Every task's output is checked (``checks.py``); the warm-up task and the first
timed task are the same task and must give bitwise-identical output.  The last
line of standard output is the JSON result; the line before it is the full
record (environment, sample counts, failures) that ``compare.py`` reads.
The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2 and prints no result.
"""

import os
import time

PROCESS_START = time.perf_counter()

# One process, one thread: the launcher, not the program, pins the BLAS and
# OpenMP pools before numpy is imported, so the adaptive stepper's small
# matrix products cannot spawn threads on a small shared machine.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_PINS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MISPRINTS = SRC / "leibniz" / "data" / "known_misprints.json"

SETUP_REPS = 9
# exact counts (rhs evaluations, steps, bytes per row) are summed over this
# fixed prefix of the task stream, so they repeat for a given seed
COUNT_TASKS = 28

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``leibniz`` under ``src/``."""


def load_program() -> SimpleNamespace:
    """Import ``leibniz`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "leibniz" or m.startswith("leibniz.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        modules = {m: importlib.import_module(f"leibniz.{m}") for m in ("cli", "catalog", "dynamics")}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import leibniz from {SRC}: {exc}") from exc
    package = sys.modules["leibniz"]
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"leibniz was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(package=package, **modules)


def environment(seed: int) -> dict:
    try:
        kernels = importlib.import_module("leibniz._kernels")
        kernel_path = "numba" if kernels.use_numba() else "numpy"
    except (ImportError, AttributeError):
        kernel_path = "unreported"
    try:
        importlib.import_module("numba")
        numba_importable = True
    except ImportError:
        numba_importable = False
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": numba_importable,
        "kernel_path": kernel_path,
        "LEIBNIZ_NO_NUMBA": os.environ.get("LEIBNIZ_NO_NUMBA"),
        **{name: os.environ.get(name) for name in THREAD_PINS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
    }


def run_tasks(wl, reference: bytes, speed, seconds=None, min_tasks=1, count=None, tracer=None):
    """Closed loop over the task stream from task 0.

    Stops after ``count`` tasks if given, else once the timed wall time
    reaches ``seconds`` and ``min_tasks`` have run.  Returns each task's
    measured duration, its duration at reference speed, and its errors.
    """
    raw, scaled, errors = [], [], []
    while len(raw) < count if count is not None else (len(raw) < min_tasks or sum(raw) < seconds):
        k = len(raw)
        spec = wl.spec(k)
        scale = speed.scale()
        if tracer is not None:
            tracer.task, tracer.scale = k, scale
        failure = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(spec)
            else:
                with tracer.span(wl.root_span):
                    out = wl.run(spec)
        except Exception:  # a crashing task is a failed task; the loop goes on
            failure = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.task = None
        if failure is None:
            out = wl.collect(spec, out)
            task_errors = wl.check(spec, out)
            if k == 0 and wl.fingerprint(out) != reference:
                task_errors.append("output differs from the warm-up run of the same task")
        else:
            task_errors = [failure.strip().splitlines()[-1]]
            print(failure, file=sys.stderr)
        for message in task_errors:
            print(f"task {k} {spec}: {message}", file=sys.stderr)
        raw.append(elapsed)
        scaled.append(elapsed * scale)
        errors.append(task_errors)
    return raw, scaled, errors


def p90(durations: list[float]) -> float:
    return statistics.quantiles(durations, n=10)[8] if len(durations) > 1 else durations[0]


def end_to_end(setup_times: list[float], durations: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "tasks_per_s": len(durations) / sum(durations),
        "task_p50_ms": 1e3 * statistics.median(durations),
        "task_p90_ms": 1e3 * p90(durations),
    }


def measure(args, workdir: Path) -> dict:
    if args.workload == "verify-sweep":
        wl = workloads.Verify(args.seed, workdir, checks.load_misprint_entries(MISPRINTS))
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    speed = Speed()
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPS):
        scale = speed.scale()
        start = time.perf_counter()
        prog = load_program()
        wl.setup(prog)
        warm = wl.collect(wl.spec(0), wl.run(wl.spec(0)))
        setup_raw.append(time.perf_counter() - start)
        setup_scaled.append(setup_raw[-1] * scale)
        if len(setup_raw) == 1:
            first_setup_s = time.perf_counter() - PROCESS_START
    reference = wl.fingerprint(warm)
    wl.prepare_checks()
    samples = {"setup_s": SETUP_REPS}
    if not args.trace:
        raw, durations, errors = run_tasks(wl, reference, speed, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = end_to_end(setup_scaled, durations)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        samples.update(tasks_per_s=len(durations), task_p50_ms=len(durations), task_p90_ms=len(durations), peak_rss_mb=1)
        measured = end_to_end(setup_raw, raw)
        span_errors = []
    else:
        plain_raw, plain, errors = run_tasks(wl, reference, speed, seconds=args.seconds / 2, min_tasks=COUNT_TASKS)
        tracer = tracing.Tracer()
        tracing.instrument(tracer, prog)
        try:
            traced_raw, traced, traced_errors = run_tasks(wl, reference, speed, count=len(plain), tracer=tracer)
            tracing.run_probe(tracer, prog, speed)
        finally:
            tracer.unpatch()
        errors += traced_errors
        overhead_ms = 1e3 * (statistics.median(traced) - statistics.median(plain))
        layer, span_errors = tracing.layer_metrics(tracer, wl, COUNT_TASKS, overhead_ms)
        for message in span_errors:
            print(f"trace: {message}", file=sys.stderr)
        metrics = {name: (value, unit) for name, (value, unit, _n) in layer.items()}
        samples.update({name: n for name, (_v, _u, n) in layer.items()})
        measured = {"trace.overhead_ms": 1e3 * (statistics.median(traced_raw) - statistics.median(plain_raw))}
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    failed = sum(1 for e in errors if e)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0 and not span_errors,
        "attempted": len(errors),
        "failed": failed,
        "failures": [e for task_errors in errors for e in task_errors][:20] + span_errors,
        "first_setup_s": first_setup_s,
        "setup_reps_s": setup_scaled,
        "measured": measured,
        "speed": {
            "reference_ms": 1e3 * REFERENCE_S,
            "work_ms": [1e3 * min(speed.samples), 1e3 * statistics.median(speed.samples), 1e3 * max(speed.samples)],
            "samples": len(speed.samples),
        },
        "metrics": {name: {"value": v, "unit": u, "samples": samples[name]} for name, (v, u) in metrics.items()},
        "env": environment(args.seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="leibniz benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed wall time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "leibniz" / "__init__.py").is_file():
        print(f"perfbench: no leibniz sources under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args, workdir)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in record["metrics"].items():
        print(f"{args.workload:13s} {name:36s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")
    print(f"{args.workload:13s} failed/attempted {record['failed']}/{record['attempted']}")
    print(json.dumps({"perfbench_record": record}, sort_keys=True))
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
