"""Summarise or compare benchmark runs from their logs.

    python3 perfbench/compare.py RUNS.log             # spread of one set of runs
    python3 perfbench/compare.py BASE.log HEAD.log    # head against base

A log is the standard output of one or more ``run.py`` runs, of any
workloads; only the record lines are read.  For each workload and metric the
summary gives the median, the quartiles and the spread (Q3 - Q1) / median,
next to the metric's bound from ``BENCHMARK.json``, and says whether the exact
counts repeated across runs of the same seed.  A comparison gives both
medians, the change, and ``WORSE`` where an end-to-end metric got worse by
more than its bound; it exits with code 1 if any did.

Runs made on different kernel paths (numba against the numpy fallback),
with different numba availability, ``LEIBNIZ_NO_NUMBA`` or thread pins are
never compared: the tool refuses with exit code 2, so a silent fallback cannot
pass as a speed change.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MUST_MATCH = (
    "kernel_path",
    "numba_importable",
    "LEIBNIZ_NO_NUMBA",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)
NOTED = ("python", "numpy", "nproc", "cpu_model")
EXACT_COUNTS = (
    "dynamics.rhs_evals",
    "dynamics.steps_accepted",
    "dynamics.steps_rejected",
    "dynamics.export.bytes_per_row",
)
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Refused(Exception):
    pass


def load_records(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        if line.startswith('{"perfbench_record"'):
            records.append(json.loads(line)["perfbench_record"])
    if not records:
        raise Refused(f"{path}: no benchmark records")
    return records


def check_comparable(records: list[dict]) -> list[str]:
    """Raise Refused if runs differ in kernel path or pins; return notes on other differences."""
    for key in MUST_MATCH:
        seen = {json.dumps(r["env"].get(key)) for r in records}
        if len(seen) > 1:
            raise Refused(f"refusing to compare runs with different {key}: {', '.join(sorted(seen))}")
    return [
        f"note: runs differ in {key}"
        for key in NOTED
        if len({json.dumps(r["env"].get(key)) for r in records}) > 1
    ]


def group(records: list[dict]) -> dict:
    """(workload, trace) -> metric -> [(seed, value)]."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["metrics"].items():
            out[(r["workload"], r["trace"])][name].append((r["seed"], m["value"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def count_repeats(pairs: list[tuple[int, float]]) -> bool:
    by_seed = defaultdict(set)
    for seed, value in pairs:
        by_seed[seed].add(value)
    return all(len(v) == 1 for v in by_seed.values())


def summarise(records: list[dict], spec: dict) -> None:
    for (workload, trace), metrics in sorted(group(records).items()):
        runs = sum(1 for r in records if r["workload"] == workload and r["trace"] == trace)
        failed = sum(r["failed"] for r in records if r["workload"] == workload and r["trace"] == trace)
        print(f"{workload} trace={trace}: {runs} runs, {failed} failed tasks")
        for name, pairs in metrics.items():
            values = [v for _s, v in pairs]
            q1, q2, q3 = quartiles(values)
            line = f"  {name:36s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread(values):7.3f}"
            bound = spec.get(name, {}).get("bound")
            if bound is not None:
                line += f"  bound {bound}" + ("  WIDE" if spread(values) > bound and name != "setup_s" else "")
            if name in EXACT_COUNTS:
                line += "  repeats" if count_repeats(pairs) else "  DIFFERS FOR ONE SEED"
            print(line)


def compare(base: list[dict], head: list[dict], spec: dict) -> int:
    worse = 0
    base_groups, head_groups = group(base), group(head)
    for key in sorted(set(base_groups) & set(head_groups)):
        print(f"{key[0]} trace={key[1]}")
        for name, pairs in base_groups[key].items():
            if name not in head_groups[key]:
                continue
            b = statistics.median(v for _s, v in pairs)
            h = statistics.median(v for _s, v in head_groups[key][name])
            change = (h - b) / abs(b) if b else 0.0
            line = f"  {name:36s} base {b:12.6g}  head {h:12.6g}  change {100 * change:+7.2f} %"
            if name in spec and "bound" in spec[name]:
                lost = -change if spec[name]["better"] == "higher" else change
                if lost > spec[name]["bound"]:
                    line += f"  WORSE beyond bound {spec[name]['bound']}"
                    worse += 1
            print(line)
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    doc = json.loads(BENCHMARK.read_text())
    spec = {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}
    try:
        sides = [load_records(path) for path in argv]
        for note in check_comparable([r for side in sides for r in side]):
            print(note)
    except Refused as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    if len(sides) == 1:
        summarise(sides[0], spec)
        return 0
    return compare(sides[0], sides[1], spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
