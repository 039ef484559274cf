"""Capture the CLI's output on a fixed matrix of cases, one file per case.

    PYTHONPATH=<tree>/src python3 tools/parity.py OUT_DIR

Each case calls ``leibniz.cli.main`` in this process, in a fresh working
directory under one temporary root, and writes ``OUT_DIR/NNN-<argv>.txt``
holding the argv, the exit code, stdout, stderr and every file the case
wrote.  The temporary root is printed as ``<tmp>`` wherever it appears, so
two runs compare with ``diff -r``: run it on two source trees to show that
a change keeps every output, or twice on one tree (under different
``PYTHONHASHSEED`` values) to show that the outputs are deterministic.

The cases: ``list``; ``verify --all`` in all eight text/json x default/strict
x numeric/symbolic modes; ``verify`` of each entry; ``export`` of each entry
and ``verify`` of each file written in all four text/json x default/strict
modes; ``simulate`` of each entry with rk4 and rk45 to CSV and JSON; ``plot``
of each entry and of each saved rk4 trajectory in two projections; the
documented exit-2 usage errors, among them argparse's refusal of the removed
``--params`` flag; ``verify`` with a repeated ``--a``, where the last value
given wins; ``simulate`` with a parameter beyond the float range
(``--a=1e400,2,1``), which exits 2 with one error line, and ``verify`` of the
same parameter with ``--symbolic``, exact algebra that exits 0; ``simulate``
and ``plot`` of an rk45 integration stopped early by ``--max-steps 3``, which
exit 1 with one error line; ``verify`` and ``plot`` of a file that is not
JSON, and of a file nested deeper than the JSON decoder can recurse, which
exit 2 naming the malformed structure or trajectory; and, last, ``plot`` of a
trajectory whose chart is a string, not a list of names, which exits 2.

The path of the imported ``leibniz`` package goes to stderr, so a run shows
which tree it measured; nothing else is printed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import leibniz
from leibniz.catalog import ENTRY_NAMES
from leibniz import cli

PLOT_PROJECTIONS = ("x12", "oblique3d_xi")


def _slug(argv: list[str], tmp: Path) -> str:
    text = " ".join(argv).replace(str(tmp), "tmp") or "no-arguments"
    return re.sub(r"[^A-Za-z0-9=.,+-]+", "_", text)[:100]


def _run_case(argv: list[str], tmp: Path, index: int, out_dir: Path) -> None:
    """Run ``cli.main(argv)`` in its own working directory and write its record."""
    workdir = tmp / f"case-{index:03d}"
    workdir.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code: object = cli.main(argv)
            except Exception as exc:  # an uncaught exception is itself an output to compare
                code = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    parts = [f"argv: {json.dumps(argv)}", f"exit: {code}", "--- stdout", stdout.getvalue(), "--- stderr", stderr.getvalue()]
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        parts += [f"--- file {path.relative_to(workdir)}", path.read_text()]
    record = "\n".join(parts).replace(str(tmp), "<tmp>")
    (out_dir / f"{index:03d}-{_slug(argv, tmp)}.txt").write_text(record)


def _entry_cases(tmp: Path) -> list[list[str]]:
    """Cases on the catalog entries; export and simulate write into ``tmp``."""
    out = [["list"], ["list", "--json"]]
    for json_flag in ([], ["--json"]):
        for strict in ([], ["--strict"]):
            for symbolic in ([], ["--symbolic"]):
                out.append(["verify", "--all", *json_flag, *strict, *symbolic])
    for name in ENTRY_NAMES:
        for flags in ([], ["--json"], ["--symbolic"], ["--symbolic", "--json"]):
            out.append(["verify", name, *flags])
    exported = tmp / "exported"
    for name in ENTRY_NAMES:
        out.append(["export", name, "-o", str(exported / f"{name}.json")])
    for name in ENTRY_NAMES:
        t_end = ["--t-end", "1"]
        for method in ("rk4", "rk45"):
            out.append(["simulate", name, "--method", method, *t_end])
            out.append(["simulate", name, "--method", method, *t_end, "-o", str(tmp / "orbits" / f"{name}-{method}.json")])
        for proj in PLOT_PROJECTIONS:
            out.append(["plot", name, "--proj", proj, *t_end])
    return out


def _file_cases(tmp: Path) -> list[list[str]]:
    """Cases that read what the entry cases wrote: exported structures and saved orbits."""
    out = []
    for path in sorted((tmp / "exported").iterdir()):
        for flags in ([], ["--json"], ["--strict"], ["--json", "--strict"]):
            out.append(["verify", str(path), *flags])
    for name in ENTRY_NAMES:
        for proj in PLOT_PROJECTIONS:
            out.append(["plot", str(tmp / "orbits" / f"{name}-rk4.json"), "--proj", proj])
    return out


def _usage_errors(tmp: Path) -> list[list[str]]:
    """Cases that exit 2, as in the CLI tests, then the later additions (some
    exit 0 or 1); the files they read are made here."""
    structure = json.loads((tmp / "exported" / "rigid-body-algebroid.json").read_text())
    over_cap = copy.deepcopy(structure)
    over_cap["rho1"][0][0] = "x3^16"
    over_cap["C"][0][0][0] = "x1^16"
    zero_den = copy.deepcopy(structure)
    zero_den["C"][0][1][2] = "1/0"
    bad_shape = dict(structure, C=5)
    orbit = {"chart": ["x1", "x2"], "times": [0, 1], "states": [[0, 1], [1, 2]], "status": 0, "accepted": 1, "rejected": 0}
    documents = {
        "structure.json": structure,
        "over-cap.json": over_cap,
        "zero-den.json": zero_den,
        "bad-shape.json": bad_shape,
        "bad-m.json": {"n": 1, "m": float("inf"), "C": [], "rho1": [[]], "rho2": [[]]},
        "bad-n.json": {"n": 10**12, "m": 1, "C": [[["0"]]], "rho1": [["0"]], "rho2": [["0"]]},
        "orbit.json": orbit,
        "inf-status.json": dict(orbit, status=float("inf")),
        "inf-state.json": dict(orbit, states=[[0.0, 1.0], [float("inf"), 2.0]]),
        "nan-state.json": dict(orbit, states=[[0.0, 1.0], [float("nan"), 2.0]]),
        "wide-state.json": dict(orbit, states=[[1e308, 0.0], [-1e308, 1.0]]),
        "bad-times.json": dict(orbit, times="0"),
    }
    for name, doc in documents.items():
        (tmp / "inputs" / name).write_text(json.dumps(doc))
    (tmp / "inputs" / "not-json.json").write_text("not json")
    (tmp / "inputs" / "deep.json").write_text("[" * 100_000)
    (tmp / "inputs" / "string-chart.json").write_text(json.dumps(dict(orbit, chart="x1x", states=[[0, 1, 2], [1, 2, 3]])))
    inputs = str(tmp / "inputs")
    structure_file, orbit_file = f"{inputs}/structure.json", f"{inputs}/orbit.json"
    cases = [
        [],
        ["frobnicate"],
        ["verify"],
        ["verify", "no-such-system"],
        ["verify", "nothing-here.json"],
        ["verify", "revised-rigid-body", "--all"],
        ["verify", "revised-rigid-body", "--no-such-flag"],
        ["verify", "revised-rigid-body", "--params", "nonsense"],
        ["verify", "revised-rigid-body", "--params", "foo=1"],
        ["verify", "revised-rigid-body", "--a=1/0,1,1"],
        ["verify", "gradient-beltrami", "--a=3,2,1"],
        ["verify", "almost-leibniz-ex2", "--a=3,2,1"],
        ["verify", structure_file, "--a=1,2,3", "--symbolic", "--gamma=5"],
        ["verify", structure_file, "--params", "a=1,2,3", "--json"],
        ["verify", structure_file, "--s=1,1,1"],
        ["simulate", "gradient-beltrami", "--gamma", "1,1,1"],
        ["simulate", "rigid-body-algebroid", "--gamma=1,1,-2"],
        ["simulate", "gradient-beltrami", "--method", "rk4", "--step", "1e-6", "--t-end", "20", "--max-steps", "100"],
        ["simulate", "revised-rigid-body", "--method", "rk4", "--step", "1", "--t-end", "1e300"],
        ["simulate", "revised-rigid-body", "--method", "rk4", "--step", "1e-300", "--t-end", "1e300"],
        ["simulate", "revised-rigid-body", "--tol", "nan", "--t-end", "1"],
        ["simulate", "revised-rigid-body", "--tol", "inf", "--t-end", "1"],
        ["simulate", "revised-rigid-body", "--t-end", "1", "-o", str(tmp / "missing" / "x.csv")],
        ["export", "revised-rigid-body"],
        ["plot", "gradient-beltrami", "--proj", "xi12", "--t-end", "1"],
        ["plot", "no-such-thing", "--proj", "x12"],
    ]
    cases += [["verify", f"{inputs}/{name}"] for name in ("over-cap.json", "zero-den.json", "bad-shape.json", "bad-m.json", "bad-n.json")]
    cases += [["plot", orbit_file, *flags, "-o", "orbit.svg"] for flags in (
        ["--a=1,2,3"], ["--symbolic"], ["--params", "gamma=1,1,1"], ["--t-end", "1"], ["--step", "0.5"],
        ["--tol", "1"], ["--method", "rk4"], ["--max-steps", "1"],
    )]
    cases += [["plot", f"{inputs}/{name}", "-o", "orbit.svg"] for name in (
        "inf-status.json", "inf-state.json", "nan-state.json", "wide-state.json", "bad-times.json",
    )]
    # appended in the order they were added, so the case numbers before each stay
    # those of earlier versions of this list
    cases.append(["verify", "revised-rigid-body", "--a=1,1,1", "--a=7/10,1/2,3/10"])
    cases.append(["simulate", "revised-rigid-body", "--a=1e400,2,1"])
    cases.append(["verify", "revised-rigid-body", "--a=1e400,2,1", "--symbolic"])
    stopped_early = ["revised-rigid-body", "--method", "rk45", "--max-steps", "3", "--t-end", "1"]
    cases += [["simulate", *stopped_early], ["plot", *stopped_early]]
    cases += [["verify", f"{inputs}/not-json.json"], ["plot", f"{inputs}/not-json.json"]]
    cases += [["verify", f"{inputs}/deep.json"], ["plot", f"{inputs}/deep.json"]]
    cases.append(["plot", f"{inputs}/string-chart.json", "-o", "orbit.svg"])
    return cases


def main(out_dir: Path) -> int:
    print(f"leibniz imported from {leibniz.__file__}", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as root:
        tmp = Path(root).resolve()
        for sub in ("exported", "orbits", "inputs"):
            (tmp / sub).mkdir()
        index = 0
        # each group is listed only after the one before it has run
        for group in (_entry_cases, _file_cases, _usage_errors):
            for argv in group(tmp):
                _run_case(argv, tmp, index, out_dir)
                index += 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    sys.exit(main(Path(sys.argv[1])))
