"""Command-line interface: list, verify, simulate, export, and plot catalog systems.

Exit codes are a stable contract for CI use: 0 success, 1 verification or
integration failure, or a reader that closed stdout early (``leibniz verify
--all | head``; no traceback is printed), 2 usage error (bad flags, unknown
names, inadmissible or unexpected parameters, a tolerance that is not positive
and finite, invalid projections, a file that cannot be read or written or is
malformed, entry flags (``--gamma``, ``--s``, ``--a``, ``--symbolic``)
given with a structure or trajectory file, integrator flags
(``--t-end``, ``--step``, ``--tol``, ``--method``, ``--max-steps``) given with
a trajectory file, state values that cannot be plotted, a structure whose
exact algebra exceeds the degree cap or needs a non-polynomial quotient).
Every error is one ``error: ...`` line on stderr.  All outputs are
deterministic for fixed flags: CSV/JSON byte-identical across reruns, SVG
likewise.

``main`` may be called many times in one process: the parser is built on the
first call and reused, and no call sees the flags of an earlier one.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .algebroid import classify_algebroid, structure_from_json
from .catalog import (
    ENTRY_NAMES,
    CatalogEntry,
    UnknownEntryError,
    VerifyReport,
    catalog_build,
    catalog_list,
    catalog_verify,
    entry_certifications,
    entry_structure_json,
    structure_certifications,
)
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    integrate,
    observe,
    trajectory_from_json,
    trajectory_to_csv,
    trajectory_to_json,
)
from .poly import DegreeCapError, ExactDivisionError
from .svgplot import PROJECTIONS, PlotSpec, render_svg

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """Bad command usage that argparse cannot catch itself."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibniz",
        description="Exact polynomial brackets, fiber-linear structures, and their flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog entries")
    p_list.add_argument("--json", action="store_true", help="emit a JSON array of summaries")

    p_verify = sub.add_parser(
        "verify", help="diff derived flows against transcribed references and run certifications"
    )
    p_verify.add_argument("name", nargs="?", help="catalog entry name or structure JSON file")
    p_verify.add_argument("--all", action="store_true", help="verify every entry")
    p_verify.add_argument(
        "--strict",
        action="store_true",
        help="ignore the known-misprint whitelist: any mismatch fails",
    )
    p_verify.add_argument("--json", action="store_true", help="emit a JSON report")
    _add_param_flags(p_verify)

    p_sim = sub.add_parser("simulate", help="integrate an entry and write the trajectory")
    p_sim.add_argument("name", help="catalog entry name")
    _add_param_flags(p_sim)
    _add_integrator_flags(p_sim)
    p_sim.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="output format (default: by -o suffix, else csv)",
    )
    p_sim.add_argument("-o", "--output", default=None, help="output file (default: stdout)")

    p_export = sub.add_parser(
        "export", help="write a fiber-linear entry's structure to a JSON file"
    )
    p_export.add_argument("name", help="catalog entry name (fiber-linear kinds only)")
    _add_param_flags(p_export)
    p_export.add_argument(
        "-o", "--output", default=None, help="output file (default: <name>-structure.json)"
    )

    p_plot = sub.add_parser("plot", help="render an orbit projection as SVG")
    p_plot.add_argument("source", help="catalog entry name or trajectory JSON file")
    _add_param_flags(p_plot)
    _add_integrator_flags(p_plot)
    p_plot.add_argument("--proj", choices=PROJECTIONS, default="x12", help="projection")
    p_plot.add_argument("--width", type=int, default=640)
    p_plot.add_argument("--height", type=int, default=480)
    p_plot.add_argument("--title", default=None, help="plot title (default: source and projection)")
    p_plot.add_argument("-o", "--output", default=None, help="output file (default: <source>-<proj>.svg)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # safe to share: each parse_args starts a fresh namespace, and no option has
    # a mutable default
    return build_parser()


_PARAM_KEYS = ("gamma", "s", "a")


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    for key in _PARAM_KEYS:
        metavar = ",".join(f"{key[0].upper()}{i}" for i in (1, 2, 3))
        p.add_argument(f"--{key}", metavar=metavar, help=f"entry parameter {key} as exact rationals")
    p.add_argument(
        "--symbolic",
        action="store_true",
        help="carry parameters as extra chart coordinates instead of numbers",
    )


def _add_integrator_flags(p: argparse.ArgumentParser) -> None:
    # None marks a flag not given: IntegratorConfig supplies its default, and a
    # trajectory file refuses only the flags that were given
    span = f"integration span (default: {IntegratorConfig.t_end:g})"
    p.add_argument("--t-end", type=float, default=None, help=span)
    p.add_argument("--step", type=float, default=None, help="fixed step size for rk4")
    p.add_argument("--tol", type=float, default=None, help="absolute and relative tolerance for rk45")
    p.add_argument(
        "--method",
        choices=("rk4", "rk45"),
        default=None,
        help="fixed-step classical scheme or adaptive embedded pair",
    )
    p.add_argument("--max-steps", type=int, default=None)


def _collect_params(args: argparse.Namespace) -> dict[str, tuple[str, ...]]:
    return {
        key: tuple(v.strip() for v in getattr(args, key).split(","))
        for key in _PARAM_KEYS
        if getattr(args, key) is not None
    }


def _refuse_entry_flags(args: argparse.Namespace, kind: str) -> None:
    """Entry flags select a catalog entry's parameters; a file has none to set."""
    given = [f"--{key}" for key in _PARAM_KEYS if getattr(args, key) is not None]
    if args.symbolic:
        given.append("--symbolic")
    if given:
        raise _UsageError(f"entry flags ({', '.join(given)}) do not apply to a {kind} file")


def _refuse_integrator_flags(args: argparse.Namespace) -> None:
    """Integrator flags set up an integration; a trajectory file is one already run."""
    keys = ("t_end", "step", "tol", "method", "max_steps")
    given = [f"--{key.replace('_', '-')}" for key in keys if getattr(args, key) is not None]
    if given:
        raise _UsageError(f"integrator flags ({', '.join(given)}) do not apply to a trajectory file")


def _config_from_args(args: argparse.Namespace) -> IntegratorConfig:
    method = {"rk4": "rk4_fixed", "rk45": "rk45_adaptive"}.get(args.method)
    given = dict(
        t_end=args.t_end,
        method=method,
        step=args.step,
        abs_tol=args.tol,
        rel_tol=args.tol,
        max_steps=args.max_steps,
    )
    return IntegratorConfig(**{k: v for k, v in given.items() if v is not None})


def _build_entry(name: str, args: argparse.Namespace) -> CatalogEntry:
    return catalog_build(name, params=_collect_params(args), symbolic=args.symbolic)


# -- subcommands ---------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    rows = catalog_list()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    name_w = max(len(r["name"]) for r in rows)
    kind_w = max(len(r["kind"]) for r in rows)
    for r in rows:
        print(f"{r['name']:<{name_w}}  {r['kind']:<{kind_w}}  params: {r['params']}")
        print(f"{'':<{name_w}}  {'':<{kind_w}}  {r['description']}")
    return 0


def _verify_one(name: str, args: argparse.Namespace) -> VerifyReport:
    entry = _build_entry(name, args)
    report = catalog_verify(entry)
    return dataclasses.replace(report, certifications=tuple(entry_certifications(entry)))


def _verify_structure_file(path: Path, args: argparse.Namespace) -> int:
    structure = structure_from_json(path.read_text())
    certifications = tuple(structure_certifications(structure))
    report = VerifyReport(entry=str(path), diffs=(), certifications=certifications)
    classification = classify_algebroid(structure)
    ok = report.ok(args.strict)
    if args.json:
        checks = report.to_dict(args.strict)["certifications"]
        doc = {"file": str(path), "classification": classification, "checks": checks, "ok": ok}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        # the report's own header names an entry; a file gets its own
        _entry_header, *body = report.lines(args.strict)
        print(f"structure file: {path}")
        print(f"  classification: {classification}")
        print("\n".join(body))
    return 0 if ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all == (args.name is not None):
        raise _UsageError("verify needs exactly one of: an entry name, or --all")
    if args.name is not None and args.name not in ENTRY_NAMES:
        path = Path(args.name)
        if path.exists():
            _refuse_entry_flags(args, "structure")
            return _verify_structure_file(path, args)
        raise UnknownEntryError(
            f"{args.name!r} is neither a catalog entry "
            f"({', '.join(ENTRY_NAMES)}) nor a structure file"
        )
    names = ENTRY_NAMES if args.all else (args.name,)
    all_ok = True
    docs = []
    for name in names:
        report = _verify_one(name, args)
        all_ok = all_ok and report.ok(args.strict)
        docs.append(report.to_dict(args.strict))
        if not args.json:
            print("\n".join(report.lines(args.strict)))
    if args.json:
        print(json.dumps({"ok": all_ok, "entries": docs}, indent=2, sort_keys=True))
    return 0 if all_ok else 1


def cmd_export(args: argparse.Namespace) -> int:
    entry = _build_entry(args.name, args)
    text = entry_structure_json(entry)
    output = args.output or f"{entry.name}-structure.json"
    Path(output).write_text(text)
    print(f"wrote {output}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    entry = _build_entry(args.name, args)
    config = _config_from_args(args)
    trajectory = integrate(entry.system, entry.x0, config)
    observations = observe(entry.system, trajectory, entry.observables)
    out_format = args.format
    if out_format is None:
        out_format = "json" if args.output and args.output.endswith(".json") else "csv"
    if out_format == "json":
        payload = trajectory_to_json(entry.system, trajectory, observations)
    else:
        payload = trajectory_to_csv(entry.system, trajectory)
    summary_stream = sys.stdout if args.output else sys.stderr
    if args.output:
        Path(args.output).write_text(payload)
        print(f"wrote {args.output}", file=summary_stream)
    else:
        sys.stdout.write(payload)
    print(
        f"{entry.name}: {len(trajectory.times)} points, accepted {trajectory.accepted}, "
        f"rejected {trajectory.rejected}, status {trajectory.status}",
        file=summary_stream,
    )
    for report in observations.reports:
        print(
            f"  {report.name}: drift {report.drift:.3e}, {report.monotonicity}",
            file=summary_stream,
        )
    if not trajectory.ok:
        print("error: integration did not reach t_end", file=sys.stderr)
        return 1
    return 0


def _trajectory_for_plot(args: argparse.Namespace) -> tuple[str, tuple[str, ...], Trajectory]:
    source = args.source
    if source in ENTRY_NAMES:
        entry = _build_entry(source, args)
        config = _config_from_args(args)
        trajectory = integrate(entry.system, entry.x0, config)
        if not trajectory.ok:
            raise _UsageError(
                f"integration of {source!r} stopped early (status {trajectory.status})"
            )
        return source, entry.chart.names, trajectory
    path = Path(source)
    if path.exists():
        _refuse_entry_flags(args, "trajectory")
        _refuse_integrator_flags(args)
        names, trajectory = trajectory_from_json(path.read_text())
        return path.stem, names, trajectory
    raise UnknownEntryError(
        f"{source!r} is neither a catalog entry ({', '.join(ENTRY_NAMES)}) nor a trajectory file"
    )


def cmd_plot(args: argparse.Namespace) -> int:
    label, names, trajectory = _trajectory_for_plot(args)
    spec = PlotSpec(projection=args.proj, width=args.width, height=args.height)
    title = args.title if args.title is not None else f"{label}: {args.proj}"
    document = render_svg(names, trajectory.states, spec, title=title)
    output = args.output or f"{label}-{args.proj}.svg"
    Path(output).write_text(document)
    print(f"wrote {output}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    handlers = {
        "list": cmd_list,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
        "export": cmd_export,
        "plot": cmd_plot,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return 1
    except UnknownEntryError as exc:
        # KeyError subclasses repr their message; unwrap for readability
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError, OSError, DegreeCapError, ExactDivisionError) as exc:
        # ParameterError and ProjectionError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _discard_stdout() -> None:
    """Point stdout's descriptor at os.devnull after the reader went away.

    Output still buffered would otherwise fail again when the interpreter
    flushes stdout at exit, printing an "Exception ignored" message.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
