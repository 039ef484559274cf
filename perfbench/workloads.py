"""Seeded inputs and task runners for the three workloads.

Every workload is a closed loop with one caller: a task starts when the
previous one ends.  The task stream is a pure function of the workload and its
seed (``spec(k)`` is task ``k``), so a traced pass can replay exactly the tasks
an untraced pass ran, and the program only ever sees the generated arguments.

Why each workload exists:

* ``orbit-rk4`` -- the real ``simulate`` CLI path; one output row per rk4
  step, so the rhs evaluation, the stepper, ``observe`` and both exporters all
  carry load.  Few, output-heavy calls.
* ``sweep-rk45`` -- a parameter sweep in library calls: each entry is built
  once, symbolically, and members vary the initial state and the parameter
  columns.  Many short adaptive ``integrate`` calls, little ``observe`` work and
  no export, so per-call set-up cost shows here.
* ``verify-sweep`` -- ``verify --json`` CLI calls, numeric and symbolic,
  default and strict, plus structure files.  Pure exact algebra: a change to
  the float pipeline must leave it unchanged.

Admissible parameters follow the catalog's rules: ``a1 > a2 > a3 > 0``,
``gamma`` summing to zero, ``s`` in ``{-1, 1}``.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks

ENTRIES = (
    "gradient-beltrami",
    "revised-rigid-body",
    "almost-leibniz-ex2",
    "almost-leibniz-ex3",
    "maxwell-bloch-algebroid",
    "rigid-body-algebroid",
    "rigid-body-metriplectic-algebroid",
)
A_ENTRIES = ("revised-rigid-body", "rigid-body-algebroid", "rigid-body-metriplectic-algebroid")
STRUCTURE_ENTRIES = ("maxwell-bloch-algebroid", "rigid-body-algebroid", "rigid-body-metriplectic-algebroid")

ORBIT_T_END = 1.0
ORBIT_STEP = 1e-3
SWEEP_T_END = 2.0
SWEEP_TOL = 1e-12
# members start within +-10 % of the entry's own initial state
X0_SPREAD = 0.1
# (symbolic, strict) per verify call, rotated so every entry meets each mode
VERIFY_MODES = ((False, False), (False, True), (True, False), (True, True))

_GAMMA_GRID = tuple(Fraction(k, 2) for k in (-3, -2, -1, 1, 2, 3))


# -- input generator -----------------------------------------------------------


def seeded_a(rng: random.Random) -> tuple[Fraction, ...]:
    """``a1 > a2 > a3 > 0`` on the grid k/20, k = 1..20."""
    return tuple(Fraction(k, 20) for k in sorted(rng.sample(range(1, 21), 3), reverse=True))


def seeded_gamma(rng: random.Random) -> tuple[Fraction, ...]:
    """``gamma`` summing to zero, first two components on the half-integer grid."""
    g1, g2 = rng.choice(_GAMMA_GRID), rng.choice(_GAMMA_GRID)
    return (g1, g2, -(g1 + g2))


def seeded_gamma_s(rng: random.Random) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """``gamma`` and ``s`` in ``{-1, 1}^3``, never with every ``s_i*gamma_i > 0``.

    From x0 = (1, 1, 1) that flow blows up before t = 1, so the task would
    fail; every other pair on this grid reaches t = 1 at step 1e-3.
    """
    while True:
        gamma = seeded_gamma(rng)
        s = tuple(rng.choice((-1, 1)) for _ in range(3))
        if not all(si * gi > 0 for si, gi in zip(s, gamma)):
            return gamma, s


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def seeded_param_flags(name: str, rng: random.Random) -> tuple[str, ...]:
    """CLI parameter flags for one entry (``--x=`` so negative values parse)."""
    if name in A_ENTRIES:
        return (f"--a={_csv(seeded_a(rng))}",)
    if name == "gradient-beltrami":
        gamma, s = seeded_gamma_s(rng)
        return (f"--gamma={_csv(gamma)}", f"--s={_csv(s)}")
    return ()


def flags_to_params(flags: tuple[str, ...]) -> dict[str, tuple[Fraction, ...]]:
    """Inverse of ``seeded_param_flags``, for building the checker's entry."""
    params = {}
    for flag in flags:
        key, _, value = flag[2:].partition("=")
        params[key] = tuple(Fraction(v) for v in value.split(","))
    return params


# sweep inputs are the benchmark's own, not read from the program: the state
# each member perturbs, and each symbolic chart's parameter columns with the
# generator of their admissible values
SWEEP_X0 = {
    "gradient-beltrami": (1.0, 1.0, 1.0),
    "revised-rigid-body": (1.0, 0.5, 0.2),
    "almost-leibniz-ex2": (1.0, 0.5, 0.2),
    "almost-leibniz-ex3": (1.0, 0.5, 0.2),
    "maxwell-bloch-algebroid": (0.5, 0.5, 0.5, 1.0, 0.5, 0.2),
    "rigid-body-algebroid": (1.0, 0.5, 0.2, 0.5, 0.5, 0.5),
    "rigid-body-metriplectic-algebroid": (1.0, 0.5, 0.2, 0.5, 0.5, 0.5),
}
SWEEP_PARAMS = {
    "gradient-beltrami": (("g1", "g2", "g3"), seeded_gamma),
    "revised-rigid-body": (("a1", "a2", "a3"), seeded_a),
    "rigid-body-algebroid": (("a1", "a2", "a3"), seeded_a),
    "rigid-body-metriplectic-algebroid": (("a1", "a2", "a3"), seeded_a),
}


class _Stream:
    """Lazily generated, seed-determined task list; ``spec(k)`` never changes."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir  # scratch files of this run
        self._rng = random.Random(f"{self.name}:{seed}")
        self._specs: list = []

    def spec(self, k: int):
        while len(self._specs) <= k:
            self._specs.extend(self._round(len(self._specs), self._rng))
        return self._specs[k]

    def _order(self, start: int, items: list, rng: random.Random) -> list:
        """The first round keeps catalog order, so the warm-up task (task 0)
        is the same entry for every seed; later rounds are shuffled."""
        return items if start == 0 else rng.sample(items, len(items))

    def _round(self, start: int, rng: random.Random) -> list:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed checker preparation, once, after the last set-up."""


def _cli(prog, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = prog.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# -- orbit-rk4 -----------------------------------------------------------------


@dataclass(frozen=True)
class OrbitSpec:
    name: str
    flags: tuple[str, ...]
    fmt: str


class Orbit(_Stream):
    """``simulate <entry> --method rk4 --step 1e-3 --t-end 1 -o <tmp>.csv|.json``."""

    name = "orbit-rk4"
    root_span = "cli"
    task_spans = (
        "cli",
        "catalog.build",
        "dynamics.integrate",
        "dynamics.observe",
        "dynamics.export_csv",
        "dynamics.export_json",
    )

    def _round(self, start, rng):
        # one of each entry per round; the format alternates by task index and
        # the round length is odd, so every entry meets both formats
        return [
            OrbitSpec(name, seeded_param_flags(name, rng), "json" if (start + i) % 2 else "csv")
            for i, name in enumerate(self._order(start, list(ENTRIES), rng))
        ]

    def setup(self, prog) -> None:
        self.prog = prog
        self._entries = {}

    def run(self, spec: OrbitSpec):
        path = self.workdir / f"orbit.{spec.fmt}"
        argv = [
            "simulate", spec.name, *spec.flags, "--method", "rk4",
            "--step", repr(ORBIT_STEP), "--t-end", repr(ORBIT_T_END), "-o", str(path),
        ]
        return _cli(self.prog, argv)

    def collect(self, spec: OrbitSpec, raw):
        rc, _out, err = raw
        path = self.workdir / f"orbit.{spec.fmt}"
        text = path.read_text() if rc == 0 and path.exists() else ""
        path.unlink(missing_ok=True)  # a later task must not see a stale file
        return {"rc": rc, "stderr": err, "text": text}

    def fingerprint(self, out) -> bytes:
        return out["text"].encode()

    def check(self, spec: OrbitSpec, out) -> list[str]:
        if out["rc"] != 0:
            return [f"exit code {out['rc']}: {out['stderr'].strip()[-200:]}"]
        key = (spec.name, spec.flags)
        if key not in self._entries:
            self._entries[key] = self.prog.catalog.catalog_build(spec.name, flags_to_params(spec.flags))
        return checks.check_orbit(self._entries[key], ORBIT_T_END, ORBIT_STEP, out["text"], spec.fmt)


# -- sweep-rk45 ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    name: str
    x0: tuple[float, ...]


class Sweep(_Stream):
    """``integrate`` (rk45, tol 1e-12, t_end 2) then ``observe`` on symbolic builds."""

    name = "sweep-rk45"
    root_span = "sweep.member"
    task_spans = ("sweep.member", "dynamics.integrate", "dynamics.observe")

    def _round(self, start, rng):
        specs = []
        for name in self._order(start, list(ENTRIES), rng):
            state = [v * (1.0 + rng.uniform(-X0_SPREAD, X0_SPREAD)) for v in SWEEP_X0[name]]
            _columns, generate = SWEEP_PARAMS.get(name, ((), None))
            params = [float(v) for v in generate(rng)] if generate else []
            # symbolic charts put parameters after x1..x3, before any fiber xi
            specs.append(SweepSpec(name, tuple(state[:3] + params + state[3:])))
        return specs

    def setup(self, prog) -> None:
        self.prog = prog
        self.entries = {name: prog.catalog.catalog_build(name, symbolic=True) for name in ENTRIES}
        self.config = prog.dynamics.IntegratorConfig(
            method="rk45_adaptive", t_end=SWEEP_T_END, abs_tol=SWEEP_TOL, rel_tol=SWEEP_TOL
        )

    def prepare_checks(self) -> None:
        self._facts = {}
        for name, entry in self.entries.items():
            names = entry.chart.names
            columns, _generate = SWEEP_PARAMS.get(name, ((), None))
            constant = {
                obs: checks.lie_derivative_is_zero(entry.system.rhs, names, f)
                for obs, f in entry.observables.items()
            }
            self._facts[name] = ([names.index(c) for c in columns], constant)

    def run(self, spec: SweepSpec):
        entry = self.entries[spec.name]
        trajectory = self.prog.dynamics.integrate(entry.system, spec.x0, self.config)
        report = self.prog.dynamics.observe(entry.system, trajectory, entry.observables)
        return trajectory, report

    def collect(self, spec, raw):
        return raw

    def fingerprint(self, out) -> bytes:
        trajectory, report = out
        parts = [trajectory.times.tobytes(), trajectory.states.tobytes()]
        parts += [r.values.tobytes() for r in report.reports]
        parts.append(repr((trajectory.accepted, trajectory.rejected, trajectory.status)).encode())
        return b"".join(parts)

    def check(self, spec: SweepSpec, out) -> list[str]:
        trajectory, report = out
        param_cols, constant = self._facts[spec.name]
        entry = self.entries[spec.name]
        return checks.check_sweep(
            trajectory, report, spec.x0, SWEEP_T_END, param_cols, constant, entry.observables
        )


# -- verify-sweep --------------------------------------------------------------


@dataclass(frozen=True)
class VerifySpec:
    target: str  # entry name, or structure file label ("file:<entry>")
    flags: tuple[str, ...]
    strict: bool


class Verify(_Stream):
    """``verify <entry|structure file> --json [--symbolic] [--strict] [params]``."""

    name = "verify-sweep"
    root_span = "cli"
    task_spans = ("cli", "catalog.build", "catalog.verify", "brackets.certify", "algebroid.certify")

    def __init__(self, seed: int, workdir: Path, misprint_entries: frozenset[str]):
        super().__init__(seed, workdir)
        self.misprint_entries = misprint_entries
        # structure files are exported once, with their own seeded parameters
        rng = random.Random(f"{self.name}:{seed}:export")
        self._export_flags = {name: seeded_param_flags(name, rng) for name in STRUCTURE_ENTRIES}

    def _round(self, start, rng):
        # every entry once, in a rotating mode, plus one structure file in
        # turn: the heaviest entry is then 1/8 of the tasks, half of it in
        # symbolic mode, so p90 falls inside its numeric-mode cluster rather
        # than on the edge between two clusters
        r = start // (len(ENTRIES) + 1)
        items = []
        for i, name in enumerate(ENTRIES):
            symbolic, strict = VERIFY_MODES[(r + i) % len(VERIFY_MODES)]
            flags = ("--symbolic",) if symbolic else seeded_param_flags(name, rng)
            items.append(VerifySpec(name, flags + (("--strict",) if strict else ()), strict))
        items.append(VerifySpec(f"file:{STRUCTURE_ENTRIES[r % len(STRUCTURE_ENTRIES)]}", (), False))
        return self._order(start, items, rng)

    def _structure_path(self, name: str) -> Path:
        return self.workdir / f"{name}-structure.json"

    def setup(self, prog) -> None:
        self.prog = prog
        for name, flags in self._export_flags.items():
            rc, _out, err = _cli(prog, ["export", name, *flags, "-o", str(self._structure_path(name))])
            if rc != 0:
                raise RuntimeError(f"export {name} failed with exit code {rc}: {err.strip()}")

    def run(self, spec: VerifySpec):
        if spec.target.startswith("file:"):
            target = str(self._structure_path(spec.target[5:]))
        else:
            target = spec.target
        return _cli(self.prog, ["verify", target, "--json", *spec.flags])

    def collect(self, spec, raw):
        rc, out, err = raw
        return {"rc": rc, "stdout": out, "stderr": err}

    def fingerprint(self, out) -> bytes:
        return f"{out['rc']}\n{out['stdout']}".encode()

    def check(self, spec: VerifySpec, out) -> list[str]:
        return checks.check_verify(
            spec.target, spec.strict, out["rc"], out["stdout"], self.misprint_entries
        )


WORKLOADS = {cls.name: cls for cls in (Orbit, Sweep, Verify)}
