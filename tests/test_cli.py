"""End-to-end tests for the command-line interface: flags, outputs, exit codes."""

import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leibniz
from leibniz import catalog, cli
from leibniz.catalog import ENTRY_NAMES, CheckResult, catalog_build
from leibniz.cli import main
from leibniz.dynamics import lie_derivative
from leibniz.svgplot import PROJECTIONS, PlotSpec, ProjectionError, projection_axes


class TestList:
    def test_table_lists_every_entry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ENTRY_NAMES:
            assert name in out

    def test_json_listing(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in rows] == list(ENTRY_NAMES)
        for row in rows:
            assert {"name", "kind", "params", "description"} == set(row)

    @pytest.mark.parametrize("flags, golden", [([], "list.txt"), (["--json"], "list.json")])
    def test_golden(self, capsys, flags, golden):
        assert main(["list", *flags]) == 0
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

    def test_builds_no_entry(self, monkeypatch, capsys):
        # kind and description are catalog data: listing runs no construction
        def refuse(*args, **kwargs):
            raise AssertionError("catalog_list built an entry")

        monkeypatch.setattr(catalog, "catalog_build", refuse)
        assert [r["name"] for r in catalog.catalog_list()] == list(ENTRY_NAMES)
        assert main(["list", "--json"]) == 0
        assert capsys.readouterr().out.encode() == (DATA / "list.json").read_bytes()


class TestVerify:
    def test_clean_entry(self, capsys):
        assert main(["verify", "revised-rigid-body"]) == 0
        out = capsys.readouterr().out
        assert "match" in out
        assert "result: ok" in out

    def test_misprinted_entry_passes_with_notice(self, capsys):
        assert main(["verify", "maxwell-bloch-algebroid"]) == 0
        out = capsys.readouterr().out
        assert "known misprint" in out
        assert "x2*xi3" in out

    def test_strict_mode_fails_on_misprint(self, capsys):
        assert main(["verify", "maxwell-bloch-algebroid", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "result: FAILED" in out

    def test_all_entries(self, capsys):
        assert main(["verify", "--all"]) == 0
        out = capsys.readouterr().out
        for name in ENTRY_NAMES:
            assert f"entry: {name}" in out

    def test_strict_all_fails_only_for_documented_reasons(self, capsys):
        # the goldens show the only strict failures: the known_misprints.json
        # records, maxwell-bloch-algebroid's xi1 and the annihilation of
        # rigid-body-metriplectic-algebroid's second generator by its first
        # structure
        for flags, code, golden in (
            ([], 0, "verify_all.txt"),
            (["--strict"], 1, "verify_all_strict.txt"),
            (["--json", "--strict"], 1, "verify_all_strict.json"),
        ):
            assert main(["verify", "--all", *flags]) == code
            assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

    def test_unknown_name(self, capsys):
        assert main(["verify", "no-such-system"]) == 2
        assert "neither a catalog entry" in capsys.readouterr().err

    def test_name_and_all_are_exclusive(self, capsys):
        assert main(["verify", "revised-rigid-body", "--all"]) == 2
        assert main(["verify"]) == 2

    def test_json_report(self, capsys):
        assert main(["verify", "rigid-body-metriplectic-algebroid", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        (entry,) = doc["entries"]
        assert entry["entry"] == "rigid-body-metriplectic-algebroid"
        assert any(c["name"].startswith("annihilation") for c in entry["certifications"])

    def test_parameter_override(self, capsys):
        assert main(["verify", "revised-rigid-body", "--a", "7/10,1/2,3/10"]) == 0

    def test_symbolic_verify(self, capsys):
        assert main(["verify", "rigid-body-algebroid", "--symbolic"]) == 0

    def test_failed_certification_lines(self, capsys, monkeypatch):
        # certifications render like the report's checks: the detail in
        # parentheses only when there is one
        certs = [CheckResult("no-detail", False), CheckResult("with-detail", False, True, "why")]
        monkeypatch.setattr(cli, "entry_certifications", lambda entry: certs)
        assert main(["verify", "gradient-beltrami"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "  certification no-detail: FAIL" in lines
        assert "  certification with-detail: known discrepancy (why)" in lines

    def test_failed_structure_file_certification_lines(self, capsys, monkeypatch):
        # a structure file's certifications render like an entry's
        certs = [CheckResult("no-detail", False), CheckResult("with-detail", False, detail="why")]
        monkeypatch.setattr(cli, "structure_certifications", lambda structure: certs)
        assert main(["verify", str(DATA / "rigid-body-algebroid-structure.json")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "  certification no-detail: FAIL" in lines
        assert "  certification with-detail: FAIL (why)" in lines

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_whitelisted_structure_file_failure_fails_only_when_strict(
        self, capsys, monkeypatch, json_flag
    ):
        # a structure file is judged by the same rule as an entry
        certs = [CheckResult("known", False, whitelisted=True, detail="why")]
        monkeypatch.setattr(cli, "structure_certifications", lambda structure: certs)
        path = str(DATA / "rigid-body-algebroid-structure.json")
        for flags, code, mark in (([], 0, "known discrepancy"), (["--strict"], 1, "FAIL")):
            assert main(["verify", path, *json_flag, *flags]) == code
            out = capsys.readouterr().out
            if json_flag:
                doc = json.loads(out)
                assert doc["ok"] is (code == 0)
                assert doc["checks"] == [
                    {"name": "known", "passed": False, "whitelisted": True, "detail": "why"}
                ]
            else:
                assert f"  certification known: {mark} (why)" in out.splitlines()
                assert out.endswith(f"  result: {'ok' if code == 0 else 'FAILED'}\n")


class TestSimulate:
    def test_csv_to_stdout(self, capsys):
        assert main(["simulate", "almost-leibniz-ex2", "--t-end", "1"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "t,x1,x2,x3"
        assert "points" in captured.err  # summary kept off the data stream

    def test_csv_deterministic(self, capsys):
        argv = ["simulate", "maxwell-bloch-algebroid", "--t-end", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_csv_file_has_dual_chart_columns(self, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        argv = ["simulate", "rigid-body-metriplectic-algebroid", "--t-end", "20", "-o", str(out)]
        assert main(argv) == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,xi1,xi2,xi3"
        summary = capsys.readouterr().out
        assert "drift" in summary

    def test_json_output(self, tmp_path):
        out = tmp_path / "orbit.json"
        argv = [
            "simulate", "maxwell-bloch-algebroid",
            "--method", "rk4", "--step", "0.01", "--t-end", "2",
            "-o", str(out),
        ]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["chart"] == ["x1", "x2", "x3", "xi1", "xi2", "xi3"]
        assert set(doc["observables"]) == {"invariant-1", "invariant-2"}
        assert doc["status"] == 0

    def test_format_flag_overrides_suffix(self, tmp_path):
        out = tmp_path / "orbit.txt"
        argv = ["simulate", "almost-leibniz-ex3", "--t-end", "1", "--format", "json", "-o", str(out)]
        assert main(argv) == 0
        json.loads(out.read_text())

    def test_inadmissible_parameters(self, capsys):
        assert main(["simulate", "gradient-beltrami", "--gamma", "1,1,1"]) == 2
        assert "sum to zero" in capsys.readouterr().err

    def test_symbolic_simulation_carries_parameter_columns(self, capsys):
        argv = [
            "simulate", "revised-rigid-body", "--symbolic",
            "--method", "rk4", "--step", "0.01", "--t-end", "1",
        ]
        assert main(argv) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "t,x1,x2,x3,a1,a2,a3"

    def test_rk4_last_row_is_t_end(self, tmp_path, capsys):
        # 700 steps of 0.7/700 sum to an ulp past 0.7
        out = tmp_path / "orbit.csv"
        argv = [
            "simulate", "gradient-beltrami",
            "--method", "rk4", "--step", "1e-3", "--t-end", "0.7", "-o", str(out),
        ]
        assert main(argv) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 702
        assert float(rows[-1].split(",")[0]) == 0.7

    def test_step_budget_enforced(self, capsys):
        argv = [
            "simulate", "gradient-beltrami",
            "--method", "rk4", "--step", "1e-6", "--t-end", "20", "--max-steps", "100",
        ]
        assert main(argv) == 2
        assert "max_steps" in capsys.readouterr().err

    def test_huge_step_budget_is_not_preallocated(self, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        argv = [
            "simulate", "revised-rigid-body",
            "--t-end", "1", "--max-steps", "1000000000", "-o", str(out),
        ]
        assert main(argv) == 0
        assert "status 0" in capsys.readouterr().out


class TestPlot:
    def test_planar_projection(self, tmp_path, capsys):
        out = tmp_path / "orbit.svg"
        argv = ["plot", "maxwell-bloch-algebroid", "--proj", "x12", "--t-end", "2", "-o", str(out)]
        assert main(argv) == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"' in text
        assert "<polyline" in text
        assert "maxwell-bloch-algebroid: x12" in text

    def test_fiber_projection(self, tmp_path):
        out = tmp_path / "orbit.svg"
        argv = ["plot", "rigid-body-algebroid", "--proj", "xi23", "--t-end", "2", "-o", str(out)]
        assert main(argv) == 0
        assert "<polyline" in out.read_text()

    def test_oblique_projection(self, tmp_path):
        out = tmp_path / "orbit.svg"
        argv = ["plot", "gradient-beltrami", "--proj", "oblique3d_x", "--t-end", "1", "-o", str(out)]
        assert main(argv) == 0
        assert "cabinet projection" in out.read_text()

    def test_fiber_projection_requires_fiber(self, capsys):
        assert main(["plot", "gradient-beltrami", "--proj", "xi12", "--t-end", "1"]) == 2
        assert "absent" in capsys.readouterr().err

    def test_plot_from_trajectory_file(self, tmp_path, capsys):
        data = tmp_path / "traj.json"
        assert main([
            "simulate", "almost-leibniz-ex2", "--t-end", "1", "--format", "json", "-o", str(data)
        ]) == 0
        out = tmp_path / "traj.svg"
        assert main(["plot", str(data), "--proj", "x23", "-o", str(out)]) == 0
        assert "<polyline" in out.read_text()

    def test_unknown_source(self, capsys):
        assert main(["plot", "no-such-thing", "--proj", "x12"]) == 2
        err = capsys.readouterr().err
        assert "neither a catalog entry" in err

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["plot", "almost-leibniz-ex3", "--proj", "x13", "--t-end", "1"]
        assert main(argv) == 0
        assert (tmp_path / "almost-leibniz-ex3-x13.svg").exists()

    def test_custom_title(self, tmp_path):
        out = tmp_path / "orbit.svg"
        argv = [
            "plot", "almost-leibniz-ex2", "--proj", "x12", "--t-end", "1",
            "--title", "orbit of interest", "-o", str(out),
        ]
        assert main(argv) == 0
        assert "orbit of interest" in out.read_text()

    def test_title_markup_is_escaped(self, tmp_path):
        out = tmp_path / "orbit.svg"
        argv = [
            "plot", "almost-leibniz-ex2", "--proj", "x12", "--t-end", "1",
            "--title", "a & b < c > d \"e\" 'f'", "-o", str(out),
        ]
        assert main(argv) == 0
        assert ">a &amp; b &lt; c &gt; d &quot;e&quot; 'f'</text>" in out.read_text()

    def test_svg_deterministic(self, tmp_path):
        outs = []
        for stem in ("one", "two"):
            out = tmp_path / f"{stem}.svg"
            argv = ["plot", "gradient-beltrami", "--proj", "x12", "--t-end", "1", "-o", str(out)]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_degenerate_extent_still_renders(self, tmp_path):
        # a trajectory frozen at a fixed point projects to a single spot
        data = tmp_path / "flat.json"
        assert main([
            "simulate", "gradient-beltrami", "--gamma=0,0,0",
            "--method", "rk4", "--step", "0.1", "--t-end", "1",
            "--format", "json", "-o", str(data),
        ]) == 0
        out = tmp_path / "flat.svg"
        assert main(["plot", str(data), "--proj", "x12", "-o", str(out)]) == 0
        assert "<polyline" in out.read_text()


class TestExport:
    def test_export_and_reverify(self, tmp_path, capsys):
        out = tmp_path / "structure.json"
        assert main(["export", "maxwell-bloch-algebroid", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        report = capsys.readouterr().out
        assert "classification: general" in report
        assert "result: ok" in report

    def test_exported_top_structure_classifies_pre_lie(self, tmp_path, capsys):
        out = tmp_path / "structure.json"
        assert main(["export", "rigid-body-algebroid", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "pre_lie"
        assert doc["ok"] is True

    def test_default_export_filename(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["export", "rigid-body-algebroid"]) == 0
        assert (tmp_path / "rigid-body-algebroid-structure.json").exists()

    def test_export_needs_fiber_linear_entry(self, capsys):
        assert main(["export", "revised-rigid-body"]) == 2
        assert "no structure-file representation" in capsys.readouterr().err

    def test_verify_rejects_missing_source(self, capsys):
        assert main(["verify", "nothing-here.json"]) == 2
        assert "neither a catalog entry" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"


class TestVerifyBuildsOnce:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_catalog_build_calls(self, name, monkeypatch, capsys):
        # one build per verified entry; the metriplectic algebroid's cross-check
        # builds the damped top on its own
        calls = []
        build = catalog.catalog_build

        def counting(*args, **kwargs):
            calls.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(catalog, "catalog_build", counting)
        monkeypatch.setattr(cli, "catalog_build", counting)
        assert main(["verify", name, "--json"]) == 0
        json.loads(capsys.readouterr().out)
        if name == "rigid-body-metriplectic-algebroid":
            assert calls == [name, "revised-rigid-body"]
        else:
            assert calls == [name]


class TestVerifyFlagsReachTheBuild:
    """``verify NAME`` with entry flags reports what the library reports on
    the entry built from the same parameters, certifications included."""

    CASES = [(name, {}, False) for name in ENTRY_NAMES] + [
        ("gradient-beltrami", {"gamma": ("1/2", "1", "-3/2"), "s": ("1", "-1", "1")}, False),
        ("revised-rigid-body", {"a": ("7/10", "1/2", "3/10")}, False),
        ("rigid-body-algebroid", {"a": ("9/10", "1/4", "1/20")}, False),
        ("rigid-body-metriplectic-algebroid", {"a": ("7/10", "1/2", "3/10")}, False),
    ] + [(name, {}, True) for name in ENTRY_NAMES]

    @pytest.mark.parametrize("name, params, symbolic", CASES)
    def test_same_report_as_the_library(self, name, params, symbolic, capsys):
        entry = catalog_build(name, params, symbolic)
        report = dataclasses.replace(
            catalog.catalog_verify(entry), certifications=tuple(catalog.entry_certifications(entry))
        )
        flags = [f"--{key}={','.join(values)}" for key, values in params.items()]
        flags += ["--symbolic"] if symbolic else []
        assert main(["verify", name, *flags, "--json"]) == (0 if report.ok() else 1)
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is report.ok()
        assert doc["entries"] == [json.loads(json.dumps(report.to_dict()))]


class TestParameterChecks:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "gradient-beltrami", "--a=3,2,1"],
            ["verify", "revised-rigid-body", "--s=1,1,1"],
            ["simulate", "rigid-body-algebroid", "--gamma=1,1,-2"],
            ["verify", "almost-leibniz-ex2", "--a=3,2,1"],
        ],
    )
    def test_parameters_an_entry_does_not_take(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: entry ") and err.count("\n") == 1


class TestEntryFlagsOnFiles:
    """Entry and integrator flags given with a file were once ignored without a word."""

    @staticmethod
    def _trajectory_file(tmp_path):
        doc = {"chart": ["x1", "x2"], "times": [0, 1], "states": [[0, 1], [1, 2]], "status": 0, "accepted": 1, "rejected": 0}
        path = tmp_path / "orbit.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--a=1,2,3", "--symbolic", "--gamma=5"], "--gamma, --a, --symbolic"),
            (["--s=1,1,1"], "--s"),
        ],
    )
    def test_verify_structure_file(self, capsys, flags, named):
        assert main(["verify", str(DATA / "rigid-body-algebroid-structure.json"), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: entry flags ({named}) do not apply to a structure file\n"

    @pytest.mark.parametrize(
        "flags, named",
        [(["--a=1,2,3"], "--a"), (["--symbolic"], "--symbolic")],
    )
    def test_plot_trajectory_file(self, tmp_path, capsys, flags, named):
        path = self._trajectory_file(tmp_path)
        out = tmp_path / "orbit.svg"
        assert main(["plot", str(path), *flags, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: entry flags ({named}) do not apply to a trajectory file\n"
        assert not out.exists()
        # without the entry flag the same file plots
        assert main(["plot", str(path), "-o", str(out)]) == 0

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--t-end", "1"], "--t-end"),
            (["--step", "0.5"], "--step"),
            (["--tol", "1"], "--tol"),
            (["--method", "rk4"], "--method"),
            (["--max-steps", "1"], "--max-steps"),
        ],
    )
    def test_integrator_flag_on_trajectory_file(self, tmp_path, capsys, flags, named):
        path = self._trajectory_file(tmp_path)
        out = tmp_path / "orbit.svg"
        assert main(["plot", str(path), *flags, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: integrator flags ({named}) do not apply to a trajectory file\n"
        assert not out.exists()


class TestGoldenOutput:
    """Byte-for-byte pins of certificate and export output.

    The residual strings fix term order and number formatting, so any change
    to the exact arithmetic that alters a result, or how it prints, fails here.
    """

    @pytest.mark.parametrize(
        "flags, golden",
        [([], "verify_all.json"), (["--symbolic"], "verify_all_symbolic.json")],
    )
    def test_verify_all_json(self, capsys, flags, golden):
        assert main(["verify", "--all", "--json", *flags]) == 0
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

    @pytest.mark.parametrize(
        "flags, golden", [([], "verify-structure-file.txt"), (["--json"], "verify-structure-file.json")]
    )
    def test_verify_structure_file(self, capsys, monkeypatch, flags, golden):
        # run from the data directory so the report names the bare file
        monkeypatch.chdir(DATA)
        assert main(["verify", "rigid-body-metriplectic-algebroid-structure.json", *flags]) == 0
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

    def test_derived_flows(self):
        # multi-term polynomials: the flows and the exact derivatives of the
        # observables along them, for every entry with numeric and symbolic
        # parameters
        lines = []
        for name in ENTRY_NAMES:
            for symbolic in (False, True):
                entry = catalog_build(name, symbolic=symbolic)
                system = entry.system
                tag = f"{name} symbolic={symbolic}"
                for coord, rhs in zip(system.chart.names, system.rhs):
                    lines.append(f"{tag} d{coord}/dt = {rhs}")
                for obs, f in entry.observables.items():
                    lines.append(f"{tag} d({obs})/dt = {lie_derivative(system, f)}")
        text = "\n".join(lines) + "\n"
        assert text.encode() == (DATA / "derived_flows.txt").read_bytes()

    @pytest.mark.parametrize(
        "entry",
        ["maxwell-bloch-algebroid", "rigid-body-algebroid", "rigid-body-metriplectic-algebroid"],
    )
    def test_export(self, tmp_path, capsys, entry):
        out = tmp_path / "structure.json"
        assert main(["export", entry, "-o", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{entry}-structure.json").read_bytes()

    @pytest.mark.parametrize(
        "method, method_flags",
        [
            ("rk4", ["--step", "1e-3", "--t-end", "0.05"]),
            # the default tolerance; the symbolic gradient flow rejects one step
            ("rk45", ["--t-end", "2"]),
        ],
    )
    @pytest.mark.parametrize("suffix", ["csv", "json"])
    @pytest.mark.parametrize(
        "entry, flags, golden",
        [
            ("rigid-body-metriplectic-algebroid", [], "simulate-rigid-body-metriplectic-algebroid"),
            ("gradient-beltrami", ["--symbolic"], "simulate-gradient-beltrami-symbolic"),
        ],
    )
    def test_simulate(self, tmp_path, capsys, entry, flags, golden, suffix, method, method_flags):
        # trajectory rows, observable values and their drift and monotonicity
        out = tmp_path / f"orbit.{suffix}"
        argv = ["simulate", entry, *flags, "--method", method, *method_flags]
        assert main([*argv, "-o", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{golden}-{method}.{suffix}").read_bytes()

    @pytest.mark.parametrize("projection", ["x12", "oblique3d_xi"])
    def test_plot(self, tmp_path, capsys, projection):
        entry = "rigid-body-metriplectic-algebroid"
        out = tmp_path / "orbit.svg"
        assert main(["plot", entry, "--proj", projection, "--t-end", "2", "-o", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"plot-{entry}-{projection}.svg").read_bytes()


class TestPlotSpec:
    def test_projection_axes_known(self):
        assert projection_axes("x12") == ("x1", "x2")
        assert projection_axes("oblique3d_xi") == ("xi1", "xi2", "xi3")
        assert set(PROJECTIONS) == set(
            ["x12", "x13", "x23", "xi12", "xi13", "xi23", "oblique3d_x", "oblique3d_xi"]
        )

    def test_bad_projection_rejected(self):
        with pytest.raises(ProjectionError):
            PlotSpec(projection="x99")
        with pytest.raises(ProjectionError):
            projection_axes("x99")

    def test_dimensions_must_clear_margins(self):
        with pytest.raises(ProjectionError):
            PlotSpec(projection="x12", width=50, height=480)


class _ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone away, as in ``leibniz verify --all | head``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv", [["verify", "--all"], ["simulate", "revised-rigid-body", "--t-end", "1"]]
    )
    def test_closed_stdout_exits_1_quietly(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(argv) == 1
        assert capsys.readouterr().err == ""

    def test_closed_pipe_leaves_nothing_at_shutdown(self):
        # the interpreter's final flush of stdout must not fail a second time
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(leibniz.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "leibniz.cli", "list"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_python_dash_m_leibniz(self):
        # a source checkout runs like the installed ``leibniz`` script
        src = str(Path(leibniz.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "leibniz", "list"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout == (DATA / "list.txt").read_bytes()


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(leibniz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "leibniz.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestOneLineErrors:
    """Failures that once ended in a traceback or a wrong exit code give one
    ``error:`` line: exit 2 for a usage error, 1 for an integration that
    stopped early."""

    def _assert_one_line_error(self, proc, fragment):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: ")
        assert fragment in proc.stderr

    def test_output_into_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        proc = _run_cli("simulate", "revised-rigid-body", "--t-end", "1", "-o", str(out))
        self._assert_one_line_error(proc, "No such file or directory")
        assert proc.stdout == ""

    def test_structure_over_degree_cap(self, tmp_path):
        doc = json.loads((DATA / "rigid-body-algebroid-structure.json").read_text())
        doc["rho1"][0][0] = "x3^16"
        doc["C"][0][0][0] = "x1^16"
        path = tmp_path / "over-cap.json"
        path.write_text(json.dumps(doc))
        proc = _run_cli("verify", str(path))
        self._assert_one_line_error(proc, "exceeds cap")

    @pytest.mark.parametrize("step", ["1", "1e-300"])
    def test_step_count_in_scientific_notation(self, step):
        # 1e300 steps printed in full ran to 301 digits; 1e300/1e-300 overflows to inf
        argv = ["simulate", "revised-rigid-body", "--method", "rk4", "--step", step, "--t-end", "1e300"]
        proc = _run_cli(*argv)
        self._assert_one_line_error(proc, "max_steps=200000")
        assert len(proc.stderr) < 100

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance(self, tol):
        # nan once rejected every step (status 3), inf accepted every step
        proc = _run_cli("simulate", "revised-rigid-body", "--tol", tol, "--t-end", "1")
        self._assert_one_line_error(proc, "abs_tol and rel_tol must be positive and finite")
        assert proc.stdout == ""

    def test_zero_denominator_parameter(self):
        proc = _run_cli("verify", "revised-rigid-body", "--a=1/0,1,1")
        self._assert_one_line_error(proc, "zero denominator")

    def test_zero_denominator_in_structure_file(self, tmp_path):
        doc = json.loads((DATA / "maxwell-bloch-algebroid-structure.json").read_text())
        doc["C"][0][1][2] = "1/0"
        path = tmp_path / "zero-denominator.json"
        path.write_text(json.dumps(doc))
        proc = _run_cli("verify", str(path))
        self._assert_one_line_error(proc, "zero denominator in '1/0'")

    def test_malformed_structure_shape(self, tmp_path):
        doc = json.loads((DATA / "maxwell-bloch-algebroid-structure.json").read_text())
        doc["C"] = 5
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        proc = _run_cli("verify", str(path))
        self._assert_one_line_error(proc, "malformed structure data")

    @pytest.mark.parametrize(
        "command, symbolic, verify_code",
        [
            (["simulate"], [], 0),
            # a symbolic build keeps a1 exact in its initial state; only integrate takes floats
            (["simulate"], ["--symbolic"], 0),
            (["plot", "-o", "orbit.svg"], [], 0),
        ],
        ids=["simulate", "simulate-symbolic", "plot"],
    )
    def test_parameter_beyond_float_range(
        self, tmp_path, monkeypatch, capsys, command, symbolic, verify_code
    ):
        # exact arithmetic takes a1 = 1e400; a float coefficient or initial value cannot
        monkeypatch.chdir(tmp_path)
        entry_flags = ["revised-rigid-body", "--a=1e400,2,1", *symbolic]
        assert main([*command, *entry_flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "orbit.svg").exists()
        assert main(["verify", *entry_flags]) == verify_code
        assert capsys.readouterr().err.count("\n") == (verify_code == 2)

    @pytest.mark.parametrize(
        "command", [["simulate", "-o", "orbit.csv"], ["plot", "-o", "orbit.svg"]], ids=["simulate", "plot"]
    )
    def test_integration_stopped_early(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        argv = [*command, "revised-rigid-body", "--method", "rk45", "--max-steps", "3", "--t-end", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "orbit.svg").exists()


class TestReadersFoundByFuzzing:
    """Inputs from ``tests/test_fuzz.py`` that once ended in a traceback."""

    def test_one_variable_base_structure(self, tmp_path, capsys):
        path = tmp_path / "n1.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "C": [[["x1"]]], "rho1": [["0"]], "rho2": [["0"]]}))
        assert main(["verify", str(path), "--json"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["file"] == str(path)

    @pytest.mark.parametrize(
        "doc",
        [
            json.dumps({"n": 1, "m": float("inf"), "C": [], "rho1": [[]], "rho2": [[]]}),
            # the chart is never built from n alone: this one would not fit in memory
            json.dumps({"n": 10**12, "m": 1, "C": [[["0"]]], "rho1": [["0"]], "rho2": [["0"]]}),
            "not json",
            pytest.param("[" * 100_000, id="too-deep"),  # deeper than the decoder can recurse
        ],
    )
    def test_malformed_structure_numbers(self, tmp_path, capsys, doc):
        path = tmp_path / "structure.json"
        path.write_text(doc)
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed structure data") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"chart": ["x1", "x2"], "times": [0, 1], "states": [[0, 1], [1, 2]], "status": float("inf"), "accepted": 1, "rejected": 0}),
            "not json",
            "[" * 100_000,
            json.dumps({"chart": "x1x", "times": [0, 1], "states": [[0, 1, 2], [1, 2, 3]], "status": 0, "accepted": 1, "rejected": 0}),
            json.dumps({"chart": ["x1", "x1"], "times": [0, 1], "states": [[0, 1], [1, 2]], "status": 0, "accepted": 1, "rejected": 0}),
        ],
        ids=["infinite-status", "not-json", "too-deep", "string-chart", "repeated-name"],
    )
    def test_infinite_trajectory_status(self, tmp_path, capsys, text):
        path = tmp_path / "orbit.json"
        path.write_text(text)
        assert main(["plot", str(path), "-o", str(tmp_path / "orbit.svg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed trajectory document") and err.count("\n") == 1

    def test_large_constant_coordinate(self, tmp_path, capsys):
        # a flat range padded by +-1.0 collapsed to zero width from 2**53 on
        doc = {"chart": ["x1", "x2"], "times": [0.0, 1.0], "states": [[9007199254740996.0, 1.0], [9007199254740996.0, 2.0]], "status": 0, "accepted": 1, "rejected": 0}
        path = tmp_path / "orbit.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "orbit.svg"
        assert main(["plot", str(path), "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert 'points="320.00,409.09 320.00,70.91"' in out.read_text()

    @pytest.mark.parametrize(
        "states, times",
        [
            ([[0.0, 1.0], [float("inf"), 2.0]], [0.0, 1.0]),
            ([[0.0, 1.0], [float("nan"), 2.0]], [0.0, 1.0]),
            ([[1e308, 0.0], [-1e308, 1.0]], [0.0, 1.0]),  # the range overflows
            ([[0.0, 1.0], [1.0, 2.0]], "0"),  # times is not a list
        ],
    )
    def test_unplottable_trajectory_file(self, tmp_path, capsys, states, times):
        doc = {"chart": ["x1", "x2"], "times": times, "states": states, "status": 0, "accepted": 1, "rejected": 0}
        path = tmp_path / "orbit.json"
        path.write_text(json.dumps(doc))
        assert main(["plot", str(path), "-o", str(tmp_path / "orbit.svg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "orbit.svg").exists()


def _call(argv, capsys, monkeypatch):
    """Exit code, stdout, stderr and the parsed flags of one ``main`` call."""
    seen = []
    handler = cli.cmd_verify

    def recording(args):
        seen.append(dict(vars(args)))
        return handler(args)

    monkeypatch.setattr(cli, "cmd_verify", recording)
    code = main(argv)
    monkeypatch.setattr(cli, "cmd_verify", handler)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, seen


class TestSharedParser:
    """``main`` builds its parser once per process, and no call leaks into the next."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    SEQUENCE = (
        ["verify", "revised-rigid-body", "--a=7/10,1/2,3/10", "--json"],
        ["verify", "revised-rigid-body", "--json"],
        ["verify", "revised-rigid-body", "--strict"],
        ["verify", "revised-rigid-body"],
        # a misprint: the exit code and the verdict follow --strict
        ["verify", "maxwell-bloch-algebroid", "--strict"],
        ["verify", "maxwell-bloch-algebroid"],
    )

    def test_calls_in_sequence_match_calls_alone(self, capsys, monkeypatch):
        in_sequence = [_call(argv, capsys, monkeypatch) for argv in self.SEQUENCE]
        alone = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            alone.append(_call(argv, capsys, monkeypatch))
        assert in_sequence == alone
        assert [r[0] for r in alone] == [0, 0, 0, 0, 1, 0]
        assert alone[0][3][0]["a"] == "7/10,1/2,3/10" and alone[1][3][0]["a"] is None

    def test_repeated_params_do_not_accumulate(self, capsys, monkeypatch):
        argv = ["verify", "revised-rigid-body", "--a=1,1,1", "--a=7/10,1/2,3/10"]
        first, second = _call(argv, capsys, monkeypatch), _call(argv, capsys, monkeypatch)
        assert first == second
        assert first[0] == 0
        assert first[3][0]["a"] == "7/10,1/2,3/10"
        assert _call(["verify", "revised-rigid-body"], capsys, monkeypatch)[3][0]["a"] is None

    def test_usage_error_then_help_then_valid_call(self, capsys):
        assert main(["verify", "revised-rigid-body", "--no-such-flag"]) == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        assert main(["verify", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: leibniz verify")
        assert main(["verify", "revised-rigid-body"]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("result: ok\n") and captured.err == ""

    def test_built_once_per_process(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        assert main(["list"]) == 0
        assert main(["verify", "revised-rigid-body"]) == 0
        assert main(["frobnicate"]) == 2
        assert main(["list", "--json"]) == 0
        assert len(built) == 1
        # the public builder still gives a new parser on every call
        assert build() is not build()

    @pytest.mark.parametrize(
        "argv, golden",
        [([], "help.txt"), (["verify"], "help-verify.txt"), (["simulate"], "help-simulate.txt")],
    )
    def test_help_golden(self, capsys, monkeypatch, argv, golden):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([*argv, "--help"]) == 0
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

    def test_help_width_is_read_when_printed(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["verify", "--help"]) == 0
        narrow = capsys.readouterr().out
        monkeypatch.setenv("COLUMNS", "120")
        assert main(["verify", "--help"]) == 0
        wide = capsys.readouterr().out
        assert narrow.encode() == (DATA / "help-verify.txt").read_bytes()
        assert wide != narrow
        assert max(map(len, narrow.splitlines())) <= 80 < max(map(len, wide.splitlines())) <= 120

