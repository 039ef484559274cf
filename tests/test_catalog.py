"""Tests for the built-in example catalog: builds, reference diffs, certifications."""

import dataclasses
import json
from fractions import Fraction

import pytest

from leibniz import catalog
from leibniz.algebroid import AlgebroidStructure, structure_from_json
from leibniz.brackets import TensorField2
from leibniz.catalog import (
    ENTRY_NAMES,
    CatalogEntry,
    CheckResult,
    ParameterError,
    UnknownEntryError,
    catalog_build,
    catalog_list,
    catalog_verify,
    entry_certifications,
    entry_structure_json,
    known_misprints,
)
from leibniz.dynamics import IntegratorConfig, integrate, lie_derivative, observe
from leibniz.poly import parse_poly

REQUIRED_NAMES = {
    "gradient-beltrami",
    "revised-rigid-body",
    "almost-leibniz-ex2",
    "almost-leibniz-ex3",
    "maxwell-bloch-algebroid",
    "rigid-body-metriplectic-algebroid",
}

PARAMETERIZED = (
    "gradient-beltrami",
    "revised-rigid-body",
    "rigid-body-algebroid",
    "rigid-body-metriplectic-algebroid",
)


class TestListing:
    def test_required_names_present(self):
        assert len(ENTRY_NAMES) >= 6
        assert REQUIRED_NAMES <= set(ENTRY_NAMES)

    def test_names_distinct(self):
        assert len(set(ENTRY_NAMES)) == len(ENTRY_NAMES)

    def test_listing_shape(self):
        listing = catalog_list()
        assert [row["name"] for row in listing] == list(ENTRY_NAMES)
        for row in listing:
            assert set(row) == {"name", "kind", "params", "description"}
            assert row["description"]
        kinds = {row["kind"] for row in listing}
        assert kinds == {
            "leibniz_bracket",
            "metriplectic_pair",
            "almost_leibniz",
            "algebroid",
            "metriplectic_algebroid",
        }


class TestBuild:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_entry_is_consistent(self, name):
        entry = catalog_build(name)
        assert isinstance(entry, CatalogEntry)
        assert entry.name == name
        dim = entry.chart.dim
        assert len(entry.system.rhs) == dim
        assert len(entry.reference_rhs) == dim
        assert len(entry.x0) == dim
        assert entry.system.provenance == name
        for p in entry.reference_rhs:
            assert p.chart == entry.chart
        for p in entry.hamiltonians.values():
            assert p.chart == entry.chart
        for p in entry.observables.values():
            assert p.chart == entry.chart

    def test_unknown_name(self):
        with pytest.raises(UnknownEntryError):
            catalog_build("free-lunch")

    def test_parameterless_entries_reject_params(self):
        for name in ("almost-leibniz-ex2", "almost-leibniz-ex3", "maxwell-bloch-algebroid"):
            with pytest.raises(ParameterError):
                catalog_build(name, params={"a": (1, 2, 3)})

    def test_default_parameters_recorded(self):
        entry = catalog_build("revised-rigid-body")
        assert entry.params["a"] == (Fraction(3, 5), Fraction(2, 5), Fraction(1, 5))
        entry = catalog_build("gradient-beltrami")
        assert entry.params["gamma"] == (1, 1, -2)
        assert entry.params["s"] == (1, 1, 1)


class TestParameters:
    def test_gamma_must_sum_to_zero(self):
        with pytest.raises(ParameterError, match="sum to zero"):
            catalog_build("gradient-beltrami", params={"gamma": (1, 1, 1)})

    def test_sign_components_restricted(self):
        with pytest.raises(ParameterError, match="-1 or 1"):
            catalog_build("gradient-beltrami", params={"s": (2, 1, 1)})

    def test_a_ordering_enforced(self):
        with pytest.raises(ParameterError, match="a1 > a2 > a3 > 0"):
            catalog_build("revised-rigid-body", params={"a": ("1/5", "2/5", "3/5")})
        with pytest.raises(ParameterError):
            catalog_build("rigid-body-algebroid", params={"a": (1, 1, 1)})

    def test_a_length_checked(self):
        with pytest.raises(ParameterError, match="exactly 3"):
            catalog_build("revised-rigid-body", params={"a": (1, 2)})

    def test_symbolic_build_skips_ordering(self):
        entry = catalog_build(
            "revised-rigid-body", params={"a": ("1/5", "2/5", "3/5")}, symbolic=True
        )
        assert entry.symbolic

    def test_rational_overrides_verify_clean(self):
        rep = catalog_verify(
            catalog_build("revised-rigid-body", params={"a": ("7/10", "1/2", "3/10")})
        )
        assert rep.clean
        rep = catalog_verify(
            catalog_build("gradient-beltrami", params={"gamma": (2, -1, -1), "s": (-1, 1, -1)})
        )
        assert rep.clean


    @pytest.mark.parametrize(
        "name, params, unexpected, takes",
        [
            ("gradient-beltrami", {"a": (3, 2, 1)}, ["a"], "takes only gamma, s"),
            ("revised-rigid-body", {"foo": (1,)}, ["foo"], "takes only a,"),
            ("rigid-body-algebroid", {"gamma": (1, 1, -2)}, ["gamma"], "takes only a,"),
            (
                "rigid-body-metriplectic-algebroid",
                {"s": (1, 1, 1), "a": (3, 2, 1)},
                ["s"],
                "takes only a,",
            ),
        ],
    )
    @pytest.mark.parametrize("symbolic", [False, True])
    def test_parameters_an_entry_does_not_take_are_refused(
        self, name, params, unexpected, takes, symbolic
    ):
        # the error names the unexpected keys and the keys the entry takes
        with pytest.raises(ParameterError, match=takes) as info:
            catalog_build(name, params=params, symbolic=symbolic)
        assert f"got {unexpected}" in str(info.value)

    def test_zero_denominator_parameter(self):
        with pytest.raises(ParameterError, match="zero denominator"):
            catalog_build("revised-rigid-body", params={"a": ("1/0", "1", "1")})


class TestVerify:
    @pytest.mark.parametrize(
        "name",
        [
            "gradient-beltrami",
            "revised-rigid-body",
            "almost-leibniz-ex2",
            "almost-leibniz-ex3",
            "rigid-body-algebroid",
            "rigid-body-metriplectic-algebroid",
        ],
    )
    def test_exact_match_entries(self, name):
        rep = catalog_verify(name)
        assert rep.clean
        assert rep.clean_modulo_known
        assert all(d.residual.is_zero for d in rep.diffs)

    def test_misprinted_entry_has_single_residual(self):
        rep = catalog_verify("maxwell-bloch-algebroid")
        bad = [d for d in rep.diffs if not d.matches]
        assert len(bad) == 1
        diff = bad[0]
        assert diff.component == "xi1"
        assert diff.residual == parse_poly(diff.derived.chart, "x2*xi3")
        assert diff.whitelisted
        assert not rep.clean
        assert rep.clean_modulo_known

    def test_misprint_residual_stable(self):
        first = catalog_verify("maxwell-bloch-algebroid")
        second = catalog_verify("maxwell-bloch-algebroid")
        res1 = {d.component: str(d.residual) for d in first.diffs if not d.matches}
        res2 = {d.component: str(d.residual) for d in second.diffs if not d.matches}
        assert res1 == res2 == {"xi1": "x2*xi3"}

    def test_metriplectic_cross_check(self):
        rep = catalog_verify("rigid-body-metriplectic-algebroid")
        names = {c.name: c.passed for c in rep.checks}
        assert names["base-flow-equals-damped-top"]

    def test_report_rendering(self):
        rep = catalog_verify("maxwell-bloch-algebroid")
        text = "\n".join(rep.lines())
        assert "known misprint" in text
        assert "x2*xi3" in text
        assert "match" in text

    def test_report_serializable(self):
        rep = catalog_verify("rigid-body-metriplectic-algebroid")
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["entry"] == "rigid-body-metriplectic-algebroid"
        assert doc["clean"] is True
        assert {c["name"] for c in doc["checks"]} == {"base-flow-equals-damped-top"}

    def test_verdict_counts_certifications(self):
        # clean and clean_modulo_known read the diffs and checks only; ok adds
        # the certifications, a whitelisted one passing unless strict
        rep = catalog_verify("revised-rigid-body")
        known = dataclasses.replace(rep, certifications=(CheckResult("c", False, True),))
        failed = dataclasses.replace(rep, certifications=(CheckResult("c", False),))
        assert rep.ok(strict=True) and known.ok() and not known.ok(strict=True)
        assert not failed.ok() and failed.clean
        assert known.lines()[-2:] == ["  certification c: known discrepancy", "  result: ok"]
        assert known.lines(strict=True)[-2:] == ["  certification c: FAIL", "  result: FAILED"]
        assert known.to_dict()["ok"] and not known.to_dict(strict=True)["ok"]
        assert failed.to_dict()["certifications"] == [
            {"name": "c", "passed": False, "whitelisted": False, "detail": ""}
        ]


class TestSymbolic:
    @pytest.mark.parametrize("name", PARAMETERIZED)
    def test_symbolic_reference_match(self, name):
        rep = catalog_verify(catalog_build(name, symbolic=True))
        assert rep.clean_modulo_known
        for check in rep.checks:
            assert check.passed

    def test_symbolic_chart_carries_parameters(self):
        entry = catalog_build("rigid-body-algebroid", symbolic=True)
        assert {"a1", "a2", "a3"} <= set(entry.chart.base)
        assert len(entry.x0) == entry.chart.dim

    def test_symbolic_and_numeric_flows_agree(self):
        config = IntegratorConfig(method="rk4_fixed", t_end=2.0, step=1e-3)
        numeric = catalog_build("gradient-beltrami")
        symbolic = catalog_build("gradient-beltrami", symbolic=True)
        traj_n = integrate(numeric.system, numeric.x0, config)
        traj_s = integrate(symbolic.system, symbolic.x0, config)
        assert traj_n.ok and traj_s.ok
        for i in range(3):
            assert traj_n.states[-1, i] == pytest.approx(traj_s.states[-1, i], abs=1e-12)
        # parameter coordinates stay frozen at their initial values
        for j in range(3, 6):
            assert traj_s.states[-1, j] == traj_s.states[0, j]


class TestCertifications:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_certifications_pass_or_are_documented(self, name):
        entry = catalog_build(name)
        for check in entry_certifications(entry):
            assert check.passed or check.whitelisted, check

    def test_known_annihilation_defect_is_flagged(self):
        entry = catalog_build("rigid-body-metriplectic-algebroid")
        by_name = {c.name: c for c in entry_certifications(entry)}
        defect = by_name["annihilation:first-structure:second-generator"]
        assert not defect.passed
        assert defect.whitelisted
        assert "xi1" in defect.detail
        partner = by_name["annihilation:second-structure:first-generator"]
        assert partner.passed

    @pytest.mark.parametrize("name", ["maxwell-bloch-algebroid", "rigid-body-metriplectic-algebroid"])
    def test_nonlinear_tensor_is_a_failed_check(self, name, monkeypatch):
        assemble = catalog.lambda_from_structure

        def nonlinear(A):
            T = assemble(A)
            n, chart = A.n, T.chart
            entries = [list(row) for row in T.entries]
            entries[n][n + 1] = parse_poly(chart, "xi1*xi2")
            return TensorField2(chart, entries)

        monkeypatch.setattr(catalog, "lambda_from_structure", nonlinear)
        by_name = {c.name: c for c in entry_certifications(catalog_build(name))}
        linearity = by_name["fiberwise-linearity"]
        assert not linearity.passed and not linearity.whitelisted
        assert "fiber degree 1" in linearity.detail
        compatibility = by_name["structure-tensor-compatibility"]
        assert not compatibility.passed and "not fiberwise linear" in compatibility.detail


class TestWhitelist:
    def test_records_well_formed(self):
        records = known_misprints()
        assert len(records) >= 4
        for rec in records:
            assert {"entry", "check", "component", "residual", "note"} <= set(rec)
            assert rec["entry"] in ENTRY_NAMES
            chart = catalog_build(rec["entry"]).chart
            parse_poly(chart, rec["residual"])  # must parse on the entry's chart

    def test_whitelist_is_specific(self):
        # only the recorded component is excused; other entries show none
        rep = catalog_verify("almost-leibniz-ex2")
        assert not any(d.whitelisted for d in rep.diffs)


class TestDynamicsIntegration:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_entries_integrate(self, name):
        entry = catalog_build(name)
        config = IntegratorConfig(method="rk45_adaptive", t_end=2.0)
        traj = integrate(entry.system, entry.x0, config)
        assert traj.ok

    def test_misprinted_entry_invariants_hold_on_derived_flow(self):
        entry = catalog_build("maxwell-bloch-algebroid")
        for obs in entry.observables.values():
            assert lie_derivative(entry.system, obs).is_zero
        config = IntegratorConfig(method="rk4_fixed", t_end=10.0, step=1e-3)
        traj = integrate(entry.system, entry.x0, config)
        report = observe(entry.system, traj, entry.observables)
        for name in entry.observables:
            assert report[name].drift <= 1e-8

    def test_damped_top_half_norm_decays(self):
        entry = catalog_build("revised-rigid-body")
        config = IntegratorConfig(method="rk4_fixed", t_end=10.0, step=1e-3)
        traj = integrate(entry.system, entry.x0, config)
        report = observe(entry.system, traj, entry.observables)
        assert report["half-norm"].monotonicity == "nonincreasing"
        assert report["half-norm"].drift > 1e-4

    def test_algebroid_entry_conserves_generator(self):
        entry = catalog_build("rigid-body-algebroid")
        assert lie_derivative(entry.system, entry.hamiltonians["h1"]).is_zero
        assert lie_derivative(entry.system, entry.observables["half-norm-x"]).is_zero


class TestStructureExport:
    @pytest.mark.parametrize(
        "name", ["maxwell-bloch-algebroid", "rigid-body-algebroid", "rigid-body-metriplectic-algebroid"]
    )
    def test_structure_roundtrip(self, name):
        entry = catalog_build(name)
        text = entry_structure_json(entry)
        rebuilt = structure_from_json(text)
        original = entry.structure if isinstance(entry.structure, AlgebroidStructure) else entry.structure[0]
        assert rebuilt == original

    def test_non_algebroid_entries_have_no_structure_file(self):
        entry = catalog_build("revised-rigid-body")
        with pytest.raises(ValueError):
            entry_structure_json(entry)


class TestVerifyBuiltEntry:
    """``catalog_verify`` on an entry that is already built."""

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_same_report_as_by_name(self, name):
        assert catalog_verify(catalog_build(name)).to_dict() == catalog_verify(name).to_dict()

    def test_cross_check_builds_the_damped_top_with_the_entry_parameters(self, monkeypatch):
        calls = []
        build = catalog.catalog_build

        def counting(name, params=None, symbolic=False):
            calls.append((name, dict(params or {}), symbolic))
            return build(name, params, symbolic)

        entry = catalog_build("rigid-body-metriplectic-algebroid", {"a": ("7/10", "1/2", "3/10")})
        monkeypatch.setattr(catalog, "catalog_build", counting)
        report = catalog_verify(entry)
        assert calls == [("revised-rigid-body", {"a": entry.params["a"]}, False)]
        assert report.checks[0].name == "base-flow-equals-damped-top" and report.checks[0].passed


class TestMisprintData:
    def test_parsed_once_and_handed_out_as_fresh_copies(self, monkeypatch):
        first = known_misprints()
        first[0]["entry"] = "changed"
        first.clear()
        assert known_misprints()[0]["entry"] != "changed"
        assert known_misprints() == known_misprints() and known_misprints() is not known_misprints()
        monkeypatch.setattr(catalog, "resources", None)  # reading the file again would fail
        assert catalog_verify("maxwell-bloch-algebroid").clean_modulo_known
