"""Tests for sdlint pass 1: the catalog cross-check (SD101-SD104)."""

import pytest

from repro.analysis import catalog
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.extract import (
    SAMPLE_APP_ID,
    SAMPLE_CONTAINER_ID,
    EmissionSite,
    extract_emissions,
    extract_state_machines,
)
from repro.core import messages as msg
from repro.core.events import EventKind


@pytest.fixture(scope="module")
def machines(src_index):
    return extract_state_machines(src_index)


@pytest.fixture(scope="module")
def emissions(src_index):
    return extract_emissions(src_index)


class TestExtraction:
    def test_finds_the_three_yarn_machines(self, machines):
        names = {m.name for m in machines}
        assert {
            "RMAppStateMachine",
            "RMContainerStateMachine",
            "NMContainerStateMachine",
        } <= names

    def test_template_override_and_inheritance(self, machines):
        by_name = {m.name: m for m in machines}
        # RMAppStateMachine inherits the base-class default template.
        assert "State change from" in by_name["RMAppStateMachine"].template
        # The container machines override it.
        assert "Container Transitioned" in by_name["RMContainerStateMachine"].template
        assert by_name["NMContainerStateMachine"].template.startswith("Container ")

    def test_transition_tables_extracted_verbatim(self, machines):
        by_name = {m.name: m for m in machines}
        rmapp = by_name["RMAppStateMachine"]
        assert rmapp.transitions[("ACCEPTED", "ATTEMPT_REGISTERED")] == "RUNNING"
        assert rmapp.initial == "NEW"
        assert rmapp.short_cls == "RMAppImpl"

    def test_emissions_include_the_sdchecker_markers(self, emissions):
        rendered = [e.rendered for e in emissions]
        assert any(r.startswith("SDCHECKER START_ALLO") for r in rendered)
        assert any(r.startswith("SDCHECKER END_ALLO") for r in rendered)
        assert any(r.startswith("Registered ApplicationMaster for") for r in rendered)

    def test_rendered_marker_lines_classify(self, emissions):
        kinds = set()
        for site in emissions:
            hit = msg.classify_driver_line(site.rendered)
            if hit:
                kinds.add(hit[0])
        assert {
            EventKind.DRIVER_REGISTERED,
            EventKind.START_ALLO,
            EventKind.END_ALLO,
        } <= kinds

    def test_emitting_class_resolved_from_module_constant(self, emissions):
        start_allo = [
            e for e in emissions if e.rendered.startswith("SDCHECKER START_ALLO")
        ]
        assert start_allo and all(
            e.cls.endswith("YarnAllocator") for e in start_allo
        )


class TestPristineTree:
    def test_no_catalog_findings_on_pristine_tree(self, src_index):
        assert catalog.analyze(src_index) == []

    def test_roundtrip_probes_pass(self):
        assert catalog.check_id_roundtrip() == []


class TestUncoveredEmission:
    BAD_MACHINE = '''\
class DriftedRMApp:
    CLS = "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl"
    INITIAL = "NEW"
    TEMPLATE = "%(entity)s State chnge from %(old)s to %(new)s on event = %(event)s"
    TRANSITIONS = {("NEW", "APP_NEW_SAVED"): "SUBMITTED"}
'''

    def test_template_drift_fires_sd101(self, tmp_path):
        (tmp_path / "drifted.py").write_text(self.BAD_MACHINE)
        machines = extract_state_machines(ProjectIndex.build(tmp_path))
        assert len(machines) == 1
        findings = catalog.check_machine_catalog(machines)
        assert [f.rule for f in findings] == ["SD101"]
        assert "State chnge" in findings[0].message
        assert findings[0].severity == "error"

    def test_unrenderable_template_fires_sd101(self, tmp_path):
        source = self.BAD_MACHINE.replace("%(entity)s", "%(entty)s")
        (tmp_path / "drifted.py").write_text(source)
        findings = catalog.check_machine_catalog(extract_state_machines(ProjectIndex.build(tmp_path)))
        assert findings and findings[0].rule == "SD101"
        assert "does not render" in findings[0].message


class TestAmbiguity:
    def test_probe_lines_each_match_at_most_one_classifier(self):
        for probe in catalog.AMBIGUITY_PROBES:
            assert len(catalog.matching_classifiers(probe)) <= 1, probe

    def test_overlapping_classifiers_fire_sd102(self):
        site = EmissionSite(
            path="x.py", line=3, cls="", rendered="Got assigned task 5", source=""
        )
        overlapping = (
            ("first", msg.classify_first_task_line),
            ("second", msg.classify_first_task_line),
        )
        findings = catalog.check_ambiguity([site], classifiers=overlapping)
        assert [f.rule for f in findings] == ["SD102"]
        assert "first" in findings[0].message and "second" in findings[0].message

    def test_real_emissions_are_unambiguous(self, emissions):
        assert catalog.check_ambiguity(emissions) == []


class TestClassifierCoverage:
    def test_empty_tree_orphans_every_catalog_entry(self):
        findings = catalog.check_classifier_coverage([], [])
        rules = {f.rule for f in findings}
        assert rules == {"SD103"}
        text = " ".join(f.message for f in findings)
        for needle in (
            "RMAppImpl",
            "RMContainerImpl",
            "ContainerImpl",
            "START_ALLO",
            "FIRST_TASK",
            "MR_TASK_DONE",
        ):
            assert needle in text

    def test_pristine_tree_covers_everything(self, machines, emissions):
        assert catalog.check_classifier_coverage(machines, emissions) == []


class TestIdRoundTrip:
    def test_broken_grouping_fires_sd104(self, monkeypatch):
        monkeypatch.setattr(msg, "app_id_of_container", lambda cid: None)
        findings = catalog.check_id_roundtrip()
        assert findings and {f.rule for f in findings} == {"SD104"}
        assert len(findings) == len(catalog.ROUNDTRIP_PROBES)

    def test_probes_cover_epoch_and_wide_attempt_forms(self):
        probes = [cid for cid, _app in catalog.ROUNDTRIP_PROBES]
        assert any("_e17_" in cid for cid in probes)
        assert any("_117_" in cid for cid in probes)
        assert SAMPLE_CONTAINER_ID in probes
        assert all(app == SAMPLE_APP_ID for _cid, app in catalog.ROUNDTRIP_PROBES)
