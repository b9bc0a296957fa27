"""Tests for sdlint pass 2: state-machine analysis (SD201-SD204)."""

from repro.analysis import statemachines
from repro.analysis.extract import StateMachineSpec

RMAPP_CLS = "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl"


def make_spec(transitions, initial="NEW", cls=RMAPP_CLS, name="TestMachine"):
    return StateMachineSpec(
        name=name,
        cls=cls,
        initial=initial,
        template="%(entity)s State change from %(old)s to %(new)s on event = %(event)s",
        transitions=transitions,
        path="x.py",
        line=1,
    )


class TestReachability:
    def test_unreachable_state_and_dead_transition(self):
        spec = make_spec(
            {
                ("NEW", "GO"): "A",
                ("A", "BACK"): "NEW",
                ("ORPHAN", "X"): "B",
            }
        )
        findings = statemachines.analyze_machine(spec)
        rules = sorted(f.rule for f in findings)
        # ORPHAN and B unreachable, the ORPHAN->B transition dead, and
        # the NEW<->A cycle has no terminal state.
        assert rules.count("SD201") == 2
        assert rules.count("SD202") == 1
        assert rules.count("SD203") == 1
        text = " ".join(f.message for f in findings)
        assert "ORPHAN" in text and "terminal" in text

    def test_reachable_terminal_machine_is_clean(self):
        spec = make_spec(
            {
                ("NEW", "START"): "SUBMITTED",
                ("SUBMITTED", "APP_ACCEPTED"): "ACCEPTED",
            }
        )
        findings = statemachines.analyze_machine(spec)
        # SUBMITTED/ACCEPTED are catalog states; only NEW->SUBMITTED...
        # everything reachable, ACCEPTED terminal, all states visible.
        assert [f for f in findings if f.rule != "SD204"] == []

    def test_reachable_states_helper(self):
        reachable = statemachines.reachable_states(
            {("A", "x"): "B", ("B", "y"): "C", ("D", "z"): "E"}, "A"
        )
        assert reachable == {"A", "B", "C"}


class TestVisibility:
    def test_unknown_machine_class_flagged_once(self):
        spec = make_spec(
            {("NEW", "GO"): "DONE"},
            cls="org.example.SomeOtherMachine",
            name="Mystery",
        )
        findings = statemachines.analyze_machine(spec)
        sd204 = [f for f in findings if f.rule == "SD204"]
        assert len(sd204) == 1
        assert "no Table I classifier" in sd204[0].message

    def test_invisible_transitions_are_info_severity(self):
        spec = make_spec({("NEW", "START"): "NEW_SAVING"})
        findings = statemachines.analyze_machine(spec)
        sd204 = [f for f in findings if f.rule == "SD204"]
        assert sd204 and all(f.severity == "info" for f in sd204)


class TestPristineTree:
    def test_only_known_invisible_transitions(self, src_index):
        findings = statemachines.analyze(src_index)
        assert findings and {f.rule for f in findings} == {"SD204"}
        assert all(f.severity == "info" for f in findings)

    def test_the_five_accepted_invisible_transitions(self, src_index):
        # Was six before the Table I′ taxonomy extension: KILLING became
        # a mined catalog state, so the SCHEDULED -> KILLING transition
        # is now SDchecker-visible and no longer flagged.
        messages = sorted(f.message for f in statemachines.analyze(src_index))
        assert len(messages) == 5
        assert sum("NMContainerStateMachine" in m for m in messages) == 3
        assert sum("RMAppStateMachine" in m for m in messages) == 2
