"""The bounded check suites and their report format."""

import pytest

from hilbertrep.dfao import Dfao, hilbert_dfao
from hilbertrep.oracle import Direction, GenerationBudgetError
from hilbertrep.sync import SyncAutomaton, hilbert_sync
from hilbertrep.verify import (
    VerifyReport,
    format_report,
    verify_cross,
    verify_identities,
    verify_sync_suite,
)


def test_identities_pass_at_small_bound():
    reports = verify_identities(4)
    assert {r.name for r in reports} == {
        "origin_letter", "second_quarter_diagonal", "third_quarter_diagonal",
        "third_quarter_boundary", "fourth_quarter_rotation", "block_boundary",
    }
    assert all(r.passed for r in reports)
    assert all(r.counterexample is None for r in reports)
    assert [r.name for r in reports] == sorted(r.name for r in reports)


def test_identities_catch_a_corrupted_machine():
    m = hilbert_dfao()
    outputs = list(m.outputs)
    outputs[4] = Direction.U  # letter at index 14 flips, among others
    corrupted = Dfao(base=4, transitions=m.transitions, outputs=tuple(outputs))
    reports = verify_identities(3, machine=corrupted)
    failed = [r for r in reports if not r.passed]
    assert failed
    assert all(r.counterexample is not None for r in failed)


def test_sync_suite_passes_at_small_bound():
    reports = verify_sync_suite(3)
    assert all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert {"coords_defined", "coords_unique", "grid_covered", "grid_unique",
            "oracle_agreement", "origin_accepted", "round_trip", "zero_padding",
            "step_up", "step_right", "step_down", "step_left"} == names


def test_sync_suite_catches_a_corrupted_machine():
    m = hilbert_sync()
    transitions = {k: v for k, v in m.transitions.items() if k != (0, (1, 1, 0))}
    broken = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                           accepting=m.accepting, transitions=transitions)
    reports = verify_sync_suite(2, machine=broken)
    by_name = {r.name: r for r in reports}
    assert not by_name["coords_defined"].passed
    assert by_name["coords_defined"].counterexample is not None


def _with_transition(key, target):
    m = hilbert_sync()
    return SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                         accepting=m.accepting, transitions={**m.transitions, key: target})


def test_zero_padding_failure_is_exact():
    """The initial state leaving on (0,0,0) fails zero_padding alone, witnessed by that triple."""
    reports = verify_sync_suite(3, machine=_with_transition((0, (0, 0, 0)), 3))
    assert [(r.name, r.counterexample) for r in reports if not r.passed] == [("zero_padding", (0, 0, 0))]


def test_grid_collision_witness():
    """Two indices landing on one grid point are named, earlier index first."""
    by_name = {r.name: r for r in verify_sync_suite(3, machine=_with_transition((1, (0, 0, 0)), 4))}
    assert by_name["grid_unique"].counterexample == (16, 56)


def test_cross_checks_pass_at_small_bound():
    reports = verify_cross(3)
    assert [r.name for r in reports] == [
        "coordinates_agree", "difference_automaton_matches", "letters_agree",
    ]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("suite", [verify_identities, verify_sync_suite, verify_cross])
def test_suites_obey_the_budget_variable(monkeypatch, suite):
    """The budget is checked before any 4**bound work, whoever calls the suite."""
    monkeypatch.setenv("HILBERT_BUDGET", "3")
    with pytest.raises(GenerationBudgetError, match="budget of stage 3$"):
        suite(10**6)


def test_report_invariant():
    with pytest.raises(ValueError):
        VerifyReport(name="x", bound=1, passed=True, counterexample=(1,))
    with pytest.raises(ValueError):
        VerifyReport(name="x", bound=1, passed=False, counterexample=None)


def test_report_line_format():
    ok = VerifyReport(name="demo", bound=6, passed=True, counterexample=None)
    assert format_report(ok) == "name=demo bound=6 passed=true witness=none"
    bad = VerifyReport(name="demo", bound=6, passed=False, counterexample=(3, 17))
    assert format_report(bad) == "name=demo bound=6 passed=false witness=(3,17)"
