"""The bounded check suites and their report format."""

import random
from pathlib import Path

import pytest
from test_sync import _single_faults, _squared

from hilbertrep.cli import main
from hilbertrep.dfao import Dfao, hilbert_dfao
from hilbertrep.oracle import Direction, GenerationBudgetError
from hilbertrep import sync, verify
from hilbertrep.sync import (
    MultipleAcceptingPathsError,
    NoAcceptingPathError,
    SyncAutomaton,
    hilbert_sync,
    sync_coords,
    sync_locate,
    sync_to_text,
)
from hilbertrep.verify import (
    VerifyReport,
    format_report,
    verify_cross,
    verify_identities,
    verify_sync_suite,
)


def _assert_in_name_order(reports):
    """A suite's reports come sorted by name, each passing exactly when it has no witness."""
    assert [r.name for r in reports] == sorted(r.name for r in reports)
    assert all(r.passed == (r.counterexample is None) for r in reports)


def test_identities_pass_at_small_bound():
    reports = verify_identities(4)
    assert {r.name for r in reports} == {
        "origin_letter", "second_quarter_diagonal", "third_quarter_diagonal",
        "third_quarter_boundary", "fourth_quarter_rotation", "block_boundary",
    }
    assert all(r.passed for r in reports)
    _assert_in_name_order(reports)


def test_identities_catch_a_corrupted_machine():
    m = hilbert_dfao()
    outputs = list(m.outputs)
    outputs[4] = Direction.U  # letter at index 14 flips, among others
    corrupted = Dfao(base=4, transitions=m.transitions, outputs=tuple(outputs))
    reports = verify_identities(3, machine=corrupted)
    assert any(not r.passed for r in reports)
    _assert_in_name_order(reports)



@pytest.mark.parametrize("state, letter, failure", [
    (3, Direction.U, ("block_boundary", (1,))),  # letter 4**1 - 1 = 3 must be R
    (2, Direction.U, ("third_quarter_boundary", (0,))),  # letter 3 * 4**0 - 1 = 2 must be D
])
def test_identities_name_the_first_wrong_boundary_letter(state, letter, failure):
    m = hilbert_dfao()
    outputs = list(m.outputs)
    outputs[state] = letter
    reports = verify_identities(3, machine=Dfao(base=4, transitions=m.transitions, outputs=tuple(outputs)))
    assert failure in [(r.name, r.counterexample) for r in reports if not r.passed]

def test_sync_suite_passes_at_small_bound():
    reports = verify_sync_suite(3)
    assert all(r.passed for r in reports)
    _assert_in_name_order(reports)
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
    _assert_in_name_order(reports)
    by_name = {r.name: r for r in reports}
    assert not by_name["coords_defined"].passed


def _with_transition(key, target):
    m = hilbert_sync()
    return SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                         accepting=m.accepting, transitions={**m.transitions, key: target})


def test_sync_suite_passes_on_other_bases():
    """Bases (16, 4, 4) walk at the least digit count that reaches 4**t and the 2**t square."""
    squared = _squared(hilbert_sync())
    assert squared.bases == (16, 4, 4)
    for t in range(5):
        reports = verify_sync_suite(t, machine=squared)
        assert len(reports) == 12 and all(r.passed for r in reports), t


def test_squared_machine_reports_match_on_single_faults():
    """Squaring keeps the relation of a machine whose initial state loops on (0,0,0).

    The squared machine's walks read half as many symbols, each of two
    digits, and cut the leading symbol to reach just 4**t, so they check
    the walks of the unsquared machine on every report.
    """
    m = hilbert_sync()
    faults = [(transitions, accepting) for transitions, accepting in _single_faults(m)
              if transitions.get((m.initial, (0, 0, 0))) == m.initial]
    assert len(faults) == 440
    failing = 0
    for transitions, accepting in random.Random(9).sample(faults, 40):
        faulty = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                               accepting=accepting, transitions=transitions)
        reports = verify_sync_suite(3, machine=faulty)
        assert verify_sync_suite(3, machine=_squared(faulty)) == reports
        failing += not all(r.passed for r in reports)
    assert failing


def test_first_failing_indices_match_per_index_lookups_on_single_faults():
    """The walk's path counts name the same first undefined and first ambiguous index as lookups."""
    m = hilbert_sync()
    named = set()
    for transitions, accepting in _single_faults(m):
        faulty = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                               accepting=accepting, transitions=transitions)
        reports = {r.name: r.counterexample for r in verify_sync_suite(3, machine=faulty)}
        raised = [_raised(sync_coords, faulty, n) for n in range(4**3)]
        for name, error in (("coords_defined", NoAcceptingPathError),
                            ("coords_unique", MultipleAcceptingPathsError)):
            assert reports[name] == next(((n,) for n, e in enumerate(raised) if e is error), None)
            named.add((name, reports[name] is None))
    assert len(named) == 4  # each check both passes and fails on some fault


CENSUS = Path(__file__).parent / "data" / "fault_census.out"


def _fault_name(m, transitions, accepting) -> str:
    """The one change from m: ``3 [1,0,1] -> 9``, ``3 [1,0,1] deleted`` or ``accepting ^ 4``."""
    if accepting != m.accepting:
        return f"accepting ^ {min(accepting ^ m.accepting)}"
    key = next(k for k, target in m.transitions.items() if transitions.get(k) != target)
    q, (i, j, k) = key
    return f"{q} [{i},{j},{k}] " + ("deleted" if key not in transitions else f"-> {transitions[key]}")


def census() -> str:
    """One line per single fault of ``hilbert_sync()``, in the order of ``_single_faults``.

    Each line names the fault, then every failing report of
    ``verify_sync_suite(4)`` as name(witness); a fault that passes them all
    at t = 4 lists its t = 5 failures instead.
    """
    m = hilbert_sync()
    lines = []
    for transitions, accepting in _single_faults(m):
        faulty = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                               accepting=accepting, transitions=transitions)
        for t in (4, 5):
            failed = [f"{r.name}({','.join(map(str, r.counterexample))})"
                      for r in verify_sync_suite(t, machine=faulty) if not r.passed]
            if failed:
                break
        lines.append(f"{_fault_name(m, transitions, accepting)} | t={t} " + " ".join(failed))
    return "\n".join(lines) + "\n"


def test_single_fault_census_matches_golden():
    """Every single fault of the Hilbert machine fails the same reports with the same witnesses.

    Regenerate the golden, from the tests directory, with
    ``python -c "import sys; sys.path.insert(0, '../src'); import test_verify as v; v.CENSUS.write_text(v.census(), encoding='ascii')"``.
    """
    got, want = census().splitlines(), CENSUS.read_text(encoding="ascii").splitlines()
    assert len(got) == len(want) == 450
    mismatch = next(((g, w) for g, w in zip(got, want) if g != w), None)
    assert mismatch is None, "first differing fault: got {!r}, golden {!r}".format(*mismatch)


def _raised(lookup, *args):
    try:
        lookup(*args)
    except ValueError as exc:
        return type(exc)
    return None


def test_verify_cli_on_a_squared_machine_matches_golden(tmp_path, capsys):
    path = tmp_path / "squared.sync"
    path.write_text(sync_to_text(_squared(hilbert_sync())), encoding="ascii")
    code = main(["verify", "--gen-bound", "3", "--digit-bound", "3", "--cross-bound", "3",
                 "--sync-file", str(path)])
    assert code == 0
    golden = Path(__file__).parent / "data" / "verify_3_3_3.out"
    assert capsys.readouterr().out == golden.read_text(encoding="ascii")


def _spread():
    """Bases (4, 64, 64) with one pair per index, most of them far outside the 2**t square.

    Index digit i reads x digit 16i and y digit 0 in the one accepting
    state; every other coordinate pair leads to the dead state 1.
    """
    transitions = {(0, (0, j, k)): 1 for j in range(64) for k in range(64) if k or j % 16}
    transitions.update({(0, (i, 16 * i, 0)): 0 for i in range(4)})
    return SyncAutomaton(bases=(4, 64, 64), state_count=2, initial=0, accepting=frozenset({0}),
                         transitions=transitions)


def test_pairs_outside_the_walked_grid_are_located_on_their_own():
    spread = _spread()
    assert sync_coords(spread, 5) == (1040, 0) and sync_locate(spread, 1040, 0) == 5
    for t in (2, 4):
        reports = verify_sync_suite(t, machine=spread)
        assert len(reports) == 12
        assert [(r.name, r.counterexample) for r in reports if not r.passed] == [
            ("grid_covered", (0, 1)), ("oracle_agreement", (1,)), ("step_down", (2,)),
            ("step_left", (6,)), ("step_right", (1,)), ("step_up", (0,))], t



def test_a_pair_outside_the_walked_grid_that_locates_to_several_indices_fails_round_trip(monkeypatch):
    """Index 1 also reads x digit 32, so indices 1 and 2 share the pair (32, 0) outside the square.

    The round trip fails at index 2, its first outside pair, so the suite
    locates that one pair and none of the many outside pairs after it.
    """
    spread = _spread()
    machine = SyncAutomaton(bases=spread.bases, state_count=2, initial=0, accepting=spread.accepting,
                            transitions={**spread.transitions, (0, (1, 32, 0)): 0})
    assert sync_coords(machine, 2) == (32, 0)
    with pytest.raises(MultipleAcceptingPathsError, match="^2 indices accepted for coordinates"):
        sync_locate(machine, 32, 0)
    located = []
    monkeypatch.setattr(verify, "sync_locate", lambda m, x, y: located.append((x, y)) or sync_locate(m, x, y))
    for t in (2, 4):
        located.clear()
        by_name = {r.name: r.counterexample for r in verify_sync_suite(t, machine=machine)}
        assert by_name["coords_unique"] == (1,) and by_name["round_trip"] == (2,), t
        assert located == [(32, 0)], t

def test_walks_stay_bounded_on_bases_that_are_not_binary(monkeypatch):
    """Bases (4, 63, 63): 63 < 2**6 <= 63**2, so at t = 6 the locate walk reads two digit pairs.

    Walking all 63**2 x 63**2 points of that length would expand 15.7 M
    strings; restricting the leading pair to digits below 2 keeps the
    grid at 126 x 126.  Every index has many pairs, so no pair is defined.
    """
    transitions = {(0, ((63 * j + k) % 4, j, k)): 0 for j in range(63) for k in range(63)}
    machine = SyncAutomaton(bases=(4, 63, 63), state_count=1, initial=0, accepting=frozenset({0}),
                            transitions=transitions)
    bound = 4 * (4**6 + 2**6 * 2**6)  # four times the indices and the points checked
    walked = 0

    def tally(total):
        nonlocal walked
        walked += 1
        assert walked <= bound, "the walks expand more strings than the checked range bounds"
        return total

    walk_paths = sync._path_walk
    monkeypatch.setattr(sync, "_path_walk", lambda *args: (
        (counts, map(tally, totals)) for counts, totals in walk_paths(*args)))
    reports = verify_sync_suite(6, machine=machine)
    assert [(r.name, r.counterexample) for r in reports if not r.passed] == [
        ("coords_unique", (0,)), ("grid_covered", (0, 0))]
    assert walked == 4**6 + 126 * 126


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
    _assert_in_name_order(reports)


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
