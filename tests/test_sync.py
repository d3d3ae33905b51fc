"""The lockstep index/coordinate automaton and its lookups."""

import random
from types import MappingProxyType

import pytest

from hilbertrep.oracle import generate_generation, walk
from hilbertrep.sync import (
    MultipleAcceptingPathsError,
    NoAcceptingPathError,
    SyncAutomaton,
    accepts,
    hilbert_sync,
    lookup_paths,
    sync_coords,
    sync_from_text,
    sync_locate,
    sync_locate_walk,
    sync_to_text,
    sync_walk,
)
from hilbertrep.textfmt import ParseError

POINTS = walk(generate_generation(4))


def test_machine_shape():
    m = hilbert_sync()
    assert m.state_count == 10
    assert m.initial == 0
    assert m.accepting == frozenset({0, 2, 3, 5, 6, 7})
    assert len(m.transitions) == 44
    assert m.transitions[(0, (1, 1, 0))] == 1
    assert m.transitions[(0, (2, 1, 1))] == 5
    assert m.transitions[(9, (3, 1, 0))] == 2
    assert (1, (0, 1, 1)) not in m.transitions  # implicit dead state
    assert lookup_paths(m) == {"coords": "table", "locate": "table"}


def test_accepts_examples():
    m = hilbert_sync()
    assert accepts(m, 9, 3, 2)
    assert accepts(m, 0, 0, 0)
    assert not accepts(m, 1, 1, 0)


def test_coords_examples():
    m = hilbert_sync()
    assert tuple(sync_coords(m, 13)) == (1, 2)
    assert tuple(sync_coords(m, 0)) == (0, 0)
    assert tuple(sync_coords(m, 10)) == (3, 3)


def test_locate_examples():
    m = hilbert_sync()
    assert sync_locate(m, 0, 0) == 0
    assert sync_locate(m, 3, 2) == 9
    assert sync_locate(m, 2, 3) == 11


def test_coords_match_the_walk():
    m = hilbert_sync()
    for n in range(4**4):
        assert tuple(sync_coords(m, n)) == tuple(POINTS[n])


def test_locate_inverts_coords():
    m = hilbert_sync()
    for n in range(4**4):
        x, y = sync_coords(m, n)
        assert sync_locate(m, x, y) == n


def test_exactly_one_pair_accepted_small_scale():
    """Brute-force functionality check against accepts() itself."""
    m = hilbert_sync()
    for n in range(4**3):
        hits = [(x, y) for x in range(8) for y in range(8) if accepts(m, n, x, y)]
        assert hits == [tuple(sync_coords(m, n))]


def test_padding_loop_and_invariance():
    m = hilbert_sync()
    assert m.transitions[(0, (0, 0, 0))] == 0


def _without(machine, *keys):
    transitions = {k: v for k, v in machine.transitions.items() if k not in keys}
    return SyncAutomaton(bases=machine.bases, state_count=machine.state_count,
                         initial=machine.initial, accepting=machine.accepting,
                         transitions=transitions)


def test_no_accepting_path_is_reported():
    broken = _without(hilbert_sync(), (0, (1, 1, 0)), (0, (1, 0, 1)))
    with pytest.raises(NoAcceptingPathError):
        sync_coords(broken, 1)
    with pytest.raises(NoAcceptingPathError):
        sync_locate(_without(hilbert_sync(), (0, (3, 1, 0))), 1, 0)


def test_multiple_accepting_paths_are_reported():
    m = hilbert_sync()
    transitions = dict(m.transitions)
    transitions[(0, (1, 0, 0))] = 3  # second accepted pair for index 1
    noisy = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                          accepting=m.accepting, transitions=transitions)
    assert lookup_paths(noisy) == {"coords": "search", "locate": "search"}
    with pytest.raises(MultipleAcceptingPathsError):
        sync_coords(noisy, 1)


def _search_only(machine):
    """A copy of the machine whose lookups always take the layered search."""
    twin = SyncAutomaton(bases=machine.bases, state_count=machine.state_count,
                         initial=machine.initial, accepting=machine.accepting,
                         transitions=machine.transitions)
    for name in ("_coords", "_locate"):
        object.__setattr__(twin, name, getattr(twin, name)._replace(live=None, table=None))
    return twin


def _outcome(lookup, *args):
    try:
        return "ok", lookup(*args)
    except (NoAcceptingPathError, MultipleAcceptingPathsError) as exc:
        return type(exc), str(exc)


def _assert_paths_agree(machine, indices, points):
    searched = _search_only(machine)
    assert lookup_paths(searched) == {"coords": "search", "locate": "search"}
    for n in indices:
        assert _outcome(sync_coords, machine, n) == _outcome(sync_coords, searched, n), n
    for x, y in points:
        assert _outcome(sync_locate, machine, x, y) == _outcome(sync_locate, searched, x, y), (x, y)


def _single_faults(m):
    """Every machine one transition retarget, deletion or accepting flip away from m."""
    for key, target in sorted(m.transitions.items()):
        for new in [None] + [q for q in range(m.state_count) if q != target]:
            transitions = dict(m.transitions)
            if new is None:
                del transitions[key]
            else:
                transitions[key] = new
            yield transitions, m.accepting
    for q in range(m.state_count):
        yield dict(m.transitions), m.accepting ^ {q}


def test_table_and_search_agree_on_hilbert_machine():
    grid = [(x, y) for x in range(32) for y in range(32)]
    _assert_paths_agree(hilbert_sync(), range(4**5), grid)


def test_table_and_search_agree_on_single_faults():
    m = hilbert_sync()
    rng = random.Random(7)
    indices = list(range(4**3)) + [rng.randrange(4**40) for _ in range(3)]
    points = [(x, y) for x in range(8) for y in range(8)]
    points += [(rng.randrange(2**40), rng.randrange(2**40)) for _ in range(3)]
    paths = []
    for transitions, accepting in _single_faults(m):
        faulty = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                               accepting=accepting, transitions=transitions)
        paths.append(lookup_paths(faulty))
        # without a table both sides run the same search, so only tabled machines are compared
        if "table" in paths[-1].values():
            _assert_paths_agree(faulty, indices, points)
    assert len(paths) == 450
    assert {"coords": "table", "locate": "table"} in paths
    assert {"coords": "search", "locate": "search"} in paths


def _walk_reference(machine, t):
    return [sync_coords(machine, n) for n in range(machine.bases[0] ** t)]


def _assert_walk_agrees(machine, t):
    assert _outcome(sync_walk, machine, t) == _outcome(_walk_reference, machine, t), t


def test_walk_matches_per_index_lookups():
    m = hilbert_sync()
    for t in range(6):
        _assert_walk_agrees(m, t)
    assert sync_walk(m, 4) == POINTS
    searched = _search_only(m)
    for t in range(4):
        _assert_walk_agrees(searched, t)
    # started elsewhere, the machine accepts only odd or only even digit counts
    for initial in range(m.state_count):
        rerooted = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=initial,
                                 accepting=m.accepting, transitions=m.transitions)
        assert lookup_paths(rerooted)["coords"] == "table"
        for t in range(4):
            _assert_walk_agrees(rerooted, t)
    with pytest.raises(ValueError, match="at least 0"):
        sync_walk(m, -1)


def test_walk_matches_per_index_lookups_on_single_faults():
    m = hilbert_sync()
    tabled = 0
    for transitions, accepting in _single_faults(m):
        faulty = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                               accepting=accepting, transitions=transitions)
        if lookup_paths(faulty)["coords"] == "table":
            tabled += 1
            for t in range(4):
                _assert_walk_agrees(faulty, t)
    assert tabled > 0


def _locate_walk_reference(machine, t):
    _, bx, by = machine.bases
    return [sync_locate(machine, x, y) for x in range(bx**t) for y in range(by**t)]


def _assert_locate_walk_agrees(machine, t):
    got = _outcome(sync_locate_walk, machine, t)
    assert got == _outcome(_locate_walk_reference, machine, t), t
    return got[0]


def test_locate_walk_matches_per_point_lookups():
    m = hilbert_sync()
    assert sync_locate_walk(m, 4) == [sync_locate(m, x, y) for x in range(16) for y in range(16)]
    searched = _search_only(m)
    outcomes = set()
    for machine in [m, searched] + [
            SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=initial,
                          accepting=m.accepting, transitions=m.transitions)
            for initial in range(m.state_count)]:
        for t in range(4):
            outcomes.add(_assert_locate_walk_agrees(machine, t))
    assert outcomes == {"ok", NoAcceptingPathError}  # re-rooted machines fail at some digit counts
    with pytest.raises(ValueError, match="at least 0"):
        sync_locate_walk(m, -1)


def test_locate_walk_matches_per_point_lookups_on_single_faults():
    m = hilbert_sync()
    tabled = 0
    for transitions, accepting in _single_faults(m):
        faulty = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                               accepting=accepting, transitions=transitions)
        if lookup_paths(faulty)["locate"] == "table":
            tabled += 1
            for t in range(4):
                _assert_locate_walk_agrees(faulty, t)
    assert tabled > 0


def _with_state_ten(accepting, arcs):
    """The Hilbert machine with an eleventh state, 10, and ``arcs`` added."""
    m = hilbert_sync()
    return SyncAutomaton(bases=m.bases, state_count=11, initial=m.initial,
                         accepting=accepting, transitions={**m.transitions, **arcs})


def test_a_state_missing_a_symbol_has_no_completion_on_it():
    m = hilbert_sync()
    # state 10 reads only the zero triple and accepts nothing, so it is dead; state 0 can enter it
    dead = _with_state_ten(m.accepting, {(0, (1, 0, 0)): 10, (10, (0, 0, 0)): 10})
    for lookup in (dead._coords, dead._locate):
        assert sum(len(arcs) for per_state in lookup.arcs for arcs in per_state.values()) == 46
        assert list(lookup.arcs[10]) == [0]
        assert lookup.table[0][10] is None and lookup.table[1][10] is None
    assert lookup_paths(dead) == {"coords": "table", "locate": "table"}
    assert sync_walk(dead, 4) == POINTS
    for t in range(4):
        _assert_walk_agrees(dead, t)
        _assert_locate_walk_agrees(dead, t)
    _assert_paths_agree(dead, range(4**3), [(x, y) for x in range(8) for y in range(8)])
    # accepting, it has one completion of one step on the zero triple and none on the others
    unread = _with_state_ten(m.accepting | {10}, {(10, (0, 0, 0)): 10})
    assert lookup_paths(unread) == {"coords": "search", "locate": "search"}
    assert sync_walk(unread, 3) == sync_walk(m, 3)
    assert sync_locate_walk(unread, 3) == sync_locate_walk(m, 3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SyncAutomaton(bases=(4, 2, 2), state_count=2, initial=5,
                      accepting=frozenset(), transitions={})
    with pytest.raises(ValueError):
        SyncAutomaton(bases=(4, 2, 2), state_count=2, initial=0,
                      accepting=frozenset({0}), transitions={(0, (4, 0, 0)): 1})


def test_equality_compares_the_declared_fields():
    m = hilbert_sync()
    twin = _search_only(m)
    assert twin == m and m == twin  # the derived lookups differ and are not compared
    assert SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                         accepting=m.accepting, transitions=MappingProxyType(dict(m.transitions))) == m
    retargeted = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                               accepting=m.accepting, transitions={**m.transitions, (0, (1, 1, 0)): 2})
    flipped = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                            accepting=m.accepting ^ {1}, transitions=m.transitions)
    assert retargeted != m and flipped != m
    assert (m == sync_to_text(m)) is False
    with pytest.raises(TypeError):
        hash(m)


def test_changing_the_source_dict_changes_nothing():
    from hilbertrep.bitmap import bitmap_dfao

    d = dict(hilbert_sync().transitions)
    m = SyncAutomaton(bases=(4, 2, 2), state_count=10, initial=0,
                      accepting=frozenset({0, 2, 3, 5, 6, 7}), transitions=d)
    before = (accepts(m, 1, 0, 1), sync_to_text(m), sync_coords(m, 1), bitmap_dfao(m))
    del d[(0, (1, 0, 1))]
    assert (accepts(m, 1, 0, 1), sync_to_text(m), sync_coords(m, 1), bitmap_dfao(m)) == before
    assert before[:3] == (True, sync_to_text(hilbert_sync()), (0, 1))
    with pytest.raises(TypeError):
        m.transitions[(0, (1, 0, 1))] = 3


def test_text_round_trip_is_byte_exact():
    m = hilbert_sync()
    text = sync_to_text(m)
    first = text.splitlines()[0]
    assert first == "sync bases=4,2,2 states=10 initial=0 accepting=0,2,3,5,6,7"
    loaded = sync_from_text(text)
    assert loaded == m
    assert sync_to_text(loaded) == text


def test_text_round_trip_without_accepting_states():
    m = hilbert_sync()
    none = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                         accepting=frozenset(), transitions=m.transitions)
    text = sync_to_text(none)
    assert text.splitlines()[0].endswith(" accepting=")
    loaded = sync_from_text(text)
    assert loaded == none
    assert sync_to_text(loaded) == text


def test_text_parse_errors():
    text = sync_to_text(hilbert_sync())
    with pytest.raises(ParseError, match="line"):
        sync_from_text(text.replace("0 [1,1,0] -> 1", "0 [1,1,7] -> 1"))
    with pytest.raises(ParseError):
        sync_from_text(text + "0 [1,1,0] -> 2\n")  # duplicate transition
    with pytest.raises(ParseError):
        sync_from_text("sync bases=4,2 states=10 initial=0 accepting=0\n")
    with pytest.raises(ValueError, match="base must be at least 2, got 1"):
        sync_from_text("sync bases=4,1,2 states=1 initial=0 accepting=0\n")
    with pytest.raises(ParseError, match=r"^line 1: missing index digits \[1, 2, 3\]$"):
        sync_from_text("sync bases=4,2,2 states=1 initial=0 accepting=0\n0 [0,0,0] -> 0\n")
