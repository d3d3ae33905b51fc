"""The lockstep index/coordinate automaton and its lookups."""

import random
from types import MappingProxyType

import pytest

from hilbertrep.dfao import to_base
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
    """A copy of the machine whose lookups always count paths forward (``path=search``)."""
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
        # without a table both sides run the same forward count, so only tabled machines are compared
        if "table" in paths[-1].values():
            _assert_paths_agree(faulty, indices, points)
    assert len(paths) == 450
    assert {"coords": "table", "locate": "table"} in paths
    assert {"coords": "search", "locate": "search"} in paths


def _search_count(lookup, *args):
    """How many accepted completions ``lookup`` reports, and the answer when there is one."""
    try:
        return 1, lookup(*args)
    except NoAcceptingPathError:
        return 0, None
    except MultipleAcceptingPathsError as exc:
        return int(str(exc).split()[0]), None


def test_search_counts_match_enumeration_on_single_faults():
    """The forward count against brute force through ``accepts`` on every single fault.

    For an index n of d digits the count chooses d bits of each coordinate,
    so its count is the number of accepted (x, y) in [0, 2**d)**2; for a
    point of d padded bits it is the number of accepted n < 4**d.
    """
    m = hilbert_sync()
    for transitions, accepting in _single_faults(m):
        faulty = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                               accepting=accepting, transitions=transitions)
        searched = _search_only(faulty)
        for n in range(4**2):
            side = 2 ** len(to_base(n, 4))
            found = [(x, y) for x in range(side) for y in range(side) if accepts(faulty, n, x, y)]
            assert _search_count(sync_coords, searched, n) == (len(found), found[0] if len(found) == 1 else None), n
        for x in range(4):
            for y in range(4):
                found = [n for n in range(4 ** len(to_base(max(x, y), 2))) if accepts(faulty, n, x, y)]
                assert _search_count(sync_locate, searched, x, y) == (
                    len(found), found[0] if len(found) == 1 else None), (x, y)


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


def _squared(m):
    """The machine reading two of m's triples per symbol, with the squared bases."""
    bn, bx, by = m.bases
    transitions = {}
    for (q, (i1, j1, k1)), mid in m.transitions.items():
        for (p, (i2, j2, k2)), target in m.transitions.items():
            if p == mid:
                transitions[(q, (bn * i1 + i2, bx * j1 + j2, by * k1 + k2))] = target
    return SyncAutomaton(bases=(bn * bn, bx * bx, by * by), state_count=m.state_count,
                         initial=m.initial, accepting=m.accepting, transitions=transitions)


def _faults_and_squared():
    """Every single fault of the Hilbert machine, then the Hilbert machine squared."""
    m = hilbert_sync()
    for transitions, accepting in _single_faults(m):
        yield SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                            accepting=accepting, transitions=transitions)
    yield _squared(m)


def test_walk_matches_per_index_lookups_on_single_faults():
    paths = []
    for machine in _faults_and_squared():
        paths.append(lookup_paths(machine)["coords"])
        for t in range(4):
            _assert_walk_agrees(machine, t)
    assert len(paths) == 451 and {"table", "search"} <= set(paths)


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
    paths = []
    for machine in _faults_and_squared():
        paths.append(lookup_paths(machine)["locate"])
        for t in range(4):
            _assert_locate_walk_agrees(machine, t)
    assert len(paths) == 451 and {"table", "search"} <= set(paths)


@pytest.mark.parametrize("k", [1, 3])
def test_parallel_arcs_into_one_state_are_counted_by_multiplicity(k):
    """State 0 reads each coordinate pair with an index digit below k into itself, else into dead state 1.

    Each point of d bits then has k**d accepted indices, and each index
    whose digits are all below k has 4**d accepted pairs; the forward count
    visits each target once per step, with the number of arcs into it.
    """
    transitions = {(0, (i, j, l)): int(i >= k) for i in range(4) for j in range(2) for l in range(2)}
    machine = _search_only(SyncAutomaton(bases=(4, 2, 2), state_count=2, initial=0,
                                         accepting=frozenset({0}), transitions=transitions))
    for s in range(4):
        assert machine._locate.targets[0][s] == ((0, tuple(range(k))), (1, tuple(range(k, 4))))
        assert machine._coords.targets[0][s] == ((int(s >= k), ((0, 0), (0, 1), (1, 0), (1, 1))),)
    for x, y, bits in ((0, 0, 1), (5, 3, 3), (2**12 - 1, 0, 12)):
        if k == 1:
            assert sync_locate(machine, x, y) == 0
        else:
            message = rf"^{k**bits} indices accepted for coordinates \({x}, {y}\)$"
            with pytest.raises(MultipleAcceptingPathsError, match=message):
                sync_locate(machine, x, y)
    if k == 1:
        assert sync_locate_walk(machine, 3) == [0] * 64
    for digits in ((0,), (2, 1, 0, 2), (1,) * 12):
        n = int("".join(map(str, digits)), 4)
        if max(digits) < k:
            message = f"^{4**len(digits)} coordinate pairs accepted for index {n}$"
            with pytest.raises(MultipleAcceptingPathsError, match=message):
                sync_coords(machine, n)
        else:
            with pytest.raises(NoAcceptingPathError, match=f"^no coordinate pair accepted for index {n}$"):
                sync_coords(machine, n)


def test_parallel_arcs_from_two_states_add_up_where_they_meet():
    """State 0 reads index digits 0-1 into state 1 and 2-3 into state 2; both read every digit into 0.

    Every index string is accepted, so a point of d bits has 4**d indices:
    at each return to state 0 the counts of both states arrive, each
    times its 4 parallel arcs.
    """
    transitions = {(q, (i, j, l)): 0 if q else 1 + i // 2
                   for q in range(3) for i in range(4) for j in range(2) for l in range(2)}
    machine = _search_only(SyncAutomaton(bases=(4, 2, 2), state_count=3, initial=0,
                                         accepting=frozenset(range(3)), transitions=transitions))
    for x, y, bits in ((0, 0, 1), (5, 3, 3), (2**12 - 1, 0, 12)):
        message = rf"^{4**bits} indices accepted for coordinates \({x}, {y}\)$"
        with pytest.raises(MultipleAcceptingPathsError, match=message):
            sync_locate(machine, x, y)


def _with_state_ten(accepting, arcs):
    """The Hilbert machine with an eleventh state, 10, and ``arcs`` added."""
    m = hilbert_sync()
    return SyncAutomaton(bases=m.bases, state_count=11, initial=m.initial,
                         accepting=accepting, transitions={**m.transitions, **arcs})


def test_a_state_missing_a_symbol_has_no_completion_on_it():
    m = hilbert_sync()
    # state 10 reads only the zero triple and accepts nothing, so it is dead; state 0 can enter it
    dead = _with_state_ten(m.accepting, {(0, (1, 0, 0)): 10, (10, (0, 0, 0)): 10})
    arcs = dead.transitions.items()
    for lookup, arc in ((dead._coords, lambda q, i, j, k, t: (q, i, (j, k), t)),
                        (dead._locate, lambda q, i, j, k, t: (q, j * 2 + k, i, t))):
        # the groups hold each of the 46 arcs once, with its output
        held = [(q, s, out, target) for q, per_state in enumerate(lookup.targets)
                for s, groups in per_state.items() for target, outs in groups for out in outs]
        assert len(held) == 46 and sorted(held) == sorted(arc(q, *triple, t) for (q, triple), t in arcs)
        assert list(lookup.targets[10]) == [0]
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
