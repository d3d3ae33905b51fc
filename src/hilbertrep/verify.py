"""Bounded exhaustive checks tying the four representations together.

Each unbounded statement about the curve is replayed here as an
exhaustive check up to a configurable bound: the letter identities that
pin down the digit automaton, the functional and space-filling properties
of the synchronized automaton, and the cross-representation agreement
battery.  Checks are deterministic, iterate in increasing order so a
failure reports its smallest witness, and are independent of one another.
``zero_padding`` is decided exactly, not sampled: the initial state must
loop on the all-zero triple, which makes leading zeros inert at any length.

Each suite reads a representation over its whole checked range in one
pass instead of one lookup per index: ``dfao_walk`` for letters,
``linrep_walk`` for values, ``sync_walk`` for coordinate pairs and
``sync_locate_walk`` for the index of every grid point.  A walk expands
all indices (or points) of a digit count together, one digit per level,
so each shared digit prefix is read once.  Only a synchronized machine
whose walk fails, because some index or point has no accepted path or
several, is looked up one index or point at a time, which is what finds
the first undefined and the first ambiguous index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dfao import Dfao, dfao_equal, dfao_walk, hilbert_dfao, to_base
from .linrep import (
    difference_rep,
    hilbert_linrep,
    increment_transducer,
    linrep_walk,
    minimize_rep,
    semigroup_trick,
    transduce_rep,
)
from .oracle import (
    STEP,
    Coding,
    Direction,
    generate_generation,
    hc_prefix,
    recode,
    require_stage,
    walk,
)
from .sync import (
    MultipleAcceptingPathsError,
    NoAcceptingPathError,
    SyncAutomaton,
    accepts,
    hilbert_sync,
    sync_coords,
    sync_locate,
    sync_locate_walk,
    sync_walk,
)

# The suites no longer look letters or values up one index at a time, but
# the traced benchmark run (perfbench/tracing.py) installs counting shims
# under these names.
from .dfao import eval_dfao  # noqa: F401
from .linrep import eval_linrep  # noqa: F401


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one bounded check; the witness is the smallest failure."""

    name: str
    bound: int
    passed: bool
    counterexample: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.counterexample is None) != self.passed:
            raise ValueError("counterexample must be present exactly when the check failed")


def format_report(report: VerifyReport) -> str:
    witness = "none" if report.counterexample is None else \
        "(" + ",".join(str(v) for v in report.counterexample) + ")"
    passed = "true" if report.passed else "false"
    return f"name={report.name} bound={report.bound} passed={passed} witness={witness}"


def _report(name: str, bound: int, witness: tuple[int, ...] | None) -> VerifyReport:
    return VerifyReport(name=name, bound=bound, passed=witness is None, counterexample=witness)


def _letters_below(machine: Dfao, count: int) -> list:
    """The machine's letters for (at least) every n < count, from one ``dfao_walk``."""
    return dfao_walk(machine, len(to_base(count - 1, machine.base)))


def _or_none(lookup, *args):
    """``lookup(*args)``, or None when it finds no accepted path or several."""
    try:
        return lookup(*args)
    except (NoAcceptingPathError, MultipleAcceptingPathsError):
        return None


def _first_difference(values, expected) -> tuple[int] | None:
    """The witness (n,) of the first n where ``values[n] != expected[n]``, or None."""
    return next(((n,) for n, (value, want) in enumerate(zip(values, expected)) if value != want), None)


def _coordinate_pairs(machine: SyncAutomaton, t: int, walkable: bool):
    """The pairs of n < 4**t and the first undefined and first ambiguous index.

    A pair is None where the machine accepts no pair or several; the walk
    is only made when ``walkable`` and is only kept when no index fails.
    """
    pairs = _or_none(sync_walk, machine, t) if walkable else None
    if pairs is not None:
        return pairs, None, None
    pairs = []
    undefined: tuple[int, ...] | None = None
    ambiguous: tuple[int, ...] | None = None
    for n in range(4 ** t):
        try:
            pairs.append(sync_coords(machine, n))
        except NoAcceptingPathError:
            pairs.append(None)
            if undefined is None:
                undefined = (n,)
        except MultipleAcceptingPathsError:
            pairs.append(None)
            if ambiguous is None:
                ambiguous = (n,)
    return pairs, undefined, ambiguous


def _grid_witnesses(pairs, side: int):
    """The first repeat, as (earlier index, index), and the first unvisited point of the grid."""
    seen: dict[tuple[int, int], int] = {}
    collision: tuple[int, ...] | None = None
    for n, pair in enumerate(pairs):
        if pair is None:
            continue
        if pair in seen and collision is None:
            collision = (seen[pair], n)
        seen.setdefault(pair, n)
    uncovered = next(((x, y) for x in range(side) for y in range(side) if (x, y) not in seen), None)
    return collision, uncovered


def _round_trip_witness(machine: SyncAutomaton, t: int, pairs, walkable: bool):
    """The first n whose pair ``sync_locate`` does not take back to n."""
    # n = 0 has the one digit 0, so pairs have max(t, 1) bits
    grid = _or_none(sync_locate_walk, machine, max(t, 1)) if walkable else None
    height = 2 ** max(t, 1)

    def back(pair) -> int | None:
        return _or_none(sync_locate, machine, *pair) if grid is None else grid[pair[0] * height + pair[1]]

    return next(((n,) for n, pair in enumerate(pairs) if pair is not None and back(pair) != n), None)


def verify_identities(max_gen: int, *, machine: Dfao | None = None) -> list[VerifyReport]:
    """Check the letter identities that characterize the curve word.

    The machine's letters are checked, for every n up to ``max_gen`` with
    x = 4**n, against: the first letter is U; letters x..2x-1 are the
    diagonal recoding of letters 0..x-1; letters 2x..3x-2 likewise recode
    letters 0..x-2; letter 3x-1 is L for odd n and D for even n; letters
    3x..4x-2 are the half-turn recoding of letters 0..x-2; and letter
    x-1 is R for odd n and U for even n.  The letters read, 4**(max_gen+1) - 1
    of them, are those of stage max_gen + 1, so that stage must be within
    the stage budget (see ``require_stage``).
    """
    require_stage(max_gen + 1)
    m = hilbert_dfao() if machine is None else machine
    letters = _letters_below(m, 4 ** (max_gen + 1) - 1)

    def scan_range(offset_factor: int, upto_minus: int, coding: Coding) -> tuple[int, ...] | None:
        recoded = {d: recode(coding, d) for d in Direction}  # recode builds a Direction per call
        for n in range(max_gen + 1):
            x = 4 ** n
            for t in range(x - upto_minus):
                if letters[offset_factor * x + t] != recoded[letters[t]]:
                    return (n, t)
        return None

    def scan_point(position, expected_odd: Direction, expected_even: Direction) -> tuple[int, ...] | None:
        for n in range(max_gen + 1):
            expected = expected_odd if n % 2 == 1 else expected_even
            if letters[position(n)] != expected:
                return (n,)
        return None

    reports = [
        _report("origin_letter", max_gen,
                None if letters[0] == Direction.U else (0,)),
        _report("second_quarter_diagonal", max_gen, scan_range(1, 0, Coding.DIAGONAL)),
        _report("third_quarter_diagonal", max_gen, scan_range(2, 1, Coding.DIAGONAL)),
        _report("third_quarter_boundary", max_gen,
                scan_point(lambda n: 3 * 4 ** n - 1, Direction.L, Direction.D)),
        _report("fourth_quarter_rotation", max_gen, scan_range(3, 1, Coding.HALF_TURN)),
        _report("block_boundary", max_gen,
                scan_point(lambda n: 4 ** n - 1, Direction.R, Direction.U)),
    ]
    return sorted(reports, key=lambda r: r.name)


def verify_sync_suite(t: int, *, machine: SyncAutomaton | None = None) -> list[VerifyReport]:
    """Check the synchronized automaton's function and space-filling claims.

    Over all n < 4**t: exactly one coordinate pair is accepted, it matches
    the walked curve, consecutive pairs differ by the unit step named by
    the letter automaton (one check per direction), the map onto the
    2**t x 2**t grid is a bijection, locate inverts the coordinate lookup,
    the origin triple is accepted, and leading-zero padding is inert.

    Pairs come from ``sync_walk`` and the round trip reads
    ``sync_locate_walk``.  When a walk fails (some index or point has no
    accepted path, or several), or the machine's bases are not 4, 2, 2,
    the lookups are made one index or point at a time instead, which is
    also what finds the first undefined and the first ambiguous index.
    """
    m = hilbert_sync() if machine is None else machine
    points = walk(generate_generation(t))  # budget check before 4**t
    count = 4 ** t
    # only for these bases do the walks cover exactly n < 4**t and the 2**t x 2**t grid
    walkable = m.bases == (4, 2, 2)

    pairs, undefined, ambiguous = _coordinate_pairs(m, t, walkable)
    agreement = next(((n,) for n, (pair, point) in enumerate(zip(pairs, points))
                      if pair is not None and pair != point), None)
    del points  # not read again: freed before the walks below

    letters = _letters_below(hilbert_dfao(), count)
    step_witness: dict[Direction, tuple[int, ...] | None] = {d: None for d in Direction}
    for n in range(count - 1):
        a, b = pairs[n], pairs[n + 1]
        if a is None or b is None:
            continue
        delta = (b[0] - a[0], b[1] - a[1])
        letter = letters[n]
        if delta == STEP.get(letter):
            continue  # the letter's own step: every direction's check holds
        for direction in Direction:
            matches = (letter == direction) == (delta == STEP[direction])
            if not matches and step_witness[direction] is None:
                step_witness[direction] = (n,)

    collision, uncovered = _grid_witnesses(pairs, 2 ** t)
    round_trip = _round_trip_witness(m, t, pairs, walkable)

    origin = None if accepts(m, 0, 0, 0) else (0, 0, 0)
    padding = None if m.transitions.get((m.initial, (0, 0, 0))) == m.initial else (0, 0, 0)

    reports = [
        _report("coords_defined", t, undefined),
        _report("coords_unique", t, ambiguous),
        _report("oracle_agreement", t, agreement),
        _report("step_up", t, step_witness[Direction.U]),
        _report("step_right", t, step_witness[Direction.R]),
        _report("step_down", t, step_witness[Direction.D]),
        _report("step_left", t, step_witness[Direction.L]),
        _report("grid_covered", t, uncovered),
        _report("grid_unique", t, collision),
        _report("round_trip", t, round_trip),
        _report("origin_accepted", t, origin),
        _report("zero_padding", t, padding),
    ]
    return sorted(reports, key=lambda r: r.name)


def verify_cross(bound_exp: int) -> list[VerifyReport]:
    """Cross-check all representations against the walked curve.

    For every n below 4**bound_exp the walked coordinates, the linear
    representation and the synchronized lookup must agree, and the letter
    automaton must reproduce the stage word; each representation is read
    over the whole range in one walk.  One further one-shot check: the
    automaton recovered from the minimized step-difference representation
    must be isomorphic to the letter automaton.
    """
    require_stage(bound_exp + 1)  # the stage hc_prefix reads, before 4**bound_exp
    count = 4 ** bound_exp
    word = hc_prefix(count)
    points = walk(word[: count - 1])
    rep = hilbert_linrep()
    machine = hilbert_sync()
    letters = hilbert_dfao()

    # the first n where either walk leaves the curve; one walk is held at a time
    coords_witness = min(filter(None, (_first_difference(linrep_walk(rep, bound_exp), points),
                                       _first_difference(sync_walk(machine, bound_exp), points))),
                         default=None)
    # a Direction is an IntEnum equal to its coding in the word
    letters_witness = _first_difference(dfao_walk(letters, bound_exp), word)

    shifted = transduce_rep(rep, increment_transducer(4))
    minimized = minimize_rep(difference_rep(shifted, rep))
    recovered = semigroup_trick(minimized)
    same, _ = dfao_equal(recovered, letters)
    automaton_witness = None if same else ()

    reports = [
        _report("coordinates_agree", bound_exp, coords_witness),
        _report("letters_agree", bound_exp, letters_witness),
        _report("difference_automaton_matches", bound_exp, automaton_witness),
    ]
    return sorted(reports, key=lambda r: r.name)
