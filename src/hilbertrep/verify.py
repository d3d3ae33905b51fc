"""Bounded exhaustive checks tying the four representations together.

Each unbounded statement about the curve is replayed here as an
exhaustive check up to a configurable bound: the letter identities that
pin down the digit automaton, the functional and space-filling properties
of the synchronized automaton, and the cross-representation agreement
battery.  Checks are deterministic, iterate in increasing order so a
failure reports its smallest witness, and are independent of one another.
Each suite fills one table from report name to witness (None where the
check passed), and its reports are read off that table in name order.
``zero_padding`` is decided exactly, not sampled: the initial state must
loop on the all-zero triple, which makes leading zeros inert at any length.

Each suite reads a representation over its whole checked range in one
pass instead of one lookup per index: ``dfao_walk`` for letters,
``linrep_walk`` for values, and the walks behind ``sync_walk`` and
``sync_locate_walk`` for coordinate pairs and the index of every grid
point, for any synchronized machine.  A walk expands all indices (or
points) of a digit count together, one digit per level, so each shared
digit prefix is read once; it also counts the accepted paths of each, which
finds the first undefined and the first ambiguous index.  The sync suite
then reads its coordinate pairs in one pass for the step, repeat and round
trip checks.
"""

from __future__ import annotations

from .dfao import Dfao, Record, dfao_equal, dfao_walk, hilbert_dfao, to_base
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
    require_at_least,
    require_stage,
    walk,
)
from .sync import (
    MultipleAcceptingPathsError,
    NoAcceptingPathError,
    SyncAutomaton,
    _coords_below,
    _indices_within,
    accepts,
    hilbert_sync,
    sync_locate,
    sync_walk,
)

# The suites do not call these; perfbench/tracing.py installs counting shims
# under these names.
from .dfao import eval_dfao  # noqa: F401
from .linrep import eval_linrep  # noqa: F401
from .sync import sync_coords  # noqa: F401


class VerifyReport(Record):
    """Outcome of one bounded check; the witness is the smallest failure."""

    _fields = ("name", "bound", "passed", "counterexample")

    def __init__(self, name: str, bound: int, passed: bool, counterexample: tuple[int, ...] | None = None):
        self.__dict__.update(name=name, bound=bound, passed=passed, counterexample=counterexample)
        if (counterexample is None) != passed:
            raise ValueError("counterexample must be present exactly when the check failed")


def format_report(report: VerifyReport) -> str:
    witness = "none" if report.counterexample is None else \
        "(" + ",".join(str(v) for v in report.counterexample) + ")"
    passed = "true" if report.passed else "false"
    return f"name={report.name} bound={report.bound} passed={passed} witness={witness}"


def _reports(bound: int, witness: dict[str, tuple[int, ...] | None]) -> list[VerifyReport]:
    """One report per entry of a suite's name -> witness table, sorted by name; a None witness passes."""
    return [VerifyReport(name=name, bound=bound, passed=found is None, counterexample=found)
            for name, found in sorted(witness.items())]


def _letters_below(machine: Dfao, count: int) -> list:
    """The machine's letters for (at least) every n < count, from one ``dfao_walk``."""
    return dfao_walk(machine, len(to_base(count - 1, machine.base)))


def _first_difference(values, expected) -> tuple[int] | None:
    """The witness (n,) of the first n where ``values[n] != expected[n]``, or None."""
    return next(((n,) for n, (value, want) in enumerate(zip(values, expected)) if value != want), None)


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
    require_at_least(max_gen, 0, "bound")
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

    return _reports(max_gen, dict(
        origin_letter=None if letters[0] == Direction.U else (0,),
        second_quarter_diagonal=scan_range(1, 0, Coding.DIAGONAL),
        third_quarter_diagonal=scan_range(2, 1, Coding.DIAGONAL),
        third_quarter_boundary=scan_point(lambda n: 3 * 4 ** n - 1, Direction.L, Direction.D),
        fourth_quarter_rotation=scan_range(3, 1, Coding.HALF_TURN),
        block_boundary=scan_point(lambda n: 4 ** n - 1, Direction.R, Direction.U)))


def verify_sync_suite(t: int, *, machine: SyncAutomaton | None = None) -> list[VerifyReport]:
    """Check the synchronized automaton's function and space-filling claims.

    Over all n < 4**t: exactly one coordinate pair is accepted, it matches
    the walked curve, consecutive pairs differ by the unit step named by
    the letter automaton (one check per direction), the map onto the
    2**t x 2**t grid is a bijection, locate inverts the coordinate lookup,
    the origin triple is accepted, and leading-zero padding is inert.

    Pairs and path counts come from the walk behind ``sync_walk`` at the
    least digit count that reaches 4**t, and the index of every point of
    the 2**max(t, 1) square from the walk behind ``sync_locate_walk``.  One
    pass over the pairs then finds the first failing step per direction,
    the first repeated point and the first failing round trip, marking
    each point it visits; the grid is covered if every point of the 2**t
    square is marked.  A pair outside the locate grid is located on its
    own, and only until a round trip has failed.
    """
    require_at_least(t, 0, "bound")
    m = hilbert_sync() if machine is None else machine
    points = walk(generate_generation(t))  # budget check before 4**t
    count = 4 ** t

    pairs, failures = _coords_below(m, count)
    undefined = next(((n,) for n, paths in failures if paths == 0), None)
    ambiguous = next(((n,) for n, paths in failures if paths > 1), None)
    agreement = next(((n,) for n, (pair, point) in enumerate(zip(pairs, points))
                      if pair is not None and pair != point), None)
    del points  # not read again: freed before the walks below

    letters = _letters_below(hilbert_dfao(), count)
    side = 2 ** max(t, 1)  # n = 0 has the one digit 0, so pairs have max(t, 1) bits
    grid, height = _indices_within(m, side, side)
    visited = bytearray(len(grid))  # the grid points some index reaches
    outside: set[tuple[int, int]] = set()  # the pairs beyond the grid that some index reaches
    steps = dict(step_up=Direction.U, step_right=Direction.R, step_down=Direction.D, step_left=Direction.L)
    witness = dict.fromkeys(steps)
    collision = round_trip = previous = None
    for n, pair in enumerate(pairs):
        if pair is None:
            previous = None
            continue
        x, y = pair
        if previous is not None:
            delta, letter = (x - previous[0], y - previous[1]), letters[n - 1]
            if delta != STEP.get(letter):  # else the letter's own step: every direction's check holds
                for name, direction in steps.items():
                    if witness[name] is None and (letter == direction) != (delta == STEP[direction]):
                        witness[name] = (n - 1,)
        previous = pair
        if x < side and y < side:
            position = x * height + y
            repeat, visited[position], back = visited[position], 1, grid[position]
        else:
            repeat = pair in outside
            outside.add(pair)
            try:  # a pair outside the walked grid is located on its own, until a round trip fails
                back = n if round_trip else sync_locate(m, x, y)
            except (NoAcceptingPathError, MultipleAcceptingPathsError):
                back = None
        if repeat and collision is None:
            collision = (pairs.index(pair), n)  # the earlier index is that of the pair's first visit
        if back != n and round_trip is None:
            round_trip = (n,)

    witness.update(
        coords_defined=undefined, coords_unique=ambiguous, oracle_agreement=agreement,
        grid_covered=next(((x, y) for x in range(2 ** t) for y in range(2 ** t)
                           if not visited[x * height + y]), None),
        grid_unique=collision, round_trip=round_trip,
        origin_accepted=None if accepts(m, 0, 0, 0) else (0, 0, 0),
        zero_padding=None if m.transitions.get((m.initial, (0, 0, 0))) == m.initial else (0, 0, 0))
    return _reports(t, witness)


def verify_cross(bound_exp: int) -> list[VerifyReport]:
    """Cross-check all representations against the walked curve.

    For every n below 4**bound_exp the walked coordinates, the linear
    representation and the synchronized lookup must agree, and the letter
    automaton must reproduce the stage word; each representation is read
    over the whole range in one walk.  One further one-shot check: the
    automaton recovered from the minimized step-difference representation
    must be isomorphic to the letter automaton.
    """
    require_at_least(bound_exp, 0, "bound")
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
    return _reports(bound_exp, dict(coordinates_agree=coords_witness, letters_agree=letters_witness,
                                    difference_automaton_matches=None if same else ()))
