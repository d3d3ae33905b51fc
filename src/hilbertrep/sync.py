"""Lockstep automaton relating the curve index to its coordinates.

The machine reads triples of digits: one base-4 digit of the index n and
one base-2 digit each of x and y, most significant first, with the three
strings zero-padded to a common length.  It accepts exactly the triples
(n, x_n, y_n).  Because acceptance fixes the other two components once
one is known, the machine answers both lookups: coordinates from an index
and the index from coordinates, in time linear in the digit count.

Each lookup direction fixes some digits (the index digit for coordinates,
the coordinate bits for the index) and chooses the rest.  When a machine
is built, its arcs are indexed once per direction, each state mapping
only the symbols it reads to the targets of its arcs on them, so the
index is no larger than the transition list.  Each direction is then
checked: if the number of accepted completions of r further steps from
every state is 0 or 1, independent of the fixed digits, and depends on r
only through its parity, then a table keyed by (parity of the digits
left, state, fixed digits) names the one arc that can still reach
acceptance.  The Hilbert machine passes in both directions.  Elsewhere
(an imported or corrupted machine, or a digit count whose parity leaves
the initial state dead) one forward pass counts the paths into each state
it reaches, which also finds ambiguous lookups, and carries the value of
one of them: its outputs for a lookup, its weight sum for a walk.
``sync_walk`` and ``sync_locate_walk`` answer every index or grid point
of a digit count at once, for every machine, reading each prefix once.

Transitions not listed are dead; the dead state is implicit.
"""

from __future__ import annotations

from itertools import product, repeat
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .dfao import Record, from_base, require_base, to_base
from .oracle import Point, require_at_least

Triple = tuple[int, int, int]


class NoAcceptingPathError(ValueError):
    """No accepted completion exists (broken automaton or off-relation query)."""


class MultipleAcceptingPathsError(ValueError):
    """Several accepted completions exist; the relation is not a function."""


class _Lookup(NamedTuple):
    """One lookup direction of a machine.

    ``targets[q]`` maps each symbol that state q reads (its fixed digits
    encoded) to its arcs on it grouped by target: (target, the output of
    every arc into it), targets and outputs in the order they occur among
    the sorted transitions.  When the parity check passed,
    ``live[r & 1][q]`` is the number (0 or 1) of accepted completions of r
    further steps from q, and ``table[r & 1][q][s]`` is the (output,
    target) of the one arc on symbol s into a state with ``live[r & 1]``
    set, or None; a state missing a symbol is dead, and its row is None.
    Otherwise both are None and lookups count paths forward (``_forward``).
    """

    targets: tuple
    live: tuple | None
    table: tuple | None


def _live_step(targets, symbols: int, live):
    """Completion counts one step further back, or None unless each is 0 or 1 for every symbol."""
    result = []
    for per_state in targets:
        sums = {sum(len(outs) * live[target] for target, outs in groups) for groups in per_state.values()}
        if len(per_state) < symbols:
            sums.add(0)  # an unread symbol has no completion
        if len(sums) != 1 or not sums <= {0, 1}:
            return None
        result.append(sums.pop())
    return tuple(result)


def _lookup(targets, symbols: int, accepting: frozenset[int]) -> _Lookup:
    """Derive the parity table over ``symbols`` symbols, or leave it out when the check fails.

    Starting from the accepting indicator live0, one step gives live1 and
    a second must give live0 again; with the per-step check this proves by
    induction that the count of accepted completions after r steps is
    live0 or live1 by the parity of r, whatever the fixed digits are.  A
    live target passes only with one arc into it, whose output its group holds.
    """
    live0 = tuple(int(q in accepting) for q in range(len(targets)))
    live1 = _live_step(targets, symbols, live0)
    if live1 is None or _live_step(targets, symbols, live1) != live0:
        return _Lookup(targets, None, None)
    live = (live0, live1)
    table = tuple(
        tuple(tuple(next(((outs[0], target) for target, outs in per_state[s] if after[target]), None)
                    for s in range(symbols))
              if len(per_state) == symbols else None
              for per_state in targets)
        for after in live)
    return _Lookup(targets, live, table)


class SyncAutomaton(Record):
    """Deterministic automaton over digit triples with an implicit dead state.

    Equality compares the declared fields, not the lookups derived from them.
    ``transitions`` is copied into a read-only mapping on construction, so
    changing the caller's dict afterwards changes neither the machine nor
    the lookups derived from it.
    """

    _fields = ("bases", "state_count", "initial", "accepting", "transitions")

    def __init__(self, bases: tuple[int, int, int], state_count: int, initial: int,
                 accepting: frozenset[int], transitions: Mapping[tuple[int, Triple], int]):
        transitions = MappingProxyType(dict(transitions))
        self.__dict__.update(bases=bases, state_count=state_count, initial=initial,
                             accepting=accepting, transitions=transitions)
        for base in bases:
            require_base(base)
        if not 0 <= initial < state_count:
            raise ValueError(f"initial state {initial} out of range")
        if not all(0 <= q < state_count for q in accepting):
            raise ValueError("accepting state out of range")
        for (q, triple), target in transitions.items():
            if not (0 <= q < state_count and 0 <= target < state_count):
                raise ValueError(f"transition ({q}, {triple}) -> {target} state out of range")
            if any(not 0 <= d < base for d, base in zip(triple, bases)):
                raise ValueError(f"transition digits {triple} out of range for bases {bases}")
        bn, bx, by = bases
        # index digit -> coordinate bits, and coordinate bits -> index digit; built once
        grouped = ([{} for _ in range(state_count)], [{} for _ in range(state_count)])
        for (q, (i, j, k)), target in sorted(transitions.items()):
            for reads, s, out in zip(grouped, (i, j * by + k), ((j, k), i)):
                reads[q].setdefault(s, {}).setdefault(target, []).append(out)
        for name, reads, symbols in zip(("_coords", "_locate"), grouped, (bn, bx * by)):
            targets = tuple({s: tuple((t, tuple(outs)) for t, outs in g.items()) for s, g in row.items()}
                            for row in reads)
            self.__dict__[name] = _lookup(targets, symbols, accepting)


_HILBERT_SYNC_ROWS: tuple[tuple[int, Triple, int], ...] = (
    (0, (0, 0, 0), 0),
    (0, (1, 0, 1), 3),
    (0, (1, 1, 0), 1),
    (0, (2, 1, 1), 5),
    (0, (3, 0, 1), 4),
    (0, (3, 1, 0), 2),
    (1, (0, 0, 0), 3),
    (1, (1, 1, 0), 6),
    (1, (2, 1, 1), 6),
    (1, (3, 0, 1), 7),
    (2, (0, 1, 1), 4),
    (2, (1, 0, 1), 8),
    (2, (2, 0, 0), 8),
    (2, (3, 1, 0), 9),
    (3, (0, 0, 0), 1),
    (3, (1, 0, 1), 9),
    (3, (2, 1, 1), 9),
    (3, (3, 1, 0), 8),
    (4, (0, 1, 1), 2),
    (4, (1, 1, 0), 7),
    (4, (2, 0, 0), 7),
    (4, (3, 0, 1), 6),
    (5, (0, 0, 0), 5),
    (5, (1, 0, 1), 9),
    (5, (1, 1, 0), 6),
    (5, (2, 1, 1), 0),
    (5, (3, 0, 1), 7),
    (5, (3, 1, 0), 8),
    (6, (0, 0, 0), 9),
    (6, (1, 1, 0), 1),
    (6, (2, 1, 1), 1),
    (6, (3, 0, 1), 4),
    (7, (0, 1, 1), 8),
    (7, (1, 1, 0), 4),
    (7, (2, 0, 0), 4),
    (7, (3, 0, 1), 1),
    (8, (0, 1, 1), 7),
    (8, (1, 0, 1), 2),
    (8, (2, 0, 0), 2),
    (8, (3, 1, 0), 3),
    (9, (0, 0, 0), 6),
    (9, (1, 0, 1), 3),
    (9, (2, 1, 1), 3),
    (9, (3, 1, 0), 2),
)


def hilbert_sync() -> SyncAutomaton:
    """The 10-state machine accepting exactly the (index, x, y) triples."""
    return SyncAutomaton(
        bases=(4, 2, 2),
        state_count=10,
        initial=0,
        accepting=frozenset({0, 2, 3, 5, 6, 7}),
        transitions={(q, triple): target for q, triple, target in _HILBERT_SYNC_ROWS},
    )


def _padded(*digit_strings: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The digit strings left-padded with zeros to the length of the longest."""
    t = max(len(d) for d in digit_strings)
    return [(0,) * (t - len(d)) + d for d in digit_strings]


def accepts(machine: SyncAutomaton, n: int, x: int, y: int) -> bool:
    """Whether (n, x, y) is accepted, its three digit strings zero-padded to a common length."""
    bn, bx, by = machine.bases
    digits = _padded(to_base(n, bn), to_base(x, bx), to_base(y, by))
    state = machine.initial
    for triple in zip(*digits):
        nxt = machine.transitions.get((state, triple))
        if nxt is None:
            return False
        state = nxt
    return state in machine.accepting


def _forward(machine: SyncAutomaton, lookup: _Lookup, columns, extend, start) -> list[tuple[int, object]]:
    """The number of accepted paths reading each string, and the value of one of them.

    The strings read one symbol from each of ``columns`` in turn and come
    in symbol order, expanded together so a shared prefix is read once.
    Each level maps the states a prefix reaches to [paths into it, value
    of the first]: two paths that meet in a state share every completion,
    so neither can be the only accepted one, and keeping one loses nothing.
    A value grows from ``start`` by ``extend(value, symbol, output, left)``
    per arc, ``left`` symbols from the end; it is None where none accepts.
    Parallel arcs into one target are read once, as ``lookup.targets`` groups them.
    """
    def step(reached: dict, s: int, left: int) -> dict:
        after: dict = {}
        for state, (count, value) in reached.items():
            for target, outs in lookup.targets[state].get(s, ()):
                if target in after:
                    after[target][0] += count * len(outs)
                else:
                    after[target] = [count * len(outs), extend(value, s, outs[0], left)]
        return after

    level = [{machine.initial: [1, start]}]
    for left, symbols in zip(range(len(columns) - 1, 0, -1), columns[:-1]):
        level = [step(reached, s, left) for reached in level for s in symbols]
    ends = ([entry for state, entry in step(reached, s, 0).items() if state in machine.accepting]
            for reached in level for s in columns[-1])  # the last level is reduced as it is read
    return [(sum(count for count, _ in entries), entries[0][1] if entries else None) for entries in ends]


def _accepted_path(machine: SyncAutomaton, lookup: _Lookup, symbols) -> tuple[int, list]:
    """The number of accepted paths reading ``symbols`` and the outputs along one.

    By table where its live vector keeps the initial state alive, else by ``_forward``.
    """
    parity = len(symbols) & 1
    state = machine.initial
    if lookup.table is None or not lookup.live[parity][state]:
        [(count, path)] = _forward(machine, lookup, [(s,) for s in symbols],
                                   lambda path, s, out, left: (out, path), None)
        outputs = []
        while path:
            out, path = path
            outputs.append(out)
        return count, outputs[::-1]
    table = lookup.table
    outputs = []
    for s in symbols:
        parity ^= 1
        out, state = table[parity][state][s]
        outputs.append(out)
    return 1, outputs


def sync_coords(machine: SyncAutomaton, n: int) -> Point:
    """The unique (x, y) accepted with index n.

    Arcs fix the index digit and choose the two coordinate bits.  When the
    machine passed the parity check for this direction (the Hilbert
    machine does) and the live vector for the digit count's parity keeps
    the initial state alive, one pass through the table reads the pair
    off; otherwise ``_forward`` counts the paths into each state it reaches.
    Either way the work is linear in the digit count.  Raises
    NoAcceptingPathError or MultipleAcceptingPathsError when the machine
    does not define exactly one pair.
    """
    total, outputs = _accepted_path(machine, machine._coords, to_base(n, machine.bases[0]))
    if total == 0:
        raise NoAcceptingPathError(f"no coordinate pair accepted for index {n}")
    if total > 1:
        raise MultipleAcceptingPathsError(f"{total} coordinate pairs accepted for index {n}")
    _, bx, by = machine.bases
    xs, ys = zip(*outputs)
    return Point(from_base(xs, bx), from_base(ys, by))


def _path_walk(machine: SyncAutomaton, lookup: _Lookup, symbol_sets, weight):
    """Path counts and sums over the canonical symbol strings of each length 1 ... len(symbol_sets).

    ``symbol_sets[left]`` lists, from 0 up, the symbols a string may read
    with ``left`` symbols after them; only a one-symbol string leads with
    0.  Yields one pair per length, to be read before the next: the number
    of accepted paths reading each string in symbol order, and the sum of
    ``weight(symbol, output, left)`` along the one path where that number
    is 1 (None elsewhere).  Where a parity table exists and its live vector
    keeps the initial state alive for the length, each number is 1 and None
    comes instead of the list; elsewhere ``_forward`` counts, carrying each
    path's running sum.  Either way the strings are expanded together, one
    symbol per level, so a shared prefix is read once.
    """
    rows = lookup.table and [  # rows[left][state]: (weight, target) per symbol of the set, or None
        [per_state and [(arc := per_state[s]) and (weight(s, arc[0], left), arc[1]) for s in symbols]
         for per_state in lookup.table[left & 1]]
        for left, symbols in enumerate(symbol_sets)]
    for length in range(1, len(symbol_sets) + 1):
        lefts = range(length - 1, -1, -1)
        starts = [int(0 < left == length - 1) for left in lefts]  # skip a leading 0 past one symbol
        if not (rows and lookup.live[length & 1][machine.initial]):
            ends = _forward(machine, lookup, [symbol_sets[left][i:] for left, i in zip(lefts, starts)],
                            lambda total, s, out, left: total + weight(s, out, left), 0)
            yield [count for count, _ in ends], [total if count == 1 else None for count, total in ends]
            continue
        level = [(machine.initial, 0)]
        for left, start in zip(lefts[:-1], starts):
            level = [(q, total + w) for state, total in level for w, q in rows[left][state][start:]]
        # the last level needs no states, and is read once
        yield None, (total + w for state, total in level for w, _ in rows[0][state])


def _digit_counts(bound: int, base: int, length: int) -> tuple[list[int], int]:
    """How many digits a number below ``bound`` has at each ``left`` < ``length``, and the bound they make."""
    counts = [min(base, -(-bound // base**left)) for left in range(length)]
    return counts, 1 + sum((count - 1) * base**left for left, count in enumerate(counts))


def _coords_below(machine: SyncAutomaton, count: int):
    """The pairs of n = 0 ... count - 1 in index order, and each n without exactly one.

    A pair is None where the machine accepts no pair or several, and each
    such n comes with the number it accepts.  The walk reads the least
    digit count that reaches ``count``, with leading digits below it.
    """
    bn, bx, by = machine.bases
    length = len(to_base(count - 1, bn))
    side = by**length  # a path sum is x * side + y

    def weight(digit, out, left):
        return out[0] * bx**left * side + out[1] * by**left

    points: list = []
    failures = []
    digits, _ = _digit_counts(count, bn, length)
    for counts, totals in _path_walk(machine, machine._coords, [range(d) for d in digits], weight):
        if counts is None:
            points.extend(map(Point._make, map(divmod, totals, repeat(side))))
            continue
        failures += [(len(points) + i, paths) for i, paths in enumerate(counts) if paths != 1]
        points += [None if total is None else Point._make(divmod(total, side)) for total in totals]
    return points[:count], [(n, paths) for n, paths in failures if n < count]


def sync_walk(machine: SyncAutomaton, t: int) -> list[Point]:
    """The coordinates of n = 0 ... bn**t - 1 in index order.

    Equal to ``[sync_coords(machine, n) for n in range(bn**t)]``; on a
    failing machine it looks up the first failing index, which raises what
    that list would raise first.  The indices of each digit count are
    expanded together (``_path_walk``), so a shared prefix is read once:
    about (4/3)·4**t table steps for the Hilbert machine.
    """
    require_at_least(t, 0, "digit count")
    points, failures = _coords_below(machine, machine.bases[0] ** t)
    if failures:
        sync_coords(machine, failures[0][0])  # raises what the per-index list raises first
    return points


def sync_locate(machine: SyncAutomaton, x: int, y: int) -> int:
    """The unique index n accepted with coordinates (x, y).

    The same two paths as ``sync_coords``, with the coordinate bits fixed
    (both strings zero-padded to the longer) and the index digit chosen.
    """
    bn, bx, by = machine.bases
    dx, dy = _padded(to_base(x, bx), to_base(y, by))
    total, outputs = _accepted_path(machine, machine._locate, [j * by + k for j, k in zip(dx, dy)])
    if total == 0:
        raise NoAcceptingPathError(f"no index accepted for coordinates ({x}, {y})")
    if total > 1:
        raise MultipleAcceptingPathsError(f"{total} indices accepted for coordinates ({x}, {y})")
    return from_base(outputs, bn)


def _indices_within(machine: SyncAutomaton, width: int, height: int) -> tuple[list, int]:
    """The index of every point of a grid covering [0, width) x [0, height), and its height.

    The grid is x-major, entry ``x * its height + y``, None where the
    machine accepts no index or several.  The walk reads the least digit
    count that covers both sides and at each position only the digits a
    coordinate below its bound can have there, so the grid is less than
    twice as wide and as high as asked.
    """
    bn, bx, by = machine.bases
    length = max(len(to_base(width - 1, bx)), len(to_base(height - 1, by)))
    (xs, walked_width), (ys, side) = _digit_counts(width, bx, length), _digit_counts(height, by, length)
    scale = bn**length  # a path sum is (x * side + y) * scale + n

    def weight(symbol, digit, left):
        j, k = divmod(symbol, by)
        return (j * bx**left * side + k * by**left) * scale + digit * bn**left

    grid = [None] * (walked_width * side)
    symbol_sets = [[j * by + k for j in range(a) for k in range(b)] for a, b in zip(xs, ys)]
    for counts, totals in _path_walk(machine, machine._locate, symbol_sets, weight):
        for total in totals if counts is None else (total for total in totals if total is not None):
            position, n = divmod(total, scale)
            grid[position] = n
    return grid, side


def sync_locate_walk(machine: SyncAutomaton, t: int) -> list[int]:
    """The index of every point of the bx**t x by**t grid, x-major.

    Entry ``x * by**t + y`` is ``sync_locate(machine, x, y)``, and on a
    failing machine the first failing point is looked up, which raises
    what the list of those lookups would raise first.  The points are
    expanded as ``sync_walk`` expands indices, each path summing the
    point's grid position and its index.
    """
    require_at_least(t, 0, "digit count")
    _, bx, by = machine.bases
    grid, height = _indices_within(machine, bx**t, by**t)
    if None in grid:
        sync_locate(machine, *divmod(grid.index(None), height))  # raises what the per-point list raises first
    return grid


def lookup_paths(machine: SyncAutomaton) -> dict[str, str]:
    """Which path answers each lookup direction: ``table`` (but not for a dead parity) or ``search``."""
    return {name: "search" if lookup.table is None else "table"
            for name, lookup in (("coords", machine._coords), ("locate", machine._locate))}


def sync_to_text(machine: SyncAutomaton) -> str:
    """Serialize to the canonical text form."""
    bases = ",".join(str(b) for b in machine.bases)
    accepting = ",".join(str(q) for q in sorted(machine.accepting))
    lines = [
        f"sync bases={bases} states={machine.state_count} "
        f"initial={machine.initial} accepting={accepting}"
    ]
    for (q, (i, j, k)), target in sorted(machine.transitions.items()):
        lines.append(f"{q} [{i},{j},{k}] -> {target}")
    return "\n".join(lines) + "\n"


def sync_from_text(text: str) -> SyncAutomaton:
    """Parse the text form; raises ParseError with the offending line number."""
    from .textfmt import ParseError, parse_arc, parse_index, parse_int, read_text, require_all

    header_line, fields, body = read_text(text, "sync", ("bases", "states", "initial", "accepting"))
    bases = tuple(parse_int(tok, header_line, "base") for tok in fields["bases"].split(","))
    if len(bases) != 3:
        raise ParseError(header_line, f"expected three bases, got {fields['bases']!r}")
    for base in bases:
        require_base(base)
    count = parse_int(fields["states"], header_line, "state count")
    initial = parse_int(fields["initial"], header_line, "initial state")
    accepting = frozenset(
        parse_int(tok, header_line, "accepting state") for tok in fields["accepting"].split(",") if tok
    )

    transitions: dict[tuple[int, Triple], int] = {}
    for lineno, line in body:
        q, raw, target = parse_arc(line, lineno, count)
        parts = raw[1:-1].split(",")
        if not (raw.startswith("[") and raw.endswith("]")) or len(parts) != 3:
            raise ParseError(lineno, f"malformed digit triple {raw!r}")
        triple = tuple(parse_index(tok, lineno, "digit", base) for tok, base in zip(parts, bases))
        if (q, triple) in transitions:
            raise ParseError(lineno, f"duplicate transition ({q}, {list(triple)})")
        transitions[(q, triple)] = target
    named = {initial, *accepting, *(q for q, _ in transitions), *transitions.values()}
    require_all(range(count), named, header_line, "states")
    # each index digit and coordinate digit pair must be read by an arc, so the bases cannot outgrow
    # the file: bitmap_dfao explores all bx * by pair symbols from every state it reaches
    triples = {triple for _, triple in transitions}
    require_all(range(bases[0]), {i for i, _, _ in triples}, header_line, "index digits")
    require_all(product(range(bases[1]), range(bases[2])), {(j, k) for _, j, k in triples},
                header_line, "coordinate digit pairs")
    return SyncAutomaton(bases=bases, state_count=count, initial=initial,
                         accepting=accepting, transitions=transitions)
