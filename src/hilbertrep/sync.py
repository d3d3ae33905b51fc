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
only the symbols it reads, so the index is as large as the transition
list; the automatic bitmap reads the same index.  Each direction is then
checked: if the number of accepted completions of r further steps from
every state is 0 or 1, independent of the fixed digits, and depends on r
only through its parity, then a table keyed by (parity of the digits
left, state, fixed digits) names the one arc that can still reach
acceptance, and a lookup is a single forward pass.  ``sync_walk`` runs
the coordinate table over all indices of a digit count at once, and
``sync_locate_walk`` the locate table over all grid points, reading each
shared prefix once.  The Hilbert machine passes in both directions.  A
machine that fails (an imported or corrupted one) is answered by a
layered search that counts accepted completions per digit position and
state, which also reports ambiguous lookups.

Transitions not listed are dead; the dead state is implicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .dfao import from_base, require_base, to_base
from .oracle import Point
from .textfmt import ParseError, parse_arc, parse_index, parse_int, read_text, require_all

Triple = tuple[int, int, int]


class NoAcceptingPathError(ValueError):
    """No accepted completion exists (broken automaton or off-relation query)."""


class MultipleAcceptingPathsError(ValueError):
    """Several accepted completions exist; the relation is not a function."""


class _Lookup(NamedTuple):
    """One lookup direction of a machine.

    ``arcs[q]`` maps each symbol that state q reads (its fixed digits
    encoded) to the (output, target) arcs on it.  When the parity check
    passed, ``live[r & 1][q]`` is the number (0 or 1) of accepted
    completions of r further steps from q, and ``table[r & 1][q][s]`` is
    the one arc on symbol s into a state with ``live[r & 1]`` set, or None;
    a state missing a symbol is dead, and its row is None.  Otherwise both
    are None and lookups use the search.
    """

    arcs: tuple
    live: tuple | None
    table: tuple | None


def _live_step(arcs, symbols: int, live):
    """Completion counts one step further back, or None unless each is 0 or 1 for every symbol."""
    result = []
    for per_state in arcs:
        sums = {sum(live[target] for _, target in per_symbol) for per_symbol in per_state.values()}
        if len(per_state) < symbols:
            sums.add(0)  # an unread symbol has no completion
        if len(sums) != 1 or not sums <= {0, 1}:
            return None
        result.append(sums.pop())
    return tuple(result)


def _lookup(arcs, symbols: int, accepting: frozenset[int]) -> _Lookup:
    """Derive the parity table over ``symbols`` symbols, or leave it out when the check fails.

    Starting from the accepting indicator live0, one step gives live1 and
    a second must give live0 again; with the per-step check this proves by
    induction that the count of accepted completions after r steps is
    live0 or live1 by the parity of r, whatever the fixed digits are.
    """
    live0 = tuple(int(q in accepting) for q in range(len(arcs)))
    live1 = _live_step(arcs, symbols, live0)
    if live1 is None or _live_step(arcs, symbols, live1) != live0:
        return _Lookup(arcs, None, None)
    live = (live0, live1)
    table = tuple(
        tuple(tuple(next((arc for arc in per_state[s] if after[arc[1]]), None) for s in range(symbols))
              if len(per_state) == symbols else None
              for per_state in arcs)
        for after in live)
    return _Lookup(arcs, live, table)


@dataclass(frozen=True)
class SyncAutomaton:
    """Deterministic automaton over digit triples with an implicit dead state.

    Equality compares the declared fields, not the lookups derived from them.
    ``transitions`` is copied into a read-only mapping on construction, so
    changing the caller's dict afterwards changes neither the machine nor
    the lookups derived from it.
    """

    bases: tuple[int, int, int]
    state_count: int
    initial: int
    accepting: frozenset[int]
    transitions: Mapping[tuple[int, Triple], int]
    # index digit -> coordinate bits, and coordinate bits -> index digit; built once
    _coords: _Lookup = field(init=False, repr=False, compare=False)
    _locate: _Lookup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "transitions", MappingProxyType(dict(self.transitions)))
        for base in self.bases:
            require_base(base)
        if not 0 <= self.initial < self.state_count:
            raise ValueError(f"initial state {self.initial} out of range")
        if not all(0 <= q < self.state_count for q in self.accepting):
            raise ValueError("accepting state out of range")
        for (q, triple), target in self.transitions.items():
            if not (0 <= q < self.state_count and 0 <= target < self.state_count):
                raise ValueError(f"transition ({q}, {triple}) -> {target} state out of range")
            if any(not 0 <= d < base for d, base in zip(triple, self.bases)):
                raise ValueError(f"transition digits {triple} out of range for bases {self.bases}")
        bn, bx, by = self.bases
        by_index = [{} for _ in range(self.state_count)]
        by_point = [{} for _ in range(self.state_count)]
        for (q, (i, j, k)), target in sorted(self.transitions.items()):
            by_index[q].setdefault(i, []).append(((j, k), target))
            by_point[q].setdefault(j * by + k, []).append((i, target))
        for name, arcs, symbols in (("_coords", by_index, bn), ("_locate", by_point, bx * by)):
            frozen = tuple({s: tuple(a) for s, a in reads.items()} for reads in arcs)
            object.__setattr__(self, name, _lookup(frozen, symbols, self.accepting))


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


def _suffix_counts(arcs, accepting: frozenset[int], symbols) -> list[list[int]]:
    """counts[p][q] = number of accepted completions from state q reading symbols[p:]."""
    counts = [[0] * len(arcs) for _ in range(len(symbols) + 1)]
    for q in accepting:
        counts[-1][q] = 1
    for p in range(len(symbols) - 1, -1, -1):
        after, s = counts[p + 1], symbols[p]
        counts[p] = [sum(after[target] for _, target in per_state.get(s, ())) for per_state in arcs]
    return counts


def _search(arcs, initial: int, accepting: frozenset[int], symbols) -> tuple[int, list]:
    """Layered search: the number of accepted paths reading ``symbols``.

    When there is exactly one, the outputs along it come too; otherwise
    the output list is empty.
    """
    counts = _suffix_counts(arcs, accepting, symbols)
    total = counts[0][initial]
    outputs = []
    if total == 1:
        state = initial
        for s, after in zip(symbols, counts[1:]):
            out, state = next(arc for arc in arcs[state][s] if after[arc[1]])
            outputs.append(out)
    return total, outputs


def _accepted_path(machine: SyncAutomaton, lookup: _Lookup, symbols) -> tuple[int, list]:
    """The number of accepted paths reading ``symbols`` and the outputs along the only one.

    Through the parity table the count is 0 or 1; through the search it
    can be any number, and the outputs are empty unless it is 1.
    """
    if lookup.table is None:
        return _search(lookup.arcs, machine.initial, machine.accepting, symbols)
    parity = len(symbols) & 1
    state = machine.initial
    if not lookup.live[parity][state]:
        return 0, []
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
    machine does), one lookup in the live vector for the digit count's
    parity decides whether a pair exists and one forward pass through the
    parity table reads it off.  Otherwise a layered search counts the
    accepted completions per digit position.  Either way the work is
    linear in the digit count.  Raises NoAcceptingPathError or
    MultipleAcceptingPathsError when the machine does not define exactly
    one pair; only the search can find more than one.
    """
    total, outputs = _accepted_path(machine, machine._coords, to_base(n, machine.bases[0]))
    if total == 0:
        raise NoAcceptingPathError(f"no coordinate pair accepted for index {n}")
    if total > 1:
        raise MultipleAcceptingPathsError(f"{total} coordinate pairs accepted for index {n}")
    _, bx, by = machine.bases
    x = y = 0
    for j, k in outputs:
        x = bx * x + j
        y = by * y + k
    return Point(x, y)


def _table_walk(machine: SyncAutomaton, lookup: _Lookup, t: int, weight):
    """Path sums over the canonical symbol strings of each length 1 ... max(t, 1).

    Yields one iterator per length, to be read before the next: for each
    string in symbol order, the sum of ``weight(symbol, output, left)``
    over the arcs of its one accepted path, ``left`` being the number of
    symbols after the arc.  Canonical strings have a nonzero leading
    symbol, except the one-symbol strings below (symbol count)**t.  The
    strings of a length are expanded together, one symbol per level, so a
    shared prefix is read once.  Without a parity table, or at a length
    whose parity leaves no accepted completion from the initial state, it
    yields None and stops.
    """
    if lookup.table is None:
        yield None
        return
    # rows[left][state][symbol]: (weight, target) of the arc the table names, or None; no row, None
    rows = [[per_state and [arc and (weight(s, arc[0], left), arc[1]) for s, arc in enumerate(per_state)]
             for per_state in lookup.table[left & 1]]
            for left in range(max(t, 1))]
    symbol_count = len(lookup.arcs[machine.initial])  # all symbols, once the initial state is live
    for length in range(1, max(t, 1) + 1):
        if not lookup.live[length & 1][machine.initial]:
            yield None
            return
        lead = slice(1, None) if length > 1 else slice(0, symbol_count**t)
        level = [(machine.initial, 0)]
        for left in range(length - 1, -1, -1):
            row = rows[left]
            symbols = lead if left == length - 1 else slice(None)
            if left:
                level = [(q, total + w) for state, total in level for w, q in row[state][symbols]]
            else:  # the last level needs no states, and is read once
                yield (total + w for state, total in level for w, _ in row[state][symbols])


def sync_walk(machine: SyncAutomaton, t: int) -> list[Point]:
    """The coordinates of n = 0 ... bn**t - 1 in index order.

    Equal to ``[sync_coords(machine, n) for n in range(bn**t)]``, and on a
    failing machine it raises what that list would raise first.  With a
    parity table the indices of each digit count are expanded together
    (``_table_walk``), so a shared prefix is read once: about (4/3)·4**t
    table steps for the Hilbert machine instead of one conversion and
    pass per index.  The digit count's parity decides up front whether
    that count's indices have coordinates at all.
    """
    if t < 0:
        raise ValueError(f"digit count must be at least 0, got {t}")
    bn, bx, by = machine.bases
    side = by ** max(t, 1)  # a path sum is x * side + y

    def weight(digit, out, left):
        return out[0] * bx**left * side + out[1] * by**left

    points: list[Point] = []
    for totals in _table_walk(machine, machine._coords, t, weight):
        if totals is None:
            return [sync_coords(machine, n) for n in range(bn**t)]
        points.extend(Point(*divmod(total, side)) for total in totals)
    return points


def sync_locate(machine: SyncAutomaton, x: int, y: int) -> int:
    """The unique index n accepted with coordinates (x, y).

    The same two paths as ``sync_coords`` with the coordinate bits fixed
    (both strings zero-padded to the longer) and the index digit chosen:
    the parity table when the machine passed the check for this direction,
    the layered search otherwise.
    """
    bn, bx, by = machine.bases
    dx, dy = _padded(to_base(x, bx), to_base(y, by))
    total, outputs = _accepted_path(machine, machine._locate, [j * by + k for j, k in zip(dx, dy)])
    if total == 0:
        raise NoAcceptingPathError(f"no index accepted for coordinates ({x}, {y})")
    if total > 1:
        raise MultipleAcceptingPathsError(f"{total} indices accepted for coordinates ({x}, {y})")
    return from_base(outputs, bn)


def sync_locate_walk(machine: SyncAutomaton, t: int) -> list[int]:
    """The index of every point of the bx**t x by**t grid, x-major.

    Entry ``x * by**t + y`` is ``sync_locate(machine, x, y)``: the result
    equals ``[sync_locate(machine, x, y) for x in range(bx**t) for y in
    range(by**t)]``, and on a failing machine it raises what that list
    would raise first.  With a parity table the points of each digit
    count are expanded together as ``sync_walk`` expands indices, each
    path summing the point's grid position and its index.
    """
    if t < 0:
        raise ValueError(f"digit count must be at least 0, got {t}")
    bn, bx, by = machine.bases
    side = by**t
    scale = bn ** max(t, 1)  # a path sum is (x * side + y) * scale + n

    def weight(symbol, digit, left):
        j, k = divmod(symbol, by)
        return (j * bx**left * side + k * by**left) * scale + digit * bn**left

    grid = [0] * (bx**t * side)
    for totals in _table_walk(machine, machine._locate, t, weight):
        if totals is None:
            return [sync_locate(machine, x, y) for x in range(bx**t) for y in range(side)]
        for total in totals:
            position, n = divmod(total, scale)
            grid[position] = n
    return grid


def lookup_paths(machine: SyncAutomaton) -> dict[str, str]:
    """Which path answers each lookup direction: ``table`` or ``search``."""
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
    # the lookup tables hold a column per index digit and per coordinate digit pair:
    # each must be read by an arc, so the bases cannot size them beyond what the file lists
    triples = {triple for _, triple in transitions}
    require_all(range(bases[0]), {i for i, _, _ in triples}, header_line, "index digits")
    require_all(product(range(bases[1]), range(bases[2])), {(j, k) for _, j, k in triples},
                header_line, "coordinate digit pairs")
    return SyncAutomaton(bases=bases, state_count=count, initial=initial,
                         accepting=accepting, transitions=transitions)
