"""The base-4 automaton with per-state output that computes curve letters.

hilbert_dfao() is an 8-state machine: running it on the base-4 digits of
n, most significant digit first, ends in a state whose output is the n'th
letter of the curve word; ``dfao_walk`` reads the letters of a whole
range of indices at once.  The module also carries what the other
representations share: the digit-string utilities, the ``Record`` base
of the package's immutable value classes, and the automaton engine,
``explore`` (breadth-first discovery of the states reachable from a
start), ``determinize`` (subset construction on top of it) and
``minimize_dfao`` (Moore's partition refinement), which build and
minimize the automatic bitmap, compare two machines and close a linear
representation's matrices into an automaton.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, product, repeat
from typing import Hashable

from .oracle import STEP, Direction, require_at_least


def require_base(k: int) -> None:
    """Raise ValueError unless k is a usable digit base (at least 2)."""
    require_at_least(k, 2, "base")


# The bases whose digits fill whole bytes, each with its digits per byte, the
# digits of each byte value 0 ... 255 (bytes of digit values), and the
# translation of a digit value to the character ``int`` reads for it ("!" where out of range)
_BYTE_DIGITS = {
    k: (w, tuple(map(bytes, product(range(k), repeat=w))),
        bytes(b"0123456789abcdef"[d] if d < k else 33 for d in range(256)))
    for k, w in ((2, 8), (4, 4), (16, 2))}


def to_base(n: int, k: int) -> tuple[int, ...]:
    """Canonical base-k digits of n, most significant first; zero is (0,).

    In bases 2, 4 and 16 the digits are read off ``n.to_bytes`` one byte
    at a time through a table, in time linear in the digit count; other
    bases peel one digit per ``divmod``.
    """
    byte_digits = _BYTE_DIGITS.get(k)
    if byte_digits is None:  # the byte-table bases are valid ones
        require_base(k)
    if n < 0:
        raise ValueError(f"cannot represent negative value {n}")
    if byte_digits:
        width, table, _ = byte_digits
        bits = n.bit_length()
        count = -(-bits * width // 8) or 1  # n's digits, 8 // width bits each; zero has one
        digits = b"".join(map(table.__getitem__, n.to_bytes((bits + 7) // 8 or 1, "big")))
        return tuple(digits[len(digits) - count:])
    if n == 0:
        return (0,)
    digits = []
    while n:
        n, digit = divmod(n, k)
        digits.append(digit)
    return tuple(reversed(digits))


def from_base(digits, k: int) -> int:
    """Value of a most-significant-first digit string in base k.

    In bases 2, 4 and 16 ``int`` reads the digits from bytes, in time
    linear in the digit count; other bases, the empty string and a string
    with a digit out of range go through the Horner loop.
    """
    digits = tuple(digits)
    if k in _BYTE_DIGITS:
        try:
            return int(bytes(digits).translate(_BYTE_DIGITS[k][2]), k)
        except (TypeError, ValueError):  # empty, or a digit out of range: the loop says which
            pass
    value = 0
    for digit in digits:
        if not 0 <= digit < k:
            raise ValueError(f"digit {digit} out of range for base {k}")
        value = value * k + digit
    return value


class Record:
    """Base of the package's immutable value classes, driven by their ``_fields``.

    Two records are equal when they are of the same class and their
    fields are; a record hashes as the tuple of its fields (unhashable if
    one is) and prints as ``Name(field=value, ...)``.  Assigning or
    deleting an attribute raises AttributeError: a subclass's ``__init__``
    sets its fields, and anything it derives from them, through
    ``self.__dict__``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Dfao(Record):
    """Deterministic automaton with one output value per state.

    ``transitions[q][d]`` is the successor of state q on digit d; the
    table must be total, and reading a leading zero from the initial
    state must stay in the initial state so zero padding cannot change
    the result.  Instances are immutable and safe to share.
    """

    _fields = ("base", "transitions", "outputs", "initial")

    def __init__(self, base: int, transitions: tuple[tuple[int, ...], ...],
                 outputs: tuple[Hashable, ...], initial: int = 0):
        self.__dict__.update(base=base, transitions=transitions, outputs=outputs, initial=initial)
        require_base(base)
        count = len(transitions)
        if len(outputs) != count:
            raise ValueError("one output per state required")
        if not 0 <= initial < count:
            raise ValueError(f"initial state {initial} out of range")
        for q, row in enumerate(transitions):
            if len(row) != base:
                raise ValueError(f"state {q} must have {base} transitions")
            for d, target in enumerate(row):
                if not 0 <= target < count:
                    raise ValueError(f"transition ({q}, {d}) -> {target} out of range")
        if transitions[initial][0] != initial:
            raise ValueError("leading zeros must loop at the initial state")

    @property
    def state_count(self) -> int:
        return len(self.transitions)


_HILBERT_TRANSITIONS = (
    (0, 1, 2, 3),
    (1, 0, 4, 5),
    (1, 0, 4, 6),
    (7, 6, 5, 0),
    (0, 1, 2, 7),
    (6, 7, 3, 1),
    (6, 7, 3, 2),
    (7, 6, 5, 4),
)

_HILBERT_OUTPUTS = (
    Direction.U, Direction.R, Direction.D, Direction.R,
    Direction.L, Direction.U, Direction.L, Direction.D,
)


def hilbert_dfao() -> Dfao:
    """The 8-state machine computing the curve's letter sequence."""
    return Dfao(base=4, transitions=_HILBERT_TRANSITIONS, outputs=_HILBERT_OUTPUTS)


def _run(machine: Dfao, digits) -> Hashable:
    """Output after reading ``digits``, every one of which is below the base."""
    state = machine.initial
    transitions = machine.transitions
    for digit in digits:
        state = transitions[state][digit]
    return machine.outputs[state]


def eval_dfao_digits(machine: Dfao, digits) -> Hashable:
    """Output on an explicit digit string; a digit out of range raises ValueError."""
    digits = tuple(digits)
    bad = next((d for d in digits if not 0 <= d < machine.base), None)
    if bad is not None:
        raise ValueError(f"digit {bad} out of range for base {machine.base}")
    return _run(machine, digits)


def eval_dfao(machine: Dfao, n: int) -> Hashable:
    """Output for index n, read from its canonical base-``machine.base`` digits."""
    return _run(machine, to_base(n, machine.base))


def dfao_walk(machine: Dfao, t: int) -> list[Hashable]:
    """The outputs for n = 0 ... base**t - 1 in index order.

    Equal to ``[eval_dfao(machine, n) for n in range(base**t)]``.  The
    states of all t-digit strings are expanded one digit per level, so a
    shared prefix is read once; leading zeros loop at the initial state,
    so the zero-padded strings end where the canonical digits do.
    """
    require_at_least(t, 0, "digit count")
    if not t:
        return [machine.outputs[machine.initial]]
    states = [machine.initial]
    for _ in range(t - 1):
        states = [target for state in states for target in machine.transitions[state]]
    # the last digit goes straight to outputs: no list of the last level's states is held
    after = [[machine.outputs[target] for target in row] for row in machine.transitions]
    return [output for state in states for output in after[state]]


def coords_by_letters(machine: Dfao, n: int) -> tuple[int, int]:
    """Position after n steps when the machine's outputs drive a walk.

    In O(log n) work: each digit d of n, followed by r digits, adds the
    summed steps of all r-digit strings read from the targets of the digits
    below d.
    """
    digits = to_base(n, machine.base)
    sums = [[STEP[output] for output in machine.outputs]]  # sums[r][q]: over r-digit strings from q
    for _ in digits[1:]:
        sums.append([tuple(map(sum, zip(*(sums[-1][q] for q in row)))) for row in machine.transitions])
    state, blocks = machine.initial, []
    for r, digit in zip(range(len(digits) - 1, -1, -1), digits):
        row = machine.transitions[state]
        blocks.extend(sums[r][q] for q in row[:digit])
        state = row[digit]
    return tuple(map(sum, zip((0, 0), *blocks)))


def explore(start, successor, symbols: int):
    """Breadth-first discovery from ``start``: the states in order and their transition rows.

    ``successor(state, s)`` is the state reached on symbol s, for s in
    ``range(symbols)``; states are numbered in discovery order, symbols
    ascending, so the numbering is deterministic.
    """
    index = {start: 0}
    order = [start]
    rows = []
    for state in order:  # grows while it is read
        row = []
        for s in range(symbols):
            target = successor(state, s)
            if target not in index:
                index[target] = len(order)
                order.append(target)
            row.append(index[target])
        rows.append(tuple(row))
    return order, rows


def _successor_moves(k: int) -> dict[tuple[int, int, int], int]:
    """The msd-first recognizer of b = a + 1 on same-length base-k digit strings.

    ``moves[state, a_digit, b_digit]`` is the next state; a missing key
    rejects.  State 0, the start, means "equal so far"; state 1, the only
    final state, means b's digit went one above a's and every digit since
    has been k-1 in a and 0 in b.  A leading zero pad leaves room for a
    carry out of the top digit.
    """
    moves = {(0, d, d): 0 for d in range(k)}
    moves.update({(0, d, d + 1): 1 for d in range(k - 1)})
    moves[1, k - 1, 0] = 1
    return moves


def determinize(start, step, output, symbols: int):
    """Subset construction from the NFA states ``start``: transition rows and one output per subset.

    ``step(q, s)`` lists the NFA successors of q on symbol s and ``output``
    reads a frozenset of them; subset 0 is ``start``, the empty subset an
    ordinary (dead) state.
    """
    step = cache(step)
    subsets, rows = explore(
        frozenset(start), lambda subset, s: frozenset(chain.from_iterable(map(step, subset, repeat(s)))),
        symbols)
    return rows, [output(subset) for subset in subsets]


def minimize_dfao(machine: Dfao) -> Dfao:
    """The least machine with the same output on every digit string (Moore 1956).

    The reachable states start in one class per output; each round splits
    the classes by the classes their successors fall in, until a round
    splits none.  The classes are then numbered by ``explore``, so two
    machines with the same outputs minimize to equal ``Dfao`` values.
    """
    rows = machine.transitions
    reachable, _ = explore(machine.initial, lambda q, d: rows[q][d], machine.base)
    block = {q: machine.outputs[q] for q in reachable}
    count = len(set(block.values()))
    while True:
        names: dict = {}
        block = {q: names.setdefault((block[q], *map(block.__getitem__, rows[q])), len(names))
                 for q in reachable}
        if len(names) == count:
            break
        count = len(names)
    member: dict = {}  # a state of each class
    for q in reachable:
        member.setdefault(block[q], q)
    order, transitions = explore(block[machine.initial], lambda c, d: block[rows[member[c]][d]], machine.base)
    return Dfao(base=machine.base, transitions=tuple(transitions),
                outputs=tuple(machine.outputs[member[c]] for c in order))


def dfao_equal(a: Dfao, b: Dfao) -> tuple[bool, dict[int, int] | None]:
    """Decide whether the reachable parts are isomorphic, outputs included.

    Returns (True, mapping) with the state relabeling from a to b, or
    (False, None).  Both machines are canonically renumbered by
    ``explore``, which makes the witness deterministic: they are equal
    when the renumbered rows and outputs are.
    """
    if a.base != b.base:
        return False, None
    order_a, rows_a = explore(a.initial, lambda q, d: a.transitions[q][d], a.base)
    order_b, rows_b = explore(b.initial, lambda q, d: b.transitions[q][d], b.base)
    if rows_a != rows_b or [a.outputs[q] for q in order_a] != [b.outputs[q] for q in order_b]:
        return False, None
    return True, dict(zip(order_a, order_b))


def dfao_to_text(machine: Dfao) -> str:
    """Serialize to the canonical text form (Direction outputs only)."""
    lines = [f"dfao base={machine.base} states={machine.state_count} initial={machine.initial}"]
    for q, output in enumerate(machine.outputs):
        if not isinstance(output, Direction):
            raise ValueError(f"state {q} output {output!r} is not a direction")
        lines.append(f"state {q} output={output.name}")
    for q, row in enumerate(machine.transitions):
        for digit, target in enumerate(row):
            lines.append(f"{q} {digit} -> {target}")
    return "\n".join(lines) + "\n"


def dfao_from_text(text: str) -> Dfao:
    """Parse the text form; raises ParseError with the offending line number."""
    from .textfmt import ParseError, parse_arc, parse_index, parse_int, read_text, require_all

    header_line, fields, body = read_text(text, "dfao", ("base", "states", "initial"))
    base = parse_int(fields["base"], header_line, "base")
    require_base(base)
    count = parse_int(fields["states"], header_line, "state count")
    initial = parse_int(fields["initial"], header_line, "initial state")

    outputs: dict[int, Direction] = {}
    table: dict[tuple[int, int], int] = {}
    for lineno, line in body:
        tokens = line.split()
        if tokens[0] == "state":
            if len(tokens) != 3 or not tokens[2].startswith("output="):
                raise ParseError(lineno, f"malformed state line {line!r}")
            q = parse_index(tokens[1], lineno, "state", count)
            if q in outputs:
                raise ParseError(lineno, f"duplicate output for state {q}")
            name = tokens[2].removeprefix("output=")
            try:
                outputs[q] = Direction[name]
            except KeyError:
                raise ParseError(lineno, f"unknown output letter {name!r}") from None
        else:
            q, symbol, target = parse_arc(line, lineno, count)
            digit = parse_index(symbol, lineno, "digit", base)
            if (q, digit) in table:
                raise ParseError(lineno, f"duplicate transition ({q}, {digit})")
            table[(q, digit)] = target

    require_all(range(count), outputs, header_line, "output for states")
    require_all(((q, d) for q in range(count) for d in range(base)), table, header_line, "transitions")
    transitions = tuple(tuple(table[(q, d)] for d in range(base)) for q in range(count))
    return Dfao(base=base, transitions=transitions,
                outputs=tuple(outputs[q] for q in range(count)), initial=initial)
