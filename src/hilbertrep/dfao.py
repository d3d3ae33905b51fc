"""The base-4 automaton with per-state output that computes curve letters.

hilbert_dfao() is an 8-state machine: running it on the base-4 digits of
n, most significant digit first, ends in a state whose output is the n'th
letter of the curve word; ``dfao_walk`` reads the letters of a whole
range of indices at once.  The module also carries the digit-string
utilities shared by the other representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .oracle import STEP, Direction
from .textfmt import ParseError, parse_arc, parse_index, parse_int, read_text, require_all


def require_base(k: int) -> None:
    """Raise ValueError unless k is a usable digit base (at least 2)."""
    if k < 2:
        raise ValueError(f"base must be at least 2, got {k}")


def to_base(n: int, k: int) -> tuple[int, ...]:
    """Canonical base-k digits of n, most significant first; zero is (0,)."""
    require_base(k)
    if n < 0:
        raise ValueError(f"cannot represent negative value {n}")
    if n == 0:
        return (0,)
    digits = []
    while n:
        n, digit = divmod(n, k)
        digits.append(digit)
    return tuple(reversed(digits))


def from_base(digits, k: int) -> int:
    """Value of a most-significant-first digit string in base k."""
    value = 0
    for digit in digits:
        if not 0 <= digit < k:
            raise ValueError(f"digit {digit} out of range for base {k}")
        value = value * k + digit
    return value


@dataclass(frozen=True)
class Dfao:
    """Deterministic automaton with one output value per state.

    ``transitions[q][d]`` is the successor of state q on digit d; the
    table must be total, and reading a leading zero from the initial
    state must stay in the initial state so zero padding cannot change
    the result.  Instances are immutable and safe to share.
    """

    base: int
    transitions: tuple[tuple[int, ...], ...]
    outputs: tuple[Hashable, ...]
    initial: int = 0

    def __post_init__(self):
        require_base(self.base)
        count = len(self.transitions)
        if len(self.outputs) != count:
            raise ValueError("one output per state required")
        if not 0 <= self.initial < count:
            raise ValueError(f"initial state {self.initial} out of range")
        for q, row in enumerate(self.transitions):
            if len(row) != self.base:
                raise ValueError(f"state {q} must have {self.base} transitions")
            for d, target in enumerate(row):
                if not 0 <= target < count:
                    raise ValueError(f"transition ({q}, {d}) -> {target} out of range")
        if self.transitions[self.initial][0] != self.initial:
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


def eval_dfao_digits(machine: Dfao, digits) -> Hashable:
    """Output after running the machine on an explicit digit string."""
    digits = tuple(digits)
    low = min(digits, default=0)
    if low < 0:  # a negative index would silently read from the end of a row
        raise ValueError(f"digit {low} out of range for base {machine.base}")
    state = machine.initial
    transitions = machine.transitions
    for digit in digits:
        state = transitions[state][digit]
    return machine.outputs[state]


def eval_dfao(machine: Dfao, n: int) -> Hashable:
    """Output for index n, read from its canonical base-``machine.base`` digits."""
    return eval_dfao_digits(machine, to_base(n, machine.base))


def dfao_walk(machine: Dfao, t: int) -> list[Hashable]:
    """The outputs for n = 0 ... base**t - 1 in index order.

    Equal to ``[eval_dfao(machine, n) for n in range(base**t)]``.  The
    states of all t-digit strings are expanded one digit per level, so a
    shared prefix is read once; leading zeros loop at the initial state,
    so the zero-padded strings end where the canonical digits do.
    """
    if t < 0:
        raise ValueError(f"digit count must be at least 0, got {t}")
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


def _bfs_order(machine: Dfao) -> list[int]:
    """Reachable states in breadth-first discovery order (digits ascending)."""
    order = [machine.initial]
    seen = {machine.initial}
    for state in order:
        for digit in range(machine.base):
            target = machine.transitions[state][digit]
            if target not in seen:
                seen.add(target)
                order.append(target)
    return order


def dfao_equal(a: Dfao, b: Dfao) -> tuple[bool, dict[int, int] | None]:
    """Decide whether the reachable parts are isomorphic, outputs included.

    Returns (True, mapping) with the state relabeling from a to b, or
    (False, None).  Both machines are canonically renumbered by
    breadth-first discovery, which makes the witness deterministic.
    """
    if a.base != b.base:
        return False, None
    order_a = _bfs_order(a)
    order_b = _bfs_order(b)
    if len(order_a) != len(order_b):
        return False, None
    index_a = {q: i for i, q in enumerate(order_a)}
    index_b = {q: i for i, q in enumerate(order_b)}
    for qa, qb in zip(order_a, order_b):
        if a.outputs[qa] != b.outputs[qb]:
            return False, None
        for digit in range(a.base):
            if index_a[a.transitions[qa][digit]] != index_b[b.transitions[qb][digit]]:
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
    header_line, fields, body = read_text(text, "dfao", ("base", "states", "initial"))
    base = parse_int(fields["base"], header_line, "base")
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
