"""Bitmap rendering of curve stages from the automatic bitmap.

A stage-g image doubles the coordinate grid: lattice points sit at
even-even pixels (all of them are visited, so all are lit) and the pixel
between two adjacent lattice points is lit exactly when the curve visits
them consecutively.  The resulting image is square with side
2**(g+1) - 1.

The image is automatic: ``bitmap_dfao`` derives from the synchronized
machine S a base-4 automaton that reads the bit pairs of a lattice point
(x, y), most significant first, and outputs the 2x2 pixel block at
(2x, 2y): whether the point is on the curve, ∃n S(n, x, y); whether the
pixel to its right is lit, ∃n S(n, x, y) ∧ S(n±1, x+1, y); and whether
the pixel above it is, the same with y+1 (the odd-odd pixel never is).
Each connector relation runs two copies of S with msd-first incrementers
on the coordinate and the index; each relation is projected to the point
bits and determinized by subset construction, and the three automata are
combined as a product (the method of Walnut, Mousavi 2016).
``render_pbm`` streams the plain PBM rows of a stage from that automaton,
building the quadtree block of each state once up to a small level;
``render_from_walk`` draws the image from the oracle's stage word into a
``Bitmap``, the independent reference.  Output is plain-text PBM, chosen
over the packed binary variant so golden files diff cleanly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, repeat
from typing import Iterator

from .dfao import Dfao
from .linrep import increment_transducer
from .oracle import generate_generation, require_stage, walk
from .sync import SyncAutomaton, hilbert_sync

# Rendering no longer locates points, but the traced benchmark run
# (perfbench/tracing.py) installs a counting shim under this name.
from .sync import sync_locate  # noqa: F401

_MEMO_LEVEL = 6  # pixel rows of 2**6 x 2**6 lattice blocks are kept, once per automaton state
_PIXEL = (b"0 ", b"1 ")


@dataclass(frozen=True)
class Bitmap:
    """Row-major boolean grid; bits[y][x] with y = 0 at the bottom."""

    width: int
    height: int
    bits: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        if len(self.bits) != self.height or any(len(row) != self.width for row in self.bits):
            raise ValueError("bit grid does not match width x height")


def _check_stage(g: int) -> None:
    if g < 1:
        raise ValueError(f"stage index must be at least 1, got {g}")
    require_stage(g)


def _explore(start, successor, symbols: int):
    """Breadth-first discovery from ``start``: the states in order and their transition rows."""
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


def _determinize(start, step, accepting, symbols: int):
    """Subset construction from the NFA states ``start``: transition rows and accepting flags.

    ``step(q, s)`` lists the NFA successors of q on symbol s; subset 0 is
    ``start`` and the empty subset is an ordinary (dead) state.
    """
    step = cache(step)
    subsets, rows = _explore(
        frozenset(start), lambda subset, s: frozenset(chain.from_iterable(map(step, subset, repeat(s)))),
        symbols)
    return rows, [any(map(accepting, subset)) for subset in subsets]


def _tracks(machine: SyncAutomaton):
    """The lattice, right-connector and up-connector automata over point bit pairs."""
    bn, bx, by = machine.bases
    arcs = defaultdict(list)  # (state, x digit, y digit) -> [(index digit, target)]
    for (q, (i, j, k)), target in machine.transitions.items():
        arcs[q, j, k].append((i, target))
    final = machine.accepting.__contains__

    def on_curve(q, s):
        return [target for _, target in arcs[(q, *divmod(s, by))]]

    lattice = _determinize({machine.initial}, on_curve, final, bx * by)

    # msd-first guess-the-carry incrementers of the same length: a leading
    # zero pad leaves room for the carry, so the overflow arc is not needed
    def same_length(k):
        inc = increment_transducer(k)
        moves = defaultdict(list)  # (state, digit, successor digit) -> [target]
        for src, d, out, dst in inc.moves:
            if len(out) == 1:
                moves[src, d, out[0]].append(dst)
        return inc.initial, inc.final, moves

    n_start, n_final, n_moves = same_length(bn)

    def connector(axis):
        """∃n S(n, p) ∧ S(n±1, p + e_axis): states (q, q', coordinate carry, index carry, ±1)."""
        c_start, c_final, c_moves = same_length((bx, by)[axis])

        def step(state, s):
            q, q2, c, m, sign = state
            point = divmod(s, by)
            here = arcs[(q, *point)]
            out = []
            for d2 in range((bx, by)[axis]):  # the neighbour's digit on the axis
                for c2 in c_moves[c, point[axis], d2]:
                    other = (d2, point[1]) if axis == 0 else (point[0], d2)
                    for i, t in here:
                        for i2, t2 in arcs[(q2, *other)]:
                            pair = (i, i2) if sign > 0 else (i2, i)
                            out.extend((t, t2, c2, m2, sign) for m2 in n_moves[(m, *pair)])
            return out

        def accepted(state):
            q, q2, c, m, _ = state
            return final(q) and final(q2) and c in c_final and m in n_final

        start = [(machine.initial, machine.initial, c_start, n_start, sign) for sign in (1, -1)]
        return _determinize(start, step, accepted, bx * by)

    return lattice, connector(0), connector(1)


def bitmap_dfao(machine: SyncAutomaton) -> Dfao:
    """The automatic bitmap of ``machine``'s curve as a base-(bx*by) DFAO.

    It reads the digit pairs of a lattice point (x, y), symbol
    ``x_digit * by + y_digit``, most significant first, and outputs
    ``(lattice, right, up)``: whether (x, y) is on the curve, and whether
    the curve steps between it and (x+1, y), and between it and (x, y+1).
    The state is that of the product of the three track automata; the
    initial state is the product after one leading zero pair, which the
    connector tracks need for the carry of x+1 or n+1.  Raises
    ValueError (from ``Dfao``) if that state does not loop on a further
    zero pair, as it does for the Hilbert machine.
    """
    tracks = _tracks(machine)
    symbols = len(tracks[0][0][0])
    order, transitions = _explore(
        tuple(rows[0][0] for rows, _ in tracks),
        lambda states, s: tuple(rows[q][s] for (rows, _), q in zip(tracks, states)),
        symbols)
    outputs = tuple(tuple(flags[q] for (_, flags), q in zip(tracks, states)) for states in order)
    return Dfao(base=symbols, transitions=tuple(transitions), outputs=outputs)


def _block_rows(machine: Dfao):
    """rows(q, level): the pixel rows, bottom-up, of the 2**level-square lattice block read from q.

    A pixel is written ``b"0 "`` or ``b"1 "``, and a block's rows include
    the right and up connectors of its last column and row.
    """
    @cache
    def rows(q: int, level: int) -> tuple[bytes, ...]:
        if not level:
            lattice, right, up = machine.outputs[q]
            return (_PIXEL[lattice] + _PIXEL[right], _PIXEL[up] + _PIXEL[0])
        t = machine.transitions[q]  # symbol 2 * x_bit + y_bit
        lower = zip(rows(t[0], level - 1), rows(t[2], level - 1))
        upper = zip(rows(t[1], level - 1), rows(t[3], level - 1))
        return tuple(left + right for left, right in chain(lower, upper))
    return rows


def _pixel_rows(machine: Dfao, g: int) -> Iterator[bytes]:
    """The 2**(g+1) pixel rows of the stage-g lattice block, top-down, each without its last pixel.

    The last pixel of a row is the right connector of the last column,
    outside the image; the top row holds the up connectors of the top
    lattice row, also outside.
    """
    level = min(g, _MEMO_LEVEL)
    rows = _block_rows(machine)
    # grid[y][x]: the state after the top g - level bit pairs of each block
    grid = [[machine.initial]]
    for _ in range(g - level):
        grid = [[machine.transitions[q][2 * a + b] for q in line for a in (0, 1)]
                for line in grid for b in (0, 1)]
    for line in reversed(grid):
        blocks = [rows(q, level) for q in line]
        for r in range(2 ** (level + 1) - 1, -1, -1):
            yield b"".join([block[r] for block in blocks])[:-3] + b"\n"  # drops "X " and a space


def render_pbm(g: int) -> Iterator[bytes]:
    """The plain PBM of stage g, header first and then rows top-down, as byte chunks.

    The stage is checked before anything is produced; rows are read off
    ``bitmap_dfao(hilbert_sync())``, so memory stays at the size of one
    band of rows plus the cached blocks, whatever g is.
    """
    _check_stage(g)
    side = 2 ** (g + 1) - 1
    header = f"P1\n{side} {side}\n".encode("ascii")
    return chain([header], islice(_pixel_rows(bitmap_dfao(hilbert_sync()), g), 1, None))


def render_generation(g: int) -> Bitmap:
    """Stage g as a ``Bitmap``: the image ``render_pbm`` streams."""
    return parse_pbm(b"".join(render_pbm(g)))


def _draw(g: int, points) -> Bitmap:
    """The stage-g image of a walk: its points and the connectors between consecutive ones."""
    side = 2 ** (g + 1) - 1
    grid = [[False] * side for _ in range(side)]
    for p in points:
        grid[2 * p.y][2 * p.x] = True
    for a, b in zip(points, points[1:]):
        grid[a.y + b.y][a.x + b.x] = True
    return Bitmap(width=side, height=side, bits=tuple(tuple(row) for row in grid))


def render_from_walk(g: int) -> Bitmap:
    """Render stage g from the walked stage word; the independent route."""
    _check_stage(g)
    return _draw(g, walk(generate_generation(g)))


def count_lit(bitmap: Bitmap) -> int:
    return sum(sum(row) for row in bitmap.bits)


def write_pbm(bitmap: Bitmap) -> bytes:
    """Plain PBM bytes: rows written top-down, '1' for a lit pixel."""
    lines = [f"P1\n{bitmap.width} {bitmap.height}\n"]
    for row in reversed(bitmap.bits):
        lines.append(" ".join("1" if bit else "0" for bit in row) + "\n")
    return "".join(lines).encode("ascii")


def parse_pbm(data: bytes) -> Bitmap:
    """Parse plain PBM; the inverse of write_pbm (comments tolerated)."""
    tokens: list[str] = []
    for raw in data.decode("ascii").splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    if not tokens or tokens[0] != "P1":
        raise ValueError("not a plain PBM stream")
    if len(tokens) < 3:
        raise ValueError("truncated PBM header")
    width, height = int(tokens[1]), int(tokens[2])
    cells = "".join(tokens[3:])
    if len(cells) != width * height or set(cells) - {"0", "1"}:
        raise ValueError(f"expected {width * height} binary pixels")
    rows_top_down = [
        tuple(ch == "1" for ch in cells[r * width:(r + 1) * width]) for r in range(height)
    ]
    return Bitmap(width=width, height=height, bits=tuple(reversed(rows_top_down)))
