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
Each connector relation runs two copies of S with msd-first successor
recognizers on the coordinate and the index: two-state automata reading
digit pairs (a, b) of the same length that accept exactly when b = a + 1.
The three relations are projected to the point bits and determinized by
one subset construction over their disjoint union (the method of Walnut,
Mousavi 2016): 128 subsets for the Hilbert machine, which Moore
minimization (``minimize_dfao``) cuts to 66.  ``hilbert_bitmap()`` is
that 66-state machine as a literal table, certified by the tests to
equal the minimized derivation, so rendering neither loads the sync
machine nor repeats the construction.  ``render_pbm`` streams the plain
PBM rows of a stage from it, building the quadtree block of each state
once up to a small level; ``render_from_walk`` draws the image from the
oracle's stage word into a ``Bitmap``, the independent reference.
Output is plain-text PBM, chosen over the packed binary variant so
golden files diff cleanly.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, islice, product
from typing import TYPE_CHECKING, Iterator

from .dfao import Dfao, Record, _successor_moves, determinize, require_at_least
from .oracle import generate_generation, require_stage, walk

if TYPE_CHECKING:
    from .sync import SyncAutomaton

_MEMO_LEVEL = 6  # pixel rows of 2**6 x 2**6 lattice blocks are kept, once per automaton state
_PIXEL = (b"0 ", b"1 ")


class Bitmap(Record):
    """Row-major boolean grid; bits[y][x] with y = 0 at the bottom."""

    _fields = ("width", "height", "bits")

    def __init__(self, width: int, height: int, bits: tuple[tuple[bool, ...], ...]):
        self.__dict__.update(width=width, height=height, bits=bits)
        if len(bits) != height or any(len(row) != width for row in bits):
            raise ValueError("bit grid does not match width x height")


def __getattr__(name: str):
    # Rendering locates no points, but the traced benchmark run (perfbench/tracing.py)
    # installs a counting shim under this name; sync is loaded only when it is looked up.
    if name != "sync_locate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .sync import sync_locate
    return sync_locate


def _check_stage(g: int) -> None:
    require_at_least(g, 1, "stage index")
    require_stage(g)


def bitmap_dfao(machine: SyncAutomaton) -> Dfao:
    """The automatic bitmap of ``machine``'s curve as a base-(bx*by) DFAO.

    It reads the digit pairs of a lattice point (x, y), symbol
    ``x_digit * by + y_digit``, most significant first, and outputs
    ``(lattice, right, up)``: whether (x, y) is on the curve, and whether
    the curve steps between it and (x+1, y), and between it and (x, y+1).
    One subset construction runs the three tracks, each NFA state tagged
    with its track: lattice states are ``(0, q)``, and connector states
    ``(1 + axis, q, q', axis recognizer, index recognizer, ±1)`` for
    ∃n S(n, p) ∧ S(n±1, p + e_axis).  It starts after one leading zero
    pair, which the connectors need for the carry of x+1 or n+1; ``Dfao``
    raises ValueError if that subset does not loop on a further zero pair.
    """
    bn, bx, by = machine.bases
    # groups[state][point symbol]: (target, the index digits of its arcs); the connectors pair the digits
    groups = machine._locate.targets
    final = machine.accepting
    n_moves = _successor_moves(bn)
    c_moves = (_successor_moves(bx), _successor_moves(by))

    def step(state, s):
        track, q, *pair = state
        if not track:
            return [(0, target) for target, _ in groups[q].get(s, ())]
        q2, c, m, sign = pair
        axis = track - 1
        point = divmod(s, by)
        out = []
        for d2 in range((bx, by)[axis]):  # the neighbour's digit on the axis
            c2 = c_moves[axis].get((c, point[axis], d2))
            if c2 is None:
                continue
            other = d2 * by + point[1] if axis == 0 else point[0] * by + d2
            for (t, digits), (t2, digits2) in product(groups[q].get(s, ()), groups[q2].get(other, ())):
                for i, i2 in product(digits, digits2):
                    m2 = n_moves.get((m, i, i2) if sign > 0 else (m, i2, i))
                    if m2 is not None:
                        out.append((track, t, t2, c2, m2, sign))
        return out

    def output(subset):  # per track: does the subset hold an accepting state?
        hits = {track for track, q, *pair in subset
                if q in final and (not track or pair[0] in final and pair[1] == pair[2] == 1)}
        return tuple(track in hits for track in range(3))

    roots = [(0, machine.initial)]
    roots += [(track, machine.initial, machine.initial, 0, 0, sign) for track in (1, 2) for sign in (1, -1)]
    rows, outputs = determinize(chain.from_iterable(step(root, 0) for root in roots), step, output, bx * by)
    return Dfao(base=bx * by, transitions=tuple(rows), outputs=tuple(outputs))


# (state, targets on the symbols 2 * x_bit + y_bit, (lattice, right, up)) of minimize_dfao(
# bitmap_dfao(hilbert_sync())); tests/test_bitmap.py certifies the two equal
_HILBERT_BITMAP_ROWS: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...] = (
    (0, (0, 1, 2, 3), (1, 0, 1)),
    (1, (4, 0, 5, 6), (1, 1, 0)),
    (2, (7, 8, 0, 9), (1, 1, 1)),
    (3, (10, 11, 12, 13), (1, 0, 0)),
    (4, (1, 4, 14, 15), (1, 1, 1)),
    (5, (16, 17, 18, 19), (1, 0, 1)),
    (6, (20, 21, 22, 23), (1, 1, 0)),
    (7, (2, 24, 7, 25), (1, 1, 0)),
    (8, (16, 26, 27, 28), (1, 1, 1)),
    (9, (29, 30, 31, 32), (1, 0, 0)),
    (10, (10, 29, 20, 13), (1, 1, 0)),
    (11, (33, 34, 35, 36), (1, 1, 0)),
    (12, (37, 38, 39, 40), (1, 0, 1)),
    (13, (0, 41, 42, 3), (1, 0, 0)),
    (14, (29, 43, 31, 32), (1, 0, 1)),
    (15, (37, 44, 39, 45), (1, 0, 0)),
    (16, (46, 47, 48, 49), (1, 1, 1)),
    (17, (7, 28, 50, 30), (1, 1, 0)),
    (18, (4, 51, 5, 22), (1, 1, 0)),
    (19, (16, 17, 27, 19), (1, 0, 1)),
    (20, (37, 38, 10, 40), (1, 0, 1)),
    (21, (2, 24, 52, 53), (1, 1, 0)),
    (22, (20, 21, 22, 27), (1, 0, 1)),
    (23, (4, 51, 19, 6), (1, 0, 0)),
    (24, (20, 21, 54, 23), (1, 1, 0)),
    (25, (33, 34, 55, 56), (1, 0, 1)),
    (26, (7, 8, 50, 30), (1, 1, 0)),
    (27, (4, 51, 19, 22), (1, 0, 0)),
    (28, (16, 17, 27, 28), (1, 1, 0)),
    (29, (33, 10, 35, 36), (1, 1, 1)),
    (30, (29, 30, 31, 17), (1, 0, 0)),
    (31, (1, 57, 14, 58), (1, 0, 1)),
    (32, (7, 28, 50, 9), (1, 0, 1)),
    (33, (29, 33, 31, 17), (1, 0, 1)),
    (34, (10, 11, 20, 13), (1, 1, 0)),
    (35, (46, 15, 48, 55), (1, 1, 1)),
    (36, (2, 24, 56, 53), (1, 0, 0)),
    (37, (20, 21, 37, 27), (1, 1, 1)),
    (38, (46, 47, 25, 44), (1, 1, 0)),
    (39, (10, 29, 12, 13), (1, 0, 0)),
    (40, (1, 45, 14, 58), (1, 0, 1)),
    (41, (4, 51, 5, 6), (1, 1, 0)),
    (42, (7, 8, 50, 9), (1, 0, 1)),
    (43, (29, 59, 31, 17), (1, 0, 0)),
    (44, (46, 15, 25, 44), (1, 1, 0)),
    (45, (1, 45, 14, 15), (1, 1, 0)),
    (46, (16, 26, 18, 60), (1, 1, 1)),
    (47, (37, 38, 39, 45), (1, 0, 1)),
    (48, (33, 34, 35, 56), (1, 0, 1)),
    (49, (46, 15, 25, 61), (1, 1, 0)),
    (50, (0, 1, 42, 3), (1, 0, 1)),
    (51, (0, 41, 2, 3), (1, 0, 0)),
    (52, (2, 24, 62, 25), (1, 0, 0)),
    (53, (33, 34, 55, 36), (1, 1, 0)),
    (54, (20, 21, 63, 27), (1, 1, 1)),
    (55, (46, 15, 25, 55), (1, 0, 1)),
    (56, (2, 24, 56, 25), (1, 0, 0)),
    (57, (1, 64, 14, 15), (1, 1, 1)),
    (58, (37, 44, 39, 40), (1, 0, 0)),
    (59, (29, 43, 31, 17), (1, 0, 1)),
    (60, (16, 17, 27, 65), (1, 0, 1)),
    (61, (46, 15, 25, 49), (1, 0, 1)),
    (62, (2, 24, 52, 25), (1, 1, 0)),
    (63, (20, 21, 54, 27), (1, 0, 1)),
    (64, (1, 57, 14, 15), (1, 1, 0)),
    (65, (16, 17, 27, 60), (1, 1, 0)),
)


def hilbert_bitmap() -> Dfao:
    """The 66-state automatic bitmap of the Hilbert curve, with the outputs of ``bitmap_dfao``."""
    return Dfao(base=4, transitions=tuple(row for _, row, _ in _HILBERT_BITMAP_ROWS),
                outputs=tuple(tuple(map(bool, flags)) for _, _, flags in _HILBERT_BITMAP_ROWS))


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
    ``hilbert_bitmap()``, so memory stays at the size of one
    band of rows plus the cached blocks, whatever g is.
    """
    _check_stage(g)
    side = 2 ** (g + 1) - 1
    header = f"P1\n{side} {side}\n".encode("ascii")
    return chain([header], islice(_pixel_rows(hilbert_bitmap(), g), 1, None))


def render_generation(g: int) -> Bitmap:
    """Stage g as a ``Bitmap``: the image ``render_pbm`` streams."""
    chunks = render_pbm(g)
    next(chunks)  # the header
    # a row "1 0 1\n" holds its pixel digits at even offsets
    rows_top_down = [tuple(pixel == ord("1") for pixel in row[::2]) for row in chunks]
    side = len(rows_top_down)
    return Bitmap(width=side, height=side, bits=tuple(reversed(rows_top_down)))


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


def write_pbm(bitmap: Bitmap) -> bytes:
    """Plain PBM bytes: rows written top-down, '1' for a lit pixel."""
    lines = [f"P1\n{bitmap.width} {bitmap.height}\n"]
    for row in reversed(bitmap.bits):
        lines.append(" ".join("1" if bit else "0" for bit in row) + "\n")
    return "".join(lines).encode("ascii")

