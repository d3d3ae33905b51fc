"""Bitmap rendering of curve stages.

A stage-g image doubles the coordinate grid: lattice points sit at
even-even pixels (all of them are visited, so all are lit) and the pixel
between two adjacent lattice points is lit exactly when the curve visits
them consecutively.  The resulting image is square with side
2**(g+1) - 1.  ``render_generation`` draws it from the walk read off the
synchronized automaton's coordinate table (``sync_walk``), and
``render_from_walk`` draws it from the oracle's stage word, the
independent reference.  Output is plain-text PBM, chosen over the packed
binary variant so golden files diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracle import generate_generation, require_stage, walk
from .sync import hilbert_sync, sync_walk

# Rendering no longer locates points, but the traced benchmark run
# (perfbench/tracing.py) installs a counting shim under this name.
from .sync import sync_locate  # noqa: F401


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


def _draw(g: int, points) -> Bitmap:
    """The stage-g image of a walk: its points and the connectors between consecutive ones."""
    side = 2 ** (g + 1) - 1
    grid = [[False] * side for _ in range(side)]
    for p in points:
        grid[2 * p.y][2 * p.x] = True
    for a, b in zip(points, points[1:]):
        grid[a.y + b.y][a.x + b.x] = True
    return Bitmap(width=side, height=side, bits=tuple(tuple(row) for row in grid))


def render_generation(g: int) -> Bitmap:
    """Render stage g from the synchronized automaton's coordinate table.

    ``sync_walk`` reads the coordinates of the indices below 4**g in
    index order, one pass over the parity table with shared prefixes read
    once; the image is drawn from that walk.
    """
    _check_stage(g)
    return _draw(g, sync_walk(hilbert_sync(), g))


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
