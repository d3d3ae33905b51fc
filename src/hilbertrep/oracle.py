"""Ground-truth construction of the curve word and its lattice walk.

The curve is the limit of finite stages: stage n is a word of length
4**n - 1 over the unit moves U, R, D, L, each stage is a prefix of the
next, and following the moves from the origin visits every point of the
2**n x 2**n grid exactly once.  Every other representation in this
package (the digit automaton, the exact linear representations, the
synchronized automaton, the bitmap renderer) is tested against the
functions in this module.

Words are stored as ``bytes`` of the numeric codings 0..3; the textual
U/R/D/L form appears only at I/O boundaries.  All values are immutable and
all functions pure, except that ``require_stage`` reads HILBERT_BUDGET.
"""

from __future__ import annotations

import enum
import os
from typing import Iterable, NamedTuple

DEFAULT_MAX_GENERATION = 12  # 4**12 - 1 letters, about 16.7M bytes


class Direction(enum.IntEnum):
    """One unit move; the enum value is the numeric coding."""

    U = 0
    R = 1
    D = 2
    L = 3


class Coding(enum.Enum):
    """Letterwise recodings used when assembling the next stage."""

    DIAGONAL = "diagonal"    # flip about the main diagonal: U<->R, D<->L
    HALF_TURN = "half_turn"  # rotate 180 degrees: U<->D, R<->L


STEP: dict[Direction, tuple[int, int]] = {
    Direction.U: (0, 1),
    Direction.R: (1, 0),
    Direction.D: (0, -1),
    Direction.L: (-1, 0),
}

_STEP_BY_CODE = tuple(STEP[Direction(code)] for code in range(4))

_CODING_TABLES = {
    Coding.DIAGONAL: bytes.maketrans(bytes(range(4)), bytes([1, 0, 3, 2])),
    Coding.HALF_TURN: bytes.maketrans(bytes(range(4)), bytes([2, 3, 0, 1])),
}

_LETTERS_TO_CODES = {letter: code for code, letter in enumerate("URDL")}
_CODES_TO_LETTERS = bytes.maketrans(bytes(range(4)), b"URDL")

# Moves spliced between the four copies when growing a stage; which triple
# is used alternates with the parity of the stage being grown.
_JOINS_FROM_EVEN = (Direction.U, Direction.R, Direction.D)
_JOINS_FROM_ODD = (Direction.R, Direction.U, Direction.L)


class Point(NamedTuple):
    x: int
    y: int


class GenerationBudgetError(ValueError):
    """Expanding the requested stage would exceed the memory budget."""


class NegativeCoordinateError(ValueError):
    """A walk stepped out of the non-negative quadrant (corrupted word)."""


def apply_coding(coding: Coding, word: bytes) -> bytes:
    """Apply a letterwise recoding to a word; length is preserved."""
    return word.translate(_CODING_TABLES[coding])


def recode(coding: Coding, letter: Direction) -> Direction:
    """Apply a recoding to a single letter."""
    return Direction(_CODING_TABLES[coding][letter])


def require_at_least(value: int, least: int, what: str) -> None:
    """The one lower-bound check of a count: raise ValueError, naming ``what``, if value < least."""
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")


def require_stage(n: int, least: int = 0) -> None:
    """The one gate before stage-sized work: ValueError if n < least, GenerationBudgetError past the budget.

    The budget is ``HILBERT_BUDGET`` if set and not empty, else DEFAULT_MAX_GENERATION.
    """
    require_at_least(n, least, "stage index")
    value = os.environ.get("HILBERT_BUDGET")
    try:
        budget = int(value) if value else DEFAULT_MAX_GENERATION
    except ValueError:
        raise ValueError(f"HILBERT_BUDGET must be an integer, got {value!r}") from None
    if n > budget:
        raise GenerationBudgetError(f"stage {n} is beyond the budget of stage {budget}")


def generate_generation(n: int) -> bytes:
    """Return stage n of the curve, a word of length 4**n - 1.

    Stage 0 is the empty word.  Stage n+1 consists of stage n, a joining
    move, two recoded copies separated by joining moves, and a final
    rotated copy; the joining moves alternate between (U, R, D) and
    (R, U, L) with the parity of n.

    Raises GenerationBudgetError when n exceeds the stage budget
    (see require_stage), ValueError when n is negative.
    """
    require_stage(n)
    word = b""
    for stage in range(n):
        joins = _JOINS_FROM_EVEN if stage % 2 == 0 else _JOINS_FROM_ODD
        flipped = apply_coding(Coding.DIAGONAL, word)
        rotated = apply_coding(Coding.HALF_TURN, word)
        word = b"".join(
            (word, bytes([joins[0]]), flipped, bytes([joins[1]]), flipped,
             bytes([joins[2]]), rotated)
        )
    return word


def hc_prefix(length: int) -> bytes:
    """First ``length`` letters of the infinite curve word.

    Computed by expanding the smallest stage of at least that length and
    truncating; the stage budget is the same as generate_generation's.
    """
    require_at_least(length, 0, "prefix length")
    n = (length.bit_length() + 1) // 2  # the smallest n with 4**n - 1 >= length
    return generate_generation(n)[:length]


def walk(word: Iterable[int]) -> list[Point]:
    """Follow ``word`` from the origin and return all visited points.

    The result has one point per letter plus the origin; a step that
    would leave the non-negative quadrant raises NegativeCoordinateError.
    """
    x = y = 0
    points = [Point(x, y)]
    append = points.append
    for code in word:
        dx, dy = _STEP_BY_CODE[code]
        x += dx
        y += dy
        if x < 0 or y < 0:
            raise NegativeCoordinateError(
                f"step {len(points) - 1} leaves the quadrant at ({x}, {y})"
            )
        append(Point(x, y))
    return points


def word_to_str(word: bytes) -> str:
    """Render a coded word as its U/R/D/L text form."""
    return word.translate(_CODES_TO_LETTERS).decode("ascii")


def word_from_str(text: str) -> bytes:
    """Parse a U/R/D/L string into the coded byte form."""
    try:
        return bytes(_LETTERS_TO_CODES[letter] for letter in text)
    except KeyError as exc:
        raise ValueError(f"invalid letter {exc.args[0]!r}, expected one of URDL") from None

