"""Stage images and the plain PBM writer."""

import hashlib
from pathlib import Path

import pytest
from test_sync import _single_faults

from hilbertrep.bitmap import (
    Bitmap,
    _successor_moves,
    bitmap_dfao,
    hilbert_bitmap,
    render_from_walk,
    render_generation,
    render_pbm,
    write_pbm,
)
from hilbertrep.dfao import Dfao, dfao_equal, dfao_walk, eval_dfao, minimize_dfao
from hilbertrep.oracle import GenerationBudgetError
from hilbertrep.sync import SyncAutomaton, accepts, hilbert_sync

GOLDEN = Path(__file__).parent / "data" / "gen1.pbm"


def test_stage_one_lit_set():
    image = render_generation(1)
    lit = {(x, y) for y in range(3) for x in range(3) if image.bits[y][x]}
    assert lit == {(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0)}
    assert sum(map(sum, image.bits)) == 7


@pytest.mark.parametrize("g", range(1, 6))
def test_lit_count_formula(g):
    assert sum(map(sum, render_generation(g).bits)) == 2 * 4**g - 1


@pytest.mark.parametrize("g", range(1, 8))
def test_lookup_and_walk_renders_agree(g):
    assert render_generation(g) == render_from_walk(g)


@pytest.mark.parametrize("g", range(1, 9))
def test_streamed_pbm_matches_the_walk_image(g):
    assert b"".join(render_pbm(g)) == write_pbm(render_from_walk(g))


def test_streamed_stage_ten_lit_count():
    header, *rows = render_pbm(10)
    assert header == b"P1\n2047 2047\n"
    assert len(rows) == 2047
    assert sum(row.count(b"1") for row in rows) == 2 * 4**10 - 1


@pytest.mark.parametrize("k", [2, 4])
def test_successor_recognizer_accepts_exactly_one_more(k):
    """Every same-length pair (a, b) of at most 5 digits: accepted exactly when b = a + 1.

    For each a, every b is read alongside it digit by digit; a prefix pair
    with no move is rejected with all its extensions, so the runs left at
    the end are all the b the recognizer did not reject.
    """
    moves = _successor_moves(k)
    for length in range(6):
        for a in range(k**length):
            runs = [(0, 0)]  # (state, value of b's digits so far) for each b prefix not yet rejected
            for e in reversed(range(length)):
                digit = a // k**e % k
                runs = [(moves[state, digit, d], b * k + d)
                        for state, b in runs for d in range(k) if (state, digit, d) in moves]
            accepted = [b for state, b in runs if state == 1]
            assert accepted == ([a + 1] if a + 1 < k**length else []), (length, a)


def test_bitmap_dfao_shape():
    machine = bitmap_dfao(hilbert_sync())
    assert isinstance(machine, Dfao) and machine.base == 4
    assert machine.transitions[machine.initial][0] == machine.initial
    assert machine.state_count == 128
    assert {output[0] for output in machine.outputs} == {True}  # every lattice point is visited


def test_minimization_keeps_every_output_of_the_derived_bitmap():
    """Every digit string of up to 6 digits: the padded indices below 4**t are the strings of length t."""
    derived = bitmap_dfao(hilbert_sync())
    minimized = minimize_dfao(derived)
    assert minimized.state_count == 66
    assert minimize_dfao(minimized) == minimized
    for t in range(7):
        assert dfao_walk(minimized, t) == dfao_walk(derived, t), t


def test_the_literal_bitmap_is_the_minimized_derivation():
    """The certification of ``hilbert_bitmap()``, which rendering reads, against the paper's derivation."""
    literal, minimized = hilbert_bitmap(), minimize_dfao(bitmap_dfao(hilbert_sync()))
    assert literal.state_count == 66
    assert dfao_equal(minimized, literal) == (True, {q: q for q in range(66)})
    assert minimized == literal  # the literal rows are in explore order, as minimize_dfao numbers them


def _interleaved(x: int, y: int) -> int:
    """The base-4 number whose digits are the bit pairs (x bit, y bit), symbol 2 * x_bit + y_bit."""
    return sum((((x >> i) & 1) * 2 + ((y >> i) & 1)) * 4**i for i in range(max(x, y, 1).bit_length()))


def test_bitmap_dfao_reads_the_pixel_blocks_of_the_walk_image():
    machine = bitmap_dfao(hilbert_sync())
    g = 4
    image = render_from_walk(g + 1)  # holds the connectors leaving the stage-g square too
    bits = image.bits
    for x in range(2**g):
        for y in range(2**g):
            block = (bits[2 * y][2 * x], bits[2 * y][2 * x + 1], bits[2 * y + 1][2 * x])
            assert eval_dfao(machine, _interleaved(x, y)) == block, (x, y)


def test_bitmap_dfao_reads_every_index_digit_of_parallel_arcs():
    """The Hilbert machine plus 0 [2,0,0] -> 0, parallel to 0 [0,0,0] -> 0: a brute force over n < 4**5.

    The two arcs read the same point symbol into the same target, so only
    their index digits tell them apart, and the connectors pair those.
    """
    m = hilbert_sync()
    machine = SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                            accepting=m.accepting, transitions={**m.transitions, (0, (2, 0, 0)): 0})
    derived = bitmap_dfao(machine)
    assert dfao_walk(derived, 1) != dfao_walk(bitmap_dfao(m), 1)
    points = [(x, y) for x in range(9) for y in range(9)]
    indices = {p: {n for n in range(4**5) if accepts(machine, n, *p)} for p in points}

    def joined(p, p2):
        return any(n + 1 in indices[p2] or n - 1 in indices[p2] for n in indices[p])

    for x in range(8):
        for y in range(8):
            block = (bool(indices[x, y]), joined((x, y), (x + 1, y)), joined((x, y), (x, y + 1)))
            assert eval_dfao(derived, _interleaved(x, y)) == block, (x, y)


def _derivation(machine):
    """``repr(bitmap_dfao(machine))``, or the error's type and message where it raises."""
    try:
        return repr(bitmap_dfao(machine))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_the_derivation_is_pinned_on_single_faults():
    """One digest over the Hilbert machine's derivation and that of every 45th single fault.

    The faults are those of ``tests/test_sync.py``; some raise because
    their start does not loop on a zero pair.  The digest pins states,
    numbering and outputs, so any change in how the tracks are built shows.
    """
    m = hilbert_sync()
    faults = [SyncAutomaton(bases=m.bases, state_count=m.state_count, initial=m.initial,
                            accepting=accepting, transitions=transitions)
              for transitions, accepting in _single_faults(m)]
    text = "\n".join(map(_derivation, [m, *faults[::45]]))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "03085b480871370c7760282bf983c8f5fe3dee494b2b41ffe005e19baaf08dde")


def test_connectors_join_exactly_two_lattice_pixels():
    image = render_generation(3)
    for y in range(image.height):
        for x in range(image.width):
            if not image.bits[y][x] or (x % 2 == 0 and y % 2 == 0):
                continue
            neighbours = sum(
                1
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if 0 <= x + dx < image.width and 0 <= y + dy < image.height
                and image.bits[y + dy][x + dx]
            )
            assert neighbours == 2


def test_image_side_length():
    for g in (1, 2, 3):
        image = render_generation(g)
        assert image.width == image.height == 2 ** (g + 1) - 1


def test_pbm_smallest_image():
    assert write_pbm(Bitmap(width=1, height=1, bits=((True,),))) == b"P1\n1 1\n1\n"


def test_stage_one_matches_golden_file():
    assert write_pbm(render_generation(1)) == GOLDEN.read_bytes()


def test_stage_bounds(monkeypatch):
    with pytest.raises(ValueError):
        render_generation(0)
    with pytest.raises(GenerationBudgetError):
        render_generation(13)
    with pytest.raises(GenerationBudgetError):
        render_pbm(13)  # refused when called, not when the first chunk is read
    monkeypatch.setenv("HILBERT_BUDGET", "3")
    with pytest.raises(GenerationBudgetError):
        render_from_walk(4)
