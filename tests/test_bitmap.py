"""Stage images and the plain PBM writer."""

from pathlib import Path

import pytest

from hilbertrep.bitmap import (
    Bitmap,
    count_lit,
    parse_pbm,
    render_from_walk,
    render_generation,
    write_pbm,
)
from hilbertrep.oracle import GenerationBudgetError

GOLDEN = Path(__file__).parent / "data" / "gen1.pbm"


def test_stage_one_lit_set():
    image = render_generation(1)
    lit = {(x, y) for y in range(3) for x in range(3) if image.bits[y][x]}
    assert lit == {(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0)}
    assert count_lit(image) == 7


@pytest.mark.parametrize("g", range(1, 6))
def test_lit_count_formula(g):
    assert count_lit(render_generation(g)) == 2 * 4**g - 1


@pytest.mark.parametrize("g", range(1, 8))
def test_lookup_and_walk_renders_agree(g):
    assert render_generation(g) == render_from_walk(g)


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


def test_pbm_round_trip():
    for g in (1, 2, 3):
        image = render_generation(g)
        assert parse_pbm(write_pbm(image)) == image


def test_pbm_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pbm(b"P4\n1 1\n1\n")
    with pytest.raises(ValueError):
        parse_pbm(b"P1\n2 2\n1 0 1\n")


def test_stage_bounds(monkeypatch):
    with pytest.raises(ValueError):
        render_generation(0)
    with pytest.raises(GenerationBudgetError):
        render_generation(13)
    monkeypatch.setenv("HILBERT_BUDGET", "3")
    with pytest.raises(GenerationBudgetError):
        render_from_walk(4)
