"""Stage words, letter recodings, and the lattice walk."""

import pytest
from hypothesis import given, strategies as st

from hilbertrep.oracle import (
    Coding,
    Direction,
    GenerationBudgetError,
    NegativeCoordinateError,
    Point,
    apply_coding,
    generate_generation,
    hc_prefix,
    recode,
    walk,
    walk_csv,
    word_from_str,
    word_to_str,
)

STAGE_1 = "URD"
STAGE_2 = "URDRRULURULLDLU"
STAGE_3 = (
    "URDRRULURULLDLUURULUURDRURDDLDRRRULUURDRURDDLDRDDLULLDRDLDRRURD"
)

TABLE_X = [0, 0, 1, 1, 2, 3, 3, 2, 2, 3, 3, 2, 1, 1, 0, 0]
TABLE_Y = [0, 1, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 3, 2, 2, 3]

words = st.binary().map(lambda bs: bytes(b % 4 for b in bs))


def test_first_stages_match_pinned_strings():
    assert generate_generation(0) == b""
    assert word_to_str(generate_generation(1)) == STAGE_1
    assert word_to_str(generate_generation(2)) == STAGE_2
    assert word_to_str(generate_generation(3)) == STAGE_3


def test_stage_lengths():
    for n in range(9):
        assert len(generate_generation(n)) == 4**n - 1


def test_each_stage_prefixes_the_next():
    for n in range(8):
        assert generate_generation(n + 1).startswith(generate_generation(n))


def test_stage_rebuilt_from_previous_with_codings():
    """Recompute each stage from its predecessor by the join formula."""
    for n in range(1, 8):
        prev = generate_generation(n - 1)
        flipped = apply_coding(Coding.DIAGONAL, prev)
        rotated = apply_coding(Coding.HALF_TURN, prev)
        if (n - 1) % 2 == 0:
            joins = (Direction.U, Direction.R, Direction.D)
        else:
            joins = (Direction.R, Direction.U, Direction.L)
        rebuilt = (prev + bytes([joins[0]]) + flipped + bytes([joins[1]])
                   + flipped + bytes([joins[2]]) + rotated)
        assert rebuilt == generate_generation(n)


def test_coding_samples():
    assert word_to_str(apply_coding(Coding.DIAGONAL, word_from_str("UDRL"))) == "RLUD"
    assert word_to_str(apply_coding(Coding.HALF_TURN, word_from_str("UDRL"))) == "DULR"
    assert apply_coding(Coding.DIAGONAL, b"") == b""
    assert recode(Coding.DIAGONAL, Direction.U) is Direction.R
    assert recode(Coding.HALF_TURN, Direction.R) is Direction.L


@given(words)
def test_codings_are_involutions(word):
    for coding in Coding:
        assert apply_coding(coding, apply_coding(coding, word)) == word


def test_walk_reproduces_coordinate_table():
    points = walk(generate_generation(2))
    assert [p.x for p in points] == TABLE_X
    assert [p.y for p in points] == TABLE_Y


def test_walk_empty_word():
    assert walk(b"") == [Point(0, 0)]


def test_walk_endpoints_alternate_with_parity():
    for n in range(1, 9):
        last = walk(generate_generation(n))[-1]
        if n % 2 == 1:
            assert last == Point(2**n - 1, 0)
        else:
            assert last == Point(0, 2**n - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_visits_grid_exactly_once(n):
    points = walk(generate_generation(n))
    assert len(points) == 4**n
    assert len(set(points)) == 4**n
    assert all(0 <= p.x < 2**n and 0 <= p.y < 2**n for p in points)


def test_walk_rejects_leaving_the_quadrant():
    with pytest.raises(NegativeCoordinateError):
        walk(word_from_str("D"))
    with pytest.raises(NegativeCoordinateError):
        walk(word_from_str("URDD"))


def test_prefix_examples():
    assert word_to_str(hc_prefix(13)) == "URDRRULURULLD"
    assert hc_prefix(0) == b""
    assert hc_prefix(15) == generate_generation(2)


def test_stage_budget(monkeypatch):
    with pytest.raises(GenerationBudgetError):
        generate_generation(13)
    monkeypatch.setenv("HILBERT_BUDGET", "2")
    with pytest.raises(GenerationBudgetError):
        generate_generation(3)
    with pytest.raises(GenerationBudgetError):
        hc_prefix(100)
    monkeypatch.setenv("HILBERT_BUDGET", "3")
    assert len(generate_generation(3)) == 63
    with pytest.raises(ValueError):
        generate_generation(-1)


def test_word_text_round_trip():
    word = generate_generation(4)
    assert word_from_str(word_to_str(word)) == word
    with pytest.raises(ValueError):
        word_from_str("URDX")


def test_walk_csv():
    text = walk_csv(walk(word_from_str("UR")))
    assert text == "n,x,y\n0,0,0\n1,0,1\n2,1,1\n"
