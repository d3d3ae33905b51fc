"""The letter automaton and the digit-string utilities."""

import pytest
from hypothesis import given, settings, strategies as st

from hilbertrep.dfao import (
    Dfao,
    coords_by_letters,
    dfao_equal,
    dfao_from_text,
    dfao_to_text,
    dfao_walk,
    eval_dfao,
    eval_dfao_digits,
    from_base,
    hilbert_dfao,
    minimize_dfao,
    to_base,
)
from hilbertrep.oracle import Direction, hc_prefix
from hilbertrep.textfmt import ParseError


def test_to_base_examples():
    assert to_base(9, 4) == (2, 1)
    assert to_base(0, 4) == (0,)
    assert to_base(63, 4) == (3, 3, 3)


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=2, max_value=16))
def test_base_round_trip(n, k):
    digits = to_base(n, k)
    assert from_base(digits, k) == n
    assert digits == (0,) or digits[0] != 0


def test_base_rejects_bad_input():
    with pytest.raises(ValueError):
        to_base(-1, 4)
    with pytest.raises(ValueError):
        to_base(5, 1)
    with pytest.raises(ValueError):
        from_base((4,), 4)
    with pytest.raises(ValueError, match="digit -1 out of range for base 4"):
        eval_dfao_digits(hilbert_dfao(), (2, -1))
    for digits in ((4,), (1, 4), (4, 1, 0)):
        with pytest.raises(ValueError, match="^digit 4 out of range for base 4$"):
            eval_dfao_digits(hilbert_dfao(), digits)


def test_table_machine_shape():
    m = hilbert_dfao()
    assert m.state_count == 8
    assert m.base == 4
    assert m.initial == 0
    assert m.transitions[0][1] == 1
    assert m.transitions[3][0] == 7
    assert m.outputs[4] is Direction.L
    assert m.outputs == (
        Direction.U, Direction.R, Direction.D, Direction.R,
        Direction.L, Direction.U, Direction.L, Direction.D,
    )
    assert m.transitions[m.initial][0] == m.initial


def test_eval_small_indices():
    m = hilbert_dfao()
    assert eval_dfao(m, 0) is Direction.U
    assert eval_dfao(m, 1) is Direction.R
    assert eval_dfao(m, 2) is Direction.D
    assert eval_dfao(m, 3) is Direction.R
    assert eval_dfao(m, 11) is Direction.L
    assert eval_dfao(m, 15) is Direction.U


def test_matches_stage_word_exhaustively():
    m = hilbert_dfao()
    word = hc_prefix(4**5)
    for n, code in enumerate(word):
        assert eval_dfao(m, n) == Direction(code)


@settings(max_examples=1000)
@given(st.integers(min_value=0, max_value=4**20), st.integers(min_value=0, max_value=3))
def test_leading_zeros_do_not_change_output(n, pads):
    m = hilbert_dfao()
    digits = to_base(n, 4)
    assert eval_dfao_digits(m, (0,) * pads + digits) == eval_dfao(m, n)


def test_walk_matches_per_index_lookups():
    m = hilbert_dfao()
    outputs = list(m.outputs)
    outputs[4] = Direction.U
    corrupted = Dfao(base=4, transitions=m.transitions, outputs=tuple(outputs))
    for machine in (m, corrupted):
        for t in range(8):
            assert dfao_walk(machine, t) == [eval_dfao(machine, n) for n in range(4**t)], t
    with pytest.raises(ValueError, match="at least 0"):
        dfao_walk(m, -1)


def test_letters_drive_the_walk():
    xs = [0, 0, 1, 1, 2, 3, 3, 2, 2, 3, 3, 2, 1, 1, 0, 0]
    ys = [0, 1, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 3, 2, 2, 3]
    m = hilbert_dfao()
    for n in range(16):
        assert coords_by_letters(m, n) == (xs[n], ys[n])


def _relabel(machine, permutation):
    inverse = {new: old for old, new in permutation.items()}
    count = machine.state_count
    transitions = tuple(
        tuple(permutation[machine.transitions[inverse[q]][d]] for d in range(machine.base))
        for q in range(count)
    )
    outputs = tuple(machine.outputs[inverse[q]] for q in range(count))
    return Dfao(base=machine.base, transitions=transitions, outputs=outputs,
                initial=permutation[machine.initial])


def test_equal_to_itself():
    m = hilbert_dfao()
    same, mapping = dfao_equal(m, m)
    assert same
    assert mapping == {q: q for q in range(8)}


def test_equal_under_consistent_relabeling():
    m = hilbert_dfao()
    permutation = {0: 1, 1: 0, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7}
    swapped = _relabel(m, permutation)
    same, mapping = dfao_equal(m, swapped)
    assert same
    assert mapping[0] == 1 and mapping[1] == 0


def test_not_equal_when_an_output_differs():
    m = hilbert_dfao()
    outputs = list(m.outputs)
    outputs[4] = Direction.U
    mutated = Dfao(base=4, transitions=m.transitions, outputs=tuple(outputs))
    same, mapping = dfao_equal(m, mutated)
    assert not same
    assert mapping is None


def test_unreachable_states_are_ignored():
    m = hilbert_dfao()
    extended = Dfao(base=4, transitions=m.transitions + ((0, 1, 2, 3),),
                    outputs=m.outputs + (Direction.L,))  # state 8 is unreachable
    assert dfao_equal(m, extended) == (True, {q: q for q in range(8)})
    assert dfao_equal(extended, m) == (True, {q: q for q in range(8)})


def test_minimization_keeps_the_letter_machine():
    assert minimize_dfao(hilbert_dfao()) == hilbert_dfao()


def test_minimization_merges_duplicated_states():
    """Two copies of the letter machine, each sending odd digits into the other, plus an unreachable state."""
    m = hilbert_dfao()
    rows = tuple(tuple(t + 8 * ((d + copy) % 2) for d, t in enumerate(row))
                 for copy in (0, 1) for row in m.transitions)
    doubled = Dfao(base=4, transitions=rows + ((16, 0, 0, 0),), outputs=m.outputs * 2 + (Direction.D,))
    assert dfao_walk(doubled, 4) == dfao_walk(m, 4)
    assert minimize_dfao(doubled) == m
    # started in the copy, it minimizes to the same numbering
    assert minimize_dfao(Dfao(base=4, transitions=rows, outputs=m.outputs * 2, initial=8)) == m


def test_not_equal_when_the_bases_differ():
    binary = Dfao(base=2, transitions=((0, 0),), outputs=(Direction.U,))
    assert dfao_equal(hilbert_dfao(), binary) == (False, None)
    assert dfao_equal(binary, hilbert_dfao()) == (False, None)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Dfao(base=4, transitions=((0, 0, 0),), outputs=(Direction.U,))
    with pytest.raises(ValueError):
        Dfao(base=2, transitions=((1, 0), (1, 1)), outputs=(Direction.U, Direction.D))


def test_text_round_trip_is_canonical():
    m = hilbert_dfao()
    text = dfao_to_text(m)
    assert text.splitlines()[0] == "dfao base=4 states=8 initial=0"
    loaded = dfao_from_text(text)
    assert dfao_equal(m, loaded)[0]
    assert dfao_to_text(loaded) == text
    # comments and reordering are tolerated
    lines = text.splitlines()
    shuffled = "\n".join([lines[0], "# comment"] + lines[:0:-1]) + "\n"
    assert dfao_to_text(dfao_from_text(shuffled)) == text


def test_parse_errors_carry_line_numbers():
    text = dfao_to_text(hilbert_dfao())
    with pytest.raises(ParseError, match="line 11"):
        dfao_from_text(text.replace("0 1 -> 1", "0 9 -> 1"))
    with pytest.raises(ParseError):
        dfao_from_text(text.replace("output=L", "output=Q"))
    with pytest.raises(ParseError, match="missing"):
        dfao_from_text("\n".join(text.splitlines()[:-1]) + "\n")
    with pytest.raises(ParseError):
        dfao_from_text("")
    # a header declaring more states than the file lists: only the first four are named
    with pytest.raises(ParseError, match=r"^line 1: missing output for states \[0, 1, 2, 3\]$"):
        dfao_from_text("dfao base=4 states=1000 initial=0\n")
    with pytest.raises(ValueError, match="base must be at least 2, got 1"):
        dfao_from_text("dfao base=1 states=1 initial=0\nstate 0 output=U\n0 0 -> 0\n")
