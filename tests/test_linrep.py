"""Linear representations: evaluation, composition, minimization, recovery."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbertrep.dfao import dfao_equal, from_base, hilbert_dfao, to_base
from hilbertrep.linrep import (
    GuessedLinearRep,
    InsufficientDataError,
    LinearRep,
    NonFunctionalTransducerError,
    StateBudgetExceededError,
    Transducer,
    check_functional,
    difference_rep,
    eval_linrep,
    eval_linrep_digits,
    guess_linrep,
    hilbert_linrep,
    hilbert_step_rep,
    increment_transducer,
    linrep_from_text,
    linrep_to_text,
    linrep_walk,
    minimize_rep,
    semigroup_trick,
    transduce_rep,
    transducer_outputs,
)
from hilbertrep.oracle import generate_generation, walk
from hilbertrep.ratmat import mat_mul
from hilbertrep.textfmt import ParseError

POINTS = walk(generate_generation(6))


def identity_transducer(k):
    return Transducer(base=k, state_count=1, initial=0, final=frozenset({0}),
                      moves=frozenset((0, d, (d,), 0) for d in range(k)))


def test_reference_rep_literals():
    rep = hilbert_linrep()
    assert rep.rank == 5 and rep.out_dim == 2 and rep.base == 4
    assert rep.v[0] == (0, 0, 0, 1, 0)
    assert rep.gamma[0][0] == (0, 0, 0, 0, -4)
    assert rep.w == (1, 0, 0, 0, 0)


def test_leading_zero_fixes_v():
    rep = hilbert_linrep()
    assert mat_mul(rep.v, rep.gamma[0]) == rep.v


def test_eval_reproduces_coordinate_table():
    rep = hilbert_linrep()
    assert tuple(eval_linrep(rep, 0)) == (0, 0)
    assert tuple(eval_linrep(rep, 5)) == (3, 0)
    assert tuple(eval_linrep(rep, 9)) == (3, 2)
    assert tuple(eval_linrep(rep, 15)) == (0, 3)


def test_eval_matches_walk_exhaustively():
    rep = hilbert_linrep()
    for n in range(4**4):
        assert tuple(eval_linrep(rep, n)) == tuple(POINTS[n])


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=4**6 - 1))
def test_eval_matches_walk_random(n):
    assert tuple(eval_linrep(hilbert_linrep(), n)) == tuple(POINTS[n])


def test_eval_ignores_leading_zeros():
    rep = hilbert_linrep()
    assert eval_linrep_digits(rep, (0, 0, 2, 1)) == eval_linrep(rep, 9)
    with pytest.raises(ValueError, match="digit -1 out of range for base 4"):
        eval_linrep_digits(rep, (-1,))


def _reference_eval(rep, digits):
    """One exact matrix-vector product per digit, integral values collapsed to int."""
    def mat_vec(a, v):
        out = []
        for row in a:
            s = sum(x * y for x, y in zip(row, v))
            out.append(int(s) if isinstance(s, Fraction) and s.denominator == 1 else s)
        return tuple(out)

    col = rep.w
    for digit in reversed(digits):
        col = mat_vec(rep.gamma[digit], col)
    return mat_vec(rep.v, col)


def _equivalence_reps():
    rep = hilbert_linrep()
    shifted = transduce_rep(rep, increment_transducer(4))
    h, t = Fraction(1, 2), Fraction(1, 3)
    return {
        "hilbert": rep,
        "step": hilbert_step_rep(),
        "transduced": shifted,
        "minimized_difference": minimize_rep(difference_rep(shifted, rep)),
        "guessed_x": guess_linrep([p.x for p in POINTS[: 4**5]], 4, 2).rep,
        "fractions_base3": LinearRep(base=3, v=((h, 1), (0, t)),
                                     gamma=(((1, 0), (h, 2)), ((t, 1), (0, h)), ((2, -h), (1, 1))),
                                     w=(1, t)),
        # gamma(0) doubles, so every leading zero counts: no zero padding allowed
        "leading_zeros_count": LinearRep(base=4, v=((1,),), gamma=(((2,),),) + (((1,),),) * 3, w=(1,)),
    }


def test_pairwise_eval_matches_per_digit_reference():
    """Same values and element types as one product per digit, on every rep."""
    rng = random.Random(3)
    for name, rep in _equivalence_reps().items():
        assert "_pairs" not in vars(rep), name  # built on first evaluation only
        k = rep.base
        for n in list(range(4**5)) + [rng.randrange(4**199, 4**200) for _ in range(3)]:
            got, want = eval_linrep(rep, n), _reference_eval(rep, to_base(n, k))
            assert got == want and list(map(type, got)) == list(map(type, want)), (name, n)
        strings = [d for length in range(4) for d in itertools.product(range(k), repeat=length)]
        strings += [tuple(rng.randrange(k) for _ in range(length))
                    for length in range(4, 9) for _ in range(20)]
        for digits in strings:
            got, want = eval_linrep_digits(rep, digits), _reference_eval(rep, digits)
            assert got == want and list(map(type, got)) == list(map(type, want)), (name, digits)
        assert len(vars(rep)["_pairs"]) == k


def test_walk_matches_per_index_lookups():
    """Same values and element types as one evaluation per index."""
    reps = _equivalence_reps()
    reps["rank_0"] = LinearRep(base=4, v=((), ()), gamma=((),) * 4, w=())
    for name, rep in reps.items():
        for t in range(6):
            got = linrep_walk(rep, t)
            want = [eval_linrep(rep, n) for n in range(rep.base**t)]
            assert got == want, (name, t)
            assert [list(map(type, v)) for v in got] == [list(map(type, v)) for v in want], (name, t)
    with pytest.raises(ValueError, match="at least 0"):
        linrep_walk(hilbert_linrep(), -1)


def test_increment_transducer_examples():
    t = increment_transducer(4)
    assert transducer_outputs(t, (0, 1, 2)) == [(0, 1, 3)]
    assert transducer_outputs(t, (0, 3, 3)) == [(1, 0, 0)]
    assert transducer_outputs(t, (3, 3)) == [(1, 0, 0)]


def test_increment_is_functional_and_correct_exhaustively():
    """Every input of length <= 6 has exactly one accepting path whose
    output is the base-4 successor, zero-padded like the input."""
    t = increment_transducer(4)
    for length in range(1, 7):
        for digits in itertools.product(range(4), repeat=length):
            outs = transducer_outputs(t, digits)
            assert len(outs) == 1, digits
            assert from_base(outs[0], 4) == from_base(digits, 4) + 1
            expected_len = length + 1 if all(d == 3 for d in digits) else length
            assert len(outs[0]) == expected_len


def test_transduce_shifts_the_index():
    rep = hilbert_linrep()
    shifted = transduce_rep(rep, increment_transducer(4))
    assert shifted.rank == 15
    assert tuple(eval_linrep(shifted, 8)) == (3, 2)  # the point after index 8
    for n in range(4**5 - 1):
        assert tuple(eval_linrep(shifted, n)) == tuple(POINTS[n + 1])


def test_transduce_with_identity_is_a_no_op():
    rep = hilbert_linrep()
    same = transduce_rep(rep, identity_transducer(4))
    assert same.rank == rep.rank
    for n in range(4**5):
        assert eval_linrep(same, n) == eval_linrep(rep, n)


def test_transducer_validation():
    def build(base=4, initial=0, moves=()):
        return Transducer(base=base, state_count=1, initial=initial, final=frozenset({0}),
                          moves=frozenset(moves))

    build()
    with pytest.raises(ValueError, match="base must be at least 2, got 1"):
        build(base=1)
    with pytest.raises(ValueError):
        build(initial=1)
    with pytest.raises(ValueError):
        build(moves=[(0, 4, (0,), 0)])
    with pytest.raises(ValueError):
        build(moves=[(0, 0, (4,), 0)])


def test_transduce_rejects_ambiguous_transducer():
    ambiguous = Transducer(
        base=4, state_count=1, initial=0, final=frozenset({0}),
        moves=frozenset((0, d, out, 0) for d in range(4) for out in ((d,), (0, d))),
    )
    with pytest.raises(NonFunctionalTransducerError, match=r"input \(0,\) has"):
        transduce_rep(hilbert_linrep(), ambiguous)


def test_functional_check_is_exact_for_every_length():
    check_functional(increment_transducer(4))
    check_functional(identity_transducer(3))
    # a chain of seven states: only inputs of length 7 ending in 0 have two accepting paths
    moves = {(i, d, (d,), i + 1) for i in range(6) for d in range(2)}
    moves |= {(6, 0, (0,), 7), (6, 0, (1,), 7)}
    late = Transducer(base=2, state_count=8, initial=0, final=frozenset({7}), moves=frozenset(moves))
    with pytest.raises(NonFunctionalTransducerError, match=r"input \(0, 0, 0, 0, 0, 0, 0\) has"):
        check_functional(late)
    # two paths that part and never reach a final state together are no ambiguity
    dead_end = Transducer(base=2, state_count=3, initial=0, final=frozenset({1}),
                          moves=frozenset({(0, 0, (0,), 1), (0, 0, (1,), 2)}))
    check_functional(dead_end)


def test_difference_rep():
    rep = hilbert_linrep()
    shifted = transduce_rep(rep, increment_transducer(4))
    diff = difference_rep(shifted, rep)
    assert diff.rank == 20
    assert tuple(eval_linrep(diff, 0)) == (0, 1)  # the first move is up
    self_diff = difference_rep(rep, rep)
    assert all(tuple(eval_linrep(self_diff, n)) == (0, 0) for n in range(4**4))
    assert minimize_rep(self_diff).rank == 0


def test_minimize_difference_to_rank_three():
    rep = hilbert_linrep()
    diff = difference_rep(transduce_rep(rep, increment_transducer(4)), rep)
    minimized = minimize_rep(diff)
    assert minimized.rank == 3
    reference = hilbert_step_rep()
    for n in range(4**5):
        assert eval_linrep(minimized, n) == eval_linrep(reference, n)
    # integer input data keeps integer entries throughout this instance
    entries = [x for g in minimized.gamma for row in g for x in row]
    entries += [x for row in minimized.v for x in row] + list(minimized.w)
    assert all(isinstance(x, int) for x in entries)


def test_minimize_preserves_values_of_the_unminimized():
    rep = hilbert_linrep()
    diff = difference_rep(transduce_rep(rep, increment_transducer(4)), rep)
    minimized = minimize_rep(diff)
    for n in range(4**5):
        assert eval_linrep(minimized, n) == eval_linrep(diff, n)


def test_minimize_is_stable_on_the_reference_step_rep():
    reference = hilbert_step_rep()
    again = minimize_rep(reference)
    assert again.rank == 3
    for n in range(4**4):
        assert eval_linrep(again, n) == eval_linrep(reference, n)


def test_minimize_zero_rep_to_rank_zero():
    zero = LinearRep(base=4, v=((0, 0, 0), (0, 0, 0)),
                     gamma=tuple(((1, 0, 0), (0, 1, 0), (0, 0, 1)) for _ in range(4)),
                     w=(1, 1, 1))
    minimized = minimize_rep(zero)
    assert minimized.rank == 0
    assert tuple(eval_linrep(minimized, 7)) == (0, 0)


def test_matrix_closure_recovers_the_letter_automaton():
    rep = hilbert_linrep()
    diff = difference_rep(transduce_rep(rep, increment_transducer(4)), rep)
    machine = semigroup_trick(minimize_rep(diff))
    assert machine.state_count == 8
    same, mapping = dfao_equal(machine, hilbert_dfao())
    assert same
    assert mapping is not None


def test_matrix_closure_of_reference_step_rep():
    machine = semigroup_trick(hilbert_step_rep())
    assert machine.state_count == 8
    assert dfao_equal(machine, hilbert_dfao())[0]


def test_matrix_closure_of_zero_rep():
    zero = LinearRep(base=4, v=((0,), (0,)), gamma=(((1,),),) * 4, w=(0,))
    machine = semigroup_trick(zero)
    assert machine.state_count == 1
    assert machine.outputs[0] == (0, 0)


def test_matrix_closure_budget():
    """The coordinate sequence is unbounded, so its row space never closes."""
    with pytest.raises(StateBudgetExceededError):
        semigroup_trick(hilbert_linrep())


def test_guess_from_x_coordinates():
    xs = [p.x for p in POINTS[: 4**6]]
    guess = guess_linrep(xs, 4, 2)
    assert isinstance(guess, GuessedLinearRep)
    assert guess.spanning == ((0, 0), (1, 0), (1, 1), (1, 2), (2, 0))
    assert guess.rep.rank == 5
    for n in range(4**5):
        assert eval_linrep(guess.rep, n) == (xs[n],)


def test_guess_from_coordinate_pairs():
    pairs = [tuple(p) for p in POINTS[: 4**6]]
    guess = guess_linrep(pairs, 4, 2)
    assert guess.rep.rank == 5
    reference = hilbert_linrep()
    for n in range(4**4):
        assert tuple(eval_linrep(guess.rep, n)) == tuple(eval_linrep(reference, n))


def test_guess_constant_sequence():
    guess = guess_linrep([1] * 64, 4, 1)
    assert guess.rep.rank == 1
    assert eval_linrep(guess.rep, 37) == (1,)


def test_guess_zero_sequence():
    guess = guess_linrep([0] * 64, 4, 1)
    assert guess.rep.rank == 0
    assert eval_linrep(guess.rep, 11) == (0,)


def test_guess_needs_enough_data():
    with pytest.raises(InsufficientDataError):
        guess_linrep([p.x for p in POINTS[:60]], 4, 2)


def test_text_round_trip():
    rank_zero = (minimize_rep(difference_rep(hilbert_linrep(), hilbert_linrep())),
                 guess_linrep([0] * 64, 4, 1).rep)
    assert all(rep.rank == 0 for rep in rank_zero)
    for rep in (hilbert_linrep(), hilbert_step_rep()) + rank_zero:
        text = linrep_to_text(rep)
        loaded = linrep_from_text(text)
        assert loaded == rep
        assert linrep_to_text(loaded) == text


def test_text_parse_errors():
    text = linrep_to_text(hilbert_step_rep())
    with pytest.raises(ParseError, match="line"):
        linrep_from_text(text.replace("linrep base=4", "linrep base=x"))
    with pytest.raises(ParseError):
        linrep_from_text(text.replace("gamma 3", "gamma 7"))
    with pytest.raises(ParseError):
        linrep_from_text("\n".join(text.splitlines()[:-1]) + "\n")
    with pytest.raises(ParseError, match=r"^line 1: missing sections \['v', 'gamma 0', 'gamma 1', 'gamma 2'\]$"):
        linrep_from_text("linrep base=1000 out=1 rank=1\n")
    one_digit = "linrep base=1 out=1 rank=1\nv\n1\ngamma 0\n1\nw\n1\n"
    with pytest.raises(ValueError, match="base must be at least 2, got 1"):
        linrep_from_text(one_digit)
