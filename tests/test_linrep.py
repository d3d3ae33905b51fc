"""Linear representations: evaluation, composition, minimization, recovery."""

import ast
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hilbertrep.dfao import dfao_equal, dfao_to_text, from_base, hilbert_dfao, to_base
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
from hilbertrep.ratmat import SpanBasis, mat_mul, transpose, vector
from hilbertrep.textfmt import ParseError

DATA = Path(__file__).parent / "data"
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
    for digits in ((4,), (1, 4), (4, 1, 0)):
        with pytest.raises(ValueError, match="digit 4 out of range for base 4"):
            eval_linrep_digits(rep, digits)


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
        # eight digits per step; gamma(0) does not fix v either
        "fractions_base2": LinearRep(base=2, v=((1, h), (0, 1)),
                                     gamma=(((1, 1), (0, 2)), ((t, 0), (1, -1))), w=(h, 1)),
        # one digit per step, so nothing is built beyond gamma
        "base17": LinearRep(base=17, v=((1, 0, 1),),
                            gamma=tuple(((d, 1, 0), (0, 1, -d), (1, 0, d % 3)) for d in range(17)),
                            w=(1, 2, 0)),
    }


def _stored_blocks(rep):
    """(width, value) of every block product the representation has built."""
    return {(r, m) for r, memo in enumerate(vars(rep)["_blocks"][2:], 2) for m in memo}


def _reference_block(rep, r, m):
    """gamma(d_1) ... gamma(d_r) for the r digits of m, as nested lists."""
    product = [[int(i == j) for j in range(rep.rank)] for i in range(rep.rank)]
    for i in reversed(range(r)):
        g = rep.gamma[m // rep.base**i % rep.base]
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*g)] for row in product]
    return product


def test_pairwise_eval_matches_per_digit_reference():
    """Same values and element types as one product per digit, on every rep."""
    rng = random.Random(3)
    for name, rep in _equivalence_reps().items():
        assert "_blocks" not in vars(rep), name  # built on first evaluation only
        k = rep.base
        for n in list(range(4**5)) + [rng.randrange(4**199, 4**200) for _ in range(3)]:
            got, want = eval_linrep(rep, n), _reference_eval(rep, to_base(n, k))
            assert got == want and list(map(type, got)) == list(map(type, want)), (name, n)
        strings = [d for length in range(4) for d in itertools.product(range(k), repeat=length)]
        strings += [tuple(rng.randrange(k) for _ in range(length))
                    for length in range(4, 14) for _ in range(20)]
        for digits in strings:
            got, want = eval_linrep_digits(rep, digits), _reference_eval(rep, digits)
            assert got == want and list(map(type, got)) == list(map(type, want)), (name, digits)
        stored = _stored_blocks(rep)
        assert len(stored) <= sum(k**r for r in range(2, rep.block_width + 1)), name
        for r, m in stored:
            assert list(map(list, rep._blocks[r][m])) == _reference_block(rep, r, m), (name, r, m)


def test_eval_at_2000_digits_matches_per_digit_reference():
    """Long indices, read by bytes (bases 2 and 4) or by divmod (3 and 17), leading zeros too."""
    rng = random.Random(2000)
    for name, rep in _equivalence_reps().items():
        k = rep.base
        digits = (rng.randrange(1, k),) + tuple(rng.randrange(k) for _ in range(1999))
        for padded in (digits, (0,) * 9 + digits):
            want = _reference_eval(rep, padded)
            got = eval_linrep_digits(rep, padded)
            assert got == want and list(map(type, got)) == list(map(type, want)), name
        assert eval_linrep(rep, from_base(digits, k)) == _reference_eval(rep, digits), name


def test_eval_builds_only_the_blocks_it_reads():
    rep = hilbert_linrep()
    assert rep.block_width == 4
    eval_linrep(rep, 4**9 + 5)  # digits 10 0000 0011: blocks 0011, 0000 and the leading 10
    assert _stored_blocks(rep) == {(4, 5), (3, 5), (2, 5), (4, 0), (3, 0), (2, 0), (2, 4)}
    k = 1500  # one digit per step: a lookup builds no product at all
    text = linrep_to_text(LinearRep(base=k, v=((1,),), gamma=tuple(((d,),) for d in range(k)), w=(1,)))
    rep = linrep_from_text(text)
    assert len(text) > 15000 and rep.block_width == 1
    assert eval_linrep(rep, 1499 * k**2 + 7 * k + 3) == (1499 * 7 * 3,)
    assert eval_linrep_digits(rep, (0, 2)) == (0,)
    assert _stored_blocks(rep) == set()


def test_walk_matches_per_index_lookups():
    """Same values and element types as one evaluation per index."""
    reps = _equivalence_reps()
    reps["rank_0"] = LinearRep(base=4, v=((), ()), gamma=((),) * 4, w=())
    for name, rep in reps.items():
        for t in range(6):
            if rep.base**t > 4**5:
                break
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



def test_transduce_with_an_empty_output_word():
    """A move that emits nothing contributes the identity matrix of its block."""
    rep = hilbert_linrep()
    drop_ones = Transducer(base=4, state_count=1, initial=0, final=frozenset({0}),
                           moves=frozenset((0, d, () if d == 1 else (d,), 0) for d in range(4)))
    dropped = transduce_rep(rep, drop_ones)
    for length in range(5):
        for digits in itertools.product(range(4), repeat=length):
            [out] = transducer_outputs(drop_ones, digits)
            assert eval_linrep_digits(dropped, digits) == eval_linrep_digits(rep, out), digits

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
    # (0, 0) and (0, 1) both have two accepting paths; the least is named, not the first expanded
    loops = Transducer(base=2, state_count=2, initial=0, final=frozenset({1}),
                       moves=frozenset({(0, 0, (), 1), (0, 0, (0,), 0), (0, 0, (1,), 0),
                                        (1, 1, (), 1), (1, 1, (0,), 1)}))
    with pytest.raises(NonFunctionalTransducerError, match=r"input \(0, 0\) has"):
        check_functional(loops)


def test_functional_check_names_the_least_ambiguous_input():
    """300 seeded small transducers against brute force through ``transducer_outputs``.

    Where the check refuses, it names the shortlex-least input with more
    than one accepting path: the least of at most 4 digits, or, when there
    is none, a longer input that has them.  Where it passes, no input of
    at most 4 digits has them.
    """
    rng = random.Random(7)
    for _ in range(300):
        base, count = rng.randint(2, 3), rng.randint(1, 5)
        moves = frozenset((rng.randrange(count), rng.randrange(base),
                           tuple(rng.randrange(base) for _ in range(rng.randint(0, 2))), rng.randrange(count))
                          for _ in range(rng.randint(1, 12)))
        final = frozenset(q for q in range(count) if rng.random() < 0.4)
        trans = Transducer(base=base, state_count=count, initial=0, final=final, moves=moves)
        least = next((digits for length in range(5) for digits in itertools.product(range(base), repeat=length)
                      if len(transducer_outputs(trans, digits)) > 1), None)
        try:
            check_functional(trans)
        except NonFunctionalTransducerError as exc:
            named = ast.literal_eval(str(exc).removeprefix("input ").removesuffix(" has multiple accepting paths"))
            assert named == least or least is None and len(named) > 4, (trans, named, least)
            assert len(transducer_outputs(trans, named)) > 1
        else:
            assert least is None, (trans, least)


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


XS = [p.x for p in POINTS]
GUESS_SHAPES = {
    "list": lambda: XS,
    "tuple": lambda: tuple(XS),
    "generator": lambda: (x for x in XS),
    "1-tuples": lambda: [(x,) for x in XS],
    "1-lists": lambda: [[x] for x in XS],
    "integral Fractions": lambda: [Fraction(x, 1) for x in XS],
    "scalars mixed with 1-tuples": lambda: [(x,) if n % 3 else x for n, x in enumerate(XS)],
}


def _guess_outcome(prefix, depth):
    """The guess with the types of its entries, or the error it ends in."""
    try:
        guess = guess_linrep(prefix, 4, depth)
    except InsufficientDataError as exc:
        return str(exc)
    return guess, [(x, type(x)) for m in (guess.rep.v, *guess.rep.gamma) for row in m for x in row]


@pytest.mark.parametrize("depth", (1, 2))
@pytest.mark.parametrize("shape", GUESS_SHAPES)
def test_guess_reads_every_prefix_shape_alike(shape, depth):
    """Numbers, 1-sequences and integral Fractions, in any container, give one outcome.

    At depth 1 that is the refinements' escape from the span; at depth 2 a
    rank-5 guess with int entries only.
    """
    outcome = _guess_outcome(GUESS_SHAPES[shape](), depth)
    assert outcome == _guess_outcome(XS, depth)
    assert isinstance(outcome, str) == (depth == 1)


def test_guess_dimensions_fractions_and_bools():
    with pytest.raises(ValueError, match="^prefix entries must all have the same dimension$"):
        guess_linrep([(x, x) if n % 3 else x for n, x in enumerate(XS)], 4, 2)
    thirds = [Fraction(x, 3) for x in XS]
    rep = guess_linrep(thirds, 4, 2).rep
    assert all(eval_linrep(rep, n) == (third,) for n, third in enumerate(thirds))
    parities = [n % 3 == 1 for n in range(64)]
    assert guess_linrep(parities, 4, 1) == guess_linrep([int(b) for b in parities], 4, 1)


def _traced_peak(build) -> int:
    """Bytes allocated at the peak of a warm ``build()``, above what was held before it."""
    build()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_guess_allocates_no_copy_per_term():
    """A 4**6-term prefix is read without one object per term (a 1-tuple each took about 147 KB)."""
    assert _traced_peak(lambda: guess_linrep(XS, 4, 2)) < 100_000
    pairs = [tuple(p) for p in POINTS]
    assert _traced_peak(lambda: guess_linrep(pairs, 4, 2)) < 120_000


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


def _construct_results():
    """Text of what minimize_rep, semigroup_trick and guess_linrep return here, and those objects.

    Each result is a ``# label`` line and the object's text form, or an
    ``error`` line naming the exception raised on the way.
    """
    blocks, objects = [], []

    def record(label, build, to_text):
        try:
            obj = build()
            text = to_text(obj)
        except Exception as exc:  # the exception is the result to pin
            text = f"error {type(exc).__name__}: {exc}\n"
        else:
            objects.append(obj)
        blocks.append(f"# {label}\n{text}")

    minimized = {}
    for name, rep in _equivalence_reps().items():
        if rep.base not in (3, 4):  # construct.out records the base-3 and base-4 reps
            continue
        record(f"minimize_rep {name}", lambda: minimized.setdefault(name, minimize_rep(rep)), linrep_to_text)
    for name, rep in minimized.items():
        record(f"semigroup_trick {name}", lambda: semigroup_trick(rep), dfao_to_text)
    prefixes = {"x": [p.x for p in POINTS], "y": [p.y for p in POINTS], "xy": [tuple(p) for p in POINTS]}
    for axis, prefix in prefixes.items():
        for depth in (1, 2, 3):
            record(f"guess_linrep {axis} depth={depth}", lambda: guess_linrep(prefix, 4, depth).rep,
                   linrep_to_text)
    return "".join(blocks), objects


def test_construct_results_match_golden():
    """Byte-identical to the recorded results, with int or non-integral Fraction entries only."""
    text, objects = _construct_results()
    assert text == (DATA / "construct.out").read_text()
    entries = []
    for obj in objects:
        if isinstance(obj, LinearRep):
            entries += [x for m in (obj.v, *obj.gamma) for row in m for x in row] + list(obj.w)
        else:
            entries += [x for out in obj.outputs if isinstance(out, tuple) for x in out]
    assert entries and all(type(x) is int or type(x) is Fraction and x.denominator != 1 for x in entries)


class _FractionSpanBasis:
    """SpanBasis as it was before fraction-free elimination: the reference."""

    def __init__(self, dim):
        self.vectors = []
        self._rows = []

    def _eliminate(self, vec):
        residual = list(vec)
        acc = [0] * len(self.vectors)
        for pivot, echelon, comb in self._rows:
            lead = residual[pivot]
            if lead == 0:
                continue
            factor = Fraction(lead) / echelon[pivot]
            for i, e in enumerate(echelon):
                residual[i] -= factor * e
            for i, c in enumerate(comb):
                acc[i] += factor * c
        return residual, acc

    def coordinates(self, vec):
        residual, acc = self._eliminate(vec)
        if any(residual):
            return None
        return vector(acc)

    def add_if_new(self, vec):
        residual, acc = self._eliminate(vec)
        pivot = next((i for i, r in enumerate(residual) if r != 0), None)
        if pivot is None:
            return False
        self.vectors.append(vector(vec))
        self._rows.append((pivot, vector(residual), vector([-c for c in acc] + [1])))
        return True


def _typed(values):
    return None if values is None else [(x, type(x)) for x in values]


def _full_length(basis, vec):
    """Whether ``coordinates`` has one entry per admitted vector, or is None."""
    coords = basis.coordinates(vec)
    return coords is None or len(coords) == len(basis.vectors)


def test_span_basis_matches_fraction_reference():
    """Same verdicts, vectors and coordinates, values and element types, as Fraction elimination.

    A twin basis takes each admitted vector through ``express`` instead: it
    admits the same vectors, and each result, zero-padded, equals the
    reference's coordinates then and at the end.
    """
    rng = random.Random(8)

    def scalar():
        if rng.random() < 0.4:
            return 0
        if rng.random() < 0.3:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-9, 9)

    def random_trial():
        dim = rng.randint(0, 6)
        seen = [tuple(scalar() for _ in range(dim))]
        steps = []  # (vector, whether it is expressed, else only given coordinates)
        for _ in range(rng.randint(1, 12)):
            kind = rng.randrange(4)
            if kind == 0:  # fresh, usually outside the span
                vec = tuple(scalar() for _ in range(dim))
            elif kind == 1:
                vec = (0,) * dim
            elif kind == 2:
                vec = rng.choice(seen)
            else:  # a combination of earlier vectors, inside their span
                terms = [(scalar(), rng.choice(seen)) for _ in range(rng.randint(1, 3))]
                vec = vector(sum(c * u[i] for c, u in terms) for i in range(dim))
            seen.append(vec)
            steps.append((vec, rng.random() < 0.6))
        return dim, seen, steps

    # Plain ints skip the denominator pass; an integral Fraction or a bool
    # entry must not, even where it is the lead of an elimination step.
    ints = (-8, 3, 0, 1)
    fixed = [(ints, True), ((Fraction(-8, 1), 3, 0, 1), False), ((-8, 3, 0, True), True), (list(ints), True),
             ((True, 0, 2, 0), True), ((Fraction(-8, 1), 3, 4, 1), True), ((-8, 3, 0, Fraction(2, 3)), True),
             ((Fraction(-16, 3), 2, 0, Fraction(2, 3)), False)]
    trials = [(4, [vec for vec, _ in fixed], fixed)] + [random_trial() for _ in range(300)]
    for dim, seen, steps in trials:
        basis, reference, twin = SpanBasis(dim), _FractionSpanBasis(dim), SpanBasis(dim)
        expressed = []
        for vec, via_express in steps:
            if via_express:
                coords = twin.express(vec)
                assert basis.add_if_new(vec) == reference.add_if_new(vec), vec
                assert _typed(coords) == _typed(reference.coordinates(vec)), vec
                expressed.append((vec, coords))
            else:
                assert _typed(basis.coordinates(vec)) == _typed(reference.coordinates(vec)), vec
                assert _full_length(basis, vec), vec
            assert [_typed(v) for v in basis.vectors] == [_typed(v) for v in reference.vectors]
            assert [_typed(v) for v in twin.vectors] == [_typed(v) for v in reference.vectors]
        for vec in seen:
            assert _typed(basis.coordinates(vec)) == _typed(reference.coordinates(vec)), vec
            assert _full_length(basis, vec), vec
        for vec, coords in expressed:
            assert _typed(twin.padded(coords)) == _typed(reference.coordinates(vec)), vec


def test_each_vector_is_eliminated_once(monkeypatch):
    """Closures and guesses read coordinates from the one elimination that admits or expresses a vector."""
    calls = []
    eliminate = SpanBasis._eliminate

    def counted(self, vec):
        calls.append(vec)
        return eliminate(self, vec)

    monkeypatch.setattr(SpanBasis, "_eliminate", counted)
    rep = hilbert_linrep()
    minimized = minimize_rep(difference_rep(transduce_rep(rep, increment_transducer(4)), rep))
    # the 2 rows of v and 4 images of each of the 7 rows they reach; w and 4 images of each of 3 rows
    assert (minimized.rank, len(calls)) == (3, 2 + 4 * 7 + 1 + 4 * 3)
    calls.clear()
    guessed = guess_linrep([p.x for p in POINTS], 4, 2)
    # the 1 + 4 + 16 scanned kernel elements; the 4 refinements of the one spanning element at depth 2
    assert (guessed.spanning, len(calls)) == (((0, 0), (1, 0), (1, 1), (1, 2), (2, 0)), 21 + 4)


def test_empty_shapes_pass_through_transpose_and_mat_mul():
    assert transpose(()) == ()
    assert transpose(((), ())) == ()
    assert mat_mul(((), ()), ()) == ((), ())
    assert mat_mul(((1, 2),), ((), ())) == ((),)


def test_span_basis_rejects_vectors_of_the_wrong_length():
    basis = SpanBasis(3)
    assert basis.add_if_new((1, 0, 0))
    for vec in ((1, 2), (1, 2, 3, 4)):
        for method in (basis.add_if_new, basis.coordinates):
            with pytest.raises(ValueError, match=f"expected a vector of length 3, got {len(vec)}"):
                method(vec)
    assert basis.vectors == [(1, 0, 0)]
    assert basis.coordinates((2, 0, 0)) == (2,)
