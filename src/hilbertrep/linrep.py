"""Exact linear representations of the curve's coordinate sequence.

A linear representation computes a vector value for each index n as

    value(n) = v . gamma(d_1) . ... . gamma(d_t) . w

where d_1 ... d_t are the base-k digits of n, most significant first,
v is an out_dim x rank matrix, each gamma(d) is a rank x rank matrix and
w is a rank column vector.  Evaluation reads the digits b at a time, from
the least significant end, through the block products gamma(d_1) ...
gamma(d_b) (a k-regular sequence is also k^b-regular), b the widest block
with k^b <= 256: one small matrix-vector product per block, i.e. time
linear in the number of digits of n.  All entries are exact (ints or
Fractions); nothing here rounds.

The module provides the reference rank-5 representation of the coordinate
pair sequence, a transducer-composition construction (feeding a
representation the transduced digits, used here to shift the index by
one), a difference construction, exact minimization, the matrix-closure
construction that recovers a finite automaton from a representation whose
reachable row space is finite, and a data-driven guessing procedure for
candidate representations.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import add

from .dfao import Dfao, Record, _successor_moves, explore, from_base, require_at_least, require_base
from .oracle import STEP
from .ratmat import SpanBasis, identity, mat_mul, mat_vec, matrix, transpose, vector


class NonFunctionalTransducerError(ValueError):
    """A transducer admitted more than one accepting path for some input."""


class StateBudgetExceededError(RuntimeError):
    """Matrix closure kept growing; the sequence is likely not automatic."""


class InsufficientDataError(ValueError):
    """Not enough prefix data to pin down candidate kernel relations."""


class LinearRep(Record):
    """Exact linear representation (v, gamma, w) over base-k digits."""

    _fields = ("base", "v", "gamma", "w")

    def __init__(self, base: int, v: tuple[tuple, ...], gamma: tuple[tuple[tuple, ...], ...], w: tuple):
        require_base(base)
        v, gamma, w = matrix(v), tuple(matrix(g) for g in gamma), vector(w)
        self.__dict__.update(base=base, v=v, gamma=gamma, w=w)
        if len(gamma) != base:
            raise ValueError(f"need one matrix per digit of base {base}")
        rank = len(w)
        for row in v:
            if len(row) != rank:
                raise ValueError("v must have rank-length rows")
        for digit, g in enumerate(gamma):
            if len(g) != rank or any(len(row) != rank for row in g):
                raise ValueError(f"gamma({digit}) must be {rank} x {rank}")

    @property
    def rank(self) -> int:
        return len(self.w)

    @property
    def out_dim(self) -> int:
        return len(self.v)

    @property
    def block_width(self) -> int:
        """Digits read per evaluation step: the largest b >= 1 with base**b <= 256."""
        width = 1
        while self.base ** (width + 1) <= _BLOCK_VALUES:
            width += 1
        return width

    @cached_property
    def _places(self) -> tuple[int, ...]:
        """The place values 1, k, ..., k**b, b the block width."""
        return tuple(self.base**i for i in range(self.block_width + 1))

    @cached_property
    def _blocks(self) -> tuple:
        """``_blocks[r][m]`` is gamma(d_1) ... gamma(d_r) for the r-digit block of value m.

        Width one is gamma itself; a wider product is built on its first read,
        so a representation holds at most k**2 + ... + k**b of them.
        """
        blocks = (None, self.gamma)
        for place in self._places[1:-1]:
            blocks += (_BlockProducts(self.gamma, blocks[-1], place),)
        return blocks


_BLOCK_VALUES = 256  # the widest block spans at most this many values, which bounds the memo


class _BlockProducts(dict):
    """Products of one block width r >= 2, keyed by block value, each built on first read.

    A missing block d_1 ... d_r is gamma(d_1) times the product of its
    (r-1)-digit suffix, whose value is below ``place`` = k**(r-1).
    """

    def __init__(self, gamma, narrower, place: int):
        super().__init__()
        self.gamma, self.narrower, self.place = gamma, narrower, place

    def __missing__(self, value: int):
        lead, rest = divmod(value, self.place)
        product = self[value] = mat_mul(self.gamma[lead], self.narrower[rest])
        return product


class Transducer(Record):
    """Nondeterministic letter-input transducer with word outputs.

    ``moves`` holds (source, input digit, output word, target) tuples;
    acceptance is by final state after the whole input.  The machines used
    here are unambiguous: each input has at most one accepting path.
    """

    _fields = ("base", "state_count", "initial", "final", "moves")

    def __init__(self, base: int, state_count: int, initial: int, final: frozenset[int],
                 moves: frozenset[tuple[int, int, tuple[int, ...], int]]):
        self.__dict__.update(base=base, state_count=state_count, initial=initial, final=final, moves=moves)
        require_base(base)
        if not 0 <= initial < state_count:
            raise ValueError(f"initial state {initial} out of range")
        if not all(0 <= q < state_count for q in final):
            raise ValueError("final state out of range")
        for src, digit, out, dst in moves:
            if not (0 <= src < state_count and 0 <= dst < state_count):
                raise ValueError(f"move ({src}, {digit}, {out}, {dst}) state out of range")
            if not 0 <= digit < base:
                raise ValueError(f"move input digit {digit} out of range for base {base}")
            if any(not 0 <= d < base for d in out):
                raise ValueError(f"move output {out} has digits out of range")
        # (source, input digit) -> [(output word, target)], sorted; derived, so neither compared nor shown
        self.__dict__["_moves_on"] = moves_on = {}
        for src, digit, out, dst in sorted(moves):
            moves_on.setdefault((src, digit), []).append((out, dst))


def hilbert_linrep() -> LinearRep:
    """The rank-5 base-4 representation of the coordinate pair (x_n, y_n)."""
    v = ((0, 0, 0, 1, 0),
         (0, 0, 1, 1, 0))
    g0 = ((0, 0, 0, 0, -4),
          (1, 0, -1, -1, 4),
          (0, 0, 1, 0, 0),
          (0, 0, 0, 1, 0),
          (0, 1, 1, 1, 1))
    g1 = ((0, 0, 0, 0, -4),
          (0, 0, 0, -1, 0),
          (1, -2, -3, -2, 4),
          (0, 2, 3, 3, 0),
          (0, 1, 1, 1, 1))
    g2 = ((0, 0, 0, 0, -4),
          (0, -2, -2, -3, 0),
          (0, 0, -1, 0, 0),
          (1, 2, 3, 3, 4),
          (0, 1, 1, 1, 1))
    g3 = ((0, 0, 0, 0, -4),
          (1, -3, -2, -2, 1),
          (-1, 2, 1, 2, -4),
          (1, 1, 1, 0, 7),
          (0, 1, 1, 1, 1))
    w = (1, 0, 0, 0, 0)
    return LinearRep(base=4, v=v, gamma=(g0, g1, g2, g3), w=w)


def hilbert_step_rep() -> LinearRep:
    """Reference rank-3 representation of the unit step (next point minus current)."""
    v = ((1, 0, 0),
         (0, 1, 0))
    g0 = ((1, 0, 0),
          (0, 1, 0),
          (0, 1, 0))
    g1 = ((0, 1, 0),
          (1, 0, 0),
          (1, 0, 0))
    g2 = ((0, 0, 1),
          (1, -1, 1),
          (1, -1, 1))
    g3 = ((-1, 1, -1),
          (0, 0, -1),
          (0, -1, 0))
    w = (0, 1, 0)
    return LinearRep(base=4, v=v, gamma=(g0, g1, g2, g3), w=w)


def eval_linrep(rep: LinearRep, n: int) -> tuple:
    """Value at index n, read on the canonical base-k digits of n."""
    if n < 0:
        raise ValueError(f"cannot represent negative value {n}")
    return _eval(rep, n, 1)


def eval_linrep_digits(rep: LinearRep, digits) -> tuple:
    """Value on an explicit digit string (leading zeros allowed)."""
    digits = tuple(digits)
    return _eval(rep, from_base(digits, rep.base), len(digits))


def _eval(rep: LinearRep, n: int, length: int) -> tuple:
    """v . gamma(d_1) ... gamma(d_t) . w on the digits of n, led by zeros up to ``length`` digits.

    Blocks of b digits come off n from its least significant end, one
    matrix-vector product with a block product each; where a block spans
    256 values (bases 2, 4 and 16) the blocks are the bytes of
    ``n.to_bytes``, else they are peeled by ``divmod``.  The leading block
    keeps its own width, 1 to b digits: padding it with zeros would be
    wrong for representations whose gamma(0) does not fix v.
    """
    places, blocks = rep._places, rep._blocks
    width = len(places) - 1
    step, full = places[width], blocks[width]
    if step == 256:  # a block is one byte of n
        count = max((n.bit_length() - 1) // 8, (length - 1) // width, 0)
        *low, n = n.to_bytes(count + 1, "little")
        length -= count * width
    else:
        low = []
        while length > width or n >= step:
            n, block = divmod(n, step)
            low.append(block)
            length -= width
    col = rep.w
    for block in low:
        col = mat_vec(full[block], col)
    lead = max(length, bisect_right(places, n))  # n's own digit count, or the padded length
    if lead:
        col = mat_vec(blocks[lead][n], col)
    return mat_vec(rep.v, col)


def _times_columns(m, cols, count: int) -> list[list]:
    """m times each of ``count`` columns, the columns held and returned as one list per coordinate."""
    rows = []
    for row in m:
        acc = [0] * count
        for a, col in zip(row, cols):
            if a:
                acc = [total + a * x for total, x in zip(acc, col)]
        rows.append(acc)
    return rows


def linrep_walk(rep: LinearRep, t: int) -> list[tuple]:
    """The values at n = 0 ... base**t - 1 in index order.

    Equal to ``[eval_linrep(rep, n) for n in range(base**t)]``, element
    types included.  Each index of two or more digits d e s (d nonzero, s
    the digits after e) costs one product of v . gamma(d) . gamma(e),
    built once per digit pair, with the suffix column gamma(s) . w; the
    columns of all strings s shorter than t - 1 are built one digit per
    level, each from the column of its own suffix.  The columns of a level
    are held as one list per coordinate, so a matrix is applied to all of
    them by one list pass per nonzero entry.
    """
    require_at_least(t, 0, "digit count")
    heads = [mat_mul(rep.v, g) for g in rep.gamma]
    pair_heads = [mat_mul(head, g) for head in heads[1:] for g in rep.gamma]
    values = [mat_vec(head, rep.w) for head in heads[:rep.base if t else 1]]
    cols, count = [[x] for x in rep.w], 1
    for length in range(2, t + 1):
        if length > 2:
            parts = [_times_columns(g, cols, count) for g in rep.gamma]
            cols = [[x for part in parts for x in part[i]] for i in range(rep.rank)]
            count *= rep.base
        for head in pair_heads:
            rows = _times_columns(head, cols, count)
            values.extend(zip(*rows) if rows else [()] * count)  # no rows: out_dim 0, empty values
    entries = chain(rep.w, chain.from_iterable(rep.v), chain.from_iterable(chain.from_iterable(rep.gamma)))
    if any(type(x) is not int for x in entries):  # exact non-integers: collapse integral Fractions
        values = [vector(value) for value in values]
    return values


def increment_transducer(k: int) -> Transducer:
    """A 3-state transducer turning base-k digits of n into digits of n + 1.

    Guess-the-carry, most significant digit first: from the start or copy
    state the machine either copies the digit, or (guessing that every
    remaining digit is k-1) emits digit + 1 and moves to the carry state,
    which rewrites trailing k-1 digits to 0 and is the only final state.
    Its moves are those of the successor recognizer ``_successor_moves``
    (shared with the bitmap derivation), each emitting its second digit.
    A start-state arc on k-1 emits the two digits 1, 0 so that all-(k-1)
    inputs map to their one-digit-longer successor.  Exactly one path
    accepts for every nonempty input: the guess must happen at the last
    digit below k-1, or at the front when there is none.
    """
    require_base(k)
    start, carry, copy = 0, 1, 2
    moves = {(source, d, (e,), (copy, carry)[target])  # recognizer state 0 is start and copy, 1 is carry
             for (state, d, e), target in _successor_moves(k).items()
             for source in ((start, copy), (carry,))[state]}
    moves.add((start, k - 1, (1, 0), carry))
    return Transducer(base=k, state_count=3, initial=start,
                      final=frozenset({carry}), moves=frozenset(moves))


def transducer_outputs(trans: Transducer, digits) -> list[tuple[int, ...]]:
    """Outputs of all accepting paths on ``digits``, one entry per path."""
    moves_on = trans._moves_on
    paths = [(trans.initial, ())]
    for digit in digits:
        paths = [(dst, emitted + out) for state, emitted in paths
                 for out, dst in moves_on.get((state, digit), ())]
    return [emitted for state, emitted in paths if state in trans.final]


def check_functional(trans: Transducer) -> None:
    """Raise unless every input has at most one accepting path.

    One accepting path per input is slightly stronger than one output per
    input, and is what the composition construction needs: with several
    accepting paths the block matrices would sum their contributions.

    The test is exact for inputs of every length: in the self-product,
    whose states are pairs of states and whose moves on a digit are pairs
    of moves on it, the transducer is ambiguous exactly when a pair of
    distinct moves is both reachable from (initial, initial) and able to
    reach a pair of final states (Allauzen, Mohri & Rastogi, DLT 2008).
    A search over the product, one input length at a time, with one more
    bit for whether the two paths have parted, finds such a completion
    directly.  Each length's new triples keep the least input reaching
    them, found by extending the previous length's inputs in (input,
    digit) order, so the error names the least ambiguous input, shortest
    first.
    """
    moves_on, final = trans._moves_on, trans.final
    layer = {(trans.initial, trans.initial, False): ()}  # (state, state, parted) first reached: its least input
    seen = set(layer)
    while layer:
        ambiguous = [word for (p, q, parted), word in layer.items() if parted and p in final and q in final]
        if ambiguous:
            raise NonFunctionalTransducerError(f"input {min(ambiguous)} has multiple accepting paths")
        found = {}
        for word, digit, (p, q, parted) in sorted((word, digit, triple) for triple, word in layer.items()
                                                  for digit in range(trans.base)):
            for move in moves_on.get((p, digit), ()):
                for other in moves_on.get((q, digit), ()):
                    target = (move[1], other[1], parted or (p, move) != (q, other))
                    if target not in seen:
                        found.setdefault(target, word + (digit,))
        seen.update(found)
        layer = found


def _word_matrix(rep: LinearRep, word) -> tuple[tuple, ...]:
    if not word:
        return identity(rep.rank)
    return reduce(mat_mul, [rep.gamma[digit] for digit in word])


def transduce_rep(rep: LinearRep, trans: Transducer) -> LinearRep:
    """Representation of n -> value(transducer output on digits of n).

    The result has one rank-sized block per transducer state: block (i, j)
    of the new digit matrix accumulates the matrix of the emitted word for
    every move from state i to state j on that digit.  The new v places
    the old v in the initial state's block; the new w carries the old w in
    every final state's block.
    """
    if rep.base != trans.base:
        raise ValueError("representation and transducer must share a base")
    check_functional(trans)
    s = rep.rank
    size = s * trans.state_count
    mats = [[[0] * size for _ in range(size)] for _ in range(rep.base)]
    for src, digit, out, dst in trans.moves:
        for row, brow in zip(mats[digit][src * s:(src + 1) * s], _word_matrix(rep, out)):
            row[dst * s:(dst + 1) * s] = map(add, row[dst * s:(dst + 1) * s], brow)
    v = []
    for vrow in rep.v:
        row = [0] * size
        row[trans.initial * s:(trans.initial + 1) * s] = vrow
        v.append(row)
    w = [0] * size
    for f in trans.final:
        w[f * s:(f + 1) * s] = rep.w
    return LinearRep(base=rep.base, v=v, gamma=mats, w=w)


def difference_rep(a: LinearRep, b: LinearRep) -> LinearRep:
    """Representation of a(n) - b(n) as a block direct sum; ranks add."""
    if a.base != b.base:
        raise ValueError("representations must share a base")
    if a.out_dim != b.out_dim:
        raise ValueError("representations must share an output dimension")
    ra, rb = a.rank, b.rank
    v = [ar + br for ar, br in zip(a.v, b.v)]
    gamma = []
    for d in range(a.base):
        ga, gb = a.gamma[d], b.gamma[d]
        top = [row + (0,) * rb for row in ga]
        bottom = [(0,) * ra + row for row in gb]
        gamma.append(top + bottom)
    w = a.w + tuple(-x for x in b.w)
    return LinearRep(base=a.base, v=v, gamma=gamma, w=w)


def _row_closure(seeds, columns, dim):
    """Close a set of row vectors under right multiplication by the digit matrices.

    ``columns[d]`` holds the columns of gamma(d).  Each seed, then each image
    row . gamma(d) of a basis row in order, is admitted or expressed by one
    elimination.  Returns the span basis, the coordinates of each seed and,
    per digit, those of each basis row's image: gamma(d) on the basis.
    """
    basis = SpanBasis(dim)
    seed_coords = [basis.express(seed) for seed in seeds]
    images = [[] for _ in columns]
    for row in basis.vectors:  # the loop reaches the rows that its own images admit
        for image, cols in zip(images, columns):
            image.append(basis.express(mat_vec(cols, row)))
    pad = basis.padded
    return basis, [pad(c) for c in seed_coords], [[pad(c) for c in image] for image in images]


def minimize_rep(rep: LinearRep) -> LinearRep:
    """Equivalent sequence representation of minimal rank, exact throughout.

    The input is treated as a representation of its index sequence, so v
    is first replaced by v . gamma(0), which pins the value on the empty
    digit string to the value at index 0.  (Representations built by
    transducer composition compute the right sequence on every digit
    string yet disagree on the empty string alone; without this step that
    single value would cost an extra dimension.)  The caller's values are
    unchanged whenever one extra leading zero does not change them, which
    holds for every representation constructed in this package.

    Two reductions follow: restrict to the span reached from the rows of
    v under the digit matrices, then (on the transposed representation)
    restrict to the span reached from w.  The result is reachable and
    observable, hence of minimal rank; a zero sequence reduces to rank 0.
    The new v, w and digit matrices are the coordinates the two closures
    take from their one elimination per vector.
    """
    v0 = mat_mul(rep.v, rep.gamma[0])
    reach, v1, g1 = _row_closure(v0, [transpose(g) for g in rep.gamma], rep.rank)
    w1 = mat_vec(reach.vectors, rep.w)
    observe, (w2,), g2t = _row_closure([w1], g1, len(reach.vectors))
    v2 = mat_mul(v1, transpose(observe.vectors))
    gamma2 = [transpose(g) for g in g2t]
    return LinearRep(base=rep.base, v=v2, gamma=gamma2, w=w2)


_STEP_TO_DIRECTION = {vec: direction for direction, vec in STEP.items()}
_STATE_BUDGET = 512  # distinct state matrices semigroup_trick explores before giving up


def semigroup_trick(rep: LinearRep) -> Dfao:
    """Recover a finite automaton from a representation by matrix closure.

    States are the distinct matrices v . gamma(digits); the transition on
    digit a right-multiplies by gamma(a), and a state's output is the
    direction whose unit step equals state . w (the raw vector when it is
    not a unit step).  ``explore`` discovers them breadth-first in digit
    order, so the state numbering is deterministic.  Exceeding
    ``_STATE_BUDGET`` raises StateBudgetExceededError, the signal that the
    row space is not finite.
    """
    start = rep.v
    if mat_mul(start, rep.gamma[0]) != start:
        raise ValueError("leading zeros change the start matrix; no automaton exists")
    seen = {start}

    def successor(state_matrix, a):
        succ = mat_mul(state_matrix, rep.gamma[a])
        if succ not in seen:
            if len(seen) >= _STATE_BUDGET:
                raise StateBudgetExceededError(
                    f"more than {_STATE_BUDGET} distinct state matrices"
                )
            seen.add(succ)
        return succ

    order, transitions = explore(start, successor, rep.base)
    outputs = []
    for state_matrix in order:
        value = mat_vec(state_matrix, rep.w)
        outputs.append(_STEP_TO_DIRECTION.get(value, value))
    return Dfao(base=rep.base, transitions=tuple(transitions), outputs=tuple(outputs))


class GuessedLinearRep(Record):
    """Uncertified candidate representation fitted to prefix data.

    ``spanning`` lists the kernel subsequences n -> a(k**e * n + i), as
    (e, i) pairs, whose samples were admitted as the basis.  Certification
    is up to the caller (replay, minimization, matrix closure).
    """

    _fields = ("rep", "spanning")

    def __init__(self, rep: LinearRep, spanning: tuple[tuple[int, int], ...]):
        self.__dict__.update(rep=rep, spanning=spanning)


def guess_linrep(prefix, k: int, depth: int) -> GuessedLinearRep:
    """Fit a candidate representation to a value prefix.

    Kernel subsequences n -> a(k**e * n + i) with e <= depth are scanned
    in lexicographic (e, i) order; each one whose sample vector extends
    the span so far becomes a basis element.  The digit matrices then come
    from expressing every basis element's digit-refinements in that basis;
    the scan kept the coordinates of those at levels <= depth, so only the
    refinements at level depth + 1 are eliminated anew.  Entries of
    ``prefix`` may be numbers or equal-length tuples.  Raises
    InsufficientDataError when the prefix is shorter than k**(depth + 2)
    terms or the refinements escape the span.
    """
    require_base(k)
    require_at_least(depth, 0, "depth")
    values = [tuple(entry) if isinstance(entry, (tuple, list)) else (entry,) for entry in prefix]
    dims = set(map(len, values))
    if not dims:
        raise InsufficientDataError("empty prefix")
    if len(dims) > 1:
        raise ValueError("prefix entries must all have the same dimension")
    (out_dim,) = dims
    if len(values) < k ** (depth + 2):
        raise InsufficientDataError(
            f"need at least {k ** (depth + 2)} terms to overdetermine relations, got {len(values)}"
        )
    samples = len(values) // k ** (depth + 1)

    def sample_vector(e: int, i: int) -> tuple:
        stride = k ** e  # values[stride * n + i] for n < samples, coordinates of each value in turn
        return tuple(chain.from_iterable(values[i:i + stride * samples:stride]))

    basis = SpanBasis(samples * out_dim)
    spanning: list[tuple[int, int]] = []
    scanned = {}  # (e, i) -> coordinates of the element when it was scanned
    for e in range(depth + 1):
        for i in range(k ** e):
            scanned[e, i] = basis.express(sample_vector(e, i))
            if len(basis.vectors) > len(spanning):
                spanning.append((e, i))

    gamma = []
    for d in range(k):
        rows = []
        for e, i in spanning:
            refinement = (e + 1, d * k ** e + i)
            coords = scanned[refinement] if e < depth else basis.coordinates(sample_vector(*refinement))
            if coords is None:
                raise InsufficientDataError(
                    f"refinement of kernel element ({e}, {i}) on digit {d} "
                    f"escapes the spanned space; increase depth or data"
                )
            rows.append(basis.padded(coords))
        gamma.append(transpose(rows))
    v = [[values[i][c] for _, i in spanning] for c in range(out_dim)]
    w = tuple(int(i == 0) for i in range(len(spanning)))
    return GuessedLinearRep(LinearRep(base=k, v=v, gamma=gamma, w=w), tuple(spanning))


def parse_scalar(token: str, lineno: int):
    """Parse an exact scalar: a plain integer or a p/q rational."""
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        from .textfmt import ParseError
        raise ParseError(lineno, f"expected integer or rational, got {token!r}") from None
    return int(value) if value.denominator == 1 else value


def format_scalar(value) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def linrep_to_text(rep: LinearRep) -> str:
    """Serialize to the canonical text form."""
    lines = [f"linrep base={rep.base} out={rep.out_dim} rank={rep.rank}"]
    lines.append("v")
    # rank-0 rows are empty and get no line; the parser restores them
    lines.extend(" ".join(format_scalar(x) for x in row) for row in rep.v if row)
    for d, g in enumerate(rep.gamma):
        lines.append(f"gamma {d}")
        lines.extend(" ".join(format_scalar(x) for x in row) for row in g)
    lines.append("w")
    lines.extend(format_scalar(x) for x in rep.w)
    return "\n".join(lines) + "\n"


def linrep_from_text(text: str) -> LinearRep:
    """Parse the text form; raises ParseError with the offending line number."""
    from .textfmt import ParseError, parse_index, parse_int, read_text, require_all

    header_line, fields, body = read_text(text, "linrep", ("base", "out", "rank"))
    base = parse_int(fields["base"], header_line, "base")
    out_dim = parse_int(fields["out"], header_line, "output dimension")
    rank = parse_int(fields["rank"], header_line, "rank")
    if rank == 0 and out_dim > len(body) + 1:
        # rank-0 rows are empty and have no line, so the file lists nothing to bound them by
        # but its own length: restoring them may cost no more than reading the file
        raise ParseError(header_line, f"rank-0 output dimension {out_dim} exceeds "
                                      f"the file's {len(body) + 1} lines")

    shapes = {"v": (out_dim, rank), "gamma": (rank, rank), "w": (rank, 1)}  # (rows, width) by kind
    sections: dict[str, list] = {}
    current: str | None = None
    for lineno, line in body:
        tokens = line.split()
        label = tokens[0] if tokens in (["v"], ["w"]) else None
        if tokens[0] == "gamma" and len(tokens) == 2:
            label = f"gamma {parse_index(tokens[1], lineno, 'digit', base)}"
        if label is not None:
            if label in sections:
                raise ParseError(lineno, f"duplicate section {label!r}")
            rows_needed, width = shapes[tokens[0]]
            sections[label] = [()] * rows_needed if width == 0 else []  # zero-width rows have no line
            current = label
            continue
        if current is None:
            raise ParseError(lineno, f"value line {line!r} before any section")
        row = [parse_scalar(token, lineno) for token in tokens]
        if len(row) != width:
            raise ParseError(lineno, f"expected {width} values in section {current!r}, got {len(row)}")
        if len(sections[current]) >= rows_needed:
            raise ParseError(lineno, f"too many rows in section {current!r}")
        sections[current].append(tuple(row))

    require_all(chain(["v"], (f"gamma {d}" for d in range(base)), ["w"]), sections, header_line, "sections")
    for label, rows in sections.items():
        rows_needed, _ = shapes[label.split()[0]]
        if len(rows) != rows_needed:
            raise ParseError(header_line, f"section {label!r} has {len(rows)} rows, expected {rows_needed}")
    gamma = tuple(tuple(sections[f"gamma {d}"]) for d in range(base))
    w = tuple(row[0] for row in sections["w"])
    return LinearRep(base=base, v=tuple(sections["v"]), gamma=gamma, w=w)
