"""Exact linear representations of the curve's coordinate sequence.

A linear representation computes a vector value for each index n as

    value(n) = v . gamma(d_1) . ... . gamma(d_t) . w

where d_1 ... d_t are the base-k digits of n, most significant first,
v is an out_dim x rank matrix, each gamma(d) is a rank x rank matrix and
w is a rank column vector.  Evaluation reads the digits two at a time,
from the least significant end, through the products gamma(a) . gamma(b)
(a k-regular sequence is also k^2-regular): one small matrix-vector
product per digit pair, i.e. time linear in the number of digits of n.
All entries are exact (ints or Fractions); nothing here rounds.

The module provides the reference rank-5 representation of the coordinate
pair sequence, a transducer-composition construction (feeding a
representation the transduced digits, used here to shift the index by
one), a difference construction, exact minimization, the matrix-closure
construction that recovers a finite automaton from a representation whose
reachable row space is finite, and a data-driven guessing procedure for
candidate representations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain

from .dfao import Dfao, explore, require_base, to_base
from .oracle import STEP
from .ratmat import SpanBasis, identity, mat_mul, mat_vec, matrix, transpose, vec_mat, vector
from .textfmt import ParseError, parse_index, parse_int, read_text, require_all


class NonFunctionalTransducerError(ValueError):
    """A transducer admitted more than one accepting path for some input."""


class StateBudgetExceededError(RuntimeError):
    """Matrix closure kept growing; the sequence is likely not automatic."""


class InsufficientDataError(ValueError):
    """Not enough prefix data to pin down candidate kernel relations."""


@dataclass(frozen=True)
class LinearRep:
    """Exact linear representation (v, gamma, w) over base-k digits."""

    base: int
    v: tuple[tuple, ...]
    gamma: tuple[tuple[tuple, ...], ...]
    w: tuple

    def __post_init__(self):
        require_base(self.base)
        object.__setattr__(self, "v", matrix(self.v))
        object.__setattr__(self, "gamma", tuple(matrix(g) for g in self.gamma))
        object.__setattr__(self, "w", vector(self.w))
        if len(self.gamma) != self.base:
            raise ValueError(f"need one matrix per digit of base {self.base}")
        rank = len(self.w)
        for row in self.v:
            if len(row) != rank:
                raise ValueError("v must have rank-length rows")
        for digit, g in enumerate(self.gamma):
            if len(g) != rank or any(len(row) != rank for row in g):
                raise ValueError(f"gamma({digit}) must be {rank} x {rank}")

    @property
    def rank(self) -> int:
        return len(self.w)

    @property
    def out_dim(self) -> int:
        return len(self.v)

    @cached_property
    def _pairs(self) -> tuple:
        """``_pairs[a][b]`` is gamma(a) . gamma(b); built on first evaluation."""
        return tuple(tuple(mat_mul(ga, gb) for gb in self.gamma) for ga in self.gamma)


@dataclass(frozen=True)
class Transducer:
    """Nondeterministic letter-input transducer with word outputs.

    ``moves`` holds (source, input digit, output word, target) tuples;
    acceptance is by final state after the whole input.  The machines used
    here are unambiguous: each input has at most one accepting path.
    """

    base: int
    state_count: int
    initial: int
    final: frozenset[int]
    moves: frozenset[tuple[int, int, tuple[int, ...], int]]

    def __post_init__(self):
        require_base(self.base)
        if not 0 <= self.initial < self.state_count:
            raise ValueError(f"initial state {self.initial} out of range")
        if not all(0 <= q < self.state_count for q in self.final):
            raise ValueError("final state out of range")
        for src, digit, out, dst in self.moves:
            if not (0 <= src < self.state_count and 0 <= dst < self.state_count):
                raise ValueError(f"move ({src}, {digit}, {out}, {dst}) state out of range")
            if not 0 <= digit < self.base:
                raise ValueError(f"move input digit {digit} out of range for base {self.base}")
            if any(not 0 <= d < self.base for d in out):
                raise ValueError(f"move output {out} has digits out of range")


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
    """Value at index n: ``eval_linrep_digits`` on the canonical base-k digits of n."""
    return eval_linrep_digits(rep, to_base(n, rep.base))


def eval_linrep_digits(rep: LinearRep, digits) -> tuple:
    """Value on an explicit digit string (leading zeros allowed).

    The string is read two digits per step from its least significant end,
    one matrix-vector product with gamma(a) . gamma(b) per pair.  An odd
    leading digit is applied alone: padding it with a zero would be wrong
    for representations whose gamma(0) does not fix v.
    """
    digits = tuple(digits)
    low = min(digits, default=0)
    if low < 0:  # a negative index would silently read from the end of the table
        raise ValueError(f"digit {low} out of range for base {rep.base}")
    pairs = rep._pairs
    col = rep.w
    odd = len(digits) % 2
    for i in range(len(digits) - 2, odd - 1, -2):
        col = mat_vec(pairs[digits[i]][digits[i + 1]], col)
    if odd:
        col = mat_vec(rep.gamma[digits[0]], col)
    return mat_vec(rep.v, col)


def linrep_walk(rep: LinearRep, t: int) -> list[tuple]:
    """The values at n = 0 ... base**t - 1 in index order.

    Equal to ``[eval_linrep(rep, n) for n in range(base**t)]``, element
    types included.  Each index of two or more digits d e s (d nonzero, s
    the digits after e) costs one product of v . gamma(d) . gamma(e),
    built once per digit pair, with the suffix column gamma(s) . w; the
    columns of all strings s shorter than t - 1 are built one digit per
    level, each from the column of its own suffix.
    """
    if t < 0:
        raise ValueError(f"digit count must be at least 0, got {t}")
    heads = [mat_mul(rep.v, g) for g in rep.gamma]
    pair_heads = [mat_mul(head, g) for head in heads[1:] for g in rep.gamma]
    values = [mat_vec(head, rep.w) for head in heads[:rep.base if t else 1]]
    cols = [rep.w]
    for length in range(2, t + 1):
        if length > 2:
            cols = [mat_vec(g, col) for g in rep.gamma for col in cols]
        values.extend(mat_vec(head, col) for head in pair_heads for col in cols)
    return values


def increment_transducer(k: int) -> Transducer:
    """A 3-state transducer turning base-k digits of n into digits of n + 1.

    Guess-the-carry, most significant digit first: from the start or copy
    state the machine either copies the digit, or (guessing that every
    remaining digit is k-1) emits digit + 1 and moves to the carry state,
    which rewrites trailing k-1 digits to 0 and is the only final state.
    A start-state arc on k-1 emits the two digits 1, 0 so that all-(k-1)
    inputs map to their one-digit-longer successor.  Exactly one path
    accepts for every nonempty input: the guess must happen at the last
    digit below k-1, or at the front when there is none.
    """
    require_base(k)
    start, carry, copy = 0, 1, 2
    moves = set()
    for d in range(k):
        moves.add((start, d, (d,), copy))
        moves.add((copy, d, (d,), copy))
        if d < k - 1:
            moves.add((start, d, (d + 1,), carry))
            moves.add((copy, d, (d + 1,), carry))
    moves.add((start, k - 1, (1, 0), carry))
    moves.add((carry, k - 1, (0,), carry))
    return Transducer(base=k, state_count=3, initial=start,
                      final=frozenset({carry}), moves=frozenset(moves))


def _adjacency(trans: Transducer):
    adj = defaultdict(list)
    for src, digit, out, dst in sorted(trans.moves):
        adj[(src, digit)].append((out, dst))
    return adj


def transducer_outputs(trans: Transducer, digits) -> list[tuple[int, ...]]:
    """Outputs of all accepting paths on ``digits``, one entry per path."""
    adj = _adjacency(trans)
    paths = [(trans.initial, ())]
    for digit in digits:
        paths = [(dst, emitted + out) for state, emitted in paths for out, dst in adj[(state, digit)]]
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
    A breadth-first search over the product, with one more bit for
    whether the two paths have parted yet, finds such a completion
    directly; the error names the shortest such input that comes first
    in digit order.
    """
    adj = _adjacency(trans)
    start = (trans.initial, trans.initial, False)
    prefix = {start: ()}  # a shortest input reaching each (state, state, parted)
    order = [start]
    for p, q, parted in order:
        if parted and p in trans.final and q in trans.final:
            raise NonFunctionalTransducerError(f"input {prefix[p, q, parted]} has multiple accepting paths")
        for digit in range(trans.base):
            for move in adj[(p, digit)]:
                for other in adj[(q, digit)]:
                    target = (move[1], other[1], parted or (p, move) != (q, other))
                    if target not in prefix:
                        prefix[target] = prefix[p, q, parted] + (digit,)
                        order.append(target)


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
    mats = []
    for a in range(rep.base):
        rows = [[0] * size for _ in range(size)]
        for src, digit, out, dst in trans.moves:
            if digit != a:
                continue
            block = _word_matrix(rep, out)
            for p in range(s):
                row = rows[src * s + p]
                brow = block[p]
                for q in range(s):
                    row[dst * s + q] += brow[q]
        mats.append(rows)
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


def _row_closure(seeds, gammas, dim):
    """Close a set of row vectors under right multiplication by the gammas.

    Returns the span basis and, per digit, the matrix expressing each basis
    row's image in terms of the basis.
    """
    basis = SpanBasis(dim)
    for seed in seeds:
        basis.add_if_new(seed)
    i = 0
    while i < len(basis.vectors):
        row = basis.vectors[i]
        for g in gammas:
            basis.add_if_new(vec_mat(row, g))
        i += 1
    coeffs = [[basis.coordinates(vec_mat(row, g)) for row in basis.vectors] for g in gammas]
    return basis, coeffs


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
    """
    v0 = mat_mul(rep.v, rep.gamma[0])
    reach, g1 = _row_closure(v0, rep.gamma, rep.rank)
    v1 = [reach.coordinates(row) for row in v0]
    w1 = mat_vec(reach.vectors, rep.w)

    observe, g2t = _row_closure([w1], [transpose(g) for g in g1], len(reach.vectors))
    w2 = observe.coordinates(w1)
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


@dataclass(frozen=True)
class GuessedLinearRep:
    """Uncertified candidate representation fitted to prefix data.

    ``spanning`` lists the kernel subsequences n -> a(k**e * n + i), as
    (e, i) pairs, whose samples were admitted as the basis.  Certification
    is up to the caller (replay, minimization, matrix closure).
    """

    rep: LinearRep
    spanning: tuple[tuple[int, int], ...]


def guess_linrep(prefix, k: int, depth: int) -> GuessedLinearRep:
    """Fit a candidate representation to a value prefix.

    Kernel subsequences n -> a(k**e * n + i) with e <= depth are scanned
    in lexicographic (e, i) order; each one whose sample vector extends
    the span so far becomes a basis element.  The digit matrices then come
    from expressing every basis element's digit-refinements (level
    depth + 1) in that basis.  Entries of ``prefix`` may be numbers or
    equal-length tuples.  Raises InsufficientDataError when the prefix is
    shorter than k**(depth + 2) terms or the refinements escape the span.
    """
    values = [tuple(entry) if isinstance(entry, (tuple, list)) else (entry,) for entry in prefix]
    if not values:
        raise InsufficientDataError("empty prefix")
    out_dim = len(values[0])
    if any(len(entry) != out_dim for entry in values):
        raise ValueError("prefix entries must all have the same dimension")
    if len(values) < k ** (depth + 2):
        raise InsufficientDataError(
            f"need at least {k ** (depth + 2)} terms to overdetermine relations, got {len(values)}"
        )
    samples = len(values) // k ** (depth + 1)

    def sample_vector(e: int, i: int) -> tuple:
        stride = k ** e
        return tuple(values[stride * n + i][c] for n in range(samples) for c in range(out_dim))

    basis = SpanBasis(samples * out_dim)
    spanning: list[tuple[int, int]] = []
    for e in range(depth + 1):
        for i in range(k ** e):
            if basis.add_if_new(sample_vector(e, i)):
                spanning.append((e, i))

    gamma = []
    for d in range(k):
        rows = []
        for e, i in spanning:
            coords = basis.coordinates(sample_vector(e + 1, d * k ** e + i))
            if coords is None:
                raise InsufficientDataError(
                    f"refinement of kernel element ({e}, {i}) on digit {d} "
                    f"escapes the spanned space; increase depth or data"
                )
            rows.append(coords)
        gamma.append(transpose(rows))
    v = [[values[i][c] for _, i in spanning] for c in range(out_dim)]
    w = tuple(int(i == 0) for i in range(len(spanning)))
    return GuessedLinearRep(LinearRep(base=k, v=v, gamma=gamma, w=w), tuple(spanning))


def parse_scalar(token: str, lineno: int):
    """Parse an exact scalar: a plain integer or a p/q rational."""
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
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
