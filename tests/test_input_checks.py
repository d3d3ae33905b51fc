"""Each constructor and parser rejects a malformed input with its own message."""

import re
from decimal import Decimal

import pytest

from hilbertrep.bitmap import Bitmap, render_from_walk, render_pbm
from hilbertrep.cli import _COMMANDS, build_parser
from hilbertrep.dfao import Dfao, dfao_from_text, dfao_to_text, dfao_walk, hilbert_dfao
from hilbertrep.linrep import (
    InsufficientDataError,
    LinearRep,
    Transducer,
    difference_rep,
    eval_linrep,
    guess_linrep,
    hilbert_linrep,
    increment_transducer,
    linrep_from_text,
    linrep_walk,
    transduce_rep,
)
from hilbertrep.oracle import Direction, generate_generation, hc_prefix
from hilbertrep.ratmat import SpanBasis
from hilbertrep.sync import SyncAutomaton, hilbert_sync, sync_from_text, sync_locate_walk, sync_walk
from hilbertrep.textfmt import ParseError, read_text
from hilbertrep.verify import verify_cross, verify_identities, verify_sync_suite

U = Direction.U
ONE = ((1,),)  # the 1 x 1 identity
DFAO = "dfao base=2 states=1 initial=0\n"
LINREP = "linrep base=2 out=1 rank=1\n"
SYNC = "sync bases=4,2,2 states=1 initial=0 accepting=0\n"
# 10**11 empty v rows, which no line lists, in a file of five lines
RANK_0 = "linrep base=2 out=100000000000 rank=0\nv\ngamma 0\ngamma 1\nw\n"


def _rank_one(base: int, out: int = 1) -> LinearRep:
    return LinearRep(base=base, v=ONE * out, gamma=(ONE,) * base, w=(1,))


def _command(*argv):
    """Run one command line's command past the error handling of ``main``."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def _one_state_sync(accepting, transitions) -> SyncAutomaton:
    return SyncAutomaton(bases=(4, 2, 2), state_count=1, initial=0, accepting=frozenset(accepting),
                         transitions=transitions)


CASES = {
    "bitmap shape": (lambda: Bitmap(width=2, height=1, bits=((True,),)),
                     ValueError, "bit grid does not match width x height"),
    "dfao output count": (lambda: Dfao(base=2, transitions=((0, 0),), outputs=()),
                          ValueError, "one output per state required"),
    "dfao initial state": (lambda: Dfao(base=2, transitions=((0, 0),), outputs=(U,), initial=1),
                           ValueError, "initial state 1 out of range"),
    "dfao target": (lambda: Dfao(base=2, transitions=((0, 1),), outputs=(U,)),
                    ValueError, "transition (0, 1) -> 1 out of range"),
    "dfao text output": (lambda: dfao_to_text(Dfao(base=2, transitions=((0, 0),), outputs=("U",))),
                         ValueError, "state 0 output 'U' is not a direction"),
    "dfao state line": (lambda: dfao_from_text(DFAO + "state 0 U\n"),
                        ParseError, "line 2: malformed state line 'state 0 U'"),
    "dfao duplicate output": (lambda: dfao_from_text(DFAO + "state 0 output=U\nstate 0 output=R\n"),
                              ParseError, "line 3: duplicate output for state 0"),
    "dfao duplicate transition": (lambda: dfao_from_text(DFAO + "0 1 -> 0\n0 1 -> 0\n"),
                                  ParseError, "line 3: duplicate transition (0, 1)"),
    # the header's base is checked before the body names a digit of it
    "dfao base": (lambda: dfao_from_text("dfao base=0 states=1 initial=0\nstate 0 output=U\n0 0 -> 0\n"),
                  ValueError, "base must be at least 2, got 0"),
    "linrep matrix count": (lambda: LinearRep(base=2, v=ONE, gamma=(ONE,), w=(1,)),
                            ValueError, "need one matrix per digit of base 2"),
    "linrep v shape": (lambda: LinearRep(base=2, v=((1, 0),), gamma=(ONE, ONE), w=(1,)),
                       ValueError, "v must have rank-length rows"),
    "linrep gamma shape": (lambda: LinearRep(base=2, v=ONE, gamma=(ONE, ((1, 0),)), w=(1,)),
                           ValueError, "gamma(1) must be 1 x 1"),
    "linrep float entry": (lambda: LinearRep(base=2, v=((0.5,),), gamma=(ONE, ONE), w=(1,)),
                           ValueError, "entries must be ints or Fractions, got float"),
    "linrep Decimal entry": (lambda: LinearRep(base=2, v=ONE, gamma=(ONE, ONE), w=(Decimal(1),)),
                             ValueError, "entries must be ints or Fractions, got Decimal"),
    "span basis float entry": (lambda: SpanBasis(2).express((0.5, 1)),
                               ValueError, "entries must be ints or Fractions, got float"),
    "transducer final state": (lambda: Transducer(base=2, state_count=1, initial=0, final=frozenset({1}),
                                                  moves=frozenset()),
                               ValueError, "final state out of range"),
    "transducer move state": (lambda: Transducer(base=2, state_count=1, initial=0, final=frozenset({0}),
                                                 moves=frozenset({(0, 0, (0,), 1)})),
                              ValueError, "move (0, 0, (0,), 1) state out of range"),
    "eval_linrep negative": (lambda: eval_linrep(hilbert_linrep(), -1),
                             ValueError, "cannot represent negative value -1"),
    "transduce base": (lambda: transduce_rep(hilbert_linrep(), increment_transducer(2)),
                       ValueError, "representation and transducer must share a base"),
    "difference base": (lambda: difference_rep(hilbert_linrep(), _rank_one(2, out=2)),
                        ValueError, "representations must share a base"),
    "difference dimension": (lambda: difference_rep(hilbert_linrep(), _rank_one(4)),
                             ValueError, "representations must share an output dimension"),
    "guess empty": (lambda: guess_linrep([], 4, 1), InsufficientDataError, "empty prefix"),
    "guess ragged": (lambda: guess_linrep([(0, 0), (1,)], 4, 1),
                     ValueError, "prefix entries must all have the same dimension"),
    "guess float": (lambda: guess_linrep([0, 0.5, "1"] * 22, 4, 1),
                    ValueError, "prefix entries must be ints or Fractions, got float"),
    "guess str": (lambda: guess_linrep([(0, 1), (2, "3")] * 32, 4, 1),
                  ValueError, "prefix entries must be ints or Fractions, got str"),
    "guess base": (lambda: guess_linrep(list(range(64)), 0, 2), ValueError, "base must be at least 2, got 0"),
    "guess depth": (lambda: guess_linrep(list(range(64)), 4, -1), ValueError, "depth must be at least 0, got -1"),
    "linrep scalar": (lambda: linrep_from_text(LINREP + "v\nx\n"),
                      ParseError, "line 3: expected integer or rational, got 'x'"),
    "linrep base": (lambda: linrep_from_text("linrep base=0 out=1 rank=1\nv\n1\ngamma 0\n1\nw\n1\n"),
                    ValueError, "base must be at least 2, got 0"),
    "linrep duplicate section": (lambda: linrep_from_text(LINREP + "v\n1\nv\n"),
                                 ParseError, "line 4: duplicate section 'v'"),
    "linrep value before section": (lambda: linrep_from_text(LINREP + "1\n"),
                                    ParseError, "line 2: value line '1' before any section"),
    "linrep width": (lambda: linrep_from_text(LINREP + "v\n1 2\n"),
                     ParseError, "line 3: expected 1 values in section 'v', got 2"),
    "linrep rows": (lambda: linrep_from_text(LINREP + "v\n1\n2\n"),
                    ParseError, "line 4: too many rows in section 'v'"),
    "linrep rank-0 rows": (lambda: linrep_from_text(RANK_0),
                           ParseError, "line 1: rank-0 output dimension 100000000000 exceeds the file's 5 lines"),
    "hc_prefix negative": (lambda: hc_prefix(-1), ValueError, "prefix length must be at least 0, got -1"),
    "generate_generation negative": (lambda: generate_generation(-1),
                                     ValueError, "stage index must be at least 0, got -1"),
    "sync accepting state": (lambda: _one_state_sync({1}, {}), ValueError, "accepting state out of range"),
    "sync transition state": (lambda: _one_state_sync({0}, {(0, (0, 0, 0)): 1}),
                              ValueError, "transition (0, (0, 0, 0)) -> 1 state out of range"),
    "sync digit triple": (lambda: sync_from_text(SYNC + "0 [0,0] -> 0\n"),
                          ParseError, "line 2: malformed digit triple '[0,0]'"),
    "header field": (lambda: read_text("dfao base\n", "dfao", ()),
                     ParseError, "line 1: malformed header field 'base'"),
    "duplicate header field": (lambda: read_text("dfao base=2 base=3\n", "dfao", ()),
                               ParseError, "line 1: duplicate header field 'base'"),
    "unrecognized line": (lambda: dfao_from_text(DFAO + "0 1 0\n"),
                          ParseError, "line 2: unrecognized line '0 1 0'"),
    "dir index": (lambda: _command("dir", "abc"), ValueError, "'abc' is not a decimal index"),
    "coords index, oracle": (lambda: _command("coords", "1e5", "--method", "oracle"),
                             ValueError, "'1e5' is not a decimal index"),
    "coords index, sync": (lambda: _command("coords", "1e5"), ValueError, "'1e5' is not a decimal index"),
    "identities bound": (lambda: verify_identities(-1), ValueError, "bound must be at least 0, got -1"),
    "sync suite bound": (lambda: verify_sync_suite(-1), ValueError, "bound must be at least 0, got -1"),
    "cross bound": (lambda: verify_cross(-1), ValueError, "bound must be at least 0, got -1"),
    "dfao walk digits": (lambda: dfao_walk(hilbert_dfao(), -1), ValueError, "digit count must be at least 0, got -1"),
    "linrep walk digits": (lambda: linrep_walk(hilbert_linrep(), -1),
                           ValueError, "digit count must be at least 0, got -1"),
    "sync walk digits": (lambda: sync_walk(hilbert_sync(), -1), ValueError, "digit count must be at least 0, got -1"),
    "sync locate walk digits": (lambda: sync_locate_walk(hilbert_sync(), -1),
                                ValueError, "digit count must be at least 0, got -1"),
    "render_pbm stage": (lambda: render_pbm(0), ValueError, "stage index must be at least 1, got 0"),
    "render_from_walk stage": (lambda: render_from_walk(0), ValueError, "stage index must be at least 1, got 0"),
}


@pytest.mark.parametrize("name", CASES)
def test_malformed_input_is_rejected_with_its_message(name):
    build, error, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
