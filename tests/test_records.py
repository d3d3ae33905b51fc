"""The package's immutable value classes: repr, equality, hashing, immutability, construction."""

from fractions import Fraction

import pytest

from hilbertrep.bitmap import Bitmap
from hilbertrep.dfao import Dfao
from hilbertrep.linrep import GuessedLinearRep, LinearRep, Transducer
from hilbertrep.oracle import Direction
from hilbertrep.sync import SyncAutomaton
from hilbertrep.verify import VerifyReport

_REP = dict(base=2, v=((1, 0),), gamma=(((1, 0), (0, 1)), ((0, 1), (Fraction(1, 2), 0))), w=(1, Fraction(2, 2)))
_REP_REPR = "LinearRep(base=2, v=((1, 0),), gamma=(((1, 0), (0, 1)), ((0, 1), (Fraction(1, 2), 0))), w=(1, 1))"

# (class, arguments by parameter name in parameter order, repr as the frozen dataclasses printed it)
CASES = {
    "Dfao": (Dfao, dict(base=2, transitions=((0, 1), (1, 0)), outputs=(Direction.U, Direction.R)),
             "Dfao(base=2, transitions=((0, 1), (1, 0)), outputs=(<Direction.U: 0>, <Direction.R: 1>), initial=0)"),
    "LinearRep": (LinearRep, _REP, _REP_REPR),
    "Transducer": (Transducer, dict(base=2, state_count=2, initial=0, final=frozenset({0}),
                                    moves=frozenset({(0, 1, (0, 1), 1)})),
                   "Transducer(base=2, state_count=2, initial=0, final=frozenset({0}), "
                   "moves=frozenset({(0, 1, (0, 1), 1)}))"),
    "GuessedLinearRep": (GuessedLinearRep, dict(rep=LinearRep(**_REP), spanning=((0, 0), (1, 1))),
                         f"GuessedLinearRep(rep={_REP_REPR}, spanning=((0, 0), (1, 1)))"),
    "SyncAutomaton": (SyncAutomaton, dict(bases=(2, 2, 2), state_count=2, initial=0, accepting=frozenset({0}),
                                          transitions={(0, (0, 0, 0)): 0, (0, (1, 1, 0)): 1}),
                      "SyncAutomaton(bases=(2, 2, 2), state_count=2, initial=0, accepting=frozenset({0}), "
                      "transitions=mappingproxy({(0, (0, 0, 0)): 0, (0, (1, 1, 0)): 1}))"),
    "Bitmap": (Bitmap, dict(width=2, height=1, bits=((True, False),)),
               "Bitmap(width=2, height=1, bits=((True, False),))"),
    "VerifyReport": (VerifyReport, dict(name="grid_unique", bound=3, passed=False, counterexample=(5, 1)),
                     "VerifyReport(name='grid_unique', bound=3, passed=False, counterexample=(5, 1))"),
}


@pytest.mark.parametrize("name", CASES)
def test_record_behaves_as_a_frozen_value(name):
    cls, kwargs, text = CASES[name]
    args = tuple(kwargs.values())
    record = cls(*args)
    assert repr(record) == text
    keyword = cls(**kwargs)
    assert keyword == record and record == keyword and not keyword != record
    assert record != text and (record == text) is False
    if cls is SyncAutomaton:  # its transitions are a read-only mapping, which has no hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(keyword) == hash(record)
    for field in (next(iter(kwargs)), "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text
    with pytest.raises(TypeError):
        cls(args[0])
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
