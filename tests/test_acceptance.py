"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every check is exact; each also carries the time budget it must finish
within.  One PASS/FAIL line per criterion is printed (visible with
``pytest -s``).
"""

import time
from contextlib import contextmanager
from pathlib import Path

from hilbertrep.bitmap import render_from_walk, render_generation, write_pbm
from hilbertrep.dfao import coords_by_letters, dfao_equal, eval_dfao, hilbert_dfao
from hilbertrep.linrep import (
    difference_rep,
    eval_linrep,
    hilbert_linrep,
    hilbert_step_rep,
    increment_transducer,
    minimize_rep,
    semigroup_trick,
    transduce_rep,
)
from hilbertrep.oracle import Direction, generate_generation, hc_prefix, walk, word_to_str
from hilbertrep.ratmat import mat_mul
from hilbertrep.sync import hilbert_sync, sync_coords, sync_locate
from hilbertrep.verify import verify_identities, verify_sync_suite

TABLE_X = [0, 0, 1, 1, 2, 3, 3, 2, 2, 3, 3, 2, 1, 1, 0, 0]
TABLE_Y = [0, 1, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 3, 2, 2, 3]

STAGE_1 = "URD"
STAGE_2 = "URDRRULURULLDLU"
STAGE_3 = (
    "URDRRULURULLDLUURULUURDRURDDLDRRRULUURDRURDDLDRDDLULLDRDLDRRURD"
)

GOLDEN_PBM = Path(__file__).parent / "data" / "gen1.pbm"


@contextmanager
def criterion(name: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > seconds:
        print(f"FAIL {name} (time {elapsed:.2f}s > {seconds}s)")
        raise AssertionError(f"{name}: {elapsed:.2f}s exceeds the {seconds}s budget")
    print(f"PASS {name} ({elapsed:.2f}s <= {seconds}s)")


def test_table_reproduction_by_all_four_methods():
    with criterion("table-reproduction", 1.0):
        points = walk(hc_prefix(15))
        rep = hilbert_linrep()
        letters = hilbert_dfao()
        machine = hilbert_sync()
        for n in range(16):
            expected = (TABLE_X[n], TABLE_Y[n])
            assert tuple(points[n]) == expected
            assert coords_by_letters(letters, n) == expected
            assert tuple(eval_linrep(rep, n)) == expected
            assert tuple(sync_coords(machine, n)) == expected


def test_generation_strings():
    with criterion("generation-strings", 5.0):
        assert word_to_str(generate_generation(1)) == STAGE_1
        assert word_to_str(generate_generation(2)) == STAGE_2
        assert word_to_str(generate_generation(3)) == STAGE_3
        for n in range(9):
            assert len(generate_generation(n)) == 4**n - 1


def test_dfao_equivalence_with_oracle():
    with criterion("dfao-oracle-agreement", 5.0):
        machine = hilbert_dfao()
        word = hc_prefix(4**7)
        for n, code in enumerate(word):
            assert eval_dfao(machine, n) == Direction(code)


def test_linear_representation_agreement():
    with criterion("linear-representation", 10.0):
        rep = hilbert_linrep()
        assert mat_mul(rep.v, rep.gamma[0]) == rep.v
        points = walk(generate_generation(6))
        for n in range(4**6):
            assert tuple(eval_linrep(rep, n)) == tuple(points[n])


def test_composition_difference_minimization_pipeline():
    with criterion("composition-pipeline", 30.0):
        rep = hilbert_linrep()
        shifted = transduce_rep(rep, increment_transducer(4))
        assert shifted.rank == 15
        diff = difference_rep(shifted, rep)
        assert diff.rank == 20
        minimized = minimize_rep(diff)
        assert minimized.rank == 3
        reference = hilbert_step_rep()
        for n in range(4**6):
            assert eval_linrep(minimized, n) == eval_linrep(reference, n)


def test_automaton_recovered_from_minimized_representation():
    with criterion("automaton-recovery", 5.0):
        rep = hilbert_linrep()
        diff = difference_rep(transduce_rep(rep, increment_transducer(4)), rep)
        machine = semigroup_trick(minimize_rep(diff))
        assert machine.state_count == 8
        same, mapping = dfao_equal(machine, hilbert_dfao())
        assert same and mapping is not None


def test_letter_identity_suite():
    with criterion("letter-identities", 30.0):
        reports = verify_identities(6)
        assert len(reports) == 6
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]


def test_synchronized_suite():
    with criterion("synchronized-suite", 60.0):
        reports = verify_sync_suite(6)
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]


def test_lookup_round_trip():
    with criterion("lookup-round-trip", 30.0):
        machine = hilbert_sync()
        for n in range(4**6):
            x, y = sync_coords(machine, n)
            assert sync_locate(machine, x, y) == n


def test_bitmap_rendering():
    with criterion("bitmap-rendering", 10.0):
        for g in range(1, 6):
            image = render_generation(g)
            assert sum(map(sum, image.bits)) == 2 * 4**g - 1
            assert image == render_from_walk(g)
        assert write_pbm(render_generation(1)) == GOLDEN_PBM.read_bytes()


def test_query_time_at_large_index():
    """Timing is informational; 100 ms per query is the hard ceiling."""
    with criterion("query-speed", 30.0):
        n0 = 4**30
        rep = hilbert_linrep()
        machine = hilbert_sync()
        for query in (lambda i: eval_linrep(rep, n0 + i),
                      lambda i: sync_coords(machine, n0 + i)):
            query(0)  # warm up
            best = min(
                _timed(query, i) for i in range(20)
            )
            assert best < 0.1, f"query took {best * 1e3:.2f} ms"


def _timed(query, i):
    start = time.perf_counter()
    query(i)
    return time.perf_counter() - start
