"""The four workloads: seeded inputs, the timed operation and its correctness gate.

Each ``measure_*`` function runs one workload as a closed loop with a
single caller until ``seconds`` have passed, calling ``between()`` after
each operation (the set-up and reference sampler), checks every answer outside the
timed region and returns a ``Measured``.  The operation functions read
the layer functions from their modules at call time, so the tracing shims
in ``tracing.py`` apply to them as well.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field

from hilbertrep import dfao, linrep, sync
from hilbertrep.bitmap import render_from_walk, write_pbm
from hilbertrep.dfao import dfao_equal, hilbert_dfao
from hilbertrep.linrep import hilbert_linrep
from hilbertrep.oracle import STEP, generate_generation, walk
from hilbertrep.sync import hilbert_sync, sync_coords, sync_from_text

from harness import Checkout, summary

DIGIT_COUNTS = (10, 20, 50, 100, 200)
LOOKUP_KINDS = ("dfao_letters_per_s", "linrep_coords_per_s", "sync_coords_per_s", "sync_locate_per_s")
RENDER_STAGE = "7"
FAULT_FILES = 4
EXPECTED_SPANNING = ((0, 0), (1, 0), (1, 1), (1, 2), (2, 0))


@dataclass
class Measured:
    """One untraced run: per-operation wall times, peak RSS and the gate's tally."""

    op_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    report: dict = field(default_factory=dict)

    def tally(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        self.failed += 0 if ok else count


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- lookup -----------------------------------------------------------------

def lookup_queries(rng: random.Random) -> list[tuple[int, tuple[int, int]]]:
    """Per digit count d: an index with d base-4 digits and a point whose larger coordinate has d bits."""
    queries = []
    for d in DIGIT_COUNTS:
        n = rng.randrange(4 ** (d - 1), 4 ** d)
        wide, other = rng.randrange(2 ** (d - 1), 2 ** d), rng.randrange(2 ** d)
        queries.append((n, (wide, other) if rng.random() < 0.5 else (other, wide)))
    return queries


def lookup_machines():
    return hilbert_dfao(), hilbert_linrep(), hilbert_sync()


def lookup_round(machines, queries):
    """Run every query through each of the four lookups; per-kind seconds and the answers."""
    dm, rep, sm = machines
    eval_dfao, eval_linrep = dfao.eval_dfao, linrep.eval_linrep
    coords, locate = sync.sync_coords, sync.sync_locate
    clock = time.perf_counter
    t0 = clock()
    letters = [eval_dfao(dm, n) for n, _ in queries]
    t1 = clock()
    values = [eval_linrep(rep, n) for n, _ in queries]
    t2 = clock()
    pairs = [coords(sm, n) for n, _ in queries]
    t3 = clock()
    indices = [locate(sm, x, y) for _, (x, y) in queries]
    t4 = clock()
    return (t1 - t0, t2 - t1, t3 - t2, t4 - t3), (letters, values, pairs, indices)


def lookup_failures(machine, queries, answers) -> int:
    """Wrong answers among the round's 4 * len(queries) lookups.

    linrep and sync coordinates must agree (a disagreement fails both),
    locate must invert the coordinate lookup, and the letter at n must
    name the step from the point at n to the point at n + 1.
    """
    failed = 0
    for (n, point), letter, value, pair, index in zip(queries, *answers):
        try:
            after = sync_coords(machine, n + 1)
            failed += STEP.get(letter) != (after[0] - pair[0], after[1] - pair[1])
            failed += 2 * (tuple(value) != tuple(pair))
            failed += tuple(sync_coords(machine, index)) != point
        except (ValueError, TypeError, IndexError):
            failed += 4
    return failed


def rate_summary(times: list[float], per_op: int) -> dict:
    """Queries per second from per-round seconds; the tail is the rate of the slow tail rounds."""
    timing = summary(times, "s")
    tail = timing["tail"]
    return {"median": per_op / timing["median"], "unit": "1/s", "n": timing["n"],
            "tail": None if tail is None else {"p": tail["p"], "value": per_op / tail["value"]}}


def measure_lookup(seed: int, seconds: float, between) -> Measured:
    rng = random.Random(seed)
    machines = lookup_machines()
    result = Measured()
    per_kind: list[list[float]] = [[] for _ in LOOKUP_KINDS]
    per_round = 4 * len(DIGIT_COUNTS)
    deadline = time.perf_counter() + seconds
    while not result.attempted or time.perf_counter() < deadline:
        between()
        queries = lookup_queries(rng)
        try:
            times, answers = lookup_round(machines, queries)
        except Exception:  # a crashing lookup is a failed operation, not a crashed benchmark
            result.tally(False, per_round)
            continue
        result.op_s.append(sum(times))
        for samples, t in zip(per_kind, times):
            samples.append(t)
        result.attempted += per_round
        result.failed += lookup_failures(machines[2], queries, answers)
    result.rss_mb.append(self_rss_mb())
    result.report = {name: rate_summary(times, len(DIGIT_COUNTS))
                     for name, times in zip(LOOKUP_KINDS, per_kind) if times}
    result.report["digit_counts"] = DIGIT_COUNTS
    return result


# --- render -----------------------------------------------------------------

def render_expected() -> bytes:
    return write_pbm(render_from_walk(int(RENDER_STAGE)))


def measure_render(checkout: Checkout, seconds: float, between) -> Measured:
    expected = render_expected()
    out = checkout.scratch / "render.pbm"
    result = Measured()
    deadline = time.perf_counter() + seconds
    while not result.attempted or time.perf_counter() < deadline:
        between()
        out.unlink(missing_ok=True)
        run = checkout.cli("render", RENDER_STAGE, "-o", str(out))
        result.op_s.append(run.wall_s)
        result.rss_mb.append(run.maxrss_mb)
        result.tally(run.code == 0 and out.is_file() and out.read_bytes() == expected)
    result.report = {"render_s": summary(result.op_s, "s"),
                     "render_rss_mb": summary(result.rss_mb, "MB")}
    return result


# --- verify -----------------------------------------------------------------

def fault_texts(exported: str, seed: int) -> list[str]:
    """FAULT_FILES copies of the exported machine, each with one transition target changed.

    The (transition, new target) pairs are drawn from ``seed``; each copy
    must parse to a machine differing from the original in that one entry.
    """
    original = sync_from_text(exported)
    lines = exported.splitlines(keepends=True)
    choices = [(i, target) for i, line in enumerate(lines) if "->" in line
               for target in range(original.state_count) if target != int(line.split()[-1])]
    texts = []
    for i, target in random.Random(seed).sample(choices, FAULT_FILES):
        head = lines[i].rsplit("->", 1)[0]
        text = "".join(lines[:i] + [f"{head}-> {target}\n"] + lines[i + 1:])
        diff = set(sync_from_text(text).transitions.items()) ^ set(original.transitions.items())
        if len({key for key, _ in diff}) != 1:
            raise ValueError(f"corruption of line {i + 1} did not change exactly one transition")
        texts.append(text)
    return texts


def clean_verify_ok(code: int, stdout: str) -> bool:
    lines = stdout.splitlines()
    return code == 0 and bool(lines) and all("passed=true" in line for line in lines)


def fault_verify_ok(code: int, stdout: str) -> bool:
    return code == 1 and any("passed=false" in line for line in stdout.splitlines())


def write_fault_files(checkout: Checkout, seed: int, result: Measured) -> list[str]:
    """Export the built-in machine through the CLI and write the seeded corruptions."""
    export = checkout.cli("export", "sync")
    result.tally(export.code == 0)
    paths = []
    for i, text in enumerate(fault_texts(export.stdout, seed)):
        path = checkout.scratch / f"fault{i}.sync"
        path.write_text(text, encoding="ascii")
        paths.append(str(path))
    return paths


def measure_verify(checkout: Checkout, seed: int, seconds: float, between) -> Measured:
    result = Measured()
    faults = write_fault_files(checkout, seed, result)
    fault_s: list[float] = []
    deadline = time.perf_counter() + seconds
    while not result.attempted or time.perf_counter() < deadline:
        between()
        clean = checkout.cli("verify")
        result.op_s.append(clean.wall_s)
        result.rss_mb.append(clean.maxrss_mb)
        result.tally(clean_verify_ok(clean.code, clean.stdout))
        fault = checkout.cli("verify", "--sync-file", faults[len(fault_s) % len(faults)])
        fault_s.append(fault.wall_s)
        result.tally(fault_verify_ok(fault.code, fault.stdout))
    result.report = {"verify_s": summary(result.op_s, "s"),
                     "verify_fault_s": summary(fault_s, "s"),
                     "verify_rss_mb": summary(result.rss_mb, "MB")}
    return result


# --- construct --------------------------------------------------------------

def construct_inputs() -> tuple[list[int], list[int]]:
    """x and y prefixes of length 4**6, from the oracle walk."""
    points = walk(generate_generation(6))
    return [p.x for p in points], [p.y for p in points]


def construct_round(xs, ys):
    """Shift, difference, minimize and close the reference representation; guess from prefixes."""
    rep = hilbert_linrep()
    shifted = linrep.transduce_rep(rep, linrep.increment_transducer(4))
    minimized = linrep.minimize_rep(linrep.difference_rep(shifted, rep))
    recovered = linrep.semigroup_trick(minimized)
    guesses = (linrep.guess_linrep(xs, 4, 2), linrep.guess_linrep(ys, 4, 2))
    return minimized, recovered, guesses


def construct_ok(minimized, recovered, guesses) -> bool:
    return (minimized.rank == 3 and dfao_equal(recovered, hilbert_dfao())[0]
            and all(g.spanning == EXPECTED_SPANNING for g in guesses))


def measure_construct(seconds: float, between) -> Measured:
    xs, ys = construct_inputs()
    result = Measured()
    deadline = time.perf_counter() + seconds
    while not result.attempted or time.perf_counter() < deadline:
        between()
        start = time.perf_counter()
        try:
            answers = construct_round(xs, ys)
        except Exception:  # a crashing round is a failed operation, not a crashed benchmark
            result.tally(False)
            continue
        result.op_s.append(time.perf_counter() - start)
        result.tally(construct_ok(*answers))
    result.rss_mb.append(self_rss_mb())
    result.report = {"construct_s": summary(result.op_s, "s")}
    return result
