"""Traced run: spans and counts around each layer's public functions.

Shims replace the public functions at the names the calling modules import
them under (``hilbertrep.bitmap.sync_locate``, ``hilbertrep.verify.walk``,
``hilbertrep.linrep.mat_vec`` and so on) while a traced operation runs.
Each shim records a span (name, start, end, parent span, tag) or bumps a
count, all in memory.  A span's self time is its duration minus the
durations of its child spans.

The traced run profiles every part (lookup, render, verify, construct)
at a minimum size, so every per-layer metric is measured whatever the
workload, and then repeats the part of the workload asked for until
``seconds`` have passed.  Each part alternates traced and untraced operations of the
same kind; their ratio minus one is reported as the tracing overhead.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import hilbertrep.cli

from harness import Checkout, digit_fit, percentile
from workloads import (
    DIGIT_COUNTS,
    RENDER_STAGE,
    Measured,
    clean_verify_ok,
    construct_inputs,
    construct_ok,
    construct_round,
    fault_verify_ok,
    lookup_failures,
    lookup_machines,
    lookup_queries,
    lookup_round,
    render_expected,
    write_fault_files,
)

CLI_CHILD = Path(__file__).with_name("cli_child.py")


def _index_digits(args, result) -> int:
    return max(1, (args[1].bit_length() + 1) // 2)


def _point_bits(args, result) -> int:
    return max(1, args[1].bit_length(), args[2].bit_length())


def _result_length(args, result) -> int:
    return len(result)


# (module, attribute, metric prefix, tag) for spans; tag=None records no tag
SPANS = (
    ("hilbertrep.dfao", "to_base", "dfao.to_base", _result_length),
    ("hilbertrep.dfao", "eval_dfao", "dfao.eval_dfao", _index_digits),
    ("hilbertrep.verify", "eval_dfao", "dfao.eval_dfao", _index_digits),
    ("hilbertrep.linrep", "eval_linrep", "linrep.eval_linrep", _index_digits),
    ("hilbertrep.verify", "eval_linrep", "linrep.eval_linrep", _index_digits),
    ("hilbertrep.sync", "sync_coords", "sync.sync_coords", _index_digits),
    ("hilbertrep.verify", "sync_coords", "sync.sync_coords", _index_digits),
    ("hilbertrep.sync", "sync_locate", "sync.sync_locate", _point_bits),
    ("hilbertrep.verify", "sync_locate", "sync.sync_locate", _point_bits),
    ("hilbertrep.bitmap", "sync_locate", "sync.sync_locate", _point_bits),
    ("hilbertrep.verify", "accepts", "sync.accepts", None),
    ("hilbertrep.cli", "render_generation", "bitmap.render_generation", None),
    ("hilbertrep.cli", "write_pbm", "bitmap.write_pbm", None),
    ("hilbertrep.verify", "generate_generation", "oracle.generate_generation", None),
    ("hilbertrep.verify", "walk", "oracle.walk", None),
    ("hilbertrep.verify", "hc_prefix", "oracle.hc_prefix", None),
    ("hilbertrep.cli", "verify_identities", "verify.verify_identities", None),
    ("hilbertrep.cli", "verify_sync_suite", "verify.verify_sync_suite", None),
    ("hilbertrep.cli", "verify_cross", "verify.verify_cross", None),
    ("hilbertrep.linrep", "check_functional", "linrep.check_functional", None),
    ("hilbertrep.linrep", "transduce_rep", "linrep.transduce_rep", None),
    ("hilbertrep.verify", "transduce_rep", "linrep.transduce_rep", None),
    ("hilbertrep.linrep", "difference_rep", "linrep.difference_rep", None),
    ("hilbertrep.verify", "difference_rep", "linrep.difference_rep", None),
    ("hilbertrep.linrep", "minimize_rep", "linrep.minimize_rep", None),
    ("hilbertrep.verify", "minimize_rep", "linrep.minimize_rep", None),
    ("hilbertrep.linrep", "semigroup_trick", "linrep.semigroup_trick", None),
    ("hilbertrep.verify", "semigroup_trick", "linrep.semigroup_trick", None),
    ("hilbertrep.linrep", "guess_linrep", "linrep.guess_linrep", None),
)
# (module or class, attribute, count name): calls are counted, not spanned
COUNTS = (
    ("hilbertrep.linrep", "mat_vec", "ratmat.mat_vec"),
    ("hilbertrep.ratmat:SpanBasis", "add_if_new", "ratmat.SpanBasis.add_if_new"),
)
LOOKUP_SPANS = ("dfao.eval_dfao", "linrep.eval_linrep", "sync.sync_coords", "sync.sync_locate")
SUITES = ("verify.verify_identities", "verify.verify_sync_suite", "verify.verify_cross")
CASE_SPANS = LOOKUP_SPANS + ("sync.accepts",)
CONSTRUCT_STAGES = ("check_functional", "transduce_rep", "difference_rep", "minimize_rep",
                    "semigroup_trick", "guess_linrep")


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Spans and counts recorded in memory by the shims while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, tag]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _span_shim(self, name, fn, tag):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def shim(*args, **kwargs):
            record = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_spans.pop()
            if tag is not None:
                record[4] = tag(args, result)
            return result
        return shim

    def _count_shim(self, name, fn):
        counts = self.counts

        def shim(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return shim

    @contextmanager
    def installed(self):
        """Record into a fresh trace while the shims replace the layer functions."""
        self.spans.clear()
        self.counts.clear()
        self._open.clear()
        saved = []
        try:
            for path, attr, name, tag in SPANS:
                owner = _owner(path)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._span_shim(name, saved[-1][2], tag))
            for path, attr, name in COUNTS:
                owner = _owner(path)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._count_shim(name, saved[-1][2]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """(inclusive seconds, self seconds, calls) per span name."""
        inclusive, self_s, calls = Counter(), Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            inclusive[name] += end - start
            self_s[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return inclusive, self_s, calls

    def samples(self, name: str) -> list[tuple[int, float]]:
        """(tag, seconds) of every span called ``name``."""
        return [(s[4], s[2] - s[1]) for s in self.spans if s[0] == name]

    def suite_cases(self) -> Counter:
        """Lookups made under each verify suite span."""
        suite_of: list[str | None] = []
        cases: Counter = Counter()
        for name, _, _, parent, _ in self.spans:
            suite = name if name in SUITES else (suite_of[parent] if parent >= 0 else None)
            suite_of.append(suite)
            if suite and name in CASE_SPANS:
                cases[suite] += 1
        return cases


def _in_process(*args: str) -> tuple[int, str, float]:
    """``hilbertrep.cli.main(args)`` in this process: exit code, stdout, seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = hilbertrep.cli.main(list(args))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


class Part:
    """One workload's traced profile; ``step`` adds traced and untraced operations.

    ``record`` keeps one per-operation value of a per-layer metric; the
    metric reported is the median of those values.
    """

    name = ""
    min_steps = 1

    def __init__(self, tracer: Tracer, checkout: Checkout, seed: int):
        self.tracer, self.checkout = tracer, checkout
        self.traced: list[float] = []
        self.untraced: list[float] = []
        self.layers: dict[str, list[float]] = {}
        self.process_overhead: list[float] = []
        self.attempted = self.failed = 0

    def tally(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        self.failed += 0 if ok else count

    def record(self, key: str, value: float) -> None:
        self.layers.setdefault(key, []).append(value)

    def metrics(self) -> dict:
        out = {key: statistics.median_low(values) for key, values in self.layers.items()}
        overhead = statistics.median(self.traced) / statistics.median(self.untraced) - 1
        out[f"trace.{self.name}.overhead"] = overhead
        return out

    def cli_child(self, *args: str) -> tuple[bool, float]:
        """Run the CLI in a child that times ``main`` itself; (exit 0, start-up and exit seconds)."""
        timing = self.checkout.scratch / "main_s.txt"
        timing.unlink(missing_ok=True)
        run = self.checkout.run([str(CLI_CHILD), str(timing), *args])
        main_s = float(timing.read_text()) if run.code == 0 else run.wall_s
        return run.code == 0, run.wall_s - main_s


class LookupPart(Part):
    name = "lookup"
    min_steps = 40

    def __init__(self, tracer, checkout, seed):
        super().__init__(tracer, checkout, seed)
        self.rng = random.Random(seed)
        self.machines = lookup_machines()
        self.durations: dict[str, dict[int, list[float]]] = {
            name: {} for name in LOOKUP_SPANS + ("dfao.to_base",)}
        self.mat_vec = self.linrep_calls = 0

    def step(self):
        for traced in (True, False):
            queries = lookup_queries(self.rng)
            with self.tracer.installed() if traced else contextlib.nullcontext():
                times, answers = lookup_round(self.machines, queries)
            (self.traced if traced else self.untraced).append(sum(times))
            self.attempted += 4 * len(queries)
            self.failed += lookup_failures(self.machines[2], queries, answers)
        for name, by_digits in self.durations.items():
            for digits, seconds in self.tracer.samples(name):
                by_digits.setdefault(digits, []).append(seconds * 1e6)
        self.mat_vec += self.tracer.counts["ratmat.mat_vec"]
        self.linrep_calls += len(self.tracer.samples("linrep.eval_linrep"))

    def metrics(self) -> dict:
        out = super().metrics()
        for name, by_digits in self.durations.items():
            if name != "dfao.to_base":
                flat = [us for values in by_digits.values() for us in values]
                out[f"{name}.p50_us"] = percentile(flat, 50)
                out[f"{name}.p99_us"] = percentile(flat, 99)
            slope, resid = digit_fit(by_digits)
            out[f"{name}.us_per_digit"] = slope
            out[f"{name}.fit_resid"] = resid
        out["ratmat.mat_vec.calls_per_lookup"] = self.mat_vec / self.linrep_calls
        return out

    def info(self) -> dict:
        return {name: {d: len(v) for d, v in sorted(by_digits.items()) if d in DIGIT_COUNTS}
                for name, by_digits in self.durations.items()}


class RenderPart(Part):
    name = "render"

    def __init__(self, tracer, checkout, seed):
        super().__init__(tracer, checkout, seed)
        self.expected = render_expected()
        self.out = checkout.scratch / "render.pbm"

    def render_ok(self, code: int) -> bool:
        ok = code == 0 and self.out.is_file() and self.out.read_bytes() == self.expected
        self.out.unlink(missing_ok=True)
        return ok

    def step(self):
        args = ("render", RENDER_STAGE, "-o", str(self.out))
        with self.tracer.installed():
            code, _, seconds = _in_process(*args)
        self.traced.append(seconds)
        self.tally(self.render_ok(code))
        inclusive, self_s, calls = self.tracer.totals()
        for key, value in (("sync.sync_locate.calls", calls["sync.sync_locate"]),
                           ("sync.sync_locate.total_s", inclusive["sync.sync_locate"]),
                           ("bitmap.render_generation.self_s", self_s["bitmap.render_generation"]),
                           ("bitmap.write_pbm.s", inclusive["bitmap.write_pbm"])):
            self.record(key, value)
        code, _, seconds = _in_process(*args)
        self.untraced.append(seconds)
        self.tally(self.render_ok(code))
        ok, overhead = self.cli_child(*args)
        self.tally(ok and self.render_ok(0))
        self.process_overhead.append(overhead)


class VerifyPart(Part):
    name = "verify"

    def __init__(self, tracer, checkout, seed):
        super().__init__(tracer, checkout, seed)
        gate = Measured()
        self.faults = write_fault_files(checkout, seed, gate)
        self.tally(gate.failed == 0, gate.attempted)

    def step(self):
        with self.tracer.installed():
            code, stdout, seconds = _in_process("verify")
        self.traced.append(seconds)
        self.tally(clean_verify_ok(code, stdout))
        inclusive, _, _ = self.tracer.totals()
        cases = self.tracer.suite_cases()
        layer_values = [(f"{name}.s", inclusive[name]) for name in
                        ("oracle.generate_generation", "oracle.walk", "oracle.hc_prefix") + SUITES]
        layer_values += [(f"{suite}.cases", cases[suite]) for suite in SUITES]
        for key, value in layer_values:
            self.record(key, value)

        fault = self.faults[len(self.traced) % len(self.faults)]
        with self.tracer.installed():
            code, stdout, _ = _in_process("verify", "--sync-file", fault)
        self.tally(fault_verify_ok(code, stdout))
        self.record("verify.verify_sync_suite.fault_s",
                    self.tracer.totals()[0]["verify.verify_sync_suite"])

        code, stdout, seconds = _in_process("verify")
        self.untraced.append(seconds)
        self.tally(clean_verify_ok(code, stdout))
        ok, overhead = self.cli_child("verify")
        self.tally(ok)
        self.process_overhead.append(overhead)


class ConstructPart(Part):
    name = "construct"
    min_steps = 5

    def __init__(self, tracer, checkout, seed):
        super().__init__(tracer, checkout, seed)
        self.xs, self.ys = construct_inputs()

    def step(self):
        for traced in (True, False):
            with self.tracer.installed() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                answers = construct_round(self.xs, self.ys)
                seconds = time.perf_counter() - start
            (self.traced if traced else self.untraced).append(seconds)
            self.tally(construct_ok(*answers))
        inclusive, _, _ = self.tracer.totals()
        for stage in CONSTRUCT_STAGES:
            self.record(f"linrep.{stage}.s", inclusive[f"linrep.{stage}"])
        self.record("ratmat.SpanBasis.add_if_new.calls",
                    self.tracer.counts["ratmat.SpanBasis.add_if_new"])


PARTS = {part.name: part for part in (LookupPart, RenderPart, VerifyPart, ConstructPart)}


def traced_profile(checkout: Checkout, workload: str, seed: int, seconds: float):
    """Profile every part at its minimum size, then ``workload``'s part until ``seconds`` have passed.

    Returns (per-layer metrics, attempted, failed, info for the report line).
    """
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    parts = {name: cls(tracer, checkout, seed) for name, cls in PARTS.items()}
    for part in parts.values():
        for _ in range(part.min_steps):
            part.step()
    selected = parts[workload]
    while time.perf_counter() < deadline:
        selected.step()

    metrics: dict = {}
    for part in parts.values():
        metrics.update(part.metrics())
    metrics["cli.process_overhead_s"] = statistics.median(
        [s for part in parts.values() for s in part.process_overhead])
    info = {name: {"traced_ops": len(part.traced), "attempted": part.attempted,
                   "failed": part.failed} for name, part in parts.items()}
    info["lookup"]["samples_per_digit_count"] = parts["lookup"].info()
    attempted = sum(part.attempted for part in parts.values())
    failed = sum(part.failed for part in parts.values())
    return metrics, attempted, failed, info
