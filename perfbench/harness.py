"""Measurement helpers shared by the workloads.

Statistics (median, tail percentile, least-squares digit fit), child
processes timed with their peak RSS from ``os.wait4``, the fresh-interpreter
set-up time, the reference work that operation times are divided by, and
the ``src/`` line count.  Everything runs from the root of
a checkout and writes only inside it.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SETUP_RUNS = 9
REFERENCE_LOOPS = 40_000
REFERENCE_INTERVAL = 0.1
SETUP_CODE = (
    "import hilbertrep as h\n"
    "h.hilbert_dfao(); h.hilbert_linrep(); h.hilbert_step_rep(); h.hilbert_sync()\n"
    "print(h.__file__)\n"
)


def tail(values) -> tuple[float, float] | None:
    """(p, value) for the highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if count * (1 - p / 100) >= 10:
            return p, ordered[max(0, math.ceil(count * p / 100) - 1)]
    return None


def summary(values, unit: str) -> dict:
    """Median, tail percentile and sample count of one timing, for the report line."""
    found = tail(values)
    return {
        "median": statistics.median(values) if values else None,
        "unit": unit,
        "n": len(values),
        "tail": None if found is None else {"p": found[0], "value": found[1]},
    }


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def digit_fit(samples: dict[int, list[float]]) -> tuple[float, float]:
    """Least-squares line through the per-digit-count medians.

    Returns (slope per digit, residual), the residual being the root mean
    square distance from the line as a share of the mean median.  A cost
    linear in the digit count gives a residual near zero.  Fewer than two
    digit counts give (0.0, 0.0).
    """
    points = [(d, statistics.median(ts)) for d, ts in sorted(samples.items()) if ts]
    if len(points) < 2:
        return 0.0, 0.0
    xs = [d for d, _ in points]
    ys = [t for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    rms = math.sqrt(statistics.fmean((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys)))
    return slope, rms / my if my else 0.0


@dataclass
class ChildRun:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str


class Checkout:
    """The checkout the benchmark runs in: its ``src/`` tree and a scratch directory."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.src = root / "src"
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def run(self, argv: list[str]) -> ChildRun:
        """Run ``python3 argv`` to completion; wall time, exit code and peak RSS of the child."""
        out_path = self.scratch / "child.out"
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.DEVNULL)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return ChildRun(proc.returncode, wall, usage.ru_maxrss / 1024,
                        out_path.read_text(encoding="ascii", errors="replace"))

    def cli(self, *args: str) -> ChildRun:
        """The ``hilbertrep`` command line as a child process."""
        return self.run(["-m", "hilbertrep.cli", *args])

    def setup_once(self) -> tuple[bool, float]:
        """One fresh-interpreter import-and-build: (imported from this checkout and exited 0, seconds)."""
        run = self.run(["-c", SETUP_CODE])
        expected = str(self.src / "hilbertrep" / "__init__.py")
        return run.code == 0 and run.stdout.strip() == expected, run.wall_s

    def src_lines(self) -> int:
        return sum(len(path.read_bytes().splitlines()) for path in self.src.rglob("*.py"))


def reference_work() -> int:
    """A fixed piece of interpreter-bound work (20-45 ms on a 2-vCPU VM), independent of hilbertrep.

    Bigint arithmetic, tuple keys and dict updates, like the lookups; its
    duration tracks how fast the machine runs Python at that moment.
    """
    table: dict[tuple[int, int], int] = {}
    acc, mask = 1, (1 << 256) - 1
    for i in range(REFERENCE_LOOPS):
        acc = (acc * 3 + i) & mask
        key = (i & 63, acc & 7)
        table[key] = table.get(key, 0) + 1
    return len(table)


class Sampler:
    """Set-up and reference-work samples spread over the whole run.

    The machine's speed drifts over seconds to minutes, so both are sampled
    between workload operations (``tick``) rather than once: a set-up run
    every ``seconds / SETUP_RUNS`` and a reference-work run every
    REFERENCE_INTERVAL seconds.  ``finish`` tops the counts up.  One
    unmeasured set-up run first fills the bytecode cache.
    """

    def __init__(self, checkout: Checkout, seconds: float):
        self.checkout = checkout
        self.setup_interval = seconds / SETUP_RUNS
        self.setup_s: list[float] = []
        self.reference_s: list[float] = []
        self.attempted = self.failed = 0
        self._setup(record=False)
        self.setup_due = self.reference_due = time.perf_counter()

    def _setup(self, record: bool = True) -> None:
        ok, seconds = self.checkout.setup_once()
        self.attempted += 1
        self.failed += not ok
        if ok and record:
            self.setup_s.append(seconds)

    def _reference(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.reference_s.append(time.perf_counter() - start)

    def tick(self) -> None:
        if time.perf_counter() >= self.setup_due:
            self._setup()
            self.setup_due = time.perf_counter() + self.setup_interval
        while time.perf_counter() >= self.reference_due:
            self._reference()
            self.reference_due += REFERENCE_INTERVAL

    def finish(self) -> None:
        while len(self.setup_s) < SETUP_RUNS and self.attempted <= 2 * SETUP_RUNS:
            self._setup()
        while len(self.reference_s) < SETUP_RUNS:
            self._reference()
