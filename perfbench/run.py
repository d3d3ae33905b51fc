"""Layered benchmark for hilbertrep.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0

Workloads: lookup, render, verify, construct (see perfbench/README.md).
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` it holds the per-layer
metrics of a traced profile.  The line before it is a report with the
workload's own named timings (median, tail percentile, sample count), its
failed/attempted counts and the ``src/`` line count.  Temporary files go
to ``.perfbench_tmp/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

WORKLOADS = ("lookup", "render", "verify", "construct")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(values: dict, declared: list[dict], attempted: int, failed: int) -> str:
    """The final JSON line; ``values`` must name exactly the declared metrics."""
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def end_to_end(checkout, args) -> tuple[dict, dict, int, int]:
    from harness import Sampler, summary
    from workloads import measure_construct, measure_lookup, measure_render, measure_verify

    sampler = Sampler(checkout, args.seconds)
    measured = {
        "lookup": lambda: measure_lookup(args.seed, args.seconds, sampler.tick),
        "render": lambda: measure_render(checkout, args.seconds, sampler.tick),
        "verify": lambda: measure_verify(checkout, args.seed, args.seconds, sampler.tick),
        "construct": lambda: measure_construct(args.seconds, sampler.tick),
    }[args.workload]()
    sampler.finish()
    if not sampler.setup_s or not measured.op_s:
        raise RuntimeError("no set-up or workload operation completed")
    op_s, reference_s = statistics.median(measured.op_s), statistics.median(sampler.reference_s)
    values = {"setup_s": statistics.median(sampler.setup_s),
              "op_ref_ratio": op_s / reference_s,
              "peak_rss_mb": statistics.median(measured.rss_mb)}
    report = {"setup_s": summary(sampler.setup_s, "s"), "op_s": summary(measured.op_s, "s"),
              "reference_s": summary(sampler.reference_s, "s"), **measured.report,
              "attempted": {"setup": sampler.attempted, args.workload: measured.attempted},
              "failed": {"setup": sampler.failed, args.workload: measured.failed}}
    return (values, report, sampler.attempted + measured.attempted,
            sampler.failed + measured.failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so the finally blocks stop the running child and clean up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "hilbertrep" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a hilbertrep checkout (src/hilbertrep and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))
    from harness import Checkout

    scratch = root / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        checkout = Checkout(root, scratch)
        if args.trace:
            from tracing import traced_profile
            values, attempted, failed, report = traced_profile(
                checkout, args.workload, args.seed, args.seconds)
            values["src.lines"] = checkout.src_lines()
            declared = spec["per_layer"]
        else:
            values, report, attempted, failed = end_to_end(checkout, args)
            declared = spec["end_to_end"]
        print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                          "src_lines": checkout.src_lines(), "report": report}))
        print(result_line(values, declared, attempted, failed))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            scratch.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
