"""Command line interface.

Subcommands: dir (letter lookup), coords (index to coordinates by any
method), locate (coordinates to index), render (PBM image of a stage),
verify (the bounded check suites), export / import (text formats of the
machines), bench (query timing at large indices).

Exit codes, all decided in ``main``: 0 success, 1 a ``verify`` check failed,
2 a usage, parse, file or any other error, 3 a stage beyond the budget
(the HILBERT_BUDGET environment variable sets it).  An error after argument
parsing prints one ``error:`` line on stderr; no input gives a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .bitmap import render_generation, write_pbm
from .dfao import coords_by_letters, dfao_from_text, dfao_to_text, eval_dfao, hilbert_dfao
from .linrep import (
    eval_linrep,
    hilbert_linrep,
    hilbert_step_rep,
    linrep_from_text,
    linrep_to_text,
)
from .oracle import Direction, GenerationBudgetError, hc_prefix
from .sync import (
    hilbert_sync,
    lookup_paths,
    sync_coords,
    sync_from_text,
    sync_locate,
    sync_to_text,
)
from .verify import format_report, verify_cross, verify_identities, verify_sync_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_MACHINES = {
    "dfao": (hilbert_dfao, dfao_from_text, dfao_to_text),
    "linrep": (hilbert_linrep, linrep_from_text, linrep_to_text),
    "steprep": (hilbert_step_rep, linrep_from_text, linrep_to_text),
    "sync": (hilbert_sync, sync_from_text, sync_to_text),
}


def _budget() -> int | None:
    value = os.environ.get("HILBERT_BUDGET")
    return int(value) if value else None


def _parse_index(args: argparse.Namespace) -> int:
    if getattr(args, "base4", False):
        text = str(args.n)
        if not text or set(text) - set("0123"):
            raise ValueError(f"{text!r} is not a base-4 digit string")
        return int(text, 4)
    return int(args.n)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "integer"  # argparse names the type in its error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbertrep",
        description="Hilbert spacefilling curve lookups, rendering and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dir = sub.add_parser("dir", help="letter of the curve word at an index")
    p_dir.add_argument("n")
    p_dir.add_argument("--base4", action="store_true", help="read n as base-4 digits")

    p_coords = sub.add_parser("coords", help="coordinates of the n'th curve point")
    p_coords.add_argument("n")
    p_coords.add_argument("--base4", action="store_true", help="read n as base-4 digits")
    p_coords.add_argument("--method", choices=("oracle", "dfao", "linrep", "sync"),
                          default="sync")

    p_locate = sub.add_parser("locate", help="curve index visiting given coordinates")
    p_locate.add_argument("x", type=int)
    p_locate.add_argument("y", type=int)

    p_render = sub.add_parser("render", help="write a stage image as plain PBM")
    p_render.add_argument("g", type=_int_at_least(1), help="stage index, at least 1")
    p_render.add_argument("-o", "--output", required=True)

    p_verify = sub.add_parser("verify", help="run the bounded check suites")
    p_verify.add_argument("--gen-bound", type=_int_at_least(0), default=6)
    p_verify.add_argument("--digit-bound", type=_int_at_least(0), default=6)
    p_verify.add_argument("--cross-bound", type=_int_at_least(0), default=6)
    p_verify.add_argument("--sync-file", help="check this automaton file instead of the built-in")

    p_export = sub.add_parser("export", help="write a built-in machine in text form")
    p_export.add_argument("kind", choices=sorted(_MACHINES))
    p_export.add_argument("-o", "--output")

    p_import = sub.add_parser("import", help="load a machine file and print it canonically")
    p_import.add_argument("kind", choices=sorted(_MACHINES))
    p_import.add_argument("path")
    p_import.add_argument("-o", "--output")

    p_bench = sub.add_parser("bench", help="time coordinate queries at indices near 4**30")
    p_bench.add_argument("--queries", type=_int_at_least(1), default=200)
    return parser


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_dir(args) -> int:
    n = _parse_index(args)
    letter = eval_dfao(hilbert_dfao(), n)
    print(f"{letter.name} {int(letter)}")
    return EXIT_OK


def _cmd_coords(args) -> int:
    n = _parse_index(args)
    if args.method == "oracle":
        word = hc_prefix(n, max_generation=_budget())  # the sum of its moves: no walk is built
        x = word.count(Direction.R) - word.count(Direction.L)
        y = word.count(Direction.U) - word.count(Direction.D)
    elif args.method == "dfao":
        x, y = coords_by_letters(hilbert_dfao(), n)
    elif args.method == "linrep":
        x, y = eval_linrep(hilbert_linrep(), n)
    else:
        x, y = sync_coords(hilbert_sync(), n)
    print(f"{x} {y}")
    return EXIT_OK


def _cmd_locate(args) -> int:
    print(sync_locate(hilbert_sync(), args.x, args.y))
    return EXIT_OK


def _cmd_render(args) -> int:
    bitmap = render_generation(args.g, max_generation=_budget())
    with open(args.output, "wb") as handle:
        handle.write(write_pbm(bitmap))
    return EXIT_OK


def _cmd_verify(args) -> int:
    machine = None
    if args.sync_file:
        with open(args.sync_file, encoding="ascii") as handle:
            machine = sync_from_text(handle.read())
    budget = _budget()
    reports = []
    reports.extend(verify_identities(args.gen_bound, max_generation=budget))
    reports.extend(verify_sync_suite(args.digit_bound, machine=machine, max_generation=budget))
    reports.extend(verify_cross(args.cross_bound, max_generation=budget))
    for report in sorted(reports, key=lambda r: r.name):
        print(format_report(report))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def _cmd_export(args) -> int:
    built_in, _, store = _MACHINES[args.kind]
    _write_output(store(built_in()), args.output)
    return EXIT_OK


def _cmd_import(args) -> int:
    _, load, store = _MACHINES[args.kind]
    with open(args.path, encoding="ascii") as handle:
        machine = load(handle.read())
    _write_output(store(machine), args.output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    n0 = 4 ** 30
    rep = hilbert_linrep()
    machine = hilbert_sync()
    runs = {
        "linrep": lambda i: eval_linrep(rep, n0 + i),
        "sync": lambda i: sync_coords(machine, n0 + i),
    }
    suffix = {"sync": f" path={lookup_paths(machine)['coords']}"}
    for name, query in runs.items():
        query(0)  # warm up
        start = time.perf_counter()
        for i in range(args.queries):
            query(i)
        elapsed = time.perf_counter() - start
        per_query_us = elapsed / args.queries * 1e6
        print(f"method={name} n=4**30 queries={args.queries} "
              f"per_query_us={per_query_us:.1f}{suffix.get(name, '')}")
    return EXIT_OK


_COMMANDS = {
    "dir": _cmd_dir,
    "coords": _cmd_coords,
    "locate": _cmd_locate,
    "render": _cmd_render,
    "verify": _cmd_verify,
    "export": _cmd_export,
    "import": _cmd_import,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # budget, parse and file errors, and anything unforeseen
        print(f"error: {exc}", file=sys.stderr)  # one line, never a traceback
        return EXIT_BUDGET if isinstance(exc, GenerationBudgetError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
