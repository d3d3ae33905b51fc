"""Command line interface.

Subcommands: dir (letter lookup), coords (index to coordinates by any
method), locate (coordinates to index), render (PBM image of a stage),
verify (the bounded check suites), export / import (text formats of the
machines), bench (query timing at large indices).

Exit codes, all decided in ``main``: 0 success, 1 a ``verify`` check failed,
2 a usage, parse, file or any other error, 3 a stage beyond the budget
(the HILBERT_BUDGET environment variable sets it).  An error after argument
parsing prints one ``error:`` line on stderr; no input gives a traceback.
Each subcommand imports the modules it runs when it runs, so a command
line process loads no more of the package than its command needs.
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib import import_module

from .oracle import Direction, GenerationBudgetError, hc_prefix

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# kind -> the package exports that give its built-in machine, loader and serializer
_MACHINES = {
    "dfao": ("hilbert_dfao", "dfao_from_text", "dfao_to_text"),
    "linrep": ("hilbert_linrep", "linrep_from_text", "linrep_to_text"),
    "steprep": ("hilbert_step_rep", "linrep_from_text", "linrep_to_text"),
    "sync": ("hilbert_sync", "sync_from_text", "sync_to_text"),
}

# The traced benchmark run (perfbench/tracing.py) installs timing shims under these
# names in this module; until one is installed, a name resolves to the package export.
_HOOKED = ("render_generation", "write_pbm", "verify_identities", "verify_sync_suite", "verify_cross")


def _exported(name: str):
    """The package's export ``name``; only its defining module is imported."""
    return getattr(import_module(__package__), name)


def __getattr__(name: str):
    if name not in _HOOKED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _exported(name)


def _hooked(name: str):
    """``name`` as bound where this code runs, so an installed shim is found, else its original.

    ``globals()`` is that namespace also under ``runpy``, where ``sys.modules[__name__]`` may not be.
    """
    return globals().get(name) or _exported(name)


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
    from .dfao import eval_dfao, hilbert_dfao
    n = _parse_index(args)
    letter = eval_dfao(hilbert_dfao(), n)
    print(f"{letter.name} {int(letter)}")
    return EXIT_OK


def _cmd_coords(args) -> int:
    n = _parse_index(args)
    if args.method == "oracle":
        word = hc_prefix(n)  # the sum of its moves: no walk is built
        x = word.count(Direction.R) - word.count(Direction.L)
        y = word.count(Direction.U) - word.count(Direction.D)
    elif args.method == "dfao":
        from .dfao import coords_by_letters, hilbert_dfao
        x, y = coords_by_letters(hilbert_dfao(), n)
    elif args.method == "linrep":
        from .linrep import eval_linrep, hilbert_linrep
        x, y = eval_linrep(hilbert_linrep(), n)
    else:
        from .sync import hilbert_sync, sync_coords
        x, y = sync_coords(hilbert_sync(), n)
    print(f"{x} {y}")
    return EXIT_OK


def _cmd_locate(args) -> int:
    from .sync import hilbert_sync, sync_locate
    print(sync_locate(hilbert_sync(), args.x, args.y))
    return EXIT_OK


def _cmd_render(args) -> int:
    from .bitmap import render_pbm
    chunks = render_pbm(args.g)  # a refused stage raises here, before the file is opened
    with open(args.output, "wb") as handle:
        handle.writelines(chunks)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .sync import sync_from_text
    from .verify import format_report
    machine = None
    if args.sync_file:
        with open(args.sync_file, encoding="ascii") as handle:
            machine = sync_from_text(handle.read())
    reports = []
    reports.extend(_hooked("verify_identities")(args.gen_bound))
    reports.extend(_hooked("verify_sync_suite")(args.digit_bound, machine=machine))
    reports.extend(_hooked("verify_cross")(args.cross_bound))
    for report in sorted(reports, key=lambda r: r.name):
        print(format_report(report))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def _cmd_export(args) -> int:
    built_in, _, store = map(_exported, _MACHINES[args.kind])
    _write_output(store(built_in()), args.output)
    return EXIT_OK


def _cmd_import(args) -> int:
    _, load, store = map(_exported, _MACHINES[args.kind])
    with open(args.path, encoding="ascii") as handle:
        machine = load(handle.read())
    _write_output(store(machine), args.output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .linrep import eval_linrep, hilbert_linrep
    from .sync import hilbert_sync, lookup_paths, sync_coords
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
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # one line, never a traceback
        return EXIT_BUDGET if isinstance(exc, GenerationBudgetError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
