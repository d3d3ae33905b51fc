"""The traced benchmark run wraps functions by name; every name must still resolve and be called."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    try:
        for path, attr, *_ in tracing.SPANS + tracing.COUNTS:
            assert callable(getattr(tracing._owner(path), attr, None)), (path, attr)
    finally:
        for name in ("tracing", "harness", "workloads"):
            sys.modules.pop(name, None)


def test_verify_runs_the_suites_through_the_installed_shims(monkeypatch, capsys):
    """The command line finds the shims the traced run installs in ``hilbertrep.cli``."""
    from hilbertrep import cli

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    try:
        with tracing.Tracer().installed() as tracer:
            code = cli.main(["verify", "--gen-bound", "2", "--digit-bound", "2", "--cross-bound", "2"])
        assert code == 0
        spanned = {name for name, *_ in tracer.spans}
        assert set(tracing.SUITES) <= spanned
    finally:
        for name in ("tracing", "harness", "workloads"):
            sys.modules.pop(name, None)
