"""The traced benchmark run wraps functions by name; every name must still resolve."""

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
