"""The command line interface: outputs, files, exit codes."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from hilbertrep import cli
from hilbertrep.cli import main
from hilbertrep.sync import hilbert_sync, sync_to_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dir_outputs_letter_and_coding(capsys):
    assert run(capsys, "dir", "0") == (0, "U 0\n", "")
    assert run(capsys, "dir", "3") == (0, "R 1\n", "")
    assert run(capsys, "dir", "11") == (0, "L 3\n", "")
    assert run(capsys, "dir", "23", "--base4")[1] == "L 3\n"  # 23 base 4 is 11


def test_coords_methods_agree(capsys):
    for method in ("oracle", "dfao", "linrep", "sync"):
        code, out, _ = run(capsys, "coords", "9", "--method", method)
        assert code == 0
        assert out == "3 2\n"
    assert run(capsys, "coords", "0")[1] == "0 0\n"
    assert run(capsys, "coords", "12", "--method", "linrep")[1] == "1 3\n"


def test_coords_dfao_at_large_index(capsys):
    """The letter DFAO's step sums answer a 22-digit index at once, as sync does."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "coords", "9999999999999", "--method", "dfao")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, run(capsys, "coords", "9999999999999", "--method", "sync")[1])
    assert out == "3319232 2492863\n"


def test_locate(capsys):
    assert run(capsys, "locate", "3", "3")[1] == "10\n"
    assert run(capsys, "locate", "0", "0")[1] == "0\n"
    assert run(capsys, "locate", "0", "3")[1] == "15\n"


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "dir", "not-a-number")[0] == 2
    assert run(capsys, "coords", "12", "--method", "nope")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "dir", "12x", "--base4")[0] == 2
    assert run(capsys, "bench", "--queries", "0")[0] == 2
    assert run(capsys, "bench", "--queries", "-3")[0] == 2
    assert run(capsys, "verify", "--gen-bound", "-1")[0] == 2
    assert run(capsys, "verify", "--digit-bound", "-1")[0] == 2
    assert run(capsys, "verify", "--cross-bound", "-1")[0] == 2


def test_oracle_method_budget_exit_3(capsys, monkeypatch):
    code, _, err = run(capsys, "coords", str(4**13), "--method", "oracle")
    assert code == 3
    assert "budget" in err
    monkeypatch.setenv("HILBERT_BUDGET", "2")
    assert run(capsys, "coords", "100", "--method", "oracle")[0] == 3
    monkeypatch.setenv("HILBERT_BUDGET", "4")
    assert run(capsys, "coords", "100", "--method", "oracle") == (0, "14 4\n", "")


def test_render_writes_pbm(tmp_path, capsys):
    out = tmp_path / "g1.pbm"
    assert run(capsys, "render", "1", "-o", str(out))[0] == 0
    assert out.read_bytes() == b"P1\n3 3\n1 1 1\n1 0 1\n1 0 1\n"


def test_render_rejects_stage_zero(capsys, tmp_path):
    assert run(capsys, "render", "0", "-o", str(tmp_path / "x.pbm"))[0] == 2


def test_verify_passes_at_small_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--gen-bound", "3",
                       "--digit-bound", "3", "--cross-bound", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 21
    assert all("passed=true" in line for line in lines)
    assert lines == sorted(lines)


def test_verify_fails_on_corrupted_sync_file(capsys, tmp_path):
    machine = hilbert_sync()
    transitions = {k: v for k, v in machine.transitions.items() if k != (0, (1, 1, 0))}
    text = sync_to_text(
        type(machine)(bases=machine.bases, state_count=machine.state_count,
                      initial=machine.initial, accepting=machine.accepting,
                      transitions=transitions)
    )
    path = tmp_path / "broken.sync"
    path.write_text(text)
    code, out, _ = run(capsys, "verify", "--gen-bound", "2", "--digit-bound", "2",
                       "--cross-bound", "2", "--sync-file", str(path))
    assert code == 1
    failing = [line for line in out.splitlines() if "passed=false" in line]
    assert failing
    assert any("witness=(" in line for line in failing)


DATA = Path(__file__).parent / "data"
SMALL_BOUNDS = ("--gen-bound", "3", "--digit-bound", "3", "--cross-bound", "3")


def test_verify_output_matches_golden(capsys):
    """Byte-exact against output recorded from the per-index suites."""
    code, out, _ = run(capsys, "verify", *SMALL_BOUNDS)
    assert code == 0
    assert out == (DATA / "verify_3_3_3.out").read_text(encoding="ascii")


@pytest.mark.parametrize("name", ["fault_table", "fault_search"])
def test_verify_witnesses_match_golden(capsys, name):
    """Every witness on a corrupted machine that keeps both parity tables, and on one that loses them."""
    code, out, _ = run(capsys, "verify", "--gen-bound", "3", "--digit-bound", "4",
                       "--cross-bound", "3", "--sync-file", str(DATA / f"{name}.sync"))
    assert code == 1
    assert out == (DATA / f"{name}.out").read_text(encoding="ascii")


def test_verify_gen_bound_budget_exit_3(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "--gen-bound", "12")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    monkeypatch.setenv("HILBERT_BUDGET", "3")
    code, out, err = run(capsys, "verify", "--gen-bound", "3")
    assert (code, out) == (3, "")
    assert "budget of stage 3" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("render", "13", "-o", "unused.pbm"),
    ("coords", str(4**13), "--method", "oracle"),
    ("verify", "--gen-bound", "12"),
    ("verify", "--digit-bound", "13"),
    ("verify", "--cross-bound", "100000"),  # refused before 4**100000 is computed
])
def test_budget_errors_exit_3_with_one_line(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget of stage 12" in err
    assert not (tmp_path / "unused.pbm").exists()


def test_malformed_budget_fails_only_commands_that_build_a_stage(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HILBERT_BUDGET", "x")
    code, out, err = run(capsys, "render", "2", "-o", "out.pbm")
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    assert run(capsys, "dir", "5") == (0, "U 0\n", "")


@pytest.mark.parametrize("budget, stage, code", [("3", "4", 3), ("x", "2", 2)])
def test_refused_render_writes_no_file(capsys, monkeypatch, tmp_path, budget, stage, code):
    monkeypatch.setenv("HILBERT_BUDGET", budget)
    out = tmp_path / "refused.pbm"
    result, stdout, err = run(capsys, "render", stage, "-o", str(out))
    assert (result, stdout) == (code, "") and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# main() in a child of a launcher that imports nothing of the package: Linux
# carries the pre-exec high-water mark of a forked process into the child's
# ru_maxrss, so the test process must not be the one that spawns it
_CHILD_RSS = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "hilbertrep.cli", *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_render_ten_streams_in_little_memory(tmp_path):
    out = tmp_path / "g10.pbm"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", _CHILD_RSS, "render", "10", "-o", str(out)],
                            capture_output=True, text=True, env=env, timeout=60)
    code, maxrss_kb = map(int, result.stdout.split())
    assert code == 0
    assert maxrss_kb < 30 * 1024
    assert out.stat().st_size == len("P1\n2047 2047\n") + 2 * 2047 * 2047


def test_export_import_round_trip(capsys, tmp_path):
    for kind in ("dfao", "linrep", "steprep", "sync"):
        path = tmp_path / f"machine.{kind}"
        assert run(capsys, "export", kind, "-o", str(path))[0] == 0
        code, out, _ = run(capsys, "import", kind, str(path))
        assert code == 0
        assert out == path.read_text()


def test_import_reports_parse_error_with_line(capsys, tmp_path):
    path = tmp_path / "bad.dfao"
    assert run(capsys, "export", "dfao", "-o", str(path))[0] == 0
    path.write_text(path.read_text().replace("0 1 -> 1", "0 9 -> 1"))
    code, _, err = run(capsys, "import", "dfao", str(path))
    assert code == 2
    assert "line" in err
    path.write_text("linrep base=1 out=1 rank=1\nv\n1\ngamma 0\n1\nw\n1\n")
    assert run(capsys, "import", "linrep", str(path)) == (2, "", "error: base must be at least 2, got 1\n")


# files whose headers declare far more entries than any file could list
_HUGE_FILES = {
    "huge.dfao": f"dfao base=4 states={10**40} initial=0\n",
    "huge.linrep": f"linrep base={10**40} out=1 rank=1\n",
    "huge.sync": "sync bases=4,2,2 states=100000000 initial=0 accepting=0\n0 [0,0,0] -> 0\n",
    # one state reading every index digit, but bx * by = 1.6e9 coordinate digit pairs
    "bases.sync": "sync bases=4,40000,40000 states=1 initial=0 accepting=0\n"
                  + "".join(f"0 [{d},0,0] -> 0\n" for d in range(4)),
    # a rank-0 v section has no lines, so only the header gives its row count
    "rank0.linrep": "linrep base=4 out=1000000000 rank=0\nv\ngamma 0\ngamma 1\ngamma 2\ngamma 3\nw\n",
}

# main() in a child capped at 1 GiB of address space: a parser that allocates by
# the header fails there, not in the test process
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from hilbertrep.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _import_capped(tmp_path, name):
    """(exit code, stdout, stderr) of ``import`` of one of _HUGE_FILES in the capped child."""
    path = tmp_path / name
    path.write_text(_HUGE_FILES[name])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, "import", path.suffix[1:], str(path)],
                            capture_output=True, text=True, env=env, timeout=60)
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize("name, missing", [
    ("huge.dfao", "output for states [0, 1, 2, 3]"),
    ("huge.linrep", "sections ['v', 'gamma 0', 'gamma 1', 'gamma 2']"),
    ("huge.sync", "states [1, 2, 3, 4]"),
    ("bases.sync", "coordinate digit pairs [(0, 1), (0, 2), (0, 3), (0, 4)]"),
])
def test_import_of_a_header_only_file_names_the_first_four_missing(tmp_path, name, missing):
    assert _import_capped(tmp_path, name) == (2, "", f"error: line 1: missing {missing}\n")


def test_import_of_a_rank_zero_linrep_restores_no_more_rows_than_the_file_has_lines(tmp_path):
    message = "error: line 1: rank-0 output dimension 1000000000 exceeds the file's 7 lines\n"
    assert _import_capped(tmp_path, "rank0.linrep") == (2, "", message)


def test_bench_reports_both_methods(capsys):
    code, out, _ = run(capsys, "bench", "--queries", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("method=linrep n=4**30 queries=10 per_query_us=")
    assert lines[1].startswith("method=sync n=4**30 queries=10 per_query_us=")
    assert lines[1].endswith(" path=table")


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_unexpected_exception_exits_2_with_one_line(capsys, monkeypatch):
    def broken(args):
        return 1 // 0

    monkeypatch.setitem(cli._COMMANDS, "dir", broken)
    assert run(capsys, "dir", "3") == (2, "", "error: integer division or modulo by zero\n")

    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "dir", out_of_memory)
    assert run(capsys, "dir", "3") == (2, "", "error: MemoryError\n")


_NUMBER = st.one_of(
    st.integers(-3, 70),
    st.integers(-10**40, 10**40),
    st.sampled_from(["", "x", "1.5", "0x10", "1e3", "\u0663", "--"]),
).map(str)
_BOUND = st.one_of(st.sampled_from("012"), _NUMBER)  # 0 ... 2 are within a budget of 3
_KIND = st.sampled_from(["dfao", "linrep", "steprep", "sync", "nope"])
# files in the working directory (see cli_files); outputs go only to the last two
_PATH = st.sampled_from(["good.sync", "broken.sync", *_HUGE_FILES, "missing.sync", "out.txt", "."])
_OUT = st.sampled_from(["out.txt", "."])


def _maybe(option: str, value=st.just(None)):
    return st.one_of(st.just([]), value.map(lambda v: [option, v]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS) + ["nonsense", "--help"]))
    parts = {
        "dir": [_NUMBER.map(lambda n: [n]), _maybe("--base4")],
        "coords": [_NUMBER.map(lambda n: [n]), _maybe("--base4"),
                   _maybe("--method", st.sampled_from(["oracle", "dfao", "linrep", "sync", "x"]))],
        "locate": [st.lists(_NUMBER, max_size=3)],
        "render": [_NUMBER.map(lambda g: [g]), _maybe("-o", _OUT)],
        "verify": [_BOUND.map(lambda b: ["--gen-bound", b]),
                   _BOUND.map(lambda b: ["--digit-bound", b]),
                   _BOUND.map(lambda b: ["--cross-bound", b]),
                   _maybe("--sync-file", _PATH)],
        "export": [_KIND.map(lambda k: [k]), _maybe("-o", _OUT)],
        "import": [_KIND.map(lambda k: [k]), _PATH.map(lambda p: [p]), _maybe("-o", _OUT)],
        "bench": [_maybe("--queries", st.integers(-2, 5).map(str))],  # more queries only take longer
    }.get(command, [])
    argv = [command]
    for part in parts:
        argv.extend(token for token in draw(part) if token is not None)
    if draw(st.integers(0, 3)) == 0:  # a stray token anywhere
        argv.insert(draw(st.integers(0, len(argv))), draw(st.one_of(_NUMBER, _KIND, _PATH)))
    return argv


@pytest.fixture
def cli_files(tmp_path, monkeypatch):
    """A working directory with the exported machine, a corrupted one and the files with
    huge headers, under a budget of 3."""
    (tmp_path / "good.sync").write_text(sync_to_text(hilbert_sync()))
    (tmp_path / "broken.sync").write_text((DATA / "fault_table.sync").read_text())
    for name, text in _HUGE_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HILBERT_BUDGET", "3")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
@example(argv=["verify", "--gen-bound", "2", "--digit-bound", "2", "--cross-bound", "2",
               "--sync-file", "broken.sync"])
def test_cli_never_shows_a_traceback(capsys, cli_files, argv):
    """Any argv ends in a documented exit code; errors print lines, never a traceback."""
    code = main(argv)
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert argv[0] == "verify"
    if code == 3:
        assert "budget of stage 3" in err and err.count("\n") == 1
