"""The command line interface: outputs, files, exit codes."""

from hilbertrep.bitmap import parse_pbm
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
    image = parse_pbm((tmp_path / "g1.pbm").read_bytes())
    assert image.width == image.height == 3


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
