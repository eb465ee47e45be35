"""Tests for the repro-dynprof command line."""

import io

import pytest

from repro.dynprof.cli import main


def test_cli_scripted_session(tmp_path, capsys):
    script = tmp_path / "session.dp"
    script.write_text("insert-file @targets\nstart\nquit\n")
    out = tmp_path / "out.txt"
    timefile = tmp_path / "timings.txt"
    rc = main([str(script), str(out), str(timefile), "sweep3d",
               "--cpus", "2", "--scale", "0.05"])
    assert rc == 0
    body = out.read_text()
    assert "installed" in body
    assert "time to create and instrument" in body
    timings = timefile.read_text()
    assert "instrument" in timings and "bootstrap" in timings


def test_cli_stdout_mode(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("start\nquit\n"))
    rc = main(["-", "-", "-", "umt98", "--cpus", "2", "--scale", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "application started" in out
    assert "# dynprof internal timings" in out


def test_cli_rejects_unknown_target(tmp_path):
    script = tmp_path / "s.dp"
    script.write_text("start\nquit\n")
    with pytest.raises(SystemExit):
        main([str(script), "-", "-", "linpack"])


def test_cli_ia32_machine(tmp_path):
    script = tmp_path / "s.dp"
    script.write_text("insert sweep\nstart\nquit\n")
    out = tmp_path / "o.txt"
    rc = main([str(script), str(out), "-", "sweep3d",
               "--cpus", "2", "--scale", "0.05", "--machine", "ia32-linux"])
    assert rc == 0
    assert "application main computation" in out.read_text()


BAD_SCALES = ["0", "-1", "nan", "inf"]


def _no_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a simulation started despite a bad scale")

    monkeypatch.setattr("repro.dynprof.cli.Environment", refuse)


@pytest.mark.parametrize("scale", BAD_SCALES)
def test_cli_bad_scale_is_a_usage_error(tmp_path, capsys, monkeypatch, scale):
    script = tmp_path / "s.dp"
    script.write_text("start\nquit\n")
    _no_simulation(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([str(script), "-", "-", "smg98", "--cpus", "2",
              f"--scale={scale}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument --scale: must be a finite number > 0, got {scale!r}"
            in captured.err)


@pytest.mark.parametrize("scale", BAD_SCALES)
def test_cli_bad_input_deck_scale_is_a_usage_error(tmp_path, capsys,
                                                   monkeypatch, scale):
    script = tmp_path / "s.dp"
    script.write_text("start\nquit\n")
    deck = tmp_path / "smg98.in"
    deck.write_text(f"scale = {scale}\n")
    _no_simulation(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([str(script), "-", "-", "smg98", "--cpus", "2",
              "--input", str(deck)])
    assert exc.value.code == 2
    assert f"argument --input: {deck}:" in capsys.readouterr().err


def test_cli_missing_script_is_one_error_line(tmp_path, capsys, monkeypatch):
    _no_simulation(monkeypatch)
    missing = tmp_path / "nonexistent.dp"
    assert main([str(missing), "-", "-", "smg98"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"repro-dynprof: {missing}: No such file or directory"]


def test_cli_missing_input_deck_is_one_error_line(tmp_path, capsys,
                                                  monkeypatch):
    script = tmp_path / "s.dp"
    script.write_text("start\nquit\n")
    _no_simulation(monkeypatch)
    missing = tmp_path / "nonexistent.in"
    assert main([str(script), "-", "-", "smg98", "--input", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"repro-dynprof: {missing}: No such file or directory"]


@pytest.mark.parametrize("argv", [
    ["--machine", "foo"],
    ["--scale", "x"],
], ids=["unknown-machine", "non-numeric-scale"])
def test_cli_bad_option_value_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                               argv):
    script = tmp_path / "s.dp"
    script.write_text("start\nquit\n")
    _no_simulation(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([str(script), "-", "-", "smg98", "--cpus", "2", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[0]}: " in captured.err


@pytest.mark.parametrize("text", ["", "insert sweep\n", "quit\nstart\n"],
                         ids=["empty", "no-start", "start-after-quit"])
def test_cli_script_that_never_starts_is_one_error_line(tmp_path, capsys,
                                                        text):
    script = tmp_path / "s.dp"
    script.write_text(text)
    out = tmp_path / "out.txt"
    assert main([str(script), str(out), "-", "sweep3d", "--cpus", "2",
                 "--scale", "0.02"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "repro-dynprof: the command script never runs `start`, so sweep3d "
        "never ran"]
    assert not out.exists()


@pytest.mark.parametrize("text,error", [
    ("bogus\n", "line 1: unknown command 'bogus' (try 'help')"),
    ("start\nwait soon\n", "line 2: bad wait duration 'soon'"),
], ids=["unknown-command", "bad-argument"])
def test_cli_malformed_script_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                text, error):
    # Rejected before anything is simulated.
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    _no_simulation(monkeypatch)
    assert main(["-", "-", "-", "smg98"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"repro-dynprof: {error}"]
