"""A process or CPU count must be an integer >= 1.

Both command lines parse ``--cpus`` with one shared argparse type, so a
zero, negative or non-integer count is a usage error (exit 2) before
any point or simulation runs, not a traceback from inside the model.
"""

import pytest

import repro.dynprof.cli as dynprof_cli
import repro.experiments.cli as cli

BAD_COUNTS = ["0", "-1", "x", "2.5"]


def _refuse(*args, **kwargs):
    raise AssertionError("a point ran despite a bad --cpus")


@pytest.mark.parametrize("count", BAD_COUNTS)
@pytest.mark.parametrize("argv", [
    ["sweep", "--apps", "sweep3d", "--policies", "Full", "--no-cache",
     "--cpus"],
    ["trace", "--cpus"],
    ["chaos", "--cpus"],
], ids=["sweep", "trace", "chaos"])
def test_experiments_cli_cpus_is_a_usage_error(argv, count, capsys,
                                               monkeypatch):
    monkeypatch.setattr(cli, "SweepRunner", _refuse)
    monkeypatch.setattr("repro.runner.worker.execute_point", _refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument --cpus: must be an integer >= 1, got {count!r}"
            in captured.err)


def test_sweep_cpus_list_rejects_any_bad_entry(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SweepRunner", _refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--apps", "sweep3d", "--cpus", "1,0,4",
                  "--no-cache"])
    assert exc.value.code == 2
    assert "must be an integer >= 1, got '0'" in capsys.readouterr().err


@pytest.mark.parametrize("count", BAD_COUNTS)
def test_dynprof_cli_cpus_is_a_usage_error(tmp_path, count, capsys,
                                           monkeypatch):
    script = tmp_path / "s.dp"
    script.write_text("start\nquit\n")
    monkeypatch.setattr(dynprof_cli, "Environment", _refuse)
    with pytest.raises(SystemExit) as exc:
        dynprof_cli.main([str(script), "-", "-", "smg98", "--cpus", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument --cpus: must be an integer >= 1, got {count!r}"
            in captured.err)


def test_dynprof_cli_deck_ncpus_is_a_usage_error(tmp_path, capsys,
                                                 monkeypatch):
    script = tmp_path / "s.dp"
    script.write_text("start\nquit\n")
    deck = tmp_path / "smg98.in"
    deck.write_text("ncpus = 0\n")
    monkeypatch.setattr(dynprof_cli, "Environment", _refuse)
    with pytest.raises(SystemExit) as exc:
        dynprof_cli.main([str(script), "-", "-", "smg98", "--input",
                          str(deck)])
    assert exc.value.code == 2
    assert "ncpus must be >= 1, got 0" in capsys.readouterr().err
