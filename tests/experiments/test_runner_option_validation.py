"""Options that bound a run must be usable bounds.

``--timeout`` takes a finite number of seconds > 0: a zero, negative or
NaN budget used to be dropped silently, so the run went unbounded.
``--trace-capacity`` takes an integer >= 1: zero used to fail every
point, but only after the whole sweep had run.  ``--obs-sample`` takes
a finite number of seconds > 0: NaN used to sample nothing and write
``"interval": NaN`` into the document, and ``trace --capacity 0``
ended in a traceback.  All are usage errors (exit 2) before any point
runs, on every command that takes them.
"""

import pytest

import repro.experiments.cli as cli
import repro.experiments.replaycmd as replaycmd

BAD_TIMEOUTS = ["0", "-1", "nan", "inf", "x"]
BAD_CAPACITIES = ["0", "-1", "x"]
BAD_SAMPLES = ["nan", "inf", "0", "-1"]

FIGURE = ["fig8c", "--quick", "--jobs", "1", "--no-cache"]
SWEEP = ["sweep", "--apps", "sweep3d", "--policies", "Full", "--cpus", "2",
         "--jobs", "1", "--no-cache"]


@pytest.fixture
def no_point_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a point ran despite a bad option")

    monkeypatch.setattr(cli, "SweepRunner", refuse)
    monkeypatch.setattr("repro.runner.worker.execute_point", refuse)
    monkeypatch.setattr(replaycmd, "execute_point", refuse)


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("timeout", BAD_TIMEOUTS)
@pytest.mark.parametrize("argv", [
    FIGURE,
    SWEEP,
    ["replay", "verify", "run.order"],
    ["replay", "bisect", "--plan", "straggler"],
], ids=["figure", "sweep", "replay-verify", "replay-bisect"])
def test_timeout_is_a_usage_error(argv, timeout, capsys, no_point_runs):
    err = _usage_error([*argv, f"--timeout={timeout}"], capsys)
    assert (f"argument --timeout: must be a finite number > 0, "
            f"got {timeout!r}") in err


@pytest.mark.parametrize("capacity", BAD_CAPACITIES)
@pytest.mark.parametrize("argv", [FIGURE, SWEEP], ids=["figure", "sweep"])
def test_trace_capacity_is_a_usage_error(argv, capacity, tmp_path, capsys,
                                         no_point_runs):
    err = _usage_error([*argv, "--trace", str(tmp_path),
                        f"--trace-capacity={capacity}"], capsys)
    assert (f"argument --trace-capacity: must be an integer >= 1, "
            f"got {capacity!r}") in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sample", BAD_SAMPLES)
@pytest.mark.parametrize("argv", [FIGURE, ["chaos", "--cpus", "4"]],
                         ids=["figure", "chaos"])
def test_obs_sample_is_a_usage_error(argv, sample, tmp_path, capsys,
                                     no_point_runs):
    obs = tmp_path / "obs.json"
    err = _usage_error([*argv, "--obs", str(obs), f"--obs-sample={sample}"],
                       capsys)
    assert (f"argument --obs-sample: must be a finite number > 0, "
            f"got {sample!r}") in err
    assert not obs.exists()


@pytest.mark.parametrize("capacity", ["0", "-3"])
def test_trace_command_capacity_is_a_usage_error(capacity, capsys,
                                                 no_point_runs):
    err = _usage_error(["trace", "--cpus", "2", f"--capacity={capacity}"],
                       capsys)
    assert (f"argument --capacity: must be an integer >= 1, "
            f"got {capacity!r}") in err


def test_a_positive_timeout_and_capacity_still_run(tmp_path, capsys):
    argv = [*FIGURE, "--timeout=30", "--trace-capacity=64",
            "--trace", str(tmp_path)]
    assert cli.main(argv) == 0
    assert "fig8c" in capsys.readouterr().out
    assert len(list(tmp_path.glob("*.trace.json"))) == 7
