"""A workload scale must be finite and greater than 0.

A zero, negative, NaN or infinite scale cannot size a workload: the
points fail inside the model, or print ``FAIL:`` shape lines.  The
point refuses such a scale, and on every ``--scale`` option it is a
usage error (exit 2) before any point runs.
"""

import pytest

import repro.experiments.cli as cli
from repro.runner import SweepPoint

BAD_SCALES = ["0", "-1", "nan", "inf", "-inf"]


@pytest.mark.parametrize("scale", BAD_SCALES)
def test_point_rejects_a_scale_that_cannot_size_a_workload(scale):
    with pytest.raises(ValueError, match="scale"):
        SweepPoint.policy_cell("sweep3d", "Full", 2, scale=float(scale))


@pytest.mark.parametrize("scale", BAD_SCALES)
@pytest.mark.parametrize("argv", [
    ["fig7c", "--quick", "--no-cache"],
    ["sweep", "--apps", "sweep3d", "--policies", "Full", "--cpus", "2"],
    ["trace"],
    ["chaos"],
], ids=["figure", "sweep", "trace", "chaos"])
def test_cli_scale_is_a_usage_error(argv, scale, capsys, monkeypatch):
    def no_runner(*args, **kwargs):
        raise AssertionError("a point ran despite a bad --scale")

    monkeypatch.setattr(cli, "SweepRunner", no_runner)
    monkeypatch.setattr("repro.runner.worker.execute_point", no_runner)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, f"--scale={scale}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --scale: must be a finite number > 0" in captured.err


def test_negative_scale_as_a_separate_argument_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig7c", "--quick", "--scale", "-1"])
    assert exc.value.code == 2
    assert "must be a finite number > 0, got '-1'" in capsys.readouterr().err
