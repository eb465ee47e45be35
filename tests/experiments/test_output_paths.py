"""Every option that names an output file writes through one writer.

A missing parent directory is created, and a path that cannot be
written fails with one line, ``repro-experiments: cannot write <what>
<path>: <reason>``, and exit status 1: no traceback.
"""

import pytest

from repro.experiments.cli import main

FIGURE = ["fig8c", "--quick", "--jobs", "1", "--no-cache"]
TRACE = ["trace", "--cpus", "2", "--scale", "0.02"]
CHAOS = ["chaos", "--cpus", "4", "--scale", "0.02"]

#: (command line, option, what the error line calls the file).
OUTPUTS = {
    "csv": (FIGURE, "--csv", "CSV"),
    "obs": (FIGURE, "--obs", "obs document"),
    "trace-out": (TRACE, "--out", "trace document"),
    "chrome": (TRACE, "--chrome", "Chrome trace"),
    "svg": (TRACE, "--svg", "SVG timeline"),
    "vgv": (TRACE, "--vgv", "VGVTRACE text"),
    "vgvz": (TRACE, "--vgvz", "VGVZ trace"),
    "chaos-obs": (CHAOS, "--obs", "obs document"),
    "chaos-record": (CHAOS, "--record", "order log"),
}


@pytest.mark.parametrize("output", sorted(OUTPUTS))
def test_output_file_into_a_missing_directory(output, tmp_path, capsys):
    argv, option, _what = OUTPUTS[output]
    path = tmp_path / "missing" / "dir" / "out"
    assert main([*argv, option, str(path)]) == 0
    assert path.stat().st_size > 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("output", sorted(OUTPUTS))
def test_unwritable_output_file_is_one_error_line(output, tmp_path, capsys):
    argv, option, what = OUTPUTS[output]
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    path = blocker / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, str(path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"repro-experiments: cannot write {what} "
                              f"{path}: ")
    assert not any("Traceback" in line for line in err)
