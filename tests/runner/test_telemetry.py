"""Telemetry durability: per-line flushes and the tolerant reader."""

import io
import json

import pytest

from repro.runner import SweepPoint, SweepRunner, read_telemetry
from repro.runner.telemetry import SweepTelemetry


def run_sweep(stream):
    runner = SweepRunner(jobs=1, telemetry=stream)
    points = [SweepPoint.selftest(mode="echo", value=i) for i in range(3)]
    assert all(r.ok for r in runner.run(points).values())


# -- the writer ---------------------------------------------------------------


def test_every_event_is_one_flushed_line():
    class CountingStream(io.StringIO):
        def __init__(self):
            super().__init__()
            self.flushes = 0
            self.writes = []

        def write(self, text):
            self.writes.append(text)
            return super().write(text)

        def flush(self):
            self.flushes += 1
            super().flush()

    stream = CountingStream()
    run_sweep(stream)
    # One write + one flush per event: a tailing consumer never sees a
    # partial record followed by more output.
    assert all(w.endswith("\n") and w.count("\n") == 1 for w in stream.writes)
    assert stream.flushes == len(stream.writes)


def test_sweep_end_survives_fsyncless_streams():
    # StringIO has no file descriptor; the sweep_end fsync is skipped,
    # not fatal.
    stream = io.StringIO()
    run_sweep(stream)
    events = read_telemetry(io.StringIO(stream.getvalue()))
    assert events[-1]["event"] == "sweep_end"


def test_sweep_log_round_trips_through_a_file(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        run_sweep(fh)
    events = read_telemetry(str(path))
    assert events[0]["event"] == "sweep_start"
    assert events[-1]["event"] == "sweep_end"
    assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
    assert sum(1 for e in events if e["event"] == "point") == 3


# -- the reader ---------------------------------------------------------------


def sample_lines(n=4):
    telemetry = SweepTelemetry()
    telemetry.sweep_start(total=n, cached=0, jobs=1)
    for i in range(n - 2):
        telemetry.emit("point", label=f"p{i}", status="ok")
    telemetry.sweep_end()
    return [json.dumps(e) for e in telemetry.events]


def test_reader_drops_truncated_last_line():
    lines = sample_lines()
    truncated = lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]
    events = read_telemetry(truncated)
    assert len(events) == len(lines) - 1
    assert events == [json.loads(line) for line in lines[:-1]]


def test_reader_ignores_trailing_blank_lines():
    events = read_telemetry(sample_lines() + ["", ""])
    assert len(events) == len(sample_lines())


def test_reader_rejects_mid_file_corruption():
    lines = sample_lines()
    lines[1] = lines[1][:10]  # corrupt record with valid ones after it
    with pytest.raises(ValueError, match="corrupt record with valid"):
        read_telemetry(lines)


def test_reader_rejects_blank_line_inside_log():
    lines = sample_lines()
    lines.insert(1, "")
    with pytest.raises(ValueError, match="blank line"):
        read_telemetry(lines)


def test_reader_rejects_seq_gap():
    lines = sample_lines()
    del lines[1]  # seq jumps 1 -> 3: events were lost
    with pytest.raises(ValueError, match="missing events"):
        read_telemetry(lines)


def test_reader_rejects_non_event_records():
    with pytest.raises(ValueError, match="not a telemetry event"):
        read_telemetry(['{"no": "seq"}'])
    with pytest.raises(ValueError, match="not a telemetry event"):
        read_telemetry(["[1, 2, 3]", '{"seq": 1}'])


def test_reader_allows_concatenated_runs():
    lines = sample_lines() + sample_lines(3)
    events = read_telemetry(lines)
    assert len(events) == len(lines)
    restarts = [i for i, e in enumerate(events) if e["seq"] == 1]
    assert len(restarts) == 2


def test_reader_accepts_stream_and_path(tmp_path):
    lines = sample_lines()
    blob = "\n".join(lines) + "\n"
    from_stream = read_telemetry(io.StringIO(blob))
    path = tmp_path / "log.jsonl"
    path.write_text(blob)
    assert read_telemetry(str(path)) == from_stream
    assert from_stream == [json.loads(line) for line in lines]


# -- several sweeps on one runner -----------------------------------------------


def _sweep_ends(events):
    return [e for e in events if e["event"] == "sweep_end"]


def test_each_sweep_counts_only_its_own_points(tmp_path):
    """``point`` and ``sweep_end`` count the current sweep; the summary
    sums every sweep of the runner."""
    grids = [[SweepPoint.selftest(mode="echo", value=i) for i in values]
             for values in ((0, 1, 2), (3,), (3, 4))]
    SweepRunner(jobs=1, cache=tmp_path).run(grids[0])
    runner = SweepRunner(jobs=1, cache=tmp_path)
    for grid in grids:
        assert all(r.ok for r in runner.run(grid).values())
    events = runner.telemetry.events
    ends = _sweep_ends(events)
    assert [e["total"] for e in ends] == [3, 1, 2]
    for end in ends:
        assert end["ok"] + end["failed"] == end["total"]
        assert 0.0 <= end["hit_rate"] <= 1.0
    points = [e for e in events if e["event"] == "point"]
    assert all(p["done"] <= p["of"] for p in points)
    summary = runner.telemetry.summary()
    assert summary["total"] == summary["ok"] == 6
    assert [e["cached"] for e in ends] == [3, 0, 1]
    assert summary["cached"] == 4
    assert summary["hit_rate"] == 4 / 6


def test_multi_panel_command_sweeps_stay_consistent(tmp_path, capsys):
    """``fig8`` runs three sweeps: a warm re-run with ``--progress``
    must report each one on its own (was: ``ok`` 22 of ``total`` 7)."""
    from repro.experiments.cli import main

    argv = ["fig8", "--quick", "--jobs", "1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--progress"]) == 0
    events = read_telemetry(io.StringIO(capsys.readouterr().err))
    ends = _sweep_ends(events)
    assert len(ends) == 3
    for end in ends:
        assert end["ok"] + end["failed"] == end["total"]
        assert end["hit_rate"] <= 1
