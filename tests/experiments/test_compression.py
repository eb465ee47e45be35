"""The compression-ratio curve, the batching cross-check and the
``trace compact`` CLI — trace volume attacked losslessly."""

import json

import pytest

from repro.experiments.tracevol import (
    render_compression,
    run_tracevol_compression,
    run_tracevol_crosscheck,
)
from repro.vt import ThreadTraceBuffer, TraceFile, load_trace, save_trace


# ------------------------------------------------------- compression curve


def test_compression_curve_fig7a_app_meets_acceptance():
    """The loop-heavy fig7a app (smg98) compresses at least 5x."""
    rows = run_tracevol_compression(apps=["smg98"], n_cpus=2, scale=0.02)
    (row,) = rows
    assert row["lossless"] is True
    assert row["ratio"] >= 5.0
    assert row["analytic_bytes"] == row["raw_records"] * 24
    assert row["compact_bytes"] == row["bytes_per_record"] * row["raw_records"]
    assert row["compact_bytes"] <= row["unsuppressed_bytes"]


def test_compression_curve_umt98_exercises_the_suppressor():
    """umt98's record stream has tandem repeats the batch records miss."""
    (row,) = run_tracevol_compression(apps=["umt98"], n_cpus=4, scale=0.05)
    assert row["lossless"] is True
    assert row["folds"] > 0
    assert row["compact_bytes"] < row["unsuppressed_bytes"]


def test_render_compression_table():
    rows = run_tracevol_compression(apps=["sweep3d"], n_cpus=2, scale=0.02)
    text = render_compression(rows)
    assert "VGVZ compression" in text
    assert "sweep3d" in text
    assert "ratio" in text


# ------------------------------------------------- batched/unbatched model


@pytest.mark.parametrize("batched", [True, False])
def test_crosscheck_matches_model_batched_and_unbatched(batched):
    """The tracer-derived volume matches the analytic model to 4e-6
    whether the executor emits BatchPairRecords or raw enter/leave
    pairs — the 2n-per-batch identity is measured, not assumed."""
    (row,) = run_tracevol_crosscheck(
        apps=["sweep3d"], n_cpus=2, scale=0.02, batched=batched
    )
    assert row["batched"] is batched
    assert row["rel_err"] <= 4e-6
    assert row["expanded_records"] == row["raw_records"]


def test_crosscheck_batched_and_unbatched_agree_exactly():
    runs = [
        run_tracevol_crosscheck(
            apps=["sweep3d"], n_cpus=2, scale=0.02, batched=batched
        )[0]
        for batched in (True, False)
    ]
    assert runs[0]["raw_records"] == runs[1]["raw_records"]
    assert runs[0]["analytic_bytes"] == runs[1]["analytic_bytes"]


# ------------------------------------------------------------------ the CLI


def looping_trace(iterations=300):
    trace = TraceFile("cli app")
    trace.register_function(1, "main")
    buf = ThreadTraceBuffer(0, 0)
    t = 0.0
    for _ in range(iterations):
        buf.enter(1, t)
        buf.leave(1, t + 0.5)
        t += 1.0
    trace.add_buffer(buf)
    return trace


def test_cli_tracevol_compress_experiment(capsys):
    from repro.experiments.cli import main

    assert main(["tracevol-compress", "--quick", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "VGVZ compression" in out and "smg98" in out


def test_cli_trace_compact_roundtrip(tmp_path, capsys):
    from repro.experiments.cli import main

    trace = looping_trace()
    src = tmp_path / "run.vgv"
    save_trace(trace, str(src))

    assert main(["trace", "compact", "compress", str(src), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (entry,) = doc["files"]
    assert entry["raw_records"] == 600
    assert entry["ratio"] > 5.0
    vgvz = tmp_path / "run.vgvz"
    assert entry["out"] == str(vgvz)
    assert vgvz.stat().st_size == entry["compact_bytes"]

    out_dir = tmp_path / "back"
    rc = main(["trace", "compact", "decompress", str(vgvz),
               "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    again = load_trace(str(out_dir / "run.vgv"))
    assert [repr(r) for r in again.records_of(0)] == \
        [repr(r) for r in trace.records_of(0)]


def test_cli_trace_compact_stats_reads_both_forms(tmp_path, capsys):
    from repro.experiments.cli import main
    from repro.vt import save_trace_compact

    trace = looping_trace()
    save_trace(trace, str(tmp_path / "a.vgv"))
    save_trace_compact(trace, str(tmp_path / "b.vgvz"))

    assert main(["trace", "compact", "stats", str(tmp_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["files"]) == 2
    for entry in doc["files"]:
        assert entry["raw_records"] == 600
        assert entry["ratio"] > 5.0


def test_cli_trace_compact_error_codes(tmp_path, capsys):
    from repro.experiments.cli import main

    garbage = tmp_path / "bad.vgv"
    garbage.write_text("not a trace\n")
    assert main(["trace", "compact", "stats", str(garbage)]) == 1
    assert "bad.vgv" in capsys.readouterr().err

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["trace", "compact", "compress", str(empty)]) == 2


def test_cli_trace_subcommand_compact_and_vgvz(tmp_path, capsys):
    from repro.experiments.cli import main
    from repro.vt import load_trace_compact

    vgvz = tmp_path / "run.vgvz"
    rc = main(["trace",
        "--app", "smg98", "--policy", "Full", "--cpus", "2",
        "--scale", "0.02", "--capacity", "256", "--compact",
        "--vgvz", str(vgvz),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "folded=" in captured.out
    assert "wrote VGVZ" in captured.err
    trace = load_trace_compact(str(vgvz))
    assert trace.raw_record_count > 0


def test_figure_output_byte_identical_with_ring_compaction(tmp_path, capsys):
    """Enforced at the CLI: turning the compaction layer on cannot move
    a figure by a byte (NULL-backend discipline)."""
    from repro.experiments.cli import main

    argv = ["fig7a", "--quick", "--scale", "0.02", "--no-cache"]
    assert main(list(argv)) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--trace", str(tmp_path), "--trace-compact"]) == 0
    compacted = capsys.readouterr().out
    assert plain == compacted
