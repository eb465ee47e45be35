"""The repro.obs.trace causal tracer: ring buffers, flow-edge
integrity, Chrome-trace export, critical-path / perturbation analysis,
and the tracing-on == tracing-off guarantee."""

import json

import pytest

from repro.obs import trace as obs_trace
from repro.obs.analysis import (
    critical_path,
    flow_pairs,
    perturbation_report,
    render_trace_summary,
    track_utilization,
)
from repro.obs.export import (
    to_chrome_trace,
    trace_to_svg,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs import OFF
from repro.obs.trace import Tracer
from repro.runner import SweepPoint, SweepRunner, TraceCollector
from repro.runner.worker import execute_point


@pytest.fixture(autouse=True)
def _tracing_stays_off():
    """Every test must leave the process-local tracer disabled."""
    assert obs_trace.get() is OFF
    yield
    assert obs_trace.get() is OFF


def _traced_policy_run(policy="Dynamic", app="smg98", cpus=2, scale=0.02):
    point = SweepPoint.policy_cell(app, policy, cpus, scale=scale)
    envelope = execute_point(point, collectors=[TraceCollector()])
    assert envelope["status"] == "ok", envelope.get("error")
    return envelope


def _trace_doc(envelope):
    """The trace document an envelope carries as JSON text."""
    text = envelope["attachments"]["trace"]
    assert isinstance(text, str)
    return json.loads(text)


# ------------------------------------------------------------------ the tracer


def test_spans_instants_flows_and_aggregates():
    t = Tracer()
    t.begin(0, 0, "outer", "app", 1.0)
    t.begin(0, 0, "inner", "app", 2.0)
    t.end(0, 0, 3.0)
    t.end(0, 0, 5.0)
    t.instant(1, 0, "mark", "vt.confsync", 2.5)
    flow = t.new_flow()
    t.flow_start(0, 0, flow, "send", "mpi", 2.0)
    t.flow_end(1, 0, flow, "recv", "mpi", 2.2)
    t.count("vt.records", 7)

    snap = t.snapshot()
    assert snap["kind"] == "repro.trace" and snap["version"] == 1
    assert snap["dropped_events"] == 0
    assert snap["totals"]["app"] == {"count": 2, "total": pytest.approx(5.0)}
    assert snap["counts"]["vt.records"] == 7
    track0 = next(tr for tr in snap["tracks"] if tr["pid"] == 0)
    spans = [e for e in track0["events"] if e["ph"] == "span"]
    # LIFO close order: inner lands before outer.
    assert [e["name"] for e in spans] == ["inner", "outer"]
    assert spans[1]["dur"] == pytest.approx(4.0)


def test_unmatched_end_is_ignored_and_open_spans_reported():
    t = Tracer()
    t.end(0, 0, 1.0)  # nothing open: tolerated, not an error
    t.begin(0, 0, "left-open", "app", 0.5)
    snap = t.snapshot()
    assert snap["tracks"][0]["events"] == []
    assert snap["tracks"][0]["open_spans"] == 1


def test_ring_buffer_bounds_and_drop_counter():
    roomy = Tracer(capacity=100)
    for i in range(50):
        roomy.complete(0, 0, f"e{i}", "app", float(i), float(i) + 0.5)
    assert roomy.dropped_events == 0
    assert len(roomy.tracks[(0, 0)]) == 50

    tight = Tracer(capacity=8)
    for i in range(50):
        tight.complete(0, 0, f"e{i}", "app", float(i), float(i) + 0.5)
    assert tight.dropped_events == 50 - 8
    assert len(tight.tracks[(0, 0)]) == 8
    # Aggregates are drop-immune: all 50 spans survive in totals.
    assert tight.totals["app"][0] == 50

    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_detail_knob_and_null_tracer():
    assert Tracer(detail="fine").fine
    assert not Tracer(detail="coarse").fine
    with pytest.raises(ValueError):
        Tracer(detail="loud")

    # Tracing off: both halves of the per-function guard short-circuit.
    null = obs_trace.get()
    assert not null.enabled and not null.fine


def test_tracing_context_restore():
    live = Tracer()
    with obs_trace.tracing(live) as t:
        assert t is live and obs_trace.get() is live
        with obs_trace.tracing(capacity=32, detail="coarse") as inner:
            assert obs_trace.get() is inner
            assert inner.capacity == 32 and not inner.fine
        assert obs_trace.get() is live
    assert obs_trace.get() is OFF


# ------------------------------------------------- flow / span integrity


def test_flow_edges_and_span_nesting_integrity():
    """Property test over a real traced run: every recv-side flow edge
    has exactly one matching send, and per-track spans never partially
    overlap (they nest or are disjoint)."""
    doc = _trace_doc(_traced_policy_run())
    assert doc["dropped_events"] == 0

    pairs = flow_pairs(doc)
    assert pairs, "a 2-rank MPI run must record flow edges"
    for fid, pair in pairs.items():
        assert len(pair["starts"]) == 1, f"flow {fid} has multiple sends"
        assert len(pair["ends"]) >= 1, f"flow {fid} was never delivered"
        start = pair["starts"][0]
        for end in pair["ends"]:
            assert end["ts"] >= start["ts"], "effect precedes cause"

    eps = 1e-9
    for track in doc["tracks"]:
        spans = sorted(
            ((e["ts"], e["ts"] + e["dur"]) for e in track["events"]
             if e["ph"] == "span"),
            key=lambda iv: (iv[0], -iv[1]),
        )
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            nested = e2 <= e1 + eps
            disjoint = s2 >= e1 - eps
            assert nested or disjoint, (
                f"{track['name']}: spans ({s1},{e1}) and ({s2},{e2}) "
                f"partially overlap"
            )


def test_dropped_events_positive_when_capacity_exceeded():
    point = SweepPoint.policy_cell("smg98", "Full", 2, scale=0.02)
    envelope = execute_point(point, collectors=[TraceCollector(capacity=16)])
    doc = _trace_doc(envelope)
    assert doc["dropped_events"] > 0
    for track in doc["tracks"]:
        assert len(track["events"]) <= 16


# ------------------------------------------------------------- worker / runner


def test_worker_envelope_has_no_trace_by_default():
    envelope = execute_point(SweepPoint.confsync(2, reps=2))
    assert "attachments" not in envelope


def test_payloads_identical_with_and_without_tracing():
    point = SweepPoint.policy_cell("smg98", "Dynamic", 2, scale=0.02)
    plain = execute_point(point)
    traced = execute_point(point, collectors=[TraceCollector()])
    assert plain["payload"] == traced["payload"]


def test_runner_keeps_traces_out_of_cache(tmp_path):
    point = SweepPoint.confsync(2, reps=2)
    first = TraceCollector()
    assert SweepRunner(cache=tmp_path, collectors=[first]).run([point])[point].ok
    assert point.label in first.docs

    # The cache entry carries no trace, so a cache-served re-run has none.
    second = TraceCollector()
    result = SweepRunner(cache=tmp_path, collectors=[second]).run([point])[point]
    assert result.ok and result.cached
    assert second.docs == {}


def test_runner_collects_confsync_epoch_events():
    tracer = TraceCollector()
    runner = SweepRunner(collectors=[tracer])
    point = SweepPoint.confsync(2, reps=2)
    assert runner.run([point])[point].ok
    doc = json.loads(tracer.docs[point.label])
    names = {
        e["name"] for tr in doc["tracks"] for e in tr["events"]
    }
    assert "VT_confsync" in names


# ------------------------------------------------------------------- exporters


def test_chrome_trace_round_trip_is_schema_valid(tmp_path):
    doc = _trace_doc(_traced_policy_run())
    path = tmp_path / "run.chrome.json"
    write_chrome_trace(doc, str(path))
    loaded = json.loads(path.read_text(encoding="utf-8"))
    validate_chrome_trace(loaded)

    events = loaded["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "X", "s", "f"} <= phases
    # Simulated seconds scaled to microseconds.
    spans = [e for e in events if e["ph"] == "X"]
    assert max(e["ts"] for e in spans) > 1e3


def test_chrome_validator_rejects_malformed_documents():
    with pytest.raises(ValueError):
        validate_chrome_trace({"events": []})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "??"}]})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [
            {"ph": "f", "name": "n", "cat": "c", "pid": 0, "tid": 0,
             "ts": 1.0, "id": 9, "bp": "e"},
        ]})  # flow finish without a start
    with pytest.raises(ValueError):
        to_chrome_trace({"kind": "something-else"})


def test_svg_timeline_renders_tracks_and_flows():
    doc = _trace_doc(_traced_policy_run())
    svg = trace_to_svg(doc, title="smoke")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "smoke" in svg
    assert "rank 0" in svg and "dynprof" in svg


# -------------------------------------------------------------------- analysis


def test_track_utilization_unions_overlapping_spans():
    t = Tracer()
    t.complete(0, 0, "a", "app", 0.0, 2.0)
    t.complete(0, 0, "b", "app", 1.0, 3.0)  # overlaps a
    t.complete(0, 0, "c", "app", 5.0, 6.0)
    rows = track_utilization(t.snapshot())
    assert rows[0]["busy"] == pytest.approx(4.0)  # [0,3] + [5,6]
    assert rows[0]["elapsed"] == pytest.approx(6.0)


def test_critical_path_follows_flow_edges_across_tracks():
    t = Tracer()
    t.complete(0, 0, "compute0", "app", 0.0, 1.0)
    flow = t.new_flow()
    t.flow_start(0, 0, flow, "send", "mpi", 1.0)
    t.flow_end(1, 0, flow, "recv", "mpi", 1.5)
    t.complete(1, 0, "compute1", "app", 1.5, 4.0)
    cp = critical_path(t.snapshot())
    assert cp["tracks_visited"] == 2
    assert [e["name"] for e in cp["path"]] == [
        "compute0", "send", "recv", "compute1",
    ]
    assert cp["elapsed"] == pytest.approx(4.0)
    # Deterministic: same document, same path.
    again = critical_path(t.snapshot())
    assert again["path"] == cp["path"]


def test_critical_path_on_real_run_spans_multiple_ranks():
    doc = _trace_doc(_traced_policy_run())
    cp = critical_path(doc)
    assert cp["path"] and cp["tracks_visited"] >= 2
    ts = [e["ts"] for e in cp["path"]]
    assert ts == sorted(ts)


def test_perturbation_report_fig8_ordering():
    """The Figure 8 story: dynamic instrumentation perturbs far less
    than full static instrumentation."""
    shares = {}
    for policy in ("Full", "Dynamic", "None"):
        env = _traced_policy_run(policy=policy)
        rep = perturbation_report(_trace_doc(env),
                                  elapsed=env["payload"]["time"])
        shares[policy] = rep["instrumented_share"]
    assert shares["None"] == 0.0
    assert shares["Dynamic"] < shares["Full"] / 100
    assert 0.0 < shares["Full"] < 1.0


def test_render_trace_summary_sections():
    env = _traced_policy_run()
    text = render_trace_summary(_trace_doc(env), elapsed=env["payload"]["time"])
    assert "critical path:" in text
    assert "perturbation attribution" in text
    assert "instrumentation share:" in text


# ------------------------------------------------------- trace-volume model


def test_tracer_volume_matches_analytic_model_on_two_apps():
    from repro.experiments.tracevol import run_tracevol_crosscheck

    rows = run_tracevol_crosscheck(apps=["sweep3d", "sppm"], n_cpus=2,
                                   scale=0.02)
    assert len(rows) == 2
    for row in rows:
        assert row["analytic_bytes"] > 0
        assert row["rel_err"] < 0.02, row


# ------------------------------------------------------------------ CLI level


def test_cli_outputs_bit_identical_with_and_without_trace(tmp_path, capsys):
    from repro.experiments.cli import sweep_main

    argv = ["--apps", "smg98", "--policies", "Dynamic", "--cpus", "2",
            "--scale", "0.02", "--no-cache"]
    assert sweep_main(list(argv)) == 0
    plain = capsys.readouterr().out
    assert sweep_main(argv + ["--trace", str(tmp_path)]) == 0
    traced = capsys.readouterr().out
    assert plain == traced


def test_cli_trace_dir_writes_schema_valid_documents(tmp_path, capsys):
    from repro.experiments.cli import sweep_main

    trace_dir = tmp_path / "traces"
    rc = sweep_main([
        "--apps", "smg98", "--policies", "Dynamic", "--cpus", "2",
        "--scale", "0.02", "--no-cache", "--json",
        "--trace", str(trace_dir),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    # --json keeps stderr clean of the output notes.
    assert "wrote" not in captured.err

    doc = json.loads(captured.out)
    paths = doc["outputs"]["traces"]
    assert len(paths) == 1 and paths[0].endswith(".trace.json")
    trace_doc = json.loads(
        (trace_dir / paths[0].split("/")[-1]).read_text(encoding="utf-8")
    )
    assert trace_doc["kind"] == "repro.trace"
    validate_chrome_trace(to_chrome_trace(trace_doc))


def test_cli_trace_files_are_the_compact_json_of_each_document(
        tmp_path, capsys, monkeypatch):
    from repro.experiments import cli

    built = []
    build = cli._build_runner
    monkeypatch.setattr(cli, "_build_runner",
                        lambda *a: built.append(build(*a)) or built[-1])
    argv = ["fig7b", "--quick", "--jobs", "1", "--no-cache"]
    assert cli.main(argv + ["--trace", "-"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()
             if line.startswith('{"label"')]
    trace_dir = tmp_path / "traces"
    assert cli.main(argv + ["--trace", str(trace_dir)]) == 0
    docs = cli._collector(built[-1], TraceCollector).docs

    assert len(lines) == len(docs) == len(list(trace_dir.iterdir())) > 1
    for line in lines:
        path = trace_dir / f"{cli._safe_label(line['label'])}.trace.json"
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(line["trace"]) + "\n"
        assert text == docs[line["label"]] + "\n"


def test_cli_trace_subcommand_prints_summary(tmp_path, capsys):
    from repro.experiments.cli import trace_main

    chrome = tmp_path / "t.chrome.json"
    svg = tmp_path / "t.svg"
    rc = trace_main([
        "--app", "smg98", "--policy", "Dynamic", "--cpus", "2",
        "--scale", "0.02", "--chrome", str(chrome), "--svg", str(svg),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical path:" in out
    assert "perturbation attribution" in out
    validate_chrome_trace(json.loads(chrome.read_text(encoding="utf-8")))
    assert svg.read_text(encoding="utf-8").startswith("<svg")


def test_telemetry_reports_full_cache_key():
    import io

    stream = io.StringIO()
    runner = SweepRunner(telemetry=stream)
    point = SweepPoint.confsync(2, reps=2)
    assert runner.run([point])[point].ok
    events = [json.loads(line) for line in stream.getvalue().splitlines()]
    pt = next(e for e in events if e["event"] == "point")
    assert len(pt["cache_key"]) == 64
    assert pt["cache_key"].startswith(pt["key"])


# ------------------------------------------------------------ ring compaction


def _looping_tracer(capacity, compact, iterations=400):
    """A synthetic timestep loop against a tight ring."""
    tracer = Tracer(capacity=capacity, compact=compact)
    t = 0.0
    for _ in range(iterations):
        tracer.complete(0, 0, "kernel", "vt.func", t, t + 0.4)
        tracer.instant(0, 0, "tick", "app", t + 0.5)
        t += 1.0
    return tracer


def test_compact_ring_folds_instead_of_dropping():
    plain = _looping_tracer(capacity=16, compact=False)
    folding = _looping_tracer(capacity=16, compact=True)
    # Same capacity, same stream: folding sheds redundancy, not data.
    assert plain.dropped_events > 0
    assert folding.dropped_events < plain.dropped_events
    assert folding.folded_events > 0
    assert plain.folded_events == 0


def test_compact_ring_preserves_occurrence_counts():
    tracer = _looping_tracer(capacity=16, compact=True, iterations=400)
    assert tracer.dropped_events == 0
    buf = tracer.tracks[(0, 0)]
    by_name = {"kernel": 0, "tick": 0}
    for event in buf.events:
        count = (event.args or {}).get("folded", 1)
        by_name[event.name] += count
    # Every one of the 400 iterations is accounted for: survivors carry
    # args["folded"] sums, nothing was evicted.
    assert by_name == {"kernel": 400, "tick": 400}


def test_folded_span_stretches_to_cover_the_interval():
    tracer = _looping_tracer(capacity=16, compact=True, iterations=100)
    spans = [e for e in tracer.tracks[(0, 0)].events if e.ph == "span"]
    widest = max(spans, key=lambda e: e.dur)
    folded = (widest.args or {}).get("folded", 1)
    assert folded > 1
    # A fold of k iterations starting at its first ts must span to the
    # last iteration's end: (k - 1) whole periods plus the span body.
    assert widest.dur == pytest.approx((folded - 1) * 1.0 + 0.4)


def test_unfoldable_stream_still_drops_honestly():
    tracer = Tracer(capacity=8, compact=True)
    for i in range(50):
        tracer.complete(0, 0, f"unique{i}", "app", float(i), i + 0.5)
    assert tracer.folded_events == 0
    assert tracer.dropped_events == 50 - 8


def test_snapshot_reports_compaction_state():
    doc = _looping_tracer(capacity=16, compact=True).snapshot()
    assert doc["compact"] is True
    assert doc["folded_events"] == doc["tracks"][0]["folded"] > 0
    plain = Tracer().snapshot()
    assert plain["compact"] is False and plain["folded_events"] == 0


def test_tracing_context_threads_compact_through():
    with obs_trace.tracing(capacity=16, compact=True) as tracer:
        assert tracer.compact
        assert obs_trace.get() is tracer
    with obs_trace.tracing(capacity=16) as tracer:
        assert not tracer.compact


def test_real_run_drops_less_with_ring_compaction():
    point = SweepPoint.policy_cell("smg98", "Full", 2, scale=0.05)
    plain = execute_point(point, collectors=[TraceCollector(capacity=256)])
    folding = execute_point(
        point, collectors=[TraceCollector(capacity=256, compact=True)])
    assert plain["status"] == folding["status"] == "ok"
    d_plain = _trace_doc(plain)["dropped_events"]
    d_fold = _trace_doc(folding)["dropped_events"]
    assert d_plain > 0
    assert d_fold < d_plain
    assert _trace_doc(folding)["folded_events"] > 0
    # The simulation itself is untouched: identical payloads.
    assert plain["payload"] == folding["payload"]
