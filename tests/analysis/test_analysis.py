"""Tests for the postmortem analysis layer (timeline/profile/report)."""

import pytest

from repro.analysis import ProfileView, Timeline, render_profile, render_timeline, render_trace_report
from repro.vt import ThreadTraceBuffer, TraceFile


def build_trace():
    """Hand-built trace: main(0..10) calling solve(2..6) on p0, batch
    records on p1, a suspension on p0."""
    trace = TraceFile("toy")
    trace.register_function(1, "main")
    trace.register_function(2, "solve")
    trace.register_function(3, "kernel")

    b0 = ThreadTraceBuffer(0, 0)
    b0.enter(1, 0.0)
    b0.enter(2, 2.0)
    b0.leave(2, 6.0)
    b0.leave(1, 10.0)
    b0.message("send", 1, 7, 100, 1.0)
    b0.marker("suspended", 7.0, 9.0)
    trace.add_buffer(b0)

    b1 = ThreadTraceBuffer(1, 0)
    b1.enter(1, 0.0)
    b1.batch_pair(3, 100, 1.0, 0.01, 0.008)
    b1.leave(1, 10.0)
    trace.add_buffer(b1)
    return trace


def test_timeline_builds_bars_and_intervals():
    tl = Timeline(build_trace())
    assert tl.n_bars == 2
    bar0 = tl.bar(0)
    names = [(iv.name, iv.depth) for iv in bar0.intervals]
    assert ("main", 0) in names
    assert ("solve", 1) in names
    assert bar0.messages[0].kind == "send"
    assert len(bar0.inactivity) == 1
    assert bar0.inactivity[0].duration == pytest.approx(2.0)


def test_timeline_batch_aggregation():
    tl = Timeline(build_trace(), expand_batches_up_to=50)
    bar1 = tl.bar(1)
    kernel = [iv for iv in bar1.intervals if iv.name == "kernel"]
    assert len(kernel) == 1  # 100 > 50: kept aggregated
    assert kernel[0].count == 100

    tl2 = Timeline(build_trace(), expand_batches_up_to=200)
    kernels = [iv for iv in tl2.bar(1).intervals if iv.name == "kernel"]
    assert len(kernels) == 100  # expanded
    assert kernels[0].start == pytest.approx(1.0)
    assert kernels[1].start == pytest.approx(1.01)


def test_timeline_span_and_inactivity():
    tl = Timeline(build_trace())
    t0, t1 = tl.span
    assert t0 == 0.0 and t1 == pytest.approx(10.0)
    assert tl.total_inactivity() == pytest.approx(2.0)


def test_profile_inclusive_exclusive():
    pv = ProfileView(build_trace())
    main = pv.of("main")
    solve = pv.of("solve")
    # p0 main: 10s inclusive, 6s exclusive (solve takes 4s);
    # p1 main: 10s inclusive, 10 - 100*0.008 exclusive.
    assert main.inclusive == pytest.approx(20.0)
    assert main.exclusive == pytest.approx(6.0 + (10.0 - 0.8))
    assert solve.inclusive == pytest.approx(4.0)
    kernel = pv.of("kernel")
    assert kernel.count == 100
    assert kernel.inclusive == pytest.approx(0.8)
    assert kernel.exclusive == pytest.approx(0.8)


def test_profile_excludes_suspension():
    """Section 5.1: analysis must disregard suspension periods."""
    pv = ProfileView(build_trace(), exclude_inactivity=True)
    main = pv.of("main")
    # p0 main loses the 2s suspension: 8s inclusive there + 10s on p1.
    assert main.inclusive == pytest.approx(18.0)
    # solve (2..6) does not overlap the suspension (7..9).
    assert pv.of("solve").inclusive == pytest.approx(4.0)


def test_profile_table_sorted_by_exclusive():
    pv = ProfileView(build_trace())
    table = pv.table()
    assert table[0].name == "main"
    assert pv.top(1) == [table[0]]
    with pytest.raises(KeyError):
        pv.of("nonexistent")


def test_render_timeline_contains_lanes():
    text = render_timeline(Timeline(build_trace()), width=60)
    assert "p0" in text and "p1" in text
    assert "#" in text and "m" in text
    assert "legend" in text


def test_render_profile_table():
    text = render_profile(ProfileView(build_trace()))
    assert "main" in text and "solve" in text and "excl%" in text


def test_render_trace_report_rates():
    trace = build_trace()
    text = render_trace_report(trace, wall_time=10.0)
    assert "raw records" in text
    assert "MB/s" in text


def test_empty_timeline_renders():
    trace = TraceFile("empty")
    assert "empty" in render_timeline(Timeline(trace))


def test_integration_with_dynamic_run():
    """Timeline over a real dynprof-instrumented run shows the solver."""
    from repro.apps import SWEEP3D
    from repro.cluster import Cluster, POWER3_SP
    from repro.dynprof import DynProf
    from repro.jobs import MpiJob
    from repro.simt import Environment

    env = Environment()
    cluster = Cluster(env, POWER3_SP, seed=5)
    exe = SWEEP3D.build_exe(False)
    job = MpiJob(env, cluster, exe, 2, SWEEP3D.make_program(2, 0.05),
                 start_suspended=True)
    tool = DynProf(env, cluster, job,
                   file_contents={"t.txt": "sweep\noctant\ninner\n"})
    proc = tool.run_script("insert-file t.txt\nstart\nquit\n")
    env.run(until=proc)
    env.run(until=job.completion())
    env.run()

    tl = Timeline(job.trace)
    assert tl.n_bars == 2
    pv = ProfileView(job.trace)
    assert pv.of("inner").count >= 1
    assert pv.of("sweep").count >= 8
    # inner includes sweep: inclusive ordering holds.
    assert pv.of("inner").inclusive >= pv.of("sweep").inclusive


# ------------------------------------------------------- SVG export


def test_svg_export_is_wellformed_xml():
    import xml.etree.ElementTree as ET

    from repro.analysis import Timeline, timeline_to_svg

    tl = Timeline(build_trace())
    svg = timeline_to_svg(tl, title="toy run")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    rects = root.iter(f"{ns}rect")
    assert sum(1 for _ in rects) > 4  # lanes + intervals + hatch
    assert "toy run" in svg
    assert "suspended" in svg  # the inactivity tooltip


def test_svg_matches_send_recv_pairs():
    from repro.analysis import Timeline
    from repro.analysis.svg_export import _match_messages
    from repro.vt import ThreadTraceBuffer, TraceFile

    trace = TraceFile("m")
    b0 = ThreadTraceBuffer(0, 0)
    b0.message("send", 1, 5, 100, 1.0)
    b0.message("send", 1, 5, 100, 2.0)
    trace.add_buffer(b0)
    b1 = ThreadTraceBuffer(1, 0)
    b1.message("recv", 0, 5, 100, 1.2)
    b1.message("recv", 0, 5, 100, 2.3)
    trace.add_buffer(b1)
    lines = _match_messages(Timeline(trace))
    assert lines == [(0, 1.0, 1, 1.2), (0, 2.0, 1, 2.3)]


def test_save_timeline_html(tmp_path):
    from repro.analysis import Timeline, save_timeline_html

    path = tmp_path / "run.html"
    save_timeline_html(Timeline(build_trace()), str(path), title="my run")
    doc = path.read_text()
    assert doc.startswith("<!doctype html>")
    assert "my run" in doc and "<svg" in doc
    assert "hatched = suspended" in doc


def test_svg_export_of_real_instrumented_run(tmp_path):
    import xml.etree.ElementTree as ET

    from repro.analysis import Timeline, timeline_to_svg
    from repro.apps import SWEEP3D
    from repro.cluster import Cluster, POWER3_SP
    from repro.jobs import MpiJob
    from repro.simt import Environment

    env = Environment()
    cluster = Cluster(env, POWER3_SP, seed=8)
    exe = SWEEP3D.build_exe(True)
    job = MpiJob(env, cluster, exe, 4, SWEEP3D.make_program(4, 0.05))
    job.run()
    env.run()
    svg = timeline_to_svg(Timeline(job.trace))
    ET.fromstring(svg)  # parses
    assert "sweep" in svg
