"""Record and check committed performance baselines.

Run from the repository root::

    PYTHONPATH=src python benchmarks/record_baseline.py            # record
    PYTHONPATH=src python benchmarks/record_baseline.py --check    # compare

Recording writes two small JSON documents next to this script:

``BENCH_engine.json``
    Raw simulation throughput — ``simt.events`` processed per second
    for one representative Figure 7 cell, measured under a live
    :mod:`repro.obs` registry (so the number includes the enabled-
    observation overhead a profiled run actually pays), plus a
    ``sampler`` cell: the same run with metric sampling enabled
    (:mod:`repro.obs.timeseries`), recording the event and sample
    counts and the throughput the sampler costs.  The sampler-off cell
    staying inside the tolerance band is the "sampling off is free"
    gate; the sampler-on cell makes the enabled cost a visible,
    determinism-checked number.  A ``recorder`` cell does the same for
    order recording (:mod:`repro.replay`): the plain cell is the
    "recording off is free" gate, the recorder-on cell pins the event
    and order-log decision counts exactly and the enabled throughput
    within tolerance.

``BENCH_fig7.json``
    End-to-end sweep cost — wall time of the quick Figure 7a grid cold
    (every point simulated) and fully cached (every point served from a
    :class:`ResultCache`), plus the resulting speedup.  The cached
    re-run is the number the result cache exists to protect: a warm
    regeneration should cost milliseconds.

``BENCH_trace.json``
    Trace-compaction trajectory — for each ASCI app's small Full cell:
    raw records, VGVZ compact bytes, bytes/record, the compression
    ratio against the analytic ``records x 24`` volume model, and the
    codec's encode throughput over a capped expanded (unbatched)
    record stream.  Records and compact bytes are exact (the codec is
    deterministic); throughput carries the tolerance.

Throughput is reported as the **best of N repeats** (default 5).  The
minimum wall time over several runs is the standard way to measure a
deterministic workload on a machine with frequency scaling and noisy
neighbours: every source of interference only ever makes a run slower,
so the fastest observation is the closest to the machine's true speed.
Mean/median would fold scheduler noise into the committed number.

``--check`` re-measures the engine cell (plain, sampler-on and
recorder-on) and the trace-compaction trajectory and compares against
the committed ``BENCH_engine.json`` and ``BENCH_trace.json``:

* the event **count** must match exactly — it is a determinism check,
  any drift means the simulation itself changed;
* per app, the trace **record count** and **compact bytes** must match
  exactly (codec determinism: same records, byte-identical stream);
* ``events_per_sec`` and the per-app encode throughput must be within
  ``--tolerance`` (default 0.15, i.e. no more than 15% slower than the
  committed baseline).

The check exits non-zero on failure so CI can gate on it (the
``bench-smoke`` job).  The tolerance absorbs runner-to-runner machine
variance; a real hot-path regression lands well outside it.
"""

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro import __version__, obs
from repro.apps import SWEEP3D, get_app
from repro.dynprof import run_policy
from repro.experiments import run_fig7
from repro.runner import SweepRunner

HERE = Path(__file__).resolve().parent

ENGINE_CELL = {"app": "sweep3d", "policy": "Full", "procs": 16,
               "scale": 0.1, "seed": 7}
#: Sampling interval for the enabled-sampler cell (simulated seconds).
SAMPLER_INTERVAL = 0.25
FIG7 = {"cpu_counts": (1, 4, 16), "scale": 0.05, "seed": 7}
TRACE_CELL = {"policy": "Full", "procs": 4, "scale": 0.05, "seed": 7}
TRACE_APPS = ("smg98", "sppm", "sweep3d", "umt98")
#: Encode-throughput stream length (expanded records per app).
TRACE_STREAM_CAP = 100_000
DEFAULT_REPEATS = 5
DEFAULT_TOLERANCE = 0.15


def _context():
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_version": __version__,
        "recorded_at": time.strftime("%Y-%m-%d", time.gmtime()),
        "command": "PYTHONPATH=src python benchmarks/record_baseline.py",
    }


def measure_engine(repeats=DEFAULT_REPEATS):
    """Best-of-``repeats`` engine throughput for the representative cell.

    Returns ``(events, best_wall_s, events_per_sec)``.  The event count
    is asserted identical across repeats — the simulation is seeded, so
    any variation is a bug worth failing loudly on.
    """
    app = get_app(ENGINE_CELL["app"])
    # One untimed warm-up run so import costs and allocator warm-up
    # don't land in the measured number.
    run_policy(app, ENGINE_CELL["policy"], ENGINE_CELL["procs"],
               scale=ENGINE_CELL["scale"], seed=ENGINE_CELL["seed"])
    events = None
    best = None
    for _ in range(repeats):
        with obs.collecting() as registry:
            t0 = time.perf_counter()
            run_policy(app, ENGINE_CELL["policy"], ENGINE_CELL["procs"],
                       scale=ENGINE_CELL["scale"], seed=ENGINE_CELL["seed"])
            wall = time.perf_counter() - t0
        n = registry.counters.get("simt.events", 0)
        if events is None:
            events = n
        elif n != events:
            raise AssertionError(
                f"non-deterministic event count: {n} != {events}")
        if best is None or wall < best:
            best = wall
    return events, best, round(events / best) if best > 0 else None


def measure_sampler_on(interval=SAMPLER_INTERVAL, repeats=DEFAULT_REPEATS):
    """Best-of-``repeats`` throughput for the same cell with the metric
    sampler enabled.

    Returns ``(events, samples, best_wall_s, events_per_sec)``.  The
    event count *includes* the sampler's own wakeups (they are real
    simulated events), so comparing it to the sampler-off count is the
    exact cost accounting; both counts are determinism-gated.
    """
    from repro.obs import timeseries

    app = get_app(ENGINE_CELL["app"])
    events = None
    samples = None
    best = None
    for _ in range(repeats + 1):  # first iteration is the warm-up
        with obs.collecting() as registry:
            with timeseries.sampling(interval=interval) as recorder:
                t0 = time.perf_counter()
                run_policy(app, ENGINE_CELL["policy"], ENGINE_CELL["procs"],
                           scale=ENGINE_CELL["scale"],
                           seed=ENGINE_CELL["seed"])
                wall = time.perf_counter() - t0
        n = registry.counters.get("simt.events", 0)
        s = recorder.samples
        if events is None:
            events, samples = n, s
            continue  # warm-up run: seed the expectation, skip timing
        if n != events or s != samples:
            raise AssertionError(
                f"non-deterministic sampled run: {n}/{s} != "
                f"{events}/{samples} (events/samples)")
        if best is None or wall < best:
            best = wall
    return events, samples, best, round(events / best) if best > 0 else None


def measure_recorder_on(repeats=DEFAULT_REPEATS):
    """Best-of-``repeats`` throughput for the same cell with order
    recording (:mod:`repro.replay`) enabled.

    Returns ``(events, decisions, best_wall_s, events_per_sec)``.  Both
    the event count and the order-log decision count are asserted
    identical across repeats — recording a deterministic run must
    itself be deterministic.  The plain engine cell doubles as the
    "recording off is free" gate: it runs with no recorder installed.
    """
    from repro.replay import hooks

    app = get_app(ENGINE_CELL["app"])
    events = None
    decisions = None
    best = None
    for _ in range(repeats + 1):  # first iteration is the warm-up
        with obs.collecting() as registry:
            with hooks.recording() as recorder:
                t0 = time.perf_counter()
                run_policy(app, ENGINE_CELL["policy"], ENGINE_CELL["procs"],
                           scale=ENGINE_CELL["scale"],
                           seed=ENGINE_CELL["seed"])
                wall = time.perf_counter() - t0
        n = registry.counters.get("simt.events", 0)
        d = len(recorder.log)
        if events is None:
            events, decisions = n, d
            continue  # warm-up run: seed the expectation, skip timing
        if n != events or d != decisions:
            raise AssertionError(
                f"non-deterministic recorded run: {n}/{d} != "
                f"{events}/{decisions} (events/decisions)")
        if best is None or wall < best:
            best = wall
    return events, decisions, best, round(events / best) if best > 0 else None


def record_engine(repeats=DEFAULT_REPEATS):
    events, wall, eps = measure_engine(repeats)
    on_events, on_samples, on_wall, on_eps = measure_sampler_on(
        repeats=repeats)
    rec_events, decisions, rec_wall, rec_eps = measure_recorder_on(
        repeats=repeats)
    doc = {
        "benchmark": "engine-event-throughput",
        "cell": dict(ENGINE_CELL),
        "events": events,
        "repeats": repeats,
        "wall_time_s": round(wall, 4),
        "events_per_sec": eps,
        "sampler": {
            "interval": SAMPLER_INTERVAL,
            "on_events": on_events,
            "on_samples": on_samples,
            "on_wall_time_s": round(on_wall, 4),
            "on_events_per_sec": on_eps,
        },
        "recorder": {
            "on_events": rec_events,
            "decisions": decisions,
            "on_wall_time_s": round(rec_wall, 4),
            "on_events_per_sec": rec_eps,
        },
        **_context(),
    }
    (HERE / "BENCH_engine.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return doc


def record_fig7():
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        t0 = time.perf_counter()
        cold_runner = SweepRunner(jobs=1, cache=cache_dir)
        run_fig7(SWEEP3D, runner=cold_runner, **FIG7)
        cold = time.perf_counter() - t0

        t0 = time.perf_counter()
        warm_runner = SweepRunner(jobs=1, cache=cache_dir)
        run_fig7(SWEEP3D, runner=warm_runner, **FIG7)
        cached = time.perf_counter() - t0
        hit_rate = warm_runner.telemetry.summary()["hit_rate"]

    doc = {
        "benchmark": "fig7-wall-time",
        "grid": {"app": "sweep3d", "cpu_counts": list(FIG7["cpu_counts"]),
                 "scale": FIG7["scale"], "seed": FIG7["seed"]},
        "points": warm_runner.telemetry.summary()["total"],
        "cold_wall_time_s": round(cold, 4),
        "cached_wall_time_s": round(cached, 4),
        "cached_speedup": round(cold / cached, 1) if cached > 0 else None,
        "cached_hit_rate": hit_rate,
        **_context(),
    }
    (HERE / "BENCH_fig7.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return doc


def measure_trace_app(app_name, repeats=DEFAULT_REPEATS):
    """Compaction metrics + best-of-``repeats`` encode throughput.

    The full cell's trace is compressed twice and the outputs must be
    byte-identical (codec determinism).  Throughput is measured over a
    capped *expanded* stream (batch records unrolled into their raw
    enter/leave pairs) so the number reflects genuine per-record encode
    cost rather than a handful of aggregate objects.
    """
    import io

    from repro.compact.codec import (CompactWriter, compress_trace_bytes,
                                     expand_batch_pairs)
    from repro.dynprof import run_policy_job

    app = get_app(app_name)
    _result, job = run_policy_job(
        app, TRACE_CELL["policy"], TRACE_CELL["procs"],
        scale=TRACE_CELL["scale"], seed=TRACE_CELL["seed"],
    )
    trace = job.trace
    data, stats = compress_trace_bytes(trace)
    data2, _ = compress_trace_bytes(trace)
    if data != data2:
        raise AssertionError(f"{app_name}: non-deterministic VGVZ encode")

    stream = []
    for key in sorted(trace.buffers):
        for rec in expand_batch_pairs(trace.buffers[key].records):
            stream.append(rec)
            if len(stream) >= TRACE_STREAM_CAP:
                break
        if len(stream) >= TRACE_STREAM_CAP:
            break
    best = None
    for _ in range(repeats):
        fh = io.BytesIO()
        writer = CompactWriter(fh)
        writer.begin_buffer(0, 0)
        t0 = time.perf_counter()
        for rec in stream:
            writer.write(rec)
        writer.close()
        wall = time.perf_counter() - t0
        if best is None or wall < best:
            best = wall
    return {
        "raw_records": stats.raw_records,
        "record_objects": stats.record_objects,
        "compact_bytes": stats.compact_bytes,
        "bytes_per_record": round(stats.bytes_per_record, 4),
        "ratio": round(stats.ratio, 1),
        "stream_records": len(stream),
        "encode_wall_s": round(best, 4),
        "encode_records_per_sec": round(len(stream) / best),
        "encode_mb_per_s": round(len(stream) * 24 / 1e6 / best, 2),
    }


def record_trace(repeats=DEFAULT_REPEATS):
    doc = {
        "benchmark": "trace-compaction",
        "cell": dict(TRACE_CELL),
        "stream_cap": TRACE_STREAM_CAP,
        "repeats": repeats,
        "apps": {name: measure_trace_app(name, repeats)
                 for name in TRACE_APPS},
        **_context(),
    }
    (HERE / "BENCH_trace.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return doc


def check_trace(tolerance=DEFAULT_TOLERANCE, repeats=DEFAULT_REPEATS):
    """Compare fresh trace-compaction metrics against the baseline.

    Returns 0 on pass, 1 on regression.
    """
    path = HERE / "BENCH_trace.json"
    if not path.exists():
        print(f"check: no committed baseline at {path}", file=sys.stderr)
        return 1
    baseline = json.loads(path.read_text(encoding="utf-8"))
    ok = True
    for name in TRACE_APPS:
        want = baseline["apps"][name]
        got = measure_trace_app(name, repeats)
        floor = want["encode_records_per_sec"] * (1.0 - tolerance)
        print(f"check[{name}]: {got['raw_records']} records -> "
              f"{got['compact_bytes']} B (x{got['ratio']}), encode "
              f"{got['encode_records_per_sec']} rec/s "
              f"(floor {floor:.0f})")
        if got["raw_records"] != want["raw_records"]:
            print(f"check[{name}]: FAIL - record count drifted: "
                  f"{got['raw_records']} != {want['raw_records']}",
                  file=sys.stderr)
            ok = False
        if got["compact_bytes"] != want["compact_bytes"]:
            print(f"check[{name}]: FAIL - compact stream drifted: "
                  f"{got['compact_bytes']} B != {want['compact_bytes']} B "
                  f"(codec output changed; re-record if intentional)",
                  file=sys.stderr)
            ok = False
        if got["encode_records_per_sec"] < floor:
            print(f"check[{name}]: FAIL - encode throughput regression: "
                  f"{got['encode_records_per_sec']} < {floor:.0f} rec/s",
                  file=sys.stderr)
            ok = False
    if ok:
        print("check: trace OK")
    return 0 if ok else 1


def check_engine(tolerance=DEFAULT_TOLERANCE, repeats=DEFAULT_REPEATS):
    """Compare a fresh measurement against the committed baseline.

    Returns 0 on pass, 1 on regression.
    """
    path = HERE / "BENCH_engine.json"
    if not path.exists():
        print(f"check: no committed baseline at {path}", file=sys.stderr)
        return 1
    baseline = json.loads(path.read_text(encoding="utf-8"))
    events, wall, eps = measure_engine(repeats)
    floor = baseline["events_per_sec"] * (1.0 - tolerance)
    print(f"check: measured {events} events in {wall:.4f}s "
          f"-> {eps} events/sec (best of {repeats})")
    print(f"check: committed baseline {baseline['events_per_sec']} "
          f"events/sec, floor at -{tolerance:.0%} = {floor:.0f}")
    ok = True
    if events != baseline["events"]:
        print(f"check: FAIL - event count drifted: {events} != "
              f"{baseline['events']} (simulation no longer deterministic "
              f"vs baseline)", file=sys.stderr)
        ok = False
    if eps < floor:
        print(f"check: FAIL - throughput regression: {eps} < {floor:.0f} "
              f"events/sec", file=sys.stderr)
        ok = False
    if ok:
        print("check: OK")
    return 0 if ok else 1


def check_sampler(tolerance=DEFAULT_TOLERANCE, repeats=DEFAULT_REPEATS):
    """Compare a fresh enabled-sampler measurement against the baseline.

    The sampler-off cell is ``check_engine``'s job (it must stay inside
    the tolerance band — sampling off costs nothing); this cell gates
    the *enabled* path: event and sample counts exactly (determinism —
    the sampler's wakeups are part of the simulation when it is on),
    throughput within the tolerance band.  Returns 0 on pass.
    """
    path = HERE / "BENCH_engine.json"
    if not path.exists():
        print(f"check: no committed baseline at {path}", file=sys.stderr)
        return 1
    baseline = json.loads(path.read_text(encoding="utf-8"))
    want = baseline.get("sampler")
    if not want:
        print("check[sampler]: no sampler cell in BENCH_engine.json "
              "(re-record to add one)", file=sys.stderr)
        return 1
    events, samples, wall, eps = measure_sampler_on(
        interval=want["interval"], repeats=repeats)
    floor = want["on_events_per_sec"] * (1.0 - tolerance)
    print(f"check[sampler]: {events} events / {samples} samples in "
          f"{wall:.4f}s -> {eps} events/sec (floor {floor:.0f})")
    ok = True
    if events != want["on_events"]:
        print(f"check[sampler]: FAIL - event count drifted: {events} != "
              f"{want['on_events']}", file=sys.stderr)
        ok = False
    if samples != want["on_samples"]:
        print(f"check[sampler]: FAIL - sample count drifted: {samples} != "
              f"{want['on_samples']}", file=sys.stderr)
        ok = False
    if eps < floor:
        print(f"check[sampler]: FAIL - throughput regression: {eps} < "
              f"{floor:.0f} events/sec", file=sys.stderr)
        ok = False
    if ok:
        print("check: sampler OK")
    return 0 if ok else 1


def check_recorder(tolerance=DEFAULT_TOLERANCE, repeats=DEFAULT_REPEATS):
    """Compare a fresh recording-enabled measurement against the baseline.

    The recording-off cost is ``check_engine``'s job (the plain cell
    runs with no recorder installed); this cell gates the *enabled*
    path: event and order-log decision counts exactly (recording a
    deterministic run is deterministic), throughput within the
    tolerance band.  Returns 0 on pass.
    """
    path = HERE / "BENCH_engine.json"
    if not path.exists():
        print(f"check: no committed baseline at {path}", file=sys.stderr)
        return 1
    baseline = json.loads(path.read_text(encoding="utf-8"))
    want = baseline.get("recorder")
    if not want:
        print("check[recorder]: no recorder cell in BENCH_engine.json "
              "(re-record to add one)", file=sys.stderr)
        return 1
    events, decisions, wall, eps = measure_recorder_on(repeats=repeats)
    floor = want["on_events_per_sec"] * (1.0 - tolerance)
    print(f"check[recorder]: {events} events / {decisions} decisions in "
          f"{wall:.4f}s -> {eps} events/sec (floor {floor:.0f})")
    ok = True
    if events != want["on_events"]:
        print(f"check[recorder]: FAIL - event count drifted: {events} != "
              f"{want['on_events']}", file=sys.stderr)
        ok = False
    if decisions != want["decisions"]:
        print(f"check[recorder]: FAIL - decision count drifted: "
              f"{decisions} != {want['decisions']}", file=sys.stderr)
        ok = False
    if eps < floor:
        print(f"check[recorder]: FAIL - throughput regression: {eps} < "
              f"{floor:.0f} events/sec", file=sys.stderr)
        ok = False
    if ok:
        print("check: recorder OK")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Record or check committed performance baselines.")
    parser.add_argument(
        "--check", action="store_true",
        help="instead of recording, re-measure and compare against the "
             "committed baselines: the engine, sampler and recorder cells "
             "of BENCH_engine.json and the trace-compaction cells of "
             "BENCH_trace.json; exits 1 on regression")
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional events/sec slowdown in --check mode "
             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help=f"timing repeats; the best run counts (default {DEFAULT_REPEATS})")
    args = parser.parse_args(argv)

    if args.check:
        rc = check_engine(tolerance=args.tolerance, repeats=args.repeats)
        rc_sampler = check_sampler(tolerance=args.tolerance,
                                   repeats=args.repeats)
        rc_recorder = check_recorder(tolerance=args.tolerance,
                                     repeats=args.repeats)
        rc_trace = check_trace(tolerance=args.tolerance,
                               repeats=args.repeats)
        return rc or rc_sampler or rc_recorder or rc_trace

    engine = record_engine(repeats=args.repeats)
    print(f"engine: {engine['events']} events in {engine['wall_time_s']}s "
          f"-> {engine['events_per_sec']} events/sec "
          f"(best of {engine['repeats']})")
    sampler = engine["sampler"]
    print(f"sampler:{sampler['on_events']} events / "
          f"{sampler['on_samples']} samples at {sampler['interval']}s "
          f"-> {sampler['on_events_per_sec']} events/sec")
    recorder = engine["recorder"]
    print(f"record: {recorder['on_events']} events / "
          f"{recorder['decisions']} decisions "
          f"-> {recorder['on_events_per_sec']} events/sec")
    fig7 = record_fig7()
    print(f"fig7:   cold {fig7['cold_wall_time_s']}s, "
          f"cached {fig7['cached_wall_time_s']}s "
          f"(x{fig7['cached_speedup']}, hit rate {fig7['cached_hit_rate']})")
    trace = record_trace(repeats=args.repeats)
    for name, row in trace["apps"].items():
        print(f"trace:  {name}: {row['raw_records']} records -> "
              f"{row['compact_bytes']} B (x{row['ratio']}), "
              f"{row['bytes_per_record']} B/rec, encode "
              f"{row['encode_mb_per_s']} MB/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
