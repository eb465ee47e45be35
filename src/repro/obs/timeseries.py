"""Sampled time-series telemetry — metrics *over* a run, not just after it.

The registry (:mod:`repro.obs.registry`) materializes one end-of-run
snapshot; this module adds the dimension the paper's whole argument
lives in: instrumentation cost evolves as the application moves through
phases, so overhead must be *observed over the run*.  A
:class:`MetricsSampler` is a simt process that wakes every ``interval``
simulated seconds, diffs the live registry against its previous
sample, and appends to bounded per-metric rings held by a
:class:`TimeSeriesRecorder`:

* **counters** are sampled as *deltas* (events this window),
* **gauges** as *levels* (the value when the sampler looked),
* **span aggregates** as *windowed rates* (busy seconds this window),
* **per-probe overhead** as the instrumentation seconds each probed
  function cost this window — the ranking signal a future adaptive
  controller consumes (see ROADMAP).

Samples are delta-encoded with the :mod:`repro.compact` varint codecs
(second-order deltas over IEEE-754 bit patterns, the trace codec's
framing), so a long run's series stays small and every float
round-trips bit-for-bit through :func:`decode_series`.

The recorder is one sink of the current :class:`~repro.obs.tap.Tap`,
the shared :data:`~repro.obs.tap.OFF` until a block enters
:func:`sampling`, and
:meth:`MetricsSampler.install` returns None — scheduling *nothing* —
when sampling is off.  That is a stronger guarantee than the
registry's: the sampler is the one observation layer that *does*
schedule simulated events when enabled, so "off" must mean zero
events, zero cost, and byte-identical figure output (pinned by the CLI
equivalence tests).  Enabled, the sampler only ever *reads* simulation
state, so payloads — and therefore figures — are still bit-identical;
only the obs metrics themselves (e.g. ``simt.events``) see the
sampler's own wakeups.
"""

from __future__ import annotations

import contextlib
from typing import (Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Tuple)

from ..compact.container import DecodeError, from_ascii, to_ascii
from ..compact.varint import DeltaDecoder, DeltaEncoder
from . import tap as _tap
from .registry import collecting

__all__ = [
    "SeriesRing",
    "TimeSeriesRecorder",
    "MetricsSampler",
    "DEFAULT_INTERVAL",
    "DEFAULT_SERIES_CAPACITY",
    "get",
    "sampling",
    "decode_series",
    "series_rows",
    "timeseries_to_csv",
    "overhead_series",
]

#: Default sampling interval (simulated seconds).
DEFAULT_INTERVAL = 0.25

#: Default per-series ring bound (samples); evictions are counted.
DEFAULT_SERIES_CAPACITY = 4096

#: Snapshot codec tag (second-order delta over bit patterns, base64).
_CODEC = "dod-varint-b64"

#: (name, pairs, inclusive_time, overhead_time) — one probed function's
#: cumulative totals, as returned by a probe-stats provider.
ProbeRow = Tuple[str, int, float, float]


class SeriesRing:
    """One metric's bounded (time, value) sample ring."""

    __slots__ = ("kind", "capacity", "times", "values", "dropped", "total")

    def __init__(self, kind: str, capacity: int) -> None:
        self.kind = kind
        self.capacity = capacity
        self.times: List[float] = []
        self.values: List[float] = []
        #: Samples evicted once the ring filled (never silent).
        self.dropped = 0
        #: Running sum of appended values — survives eviction, so the
        #: cumulative total of a delta/rate series stays exact even
        #: after the ring wraps.
        self.total = 0.0

    def append(self, t: float, value: float) -> None:
        if len(self.times) >= self.capacity:
            del self.times[0]
            del self.values[0]
            self.dropped += 1
        self.times.append(t)
        self.values.append(value)
        self.total += value

    def __len__(self) -> int:
        return len(self.times)

    def to_dict(self) -> Dict[str, Any]:
        """Delta-encoded JSON-safe form (lossless; see decode_series)."""
        tbuf = bytearray()
        vbuf = bytearray()
        tenc = DeltaEncoder()
        venc = DeltaEncoder()
        tenc.encode_many(self.times, tbuf)
        venc.encode_many(self.values, vbuf)
        return {
            "kind": self.kind,
            "n": len(self.times),
            "dropped": self.dropped,
            "total": self.total,
            "codec": _CODEC,
            "t": to_ascii(tbuf),
            "v": to_ascii(vbuf),
        }


def decode_series(doc: Dict[str, Any]) -> Tuple[List[float], List[float]]:
    """Decode one series dict back to ``(times, values)`` lists.

    The codec is lossless: every float returned is bit-identical to the
    one sampled.  A damaged blob raises
    :class:`~repro.compact.container.DecodeError`.
    """
    if doc.get("codec") != _CODEC:
        raise DecodeError(f"unknown series codec {doc.get('codec')!r}")
    n = int(doc["n"])
    times: List[float] = []
    values: List[float] = []
    for raw, out in ((doc["t"], times), (doc["v"], values)):
        data = from_ascii(raw)
        dec = DeltaDecoder()
        pos = 0
        for _ in range(n):
            value, pos = dec.decode(data, pos)
            out.append(value)
        if pos != len(data):
            raise DecodeError("trailing bytes after series payload")
    return times, values


class TimeSeriesRecorder:
    """The per-run container of sampled series and probe profiles.

    Series names are prefixed by instrument kind — ``counter:<name>``,
    ``gauge:<name>``, ``span:<name>`` and ``probe:<function>`` — so one
    flat namespace carries the whole sampled run.
    """

    __slots__ = ("enabled", "interval", "capacity", "series", "probes",
                 "samples")

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_SERIES_CAPACITY,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be > 0, got {interval}")
        if capacity <= 0:
            raise ValueError(f"series capacity must be > 0, got {capacity}")
        #: Samplers test exactly this attribute before doing any work.
        self.enabled = True
        self.interval = interval
        self.capacity = capacity
        self.series: Dict[str, SeriesRing] = {}
        #: Cumulative per-probe totals: name -> {count, time, overhead}.
        self.probes: Dict[str, Dict[str, float]] = {}
        #: Sampler ticks recorded (including the terminal sample).
        self.samples = 0

    def record(self, name: str, kind: str, t: float, value: float) -> None:
        """Append one sample to series ``name`` (created on first use)."""
        ring = self.series.get(name)
        if ring is None:
            ring = self.series[name] = SeriesRing(kind, self.capacity)
        ring.append(t, value)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump: delta-encoded series + probe totals."""
        return {
            "version": 1,
            "interval": self.interval,
            "capacity": self.capacity,
            "samples": self.samples,
            "series": {k: self.series[k].to_dict()
                       for k in sorted(self.series)},
            "probes": {k: dict(self.probes[k]) for k in sorted(self.probes)},
        }

    def __repr__(self) -> str:
        return (f"<TimeSeriesRecorder interval={self.interval} "
                f"{len(self.series)} series, {self.samples} samples>")


def get() -> Any:
    """The current tap's recorder (:data:`~repro.obs.tap.OFF` when
    sampling is off)."""
    return _tap.get().series


@contextlib.contextmanager
def sampling(
    recorder: Optional[TimeSeriesRecorder] = None,
    interval: float = DEFAULT_INTERVAL,
    capacity: int = DEFAULT_SERIES_CAPACITY,
) -> Iterator[TimeSeriesRecorder]:
    """Install a (fresh by default) recorder in the tap for a block; only
    samplers installed *inside* it record into it.  A sampler samples
    the registry, so a block without a live one gets a private one."""
    if recorder is None:
        recorder = TimeSeriesRecorder(interval=interval, capacity=capacity)
    with contextlib.ExitStack() as stack:
        if not _tap.get().obs.enabled:
            stack.enter_context(collecting())
        yield stack.enter_context(_tap.installed("series", recorder))


class MetricsSampler:
    """A simt process that samples a registry into a recorder.

    :meth:`install` it *after* the simulation's
    :class:`~repro.simt.Environment` exists and *before* the run
    starts; it captures the current tap's registry, schedules a
    wakeup every ``recorder.interval`` simulated seconds, and diffs
    cumulative instruments into windowed samples.  ``probe_stats``, if
    given, is called at every tick and must return an iterable of
    cumulative ``(name, pairs, inclusive_time, overhead_time)`` rows;
    the sampler turns their overhead totals into per-probe delta
    series (``probe:<name>``) and keeps the latest cumulative row in
    :attr:`TimeSeriesRecorder.probes`.

    The expected shutdown sequence (see ``run_policy_job``)::

        sampler = MetricsSampler.install(env, probe_stats=...)
        env.run(until=job.completion())
        if sampler is not None:
            sampler.stop()      # withdraw the pending wakeup
        env.run()               # drain finalize flushes
        if sampler is not None:
            sampler.finish()    # terminal sample at env.now

    The terminal sample is what makes the series *cumulatively
    consistent*: the sum of every window's deltas telescopes to the
    end-of-run snapshot (to float-addition tolerance), which the
    ``overhead-timeline`` acceptance test pins.
    """

    def __init__(
        self,
        env: Any,
        recorder: TimeSeriesRecorder,
        probe_stats: Optional[Callable[[], Iterable[ProbeRow]]] = None,
    ) -> None:
        self.env = env
        self.recorder = recorder
        self.registry = _tap.get().obs
        self.probe_stats = probe_stats
        self._stopped = False
        self._finished = False
        self._pending: Any = None
        self._prev_counters: Dict[str, float] = {}
        self._prev_gauges: Dict[str, float] = {}
        self._prev_spans: Dict[str, Tuple[float, float]] = {}
        self._prev_probes: Dict[str, float] = {}
        self.process = env.process(self._run(), name="obs.sampler")

    @classmethod
    def install(
        cls,
        env: Any,
        probe_stats: Optional[Callable[[], Iterable[ProbeRow]]] = None,
    ) -> Optional["MetricsSampler"]:
        """Attach a sampler iff sampling is enabled; None otherwise.

        The None return is the whole disabled-mode cost: no process is
        created, no event is scheduled, and the simulation is exactly
        the one a sampler-free build runs.
        """
        recorder = get()
        return cls(env, recorder, probe_stats) if recorder.enabled else None

    # -- the process -----------------------------------------------------------

    def _run(self):
        interval = self.recorder.interval
        while not self._stopped:
            wakeup = self.env.timeout(interval)
            self._pending = wakeup
            yield wakeup
            self._pending = None
            if self._stopped:
                break
            self.sample(self.env.now)

    def stop(self) -> None:
        """Withdraw the pending wakeup so the event queue can drain."""
        self._stopped = True
        if self._pending is not None:
            self.env.cancel(self._pending)
            self._pending = None

    def finish(self) -> None:
        """Take the terminal sample (idempotent; call after the drain)."""
        if self._finished:
            return
        self._finished = True
        self._stopped = True
        self.sample(self.env.now)

    # -- one tick --------------------------------------------------------------

    def sample(self, now: float) -> None:
        """Diff the registry against the previous tick and record."""
        rec = self.recorder
        reg = self.registry
        # Counters: windowed deltas.  Zero windows are skipped — the
        # time axis carries the sample times, so sparse series still
        # cumulate exactly.
        prev_c = self._prev_counters
        for name, value in reg.counters.items():
            value = float(value)
            delta = value - prev_c.get(name, 0.0)
            if delta != 0.0:
                rec.record(f"counter:{name}", "delta", now, delta)
                prev_c[name] = value
        # Gauges: level samples, recorded when the level moved.
        prev_g = self._prev_gauges
        for name, value in reg.gauges.items():
            value = float(value)
            if prev_g.get(name) != value:
                rec.record(f"gauge:{name}", "level", now, value)
                prev_g[name] = value
        # Spans: windowed busy time (delta of the aggregate total).
        prev_s = self._prev_spans
        for name, agg in reg.spans.items():
            count, total = float(agg[0]), float(agg[1])
            pc, pt = prev_s.get(name, (0.0, 0.0))
            if total != pt or count != pc:
                rec.record(f"span:{name}", "rate", now, total - pt)
                prev_s[name] = (count, total)
        # Per-probe overhead attribution.
        if self.probe_stats is not None:
            prev_p = self._prev_probes
            for name, pairs, inclusive, overhead in self.probe_stats():
                delta = overhead - prev_p.get(name, 0.0)
                if delta != 0.0:
                    rec.record(f"probe:{name}", "delta", now, delta)
                    prev_p[name] = overhead
                rec.probes[name] = {
                    "count": pairs,
                    "time": inclusive,
                    "overhead": overhead,
                }
        rec.samples += 1
        # Meta-observability: the sampler's own tick count, visible in
        # the very registry it samples (the next window sees it as a
        # one-event delta — honest, and a useful liveness signal in the
        # exported series).
        reg.inc("obs.sampler_ticks")


# -- document helpers ------------------------------------------------------------


def series_rows(doc: Dict[str, Any]) -> Iterator[Tuple[str, str, float, float]]:
    """Yield ``(series, kind, t, value)`` rows from a recorder snapshot."""
    for name in sorted(doc.get("series", {})):
        sdoc = doc["series"][name]
        times, values = decode_series(sdoc)
        for t, v in zip(times, values):
            yield (name, sdoc["kind"], t, v)


def timeseries_to_csv(docs: Dict[str, Dict[str, Any]]) -> str:
    """Long-format CSV of per-label recorder snapshots."""
    lines = ["label,series,kind,t,value"]
    for label in sorted(docs):
        for name, kind, t, v in series_rows(docs[label]):
            lines.append(f"{label},{name},{kind},{t!r},{v!r}")
    return "\n".join(lines) + "\n"


#: Series that constitute instrumentation overhead, beyond the
#: per-probe event costs: trace-buffer flushes and dynprof patch
#: windows (the perturbation taxonomy of repro.obs.analysis).
OVERHEAD_SPAN_SERIES = ("span:vt.flush", "span:dynprof.patch")


def overhead_series(doc: Dict[str, Any]) -> Tuple[List[float], List[float]]:
    """The cumulative instrumentation-overhead curve of one snapshot.

    Merges every ``probe:*`` delta series with the overhead span series
    (:data:`OVERHEAD_SPAN_SERIES`) into one time-ordered cumulative sum
    of instrumentation seconds.  Returns ``(times, cumulative)``.
    """
    points: List[Tuple[float, float]] = []
    for name, sdoc in doc.get("series", {}).items():
        if name.startswith("probe:") or name in OVERHEAD_SPAN_SERIES:
            times, values = decode_series(sdoc)
            points.extend(zip(times, values))
    points.sort(key=lambda p: p[0])
    times: List[float] = []
    cumulative: List[float] = []
    running = 0.0
    for t, v in points:
        running += v
        if times and times[-1] == t:
            cumulative[-1] = running
        else:
            times.append(t)
            cumulative.append(running)
    return times, cumulative
