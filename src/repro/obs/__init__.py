"""repro.obs — metrics and span tracing for the simulator itself.

The paper's thesis is that observing a running parallel program must be
cheap and toggleable at runtime; the same constraint applies to
observing this simulator.  ``repro.obs`` is a process-local metrics
registry (counters, gauges, fixed-bucket histograms) plus lightweight
span tracing of simulator phases (MPI wire time, VT buffer flushes,
dynprof patch windows), both fed by the one :mod:`repro.obs.tap`.
When observation is off — the default — the tap is the shared
:data:`OFF` object and every hook site pays exactly one attribute check.

Enabling is explicit, scoped and capture-at-construction::

    from repro import obs

    with obs.collecting() as registry:
        env = Environment()          # built under the live registry
        ... run a simulation ...
    doc = registry.snapshot()        # JSON-safe metrics document

The sweep runner exposes the same mechanism per point
(``SweepRunner(collectors=[MetricsCollector()])``), and the CLI as
``repro-experiments ... --obs metrics.json``.  Observation never
perturbs the simulation: no costs, no RNG draws, no events — figure
outputs are bit-identical with it on or off (pinned by tests).

:mod:`repro.obs.trace` is the causal sibling of the metrics registry:
per-(rank, thread) event tracks with spans, instants and flow edges in
bounded ring buffers, installed into the same tap
(``trace.tracing()`` / a ``TraceCollector`` on the runner / the CLI's
``--trace DIR``).  :mod:`repro.obs.export` turns a trace document into
Chrome trace-event JSON (Perfetto-loadable) or a static SVG timeline;
:mod:`repro.obs.analysis` extracts per-track utilization, the critical
path over the span + flow-edge DAG, and the perturbation-attribution
report.

:mod:`repro.obs.timeseries` adds the time dimension: a
``MetricsSampler`` simt process samples the live registry at a
configurable simulated-time interval into bounded, delta-encoded
per-metric series (``timeseries.sampling()`` / ``--obs-sample SEC`` on
the CLI), with per-probe overhead attribution for the dynamic
policies.  :mod:`repro.obs.prom` renders any snapshot in Prometheus
text exposition format (``obs report --prom``).

See ``docs/observability.md`` for the metric name catalogue and
``docs/tracing.md`` for the trace event model.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".registry": ("MetricsRegistry", "Histogram", "get", "collecting",
                  "merge_snapshots"),
    ".tap": ("OFF", "Tap"),
    ".trace": ("trace",),
    ".timeseries": ("timeseries",),
    ".prom": ("prom",),
})
