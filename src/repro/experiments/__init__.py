"""repro.experiments — the harness regenerating every table and figure.

* :func:`run_fig7` / panels a-d — execution time under the Table 3
  policies (Section 4.3);
* :func:`run_fig8a` / :func:`run_fig8b` / :func:`run_fig8c` —
  VT_confsync costs (Section 5);
* :func:`run_fig9` — dynprof's time to create and instrument
  (Section 5.1);
* :func:`render_table1` / 2 / 3 — the paper's tables, generated from
  the live implementation;
* :mod:`~repro.experiments.cli` — the ``repro-experiments`` entry point.

Each name loads its module on first use.  The figure modules only
build sweep grids and read payloads back; the simulations their points
run live in :mod:`~repro.experiments.measure` and
:mod:`repro.dynprof.policies`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".results": ("FigureResult", "Series"),
    ".fig7": ("run_fig7", "fig7_shape_report", "FIG7_PANELS"),
    ".fig8": ("run_fig8a", "run_fig8b", "run_fig8c", "IBM_PROC_COUNTS",
              "IA32_PROC_COUNTS"),
    ".fig9": ("run_fig9",),
    ".measure": ("measure_confsync", "measure_create_and_instrument"),
    ".tables": ("render_table1", "render_table2", "render_table3"),
    ".tracevol": ("run_tracevol", "render_tracevol", "TraceVolumeRow"),
    ".overhead": ("run_overhead_timeline", "OverheadTimeline"),
})
