"""Doc-drift guard: the metric catalogue in docs/observability.md and
the ``obs.*`` / ``svc.*`` / ``vt.*`` metrics the source actually emits
must stay in lockstep, both directions.

Source side: every registry call site (``.inc`` / ``.gauge_set`` /
``.gauge_max`` / ``.observe`` / ``.span``) whose name literal starts
with one of the guarded prefixes.  Doc side: every `` `name` `` row of
the catalogue tables with a guarded prefix.  Dynamic f-string segments
(``{event}``...) normalise to ``<>`` on both sides, so
``svc.cache.<backend>.<event>`` in the docs matches
``svc.cache.{self.backend_name}.{event}`` in the code.
"""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src"
DOC = REPO / "docs" / "observability.md"

GUARDED = ("obs.", "svc.", "vt.")

#: Registry emission call sites with a literal (or f-string) name as
#: the first argument.
_EMIT = re.compile(
    r"(?:\.inc|\.gauge_set|\.gauge_max|\.observe|\.span)"
    r"\(\s*f?\"([^\"]+)\""
)

#: A catalogue table row: | `name` | kind | ...
_DOC_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|", re.MULTILINE)

#: Any {placeholder} (code) or <placeholder> (docs) segment.
_CODE_DYNAMIC = re.compile(r"\{[^}]*\}")
_DOC_DYNAMIC = re.compile(r"<[^>]*>")

#: Names emitted through TraceFile record counting rather than the
#: registry: `trace.count(...)` events, documented in the trace-format
#: docs, not the metrics catalogue.
_TRACE_COUNTS = {"vt.probe_time", "vt.probe_events", "tramp.time"}


def emitted_metric_names():
    names = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for match in _EMIT.finditer(text):
            name = _CODE_DYNAMIC.sub("<>", match.group(1))
            if name.startswith(GUARDED):
                names.add(name)
    return names - _TRACE_COUNTS


def documented_metric_names():
    text = DOC.read_text(encoding="utf-8")
    names = set()
    for match in _DOC_ROW.finditer(text):
        name = _DOC_DYNAMIC.sub("<>", match.group(1))
        if name.startswith(GUARDED):
            names.add(name)
    return names


def test_every_emitted_metric_is_documented():
    missing = emitted_metric_names() - documented_metric_names()
    assert not missing, (
        "metrics emitted in src/ but absent from the docs/observability.md "
        f"catalogue: {sorted(missing)}"
    )


def test_every_documented_metric_is_emitted():
    stale = documented_metric_names() - emitted_metric_names()
    assert not stale, (
        "metrics documented in docs/observability.md but no longer emitted "
        f"anywhere in src/: {sorted(stale)}"
    )


def test_the_guard_actually_sees_both_sides():
    """A regex refactor that matches nothing would vacuously pass the
    two direction checks; pin a known name on each side instead."""
    emitted = emitted_metric_names()
    documented = documented_metric_names()
    assert "obs.sampler_ticks" in emitted
    assert "obs.sampler_ticks" in documented
    assert any(n.startswith("svc.") for n in emitted)
    assert any(n.startswith("vt.") for n in documented)
