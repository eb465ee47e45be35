"""repro.analysis — postmortem trace analysis (the headless VGV).

Rebuilds the VGV data model from trace files: the time-line display
(process/thread bars, function intervals, messages, inactivity), the
GuideView-style per-function profile (with optional exclusion of
suspension periods, Section 5.1), and trace-volume reports.
"""

from .profileview import FunctionProfile, ProfileView
from .report import (
    render_obs_report,
    render_profile,
    render_timeline,
    render_trace_report,
)
from .svg_export import save_timeline_html, timeline_to_svg
from .timeline import (
    InactivityPeriod,
    Interval,
    Message,
    Timeline,
    TimelineBar,
)

__all__ = [
    "Timeline",
    "TimelineBar",
    "Interval",
    "Message",
    "InactivityPeriod",
    "ProfileView",
    "FunctionProfile",
    "render_timeline",
    "render_profile",
    "render_trace_report",
    "render_obs_report",
    "timeline_to_svg",
    "save_timeline_html",
]
