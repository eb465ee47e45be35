"""repro.vt — the Vampirtrace/Guidetrace instrumentation library analog.

Implements the complete-profiling trace library of VGV: per-thread trace
buffers and records, the configuration file with its deactivation table
(Full-Off/Subset policies), the per-call cost model, dynamic VT probe
snippets, the MPI wrapper interface, runtime statistics, and
``VT_confsync`` — the dynamic-control synchronisation API of Section 5.
"""

from .buffer import DEFAULT_RECORD_BYTES, ThreadTraceBuffer, TraceFile
from .config import VTConfig, VTConfigError
from .confsync import vt_confsync
from .mpiwrap import VTMpiWrapper
from .probes import BEGIN, END, VTProbeSnippet
from .records import (
    BatchPairRecord,
    CollectiveRecord,
    EnterRecord,
    LeaveRecord,
    MarkerRecord,
    MsgRecord,
    TraceRecord,
)
from .state import FunctionRegistry, FunctionStats, VTProcessState
from .tracefile_io import (
    load_trace,
    load_trace_compact,
    save_trace,
    save_trace_compact,
)

__all__ = [
    "VTConfig",
    "VTConfigError",
    "VTProcessState",
    "FunctionRegistry",
    "FunctionStats",
    "ThreadTraceBuffer",
    "TraceFile",
    "VTProbeSnippet",
    "BEGIN",
    "END",
    "VTMpiWrapper",
    "vt_confsync",
    "save_trace",
    "load_trace",
    "save_trace_compact",
    "load_trace_compact",
    "DEFAULT_RECORD_BYTES",
    "TraceRecord",
    "EnterRecord",
    "LeaveRecord",
    "BatchPairRecord",
    "MsgRecord",
    "CollectiveRecord",
    "MarkerRecord",
]
