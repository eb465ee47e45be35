"""repro.svc — sweep-as-a-service.

The service layer generalizes the sweep runner's two hard-wired
choices (one local process pool, one directory cache) into pluggable
protocols:

* :mod:`repro.svc.backends` — the :class:`CacheBackend` protocol, met
  by the runner's directory :class:`~repro.runner.cache.ResultCache`
  and by memory, SQLite (WAL) and HTTP (read-through / write-behind)
  stores;
* :mod:`repro.svc.executors` — the :class:`ExecutorBackend` protocol:
  in-process serial, process pool, and a socket server that feeds
  ``repro worker`` processes on any host;
* :mod:`repro.svc.httpcache` — the ``repro serve-cache`` daemon;
* :mod:`repro.svc.worker` — the ``repro worker`` pull client;
* :mod:`repro.svc.wire` — length-prefixed JSON framing shared by all
  of the above.

Every backend produces bit-identical figure output (the envelopes come
from the same :func:`~repro.runner.worker.execute_point` everywhere);
CLI-level equivalence tests pin that, the same discipline obs, trace
and faults established.  See ``docs/service.md``.

Each name loads its module on first use: a run loads the executor and
the store it uses, never the cache daemon's HTTP server.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".backends": ("CacheBackend", "MemoryBackend", "SqliteBackend",
                  "HttpBackend", "make_cache_backend"),
    ".executors": ("ExecSpec", "ExecutorBackend", "SerialBackend",
                   "ProcessPoolBackend", "SocketWorkerBackend",
                   "make_executor_backend"),
    ".httpcache": ("CacheDaemon", "serve_cache"),
    ".worker": ("run_worker", "fetch_stats"),
})
