"""The ``repro serve-cache`` daemon — a sweep-result cache over HTTP.

A deliberately small stdlib ``http.server`` wrapper around any
:class:`~repro.svc.backends.CacheBackend`, so several machines (or
several tenants on one machine) can share one content-addressed result
store.  Entries are immutable — the key is a hash of everything that
determines the payload — so the protocol needs no validators, ETags or
invalidation: a GET either returns the entry verbatim or 404s.

Routes::

    GET    /cache/<key>   entry JSON, or 404 on miss
    PUT    /cache/<key>   store entry JSON (body), 204
    DELETE /cache/<key>   drop one entry, 204
    GET    /stats         {"entries": N, "gets": ..., "puts": ..., ...}
    GET    /metrics       the same counters in Prometheus text exposition
    POST   /clear         {"cleared": N}
    GET    /healthz       "ok"

Keys must be 64 lowercase hex characters (a SHA-256 digest); anything
else is a 400.  Malformed PUT bodies are rejected with 400 — the daemon
never stores an entry :func:`~repro.runner.cache.validate_entry` would
later discard.
"""

from __future__ import annotations

import json
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from ..obs import prom
from ..runner.cache import validate_entry
from .backends import CacheBackend, MemoryBackend, make_cache_backend

__all__ = ["CacheDaemon", "serve_cache", "serve_cache_main", "DEFAULT_PORT"]

DEFAULT_PORT = 8750

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class _Handler(BaseHTTPRequestHandler):
    server: "CacheDaemon"  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _reply(self, status: int, doc: Any = None) -> None:
        body = b""
        if doc is not None:
            body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _key(self) -> Optional[str]:
        if not self.path.startswith("/cache/"):
            return None
        key = self.path[len("/cache/"):]
        return key if _KEY_RE.match(key) else None

    # -- verbs ----------------------------------------------------------------

    def do_GET(self) -> None:
        srv = self.server
        if self.path == "/healthz":
            self._reply(200, {"status": "ok"})
            return
        if self.path == "/stats":
            self._reply(200, srv.stats())
            return
        if self.path == "/metrics":
            self._reply_text(200, srv.metrics_text(), prom.CONTENT_TYPE)
            return
        key = self._key()
        if key is None:
            self._reply(400, {"error": "bad path or key"})
            return
        srv.count("gets")
        entry = srv.backend.get(key)
        if entry is None:
            self._reply(404, {"error": "miss"})
        else:
            self._reply(200, entry)

    def do_PUT(self) -> None:
        srv = self.server
        key = self._key()
        if key is None:
            self._reply(400, {"error": "bad path or key"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            entry = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "unparseable body"})
            return
        if not validate_entry(key, entry):
            self._reply(400, {"error": "malformed entry"})
            return
        srv.count("puts")
        srv.backend.put_entry(key, entry)
        self._reply(204)

    def do_DELETE(self) -> None:
        srv = self.server
        key = self._key()
        if key is None:
            self._reply(400, {"error": "bad path or key"})
            return
        srv.count("deletes")
        srv.backend.discard(key)
        self._reply(204)

    def do_POST(self) -> None:
        srv = self.server
        if self.path != "/clear":
            self._reply(404, {"error": "unknown route"})
            return
        srv.count("clears")
        self._reply(200, {"cleared": srv.backend.clear()})


class CacheDaemon(ThreadingHTTPServer):
    """The HTTP server plus its backing store and request counters."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple,
        backend: Optional[CacheBackend] = None,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.backend = backend if backend is not None else MemoryBackend()
        self.verbose = verbose
        self.counters: Dict[str, int] = {}
        self._counter_lock = threading.Lock()

    def count(self, name: str) -> None:
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + 1

    def stats(self) -> Dict[str, Any]:
        with self._counter_lock:
            doc: Dict[str, Any] = dict(self.counters)
        doc["entries"] = len(self.backend)  # type: ignore[arg-type]
        doc["backend"] = self.backend.stats()
        return doc

    def metrics_text(self) -> str:
        """The daemon's counters in Prometheus text exposition format.

        Request counters become ``repro_cache_<verb>_total``, the entry
        count a gauge, and any numeric backend stats gauges under
        ``repro_cache_backend_*`` — scrapable straight off
        ``GET /metrics`` with no client library on either side.
        """
        doc = self.stats()
        backend_stats = doc.pop("backend", {}) or {}
        entries = doc.pop("entries", 0)
        lines: List[str] = []
        for name in sorted(doc):
            value = doc[name]
            if not isinstance(value, (int, float)):
                continue
            fam = prom.sanitize_name(name, "repro_cache_") + "_total"
            lines.extend(prom.render_family(
                fam, "counter", f"cache daemon requests: {name}",
                [("", None, float(value))],
            ))
        lines.extend(prom.render_family(
            "repro_cache_entries", "gauge", "entries in the backing store",
            [("", None, float(entries))],
        ))
        for name in sorted(backend_stats):
            value = backend_stats[name]
            if not isinstance(value, (int, float)):
                continue
            fam = prom.sanitize_name(name, "repro_cache_backend_")
            lines.extend(prom.render_family(
                fam, "gauge", f"backing store stat: {name}",
                [("", None, float(value))],
            ))
        return "\n".join(lines) + "\n" if lines else ""

    def serve_in_thread(self) -> threading.Thread:
        """Run the daemon on a background thread (tests, embedded use)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-cache-daemon", daemon=True
        )
        thread.start()
        return thread


def serve_cache(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    backend: Optional[CacheBackend] = None,
    verbose: bool = False,
) -> CacheDaemon:
    """Bind a :class:`CacheDaemon`; ``port=0`` picks a free port."""
    return CacheDaemon((host, port), backend=backend, verbose=verbose)


def serve_cache_main(argv: Optional[List[str]] = None) -> int:
    """``repro-experiments serve-cache`` — run the cache daemon."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-experiments serve-cache",
        description="Serve a shared sweep-result cache over HTTP "
                    "(see docs/service.md).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port (default {DEFAULT_PORT}; 0 = pick)")
    parser.add_argument("--store", default="memory", metavar="SPEC",
                        help="backing store spec: memory (default), "
                             "dir:PATH, or sqlite:PATH")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    args = parser.parse_args(argv)

    if args.store.startswith("http://"):
        parser.error("--store cannot itself be an http backend")
    try:
        backend = make_cache_backend(args.store)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"repro-experiments: --store {args.store}: {exc}")
    daemon = serve_cache(args.host, args.port, backend=backend,
                         verbose=args.verbose)
    host, port = daemon.server_address[:2]
    print(f"repro cache daemon: serving {args.store} on http://{host}:{port}",
          flush=True)

    def _on_sigterm(signum: int, frame: object) -> None:
        # serve_forever() blocks the main thread, which is also where
        # this handler runs — calling daemon.shutdown() here would
        # deadlock (it joins the serving loop we are interrupting).
        # Raising instead unwinds serve_forever() into the same
        # graceful close path Ctrl-C takes.
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("repro cache daemon: shutdown signal received, closing",
              flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
        daemon.server_close()
        flush = getattr(backend, "flush", None)
        if callable(flush):
            # Write-behind stores drain their upload queue before close.
            flush()
        backend.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(serve_cache_main())
