"""Live metrics publication for long-running sessions (DESIGN.md §5.8).

End-of-run export (``--metrics-out``) is useless for a service that
never ends.  This module publishes the observability registry *while
the session runs*, in the two standard Prometheus ingestion shapes:

* :class:`TextfilePublisher` — atomically rewrites a ``.prom`` text
  file on every publication (node_exporter textfile-collector style);
* :class:`MetricsServer` — a background HTTP endpoint serving the
  current exposition on ``GET /metrics`` (direct-scrape style).

Both consume the deterministic Prometheus exposition of
:meth:`~repro.observability.registry.MetricsRegistry.to_prometheus`;
publication cadence is driven by the session loop (simulated-time
boundaries), so the *sequence* of published snapshots is reproducible
even though wall-clock scrape times are not.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SimulationEngine

__all__ = [
    "TextfilePublisher",
    "MetricsServer",
    "parse_metrics_addr",
    "combine_publishers",
]


def _exposition(engine: "SimulationEngine", include_wall: bool) -> str:
    obs = engine.observability
    if obs is None:
        return ""
    return obs.to_prometheus(include_wall=include_wall)


class TextfilePublisher:
    """Callable publisher writing the exposition to a text file.

    The write is atomic (tmp + rename): a scraper never reads a torn
    half-snapshot, and a crash leaves the previous complete file.
    """

    def __init__(self, path: str | Path, *, include_wall: bool = False) -> None:
        self.path = Path(path)
        self.include_wall = include_wall
        self.publications = 0

    def __call__(self, engine: "SimulationEngine") -> None:
        text = _exposition(engine, self.include_wall)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(text)
        tmp.replace(self.path)
        self.publications += 1


def _handler_class() -> type:
    """The ``/metrics`` request handler.  Defined on first use, so that
    importing this module (every run does) does not load
    :mod:`http.server` and its dependencies; only a served endpoint
    pays for them."""
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        # The exposition provider is installed on the server instance.
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            if self.path.split("?", 1)[0] != "/metrics":
                self.send_error(404, "only /metrics is served")
                return
            body = self.server.exposition().encode()  # type: ignore[attr-defined]
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass  # scrape logging is noise on a long-lived service

    return Handler


class MetricsServer:
    """Background ``GET /metrics`` endpoint over the latest snapshot.

    The session loop publishes by calling the server (it is a publisher
    like :class:`TextfilePublisher`); the handler serves the most
    recently published exposition, so scrapes never touch live engine
    state from another thread.
    """

    def __init__(self, host: str, port: int, *, include_wall: bool = False) -> None:
        from http.server import ThreadingHTTPServer

        self.include_wall = include_wall
        self._lock = threading.Lock()
        self._text = ""
        self._httpd = ThreadingHTTPServer((host, port), _handler_class())
        self._httpd.daemon_threads = True
        self._httpd.exposition = self._current  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def _current(self) -> str:
        with self._lock:
            return self._text

    def __call__(self, engine: "SimulationEngine") -> None:
        text = _exposition(engine, self.include_wall)
        with self._lock:
            self._text = text

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)


def parse_metrics_addr(addr: str) -> tuple[str, int]:
    """Parse ``host:port`` (``:port`` binds all interfaces)."""
    host, sep, port = addr.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected host:port, got {addr!r}")
    return host or "0.0.0.0", int(port)


def combine_publishers(
    *publishers: Callable[["SimulationEngine"], None],
) -> Callable[["SimulationEngine"], None] | None:
    """Fold multiple publishers into one session callback."""
    active = [p for p in publishers if p is not None]
    if not active:
        return None
    if len(active) == 1:
        return active[0]

    def publish(engine: "SimulationEngine") -> None:
        for p in active:
            p(engine)

    return publish
