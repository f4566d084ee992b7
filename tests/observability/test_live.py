"""Live metrics publication: the ``GET /metrics`` endpoint and what
importing the package costs."""

import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.observability.live import MetricsServer


def published(text):
    """A stand-in engine whose registry renders ``text``."""
    return SimpleNamespace(
        observability=SimpleNamespace(to_prometheus=lambda include_wall: text)
    )


def get(server, path):
    port = server.address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as resp:
        return resp.status, resp.read().decode()


@pytest.fixture
def server():
    srv = MetricsServer("127.0.0.1", 0)
    yield srv
    srv.close()


class TestMetricsServer:
    def test_serves_last_published_exposition(self, server):
        assert get(server, "/metrics") == (200, "")
        server(published("repro_first 1\n"))
        server(published("repro_second 2\n"))
        assert get(server, "/metrics") == (200, "repro_second 2\n")
        assert get(server, "/metrics?x=1") == (200, "repro_second 2\n")

    def test_other_paths_are_404(self, server):
        server(published("repro_up 1\n"))
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/")
        assert err.value.code == 404

    def test_close_stops_the_thread(self):
        srv = MetricsServer("127.0.0.1", 0)
        assert srv._thread.is_alive()
        srv.close()
        srv._thread.join(timeout=5)
        assert not srv._thread.is_alive()


def test_import_leaves_server_modules_unloaded():
    """``http.server`` loads only when an endpoint is built, and
    ``multiprocessing`` only for a parallel sweep."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, repro, repro.service\n"
        "print(sorted(m for m in ('http.server', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
