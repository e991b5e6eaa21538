"""`ServerClient` opt-in retry policy against a scripted stub server.

The stub speaks just enough HTTP to script status sequences
(503, 503, 200, ...), slow answers and reaped connections, and counts
attempts, so the tests pin down exactly which statuses retry, that
``Retry-After`` is honoured, that the default client (``retries=0``)
behaves as before, and that no request is sent twice after a timeout.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.server.client import ServerClient, ServerError


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _respond(self):
        server = self.server
        with server.lock:
            server.attempts += 1
            status = server.script[min(server.attempts - 1, len(server.script) - 1)]
        if server.delay:
            time.sleep(server.delay)
        if status == 200:
            body = json.dumps({"ok": True, "attempts": server.attempts}).encode()
        else:
            body = json.dumps(
                {"error": {"code": "scripted", "message": f"scripted {status}"}}
            ).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status in (429, 503):
            self.send_header("Retry-After", "0")
        self.end_headers()
        self.wfile.write(body)
        # Reap the keep-alive connection without telling the client.
        self.close_connection = server.reap

    do_GET = _respond
    do_POST = _respond

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass


@pytest.fixture()
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = [200]
    server.attempts = 0
    server.delay = 0.0
    server.reap = False
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _client(stub, **kwargs):
    return ServerClient(port=stub.server_address[1], timeout=10.0, **kwargs)


class TestRetryPolicy:
    def test_retries_503_until_success(self, stub):
        stub.script = [503, 503, 200]
        with _client(stub, retries=3) as client:
            body = client.stats()
        assert body["ok"] is True
        assert stub.attempts == 3

    def test_retries_429_until_success(self, stub):
        stub.script = [429, 200]
        with _client(stub, retries=3) as client:
            assert client.stats()["ok"] is True
        assert stub.attempts == 2

    def test_gives_up_after_budget(self, stub):
        stub.script = [503]
        with _client(stub, retries=2) as client:
            with pytest.raises(ServerError) as exc_info:
                client.stats()
        assert exc_info.value.status == 503
        assert stub.attempts == 3  # initial + 2 retries

    def test_default_client_never_retries_statuses(self, stub):
        stub.script = [503, 200]
        with _client(stub) as client:
            with pytest.raises(ServerError):
                client.stats()
        assert stub.attempts == 1

    def test_non_transient_statuses_never_retry(self, stub):
        stub.script = [500, 200]
        with _client(stub, retries=3) as client:
            with pytest.raises(ServerError) as exc_info:
                client.stats()
        assert exc_info.value.status == 500
        assert stub.attempts == 1

    def test_504_never_retries(self, stub):
        """A 504 means a planning budget was truly blown; retrying would
        blow it again and double the server's wasted work."""
        stub.script = [504, 200]
        with _client(stub, retries=3) as client:
            with pytest.raises(ServerError) as exc_info:
                client.stats()
        assert exc_info.value.status == 504
        assert stub.attempts == 1

    def test_server_error_carries_retry_after(self, stub):
        stub.script = [503]
        with _client(stub) as client:
            with pytest.raises(ServerError) as exc_info:
                client.stats()
        assert exc_info.value.retry_after == 0.0

    def test_retry_after_bounds_the_sleep(self, stub, monkeypatch):
        """The server hint (0s here) overrides exponential backoff, so
        the retry loop must not sleep a computed backoff instead."""
        sleeps = []
        monkeypatch.setattr(
            "repro.server.client.time.sleep", lambda s: sleeps.append(s)
        )
        stub.script = [503, 200]
        with _client(stub, retries=1, backoff_base=5.0, backoff_cap=60.0) as client:
            assert client.stats()["ok"] is True
        assert sleeps == []  # Retry-After: 0 → no sleep at all

    def test_connection_errors_retry(self, stub):
        """A connect refusal is transient from the policy's viewpoint:
        with no listener the client must raise only after its budget."""
        port = stub.server_address[1]
        stub.shutdown()
        stub.server_close()
        with ServerClient(port=port, timeout=0.5, retries=2,
                          backoff_base=0.01, backoff_cap=0.02) as client:
            with pytest.raises(OSError):
                client.stats()


class TestNoResendAfterTimeout:
    """A timed-out request may be in the server's hands: the client must
    not send it again (a ``/stats_update`` would be applied twice)."""

    TIMEOUT = 0.3

    @pytest.mark.parametrize("retries", [0, 2])
    def test_a_timeout_is_raised_after_one_request(self, stub, retries):
        with ServerClient(port=stub.server_address[1], timeout=self.TIMEOUT,
                          retries=retries, backoff_base=0.01) as client:
            client.stats()  # the next call reuses this connection
            stub.delay = 1.0
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.stats()
            elapsed = time.monotonic() - started
        assert elapsed < 2 * self.TIMEOUT  # one timeout, not two
        time.sleep(2 * stub.delay)  # anything sent again would have arrived
        assert stub.attempts == 2  # the first call and one send of the second

    def test_a_reaped_keep_alive_connection_is_reopened_once(self, stub):
        stub.reap = True
        with _client(stub) as client:
            assert client.stats()["attempts"] == 1
            # the server closed that connection after answering
            assert client.stats()["attempts"] == 2
        assert stub.attempts == 2
