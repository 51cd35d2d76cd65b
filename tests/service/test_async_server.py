"""Event-loop behaviour of the HTTP server: protocol, drain, eviction.

The wire contract (envelopes, body limits, pagination) lives in
``test_v1_protocol.py``; this file pins the behaviours the event loop
owns — keep-alive, streaming on threads of their own, the 503 drain
refusal, and the idle-eviction sweep that must run without any
``open_session`` traffic.
"""

import http.client
import json
import time

import pytest

from repro.jobs import JobStore, ShardedExecutor
from repro.service import (
    JobService,
    MarketPool,
    MarketSpec,
    SessionManager,
    SimulationSpec,
)
from repro.service.server import MarketplaceServer

SPEC = MarketSpec(dataset="synthetic", seed=0)
SPEC_DICT = {"dataset": "synthetic", "seed": 0}


@pytest.fixture(scope="module")
def pool():
    pool = MarketPool()
    pool.get(SPEC)
    return pool


@pytest.fixture(scope="module")
def service(pool, tmp_path_factory):
    store = JobStore(
        str(tmp_path_factory.mktemp("async-server") / "jobs.sqlite3")
    )
    server = MarketplaceServer(
        port=0,
        manager=SessionManager(pool=pool),
        jobs=JobService(store, shards=1),
        eviction_interval=0,
    )
    host, port = server.start_background()
    yield {"server": server, "host": host, "port": port}
    server.shutdown(timeout=10.0)


def _call(service, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(
        service["host"], service["port"], timeout=30
    )
    try:
        blob = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=blob, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw.decode()) if raw else {}
        return response.status, payload, dict(response.getheaders())
    finally:
        conn.close()


def _unstarted_job(tmp_path):
    """A recorded job that nothing runs: its event stream stays open."""
    store = JobStore(str(tmp_path / "jobs.sqlite3"))
    record = ShardedExecutor(store, shards=1).submit(
        SimulationSpec(sessions=16, seed=0)
    )
    return store, record.job_id


class TestProtocol:
    def test_health_and_session_lifecycle(self, service):
        status, payload, _ = _call(service, "GET", "/v1/healthz")
        assert status == 200 and payload["ok"]

        status, opened, _ = _call(
            service, "POST", "/v1/sessions",
            body={"market": SPEC_DICT, "seed": 0},
        )
        assert status == 201
        sid = opened["session"]
        status, stepped, _ = _call(
            service, "POST", f"/v1/sessions/{sid}/step",
            body={"until_done": True},
        )
        assert status == 200 and stepped["done"]
        status, _, _ = _call(service, "DELETE", f"/v1/sessions/{sid}")
        assert status == 200

    def test_keep_alive_carries_multiple_requests(self, service):
        conn = http.client.HTTPConnection(
            service["host"], service["port"], timeout=30
        )
        try:
            for _ in range(3):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                assert not response.will_close
        finally:
            conn.close()

    def test_unknown_route_is_404_envelope(self, service):
        status, payload, _ = _call(service, "GET", "/v1/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_legacy_get_redirects_post_is_gone(self, service):
        status, payload, headers = _call(service, "GET", "/health")
        assert status == 301
        assert headers["Location"] == "/v1/health"
        assert payload["error"]["code"] == "moved"
        status, payload, _ = _call(service, "POST", "/sessions", body={})
        assert status == 410
        assert payload["error"]["detail"]["location"] == "/v1/sessions"

    def test_malformed_json_body_is_400(self, service):
        conn = http.client.HTTPConnection(
            service["host"], service["port"], timeout=30
        )
        try:
            conn.request("POST", "/v1/markets", body=b"{nope",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read().decode())
            assert response.status == 400
            assert payload["error"]["code"] == "invalid_request"
        finally:
            conn.close()

    def test_oversized_content_length_is_413(self, service):
        status, payload, _ = _call(
            service, "POST", "/v1/markets",
            headers={"Content-Length": str(64 * 1024 * 1024)},
        )
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"

    def test_chunked_body_is_411(self, service):
        status, payload, _ = _call(
            service, "POST", "/v1/markets",
            headers={"Transfer-Encoding": "chunked"},
        )
        assert status == 411
        assert payload["error"]["code"] == "length_required"

    def test_job_events_stream(self, service):
        status, job, _ = _call(
            service, "POST", "/v1/simulations",
            body={"sessions": 16, "seed": 0, "shards": 1},
        )
        assert status == 202, job
        job_id = job["job"]
        conn = http.client.HTTPConnection(
            service["host"], service["port"], timeout=60
        )
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == (
                "application/x-ndjson"
            )
            events = [
                json.loads(line) for line in response if line.strip()
            ]
        finally:
            conn.close()
        assert events, "stream produced no events"
        assert events[-1]["event"] == "end"
        assert events[-1]["status"] == "done"
        assert "digest" in events[-1]


class TestDrain:
    def test_draining_refuses_with_retry_after(self, pool):
        server = MarketplaceServer(
            port=0, manager=SessionManager(pool=pool), eviction_interval=0
        )
        service = dict(zip(("host", "port"), server.start_background()))
        try:
            status, payload, _ = _call(service, "GET", "/v1/health")
            assert status == 200
            server.draining = True
            status, payload, headers = _call(service, "GET", "/v1/health")
            assert status == 503
            assert payload["error"]["code"] == "draining"
            assert headers["Retry-After"] == "1"
            assert "close" in headers.get("Connection", "").lower()
        finally:
            server.draining = False
            server.shutdown(timeout=10.0)

    def test_shutdown_stops_accepting(self, pool):
        server = MarketplaceServer(
            port=0, manager=SessionManager(pool=pool), eviction_interval=0
        )
        service = dict(zip(("host", "port"), server.start_background()))
        assert _call(service, "GET", "/v1/health")[0] == 200
        server.shutdown(timeout=10.0)
        with pytest.raises(OSError):
            _call(service, "GET", "/v1/health")

    def test_open_event_stream_does_not_hold_the_drain(self, pool, tmp_path):
        """A stream is not in-flight work: the drain must not wait out
        ``drain_timeout`` (or the stream's own deadline) for it."""
        store, job_id = _unstarted_job(tmp_path)
        server = MarketplaceServer(
            port=0, manager=SessionManager(pool=pool),
            jobs=JobService(store, shards=1), eviction_interval=0,
            drain_timeout=20.0,
        )
        host, port = server.start_background()
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events?timeout=20")
            response = conn.getresponse()
            assert json.loads(response.readline())["event"] == "progress"
            start = time.monotonic()
            server.shutdown(timeout=30.0)
            assert time.monotonic() - start < 5.0
        finally:
            conn.close()


class TestPeriodicEviction:
    def test_async_sweeper_evicts_without_open_session(self, pool):
        """Regression: idle sessions used to be reaped only from inside
        ``open_session`` — a quiet server leaked them forever."""
        manager = SessionManager(pool=pool, idle_ttl=0.05)
        server = MarketplaceServer(
            port=0, manager=manager, eviction_interval=0.05
        )
        service = dict(zip(("host", "port"), server.start_background()))
        try:
            status, opened, _ = _call(
                service, "POST", "/v1/sessions",
                body={"market": SPEC_DICT, "seed": 0},
            )
            assert status == 201
            sid = opened["session"]
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if sid not in manager.session_ids():
                    break
                time.sleep(0.02)
            assert sid not in manager.session_ids()
            assert manager.report()["sessions"]["evicted"] >= 1
        finally:
            server.shutdown(timeout=10.0)

    def test_sweeper_disabled_interval_zero(self, pool):
        manager = SessionManager(pool=pool, idle_ttl=0.01)
        server = MarketplaceServer(
            port=0, manager=manager, eviction_interval=0
        )
        service = dict(zip(("host", "port"), server.start_background()))
        try:
            status, opened, _ = _call(
                service, "POST", "/v1/sessions",
                body={"market": SPEC_DICT, "seed": 0},
            )
            assert status == 201
            time.sleep(0.05)
            assert opened["session"] in manager.session_ids()  # no sweep
        finally:
            server.shutdown(timeout=10.0)

    def test_server_without_idle_ttl_has_no_sweeper(self, pool):
        server = MarketplaceServer(
            port=0, manager=SessionManager(pool=pool)  # nothing to sweep
        )
        assert server.eviction_interval == 0
        derived = MarketplaceServer(
            port=0, manager=SessionManager(pool=pool, idle_ttl=100.0)
        )
        assert derived.eviction_interval == 50.0


class TestEventStreams:
    def test_open_streams_leave_the_handler_pool_free(self, pool, tmp_path):
        """Regression: each stream's blocking ``next()`` ran on the
        handler pool, so ``workers`` streams on an unfinished job held
        every worker and pooled requests waited for a stream to end."""
        store, job_id = _unstarted_job(tmp_path)
        server = MarketplaceServer(
            port=0, manager=SessionManager(pool=pool),
            jobs=JobService(store, shards=1), workers=2,
            eviction_interval=0,
        )
        host, port = server.start_background()
        streams = []
        try:
            for _ in range(server.workers):
                conn = http.client.HTTPConnection(host, port, timeout=30)
                streams.append(conn)
                conn.request("GET", f"/v1/jobs/{job_id}/events?timeout=2")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.readline())["event"] == "progress"
            start = time.monotonic()
            status, _, _ = _call(
                {"host": host, "port": port}, "GET", "/v1/jobs"
            )
            assert status == 200
            assert time.monotonic() - start < 1.0
        finally:
            for conn in streams:
                conn.close()
            server.shutdown(timeout=10.0)
