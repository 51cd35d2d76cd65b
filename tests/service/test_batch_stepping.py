"""Digest parity for micro-batched stepping, manager- and wire-level.

The contract: coalescing concurrent ``/step`` calls into per-market
sweeps is *pure execution policy*.  For every coalesce window, in
process and over HTTP, each session's step-reply trace and final checkpoint
digest must be byte-identical to plain serial stepwise execution.
"""

import json
import threading

import pytest

from repro.service import (
    MarketPool,
    MarketSpec,
    SessionManager,
    SessionSpec,
)
from repro.service.server import MarketplaceServer

WINDOWS = [None, 0.001, 0.01]

MARKET_A = MarketSpec(dataset="synthetic", seed=0)
MARKET_B = MarketSpec(dataset="synthetic", seed=1)

#: Mixed-market workload: two digests interleaved, several runs each.
SESSION_SPECS = [
    SessionSpec(market=market, seed=0, run=run)
    for run in range(3)
    for market in (MARKET_A, MARKET_B)
]


@pytest.fixture(scope="module")
def pool():
    pool = MarketPool()
    pool.get(MARKET_A)
    pool.get(MARKET_B)
    return pool


def _canon(reply: dict) -> str:
    # Session ids are allocation-order bookkeeping (concurrent opens
    # race for them); everything else must match bit-for-bit.
    return json.dumps(
        {k: v for k, v in reply.items() if k != "session"}, sort_keys=True
    )


def _drive_manager(manager, session_id):
    """Step one session to completion; its reply trace + state digest."""
    trace = []
    while True:
        reply = manager.step(session_id)
        trace.append(_canon(reply))
        if reply["done"]:
            break
    return trace, manager.checkpoint(session_id)["digest"]


@pytest.fixture(scope="module")
def baseline(pool):
    """Serial stepwise execution, no coalescing: the reference traces."""
    manager = SessionManager(pool=pool)
    out = []
    for spec in SESSION_SPECS:
        out.append(_drive_manager(manager, manager.open_session(spec)))
    return out


def _parallel_drive(fn, count):
    """Run ``fn(i)`` in ``count`` threads after a common barrier."""
    results: list = [None] * count
    errors: list = []
    barrier = threading.Barrier(count)

    def work(i):
        try:
            barrier.wait(timeout=10.0)
            results[i] = fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    if errors:
        raise errors[0]
    return results


class TestManagerParity:
    @pytest.mark.parametrize("window", WINDOWS,
                             ids=["off", "1ms", "10ms"])
    def test_concurrent_mixed_markets_bit_identical(
        self, pool, baseline, window
    ):
        manager = SessionManager(pool=pool, coalesce_window=window)
        sids = [manager.open_session(spec) for spec in SESSION_SPECS]
        got = _parallel_drive(
            lambda i: _drive_manager(manager, sids[i]), len(sids)
        )
        assert got == baseline
        batching = manager.report()["batching"]
        if window is None:
            assert batching["window"] is None
            assert batching["sweeps"] == 0
        else:
            assert batching["window"] == window
            assert batching["sweeps"] >= 1

    def test_wide_window_actually_coalesces(self, pool, baseline):
        """With a generous window, barrier-released steppers must land
        in shared sweeps — this pins that the batching layer engages,
        not just that it is harmless."""
        manager = SessionManager(pool=pool, coalesce_window=0.05)
        sids = [manager.open_session(spec) for spec in SESSION_SPECS]
        got = _parallel_drive(
            lambda i: _drive_manager(manager, sids[i]), len(sids)
        )
        assert got == baseline
        batching = manager.report()["batching"]
        assert batching["coalesced"] >= 2
        assert batching["largest_sweep"] >= 2


def _drive_wire(transport, spec_dict):
    """Open/step/checkpoint one session over HTTP; trace + digest."""
    status, opened = transport.request("POST", "/v1/sessions",
                                       body=spec_dict)
    assert status == 201, opened
    sid = opened["session"]
    trace = []
    while True:
        status, reply = transport.request(
            "POST", f"/v1/sessions/{sid}/step"
        )
        assert status == 200, reply
        trace.append(_canon(reply))
        if reply["done"]:
            break
    status, state = transport.request("GET", f"/v1/sessions/{sid}/state")
    assert status == 200, state
    return trace, state["digest"]


def _wire_specs():
    return [
        {
            "market": spec.market.to_dict(),
            "seed": spec.seed,
            "run": spec.run,
        }
        for spec in SESSION_SPECS
    ]


@pytest.mark.parametrize("window", WINDOWS, ids=["off", "1ms", "10ms"])
class TestWireParity:
    def test_concurrent_steps_match_serial_baseline(
        self, pool, baseline, window
    ):
        from repro.client import HttpTransport

        manager = SessionManager(pool=pool, coalesce_window=window)
        server = MarketplaceServer(
            port=0, manager=manager, eviction_interval=0
        )
        url = "http://%s:%s" % server.start_background()
        specs = _wire_specs()
        try:
            got = _parallel_drive(
                lambda i: _drive_wire(HttpTransport(url), specs[i]),
                len(specs),
            )
            assert got == baseline
        finally:
            server.shutdown(timeout=10.0)
