"""The asyncio server under a client flood, plus coalesced wire parity.

A drill, not a ratio: ``REPRO_BENCH_PROCS`` asyncio load-generator
processes (``benchmarks/_serve_load.py``) drive ``REPRO_BENCH_CLIENTS``
total keep-alive connections against a real ``python -m repro serve``
subprocess, draining a fixed budget of ``REPRO_BENCH_SESSIONS`` full
sessions (open → step-per-round → delete).  Sessions use a
transport-bound market config (``n_price_samples=2, max_rounds=16``)
so the run exercises the serving path, not the engine.  The server is
then SIGTERMed.  Asserted: the whole session budget completes, no
connection fails, and the drain exits 0.  Sessions/s is recorded in
``benchmarks/results/async_serve.json``/``.csv`` for reference only —
there is no second server left to compare it against.

A second test pins the micro-batching contract: with
``--coalesce-window`` on, concurrent wire sessions produce state
digests byte-identical to serial stepwise execution in-process.
"""

import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

from conftest import run_once

from repro.experiments import write_csv

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
LOADGEN = os.path.join(HERE, "_serve_load.py")

FULL = os.environ.get("REPRO_FULL", "0") == "1"
PROCS = int(os.environ.get("REPRO_BENCH_PROCS", "8"))
CLIENTS = int(os.environ.get("REPRO_BENCH_CLIENTS", "8192"))
SESSIONS = int(
    os.environ.get("REPRO_BENCH_SESSIONS", "16384" if FULL else "8192")
)

#: Transport-bound sessions: a couple of candidate draws and a tight
#: round cap keep the engine share of each request small.
MARKET_SPEC = {
    "dataset": "synthetic",
    "seed": 0,
    "config_overrides": {"n_price_samples": 2, "max_rounds": 16},
}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _launch_server(store_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    port = _free_port()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--job-store", store_path,
            "--max-sessions", str(max(32768, 4 * CLIENTS)),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    import urllib.request

    deadline = time.time() + 60
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early: {proc.returncode}")
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/healthz", timeout=1
            ):
                return proc, port
        except Exception:
            time.sleep(0.05)
    raise RuntimeError("server did not become healthy")


def _warm_market(port: int) -> str:
    import urllib.request

    raw = urllib.request.urlopen(
        urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/markets",
            data=json.dumps(MARKET_SPEC).encode(),
            method="POST",
        ),
        timeout=120,
    ).read()
    return json.loads(raw)["market"]


def _flood() -> dict:
    """One server, one client flood; sessions/s plus a drain verdict."""
    proc, port = _launch_server("/tmp/bench-async-serve.db")
    try:
        digest = _warm_market(port)
        clients_per = max(1, CLIENTS // PROCS)
        sessions_per = max(1, SESSIONS // PROCS)
        start = time.perf_counter()
        generators = [
            subprocess.Popen(
                [
                    sys.executable, LOADGEN, str(port), digest,
                    str(clients_per), str(sessions_per),
                    str(index * sessions_per),
                ],
                stdout=subprocess.PIPE,
            )
            for index in range(PROCS)
        ]
        completed = conn_errors = 0
        for generator in generators:
            out, _ = generator.communicate(timeout=540)
            parts = out.split()
            completed += int(parts[0])
            conn_errors += int(parts[2])
        elapsed = time.perf_counter() - start
    finally:
        proc.send_signal(signal.SIGTERM)
        drain_exit = proc.wait(timeout=90)
    return {
        "clients": clients_per * PROCS,
        "session_budget": sessions_per * PROCS,
        "sessions": completed,
        "elapsed": elapsed,
        "sessions_per_sec": completed / elapsed,
        "conn_errors": conn_errors,
        "drain_exit": drain_exit,
    }


def test_flood_completes_and_drains(benchmark, results_dir):
    row = run_once(benchmark, _flood)

    print()
    print(
        f"serve flood: {row['sessions_per_sec']:.1f} sessions/s "
        f"({row['sessions']}/{row['session_budget']} sessions, "
        f"{row['clients']} clients, {row['elapsed']:.1f}s, "
        f"{row['conn_errors']} conn errors, "
        f"drained with exit {row['drain_exit']})"
    )

    with open(
        os.path.join(results_dir, "async_serve.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(row, fh, indent=2)
    columns = ["clients", "sessions", "sessions_per_sec", "conn_errors",
               "drain_exit"]
    write_csv(
        os.path.join(results_dir, "async_serve.csv"),
        columns,
        [[row[name]] for name in columns],
    )

    assert row["sessions"] == row["session_budget"]
    assert row["conn_errors"] == 0
    assert row["drain_exit"] == 0


# ----------------------------------------------------------------------
# Digest parity: batched wire stepping == serial stepwise, bit for bit.
# ----------------------------------------------------------------------
PARITY_RUNS = 4
PARITY_WINDOW = 0.01


def _parity_specs():
    from repro.service import MarketSpec, SessionSpec

    return [
        SessionSpec(
            market=MarketSpec(dataset="synthetic", seed=seed),
            seed=0,
            run=run,
        )
        for run in range(PARITY_RUNS)
        for seed in (0, 1)
    ]


def _canon(reply: dict) -> str:
    return json.dumps(
        {k: v for k, v in reply.items() if k != "session"}, sort_keys=True
    )


def _serial_digest() -> str:
    """Serial stepwise execution in-process: the reference digest."""
    from repro.service import SessionManager

    manager = SessionManager()
    blobs = []
    for spec in _parity_specs():
        session_id = manager.open_session(spec)
        while True:
            reply = manager.step(session_id)
            blobs.append(_canon(reply))
            if reply["done"]:
                break
        blobs.append(_canon(manager.checkpoint(session_id)))
    return hashlib.sha256("\n".join(blobs).encode()).hexdigest()


def _batched_wire_digest() -> str:
    """Concurrent sessions through the coalescing server."""
    from repro.client import HttpTransport
    from repro.service import SessionManager
    from repro.service.server import MarketplaceServer

    manager = SessionManager(coalesce_window=PARITY_WINDOW)
    server = MarketplaceServer(
        port=0, manager=manager, eviction_interval=0
    )
    host, port = server.start_background()
    specs = _parity_specs()
    results: list = [None] * len(specs)
    errors: list = []
    barrier = threading.Barrier(len(specs))

    def drive(index: int) -> None:
        try:
            transport = HttpTransport(f"http://{host}:{port}")
            spec = specs[index]
            barrier.wait(timeout=30.0)
            status, opened = transport.request(
                "POST", "/v1/sessions",
                body={
                    "market": spec.market.to_dict(),
                    "seed": spec.seed,
                    "run": spec.run,
                },
            )
            assert status == 201, opened
            sid = opened["session"]
            blobs = []
            while True:
                status, reply = transport.request(
                    "POST", f"/v1/sessions/{sid}/step"
                )
                assert status == 200, reply
                blobs.append(_canon(reply))
                if reply["done"]:
                    break
            status, state = transport.request(
                "GET", f"/v1/sessions/{sid}/state"
            )
            assert status == 200, state
            blobs.append(_canon(state))
            results[index] = blobs
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(i,)) for i in range(len(specs))
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180.0)
    finally:
        server.shutdown(timeout=15.0)
    if errors:
        raise errors[0]
    coalesced = manager.report()["batching"]["coalesced"]
    blobs = [blob for per_session in results for blob in per_session]
    return hashlib.sha256("\n".join(blobs).encode()).hexdigest(), coalesced


def test_batched_wire_digests_bit_identical(results_dir):
    serial = _serial_digest()
    batched, coalesced = _batched_wire_digest()

    print()
    print(f"serial stepwise digest : {serial}")
    print(f"batched wire digest    : {batched}")
    print(f"coalesced step calls   : {coalesced}")

    with open(
        os.path.join(results_dir, "async_serve_parity.json"),
        "w",
        encoding="utf-8",
    ) as fh:
        json.dump(
            {
                "serial_digest": serial,
                "batched_digest": batched,
                "coalesce_window": PARITY_WINDOW,
                "coalesced_steps": coalesced,
                "bit_identical": serial == batched,
            },
            fh,
            indent=2,
        )
    assert batched == serial
