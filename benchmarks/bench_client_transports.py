"""Client SDK overhead: LocalTransport vs direct calls, HTTP round trips.

The claim under test: the typed client is free where it should be free
— driving the marketplace through
``MarketplaceClient.local()`` costs **<= 5%** over calling
:class:`~repro.service.manager.SessionManager` directly (the facade
adds one route match and one JSON round-trip per call to work that
runs whole bargaining games) — and the HTTP transport's per-call
round-trip overhead is measured and reported, not guessed.  The
direct and local paths are timed in interleaved pairs, one session on
each path back to back, and the gate reads the median of the per-pair
ratios, so load that comes and goes on a shared host does not decide
it.

All three paths play the *same* games (identical per-run seed
streams), so the comparison also pins outcome equality across the
direct API, the local transport, and the wire.  Writes
``benchmarks/results/client_transports.json`` (and ``.csv``) for the
CI artifact.
"""

import json
import os
import time

from repro.client import MarketplaceClient
from repro.experiments import write_csv
from repro.jobs import JobStore
from repro.service import (
    JobService,
    MarketPool,
    MarketSpec,
    SessionManager,
    SessionSpec,
)
from repro.service.server import MarketplaceServer

N_SESSIONS = 80
SEED = 0
REPEATS = 3
LOCAL_OVERHEAD_CEILING = 0.05  # LocalTransport within 5% of direct calls

SPEC = MarketSpec(dataset="synthetic", seed=SEED)


def _direct_session(manager: SessionManager, run: int) -> dict:
    session_id = manager.open_session(
        SessionSpec(market=SPEC, seed=SEED, run=run)
    )
    summary = manager.run(session_id)
    manager.close(session_id)
    return summary["outcome"]


def _client_session(client: MarketplaceClient, run: int) -> dict:
    opened = client.open_session(SessionSpec(market=SPEC, seed=SEED, run=run))
    state = client.run_session(opened["session"])
    client.close_session(opened["session"])
    return state["outcome"]


def _best_of(fn, repeats: int = REPEATS):
    """(best elapsed, last result) — the min damps scheduler noise."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _paired(first, second, n: int, passes: int = REPEATS):
    """Time ``first(run)`` and ``second(run)`` back to back for every run.

    Each pair plays the same game on both paths within a few
    milliseconds, so load on a shared host is nearly the same for both
    halves and cancels from the pair's ratio; the median ratio then
    discards pairs that a load shift or a collection split.  The order
    alternates from pair to pair so neither path always runs second.
    Returns the sorted ``second / first`` ratios, each path's best
    per-pass total and each path's outcomes.
    """
    ratios: list[float] = []
    totals: tuple[list[float], list[float]] = ([], [])
    outcomes: tuple[list[dict], list[dict]] = ([], [])
    for pass_no in range(passes):
        elapsed = [0.0, 0.0]
        results: tuple[list[dict], list[dict]] = ([], [])
        for run in range(n):
            pair = [0.0, 0.0]
            for side in ((0, 1) if (run + pass_no) % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                results[side].append((first, second)[side](run))
                pair[side] = time.perf_counter() - t0
            ratios.append(pair[1] / pair[0])
            elapsed[0] += pair[0]
            elapsed[1] += pair[1]
        for side in (0, 1):
            totals[side].append(elapsed[side])
        outcomes = results
    return sorted(ratios), min(totals[0]), min(totals[1]), outcomes


def test_client_transport_overhead(results_dir, tmp_path):
    # One warm pool per path: the market build must not pollute timing,
    # and identical engines guarantee identical games.
    direct_manager = SessionManager(pool=MarketPool())
    direct_manager.market(SPEC)

    local_manager = SessionManager(pool=MarketPool())
    local_client = MarketplaceClient.local(manager=local_manager)
    local_client.build_market(SPEC)

    server = MarketplaceServer(
        port=0,
        manager=SessionManager(pool=MarketPool()),
        jobs=JobService(JobStore(str(tmp_path / "jobs.sqlite3"))),
    )
    http_client = MarketplaceClient.connect(
        "http://%s:%s" % server.start_background()
    )
    http_client.build_market(SPEC)

    try:
        ratios, direct_elapsed, local_elapsed, (direct, local) = _paired(
            lambda run: _direct_session(direct_manager, run),
            lambda run: _client_session(local_client, run),
            N_SESSIONS,
        )
        http_elapsed, http = _best_of(
            lambda: [_client_session(http_client, run)
                     for run in range(N_SESSIONS)]
        )
    finally:
        http_client.close()
        server.shutdown()

    calls_per_session = 3  # open + run + close
    http_call_overhead = (
        (http_elapsed - direct_elapsed)
        / (N_SESSIONS * calls_per_session)
    )
    local_overhead = ratios[len(ratios) // 2] - 1.0

    print()
    print(f"direct SessionManager : {N_SESSIONS} sessions in "
          f"{direct_elapsed:.3f}s ({N_SESSIONS / direct_elapsed:.0f}/s)")
    print(f"LocalTransport client : {N_SESSIONS} sessions in "
          f"{local_elapsed:.3f}s (overhead {100 * local_overhead:+.1f}%, "
          f"ceiling {100 * LOCAL_OVERHEAD_CEILING:.0f}%)")
    print(f"per-session pairs     : {len(ratios)}, local/direct quartiles "
          f"{ratios[len(ratios) // 4]:.3f} / {ratios[len(ratios) // 2]:.3f} "
          f"/ {ratios[3 * len(ratios) // 4]:.3f} (the median is gated)")
    print(f"HttpTransport client  : {N_SESSIONS} sessions in "
          f"{http_elapsed:.3f}s "
          f"(~{1e6 * max(http_call_overhead, 0.0):.0f}us per round trip)")

    payload = {
        "n_sessions": N_SESSIONS,
        "repeats": REPEATS,
        "pairs": len(ratios),
        "local_direct_ratio_quartiles": [
            ratios[len(ratios) // 4], ratios[len(ratios) // 2],
            ratios[3 * len(ratios) // 4],
        ],
        "direct_elapsed": direct_elapsed,
        "local_elapsed": local_elapsed,
        "http_elapsed": http_elapsed,
        "local_overhead": local_overhead,
        "local_overhead_ceiling": LOCAL_OVERHEAD_CEILING,
        "http_roundtrip_overhead_us": 1e6 * max(http_call_overhead, 0.0),
    }
    with open(os.path.join(results_dir, "client_transports.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    write_csv(
        os.path.join(results_dir, "client_transports.csv"),
        ["n_sessions", "direct_elapsed", "local_elapsed", "http_elapsed",
         "local_overhead"],
        [[N_SESSIONS], [direct_elapsed], [local_elapsed], [http_elapsed],
         [local_overhead]],
    )

    # Every path plays the exact same games, bit for bit on the wire
    # fields (the direct summary and the wire payload share _outcome_dict).
    assert local == http
    for run, outcome in enumerate(direct):
        assert local[run]["status"] == outcome["status"]
        assert local[run]["n_rounds"] == outcome["n_rounds"]
        assert local[run]["payment"] == outcome["payment"]
    # The facade must be free: within the ceiling of direct calls.
    assert local_overhead <= LOCAL_OVERHEAD_CEILING, (
        f"LocalTransport overhead {100 * local_overhead:.1f}% exceeds "
        f"{100 * LOCAL_OVERHEAD_CEILING:.0f}%"
    )
