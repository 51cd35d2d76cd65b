"""Layer boundaries the traced run wraps, and the per-layer metrics.

Each span name is the module path of the layer it times.  A layer's
per-unit cost is its self time (its spans minus their child spans)
divided by the work it did: engine steps for the market layers, calls
for the service layers, session-rounds for the kernel, settled sessions
for settlement.  The prediction of which end-to-end metric each layer
metric should move, on which workload, is in ``predictions.json``.
"""

from __future__ import annotations

import re
import statistics

from spans import LayerTotals, Tracer


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from repro.client.client import MarketplaceClient
    from repro.client.http import HttpTransport
    from repro.client.local import LocalTransport
    from repro.jobs import executor, store
    from repro.market.engine import BargainingEngine
    from repro.market.oracle import MemoisedOracle, PerformanceOracle
    from repro.market.strategies.data_party import StrategicDataParty
    from repro.market.strategies.task_party import StrategicTaskParty
    from repro.security.batch import SecureSettlement
    from repro.service.manager import SessionManager
    from repro.simulate import pool, population, report

    wrap = tracer.wrap
    wrap(PerformanceOracle, "build", "oracle_factory.build",
         count=lambda args, oracle: oracle.build_report.courses_run)
    wrap(StrategicTaskParty, "decide", "market.strategies.decide")
    wrap(StrategicDataParty, "respond", "market.strategies.respond")
    wrap(PerformanceOracle, "delta_g", "market.oracle.delta_g")
    wrap(MemoisedOracle, "delta_g", "market.oracle.delta_g")
    wrap(BargainingEngine, "step", "market.engine.step")
    wrap(SessionManager, "open_session", "service.manager.open")
    wrap(SessionManager, "step", "service.manager.step")
    wrap(SessionManager, "close", "service.manager.close")
    wrap(LocalTransport, "request", "service.api.dispatch")
    for method in ("open_session", "step", "close_session", "run_session"):
        wrap(MarketplaceClient, method, "client.sdk")
    wrap(HttpTransport, "request", "client.http.request")
    wrap(pool, "simulate_strategic_batch", "simulate.kernel.batch",
         count=lambda args, out: float(out["n_rounds"].sum()))
    wrap(pool.SessionPool, "run", "simulate.pool.run",
         count=lambda args, result: result.stepped_sessions)
    wrap(population, "sample_population", "simulate.population.sample")
    wrap(report, "build_report", "simulate.report.build")
    wrap(SecureSettlement, "__init__", "security.keygen")
    wrap(SecureSettlement, "settle", "security.settle",
         count=lambda args, payments: len(payments))
    wrap(store.JobStore, "record_chunk", "jobs.store_write")
    wrap(executor, "merge_simulation_chunks", "jobs.merge")


def self_rows(totals: LayerTotals, per: float, scale: float
              ) -> list[tuple[str, float]]:
    """Every span name's self time divided by ``per`` and ``scale`` ns."""
    return [(name, totals.self_ns[name] / scale / per)
            for name in sorted(totals.self_ns)]


def _mean_ms(totals: LayerTotals, name: str) -> float:
    calls = totals.calls[name]
    return totals.total_ns[name] / 1e6 / calls if calls else 0.0


def oracle_from_spans(totals: LayerTotals, counts: dict) -> dict:
    builds = totals.calls["oracle_factory.build"]
    courses = counts["oracle_factory.build"]
    build_ns = totals.total_ns["oracle_factory.build"]
    return {
        "oracle_factory.build_s": build_ns / 1e9 / builds,
        "oracle_factory.courses": courses / builds,
        "oracle_factory.course_ms": build_ns / 1e6 / courses,
    }


def oracle_from_server(build: tuple[float, float], summary: str) -> dict:
    """The same figures for a build that ran in the server process,
    which the benchmark cannot wrap: seconds from the server's
    ``repro_oracle_build_seconds`` histogram, courses from the
    ``build_report`` summary of the ``POST /v1/markets`` reply."""
    seconds, builds = build
    courses = int(re.search(r"(\d+) courses run", summary).group(1))
    return {
        "oracle_factory.build_s": seconds / builds,
        "oracle_factory.courses": float(courses),
        "oracle_factory.course_ms": seconds / builds * 1e3 / courses,
    }


def sessions_from_spans(totals: LayerTotals) -> dict:
    steps = totals.calls["market.engine.step"]
    calls = totals.calls
    return {
        "market.engine.steps": float(steps),
        "market.strategies.decide_us": totals.self_us("market.strategies.decide", steps),
        "market.strategies.respond_us": totals.self_us("market.strategies.respond", steps),
        "market.oracle.delta_g_us": totals.self_us("market.oracle.delta_g", steps),
        "market.engine.step_self_us": totals.self_us("market.engine.step", steps),
        "service.manager.step_self_us": totals.self_us(
            "service.manager.step", calls["service.manager.step"]),
        "service.manager.open_us": _mean_ms(totals, "service.manager.open") * 1e3,
        "service.manager.close_us": _mean_ms(totals, "service.manager.close") * 1e3,
        "service.api.dispatch_self_us": totals.self_us(
            "service.api.dispatch", calls["service.api.dispatch"]),
        "service.api.requests": float(calls["service.api.dispatch"]),
        "client.sdk_self_us": totals.self_us("client.sdk", calls["client.sdk"]),
    }


def http_from_spans(totals: LayerTotals, server_ns: float,
                    server_requests: float, retries: int) -> dict:
    requests = totals.calls["client.http.request"]
    return {
        "client.http.transport_self_us": (
            (totals.self_ns["client.http.request"] - server_ns) / 1e3 / requests
        ),
        "client.http.retries": float(retries),
        "service.server.dispatch_us": server_ns / 1e3 / server_requests,
        "service.api.requests": float(server_requests),
    }


def simulate_from_spans(totals: LayerTotals, counts: dict) -> dict:
    rounds = counts["simulate.kernel.batch"]
    stepwise_ns, stepwise_steps = totals.by_parent[
        ("market.engine.step", "simulate.pool.run")]
    return {
        "simulate.kernel.session_round_us": totals.self_us(
            "simulate.kernel.batch", rounds),
        "simulate.kernel.session_rounds": float(rounds),
        "simulate.pool.stepwise_step_us": (
            stepwise_ns / 1e3 / stepwise_steps if stepwise_steps else 0.0
        ),
        "simulate.pool.stepped_sessions": float(counts["simulate.pool.run"]),
        "simulate.report.build_ms": _mean_ms(totals, "simulate.report.build"),
    }


def population_from_spans(totals: LayerTotals) -> dict:
    return {"simulate.population.sample_ms":
            _mean_ms(totals, "simulate.population.sample")}


def security_from_spans(totals: LayerTotals, counts: dict) -> dict:
    settled = counts["security.settle"]
    return {
        "security.keygen_s": _mean_ms(totals, "security.keygen") / 1e3,
        "security.settle_ms": (
            totals.total_ns["security.settle"] / 1e6 / settled if settled else 0.0
        ),
        "security.settled": float(settled),
    }


def jobs_from_runs(totals: LayerTotals, chunk_ms: list[list[float]],
                   walls: list[float], shards: int, failed: int) -> dict:
    """Executor-level figures.  ``chunk_ms`` holds, per untraced sharded
    job, the worker-reported ``elapsed`` of each chunk, and ``walls``
    each job's wall time; the store writes and the merge come from
    ``totals`` of the traced in-process job."""
    every = [ms for job in chunk_ms for ms in job]
    return {
        "jobs.chunk_ms_p50": statistics.median(every),
        "jobs.chunk_ms_max": statistics.median([max(job) for job in chunk_ms]),
        "jobs.busy_ratio": sum(every) / 1e3 / (shards * sum(walls)),
        "jobs.store_write_ms": totals.total_ns["jobs.store_write"] / 1e6,
        "jobs.merge_ms": _mean_ms(totals, "jobs.merge"),
        "jobs.chunks_failed": float(failed),
    }
