"""The four benchmark workloads: set-up, a timed closed loop, and checks.

Every workload is a closed loop driven from this one process: the next
unit of work starts only when the previous one has returned.  None uses
more than two threads, connections or shards.  Each starts from the
same cold state: markets are built with ``no_cache=True``, every job
gets a fresh store, the server gets a fresh ``--job-store``.

``run(ctx)`` returns a :class:`Result`.  With ``ctx.trace`` the timed
phase is split in two halves: the first is timed untraced, the second
with spans recorded at every layer boundary (:mod:`layers`), so the
per-layer figures and the tracing overhead come from the same run.
"""

from __future__ import annotations

import math
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import obs
from repro.client import MarketplaceClient
from repro.client.errors import ClientError
from repro.jobs import JobStore
from repro.jobs import executor as executor_mod
from repro.jobs.executor import ShardedExecutor, chunk_layout, run_simulation_chunk
from repro.security import batch as security_batch
from repro.service import MarketPool, MarketSpec, SessionManager, SessionSpec
from repro.service.simulation import backing_market_spec, run_simulation
from repro.service.specs import SimulationSpec
from repro.simulate import population as population_mod
from repro.simulate import report as report_mod
from repro.simulate.pool import SessionPool
from repro.utils.canonical import content_digest

import layers
from spans import Tracer
from speed import HostClock

#: The titanic market every titanic workload trades on is a fixed
#: fixture; ``--seed`` draws the sessions and populations that use it.
#: A per-seed market would make game length, and with it every
#: per-round cost, depend on which catalogue the seed happened to draw.
MARKET_SEED = 0
TITANIC = MarketSpec(dataset="titanic", seed=MARKET_SEED, no_cache=True)
#: The paper's Table 3 cost schedules, applied to both parties.  Games
#: last 21-53 rounds depending on the schedule.
TABLE3_COST_MIX = (("none", 0.0, 1.0), ("linear", 1.0, 1.0),
                   ("exponential", 1.1, 1.0))
#: The same schedules as a ``SessionSpec`` cost (``None`` for no cost).
TABLE3_COSTS = tuple(None if kind == "none" else (kind, a)
                     for kind, a, _ in TABLE3_COST_MIX)
#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Seconds of closed-loop sessions between two host-speed calibrations.
LAP_S = 1.5
#: Sessions whose outcome-list digest the session checks compare.
CHECK_SESSIONS = 40
#: One sim-kernel pass: eight kernel batches of the default width 1024.
#: A batch costs as many iterations as its longest game, so per-round
#: cost varies with the seed's draw; eight batches average that out.
SIM_SESSIONS = 8192
JOB_SESSIONS = 1000
JOB_SHARDS = 2
JOB_KEY_BITS = 1024
JOB_MIX = (("strategic", "strategic", 1.0),
           ("increase_price", "strategic", 1.0),
           ("strategic", "random_bundle", 1.0))
#: The server's own /v1 dispatch latency histogram.
DISPATCH_FAMILY = "repro_request_duration_seconds"
#: ROADMAP item 1's sum check: layers must explain 90% of the unit.
UNACCOUNTED_LIMIT = 0.10


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    tmp: Path


@dataclass
class Result:
    #: name -> (value, unit, sample count or None)
    metrics: dict = field(default_factory=dict)
    #: per-layer name -> value (traced runs only)
    layers: dict = field(default_factory=dict)
    #: (unit label, unit value, [(layer, value)]) of the traced phase
    reconciliation: tuple | None = None
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    retried: int = 0
    errors: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    #: (label, Tracer) pairs whose spans are written out after the run
    tracers: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))


class Ops:
    """Counts operations attempted and failed; a failure returns None."""

    def __init__(self, result: Result):
        self.result = result

    def call(self, fn, *args, **kwargs):
        self.result.attempted += 1
        try:
            return fn(*args, **kwargs)
        except ClientError as exc:
            self.result.failed += 1
            self.result.errors.append(f"{fn.__name__}: {exc}")
            return None


# ----------------------------------------------------------------------
# Small measurement helpers.  Layer functions are called through their
# modules (``report_mod.build_report``) so the traced run's wrappers see them.
# ----------------------------------------------------------------------
def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed operation is an ``inf`` sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children_peak_mb() -> float:
    """Largest peak RSS among this process's waited-for children, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def retry_attempts() -> float:
    """``HttpTransport`` replays counted in this process's registry."""
    family = obs.REGISTRY.snapshot().get("repro_client_retry_attempts_total")
    return sum(family["series"].values()) if family else 0.0


def _setup_metric(result: Result, clock: HostClock, *, in_process: bool) -> None:
    """``setup_s``: the median of the clock's set-up laps.

    Scaled to the reference host speed when the set-up runs in this
    process; wall time when it runs in child processes (the server, the
    shard workers), whose speed the loop in this process does not
    track.  Over five seeds the scaled figure spread far less than the
    wall one in this process (IQR/median: sim-kernel 0.06 against 0.35,
    sessions-local 0.09 against 0.22) and more in children
    (sessions-http 0.23 against 0.11, job-mixed-secure 0.17 against
    0.13).  ``setup_wall_s`` gives the wall median everywhere.
    """
    n = len(clock.walls)
    laps = clock.scaled if in_process else clock.walls
    result.metrics["setup_s"] = (statistics.median(laps), "s", n)
    result.metrics["setup_wall_s"] = (statistics.median(clock.walls), "s", n)


def _traced_phase(tracer: Tracer, fn, *args):
    layers.install(tracer)
    try:
        return fn(*args)
    finally:
        tracer.unwrap()


def _reconcile(result: Result, label: str, unit: float,
               rows: list[tuple[str, float]]) -> None:
    unaccounted = unit - sum(value for _, value in rows)
    result.reconciliation = (label, unit, rows + [("unaccounted", unaccounted)])
    result.layers["obs.unaccounted_share"] = unaccounted / unit


# ----------------------------------------------------------------------
# sessions-local / sessions-http
# ----------------------------------------------------------------------
def cost_schedules(seed: int):
    """The seeded per-session cost schedule draw (runs 0, 1, 2, ...)."""
    rng = random.Random(seed)
    while True:
        yield TABLE3_COSTS[rng.randrange(len(TABLE3_COSTS))]


@dataclass
class SessionLoop:
    clock: HostClock
    steps: int
    latencies_us: list
    outcomes: list


def play_sessions(client: MarketplaceClient, market: str, seed: int,
                  seconds: float, ops: Ops, *, limit: int | None = None
                  ) -> SessionLoop:
    """One closed-loop client: runs 0..N-1, one ``/step`` call at a time."""
    latencies: list[float] = []
    outcomes: list = []
    ns = time.perf_counter_ns
    schedules = cost_schedules(seed)
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    run = 0
    while (limit is None and time.perf_counter() < deadline) or (
            limit is not None and run < limit):
        cost = next(schedules)
        spec = SessionSpec(market=market, seed=seed, run=run,
                           cost_task=cost, cost_data=cost)
        run += 1
        opened = ops.call(client.open_session, spec)
        if opened is None:
            outcomes.append(None)
            continue
        session = opened["session"]
        state = None
        while True:
            t0 = ns()
            state = ops.call(client.step, session)
            if state is None:
                latencies.append(math.inf)
                break
            latencies.append((ns() - t0) / 1e3)
            if state["done"]:
                break
        outcomes.append(state["outcome"] if state is not None else None)
        ops.call(client.close_session, session)
        clock.lap_every(LAP_S)
    clock.lap()
    return SessionLoop(clock, len(latencies), latencies, outcomes)


def outcome_digest(outcomes: list, count: int) -> str:
    return content_digest(outcomes[:count])


def _throughput_metrics(result: Result, sessions: int, rounds: int,
                        clock: HostClock, round_us: list[float]) -> None:
    """Throughput over the timed phase's scaled time (and its wall time,
    for information), and the wall latency of one unit of work per
    session-round it advanced: a /step call (one round), a sim-kernel
    pass, or a job chunk."""
    n = len(round_us)
    scaled, wall = clock.scaled_s, clock.wall_s
    result.metrics["sessions_per_s"] = (sessions / scaled, "sessions/s", sessions)
    result.metrics["session_rounds_per_s"] = (rounds / scaled, "rounds/s", rounds)
    result.metrics["sessions_per_wall_s"] = (sessions / wall, "sessions/s", sessions)
    result.metrics["session_rounds_per_wall_s"] = (rounds / wall, "rounds/s", rounds)
    result.metrics["step_p50_us"] = (percentile(round_us, 0.50), "us", n)
    result.metrics["step_p99_us"] = (percentile(round_us, 0.99), "us", n)


def _session_metrics(result: Result, loop: SessionLoop) -> None:
    done = [o for o in loop.outcomes if o is not None]
    _throughput_metrics(result, len(done), sum(o["n_rounds"] for o in done),
                        loop.clock, loop.latencies_us)


def _timed_sessions(ctx: Context, result: Result, client, market: str,
                    ops: Ops, scrape=None):
    """The timed phase (split in halves when traced).  Returns the loop
    whose first sessions the checks use, the traced loop and its tracer,
    and ``scrape()`` taken just before and after the traced half."""
    if not ctx.trace:
        loop = play_sessions(client, market, ctx.seed, ctx.seconds, ops)
        _session_metrics(result, loop)
        return loop, None, None, None
    plain = play_sessions(client, market, ctx.seed, ctx.seconds / 2, ops)
    tracer = Tracer()
    before = scrape() if scrape else None
    traced = _traced_phase(tracer, play_sessions, client, market, ctx.seed,
                           ctx.seconds / 2, ops)
    scrapes = (before, scrape()) if scrape else None
    result.layers["obs.tracing_overhead"] = (
        (traced.clock.scaled_s / traced.steps)
        / (plain.clock.scaled_s / plain.steps)
    )
    return plain, traced, tracer, scrapes


def sessions_local(ctx: Context) -> Result:
    result = Result()
    ops = Ops(result)
    setup_tracer = Tracer()
    if ctx.trace:
        layers.install(setup_tracer)
    clock = HostClock()
    try:
        for _ in range(SETUP_REPEATS):
            client = MarketplaceClient.local(
                manager=SessionManager(pool=MarketPool()))
            market = client.build_market(TITANIC)["market"]
            clock.lap()
    finally:
        setup_tracer.unwrap()
    _setup_metric(result, clock, in_process=True)

    loop, traced, tracer, _ = _timed_sessions(ctx, result, client, market,
                                              ops)
    result.metrics["peak_rss_mb"] = (vm_hwm_mb(), "MB", None)

    # Check: the first sessions stepped one /step at a time end exactly
    # as the same sessions run to termination in one round trip.
    count = min(CHECK_SESSIONS, len(loop.outcomes))
    stepped = outcome_digest(loop.outcomes, count)
    reference = []
    for run, cost in zip(range(count), cost_schedules(ctx.seed)):
        opened = ops.call(client.open_session, SessionSpec(
            market=market, seed=ctx.seed, run=run,
            cost_task=cost, cost_data=cost))
        state = opened and ops.call(client.run_session, opened["session"])
        reference.append(state["outcome"] if state else None)
        if opened:
            ops.call(client.close_session, opened["session"])
    result.check("stepped outcomes equal run-to-end outcomes",
                 stepped == content_digest(reference),
                 f"digest {stepped} over {count} sessions")
    result.facts["outcome_digest"] = stepped

    if ctx.trace:
        result.tracers += [("setup", setup_tracer), ("timed", tracer)]
        setup_totals = setup_tracer.totals()
        result.layers.update(layers.oracle_from_spans(setup_totals,
                                                      setup_tracer.counts))
        totals = tracer.totals()
        result.layers.update(layers.sessions_from_spans(totals))
        per_step = traced.clock.wall_s * 1e6 / traced.steps
        _reconcile(result, "us/step", per_step,
                   layers.self_rows(totals, traced.steps, 1e3))
    return result


class ServerChild:
    """A ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, ctx: Context, tag: str):
        self.log_path = ctx.tmp / f"server-{tag}.log"
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"),
                   PYTHONUNBUFFERED="1", TMPDIR=str(ctx.tmp))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--job-store", str(ctx.tmp / f"server-{tag}.sqlite3")],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=str(ctx.root),
            )
        self.url = self._await_url()

    def _await_url(self) -> str:
        deadline = time.monotonic() + 60.0
        while True:
            text = self.log_path.read_text(errors="replace")
            found = re.search(r"service on (http://\S+)", text)
            if found:
                return found.group(1)
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start:\n{text[-2000:]}")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def server_header(url: str) -> str:
    """The ``Server`` header the child answers with (its transport)."""
    import http.client
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.request("GET", "/v1/healthz")
        response = conn.getresponse()
        response.read()
        return response.getheader("Server") or "unknown"
    finally:
        conn.close()


def histogram_totals(text: str, family: str) -> tuple[float, float]:
    """``(sum, count)`` of a Prometheus histogram family over its series,
    leaving out the ``/v1/metrics`` scrapes themselves."""
    seconds = count = 0.0
    for line in text.splitlines():
        if "/v1/metrics" in line:
            continue
        if line.startswith(family + "_sum"):
            seconds += float(line.rsplit(" ", 1)[1])
        elif line.startswith(family + "_count"):
            count += float(line.rsplit(" ", 1)[1])
    return seconds, count


def sessions_http(ctx: Context) -> Result:
    result = Result()
    ops = Ops(result)
    clock = None
    server = client = None
    retries_before = retry_attempts()
    try:
        for rep in range(SETUP_REPEATS):
            if server is not None:
                client.close()
                server.stop()
            if clock is None:
                clock = HostClock()
            clock.start()
            server = ServerChild(ctx, str(rep))
            client = MarketplaceClient.connect(server.url)
            client.healthz()
            built = client.build_market(TITANIC)
            clock.lap()
        market = built["market"]
        _setup_metric(result, clock, in_process=False)
        result.facts["server_transport"] = server_header(server.url)

        loop, traced, tracer, scrapes = _timed_sessions(
            ctx, result, client, market, ops, scrape=client.metrics_text)
        result.metrics["peak_rss_mb"] = (
            vm_hwm_mb() + vm_hwm_mb(server.proc.pid), "MB", None)
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
    result.retried = int(retry_attempts() - retries_before)

    # Check: the wire plays exactly the games the in-process client does.
    count = min(CHECK_SESSIONS, len(loop.outcomes))
    wire = outcome_digest(loop.outcomes, count)
    local = MarketplaceClient.local(manager=SessionManager(pool=MarketPool()))
    local_market = local.build_market(TITANIC)["market"]
    reference = play_sessions(local, local_market, ctx.seed, 0.0, ops,
                              limit=count)
    result.check("http outcomes equal sessions-local outcomes",
                 wire == outcome_digest(reference.outcomes, count),
                 f"digest {wire} over {count} sessions")
    result.facts["outcome_digest"] = wire

    if ctx.trace:
        result.tracers.append(("timed", tracer))
        before, after = (histogram_totals(text, DISPATCH_FAMILY)
                         for text in scrapes)
        result.layers.update(layers.oracle_from_server(
            histogram_totals(scrapes[1], "repro_oracle_build_seconds"),
            built["build_report"]))
        server_s, server_requests = (after[0] - before[0], after[1] - before[1])
        totals = tracer.totals()
        result.layers.update(layers.sessions_from_spans(totals))
        result.layers.update(layers.http_from_spans(
            totals, server_s * 1e9, server_requests, result.retried))
        per_step = traced.clock.wall_s * 1e6 / traced.steps
        http_ns = totals.self_ns["client.http.request"] - server_s * 1e9
        rows = [("client.sdk", totals.self_ns["client.sdk"] / 1e3 / traced.steps),
                ("client.http.transport", http_ns / 1e3 / traced.steps),
                ("service.server.dispatch", server_s * 1e6 / traced.steps)]
        _reconcile(result, "us/step", per_step, rows)
    return result


# ----------------------------------------------------------------------
# sim-kernel
# ----------------------------------------------------------------------
def _sim_passes(population, spec: SimulationSpec, seconds: float):
    """Whole-population passes (SessionPool.run + report) until time is
    up, one lap of the clock each.  A pass's latency is reported per
    session-round it advanced."""
    round_us, digests, rounds = [], [], 0
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    while not round_us or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        pool_result = SessionPool(population, batch_size=spec.batch_size).run()
        report = report_mod.build_report(population, pool_result,
                                         n_bins=spec.bins)
        elapsed_us = (time.perf_counter_ns() - t0) / 1e3
        pass_rounds = int(pool_result.n_rounds.sum())
        round_us.append(elapsed_us / pass_rounds)
        digests.append(report.digest())
        rounds += pass_rounds
        clock.lap()
    return clock, round_us, digests, rounds


def sim_kernel(ctx: Context) -> Result:
    result = Result()
    spec = SimulationSpec(
        sessions=SIM_SESSIONS, dataset="titanic", seed=ctx.seed,
        no_cache=True, strategy_mix=(("strategic", "strategic", 1.0),),
        cost_mix=TABLE3_COST_MIX,
    )
    backing = backing_market_spec(replace(spec, seed=MARKET_SEED))
    setup_tracer = Tracer()
    if ctx.trace:
        layers.install(setup_tracer)
    clock = HostClock()
    try:
        for _ in range(SETUP_REPEATS):
            oracle = MarketPool().get(backing).oracle
            population = population_mod.sample_population(
                spec.population_spec(), spec.sessions, seed=spec.seed,
                oracle=oracle)
            clock.lap()
    finally:
        setup_tracer.unwrap()
    _setup_metric(result, clock, in_process=True)

    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    clock, round_us, digests, rounds = _sim_passes(population, spec, seconds)
    result.attempted = n = len(round_us)
    _throughput_metrics(result, n * spec.sessions, rounds, clock, round_us)
    result.metrics["peak_rss_mb"] = (vm_hwm_mb(), "MB", None)

    # Check: every pass reports the digest of a single run_simulation.
    _, _, reference = run_simulation(spec, pool=MarketPool(),
                                     market_spec=backing)
    result.check("every pass digest equals run_simulation's",
                 set(digests) == {reference.digest()},
                 f"digest {reference.digest()} over {n} passes")
    result.facts["report_digest"] = reference.digest()

    if ctx.trace:
        tracer = Tracer()
        t_clock, _, t_digests, t_rounds = _traced_phase(
            tracer, _sim_passes, population, spec, ctx.seconds / 2)
        result.check("traced pass digests equal untraced",
                     set(t_digests) == set(digests),
                     f"{len(t_digests)} traced passes")
        result.layers["obs.tracing_overhead"] = (
            (t_clock.scaled_s / t_rounds) / (clock.scaled_s / rounds))
        t_wall = t_clock.wall_s
        result.tracers += [("setup", setup_tracer), ("timed", tracer)]
        setup_totals = setup_tracer.totals()
        result.layers.update(layers.oracle_from_spans(setup_totals,
                                                      setup_tracer.counts))
        result.layers.update(layers.population_from_spans(setup_totals))
        totals = tracer.totals()
        result.layers.update(layers.simulate_from_spans(totals, tracer.counts))
        _reconcile(result, "us/session-round", t_wall * 1e6 / t_rounds,
                   layers.self_rows(totals, t_rounds, 1e3))
    return result


# ----------------------------------------------------------------------
# job-mixed-secure
# ----------------------------------------------------------------------
def _reset_process_memos() -> None:
    """Forget the parent's sampled population and settlement keys.

    Shard workers are forked from this process, so anything it memoised
    while merging or checking would reach the next job's workers warm.
    """
    executor_mod._POPULATION_MEMO = None
    security_batch._SETTLEMENTS.clear()


def _run_job(ctx: Context, spec: SimulationSpec, tag: str, errors: list,
             clock: HostClock):
    """One sharded job on a fresh store, its run one lap of ``clock``;
    returns (store, record)."""
    _reset_process_memos()
    store = JobStore(str(ctx.tmp / f"job-{tag}.sqlite3"))
    executor = ShardedExecutor(store, shards=JOB_SHARDS)
    submitted = executor.submit(spec)
    clock.start()
    try:
        executor.run(submitted.job_id)
    except Exception as exc:  # the store marks the job failed; count it
        errors.append(f"job {submitted.job_id}: {exc!r}")
    clock.lap()
    return store, store.get(submitted.job_id)


def _job_setup(ctx: Context, spec: SimulationSpec, rep: int,
               clock: HostClock) -> None:
    """One lap of ``clock`` for the time before a shard starts its first
    chunk's work: store open, submit, worker start, population sampling
    and key generation.  A one-chunk run (``max_chunks=1``) less that
    chunk's own work time."""
    _reset_process_memos()
    clock.start()
    store = JobStore(str(ctx.tmp / f"setup-{rep}.sqlite3"))
    executor = ShardedExecutor(store, shards=JOB_SHARDS, max_chunks=1)
    job = executor.submit(spec)
    executor.run(job.job_id)
    (chunk,) = store.chunk_results(job.job_id).values()
    clock.lap(exclude=chunk["elapsed"])


@dataclass
class JobLoop:
    #: one lap per job: its executor run
    clock: HostClock
    n_chunks: int = 0
    #: per job, the worker-reported ``elapsed`` of each chunk, in ms
    chunk_ms: list = field(default_factory=list)
    #: per chunk, its elapsed time per session-round it advanced, in us
    round_us: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    rounds: int = 0
    failed_chunks: int = 0


def _job_loop(ctx: Context, spec: SimulationSpec, seconds: float, tag: str,
              result: Result) -> JobLoop:
    """Sharded jobs back to back until time is up."""
    loop = JobLoop(HostClock())
    deadline = time.perf_counter() + seconds
    while not loop.digests or time.perf_counter() < deadline:
        store, record = _run_job(ctx, spec, f"{tag}{len(loop.digests)}",
                                 result.errors, loop.clock)
        loop.digests.append(record.digest)
        loop.n_chunks = record.n_chunks
        chunks = store.chunk_results(record.job_id)
        result.attempted += record.n_chunks
        result.failed += record.n_chunks - len(chunks)
        loop.failed_chunks += record.n_chunks - len(chunks)
        loop.chunk_ms.append([payload["elapsed"] * 1e3
                              for payload in chunks.values()])
        for payload in chunks.values():
            chunk_rounds = sum(payload["n_rounds"])
            loop.round_us.append(payload["elapsed"] * 1e6 / chunk_rounds)
            loop.rounds += chunk_rounds
    return loop


def job_mixed_secure(ctx: Context) -> Result:
    result = Result()
    spec = SimulationSpec(
        sessions=JOB_SESSIONS, preset="synthetic", seed=ctx.seed,
        strategy_mix=JOB_MIX, secure=True, key_bits=JOB_KEY_BITS,
    )
    clock = HostClock()
    for rep in range(SETUP_REPEATS):
        _job_setup(ctx, spec, rep, clock)
    _setup_metric(result, clock, in_process=False)

    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    loop = _job_loop(ctx, spec, seconds, "plain", result)
    _throughput_metrics(result, len(loop.digests) * spec.sessions,
                        loop.rounds, loop.clock, loop.round_us)
    result.metrics["peak_rss_mb"] = (
        vm_hwm_mb() + JOB_SHARDS * children_peak_mb(), "MB", None)

    if ctx.trace:
        _trace_job(ctx, spec, result, loop)

    # Check: the sharded merge equals one single-process run of the spec.
    _reset_process_memos()
    _, _, reference = run_simulation(spec)
    result.check("merged job digest equals single-process run_simulation",
                 set(loop.digests) == {reference.digest()},
                 f"digest {reference.digest()} over {len(loop.digests)} jobs")
    result.facts["report_digest"] = reference.digest()
    return result


def _in_process_job(ctx: Context, spec: SimulationSpec, n_chunks: int,
                    tag: str, run_chunk):
    """The sharded job's chunk layout run chunk by chunk in this process,
    then merged; returns (clock with one lap, report)."""
    store = JobStore(str(ctx.tmp / f"job-inprocess-{tag}.sqlite3"))
    job = store.submit("simulation", spec.to_dict(),
                       chunk_layout(spec.sessions, n_chunks))
    _reset_process_memos()
    clock = HostClock()
    for index, (start, stop) in enumerate(job.chunks):
        store.record_chunk(job.job_id, index,
                           run_chunk(spec.to_dict(), start, stop))
    _, _, report = executor_mod.merge_simulation_chunks(
        spec, store.chunk_results(job.job_id))
    clock.lap()
    return clock, report


def _trace_job(ctx: Context, spec: SimulationSpec, result: Result,
               plain: JobLoop) -> None:
    """Chunk times and busy ratio come from the untraced sharded jobs.
    Shard workers are other processes, which the benchmark does not
    wrap, so the layers inside a chunk, the store writes and the merge
    come from the same chunk layout run in this process, once untraced
    and once traced (which also gives the tracing overhead)."""
    untraced, report = _in_process_job(ctx, spec, plain.n_chunks, "plain",
                                       run_simulation_chunk)
    tracer = Tracer()
    traced, t_report = _traced_phase(
        tracer, _in_process_job, ctx, spec, plain.n_chunks, "traced",
        tracer.traced("jobs.chunk", run_simulation_chunk))
    result.tracers.append(("in-process", tracer))
    result.check("in-process job digests equal sharded",
                 {report.digest(), t_report.digest()} == set(plain.digests),
                 t_report.digest())
    result.layers["obs.tracing_overhead"] = traced.scaled_s / untraced.scaled_s
    totals = tracer.totals()
    result.layers.update(layers.jobs_from_runs(
        totals, plain.chunk_ms, plain.clock.walls, JOB_SHARDS,
        plain.failed_chunks))
    result.layers.update(layers.population_from_spans(totals))
    result.layers.update(layers.simulate_from_spans(totals, tracer.counts))
    result.layers.update(layers.sessions_from_spans(totals))
    result.layers.update(layers.security_from_spans(totals, tracer.counts))
    _reconcile(result, "ms/in-process job", traced.wall_s * 1e3,
               layers.self_rows(totals, 1, 1e6))


WORKLOADS = {
    "sessions-local": sessions_local,
    "sessions-http": sessions_http,
    "sim-kernel": sim_kernel,
    "job-mixed-secure": job_mixed_secure,
}
