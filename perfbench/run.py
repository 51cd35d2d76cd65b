"""Benchmark command: one seeded workload, its checks and its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sessions-local --seed 0 --seconds 12 --trace 0

``--trace 0`` times the workload untraced and reports every end-to-end
metric of ``BENCHMARK.json`` in the final object: ``setup_s``, the
median of several set-ups in seconds (scaled to a reference host speed,
:mod:`speed`, where the set-up runs in the benchmark process), and
``peak_rss_mb``.  ``sessions_per_s`` and
``session_rounds_per_s`` (scaled the same way), their wall-time
counterparts, ``step_p50_us`` and ``step_p99_us`` (wall) and
``setup_wall_s`` are printed above it with their sample counts but not
gated: on a shared two-vCPU host their spread over ten seeds stays
above a third of the largest bound a gate may have even after scaling,
and sessions per second also follows the seed's game lengths.  So the
gate cannot see a change in steady-state throughput or latency; a
claimed gain there needs alternating paired runs of the parent and the
change.  ``--trace 1`` reports every per-layer metric instead,
from a run whose timed phase is half untraced, half traced.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it give
the provenance, each metric with its unit and sample count, the checks,
the failure counts and, when traced, the layer reconciliation.  Spans
of a traced run are written to ``.perfbench_out/`` when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scale settings that change what a workload computes; a valid run
#: has them unset.
FORBIDDEN_ENV = ("REPRO_FULL", "REPRO_FLEET_THROTTLE")
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def provenance(args: argparse.Namespace, loadavg: tuple, loop_ms: float,
               facts: dict) -> dict:
    import speed

    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get(
            "openblas configuration", config["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "loadavg_at_start": list(loadavg),
        "host_loop_ms_at_start": loop_ms,
        "host_loop_reference_ms": speed.REFERENCE_LOOP_MS,
        "seed": args.seed,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        **facts,
    }


def report(args, result, spec: dict, limit: float) -> dict:
    """Print the human-readable lines; return the final metrics object."""
    for name, ok, detail in result.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"operations attempted={result.attempted} failed={result.failed} "
          f"retried={result.retried}")
    for error in result.errors[:20]:
        print(f"  failure: {error}")
    metrics = {}
    if args.trace:
        known = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(result.layers) - set(known))
        if unknown:
            raise RuntimeError(f"layer metrics missing from BENCHMARK.json: {unknown}")
        label, unit, rows = result.reconciliation
        print(f"reconciliation ({label}; traced end-to-end {unit:.4f}):")
        for name, value in rows:
            print(f"  {name:<32} {value:12.4f}  {100 * value / unit:6.2f}%")
        share = result.layers["obs.unaccounted_share"]
        if abs(share) > limit:
            print(f"FLAG: unaccounted {100 * share:.1f}% exceeds "
                  f"{100 * limit:.0f}% (ROADMAP item 1 sum check)")
        for name, unit_name in known.items():
            value = float(result.layers.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit_name}
            print(f"layer {name} = {value:.6g} {unit_name}")
    else:
        gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, (value, unit_name, samples) in result.metrics.items():
            count = "" if samples is None else f" (n={samples})"
            tag = "metric" if name in gated else "info  "
            print(f"{tag} {name} = {value:.6g} {unit_name}{count}")
        for name, unit_name in gated.items():
            value, measured_unit, _ = result.metrics[name]
            if measured_unit != unit_name:
                raise RuntimeError(f"{name} measured in {measured_unit}, "
                                   f"BENCHMARK.json says {unit_name}")
            metrics[name] = {"value": float(value), "unit": unit_name}
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    found = [k for k in FORBIDDEN_ENV if os.environ.get(k)]
    if found:
        return fail(f"{', '.join(found)} must be unset for a valid run")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import speed
    import workloads

    loop_ms = speed.loop_ms()

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: "
                    f"{sorted(workloads.WORKLOADS)}")
    temp_root = ROOT / ".perfbench_tmp"
    temp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=temp_root))
    # Children (the server, shard workers) inherit this, so nothing the
    # benchmark starts writes temporary files outside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    ctx = workloads.Context(root=ROOT, seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), tmp=tmp)
    started = time.perf_counter()
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("provenance " + json.dumps(provenance(args, loadavg, loop_ms,
                                                result.facts),
                                     sort_keys=True))
    metrics = report(args, result, spec, workloads.UNACCOUNTED_LIMIT)
    if result.tracers:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        for label, tracer in result.tracers:
            tracer.write(str(out / f"spans-{args.workload}-seed{args.seed}-{label}.jsonl.gz"))
    print(f"run took {time.perf_counter() - started:.1f}s")
    print(json.dumps({
        "correct": all(ok for _, ok, _ in result.checks) and bool(result.checks),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
