"""Short self-test of the benchmark command, on a second seed.

Run from the repository root::

    python3 perfbench/selftest.py [--seed 1] [--seconds 2]

For every workload it runs ``run.py`` untraced and traced and asserts:
exit code 0; a last line with exactly ``correct``/``attempted``/
``failed``/``metrics``; every check passed and no operation failed;
every end-to-end (untraced) or per-layer (traced) metric of
``BENCHMARK.json`` reported once, with its unit, as a finite number,
and the ungated throughput and latency metrics printed; every
end-to-end metric above 0, and every per-layer metric above 0 on the
workloads ``predictions.json`` says the traced run observes it on; a
reconciliation whose unaccounted share is within 10%.  It also
asserts that sessions-http and sessions-local report the same outcome
digest, that ``predictions.json`` names every per-layer metric exactly
once, and that the command fails without printing a result in a
directory holding only the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}
#: Printed with unit and sample count on every workload, but not gated
#: (see run.py).
REPORTED = {"sessions_per_s": "sessions/s", "session_rounds_per_s": "rounds/s",
            "sessions_per_wall_s": "sessions/s",
            "session_rounds_per_wall_s": "rounds/s", "setup_wall_s": "s",
            "step_p50_us": "us", "step_p99_us": "us"}


def run(cwd: Path, workload: str, seed: int, seconds: float, trace: int
        ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(proc: subprocess.CompletedProcess, expected: dict[str, str],
              label: str, positive: bool) -> dict:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == KEYS, f"{label}: keys {sorted(final)}"
    assert final["correct"] is True, f"{label}: incorrect\n{proc.stdout}"
    assert final["failed"] == 0 and final["attempted"] >= 1, f"{label}: {final}"
    metrics = final["metrics"]
    assert set(metrics) == set(expected), (
        f"{label}: metrics {sorted(set(metrics) ^ set(expected))} differ")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit"
        assert math.isfinite(value), f"{label}: {name} = {value}"
        assert value > 0 or not positive, f"{label}: {name} = {value}"
    provenance = next(line for line in lines if line.startswith("provenance "))
    return {"metrics": metrics, "lines": lines,
            "provenance": json.loads(provenance[len("provenance "):])}


def check_bare_directory() -> None:
    temp_root = ROOT / ".perfbench_tmp"
    temp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=temp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "sessions-local", 0, 1, 0)
        assert proc.returncode != 0, "bare directory run exited 0"
        assert "correct" not in proc.stdout, "bare directory run printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    table = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    predicted = [name for row in table["layers"] for name in row["metrics"]]
    assert sorted(predicted) == sorted(per_layer), (
        "predictions.json and BENCHMARK.json per_layer differ: "
        f"{sorted(set(predicted) ^ set(per_layer))}")
    observed = {entry["name"]: set() for entry in spec["workloads"]}
    for row in table["layers"]:
        for workload in row["observed_on"]:
            observed[workload].update(name for name in row["metrics"]
                                      if name not in table["not_positive"])

    check_bare_directory()
    print("ok   bare directory: fails without a result")

    digests = {}
    for entry in spec["workloads"]:
        workload = entry["name"]
        plain = check_run(run(ROOT, workload, args.seed, args.seconds, 0),
                          end_to_end, f"{workload} --trace 0", True)
        for name, unit in {**end_to_end, **REPORTED}.items():
            assert any(line.split()[1:2] == [name] and f" {unit}" in line
                       for line in plain["lines"]
                       if line.startswith(("metric ", "info "))
                       ), f"{workload}: {name} not printed"
        digests[workload] = plain["provenance"].get("outcome_digest")
        traced = check_run(run(ROOT, workload, args.seed, args.seconds, 1),
                           per_layer, f"{workload} --trace 1", False)
        share = traced["metrics"]["obs.unaccounted_share"]["value"]
        assert abs(share) <= 0.10, f"{workload}: unaccounted {share:.1%}"
        missing = sorted(name for name in observed[workload]
                         if not traced["metrics"][name]["value"] > 0)
        assert not missing, f"{workload}: observed layer metrics not > 0: {missing}"
        print(f"ok   {workload}: {len(end_to_end)} end-to-end and "
              f"{len(per_layer)} per-layer metrics ({len(observed[workload])} "
              f"observed > 0), unaccounted {share:.2%}")
    assert digests["sessions-http"] == digests["sessions-local"], digests
    print(f"ok   sessions-http and sessions-local outcome digests agree "
          f"({digests['sessions-local']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
