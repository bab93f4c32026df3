"""Measure a baseline: run.py on several seeds per workload, then per metric
the median, quartiles and spread (interquartile distance over the median).

    python3 hkbench/baseline.py --out FILE

Run from the root of a source checkout.  Every workload runs on RUNS seeds
for BENCHMARK.json's run_seconds, one run after another, and then
TRACED_RUNS traced runs on the first of those seeds.  The
output also records each run's host-probe time, wall times, digests and input
properties, the environment, and the layer map from tracing.LAYERS.  Each
traced run reuses a seed of the untraced runs, and the two must report the
same input and output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

RUNS = 10
FIRST_SEED = 1
TRACED_RUNS = 1


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if not result["correct"]:
        raise RuntimeError(f"{cmd} reported incorrect output: {report['failures']} {report['problems']}")
    return {"seed": seed, "result": result, "report": report}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    out = {
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "machine": platform.machine(), "git_revision": git_revision()},
        "run_seconds": seconds,
        "layer_map": {
            name: {"unit": unit, "better": better, "should_move": moves, "on": on}
            for name, (unit, better, moves, on) in tracing.LAYERS.items()
        },
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        seeds = range(FIRST_SEED, FIRST_SEED + RUNS)
        runs = [one_run(workload, s, seconds, 0) for s in seeds]
        traced = [one_run(workload, s, seconds, 1) for s in seeds[:TRACED_RUNS]]
        # a traced run repeats an untraced seed: one commit, one seed, so the
        # inputs and the outputs of the fixed rounds must be byte-identical
        for t in traced:
            twin = next(r for r in runs if r["seed"] == t["seed"])
            for key in ("inputs_digest", "outputs_digest"):
                if t["report"][key] != twin["report"][key]:
                    raise RuntimeError(f"{workload} seed {t['seed']}: {key} differs between runs")
        metrics = {
            name: summary([r["result"]["metrics"][name]["value"] for r in runs])
            for name in runs[0]["result"]["metrics"]
        }
        out["workloads"][workload] = {
            "end_to_end": metrics,
            "per_layer": [
                {"seed": t["seed"],
                 "metrics": {k: v["value"] for k, v in t["result"]["metrics"].items()},
                 "points_per_job": t["report"]["input_properties"]["points_per_job"]}
                for t in traced
            ],
            "runs": [
                {key: r["report"][key] for key in (
                    "seed", "host_probe_s", "wall_job_p50_s", "wall_job_tail_s", "setup_wall_s",
                    "inputs_digest", "outputs_digest", "jobs_run",
                    "rounds_run", "tail_percentile", "tail_jobs_beyond", "fail_ratio",
                    "input_properties", "oracle_self_test")}
                for r in runs
            ],
        }
        for name, m in metrics.items():
            print(f"{workload:12s} {name:14s} median {m['median']:.6g}  spread {m['spread']:.4f}",
                  file=sys.stderr)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
