"""hkdensity benchmark driver.

    python3 hkbench/run.py --workload {lattice,catalog,closed-form} --seed N
                           --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The driver generates the workload's jobs from the seed alone,
measures set-up time with fresh ``python -m hkdensity`` processes, runs the
jobs in one worker process (worker.py), checks every output against its
oracle (oracles.py) outside the timed region, and prints two JSON lines: a
report (digests, input properties, host speed, failures) and, last, the
result with the metrics.  Times are scaled to the reference host's speed
with the probes taken around them (hostspeed.py); the report keeps the wall
times too.

--trace 0 gives the end-to-end metrics.  --trace 1 runs the fixed leading
rounds in TRACE_PAIRS pairs of fresh workers, one untraced and one traced
pass each in alternating order, and gives the per-layer metrics (medians
over the traced passes) plus the tracing overhead between the two kinds.  Scratch files live in .hkbench_work/
under the checkout and are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# rounds every pass runs whatever the time: the digest covers their outputs
# and the traced pass runs exactly these
FIXED_ROUNDS = {"lattice": 2, "catalog": 1, "closed-form": 4}
SETUP_RUNS = 6  # timed runs before the worker pass, and as many after
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
# an untraced pass runs on past --seconds until it has this many jobs, so
# that a slow spell of the host does not move the tail below p95
TAIL_MIN_JOBS = 200
PASS_TIMEOUT = 150
TRACE_PAIRS = 3  # untraced and traced passes over the fixed rounds, alternated


def measure_setup(src: Path, work: Path) -> tuple[list[float], list[float], list[str]]:
    """Fresh `python -m hkdensity integrate` runs on the 2-piece tent: wall
    times, and the same scaled by host-speed probes taken just before and
    after each.  The first call, which may compile bytecode, is not timed."""
    path = work / "setup_tent.json"
    path.write_text(json.dumps(workloads.TENT))
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "hkdensity", "integrate", "--in", str(path)]
    wall, scaled, problems = [], [], []
    for i in range(SETUP_RUNS + 1):
        before = hostspeed.probe()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=work, capture_output=True, timeout=60)
        dt = time.perf_counter() - t0
        after = hostspeed.probe()
        if proc.returncode != 0 or json.loads(proc.stdout or b"{}").get("integral") != "1":
            problems.append(f"setup run: exit {proc.returncode}, {proc.stderr[-200:]!r}")
        if i:
            wall.append(dt)
            scaled.append(dt * hostspeed.factor([before, after]))
    return wall, scaled, problems


def scaled_times(res: dict) -> list[float]:
    """Job times of a pass, each scaled to the reference host's speed by the
    probes taken just before and just after the job."""
    times = []
    before = res["first_probe_s"]
    for r in res["jobs"]:
        times.append(r["seconds"] * hostspeed.factor([before, r["probe_s"]]))
        before = r["probe_s"]
    return times


def run_pass(work: Path, src: Path, name: str, seconds: float, min_jobs: int,
             max_jobs: int | None, trace: bool) -> dict:
    results = work / f"{name}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--src", str(src), "--workdir", str(work),
        "--outdir", name, "--seconds", str(seconds), "--min-jobs", str(min_jobs),
        "--results", str(results),
    ]
    if max_jobs is not None:
        cmd += ["--max-jobs", str(max_jobs)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, timeout=PASS_TIMEOUT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker pass {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(results.read_text())


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND jobs beyond it, by nearest rank."""
    ordered = sorted(times)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(n * p / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = (p, ordered[rank - 1])
    if best is None:  # fewer than TAIL_BEYOND + 1 jobs: the slowest
        best = (100.0, ordered[-1])
    return best


class Twins:
    """Runs twin jobs in this process, outside any timed region."""

    def __init__(self, work: Path):
        from hkdensity import cli

        self.cli = cli
        self.work = work
        self.cache: dict[str, bytes] = {}

    def __call__(self, argv: list[str]) -> bytes:
        key = json.dumps(argv)
        if key not in self.cache:
            out = self.work / "twins" / (hashlib.sha256(key.encode()).hexdigest()[:16] + ".json")
            out.parent.mkdir(exist_ok=True)
            full = [str(self.work / a) if a.startswith("in/") else a for a in argv]
            if self.cli.main(full + ["--out", str(out)]) != 0:
                raise ValueError(f"twin job {argv} failed")
            self.cache[key] = out.read_bytes()
        return self.cache[key]


def judge(jobs: list[dict], results: list[dict], work: Path, outdir: str, twins):
    """Oracle verdicts per job, and the digest material of each output."""
    failures, outputs = [], {}
    for res in results:
        job = jobs[res["id"]]
        path = work / outdir / f"{job['id']}.{job['ext']}"
        out = path.read_bytes() if path.exists() else None
        problems = oracles.check(job, res["rc"], out, res["stderr"], twins)
        if problems:
            failures.append({"id": job["id"], "argv": job["argv"], "problems": problems})
        outputs[job["id"]] = (job, res["rc"], out, res["stderr"])
    return failures, outputs


def output_digest(outputs: dict, ids: list[int]) -> str:
    h = hashlib.sha256()
    for i in ids:
        _, rc, out, err = outputs[i]
        h.update(f"{i}:{rc}:".encode())
        h.update(out if out is not None else err.encode())
    return h.hexdigest()


def self_test(outputs: dict, twins) -> dict:
    """Feed each oracle, on the first passing output of each of its variants,
    each of its corruptions; every one must be rejected."""
    verdicts = {}
    for job, rc, out, err in outputs.values():
        variant = f"{job['check']['type']}/{oracles.variant(job, out)}"
        if variant in verdicts or oracles.check(job, rc, out, err, twins):
            continue
        verdicts[variant] = {
            corrupt.__name__: "rejects" if oracles.check(job, *corrupt(job, rc, out, err), twins)
            else "ACCEPTS"
            for corrupt in oracles.CORRUPTIONS[job["check"]["type"]]
        }
    return verdicts


def input_properties(jobs: list[dict], ran: int) -> dict:
    seen, repeats = set(), 0
    for job in jobs[:ran]:
        if job["key"] is not None:
            repeats += job["key"] in seen
            seen.add(job["key"])
    return {
        "repeat_share": repeats / ran,
        "threads2_share": sum(j["threads"] == 2 for j in jobs[:ran]) / ran,
        "cap_share": sum(j["cap"] for j in jobs[:ran]) / ran,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "hkdensity" / "cli.py").is_file():
        print(f"no hkdensity sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = root / ".hkbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        return _run(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()


def _run(args, src: Path, work: Path) -> int:
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0],
              "nproc": os.cpu_count(), "nominal_probe_s": hostspeed.NOMINAL_S}
    jl = workloads.generate(args.workload, args.seed)
    for name, text in jl.files.items():
        (work / name).write_text(text)
    jobs = jl.jobs
    # the worker gets only what it runs, one job a line, so that the oracle
    # facts and the length of the list stay out of its peak RSS
    with open(work / "worker_jobs.jsonl", "w", encoding="utf-8") as fh:
        for job in jobs:
            fh.write(json.dumps({k: job[k] for k in ("id", "round", "argv", "ext")}) + "\n")
    fixed = sum(1 for j in jobs if j["round"] < FIXED_ROUNDS[args.workload])
    report["inputs_digest"] = jl.digest()
    report["fixed_jobs"] = fixed

    twins = Twins(work)
    problems: list[str] = []
    if args.trace == 0:
        # set-up samples on both sides of the pass, so that a slow spell of
        # the host at one moment does not decide the median
        setup_wall, setup_scaled, problems = measure_setup(src, work)
        passes = {"untraced": run_pass(work, src, "untraced", args.seconds,
                                       max(fixed, TAIL_MIN_JOBS), None, False)}
        more_wall, more_scaled, more_problems = measure_setup(src, work)
        setup_wall += more_wall
        setup_scaled += more_scaled
        problems += more_problems
        report["setup_wall_s"] = setup_wall
    else:
        # pairs in alternating order (untraced first, then traced first, ...)
        # so that a steady drift of the host does not favour either kind
        passes = {}
        for k in range(TRACE_PAIRS):
            pair = ((f"untraced{k}", False), (f"traced{k}", True))
            for name, traced in pair[:: 1 if k % 2 == 0 else -1]:
                passes[name] = run_pass(work, src, name, 0, fixed, fixed, traced)

    failures, digests, all_outputs = [], {}, {}
    attempted = 0
    for name, res in passes.items():
        fails, outputs = judge(jobs, res["jobs"], work, name, twins)
        failures += fails
        attempted += len(res["jobs"])
        digests[name] = output_digest(outputs, list(range(fixed)))
        all_outputs.update(outputs)
    report["outputs_digest"] = digests[next(iter(passes))]
    if len(set(digests.values())) != 1:
        problems.append(f"the passes' outputs differ: {digests}")
    report["oracle_self_test"] = verdicts = self_test(all_outputs, twins)
    if any("ACCEPTS" in v.values() for v in verdicts.values()):
        problems.append(f"an oracle accepted a corrupted output: {verdicts}")

    base = passes["untraced" if args.trace == 0 else "untraced0"]
    times = scaled_times(base)
    wall = [r["seconds"] for r in base["jobs"]]
    ran = len(times)
    pct, tail_s = tail(times)
    report.update(
        jobs_run=ran,
        rounds_run=jobs[ran - 1]["round"] + 1,
        elapsed_s=base["elapsed_s"],
        list_exhausted=base["exhausted"],
        host_probe_s=statistics.median(
            [base["first_probe_s"]] + [r["probe_s"] for r in base["jobs"]]
        ),
        wall_job_p50_s=statistics.median(wall),
        wall_job_tail_s=tail(wall)[1],
        tail_percentile=pct,
        tail_jobs_beyond=ran - math.ceil(ran * pct / 100),
        fail_ratio=len(failures) / attempted,
        failures=failures[:5],
        problems=problems,
        input_properties=input_properties(jobs, ran),
    )

    if args.trace == 0:
        metrics = {
            "jobs_per_s": (ran / sum(times), "1/s"),
            "job_p50_s": (statistics.median(times), "s"),
            "job_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (base["peak_rss_mb"], "MiB"),
        }
    else:
        cap_ids = {j["id"] for j in jobs[:fixed] if j["cap"]}
        output_bytes = sum(len(all_outputs[i][2] or b"") for i in range(fixed))
        per_pass = []
        for k in range(TRACE_PAIRS):
            traced = passes[f"traced{k}"]
            layer = tracing.layer_metrics(traced["spans"], cap_ids)
            cache = traced["hilbert_cache"]
            lookups = cache["hits"] + cache["misses"]
            layer["rings.cache_hit_share"] = cache["hits"] / lookups if lookups else 0.0
            layer["cli.output_bytes"] = output_bytes
            per_pass.append(layer)
        # every pass runs the same jobs in the same order; each job counts
        # with its median scaled time over the passes of a kind, so a slow
        # spell of the host that hits one pass does not decide the ratio
        scaled = {name: scaled_times(res) for name, res in passes.items()}
        untraced_s, traced_s = (
            sum(statistics.median(ts) for ts in zip(*(v for n, v in scaled.items()
                                                       if n.startswith(kind))))
            for kind in ("untraced", "traced")
        )
        pass_s = {name: sum(ts) for name, ts in scaled.items()}
        report["pass_job_s"] = pass_s
        points = sorted(tracing.points_per_job(passes["traced0"]["spans"]).values())
        report["input_properties"]["points_per_job"] = (
            {"min": points[0], "median": statistics.median(points), "max": points[-1],
             "jobs": len(points)} if points else None
        )
        layer = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layer["trace.overhead_ratio"] = traced_s / untraced_s - 1
        metrics = {name: (layer[name], spec[0]) for name, spec in tracing.LAYERS.items()}

    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
