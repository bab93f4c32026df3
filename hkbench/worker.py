"""One benchmark pass: run a job list through ``hkdensity.cli.main`` in this
process, one job after another (a closed loop with a single client).

Usage (from run.py):
    python worker.py --src SRC --workdir DIR --outdir NAME --seconds S
                     --min-jobs K [--max-jobs M] [--trace] --results FILE

Jobs are read one line at a time from worker_jobs.jsonl in DIR, so the
list's size does not enter the peak RSS.  They run in list order.  The pass
stops at the first round boundary after both S seconds and K jobs, or after
M jobs, or at the end of the list.  Only ``main`` is inside the timed region;
the package import before the loop is what ``setup_s`` measures separately.
A host-speed probe (hostspeed.py) runs before the first job and after each.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import hostspeed
import tracing


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-jobs", type=int, default=0)
    ap.add_argument("--max-jobs", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--results", required=True)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from hkdensity import cli, rings

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    run_main = cli.main  # the wrapped main when tracing

    os.chdir(args.workdir)
    os.makedirs(args.outdir, exist_ok=True)

    results = []
    first_probe = hostspeed.probe()
    exhausted = True
    last_round = None
    start = time.perf_counter()
    with open("worker_jobs.jsonl", encoding="utf-8") as lines:
        for i, line in enumerate(lines):
            job = json.loads(line)
            if i == args.max_jobs or (
                i >= args.min_jobs
                and job["round"] != last_round
                and time.perf_counter() - start >= args.seconds
            ):
                exhausted = False
                break
            last_round = job["round"]
            argv = job["argv"] + ["--out", f"{args.outdir}/{job['id']}.{job['ext']}"]
            err = io.StringIO()
            if tracer is not None:
                tracer.job = job["id"]
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    rc = run_main(argv)
            except Exception:  # a crash is a failed job, not a failed pass
                rc = None
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.job = None
            results.append({"id": job["id"], "rc": rc, "seconds": t1 - t0,
                            "probe_s": hostspeed.probe(), "stderr": err.getvalue()})
    elapsed = time.perf_counter() - start

    info = rings.hilbert_function.cache_info()
    payload = {
        "jobs": results,
        "first_probe_s": first_probe,
        "elapsed_s": elapsed,
        "exhausted": exhausted,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "hilbert_cache": {"hits": info.hits, "misses": info.misses},
        "spans": None if tracer is None else tracer.spans,
    }
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
