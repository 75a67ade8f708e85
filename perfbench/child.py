"""One workload in a fresh interpreter: set-up, then closed-loop passes.

Started by run.py with the BLAS/OpenMP thread pins in its environment and
the checkout's ``src`` as its only PYTHONPATH entry.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path


def run_pass(jobs, tracer):
    """Run every job once, in order; each starts when the previous one ends.

    A job's latency covers its calls into ergo only: its check runs after the
    clock stops.  Any exception, or any failed check, fails the job; failed
    jobs are neither retried nor dropped.
    """
    from reference import Refused

    outcomes = []
    for job_id, job in enumerate(jobs):
        start = time.perf_counter()
        try:
            with tracer.job(job_id):
                out = job.run(tracer)
        except Exception as e:  # the program under test may raise anything
            outcomes.append((time.perf_counter() - start, "raised", f"{type(e).__name__}: {e}"))
            continue
        latency = time.perf_counter() - start
        try:
            job.check(out)
        except Refused as e:
            outcomes.append((latency, "refused", str(e)))
        except Exception as e:  # WrongValue, or a result too malformed to check
            outcomes.append((latency, "wrong", f"{type(e).__name__}: {e}"))
        else:
            outcomes.append((latency, "ok", ""))
    return outcomes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    import ergo
    if not Path(ergo.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"ergo imported from {ergo.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        tracer = tracing.Tracer()
        jobs = workloads.build(args.workload, args.seed, args.scale, tracer, workdir / "jobs")
        # one pass at the smallest sizes loads lazy imports and fills caches;
        # it checks nothing, so no reference work lands in set-up time
        warm = tracing.Tracer()
        for job in workloads.build(args.workload, args.seed, "small", warm, workdir / "warm"):
            with contextlib.suppress(Exception):  # the known defects raise here too
                job.run(warm)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(jobs, tracer, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(jobs, tracer, args):
    import numpy as np
    import scipy

    import tracing

    passes, layers = [], []
    for i in range(args.passes):
        traced = bool(args.trace) and i % 2 == 0
        with tracer.traced_pass(i) if traced else contextlib.nullcontext():
            outcomes = run_pass(jobs, tracer)
        passes.append({"traced": traced, "outcomes": outcomes})
        if traced:
            spans = [s for s in tracer.spans if s.pass_ == i]
            layers.append(tracing.pass_metrics(spans, tracer.counters[i]))
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "job", "pass", "failed",
                       "entries", "peak_alloc_mb"],
            "jobs": [j.name for j in jobs],
            "spans": tracer.records()}))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "jobs": [j.name for j in jobs],
        "passes": passes,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
    }


if __name__ == "__main__":
    sys.exit(main())
