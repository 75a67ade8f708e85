"""The ergo benchmark: one workload per invocation, closed loop, one thread.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload runs in a child interpreter
(child.py) whose environment pins BLAS and OpenMP to one thread; set-up time
is the median over several fresh children.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a traced run instead.  A result file
with the environment record goes to perfbench/results/.  NOTES.md explains
the workloads and how to read the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import median_metrics, per_layer_units  # noqa: E402

WORKLOADS = ("dense-kernels", "chain-analysis", "cli-verify")
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
#: fresh interpreters timed for setup_s, after one discarded start that warms
#: the file cache and writes bytecode; the measuring child adds one more sample
SETUP_SAMPLES = 4
RUN_LIMIT_S = 170.0
#: a pass over each job list at its own scale, single-threaded, on a 2-core
#: x86-64 box; fixes how many passes make up one --seconds run
NOMINAL_PASS_S = {
    "full": {"dense-kernels": 10.0, "chain-analysis": 2.5, "cli-verify": 0.7},
    "small": {"dense-kernels": 0.05, "chain-analysis": 0.05, "cli-verify": 0.1},
}
MIN_PASSES = 3
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def passes_for(seconds, workload, scale):
    """A fixed pass count per (seconds, workload), so every run of one
    configuration pools the same number of job samples."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[scale][workload]))


def child_env(src):
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(src)
    return env


def spawn(args, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    cmd = [sys.executable, str(HERE / "child.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child exceeded the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("child printed no result")


def git_commit(root):
    """The checked-out commit, read from .git by hand.

    The benchmark reads only inside its checkout, and git does not: it reads
    the user's and the system's config, and outside a repository it searches
    the parent directories for one.
    """
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it: the value
    with exactly that many larger samples, and its percentile."""
    ranked = sorted(latencies)
    n = len(ranked)
    beyond = min(TAIL_BEYOND, n - 1)
    return ranked[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def pass_wall(passes):
    """The median pass, taken job by job: the sum over the job list of each
    job's median latency.  A burst of machine noise that slows one pass then
    moves the figure only through the jobs it hit."""
    return sum(statistics.median(p["outcomes"][i][0] for p in passes)
               for i in range(len(passes[0]["outcomes"])))


def summarize(child, setup_samples, trace):
    """(metrics, counts): the metrics of the JSON line, plus the counts printed beside them."""
    outcomes = [o for p in child["passes"] for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(status != "ok" for _, status, _ in outcomes)
    wrong = sum(status == "wrong" for _, status, _ in outcomes)
    untraced = [p for p in child["passes"] if not p["traced"]]
    latencies = [o[0] for p in untraced for o in p["outcomes"]]
    tail_s, tail_pct, beyond = tail(latencies)
    counts = {"attempted": attempted, "failed": failed, "wrong": wrong,
              "passes": len(child["passes"]), "jobs_per_pass": len(child["jobs"]),
              "latency_samples": len(latencies), "tail_percentile": tail_pct,
              "tail_beyond": beyond, "setup_samples": len(setup_samples),
              "failed_ratio": failed / attempted}
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (pass_wall(untraced), "s"),
            "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "job_tail_ms": (1e3 * tail_s, "ms"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        }
        return metrics, counts
    layers = median_metrics(child["layers"])
    layers["tracing.wall_s_traced"] = pass_wall([p for p in child["passes"] if p["traced"]])
    layers["tracing.wall_s_untraced"] = pass_wall(untraced)
    layers["tracing.overhead_ratio"] = (layers["tracing.wall_s_traced"]
                                        / layers["tracing.wall_s_untraced"] - 1.0)
    units = per_layer_units()
    return {k: (layers[k], units[k]) for k in units}, counts


def failures(child):
    """Each failing job once, with how it failed on its first failing pass."""
    seen = {}
    for p in child["passes"]:
        for name, (_, status, detail) in zip(child["jobs"], p["outcomes"]):
            if status != "ok" and name not in seen:
                seen[name] = f"{status}: {detail}"[:300]
    return seen


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=tuple(NOMINAL_PASS_S), default="full",
                    help="small runs every job at its smallest size (harness self-test)")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ergo" / "__init__.py").is_file():
        print(f"perfbench: no ergo sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(src)
    results = HERE / "results"
    work = HERE / "work"
    results.mkdir(exist_ok=True)
    work.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
              "--src", str(src), "--workdir", str(work)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes = passes_for(args.seconds, args.workload, args.scale)
    try:
        setup_samples = [spawn([*common, "--setup-only"], env, deadline)["setup_s"]
                         for _ in range(1 + SETUP_SAMPLES)][1:]
        extra = ["--trace-out", str(results / f"spans-{tag}.json")] if args.trace else []
        child = spawn([*common, "--passes", str(passes), "--trace", str(args.trace), *extra],
                      env, deadline)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    setup_samples.append(child["setup_s"])
    metrics, counts = summarize(child, setup_samples, args.trace)
    failing = failures(child)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "load": "closed loop, 1 client process, 1 thread, each job starts when the last ends",
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "counts": counts, "failing_jobs": failing,
        "pass_wall_s": [sum(o[0] for o in p["outcomes"]) for p in child["passes"]],
        "job_median_ms": {name: 1e3 * statistics.median(p["outcomes"][i][0]
                                                        for p in child["passes"])
                          for i, name in enumerate(child["jobs"])},
        "environment": {**child["versions"], "cpu_count": os.cpu_count(),
                        "commit": git_commit(ROOT), "seed": args.seed,
                        "child_env": THREAD_PINS},
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  {counts['passes']} passes x "
          f"{counts['jobs_per_pass']} jobs  (closed loop, 1 process, 1 thread)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':44s} {counts['failed_ratio']:14.6f} ratio "
              f"({counts['failed']} of {counts['attempted']} jobs)")
        print(f"  job_p50_ms over {counts['latency_samples']} samples; job_tail_ms is "
              f"p{counts['tail_percentile']:.1f} ({counts['tail_beyond']} samples beyond); "
              f"setup_s is the median of {counts['setup_samples']} fresh interpreters")
    for name, how in failing.items():
        print(f"  failing job {name}: {how}")
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
