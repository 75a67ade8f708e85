"""Single-thread timings of the calls in ROADMAP item 2's baseline table.

    python3 perfbench/baseline.py

Runs itself again in a child with the benchmark's environment: BLAS and
OpenMP pinned to one thread, the checkout's src on PYTHONPATH.  Inputs come
from seed 0; each call is timed three times and the median printed, except
the mixing time at n = 40, which runs once.
NOTES.md holds the table this printed.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import THREAD_PINS, child_env  # noqa: E402

SEED = 0
REPEATS = 3


def timed(fn, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main():
    env = child_env(HERE.parent / "src")
    if any(os.environ.get(k) != env[k] for k in (*THREAD_PINS, "PYTHONPATH")):
        return subprocess.run([sys.executable, __file__], env=env).returncode
    import numpy as np

    from ergo import (SeminormWeight, deflated_norm, dobrushin, induced_seminorm,
                      mixing_time, tau)
    from ergo.linalg import INF
    from workloads import _lazy_cycle, _random_stochastic

    rng = np.random.default_rng(SEED)
    A = _random_stochastic(rng, 400)
    one = np.ones(400)
    rows = [
        ("tau, p = 1, n = 400", lambda: tau(one, A, 1), REPEATS),
        ("tau, p = inf, n = 400", lambda: tau(one, A, INF), REPEATS),
        ("tau, p = 2, n = 400", lambda: tau(one, A, 2), REPEATS),
        ("dobrushin, n = 400", lambda: dobrushin(A), REPEATS),
        ("deflated_norm, q = 1, n = 400", lambda: deflated_norm(one, A, 1), REPEATS),
        ("agreement seminorm, p = inf, n = 400",
         lambda: induced_seminorm(A, SeminormWeight.agreement(400), INF), REPEATS),
    ]
    for n in (10, 20, 30, 60):
        M = _random_stochastic(rng, n)
        rows.append((f"deflated_norm, q = inf (LP), n = {n}",
                     lambda M=M: deflated_norm(np.ones(len(M)), M, INF), REPEATS))
    rows.append(("mixing_time(0.01), lazy cycle n = 20",
                 lambda: mixing_time(_lazy_cycle(20), 0.01), REPEATS))
    rows.append(("mixing_time(0.01), lazy cycle n = 40",
                 lambda: mixing_time(_lazy_cycle(40), 0.01), 1))
    print(f"| call | median of k, 1 thread (seed {SEED}) |\n| --- | --- |")
    for name, fn, k in rows:
        print(f"| {name} | {timed(fn, k):.3f} s (k = {k}) |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
