"""Self-test of the benchmark harness at the smallest sizes.

    python3 -m pytest perfbench/test_selftest.py -q

Not part of the repository's test suite: it starts several interpreters
and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from child import run_pass  # noqa: E402
from tracing import Tracer, per_layer_units  # noqa: E402
from reference import WrongValue  # noqa: E402
from workloads import Job, build  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--scale", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name in ("setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb"):
        if not trace:
            assert result["metrics"][name]["value"] > 0
    if not trace:
        assert "failed_ratio" in proc.stdout


def test_declared_per_layer_metrics_match_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == list(per_layer_units())
    assert SPEC["workloads"] and [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_injected_failing_job_raises_failed_ratio(tmp_path):
    tracer = Tracer()
    jobs = build("dense-kernels", 5, "small", tracer, tmp_path)

    def boom(tr):
        raise RuntimeError("injected")
    child = {"jobs": [j.name for j in jobs], "peak_rss_mb": 1.0,
             "passes": [{"traced": False, "outcomes": run_pass(jobs, tracer)}]}
    clean, _ = run.summarize(child, [0.1], trace=0)
    jobs.append(Job("injected", boom, lambda out: None))
    child["jobs"].append("injected")
    child["passes"] = [{"traced": False, "outcomes": run_pass(jobs, tracer)}]
    hurt, counts = run.summarize(child, [0.1], trace=0)
    assert clean["ok_ratio"][0] == 1.0
    assert counts["failed"] == 1
    assert counts["failed_ratio"] == pytest.approx(1 / len(jobs))
    assert hurt["ok_ratio"][0] == pytest.approx(1 - 1 / len(jobs))
    assert run.failures(child) == {"injected": "raised: RuntimeError: injected"}


def test_truncated_trace_is_wrong(tmp_path):
    tracer = Tracer()
    job = next(j for j in build("chain-analysis", 5, "small", tracer, tmp_path)
               if j.name.startswith("mixing_time."))
    out = job.run(tracer)
    job.check(out)
    out.trace = out.trace[:-1]
    with pytest.raises(WrongValue, match="trace"):
        job.check(out)


def test_uncertified_weight_is_wrong(tmp_path):
    from ergo import SeminormWeight
    tracer = Tracer()
    job = next(j for j in build("chain-analysis", 5, "small", tracer, tmp_path)
               if j.name == "optimal_weight.rev4.eps0.1")
    out = job.run(tracer)
    job.check(out)
    S = out.weight.s_factor.copy()
    S[0, 1] += 0.1 * abs(S).max()
    out.weight = SeminormWeight.factored(S, out.weight.anchor)
    with pytest.raises(WrongValue, match="weight seminorm"):
        job.check(out)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = bench("--workload", "cli-verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
