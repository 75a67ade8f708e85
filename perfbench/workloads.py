"""The benchmark's three workloads: fixed job lists built from a seed.

A job is one closed-loop unit of work: ``run(tracer)`` makes the calls into
ergo (each through ``tracer.call``, so a traced pass records a span per
call) and returns what the program returned; ``check(result)`` is the
correctness gate, which raises ``WrongValue`` for a result that contradicts
its reference and ``Refused`` for a job that delivered no checkable result.
References are computed lazily, once per run, outside the timed region.

Why each workload exists is written in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ergo
import ergo.cli
from ergo import (SeminormWeight, StochasticMatrix, certify_averaging, certify_markov,
                  deflated_norm, distance_to_stationarity, dobrushin, dominant_pair,
                  ess_spectral_radius, induced_seminorm, mixing_time, optimal_weight,
                  oracle_tau, oracle_weighted_seminorm, simulate_and_check, tau,
                  tau_oblique)
from ergo.linalg import INF
from ergo.matrix_io import load_matrix, load_sequence
from ergo.report import render_report

from reference import (Refused, WrongValue, agreement_ref, at_most, check_trajectory,
                       close, distance, factored_l2_ref, induced_norm, mixing_scan,
                       projector, psi1_median, rounding_resolution, same_length,
                       second_modulus, seminorm_of, stationary, tau1_vertex, tau_ref)

#: how many roundings of its factor S an optimal_weight certificate may be off
#: by.  The returned S carries a few: on this workload's reversible chains for
#: seeds 500..529 (390 weights) the exact excess reached 8.3 single-rounding
#: moves, so 64 leaves a margin of about 8.
ROUNDINGS = 64


@dataclass
class Job:
    name: str
    run: Callable
    check: Callable


def _pname(p):
    return "pinf" if p == INF else f"p{p}"


def _random_stochastic(rng, n, floor=0.02):
    M = rng.uniform(0.0, 1.0, (n, n)) + floor
    return M / M.sum(axis=1, keepdims=True)


def _random_reversible(rng, n):
    B = rng.uniform(0.1, 1.0, (n, n))
    S = (B + B.T) / 2.0
    return S / S.sum(axis=1, keepdims=True)


def _rotating_chain(rng, n, mix=0.3):
    """A mostly-cyclic primitive chain: its deflated core has a complex spectrum."""
    return (1.0 - mix) * np.roll(np.eye(n), 1, axis=1) + mix * _random_stochastic(rng, n)


def _lazy_cycle(n):
    A = 0.5 * np.eye(n)
    for i in range(n):
        A[i, (i + 1) % n] += 0.25
        A[i, (i - 1) % n] += 0.25
    return A


def _value_job(name, span, fn, *args, ref):
    """A single call whose `.value` (or float result) must match ref()."""
    ref = functools.cache(ref)

    def run(tr):
        return tr.call(span, fn, *args)

    def check(out):
        close(getattr(out, "value", out), ref(), what=name)
    return Job(name, run, check)


# --------------------------------------------------------------------------
# dense-kernels: the exact kernels at the ROADMAP's target size

def dense_kernels(seed, scale, tracer, workdir):
    n, n_inc, n_lp = (300, 200, 60) if scale == "full" else (12, 8, 6)
    rng = np.random.default_rng([seed, 1])
    A = _random_stochastic(rng, n)
    SA = StochasticMatrix(A)
    B = rng.uniform(-1.0, 1.0, (n, n))
    r = rng.standard_normal(n)
    A_inc = _random_stochastic(rng, n_inc)
    A_lp = _random_stochastic(rng, n_lp)
    S = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
    one = np.ones(n)
    agreement = SeminormWeight.agreement(n)
    w_ref = functools.cache(lambda: stationary(A))

    jobs = []
    for tag, v, M in (("ones", one, A), ("rand", r, B)):
        for p in (1, 2, INF):
            jobs.append(_value_job(f"tau.{_pname(p)}.{tag}", f"ergodicity.tau.{_pname(p)}",
                                   tau, v, M, p, ref=functools.partial(tau_ref, v, M, p)))
    jobs.append(_value_job("dobrushin", "ergodicity.dobrushin", dobrushin, SA,
                           ref=lambda: tau1_vertex(one, A)))
    for q in (1, 2):
        jobs.append(_deflation_job(f"deflated_norm.q{q}.rand", r, B, q,
                                   ref=functools.partial(tau_ref, r, B, INF if q == 1 else 2)))
    for p in (1, 2, INF):
        jobs.append(_value_job(f"induced_seminorm.agreement.{_pname(p)}",
                               f"seminorm.induced_seminorm.agreement.{_pname(p)}",
                               induced_seminorm, A, agreement, p,
                               ref=functools.partial(agreement_ref, A, p)))

    def oblique(tr):
        _, w = tr.call("linalg.dominant_pair", dominant_pair, SA)
        return tr.call("seminorm.induced_seminorm.oblique.pinf", induced_seminorm,
                       A, SeminormWeight.oblique(w), INF)
    obl_ref = functools.cache(lambda: psi1_median(w_ref(), A.T)[0])
    jobs.append(Job("induced_seminorm.oblique.pinf", oblique,
                    lambda out: close(out, obl_ref(), what="oblique seminorm")))

    def factored(tr):
        W = tr.call("seminorm.SeminormWeight.factored", SeminormWeight.factored, S, one)
        return tr.call("seminorm.induced_seminorm.factored.p2", induced_seminorm, A, W, 2)
    fac_ref = functools.cache(lambda: factored_l2_ref(S, one, A))
    jobs.append(Job("induced_seminorm.factored.p2", factored,
                    lambda out: close(out, fac_ref(), what="factored l2 seminorm")))

    jobs.append(_markov_certificate_job("certify_markov.pinf", A, SA, INF, w_ref, rng))
    jobs.append(Job("ess_spectral_radius",
                    lambda tr: tr.call("spectral.ess_spectral_radius", ess_spectral_radius, SA),
                    _ess_check(A)))

    def incidence(tr):
        W = tr.call("seminorm.SeminormWeight.incidence", SeminormWeight.incidence, n_inc)
        return tr.call("seminorm.induced_seminorm.incidence.pinf", induced_seminorm,
                       A_inc, W, INF)
    inc_ref = functools.cache(lambda: tau1_vertex(np.ones(n_inc), A_inc))
    jobs.append(Job("incidence.pinf", incidence,
                    lambda out: close(out, inc_ref(), what="incidence sup = dobrushin")))
    jobs.append(_deflation_job(f"deflated_norm.qinf.n{n_lp}", np.ones(n_lp), A_lp, INF,
                               ref=None))
    return jobs


def _deflation_job(name, v, M, q, ref):
    """Psi_q(v, M): the value is attained at the returned minimiser, equals its
    dual tau (q = 1, 2), and for q = inf lies between tau_1 and the value at
    the projection vector."""
    def run(tr):
        return tr.call(f"seminorm.deflated_norm.q{'inf' if q == INF else q}",
                       deflated_norm, v, M, q)
    bounds = functools.cache(lambda: (
        tau1_vertex(v, M),
        induced_norm(M - np.outer(v, M.T @ v / float(v @ v)), INF)))
    ref = functools.cache(ref) if ref else None

    def check(out):
        close(induced_norm(M - np.outer(v, out.c_star), q), out.value, tol=1e-7,
              what=f"{name} attained at c_star")
        if ref is not None:
            close(out.value, ref(), what=f"{name} equals its dual tau")
        else:
            lower, upper = bounds()
            at_most(lower, out.value, what=f"tau_1 <= {name}")
            at_most(out.value, upper, what=f"{name} <= value at the projection vector")
    return Job(name, run, check)


def _markov_certificate_job(name, A, SA, p, w_ref, rng):
    """certify_markov: rate = tau_p(w, A P_w), and the distribution dynamics
    obey the trajectory bound in the P_w-weighted seminorm."""
    pi0 = rng.uniform(0.0, 1.0, A.shape[0])
    pi0 /= pi0.sum()
    ref = functools.cache(lambda: tau_ref(w_ref(), A @ projector(w_ref()), p))

    def check(out):
        close(out.rate, ref(), what=f"{name} rate")
        states = [pi0]
        for _ in range(2 * A.shape[0] + 10):
            states.append(A.T @ states[-1])
        check_trajectory(out.rate, projector(w_ref()), states, p)
    return Job(name, lambda tr: tr.call("contraction.certify_markov", certify_markov, SA, p),
               check)


def _ess_check(A):
    ref = functools.cache(lambda: second_modulus(A))
    return lambda out: close(out.rho_ess, ref(), tol=1e-8, what="rho_ess")


# --------------------------------------------------------------------------
# chain-analysis: Markov-chain and averaging-dynamics workflow at n <= 60

def chain_analysis(seed, scale, tracer, workdir):
    full = scale == "full"
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for n in ((12, 16, 20) if full else (4,)):
        jobs.append(_mixing_job(f"mixing_time.cycle{n}", _lazy_cycle(n), 0.01))
    for n in ((30, 60) if full else (6,)):
        jobs.extend(_chain_jobs(rng, n))
    for n in (range(4, 13) if full else (4, 5)):
        jobs.extend(_spectral_jobs(f"rev{n}", _random_reversible(rng, n)))
    for n in (range(3, 9) if full else (3,)):
        jobs.extend(_spectral_jobs(f"rot{n}", _rotating_chain(rng, n)))
    steps, n = (30, 40) if full else (3, 5)
    seq = [_random_stochastic(rng, n) for _ in range(steps)]
    x0 = rng.standard_normal(n)
    for p in (1, 2, INF):
        jobs.extend(_averaging_jobs(seq, x0, p))
    return jobs


def _mixing_job(name, A, eps):
    ref = functools.cache(lambda: mixing_scan(A, eps))

    def run(tr):
        report = tr.call("markov.mixing_time", mixing_time, A, eps)
        tr.count("markov.mixing_time.t_mix", report.t_mix)
        return report

    def check(out):
        t_mix, trace = ref()
        if out.t_mix != t_mix:
            raise WrongValue(f"{name}: t_mix {out.t_mix}, reference {t_mix}")
        same_length(out.trace, trace, what=f"{name} trace")
        for (k, d), want in zip(out.trace, trace):
            close(d, want, what=f"{name} d(A, {k})")
    return Job(name, run, check)


def _chain_jobs(rng, n):
    M = _random_stochastic(rng, n)
    SM = StochasticMatrix(M)
    w_ref = functools.cache(lambda: stationary(M))
    tag = f"n{n}"

    def check_stochastic(out):
        close(np.abs(out.matrix - M / M.sum(axis=1, keepdims=True)).max(), 0.0, tol=1e-12,
              what="validated matrix")
        if not out.primitive:
            raise WrongValue("positive matrix reported as not primitive")

    def check_pair(out):
        ones, pi = out
        close(np.abs(M.T @ pi - pi).sum(), 0.0, tol=1e-10, what="stationary residual")
        close(np.abs(pi - w_ref()).max(), 0.0, tol=1e-8, what="stationary vector")
        close(np.abs(ones - 1.0).max(), 0.0, what="right eigenvector")

    dist_ref = functools.cache(lambda: distance(np.linalg.matrix_power(M, 50), w_ref()))
    jobs = [
        Job(f"StochasticMatrix.{tag}",
            lambda tr: tr.call("linalg.StochasticMatrix", StochasticMatrix, M), check_stochastic),
        Job(f"dominant_pair.{tag}",
            lambda tr: tr.call("linalg.dominant_pair", dominant_pair, SM), check_pair),
        _value_job(f"distance_to_stationarity.k50.{tag}", "markov.distance_to_stationarity",
                   distance_to_stationarity, SM, 50, ref=dist_ref),
    ]
    for p in (1, 2, INF):
        jobs.append(_markov_certificate_job(f"certify_markov.{_pname(p)}.{tag}", M, SM, p,
                                            w_ref, rng))
    for p in (1, 2, INF):
        jobs.append(_value_job(f"tau_oblique.{_pname(p)}.{tag}", "ergodicity.tau_oblique",
                               tau_oblique, SM, p,
                               ref=functools.partial(lambda p: tau_ref(w_ref(), M.T, p), p)))
    return jobs


def _spectral_jobs(tag, A):
    """rho_ess, then the epsilon-close weight: rho_ess <= certified <= rho_ess + eps,
    and the weight's sup-seminorm of A does not exceed the certified value."""
    rho = functools.cache(lambda: second_modulus(A))
    exact = {}
    jobs = [Job(f"ess_spectral_radius.{tag}",
                lambda tr: tr.call("spectral.ess_spectral_radius", ess_spectral_radius, A),
                _ess_check(A))]
    for eps in (1e-1, 1e-2, 1e-3):
        def check(out, eps=eps):
            at_most(rho(), out.certified_value, tol=1e-8, what="rho_ess <= certified")
            at_most(out.certified_value, rho() + eps, tol=1e-8, what="certified <= rho_ess + eps")
            S, v = out.weight.s_factor, out.weight.anchor
            key = (S.tobytes(), v.tobytes())
            if key not in exact:
                exact[key] = rounding_resolution(S, v, A)
            value, move = exact[key]
            at_most(value, out.certified_value + ROUNDINGS * move, tol=0.0,
                    what="weight seminorm <= certified")
        jobs.append(Job(f"optimal_weight.{tag}.eps{eps:g}",
                        functools.partial(lambda tr, eps: tr.call(
                            "spectral.optimal_weight", optimal_weight, A, eps), eps=eps),
                        check))
    return jobs


def _averaging_jobs(seq, x0, p):
    """certify_averaging and simulate_and_check over one time-varying sequence."""
    n = len(x0)
    per_step = functools.cache(lambda: [agreement_ref(M, p) for M in seq])
    states = [x0]
    for M in seq:
        states.append(M @ states[-1])
    Pi = projector(np.ones(n))

    def check_cert(cert):
        same_length(cert.per_step, per_step(), what="per-step seminorms")
        for k, (got, want) in enumerate(zip(cert.per_step, per_step())):
            close(got, want, what=f"per-step seminorm {k}")
        close(cert.rate, max(per_step()), what="rate")
        check_trajectory(cert.rate, Pi, states, p)

    def check_sim(out):
        check_cert(out["certificate"])
        if out["bound_satisfied"] is not True:
            raise WrongValue("simulate_and_check reports a violated bound")
        same_length(out["trajectory_seminorms"], states, what="trajectory seminorms")
        for k, (got, x) in enumerate(zip(out["trajectory_seminorms"], states)):
            close(got, seminorm_of(Pi @ x, p), what=f"trajectory seminorm {k}")

    name = _pname(p)
    return [
        Job(f"certify_averaging.{name}",
            lambda tr: tr.call("contraction.certify_averaging", certify_averaging, seq, p),
            check_cert),
        Job(f"simulate_and_check.{name}",
            lambda tr: tr.call("contraction.simulate_and_check", simulate_and_check, seq, x0, p),
            check_sim),
    ]


# --------------------------------------------------------------------------
# cli-verify: the CLI in-process, matrix files, reports, oracles, verify suites

def run_cli(argv):
    """ergo.cli.main(argv) as a script sees it: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ergo.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class Fixtures:
    """Matrix and vector files written during set-up, remembered by name."""

    def __init__(self, workdir):
        self.dir = Path(workdir)
        self.arrays = {}

    def write(self, name, A, fmt="csv"):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        path = self.dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in A))
        elif fmt == "json-object":
            path.write_text(json.dumps({"rows": A.shape[0], "cols": A.shape[1],
                                        "data": A.reshape(-1).tolist()}))
        else:
            path.write_text(json.dumps(A.tolist()))
        self.arrays[name] = A
        return str(path)

    def path(self, name):
        return str(self.dir / name)


def cli_verify(seed, scale, tracer, workdir):
    full = scale == "full"
    rng = np.random.default_rng([seed, 3])
    fx = Fixtures(workdir)
    tracer.patch(ergo.cli, "run_suite", lambda suite, *rest: f"verify.run_suite.{suite}")

    sizes = (3, 4, 5, 6, 8, 12, 20, 30) if full else (3, 4, 6)
    formats = {4: "json-object", 6: "json-list"}
    stoch = {}
    for n in sizes:
        fmt = formats.get(n, "csv")
        name = f"a{n}.json" if fmt != "csv" else f"a{n}.csv"
        stoch[n] = name
        fx.write(name, _random_stochastic(rng, n), fmt)
    fx.write("real5.csv", rng.uniform(-1.0, 1.0, (5, 5)))
    fx.write("r5.csv", rng.standard_normal(5))
    semi_sizes = (3, 5, 8, 20) if full else (3, 4)
    for n in semi_sizes:
        fx.write(f"ones{n}.csv", np.ones(n))
    fac_sizes = (5, 8) if full else (4,)
    for n in fac_sizes:
        fx.write(f"S{n}.csv", np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n))
    for n in (3, 4, 6):
        fx.write(f"rev{n}.csv", _random_reversible(rng, n))
    fx.write("rot3.csv", np.array([[.1, .8, .1], [.1, .1, .8], [.8, .1, .1]]))
    fx.write("rot5.csv", _rotating_chain(rng, 5))
    for n in ((6, 8, 12) if full else (4,)):
        fx.write(f"cycle{n}.csv", _lazy_cycle(n))
    seq_n, seq_len = (8, 6) if full else (4, 2)
    for k in range(seq_len):
        fx.write(f"seq/step{k:02d}.csv", _random_stochastic(rng, seq_n))
    seq_json = [_random_stochastic(rng, 6) for _ in range(4 if full else 2)]
    Path(fx.path("seq.json")).write_text(json.dumps([M.tolist() for M in seq_json]))
    fx.write("x0.csv", rng.standard_normal(seq_n))
    (fx.dir / "ragged.csv").write_text("0.5,0.5\n1.0\n")
    fx.write("periodic2.csv", np.array([[0.0, 1.0], [1.0, 0.0]]))

    jobs = []
    cmd = functools.partial(_cli_job, fx)
    for n in sizes:
        for p in ("1", "2", "inf"):
            jobs.append(cmd(["tau", stoch[n], "--p", p], _check_tau(fx, stoch[n], p)))
    for n in ((3, 6, 12) if full else (3,)):
        for p in ("1", "inf"):
            jobs.append(cmd(["tau", stoch[n], "--p", p, "--anchor", "stationary"],
                            _check_tau(fx, stoch[n], p)))
    for p in ("1", "2", "inf"):
        jobs.append(cmd(["tau", "real5.csv", "--p", p, "--anchor", "file:r5.csv"],
                        _check_tau(fx, "real5.csv", p)))
    for n in semi_sizes:
        name = stoch[n]
        for weight, ps in (("agreement", ("1", "2", "inf")), ("incidence", ("2", "inf")),
                           ("qw", ("1", "inf")), (f"pv:ones{n}.csv", ("inf",))):
            for p in ps:
                jobs.append(cmd(["seminorm", name, "--weight", weight, "--p", p],
                                _check_seminorm(fx, name, weight.split(":")[0], p)))
    for n in fac_sizes:
        jobs.append(cmd(["seminorm", stoch[n], "--weight", f"factored:S{n}.csv",
                         "--anchor", f"file:ones{n}.csv", "--p", "2"],
                        _check_factored(fx, stoch[n], f"S{n}.csv")))
    mixing_files = [f"cycle{n}.csv" for n in ((6, 8, 12) if full else (4,))]
    mixing_files += [stoch[5 if full else 3], stoch[12 if full else 4]]
    for name in mixing_files:
        jobs.append(cmd(["mixing", name, "--eps", "0.01"], _check_mixing(fx, name, 0.01)))
    for name, eps in (("rev3.csv", "0.01"), ("rev4.csv", "0.01"), ("rev6.csv", None),
                      ("rot3.csv", None), ("rot5.csv", None)):
        argv = ["rho-ess", name] + (["--eps", eps] if eps else [])
        jobs.append(cmd(argv, _check_rho_ess(fx, name, float(eps or 1e-3))))
    seq_steps = [fx.arrays[f"seq/step{k:02d}.csv"] for k in range(seq_len)]
    for p in ("1", "2", "inf"):
        jobs.append(cmd(["certify", "seq", "--p", p, "--x0", "x0.csv"],
                        _check_certify(seq_steps, p, fx.arrays["x0.csv"][0]),
                        entries=sum(M.size for M in seq_steps)))
    jobs.append(cmd(["certify", "seq.json", "--p", "inf"], _check_certify(seq_json, "inf", None),
                    entries=sum(M.size for M in seq_json)))
    trials = {"equivalence": 6, "oblique": 8, "incidence": 8, "conjecture": 9,
              "spectral": 4, "mixing": 8} if full else dict.fromkeys(
                  ("equivalence", "oblique", "incidence", "conjecture", "spectral", "mixing"), 1)
    for suite, t in trials.items():
        jobs.append(cmd(["verify", "--suite", suite, "--trials", str(t), "--seed", str(seed)],
                        _check_verify(suite, t, seed), entries=0))
    for argv, code in ((["tau", "ragged.csv"], 2), (["mixing", "periodic2.csv", "--eps", "0.01"], 3),
                       (["verify", "--suite", "mixing", "--trials", "0"], 2)):
        jobs.append(cmd(argv, _expect_exit(code), entries=0))

    for name, A in fx.arrays.items():
        if not name.startswith("seq/"):
            jobs.append(_load_job(fx, name, A))
    jobs.append(_load_sequence_job(fx.path("seq"), seq_steps))
    jobs.append(_load_sequence_job(fx.path("seq.json"), seq_json))
    jobs.extend(_render_jobs(rng, full))

    A6 = _random_stochastic(rng, 6)
    B6, r6 = rng.uniform(-1.0, 1.0, (6, 6)), rng.standard_normal(6)
    for tag, v, M in (("ones", np.ones(6), A6), ("rand", r6, B6)):
        for p in (1, INF):
            jobs.append(_value_job(f"oracle_tau.{_pname(p)}.{tag}", "oracle.oracle_tau",
                                   oracle_tau, v, M, p, ref=functools.partial(tau_ref, v, M, p)))
    # vertex enumeration only: the p = 2 oracle iterates, and its iteration
    # count, hence its cost, swings tenfold with the matrix
    A5 = _random_stochastic(rng, 5)
    w5 = stationary(A5)
    for weight, p, ref in (
            (SeminormWeight.agreement(5), 1, lambda: agreement_ref(A5, 1)),
            (SeminormWeight.agreement(5), INF, lambda: agreement_ref(A5, INF)),
            (SeminormWeight.incidence(5), INF, lambda: tau1_vertex(np.ones(5), A5)),
            (SeminormWeight.oblique(w5), 1, lambda: tau_ref(w5, A5.T, 1)),
            (SeminormWeight.oblique(w5), INF, lambda: tau_ref(w5, A5.T, INF))):
        jobs.append(_oracle_seminorm_job(f"oracle_weighted_seminorm.{weight.kind}.{_pname(p)}",
                                         A5, weight, p, ref))
    return jobs


def _cli_job(fx, argv, check, entries=None):
    """One `ergo` command.  Exit code, JSON output and value are checked, and
    the report bytes must be identical on every pass."""
    name = " ".join(["ergo", *argv])
    if entries is None:
        entries = sum(fx.arrays[a].size for a in argv if a in fx.arrays)
    argv = [_fixture_arg(fx, a) for a in argv]
    first = {}

    def run(tr):
        return tr.call(f"cli.main.{argv[0]}", run_cli, argv, entries=entries)

    def gate(out):
        code, stdout, _ = out
        if first.setdefault("stdout", stdout) != stdout:
            raise WrongValue("report bytes differ from the first pass")
        check(code, stdout)
    return Job(name, run, gate)


def _fixture_arg(fx, arg):
    """Fixture names become paths, also behind the pv:, file: and factored: prefixes."""
    prefix, _, rest = arg.rpartition(":")
    if (fx.dir / rest).exists():
        return f"{prefix}:{fx.path(rest)}" if prefix else fx.path(rest)
    return arg


def _report(code, stdout):
    if code != 0:
        raise Refused(f"exit code {code}, expected 0")
    try:
        return json.loads(stdout)["result"]
    except (ValueError, KeyError) as e:
        raise WrongValue(f"stdout is not a JSON report: {e}")


def _expect_exit(expected):
    def check(code, stdout):
        if code != expected:
            raise WrongValue(f"exit code {code}, expected {expected}")
        if stdout:
            raise WrongValue("an error exit printed a report")
    return check


def _check_tau(fx, name, p):
    M = fx.arrays[name]
    pn = INF if p == "inf" else int(p)
    oracle = functools.cache(lambda anchor: oracle_tau(np.array(anchor), M, pn).value)

    def check(code, stdout):
        result = _report(code, stdout)
        anchor = tuple(result["anchor"])
        close(result["value"], tau_ref(np.array(anchor), M, pn), what=f"tau p={p}")
        if M.shape[0] <= 6 and pn != 2:
            close(result["value"], oracle(anchor), what=f"tau p={p} against oracle_tau")
    return check


def _check_seminorm(fx, name, weight, p):
    M = fx.arrays[name]
    pn = INF if p == "inf" else int(p)
    if weight == "qw":
        ref = functools.cache(lambda: tau_ref(stationary(M), M.T, pn))
    elif weight == "incidence" and pn == INF:
        ref = functools.cache(lambda: tau1_vertex(np.ones(len(M)), M))
    else:
        # pv:ones is the agreement weight; ||C^T x||_2 = sqrt(2n) ||Pi x||_2
        ref = functools.cache(lambda: agreement_ref(M, pn))

    def check(code, stdout):
        close(_report(code, stdout)["value"], ref(), what=f"{weight} seminorm p={p}")
    return check


def _check_factored(fx, name, factor):
    M, S = fx.arrays[name], fx.arrays[factor]
    ref = functools.cache(lambda: factored_l2_ref(S, np.ones(len(M)), M))
    return lambda code, stdout: close(_report(code, stdout)["value"], ref(),
                                      what="factored l2 seminorm")


def _check_mixing(fx, name, eps):
    ref = functools.cache(lambda: mixing_scan(fx.arrays[name], eps))

    def check(code, stdout):
        result = _report(code, stdout)
        t_mix, trace = ref()
        if result["t_mix"] != t_mix or len(result["trace"]) != len(trace):
            raise WrongValue(f"t_mix {result['t_mix']}, reference {t_mix}")
        for (k, d), want in zip(result["trace"], trace):
            close(d, want, what=f"d(A, {k})")
    return check


def _check_rho_ess(fx, name, eps):
    rho = functools.cache(lambda: second_modulus(fx.arrays[name]))

    def check(code, stdout):
        result = _report(code, stdout)
        close(result["rho_ess"], rho(), tol=1e-8, what="rho_ess")
        cert = result["certificate"]
        if cert is None:
            raise Refused(f"certificate skipped: {result.get('certificate_skipped')}")
        at_most(rho(), cert["certified_value"], tol=1e-8, what="rho_ess <= certified")
        at_most(cert["certified_value"], rho() + eps, tol=1e-8, what="certified <= rho_ess + eps")
    return check


def _check_certify(seq, p, x0):
    pn = INF if p == "inf" else int(p)
    per_step = functools.cache(lambda: [agreement_ref(M, pn) for M in seq])

    def check(code, stdout):
        result = _report(code, stdout)
        same_length(result["per_step"], per_step(), what="per-step seminorms")
        for k, (got, want) in enumerate(zip(result["per_step"], per_step())):
            close(got, want, what=f"per-step seminorm {k}")
        close(result["rate"], max(per_step()), what="rate")
        if x0 is not None:
            if result["bound_satisfied"] is not True:
                raise WrongValue("certify reports a violated trajectory bound")
            states = [x0]
            for M in seq:
                states.append(M @ states[-1])
            check_trajectory(result["rate"], projector(np.ones(len(x0))), states, pn)
    return check


def _check_verify(suite, trials, seed):
    def check(code, stdout):
        if code == 4:
            raise WrongValue(f"verify --suite {suite} failed a closed-form check")
        result = _report(code, stdout)
        if (result["suite"], result["trials"], result["seed"], result["pass"]) != (
                suite, trials, seed, True):
            raise WrongValue(f"unexpected verify report header for {suite}")
    return check


def _load_job(fx, name, A):
    def check(out):
        if out.shape != A.shape or not np.array_equal(out.reshape(A.shape), A):
            raise WrongValue(f"{name} does not round-trip")
    return Job(f"load_matrix.{name}",
               lambda tr: tr.call("matrix_io.load_matrix", load_matrix, fx.path(name),
                                  entries=A.size),
               check)


def _load_sequence_job(path, seq):
    def check(out):
        if len(out) != len(seq) or not all(np.array_equal(a, b) for a, b in zip(out, seq)):
            raise WrongValue(f"{Path(path).name} does not round-trip")
    return Job(f"load_sequence.{Path(path).name}",
               lambda tr: tr.call("matrix_io.load_sequence", load_sequence, path,
                                  entries=sum(M.size for M in seq)),
               check)


def _render_jobs(rng, full):
    """render_report on payloads shaped like the CLI's, one with a long trace."""
    t_mix, trace = mixing_scan(_lazy_cycle(30 if full else 6), 0.01)
    A = _random_stochastic(rng, 8)
    payloads = {
        "mixing": ({"matrix": "cycle.csv", "eps": 0.01},
                   {"t_mix": t_mix, "epsilon": 0.01,
                    "trace": [[k, d] for k, d in enumerate(trace)]},
                   {"half_tauinf_identity_gap": 0.0}),
        "tau": ({"matrix": "a8.csv", "p": "1", "anchor": "ones"},
                {"value": tau1_vertex(np.ones(8), A), "route": "pairwise-form", "p": "1",
                 "anchor": [1.0] * 8}, {"dobrushin_vs_tau": 0.0}),
        "certify": ({"sequence": "seq", "p": "inf"},
                    {"rate": 0.5, "per_step": [float(x) for x in rng.uniform(0, 1, 30)],
                     "contracting": True, "p": "inf", "weight": "agreement",
                     "theorem_route": "agreement-seminorm submultiplicativity"}, {}),
        "rho-ess": ({"matrix": "rev4.csv", "eps": 0.01},
                    {"rho_ess": 0.25, "eigen_moduli": [float(x) for x in np.sort(
                        np.abs(np.linalg.eigvals(A)))[::-1]],
                     "diagonalizable": True, "certificate": None,
                     "certificate_skipped": "factor condition number"}, {}),
    }
    jobs = []
    for command, (inputs, result, residuals) in payloads.items():
        first = {}

        def check(out, result=result, first=first):
            if first.setdefault("bytes", out) != out:
                raise WrongValue("report bytes differ from the first pass")
            if json.loads(out)["result"] != result:
                raise WrongValue("report does not round-trip its payload")
        args = (command, inputs, result, residuals, ergo.__version__)
        jobs.append(Job(f"render_report.{command}",
                        lambda tr, args=args: tr.call("report.render_report", render_report,
                                                      *args, entries=0),
                        check))
    return jobs


def _oracle_seminorm_job(name, A, weight, p, ref):
    ref = functools.cache(ref)
    return Job(name,
               lambda tr: tr.call("oracle.oracle_weighted_seminorm", oracle_weighted_seminorm,
                                  A, weight, p),
               lambda out: close(out.value, ref(), what=name))


_WORKLOAD_JOBS = {"dense-kernels": dense_kernels, "chain-analysis": chain_analysis,
            "cli-verify": cli_verify}


def build(workload, seed, scale, tracer, workdir):
    return _WORKLOAD_JOBS[workload](seed, scale, tracer, workdir)
