"""Command-line frontend.

Every command prints one deterministic JSON report to stdout.  Exit codes
are frozen for scripting: 0 success, 2 malformed input, 3 precondition
failure, 4 numerical cross-check failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .errors import ErgoError, InputFormatError, PreconditionError
from .linalg import dominant_pair
from .matrix_io import load_matrix, load_sequence, load_vector
from .ergodicity import dobrushin, tau
from .seminorm import SeminormWeight, induced_seminorm, kernel_invariance_residual
from .spectral import _optimal_weight, _unwrap
from .markov import mixing_time
from .contraction import certify_averaging, simulate_and_check
from .report import render_report
from .verify import SUITES, run_suite


def _env_seed():
    raw = os.environ.get("ERGO_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        raise InputFormatError(f"ERGO_SEED must be an integer, got {raw!r}")
    if seed < 0:
        raise InputFormatError(f"ERGO_SEED must be non-negative, got {raw!r}")
    return seed


def _resolve_anchor(spec, M):
    if spec == "ones":
        return np.ones(M.shape[0]), "ones"
    if spec == "stationary":
        return dominant_pair(M)[1], "stationary"
    if spec.startswith("file:"):
        return load_vector(spec[5:]), spec
    raise InputFormatError(f"unknown anchor {spec!r}; use ones, stationary or file:<path>")


def cmd_tau(args):
    M = load_matrix(args.matrix)
    v, anchor_tag = _resolve_anchor(args.anchor, M)
    result = tau(v, M, args.p)
    payload = {
        "value": result.value,
        "route": result.route,
        "p": str(args.p),
        "anchor": result.anchor,
    }
    residuals = {}
    if anchor_tag == "ones" and result.p == 1:
        try:
            dob = dobrushin(M)
        except PreconditionError:
            return payload, residuals  # not a chain: no Dobrushin block
        payload["dobrushin"] = {"halfsum": dob.value, "minsum": dob.overlap}
        residuals["dobrushin_cross_formula"] = abs(dob.value - dob.overlap)
        residuals["dobrushin_vs_tau"] = abs(dob.value - result.value)
    return payload, residuals


_WEIGHT_CHOICES = "pv:<vector-file>, qw, agreement, incidence, factored:<matrix-file>"


def _resolve_weight(spec, M, anchor_spec):
    n = M.shape[0]
    if anchor_spec != "ones" and not spec.startswith("factored:"):
        raise InputFormatError("--anchor applies only to the factored weight")
    if spec == "agreement":
        return SeminormWeight.agreement(n)
    if spec == "incidence":
        return SeminormWeight.incidence(n)
    if spec == "qw":
        return SeminormWeight.oblique(dominant_pair(M)[1])
    if spec.startswith("pv:"):
        return SeminormWeight.orthogonal(load_vector(spec[3:]))
    if spec.startswith("factored:"):
        S_factor = load_matrix(spec[9:])
        if not anchor_spec.startswith("file:"):
            raise InputFormatError("factored weight needs --anchor file:<vector-path>")
        v = load_vector(anchor_spec[5:])
        return SeminormWeight.factored(S_factor, v)
    raise InputFormatError(f"unknown weight {spec!r}; use one of {_WEIGHT_CHOICES}")


def cmd_seminorm(args):
    M = load_matrix(args.matrix)
    weight = _resolve_weight(args.weight, M, args.anchor)
    value = induced_seminorm(M, weight, args.p)
    payload = {
        "value": value,
        "weight": weight.kind,
        "p": str(args.p),
    }
    residuals = {"kernel_invariance": kernel_invariance_residual(M, weight)}
    return payload, residuals


def cmd_mixing(args):
    report = mixing_time(load_matrix(args.matrix), args.eps)
    payload = {
        "t_mix": report.t_mix,
        "epsilon": report.epsilon,
        "trace": [[k, d] for k, d in report.trace],
    }
    residuals = {"half_tauinf_identity_gap": report.identity_residual}
    return payload, residuals


def cmd_rho_ess(args):
    spectrum = _unwrap(load_matrix(args.matrix))
    report = spectrum.report()
    payload = {
        "rho_ess": report.rho_ess,
        "eigen_moduli": report.eigen_moduli,
        "diagonalizable": report.diagonalizable,
    }
    residuals = {}
    try:
        ow = _optimal_weight(spectrum, args.eps)
        payload["certificate"] = {
            "certified_value": ow.certified_value,
            "epsilon": ow.epsilon,
            "regime": ow.regime,
        }
        residuals["certified_minus_rho_ess"] = ow.certified_value - report.rho_ess
    except PreconditionError as e:
        payload["certificate"] = None
        payload["certificate_skipped"] = str(e)
    return payload, residuals


def cmd_certify(args):
    matrices = load_sequence(args.sequence)
    if args.x0 is None:
        sim = None
        cert = certify_averaging(matrices, args.p)
    else:
        sim = simulate_and_check(matrices, load_vector(args.x0), args.p)
        cert = sim["certificate"]
    payload = {
        "rate": cert.rate,
        "per_step": cert.per_step,
        "contracting": cert.contracting,
        "p": str(args.p),
        "weight": cert.weight.kind,
        "theorem_route": cert.theorem_route,
    }
    residuals = {}
    if sim is not None:
        payload["trajectory_seminorms"] = sim["trajectory_seminorms"]
        payload["bound_satisfied"] = sim["bound_satisfied"]
        overshoot = max(
            (s - cert.rate ** k * sim["trajectory_seminorms"][0]
             for k, s in enumerate(sim["trajectory_seminorms"])),
            default=0.0)
        residuals["trajectory_bound_overshoot"] = max(0.0, overshoot)
    return payload, residuals


def cmd_verify(args):
    if args.trials is not None and args.trials < 1:
        raise InputFormatError("--trials must be at least 1")
    if args.seed < 0:
        raise InputFormatError("--seed must be non-negative")
    report = run_suite(args.suite, args.trials, args.seed)
    residuals = {
        f"{name}_residual": check["max_residual"]
        for name, check in report["checks"].items()
    }
    return report, residuals


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared: do not modify it.

    Nothing callable is bound into it: `main` looks the `cmd_*` handler up in
    this module when it dispatches, so replacing a handler, or a name that a
    handler calls, takes effect on the next call.
    """
    parser = argparse.ArgumentParser(
        prog="ergo",
        description="ergodicity coefficients, induced matrix seminorms, and "
                    "semicontraction certificates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", help="ergodicity coefficient of a matrix file")
    p.add_argument("matrix")
    p.add_argument("--p", default="1", help="1, 2 or inf")
    p.add_argument("--anchor", default="ones", help="ones, stationary or file:<path>")

    p = sub.add_parser("seminorm", help="weighted induced matrix seminorm")
    p.add_argument("matrix")
    p.add_argument("--weight", required=True, help=_WEIGHT_CHOICES)
    p.add_argument("--p", default="inf", help="1, 2 or inf")
    p.add_argument("--anchor", default="ones", help="anchor vector for the factored weight")

    p = sub.add_parser("mixing", help="epsilon-mixing time of a chain")
    p.add_argument("matrix")
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("rho-ess", help="essential spectral radius and weight certificate")
    p.add_argument("matrix")
    p.add_argument("--eps", type=float, default=1e-3)

    p = sub.add_parser("certify", help="semicontraction certificate for a matrix sequence")
    p.add_argument("sequence", help="directory of matrix files or a JSON array")
    p.add_argument("--p", default="inf", help="1, 2 or inf")
    p.add_argument("--x0", default=None, help="initial state vector file")

    p = sub.add_parser("verify", help="randomized closed-form validation suites")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    return parser


def _echo_inputs(args):
    return {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None}


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if args.command == "verify" and args.seed is None:
            args.seed = _env_seed()
        payload, residuals = handler(args)
    except ErgoError as e:
        print(f"ergo: {e}", file=sys.stderr)
        return e.exit_code
    sys.stdout.write(render_report(args.command, _echo_inputs(args), payload,
                                   residuals, __version__))
    if args.command == "verify" and not payload.get("pass", True):
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
