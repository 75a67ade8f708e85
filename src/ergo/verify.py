"""Randomized validation suites: closed forms against definition-level oracles.

Each suite returns a plain dict with named checks (asserted against a
tolerance) and measurements (reported gap statistics with no verdict).  The
measurements cover textbook identities that fail in general; the suites
quantify those gaps instead of hiding them.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import PreconditionError
from .linalg import (INF, StochasticMatrix, dominant_pair, orthogonal_projector, induced_pnorm,
                     _as_count)
from .ergodicity import _tau_values, dobrushin, tau, tau_oblique
from .seminorm import SeminormWeight, deflated_norm, induced_seminorm
from .spectral import ess_spectral_radius, optimal_weight, symmetric_l2_identity
from .markov import _scan, _worst_row_tv, distance_to_stationarity
from .oracle import oracle_tau, oracle_weighted_seminorm

def _stats(gaps):
    arr = np.asarray(gaps, dtype=float)
    return {
        "max": float(arr.max()) if arr.size else 0.0,
        "mean": float(arr.mean()) if arr.size else 0.0,
        "count": int(arr.size),
    }


def _random_stochastic(rng, n):
    M = rng.uniform(0.0, 1.0, (n, n)) + 0.02
    return StochasticMatrix(M / M.sum(axis=1, keepdims=True))


def _random_reversible(rng, n):
    """Row-normalized symmetric positive matrix: primitive, real spectrum,
    diagonalizable (similar to a symmetric matrix)."""
    B = rng.uniform(0.1, 1.0, (n, n))
    S = (B + B.T) / 2.0
    return StochasticMatrix(S / S.sum(axis=1, keepdims=True))


def _real_eigenpair(rng, n):
    while True:
        A = rng.uniform(-1.0, 1.0, (n, n))
        vals, vecs = np.linalg.eig(A)
        real = [k for k in range(n) if abs(vals[k].imag) <= 1e-12]
        if not real:
            continue
        k = real[int(rng.integers(0, len(real)))]
        v = np.real(vecs[:, k])
        if np.linalg.norm(v) > 1e-8:
            return A, v


def suite_equivalence(trials=100, seed=0):
    """tau engines against the vertex/SVD oracles and the duality
    tau_inf = Psi_1, tau_2 = Psi_2, whose two sides share one kernel, so
    Psi_1 and Psi_2 also meet the plain induced norm at their own c_star;
    measures the gaps of the one-sided bounds that are often quoted as
    equalities."""
    rng = np.random.default_rng(seed)
    g_t1, g_tinf, g_t2 = [], [], []
    g_dual_inf1, g_dual_22, g_attain1, g_attain2 = [], [], [], []
    m_tau1_psiinf, m_proj_bound, m_semi = [], [], []
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        A = rng.uniform(-1.0, 1.0, (n, n))
        v = rng.standard_normal(n)
        t1 = tau(v, A, 1).value
        tinf = tau(v, A, INF).value
        t2 = tau(v, A, 2).value
        g_t1.append(abs(t1 - oracle_tau(v, A, 1).value))
        g_tinf.append(abs(tinf - oracle_tau(v, A, INF).value))
        g_t2.append(abs(t2 - oracle_tau(v, A, 2).value))
        psi1 = deflated_norm(v, A, 1)
        psi2 = deflated_norm(v, A, 2)
        psiinf = deflated_norm(v, A, INF).value
        g_dual_inf1.append(abs(tinf - psi1.value))
        g_dual_22.append(abs(t2 - psi2.value))
        g_attain1.append(abs(psi1.value - induced_pnorm(A - np.outer(v, psi1.c_star), 1)))
        g_attain2.append(abs(psi2.value - induced_pnorm(A - np.outer(v, psi2.c_star), 2)))
        m_tau1_psiinf.append(psiinf - t1)
        P = orthogonal_projector(v)
        m_proj_bound.append(induced_pnorm(P @ A, INF) - psiinf)
        Aeig, veig = _real_eigenpair(rng, n)
        semi = induced_seminorm(Aeig, SeminormWeight.orthogonal(veig), INF)
        m_semi.append(abs(deflated_norm(veig, Aeig, INF).value - semi))
    checks = {
        "tau1_vs_vertex_oracle": {"max_residual": max(g_t1), "tolerance": 1e-9},
        "tauinf_vs_vertex_oracle": {"max_residual": max(g_tinf), "tolerance": 1e-9},
        "tau2_vs_svd_oracle": {"max_residual": max(g_t2), "tolerance": 1e-9},
        "tauinf_equals_psi1": {"max_residual": max(g_dual_inf1), "tolerance": 1e-9},
        "tau2_equals_psi2": {"max_residual": max(g_dual_22), "tolerance": 1e-9},
        "psi1_attained_at_c_star": {"max_residual": max(g_attain1), "tolerance": 1e-9},
        "psi2_attained_at_c_star": {"max_residual": max(g_attain2), "tolerance": 1e-9},
        "tau1_below_psiinf": {"max_residual": max(0.0, -min(m_tau1_psiinf)), "tolerance": 1e-10},
    }
    measurements = {
        "psiinf_minus_tau1": _stats(m_tau1_psiinf),
        "projector_norm_minus_psiinf": _stats(m_proj_bound),
        "psiinf_vs_orthogonal_seminorm_gap": _stats(m_semi),
    }
    return _finish("equivalence", trials, seed, checks, measurements)


def suite_oblique(trials=100, seed=0):
    """Distribution-dynamics coefficient: engine vs oracle vs the oblique
    seminorm; measures the gap of the rank-one deflation norm bound."""
    rng = np.random.default_rng(seed)
    g_oracle, g_semi, m_defl = [], [], []
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        S = _random_stochastic(rng, n)
        _, w = dominant_pair(S)
        for p in (1, 2, INF):
            t = tau_oblique(S, p).value
            semi = induced_seminorm(S.matrix, SeminormWeight.oblique(w), p)
            g_semi.append(abs(t - semi))
            if p != 2:
                g_oracle.append(abs(t - oracle_tau(w, S.matrix.T, p).value))
            m_defl.append(induced_pnorm(S.matrix - np.outer(np.ones(n), w), p) - t)
    checks = {
        "tau_oblique_vs_vertex_oracle": {"max_residual": max(g_oracle), "tolerance": 1e-9},
        "tau_oblique_equals_oblique_seminorm": {"max_residual": max(g_semi), "tolerance": 1e-9},
        "deflation_norm_is_upper_bound": {"max_residual": max(0.0, -min(m_defl)), "tolerance": 1e-10},
    }
    measurements = {"deflation_norm_minus_tau": _stats(m_defl)}
    return _finish("oblique", trials, seed, checks, measurements)


def suite_incidence(trials=100, seed=0):
    """Incidence-weighted sup seminorm equals the Dobrushin coefficient,
    oracle-confirmed; the agreement-weighted sup seminorm gap is measured.

    The closed form is tau_1(1, A), the same pair kernel as the Dobrushin
    half-sum, so it is compared with the overlap form, and the half-sum
    with the vertex oracle of tau_1(1, A); neither shares arithmetic with
    the pair kernel, and the oracle shares none with the overlap form."""
    rng = np.random.default_rng(seed)
    g_closed, g_oracle, g_dob = [], [], []
    m_pi = []
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        S = _random_stochastic(rng, n)
        dob = dobrushin(S)
        inc = induced_seminorm(S.matrix, SeminormWeight.incidence(n), INF)
        inc_oracle = oracle_weighted_seminorm(S.matrix, SeminormWeight.incidence(n), INF).value
        agr = induced_seminorm(S.matrix, SeminormWeight.agreement(n), INF)
        g_closed.append(abs(inc - dob.overlap))
        g_oracle.append(abs(inc_oracle - dob.value))
        g_dob.append(abs(dob.value - oracle_tau(np.ones(n), S.matrix, 1).value))
        # dob.value is tau_1(1, A), bit for bit
        m_pi.append(agr - dob.value)
    checks = {
        "incidence_sup_equals_dobrushin": {"max_residual": max(g_closed), "tolerance": 1e-9},
        "incidence_oracle_equals_dobrushin": {"max_residual": max(g_oracle), "tolerance": 1e-9},
        "dobrushin_equals_tau1": {"max_residual": max(g_dob), "tolerance": 1e-10},
    }
    measurements = {"agreement_sup_minus_tau1": _stats(m_pi)}
    return _finish("incidence", trials, seed, checks, measurements)


def suite_conjecture(trials=200, seed=0):
    """Agreement vs incidence induced seminorms for p in {1, 2}: the p = 2
    identity is exact by the norm proportionality; the p = 1 gap is an open
    question and is reported without a verdict."""
    rng = np.random.default_rng(seed)
    gaps1 = {2: [], 3: [], 4: []}
    gaps2 = {2: [], 3: [], 4: []}
    per_n = max(1, trials // 3)
    for n in (2, 3, 4):
        for _ in range(per_n):
            S = _random_stochastic(rng, n)
            agr1 = oracle_weighted_seminorm(S.matrix, SeminormWeight.agreement(n), 1).value
            inc1 = oracle_weighted_seminorm(S.matrix, SeminormWeight.incidence(n), 1).value
            gaps1[n].append(abs(agr1 - inc1))
            agr2 = induced_seminorm(S.matrix, SeminormWeight.agreement(n), 2)
            inc2 = oracle_weighted_seminorm(S.matrix, SeminormWeight.incidence(n), 2).value
            gaps2[n].append(abs(agr2 - inc2))
    checks = {
        "p2_proportionality": {
            "max_residual": max(max(g) for g in gaps2.values()), "tolerance": 1e-9},
    }
    measurements = {
        "p1_gap": {str(n): _stats(g) for n, g in gaps1.items()},
        "p2_gap": {str(n): _stats(g) for n, g in gaps2.items()},
    }
    return _finish("conjecture", trials, seed, checks, measurements)


def suite_spectral(trials=50, seed=0):
    """rho_ess as the floor of factored induced seminorms, the epsilon-close
    weight construction, and the symmetric l2 identity."""
    rng = np.random.default_rng(seed)
    floor_viol, cert_excess, sym_gap = [], [], []
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        S = _random_reversible(rng, n)
        rho = ess_spectral_radius(S).rho_ess
        v = np.ones(n)
        for _ in range(10):
            F = rng.standard_normal((n, n))
            if np.linalg.cond(F) > 1e6:
                continue
            W = SeminormWeight.factored(F, v)
            for p in (1, 2, INF):
                floor_viol.append(rho - induced_seminorm(S.matrix, W, p))
        for eps in (1e-1, 1e-2, 1e-3):
            ow = optimal_weight(S, eps)
            cert_excess.append(ow.certified_value - (rho + eps))
            floor_viol.append(rho - ow.certified_value)
        B = rng.uniform(0.1, 1.0, (n, n))
        sym = (B + B.T) / 2.0
        sym = sym / sym.sum()
        sym_gap.append(abs(symmetric_l2_identity(sym) - ess_spectral_radius(sym).rho_ess))
    checks = {
        "rho_ess_is_floor": {"max_residual": max(0.0, max(floor_viol)), "tolerance": 1e-9},
        "epsilon_certificate": {"max_residual": max(0.0, max(cert_excess)), "tolerance": 1e-8},
        "symmetric_l2_identity": {"max_residual": max(sym_gap), "tolerance": 1e-9},
    }
    return _finish("spectral", trials, seed, checks, {})


def suite_mixing(trials=50, seed=0):
    """Distance-to-stationarity definition against the deflation-norm form,
    and the bracket tau_inf(pi, (A^k)^T) / 2 <= d(A, k) <= tau_inf(pi, (A^k)^T)
    with the gap of its lower leg measured."""
    rng = np.random.default_rng(seed)
    g_def, m_coeff, g_upper = [], [], []
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        S = _random_stochastic(rng, n)
        _, pi = dominant_pair(S)
        # d(S, k) for k < 7 from mixing_time's scan, d(S, 7) from
        # distance_to_stationarity's binary powering (the two round
        # differently from k = 4 on); the definition and the coefficient
        # from the plain power
        dists = [_worst_row_tv(Ak, pi) for Ak in itertools.islice(_scan(S.matrix), 7)]
        dists.append(distance_to_stationarity(S, 7))
        powers = [np.eye(n)]
        for _ in range(7):
            powers.append(powers[-1] @ S.matrix)
        coeffs = _tau_values(pi, np.stack(powers).transpose(0, 2, 1), INF)
        for Ak, d, coeff in zip(powers, dists, coeffs):
            direct = 0.5 * float(np.max(np.sum(np.abs(Ak - np.outer(np.ones(n), pi)), axis=1)))
            g_def.append(abs(d - direct))
            m_coeff.append(d - 0.5 * float(coeff))
            g_upper.append(d - float(coeff))
    checks = {
        "distance_equals_deflation_norm": {"max_residual": max(g_def), "tolerance": 1e-9},
        "coefficient_lower_bound": {"max_residual": max(0.0, -min(m_coeff)), "tolerance": 1e-10},
        "coefficient_upper_bound": {"max_residual": max(0.0, max(g_upper)), "tolerance": 1e-10},
    }
    measurements = {"distance_minus_half_tauinf": _stats(m_coeff)}
    return _finish("mixing", trials, seed, checks, measurements)


def _finish(name, trials, seed, checks, measurements):
    for c in checks.values():
        c["pass"] = bool(c["max_residual"] <= c["tolerance"])
    return {
        "suite": name,
        "trials": int(trials),
        "seed": int(seed),
        "checks": checks,
        "measurements": measurements,
        "pass": bool(all(c["pass"] for c in checks.values())),
    }


_SUITE_FUNCTIONS = {
    "equivalence": suite_equivalence,
    "oblique": suite_oblique,
    "incidence": suite_incidence,
    "conjecture": suite_conjecture,
    "spectral": suite_spectral,
    "mixing": suite_mixing,
}
SUITES = tuple(_SUITE_FUNCTIONS)


def run_suite(name, trials=None, seed=0):
    """Run one suite; trials=None takes the suite function's own default.
    trials and seed are integers (numpy ones pass), at least 1 and 0."""
    if name not in _SUITE_FUNCTIONS:
        raise PreconditionError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    fn = _SUITE_FUNCTIONS[name]
    seed = _as_count(seed, "seed", 0)
    return fn(seed=seed) if trials is None else fn(_as_count(trials, "trials", 1), seed)
