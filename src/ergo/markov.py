"""Distance to stationarity, total variation, and epsilon-mixing time."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import INF, StochasticMatrix, as_distribution, dominant_pair
from .ergodicity import BLOCK_ENTRIES, _tau_values

MIXING_CAP = 10 ** 6
DRIFT_TOL = 1e-12


def total_variation(xi, nu):
    """Half the l1 distance between two probability vectors."""
    xi = as_distribution(xi, name="xi")
    nu = as_distribution(nu, name="nu")
    if len(xi) != len(nu):
        raise PreconditionError(f"length mismatch: {len(xi)} vs {len(nu)}")
    return 0.5 * float(np.sum(np.abs(xi - nu)))


def _renormalize_rows(M):
    sums = M.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > DRIFT_TOL:
        M = M / sums[:, None]
    return M


def _worst_row_tv(Ak, pi):
    return 0.5 * float(np.max(np.sum(np.abs(Ak - pi[None, :]), axis=1)))


def distance_to_stationarity(A, k):
    """d(A, k): worst-row total variation of A^k against the stationary pi.

    The power is accumulated multiplicatively with row renormalization when
    drift exceeds 1e-12.
    """
    A = StochasticMatrix.of(A, "distance to stationarity")
    if k < 0:
        raise PreconditionError("time index must be nonnegative")
    _, pi = dominant_pair(A)
    Ak = np.eye(A.n)
    for _ in range(int(k)):
        Ak = _renormalize_rows(Ak @ A.matrix)
    return _worst_row_tv(Ak, pi)


@dataclass
class MixingReport:
    """Mixing time with the full distance trace.

    identity_residual records the measured gap max_k |d_k - tau_inf(pi,
    (A^k)^T)/2|; the coefficient is a lower bound on 2 d_k (strict on most
    chains), so the residual is reported rather than asserted small.
    """

    epsilon: float
    t_mix: int
    trace: list
    identity_residual: float


def mixing_time(A, epsilon, cap=MIXING_CAP):
    """Smallest k with d(A, k) <= epsilon, by incremental scan.

    The scan asserts the standard non-increase of d along k only as a
    warning; t_mix never relies on early exit.  Chains that fail to mix
    within the cap raise.  identity_residual is computed per chunk of
    steps: the powers A^k are buffered, at most BLOCK_ENTRIES entries of
    them (one power where a single power exceeds that), and their
    coefficients are taken as one stack by the weighted-median kernel when
    the chunk fills and at t_mix.
    """
    A = StochasticMatrix.of(A, "mixing time")
    if not (0.0 < epsilon < 1.0):
        raise PreconditionError("epsilon must lie in (0, 1)")
    _, pi = dominant_pair(A)
    n = A.n
    chunk = max(1, BLOCK_ENTRIES // (n * n))
    Ak = np.eye(n)
    trace = []
    powers = []
    residual = 0.0
    prev = None
    k = 0
    while True:
        d = _worst_row_tv(Ak, pi)
        trace.append((k, d))
        powers.append(Ak)
        if prev is not None and d > prev + 1e-12:
            warnings.warn(f"distance increased at step {k}: {prev} -> {d}", stacklevel=2)
        prev = d
        if d <= epsilon or len(powers) == chunk:
            dists = np.array([dk for _, dk in trace[-len(powers):]])
            # tau_inf(pi, (A^k)^T) of the whole chunk in one stacked call
            coeffs = _tau_values(pi, np.stack(powers).transpose(0, 2, 1), INF)
            residual = max(residual, float(np.max(np.abs(dists - 0.5 * coeffs))))
            powers = []
        if d <= epsilon:
            return MixingReport(float(epsilon), k, trace, residual)
        if k >= cap:
            raise PreconditionError(f"mixing time exceeds the cap {cap}")
        Ak = _renormalize_rows(Ak @ A.matrix)
        k += 1
