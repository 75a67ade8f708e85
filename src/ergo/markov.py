"""Distance to stationarity and epsilon-mixing time."""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .linalg import INF, StochasticMatrix, dominant_pair
from .ergodicity import BLOCK_ENTRIES, _tau_values

MIXING_CAP = 10 ** 6
DRIFT_TOL = 1e-12


def _drifted_sums(M):
    """M's row sums when one of them drifts more than DRIFT_TOL from 1,
    None otherwise."""
    sums = M.sum(axis=1)
    # max |s_i - 1| > tol, as s - 1 is monotone in s
    if sums.max() - 1.0 > DRIFT_TOL or 1.0 - sums.min() > DRIFT_TOL:
        return sums
    return None


def _renormalize_rows(M):
    """M with its rows divided by their sums, in place, when some row sum
    drifts more than DRIFT_TOL from 1; M untouched otherwise."""
    sums = _drifted_sums(M)
    if sums is not None:
        M /= sums[:, None]
    return M


def _worst_row_tv(Ak, pi):
    """Half the largest l1 distance of a row of Ak from pi."""
    diff = Ak - pi
    return 0.5 * float(np.abs(diff, out=diff).sum(axis=1).max())


def distance_to_stationarity(A, k):
    """d(A, k): worst-row total variation of A^k against the stationary pi.

    A^k is taken by binary powering, O(log k) products (A^2, A^4, ... and
    the running product, as A^(2^j) @ A^r), each renormalized in its rows
    when their drift exceeds 1e-12.  For k <= 3 these are the products of
    `mixing_time`'s scan; from k = 4 on they round differently, within a few
    units of the last place of d.
    """
    A = StochasticMatrix.of(A, "distance to stationarity")
    try:
        # numpy integers pass; 2.5 or "3" is refused rather than truncated
        k = operator.index(k)
    except TypeError:
        k = None
    if k is None or k < 0:
        raise PreconditionError("time index must be a nonnegative integer")
    _, pi = dominant_pair(A)
    if k == 0:
        return _worst_row_tv(np.eye(A.n), pi)
    Ak, square = None, _renormalize_rows(A.matrix.copy())
    while True:
        if k & 1:
            Ak = square if Ak is None else _renormalize_rows(square @ Ak)
        k >>= 1
        if not k:
            return _worst_row_tv(Ak, pi)
        square = _renormalize_rows(square @ square)


@dataclass
class MixingReport:
    """Mixing time with the full distance trace.

    identity_residual is the measured gap max_k |d_k - tau_inf(pi,
    (A^k)^T)/2| over k = 0..t_mix; the coefficient is a lower bound on
    2 d_k (strict on most chains), so the residual is reported rather than
    asserted small.  It is computed on its first read, from the same
    renormalized powers as the scan, and kept.
    """

    epsilon: float
    t_mix: int
    trace: list
    _matrix: np.ndarray = field(repr=False, compare=False)
    _pi: np.ndarray = field(repr=False, compare=False)
    #: the steps k whose product A^(k-1) @ A the scan renormalized
    _renormalized: frozenset = field(repr=False, compare=False)

    @cached_property
    def identity_residual(self):
        """Rescans A^0..A^t_mix into a buffer of at most BLOCK_ENTRIES
        entries (one power where a single power exceeds that, at most
        t_mix + 1 powers), each power a product written in place and
        renormalized at the scan's steps only, and takes the coefficients of
        each filled buffer as one stack of the weighted-median kernel."""
        M, pi = self._matrix, self._pi
        n = len(pi)
        powers = np.empty((min(max(1, BLOCK_ENTRIES // (n * n)), self.t_mix + 1), n, n))
        dists = np.array([d for _, d in self.trace])
        Ak = np.eye(n)
        residual = 0.0
        for k0 in range(0, self.t_mix + 1, len(powers)):
            chunk = powers[:min(len(powers), self.t_mix + 1 - k0)]
            for k, out in enumerate(chunk, start=k0):
                if not k:
                    out[...] = Ak
                else:
                    # with a one-power buffer Ak is out, which matmul allows
                    np.matmul(Ak, M, out=out)
                    if k in self._renormalized:
                        out /= out.sum(axis=1)[:, None]
                Ak = out
            coeffs = _tau_values(pi, chunk.transpose(0, 2, 1), INF)
            gap = np.abs(dists[k0:k0 + len(chunk)] - 0.5 * coeffs).max()
            residual = max(residual, float(gap))
        return residual


def mixing_time(A, epsilon):
    """Smallest k with d(A, k) <= epsilon, by incremental scan.

    Each step is one product A^k = A^(k-1) @ A, renormalized in its rows
    when their drift exceeds 1e-12, and its distance d(A, k); only the
    current power is kept.  The scan asserts the standard non-increase of
    d along k only as a warning; t_mix never relies on early exit.  Chains
    that fail to mix within MIXING_CAP steps raise.  The report's
    identity_residual is not computed here: its first read rescans the same
    powers.
    """
    A = StochasticMatrix.of(A, "mixing time")
    if not (0.0 < epsilon < 1.0):
        raise PreconditionError("epsilon must lie in (0, 1)")
    _, pi = dominant_pair(A)
    Ak = np.eye(A.n)
    trace, renormalized = [], []
    prev = None
    k = 0
    while True:
        d = _worst_row_tv(Ak, pi)
        trace.append((k, d))
        if prev is not None and d > prev + 1e-12:
            warnings.warn(f"distance increased at step {k}: {prev} -> {d}", stacklevel=2)
        prev = d
        if d <= epsilon:
            return MixingReport(float(epsilon), k, trace, A.matrix, pi, frozenset(renormalized))
        if k >= MIXING_CAP:
            raise PreconditionError(f"mixing time exceeds the cap {MIXING_CAP}")
        Ak = Ak @ A.matrix
        k += 1
        sums = _drifted_sums(Ak)
        if sums is not None:
            Ak /= sums[:, None]
            renormalized.append(k)
