"""Distance to stationarity and epsilon-mixing time."""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .linalg import INF, StochasticMatrix, dominant_pair
from .ergodicity import _stack_chunks, _tau_values

MIXING_CAP = 10 ** 6
DRIFT_TOL = 1e-12


def _renormalize_rows(M):
    """M with its rows divided by their sums, in place, when some row sum
    drifts more than DRIFT_TOL from 1; M untouched otherwise."""
    sums = M.sum(axis=1)
    # max |s_i - 1| > tol, as s - 1 is monotone in s
    if sums.max() - 1.0 > DRIFT_TOL or 1.0 - sums.min() > DRIFT_TOL:
        M /= sums[:, None]
    return M


def _scan(M):
    """The powers A^0 = I, A^1, A^2, ... of M, each A^k the product
    A^(k-1) @ M renormalized in its rows when their drift exceeds DRIFT_TOL;
    a yielded power is never written again."""
    Ak = np.eye(len(M))
    while True:
        yield Ak
        Ak = _renormalize_rows(Ak @ M)


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
    asserted small.  It is computed on its first read, from a replay of the
    scan, and kept.
    """

    epsilon: float
    t_mix: int
    trace: list
    _matrix: np.ndarray = field(repr=False, compare=False)
    _pi: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def identity_residual(self):
        """Replays `_scan` over A^0..A^t_mix, which makes each
        renormalization decision again from the same bits, and takes the
        coefficients of each slice of `_stack_chunks` as one stack of the
        weighted-median kernel."""
        pi = self._pi
        n = len(pi)
        dists = np.array([d for _, d in self.trace])
        powers = _scan(self._matrix)
        residual = 0.0
        for ks in _stack_chunks(len(dists), n, n):
            chunk = np.stack([next(powers) for _ in dists[ks]])
            coeffs = _tau_values(pi, chunk.transpose(0, 2, 1), INF)
            residual = max(residual, float(np.abs(dists[ks] - 0.5 * coeffs).max()))
        return residual


def mixing_time(A, epsilon):
    """Smallest k with d(A, k) <= epsilon, by incremental scan.

    `_scan` gives each power A^k = A^(k-1) @ A, renormalized in its rows
    when their drift exceeds 1e-12, and the scan takes its distance
    d(A, k); only the current power is kept.  The scan asserts the standard
    non-increase of d along k only as a warning; t_mix never relies on
    early exit.  Chains that fail to mix within MIXING_CAP steps raise.  The
    report's identity_residual is not computed here: its first read replays
    the scan.
    """
    A = StochasticMatrix.of(A, "mixing time")
    if not (0.0 < epsilon < 1.0):
        raise PreconditionError("epsilon must lie in (0, 1)")
    _, pi = dominant_pair(A)
    trace = []
    for k, Ak in enumerate(_scan(A.matrix)):
        d = _worst_row_tv(Ak, pi)
        if trace and d > trace[-1][1] + 1e-12:
            warnings.warn(f"distance increased at step {k}: {trace[-1][1]} -> {d}", stacklevel=2)
        trace.append((k, d))
        if d <= epsilon:
            return MixingReport(float(epsilon), k, trace, A.matrix, pi)
        if k >= MIXING_CAP:
            raise PreconditionError(f"mixing time exceeds the cap {MIXING_CAP}")
