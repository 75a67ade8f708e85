"""Ergodicity coefficients tau_p(v, A) = max { ||A^T x||_p : ||x||_p <= 1, x perp v }.

Exact closed forms for p in {1, 2, inf}:

  p = 1    the feasible polytope (cross-polytope cut by the hyperplane) has
           vertices supported on two coordinates, giving
           tau_1 = max_{i<j} ||v_j A_i - v_i A_j||_1 / (|v_i| + |v_j|)
           over rows A_i of A.  The pairs are taken in blocks of rows, each
           block against every later row in one broadcast of at most
           BLOCK_ENTRIES entries; the Dobrushin overlap form walks the same
           blocks.  An anchor of +-1 entries (the all-ones anchor among
           them) needs no products: with H = v[:, None] * A each pair term
           is ||H_i - H_j||_1 / 2, with the same bits.
  p = inf  column-wise LP: tau_inf = max_k min_mu ||A_{.k} - mu v||_1.  Each
           column's objective is convex and piecewise linear in mu with kinks
           at A_ik / v_i, so its minimum sits at a weighted median of the
           kinks with weights |v_i|.  `_column_medians` solves every column
           at once by sort and cumulative sum; the same routine gives
           Psi_1(v, A) and its minimizer c in `seminorm.deflated_norm`, so
           the duality tau_inf = Psi_1 holds by construction.
  p = 2    restriction to a subspace is exact in the Euclidean norm:
           tau_2 = ||P_v A||_2, the largest singular value.

The widely quoted projector formula ||P_v A||_q (q conjugate to p) is only an
upper bound for p != 2; the `verify` suites measure its gap against these
exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, PreconditionError
from .linalg import (INF, StochasticMatrix, as_matrix, as_pnorm, as_vector,
                     dominant_pair, orthogonal_projector)

DOBRUSHIN_CROSS_TOL = 1e-12
#: entries in one broadcast temporary of a batched kernel (64 KiB of float64)
BLOCK_ENTRIES = 1 << 13


@dataclass
class ErgodicityResult:
    """A coefficient value plus the route that produced it and the anchor used.

    `overlap` is the Dobrushin overlap form on the dobrushin route, None on
    every other route.
    """

    value: float
    p: object
    route: str
    anchor: np.ndarray
    overlap: float | None = None


def _pair_blocks(m, n):
    """Row blocks of the pair loop over i < j < m, for an m x n matrix.

    Yields (i0, i1, later): rows [i0, i1) meet every later row [i0 + 1, m)
    in one broadcast (i1 - i0, m - i0 - 1, n) operation of at most
    BLOCK_ENTRIES entries, or of one row where a single row exceeds that,
    and later[r, c] marks the pairs i = i0 + r < j = i0 + 1 + c.
    """
    i0 = 0
    while i0 < m - 1:
        rest = m - i0 - 1
        i1 = min(m - 1, i0 + max(1, BLOCK_ENTRIES // max(1, rest * n)))
        yield i0, i1, np.arange(rest) >= np.arange(i1 - i0)[:, None]
        i0 = i1


def _tau_l1(v, A):
    # row-major storage makes every row sum, down to the last bit,
    # independent of how the caller laid A out
    A = np.ascontiguousarray(A)
    absv = np.abs(v)
    if np.all(absv == 1.0):
        return _tau_l1_unit(v, A)
    rownorm1 = np.sum(np.abs(A), axis=1)
    best = 0.0
    for i0, i1, later in _pair_blocks(*A.shape):
        rows, after = slice(i0, i1), slice(i0 + 1, None)
        den = absv[rows, None] + absv[after]
        diff = v[after, None] * A[rows, None, :]
        diff -= v[rows, None, None] * A[after]
        dist = np.sum(np.abs(diff, out=diff), axis=2)
        # den == 0: both coordinates unconstrained, the slice contains +-e_i, +-e_j
        vals = np.divide(dist, den, out=np.maximum(rownorm1[rows, None], rownorm1[after]),
                         where=den != 0.0)
        best = max(best, float(np.max(vals, where=later, initial=0.0)))
    return best


def _tau_l1_unit(v, A):
    """`_tau_l1` for an anchor of +-1 entries, bit for bit.

    With H = v[:, None] * A (exact), v_j A_i - v_i A_j = v_i v_j (H_i - H_j)
    and round-to-nearest is symmetric in sign, so each pair's distance is
    ||H_i - H_j||_1 with the same bits, and the denominator is exactly 2.
    """
    H = v[:, None] * A
    best = 0.0
    for i0, i1, later in _pair_blocks(*H.shape):
        diff = H[i0:i1, None, :] - H[i0 + 1:]
        dist = np.sum(np.abs(diff, out=diff), axis=2)
        best = max(best, float(np.max(dist, where=later, initial=0.0)))
    # halving is monotone, so it commutes with the maximum
    return best / 2.0


def _column_medians(v, A):
    """min_mu ||A_{.k} - mu v||_1 and a minimizing mu, for every column k.

    The objective is convex and piecewise linear in mu, with a kink at
    A_ik / v_i of weight |v_i| for each row with v_i != 0, so a weighted
    median of the kinks minimizes it.  Kinks are stable-sorted per column
    and the weights accumulated; the objective is evaluated at the lower and
    the upper weighted median (they differ only where the minimum is flat)
    and the smaller value is kept.  With v = 0 there are no kinks and every
    mu is a minimizer; mu = 0 is returned.
    """
    mask = v != 0.0
    At = np.ascontiguousarray(A.T)  # contiguous rows, as in _tau_l1
    if not mask.any():
        return np.sum(np.abs(At), axis=1), np.zeros(At.shape[0])
    kinks = At[:, mask] / v[mask]
    order = np.argsort(kinks, axis=1, kind="stable")
    kinks = np.take_along_axis(kinks, order, axis=1)
    cum = np.cumsum(np.abs(v[mask])[order], axis=1)
    half = 0.5 * cum[:, -1:]
    cols = np.arange(At.shape[0])
    mus = np.stack([kinks[cols, np.argmax(cum >= half, axis=1)],
                    kinks[cols, np.argmax(cum > half, axis=1)]])
    vals = np.sum(np.abs(At - mus[:, :, None] * v), axis=2)
    upper = vals[1] < vals[0]
    return np.where(upper, vals[1], vals[0]), np.where(upper, mus[1], mus[0])


def _tau_l2(v, A):
    P = orthogonal_projector(v)
    return float(np.linalg.norm(P @ A, 2))


def _anchored(v, A):
    """The validated anchor and matrix of tau_p(v, A) and Psi_q(v, A): finite,
    v nonzero with one entry per row of A."""
    v = as_vector(v, "anchor")
    A = as_matrix(A)
    if A.shape[0] != len(v):
        raise PreconditionError(f"anchor length {len(v)} does not match {A.shape[0]} rows")
    if not np.any(v):
        raise PreconditionError("anchor must be nonzero")
    return v, A


def tau(v, A, p):
    """Exact ergodicity coefficient tau_p(v, A) for p in {1, 2, inf}.

    A may be rectangular (m x n) with v of length m.
    """
    v, A = _anchored(v, A)
    p = as_pnorm(p)
    if p == 1:
        return ErgodicityResult(_tau_l1(v, A), 1, "pairwise-form", v)
    if p == INF:
        values, _ = _column_medians(v, A)
        return ErgodicityResult(float(np.max(values, initial=0.0)), INF, "column-form", v)
    return ErgodicityResult(_tau_l2(v, A), 2, "projector-form", v)


def _overlap_form(M):
    """1 - min_{i<j} sum_k min(M_ik, M_jk), the overlap form of the Dobrushin
    coefficient of a row-stochastic M; 0 for a single row."""
    M = np.ascontiguousarray(M)
    if M.shape[0] < 2:
        return 0.0
    least = np.inf
    for i0, i1, later in _pair_blocks(*M.shape):
        shared = np.sum(np.minimum(M[i0:i1, None, :], M[i0 + 1:]), axis=2)
        least = min(least, float(np.min(shared, where=later, initial=np.inf)))
    return 1.0 - least


def dobrushin(A):
    """tau_1 of a row-stochastic matrix through both classical formulas.

    The half maximum pairwise l1 row distance is tau_1 with the all-ones
    anchor; the complementary overlap form 1 - min_{i<j} sum_k min(A_ik, A_jk)
    is computed independently, and disagreement beyond 1e-12 signals
    corrupted input rather than a value to average.  The overlap form is
    returned as `overlap`.
    """
    A = StochasticMatrix.of(A)
    M = np.ascontiguousarray(A.matrix)
    n = A.n
    value_half = _tau_l1(np.ones(n), M)
    value_min = _overlap_form(M)
    if abs(value_half - value_min) > DOBRUSHIN_CROSS_TOL:
        raise CrossCheckError(
            f"dobrushin formulas disagree: {value_half!r} vs {value_min!r}")
    return ErgodicityResult(value_half, 1, "dobrushin-halfsum", np.ones(n), value_min)


def tau_oblique(A, p):
    """tau_p(w, A^T) for a primitive stochastic matrix, w its stationary distribution.

    This is the coefficient governing the distribution dynamics
    pi(k+1) = A^T pi(k); computed exactly by the tau engine on (w, A^T).
    """
    A = StochasticMatrix.of(A, "oblique coefficient")
    _, w = dominant_pair(A)
    result = tau(w, A.matrix.T, p)
    return ErgodicityResult(result.value, result.p, "oblique-form", w)
