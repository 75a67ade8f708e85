"""Ergodicity coefficients tau_p(v, A) = max { ||A^T x||_p : ||x||_p <= 1, x perp v }.

Exact closed forms for p in {1, 2, inf}:

  p = 1    the feasible polytope (cross-polytope cut by the hyperplane) has
           vertices supported on two coordinates, giving
           tau_1 = max_{i<j} ||v_j A_i - v_i A_j||_1 / (|v_i| + |v_j|)
           over rows A_i of A.  One kernel serves every anchor: with
           H = A / v (rows A_i / v_i) and w = 1 / |v|, each term is
           ||H_i - H_j||_1 / (w_i + w_j), and a zero v_i (or one below
           2^-512 max |v|) frees e_i, so its row counts at ||A_i||_1.  For
           a +-1 anchor (the all-ones anchor of Dobrushin among them) the
           divisions are exact and the terms are the row distances halved.
           The pairs are taken in (matrix, row) blocks of a stack of
           matrices: rows of one or more matrices, each row against every
           later row of its matrix in one broadcast of at most BLOCK_ENTRIES
           entries; the Dobrushin overlap form walks the same blocks.
  p = inf  column-wise LP: tau_inf = max_k min_mu ||A_{.k} - mu v||_1.  Each
           column's objective is convex and piecewise linear in mu with kinks
           at A_ik / v_i, so its minimum sits at a weighted median of the
           kinks with weights |v_i|.  `_column_medians` solves every column
           at once by sort and cumulative sum; the same routine gives
           Psi_1(v, A) and its minimizer c in `seminorm.deflated_norm`, so
           the duality tau_inf = Psi_1 holds by construction.
  p = 2    restriction to a subspace is exact in the Euclidean norm:
           tau_2 = ||P_v A||_2, the largest singular value, with P_v A the
           rank-one update A - v (v^T A) / (v^T v).  `_spectral_norms`
           takes it, for tau_2, Psi_2 and every p = 2 seminorm, as the
           square root of the top eigenvalue of the Gram matrix of X =
           P_v A scaled by a power of two into max |X| in [0.5, 1).  The
           Gram product errs by at most gamma_m || |X| ||_2^2 <=
           min(m, n) gamma_m lambda_max (Higham, Accuracy and Stability of
           Numerical Algorithms, 2nd ed., 3.5), which by Weyl's inequality
           bounds the move of lambda_max, and the scaling keeps lambda_max
           >= 1/4, clear of underflow.  So sigma_max is relatively accurate
           like an SVD's (within 4 n u of a 40-digit SVD in the tests); the
           small singular values are not, and nothing reads them.

Each kernel takes a stack As of K matrices (K, m, n) sharing one anchor and
returns K values, so a time-varying sequence or a run of matrix powers is
one call; `tau` is the stack of one, with the same bits for each matrix.
Every call passes `_tau_values`, which scales v and each matrix by powers of
two into [0.5, 1) and the values back, so no kernel minds the float range.

The widely quoted projector formula ||P_v A||_q (q conjugate to p) is only an
upper bound for p != 2; the `verify` suites measure its gap against these
exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError
from .linalg import INF, StochasticMatrix, _anchored, as_pnorm, dominant_pair

DOBRUSHIN_CROSS_TOL = 1e-12
#: entries in one broadcast temporary of a batched kernel (64 KiB of float64)
BLOCK_ENTRIES = 1 << 13
_ROUTES = {1: "pairwise-form", 2: "projector-form", INF: "column-form"}


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


def _pair_blocks(K, m, n):
    """(matrix, row) blocks of the pair loop over i < j < m, for a stack of K
    m x n matrices.

    Yields (ks, i0, i1, later): rows [i0, i1) of the matrices ks (a slice)
    meet every later row [i0 + 1, m) of the same matrix in one broadcast
    (len(ks), i1 - i0, m - i0 - 1, n) operation of at most BLOCK_ENTRIES
    entries, or of one row of one matrix where that row alone exceeds it,
    and later[r, c] marks the pairs i = i0 + r < j = i0 + 1 + c.  The row
    blocks are those of a single matrix; a block that leaves room in the
    budget takes that many matrices at once.
    """
    # every block's mask is a corner of this one: later[r, c] is c >= r
    upper = np.arange(m - 1) >= np.arange(m - 1)[:, None]
    i0 = 0
    while i0 < m - 1:
        rest = m - i0 - 1
        i1 = min(m - 1, i0 + max(1, BLOCK_ENTRIES // max(1, rest * n)))
        step = max(1, BLOCK_ENTRIES // max(1, (i1 - i0) * rest * n))
        for k0 in range(0, K, step):
            yield slice(k0, k0 + step), i0, i1, upper[:i1 - i0, :rest]
        i0 = i1


def _tau_l1(v, As):
    """tau_1(v, A) for every matrix A of the stack As: one pair kernel for
    every anchor, on the row-major pair `_scaled` gives, max |v| in
    [0.5, 1).

    With H = A / v (rows A_i / v_i) and w = 1 / |v|, v_j A_i - v_i A_j =
    v_i v_j (H_i - H_j), so a pair term is ||H_i - H_j||_1 / (w_i + w_j);
    scaling v leaves it unchanged.  A zero v_i frees e_i: its row of H is 0
    and its weight inf, so its pair terms are 0, and the row counts on its
    own at ||A_i||_1.  An entry below 2^-512 max |v| is freed the same way.
    That keeps H and w finite and moves the value by less than
    2^-508 max_i ||A_i||_1: such a row's term with the largest |v_j| is
    ||A_i||_1 to that accuracy, and no pair term exceeds the larger norm of
    its two rows.  With a +-1 anchor the divisions are exact and the terms
    are the row distances halved.  The distances of the stack fill one
    (K, m, m) table, divided once by the table of w_i + w_j.
    """
    free = np.abs(v) < 2.0 ** -512
    d = np.where(free, np.inf, v)
    Hs = As / d[:, None]
    w = np.where(free, np.inf, 1.0 / np.abs(d))
    # a block's row i lands in dist[k, i, i0 + 1:], no mask: j > i is the
    # pair (i, j), j = i is 0 and j < i repeats the pair (j, i) bit for bit;
    # the entries no block writes stay 0
    dist = np.zeros(As.shape[:2] + As.shape[1:2])
    for ks, i0, i1, _ in _pair_blocks(*Hs.shape):
        after = Hs[ks, None, i0 + 1:]
        # a broadcast copy and an in-place difference are faster than one
        # broadcast difference, with the same bits
        diff = np.empty((len(after), i1 - i0) + after.shape[2:])
        diff[...] = Hs[ks, i0:i1, None, :]
        diff -= after
        np.add.reduce(np.abs(diff, out=diff), axis=3, out=dist[ks, i0:i1, i0 + 1:])
    dist /= w[:, None] + w
    rownorm1 = np.add.reduce(np.abs(As), axis=2)
    return np.maximum(np.maximum.reduce(dist, axis=(1, 2), initial=0.0),
                      np.maximum.reduce(rownorm1, axis=1, where=free, initial=0.0))


def _stack_chunks(K, m, n):
    """Slices of a stack of K m x n matrices, each of at most BLOCK_ENTRIES
    entries, or of one matrix where a single matrix exceeds that."""
    step = max(1, BLOCK_ENTRIES // max(1, m * n))
    return [slice(k0, k0 + step) for k0 in range(0, K, step)]


def _column_medians(v, As):
    """min_mu ||A_{.k} - mu v||_1 and a minimizing mu, for every column k of
    every matrix A of the stack As; both (K, n).

    The objective is convex and piecewise linear in mu, with a kink at
    A_ik / v_i of weight |v_i| for each row with v_i != 0, so a weighted
    median of the kinks minimizes it.  The columns of all the matrices are
    rows of one table for `_row_medians`; callers pass a single matrix or a
    stack already cut to the pair kernel's budget.
    """
    K, m, n = As.shape
    values, mus = _row_medians(v, np.ascontiguousarray(As.transpose(0, 2, 1)).reshape(-1, m))
    return values.reshape(K, n), mus.reshape(K, n)


def _row_medians(v, X):
    """min_mu ||x - mu v||_1 and a minimizing mu, for every row x of X.

    Kinks are sorted per row and the weights accumulated; the objective is
    evaluated at the lower and the upper weighted median (they differ only
    where the minimum is flat) and the smaller value is kept.  Both medians
    are kink values, and the crossing of half the weight lands in the same
    block of tied kinks whatever their order within it, so the sort need
    not be stable.  With v = 0 there are no kinks and every mu is a
    minimizer; mu = 0 is returned.
    """
    mask = v != 0.0
    if not mask.any():
        return np.sum(np.abs(X), axis=1), np.zeros(len(X))
    kinks = X[:, mask] / v[mask]
    order = np.argsort(kinks, axis=1)
    kinks = np.take_along_axis(kinks, order, axis=1)
    cum = np.cumsum(np.abs(v[mask])[order], axis=1)
    half = 0.5 * cum[:, -1:]
    rows = np.arange(len(X))
    lower = kinks[rows, np.argmax(cum >= half, axis=1)]
    upper = kinks[rows, np.argmax(cum > half, axis=1)]
    val_lower = np.sum(np.abs(X - lower[:, None] * v), axis=1)
    val_upper = np.sum(np.abs(X - upper[:, None] * v), axis=1)
    up = val_upper < val_lower
    return np.where(up, val_upper, val_lower), np.where(up, upper, lower)


def _tau_l2(v, As):
    """tau_2(v, A) = ||P_v A||_2 for every matrix A of the stack As."""
    return _spectral_norms(As - v[:, None] * ((v @ As) / float(v @ v))[:, None, :])


def _spectral_norms(Xs):
    """||X||_2, the largest singular value, of every matrix X of the stack
    Xs (K, m, n); K values.

    Each X is scaled by the power of two of `_scaled`, max |X| in [0.5, 1),
    so its Gram matrix on the smaller side (X^T X, or X X^T when m < n) has
    lambda_max in [1/4, mn] and neither underflows nor overflows, however
    far X lies below the matrix it was deflated from.  LAPACK's dsyevr takes
    only that top eigenvalue (range "I", il = iu = k), whose relative error
    the module docstring bounds.
    """
    from scipy.linalg import lapack

    _, Xs, _, e = _scaled(None, Xs)
    K, m, n = Xs.shape
    k = min(m, n)
    top = np.zeros(K)
    if K == 0 or k == 0:
        return top
    work, iwork, _ = lapack.dsyevr_lwork(k)
    for i, X in enumerate(Xs):
        G = X.T @ X if m >= n else X @ X.T
        # G is symmetric, so G.T is G laid out column-major: LAPACK works on
        # it in place, with no copy
        w, _, _, _, info = lapack.dsyevr(G.T, compute_v=0, range="I", il=k, iu=k,
                                         lwork=int(work), liwork=int(iwork), overwrite_a=1)
        if info != 0:
            raise CrossCheckError(f"dsyevr failed on a Gram matrix of order {k}: info {info}")
        top[i] = w[0]
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), e)


def _scaled(v, As):
    """v and the stack As (K, m, n) scaled by the powers of two that put
    max |v| and each max |A_k| in [0.5, 1), as row-major copies, and the
    exponents ev and ea (K,) that undo it; with v None, v and ev are None.

    A power of two moves no bit of an entry that stays normal, and tau_p and
    Psi_q are of degree one in A and zero in v, so no kernel guards its own
    range: A / v, v v^T and A^T v cannot overflow, and a subnormal anchor
    becomes normal.  The row-major copy makes every row sum, to the last
    bit, independent of how the caller laid A out.
    """
    ea = np.frexp(np.maximum.reduce(np.abs(As), axis=(1, 2), initial=0.0))[1]
    As = np.ldexp(As, -ea[:, None, None], order="C")
    if v is None:
        return None, As, None, ea
    ev = int(np.frexp(np.maximum.reduce(np.abs(v)))[1])
    return np.ldexp(v, -ev), As, ev, ea


def _tau_values(v, As, p):
    """tau_p(v, A) for every matrix A of the stack As (K, m, n), all sharing
    the anchor v, by one kernel call; p is already normalized.

    The kernel runs on the pair `_scaled` gives, and each value is scaled
    back by 2^ea; a value past the float range is inf, without a numpy
    warning.  Each value is bit-identical to its own `tau` call (a stack of one): every
    sum runs along a contiguous last axis of the same length, and every
    maximum is exact.
    """
    v, As, _, ea = _scaled(v, As)
    if p == 1:
        values = _tau_l1(v, As)
    elif p == INF:
        values = _column_medians(v, As)[0].max(axis=1, initial=0.0)
    else:
        values = _tau_l2(v, As)
    with np.errstate(over="ignore"):
        return np.ldexp(values, ea)


def tau(v, A, p):
    """Exact ergodicity coefficient tau_p(v, A) for p in {1, 2, inf}.

    A may be rectangular (m x n) with v of length m.
    """
    v, A = _anchored(v, A)
    p = as_pnorm(p)
    value = float(_tau_values(v, A[None], p)[0])
    return ErgodicityResult(value, p, _ROUTES[p], v)


def _overlap_form(M):
    """1 - min_{i<j} sum_k min(M_ik, M_jk), the overlap form of the Dobrushin
    coefficient of a row-stochastic M; 0 for a single row."""
    M = np.ascontiguousarray(M)
    if M.shape[0] < 2:
        return 0.0
    least = np.inf
    for _, i0, i1, later in _pair_blocks(1, *M.shape):
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
    M = A.matrix
    n = A.n
    value_half = float(_tau_values(np.ones(n), M[None], 1)[0])
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
