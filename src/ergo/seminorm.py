"""Weighted vector seminorms ||R x||_p, their induced matrix seminorms and
the deflated induced norm Psi_q.

Every induced seminorm here is the literal constrained maximum

    |||A|||_{p,R} = max { ||R A x||_p : ||R x||_p <= 1, x perp ker R }

computed exactly.  It reads A only on ker R-perp, where A equals A P_k, P_k
the orthogonal projector onto it, and ker R is A P_k-invariant.  So every
weight, as data R = S Q, reduces to a p-ball inside a hyperplane, that is to
one call of the exact tau engine in `ergodicity` on the tau problem the
weight builds once, for every A and every n; the incidence weight carries
the agreement weight's data for p = 2, is tau_1(1, A P_1) at p = inf, and
neither these nor its vector seminorms read its n(n-1) x n matrix.  Only
the incidence weight at p = 1 has no closed form: the brute-force oracle
answers it up to n <= 5, and it is refused above.

Psi_q(v, A) = min_c ||A - v c^T||_q is a closed form at q = 2, valued by
the spectral-norm kernel of tau_2, `ergodicity._spectral_norms`, and the
weighted medians of `ergodicity._column_medians` at q = 1.  At q = inf it is
an LP over convex combinations of each column's kinks, clipped into a box
that holds a minimizer, solved by column generation on one HiGHS model per
call: the same medians, at the master's dual weights, price every column and
certify the value by weak duality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CrossCheckError, PreconditionError
from .linalg import (INF, as_matrix, as_pnorm, as_vector, induced_pnorm, oblique_projector,
                     orthogonal_projector, _anchored, _as_count, _incidence_rows)
from .ergodicity import _column_medians, _scaled, _spectral_norms, _stack_chunks, _tau_values
from .oracle import WEIGHT_DIMENSION_CAP, oracle_weighted_seminorm

FACTOR_COND_LIMIT = 1e12
KERNEL_INVARIANCE_TOL = 1e-8
LP_TOL = 1e-10
DUALITY_GAP_TOL = 1e-9
#: master entries (m n kinks) up to which `_deflate_linf` starts from every kink
MASTER_ALL_KINKS = 1 << 15
#: how far below its convexity dual a column must price, in the units of the
#: master's matrix scaled into [0.5, 1)
PRICING_TOL = 1e-12
#: HiGHS settings of the Psi_inf master: primal simplex, as added columns
#: keep the last basis primal feasible; presolve shrinks the master little
#: and costs more set-up time than it saves
_MASTER_OPTIONS = (("output_flag", False), ("solver", "simplex"), ("simplex_strategy", 4),
                   ("presolve", "off"), ("primal_feasibility_tolerance", LP_TOL),
                   ("dual_feasibility_tolerance", LP_TOL))


@dataclass(frozen=True, eq=False)
class SeminormWeight:
    """Weight R = S Q on R^n with a one-dimensional kernel, built by the
    factory classmethods: `kind` is a label, `kernel` spans ker R, Q
    projects onto `anchor`-perp along it (P_anchor when the two are one
    vector, else Q_anchor of `oblique_projector`) and S is `s_factor`, None
    for the identity.  `_projected`, S Q, `_reduction`, the tau problem
    (S^-T anchor, S Q, S^-1 or None) of `induced_seminorm`, and `matrix`, R,
    are built on first read and kept, so reading R inverts nothing; the
    incidence weight carries the agreement weight's data, and its `matrix`
    C_n^T (8 n^3 bytes) is read only by the brute-force oracle.
    An orthogonal or factored anchor is kept times the power of two that puts
    max |anchor| in [0.5, 1), as a contiguous copy, so no scale or layout of
    the caller's vector moves a bit.
    """

    kind: str
    kernel: np.ndarray
    anchor: np.ndarray
    s_factor: np.ndarray | None = None

    @classmethod
    def orthogonal(cls, v):
        v = _unit_anchor(as_vector(v, "anchor"))
        return cls("orthogonal", v, v)

    @classmethod
    def oblique(cls, w):
        w = as_vector(w, "anchor")
        weight = cls("oblique", np.ones(len(w)), w)
        weight.matrix  # built now, as Q_w refuses an anchor off w^T 1 = 1
        return weight

    @classmethod
    def agreement(cls, n):
        ones = np.ones(_as_count(n, "weight dimension", 1))
        return cls("agreement", ones, ones)

    @classmethod
    def incidence(cls, n):
        if _as_count(n, "weight dimension", 1) < 2:
            raise PreconditionError("complete graph incidence needs n >= 2")
        return cls("incidence", np.ones(n), np.ones(n))

    @classmethod
    def factored(cls, S, v):
        S = as_matrix(S, "factor")
        v = as_vector(v, "anchor")
        if S.shape[0] != S.shape[1] or S.shape[0] != len(v):
            raise PreconditionError("factor must be square and match the anchor length")
        cond = np.linalg.cond(S)
        if not np.isfinite(cond) or cond >= FACTOR_COND_LIMIT:
            raise PreconditionError(f"factor condition number {cond:.3e} exceeds 1e12")
        v = _unit_anchor(v)
        return cls("factored", v, v, S)

    @functools.cached_property
    def _projected(self):
        """S Q, or Q for the identity S: R for every kind but incidence."""
        v, S = self.anchor, self.s_factor
        Q = orthogonal_projector(v) if np.array_equal(self.kernel, v) else oblique_projector(v)
        return Q if S is None else S @ Q

    @functools.cached_property
    def _reduction(self):
        v, S = self.anchor, self.s_factor
        if S is None:
            return v, self._projected, None
        return scipy.linalg.solve(S.T, v), self._projected, scipy.linalg.inv(S)

    @functools.cached_property
    def matrix(self):
        return _incidence_rows(self.n) if self.kind == "incidence" else self._projected

    @property
    def n(self):
        return len(self.kernel)

    def __repr__(self):
        return f"SeminormWeight(kind={self.kind!r}, n={self.n})"


def _unit_anchor(v):
    """The anchor v times the power of two that puts max |v| in [0.5, 1), as
    a contiguous copy; a zero anchor, which has no projector, is refused."""
    top = np.maximum.reduce(np.abs(v))
    if top == 0.0:
        raise PreconditionError("projector anchor must be nonzero")
    return np.ldexp(v, -np.frexp(top)[1])


def vector_seminorm(x, weight, p):
    """||R x||_p.

    The incidence weight never reads its n(n-1) x n matrix: ||C^T x||_p over
    the ordered pairs is max(x) - min(x) at p = inf (rounding is monotone,
    so these are the bits of the largest |x_i - x_j|), sqrt(2n) ||x -
    mean(x)||_2 at p = 2, and at p = 1 twice the sum of the sorted gaps
    x_(k+1) - x_(k), each crossed by k (n - k) unordered pairs.
    """
    x = as_vector(x)
    p = as_pnorm(p)
    n = weight.n
    if len(x) != n:
        raise PreconditionError(f"vector length {len(x)} does not match weight on R^{n}")
    if weight.kind == "incidence":
        if p == INF:
            return float(x.max() - x.min())
        if p == 2:
            return float(np.sqrt(2.0 * n) * np.linalg.norm(x - np.mean(x)))
        k = np.arange(1, n)
        return float(2.0 * np.sum(k * (n - k) * np.diff(np.sort(x))))
    y = weight.matrix @ x
    if p == 1:
        return float(np.sum(np.abs(y)))
    if p == INF:
        return float(np.max(np.abs(y))) if y.size else 0.0
    return float(np.linalg.norm(y))


def _kernel_residuals(As, kernel):
    """Relative residual of ker R = <kernel> under each matrix of the stack As
    (K, n, n), via the Rayleigh eigenvalue estimate.

    Each inner product runs as a dot product of its own, so a stack of one
    has the bits of the plain single-matrix formula."""
    kk = float(kernel @ kernel)
    Ak = As @ kernel
    lam = (Ak[:, None, :] @ kernel)[:, 0] / kk
    r = Ak - lam[:, None] * kernel
    return np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0]) / np.sqrt(kk)


def _weighted(A, weight):
    """A as a finite n x n matrix, for a weight on R^n."""
    A = as_matrix(A)
    n = weight.n
    if A.shape != (n, n):
        raise PreconditionError(f"matrix shape {A.shape} does not match weight on R^{n}")
    return A


def kernel_invariance_residual(A, weight):
    """Relative residual of ker R under A, via the Rayleigh eigenvalue estimate."""
    return float(_kernel_residuals(_weighted(A, weight)[None], weight.kernel)[0])


def _kernel_projected(As, kernel):
    """The stack As (K, n, n) with every matrix whose kernel residual exceeds
    KERNEL_INVARIANCE_TOL replaced by A P_k = A - (A k) k^T / (k^T k), P_k
    the orthogonal projector onto k-perp, k = kernel.

    A P_k x = A x for x perp k, and A P_k k = 0, so <k> is A P_k-invariant
    and the seminorm of A P_k is that of A.  The test only keeps the bits of
    the invariant matrices, which are returned as they are; the update is
    taken on a copy, as As may be a view of the caller's array."""
    outside = _kernel_residuals(As, kernel) > KERNEL_INVARIANCE_TOL
    if not outside.any():
        return As
    As = As.copy(order="K")
    As[outside] -= (As[outside] @ kernel / float(kernel @ kernel))[:, :, None] * kernel
    return As


def _reduced_seminorms(As, weight, p):
    """|||A_k|||_{p,R} for every A_k of As, a (K, n, n) array or a list of
    n x n arrays, and a weight of any kind but the incidence one, which is
    taken at p = 2 only; p is already normalized.  Returns K values.

    The R = S Q reduction of `induced_seminorm`, run for a stack on the tau
    problem the weight builds once.  The matrices are taken in the chunks of
    `ergodicity._stack_chunks` (at most BLOCK_ENTRIES entries, or one
    matrix), each chunk stacked, reduced and passed to one tau kernel call,
    so a long sequence is never stacked whole.  Each A_k whose kernel is not
    A_k-invariant is taken as A_k P_k by `_kernel_projected`, in the same
    call; the invariance test is there only to keep the bits of every
    invariant value.
    """
    u, R, S_inv = weight._reduction
    values = []
    for ks in _stack_chunks(len(As), weight.n, weight.n):
        Bs = R @ _kernel_projected(np.asarray(As[ks]), weight.kernel)
        if S_inv is not None:
            Bs = Bs @ S_inv
        values.append(_tau_values(u, Bs.transpose(0, 2, 1), p))
    return np.concatenate(values)


def induced_seminorm(A, weight, p):
    """Exact R-weighted induced matrix seminorm |||A|||_{p,R}.

    The definition reads A only on ker R-perp, where A = A P_k, P_k the
    orthogonal projector onto it, and ker R is A P_k-invariant; so A is
    taken as A P_k wherever ker R is not A-invariant (the test only keeps
    the bits of every invariant value), and the closed forms below hold for
    every A at every n.  Every weight but the incidence one is R = S Q: Q is
    an idempotent projector (P_v, P_1 or Q_w) with kernel ker R and image
    anchor-perp, and S is the factor of a factored weight, the identity
    otherwise.  With ker R A-invariant, R A x = (R A S^-1)(S Q x) and S Q
    maps ker R-perp onto S(anchor-perp) = (S^-T anchor)-perp, so

        |||A|||_{p,R} = tau_p(S^-T anchor, (R A P_k S^-1)^T)

    for every p; `_reduced_seminorms` evaluates it, here for a stack of one.
    At p = 2 the incidence weight is reduced as the agreement one, whose
    data it carries.  At p = inf, ||C^T x||_inf <= 1 with x perp 1 lets x
    range over y - mean(y) 1 with y in [0, 1]^n, so once A 1 = lambda 1, as
    A P_1 1 = 0 is, the row pair (a, b) contributes sum_k (A_ak - A_bk)^+ =
    ||A_a - A_b||_1 / 2 and the value is tau_1(1, A P_1).  The incidence
    weight at p = 1 has no closed form: it goes to the brute-force evaluator
    up to n <= 5, and larger inputs are refused.
    """
    A = _weighted(A, weight)
    p = as_pnorm(p)
    n = weight.n
    if weight.kind == "incidence" and p == INF:
        return float(_tau_values(np.ones(n), _kernel_projected(A[None], weight.kernel), 1)[0])
    if weight.kind == "incidence" and p == 1:
        if n > WEIGHT_DIMENSION_CAP:
            raise PreconditionError(
                f"incidence weight with p={p} has no closed form here and the "
                f"brute-force evaluator is capped at n <= {WEIGHT_DIMENSION_CAP}")
        return oracle_weighted_seminorm(A, weight, p).value
    return float(_reduced_seminorms(A[None], weight, p)[0])


@dataclass
class DeflationResult:
    """Minimum induced q-norm over rank-one deflations A - v c^T.

    `bound` is the weak-duality lower bound that certifies the value at
    q = inf, and None at q in {1, 2}.
    """

    value: float
    c_star: np.ndarray
    q: object
    bound: float | None = None


def _deflation_value(v, A, c, q):
    X = A - np.outer(v, c)
    return float(_spectral_norms(X[None])[0]) if q == 2 else induced_pnorm(X, q)


def _highs():
    """scipy's bundled HiGHS bindings, the module that holds `_Highs`.

    Imported here and nowhere else, on the first Psi_inf call, so that
    `import ergo` does not load the LP stack; the module is private to
    scipy, and releases before 1.17 are not known to ship it.
    """
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        _core = None
    if not hasattr(_core, "_Highs"):
        raise ImportError("Psi_inf needs scipy >= 1.17, whose "
                          "scipy.optimize._highspy._core holds the HiGHS model class _Highs")
    return _core


def _deflate_linf(v, A):
    """A minimizer c of max_i ||A_i - v_i c||_1, and the weak-duality lower
    bound on that minimum at the last dual weights.

    Column j of A - v c^T is convex and piecewise linear in c_j, with kinks
    mu = A_kj / v_k over the rows with v_k != 0.  With r the row of largest
    |v_r| and V0 the value at c_proj = A^T v / ||v||^2, every minimizer has
    |A_rj - v_r c_j| <= V0, so c_j lies in the box [lo_j, hi_j] around
    A_rj / v_r; a kink outside it is moved to the box end, where the column
    is still linear.  The minimum is then the LP over convex combinations of
    these points,

        min t  s.t.  sum_{(j, mu) in K} y_{j,mu} |A_ij - mu v_i| <= t  (rows i),
                     sum_mu y_{j,mu} = 1  (columns j),  y >= 0,

    solved by column generation.  A master on a set K of (j, mu) columns
    gives row duals lam (weights on the simplex, as t is free) and convexity
    duals s_j.  `_column_medians` at the weights lam prices every column at
    once: its median, clipped into the box, costs h_j = min_{mu in box}
    sum_i lam_i |A_ij - mu v_i|, and each (j, mu_j) with h_j below s_j joins
    K.  No column joins twice, so the loop ends.  sum_j h_j / sum lam is a
    lower bound on the minimum for every lam >= 0, because the box holds a
    minimizer; the returned one is that of the last master.  K starts as
    every point when the master holds at most MASTER_ALL_KINKS entries (one
    LP is then the whole solve), else as the Psi_1 minimizer, the medians
    under the weights |v_i|.

    The master is one HiGHS model per call: each round adds its priced
    columns in place, and primal simplex restarts from the last basis,
    which stays primal feasible.  v and A come from `deflated_norm`'s
    gate, max |v| and max |A| in [0.5, 1), so nothing below overflows; one
    more power of two, fixed for the call, puts the largest entry a box
    point can give, at lo or at hi, in [0.5, 1).  That keeps the LP
    tolerances relative.  The minimizer is c_j = sum_mu y_{j,mu} mu; by
    convexity its value is at most t.
    """
    m, n = A.shape
    if n == 0:
        # no columns: the empty c attains the minimum 0, which is its own bound
        return np.zeros(0), 0.0
    core = _highs()
    r = int(np.argmax(np.abs(v)))
    V0 = _deflation_value(v, A, A.T @ v / float(v @ v), INF)
    lo, hi = A[r] / v[r] - V0 / abs(v[r]), A[r] / v[r] + V0 / abs(v[r])
    exp = math.frexp(np.max(np.maximum(np.abs(A - v[:, None] * lo),
                                       np.abs(A - v[:, None] * hi))))[1]
    nz = v != 0.0
    # kinks[k, j] is the kink of row k in column j, clipped into the box
    kinks = np.clip(A[nz] / v[nz, None], lo, hi)

    master = core._Highs()
    for option, value in _MASTER_OPTIONS:
        master.setOptionValue(option, value)
    master.addRows(m + n, np.r_[np.full(m, -core.kHighsInf), np.ones(n)],
                   np.r_[np.zeros(m), np.ones(n)], 0, np.zeros(m + n, np.int32),
                   np.zeros(0, np.int32), np.zeros(0))
    # column 0 is the free t, of cost 1, with -1 in every row i
    master.addCols(1, np.ones(1), np.full(1, -core.kHighsInf), np.full(1, core.kHighsInf), m,
                   np.zeros(1, np.int32), np.arange(m, dtype=np.int32), -np.ones(m))

    def add(new):
        js, mus = (np.array(x) for x in zip(*new))
        N = len(new)
        D = np.zeros((m + n, N))
        D[:m] = np.ldexp(np.abs(A[:, js] - v[:, None] * mus), -exp)
        D[m + js, np.arange(N)] = 1.0
        ks, rows = np.nonzero(D.T)
        starts = np.searchsorted(ks, np.arange(N)).astype(np.int32)
        master.addCols(N, np.zeros(N), np.zeros(N), np.full(N, core.kHighsInf), len(ks), starts,
                       rows.astype(np.int32), D[rows, ks])

    if m * n * len(kinks) <= MASTER_ALL_KINKS:
        cols = [(j, mu) for j in range(n) for mu in np.unique(kinks[:, j])]
    else:
        _, (mus,) = _column_medians(v, A[None])
        cols = list(enumerate(np.clip(mus, lo, hi)))
    known = set(cols)
    add(cols)
    while True:
        master.run()
        status = master.getModelStatus()
        if status != core.HighsModelStatus.kOptimal:
            raise CrossCheckError(f"deflation LP failed: {master.modelStatusToString(status)}")
        solution = master.getSolution()
        duals = np.asarray(solution.row_dual)
        lam = np.maximum(-duals[:m], 0.0)
        s = np.ldexp(duals[m:], exp)
        w, X = lam * v, lam[:, None] * A
        (cost,), (best,) = _column_medians(w, X[None])
        # the box minimum is the median clipped into the box, evaluated as
        # `_column_medians` evaluates the median
        clipped = np.clip(best, lo, hi)
        moved = np.flatnonzero(clipped != best)
        rows = np.ascontiguousarray(X[:, moved].T)
        cost[moved] = np.add.reduce(np.abs(rows - clipped[moved, None] * w), axis=1)
        bound = float(np.sum(cost)) / float(np.sum(lam))
        priced = np.flatnonzero(cost < s - np.ldexp(PRICING_TOL, exp))
        # the median of lam_k A_kj / (lam_k v_k) can be an ulp off its kink
        nearest = np.argmin(np.abs(kinks[:, priced] - clipped[priced]), axis=0)
        clipped[priced] = kinks[nearest, priced]
        new = [(j, clipped[j]) for j in priced if (j, clipped[j]) not in known]
        if not new:
            break
        cols += new
        known.update(new)
        add(new)
    js, mus = (np.array(x) for x in zip(*cols))
    y = np.maximum(np.asarray(solution.col_value)[1:], 0.0)
    c = np.bincount(js, weights=y * mus, minlength=n) / np.bincount(js, weights=y, minlength=n)
    return c, bound


def deflated_norm(v, A, q):
    """Psi_q(v, A) = min_c ||A - v c^T||_q, exactly, with a minimizing c.

    For q = 2 the orthogonal-projection vector A^T v / ||v||^2 is the unique
    minimizer.  For q in {1, inf} the minimum is generally strictly below the
    value at that vector; it is found by weighted medians (q=1) or by column
    generation over the weighted-median kinks in `_deflate_linf` (q=inf).
    Ties within 1e-12 of the value, relative, are broken toward the
    projection vector, which keeps degenerate cases canonical and the result
    the same under scaling A by a power of two.  For q = inf the value is
    the one attained at `c_star`, and it is certified by weak duality: it
    exceeds `bound`, the lower bound that `_column_medians` gives at the last
    master's dual weights, by at most 1e-9 max(2^e, value), or
    `CrossCheckError` is raised; the `bound` returned is never above the
    value.  `bound` is None for q in {1, 2}.  Every route runs on v and A
    that `ergodicity._scaled` scales by 2^-ev and 2^-e into [0.5, 1); the
    value and `bound` scale back by 2^e (to inf past the float range,
    without a numpy warning), and `c_star` by 2^(e - ev), with +0.0 for
    every zero entry; a minimizer past the float range, which only an
    anchor far below A can have, is refused.
    """
    v, A = _anchored(v, A)
    q = as_pnorm(q)
    v, (A,), ev, (ea,) = _scaled(v, A[None])
    c_proj = A.T @ v / float(v @ v)
    value_proj = _deflation_value(v, A, c_proj, q)
    bound = None
    if q == 2:
        c, value = c_proj, value_proj
    elif q == 1:
        # max-column-sum objective separates per column into the weighted
        # median problems behind tau_inf
        (values,), (c,) = _column_medians(v, A[None])
        value = float(np.max(values, initial=0.0))
        if value_proj <= value * (1.0 + 1e-12):
            c = c_proj
        # the smaller value is reported even when c_proj wins a near-tie,
        # which keeps tau_inf = Psi_1 exact
        value = min(value, value_proj)
    else:
        c, bound = _deflate_linf(v, A)
        value = _deflation_value(v, A, c, INF)
        if value_proj <= value * (1.0 + 1e-12):
            c, value = c_proj, value_proj
        if value - bound > DUALITY_GAP_TOL * max(1.0, value):
            raise CrossCheckError(
                f"Psi_inf value {float(np.ldexp(value, ea))!r} exceeds its duality "
                f"bound {float(np.ldexp(bound, ea))!r}")
        # at the optimum both are Psi up to rounding, and either can come out
        # an ulp above the other; a lower bound may always be lowered
        bound = min(bound, value)
    with np.errstate(over="ignore"):
        value = float(np.ldexp(value, ea))
        if bound is not None:
            bound = float(np.ldexp(bound, ea))
        # + 0.0 turns a -0.0 entry, from a kink 0 / -v_i or the projection, to +0.0
        c_star = np.ldexp(c, ea - ev) + 0.0
    if not np.all(np.isfinite(c_star)):
        raise PreconditionError(
            f"the minimizing c lies past the float range: an entry "
            f"{float(np.max(np.abs(c)))!r} times 2^{ea - ev}")
    return DeflationResult(value, c_star, q, bound)


def lmi_l2(A, P):
    """Smallest b with A^T P A <= b P, for symmetric PSD P with ker P = <v>,
    v an eigenvector of A for its dominant real eigenvalue.

    Solved as the top eigenvalue of the pencil (U^T A^T P A U, U^T P U) on an
    orthonormal basis U of v-perp; the result is certified feasible at
    b + 1e-9 and infeasible at b - 1e-6.
    """
    A = as_matrix(A)
    P = as_matrix(P, "weight P")
    n = A.shape[0]
    if A.shape != (n, n) or P.shape != (n, n):
        raise PreconditionError("A and P must be square of the same size")
    if n == 0:
        raise PreconditionError("matrix must have at least one entry")
    if np.max(np.abs(P - P.T)) > 1e-10:
        raise PreconditionError("P must be symmetric")
    evals, evecs = np.linalg.eigh(P)
    scale = max(evals[-1], 1.0)
    kernel_mask = evals <= 1e-10 * scale
    if int(kernel_mask.sum()) != 1:
        raise PreconditionError(
            f"P kernel must be one-dimensional, found {int(kernel_mask.sum())} null directions")
    if evals[0] < -1e-10 * scale:
        raise PreconditionError("P must be positive semidefinite")
    v = evecs[:, 0]
    lam = float(v @ A @ v) / float(v @ v)
    if np.linalg.norm(A @ v - lam * v) > KERNEL_INVARIANCE_TOL * max(1.0, np.linalg.norm(A)):
        raise PreconditionError("ker P must be spanned by an eigenvector of A")
    if n == 1:
        # v-perp is {0}: the pencil is empty and the seminorm, like b, is 0
        return 0.0
    U = evecs[:, 1:]
    G1 = U.T @ A.T @ P @ A @ U
    G2 = U.T @ P @ U
    vals = scipy.linalg.eigh(G1, G2, eigvals_only=True)
    b = float(max(vals[-1], 0.0))

    gap = scipy.linalg.eigh(U.T @ ((b + 1e-9) * P - A.T @ P @ A) @ U, eigvals_only=True)[0]
    if gap < -1e-9 * max(1.0, b) * 10:
        raise CrossCheckError(f"pencil value {b} is not feasible at slack 1e-09")
    lower = scipy.linalg.eigh(U.T @ ((b - 1e-6) * P - A.T @ P @ A) @ U, eigvals_only=True)[0]
    if b > 1e-6 and lower > 0:
        raise CrossCheckError(f"pencil value {b} is not minimal: {b - 1e-6} feasible")
    return b
