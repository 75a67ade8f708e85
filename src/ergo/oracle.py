"""Definition-level brute-force evaluators.

These enumerate the actual feasible polytopes of the defining maximization
problems (exact for p in {1, inf} at desk scale) or run projected power
iteration with random restarts (p = 2).  They share no code with the closed
forms they shadow; their entire purpose is to catch a wrong closed form.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PreconditionError
from .linalg import INF, as_matrix, as_pnorm, as_vector, induced_pnorm

TAU_DIMENSION_CAP = 6
WEIGHT_DIMENSION_CAP = 5
FEASIBILITY_TOL = 1e-10
ITERATION_TOL = 1e-10
DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 0


@dataclass
class OracleResult:
    value: float
    exact: bool
    witness: np.ndarray
    samples_used: int


def _pnorm(x, p):
    if p == 1:
        return float(np.sum(np.abs(x)))
    if p == INF:
        return float(np.max(np.abs(x))) if x.size else 0.0
    return float(np.linalg.norm(x))


def _tau_vertices_l1(v):
    """Vertices of the cross-polytope cut by the hyperplane v-perp."""
    n = len(v)
    verts = []
    for i in range(n):
        if v[i] == 0.0:
            for s in (1.0, -1.0):
                e = np.zeros(n)
                e[i] = s
                verts.append(e)
    for i, j in itertools.combinations(range(n), 2):
        for si in (1.0, -1.0):
            for sj in (1.0, -1.0):
                a = si * v[i]
                b = sj * v[j]
                if a == b:
                    continue
                t = -b / (a - b)
                if -FEASIBILITY_TOL <= t <= 1.0 + FEASIBILITY_TOL:
                    t = min(max(t, 0.0), 1.0)
                    x = np.zeros(n)
                    x[i] = t * si
                    x[j] = (1.0 - t) * sj
                    verts.append(x)
    return verts


def _tau_vertices_linf(v):
    """Vertices of the hypercube cut by the hyperplane v-perp."""
    n = len(v)
    verts = []
    for i in range(n):
        rest = [k for k in range(n) if k != i]
        for signs in itertools.product((1.0, -1.0), repeat=n - 1):
            x = np.zeros(n)
            x[rest] = signs
            partial = float(v[rest] @ x[rest])
            if v[i] == 0.0:
                if abs(partial) <= 1e-12:
                    for s in (1.0, -1.0):
                        y = x.copy()
                        y[i] = s
                        verts.append(y)
                continue
            t = -partial / v[i]
            if abs(t) <= 1.0 + FEASIBILITY_TOL:
                x[i] = min(max(t, -1.0), 1.0)
                verts.append(x.copy())
    return verts


def _sample_feasible(v, n, p, samples, rng):
    """Random points of {||x||_p <= 1} cap v-perp."""
    P = np.eye(n) - np.outer(v, v) / float(v @ v)
    X = rng.standard_normal((samples, n)) @ P.T
    if p == 1:
        norms = np.sum(np.abs(X), axis=1)
    elif p == INF:
        norms = np.max(np.abs(X), axis=1)
    else:
        norms = np.linalg.norm(X, axis=1)
    keep = norms > 1e-12
    return X[keep] / norms[keep, None]


def oracle_tau(v, A, p, mode="exact", samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
    """Literal evaluation of max { ||A^T x||_p : ||x||_p <= 1, x perp v }.

    p in {1, inf}: exact vertex enumeration up to n = 6 (or feasible-set
    sampling in sampling mode).  p = 2: power iteration on the projected
    operator seeded from the best of `samples` random feasible points.
    """
    v = as_vector(v, "anchor")
    A = as_matrix(A)
    if A.shape[0] != len(v):
        raise PreconditionError("anchor length does not match matrix rows")
    if not np.any(v):
        raise PreconditionError("anchor must be nonzero")
    p = as_pnorm(p)
    if mode not in ("exact", "sampling"):
        raise PreconditionError(f"unknown oracle mode {mode!r}; use 'exact' or 'sampling'")
    n = len(v)
    rng = np.random.default_rng(seed)

    if p == 2:
        P = np.eye(n) - np.outer(v, v) / float(v @ v)
        X = _sample_feasible(v, n, 2, samples, rng)
        vals = np.linalg.norm(X @ A, axis=1)
        x = X[int(np.argmax(vals))] if len(X) else P[:, 0] / np.linalg.norm(P[:, 0])
        M = P @ (A @ A.T) @ P
        lam = float(x @ M @ x)
        for _ in range(20_000):
            y = M @ x
            norm = np.linalg.norm(y)
            if norm <= 1e-300:
                break
            y /= norm
            lam_next = float(y @ M @ y)
            x = y
            if abs(lam_next - lam) <= ITERATION_TOL * max(1.0, lam_next):
                lam = lam_next
                break
            lam = lam_next
        return OracleResult(math.sqrt(max(lam, 0.0)), False, x, samples)

    if mode == "sampling" or n > TAU_DIMENSION_CAP:
        if mode != "sampling":
            raise PreconditionError(f"exact mode capped at n <= {TAU_DIMENSION_CAP}")
        X = _sample_feasible(v, n, p, samples, rng)
        vals = [_pnorm(A.T @ x, p) for x in X]
        k = int(np.argmax(vals))
        return OracleResult(float(vals[k]), False, X[k], samples)

    verts = _tau_vertices_l1(v) if p == 1 else _tau_vertices_linf(v)
    best, witness = 0.0, np.zeros(n)
    for x in verts:
        val = _pnorm(A.T @ x, p)
        if val > best:
            best, witness = val, x
    return OracleResult(float(best), True, witness, 0)


def _weight_rank_check(R, n):
    svals = np.linalg.svd(R, compute_uv=False)
    if len(svals) < n - 1 or (n > 1 and svals[n - 2] <= 1e-10 * max(svals[0], 1.0)):
        raise PreconditionError("weight must have a one-dimensional kernel")


def _two_level_points(n):
    """x = 1_S - (|S|/n) 1 over proper nonempty subsets S; the vertex
    directions of gap-constrained polytopes on the zero-sum hyperplane."""
    pts = []
    for size in range(1, n):
        for S in itertools.combinations(range(n), size):
            x = np.full(n, -size / n)
            x[list(S)] += 1.0
            pts.append(x)
    return pts


def _seminorm_vertices_linf(R, kernel):
    """Vertices of {max_i |r_i^T x| <= 1} cap kernel-perp by active-row subsets."""
    k, n = R.shape
    verts = []
    for rows in itertools.combinations(range(k), n - 1):
        M = np.vstack([R[list(rows)], kernel])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        for signs in itertools.product((1.0, -1.0), repeat=n - 1):
            b = np.concatenate([signs, [0.0]])
            x = np.linalg.solve(M, b)
            if np.max(np.abs(R @ x)) <= 1.0 + 1e-9:
                verts.append(x)
    return verts


def _seminorm_vertices_l1(R, kernel):
    """Vertices of {sum_i |r_i^T x| <= 1} cap kernel-perp: n-2 rows vanish,
    then scale to the unit sum."""
    k, n = R.shape
    verts = []
    if n == 1:
        return verts
    for rows in itertools.combinations(range(k), n - 2):
        M = np.vstack([R[list(rows)], kernel]) if rows else kernel.reshape(1, n)
        null = scipy.linalg.null_space(M)
        if null.shape[1] != 1:
            continue
        x = null[:, 0]
        s = float(np.sum(np.abs(R @ x)))
        if s <= 1e-14:
            continue
        verts.append(x / s)
        verts.append(-x / s)
    return verts


def oracle_weighted_seminorm(A, weight, p):
    """Literal evaluation of max { ||RAx||_p : ||Rx||_p <= 1, x perp ker R }.

    Exact polytope vertex enumeration for p in {1, inf} up to n = 5; for the
    incidence weight at p = inf the vertices are the two-level subset points,
    enumerated directly.  p = 2 runs generalized Rayleigh iteration on the
    pencil ((RA)^T RA, R^T R) restricted to the kernel complement.
    """
    A = as_matrix(A)
    R = weight.matrix
    kernel = weight.kernel
    n = weight.n
    if A.shape != (n, n):
        raise PreconditionError("matrix shape does not match weight")
    p = as_pnorm(p)
    _weight_rank_check(R, n)

    if p == 2:
        rng = np.random.default_rng(DEFAULT_SEED)
        U = scipy.linalg.null_space(kernel.reshape(1, n))
        RA = R @ A
        G1 = U.T @ (RA.T @ RA) @ U
        G2 = U.T @ (R.T @ R) @ U
        cho = scipy.linalg.cho_factor(G2)
        y = rng.standard_normal(n - 1)
        best = -1.0
        x = U @ y
        used = 0
        for start in range(8):
            if start:
                y = rng.standard_normal(n - 1)
            lam = 0.0
            for _ in range(20_000):
                z = scipy.linalg.cho_solve(cho, G1 @ y)
                norm = np.linalg.norm(z)
                if norm <= 1e-300:
                    break
                z /= norm
                lam_next = float(z @ G1 @ z) / float(z @ G2 @ z)
                y = z
                used += 1
                if abs(lam_next - lam) <= ITERATION_TOL * max(1.0, lam_next):
                    lam = lam_next
                    break
                lam = lam_next
            if lam > best:
                best = lam
                x = U @ y
        best = max(best, 0.0)
        denom = _pnorm(R @ x, 2)
        witness = x / denom if denom > 0 else x
        return OracleResult(math.sqrt(max(best, 0.0)), False, witness, used)

    if n > WEIGHT_DIMENSION_CAP:
        raise PreconditionError(f"exact weighted oracle capped at n <= {WEIGHT_DIMENSION_CAP}")

    if p == INF and weight.kind == "incidence":
        verts = []
        for x in _two_level_points(n):
            s = float(np.max(np.abs(R @ x)))
            if s > 1e-14:
                verts.append(x / s)
    elif p == INF:
        verts = _seminorm_vertices_linf(R, kernel)
    else:
        verts = _seminorm_vertices_l1(R, kernel)

    best, witness = 0.0, np.zeros(n)
    for x in verts:
        val = _pnorm(R @ (A @ x), p)
        if val > best:
            best, witness = val, x
    return OracleResult(float(best), True, witness, 0)


def _line_search(f, lo=-8.0, hi=8.0):
    """Golden-section on a 1-D convex function, returning the minimizing point."""
    import scipy.optimize
    res = scipy.optimize.minimize_scalar(f, bracket=None, bounds=(lo, hi),
                                         method="bounded",
                                         options={"xatol": 1e-12})
    return float(res.x), float(res.fun)


def oracle_deflation(v, A, q, trials=8):
    """Convex local search for min_c ||A - v c^T||_q: coordinate descent with
    exact-ish line searches from zero, the orthogonal-projection vector, and
    `trials` random starts, then a simplex polish of the best point."""
    import scipy.optimize

    v = as_vector(v, "anchor")
    A = as_matrix(A)
    q = as_pnorm(q)
    try:
        # numpy integers pass; 1.5 is refused rather than truncated
        trials = operator.index(trials)
    except TypeError:
        raise PreconditionError("trials must be an integer") from None
    if trials < 1:
        raise PreconditionError("trials must be at least 1")
    n = A.shape[1]
    rng = np.random.default_rng(DEFAULT_SEED)
    scale = max(1.0, float(np.max(np.abs(A))))

    def f(c):
        return induced_pnorm(A - np.outer(v, c), q)

    starts = [np.zeros(n), A.T @ v / float(v @ v)]
    starts += [rng.normal(scale=scale, size=n) for _ in range(trials)]

    best_val, best_c = math.inf, None
    for c0 in starts:
        c = c0.astype(float).copy()
        val = f(c)
        for _ in range(60):
            improved = False
            for j in range(n):
                def fj(t, j=j, c=c):
                    cc = c.copy()
                    cc[j] = t
                    return f(cc)
                t, ft = _line_search(fj, c[j] - 4 * scale, c[j] + 4 * scale)
                if ft < val - 1e-14:
                    c[j] = t
                    val = ft
                    improved = True
            if not improved:
                break
        if val < best_val:
            best_val, best_c = val, c
    res = scipy.optimize.minimize(f, best_c, method="Nelder-Mead",
                                  options={"maxiter": 40_000, "maxfev": 40_000,
                                           "xatol": 1e-13, "fatol": 1e-14})
    if res.fun < best_val:
        best_val, best_c = float(res.fun), res.x
    return float(best_val)
