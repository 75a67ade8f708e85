"""Definition-level brute-force evaluators.

These evaluate the defining maximization problems literally.  For p in
{1, inf} they enumerate the vertices of the feasible polytopes (exact at
desk scale).  For p = 2 the maximum of a quadratic ratio over a hyperplane
is a singular-value problem, or a symmetric-definite pencil, on an
orthonormal basis of that hyperplane (Golub & Van Loan, Matrix
Computations, 4th ed., 2.4 and 8.7), solved directly by one SVD, with no
sampling or iteration.  They share no code with the closed forms they
shadow and import from the package only `errors` and `linalg`; their
entire purpose is to catch a wrong closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PreconditionError
from .linalg import INF, _anchored, _as_count, as_matrix, as_pnorm, induced_pnorm

TAU_DIMENSION_CAP = 6
WEIGHT_DIMENSION_CAP = 5
FEASIBILITY_TOL = 1e-10
DEFAULT_SEED = 0


@dataclass
class OracleResult:
    value: float
    exact: bool
    witness: np.ndarray


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


def oracle_tau(v, A, p):
    """Literal evaluation of max { ||A^T x||_p : ||x||_p <= 1, x perp v }.

    p in {1, inf}: exact vertex enumeration up to n = 6, refused above.
    p = 2: the largest singular value of A^T U, U an orthonormal basis of
    v-perp, with the witness U y for y its right singular vector; 0 when
    v-perp is {0}.  The SVD is exact to rounding but reported with
    exact = False, like every eigen route.
    """
    v, A = _anchored(v, A)
    p = as_pnorm(p)
    n = len(v)

    if p == 2:
        U = scipy.linalg.null_space(v.reshape(1, n))
        B = A.T @ U
        if B.size == 0:
            return OracleResult(0.0, False, np.zeros(n))
        _, s, Vt = np.linalg.svd(B, full_matrices=False)
        return OracleResult(float(s[0]), False, U @ Vt[0])

    if n > TAU_DIMENSION_CAP:
        raise PreconditionError(f"exact oracle capped at n <= {TAU_DIMENSION_CAP}")

    verts = _tau_vertices_l1(v) if p == 1 else _tau_vertices_linf(v)
    best, witness = 0.0, np.zeros(n)
    for x in verts:
        val = _pnorm(A.T @ x, p)
        if val > best:
            best, witness = val, x
    return OracleResult(float(best), True, witness)


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
    enumerated directly.  p = 2 is the square root of the top eigenvalue of
    the pencil ((RAU)^T RAU, (RU)^T RU), U an orthonormal basis of the
    kernel complement.  With RU = QT (QR), z = Ty turns it into the largest
    singular value of RAU T^-1, whose rounding error grows with cond(RU),
    not with its square as a Cholesky solve of the pencil's does.  The
    witness is U y for z the top right singular vector, scaled to
    ||RUy||_2 = 1; the value is reported with exact = False like every
    eigen route.

    The seminorm does not depend on the scale of R, so R is taken times the
    power of two 2^-e that puts max |R| in (1/2, 1], where the absolute
    thresholds of the rank check and of the enumeration hold (C_n^T and P_1,
    n >= 3, are left as they are); the witness is scaled back by 2^-e, to
    the units of the weight's own R.
    """
    A = as_matrix(A)
    kernel = weight.kernel
    n = weight.n
    if A.shape != (n, n):
        raise PreconditionError("matrix shape does not match weight")
    p = as_pnorm(p)
    R = weight.matrix
    top, e = math.frexp(float(np.max(np.abs(R), initial=0.0)))
    if top == 0.5:
        e -= 1
    R = np.ldexp(R, -e)
    _weight_rank_check(R, n)

    if p == 2:
        if n == 1:
            return OracleResult(0.0, False, np.zeros(1))
        U = scipy.linalg.null_space(kernel.reshape(1, n))
        T = np.linalg.qr(R @ U, mode="r")
        M = scipy.linalg.solve_triangular(T, (R @ (A @ U)).T, trans="T").T
        _, s, Vt = np.linalg.svd(M)
        x = U @ scipy.linalg.solve_triangular(T, Vt[0])
        return OracleResult(float(s[0]), False, np.ldexp(x / _pnorm(R @ x, 2), -e))

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
    return OracleResult(float(best), True, np.ldexp(witness, -e))


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

    v, A = _anchored(v, A)
    q = as_pnorm(q)
    trials = _as_count(trials, "trials", 1)
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
