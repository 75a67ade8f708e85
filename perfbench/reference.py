"""Independent reference values for the benchmark's correctness gate.

Each function evaluates an identity that holds at every n with numpy code
that shares nothing with `ergo`, so a kernel rewrite is checked against a
second implementation rather than against itself:

  tau_1(v, M)    pairwise vertex formula, vectorised over one row at a time
  tau_inf(v, M)  = Psi_1(v, M), a column-wise weighted median
  tau_2(v, M)    = Psi_2(v, M) = ||M - v c^T||_2 with c = M^T v / ||v||^2

The sup-seminorm of a factored weight is evaluated in exact rational
arithmetic, because its factor can be too ill-conditioned for a
double-precision reference to settle a bound.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.linalg


class WrongValue(Exception):
    """A returned value contradicts its reference: the program is wrong."""


class Refused(Exception):
    """A job delivered no checkable result (an error exit, a skipped certificate)."""


def close(got, want, tol=1e-9, what="value"):
    """Raise WrongValue unless |got - want| <= tol * max(1, |want|)."""
    got, want = float(got), float(want)
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise WrongValue(f"{what}: got {got!r}, reference {want!r}")


def same_length(got, want, what="sequence"):
    """Raise WrongValue unless a returned sequence has the reference's length."""
    if len(got) != len(want):
        raise WrongValue(f"{what}: {len(got)} entries, reference {len(want)}")


def at_most(got, bound, tol=1e-9, what="value"):
    if not float(got) <= float(bound) + tol * max(1.0, abs(float(bound))):
        raise WrongValue(f"{what}: {float(got)!r} exceeds bound {float(bound)!r}")


def tau1_vertex(v, M):
    """max_{i<j} ||v_j M_i - v_i M_j||_1 / (|v_i| + |v_j|) over rows of M."""
    v = np.asarray(v, dtype=float)
    absv = np.abs(v)
    rownorm = np.abs(M).sum(axis=1)
    best = 0.0
    for i in range(len(v) - 1):
        den = absv[i] + absv[i + 1:]
        diff = np.abs(v[i + 1:, None] * M[i] - v[i] * M[i + 1:]).sum(axis=1)
        free = den == 0.0
        vals = np.where(free, np.maximum(rownorm[i], rownorm[i + 1:]),
                        diff / np.where(free, 1.0, den))
        best = max(best, float(vals.max()))
    return best


def psi1_median(v, M):
    """(Psi_1(v, M), minimiser c): per column the minimum of sum_i |M_ik - c v_i|
    sits at a weighted median of M_ik / v_i with weights |v_i|."""
    v = np.asarray(v, dtype=float)
    live = v != 0.0
    ratios = M[live] / v[live, None]
    weights = np.abs(v[live])
    order = np.argsort(ratios, axis=0)
    cum = np.cumsum(weights[order], axis=0)
    pick = (cum >= 0.5 * weights.sum()).argmax(axis=0)
    c = np.take_along_axis(ratios, order, axis=0)[pick, np.arange(M.shape[1])]
    return float(np.abs(M - np.outer(v, c)).sum(axis=0).max()), c


def psi2(v, M):
    v = np.asarray(v, dtype=float)
    c = M.T @ v / float(v @ v)
    return float(np.linalg.norm(M - np.outer(v, c), 2))


def tau_ref(v, M, p):
    """tau_p(v, M) for p in {1, 2, inf} through the identities above."""
    if p == 1:
        return tau1_vertex(v, M)
    if p == 2:
        return psi2(v, M)
    return psi1_median(v, M)[0]


def projector(v):
    v = np.asarray(v, dtype=float)
    return np.eye(len(v)) - np.outer(v, v) / float(v @ v)


def agreement_ref(A, p):
    """|||A|||_{p,Pi}: on x perp 1 the weight Pi is the identity, so this is
    tau_p(1, (Pi A)^T); for p = 2 it is ||Pi A Pi||_2."""
    n = A.shape[0]
    Pi = projector(np.ones(n))
    if p == 2:
        return float(np.linalg.norm(Pi @ A @ Pi, 2))
    return tau_ref(np.ones(n), (Pi @ A).T, p)


def factored_l2_ref(S, v, A):
    """max ||S P_v A x||_2 / ||S x||_2 over x perp v, through a QR factor of
    S U (U an orthonormal basis of v-perp) instead of the symmetric pencil."""
    U = scipy.linalg.null_space(np.asarray(v, dtype=float)[None, :])
    _, R1 = np.linalg.qr(S @ U)
    top = S @ projector(v) @ A @ U
    return float(np.linalg.norm(scipy.linalg.solve_triangular(R1, top.T, trans="T").T, 2))


def _exact_inverse(M):
    """M^{-1} for a float matrix M, by Gauss-Jordan elimination over the rationals."""
    n = len(M)
    rows = [[Fraction(float(x)) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(M)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def factored_sup_exact(S, v, A):
    """|||A|||_{inf,R} for R = S P_v, exactly, as a Fraction.

    On x perp v the weight is y = S x, which ranges over u^T y = 0 with
    u = S^{-T} v, and R A x = B y with B = S P_v A S^{-1}.  Each row of B then
    contributes min_c ||B_i - c u||_1 (the tau_inf = Psi_1 duality), which sits
    at a weighted median of B_ik / u_k with weights |u_k|.  The float inputs
    are taken as exact, so the only error is the final rounding to a float.
    """
    n = len(v)
    Sf = [[Fraction(float(x)) for x in row] for row in S]
    Af = [[Fraction(float(x)) for x in row] for row in A]
    vf = [Fraction(float(x)) for x in v]
    Sinv = _exact_inverse(S)
    u = [sum(Sinv[k][i] * vf[k] for k in range(n)) for i in range(n)]
    AS = [[sum(Af[i][k] * Sinv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    vv = sum(x * x for x in vf)
    c = [sum(vf[i] * AS[i][j] for i in range(n)) / vv for j in range(n)]
    PAS = [[AS[i][j] - vf[i] * c[j] for j in range(n)] for i in range(n)]
    best = Fraction(0)
    for i in range(n):
        b = [sum(Sf[i][k] * PAS[k][j] for k in range(n)) for j in range(n)]
        kinks = sorted((b[k] / u[k], abs(u[k])) for k in range(n) if u[k] != 0)
        half, acc = sum(w for _, w in kinks) / 2, 0
        for ratio, w in kinks:
            acc += w
            if acc >= half:
                break
        best = max(best, sum(abs(b[k] - ratio * u[k]) for k in range(n)))
    return best


def rounding_resolution(S, v, A, samples=4):
    """(exact seminorm, how far one rounding of S moves it).

    The move is the largest change of factored_sup_exact over a few fixed
    random patterns that shift every entry of S by one unit roundoff.  It is
    the finest difference a factor stated in doubles can resolve.
    """
    base = factored_sup_exact(S, v, A)
    signs = np.random.default_rng(0).choice((-1.0, 1.0), (samples, *S.shape))
    u = np.finfo(float).eps
    move = max(abs(factored_sup_exact(S * (1.0 + u * sign), v, A) - base) for sign in signs)
    return float(base), float(move)


def stationary(A):
    """pi with pi^T A = pi^T, 1^T pi = 1, by one least-squares solve."""
    n = A.shape[0]
    system = np.vstack([A.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


def second_modulus(A):
    """rho_ess: the second-largest eigenvalue modulus, 0 when every eigenvalue is 1."""
    vals = np.linalg.eigvals(A)
    if np.all(np.abs(vals - 1.0) <= 1e-9):
        return 0.0
    return float(np.sort(np.abs(vals))[-2]) if len(vals) > 1 else 0.0


def distance(Ak, pi):
    """d(A, k) = ||A^k - 1 pi^T||_inf / 2."""
    return 0.5 * float(np.abs(Ak - pi[None, :]).sum(axis=1).max())


def mixing_scan(A, eps):
    """(t_mix, [d(A, 0), ..., d(A, t_mix)]) by plain matrix powering."""
    pi = stationary(A)
    Ak = np.eye(A.shape[0])
    trace = [distance(Ak, pi)]
    while trace[-1] > eps:
        Ak = Ak @ A
        trace.append(distance(Ak, pi))
    return len(trace) - 1, trace


def induced_norm(M, q):
    """Induced q-norm: max column sum (1), spectral norm (2), max row sum (inf)."""
    if q == 1:
        return float(np.abs(M).sum(axis=0).max())
    if q == 2:
        return float(np.linalg.norm(M, 2))
    return float(np.abs(M).sum(axis=1).max())


def seminorm_of(Rx, p):
    if p == 1:
        return float(np.abs(Rx).sum())
    if p == 2:
        return float(np.linalg.norm(Rx))
    return float(np.abs(Rx).max())


def check_trajectory(rate, R, states, p, slack=1e-10):
    """The certificate bound ||R x(k)||_p <= rate^k ||R x(0)||_p along states."""
    s0 = seminorm_of(R @ states[0], p)
    for k, x in enumerate(states):
        at_most(seminorm_of(R @ x, p), rate ** k * s0 + slack, tol=0.0,
                what=f"trajectory bound at step {k}")
