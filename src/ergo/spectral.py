"""Essential spectral radius and near-optimal seminorm weights.

The weight R = D T P_v (D a decaying diagonal, T a triangularizing transform
of P_v A P_v) squeezes the induced seminorm between rho_ess and rho_ess plus
a caller-chosen margin.  The lower bound holds for every weight whose kernel
is the dominant eigendirection; the upper bound comes from the scaled
triangular similarity image, whose infinity norm is computed structurally so
tiny diagonal scales do not amplify floating-point noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CrossCheckError, PreconditionError
from .linalg import (INF, StochasticMatrix, as_matrix, eigendecompose,
                     orthogonal_projector, _boolean_primitive)
from .ergodicity import tau
from .seminorm import SeminormWeight

RHO_CROSS_TOL = 1e-8


@dataclass
class SpectralReport:
    rho_ess: float
    eigen_moduli: list
    diagonalizable: bool
    dominant_v: np.ndarray


@dataclass
class OptimalWeight:
    """A factored weight certifying |||A|||_{inf,R} close to rho_ess.

    regime is "eigenbasis" when P_v A P_v is safely diagonalizable with real
    spectrum (certificate within roundoff of rho_ess), "schur-real" for the
    triangular fallback (certificate within epsilon), and "schur-complex"
    when complex conjugate pairs force a looser block bound.
    """

    epsilon: float
    weight: SeminormWeight
    certified_value: float
    rho_ess: float
    regime: str
    internal_scale: float


def _unwrap(A):
    if isinstance(A, StochasticMatrix):
        return A.matrix, A.primitive
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise PreconditionError("square matrix required")
    primitive = bool(np.min(A) >= 0.0) and _boolean_primitive(A > 0.0, A.shape[0])
    return A, primitive


def _dominant_right(A, decomp):
    vec = decomp.values[0]
    v = decomp.basis[:, 0] if decomp.basis is not None else None
    if v is None or np.max(np.abs(np.imag(v))) > 1e-9 or abs(np.imag(vec)) > 1e-9:
        # fall back to power iteration; primitive matrices have a simple
        # positive dominant pair
        n = A.shape[0]
        v = np.full(n, 1.0 / n)
        for _ in range(50_000):
            nxt = A @ v
            norm = np.linalg.norm(nxt)
            if norm == 0:
                raise PreconditionError("dominant eigenvector iteration collapsed")
            nxt /= norm
            if np.linalg.norm(nxt - v) < 1e-14:
                break
            v = nxt
        return nxt
    v = np.real(v)
    return v / np.linalg.norm(v)


def ess_spectral_radius(A):
    """Second-largest eigenvalue modulus (zero when the spectrum is all ones).

    For primitive input the value is cross-checked against the spectral
    radius of P_v A, v the dominant right eigenvector.
    """
    M, primitive = _unwrap(A)
    decomp = eigendecompose(M)
    moduli = np.abs(decomp.values)
    if np.all(np.abs(decomp.values - 1.0) <= 1e-9):
        rho = 0.0
    else:
        rho = float(moduli[1]) if len(moduli) > 1 else 0.0
    v = _dominant_right(M, decomp)
    if primitive:
        P = orthogonal_projector(v)
        rho_deflated = float(np.max(np.abs(np.linalg.eigvals(P @ M))))
        if abs(rho_deflated - rho) > RHO_CROSS_TOL * max(1.0, rho):
            raise CrossCheckError(
                f"rho_ess cross-check failed: {rho} vs deflated {rho_deflated}")
    return SpectralReport(
        rho_ess=rho,
        eigen_moduli=[float(x) for x in moduli],
        diagonalizable=decomp.diagonalizable,
        dominant_v=v,
    )


def _schur_decay_diagonal(T, scale):
    """Diagonal d with d_i = scale^{-p_i} * balance_i for the quasi-triangular
    Schur factor T: powers p increase per block so conjugation by diag(d)
    multiplies entry (i, j) by scale^{p_j - p_i} (suppressing the strict upper
    part), and 2x2 complex blocks are balanced internally so their row sums
    come out near |Re| + |Im| instead of inheriting the raw off-diagonals."""
    n = T.shape[0]
    powers = np.zeros(n)
    balance = np.ones(n)
    p = 0
    i = 0
    while i < n:
        if i < n - 1 and T[i + 1, i] != 0.0:
            powers[i] = powers[i + 1] = p
            b, c = abs(T[i, i + 1]), abs(T[i + 1, i])
            if b > 0 and c > 0:
                balance[i + 1] = math.sqrt(c / b)
            i += 2
        else:
            powers[i] = p
            i += 1
        p += 1
    return (scale ** -powers) * balance


def _scaled_schur_norm(T, d):
    """||diag(d) T diag(d)^{-1}||_inf evaluated only on the structural
    nonzeros of the quasi-triangular T, so exact zeros below the diagonal
    never pick up amplified floating-point noise."""
    n = T.shape[0]
    worst = 0.0
    for i in range(n):
        row = 0.0
        lo = i - 1 if (i > 0 and T[i, i - 1] != 0.0) else i
        for j in range(lo, n):
            if T[i, j] != 0.0:
                row += abs(T[i, j]) * d[i] / d[j]
        worst = max(worst, row)
    return float(worst)


def optimal_weight(A, epsilon=1e-3):
    """Weight R = D T P_v with |||A|||_{inf,R} within epsilon above rho_ess.

    Requires a primitive matrix.  With a safely diagonalizable real spectrum
    the eigenbasis transform makes the similarity image exactly diagonal and
    the certificate equals rho_ess up to roundoff; otherwise the real Schur
    factor is the stable surrogate, with the diagonal decay tuned to the
    off-diagonal mass.  Complex conjugate pairs are reported with the looser
    2x2-block bound rather than refused.
    """
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive")
    M, primitive = _unwrap(A)
    if not primitive:
        raise PreconditionError("optimal weight construction needs a primitive matrix")
    n = M.shape[0]
    report = ess_spectral_radius(M)
    rho = report.rho_ess
    v = report.dominant_v
    P = orthogonal_projector(v)
    core = P @ M @ P

    decomp = eigendecompose(core)
    real_spectrum = bool(np.max(np.abs(np.imag(decomp.values))) <= 1e-9)

    if decomp.diagonalizable and real_spectrum:
        V = np.real(decomp.basis)
        T = np.linalg.inv(V)
        scale = min(epsilon, 1.0)
        D = np.diag(scale ** np.arange(n, dtype=float))
        S = D @ T
        certified = rho
        regime = "eigenbasis"
    else:
        T_s, Z = decomp.schur_t, decomp.schur_z
        sub = np.diag(T_s, -1)
        complex_blocks = bool(np.max(np.abs(sub)) > 0.0) if n > 1 else False
        strict_upper = np.triu(T_s, 1)
        off_mass = float(np.max(np.sum(np.abs(strict_upper), axis=1))) if n > 1 else 0.0
        scale = min(1.0, epsilon / (off_mass + 1e-30)) if off_mass > 0 else min(epsilon, 1.0)
        D = np.diag(scale ** np.arange(n, dtype=float))
        S = D @ Z.T
        if complex_blocks:
            # keep conjugate pairs in shared scale blocks: repeat the power
            powers = np.arange(n, dtype=float)
            i = 0
            while i < n - 1:
                if abs(T_s[i + 1, i]) > 0.0:
                    powers[i + 1] = powers[i]
                    i += 2
                else:
                    i += 1
            D = np.diag(scale ** powers)
            S = D @ Z.T
            certified = _structural_bound(np.triu(T_s, -1) * (np.abs(T_s) > 0), scale)
            # block rows keep their sub-diagonal entry; recompute faithfully
            scaled = D @ T_s @ np.linalg.inv(D)
            certified = float(np.max(np.sum(np.abs(scaled), axis=1)))
            regime = "schur-complex"
        else:
            certified = _structural_bound(np.triu(T_s), scale)
            regime = "schur-real"

    weight = SeminormWeight.factored(S, v)
    if certified < rho - RHO_CROSS_TOL:
        raise CrossCheckError(
            f"certified value {certified} fell below rho_ess {rho}")
    return OptimalWeight(
        epsilon=float(epsilon),
        weight=weight,
        certified_value=float(certified),
        rho_ess=rho,
        regime=regime,
        internal_scale=float(scale),
    )


def symmetric_l2_identity(A):
    """|||A|||_{2,P_v} for a primitive symmetric matrix; equals rho_ess.

    The value is computed through the projector route and asserted against
    the spectral one before being returned.
    """
    M, primitive = _unwrap(A)
    if np.max(np.abs(M - M.T)) > 1e-12:
        raise PreconditionError("matrix must be symmetric within 1e-12")
    if not primitive:
        raise PreconditionError("identity holds for primitive matrices")
    report = ess_spectral_radius(M)
    v = report.dominant_v
    P = orthogonal_projector(v)
    value = tau(v, (P @ M).T, 2).value
    if abs(value - report.rho_ess) > 1e-9 * max(1.0, report.rho_ess):
        raise CrossCheckError(
            f"l2 projector seminorm {value} disagrees with rho_ess {report.rho_ess}")
    return value


def tau2_subunit_check(A):
    """tau_2 of a primitive doubly stochastic matrix with positive diagonal.

    Such matrices are strict l2 contractions on the disagreement subspace;
    the flags are verified and the computed coefficient is returned together
    with the subunit verdict.
    """
    if not isinstance(A, StochasticMatrix):
        A = StochasticMatrix(A)
    if not A.primitive:
        raise PreconditionError("matrix must be primitive")
    if not A.doubly_stochastic:
        raise PreconditionError("matrix must be doubly stochastic")
    if not A.positive_diagonal:
        raise PreconditionError("matrix must have a positive diagonal")
    value = tau(np.ones(A.n), A.matrix, 2).value
    return {"tau2": float(value), "subunit": bool(value < 1.0)}
