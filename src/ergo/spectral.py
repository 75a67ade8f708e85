"""Essential spectral radius and near-optimal seminorm weights.

The weight R = S P_v takes S from one eigendecomposition of A: with v the
dominant right eigenvector and W the eigenvectors of the other eigenvalues,
each conjugate pair replaced by (Re w, Im w), S = inv([P_v W, v]) (the real
Jordan basis, Horn & Johnson, Matrix Analysis; the v direction is the last
row).  S A S^{-1} is then block
diagonal on v-perp, with 1x1 blocks lambda and 2x2 rotation blocks, so the
induced sup-seminorm has the closed form max |Re lambda| + |Im lambda| over
the non-dominant eigenvalues.  It equals rho_ess on a real spectrum and is
at most sqrt(2) rho_ess otherwise; rho_ess is the floor for every weight
whose kernel is the dominant eigendirection.

`optimal_weight` refuses with PreconditionError when the eigenvector basis
is rejected (condition number >= 1e8, as for defective spectra) and when the
closed form exceeds rho_ess + epsilon.  A conjugate pair lambda (imaginary
part above 1e-9) counts at sqrt(2) |lambda|, the most its block
|lambda| (|cos arg| + |sin arg|) reaches over all arguments, so whether a
chain is certified depends on its eigenvalue moduli and epsilon, not on the
arguments; the message names both values.  Its regime is "eigenbasis" when
every imaginary part is within 1e-9 of 0 (the value is then within 1e-9 of
rho_ess) and "schur-complex" otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CrossCheckError, PreconditionError
from .linalg import (DIAGONALIZABLE_COND, StochasticMatrix, as_matrix, eigendecompose,
                     orthogonal_projector, _boolean_primitive)
from .ergodicity import tau
from .seminorm import SeminormWeight, induced_seminorm

RHO_CROSS_TOL = 1e-8
REAL_SPECTRUM_TOL = 1e-9


@dataclass
class SpectralReport:
    """`dominant_v` is the unit dominant right eigenvector: the real one of
    the accepted eigenbasis, else LAPACK's Perron column of a primitive
    matrix; None for any other matrix whose basis is rejected or whose
    dominant eigenvector is complex."""

    rho_ess: float
    eigen_moduli: list
    diagonalizable: bool
    dominant_v: np.ndarray | None


@dataclass
class OptimalWeight:
    """A factored weight certifying |||A|||_{inf,R} <= rho_ess + epsilon.

    certified_value is the closed form max |Re lambda| + |Im lambda| over the
    non-dominant eigenvalues, the exact seminorm of `weight` up to roundoff.
    regime is "eigenbasis" when the imaginary parts of those eigenvalues are
    within 1e-9 of 0, so that the certificate is within 1e-9 of rho_ess (and
    rho_ess itself on an exactly real spectrum), and "schur-complex" when the
    spectrum has conjugate pairs; each of them then satisfies
    sqrt(2) |lambda| <= rho_ess + epsilon.
    """

    epsilon: float
    weight: SeminormWeight
    certified_value: float
    rho_ess: float
    regime: str


class _Spectrum:
    """The spectral solve of one square matrix, each part made on first use
    and kept: `decomposition`, its EigenDecomposition with read-only arrays,
    and the cross-checked SpectralReport that `report` copies per call.  A
    StochasticMatrix holds one beside its stationary pair; a raw array gets
    a fresh one per call.  A failed cross-check is not held, so each call
    raises it again from the held decomposition."""

    def __init__(self, matrix, primitive):
        self.matrix, self.primitive = matrix, primitive
        self._decomposition = self._report = None

    @property
    def decomposition(self):
        if self._decomposition is None:
            decomp = eigendecompose(self.matrix)
            for a in (decomp.values, decomp.basis, decomp.perron):
                if a is not None:
                    a.setflags(write=False)
            self._decomposition = decomp
        return self._decomposition

    def report(self):
        """A SpectralReport of this call's own, with the held values."""
        if self._report is None:
            report = _report(self.matrix, self.primitive, self.decomposition)
            if report.dominant_v is not None:
                report.dominant_v.setflags(write=False)
            self._report = report
        return replace(self._report, eigen_moduli=list(self._report.eigen_moduli))


def _unwrap(A):
    """The _Spectrum of A: a StochasticMatrix's own, made on its first use,
    or a fresh one over a validated raw array and its primitivity."""
    if isinstance(A, StochasticMatrix):
        if A._spectrum is None:
            A._spectrum = _Spectrum(A.matrix, A.primitive)
        return A._spectrum
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise PreconditionError("square matrix required")
    if A.size == 0:
        raise PreconditionError("matrix must have at least one entry")
    primitive = bool(np.min(A) >= 0.0) and _boolean_primitive(A > 0.0, A.shape[0])
    return _Spectrum(A, primitive)


def _dominant_right(decomp, primitive):
    v = decomp.basis[:, 0] if decomp.basis is not None else None
    if v is None or np.max(np.abs(np.imag(v))) > 1e-9 or abs(np.imag(decomp.values[0])) > 1e-9:
        if not primitive:
            return None
        # a primitive matrix's Perron root is simple, so its column serves
        v = decomp.perron
    v = np.real(v)
    return v / np.linalg.norm(v)


def _report(M, primitive, decomp):
    """The SpectralReport of M from its EigenDecomposition."""
    moduli = np.abs(decomp.values)
    if np.all(np.abs(decomp.values - 1.0) <= 1e-9):
        rho = 0.0
    else:
        rho = float(moduli[1]) if len(moduli) > 1 else 0.0
    v = _dominant_right(decomp, primitive)
    if primitive:
        P = orthogonal_projector(v)
        rho_deflated = float(np.max(np.abs(np.linalg.eigvals(P @ M))))
        if abs(rho_deflated - rho) > RHO_CROSS_TOL * max(1.0, rho):
            raise CrossCheckError(
                f"rho_ess cross-check failed: {rho} vs deflated {rho_deflated}")
    return SpectralReport(rho, [float(x) for x in moduli], decomp.diagonalizable, v)


def ess_spectral_radius(A):
    """Second-largest eigenvalue modulus (zero when the spectrum is all ones).

    For primitive input the value is cross-checked against the spectral
    radius of P_v A, v the dominant right eigenvector.  `dominant_v` is None
    for a matrix that is not primitive and has no real dominant eigenvector
    in an accepted eigenbasis (rotations, defective or nilpotent matrices).
    A StochasticMatrix solves once and holds the result: later calls, and
    `optimal_weight` on it, reuse it.
    """
    return _unwrap(A).report()


def optimal_weight(A, epsilon=1e-3):
    """Weight R = S P_v with |||A|||_{inf,R} at most rho_ess + epsilon.

    For a primitive matrix, S = inv([P_v W, v]) is the real Jordan basis of
    the module docstring and certified_value its closed form
    max |Re lambda| + |Im lambda| (rho_ess itself on a real spectrum).
    PreconditionError when the eigenvector basis is rejected (condition
    number >= 1e8), or when that value or sqrt(2) |lambda| for a conjugate
    pair lambda exceeds rho_ess + epsilon.
    """
    return _optimal_weight(_unwrap(A), epsilon)


def _optimal_weight(spectrum, epsilon):
    """`optimal_weight` from a _Spectrum.  A rejected basis is refused before
    the report is built: rho_ess's cross-check is ill-conditioned on a
    defective spectrum."""
    if not epsilon > 0:
        raise PreconditionError("epsilon must be positive")
    if not spectrum.primitive:
        raise PreconditionError("optimal weight construction needs a primitive matrix")
    decomp = spectrum.decomposition
    if not decomp.diagonalizable:
        raise PreconditionError(
            f"eigenvector basis condition number is at least {DIAGONALIZABLE_COND:g}; "
            "no diagonalizing weight")
    report = spectrum.report()
    rho, v = report.rho_ess, report.dominant_v
    lam, W = decomp.values[1:], decomp.basis[:, 1:]
    certified = float(np.max(np.abs(lam.real) + np.abs(lam.imag), initial=0.0))
    pairs = lam[np.abs(lam.imag) > REAL_SPECTRUM_TOL]
    # a pair's block value |lambda| (|cos arg| + |sin arg|) is returned only
    # when it would fit at every argument, that is when sqrt(2) |lambda| does
    reach = max(certified, float(np.sqrt(2.0) * np.max(np.abs(pairs), initial=0.0)))
    if reach > rho + epsilon:
        raise PreconditionError(
            f"the eigenbasis weight reaches {certified!r}, and up to {reach!r} over the "
            f"arguments of its conjugate pairs; rho_ess + epsilon = {rho + epsilon!r}")
    # LAPACK returns real eigenvalues with an imaginary part of exactly 0 and
    # complex ones in exact conjugate pairs; each pair contributes (Re w, Im w)
    real, upper = lam.imag == 0.0, lam.imag > 0.0
    cols = np.column_stack([W[:, real].real, W[:, upper].real, W[:, upper].imag])
    S = np.linalg.inv(np.column_stack([orthogonal_projector(v) @ cols, v]))
    return OptimalWeight(epsilon=float(epsilon), weight=SeminormWeight.factored(S, v),
                         certified_value=certified, rho_ess=rho,
                         regime="schur-complex" if pairs.size else "eigenbasis")


def symmetric_l2_identity(A):
    """|||A|||_{2,P_v} for a primitive symmetric matrix; equals rho_ess.

    The value is computed as the induced seminorm in the orthogonal weight
    of the dominant eigenvector and asserted against the spectral one before
    being returned.
    """
    spectrum = _unwrap(A)
    M = spectrum.matrix
    if np.max(np.abs(M - M.T)) > 1e-12:
        raise PreconditionError("matrix must be symmetric within 1e-12")
    if not spectrum.primitive:
        raise PreconditionError("identity holds for primitive matrices")
    report = spectrum.report()
    value = induced_seminorm(M, SeminormWeight.orthogonal(report.dominant_v), 2)
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
    A = StochasticMatrix.of(A, "the tau_2 subunit check")
    if not A.doubly_stochastic:
        raise PreconditionError("matrix must be doubly stochastic")
    if not A.positive_diagonal:
        raise PreconditionError("matrix must have a positive diagonal")
    value = tau(np.ones(A.n), A.matrix, 2).value
    return {"tau2": float(value), "subunit": bool(value < 1.0)}
