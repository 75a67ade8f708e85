"""Ergodicity coefficients, induced matrix seminorms, and semicontraction
certificates, with every closed form shadowed by a brute-force oracle."""

__version__ = "0.1.0"

from .errors import CrossCheckError, ErgoError, InputFormatError, PreconditionError
from .linalg import (INF, StochasticMatrix, as_distribution, as_matrix, as_pnorm,
                     as_vector, dominant_pair, eigendecompose, induced_pnorm,
                     oblique_projector, orthogonal_projector)
from .ergodicity import ErgodicityResult, dobrushin, tau, tau_oblique
from .seminorm import (DeflationResult, SeminormWeight, deflated_norm,
                       induced_seminorm, kernel_invariance_residual, lmi_l2,
                       vector_seminorm)
from .spectral import (OptimalWeight, SpectralReport, ess_spectral_radius,
                       optimal_weight, symmetric_l2_identity, tau2_subunit_check)
from .markov import MixingReport, distance_to_stationarity, mixing_time
from .contraction import (Certificate, as_sequence, certify_averaging,
                          certify_markov, simulate_and_check)
from .oracle import OracleResult, oracle_deflation, oracle_tau, oracle_weighted_seminorm
from .verify import run_suite

__all__ = [
    "CrossCheckError", "ErgoError", "InputFormatError", "PreconditionError",
    "INF", "StochasticMatrix", "as_distribution", "as_matrix", "as_pnorm",
    "as_vector", "dominant_pair", "eigendecompose", "induced_pnorm",
    "oblique_projector", "orthogonal_projector",
    "ErgodicityResult", "dobrushin", "tau", "tau_oblique",
    "DeflationResult", "SeminormWeight", "deflated_norm", "induced_seminorm",
    "kernel_invariance_residual", "lmi_l2", "vector_seminorm",
    "OptimalWeight", "SpectralReport", "ess_spectral_radius", "optimal_weight",
    "symmetric_l2_identity", "tau2_subunit_check",
    "MixingReport", "distance_to_stationarity", "mixing_time",
    "Certificate", "as_sequence", "certify_averaging", "certify_markov",
    "simulate_and_check",
    "OracleResult", "oracle_deflation", "oracle_tau", "oracle_weighted_seminorm",
    "run_suite",
]
