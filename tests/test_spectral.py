import time

import numpy as np
import pytest
import scipy.linalg

from ergo import (INF, CrossCheckError, PreconditionError, SeminormWeight, StochasticMatrix,
                  ess_spectral_radius, run_suite, induced_seminorm, optimal_weight,
                  oracle_weighted_seminorm, symmetric_l2_identity,
                  tau2_subunit_check)

rng = np.random.default_rng(53)


def random_reversible(n):
    B = rng.uniform(0.1, 1.0, (n, n))
    S = (B + B.T) / 2.0
    return StochasticMatrix(S / S.sum(axis=1, keepdims=True))


def test_rho_ess_frozen():
    assert ess_spectral_radius(np.eye(3)).rho_ess == 0.0
    assert abs(ess_spectral_radius(np.array([[0.9, 0.1], [0.1, 0.9]])).rho_ess - 0.8) < 1e-12
    n = 4
    assert ess_spectral_radius(np.full((n, n), 1.0 / n)).rho_ess < 1e-12


def test_rho_ess_report_fields():
    r = ess_spectral_radius(np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert r.diagonalizable
    assert r.eigen_moduli == sorted(r.eigen_moduli, reverse=True)
    assert r.rho_ess <= r.eigen_moduli[0] + 1e-12
    assert np.allclose(np.abs(r.dominant_v), np.ones(2) / np.sqrt(2))


@pytest.mark.parametrize("A, rho", [([[0.0, -1.0], [1.0, 0.0]], 1.0),
                                    ([[1.0, 1.0], [0.0, 1.0]], 0.0),
                                    ([[0.0, 1.0], [0.0, 0.0]], 0.0)])
def test_rho_ess_without_real_dominant_vector_is_immediate(A, rho):
    # a rotation, a Jordan block and a nilpotent matrix are not primitive,
    # and power iteration converges for none of them: no dominant vector
    # rather than 50,000 steps of it
    start = time.perf_counter()
    r = ess_spectral_radius(np.array(A))
    assert time.perf_counter() - start < 0.05
    assert r.rho_ess == rho
    assert r.dominant_v is None


def test_optimal_weight_frozen():
    ow = optimal_weight(np.array([[0.9, 0.1], [0.1, 0.9]]), 1e-3)
    assert ow.certified_value <= 0.801
    assert ow.certified_value >= 0.8 - 1e-8
    assert ow.regime == "eigenbasis"
    n = 3
    ow = optimal_weight(np.full((n, n), 1.0 / n), 1e-2)
    assert ow.certified_value <= 1e-2


def test_optimal_weight_sandwich():
    for _ in range(25):
        n = int(rng.integers(2, 5))
        S = random_reversible(n)
        rho = ess_spectral_radius(S).rho_ess
        for eps in (1e-1, 1e-2, 1e-3):
            ow = optimal_weight(S.matrix, eps)
            assert ow.certified_value >= rho - 1e-8
            assert ow.certified_value <= rho + eps + 1e-8


def test_optimal_weight_monotone_in_epsilon():
    for _ in range(10):
        S = random_reversible(int(rng.integers(2, 5)))
        values = [optimal_weight(S.matrix, eps).certified_value
                  for eps in (1e-1, 1e-2, 1e-3)]
        assert values[0] >= values[1] - 1e-12
        assert values[1] >= values[2] - 1e-12


def test_optimal_weight_oracle_confirmation():
    # at moderate epsilon the materialized weight is well conditioned and the
    # certificate upper-bounds the true induced seminorm
    for _ in range(8):
        n = int(rng.integers(2, 5))
        S = random_reversible(n)
        rho = ess_spectral_radius(S).rho_ess
        ow = optimal_weight(S.matrix, 0.1)
        true_semi = oracle_weighted_seminorm(S.matrix, ow.weight, INF).value
        assert rho - 1e-8 <= true_semi <= ow.certified_value + 1e-7


def test_optimal_weight_schur_fallback_complex():
    # rotation-flavored primitive chain has complex subdominant eigenvalues
    A = np.array([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]])
    S = StochasticMatrix(A)
    assert S.primitive
    vals = np.linalg.eigvals(A)
    assert np.max(np.abs(vals.imag)) > 1e-6
    ow = optimal_weight(A, 1e-2)
    assert ow.regime == "schur-complex"
    rho = ess_spectral_radius(A).rho_ess
    assert ow.certified_value >= rho - 1e-8


def test_optimal_weight_preconditions():
    with pytest.raises(PreconditionError):
        optimal_weight(np.eye(3), 1e-3)
    for eps in (0.0, float("nan")):
        with pytest.raises(PreconditionError, match="epsilon must be positive"):
            optimal_weight(np.array([[0.9, 0.1], [0.1, 0.9]]), eps)


def test_lower_bound_over_random_factored_weights():
    for _ in range(10):
        n = int(rng.integers(2, 5))
        S = random_reversible(n)
        rho = ess_spectral_radius(S).rho_ess
        for _ in range(10):
            F = rng.standard_normal((n, n))
            if np.linalg.cond(F) > 1e6:
                continue
            W = SeminormWeight.factored(F, np.ones(n))
            for p in (1, 2, INF):
                assert rho <= induced_seminorm(S.matrix, W, p) + 1e-9


def test_symmetric_l2_identity():
    assert abs(symmetric_l2_identity(np.array([[0.9, 0.1], [0.1, 0.9]])) - 0.8) < 1e-12
    n = 3
    assert symmetric_l2_identity(np.full((n, n), 1.0 / n)) < 1e-12
    for _ in range(15):
        n = int(rng.integers(2, 6))
        B = rng.uniform(0.1, 1.0, (n, n))
        sym = (B + B.T) / 2.0
        val = symmetric_l2_identity(sym)
        assert abs(val - ess_spectral_radius(sym).rho_ess) < 1e-9 * max(1.0, val)
    with pytest.raises(PreconditionError):
        symmetric_l2_identity(np.array([[0.5, 0.5], [0.25, 0.75]]))


def test_tau2_subunit():
    res = tau2_subunit_check(StochasticMatrix([[0.75, 0.25], [0.25, 0.75]]))
    assert abs(res["tau2"] - 0.5) < 1e-12 and res["subunit"]
    circ = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    res = tau2_subunit_check(StochasticMatrix(circ))
    assert res["subunit"] and abs(res["tau2"] - 0.25) < 1e-12
    with pytest.raises(PreconditionError):
        tau2_subunit_check(StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]))


def test_optimal_weight_reversible_is_exact_at_any_epsilon():
    # no diagonal scaling: the weight stays well conditioned at every n and
    # epsilon, and its certificate is rho_ess itself
    local = np.random.default_rng(701)
    for n in (8, 20, 50):
        B = local.uniform(0.1, 1.0, (n, n))
        A = (B + B.T) / (B + B.T).sum(axis=1, keepdims=True)
        rho = ess_spectral_radius(A).rho_ess
        for eps in (1e-1, 1e-3):
            ow = optimal_weight(A, eps)
            assert ow.regime == "eigenbasis"
            assert ow.certified_value == rho
            exact = induced_seminorm(A, ow.weight, INF)
            assert abs(exact - ow.certified_value) <= 1e-12 * max(1.0, exact)


def test_optimal_weight_complex_pairs_closed_form():
    local = np.random.default_rng(702)
    for n in (5, 12, 50):
        B = local.uniform(0.0, 1.0, (n, n))
        A = B / B.sum(axis=1, keepdims=True)
        rho = ess_spectral_radius(A).rho_ess
        ow = optimal_weight(A, 1.0)
        exact = induced_seminorm(A, ow.weight, INF)
        assert abs(exact - ow.certified_value) <= 1e-12 * max(1.0, exact)
        assert rho <= ow.certified_value <= np.sqrt(2.0) * rho


def test_spectral_calls_refuse_an_empty_matrix():
    # a 0 x 0 matrix leaked numpy's ValueError from the primitivity test
    for call in (ess_spectral_radius, lambda A: optimal_weight(A, 0.1)):
        with pytest.raises(PreconditionError, match="^matrix must have at least one entry$"):
            call(np.zeros((0, 0)))


def test_optimal_weight_refuses_above_epsilon():
    A = np.array([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]])
    # |Re| + |Im| of -0.35 +- 0.35 sqrt(3) i
    with pytest.raises(PreconditionError, match="0.95621778"):
        optimal_weight(A, 1e-3)
    # 0.7 C_4 + 0.3 J/4 has the pair +-0.7i at rho_ess = 0.7: its block value
    # 0.7 fits, but a pair is accepted only when sqrt(2) 0.7 = 0.9899... does
    A = 0.7 * np.roll(np.eye(4), 1, axis=1) + np.full((4, 4), 0.075)
    with pytest.raises(PreconditionError, match="0.98994949"):
        optimal_weight(A, 0.1)
    ow = optimal_weight(A, 0.3)
    assert ow.regime == "schur-complex"
    assert abs(ow.certified_value - 0.7) <= 1e-12
    assert abs(induced_seminorm(A, ow.weight, INF) - ow.certified_value) <= 1e-12


def test_optimal_weight_refuses_defective_spectrum():
    # a 3x3 Jordan block at 0.5 on 1-perp: no well-conditioned eigenbasis
    n = 4
    b1, b2, b3 = scipy.linalg.null_space(np.ones((1, n))).T
    A = 0.5 * np.eye(n) + np.full((n, n), 1.0 / 8.0) + 0.05 * (np.outer(b1, b2) + np.outer(b2, b3))
    assert StochasticMatrix(A).primitive
    with pytest.raises(PreconditionError):
        optimal_weight(A, 1e-3)


def _jordan_family():
    """The 153 primitive 4x4 chains d I + (1 - d) J/4 + c (b1 b2^T + b2 b3^T),
    d in {0.4, 0.45, 0.5} and c = 0.010..0.060: a 3x3 Jordan block at d on
    1-perp, whose eigenvalues are accurate only to about u^(1/3)."""
    b1, b2, b3 = scipy.linalg.null_space(np.ones((1, 4))).T
    for d in (0.4, 0.45, 0.5):
        for c in np.arange(10, 61) / 1000:
            yield (d * np.eye(4) + (1.0 - d) / 4.0 * np.ones((4, 4))
                   + c * (np.outer(b1, b2) + np.outer(b2, b3)))


def test_defective_family_refusals():
    # optimal_weight refuses the rejected basis of every chain before the
    # ill-conditioned rho_ess cross-check, which ess_spectral_radius runs
    # and fails on most of them (146 raw arrays and 141 normalized chains
    # of the 153 with LAPACK's rounding at the time of writing).  A failed
    # check is not held on a StochasticMatrix: its weight is still refused
    # and the check fails again
    raw_failed = held_failed = 0
    for A in _jordan_family():
        with pytest.raises(PreconditionError, match="no diagonalizing weight"):
            optimal_weight(A, 1e-3)
        try:
            ess_spectral_radius(A)
        except CrossCheckError:
            raw_failed += 1
        S = StochasticMatrix(A)
        assert S.primitive
        try:
            ess_spectral_radius(S)
        except CrossCheckError:
            held_failed += 1
            with pytest.raises(PreconditionError, match="no diagonalizing weight"):
                optimal_weight(S, 1e-3)
            with pytest.raises(CrossCheckError):
                ess_spectral_radius(S)
    assert raw_failed > 100 and held_failed > 100


def _count_decompositions(monkeypatch):
    import ergo.spectral as spectral
    calls = []
    real = spectral.eigendecompose

    def counted(M):
        calls.append(len(M))
        return real(M)
    monkeypatch.setattr(spectral, "eigendecompose", counted)
    return calls


def test_spectral_suite_decomposes_three_times_per_trial(monkeypatch):
    # the reversible chain once for rho_ess and its three weights, the
    # symmetric matrix once for each of its two raw-array calls
    calls = _count_decompositions(monkeypatch)
    run_suite("spectral", 7)
    assert len(calls) == 21


def test_spectrum_is_held_on_the_chain(monkeypatch):
    calls = _count_decompositions(monkeypatch)
    S = random_reversible(5)
    report = ess_spectral_radius(S)
    weights = [optimal_weight(S, eps) for eps in (1e-1, 1e-2, 1e-3)]
    assert len(calls) == 1
    assert all(ow.rho_ess == report.rho_ess for ow in weights)
    # every call returns a report of its own over read-only held arrays
    again = ess_spectral_radius(S)
    assert again is not report and again.eigen_moduli == report.eigen_moduli
    again.eigen_moduli.append(2.0)
    assert ess_spectral_radius(S).eigen_moduli == report.eigen_moduli
    decomp = S._spectrum.decomposition
    for held in (report.dominant_v, decomp.values, decomp.basis, decomp.perron):
        with pytest.raises(ValueError):
            held[0] = 0.0
    assert len(calls) == 1
    # a new matrix drops the spectrum; a raw array gets a fresh one per call
    S.matrix = random_reversible(5).matrix
    assert ess_spectral_radius(S).rho_ess != report.rho_ess
    assert len(calls) == 2
    ess_spectral_radius(S.matrix)
    ess_spectral_radius(S.matrix)
    assert len(calls) == 4


def test_optimal_weight_rank_one_chains():
    # the zero eigenvalue of J/n is repeated; LAPACK's basis for it is nearly
    # singular at n = 4 and splits it into a 1e-33 conjugate pair at n = 7
    for n in (4, 7):
        A = np.full((n, n), 1.0 / n)
        ow = optimal_weight(A, 1e-3)
        assert ow.regime == "eigenbasis"
        assert ow.certified_value == ess_spectral_radius(A).rho_ess
        assert induced_seminorm(A, ow.weight, INF) <= 1e-12


def test_symmetric_l2_identity_unwraps_and_decomposes_once(monkeypatch):
    import ergo.spectral as spectral
    A = np.array([[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]])
    rho = ess_spectral_radius(A).rho_ess
    calls = []
    for name in ("_unwrap", "eigendecompose"):
        def counted(*args, _real=getattr(spectral, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(spectral, name, counted)
    assert abs(symmetric_l2_identity(A) - rho) < 1e-12
    assert sorted(calls) == ["_unwrap", "eigendecompose"]
