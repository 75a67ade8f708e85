import mpmath
import numpy as np
import pytest

from ergo import (INF, PreconditionError, SeminormWeight, deflated_norm, induced_seminorm,
                  oracle_deflation, oracle_tau, oracle_weighted_seminorm, tau)

rng = np.random.default_rng(61)

A22 = np.array([[0.5, 0.5], [0.25, 0.75]])


def test_oracle_tau_frozen():
    res = oracle_tau(np.ones(2), A22, 1)
    assert abs(res.value - 0.25) < 1e-14
    assert res.exact
    assert np.allclose(np.abs(res.witness), [0.5, 0.5])
    assert oracle_tau(np.ones(3), np.zeros((3, 3)), INF).value == 0.0


def test_oracle_tau_witness_feasible():
    for _ in range(30):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1.0, 1.0, (n, n))
        v = rng.standard_normal(n)
        for p in (1, INF):
            res = oracle_tau(v, A, p)
            norm = np.sum(np.abs(res.witness)) if p == 1 else np.max(np.abs(res.witness))
            assert norm <= 1.0 + 1e-10
            assert abs(v @ res.witness) < 1e-10 * max(1.0, np.linalg.norm(v))
        res2 = oracle_tau(v, A, 2)
        assert np.linalg.norm(res2.witness) <= 1.0 + 1e-10
        assert abs(v @ res2.witness) < 1e-9 * max(1.0, np.linalg.norm(v))
        assert not res2.exact


def test_oracle_tau_zero_anchor_coordinates():
    for _ in range(20):
        n = int(rng.integers(3, 6))
        A = rng.uniform(-1.0, 1.0, (n, n))
        v = rng.standard_normal(n)
        v[rng.integers(0, n)] = 0.0
        for p in (1, INF):
            assert abs(oracle_tau(v, A, p).value - tau(v, A, p).value) < 1e-9


def test_oracle_tau_cap_and_sampling():
    A = rng.uniform(-1.0, 1.0, (8, 8))
    v = rng.standard_normal(8)
    with pytest.raises(PreconditionError, match="^exact oracle capped at n <= 6$"):
        oracle_tau(v, A, 1)
    # v-perp is {0} at n = 1: no feasible point but 0
    assert oracle_tau(np.ones(1), [[0.5]], INF).value == 0.0


def test_oracle_weighted_frozen():
    res = oracle_weighted_seminorm(A22, SeminormWeight.agreement(2), INF)
    assert abs(res.value - 0.25) < 1e-14
    res = oracle_weighted_seminorm(A22, SeminormWeight.incidence(2), INF)
    assert abs(res.value - 0.25) < 1e-14
    assert np.allclose(np.abs(res.witness), [0.5, 0.5])
    rows_equal = np.tile([0.2, 0.3, 0.5], (3, 1))
    for W in (SeminormWeight.agreement(3), SeminormWeight.incidence(3)):
        for p in (1, 2, INF):
            assert oracle_weighted_seminorm(rows_equal, W, p).value < 1e-9


def test_oracle_weighted_witness_feasible():
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1.0, 1.0, (n, n))
        for W in (SeminormWeight.agreement(n), SeminormWeight.incidence(n)):
            for p in (1, INF):
                res = oracle_weighted_seminorm(A, W, p)
                y = W.matrix @ res.witness
                norm = np.sum(np.abs(y)) if p == 1 else np.max(np.abs(y))
                assert norm <= 1.0 + 1e-9
                assert abs(W.kernel @ res.witness) < 1e-9


def test_oracle_weighted_cap_and_rank_guard():
    big = rng.uniform(-1.0, 1.0, (6, 6))
    with pytest.raises(PreconditionError):
        oracle_weighted_seminorm(big, SeminormWeight.agreement(6), 1)
    # a degenerate weight, R = S P_1 of numerical rank 2, must be refused
    W = SeminormWeight("factored", np.ones(4), np.ones(4), np.diag([1.0, 1.0, 1e-12, 1e-12]))
    with pytest.raises(PreconditionError):
        oracle_weighted_seminorm(np.eye(4), W, INF)


def test_oracle_deflation_examples():
    v = np.array([1.0, -2.0])
    b = np.array([0.3, 0.7])
    assert oracle_deflation(v, np.outer(v, b), INF, trials=3) < 1e-8
    assert abs(oracle_deflation(np.ones(2), np.eye(2), INF, trials=3) - 1.0) < 1e-8
    with pytest.raises(PreconditionError, match="^trials must be at least 1$"):
        oracle_deflation(np.ones(2), np.eye(2), INF, trials=0)
    # a numpy integer passes; a fraction is refused rather than truncated
    assert (oracle_deflation(np.ones(2), np.eye(2), INF, trials=np.int64(3))
            == oracle_deflation(np.ones(2), np.eye(2), INF, trials=3))
    for trials in (1.5, 3.0, "3"):
        with pytest.raises(PreconditionError, match="^trials must be an integer$"):
            oracle_deflation(np.ones(2), np.eye(2), INF, trials=trials)


def test_oracle_deflation_never_beats_exact_minimum():
    for _ in range(15):
        n = int(rng.integers(2, 5))
        A = rng.uniform(-1.0, 1.0, (n, n))
        v = rng.standard_normal(n)
        for q in (1, 2, INF):
            exact = deflated_norm(v, A, q).value
            found = oracle_deflation(v, A, q, trials=4)
            assert found >= exact - 1e-10
            assert found <= exact + 1e-6


def _projected_norm_40_digits(v, A):
    """||P_v A||_2 from a 40-digit SVD of the exact P_v A."""
    with mpmath.workdps(40):
        V = mpmath.matrix(v.tolist())
        M = mpmath.matrix(A.tolist())
        X = M - V * (V.T * M) / sum(x * x for x in V)
        return max(mpmath.svd_r(X, compute_uv=False))


def test_oracle_tau_p2_against_40_digits():
    # square and rectangular A, anchors with a zero entry, m = 1 (v-perp is
    # {0}, which divided 0 by 0): within 8 n u of a 40-digit SVD, with a
    # witness that is feasible and attains the value
    local = np.random.default_rng(71)
    u = np.finfo(float).eps / 2
    for m in range(1, 7):
        for k in range(1, 7):
            A = local.standard_normal((m, k))
            for v in (np.ones(m), local.standard_normal(m)):
                if m > 2:
                    v[local.integers(m)] = 0.0
                res = oracle_tau(v, A, 2)
                assert not res.exact
                if m == 1:
                    assert res.value == 0.0 and res.witness.tolist() == [0.0]
                    continue
                ref = _projected_norm_40_digits(v, A)
                assert abs(mpmath.mpf(res.value) - ref) <= 8 * max(m, k) * u * ref
                assert abs(np.linalg.norm(res.witness) - 1.0) < 1e-14
                assert abs(v @ res.witness) < 1e-14 * np.linalg.norm(v)
                assert abs(np.linalg.norm(A.T @ res.witness) - res.value) < 1e-14 * res.value


def _pencil_top_40_digits(A, weight):
    """sqrt of the top eigenvalue of the pencil ((RAB)^T RAB, (RB)^T RB) in
    40 digits, B a basis of the kernel complement: the exact projector's
    columns but the one of the largest kernel entry."""
    R, kernel, n = weight.matrix, weight.kernel, weight.n
    with mpmath.workdps(40):
        K = mpmath.matrix(kernel.tolist())
        P = mpmath.eye(n) - K * K.T / sum(x * x for x in K)
        skip = int(np.argmax(np.abs(kernel)))
        B = mpmath.matrix(n, n - 1)
        for c, col in enumerate(j for j in range(n) if j != skip):
            for r in range(n):
                B[r, c] = P[r, col]
        RM = mpmath.matrix(R.tolist())
        X = RM * mpmath.matrix(A.tolist()) * B
        Y = RM * B
        L_inv = mpmath.inverse(mpmath.cholesky(Y.T * Y))
        C = L_inv * (X.T * X) * L_inv.T
        return mpmath.sqrt(max(mpmath.eigsy((C + C.T) / 2, eigvals_only=True)))


def test_oracle_weighted_p2_against_40_digits():
    # every weight kind, factored ones with cond(S) = 1e3 and singular values
    # graded from 1 to 1e-3, on kernels that are not A-invariant: within
    # 1e-13 of a 40-digit solve of the same pencil, relative, with a witness
    # on the unit sphere of ||R x||_2 in the kernel complement
    local = np.random.default_rng(73)

    def graded_factor(n):
        Q1, _ = np.linalg.qr(local.standard_normal((n, n)))
        Q2, _ = np.linalg.qr(local.standard_normal((n, n)))
        return (Q1 * np.logspace(0, -3, n)) @ Q2.T

    for n in range(2, 6):
        for _ in range(4):
            A = local.uniform(-1.0, 1.0, (n, n))
            v = local.standard_normal(n)
            w = local.uniform(0.1, 1.0, n)
            weights = (SeminormWeight.orthogonal(v), SeminormWeight.oblique(w / w.sum()),
                       SeminormWeight.agreement(n), SeminormWeight.incidence(n),
                       SeminormWeight.factored(graded_factor(n), v),
                       SeminormWeight.factored(graded_factor(n), np.ones(n)))
            for W in weights:
                res = oracle_weighted_seminorm(A, W, 2)
                assert not res.exact
                ref = _pencil_top_40_digits(A, W)
                assert abs(mpmath.mpf(res.value) - ref) <= 1e-13 * ref, (n, W.kind)
                x = res.witness
                assert abs(np.linalg.norm(W.matrix @ x) - 1.0) < 1e-12
                assert abs(W.kernel @ x) < 1e-12 * np.linalg.norm(W.kernel) * np.linalg.norm(x)
                assert abs(np.linalg.norm(W.matrix @ (A @ x)) - res.value) < 1e-12 * res.value
    one = oracle_weighted_seminorm(np.eye(1), SeminormWeight.agreement(1), 2)
    assert one.value == 0.0 and one.witness.tolist() == [0.0]


def test_oracle_weighted_is_free_of_the_scale_of_R():
    # the rank and vertex thresholds are absolute: on c I and c times a
    # graded factor, c = 1e-8 to 1e8, the p = inf oracle returned 0 and the
    # p = 1 one drifted off the closed form; now within 1e-13, relative,
    # with a witness feasible for the weight's own R
    local = np.random.default_rng(79)
    for n in range(2, 6):
        M = local.uniform(0.0, 1.0, (n, n))
        A = M / M.sum(axis=1, keepdims=True)
        Q1, _ = np.linalg.qr(local.standard_normal((n, n)))
        Q2, _ = np.linalg.qr(local.standard_normal((n, n)))
        graded = (Q1 * np.logspace(0, -3, n)) @ Q2.T
        for c in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            for F in (c * np.eye(n), c * graded):
                W = SeminormWeight.factored(F, np.ones(n))
                for p, norm in ((1, lambda y: np.sum(np.abs(y))),
                                (INF, lambda y: np.max(np.abs(y)))):
                    res = oracle_weighted_seminorm(A, W, p)
                    value = induced_seminorm(A, W, p)
                    assert abs(res.value - value) <= 1e-13 * value, (n, c, p)
                    assert norm(W.matrix @ res.witness) <= 1.0 + 1e-12
                    assert abs(norm(W.matrix @ (A @ res.witness)) - res.value) <= 1e-12 * res.value


def test_oracles_refuse_a_malformed_anchor():
    # oracle_deflation leaked a matmul ValueError on a short anchor and
    # searched on nan after dividing by a zero one
    for oracle in (oracle_tau, oracle_deflation):
        with pytest.raises(PreconditionError, match="^anchor length 3 does not match 2 rows$"):
            oracle(np.ones(3), np.eye(2), INF)
        with pytest.raises(PreconditionError, match="^anchor must be nonzero$"):
            oracle(np.zeros(2), np.eye(2), INF)
