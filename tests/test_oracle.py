import numpy as np
import pytest

from ergo import (INF, PreconditionError, SeminormWeight, deflated_norm,
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
    with pytest.raises(PreconditionError):
        oracle_tau(v, A, 1)
    res = oracle_tau(v, A, 1, mode="sampling", samples=2000)
    assert not res.exact
    assert res.samples_used == 2000
    assert res.value <= tau(v, A, 1).value + 1e-9


def test_oracle_tau_refuses_an_unknown_mode():
    # a misspelt mode ran the exact enumeration: the exact value at n <= 6,
    # and "exact mode capped at n <= 6" at n = 7 or 8
    for n in (4, 8):
        A = rng.uniform(-1.0, 1.0, (n, n))
        for p in (1, 2, INF):
            for mode in ("sample", "Exact", None):
                with pytest.raises(PreconditionError, match=f"unknown oracle mode {mode!r}"):
                    oracle_tau(np.ones(n), A, p, mode=mode)


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
    W = SeminormWeight.agreement(4)
    W.matrix = np.zeros((4, 4))  # degenerate weight must be refused
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
