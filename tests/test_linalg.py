import numpy as np
import pytest

from ergo import (INF, PreconditionError, StochasticMatrix, as_distribution,
                  as_pnorm, dominant_pair, eigendecompose, induced_pnorm,
                  oblique_projector, orthogonal_projector, SeminormWeight)
from ergo.linalg import _boolean_primitive, _incidence_rows

rng = np.random.default_rng(2024)


def test_pnorm_parsing():
    assert as_pnorm("1") == 1
    assert as_pnorm(2.0) == 2
    assert as_pnorm("inf") == INF
    assert as_pnorm(np.inf) == INF
    with pytest.raises(PreconditionError):
        as_pnorm(3)
    with pytest.raises(PreconditionError):
        as_pnorm("fro")


def test_induced_pnorm_examples():
    assert induced_pnorm(np.eye(3), 1) == 1.0
    assert induced_pnorm(np.zeros((2, 2)), INF) == 0.0
    M = np.array([[0.4, -0.4], [-0.4, 0.4]])
    assert abs(induced_pnorm(M, 2) - 0.8) < 1e-12


def _unit_p_samples(n, p, count):
    """Random unit-p-norm vectors, stratified over support sizes so sparse
    extreme directions are reachable for p in {1, inf}."""
    if p == 2:
        X = rng.standard_normal((count, n))
        return X / np.linalg.norm(X, axis=1)[:, None]
    X = np.zeros((count, n))
    for i in range(count):
        if p == 1:
            k = int(rng.integers(1, n + 1))
            support = rng.choice(n, size=k, replace=False)
            X[i, support] = rng.dirichlet(np.ones(k)) * rng.choice([-1.0, 1.0], k)
        else:
            # cube extreme points have every coordinate at magnitude one
            mags = np.where(rng.uniform(0, 1, n) < 0.5, 1.0, rng.uniform(0, 1, n))
            mags[rng.integers(0, n)] = 1.0
            X[i] = mags * rng.choice([-1.0, 1.0], n)
    return X


def test_induced_pnorm_dominates_samples():
    for _ in range(6):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1, 1, (n, n))
        for p in (1, 2, INF):
            closed = induced_pnorm(A, p)
            X = _unit_p_samples(n, p, 10_000)
            AX = X @ A.T
            vals = (np.sum(np.abs(AX), axis=1) if p == 1
                    else np.max(np.abs(AX), axis=1) if p == INF
                    else np.linalg.norm(AX, axis=1))
            sampled = float(vals.max())
            assert sampled <= closed + 1e-9
            assert sampled >= 0.98 * closed


def test_transpose_duality():
    for _ in range(30):
        A = rng.uniform(-1, 1, (int(rng.integers(2, 7)), int(rng.integers(2, 7))))
        assert abs(induced_pnorm(A.T, 1) - induced_pnorm(A, INF)) < 1e-9
        assert abs(induced_pnorm(A.T, INF) - induced_pnorm(A, 1)) < 1e-9
        assert abs(induced_pnorm(A.T, 2) - induced_pnorm(A, 2)) < 1e-9


def test_orthogonal_projector():
    P = orthogonal_projector([1.0, 0.0, 0.0])
    assert np.allclose(P, np.diag([0.0, 1.0, 1.0]))
    P1 = orthogonal_projector(np.ones(4))
    assert np.allclose(P1, np.eye(4) - np.full((4, 4), 0.25))
    x = np.array([1.0, -1.0])
    assert np.allclose(orthogonal_projector([1.0, 1.0]) @ x, x)
    with pytest.raises(PreconditionError):
        orthogonal_projector([0.0, 0.0])
    for _ in range(10):
        v = rng.standard_normal(5)
        P = orthogonal_projector(v)
        assert np.max(np.abs(P @ P - P)) < 1e-12
        assert np.max(np.abs(P - P.T)) < 1e-12
        assert np.max(np.abs(P @ v)) < 1e-12


def test_oblique_projector():
    n = 3
    assert np.allclose(oblique_projector(np.ones(n) / n), np.eye(n) - np.full((n, n), 1.0 / n))
    Q = oblique_projector([1.0, 0.0])
    assert np.allclose(Q, [[0.0, 0.0], [-1.0, 1.0]])
    for _ in range(10):
        w = rng.uniform(0.05, 1.0, 4)
        w /= w.sum()
        Q = oblique_projector(w)
        assert np.max(np.abs(Q @ Q - Q)) < 1e-12
        assert np.max(np.abs(w @ Q)) < 1e-12
        assert np.max(np.abs(Q @ np.ones(4))) < 1e-12
    with pytest.raises(PreconditionError):
        oblique_projector([0.3, 0.3])


def test_oblique_commutes_with_stochastic():
    for _ in range(10):
        n = int(rng.integers(2, 6))
        M = rng.uniform(0.05, 1.0, (n, n))
        S = StochasticMatrix(M / M.sum(axis=1, keepdims=True))
        _, w = dominant_pair(S)
        Q = oblique_projector(w)
        assert np.max(np.abs(S.matrix @ Q - Q @ S.matrix)) < 1e-12


def test_oblique_power_identity():
    for _ in range(10):
        n = int(rng.integers(2, 5))
        M = rng.uniform(0.05, 1.0, (n, n))
        S = StochasticMatrix(M / M.sum(axis=1, keepdims=True))
        _, w = dominant_pair(S)
        D = S.matrix - np.outer(np.ones(n), w)
        Ak = np.eye(n)
        Dk = np.eye(n)
        for _ in range(6):
            Ak = Ak @ S.matrix
            Dk = Dk @ D
            assert np.max(np.abs((Ak - np.outer(np.ones(n), w)) - Dk)) < 1e-10


def test_incidence_complete():
    C2 = _incidence_rows(2).T
    assert C2.shape == (2, 2)
    cols = {tuple(C2[:, j]) for j in range(2)}
    assert cols == {(1, -1), (-1, 1)}
    # entries 0 and +-1 are exact in float, so the integer identity holds
    C3 = _incidence_rows(3).T.astype(np.int64)
    assert C3.shape == (3, 6)
    lap = C3 @ C3.T
    expected = 2 * 3 * np.eye(3, dtype=np.int64) - 2 * np.ones((3, 3), dtype=np.int64)
    assert np.array_equal(lap, expected)
    for n in (2, 4, 5):
        C = _incidence_rows(n).T
        assert np.array_equal(C.T @ np.ones(n), np.zeros(n * (n - 1)))
    with pytest.raises(PreconditionError):
        _incidence_rows(1)
    for n in range(2, 13):
        cols = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    c = np.zeros(n, dtype=np.int64)
                    c[i] = 1
                    c[j] = -1
                    cols.append(c)
        C = _incidence_rows(n).T
        assert C.dtype == np.float64
        assert np.array_equal(C, np.column_stack(cols))
        assert np.array_equal(SeminormWeight.incidence(n).matrix, C.T)


def test_stochastic_flags():
    S = StochasticMatrix([[0.75, 0.25], [0.25, 0.75]])
    assert S.primitive and S.doubly_stochastic and S.positive_diagonal
    ident = StochasticMatrix(np.eye(2))
    assert not ident.primitive
    perm = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
    assert not perm.primitive and perm.doubly_stochastic and not perm.positive_diagonal
    # a primitive but not positive matrix
    S = StochasticMatrix([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    assert S.primitive
    with pytest.raises(PreconditionError):
        StochasticMatrix([[0.5, 0.4], [0.25, 0.75]])
    with pytest.raises(PreconditionError):
        StochasticMatrix([[1.5, -0.5], [0.25, 0.75]])


def _int64_primitive(mask):
    """Primitivity by its definition: some power A^k, k up to the Wielandt
    bound (n-1)^2 + 1, is all positive, powered one step at a time in int64."""
    n = len(mask)
    step = mask.astype(np.int64)
    power = step
    for _ in range((n - 1) ** 2 + 1):
        if np.all(power > 0):
            return True
        power = np.minimum(power @ step, 1)
    return False


def test_primitivity_matches_int64_powering():
    local = np.random.default_rng(29)
    verdicts = set()
    for _ in range(1500):
        n = int(local.integers(1, 9))
        mask = local.random((n, n)) < local.uniform(0.1, 0.6)
        if local.random() < 0.3:  # a cycle, lazy or not: periodic or primitive
            mask |= np.roll(np.eye(n, dtype=bool), 1, axis=1)
        verdict = _boolean_primitive(mask, n)
        assert verdict == _int64_primitive(mask)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_dominant_pair():
    ones, pi = dominant_pair(StochasticMatrix([[0.75, 0.25], [0.25, 0.75]]))
    assert np.allclose(pi, [0.5, 0.5])
    _, pi = dominant_pair(StochasticMatrix([[0.5, 0.5], [0.25, 0.75]]))
    assert np.allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    with pytest.raises(PreconditionError):
        dominant_pair(StochasticMatrix(np.eye(2)))


def test_dominant_pair_slow_chain():
    # nearly reducible chain exercises the fallback solve
    eps = 1e-6
    S = StochasticMatrix([[1 - eps, eps], [eps / 2, 1 - eps / 2]])
    _, pi = dominant_pair(S)
    assert np.linalg.norm(S.matrix.T @ pi - pi, 1) <= 1e-12
    assert np.allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-6)


def test_eigendecompose():
    d = eigendecompose(np.diag([3.0, 1.0]))
    assert np.allclose(d.values, [3.0, 1.0])
    assert d.diagonalizable
    d = eigendecompose(np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert np.allclose(sorted(np.real(d.values), reverse=True), [1.0, 0.8])
    jordan = eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not jordan.diagonalizable
    assert jordan.basis is None


def test_distribution_validation():
    d = as_distribution([0.25, 0.75])
    assert d.sum() == 1.0
    with pytest.raises(PreconditionError):
        as_distribution([0.5, 0.6])
    with pytest.raises(PreconditionError):
        as_distribution([-0.2, 1.2])


def test_eigendecompose_refuses_an_empty_matrix():
    # a 0 x 0 matrix leaked an IndexError
    with pytest.raises(PreconditionError, match="^matrix must have at least one entry$"):
        eigendecompose(np.zeros((0, 0)))


def test_eigendecompose_repeated_semisimple_eigenvalue():
    for n in (4, 7):
        d = eigendecompose(np.full((n, n), 1.0 / n))
        assert d.diagonalizable
        assert np.linalg.cond(d.basis) < 1e3
        assert np.all(d.values.imag == 0.0)
        assert np.allclose(np.abs(d.values), [1.0] + [0.0] * (n - 1), atol=1e-15)


def test_stochastic_matrix_of_is_the_one_gate():
    S = StochasticMatrix([[0.75, 0.25], [0.25, 0.75]])
    assert StochasticMatrix.of(S) is S
    assert StochasticMatrix.of(S, "mixing time") is S
    built = StochasticMatrix.of([[0.5, 0.5], [0.25, 0.75]])
    assert isinstance(built, StochasticMatrix) and built.primitive
    # without primitive_for a non-primitive chain is accepted
    assert not StochasticMatrix.of(np.eye(2)).primitive
    with pytest.raises(PreconditionError, match="^mixing time needs a primitive matrix$"):
        StochasticMatrix.of(np.eye(2), primitive_for="mixing time")
    with pytest.raises(PreconditionError, match="row sums deviate"):
        StochasticMatrix.of([[0.5, 0.4], [0.25, 0.75]], "mixing time")
    with pytest.raises(PreconditionError, match="^stochastic matrix must have at least one state$"):
        StochasticMatrix(np.zeros((0, 0)))
