import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import ergo.oracle
from ergo import (INF, CrossCheckError, PreconditionError, SeminormWeight,
                  StochasticMatrix, deflated_norm, dobrushin, dominant_pair,
                  induced_pnorm, induced_seminorm, kernel_invariance_residual,
                  lmi_l2, oracle_weighted_seminorm, orthogonal_projector, tau, vector_seminorm)
from ergo.ergodicity import _stack_chunks
from ergo.seminorm import _reduced_seminorms

rng = np.random.default_rng(31)

A22 = np.array([[0.5, 0.5], [0.25, 0.75]])


def random_stochastic(n):
    M = rng.uniform(0.0, 1.0, (n, n)) + 0.05
    return StochasticMatrix(M / M.sum(axis=1, keepdims=True))


def real_eigenpair(n):
    while True:
        A = rng.uniform(-1.0, 1.0, (n, n))
        vals, vecs = np.linalg.eig(A)
        real = [k for k in range(n) if abs(vals[k].imag) <= 1e-12]
        if real:
            return A, np.real(vecs[:, real[0]])


def test_weight_construction():
    W = SeminormWeight.agreement(3)
    assert np.allclose(W.matrix, np.eye(3) - np.full((3, 3), 1.0 / 3))
    W = SeminormWeight.incidence(3)
    assert W.matrix.shape == (6, 3)
    with pytest.raises(PreconditionError):
        SeminormWeight.factored(np.zeros((2, 2)), np.ones(2))


def test_weight_dimension_and_matrix_refusals():
    # each leaked a traceback: numpy's "negative dimensions are not allowed",
    # a TypeError for a fraction, a TypeError for a list matrix in
    # kernel_invariance_residual and a matmul ValueError for a wrong shape
    for make in (SeminormWeight.agreement, SeminormWeight.incidence):
        with pytest.raises(PreconditionError, match="^weight dimension must be at least 1$"):
            make(-1)
        with pytest.raises(PreconditionError, match="^weight dimension must be an integer$"):
            make(2.5)
        assert make(np.int64(3)).n == 3
    with pytest.raises(PreconditionError, match="^complete graph incidence needs n >= 2$"):
        SeminormWeight.incidence(1)
    assert kernel_invariance_residual([[1.0, 0], [0, 1]], SeminormWeight.agreement(2)) == 0.0
    with pytest.raises(PreconditionError, match=r"^matrix shape \(2, 2\) does not match weight on R\^3$"):
        kernel_invariance_residual(np.eye(2), SeminormWeight.agreement(3))
    with pytest.raises(PreconditionError, match="^matrix must have at least one entry$"):
        lmi_l2(np.zeros((0, 0)), np.zeros((0, 0)))


def test_vector_seminorm_examples():
    for W in (SeminormWeight.agreement(3), SeminormWeight.incidence(3),
              SeminormWeight.orthogonal(np.ones(3)),
              SeminormWeight.oblique(np.array([0.2, 0.3, 0.5]))):
        for p in (1, 2, INF):
            assert vector_seminorm(np.ones(3), W, p) < 1e-12
    assert abs(vector_seminorm([1.0, 0.0], SeminormWeight.agreement(2), INF) - 0.5) < 1e-14
    assert abs(vector_seminorm([1.0, 0.0], SeminormWeight.incidence(2), INF) - 1.0) < 1e-14


def test_incidence_vector_seminorm_never_builds_the_matrix():
    # C_300^T alone is 215 MB; the closed forms need O(n) memory
    x = np.random.default_rng(3).standard_normal(300)
    W = SeminormWeight.incidence(300)
    for p in (1, 2, INF):
        tracemalloc.start()
        try:
            vector_seminorm(x, W, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, p
    assert "matrix" not in W.__dict__
    local = np.random.default_rng(5)
    for n in range(2, 41):
        for x in (local.standard_normal(n), local.integers(-2, 3, n).astype(float)):
            values = {p: vector_seminorm(x, SeminormWeight.incidence(n), p) for p in (1, 2, INF)}
            y = SeminormWeight.incidence(n).matrix @ x
            assert repr(values[INF]) == repr(float(np.max(np.abs(y))))
            assert values[1] == pytest.approx(float(np.sum(np.abs(y))), rel=1e-12, abs=0.0)
            assert values[2] == pytest.approx(float(np.linalg.norm(y)), rel=1e-12, abs=0.0)


def test_induced_seminorm_frozen():
    n = 3
    Pi = orthogonal_projector(np.ones(n))
    assert abs(induced_seminorm(Pi, SeminormWeight.agreement(n), 2) - 1.0) < 1e-12
    assert abs(induced_seminorm(A22, SeminormWeight.agreement(2), INF) - 0.25) < 1e-12
    sym = np.array([[0.9, 0.1], [0.1, 0.9]])
    assert abs(induced_seminorm(sym, SeminormWeight.incidence(2), INF) - 0.8) < 1e-12


def test_induced_seminorm_matches_oracle_all_weights():
    for _ in range(25):
        n = int(rng.integers(2, 6))
        S = random_stochastic(n)
        _, w = dominant_pair(S)
        F = rng.standard_normal((n, n))
        while np.linalg.cond(F) > 1e6:
            F = rng.standard_normal((n, n))
        weights = [SeminormWeight.agreement(n), SeminormWeight.oblique(w),
                   SeminormWeight.incidence(n),
                   SeminormWeight.factored(F, np.ones(n))]
        for W in weights:
            for p in (1, 2, INF):
                engine = induced_seminorm(S.matrix, W, p)
                orc = oracle_weighted_seminorm(S.matrix, W, p).value
                tol = 1e-7 if p == 2 else 1e-9
                assert abs(engine - orc) < tol, (W.kind, p)


def test_induced_seminorm_orthogonal_eigenpair():
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A, v = real_eigenpair(n)
        W = SeminormWeight.orthogonal(v)
        assert kernel_invariance_residual(A, W) < 1e-8
        for p in (1, 2, INF):
            engine = induced_seminorm(A, W, p)
            orc = oracle_weighted_seminorm(A, W, p).value
            tol = 1e-7 if p == 2 else 1e-9
            assert abs(engine - orc) < tol


def test_incidence_sup_equals_dobrushin():
    for _ in range(25):
        S = random_stochastic(int(rng.integers(2, 6)))
        val = induced_seminorm(S.matrix, SeminormWeight.incidence(S.n), INF)
        assert abs(val - dobrushin(S).value) < 1e-10


def test_incidence_p2_matches_agreement():
    for _ in range(20):
        S = random_stochastic(int(rng.integers(2, 6)))
        a = induced_seminorm(S.matrix, SeminormWeight.agreement(S.n), 2)
        b = induced_seminorm(S.matrix, SeminormWeight.incidence(S.n), 2)
        assert abs(a - b) < 1e-10


def test_incidence_p2_tests_kernel_invariance_once(monkeypatch):
    import ergo.seminorm as seminorm
    residuals = seminorm._kernel_residuals
    calls = []

    def counted(As, kernel):
        calls.append(len(As))
        return residuals(As, kernel)
    monkeypatch.setattr(seminorm, "_kernel_residuals", counted)
    for n in (2, 5, 40):
        S = random_stochastic(n)
        for W in (SeminormWeight.incidence(n), SeminormWeight.agreement(n)):
            calls.clear()
            induced_seminorm(S.matrix, W, 2)
            assert calls == [1]
        assert (repr(induced_seminorm(S.matrix, SeminormWeight.incidence(n), 2))
                == repr(induced_seminorm(S.matrix, SeminormWeight.agreement(n), 2)))


def test_oblique_seminorm_equals_tau_oblique():
    for _ in range(20):
        S = random_stochastic(int(rng.integers(2, 6)))
        _, w = dominant_pair(S)
        for p in (1, 2, INF):
            semi = induced_seminorm(S.matrix, SeminormWeight.oblique(w), p)
            coeff = tau(w, S.matrix.T, p).value
            assert abs(semi - coeff) < 1e-9


def _pencil_l2(R, A, kernel):
    """l2 induced seminorm as the top generalized eigenvalue of
    ((RA)^T RA, R^T R) restricted to the orthogonal complement of the kernel."""
    n = A.shape[0]
    U = scipy.linalg.null_space(kernel.reshape(1, n))
    RA = R @ A
    vals = scipy.linalg.eigh(U.T @ RA.T @ RA @ U, U.T @ R.T @ R @ U, eigvals_only=True)
    return float(np.sqrt(max(vals[-1], 0.0)))


def _per_kind_reference(A, W, p):
    """The seminorm written out once per weight kind: a tau problem on the
    projected matrix, and the symmetric pencil for a factored weight at p = 2."""
    if W.kind in ("orthogonal", "agreement"):
        v = W.kernel if W.kind == "agreement" else W.anchor
        return tau(v, (orthogonal_projector(v) @ A).T, p).value
    if W.kind == "oblique":
        return tau(W.anchor, (W.matrix @ A).T, p).value
    if p == 2:
        return _pencil_l2(W.matrix, A, W.anchor)
    u = scipy.linalg.solve(W.s_factor.T, W.anchor)
    return tau(u, (W.matrix @ A @ scipy.linalg.inv(W.s_factor)).T, p).value


def test_weight_routes_match_literal_references_beyond_oracle_cap():
    local = np.random.default_rng(41)
    for n in (7, 16, 40):
        M = local.uniform(0.0, 1.0, (n, n)) + 0.05
        S = StochasticMatrix(M / M.sum(axis=1, keepdims=True))
        _, w = dominant_pair(S)
        F = local.standard_normal((n, n))
        while np.linalg.cond(F) > 1e6:
            F = local.standard_normal((n, n))
        while True:
            E = local.uniform(-1.0, 1.0, (n, n))
            vals, vecs = np.linalg.eig(E)
            real = np.flatnonzero(np.abs(vals.imag) <= 1e-12)
            if real.size:
                break
        cases = ((S.matrix, SeminormWeight.agreement(n)),
                 (E, SeminormWeight.orthogonal(np.real(vecs[:, real[0]]))),
                 (S.matrix, SeminormWeight.oblique(w)),
                 (S.matrix, SeminormWeight.factored(F, np.ones(n))))
        for A, W in cases:
            for p in (1, 2, INF):
                value, expected = induced_seminorm(A, W, p), _per_kind_reference(A, W, p)
                if W.kind == "factored" and p == 2:
                    assert abs(value - expected) <= 1e-12 * expected, (n, W.kind, p)
                else:
                    assert repr(value) == repr(expected), (n, W.kind, p)


def test_non_invariant_kernel_is_reduced_at_every_n(monkeypatch):
    A = rng.uniform(-1.0, 1.0, (3, 3))
    v = rng.standard_normal(3)
    W = SeminormWeight.orthogonal(v)
    assert kernel_invariance_residual(A, W) > 1e-8
    val = induced_seminorm(A, W, INF)
    assert abs(val - oracle_weighted_seminorm(A, W, INF).value) < 1e-12
    # A P_v takes A's place past the oracle's n <= 5 cap, where the
    # non-invariant kernel was refused
    big = rng.uniform(-1.0, 1.0, (7, 7))
    W = SeminormWeight.orthogonal(rng.standard_normal(7))
    value = induced_seminorm(big, W, 1)
    monkeypatch.setattr(ergo.oracle, "WEIGHT_DIMENSION_CAP", 7)
    assert value == pytest.approx(oracle_weighted_seminorm(big, W, 1).value, rel=1e-13, abs=0.0)


def _random_weight(kind, n, gen):
    """A weight of the given kind on R^n, drawn from gen; a factored one has
    cond(S) <= 1e4."""
    if kind == "orthogonal":
        return SeminormWeight.orthogonal(gen.standard_normal(n))
    if kind == "oblique":
        w = gen.uniform(0.1, 1.0, n)
        return SeminormWeight.oblique(w / w.sum())
    if kind == "factored":
        S = gen.standard_normal((n, n))
        while np.linalg.cond(S) > 1e4:
            S = gen.standard_normal((n, n))
        return SeminormWeight.factored(S, gen.standard_normal(n))
    return getattr(SeminormWeight, kind)(n)


def _read_only(A):
    A = np.array(A)
    A.setflags(write=False)
    return A


@pytest.mark.parametrize("kind, p", [(kind, p) for kind in ("orthogonal", "oblique", "agreement",
                                                              "factored") for p in (1, 2, INF)]
                         + [("incidence", 2), ("incidence", INF)])
def test_non_invariant_kernels_match_the_oracle(kind, p, monkeypatch):
    # A P_k, P_k the orthogonal projector onto ker R-perp, takes A's place
    # in the closed form: within 1e-13 of the oracle, relative, or 1e-12 for
    # a factored weight, with the oracle's n <= 5 cap lifted to 8; a
    # read-only A shows that no update is written into the caller's array
    monkeypatch.setattr(ergo.oracle, "WEIGHT_DIMENSION_CAP", 8)
    gen = np.random.default_rng(61)
    for n in range(2, 9):
        A = _read_only(gen.uniform(-1.0, 1.0, (n, n)))
        W = _random_weight(kind, n, gen)
        assert kernel_invariance_residual(A, W) > 1e-8
        value = induced_seminorm(A, W, p)
        expected = oracle_weighted_seminorm(A, W, p).value
        tol = 1e-12 if kind == "factored" else 1e-13
        assert abs(value - expected) <= tol * expected, n


@pytest.mark.parametrize("n", [20, 40])
def test_non_invariant_kernels_match_the_svd_oracle_at_p2(n):
    # the p = 2 oracle has no cap: one SVD on a basis of ker R-perp
    gen = np.random.default_rng(n)
    A = gen.uniform(-1.0, 1.0, (n, n))
    for kind in ("orthogonal", "oblique", "agreement", "factored", "incidence"):
        W = _random_weight(kind, n, gen)
        assert kernel_invariance_residual(A, W) > 1e-8
        value = induced_seminorm(A, W, 2)
        expected = oracle_weighted_seminorm(A, W, 2).value
        tol = 1e-12 if kind == "factored" else 1e-13
        assert abs(value - expected) <= tol * expected, kind


@pytest.mark.parametrize("kind, p", [(kind, p) for kind in ("orthogonal", "oblique", "agreement",
                                                              "factored") for p in (1, 2, INF)]
                         + [("incidence", 2)])
def test_mixed_stack_has_the_bits_of_each_single_call(kind, p):
    # invariant and non-invariant matrices in one stack of three chunks,
    # read-only: each value has the bits of its own `induced_seminorm` call
    n = 30
    gen = np.random.default_rng(67)
    W = _random_weight(kind, n, gen)
    k = W.kernel
    As = gen.uniform(-1.0, 1.0, (20, n, n))
    invariant = np.arange(20) % 3 == 0
    As[invariant] -= np.multiply.outer(As[invariant] @ k - 0.3 * k, k / (k @ k))
    As = _read_only(As)
    assert len(_stack_chunks(len(As), n, n)) == 3
    residuals = [kernel_invariance_residual(A, W) for A in As]
    assert [r <= 1e-8 for r in residuals] == invariant.tolist()
    values = _reduced_seminorms(As, W, p).tolist()
    assert [repr(x) for x in values] == [repr(induced_seminorm(A, W, p)) for A in As]


def test_each_weight_builds_its_reduction_once(monkeypatch):
    # S^-1 is formed on the first evaluation and kept: one inverse over
    # p = 1, 2, inf and a stack of two chunks, with the bits of fresh weights
    n = 30
    gen = np.random.default_rng(83)
    W = _random_weight("factored", n, gen)
    A = gen.uniform(-1.0, 1.0, (n, n))
    As = gen.uniform(-1.0, 1.0, (12, n, n))
    assert len(_stack_chunks(len(As), n, n)) == 2
    inverses, inv = [], scipy.linalg.inv
    monkeypatch.setattr(scipy.linalg, "inv", lambda S: inverses.append(S) or inv(S))

    def values(weight):
        return ([induced_seminorm(A, weight, p) for p in (1, 2, INF)]
                + _reduced_seminorms(As, weight, 1).tolist())
    once = values(W)
    assert len(inverses) == 1
    fresh = [repr(induced_seminorm(A, SeminormWeight.factored(W.s_factor, W.anchor), p))
             for p in (1, 2, INF)]
    fresh += [repr(x) for x in _reduced_seminorms(
        As, SeminormWeight.factored(W.s_factor, W.anchor), 1).tolist()]
    assert [repr(x) for x in once] == fresh


def test_weights_are_free_of_the_anchor_scale_and_layout():
    # P_v is of degree zero in v: anchors at 2^600 and 2^-600, where v v^T /
    # (v^T v) overflowed to nan or was refused as zero, and a strided view
    # give the bits of the plain contiguous anchor
    gen = np.random.default_rng(89)
    for n in (2, 5, 8):
        A = gen.uniform(-1.0, 1.0, (n, n))
        S = _random_weight("factored", n, gen).s_factor
        vecs = gen.standard_normal((n, 3))
        v = vecs[:, 1]
        assert not v.flags.c_contiguous
        for make in (SeminormWeight.orthogonal, lambda u: SeminormWeight.factored(S, u)):
            plain = make(v.copy())
            expected = [repr(induced_seminorm(A, plain, p)) for p in (1, 2, INF)]
            for anchor in (np.ldexp(v, 600), np.ldexp(v, -600), v):
                W = make(anchor)
                assert [repr(induced_seminorm(A, W, p)) for p in (1, 2, INF)] == expected
                assert repr(vector_seminorm(A[0], W, 1)) == repr(vector_seminorm(A[0], plain, 1))


def test_conditional_submultiplicativity_agreement():
    for _ in range(20):
        n = int(rng.integers(2, 5))
        A, B = random_stochastic(n), random_stochastic(n)
        W = SeminormWeight.agreement(n)
        for p in (1, 2, INF):
            prod = induced_seminorm(A.matrix @ B.matrix, W, p)
            bound = induced_seminorm(A.matrix, W, p) * induced_seminorm(B.matrix, W, p)
            assert prod <= bound + 1e-10


def test_deflated_norm_frozen():
    v = np.array([2.0, 1.0])
    b = np.array([0.5, -1.5])
    res = deflated_norm(v, np.outer(v, b), INF)
    assert res.value < 1e-12
    assert np.allclose(res.c_star, b, atol=1e-9)
    res = deflated_norm(np.ones(2), np.eye(2), INF)
    assert abs(res.value - 1.0) < 1e-12
    assert np.allclose(res.c_star, [0.5, 0.5])
    assert abs(deflated_norm(np.ones(2), A22, INF).value - 0.25) < 1e-12


def test_deflated_norm_is_a_minimum():
    for _ in range(25):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1.0, 1.0, (n, n))
        v = rng.standard_normal(n)
        for q in (1, 2, INF):
            res = deflated_norm(v, A, q)
            assert abs(induced_pnorm(A - np.outer(v, res.c_star), q) - res.value) < 1e-9
            for _ in range(8):
                delta = rng.standard_normal(n)
                delta /= np.linalg.norm(delta)
                c = res.c_star + delta * rng.uniform(0.0, 1.0)
                assert induced_pnorm(A - np.outer(v, c), q) >= res.value - 1e-12


def test_deflation_duality_pairings():
    # tau_inf = Psi_1 and tau_2 = Psi_2 exactly; Psi_inf dominates tau_1
    for _ in range(40):
        n = int(rng.integers(2, 7))
        A = rng.uniform(-1.0, 1.0, (n, n))
        v = rng.standard_normal(n)
        assert abs(tau(v, A, INF).value - deflated_norm(v, A, 1).value) < 1e-9
        assert abs(tau(v, A, 2).value - deflated_norm(v, A, 2).value) < 1e-9
        assert tau(v, A, 1).value <= deflated_norm(v, A, INF).value + 1e-10


def test_lmi_frozen():
    Pi = orthogonal_projector(np.ones(2))
    assert abs(lmi_l2(np.array([[0.9, 0.1], [0.1, 0.9]]), Pi) - 0.64) < 1e-12
    n = 4
    Pi = orthogonal_projector(np.ones(n))
    assert abs(lmi_l2(Pi, Pi) - 1.0) < 1e-12
    # at n = 1, v-perp is {0} and the pencil is empty
    for a in (1.0, -0.3):
        assert lmi_l2([[a]], [[0.0]]) == 0.0
        assert induced_seminorm([[a]], SeminormWeight.agreement(1), 2) == 0.0


def test_lmi_cross_identity_with_factored_route():
    for size in [None] * 20 + [12, 40]:
        n = size or int(rng.integers(2, 6))
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        U = np.linalg.svd(v.reshape(1, n))[2][1:].T
        G = rng.standard_normal((n - 1, n - 1))
        lam = (1.2 + rng.uniform(0.0, 1.0)) * max(np.max(np.abs(np.linalg.eigvals(G))), 0.1)
        A = lam * np.outer(v, v) + U @ G @ U.T
        M = rng.standard_normal((n, n))
        while np.linalg.cond(M) > 1e5:
            M = rng.standard_normal((n, n))
        P_w = np.eye(n) - np.outer(v, v)
        P = P_w @ M.T @ M @ P_w
        b = lmi_l2(A, P)
        F = P + np.outer(v, v)
        S = np.linalg.cholesky(F).T
        W = SeminormWeight.factored(S, v)
        semi = induced_seminorm(A, W, 2)
        assert abs(np.sqrt(b) - semi) < 1e-8 * max(1.0, semi)


def test_lmi_preconditions():
    with pytest.raises(PreconditionError):
        lmi_l2(np.eye(3), np.eye(3))  # kernel is zero-dimensional
    with pytest.raises(PreconditionError):
        lmi_l2(rng.uniform(-1, 1, (3, 3)), orthogonal_projector(np.ones(3)))  # kernel not invariant


def _primal_lp_psi_inf(v, A):
    """min t s.t. sum_j |A_ij - v_i c_j| <= t, as a dense LP in (c, s, t) with
    s_ij >= |A_ij - v_i c_j|, built row by row."""
    m, n = A.shape
    nv = n + m * n + 1
    obj = np.zeros(nv)
    obj[-1] = 1.0
    rows, rhs = [], []
    for i in range(m):
        for j in range(n):
            for sign in (-1.0, 1.0):
                r = np.zeros(nv)
                r[j] = sign * v[i]
                r[n + i * n + j] = -1.0
                rows.append(r)
                rhs.append(sign * A[i, j])
    for i in range(m):
        r = np.zeros(nv)
        r[n + i * n:n + (i + 1) * n] = 1.0
        r[-1] = -1.0
        rows.append(r)
        rhs.append(0.0)
    bounds = [(None, None)] * n + [(0, None)] * (m * n + 1)
    res = scipy.optimize.linprog(obj, A_ub=np.array(rows), b_ub=np.array(rhs),
                                 bounds=bounds, method="highs-ds")
    assert res.status == 0
    return res.fun


def _anchor_cases(local, m, n):
    zeroed = local.standard_normal(m)
    zeroed[local.random(m) < 0.35] = 0.0
    zeroed[0] = 1.0
    mixed = local.choice([-1.0, 1.0], m) * local.uniform(0.2, 2.0, m)
    small = local.integers(-2, 3, m).astype(float)
    small[0] = 1.0
    return ((np.ones(m), local.uniform(0.0, 1.0, (m, n))),
            (zeroed, local.uniform(-1.0, 1.0, (m, n))),
            (mixed, local.standard_normal((m, n))),
            (small, local.integers(-2, 3, (m, n)).astype(float)))


def _assert_psi_inf_minimum(v, A, res, local):
    assert res.value == induced_pnorm(A - np.outer(v, res.c_star), INF)
    assert tau(v, A, 1).value <= res.value + 1e-10
    c_proj = A.T @ v / float(v @ v)
    assert res.value <= induced_pnorm(A - np.outer(v, c_proj), INF)
    n = A.shape[1]
    for j in range(n):
        for step in (-1e-3, 1e-3):
            c = res.c_star.copy()
            c[j] += step
            assert induced_pnorm(A - np.outer(v, c), INF) >= res.value - 1e-12
    for _ in range(8):
        c = res.c_star + 1e-2 * local.standard_normal(n)
        assert induced_pnorm(A - np.outer(v, c), INF) >= res.value - 1e-12


def test_psi_inf_matches_literal_primal_lp():
    local = np.random.default_rng(17)
    for m in (2, 5, 7, 12):
        for n in (3, 7, 12):
            for v, A in _anchor_cases(local, m, n):
                res = deflated_norm(v, A, INF)
                expected = _primal_lp_psi_inf(v, A)
                assert abs(res.value - expected) <= 1e-9 * max(1.0, abs(expected))
                _assert_psi_inf_minimum(v, A, res, local)


def test_psi_inf_beyond_dense_lp_range():
    local = np.random.default_rng(19)
    for m in (7, 16, 40):
        for n in (7, 16, 40):
            for v, A in _anchor_cases(local, m, n):
                _assert_psi_inf_minimum(v, A, deflated_norm(v, A, INF), local)
    M = local.uniform(0.02, 1.0, (80, 80))
    M /= M.sum(axis=1, keepdims=True)
    _assert_psi_inf_minimum(np.ones(80), M, deflated_norm(np.ones(80), M, INF), local)


def test_psi_inf_dual_weight_on_zero_anchor_rows():
    # the optimal dual weights sit only on rows with v_i = 0, so the duality
    # bound runs the median kernel with an all-zero weight vector
    res = deflated_norm(np.array([1.0, 0.0]), np.array([[0.0, 0.0], [5.0, 5.0]]), INF)
    assert res.value == 10.0
    local = np.random.default_rng(23)
    for _ in range(10):
        v = np.array([1.0, 0.0, 0.0, 2.0])
        A = local.uniform(-0.1, 0.1, (4, 5))
        A[1:3] = local.uniform(3.0, 5.0, (2, 5))
        res = deflated_norm(v, A, INF)
        assert res.value == pytest.approx(max(np.sum(np.abs(A[1:3]), axis=1)), rel=1e-12)


def test_psi_inf_near_rank_one_value_is_attained():
    local = np.random.default_rng(29)
    for _ in range(200):
        m, n = (int(k) for k in local.integers(2, 25, 2))
        v = local.standard_normal(m)
        A = np.outer(v, local.standard_normal(n)) + 1e-9 * local.standard_normal((m, n))
        res = deflated_norm(v, A, INF)
        assert res.value == induced_pnorm(A - np.outer(v, res.c_star), INF)
        assert res.value > 0.0


def test_psi_inf_certificate_rejects_a_suboptimal_minimizer(monkeypatch):
    import ergo.seminorm as seminorm
    solve = seminorm._deflate_linf

    def perturbed(v, A):
        c, lam = solve(v, A)
        return c + 1e-3, lam
    monkeypatch.setattr(seminorm, "_deflate_linf", perturbed)
    M = np.random.default_rng(37).uniform(-1.0, 1.0, (6, 5))
    with pytest.raises(CrossCheckError):
        deflated_norm(np.ones(6), M, INF)


def _count_masters(monkeypatch):
    """Record each HiGHS model `_deflate_linf` builds and each master solve:
    `models` grows by one per model, `calls` by one per `run`."""
    from scipy.optimize._highspy import _core
    calls, models = [], []

    class Counted(_core._Highs):
        def __init__(self):
            super().__init__()
            models.append(1)

        def run(self):
            calls.append(1)
            return super().run()
    monkeypatch.setattr(_core, "_Highs", Counted)
    return calls, models


def test_psi_inf_both_starts_match_literal_primal_lp(monkeypatch):
    # every anchor case, square and rectangular, from all kinks (one
    # master) and from the median kinks (column generation); the bound is
    # the certificate's weak-duality bound at the last master
    import ergo.seminorm as seminorm
    local = np.random.default_rng(41)
    calls, _ = _count_masters(monkeypatch)
    for m, n in ((6, 6), (9, 14)):
        for v, A in _anchor_cases(local, m, n):
            expected = _primal_lp_psi_inf(v, A)
            for budget in (1 << 62, 0):
                monkeypatch.setattr(seminorm, "MASTER_ALL_KINKS", budget)
                calls.clear()
                res = deflated_norm(v, A, INF)
                if budget:
                    assert len(calls) == 1
                assert abs(res.value - expected) <= 1e-9 * max(1.0, abs(expected))
                assert 0.0 <= res.value - res.bound <= 1e-9 * max(1.0, res.value)
                _assert_psi_inf_minimum(v, A, res, local)
            assert deflated_norm(v, A, 1).bound is None
            assert deflated_norm(v, A, 2).bound is None


def test_psi_inf_small_inputs_take_one_lp(monkeypatch):
    local = np.random.default_rng(43)
    calls, _ = _count_masters(monkeypatch)
    for n in range(2, 7):
        for v, A in _anchor_cases(local, n, n):
            calls.clear()
            res = deflated_norm(v, A, INF)
            assert len(calls) == 1
            assert 0.0 <= res.value - res.bound <= 1e-9 * max(1.0, res.value)


def test_psi_inf_column_generation_on_a_120_state_chain(monkeypatch):
    local = np.random.default_rng(47)
    M = local.uniform(0.0, 1.0, (120, 120)) + 0.02
    M /= M.sum(axis=1, keepdims=True)
    calls, models = _count_masters(monkeypatch)
    res = deflated_norm(np.ones(120), M, INF)
    assert len(calls) > 1
    assert len(models) == 1
    assert 0.0 <= res.value - res.bound <= 1e-9 * max(1.0, res.value)
    _assert_psi_inf_minimum(np.ones(120), M, res, local)


def test_psi_inf_names_the_scipy_floor_without_highs(monkeypatch):
    from scipy.optimize._highspy import _core
    monkeypatch.delattr(_core, "_Highs")
    with pytest.raises(ImportError, match=r"scipy >= 1\.17"):
        deflated_norm(np.ones(3), np.eye(3), INF)


def test_psi_inf_certifies_anchors_over_many_orders_of_magnitude():
    # kinks A_kj / v_k of rows with |v_k| = 1e-12 reach 1e12; clipped into
    # the box that holds a minimizer, they no longer swamp the master's scale
    local = np.random.default_rng(2)
    for m in (8, 20):
        for k in (4, 8, 12):
            v = local.choice([-1.0, 1.0], m) * np.logspace(-k, 0, m)
            local.shuffle(v)
            A = local.uniform(-1.0, 1.0, (m, m))
            res = deflated_norm(v, A, INF)
            expected = _primal_lp_psi_inf(v, A)
            assert abs(res.value - expected) <= 1e-9 * max(1.0, expected)
            assert 0.0 <= res.value - res.bound <= 1e-9 * max(1.0, res.value)
            assert res.value == induced_pnorm(A - np.outer(v, res.c_star), INF)


@pytest.mark.parametrize("q", [1, INF])
def test_deflated_norm_is_scale_free(q):
    # scaling A by 2^k is exact, and so is every step of both solvers, so
    # the value scales exactly and stays attained at c_star; this holds
    # only with a tie-break toward c_proj relative to the value
    local = np.random.default_rng(53)
    for m, n in ((3, 3), (5, 4), (4, 6), (40, 40)):
        for v, A in _anchor_cases(local, m, n):
            base = deflated_norm(v, A, q).value
            for k in (-600, -40, 40, 600):
                Ak = np.ldexp(A, k)
                res = deflated_norm(v, Ak, q)
                scaled = np.ldexp(base, k)
                assert abs(res.value - scaled) <= 1e-12 * scaled
                attained = induced_pnorm(Ak - np.outer(v, res.c_star), q)
                assert abs(attained - res.value) <= 1e-12 * res.value


def test_deflated_norm_is_free_of_the_anchor_scale():
    # Psi_q is of degree zero in v and c_star of degree -1.  At 2^-540 the
    # projection vector's v^T v underflowed and every q was refused.  The
    # subnormal anchor's c_star lies past the float range: its entries came
    # back +-inf with only a numpy warning, and are refused, naming the
    # exponent, at every q
    local = np.random.default_rng(0)
    B = local.uniform(-1.0, 1.0, (5, 5))
    v = local.standard_normal(5)
    for k in (-520, -540):
        u = np.ldexp(v, k)
        for q in (1, 2, INF):
            res = deflated_norm(u, B, q)
            ref = deflated_norm(np.ldexp(u, -k), B, q)
            assert (repr(res.value), repr(res.bound)) == (repr(ref.value), repr(ref.bound))
            assert np.ldexp(res.c_star, k).tobytes() == ref.c_star.tobytes()
    for q in (1, 2, INF):
        with np.errstate(over="raise"), pytest.raises(
                PreconditionError, match=r"c lies past the float range: .* times 2\^1060$"):
            deflated_norm(np.ldexp(v, -1060), B, q)


def test_deflated_norm_near_the_top_of_the_float_range():
    # A^T v overflowed in the projection vector (a refusal where Psi_q is
    # 0), and Psi_inf's bound in math.ldexp (an OverflowError)
    for q in (1, 2, INF):
        assert deflated_norm(np.ones(2), 1e308 * np.ones((2, 2)), q).value == 0.0
    local = np.random.default_rng(0)
    B = local.uniform(-1.0, 1.0, (5, 5))
    v = local.standard_normal(5)
    with np.errstate(over="ignore"):
        assert deflated_norm(v, 1e308 * B, INF).value == np.inf


def test_incidence_inf_near_row_tolerance_is_not_a_chain():
    # raw row sums are within 1e-10 of 1, but once the -5e-11 entry is
    # clipped row 0 sums to 1 + 1.4e-10: StochasticMatrix refuses it.  The
    # kernel residual is about 1e-10, below KERNEL_INVARIANCE_TOL, so the
    # closed form tau_1(1, A) answers; row sums that differ by s move each
    # pair term by at most |s| + |s|/2, which bounds its gap to the oracle
    A = np.array([[0.5, 0.5 + 1.4e-10, -0.5e-10], [0.2, 0.3, 0.5], [0.1, 0.6, 0.3]])
    with pytest.raises(PreconditionError, match="row sums deviate"):
        StochasticMatrix(A)
    W = SeminormWeight.incidence(3)
    value = induced_seminorm(A, W, INF)
    assert value == tau(np.ones(3), A, 1).value
    assert abs(value - oracle_weighted_seminorm(A, W, INF).value) <= 1.5 * np.ptp(A.sum(axis=1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 40])
def test_incidence_inf_is_tau1_on_invariant_non_chains(n):
    # A 1 = -0.3 * 1 with entries of both signs: not a chain, yet the
    # closed form holds at every n, beyond the n <= 5 cap of the oracle
    gen = np.random.default_rng(100 + n)
    A = gen.uniform(-1.0, 1.0, (n, n))
    A -= (A.sum(axis=1, keepdims=True) + 0.3) / n
    W = SeminormWeight.incidence(n)
    value = induced_seminorm(A, W, INF)
    assert value == tau(np.ones(n), A, 1).value
    if n <= 5:
        assert value == pytest.approx(oracle_weighted_seminorm(A, W, INF).value, rel=1e-12)


def test_incidence_closed_forms_build_no_incidence_matrix():
    # C_n^T holds 8 n^2 (n - 1) bytes, 215 MB at n = 300; p = inf is
    # tau_1(1, A) and p = 2 the agreement weight, and neither reads it
    n = 300
    M = np.random.default_rng(300).uniform(0.0, 1.0, (n, n))
    A = StochasticMatrix(M / M.sum(axis=1, keepdims=True)).matrix
    tracemalloc.start()
    try:
        W = SeminormWeight.incidence(n)
        sup = induced_seminorm(A, W, INF)
        induced_seminorm(A, W, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert "matrix" not in vars(W)
    assert repr(sup) == repr(tau(np.ones(n), A, 1).value)


def test_dobrushin_reports_its_overlap_form():
    from ergo.ergodicity import _overlap_form
    S = StochasticMatrix([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
    res = dobrushin(S)
    assert repr(res.overlap) == repr(_overlap_form(S.matrix))
    assert abs(res.overlap - res.value) <= 1e-12
    assert tau(np.ones(3), S.matrix, 1).overlap is None


def _stable_row_medians(v, X):
    """`ergodicity._row_medians` with a stable sort, kinks in row order
    within each block of ties."""
    mask = v != 0.0
    if not mask.any():
        return np.sum(np.abs(X), axis=1), np.zeros(len(X))
    kinks = X[:, mask] / v[mask]
    order = np.argsort(kinks, axis=1, kind="stable")
    kinks = np.take_along_axis(kinks, order, axis=1)
    cum = np.cumsum(np.abs(v[mask])[order], axis=1)
    half = 0.5 * cum[:, -1:]
    rows = np.arange(len(X))
    lower = kinks[rows, np.argmax(cum >= half, axis=1)]
    upper = kinks[rows, np.argmax(cum > half, axis=1)]
    val_lower = np.sum(np.abs(X - lower[:, None] * v), axis=1)
    val_upper = np.sum(np.abs(X - upper[:, None] * v), axis=1)
    up = val_upper < val_lower
    return np.where(up, val_upper, val_lower), np.where(up, upper, lower)


def test_medians_do_not_depend_on_the_order_of_tied_kinks(monkeypatch):
    from ergo import ergodicity
    local = np.random.default_rng(59)
    cases = []
    for _ in range(60):
        m, n = (int(x) for x in local.integers(2, 14, 2))
        A = local.integers(-2, 3, (m, n)).astype(float)
        signs = local.choice([-1.0, 1.0], m)
        zeros = local.integers(-2, 3, m).astype(float)
        zeros[0] = zeros[0] or 1.0
        cases += [(signs, A), (zeros, A), (np.ones(m), np.abs(A))]

    def results():
        out = []
        for v, A in cases:
            psi1, psiinf = deflated_norm(v, A, 1), deflated_norm(v, A, INF)
            out.append((repr(tau(v, A, INF).value), repr(psi1.value), repr(psiinf.value),
                        repr(psiinf.bound)))
            for c in (psi1.c_star, psiinf.c_star):
                assert not np.any(np.signbit(c) & (c == 0.0))
        return out

    default = results()
    monkeypatch.setattr(ergodicity, "_row_medians", _stable_row_medians)
    assert default == results()
