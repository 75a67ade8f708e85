import mpmath
import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import assume, given, settings, strategies as st

from ergo import (INF, CrossCheckError, PreconditionError, StochasticMatrix,
                  deflated_norm, dobrushin, dominant_pair, induced_pnorm,
                  oracle_tau, tau, tau_oblique)
from ergo.ergodicity import (BLOCK_ENTRIES, _column_medians, _overlap_form, _pair_blocks,
                             _spectral_norms, _tau_values)

rng = np.random.default_rng(7)

A22 = np.array([[0.5, 0.5], [0.25, 0.75]])


def random_stochastic(n):
    M = rng.uniform(0.0, 1.0, (n, n)) + 0.05
    return StochasticMatrix(M / M.sum(axis=1, keepdims=True))


def test_tau_frozen_examples():
    consensus = 0.5 * np.ones((2, 2))
    for p in (1, 2, INF):
        assert tau(np.ones(2), consensus, p).value < 1e-14
    assert abs(tau(np.ones(2), A22, 1).value - 0.25) < 1e-14
    assert abs(tau(np.array([1.0, 0.0]), np.eye(2), INF).value - 1.0) < 1e-14


def test_tau_rejects_bad_input():
    with pytest.raises(PreconditionError):
        tau(np.zeros(2), A22, 1)
    with pytest.raises(PreconditionError):
        tau(np.ones(3), A22, 1)
    with pytest.raises(PreconditionError):
        tau(np.ones(2), A22, 3)


def test_tau_matches_oracle_random_anchor():
    for _ in range(200):
        n = int(rng.integers(2, 7))
        A = rng.uniform(-1.0, 1.0, (n, n))
        v = rng.standard_normal(n)
        assert abs(tau(v, A, 1).value - oracle_tau(v, A, 1).value) < 1e-9
        assert abs(tau(v, A, INF).value - oracle_tau(v, A, INF).value) < 1e-9
        assert abs(tau(v, A, 2).value - oracle_tau(v, A, 2).value) < 1e-7


def test_tau_rectangular():
    for _ in range(20):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        A = rng.uniform(-1.0, 1.0, (m, n))
        v = rng.standard_normal(m)
        for p in (1, INF):
            assert abs(tau(v, A, p).value - oracle_tau(v, A, p).value) < 1e-9


def test_tau_scale_covariance():
    for _ in range(30):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1.0, 1.0, (n, n))
        v = rng.standard_normal(n)
        alpha = float(rng.uniform(-3.0, 3.0))
        for p in (1, 2, INF):
            assert abs(tau(v, alpha * A, p).value - abs(alpha) * tau(v, A, p).value) < 1e-12


def test_tau_deflation_inequality():
    for _ in range(25):
        n = int(rng.integers(2, 6))
        A = rng.uniform(-1.0, 1.0, (n, n))
        v = rng.standard_normal(n)
        for p in (1, 2, INF):
            t = tau(v, A, p).value
            for _ in range(4):
                c = rng.standard_normal(n)
                assert t <= induced_pnorm((A - np.outer(v, c)).T, p) + 1e-12


def test_dobrushin_frozen():
    assert abs(dobrushin(StochasticMatrix(np.eye(3))).value - 1.0) < 1e-14
    n = 4
    assert dobrushin(StochasticMatrix(np.full((n, n), 1.0 / n))).value < 1e-14
    assert abs(dobrushin(A22).value - 0.25) < 1e-14


def test_dobrushin_matches_tau1():
    for _ in range(40):
        S = random_stochastic(int(rng.integers(2, 7)))
        assert abs(dobrushin(S).value - tau(np.ones(S.n), S.matrix, 1).value) < 1e-10


def test_tau1_subunit_for_stochastic():
    for _ in range(30):
        S = random_stochastic(int(rng.integers(2, 7)))
        assert tau(np.ones(S.n), S.matrix, 1).value <= 1.0 + 1e-12


def test_tau_submultiplicative_over_products():
    for _ in range(30):
        n = int(rng.integers(2, 6))
        A, B = random_stochastic(n), random_stochastic(n)
        one = np.ones(n)
        for p in (1, 2, INF):
            prod = tau(one, A.matrix @ B.matrix, p).value
            assert prod <= tau(one, A.matrix, p).value * tau(one, B.matrix, p).value + 1e-10


def test_tau_oblique_frozen():
    pi = np.array([0.3, 0.7])
    rank_one = StochasticMatrix(np.outer(np.ones(2), pi))
    for p in (1, 2, INF):
        assert tau_oblique(rank_one, p).value < 1e-12
    sym = StochasticMatrix([[0.75, 0.25], [0.25, 0.75]])
    assert abs(tau_oblique(sym, INF).value - 0.5) < 1e-12
    assert abs(tau_oblique(sym, 2).value - 0.5) < 1e-12
    with pytest.raises(PreconditionError):
        tau_oblique(StochasticMatrix(np.eye(2)), 1)


def test_tau_oblique_matches_oracle():
    for _ in range(25):
        S = random_stochastic(int(rng.integers(2, 6)))
        _, w = dominant_pair(S)
        for p in (1, INF):
            assert abs(tau_oblique(S, p).value - oracle_tau(w, S.matrix.T, p).value) < 1e-9


def test_dobrushin_cross_formula_guard():
    # the two formulas agree for genuine stochastic input; corrupting the
    # cached matrix after validation trips the cross-check
    S = random_stochastic(3)
    S.matrix = S.matrix + rng.uniform(0.2, 0.4, (3, 3))
    with pytest.raises(CrossCheckError):
        dobrushin(S)


def _kink_minima(v, A):
    """min_mu ||A_k - mu v||_1 per column, trying every kink A_ik / v_i."""
    mask = v != 0.0
    minima = []
    for b in A.T:
        kinks = b[mask] / v[mask]
        minima.append(min(float(np.sum(np.abs(b - mu * v))) for mu in kinks))
    return minima


def _pairwise_tau1(v, A):
    best = 0.0
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            den = abs(v[i]) + abs(v[j])
            if den == 0.0:
                best = max(best, np.sum(np.abs(A[i])), np.sum(np.abs(A[j])))
            else:
                best = max(best, np.sum(np.abs(v[j] * A[i] - v[i] * A[j])) / den)
    return float(best)


_SIGNS = st.sampled_from([1.0, -1.0])
# zeros, +-1 and magnitudes 1e-100..1e100, mixed within one anchor
_MAGNITUDES = st.builds(lambda s, e: s * 10.0 ** e, _SIGNS, st.floats(-100.0, 100.0))
_ANCHOR_ENTRIES = st.one_of(st.just(0.0), _SIGNS, _MAGNITUDES)


@st.composite
def _anchored_matrices(draw):
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    entries = draw(st.sampled_from([_ANCHOR_ENTRIES, _SIGNS]))
    v = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
    assume(np.any(v))
    local = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = local.standard_normal((m, n))
    A[local.random((m, n)) < 0.3] = 0.0
    return v, A


@settings(max_examples=60)
@given(_anchored_matrices())
def test_tau1_matches_pair_loop_on_drawn_anchors(case):
    v, A = case
    assert tau(v, A, 1).value == pytest.approx(_pairwise_tau1(v, A), rel=1e-12, abs=0.0)


def test_tau1_anchors_across_the_float_range():
    # scaling the anchor by a power of two, down to subnormal entries, keeps
    # every bit; entries 1e300 apart stay finite and match the pair loop, and
    # an entry below 2^-512 max |v| counts as zero
    local = np.random.default_rng(41)
    A = local.standard_normal((6, 5))
    v = local.standard_normal(6)
    for anchor in (np.ones(6), v):
        value = tau(anchor, A, 1).value
        for c in (2.0 ** -1000, 2.0 ** 1000):
            assert repr(tau(c * anchor, A, 1).value) == repr(value)
    assert repr(tau(np.full(6, 5e-324), A, 1).value) == repr(tau(np.ones(6), A, 1).value)
    spread = np.array([1.0, -1e-300, 3e-300, 2.0, 1e-320, 0.5])
    for M in (A, 1e10 * A):
        assert tau(spread, M, 1).value == pytest.approx(_pairwise_tau1(spread, M), rel=1e-12)
        cut = np.where(np.abs(spread) < 1e-200, 0.0, spread)
        assert tau(spread, M, 1).value == tau(cut, M, 1).value


def _pairwise_dobrushin(M):
    n = len(M)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    halfsum = max(0.5 * np.sum(np.abs(M[i] - M[j])) for i, j in pairs)
    overlap = 1.0 - min(np.sum(np.minimum(M[i], M[j])) for i, j in pairs)
    return float(halfsum), float(overlap)


def test_kernels_match_literal_references_beyond_oracle_cap():
    # tau_inf = Psi_1 holds by construction, so both sides are checked against
    # an enumeration of every kink, and tau_1 and dobrushin against the
    # double pair loop, at sizes the vertex oracles cannot reach
    local = np.random.default_rng(11)
    sizes = (7, 16, 40)
    for m in sizes:
        for n in sizes:
            ones = np.ones(m)  # flat medians at even m
            zeroed = local.standard_normal(m)
            zeroed[local.random(m) < 0.35] = 0.0
            zeroed[0] = 1.0
            mixed = local.standard_normal(m)
            small = local.integers(-2, 3, m).astype(float)
            small[0] = 1.0
            cases = ((ones, local.uniform(0.0, 1.0, (m, n))),
                     (zeroed, local.uniform(-1.0, 1.0, (m, n))),
                     (mixed, local.standard_normal((m, n))),
                     (small, local.integers(-2, 3, (m, n)).astype(float)),
                     (ones, local.integers(0, 3, (m, n)).astype(float)))
            for v, A in cases:
                expected = max(_kink_minima(v, A))
                assert tau(v, A, INF).value == pytest.approx(expected, rel=1e-12)
                res = deflated_norm(v, A, 1)
                assert res.value == pytest.approx(expected, rel=1e-12)
                attained = induced_pnorm(A - np.outer(v, res.c_star), 1)
                assert attained == pytest.approx(res.value, rel=1e-12)
                assert tau(v, A, 1).value == pytest.approx(_pairwise_tau1(v, A), rel=1e-12)
        counts = local.integers(0, 3, (m, m)).astype(float) + np.eye(m)
        for M in (local.uniform(0.0, 1.0, (m, m)) + 0.01, counts):
            S = StochasticMatrix(M / M.sum(axis=1, keepdims=True))
            halfsum, overlap = _pairwise_dobrushin(S.matrix)
            assert dobrushin(S).value == pytest.approx(halfsum, rel=1e-12)
            assert dobrushin(S).value == pytest.approx(overlap, rel=1e-12)


def test_overlap_form_matches_pair_loop():
    # bit for bit against the double loop over row pairs, including
    # repeated rows, whose overlap rounds to just above 1
    local = np.random.default_rng(13)
    for k in range(60):
        n = int(local.integers(1, 40))
        M = local.uniform(0.0, 1.0, (n, n)) ** 3 + 1e-3 * np.eye(n)
        if k % 3 == 0:
            M[local.random((n, n)) < 0.5] = 0.0
            M += 1e-3 * np.eye(n)
        M /= M.sum(axis=1, keepdims=True)
        if k % 4 == 0 and n > 1:
            M[1] = M[0]
        loop = 1.0 - min(float(np.sum(np.minimum(M[i], M[j])))
                         for i in range(n) for j in range(i + 1, n)) if n > 1 else 0.0
        assert repr(_overlap_form(M)) == repr(loop)
        assert repr(_overlap_form(np.asfortranarray(M))) == repr(loop)


def _per_row_tau1(v, A):
    """The pair kernel taking one row against all later rows per step: rows
    of H = A / v at weights w = 1 / |v|, and a row with v_i = 0 on its own."""
    A = np.ascontiguousarray(A)
    live = np.flatnonzero(v)
    H = A[live] / v[live, None]
    w = 1.0 / np.abs(v[live])
    best = max((float(np.sum(np.abs(A[i]))) for i in np.flatnonzero(v == 0.0)), default=0.0)
    for r in range(len(live) - 1):
        dist = np.sum(np.abs(H[r] - H[r + 1:]), axis=1) / (w[r] + w[r + 1:])
        best = max(best, float(np.max(dist)))
    return best


def _per_row_overlap(M):
    M = np.ascontiguousarray(M)
    if M.shape[0] < 2:
        return 0.0
    return 1.0 - min(float(np.min(np.sum(np.minimum(M[i], M[i + 1:]), axis=1)))
                     for i in range(M.shape[0] - 1))


def test_pair_blocks_tile_the_pair_loop():
    regimes = set()
    for K in (1, 2, 7, 33):
        for m in (1, 2, 3, 17, 41, 64, 130):
            for n in (0, 1, 5, 40, 300):
                stacked = list(_pair_blocks(K, m, n))
                # every (matrix, i < j) pair exactly once, within the budget
                counts = np.zeros((K, m, m), dtype=int)
                blocks_of = [[] for _ in range(K)]
                for ks, i0, i1, later in stacked:
                    mats = range(K)[ks]
                    rest = m - i0 - 1
                    assert len(mats) >= 1
                    assert ((len(mats) == 1 and i1 - i0 == 1)
                            or len(mats) * (i1 - i0) * rest * n <= BLOCK_ENTRIES)
                    counts[ks, i0:i1, i0 + 1:] += later
                    for k in mats:
                        blocks_of[k].append((i0, i1, later))
                assert (counts == np.triu(np.ones((m, m), dtype=int), 1)).all()
                if len(stacked) < sum(map(len, blocks_of)):
                    regimes.add("several matrices")
                # each matrix's row blocks tile its pair loop
                checked = set()
                for blocks in blocks_of:
                    starts = [0] + [i1 for _, i1, _ in blocks]
                    assert [i0 for i0, _, _ in blocks] == starts[:-1]
                    assert starts[-1] == max(m - 1, 0)
                    for i0, i1, later in blocks:
                        if (i0, i1) in checked:
                            continue
                        checked.add((i0, i1))
                        rest = m - i0 - 1
                        assert i1 - i0 == 1 or (i1 - i0) * rest * n <= BLOCK_ENTRIES
                        pairs = {(i0 + r, i0 + 1 + c) for r, c in zip(*np.nonzero(later))}
                        assert pairs == {(i, j) for i in range(i0, i1) for j in range(i + 1, m)}
                        if 2 * rest * n > BLOCK_ENTRIES:
                            regimes.add("one row")
                    regimes.add("one block" if len(blocks) == 1 else "several blocks")
    assert regimes == {"one block", "several blocks", "one row", "several matrices"}


def test_blocked_pair_kernels_match_per_row_loop():
    # bit for bit: one block, several blocks and one row per block, with
    # rectangular and Fortran-ordered input, anchors that reach den == 0 and
    # +-1 anchors of one and of mixed signs
    local = np.random.default_rng(19)
    for m in (2, 3, 17, 41, 64, 130):
        for n in (1, 5, 40, 300):
            zeroed = local.standard_normal(m)
            zeroed[local.random(m) < 0.5] = 0.0
            small = local.integers(-2, 3, m).astype(float)
            signs = local.permutation(np.resize([1.0, -1.0], m))
            for v, A in ((np.ones(m), local.uniform(0.0, 1.0, (m, n))),
                         (zeroed, local.uniform(-1.0, 1.0, (m, n))),
                         (small, local.integers(-2, 3, (m, n)).astype(float)),
                         (local.standard_normal(m), local.standard_normal((m, n))),
                         (signs, local.standard_normal((m, n)))):
                expected = repr(_per_row_tau1(v, A))
                assert repr(float(_tau_values(v, A[None], 1)[0])) == expected
                assert repr(float(_tau_values(v, np.asfortranarray(A)[None], 1)[0])) == expected
            M = local.uniform(0.0, 1.0, (m, n)) ** 3
            M[local.random((m, n)) < 0.4] = 0.0
            M += 1e-3
            M /= M.sum(axis=1, keepdims=True)
            M[m // 2] = M[0]  # repeated rows: overlap rounds to just above 1
            expected = repr(_per_row_overlap(M))
            assert repr(_overlap_form(M)) == expected
            assert repr(_overlap_form(np.asfortranarray(M))) == expected


def test_stacked_kernels_match_stacks_of_one():
    # bit for bit, every kernel on a stack against each matrix alone, across
    # one and several matrices per block or chunk and matrices beyond the budget
    local = np.random.default_rng(23)
    for m, n in ((1, 4), (3, 3), (17, 5), (40, 40), (64, 9), (130, 300)):
        zeroed = local.standard_normal(m)
        zeroed[local.random(m) < 0.5] = 0.0
        zeroed[0] = 1.0
        anchors = (np.ones(m), local.permutation(np.resize([1.0, -1.0], m)), zeroed,
                   local.standard_normal(m))
        for K in (2, 7):
            As = local.standard_normal((K, m, n))
            As[local.random((K, m, n)) < 0.3] = 0.0
            for v in anchors:
                for p in (1, 2, INF):
                    stacked = _tau_values(v, As, p)
                    assert [repr(float(x)) for x in stacked] == [repr(tau(v, A, p).value) for A in As]
                values, mus = _column_medians(v, As)
                for k in range(K):
                    alone = _column_medians(v, As[k][None])
                    assert values[k].tobytes() == alone[0][0].tobytes()
                    assert mus[k].tobytes() == alone[1][0].tobytes()


def test_tau1_near_the_top_of_the_float_range():
    # A / v overflowed once max |A| passed half the float maximum (inf on
    # the first matrix, nan on the second); each matrix of a stack is scaled
    # by its own power of two
    huge = np.finfo(float).max / 2.0
    for A, expected in ((1e308 * np.eye(2), 1e308), (1e308 * np.ones((2, 2)), 0.0),
                        (np.array([[huge, -huge], [-huge, huge]]), 2.0 * huge)):
        assert tau(np.ones(2), A, 1).value == expected
    assert tau(np.array([1.0, -0.5]), 1e308 * np.eye(2), 1).value == pytest.approx(1e308, rel=1e-15)
    stack = np.stack([1e308 * np.eye(2), np.eye(2)])
    assert [float(x) for x in _tau_values(np.ones(2), stack, 1)] == [1e308, 1.0]


def test_tau_is_free_of_the_anchor_scale():
    # tau is of degree zero in v.  At 2^-520, v v^T in P_v lost bits to
    # underflow; at 2^-540 it underflowed whole and tau_2 was refused; on a
    # subnormal anchor, A / v overflowed and tau_inf read inf
    local = np.random.default_rng(0)
    B = local.uniform(-1.0, 1.0, (5, 5))
    v = local.standard_normal(5)
    for k in (-520, -540, -1060):
        u = np.ldexp(v, k)
        for p in (1, 2, INF):
            assert repr(tau(u, B, p).value) == repr(tau(np.ldexp(u, -k), B, p).value)


def _projected_norm_40_digits(v, A):
    """||P_v A||_2 from a 40-digit SVD of the exact P_v A."""
    with mpmath.workdps(40):
        V = mpmath.matrix(v.tolist())
        M = mpmath.matrix(A.tolist())
        X = M - V * (V.T * M) / sum(x * x for x in V)
        return max(mpmath.svd_r(X, compute_uv=False))


def test_spectral_norm_kernel_against_40_digits():
    # tau_2 and Psi_2 from the top eigenvalue of the scaled Gram matrix,
    # within 4 n u of a 40-digit SVD: square, wide (Gram X X^T) and tall
    # (Gram X^T X) shapes, graded entries, singular values down to 1e-14
    local = np.random.default_rng(41)
    u = np.finfo(float).eps / 2
    for m, n in ((2, 2), (5, 5), (12, 12), (3, 11), (4, 12), (11, 3), (12, 6)):
        k = min(m, n)
        U, _ = np.linalg.qr(local.standard_normal((m, k)))
        W, _ = np.linalg.qr(local.standard_normal((n, k)))
        cases = (local.standard_normal((m, n)),
                 local.standard_normal((m, n)) * np.logspace(0, -8, m)[:, None]
                 * np.logspace(0, -6, n),
                 (U * np.logspace(0, -14, k)) @ W.T)
        for A in cases:
            for v in (np.ones(m), local.standard_normal(m)):
                ref = _projected_norm_40_digits(v, A)
                for got in (tau(v, A, 2).value, deflated_norm(v, A, 2).value):
                    assert abs(mpmath.mpf(got) - ref) <= 4 * max(m, n) * u * ref


def test_spectral_norm_kernel_at_the_extremes():
    # P_v A far below A: the Gram matrix of the unscaled 1e-200 underflows
    assert tau(np.array([1.0, 0.0]), np.diag([0.5, 1e-200]), 2).value == 1e-200
    local = np.random.default_rng(43)
    v = local.standard_normal(6)
    M = local.uniform(-1.0, 1.0, (6, 6))
    # near the top of the float range and in the subnormals, a power of two
    # moves no bit of the value
    for e in (1022, -1070):
        A = np.ldexp(M, e)
        assert tau(v, A, 2).value == np.ldexp(tau(v, np.ldexp(A, -e), 2).value, e)
    assert 9e307 < tau(v, np.ldexp(M, 1022), 2).value < np.inf
    assert 0.0 < tau(v, np.ldexp(M, -1070), 2).value < 1e-300
    # P_v A exactly zero
    assert tau(np.ones(3), np.ones((3, 3)), 2).value == 0.0
    assert tau(np.array([1.0, 0.0, 0.0]), np.diag([2.0, 0.0, 0.0]), 2).value == 0.0
    assert deflated_norm(np.ones(3), np.ones((3, 5)), 2).value == 0.0
    # empty stacks and matrices
    assert _spectral_norms(np.zeros((0, 3, 3))).shape == (0,)
    assert _tau_values(np.ones(3), np.zeros((0, 3, 4)), 2).shape == (0,)
    assert _spectral_norms(np.zeros((2, 3, 0))).tolist() == [0.0, 0.0]
    for q in (1, 2, INF):
        assert tau(np.ones(2), np.zeros((2, 0)), q).value == 0.0
        empty = deflated_norm(np.ones(2), np.zeros((2, 0)), q)
        assert empty.value == 0.0 and empty.c_star.shape == (0,)
        assert empty.bound == (0.0 if q == INF else None)


def test_spectral_norm_kernel_refuses_a_failed_eigensolve(monkeypatch):
    real = scipy.linalg.lapack.dsyevr
    monkeypatch.setattr(scipy.linalg.lapack, "dsyevr",
                        lambda *args, **kw: real(*args, **kw)[:4] + (1,))
    with pytest.raises(CrossCheckError, match="dsyevr failed"):
        tau(np.ones(3), np.eye(3), 2)


def test_spectral_norm_kernel_matches_the_svd_at_scale():
    local = np.random.default_rng(47)
    for n in (50, 300):
        A = local.standard_normal((n, n))
        for v in (np.ones(n), local.standard_normal(n)):
            P = np.eye(n) - np.outer(v, v) / (v @ v)
            assert tau(v, A, 2).value == pytest.approx(induced_pnorm(P @ A, 2), rel=1e-14)
