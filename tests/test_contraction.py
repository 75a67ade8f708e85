import tracemalloc

import numpy as np
import pytest

from ergo import (INF, PreconditionError, StochasticMatrix, as_sequence, certify_averaging,
                  certify_markov, dobrushin, induced_seminorm, SeminormWeight,
                  simulate_and_check, tau, vector_seminorm)

rng = np.random.default_rng(41)

A22 = [[0.5, 0.5], [0.25, 0.75]]


def random_stochastic(n):
    M = rng.uniform(0.0, 1.0, (n, n)) + 0.05
    return StochasticMatrix(M / M.sum(axis=1, keepdims=True))


def test_certify_consensus_rate_zero():
    n = 3
    consensus = np.full((n, n), 1.0 / n)
    for p in (1, 2, INF):
        cert = certify_averaging([consensus], p)
        assert cert.rate < 1e-12 and cert.contracting


def test_certify_single_matrix():
    cert = certify_averaging([A22], INF)
    assert abs(cert.rate - 0.25) < 1e-12
    assert cert.per_step == [cert.rate]
    assert cert.weight.kind == "agreement"


def test_certify_alternating_pair():
    B = [[0.75, 0.25], [0.5, 0.5]]
    cert = certify_averaging([A22, B], INF)
    s1 = induced_seminorm(np.array(A22), SeminormWeight.agreement(2), INF)
    s2 = induced_seminorm(np.array(B), SeminormWeight.agreement(2), INF)
    assert abs(cert.rate - max(s1, s2)) < 1e-14
    assert len(cert.per_step) == 2


def _chain(local, n, sparse):
    M = local.uniform(0.0, 1.0, (n, n)) ** 3
    if sparse:
        M[local.random((n, n)) < 0.7] = 0.0
    M += 1e-3 * np.eye(n)
    return M / M.sum(axis=1, keepdims=True)


def test_certify_matches_per_step_seminorms_bit_for_bit():
    local = np.random.default_rng(43)
    for n in (2, 3, 8, 40):
        W = SeminormWeight.agreement(n)
        for K in (1, 2, 7, 33):
            for sparse in (False, True):
                seq = [StochasticMatrix(_chain(local, n, sparse)) for _ in range(K)]
                for p in (1, 2, INF):
                    cert = certify_averaging(seq, p)
                    expected = [induced_seminorm(S.matrix, W, p) for S in seq]
                    assert [repr(s) for s in cert.per_step] == [repr(s) for s in expected]
                    assert repr(cert.rate) == repr(max(expected))


def test_certify_long_sequence_memory_bounded_by_chunk():
    # the 2000 steps at n = 20 hold 6.4 MB; the certificate stacks a chunk at a time
    local = np.random.default_rng(47)
    seq = as_sequence([_chain(local, 20, False) for _ in range(2000)])
    for p in (1, 2, INF):
        tracemalloc.start()
        try:
            cert = certify_averaging(seq, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cert.per_step) == 2000
        assert peak < 2 * 2 ** 20, p


def test_certify_rejects_bad_sequences():
    with pytest.raises(PreconditionError):
        certify_averaging([], INF)
    with pytest.raises(PreconditionError):
        certify_averaging([A22, np.full((3, 3), 1.0 / 3.0)], 1)


def test_simulate_consensus_subspace():
    n = 4
    seq = [random_stochastic(n) for _ in range(5)]
    out = simulate_and_check(seq, 0.7 * np.ones(n), 2)
    assert all(s < 1e-12 for s in out["trajectory_seminorms"])
    assert out["bound_satisfied"]


def test_simulate_one_step_consensus():
    n = 3
    consensus = np.full((n, n), 1.0 / n)
    out = simulate_and_check([consensus], [1.0, 0.0, 0.0], INF)
    assert out["trajectory_seminorms"][1] < 1e-14
    assert out["bound_satisfied"]


def test_trajectory_bound_random_sequences():
    for _ in range(40):
        n = int(rng.integers(2, 7))
        seq = [random_stochastic(n) for _ in range(int(rng.integers(1, 8)))]
        for p in (1, 2, INF):
            for _ in range(5):
                x0 = rng.uniform(-2.0, 2.0, n)
                out = simulate_and_check(seq, x0, p)
                assert out["bound_satisfied"], (n, p)


def test_certified_rate_is_tight_per_step():
    # the per-step factor is attained by some state, so no smaller rate
    # certifies all one-step transitions
    for _ in range(10):
        n = int(rng.integers(2, 5))
        S = random_stochastic(n)
        cert = certify_averaging([S], INF)
        W = cert.weight
        best = 0.0
        for _ in range(3000):
            x = rng.uniform(-1.0, 1.0, n)
            s0 = vector_seminorm(x, W, INF)
            if s0 < 1e-9:
                continue
            best = max(best, vector_seminorm(S.matrix @ x, W, INF) / s0)
        assert best <= cert.rate + 1e-10
        assert best >= 0.5 * cert.rate


def test_certify_markov():
    sym = StochasticMatrix([[0.75, 0.25], [0.25, 0.75]])
    cert = certify_markov(sym, 2)
    assert abs(cert.rate - 0.5) < 1e-12
    pi = np.array([0.3, 0.7])
    rank_one = StochasticMatrix(np.outer(np.ones(2), pi))
    assert certify_markov(rank_one, 1).rate < 1e-12
    with pytest.raises(PreconditionError):
        certify_markov(StochasticMatrix(np.eye(2)), 1)


def test_markov_trajectory_bound():
    for _ in range(25):
        n = int(rng.integers(2, 7))
        S = random_stochastic(n)
        for p in (1, 2, INF):
            pi0 = np.zeros(n)
            pi0[int(rng.integers(0, n))] = 1.0
            cert = certify_markov(S, p)
            x = pi0
            first = vector_seminorm(x, cert.weight, p)
            for k in range(1, 2 * n + 10):
                x = S.matrix.T @ x
                assert vector_seminorm(x, cert.weight, p) <= cert.rate ** k * first + 1e-10, (n, p, k)


def test_non_contracting_is_reported_not_raised():
    perm = [[0.0, 1.0], [1.0, 0.0]]
    cert = certify_averaging([perm], INF)
    assert cert.rate >= 1.0 - 1e-12
    assert not cert.contracting


def test_product_coefficient_bound():
    for _ in range(15):
        n = int(rng.integers(2, 6))
        seq = [random_stochastic(n) for _ in range(int(rng.integers(2, 6)))]
        prod = np.eye(n)
        for S in seq:
            prod = S.matrix @ prod
        for p in (1, 2, INF):
            total = tau(np.ones(n), prod, p).value
            per = 1.0
            for S in seq:
                per *= tau(np.ones(n), S.matrix, p).value
            assert total <= per + 1e-10


def _one_at_a_time(matrices):
    """The sequence check as a loop over the matrices: the reference for
    `as_sequence`'s errors."""
    if not matrices:
        raise PreconditionError("matrix sequence is empty")
    seq = [StochasticMatrix.of(m) for m in matrices]
    if any(m.n != seq[0].n for m in seq):
        raise PreconditionError("sequence mixes matrix dimensions")
    return seq


def _flags(S):
    return (S.n, S.primitive, S.doubly_stochastic, S.positive_diagonal)


def test_as_sequence_matches_per_matrix_validation():
    local = np.random.default_rng(53)
    n = 7
    periodic = np.roll(np.eye(n), 1, axis=1)
    raw = [_chain(local, n, sparse) for sparse in (False, True, True, False)]
    raw += [periodic, np.full((n, n), 1.0 / n), 0.5 * (np.eye(n) + periodic)]
    # a clamped entry and row sums off 1 within the tolerance
    nudged = _chain(local, n, False)
    nudged[0, 1] += nudged[0, 0]
    nudged[0, 0] = -5e-11
    nudged[1] *= 1.0 + 4e-11
    raw.append(nudged)
    validated = StochasticMatrix(_chain(local, n, True))
    for seq in (raw, [np.asfortranarray(M) for M in raw], [M.tolist() for M in raw],
                raw[:3] + [validated] + raw[3:], [validated, validated]):
        got = as_sequence(seq)
        assert len(got) == len(seq)
        for S, M in zip(got, seq):
            if isinstance(M, StochasticMatrix):
                assert S is M
                continue
            want = StochasticMatrix(M)
            assert S.matrix.tobytes() == want.matrix.tobytes()
            assert S.matrix.flags.c_contiguous and want.matrix.flags.c_contiguous
            assert _flags(S) == _flags(want)
    flags = [_flags(S) for S in as_sequence(raw)]
    assert (n, False, True, False) in flags and (n, True, False, True) in flags
    # the matrix bits do not depend on the input's layout
    for M in raw:
        assert (StochasticMatrix(np.asfortranarray(M)).matrix.tobytes()
                == StochasticMatrix(M).matrix.tobytes())


def test_as_sequence_refusals_match_the_per_matrix_loop():
    good = [[0.5, 0.5], [0.25, 0.75]]
    negative = [[1.1, -0.1], [0.5, 0.5]]
    rows = [[0.5, 0.6], [0.5, 0.5]]
    infinite = [[np.inf, 0.0], [0.5, 0.5]]
    cases = [
        [],
        [good, negative],
        [good, rows],
        [good, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]],
        [good, infinite],
        [good, [[0.5, 0.5], [1.0]]],
        [good, np.full((3, 3), 1.0 / 3.0)],
        [StochasticMatrix(good), np.full((3, 3), 1.0 / 3.0)],
        [good, [0.5, 0.5]],
        # the first failing matrix raises, whichever check fails first
        [good, rows, infinite, negative],
        [good, negative, rows],
        [np.full((3, 3), 1.0 / 3.0), good, rows],
        # a chain with no states
        [np.zeros((0, 0))],
        [good, np.zeros((0, 0))],
    ]
    for seq in cases:
        with pytest.raises(Exception) as expected:
            _one_at_a_time(seq)
        with pytest.raises(type(expected.value)) as got:
            as_sequence(seq)
        assert str(got.value) == str(expected.value), seq
    for seq in ([np.zeros((0, 0))], [good, np.zeros((0, 0))]):
        with pytest.raises(PreconditionError, match="^stochastic matrix must have at least one state$"):
            as_sequence(seq)
