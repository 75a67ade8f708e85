import itertools
import tracemalloc

import numpy as np
import pytest

from ergo import (INF, PreconditionError, StochasticMatrix, distance_to_stationarity,
                  dominant_pair, mixing_time, tau)
from ergo import markov
from ergo.ergodicity import BLOCK_ENTRIES

rng = np.random.default_rng(17)

FLIP = StochasticMatrix([[0.75, 0.25], [0.25, 0.75]])


def random_primitive(n):
    M = rng.uniform(0.0, 1.0, (n, n)) + 0.05
    return StochasticMatrix(M / M.sum(axis=1, keepdims=True))


def test_distance_frozen():
    pi = np.array([0.3, 0.7])
    rank_one = StochasticMatrix(np.outer(np.ones(2), pi))
    assert distance_to_stationarity(rank_one, 1) < 1e-12
    assert abs(distance_to_stationarity(FLIP, 1) - 0.25) < 1e-12
    assert abs(distance_to_stationarity(FLIP, 3) - 0.0625) < 1e-12
    with pytest.raises(PreconditionError):
        distance_to_stationarity(StochasticMatrix(np.eye(2)), 1)
    # a numpy integer gives the int's bits; the time index is never truncated
    assert repr(distance_to_stationarity(FLIP, np.int64(3))) == repr(distance_to_stationarity(FLIP, 3))
    for k in (2.5, 3.0, "3", -1, np.int64(-2), None):
        with pytest.raises(PreconditionError, match="time index must be a nonnegative integer"):
            distance_to_stationarity(FLIP, k)


def test_distance_two_state_closed_form():
    # d(k) = |1-a-b|^k * max(a,b)/(a+b) for the two-state chain
    for _ in range(10):
        a, b = rng.uniform(0.05, 0.95, 2)
        S = StochasticMatrix([[1 - a, a], [b, 1 - b]])
        for k in (0, 1, 2, 5):
            expected = abs(1 - a - b) ** k * max(a, b) / (a + b)
            # pi carries the 1e-12 stationary residual, so allow a bit more
            assert abs(distance_to_stationarity(S, k) - expected) < 1e-11


def test_mixing_frozen():
    report = mixing_time(FLIP, 0.01)
    assert report.t_mix == 6
    assert len(report.trace) == 7
    assert report.trace[0][0] == 0
    assert all(0.0 <= d <= 1.0 for _, d in report.trace)
    assert report.trace[-1][1] <= 0.01 < report.trace[-2][1]


def test_mixing_boundary_cases():
    pi = np.array([0.3, 0.7])
    rank_one = StochasticMatrix(np.outer(np.ones(2), pi))
    assert mixing_time(rank_one, 0.1).t_mix == 1
    d0 = distance_to_stationarity(FLIP, 0)
    assert mixing_time(FLIP, min(0.99, d0 + 1e-6)).t_mix == 0
    with pytest.raises(PreconditionError):
        mixing_time(FLIP, 0.0)
    with pytest.raises(PreconditionError):
        mixing_time(StochasticMatrix(np.eye(3)), 0.1)


def test_mixing_cap(monkeypatch):
    eps = 1e-9
    slow = StochasticMatrix([[1 - eps, eps], [eps, 1 - eps]])
    monkeypatch.setattr(markov, "MIXING_CAP", 50)
    with pytest.raises(PreconditionError, match="exceeds the cap 50"):
        mixing_time(slow, 0.01)


def test_mixing_trace_monotone_and_consistent():
    for _ in range(10):
        S = random_primitive(int(rng.integers(2, 7)))
        report = mixing_time(S, 0.05)
        ds = [d for _, d in report.trace]
        assert all(ds[i + 1] <= ds[i] + 1e-12 for i in range(len(ds) - 1))
        for k, d in report.trace[:4]:
            assert abs(d - distance_to_stationarity(S, k)) < 1e-10
        # the ergodicity coefficient halves never exceed the distance
        assert report.identity_residual >= 0.0


def test_distance_long_horizon_drift_control():
    S = random_primitive(5)
    d = distance_to_stationarity(S, 400)
    assert 0.0 <= d < 1e-12


def lazy_cycle(n):
    C = 0.5 * np.eye(n)
    for i in range(n):
        C[i, (i + 1) % n] += 0.25
        C[i, (i - 1) % n] += 0.25
    return StochasticMatrix(C)


def _per_step_scan(S, epsilon, drift_tol=1e-12, powers=None):
    """mixing_time with one tau_inf call per step, as the definition reads,
    renormalizing the rows of a power whose row sums drift past drift_tol;
    each power A^0..A^t_mix is appended to `powers` when one is given."""
    _, pi = dominant_pair(S)
    Ak = np.eye(S.n)
    trace, residual, k = [], 0.0, 0
    while True:
        if powers is not None:
            powers.append(Ak)
        d = 0.5 * float(np.max(np.sum(np.abs(Ak - pi[None, :]), axis=1)))
        trace.append((k, d))
        residual = max(residual, abs(d - 0.5 * tau(pi, Ak.T, INF).value))
        if d <= epsilon:
            return k, trace, residual
        Ak = Ak @ S.matrix
        sums = Ak.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > drift_tol:
            Ak = Ak / sums[:, None]
        k += 1


def test_mixing_time_matches_per_step_scan():
    # the residual is batched over chunks of steps; every chunk boundary,
    # including several flushes before t_mix on the larger cycles, must give
    # the same bits as one coefficient per step
    local = np.random.default_rng(23)
    chains = [(lazy_cycle(n), 0.01) for n in range(3, 31)]
    for _ in range(30):
        n = int(local.integers(2, 26))
        M = local.uniform(0.0, 1.0, (n, n)) ** 4
        M[local.random((n, n)) < 0.6] = 0.0
        M += 0.05 * np.eye(n) + 0.01 * np.roll(np.eye(n), 1, axis=1)
        chains.append((StochasticMatrix(M / M.sum(axis=1, keepdims=True)),
                       float(local.choice([0.25, 0.01, 1e-4]))))
    flushes = 0
    for S, eps in chains:
        report = mixing_time(S, eps)
        t_mix, trace, residual = _per_step_scan(S, eps)
        assert report.t_mix == t_mix
        assert repr(report.trace) == repr(trace)
        assert repr(report.identity_residual) == repr(residual)
        flushes = max(flushes, (t_mix + 1) // max(1, BLOCK_ENTRIES // S.n ** 2))
    assert flushes > 10


def test_mixing_time_renormalized_steps(monkeypatch):
    # at DRIFT_TOL = 1e-12 the row sums of these chains never drift enough
    # to renormalize; at 0.0 most steps do, in the scan and in the replay
    # of identity_residual, which must still give the per-step bits.  The
    # residual's maximum often falls on a step that is not renormalized, so
    # the powers the replay hands the kernel are compared as well
    seen = []

    def recording(v, As, p):
        seen.append(As.transpose(0, 2, 1).copy())
        return tau_values(v, As, p)

    divided = []

    def renormalizing(M):
        before = M.copy()
        out = renormalize(M)
        divided.append(not np.array_equal(out, before))
        return out

    tau_values = markov._tau_values
    renormalize = markov._renormalize_rows
    monkeypatch.setattr(markov, "_tau_values", recording)
    monkeypatch.setattr(markov, "_renormalize_rows", renormalizing)
    monkeypatch.setattr(markov, "DRIFT_TOL", 0.0)
    local = np.random.default_rng(31)
    chains = [lazy_cycle(n) for n in (4, 7, 12, 20)]
    for _ in range(12):
        n = int(local.integers(2, 13))
        M = local.uniform(0.0, 1.0, (n, n)) ** 3 + 0.01
        chains.append(StochasticMatrix(M / M.sum(axis=1, keepdims=True)))
    renormalized = 0
    for S in chains:
        for eps in (0.25, 1e-2, 1e-4):
            del divided[:]
            report = mixing_time(S, eps)
            # the chains whose scan renormalized some power
            renormalized += any(divided)
            powers = []
            t_mix, trace, residual = _per_step_scan(S, eps, drift_tol=0.0, powers=powers)
            assert report.t_mix == t_mix
            assert repr(report.trace) == repr(trace)
            del seen[:]
            assert repr(report.identity_residual) == repr(residual)
            assert np.array_equal(np.concatenate(seen), np.array(powers))
    assert renormalized >= 24


def test_scan_skips_only_the_checks_that_cannot_fire(monkeypatch):
    # `_scan` checks the row sums only where its drift bound allows them to
    # pass DRIFT_TOL: the lazy 20-cycle mixes without one check, and at
    # tolerances the row sums do pass, where some checks are skipped and
    # some divide, every power has the bits of a check at each step
    checks = []
    renormalize = markov._renormalize_rows

    def counted(M):
        before = M.copy()
        out = renormalize(M)
        checks.append(not np.array_equal(out, before))
        return out

    monkeypatch.setattr(markov, "_renormalize_rows", counted)
    assert mixing_time(lazy_cycle(20), 0.01).t_mix == 168
    assert checks == []
    local = np.random.default_rng(37)
    chains = []
    for _ in range(8):
        # lazy sparse chains that take 60-500 steps to reach 1e-4
        n = int(local.integers(2, 26))
        M = (0.6 * np.eye(n) + local.uniform(0.0, 1.0, (n, n)) ** 3 * (local.random((n, n)) < 0.3)
             + 0.01 * np.roll(np.eye(n), 1, axis=1))
        chains.append(StochasticMatrix(M / M.sum(axis=1, keepdims=True)))
    skipped = divided = 0
    for tol in (5e-15, 1e-14):
        monkeypatch.setattr(markov, "DRIFT_TOL", tol)
        for S in chains:
            powers = []
            t_mix, _, _ = _per_step_scan(S, 1e-4, drift_tol=tol, powers=powers)
            del checks[:]
            scanned = list(itertools.islice(markov._scan(S.matrix), t_mix + 1))
            assert np.array_equal(np.array(scanned), np.array(powers))
            skipped += t_mix - len(checks)
            divided += sum(checks)
    assert skipped > 0 and divided > 0


def test_mixing_time_memory_bounded_by_chunk():
    # holding every power of the lazy 40-cycle up to t_mix would take 8.6 MB;
    # the scan keeps one power and the residual's rescan one chunk
    S = lazy_cycle(40)
    tracemalloc.start()
    try:
        report = mixing_time(S, 0.01)
        residual = report.identity_residual
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.t_mix == 673
    assert residual >= 0.0
    assert peak < 2 * 2 ** 20


def test_identity_residual_is_computed_on_read(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return tau_values(*args)

    tau_values = markov._tau_values
    monkeypatch.setattr(markov, "_tau_values", counted)
    for S, eps in ((lazy_cycle(12), 0.01), (lazy_cycle(30), 0.01), (FLIP, 0.3),
                   (random_primitive(5), 1e-4), (lazy_cycle(100), 0.25)):
        report = mixing_time(S, eps)
        assert calls == []
        residual = report.identity_residual
        assert len(calls) >= 1
        assert repr(residual) == repr(_per_step_scan(S, eps)[2])
        # the value is kept: a second read rescans nothing
        del calls[:]
        assert report.identity_residual is residual
        assert calls == []


def test_distance_by_binary_powering(monkeypatch):
    renormalized = []

    def counted(M):
        renormalized.append(1)
        return renormalize(M)

    renormalize = markov._renormalize_rows
    monkeypatch.setattr(markov, "_renormalize_rows", counted)
    local = np.random.default_rng(29)
    chains = [lazy_cycle(n) for n in (3, 8, 25)]
    for n in (2, 5, 12):
        M = local.uniform(0.0, 1.0, (n, n)) ** 3 + 0.01
        chains.append(StochasticMatrix(M / M.sum(axis=1, keepdims=True)))
    for S in chains:
        _, pi = dominant_pair(S)
        trace = mixing_time(S, 1e-6).trace
        assert len(trace) > 4
        for k, d in trace[:4]:
            # up to A^3 the products are the scan's, bit for bit
            assert repr(distance_to_stationarity(S, k)) == repr(d)
        for k in (0, 1, 2, 3, 4, 5, 7, 8, 50, 1000, 2 ** 17 - 1, 10 ** 6):
            del renormalized[:]
            d = distance_to_stationarity(S, k)
            assert len(renormalized) <= 2 * k.bit_length()
            # unrenormalized, matrix_power's rows drift by some 4e-12 at
            # k = 10^6 on the 2-state chain; one division at the end removes it,
            # into a new array, as matrix_power(M, 1) returns the chain's own M
            plain = np.linalg.matrix_power(S.matrix, k)
            plain = plain / plain.sum(axis=1, keepdims=True)
            assert abs(d - 0.5 * np.abs(plain - pi).sum(axis=1).max()) < 1e-12


def test_mixing_time_reaches_a_small_epsilon(monkeypatch):
    # d(A, k) falls to rounding only with pi exact to rounding: an error of
    # 7e-13 in pi stalls it at 1.9e-13, and the scan refuses at the cap.  A
    # low cap makes such a regression fail in milliseconds
    monkeypatch.setattr(markov, "MIXING_CAP", 3000)
    M = np.random.default_rng(0).uniform(size=(12, 12))
    S = StochasticMatrix(M / M.sum(axis=1, keepdims=True))
    report = mixing_time(S, 1e-13)
    assert report.t_mix == 19
    assert report.trace[-1][1] <= 1e-13 < report.trace[-2][1]
