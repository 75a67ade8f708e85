import numpy as np
import pytest

from ergo import InputFormatError, PreconditionError, ergodicity, run_suite, seminorm
from ergo.verify import SUITES


@pytest.mark.parametrize("name", SUITES)
def test_suites_pass_at_small_trial_counts(name):
    report = run_suite(name, trials=12, seed=3)
    assert report["pass"], report["checks"]
    assert report["suite"] == name
    for check in report["checks"].values():
        assert check["max_residual"] <= check["tolerance"]


def test_suites_are_deterministic():
    a = run_suite("equivalence", trials=10, seed=42)
    b = run_suite("equivalence", trials=10, seed=42)
    assert a == b
    c = run_suite("equivalence", trials=10, seed=43)
    assert c != a


def test_measured_gaps_expose_the_failed_identities():
    # the often-quoted equalities that fail in general leave visibly nonzero
    # gap statistics at these trial counts
    eq = run_suite("equivalence", trials=60, seed=1)
    assert eq["measurements"]["projector_norm_minus_psiinf"]["max"] > 1e-3
    assert eq["measurements"]["psiinf_minus_tau1"]["max"] > 1e-6
    ob = run_suite("oblique", trials=40, seed=1)
    assert ob["measurements"]["deflation_norm_minus_tau"]["max"] > 1e-6
    mix = run_suite("mixing", trials=30, seed=1)
    assert mix["measurements"]["distance_minus_half_tauinf"]["max"] > 1e-6


def test_unknown_suite_and_bad_trials():
    with pytest.raises(PreconditionError):
        run_suite("nope", 5)
    with pytest.raises((InputFormatError, PreconditionError)):
        run_suite("oblique", 0)


def test_run_suite_refuses_malformed_trials_and_seed():
    # a fraction or a string leaked a TypeError, and a negative seed
    # numpy's ValueError; numpy integers pass
    for trials in (2.5, "3"):
        with pytest.raises(PreconditionError, match="^trials must be an integer$"):
            run_suite("oblique", trials)
    with pytest.raises(PreconditionError, match="^seed must be at least 0$"):
        run_suite("oblique", 3, -1)
    for seed in (1.5, "1", None):
        with pytest.raises(PreconditionError, match="^seed must be an integer$"):
            run_suite("oblique", 3, seed)
    assert run_suite("oblique", np.int64(3), np.int64(1)) == run_suite("oblique", 3, 1)


@pytest.mark.parametrize("kernel, q, inflate", [
    ("_column_medians", 1, lambda out: (out[0] * (1 + 1e-8), out[1])),
    ("_spectral_norms", 2, lambda out: out * (1 + 1e-8)),
])
def test_attainment_checks_catch_a_fault_in_the_shared_kernel(monkeypatch, kernel, q, inflate):
    # tau_inf and Psi_1 share the weighted-median kernel, tau_2 and Psi_2 the
    # spectral-norm kernel, so the duality checks read 0 whatever the kernel
    # returns; the attainment check takes the plain induced norm at c_star
    real = getattr(ergodicity, kernel)

    def inflated(*args):
        return inflate(real(*args))

    monkeypatch.setattr(ergodicity, kernel, inflated)
    monkeypatch.setattr(seminorm, kernel, inflated)
    checks = run_suite("equivalence", trials=20, seed=0)["checks"]
    dual = "tauinf_equals_psi1" if q == 1 else "tau2_equals_psi2"
    assert checks[dual]["max_residual"] == 0.0
    assert not checks[f"psi{q}_attained_at_c_star"]["pass"]
    if q == 2:
        # the exact p = 2 oracles catch it as well
        assert not checks["tau2_vs_svd_oracle"]["pass"]
        assert not run_suite("conjecture", trials=20, seed=0)["checks"]["p2_proportionality"]["pass"]


def test_dobrushin_check_catches_a_fault_in_both_forms(monkeypatch):
    # a fault that the half-sum and the overlap form share passes dobrushin's
    # own cross-check; its check against the vertex oracle must fail
    for kernel in ("_tau_l1", "_overlap_form"):
        real = getattr(ergodicity, kernel)
        monkeypatch.setattr(ergodicity, kernel,
                            lambda *args, real=real: real(*args) * (1 + 1e-8))
    checks = run_suite("incidence", trials=20, seed=0)["checks"]
    assert checks["incidence_sup_equals_dobrushin"]["pass"]
    assert not checks["dobrushin_equals_tau1"]["pass"]
