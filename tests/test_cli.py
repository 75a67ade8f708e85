import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ergo import tau
from ergo.cli import main

A22_CSV = "0.5,0.5\n0.25,0.75\n"


@pytest.fixture
def a22(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text(A22_CSV)
    return p


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_tau_command(a22, capsys):
    code, report = run_cli(capsys, "tau", str(a22), "--p", "1", "--anchor", "ones")
    assert code == 0
    assert abs(report["result"]["value"] - 0.25) < 1e-15
    assert report["result"]["dobrushin"]["halfsum"] == 0.25
    assert report["residuals"]["dobrushin_cross_formula"] == 0.0
    assert report["command"] == "tau"
    assert report["version"]


def test_tau_consensus_zero(tmp_path, capsys):
    p = tmp_path / "c.csv"
    p.write_text("0.5,0.5\n0.5,0.5\n")
    code, report = run_cli(capsys, "tau", str(p), "--p", "1")
    assert code == 0
    assert report["result"]["value"] < 1e-14


def test_tau_ragged_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("0.5,0.5\n0.25\n")
    code, _ = run_cli(capsys, "tau", str(p), "--p", "1")
    assert code == 2


def test_tau_non_finite_exits_2(tmp_path, capsys):
    for name, text in (("nan.csv", "0.5,nan\n0.5,0.5\n"), ("inf.csv", "0.5,inf\n0.5,0.5\n"),
                       ("nan.json", "[[0.5, NaN], [0.5, 0.5]]")):
        p = tmp_path / name
        p.write_text(text)
        code, report = run_cli(capsys, "tau", str(p), "--p", "inf")
        assert code == 2
        assert report is None


def test_tau_stationary_anchor(a22, capsys):
    code, report = run_cli(capsys, "tau", str(a22), "--p", "2", "--anchor", "stationary")
    assert code == 0
    assert report["result"]["route"] == "projector-form"


def test_seminorm_command(a22, capsys):
    code, report = run_cli(capsys, "seminorm", str(a22), "--weight", "agreement", "--p", "inf")
    assert code == 0
    assert abs(report["result"]["value"] - 0.25) < 1e-12
    code, report = run_cli(capsys, "seminorm", str(a22), "--weight", "incidence", "--p", "inf")
    assert abs(report["result"]["value"] - 0.25) < 1e-12


def test_seminorm_incidence_l1_cap(tmp_path, capsys):
    n = 7
    M = np.full((n, n), 1.0 / n)
    p = tmp_path / "big.csv"
    p.write_text("\n".join(",".join(str(x) for x in row) for row in M) + "\n")
    code, _ = run_cli(capsys, "seminorm", str(p), "--weight", "incidence", "--p", "1")
    assert code == 3


def test_seminorm_incidence_inf_beyond_oracle_cap(tmp_path, capsys):
    # J/7 - I/2 has every row sum 1/2 but negative entries: invariant, not a
    # chain, and past the n <= 5 oracle cap; the closed form tau_1(1, A) answers
    n = 7
    M = np.full((n, n), 1.0 / n) - 0.5 * np.eye(n)
    p = tmp_path / "shifted.csv"
    p.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in M) + "\n")
    code, report = run_cli(capsys, "seminorm", str(p), "--weight", "incidence", "--p", "inf")
    assert code == 0
    assert report["result"]["value"] == 0.5


def test_seminorm_factored(a22, tmp_path, capsys):
    s = tmp_path / "s.csv"
    s.write_text("2.0,0.0\n0.0,1.0\n")
    v = tmp_path / "v.csv"
    v.write_text("1.0,1.0\n")
    code, report = run_cli(capsys, "seminorm", str(a22), "--weight", f"factored:{s}",
                           "--p", "2", "--anchor", f"file:{v}")
    assert code == 0
    assert report["result"]["weight"] == "factored"


def _write_csv(path, rows):
    path.write_text("\n".join(",".join(repr(float(x)) for x in np.atleast_1d(row))
                              for row in np.atleast_2d(rows)) + "\n")
    return path


def test_tau_file_anchor_matches_oracle(tmp_path, capsys):
    # a general anchor, with a zero entry, through the p = 1 pair kernel
    from ergo import oracle_tau
    local = np.random.default_rng(31)
    M = local.standard_normal((5, 4))
    v = local.standard_normal(5)
    v[2] = 0.0
    M[2] *= 0.1  # a pair of rows, not the freed row, attains the value
    a = _write_csv(tmp_path / "m.csv", M)
    f = _write_csv(tmp_path / "v.csv", v)
    code, report = run_cli(capsys, "tau", str(a), "--p", "1", "--anchor", f"file:{f}")
    assert code == 0
    assert abs(report["result"]["value"] - oracle_tau(v, M, 1).value) <= 1e-9
    assert "dobrushin" not in report["result"]


def test_tau_file_anchor_far_below_one(tmp_path, capsys):
    # v v^T underflowed in P_v at 2^-540 and the projector anchor was
    # refused; the anchor's scale moves no bit of tau
    local = np.random.default_rng(0)
    B = local.uniform(-1.0, 1.0, (5, 5))
    v = local.standard_normal(5)
    a = _write_csv(tmp_path / "b.csv", B)
    f = _write_csv(tmp_path / "v.csv", np.ldexp(v, -540))
    code, report = run_cli(capsys, "tau", str(a), "--p", "2", "--anchor", f"file:{f}")
    assert code == 0
    assert report["result"]["value"] == tau(v, B, 2).value


def test_tau_non_chain_has_no_dobrushin_block(tmp_path, capsys):
    a = _write_csv(tmp_path / "signed.csv", [[1.0, -1.0], [0.5, 0.5]])
    code, report = run_cli(capsys, "tau", str(a), "--p", "1")
    assert code == 0
    assert report["result"]["value"] == 1.0  # ||A_0 - A_1||_1 / 2
    assert "dobrushin" not in report["result"]
    assert report["residuals"] == {}


def test_seminorm_pv_weight_matches_oracle(tmp_path, capsys):
    # ker P_v = span(v) is A-invariant, so the closed form answers
    from ergo import SeminormWeight, oracle_weighted_seminorm
    local = np.random.default_rng(37)
    v = local.uniform(0.5, 2.0, 4)
    B = local.standard_normal((4, 4))
    M = B - np.outer(B @ v - 0.7 * v, v) / (v @ v)
    a = _write_csv(tmp_path / "m.csv", M)
    f = _write_csv(tmp_path / "v.csv", v)
    for p in ("1", "inf"):
        code, report = run_cli(capsys, "seminorm", str(a), "--weight", f"pv:{f}", "--p", p)
        assert code == 0
        assert report["result"]["weight"] == "orthogonal"
        expected = oracle_weighted_seminorm(M, SeminormWeight.orthogonal(v), p).value
        assert abs(report["result"]["value"] - expected) <= 1e-9
        assert report["residuals"]["kernel_invariance"] < 1e-12


def test_seminorm_pv_weight_non_invariant_past_the_oracle_cap_exits_0(tmp_path, capsys,
                                                                       monkeypatch):
    # ker P_v is not A-invariant at n = 7: A P_v takes A's place in the
    # closed form, which answers past the oracle's n <= 5 cap
    import ergo.oracle
    from ergo import SeminormWeight, oracle_weighted_seminorm
    local = np.random.default_rng(41)
    v = local.uniform(0.5, 2.0, 7)
    M = local.uniform(-1.0, 1.0, (7, 7))
    a = _write_csv(tmp_path / "m.csv", M)
    f = _write_csv(tmp_path / "v.csv", v)
    monkeypatch.setattr(ergo.oracle, "WEIGHT_DIMENSION_CAP", 7)
    for p in ("1", "inf"):
        code, report = run_cli(capsys, "seminorm", str(a), "--weight", f"pv:{f}", "--p", p)
        assert code == 0
        assert report["residuals"]["kernel_invariance"] > 1e-8
        expected = oracle_weighted_seminorm(M, SeminormWeight.orthogonal(v), p).value
        assert report["result"]["value"] == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_seminorm_pv_weight_at_an_extreme_anchor_scale_exits_0(tmp_path, capsys):
    # v v^T / (v^T v) overflowed on an anchor at 2^600: p = 1 and inf
    # reported nan and p = 2 raised a cross-check error
    local = np.random.default_rng(43)
    v = local.uniform(0.5, 2.0, 4)
    a = _write_csv(tmp_path / "m.csv", local.uniform(-1.0, 1.0, (4, 4)))
    plain, huge = _write_csv(tmp_path / "v.csv", v), _write_csv(tmp_path / "h.csv", np.ldexp(v, 600))
    for p in ("1", "2", "inf"):
        code, report = run_cli(capsys, "seminorm", str(a), "--weight", f"pv:{huge}", "--p", p)
        assert code == 0
        _, expected = run_cli(capsys, "seminorm", str(a), "--weight", f"pv:{plain}", "--p", p)
        assert (report["result"], report["residuals"]) == (expected["result"],
                                                           expected["residuals"])


def test_seminorm_incidence_l1_past_the_oracle_cap_exits_3(tmp_path, capsys):
    # the incidence weight at p = 1 has no closed form: refused at n = 6
    n = 6
    a = _write_csv(tmp_path / "m.csv", np.full((n, n), 1.0 / n))
    assert main(["seminorm", str(a), "--weight", "incidence", "--p", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ergo: incidence weight with p=1 has no closed form here and the "
                            "brute-force evaluator is capped at n <= 5\n")


def test_unknown_anchor_and_weight_exit_2(a22, tmp_path, capsys):
    s = _write_csv(tmp_path / "s.csv", [[2.0, 0.0], [0.0, 1.0]])
    for argv in (("tau", str(a22), "--anchor", "uniform"),
                 ("seminorm", str(a22), "--weight", "euclid"),
                 ("seminorm", str(a22), "--weight", f"factored:{s}")):
        assert run_cli(capsys, *argv) == (2, None)


def test_mixing_flip_chain(tmp_path, capsys):
    p = tmp_path / "flip.csv"
    p.write_text("0.75,0.25\n0.25,0.75\n")
    code, report = run_cli(capsys, "mixing", str(p), "--eps", "0.01")
    assert code == 0
    assert report["result"]["t_mix"] == 6
    assert len(report["result"]["trace"]) == 7


def test_mixing_non_primitive_exits_3(tmp_path, capsys):
    p = tmp_path / "eye.csv"
    p.write_text("1.0,0.0\n0.0,1.0\n")
    code, _ = run_cli(capsys, "mixing", str(p), "--eps", "0.1")
    assert code == 3


def test_rho_ess_command(tmp_path, capsys):
    p = tmp_path / "sym.csv"
    p.write_text("0.9,0.1\n0.1,0.9\n")
    code, report = run_cli(capsys, "rho-ess", str(p), "--eps", "1e-3")
    assert code == 0
    assert abs(report["result"]["rho_ess"] - 0.8) < 1e-12
    assert report["result"]["certificate"]["certified_value"] <= 0.801


def test_rho_ess_non_positive_eps_skips_certificate(tmp_path, capsys):
    p = tmp_path / "sym.csv"
    p.write_text("0.9,0.1\n0.1,0.9\n")
    for eps in ("0", "nan"):
        code, report = run_cli(capsys, "rho-ess", str(p), "--eps", eps)
        assert code == 0
        assert report["result"]["certificate"] is None
        assert report["result"]["certificate_skipped"] == "epsilon must be positive"


def test_rho_ess_non_primitive_still_reports(tmp_path, capsys):
    for name, text in (("eye.csv", "1.0,0.0\n0.0,1.0\n"), ("nilpotent.csv", "0.0,1.0\n0.0,0.0\n")):
        p = tmp_path / name
        p.write_text(text)
        code, report = run_cli(capsys, "rho-ess", str(p))
        assert code == 0
        assert report["result"]["rho_ess"] == 0.0
        assert report["result"]["certificate"] is None


def test_rho_ess_rotating_chain_skips_certificate(tmp_path, capsys):
    # the conjugate pair -0.35 +- 0.35 sqrt(3) i puts the eigenbasis weight
    # at 0.35 (1 + sqrt(3)) = 0.956..., above rho_ess + eps = 0.701
    p = tmp_path / "rot3.csv"
    p.write_text("0.1,0.8,0.1\n0.1,0.1,0.8\n0.8,0.1,0.1\n")
    code, report = run_cli(capsys, "rho-ess", str(p))
    assert code == 0
    assert report["result"]["certificate"] is None
    assert "0.95621778" in report["result"]["certificate_skipped"]


def test_certify_directory(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    (d / "a.csv").write_text(A22_CSV)
    (d / "b.csv").write_text("0.75,0.25\n0.5,0.5\n")
    code, report = run_cli(capsys, "certify", str(d), "--p", "inf")
    assert code == 0
    assert len(report["result"]["per_step"]) == 2
    assert report["result"]["rate"] == max(report["result"]["per_step"])


def test_certify_with_trajectory(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    (d / "a.csv").write_text(A22_CSV)
    x0 = tmp_path / "x0.csv"
    x0.write_text("1.0,0.0\n")
    code, report = run_cli(capsys, "certify", str(d), "--p", "inf", "--x0", str(x0))
    assert code == 0
    assert report["result"]["bound_satisfied"] is True
    assert report["residuals"]["trajectory_bound_overshoot"] == 0.0


def test_certify_empty_directory_exits_2(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    code, _ = run_cli(capsys, "certify", str(d), "--p", "1")
    assert code == 2


SEQ22_JSON = "[[[0.5, 0.5], [0.25, 0.75]]]"
A23_CSV = "0.5,0.25,0.25\n0.2,0.3,0.5\n"


@pytest.mark.parametrize("files, argv, expected", [
    pytest.param({"m.csv": b"\xff\xfe0.5,0.5\n0.5,0.5\n"}, ["tau", "m.csv"], 2,
                 id="non-utf8-matrix"),
    pytest.param({"s.json": b"\xff" + SEQ22_JSON.encode()}, ["certify", "s.json"], 2,
                 id="non-utf8-sequence"),
    pytest.param({"m.json": '{"rows": 1, "cols": 1, "data": 5}'}, ["tau", "m.json"], 2,
                 id="scalar-data"),
    pytest.param({"m.json": '{"rows": 1, "cols": 1, "data": null}'}, ["tau", "m.json"], 2,
                 id="null-data"),
    pytest.param({"m.json": "[[[0.5, 0.5]], [[0.5, 0.5]]]"}, ["tau", "m.json"], 2, id="3-d-list"),
    pytest.param({"m.json": '{"rows": 1, "cols": 1.5, "data": [1.0]}'}, ["tau", "m.json"], 2,
                 id="fractional-cols"),
    pytest.param({"m.csv": "0.5,0.5\n\n0.25,0.75\n"}, ["tau", "m.csv"], 0, id="csv-blank-line"),
    pytest.param({"m.csv": ""}, ["tau", "m.csv"], 2, id="empty-csv"),
    pytest.param({"m.json": '{"rows": 1, "cols": 1}'}, ["tau", "m.json"], 2, id="no-data"),
    pytest.param({"m.json": '{"rows": 0, "cols": 1, "data": []}'}, ["tau", "m.json"], 2,
                 id="zero-rows"),
    pytest.param({"m.json": '{"rows": 1, "cols": 1, "data": ["a"]}'}, ["tau", "m.json"], 2,
                 id="non-numeric-object-data"),
    pytest.param({"m.json": "[]"}, ["tau", "m.json"], 2, id="empty-list"),
    pytest.param({"m.json": "[1, 2]"}, ["tau", "m.json"], 2, id="flat-list"),
    pytest.param({"m.json": '[["a"]]'}, ["tau", "m.json"], 2, id="non-numeric-list"),
    pytest.param({"m.json": "5"}, ["tau", "m.json"], 2, id="json-scalar"),
    pytest.param({"m.json": "[[0.5,"}, ["tau", "m.json"], 2, id="matrix-bad-json"),
    pytest.param({"m.csv": A22_CSV, "v.csv": A22_CSV}, ["tau", "m.csv", "--anchor", "file:v.csv"],
                 2, id="matrix-as-anchor"),
    pytest.param({}, ["certify", "missing.json"], 2, id="certify-missing-path"),
    pytest.param({"s.json": "[[[0.5, 0.5]"}, ["certify", "s.json"], 2, id="sequence-bad-json"),
    pytest.param({"s.json": "[]"}, ["certify", "s.json"], 2, id="empty-sequence"),
    pytest.param({"s.json": SEQ22_JSON, "x0.csv": "1.0,0.0,0.0\n"},
                 ["certify", "s.json", "--x0", "x0.csv"], 3, id="x0-length"),
    pytest.param({"m.csv": A23_CSV}, ["rho-ess", "m.csv"], 3, id="rho-ess-non-square"),
    pytest.param({"m.csv": A23_CSV}, ["mixing", "m.csv", "--eps", "0.1"], 3,
                 id="mixing-non-square"),
    pytest.param({}, ["verify", "--suite", "mixing", "--trials", "1", "--seed", "-1"], 2,
                 id="verify-negative-seed"),
    pytest.param({"m.csv": A22_CSV, "v.csv": "1.0,2.0\n"},
                 ["seminorm", "m.csv", "--weight", "agreement", "--anchor", "file:v.csv"], 2,
                 id="seminorm-anchor-without-factored"),
])
def test_input_refusals_exit_with_one_message(files, argv, expected, tmp_path, capsys,
                                              monkeypatch):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == expected
    if expected == 0:
        assert err == "" and json.loads(out)["result"]["value"] == 0.25
    else:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ergo: ")


def test_verify_command_and_determinism(capsys):
    code = main(["verify", "--suite", "incidence", "--trials", "8", "--seed", "7"])
    out1 = capsys.readouterr().out
    assert code == 0
    code = main(["verify", "--suite", "incidence", "--trials", "8", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    report = json.loads(out1)
    assert report["result"]["pass"] is True


def test_verify_conjecture_reports_gaps(capsys):
    code, report = run_cli(capsys, "verify", "--suite", "conjecture", "--trials", "9", "--seed", "1")
    assert code == 0
    assert "p1_gap" in report["result"]["measurements"]


def test_verify_zero_trials_exits_2(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "oblique", "--trials", "0")
    assert code == 2


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("ERGO_SEED", "11")
    code, report = run_cli(capsys, "verify", "--suite", "mixing", "--trials", "5")
    assert code == 0
    assert report["result"]["seed"] == 11


def test_invalid_env_seed_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ERGO_SEED", "abc")
    code = main(["verify", "--suite", "mixing", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "ergo: ERGO_SEED must be an integer, got 'abc'\n"


def test_negative_env_seed_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ERGO_SEED", "-3")
    code = main(["verify", "--suite", "mixing", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "ergo: ERGO_SEED must be non-negative, got '-3'\n"


def test_cached_parser_carries_no_state(a22, capsys):
    from ergo.cli import build_parser
    assert build_parser() is build_parser()
    main(["tau", str(a22)])
    first = capsys.readouterr().out
    assert main(["tau", str(a22), "--p", "inf"]) == 0
    with pytest.raises(SystemExit) as e:
        main(["tau"])
    assert e.value.code == 2
    capsys.readouterr()
    main(["tau", str(a22)])
    last = capsys.readouterr().out
    assert json.loads(last)["inputs"]["p"] == json.loads(last)["result"]["p"] == "1"
    assert last == first


def test_reports_are_byte_identical(a22, capsys):
    main(["tau", str(a22), "--p", "1"])
    out1 = capsys.readouterr().out
    main(["tau", str(a22), "--p", "1"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_cross_check_failure_exits_4(a22, capsys, monkeypatch):
    from ergo import CrossCheckError
    import ergo.cli as cli

    def boom(args):
        raise CrossCheckError("routes disagreed")

    # main looks cmd_tau up in the module when it dispatches, so patching
    # the module attribute reroutes dispatch
    monkeypatch.setattr(cli, "cmd_tau", boom)
    code = cli.main(["tau", str(a22)])
    capsys.readouterr()
    assert code == 4


def test_verify_suite_failure_exits_4(capsys, monkeypatch):
    import ergo.cli as cli
    failing = {"suite": "equivalence", "trials": 1, "seed": 0, "checks": {},
               "measurements": {}, "pass": False}
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: failing)
    code = cli.main(["verify", "--suite", "equivalence", "--trials", "1", "--seed", "0"])
    capsys.readouterr()
    assert code == 4


def test_float_round_trip_exact(a22, capsys):
    import ergo
    code = main(["tau", str(a22), "--p", "2"])
    raw = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(raw)["result"]["value"]
    expected = ergo.tau(np.ones(2), np.array([[0.5, 0.5], [0.25, 0.75]]), 2).value
    assert parsed == expected  # 17 significant digits round-trip doubles exactly


NEAR_TOLERANCE = np.array([[0.5, 0.5 + 1.4e-10, -0.5e-10], [0.2, 0.3, 0.5], [0.1, 0.6, 0.3]])


def test_seminorm_incidence_near_row_tolerance_exits_0(tmp_path, capsys):
    from ergo import INF, SeminormWeight, oracle_weighted_seminorm, tau
    p = tmp_path / "near.csv"
    p.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in NEAR_TOLERANCE))
    code, report = run_cli(capsys, "seminorm", str(p), "--weight", "incidence", "--p", "inf")
    assert code == 0
    # the kernel residual, about 1e-10, is below KERNEL_INVARIANCE_TOL: the
    # closed form answers, within 1.5 times the row-sum spread of the oracle
    value = report["result"]["value"]
    assert value == tau(np.ones(3), NEAR_TOLERANCE, 1).value
    oracle = oracle_weighted_seminorm(NEAR_TOLERANCE, SeminormWeight.incidence(3), INF).value
    assert abs(value - oracle) <= 1.5 * np.ptp(NEAR_TOLERANCE.sum(axis=1))


def _count_calls(monkeypatch, fn):
    """Route every ergo module's reference to fn through a call counter."""
    import sys
    calls = []

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ergo" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def _count_stochastic_builds(monkeypatch):
    from ergo import StochasticMatrix
    calls = []
    real = StochasticMatrix.__init__

    def counted(self, matrix):
        calls.append(1)
        real(self, matrix)
    monkeypatch.setattr(StochasticMatrix, "__init__", counted)
    return calls


def test_each_chain_is_accepted_once(a22, capsys, monkeypatch):
    for argv in (["tau", str(a22), "--p", "1", "--anchor", "stationary"],
                 ["seminorm", str(a22), "--weight", "qw"]):
        with monkeypatch.context() as m:
            builds = _count_stochastic_builds(m)
            code, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(builds) == 1, argv


def test_tau_runs_the_overlap_form_once(a22, capsys, monkeypatch):
    from ergo.ergodicity import _overlap_form
    calls = _count_calls(monkeypatch, _overlap_form)
    code, report = run_cli(capsys, "tau", str(a22), "--p", "1")
    assert code == 0
    assert report["result"]["dobrushin"]["minsum"] == 0.25
    assert len(calls) == 1


def test_rho_ess_decomposes_once(tmp_path, capsys, monkeypatch):
    from ergo.linalg import _boolean_primitive, eigendecompose
    decompositions = _count_calls(monkeypatch, eigendecompose)
    primitivity_tests = _count_calls(monkeypatch, _boolean_primitive)
    p = tmp_path / "sym.csv"
    p.write_text("0.9,0.1\n0.1,0.9\n")
    code, report = run_cli(capsys, "rho-ess", str(p))
    assert code == 0 and report["result"]["certificate"] is not None
    assert len(decompositions) == 1
    assert len(primitivity_tests) == 1


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _fresh_python(*args):
    """Run a new interpreter that imports ergo from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=False, timeout=120)


def test_fresh_import_defers_the_lp_stack():
    import ergo
    script = """
import sys
import numpy as np
import ergo, ergo.cli
lp = ("scipy.optimize", "scipy.sparse")
print([m in sys.modules for m in lp])
A = np.array([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
value = ergo.deflated_norm(np.ones(3), A, ergo.INF).value
print([m in sys.modules for m in lp])
print(repr(value))
"""
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    A = np.array([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
    expected = ergo.deflated_norm(np.ones(3), A, ergo.INF).value
    assert proc.stdout.splitlines() == ["[False, False]", "[True, True]", repr(expected)]


def test_python_m_ergo_cli_matches_in_process(a22, capsys):
    proc = _fresh_python("-m", "ergo.cli", "tau", str(a22), "--p", "1")
    assert proc.returncode == 0, proc.stderr
    assert main(["tau", str(a22), "--p", "1"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_tau_past_the_float_range_is_inf_without_a_warning(tmp_path):
    # scaling the value back by its power of two overflowed in np.ldexp,
    # whose RuntimeWarning reached stderr ahead of the report
    p = tmp_path / "huge.csv"
    p.write_text("1.7e308,-1.7e308\n-1.7e308,1.7e308\n")
    for exponent in ("1", "2"):
        proc = _fresh_python("-m", "ergo.cli", "tau", str(p), "--p", exponent)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["result"]["value"] == "inf"
