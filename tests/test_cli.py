import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ldpclab
from ldpclab import cli, ensembles, rowdist
from ldpclab.gf import field_new

F2 = field_new(2)


def run(argv):
    return cli.main(argv)


def test_sample_deterministic_and_loadable(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["sample", "--field", "2", "--n", "24", "--rate", "1/3",
            "--s", "3", "--seed", "9"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    code = ensembles.LinearCode.from_json(out1.read_text())
    assert code.h.shape == (16, 24)
    assert np.all(np.count_nonzero(code.h, axis=1) == 3)
    # rlc branch
    out3 = tmp_path / "c.json"
    assert run(["sample", "--field", "3", "--n", "9", "--rate", "1/3",
                "--seed", "4", "--out", str(out3)]) == 0
    rlc = ensembles.LinearCode.from_json(out3.read_text())
    assert rlc.h.shape == (6, 9) and rlc.field.q == 3


def test_distance_profile_formats(tmp_path):
    base = ["distance-profile", "--field", "2", "--n", "60", "--rate", "1/3",
            "--delta", "0.05", "--eps", "0.1", "--s", "25", "--seed", "0"]
    csv_out = tmp_path / "prof.csv"
    assert run(base + ["--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "lambda,beta_star,psi,phi,alpha"
    assert len(lines) == 4  # floor(0.05 * 60) = 3 weights
    json_out = tmp_path / "prof.json"
    assert run(base + ["--out", str(json_out)]) == 0
    doc = json.loads(json_out.read_text())
    assert doc["s"] == 25 and len(doc["rows"]) == 3


def test_distance_profile_empirical(tmp_path):
    out = tmp_path / "emp.json"
    argv = ["distance-profile", "--field", "2", "--n", "12", "--rate", "1/3",
            "--delta", "0.1", "--eps", "0.1", "--s", "3", "--empirical",
            "--trials", "5", "--seed", "3", "--out", str(out)]
    assert run(argv) == 0
    doc = json.loads(out.read_text())
    hist = doc["empirical_min_weight_histogram"]
    assert sum(hist.values()) == 5


def example_tau_file(tmp_path):
    tau = rowdist.RowDistribution.from_dict(F2, 3, {
        (1, 0, 0): Fraction(1, 4), (0, 1, 0): Fraction(1, 4),
        (1, 0, 1): Fraction(1, 4), (0, 1, 1): Fraction(1, 4)})
    path = tmp_path / "tau.json"
    path.write_text(tau.to_json())
    return path


def test_threshold_matches_library(tmp_path):
    path = example_tau_file(tmp_path)
    out = tmp_path / "thr.json"
    assert run(["threshold", "--tau", str(path), "--seed", "0",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    tau = rowdist.RowDistribution.from_json(path.read_text())
    rep = rowdist.rstar(tau)
    assert Fraction(*doc["r_expected"]) == rep.r_expected == Fraction(1, 3)
    assert Fraction(*doc["r_star"]) == rep.r_star


def test_ldpc_contain(tmp_path):
    m = np.zeros((24, 2), dtype=np.int64)
    m[:2, 0] = 1
    m[2:4, 1] = 1
    m[4:6] = 1
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps(
        {"field": {"p": 2, "h": 1}, "rows": m.tolist()}))
    out = tmp_path / "lc.json"
    assert run(["ldpc-contain", "--matrix", str(mat), "--s", "3",
                "--rate", "1/3", "--trials", "2000", "--seed", "1",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["log_q_bound"] < 0
    exact = doc["exact_probability"]
    mc = doc["monte_carlo"]
    assert 0 < exact < 2.0 ** doc["log_q_bound"] + 1e-12 or exact <= 1
    se = max(mc["standard_error"], 1e-4)
    assert abs(mc["frequency"] - exact) <= 5 * se


def test_listdecode(tmp_path):
    out = tmp_path / "ld.json"
    assert run(["listdecode", "--field", "2", "--n", "8", "--s", "4",
                "--alpha", "0.25", "--trials", "3", "--seed", "2",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rate_scan"]
    for row in doc["rate_scan"]:
        assert len(row["max_list_sizes"]) == 3
        assert row["median"] >= 1
    # at alpha = 1/4 two columns half a word apart share a center, so the
    # search legitimately reaches 0
    assert 0 <= doc["threshold_upper_estimate"] <= 1


def test_exit_code_precondition(tmp_path, capsys):
    m = np.zeros((24, 2), dtype=np.int64)
    m[:2, 0] = 1
    m[2:4, 1] = 1
    m[4:6] = 1
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"field": {"p": 2}, "rows": m.tolist()}))
    # even sparsity is rejected before any work happens
    assert run(["ldpc-contain", "--matrix", str(mat), "--s", "4",
                "--rate", "1/2", "--seed", "0"]) == 2
    assert "precondition" in capsys.readouterr().err


def test_exit_code_resource_guard(tmp_path, capsys):
    tau = rowdist.RowDistribution.from_dict(
        F2, 25, {tuple([1] + [0] * 24): Fraction(1)})
    path = tmp_path / "big.json"
    path.write_text(tau.to_json())
    assert run(["threshold", "--tau", str(path), "--seed", "0"]) == 3
    assert "resource guard" in capsys.readouterr().err


def run_process(argv):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    src = str(Path(ldpclab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "ldpclab.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stderr


def assert_bad_input(argv):
    code, err = run_process(argv)
    assert code == 2, err
    assert "Traceback" not in err and "precondition" in err


def test_bad_input_masses_do_not_sum_to_one(tmp_path):
    doc = json.loads(example_tau_file(tmp_path).read_text())
    doc["masses"][0][1] = 2  # 2/4 + 3 * 1/4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_bad_input(["threshold", "--tau", str(path), "--seed", "0"])


def test_bad_input_missing_masses_key(tmp_path):
    doc = json.loads(example_tau_file(tmp_path).read_text())
    del doc["masses"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_bad_input(["threshold", "--tau", str(path), "--seed", "0"])


def test_bad_input_matrix_entry_outside_field(tmp_path):
    m = np.zeros((24, 2), dtype=np.int64)
    m[:2, 0] = 1
    m[2:4, 1] = 5
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": {"p": 2, "h": 1}, "rows": m.tolist()}))
    assert_bad_input(["ldpc-contain", "--matrix", str(path), "--s", "3",
                      "--rate", "1/3", "--seed", "0"])


def test_bad_input_missing_file(tmp_path):
    assert_bad_input(["ldpc-contain", "--matrix", str(tmp_path / "absent.json"),
                      "--s", "3", "--rate", "1/3", "--seed", "0"])


def test_bad_input_field_not_an_integer():
    assert_bad_input(["sample", "--field", "abc", "--n", "12", "--rate", "1/3",
                      "--seed", "0"])


def test_bad_input_rate_zero_denominator():
    code, err = run_process(["sample", "--field", "2", "--n", "12", "--rate", "1/0",
                             "--seed", "0"])
    assert code == 2, err
    assert "Traceback" not in err and "--rate" in err


def test_threshold_empirical_rejects_fractional_weight(tmp_path):
    # tau(1) * n = 10/4 is not a weight; truncating it would sweep weight 2
    tau = rowdist.RowDistribution.from_dict(
        F2, 1, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    path = tmp_path / "tau.json"
    path.write_text(tau.to_json())
    assert_bad_input(["threshold", "--tau", str(path), "--empirical", "--n", "10",
                      "--trials", "1", "--seed", "0"])


def test_threshold_empirical_at_default_n(tmp_path):
    # at n = 48 the sweep keeps only rates whose 2^(48 R) codewords can be
    # enumerated, instead of tripping the enumeration guard
    tau = rowdist.RowDistribution.from_dict(
        F2, 1, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    path = tmp_path / "tau.json"
    path.write_text(tau.to_json())
    out = tmp_path / "sweep.json"
    assert run(["threshold", "--tau", str(path), "--empirical", "--trials", "1",
                "--seed", "0", "--out", str(out)]) == 0
    sweep = json.loads(out.read_text())["empirical_sweep"]
    rates = [Fraction(*row["rate"]) for row in sweep]
    assert len(rates) == 12 and max(rates) == Fraction(1, 2)
    assert all(2 ** (r * 48) <= ensembles.ENUM_GUARD for r in rates)


def test_listdecode_past_center_enumeration(tmp_path):
    # q^n = 2^28 centers; the radius-2 balls hold 407 vectors each
    out = tmp_path / "ld.json"
    assert run(["listdecode", "--field", "2", "--n", "28", "--s", "4",
                "--alpha", "0.1", "--trials", "2", "--seed", "0",
                "--out", str(out)]) == 0
    rates = [Fraction(*row["rate"]) for row in json.loads(out.read_text())["rate_scan"]]
    assert rates == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


@pytest.mark.parametrize("argv,flag", [
    (["listdecode", "--field", "2", "--n", "8", "--s", "4", "--alpha", "nan"], "--alpha"),
    (["listdecode", "--field", "2", "--n", "8", "--s", "4", "--alpha", "-0.1"], "--alpha"),
    (["listdecode", "--field", "2", "--n", "8", "--s", "4", "--alpha", "1.5"], "--alpha"),
    (["listdecode", "--field", "2", "--n", "8", "--s", "4", "--alpha", "0.25",
      "--trials", "0"], "--trials"),
    (["listdecode", "--field", "2", "--n", "0", "--s", "4", "--alpha", "0.25"], "--n"),
    (["listdecode", "--field", "2", "--n", "8", "--s", "0", "--alpha", "0.25"], "--s"),
    (["sample", "--field", "2", "--n", "-4", "--rate", "1/2"], "--n"),
    (["threshold", "--tau", "tau.json", "--empirical", "--trials", "0"], "--trials"),
    (["ldpc-contain", "--matrix", "m.json", "--s", "0", "--rate", "1/3"], "--s"),
    (["ldpc-contain", "--matrix", "m.json", "--s", "3", "--rate", "1/3",
      "--trials", "-5"], "--trials"),
], ids=["alpha-nan", "alpha-negative", "alpha-above-1", "listdecode-trials-0",
        "listdecode-n-0", "listdecode-s-0", "sample-n-negative", "threshold-trials-0",
        "ldpc-contain-s-0", "ldpc-contain-trials-negative"])
def test_bad_numeric_input(argv, flag):
    # argument checks run before any file is opened
    code, err = run_process(argv + ["--seed", "0"])
    assert code == 2, err
    assert "Traceback" not in err and flag in err


def test_listdecode_search_budget_exhausted():
    # at alpha = 0 no two distinct columns share a center
    code, err = run_process(["listdecode", "--field", "2", "--n", "8", "--s", "4",
                             "--alpha", "0", "--trials", "1", "--seed", "2"])
    assert code == 3, err
    assert "Traceback" not in err and "resource guard" in err
