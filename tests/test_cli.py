import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ldpclab
from ldpclab import cli, ensembles, rowdist
from ldpclab.errors import NumericError
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
            "--delta", "0.05", "--eps", "0.1", "--s", "30", "--seed", "0"]
    csv_out = tmp_path / "prof.csv"
    assert run(base + ["--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "lambda,beta_star,phi,alpha"
    assert len(lines) == 4  # floor(0.05 * 60) = 3 weights
    json_out = tmp_path / "prof.json"
    assert run(base + ["--out", str(json_out)]) == 0
    doc = json.loads(json_out.read_text())
    assert doc["s"] == 30 and len(doc["rows"]) == 3


def test_distance_profile_refuses_a_sparsity_with_no_ensemble():
    # 25 does not divide 60, so no s-LDPC code of length 60 exists to certify
    code, err = run_process(["distance-profile", "--field", "2", "--n", "60", "--rate", "1/3",
                             "--delta", "0.05", "--eps", "0.1", "--s", "25", "--seed", "0"])
    assert code == 2, err
    assert err == ("precondition violated: no LDPC ensemble at s = 25, n = 60: s must divide "
                   "n and t = (1-R)*s = 50/3 must be an integer\n")


def test_distance_profile_empirical(tmp_path):
    out = tmp_path / "emp.json"
    argv = ["distance-profile", "--field", "2", "--n", "12", "--rate", "1/3",
            "--delta", "0.1", "--eps", "0.1", "--s", "3", "--empirical",
            "--trials", "5", "--seed", "3", "--out", str(out)]
    assert run(argv) == 0
    doc = json.loads(out.read_text())
    hist = doc["empirical_min_weight_histogram"]
    assert sum(hist.values()) == 5


def test_distance_profile_empirical_past_message_enumeration(tmp_path):
    # n = 90 codes have q^k >= 2^30 messages, past what a brute force
    # enumerates under the 2^24 guard
    out = tmp_path / "emp.json"
    argv = ["distance-profile", "--field", "2", "--n", "90", "--rate", "1/3",
            "--delta", "0.05", "--eps", "0.1", "--s", "6", "--empirical",
            "--trials", "2", "--seed", "1", "--out", str(out)]
    assert run(argv) == 0
    hist = json.loads(out.read_text())["empirical_min_weight_histogram"]
    assert sum(hist.values()) == 2


def min_weight(code):
    return round(ensembles.min_distance(code)[0] * code.n)


def test_distance_profile_sweep_matches_library(tmp_path):
    # code i of each ensemble is the library's draw at seed + i
    out = tmp_path / "emp.json"
    assert run(["distance-profile", "--field", "2", "--n", "24", "--rate", "1/3",
                "--delta", "0.1", "--eps", "0.1", "--s", "6", "--empirical",
                "--trials", "4", "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    params = ensembles.LdpcEnsembleParams(F2, 24, 6, Fraction(1, 3))
    weights = []
    for i in range(4):
        code = ensembles.sample_ldpc(params, 5 + i)
        k = code.dimension
        at_k = ensembles.sample_rlc(24, Fraction(k, 24), F2, 5 + i)
        assert doc["k"][i] == k and at_k.dimension >= k
        assert doc["rlc"][i] == min_weight(ensembles.sample_rlc(24, Fraction(1, 3), F2, 5 + i))
        assert doc["rlc_at_k"][i] == min_weight(at_k)
        weights.append(min_weight(code))
    hist = doc["empirical_min_weight_histogram"]
    assert hist == {str(w): weights.count(w) for w in set(weights)}
    assert list(hist) == sorted(hist, key=int)


def test_sweep_comparison_past_guard_is_null(tmp_path):
    # at n = 108 the LDPC code (k = 39) and the RLC at R = 1/3 (k = 36) have
    # exact minimum distances; the RLC at k = 39 needs more messages than
    # the enumeration guard allows
    out = tmp_path / "emp.json"
    assert run(["distance-profile", "--field", "2", "--n", "108", "--rate", "1/3",
                "--delta", "0.05", "--eps", "0.1", "--s", "6", "--empirical",
                "--trials", "1", "--seed", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == [39] and doc["rlc_at_k"] == [None]
    assert doc["rlc"][0] > 0 and sum(doc["empirical_min_weight_histogram"].values()) == 1


def test_distance_profile_empirical_rejects_csv():
    assert_bad_input(["distance-profile", "--field", "2", "--n", "12", "--rate", "1/3",
                      "--delta", "0.1", "--eps", "0.1", "--s", "3", "--empirical",
                      "--trials", "1", "--format", "csv", "--seed", "0"])


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


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # every line of the sh block under README's "## CLI" exits 0, run in a
    # directory holding the tau.json and m.json files the lines name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    example_tau_file(tmp_path)
    m = np.zeros((24, 2), dtype=np.int64)
    m[[0, 1, 4, 5], 0] = m[[2, 3, 4, 5], 1] = 1
    (tmp_path / "m.json").write_text(json.dumps({"field": {"p": 2, "h": 1}, "rows": m.tolist()}))
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    assert len(lines) == 5
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "ldpclab"
        assert {a for a in argv if a.endswith(".json")} <= {"tau.json", "m.json"}
        assert run(argv) == 0, line


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


@pytest.mark.parametrize("n,ones,s,rate,exact", [
    # 32 blocks of 3 rows; the DP takes about 1 ms
    (96, [[1, 0], [1, 0], [0, 1], [0, 1]], "3", "1/3", 2.006e-07),
    # all 16 vectors of F_2^4, 13 each: the work guard trips
    (208, [[int(b) for b in f"{i:04b}"] for i in range(16)] * 13, "13", "12/13", None),
    # 20 spanning rows of F_2^15: 1351 block compositions, each over ~32768 patterns
    (24, [[int(b == a) for b in range(15)] for a in range(15)]
     + [[int(b in (a, a + 1)) for b in range(15)] for a in range(5)], "3", "1/3", None),
], ids=["admitted", "work-guard", "block-table"])
def test_ldpc_contain_exact_null_only_past_work_guard(tmp_path, n, ones, s, rate, exact):
    rows = ones + [[0] * len(ones[0])] * (n - len(ones))
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"field": {"p": 2, "h": 1}, "rows": rows}))
    out = tmp_path / "lc.json"
    assert run(["ldpc-contain", "--matrix", str(mat), "--s", s, "--rate", rate,
                "--seed", "0", "--out", str(out)]) == 0
    got = json.loads(out.read_text())["exact_probability"]
    assert got == (exact if exact is None else pytest.approx(exact, rel=1e-3))


def test_ldpc_contain_exact_over_f3_counts_rows_per_line(tmp_path):
    def exact(rows):
        mat = tmp_path / "m.json"
        mat.write_text(json.dumps({"field": {"p": 3, "h": 1}, "rows": rows}))
        out = tmp_path / "lc.json"
        assert run(["ldpc-contain", "--matrix", str(mat), "--s", "3", "--rate", "1/3",
                    "--seed", "0", "--out", str(out)]) == 0
        return json.loads(out.read_text())["exact_probability"]

    # five vector types on three lines: rows v and 2v are one row type, so the
    # DP answers, as on the matrix with each row replaced by its line's first
    got = exact([[1, 0]] * 6 + [[2, 0]] * 6 + [[0, 1]] * 6 + [[0, 2]] * 6 + [[0, 0]] * 24)
    assert got is not None and 0 < got < 1
    assert got == exact([[1, 0]] * 12 + [[0, 1]] * 12 + [[0, 0]] * 24)


def test_table_guard_message(tmp_path, capsys):
    rows = np.eye(24, 20, dtype=np.int64)
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"field": {"p": 2, "h": 1}, "rows": rows.tolist()}))
    assert run(["ldpc-contain", "--matrix", str(mat), "--s", "3", "--rate", "1/3",
                "--seed", "0"]) == 3
    # 21 distinct rows: the 20 unit vectors and the zero row
    assert capsys.readouterr().err == (
        "resource guard: table over F_2^20 holds 22020096 cells, "
        "more than TABLE_GUARD = 1000000\n")


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
    # the 25 unit vectors span all of F_2^25: past MAX_SUBSPACES
    tau = rowdist.RowDistribution.from_dict(
        F2, 25, {tuple(int(i == j) for j in range(25)): Fraction(1, 25) for i in range(25)})
    path = tmp_path / "big.json"
    path.write_text(tau.to_json())
    assert run(["threshold", "--tau", str(path), "--seed", "0"]) == 3
    assert "resource guard" in capsys.readouterr().err


def test_threshold_of_a_point_mass_in_a_large_space(tmp_path):
    # rstar enumerates the subspaces of the span, here a line of F_2^25
    tau = rowdist.RowDistribution.from_dict(
        F2, 25, {tuple([1] + [0] * 24): Fraction(1)})
    path, out = tmp_path / "point.json", tmp_path / "t.json"
    path.write_text(tau.to_json())
    assert run(["threshold", "--tau", str(path), "--seed", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["r_star"] == [1, 1] and doc["kernel_rows"] == []


def test_exit_code_numeric_error(monkeypatch, capsys):
    def fail(args):
        raise NumericError("imaginary residue 0.5 in convolution power")
    monkeypatch.setattr(cli, "cmd_sample", fail)
    assert run(["sample", "--field", "2", "--n", "12", "--rate", "1/3", "--seed", "0"]) == 4
    # one line on stderr, no traceback
    assert capsys.readouterr().err == "numeric error: imaginary residue 0.5 in convolution power\n"


def run_process(argv):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr).
    Some inputs hung the CLI before they were refused, so a run that takes
    a minute fails."""
    src = str(Path(ldpclab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "ldpclab.cli", *argv], timeout=60,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stderr


def assert_bad_input(argv):
    code, err = run_process(argv)
    assert code == 2, err
    assert "Traceback" not in err and "precondition" in err
    return err


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


@pytest.mark.parametrize("argv,doc,message", [
    (["threshold", "--tau", "{file}"],
     {"ell": 0, "field": {"p": 2, "h": 1}, "masses": [[[], 1, 1]]}, "ell = 0 must be"),
    (["threshold", "--tau", "{file}"],
     {"ell": 2.0, "field": {"p": 2, "h": 1}, "masses": [[[0, 1], 1, 2], [[1, 0], 1, 2]]},
     "ell = 2.0 must be"),
    (["threshold", "--tau", "{file}"],
     {"ell": True, "field": {"p": 2, "h": 1}, "masses": [[[0], 1, 2], [[1], 1, 2]]},
     "ell = True must be"),
    (["ldpc-contain", "--matrix", "{file}", "--s", "3", "--rate", "1/3"],
     {"field": {"p": 2}, "rows": [[], [], []]}, "ell = 0 must be"),
    # no k/n makes t = (1 - R) 3 integral at n = 8
    (["listdecode", "--field", "2", "--n", "8", "--s", "3", "--alpha", "0.25"],
     None, "no rate k/n admits a code to sweep at n = 8, s = 3"),
    # at n = 1 there is no rate 0 < k/n < 1
    (["threshold", "--tau", "{file}", "--empirical", "--n", "1"],
     {"ell": 1, "field": {"p": 2, "h": 1}, "masses": [[[1], 1, 1]]},
     "no rate k/n admits a code to sweep at n = 1, s = 0"),
    # a field past 2^16 is refused before a primality test or q is computed
    (["sample", "--field", "1000000000000000003", "--n", "12", "--rate", "1/3"], None,
     "q = 1000000000000000003^1 exceeds 65536"),
    (["sample", "--field", "2,100000000", "--n", "12", "--rate", "1/3"], None,
     "q = 2^100000000 exceeds 65536"),
    (["sample", "--field", "2,5000", "--n", "12", "--rate", "1/3"], None,
     "q = 2^5000 exceeds 65536"),
    # entries that an integer cast would truncate to 1, 0 and 1
    (["ldpc-contain", "--matrix", "{file}", "--s", "3", "--rate", "1/3"],
     {"field": {"p": 2}, "rows": [[1.5, 0], [0, 1], [1, 1]]}, "matrix entry is not an integer"),
    (["ldpc-contain", "--matrix", "{file}", "--s", "3", "--rate", "1/3"],
     {"field": {"p": 2}, "rows": [[1e30, 0], [0, 1], [1, 1]]}, "not an integer matrix"),
    (["threshold", "--tau", "{file}"],
     {"ell": 1, "field": {"p": 2, "h": 1}, "masses": [[[0.9], 1, 2], [[1.7], 1, 2]]},
     "(0.9,) is not a vector of integers"),
    # vectors of mixed types are checked before they are sorted
    (["threshold", "--tau", "{file}"],
     {"ell": 1, "field": {"p": 2, "h": 1}, "masses": [[[0], 1, 2], [["a"], 1, 2]]},
     "('a',) is not a vector of integers"),
    # a JSON boolean is no integer, though True == 1
    (["ldpc-contain", "--matrix", "{file}", "--s", "3", "--rate", "1/3"],
     {"field": {"p": 2}, "rows": [[True, False], [False, True], [True, True]]},
     "matrix entry is not an integer"),
    (["threshold", "--tau", "{file}"],
     {"ell": 1, "field": {"p": 2, "h": 1}, "masses": [[[0], 1, 2], [[True], 1, 2]]},
     "(True,) is not a vector of integers"),
    (["threshold", "--tau", "{file}"],
     {"ell": 1, "field": {"p": 2, "h": 1}, "masses": [[[0], True, 2], [[1], 1, 2]]},
     "mass True/2 at (0,) is not a ratio of integers"),
    (["threshold", "--tau", "{file}"],
     {"ell": 1, "field": {"p": 2, "h": True}, "masses": [[[0], 1, 2], [[1], 1, 2]]},
     "p = 2 and h = True must be integers"),
    (["ldpc-contain", "--matrix", "{file}", "--s", "3", "--rate", "1/3"],
     {"field": {"p": 3, "h": True}, "rows": [[1, 0], [0, 1], [1, 1]]},
     "p = 3 and h = True must be integers"),
    # the point mass at the origin spans no dimension: it has no threshold
    (["threshold", "--tau", "{file}"],
     {"ell": 2, "field": {"p": 2, "h": 1}, "masses": [[[0, 0], 1, 1]]},
     "point mass at 0 has d(tau) = 0"),
], ids=["tau-ell-0", "tau-ell-float", "tau-ell-true", "matrix-without-columns",
        "listdecode-no-rate", "threshold-empirical-no-rate", "field-prime-past-2^16",
        "field-degree-1e8", "field-degree-5000", "matrix-fractional-entry",
        "matrix-entry-past-int64", "tau-fractional-entry", "tau-mixed-vector-types",
        "matrix-bool-entries", "tau-bool-entry", "tau-bool-numerator", "tau-field-degree-true",
        "matrix-field-degree-true", "tau-point-mass-at-0"])
def test_bad_input_without_a_code(tmp_path, argv, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if a == "{file}" else a for a in argv]
    assert message in assert_bad_input(argv + ["--seed", "0"])


@pytest.mark.parametrize("out,reason", [
    ("absent/x.json", "No such file or directory"),
    (".", "Is a directory"),
], ids=["out-missing-directory", "out-is-a-directory"])
def test_bad_input_unwritable_out(tmp_path, out, reason):
    path = tmp_path / out
    err = assert_bad_input(["sample", "--field", "2", "--n", "12", "--rate", "1/3", "--s", "3",
                            "--seed", "1", "--out", str(path)])
    assert err == f"precondition violated: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("argv,seed,refused", [
    (["sample", "--field", "2", "--n", "8", "--rate", "1/2"], -1, -1),
    (["sample", "--field", "2", "--n", "8", "--rate", "1/2"], 2 ** 128, 2 ** 128),
    (["listdecode", "--field", "2", "--n", "8", "--s", "4", "--alpha", "0.25", "--trials", "1"],
     -2, -2),
    # the sweep draws code i at seed + i, so the second code's key is 2^128
    (["distance-profile", "--field", "2", "--n", "12", "--rate", "1/3", "--delta", "0.1",
      "--eps", "0.1", "--s", "3", "--empirical", "--trials", "2"], 2 ** 128 - 1, 2 ** 128),
], ids=["sample-seed-negative", "sample-seed-2^128", "listdecode-seed-negative",
        "sweep-seed-past-2^128"])
def test_bad_input_seed_outside_the_philox_key(argv, seed, refused):
    err = assert_bad_input(argv + ["--seed", str(seed)])
    assert err == f"precondition violated: seed {refused} is outside [0, 2^128)\n"


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


def list_size(code):
    return ensembles.max_list_size(code, 0.2).max_list_size


def test_listdecode_sweep_matches_library(tmp_path):
    f3 = field_new(3)
    out = tmp_path / "ld.json"
    assert run(["listdecode", "--field", "3", "--n", "12", "--s", "3", "--alpha", "0.2",
                "--trials", "2", "--seed", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rate_scan"]
    assert [Fraction(*row["rate"]) for row in rows] == [Fraction(1, 3), Fraction(2, 3)]
    for row in rows:
        rate = Fraction(*row["rate"])
        params = ensembles.LdpcEnsembleParams(f3, 12, 3, rate)
        for i in range(2):
            code = ensembles.sample_ldpc(params, 1 + i)
            k = code.dimension
            at_k = ensembles.sample_rlc(12, Fraction(k, 12), f3, 1 + i)
            assert row["k"][i] == k and at_k.dimension >= k
            assert row["max_list_sizes"][i] == list_size(code)
            assert row["rlc"][i] == list_size(ensembles.sample_rlc(12, rate, f3, 1 + i))
            assert row["rlc_at_k"][i] == list_size(at_k)
        assert row["median"] == float(np.median(row["max_list_sizes"]))


def test_sweep_measures_each_code_once(tmp_path, monkeypatch):
    # over F_3 the LDPC code has k = Rn, so the RLC at rate k/n is the one at R
    calls, real = [], ensembles.max_list_size
    monkeypatch.setattr(ensembles, "max_list_size",
                        lambda code, alpha: calls.append(code) or real(code, alpha))
    out = tmp_path / "ld.json"
    assert run(["listdecode", "--field", "3", "--n", "12", "--s", "3", "--alpha", "0.2",
                "--trials", "2", "--seed", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rate_scan"]
    same = [Fraction(k, 12) == Fraction(*row["rate"]) for row in rows for k in row["k"]]
    assert any(same)
    assert len(calls) == sum(3 - at_rate for at_rate in same)


def test_threshold_sweep_matches_library(tmp_path):
    # s = 0: the sweep draws only random linear codes, as `sample --s 0`
    tau = rowdist.RowDistribution.from_dict(
        F2, 1, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    path = tmp_path / "tau.json"
    path.write_text(tau.to_json())
    out = tmp_path / "sweep.json"
    assert run(["threshold", "--tau", str(path), "--empirical", "--n", "16", "--trials", "3",
                "--seed", "4", "--out", str(out)]) == 0
    sweep = json.loads(out.read_text())["empirical_sweep"]
    assert len(sweep) == 12
    for row in sweep:
        assert set(row) == {"rate", "frequency"}
        rate = Fraction(*row["rate"])
        hits = sum(ensembles.has_codeword_of_weight(ensembles.sample_rlc(16, rate, F2, 4 + i), 4)
                   for i in range(3))
        assert row["frequency"] == hits / 3


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
    *[(["ldpc-contain", "--matrix", "m.json", "--s", "3", "--rate", "1/3", "--eps", eps],
       "--eps") for eps in ("nan", "inf", "-1", "2")],
], ids=["alpha-nan", "alpha-negative", "alpha-above-1", "listdecode-trials-0",
        "listdecode-n-0", "listdecode-s-0", "sample-n-negative", "threshold-trials-0",
        "ldpc-contain-s-0", "ldpc-contain-trials-negative", "eps-nan", "eps-inf",
        "eps-negative", "eps-above-1"])
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


@pytest.mark.parametrize("n,message", [
    # each support row tries only the values it holds, not all 65536, so
    # the search exhausts its budget instead of hanging
    (8, "no bad-list distribution found in 200 iterations"),
    # the radius-4 ball is refused before the unit multiples of H^T
    # (48 x 65535 x 36 words) are built
    (48, "the radius-4 ball has 3589153257445956429985981 vectors, more than 16777216"),
], ids=["n8-search-budget", "n48-ball-guard"])
def test_listdecode_over_a_large_field(n, message):
    code, err = run_process(["listdecode", "--field", "2,16", "--n", str(n), "--s", "4",
                             "--alpha", "0.1", "--trials", "1", "--seed", "0"])
    assert code == 3, err
    assert err == f"resource guard: {message}\n"


def test_distance_profile_sparsity_search_exhausted():
    # without --s, ten doublings of the analytic sparsity certify nothing
    code, err = run_process(["distance-profile", "--field", "2", "--n", "60", "--rate", "1/3",
                             "--delta", "0.05", "--eps", "0.01", "--seed", "0"])
    assert code == 3, err
    assert "Traceback" not in err and "resource guard" in err


@pytest.mark.parametrize("flags", [
    ["--delta", "0", "--eps", "0.01"],
    ["--delta", "nan", "--eps", "0.01"],
    ["--delta", "0.05", "--eps", "0"],
    ["--delta", "0.05", "--eps", "-1"],
    ["--delta", "0.05", "--eps", "nan"],
], ids=["delta-0", "delta-nan", "eps-0", "eps-negative", "eps-nan"])
def test_bad_input_distance_profile_without_s(flags):
    # the sparsity search checks delta and eps before it uses them
    assert_bad_input(["distance-profile", "--field", "2", "--n", "60", "--rate", "1/3",
                      *flags, "--seed", "0"])
