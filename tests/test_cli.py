"""End-to-end checks of the command-line surface.

Subcommands run in-process through main(). The oracle properties are
lossless 17-digit CSV round trips, byte-identical reports for a fixed
seed, schema-valid JSON, and the documented exit-code contract.
"""

import json
import re
import warnings
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from symtest import lrt
from symtest.cli import InputError, dumps, main, read_dataset, write_dataset
from symtest.matnormal import SuffStats, sample
from symtest.symcore import CovParams, matrix_exp

SCHEMA = json.loads(
    resources.files("symtest").joinpath("schemas/report.schema.json")
    .read_text())


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_sample_file(tmp_path, n=8, p=2, seed=5, name="data.csv"):
    S = sample(n, np.zeros((p, p)), CovParams(1.0, 0.0), seed)
    path = tmp_path / name
    write_dataset(str(path), S)
    return str(path), S


class TestDumps:
    def test_float_precision(self):
        x = 0.1 + 0.2
        text = dumps({"v": x})
        assert json.loads(text)["v"] == x

    def test_scalar_kinds(self):
        text = dumps({"a": True, "b": None, "c": 3, "d": [1.0, 2.5], "e": "s"})
        assert json.loads(text) == {"a": True, "b": None, "c": 3,
                                    "d": [1.0, 2.5], "e": "s"}

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"v": float("inf")})


class TestDatasetRoundTrip:
    def test_one_sample_exact(self, tmp_path):
        S = sample(6, np.diag([2.0, 1.0]), CovParams(1.3, 0.25), 11)
        path = tmp_path / "d.csv"
        write_dataset(str(path), S)
        got, n1 = read_dataset(str(path))
        assert n1 is None
        assert np.array_equal(got, S)

    def test_two_sample_exact(self, tmp_path):
        S = sample(9, np.zeros((3, 3)), CovParams(1.0, -0.5), 12)
        path = tmp_path / "d.csv"
        write_dataset(str(path), S, n1=4)
        got, n1 = read_dataset(str(path))
        assert n1 == 4
        assert np.array_equal(got, S)

    def test_simulate_bytes_deterministic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", {
            "M": [[1.0, 0.2], [0.2, 0.5]], "n": 7,
            "sigma2": 1.0, "tau": 0.2, "seed": 3})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_matches_library_sample(self, tmp_path):
        M = np.array([[1.0, 0.2], [0.2, 0.5]])
        cfg = write_config(tmp_path, "sim.json", {
            "M": M.tolist(), "n": 7, "sigma2": 2.0, "tau": -0.3, "seed": 3})
        out = tmp_path / "a.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        got, _ = read_dataset(str(out))
        want = sample(7, M, CovParams(2.0, -0.3), np.random.SeedSequence(3))
        assert np.array_equal(got, want)

    def test_simulate_far_below_zero_tau(self, tmp_path):
        # tau = -1e17 at p = 2: 1/(1 - p tau) is below rounding against 1
        cfg = write_config(tmp_path, "sim.json", {
            "M": [[1, 0], [0, 1]], "sigma2": 0.2, "tau": -1e17, "n": 5})
        out = tmp_path / "a.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        got, _ = read_dataset(str(out))
        assert got.shape == (5, 2, 2) and np.all(np.isfinite(got))

    def test_two_sample_group_means(self, tmp_path):
        M1 = np.diag([1.0, 0.0])
        M2 = np.array([[0.0, 0.5], [0.5, 0.0]])
        cfg = write_config(tmp_path, "sim.json", {
            "M1": M1.tolist(), "M2": M2.tolist(), "n1": 1500, "n2": 1500,
            "sigma2": 1.0, "tau": 0.0, "seed": 8})
        out = tmp_path / "a.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        S, n1 = read_dataset(str(out))
        assert n1 == 1500
        assert np.allclose(S[:n1].mean(axis=0), M1, atol=0.12)
        assert np.allclose(S[n1:].mean(axis=0), M2, atol=0.12)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "M": [[0.0, 0.0], [0.0, 0.0]], "n": 4,
            "sigma2": 1.0, "tau": 0.0, "seed": 3})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(a)])
        main(["simulate", "--config", cfg, "--out", str(b), "--seed", "99"])
        assert a.read_bytes() != b.read_bytes()

    def test_p_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "p": 3, "M": [[0.0, 0.0], [0.0, 0.0]], "n": 4,
            "sigma2": 1.0, "tau": 0.0})
        code = main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "a.csv")])
        assert code == 2


class TestCmdTest:
    def test_s1_far_from_m0_exits_zero(self, tmp_path, capsys):
        # the two squared distances s1 subtracts are about 2.8e11 each, so
        # their rounding error is far above an absolute tolerance
        D = np.diag([3.0, 2.0, 1.0])
        path = str(tmp_path / "d.csv")
        write_dataset(path, sample(200, 1e4 * D, CovParams(1.0, 0.0), 30))
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "s1", "M0": D.tolist(), "D0": [3.0, 2.0, 1.0],
            "multiplicities": [1, 1, 1],
            "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}})
        code, out, _ = run(capsys, ["test", "--data", path, "--config", cfg])
        assert code == 0
        assert json.loads(out)["statistic"] >= 0.0

    def test_statistic_zero_at_own_mean(self, tmp_path, capsys):
        path, S = one_sample_file(tmp_path)
        M0 = S.mean(axis=0)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": M0.tolist(),
            "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}})
        code, out, _ = run(capsys, ["test", "--data", path, "--config", cfg])
        assert code == 0
        report = json.loads(out)
        assert report["statistic"] == 0.0
        assert report["p_value"] == 1.0

    def test_report_bytes_reproducible(self, tmp_path, capsys):
        path, S = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
            "cov": {"estimate": True}, "seed": 4})
        argv = ["test", "--data", path, "--config", cfg, "--no-timestamp"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        assert "timestamp" not in json.loads(out1)

    def test_timestamp_present_by_default(self, tmp_path, capsys):
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
            "cov": {"estimate": True}})
        _, out, _ = run(capsys, ["test", "--data", path, "--config", cfg])
        assert "timestamp" in json.loads(out)

    @pytest.mark.parametrize("config", [
        {"test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
         "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}},
        {"test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
         "cov": {"estimate": True}},
        {"test_id": "s3", "multiplicities": [1, 1], "cov": {"estimate": True}},
        {"test_id": "c2", "U0": [[1.0, 0.0], [0.0, 1.0]],
         "multiplicities": [1, 1], "reps": 2000,
         "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}},
    ])
    def test_reports_validate_against_schema(self, tmp_path, capsys, config):
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", config)
        code, out, _ = run(capsys, ["test", "--data", path, "--config", cfg])
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)

    def test_two_sample_report_validates(self, tmp_path, capsys):
        S = sample(10, np.zeros((2, 2)), CovParams(1.0, 0.0), 6)
        path = tmp_path / "d.csv"
        write_dataset(str(path), S, n1=5)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "2a0", "cov": {"estimate": True}})
        code, out, _ = run(capsys, ["test", "--data", str(path),
                                    "--config", cfg])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["n1"] == 5 and report["n2"] == 5
        assert report["distribution"]["type"] == "f"
        assert "M1_hat" in report["mle"] and "M2_hat" in report["mle"]

    def test_cone_weights_computed_on_the_fly(self, tmp_path, capsys):
        path, _ = one_sample_file(tmp_path, n=10)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "c2", "U0": [[1.0, 0.0], [0.0, 1.0]],
            "multiplicities": [2], "reps": 5000, "seed": 9,
            "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}})
        code, out, _ = run(capsys, ["test", "--data", path, "--config", cfg])
        assert code == 0
        dist = json.loads(out)["distribution"]
        assert dist["type"] == "chisq-mixture"
        assert len(dist["weights"]) == 2
        assert sum(dist["weights"]) == pytest.approx(1.0, rel=1e-12)

    def test_p_uniform_across_seeds(self, tmp_path, capsys):
        cov = {"known": {"sigma2": 1.0, "tau": 0.0}}
        pvals = []
        for seed in range(10):
            S = sample(150, np.diag([3.0, 1.0]), CovParams(1.0, 0.0), seed)
            path = tmp_path / ("d%d.csv" % seed)
            write_dataset(str(path), S)
            cfg = write_config(tmp_path, "t%d.json" % seed, {
                "test_id": "s2", "D0": [3.0, 1.0],
                "multiplicities": [1, 1], "cov": cov})
            _, out, _ = run(capsys, ["test", "--data", str(path),
                                     "--config", cfg])
            pvals.append(json.loads(out)["p_value"])
        assert min(pvals) < 0.5 < max(pvals)
        assert all(0.0 < v <= 1.0 for v in pvals)

    def test_log_transform_inverts_exp(self, tmp_path, capsys):
        X = sample(8, np.diag([0.5, -0.2]), CovParams(0.1, 0.0), 21)
        expd = np.stack([matrix_exp(x) for x in X])
        path = tmp_path / "d.csv"
        write_dataset(str(path), expd)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
            "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}})
        _, out, _ = run(capsys, ["test", "--data", str(path), "--config", cfg,
                                 "--log-transform"])
        want = lrt.run("a0", SuffStats.from_sample(X), M0=np.zeros((2, 2)),
                       cov=CovParams(1.0, 0.0))
        assert json.loads(out)["statistic"] == pytest.approx(want.statistic,
                                                             rel=1e-9)

    def test_log_transform_decomposes_the_sample_once(self, tmp_path, capsys,
                                                      monkeypatch):
        import symtest.symcore
        from symtest import cli
        shapes = []

        def counted(X):
            shapes.append(np.shape(X))
            return eigh(X)

        X = sample(30, np.diag([0.5, -0.2]), CovParams(0.1, 0.0), 22)
        path = tmp_path / "d.csv"
        write_dataset(str(path), np.stack([matrix_exp(x) for x in X]))
        eigh = symtest.symcore.eigh_desc
        monkeypatch.setattr(symtest.symcore, "eigh_desc", counted)
        assert np.allclose(cli._log_transform(read_dataset(str(path))[0]), X,
                           rtol=0, atol=1e-12)
        assert shapes == [(30, 2, 2)]


class TestExitCodes:
    def check_error(self, capsys, argv, fragment):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert fragment in err

    def test_missing_data_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", {"test_id": "a0"})
        self.check_error(capsys, ["test", "--data", str(tmp_path / "no.csv"),
                                  "--config", cfg], "cannot read")

    def test_bad_header(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        cfg = write_config(tmp_path, "t.json", {"test_id": "a0"})
        self.check_error(capsys, ["test", "--data", str(path),
                                  "--config", cfg], "header must be")

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("")
        cfg = write_config(tmp_path, "t.json", {"test_id": "a0"})
        self.check_error(capsys, ["test", "--data", str(path),
                                  "--config", cfg], "empty file")

    def test_wrong_field_count(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("p=2,group\n1.0,0.5,1\n")
        cfg = write_config(tmp_path, "t.json", {"test_id": "a0"})
        self.check_error(capsys, ["test", "--data", str(path),
                                  "--config", cfg],
                         "line 2: expected 4 fields, got 3")

    def test_non_numeric_entry(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("p=2,group\n1.0,x,2.0,1\n")
        cfg = write_config(tmp_path, "t.json", {"test_id": "a0"})
        self.check_error(capsys, ["test", "--data", str(path),
                                  "--config", cfg], "line 2")

    def test_non_finite_entry(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("p=2,group\n1.0,inf,2.0,1\n")
        cfg = write_config(tmp_path, "t.json", {"test_id": "a0"})
        self.check_error(capsys, ["test", "--data", str(path),
                                  "--config", cfg], "non-finite")

    def test_bad_group_label(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("p=2,group\n1.0,0.0,2.0,3\n")
        cfg = write_config(tmp_path, "t.json", {"test_id": "a0"})
        self.check_error(capsys, ["test", "--data", str(path),
                                  "--config", cfg], "group must be 1 or 2")

    def test_invalid_json(self, tmp_path, capsys):
        path, _ = one_sample_file(tmp_path)
        cfg = tmp_path / "t.json"
        cfg.write_text("{not json")
        self.check_error(capsys, ["test", "--data", path,
                                  "--config", str(cfg)], "invalid JSON")

    def test_missing_config_key(self, tmp_path, capsys):
        # the message reads as a sentence, not as a quoted KeyError repr
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "cov": {"estimate": True}})
        self.check_error(capsys, ["test", "--data", path, "--config", cfg],
                         "error: config for 'a0' requires 'M0'\n")

    @pytest.mark.parametrize("key", ["sigma2", "M"])
    def test_calibrate_truth_missing_key(self, tmp_path, capsys, key):
        truth = {"M": np.eye(2).tolist(), "sigma2": 1.0, "tau": 0.0}
        del truth[key]
        cfg = write_config(tmp_path, "c.json", {
            "test": {"test_id": "a0", "M0": np.eye(2).tolist()},
            "truth": truth, "n": 10, "reps": 1000})
        self.check_error(capsys, ["calibrate", "--config", cfg],
                         "error: truth requires %r\n" % key)

    def test_simulate_missing_key(self, tmp_path, capsys):
        # simulate words a missing key its own way, unlike a calibrate truth
        cfg = write_config(tmp_path, "s.json", {"M": np.eye(2).tolist(),
                                                "tau": 0.0, "n": 5})
        code, out, err = run(capsys, ["simulate", "--config", cfg, "--out",
                                      str(tmp_path / "s.csv")])
        assert (code, out, err) == (
            2, "", "error: simulate config requires 'sigma2'\n")

    @pytest.mark.parametrize("config,fragment", [
        ({"test_id": "a0", "M0": np.zeros((2, 2)).tolist(), "cov": {}},
         "config for 'a0': bad 'cov': missing key 'known'"),
        ({"test_id": "a0", "M0": np.zeros((2, 2)).tolist(),
          "cov": {"known": {"sigma2": 1}}},
         "config for 'a0': bad 'cov': missing key 'tau'"),
        ({"test_id": "c2", "U0": np.eye(2).tolist(),
          "weights": {"weights": [1.0]}},
         "config for 'c2': bad 'weights': missing key 'face_dims'"),
    ], ids=["cov", "cov-known", "c2-weights"])
    def test_missing_nested_config_key(self, tmp_path, capsys, config,
                                       fragment):
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", config)
        self.check_error(capsys, ["test", "--data", path, "--config", cfg],
                         fragment)

    def test_unknown_test_id(self, tmp_path, capsys):
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {"test_id": "zz"})
        self.check_error(capsys, ["test", "--data", path, "--config", cfg],
                         "unknown test_id")

    @pytest.mark.parametrize("known,fragment", [
        ({"sigma2": 1.0, "tau": 0.9}, "tau must be < 1/p"),
        ({"sigma2": -1.0, "tau": 0.0}, "sigma2 must be positive"),
        ({"sigma2": 1.0, "tau": float("-inf")}, "tau must be finite"),
        ({"sigma2": True, "tau": False}, "sigma2 must be a finite number"),
    ])
    def test_bad_known_covariance(self, tmp_path, capsys, known, fragment):
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
            "cov": {"known": known}})
        self.check_error(capsys, ["test", "--data", path, "--config", cfg],
                         fragment)

    def test_non_integer_seed(self, tmp_path, capsys):
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]], "seed": "x"})
        self.check_error(capsys, ["test", "--data", path, "--config", cfg],
                         "'seed' must be an integer")

    @pytest.mark.parametrize("weights,fragment", [
        ({"face_dims": [7], "weights": [1.0]}, "in 1..3"),
        ({"face_dims": [0, 3], "weights": [0.5, 0.5]}, "in 1..3"),
        ({"face_dims": [2, 2], "weights": [0.5, 0.5]}, "distinct"),
        ({"face_dims": [1.5, 3], "weights": [0.5, 0.5]}, "must be an integer"),
        ({"face_dims": [2, 3], "weights": [1.0]}, "one weight per face"),
        ({"face_dims": [3], "weights": [float("nan")]}, "sum to 1"),
    ])
    def test_bad_cone_weights(self, tmp_path, capsys, weights, fragment):
        path, _ = one_sample_file(tmp_path, p=3)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "c2", "U0": np.eye(3).tolist(), "weights": weights})
        self.check_error(capsys, ["test", "--data", path, "--config", cfg],
                         fragment)

    @pytest.mark.parametrize("config", [
        {"test_id": "s3", "multiplicities": "21"},
        {"test_id": "c2", "U0": np.eye(3).tolist(), "multiplicities": "111"},
        {"test_id": "c2", "U0": np.eye(3).tolist(),
         "weights": {"face_dims": "23", "weights": [0.5, 0.5]}},
        {"test_id": "c2", "U0": np.eye(3).tolist(),
         "weights": {"face_dims": [2, 3], "weights": "11"}},
    ])
    def test_config_strings_are_not_arrays(self, tmp_path, capsys, config):
        # a JSON string must not be read one character at a time
        path, _ = one_sample_file(tmp_path, p=3)
        cfg = write_config(tmp_path, "t.json", config)
        self.check_error(capsys, ["test", "--data", path, "--config", cfg],
                         "expected an array")

    @pytest.mark.parametrize("config", [
        {"test_id": "s2", "D0": [float("inf"), 2.0, 1.0],
         "multiplicities": [1, 1, 1]},
        {"test_id": "a0", "M0": [[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]]},
        {"test_id": "a2", "U0": [[1, 0, 0], [0, float("-inf"), 0], [0, 0, 1]]},
    ])
    def test_non_finite_config_arrays(self, tmp_path, capsys, config):
        path, _ = one_sample_file(tmp_path, p=3)
        cfg = write_config(tmp_path, "t.json", config)
        self.check_error(capsys, ["test", "--data", path, "--config", cfg],
                         "entries must be finite")

    @pytest.mark.parametrize("d_true", [[float("nan"), 1.0],
                                        [float("inf"), 1.0]])
    def test_cone_weights_non_finite_d_true(self, tmp_path, capsys, d_true):
        cfg = write_config(tmp_path, "cw.json", {"d_true": d_true, "reps": 100})
        self.check_error(capsys, ["cone-weights", "--config", cfg,
                                  "--no-timestamp"], "d_true must be finite")

    @pytest.mark.parametrize("key,value", [
        ("n", 5.5), ("n", True), ("seed", 2.5), ("seed", False)])
    def test_simulate_non_integral_count(self, tmp_path, capsys, key, value):
        config = {"M": np.eye(2).tolist(), "n": 5, "sigma2": 1.0, "tau": 0.0,
                  key: value}
        cfg = write_config(tmp_path, "sim.json", config)
        out = tmp_path / "d.csv"
        self.check_error(capsys, ["simulate", "--config", cfg, "--out", str(out)],
                         "'%s' must be an integer" % key)
        assert not out.exists()

    def test_simulate_non_integral_group_size(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", {
            "M1": np.eye(2).tolist(), "M2": np.eye(2).tolist(), "n1": 3,
            "n2": 3.5, "sigma2": 1.0, "tau": 0.0})
        out = tmp_path / "d.csv"
        self.check_error(capsys, ["simulate", "--config", cfg, "--out", str(out)],
                         "'n2' must be an integer")
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"sigma2": "abc"}, {"sigma2": [1]}, {"sigma2": True}, {"M": 3},
        {"M": [[1, 0], [0]]}],
        ids=["sigma2-string", "sigma2-array", "sigma2-boolean", "M-scalar",
             "M-ragged"])
    def test_simulate_malformed_config(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path, "sim.json", dict(
            {"M": np.eye(2).tolist(), "n": 5, "sigma2": 1.0, "tau": 0.0}, **config))
        out = tmp_path / "d.csv"
        code, _, err = run(capsys, ["simulate", "--config", cfg, "--out", str(out)])
        assert code == 2 and "error" in err
        assert not out.exists()

    def test_simulate_mean_must_be_one_matrix(self, tmp_path, capsys):
        # symmetry checks take stacks, a generator's mean does not
        cfg = write_config(tmp_path, "sim.json", {
            "M": [np.eye(2).tolist()] * 3, "n": 5, "sigma2": 1.0, "tau": 0.0})
        self.check_error(capsys, ["simulate", "--config", cfg, "--out",
                                  str(tmp_path / "d.csv")],
                         "M must be square, got shape (3, 2, 2)")

    def test_non_string_test_id(self, tmp_path, capsys):
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {"test_id": 5})
        self.check_error(capsys, ["test", "--data", path, "--config", cfg],
                         "unknown test_id 5")

    @pytest.mark.parametrize("command,config", [
        ("simulate", [1]), ("calibrate", ["test", "truth", "n"]),
        ("cone-weights", ["d_true"]), ("test", ["test_id"])])
    def test_config_must_be_an_object(self, tmp_path, capsys, command, config):
        # a JSON array holding the required key names is still no config
        cfg = write_config(tmp_path, "c.json", config)
        out = tmp_path / "d.csv"
        argv = {"simulate": ["simulate", "--config", cfg, "--out", str(out)],
                "calibrate": ["calibrate", "--config", cfg],
                "cone-weights": ["cone-weights", "--config", cfg],
                "test": ["test", "--data", one_sample_file(tmp_path)[0],
                         "--config", cfg]}[command]
        self.check_error(capsys, argv, "a config must be a JSON object")
        assert command == "test" or not out.exists()

    def test_one_sample_test_on_two_group_file(self, tmp_path, capsys):
        S = sample(6, np.zeros((2, 2)), CovParams(1.0, 0.0), 7)
        path = tmp_path / "d.csv"
        write_dataset(str(path), S, n1=3)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
            "cov": {"estimate": True}})
        self.check_error(capsys, ["test", "--data", str(path),
                                  "--config", cfg], "two groups")

    def test_two_sample_test_on_one_group_file(self, tmp_path, capsys):
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "2a0", "cov": {"estimate": True}})
        self.check_error(capsys, ["test", "--data", path, "--config", cfg],
                         "two-group")

    def test_cov_check_sample_size_gate(self, tmp_path, capsys):
        S = sample(27, np.zeros((3, 3)), CovParams(1.0, 0.0), 8)
        path = tmp_path / "d.csv"
        write_dataset(str(path), S)
        self.check_error(capsys, ["cov-check", "--data", str(path)],
                         "n > q(q+3)/2 = 27")

    def test_log_transform_requires_pd(self, tmp_path, capsys):
        S = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.eye(2)])
        path = tmp_path / "d.csv"
        write_dataset(str(path), S)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
            "cov": {"estimate": True}})
        self.check_error(capsys, ["test", "--data", str(path), "--config",
                                  cfg, "--log-transform"],
                         "observation 2 is not positive definite")

    @pytest.mark.parametrize("bad", [[5], [5, 9], [4, 5, 11]])
    def test_log_transform_names_first_non_pd_observation(self, tmp_path,
                                                          capsys, bad):
        # one batched decomposition, yet the message names the first
        # observation (1-based) that is not positive definite
        S = np.stack([np.diag([1.0 + k, 2.0]) for k in range(12)])
        for k in bad:
            S[k - 1] = [[1.0, 2.0], [2.0, 1.0]] if k % 2 else np.diag([3.0, 0.0])
        path = tmp_path / "d.csv"
        write_dataset(str(path), S)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
            "cov": {"estimate": True}})
        code, _, err = run(capsys, ["test", "--data", str(path), "--config",
                                    cfg, "--log-transform"])
        assert code == 2
        assert ("error: observation %d is not positive definite; "
                "--log-transform requires positive definite matrices\n"
                % bad[0]) == err

    def test_internal_error_exits_one(self, tmp_path, capsys, monkeypatch):
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
            "cov": {"estimate": True}})

        def boom(*a, **k):
            raise lrt.StatisticError("negative beyond clamp")

        monkeypatch.setattr(lrt, "run_config", boom)
        code, _, err = run(capsys, ["test", "--data", path, "--config", cfg])
        assert code == 1
        assert "internal error" in err

    def test_linalg_error_exits_one(self, tmp_path, capsys, monkeypatch):
        # an eigensolver failure inside a test is internal, not bad input
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]],
            "cov": {"estimate": True}})

        def boom(*a, **k):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(lrt, "run_config", boom)
        code, _, err = run(capsys, ["test", "--data", path, "--config", cfg])
        assert code == 1
        assert "internal error" in err

    @pytest.mark.parametrize("command", [
        "simulate", "simulate-config", "test", "calibrate", "cone-weights"])
    def test_negative_seed(self, tmp_path, capsys, command):
        # a flag or a config seed below 0 is bad input naming the seed
        if command.startswith("simulate"):
            cfg = {"M": [[0.0, 0.0], [0.0, 0.0]], "n": 2, "sigma2": 1.0,
                   "tau": 0.0}
            argv = ["simulate", "--out", str(tmp_path / "d.csv")]
        elif command == "test":
            cfg = {"test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]]}
            argv = ["test", "--data", one_sample_file(tmp_path)[0]]
        elif command == "calibrate":
            cfg = TestCmdCalibrate.CONFIG
            argv = ["calibrate"]
        else:
            cfg = {"d_true": [1.0, 1.0], "reps": 100}
            argv = ["cone-weights"]
        if command in ("simulate-config", "test", "cone-weights"):
            cfg = dict(cfg, seed=-5)
        else:
            argv += ["--seed", "-1"]
        argv += ["--config", write_config(tmp_path, "c.json", cfg)]
        self.check_error(capsys, argv, "'seed' must be >= 0")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("config,fragment", [
        ({"M": np.eye(3).tolist(), "n": 5, "sigma2": 1.0, "tau": 0.4},
         "tau must be < 1/p"),
        ({"M1": np.eye(3).tolist(), "M2": np.eye(3).tolist(), "n1": 3,
          "n2": 3, "sigma2": 1.0, "tau": 1.0 / 3.0}, "tau must be < 1/p"),
        ({"M": np.eye(2).tolist(), "n": 5, "sigma2": -1.0, "tau": 0.0},
         "sigma2 must be positive"),
        ({"M": np.eye(2).tolist(), "n": 5, "sigma2": 1.0, "tau": float("-inf")},
         "tau must be finite"),
    ])
    def test_simulate_bad_covariance(self, tmp_path, capsys, config, fragment):
        cfg = write_config(tmp_path, "sim.json", config)
        out = tmp_path / "d.csv"
        self.check_error(capsys, ["simulate", "--config", cfg, "--out", str(out)],
                         fragment)
        assert not out.exists()


    def test_known_covariance_must_be_an_object(self, tmp_path, capsys):
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": np.zeros((2, 2)).tolist(),
            "cov": {"known": None}})
        code, out, err = run(capsys, ["test", "--data", path, "--config", cfg])
        assert (code, out, err) == (2, "", "error: config for 'a0': bad 'cov': "
                                    "'known' must be an object with sigma2 "
                                    "and tau\n")

    def test_non_finite_statistic_prints_its_value(self, tmp_path, capsys):
        # a known sigma2 this small overflows the statistic: one error line
        # that names it, and no numpy warning on the way
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": np.zeros((2, 2)).tolist(),
            "cov": {"known": {"sigma2": 1e-320, "tau": 0.0}}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["test", "--data", path,
                                          "--config", cfg])
        assert (code, out, err) == (
            2, "", "error: statistic is inf at the known sigma2 = 1e-320, "
            "too small for the data's scale\n")

    def test_calibrate_non_finite_statistic_names_sigma2(self, tmp_path, capsys):
        # the same one line from a calibration, whose replicates all overflow
        cfg = write_config(tmp_path, "c.json", {
            "test": {"test_id": "a0", "M0": [[2.0, 0.0], [0.0, 1.0]],
                     "cov": {"known": {"sigma2": 1e-320, "tau": 0.1}}},
            "truth": {"M": [[2.0, 0.0], [0.0, 1.0]], "sigma2": 1.0, "tau": 0.1},
            "n": 5, "reps": 1000, "seed": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["calibrate", "--config", cfg])
        assert (code, out, err) == (
            2, "", "error: statistic is inf at the known sigma2 = 1e-320, "
            "too small for the data's scale\n")

    @pytest.mark.parametrize("value", ["false", "x", 2.5, [3], {"a": 1}, False,
                                       None], ids=["false-string", "string",
                                                   "number", "array", "object",
                                                   "false", "null"])
    def test_estimate_must_be_true(self, tmp_path, capsys, value):
        # only JSON true asks for an estimated covariance; anything else
        # is bad input naming cov, never a plug-in run
        path, _ = one_sample_file(tmp_path)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a1", "U0": np.eye(2).tolist(),
            "M0": np.eye(2).tolist(), "cov": {"estimate": value}})
        code, out, err = run(capsys, ["test", "--data", path, "--config", cfg])
        assert (code, out, err) == (
            2, "", "error: config for 'a1': bad 'cov': 'estimate' must be "
            "true, got %r\n" % (value,))

    def test_non_utf8_config_names_its_file(self, tmp_path, capsys):
        cfg = tmp_path / "w.json"
        cfg.write_bytes(b'{"d_true": [1.0,\n 1.0\xff]}')
        code, out, err = run(capsys, ["cone-weights", "--config", str(cfg)])
        assert (code, out, err) == (
            2, "", "error: %s line 2: byte 0xff is not utf-8 text\n" % cfg)

    def test_non_utf8_dataset_names_its_line(self, tmp_path, capsys):
        # the line of the byte, though the decoder reads the file in chunks
        path = tmp_path / "d.csv"
        rows = "".join("%d,0,1,1\n" % i for i in range(5000))
        path.write_bytes(("p=2,group\n" + rows).encode() + b"1,\xff,1,1\n")
        cfg = write_config(tmp_path, "t.json", {"test_id": "cov-check"})
        code, out, err = run(capsys, ["test", "--data", str(path),
                                      "--config", cfg])
        assert (code, out, err) == (
            2, "", "error: %s line 5002: byte 0xff is not utf-8 text\n" % path)

    @pytest.mark.parametrize("command", ["test", "calibrate"])
    @pytest.mark.parametrize("key", ["covv", "U0"])
    def test_config_key_the_test_does_not_take(self, tmp_path, capsys, command,
                                               key):
        # a misspelled key, or one of another test, exits 2 naming it; an
        # a0 config with "covv" would otherwise run with an estimated cov
        known = {"known": {"sigma2": 1.0, "tau": 0.0}}
        test = dict(TestCmdCalibrate.CONFIG["test"], **{key: known})
        del test["cov"]
        if command == "test":
            argv = ["test", "--data", one_sample_file(tmp_path)[0],
                    "--config", write_config(tmp_path, "t.json", test)]
        else:
            argv = ["calibrate", "--config", write_config(
                tmp_path, "c.json", dict(TestCmdCalibrate.CONFIG, test=test))]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (
            2, "", "error: config for 'a0' takes no key %r\n" % key)

    @pytest.mark.parametrize("command", ["test", "calibrate"])
    def test_null_cov_is_refused(self, tmp_path, capsys, command):
        # JSON null is neither form of cov: it exits 2 naming both, where it
        # once ran with an estimated covariance (run's cov=None still does)
        test = dict(TestCmdCalibrate.CONFIG["test"], cov=None)
        out = tmp_path / "qq.csv"
        if command == "test":
            argv = ["test", "--data", one_sample_file(tmp_path)[0],
                    "--config", write_config(tmp_path, "t.json", test)]
        else:
            argv = ["calibrate", "--out", str(out), "--config", write_config(
                tmp_path, "c.json", dict(TestCmdCalibrate.CONFIG, test=test))]
        code, stdout, err = run(capsys, argv)
        assert (code, stdout, err) == (
            2, "", "error: config for 'a0': bad 'cov': cov must be a known "
            "CovParams or None to estimate it; in a config, expected "
            '{"known": {"sigma2": x, "tau": y}} or {"estimate": true}; '
            "got null\n")
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"reps": 1e308}, {"n": 1e308}, {"n": 2 ** 63},
        {"test": {"test_id": "2a0"}, "n": [5, 1e308],
         "truth": {"M1": np.eye(2).tolist(), "M2": np.eye(2).tolist(),
                   "sigma2": 1.0, "tau": 0.0}}],
        ids=["reps", "n", "n-2**63", "n2"])
    def test_calibrate_count_too_large(self, tmp_path, capsys, config):
        # a count no array can hold exits 2 naming its key, not 1 on an
        # OverflowError from the draw or the statistics array
        key = "reps" if "reps" in config else "n"
        out = tmp_path / "qq.csv"
        cfg = write_config(tmp_path, "c.json", dict(TestCmdCalibrate.CONFIG,
                                                    **config))
        code, stdout, err = run(capsys, ["calibrate", "--out", str(out),
                                         "--config", cfg])
        assert (code, stdout) == (2, "")
        assert re.fullmatch(r"error: %s must be below 2\*\*63, got \S+\n" % key,
                            err)
        assert not out.exists()

    @pytest.mark.parametrize("count", [10 ** 17, 2 ** 63 - 1])
    @pytest.mark.parametrize("command,key", [
        ("calibrate", "reps"), ("cone-weights", "reps"), ("simulate", "n"),
        ("simulate", "n1"), ("simulate", "n2")])
    def test_count_too_large_for_memory(self, tmp_path, capsys, command, key,
                                        count):
        # a count whose arrays numpy cannot allocate exits 2 naming its key,
        # not 1 on numpy's MemoryError (10**17 rows of floats exceed any
        # 64-bit address space, so the allocation fails at once, before
        # touching memory, whatever the machine's overcommit policy) nor 2
        # on its unnamed "array is too big" (2**63 - 1)
        out = tmp_path / "out.csv"
        eye = np.eye(2).tolist()
        config = {
            "calibrate": dict(TestCmdCalibrate.CONFIG, reps=count),
            "cone-weights": {"d_true": [1.0, 1.0, 1.0, 1.0], "reps": count},
            "simulate": {"M": eye, "sigma2": 1.0, "tau": 0.0, "n": count},
        }[command]
        if key in ("n1", "n2"):
            config = {"M1": eye, "M2": eye, "sigma2": 1.0, "tau": 0.0,
                      "n1": 5, "n2": 5, key: count}
        argv = [command, "--config", write_config(tmp_path, "c.json", config)]
        if command != "cone-weights":
            argv += ["--out", str(out)]
        code, stdout, err = run(capsys, argv)
        name = key if command != "simulate" else "config %r: n" % key
        assert (code, stdout, err) == (
            2, "", "error: %s = %.3g is too large for memory\n" % (name, count))
        assert not out.exists()

    @pytest.mark.parametrize("base,key,value,message", [
        ("simulate", "sed", 5, "simulate config takes no key 'sed'"),
        ("calibrate", "rep", 2000, "calibrate config takes no key 'rep'"),
        ("calibrate", "truth/sigma", 2.0, "truth takes no key 'sigma'"),
        ("cone-weights", "sed", 3, "cone-weights config takes no key 'sed'"),
        ("a0", "cov/known", {"sigma2": 1.0, "tau": 0.0},
         "config for 'a0': bad 'cov': unexpected key 'known'"),
        ("a0-known", "cov/known/tua", 0.0,
         "config for 'a0': bad 'cov': unexpected key 'tua'"),
        ("c2", "weights/reps", 100,
         "config for 'c2': bad 'weights': unexpected key 'reps'"),
    ], ids=["simulate", "calibrate", "truth", "cone-weights", "cov",
            "cov-known", "c2-weights"])
    def test_stray_key_of_any_config_object(self, tmp_path, capsys, base, key,
                                            value, message):
        # one key rule for every object: a misspelled or extra key exits 2
        # naming it and nothing is written; before, such a key was dropped
        # (for cov, "estimate" won over "known")
        eye = np.eye(2).tolist()
        cfg = json.loads(json.dumps({
            "simulate": {"M": eye, "n": 5, "sigma2": 1.0, "tau": 0.0},
            "calibrate": TestCmdCalibrate.CONFIG,
            "cone-weights": {"d_true": [1.0, 1.0], "reps": 100},
            "a0": {"test_id": "a0", "M0": eye, "cov": {"estimate": True}},
            "a0-known": {"test_id": "a0", "M0": eye,
                         "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}},
            "c2": {"test_id": "c2", "U0": eye,
                   "weights": {"face_dims": [1, 2], "weights": [0.5, 0.5]}},
        }[base]))
        *outer, name = key.split("/")
        obj = cfg
        for k in outer:
            obj = obj[k]
        obj[name] = value
        out = tmp_path / "out.csv"
        argv = {"simulate": ["simulate", "--out", str(out)],
                "calibrate": ["calibrate", "--out", str(out)],
                "cone-weights": ["cone-weights"],
                }.get(base, ["test", "--data", one_sample_file(tmp_path)[0]])
        code, stdout, err = run(capsys, argv + [
            "--config", write_config(tmp_path, "c.json", cfg)])
        assert (code, stdout, err) == (2, "", "error: %s\n" % message)
        assert not out.exists()

    def test_dataset_with_a_byte_order_mark(self, tmp_path, capsys):
        # a spreadsheet's "CSV UTF-8" export starts with a BOM: the same
        # report as without it
        path, _ = one_sample_file(tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "data.csv").read_bytes())
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "a0", "M0": np.zeros((2, 2)).tolist()})
        reports = [run(capsys, ["test", "--data", data, "--config", cfg,
                                "--no-timestamp"]) for data in (path, str(bom))]
        assert reports[0][0] == 0
        assert reports[1] == reports[0]

    def test_config_with_a_byte_order_mark(self, tmp_path, capsys):
        # the BOM is dropped, and a bad byte after it keeps its line number
        cfg = tmp_path / "w.json"
        cfg.write_bytes(b'\xef\xbb\xbf{"d_true": [1.0, 1.0], "reps": 100}')
        code, out, err = run(capsys, ["cone-weights", "--config", str(cfg),
                                      "--no-timestamp"])
        assert (code, err) == (0, "")
        assert json.loads(out)["d_true"] == [1.0, 1.0]
        cfg.write_bytes(b'\xef\xbb\xbf{"d_true": [1.0,\n 1.0\xff]}')
        code, out, err = run(capsys, ["cone-weights", "--config", str(cfg)])
        assert (code, out, err) == (
            2, "", "error: %s line 2: byte 0xff is not utf-8 text\n" % cfg)

    def test_c2_rejects_weights_with_multiplicities(self, tmp_path, capsys):
        path, _ = one_sample_file(tmp_path, p=3)
        cfg = write_config(tmp_path, "t.json", {
            "test_id": "c2", "U0": np.eye(3).tolist(), "multiplicities": [3],
            "weights": {"face_dims": [3], "weights": [1.0]}})
        code, out, err = run(capsys, ["test", "--data", path, "--config", cfg])
        assert (code, out, err) == (
            2, "", "error: give c2 'weights' or 'multiplicities', not both\n")

    @pytest.mark.parametrize("value", [{"a": 1}, [[1, 2], [3]], "x", True,
                                       None], ids=["object", "ragged",
                                                   "string", "true", "null"])
    @pytest.mark.parametrize("command,key", [
        ("simulate", "M"), ("simulate", "sigma2"), ("simulate", "tau"),
        ("simulate", "n"), ("calibrate", "truth/M"),
        ("calibrate", "truth/sigma2"), ("calibrate", "n"),
        ("cone-weights", "d_true"), ("a0", "M0"), ("a2", "U0"), ("s2", "D0"),
        ("simulate", "sed"), ("calibrate", "rep"), ("calibrate", "truth/sigma"),
        ("cone-weights", "sed")])
    def test_malformed_config_value_names_its_key(self, tmp_path, capsys,
                                                  command, key, value):
        # exit 2, no report, and one error line that names the key
        out_csv = tmp_path / "d.csv"
        if command == "simulate":
            cfg = {"M": np.eye(2).tolist(), "sigma2": 1.0, "tau": 0.0, "n": 5}
            argv = ["simulate", "--out", str(out_csv)]
        elif command == "calibrate":
            base = TestCmdCalibrate.CONFIG
            cfg = dict(base, truth=dict(base["truth"]))
            argv = ["calibrate"]
        elif command == "cone-weights":
            cfg = {"d_true": [1.0, 1.0], "reps": 100}
            argv = ["cone-weights"]
        else:
            cfg = dict({"a0": {"M0": np.eye(2).tolist()},
                        "a2": {"U0": np.eye(2).tolist()},
                        "s2": {"D0": [2.0, 1.0], "multiplicities": [1, 1]}
                        }[command], test_id=command)
            argv = ["test", "--data", one_sample_file(tmp_path)[0]]
        *outer, name = key.split("/")
        (cfg[outer[0]] if outer else cfg)[name] = value
        argv += ["--config", write_config(tmp_path, "c.json", cfg)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(r"\b%s\b" % name, err), err
        assert not out_csv.exists()


class TestCmdCalibrate:
    CONFIG = {
        "test": {"test_id": "a0", "M0": [[1.0, 0.0], [0.0, 1.0]],
                 "cov": {"known": {"sigma2": 1.0, "tau": 0.0}}},
        "truth": {"M": [[1.0, 0.0], [0.0, 1.0]], "sigma2": 1.0, "tau": 0.0},
        "n": 5, "reps": 1000, "seed": 14}

    def test_matches_module_output(self, tmp_path, capsys):
        from symtest.calibrate import calibrate_null
        cfg = write_config(tmp_path, "c.json", self.CONFIG)
        code, out, _ = run(capsys, ["calibrate", "--config", cfg,
                                    "--no-timestamp"])
        assert code == 0
        payload = json.loads(out)
        rep = calibrate_null(self.CONFIG["test"], self.CONFIG["truth"],
                             5, 1000, 14)
        assert payload["rejection_rate"] == rep.rejection_rate
        assert payload["ks_distance"] == rep.ks_distance
        assert payload["empirical_quantiles"] == list(rep.empirical_quantiles)
        assert payload["distribution"] == {"type": "chisq", "df": 3.0}

    def test_qq_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", self.CONFIG)
        qq = tmp_path / "qq.csv"
        code, _, _ = run(capsys, ["calibrate", "--config", cfg, "--out",
                                  str(qq), "--no-timestamp"])
        assert code == 0
        lines = qq.read_text().splitlines()
        assert lines[0] == "q_theoretical,q_empirical"
        assert len(lines) == 100
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        theo = [r[0] for r in rows]
        emp = [r[1] for r in rows]
        assert theo == sorted(theo)
        assert emp == sorted(emp)

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", self.CONFIG)
        _, out, _ = run(capsys, ["calibrate", "--config", cfg, "--reps",
                                 "1500", "--seed", "2", "--no-timestamp"])
        payload = json.loads(out)
        assert payload["reps"] == 1500
        assert payload["seed"] == 2

    def test_bad_truth_is_input_error(self, tmp_path, capsys):
        bad = dict(self.CONFIG, truth={"M": [[9.0, 0.0], [0.0, 1.0]],
                                       "sigma2": 1.0, "tau": 0.0})
        cfg = write_config(tmp_path, "c.json", bad)
        code, _, err = run(capsys, ["calibrate", "--config", cfg])
        assert code == 2
        assert "not in the null set" in err

    @pytest.mark.parametrize("truth,fragment", [
        (dict(CONFIG["truth"], sigma2=[1]), "sigma2 must be a finite number"),
        (dict(CONFIG["truth"], tau=None), "tau must be a finite number"),
        ([1], "truth must be a mapping"),
        (5, "truth must be a mapping"),
    ])
    def test_malformed_truth_is_input_error(self, tmp_path, capsys, truth,
                                            fragment):
        cfg = write_config(tmp_path, "c.json", dict(self.CONFIG, truth=truth))
        code, out, err = run(capsys, ["calibrate", "--config", cfg])
        assert code == 2
        assert out == ""
        assert fragment in err

    def test_two_sample_needs_a_pair_of_sizes(self, tmp_path, capsys):
        M = [[1.0, 0.0], [0.0, 1.0]]
        config = {"test": {"test_id": "2a0"}, "n": [50], "reps": 1000,
                  "truth": {"M1": M, "M2": M, "sigma2": 1.0, "tau": 0.0}}
        cfg = write_config(tmp_path, "c.json", config)
        code, _, err = run(capsys, ["calibrate", "--config", cfg])
        assert code == 2
        assert "n = [n1, n2]" in err

    def test_reps_must_be_an_integer(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dict(self.CONFIG, reps="many"))
        code, _, err = run(capsys, ["calibrate", "--config", cfg])
        assert code == 2
        assert "'reps' must be an integer" in err

    @pytest.mark.parametrize("key,value", [
        ("n", 50.9), ("n", True), ("reps", 1000.7), ("reps", True),
        ("seed", 2.5)])
    def test_non_integral_counts(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "c.json", dict(self.CONFIG, **{key: value}))
        code, out, err = run(capsys, ["calibrate", "--config", cfg])
        assert code == 2
        assert out == ""
        assert "must be an integer, got %r" % value in err

    def test_non_integral_group_size(self, tmp_path, capsys):
        M = [[1.0, 0.0], [0.0, 1.0]]
        config = {"test": {"test_id": "2a0"}, "n": [50, 50.5], "reps": 1000,
                  "truth": {"M1": M, "M2": M, "sigma2": 1.0, "tau": 0.0}}
        cfg = write_config(tmp_path, "c.json", config)
        code, _, err = run(capsys, ["calibrate", "--config", cfg])
        assert code == 2
        assert "n2 must be an integer, got 50.5" in err

    def test_missing_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"test": {}})
        code, _, err = run(capsys, ["calibrate", "--config", cfg])
        assert code == 2
        assert "requires" in err


class TestCmdConeWeights:
    def test_isotropic_weights(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "w.json", {
            "d_true": [0.0, 0.0, 0.0], "reps": 20000, "seed": 1})
        code, out, _ = run(capsys, ["cone-weights", "--config", cfg,
                                    "--no-timestamp"])
        assert code == 0
        payload = json.loads(out)
        assert payload["face_dims"] == [1, 2, 3]
        by_dim = dict(zip(payload["face_dims"], payload["weights"]))
        assert by_dim[1] == pytest.approx(1.0 / 3.0, abs=0.015)
        assert by_dim[2] == pytest.approx(1.0 / 2.0, abs=0.015)
        assert by_dim[3] == pytest.approx(1.0 / 6.0, abs=0.015)

    def test_requires_d_true(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "w.json", {"reps": 100})
        code, _, err = run(capsys, ["cone-weights", "--config", cfg])
        assert code == 2
        assert "d_true" in err


class TestCmdCovCheck:
    def test_null_data_accepts(self, tmp_path, capsys):
        S = sample(60, np.diag([2.0, 1.0]), CovParams(1.0, 0.3), 31)
        path = tmp_path / "d.csv"
        write_dataset(str(path), S)
        code, out, _ = run(capsys, ["cov-check", "--data", str(path),
                                    "--no-timestamp"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["test_id"] == "cov-check"
        assert report["p_value"] > 0.001
        assert "tau_hat" in report["mle"]

    def test_nonpositive_tau_caveat(self, tmp_path, capsys):
        # the statistic does not depend on (sigma2, tau), so a nonpositive
        # fitted tau raises no caveat: only the asymptotic note is reported
        S = sample(80, np.zeros((2, 2)), CovParams(1.0, -1.5), 32)
        path = tmp_path / "d.csv"
        write_dataset(str(path), S)
        _, out, _ = run(capsys, ["cov-check", "--data", str(path),
                                 "--no-timestamp"])
        report = json.loads(out)
        assert report["mle"]["tau_hat"] <= 0.0
        assert report["warnings"] == ["reference distribution is asymptotic only"]

    def test_p_uniform_across_seeds(self, tmp_path, capsys):
        pvals = []
        for seed in range(8):
            S = sample(50, np.zeros((2, 2)), CovParams(1.0, 0.2), 100 + seed)
            path = tmp_path / ("d%d.csv" % seed)
            write_dataset(str(path), S)
            _, out, _ = run(capsys, ["cov-check", "--data", str(path)])
            pvals.append(json.loads(out)["p_value"])
        assert min(pvals) < 0.6 < max(pvals)

    def test_detects_inflated_entry_variance(self, tmp_path, capsys):
        # Doubling the (1,1) entry noise breaks orthogonal invariance.
        rng = np.random.default_rng(33)
        S = sample(80, np.zeros((2, 2)), CovParams(1.0, 0.0), 34)
        S = S + 0.0
        S[:, 0, 0] += 1.5 * rng.standard_normal(80)
        path = tmp_path / "d.csv"
        write_dataset(str(path), S)
        _, out, _ = run(capsys, ["cov-check", "--data", str(path)])
        assert json.loads(out)["p_value"] < 0.01

    def test_rejects_two_group_file(self, tmp_path, capsys):
        S = sample(60, np.zeros((2, 2)), CovParams(1.0, 0.0), 35)
        path = tmp_path / "d.csv"
        write_dataset(str(path), S, n1=30)
        code, _, err = run(capsys, ["cov-check", "--data", str(path)])
        assert code == 2
        assert "two groups" in err


class TestWriteErrors:
    def test_unwritable_simulate_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", {
            "M": [[0.0, 0.0], [0.0, 0.0]], "n": 2,
            "sigma2": 1.0, "tau": 0.0})
        code, _, err = run(capsys, ["simulate", "--config", cfg, "--out",
                                    str(tmp_path / "nodir" / "a.csv")])
        assert code == 2
        assert "cannot write" in err

    def test_unwritable_qq_path(self, tmp_path, capsys):
        # the QQ file is written before the report, so no report is printed
        cfg = write_config(tmp_path, "c.json", TestCmdCalibrate.CONFIG)
        code, out, err = run(capsys, ["calibrate", "--config", cfg, "--out",
                                      str(tmp_path / "nodir" / "qq.csv")])
        assert code == 2
        assert "cannot write" in err
        assert out == ""

    def test_read_dataset_raises_input_error(self, tmp_path):
        with pytest.raises(InputError):
            read_dataset(str(tmp_path / "missing.csv"))


class TestReportEnvelope:
    @pytest.mark.parametrize("timestamp", [True, False])
    @pytest.mark.parametrize("command", [
        "test", "cov-check", "calibrate", "cone-weights"])
    def test_key_order(self, tmp_path, capsys, command, timestamp):
        # every report opens with tool and version and closes with the
        # timestamp when there is one
        if command == "test":
            argv = ["test", "--data", one_sample_file(tmp_path)[0],
                    "--config", write_config(tmp_path, "t.json", {
                        "test_id": "a0", "M0": [[0.0, 0.0], [0.0, 0.0]]})]
        elif command == "cov-check":
            argv = ["cov-check", "--data", one_sample_file(tmp_path, n=60)[0]]
        elif command == "calibrate":
            argv = ["calibrate", "--config", write_config(
                tmp_path, "c.json", TestCmdCalibrate.CONFIG)]
        else:
            argv = ["cone-weights", "--config", write_config(
                tmp_path, "w.json", {"d_true": [1.0, 1.0], "reps": 100})]
        code, out, _ = run(capsys, argv + ([] if timestamp
                                           else ["--no-timestamp"]))
        assert code == 0
        keys = list(json.loads(out))
        assert keys[:2] == ["tool", "version"]
        assert (keys[-1] == "timestamp") == timestamp
        assert keys.count("timestamp") == int(timestamp)
