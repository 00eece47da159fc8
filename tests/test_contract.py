"""The in-process contract that symbench relies on.

symbench/checks.py::result_payload tells a one-group fit from a two-group
one by hasattr(fit, "M_hat"), symbench/run.py::ReplicateClock wraps
symtest.calibrate.sample when it is constructed (calibrate_null calls it
once per group per chunk of replicates, not per replicate, so the clock
gives each replicate its call's mean time), and symbench/spans.py traces
functions by module and name: a renamed one would read 0 calls without
any warning. Every draw maps standard normals through the closed-form
root of the covariance, so none factors a matrix.
"""

import ast
import dataclasses
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from symtest import calibrate, lrt, onesample
from symtest.calibrate import calibrate_null, cone_boundary_law
from symtest.matnormal import sample
from symtest.symcore import CovParams, sym_dim

M = np.diag([3.0, 2.0, 1.0])
CONFIGS = {
    "a0": {"M0": M.tolist()},
    "a1": {"U0": np.eye(3).tolist(), "M0": M.tolist()},
    "a2": {"U0": np.eye(3).tolist()},
    "c2": {"U0": np.eye(3).tolist(), "multiplicities": [1, 1, 1]},
    "s1": {"M0": M.tolist(), "D0": [3.0, 2.0, 1.0], "multiplicities": [1, 1, 1]},
    "s2": {"D0": [3.0, 2.0, 1.0], "multiplicities": [1, 1, 1]},
    "s3": {"multiplicities": [1, 1, 1]},
    "cov-check": {},
    "2a0": {},
    "2s1": {"multiplicities": [1, 1, 1]},
    "2s2": {"multiplicities": [1, 1, 1]},
}
# the test ids whose null set fits only two groups, so their data has two
TWO_GROUP = ("2a0", "2s1", "2s2")


TRACED = {
    "symcore": ("eigh_desc", "check_symmetric", "block_average", "matrix_log"),
    "matnormal": ("sample",),
    "onesample": ("mle", "estimate_tau", "estimate_sigma2", "pava", "contains"),
    "lrt": ("run_config", "pvalue", "quantile"),
    "calibrate": ("calibrate_null", "estimate_cone_weights"),
    "cli": ("read_dataset", "write_dataset", "dumps", "main"),
}


@pytest.mark.parametrize("module,name", [
    (m, f) for m, names in TRACED.items() for f in names])
def test_traced_names_are_module_functions(module, name):
    assert callable(getattr(importlib.import_module("symtest." + module), name,
                            None))


def test_names_the_benchmark_binds():
    # symbench/run.py calls these by name, and ReplicateClock reads
    # symtest.calibrate.sample when it is built: a module that stopped
    # importing the sampler would stop every calibrate run before it measured
    import symtest
    import symtest.cli
    import symtest.matnormal
    assert calibrate.sample is symtest.matnormal.sample
    for name in ("calibrate_null", "run_config", "estimate_cone_weights",
                 "sample", "CovParams"):
        assert callable(getattr(symtest, name, None)), name
    assert callable(symtest.cli.main)


def test_every_test_id_is_covered():
    assert set(CONFIGS) == set(lrt.TESTS)


def test_no_export_is_collected_as_a_test():
    # pytest collects test_-prefixed names: every test runs as lrt.run(id, ...)
    import symtest
    assert [name for name in dir(symtest) if name.startswith("test_")] == []


@pytest.mark.parametrize("test_id", sorted(CONFIGS))
def test_fit_fields_tell_the_group_count(test_id):
    cov = CovParams(1.0, 0.1)
    S = sample(40, M, cov, 401)
    two = test_id in TWO_GROUP
    if two:
        S = np.concatenate([S, sample(30, M, cov, 402)])
    res = lrt.run_config(dict(CONFIGS[test_id], test_id=test_id), S,
                         n1=40 if two else None)
    fit = res.fit_null
    if two:
        assert hasattr(fit, "M1_hat") and hasattr(fit, "M2_hat")
        assert not hasattr(fit, "M_hat")
    else:
        assert hasattr(fit, "M_hat")
        assert not hasattr(fit, "M1_hat") and not hasattr(fit, "M2_hat")


@pytest.mark.parametrize("test_id,truth,n", [
    ("a0", {"M": M.tolist()}, 6),
    ("2a0", {"M1": M.tolist(), "M2": M.tolist()}, (5, 7)),
    ("cov-check", {"M": M.tolist()}, 30),
])
def test_calibrate_samples_once_per_group_per_chunk(monkeypatch, test_id,
                                                    truth, n):
    # Each chunk of at most 1024 replicates draws, group 1 first, all its
    # means of N(M_g, sigma2/n_g, tau) in one `sample` call; cov-check too,
    # whose log-determinants come from the chunk's chi-squares, so nothing
    # is drawn once per replicate.
    calls = []

    def counted(*args, **kwargs):
        calls.append(("sample", args[0], args[2].sigma2))
        return sample(*args, **kwargs)

    monkeypatch.setattr(calibrate, "sample", counted)
    config = dict(CONFIGS[test_id], test_id=test_id)
    if test_id != "cov-check":
        config["cov"] = {"known": {"sigma2": 1.0, "tau": 0.1}}
    calibrate_null(config, dict(truth, sigma2=1.0, tau=0.1), n, 2500, 3)
    sizes = n if isinstance(n, tuple) else (n,)
    want = []
    for r in (1024, 1024, 452):
        for k in sizes:
            want.append(("sample", r, 1.0 / k))
    assert calls == want


@pytest.mark.parametrize("test_id,truth,n", [
    ("a0", {"M": M.tolist()}, 6),
    ("c2", {"M": M.tolist()}, 6),
    ("s2", {"M": M.tolist()}, 6),
    ("2s2", {"M1": M.tolist(), "M2": M.tolist()}, (5, 7)),
    ("cov-check", {"M": M.tolist()}, 30),
])
def test_calibrate_projects_once_per_set_per_chunk(monkeypatch, test_id,
                                                   truth, n):
    # The fits never depend on the covariance: each chunk of at most 1024
    # replicates is projected onto the null set and then the alternative,
    # each in one call on its stack of means; for cov-check both sets are
    # unrestricted.
    calls = []

    def counted(pset, *means, n=None):
        calls.append((type(pset), [np.shape(y) for y in means]))
        return onesample._fit(pset, *means, n=n)

    monkeypatch.setattr(lrt, "_fit", counted)
    config = dict(CONFIGS[test_id], test_id=test_id)
    calibrate_null(config, dict(truth, sigma2=1.0, tau=0.1), n, 2500, 3)
    groups = 2 if isinstance(n, tuple) else 1
    sets = lrt.parse_config(config, 3, n if groups == 2 else (n,)).sets
    assert calls == [(type(pset), [(r, 3, 3)] * groups)
                     for r in (1024, 1024, 452) for pset in sets]


@pytest.mark.parametrize("estimator", ["mean", "sigma2", "tau", "pooled_sigma2",
                                       "pooled_tau", "eigvec_var"])
def test_consistency_study_projects_once_per_chunk(monkeypatch, estimator):
    # one unrestricted fit per chunk, which gives the means and their zero
    # residual sums; the eigenvector study fits nothing, since a
    # FixedEigvals fit keeps the sample means' own frames
    calls = []

    def counted(pset, *means, n=None):
        calls.append((type(pset), [np.shape(y) for y in means]))
        return onesample._fit(pset, *means, n=n)

    monkeypatch.setattr(calibrate, "_fit", counted)
    pooled = estimator.startswith("pooled_")
    truth = ({"M1": M.tolist(), "M2": M.tolist()} if pooled
             else {"M": M.tolist()})
    calibrate.consistency_study(estimator, dict(truth, sigma2=1.0, tau=0.1),
                                [20, 30], 1500, 5)
    assert calls == ([] if estimator == "eigvec_var" else [
        (onesample.Unrestricted, [(r, 3, 3)] * (1 + pooled))
        for r in (1024, 476) * 2])


def test_eigvec_study_decomposes_once_per_chunk(monkeypatch):
    # the truth once, then per chunk one batched eigh_desc for the sample
    # means' frames and one for their rotation logs: 1 + 2 + 2 for 1500
    # replicates, not one per replicate
    from symtest.symcore import eigh_desc
    calls = []

    def counted(X):
        calls.append(np.shape(X))
        return eigh_desc(X)

    for name, module in list(sys.modules.items()):
        if (name.startswith("symtest.")
                and getattr(module, "eigh_desc", None) is eigh_desc):
            monkeypatch.setattr(module, "eigh_desc", counted)
    truth = {"M": np.diag([4.0, 2.0, 1.0]).tolist(), "sigma2": 1.0, "tau": 0.2}
    calibrate.consistency_study("eigvec_var", truth, [50], 1500, 6)
    assert calls == [(3, 3)] + [(r, 3, 3) for r in (1024,) * 2 + (476,) * 2]


def _every_set(p):
    # one instance of every parameter set at p x p, with a tied pattern
    # where the set takes one
    from symtest.symcore import Multiplicities
    mult = Multiplicities((2,) + (1,) * (p - 2))
    U0 = np.linalg.qr(np.random.default_rng(60).standard_normal((p, p)))[0]
    made = {
        onesample.Unrestricted: onesample.Unrestricted(),
        onesample.Point: onesample.Point(np.diag(np.arange(p, 0.0, -1.0))),
        onesample.FixedEigvecs: onesample.FixedEigvecs(U0),
        onesample.OrderedCone: onesample.OrderedCone(U0),
        onesample.FixedEigvals: onesample.FixedEigvals(
            np.array([3.0, 3.0] + [1.0] * (p - 2)), mult),
        onesample.Mult: onesample.Mult(mult),
        onesample.EqualMeans: onesample.EqualMeans(mult),
        onesample.CommonEigvals: onesample.CommonEigvals(mult),
    }
    assert set(made) == set(onesample.ParamSet.__subclasses__())
    return list(made.values())


@pytest.mark.parametrize("shape", [(), (5,)], ids=["one-sample", "stack"])
def test_fit_gives_sums_for_every_set_but_two(shape):
    # _fit is the one source of a fit's residual sums: every set gives them
    # as _residuals of its fitted means would, shaped and typed alike, but
    # FixedEigvecs and OrderedCone, whose callers form them per sample.
    # Unrestricted (exact zeros), Point and EqualMeans give _residuals'
    # bits; an eigenframe fit reads them from its eigenvalue shift, equal
    # to rounding
    from symtest.matnormal import SuffStats
    rng = np.random.default_rng(61)
    p = 3
    for pset in _every_set(p):
        for g in pset.groups:
            ybar = tuple(rng.standard_normal(shape + (p, p)) for _ in range(g))
            ybar = tuple(0.5 * (y + np.swapaxes(y, -1, -2)) for y in ybar)
            n = (4, 7)[:g]
            means, _, sums = onesample._fit(pset, *ybar, n=n)
            if isinstance(pset, (onesample.FixedEigvecs, onesample.OrderedCone)):
                assert sums is None, pset
                continue
            want = onesample._residuals(SuffStats(n, ybar, (0.0,) * g, (0.0,) * g),
                                        means)
            got = np.array(sums)
            assert got.shape == np.array(want).shape == (g,) + shape + (3,)
            assert all(type(x) is float for x in got.ravel().tolist())
            if isinstance(pset, (onesample.Unrestricted, onesample.Point,
                                 onesample.EqualMeans)):
                assert got.tobytes() == np.array(want).tobytes(), pset
                if isinstance(pset, onesample.Unrestricted):
                    assert not got.any()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("test_id,truth,n", [
    ("a0", {"M": M.tolist()}, 6),
    ("c2", {"M": M.tolist()}, 6),
    ("s2", {"M": M.tolist()}, 6),
    ("2s1", {"M1": M.tolist(), "M2": M.tolist()}, (5, 7)),
    ("cov-check", {"M": M.tolist()}, 30),
])
def test_calibrate_takes_pvalues_in_one_call(monkeypatch, test_id, truth, n):
    # the replicates' p-values come from one lrt.pvalue call on the sorted
    # statistics, which serves both the rejection rate and the KS distance
    calls = []
    pvalue = lrt.pvalue

    def counted(dist, t):
        calls.append(np.shape(t))
        return pvalue(dist, t)

    monkeypatch.setattr(lrt, "pvalue", counted)
    config = dict(CONFIGS[test_id], test_id=test_id)
    rep = calibrate_null(config, dict(truth, sigma2=1.0, tau=0.1), n, 2500, 3)
    assert calls == [(2500,)]
    assert rep.rejection_rate == np.mean(pvalue(rep.dist, rep.statistics) <= 0.05)


def test_no_draw_factors_a_matrix(monkeypatch):
    # every draw maps standard normals through the closed-form root of the
    # covariance; sigma2 = 1.37 keeps any cached factor out of play
    def refuse(*args, **kwargs):
        raise AssertionError("a draw factored a matrix")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    for tau in (-2.0, 0.0, 0.3):
        assert np.all(np.isfinite(sample(4, M, CovParams(1.37, tau), 5)))
    drawn = next(calibrate._draws((M,), (30,), CovParams(1.37, -2.0), 7, 6,
                                  scatter=True))
    assert all(np.all(np.isfinite(v)) for v in (drawn.a, drawn.b, drawn.logdet))
    config = dict(CONFIGS["a0"], test_id="a0",
                  cov={"known": {"sigma2": 1.37, "tau": -0.5}})
    rep = calibrate_null(config, {"M": M.tolist(), "sigma2": 1.37, "tau": -0.5},
                         6, 1000, 7)
    assert np.all(np.isfinite(rep.statistics))
    out = cone_boundary_law((2.0, 1.0, 1.0), 5, 1000, 8, cov=CovParams(1.37, -0.5))
    assert sum(out["dim_mass"].values()) == pytest.approx(1.0)


def _src_env():
    # the environment of a fresh Python process that imports this symtest
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cli_import_skips_heavy_scipy_modules(tmp_path):
    # a CLI process pays for every module it imports: none loads
    # scipy.linalg, scipy.stats or scipy.optimize, and scipy.special, which
    # only the p-values need, is loaded by a test run but neither by
    # `import symtest` nor by a simulate run; nor does an eigenvector
    # study, whose rotation logs use symtest's own eigensolver
    env = _src_env()

    def loaded(code, *argv):
        # the heavy scipy modules in sys.modules after running code, which
        # reads argv as sys.argv[1:]
        code += ("\nimport sys\nprint(' '.join(m for m in ('scipy.linalg', "
                 "'scipy.stats', 'scipy.optimize', 'scipy.special') "
                 "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return proc.stdout.splitlines()[-1].split()

    sim, test = tmp_path / "sim.json", tmp_path / "test.json"
    data = tmp_path / "d.csv"
    sim.write_text(json.dumps({"M": np.eye(2).tolist(), "n": 8, "sigma2": 1.0,
                               "tau": 0.1, "seed": 1}))
    test.write_text(json.dumps({"test_id": "a0", "M0": np.eye(2).tolist()}))
    cli = "import sys, symtest.cli\nassert symtest.cli.main(sys.argv[1:]) == 0"
    assert loaded("import symtest") == []
    assert loaded(cli, "simulate", "--config", str(sim), "--out", str(data)) == []
    assert loaded(cli, "test", "--data", str(data), "--config", str(test),
                  "--no-timestamp") == ["scipy.special"]
    assert loaded("from symtest.calibrate import consistency_study\n"
                  "rows = consistency_study('eigvec_var', {'M': [[4, 0, 0], "
                  "[0, 2, 0], [0, 0, 1]], 'sigma2': 1, 'tau': 0.2}, [50], 200, 3)\n"
                  "assert len(rows[0]['pairs']) == 3") == []


def test_src_imports_no_scipy_module_but_special():
    # scipy.special, for the reference tails, is the only scipy module in
    # src/symtest; every import statement is read, one inside a function too
    names = set()
    for path in (pathlib.Path(__file__).resolve().parents[1]
                 / "src" / "symtest").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.update(node.module + "." + alias.name for alias in node.names)
    scipy = sorted(m for m in names if m.split(".")[0] == "scipy")
    assert scipy and all(m.split(".")[1] == "special" for m in scipy), scipy


def test_cli_import_adds_only_numpy_outside_the_stdlib():
    # the import cost of a CLI process is the interpreter's, numpy's and
    # symtest's own: importing symtest.cli loads no other top-level package
    env = _src_env()
    code = ("import sys\nbefore = set(sys.modules)\nimport symtest.cli\n"
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules}\n"
            "    - {m.split('.')[0] for m in before}\n"
            "    - set(sys.stdlib_module_names))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    added = proc.stdout.split()
    assert "symtest" in added and set(added) <= {"numpy", "symtest"}, added


def _patterns(p):
    # every multiplicity pattern of p, the compositions of p
    if p == 0:
        yield ()
    for first in range(1, p + 1):
        for rest in _patterns(p - first):
            yield (first,) + rest


def _reference_grid(test_ids):
    # (test_id, p, mult, n, known, bound hypothesis) for p = 2..5, every
    # pattern and a known and an estimated covariance; cov-check, which
    # takes no covariance, once per pattern
    for p in range(2, 6):
        for mult in _patterns(p):
            # strictly decreasing block values, tied within each block
            D0 = [float(len(mult) - j) for j, m in enumerate(mult) for _ in range(m)]
            for test_id in test_ids:
                spec = lrt.TESTS[test_id]
                n = (200, 150) if test_id in TWO_GROUP else (200,)
                config = {"test_id": test_id, "M0": np.diag(D0).tolist(),
                          "U0": np.eye(p).tolist(), "D0": D0,
                          "multiplicities": list(mult)}
                config = {k: v for k, v in config.items()
                          if k in ("test_id",) + spec.keys + spec.optional}
                for known in (True, False) if "cov" in spec.optional else (False,):
                    if "cov" in spec.optional:
                        config["cov"] = ({"known": {"sigma2": 1.0, "tau": 0.1}}
                                         if known else {"estimate": True})
                    yield test_id, p, mult, n, known, lrt.parse_config(config, p, n)


def _schema_distributions():
    # the distribution label -> the keys its report object requires
    path = pathlib.Path(lrt.__file__).parent / "schemas" / "report.schema.json"
    out = {}
    for entry in json.loads(path.read_text())["properties"]["distribution"]["oneOf"]:
        kind = entry["properties"]["type"]
        for label in kind.get("enum", [kind.get("const")]):
            out[label] = set(entry["required"])
    return out


def test_every_reported_law_is_in_the_schema():
    # each law's label is a distribution type of the report schema, and the
    # fields the CLI writes after it are the ones that type requires
    laws = {type(h.dist) for *_, h in _reference_grid(sorted(lrt.TESTS))}
    assert laws == {lrt.ChiSq, lrt.ChiSqApprox, lrt.FDist, lrt.ChiSqMix}
    schema = _schema_distributions()
    for law in laws:
        assert law.label in schema
        assert {"type", *(f.name for f in dataclasses.fields(law))} == schema[law.label]


def _formula_reference(test_id, p, mult, n, known):
    # each test's reference as a per-test df formula, an oracle independent
    # of the set dimensions: o is the dimension of the orbit of a spectrum
    # with pattern mult and k its block count
    q = sym_dim(p)
    o = (p * (p - 1) - sum(m * (m - 1) for m in mult)) // 2
    k = len(mult)
    if test_id in ("a0", "2a0"):
        return lrt.ChiSq(q) if known else lrt.FDist(q, q * (sum(n) - len(n)))
    df = {"a1": p, "a2": q - p, "s1": o, "s2": q - o, "s3": q - o - k,
          "2s1": 2 * (q - o) - k, "2s2": o}[test_id]
    exact = known and test_id in ("a1", "a2")
    return (lrt.ChiSq if exact else lrt.ChiSqApprox)(df)


def test_reference_df_matches_per_test_formulas():
    # the reference the two sets give has the df of every per-test formula;
    # the formulas call only a1, a2, a0 and 2a0 exact, and the sets add
    # exactly the fully tied spectral tests with a known covariance
    ids = ("a0", "a1", "a2", "s1", "s2", "s3", "2a0", "2s1", "2s2")
    cases, relabelled = 0, []
    for test_id, p, mult, n, known, h in _reference_grid(ids):
        want = _formula_reference(test_id, p, mult, n, known)
        assert vars(h.dist) == vars(want), (test_id, p, mult, known)
        if type(h.dist) is not type(want):
            assert (type(h.dist), type(want)) == (lrt.ChiSq, lrt.ChiSqApprox)
            relabelled.append((test_id, p, mult, known))
        cases += 1
    assert cases == 9 * 30 * 2
    assert sorted(relabelled) == sorted(
        (test_id, p, (p,), True) for test_id in ("s1", "s2", "s3", "2s1", "2s2")
        for p in range(2, 6))


# ---------------------------------------------------------------------------
# README's Config-keys tables state the keys the one key rule checks

def _config_key_rows(header):
    # (first cell, backticked names of the other cells) of each row of the
    # Config-keys table whose first column is `header`
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = text[text.index("Config keys."):text.index("Exit codes:")]
    rows, inside = [], False
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            inside = False
        elif cells[0] == header:
            inside = True
        elif inside and not cells[0].startswith("-"):
            rows.append((cells[0], [re.findall(r"`([^`]+)`", c) for c in cells[1:]]))
    assert rows, header
    return rows


def test_readme_lists_each_test_configs_keys():
    seen = []
    for first, (required, optional) in _config_key_rows("test_id"):
        for test_id in re.findall(r"`([^`]+)`", first):
            spec = lrt.TESTS[test_id]
            assert sorted(required + optional) == sorted(
                spec.keys + spec.optional), test_id
            seen.append(test_id)
    assert sorted(seen) == sorted(lrt.TESTS)


def test_readme_lists_the_keys_the_rule_checks(tmp_path, monkeypatch, capsys):
    # every call of check_keys outside a test config's arguments, made by
    # each form of every config object, against the README's rows
    from symtest import cli, symcore
    calls = set()

    def spy(obj, required, optional=(), what=None, arguments=False):
        if not arguments and not (what or "").startswith("config for"):
            calls.add((frozenset(required), frozenset(optional)))
        return symcore.check_keys(obj, required, optional, what, arguments)

    for module in (lrt, calibrate, cli):
        monkeypatch.setattr(module, "check_keys", spy)
    M, eye = np.diag([2.0, 1.0]).tolist(), np.eye(2).tolist()
    one = {"M": M, "sigma2": 1.0, "tau": 0.0}
    two = {"M1": M, "M2": M, "sigma2": 1.0, "tau": 0.0}
    configs = {
        "sim1": ("simulate", dict(one, n=5, seed=1, p=2)),
        "sim2": ("simulate", dict(two, n1=3, n2=4)),
        "cal1": ("calibrate", {"test": {"test_id": "a0", "M0": M},
                               "truth": one, "n": 5, "reps": 1000}),
        "cal2": ("calibrate", {"test": {"test_id": "2a0"}, "truth": two,
                               "n": [5, 5], "seed": 2}),
        "cw": ("cone-weights", {"d_true": [1.0, 1.0], "reps": 10}),
    }
    for name, (command, config) in configs.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / (name + ".csv"))]
        assert cli.main(argv) == 0, capsys.readouterr().err
    S = sample(10, np.diag([2.0, 1.0]), CovParams(1.0, 0.0), 3)
    for cov in ({"estimate": True}, {"known": {"sigma2": 1.0, "tau": 0.0}}):
        lrt.run_config({"test_id": "c2", "U0": eye, "cov": cov, "weights": {
            "face_dims": [1, 2], "weights": [0.5, 0.5]}}, S)
    rows = _config_key_rows("object")
    assert calls == {(frozenset(required), frozenset(optional))
                     for _, (required, optional) in rows}
    assert len(rows) == len(calls)
