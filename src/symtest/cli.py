"""Command-line surface.

Subcommands: simulate (write a CSV dataset), test (run one configured
hypothesis test), calibrate (Monte Carlo null calibration), cone-weights
(order-cone mixture weights), cov-check (covariance-structure test).
Each subcommand maps its parsed arguments to the body of its report
(simulate writes its CSV and has none). main alone writes every report:
{"tool", "version", **body}, then a UTC "timestamp" unless
--no-timestamp, to stdout, and it alone maps an error to its exit code.

Reports are JSON with floats at 17 significant digits, byte-identical
for a fixed (data, config, seed) apart from the timestamp, which
--no-timestamp suppresses. Datasets are CSV: header `p=<int>,group`,
then one observation per row as the p(p+1)/2 raw upper-triangle entries
in row-major order followed by the group label (1 or 2). One reader
(_read_text) decodes every input file once as UTF-8 (a byte-order mark
dropped), naming the line of a bad byte; one writer (_write_csv)
writes every CSV; one key rule (symcore.check_keys) checks every config.

Exit codes: 0 success, 1 internal-consistency failure, 2 input error.
"""

import argparse
import csv
import datetime
import io
import json
import math
import sys

import numpy as np

from . import __version__, calibrate, lrt
from .symcore import check_integer, check_keys, eigh_desc, matrix_log, sym_dim
from .matnormal import _rng_from, sample


class InputError(Exception):
    """Bad user input: malformed file, inconsistent config, wrong shape."""


# ---------------------------------------------------------------------------
# serialization

def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("cannot serialize non-finite number %r" % x)
        return "%.17g" % x
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError("cannot serialize %r" % (x,))


def dumps(obj, _indent=0):
    """JSON text with floats at 17 significant digits.

    The stdlib encoder offers no hook for float formatting, so the
    (small) recursion is done here; parsing still uses json.loads.
    """
    pad = "  " * _indent
    inner = "  " * (_indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k, v in obj.items():
            parts.append("%s%s: %s" % (inner, json.dumps(str(k)),
                                       dumps(v, _indent + 1)))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating))
               and not isinstance(v, bool) for v in seq):
            return "[" + ", ".join(_fmt(v) for v in seq) + "]"
        parts = ["%s%s" % (inner, dumps(v, _indent + 1)) for v in seq]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _fmt(obj)


def _matrix(M):
    return [[float(v) for v in row] for row in np.asarray(M, dtype=float)]


def _dist_payload(dist):
    # a law's label, then its fields in order: numbers or tuples of numbers
    return {"type": dist.label, **{k: np.asarray(v, dtype=float).tolist()
                                   for k, v in vars(dist).items()}}


def _mle_payload(fit):
    names = ("M_hat",) if len(fit.means) == 1 else ("M1_hat", "M2_hat")
    out = dict(zip(names, map(_matrix, fit.means)),
               sigma2_hat=float(fit.sigma2_hat), tau_hat=float(fit.tau_hat))
    if fit.face_dim is not None:
        out["face_dim"] = int(fit.face_dim)
    return out


# ---------------------------------------------------------------------------
# dataset files

def _read_text(path):
    # path's bytes decoded once as UTF-8, a leading byte-order mark dropped;
    # an unreadable file, or a non-UTF-8 byte (named by line), is bad input
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8-sig")
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except UnicodeDecodeError as e:  # e.start indexes the bytes after a mark
        raise InputError("%s line %d: byte 0x%02x is not utf-8 text"
                         % (path, e.object.count(b"\n", 0, e.start) + 1,
                            e.object[e.start]))


def _write_csv(path, rows, fmt, header):
    # rows under a header line, as np.savetxt formats them; a file that
    # cannot be written is bad input
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            np.savetxt(fh, rows, fmt=fmt, delimiter=",", header=header,
                       comments="")
    except OSError as e:
        raise InputError("cannot write %s: %s" % (path, e))


def read_dataset(path):
    """Parse a dataset CSV into (S, n1).

    S stacks the group-1 observations before the group-2 ones; n1 is the
    group-1 count when group 2 is present, else None.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("%s: empty file" % path)
    if (len(header) != 2 or not header[0].startswith("p=")
            or header[1].strip() != "group"):
        raise InputError("%s line 1: header must be 'p=<int>,group'" % path)
    try:
        p = int(header[0][2:])
    except ValueError:
        raise InputError("%s line 1: bad dimension %r" % (path, header[0]))
    if p < 1:
        raise InputError("%s line 1: dimension must be positive" % path)
    q = sym_dim(p)
    groups = {1: [], 2: []}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != q + 1:
            raise InputError("%s line %d: expected %d fields, got %d"
                             % (path, lineno, q + 1, len(row)))
        try:
            vals = [float(v) for v in row[:q]]
        except ValueError as e:
            raise InputError("%s line %d: %s" % (path, lineno, e))
        if not all(math.isfinite(v) for v in vals):
            raise InputError("%s line %d: non-finite value" % (path, lineno))
        g = row[q].strip()
        if g not in ("1", "2"):
            raise InputError("%s line %d: group must be 1 or 2, got %r"
                             % (path, lineno, g))
        groups[int(g)].append(vals)
    if not groups[1]:
        raise InputError("%s: no group-1 observations" % path)
    # every row's upper triangle, group 1 first, mirrored in one assignment
    rows = np.array(groups[1] + groups[2])
    S = np.zeros((len(rows), p, p))
    iu = np.triu_indices(p)
    S[:, iu[0], iu[1]] = S[:, iu[1], iu[0]] = rows
    return S, len(groups[1]) if groups[2] else None


def write_dataset(path, S, n1=None):
    """Write observations as CSV; group 2 starts at index n1 if given."""
    S = np.asarray(S, dtype=float)
    p = S.shape[1]
    iu = np.triu_indices(p)
    n1 = len(S) if n1 is None else n1
    group = np.where(np.arange(len(S)) < n1, 1, 2)
    _write_csv(path, np.column_stack((S[:, iu[0], iu[1]], group)),
               ["%.17g"] * len(iu[0]) + ["%d"], "p=%d,group" % p)


def load_json(path):
    """The JSON object a config file holds; anything else is an InputError."""
    try:
        config = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise InputError("%s: invalid JSON at line %d column %d: %s"
                         % (path, e.lineno, e.colno, e.msg))
    if not isinstance(config, dict):
        raise InputError("%s: a config must be a JSON object" % path)
    return config


def _log_transform(S):
    # one eigendecomposition of the whole sample; only when it fails is the
    # first observation that is not positive definite looked up
    try:
        return matrix_log(S)
    except np.linalg.LinAlgError:
        raise
    except ValueError:
        i = np.flatnonzero(eigh_desc(S).lam[:, -1] <= 0.0)[0]
        raise InputError(
            "observation %d is not positive definite; --log-transform "
            "requires positive definite matrices" % (i + 1))


# ---------------------------------------------------------------------------
# subcommands: each maps its parsed arguments to its report body

def _setting(args, config, key, default):
    # --seed/--reps, else the config's value, else the default, named as
    # either source would be; a seed must be nonnegative
    value = getattr(args, key, None)
    value = config.get(key, default) if value is None else value
    if value is None:
        return None
    return check_integer(value, repr(key), 0 if key == "seed" else None)


def cmd_simulate(args):
    config = load_json(args.config)
    # the mean and count keys of each group, group 1 first
    two = "M1" in config or "n1" in config
    keys, counts = (("M1", "M2"), ("n1", "n2")) if two else (("M",), ("n",))
    means, cov = calibrate._generator(config, keys, "simulate config", counts,
                                      ("seed", "p"))
    seed = _setting(args, config, "seed", 0)
    sizes = [check_integer(config[k], "config %r" % k) for k in counts]
    p = means[0].shape[0]
    if check_integer(config.get("p", p), "config 'p'") != p:
        raise InputError("config p=%d does not match the mean's dimension %d"
                         % (int(config["p"]), p))
    # a one-group sample draws from the seed, group g of two from its child g
    parts = []
    for k, M, key, name in zip(sizes, means, ([(0,), (1,)] if two else [()]),
                               counts):
        rng = _rng_from(seed, key)
        try:
            parts.append(sample(k, M, cov, rng))
        except ValueError as e:  # M and cov are checked above: it is k's
            raise InputError("config %r: %s" % (name, e))
    write_dataset(args.out, np.concatenate(parts), sizes[0] if two else None)


def cmd_test(args, config=None):
    # cov-check passes its fixed config; test reads --config
    config = load_json(args.config) if config is None else config
    S, n1 = read_dataset(args.data)
    if args.log_transform:
        S = _log_transform(S)
    res = lrt.run_config(config, S, n1=n1)
    n = S.shape[0]
    body = {"test_id": res.test_id, "n": n}
    if n1 is not None:
        body.update(n1=n1, n2=n - n1)
    body.update(statistic=float(res.statistic),
                distribution=_dist_payload(res.dist),
                p_value=float(res.p_value), mle=_mle_payload(res.fit_null),
                warnings=list(res.warnings),
                seed=_setting(args, config, "seed", None))
    return body


def cmd_calibrate(args):
    config = check_keys(load_json(args.config), ("test", "truth", "n"),
                        ("reps", "seed"), "calibrate config")
    reps = _setting(args, config, "reps", 5000)
    seed = _setting(args, config, "seed", 0)
    rep = calibrate.calibrate_null(config["test"], config["truth"],
                                   config["n"], reps, seed)
    if args.out is not None:
        _write_qq(args.out, rep)
    body = {"test_id": rep.test_id, "reps": rep.reps, "n": rep.n}
    if rep.n1 is not None:
        body.update(n1=rep.n1, n2=rep.n2)
    body.update(distribution=_dist_payload(rep.dist),
                quantile_probs=list(rep.quantile_probs),
                empirical_quantiles=list(rep.empirical_quantiles),
                theoretical_quantiles=list(rep.theoretical_quantiles),
                ks_distance=rep.ks_distance, alpha=rep.alpha,
                rejection_rate=rep.rejection_rate, seed=seed)
    return body


def _write_qq(path, rep):
    # 99 interior percentile points, plot-ready
    probs = np.arange(1, 100) / 100.0
    _write_csv(path, np.column_stack((lrt.quantile(rep.dist, probs),
                                      np.quantile(rep.statistics, probs))),
               "%.17g", "q_theoretical,q_empirical")


def cmd_cone_weights(args):
    config = check_keys(load_json(args.config), ("d_true",), ("reps", "seed"),
                        "cone-weights config")
    reps = _setting(args, config, "reps", 100000)
    seed = _setting(args, config, "seed", 0)
    w = calibrate.estimate_cone_weights(config["d_true"], reps, seed)
    return {"d_true": list(w.d_true), "face_dims": list(w.face_dims),
            "weights": list(w.weights), "reps": w.reps, "seed": seed}


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symtest",
        description="Estimation and likelihood-ratio tests for the "
                    "eigenstructure of Gaussian symmetric matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a simulated dataset CSV")
    sim.add_argument("--config", required=True, help="generator config JSON")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sim.set_defaults(run=cmd_simulate)

    tst = sub.add_parser("test", help="run a configured hypothesis test")
    tst.add_argument("--data", required=True, help="dataset CSV path")
    tst.add_argument("--config", required=True, help="hypothesis config JSON")
    tst.add_argument("--log-transform", action="store_true",
                     help="apply a matrix logarithm to each observation")
    tst.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp field from the report")
    tst.set_defaults(run=cmd_test)

    cal = sub.add_parser("calibrate", help="Monte Carlo null calibration")
    cal.add_argument("--config", required=True,
                     help="config JSON with test, truth, n, reps, seed")
    cal.add_argument("--seed", type=int, default=None)
    cal.add_argument("--reps", type=int, default=None)
    cal.add_argument("--out", default=None,
                     help="write a QQ plot CSV (theoretical vs empirical)")
    cal.add_argument("--no-timestamp", action="store_true")
    cal.set_defaults(run=cmd_calibrate)

    cw = sub.add_parser("cone-weights",
                        help="estimate order-cone mixture weights")
    cw.add_argument("--config", required=True,
                    help="config JSON with d_true, reps, seed")
    cw.add_argument("--seed", type=int, default=None)
    cw.add_argument("--reps", type=int, default=None)
    cw.add_argument("--no-timestamp", action="store_true")
    cw.set_defaults(run=cmd_cone_weights)

    cc = sub.add_parser("cov-check",
                        help="test the orthogonally invariant covariance")
    cc.add_argument("--data", required=True, help="dataset CSV path")
    cc.add_argument("--log-transform", action="store_true")
    cc.add_argument("--no-timestamp", action="store_true")
    cc.set_defaults(run=lambda args: cmd_test(args, {"test_id": "cov-check"}))

    return parser


def main(argv=None):
    """Run one subcommand, write its report and return the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        body = args.run(args)
    except (lrt.StatisticError, np.linalg.LinAlgError) as e:
        # first: a LinAlgError is a ValueError, yet an internal failure
        print("internal error: %s" % e, file=sys.stderr)
        return 1
    except (InputError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if body is not None:
        report = {"tool": "symtest", "version": __version__, **body}
        if not args.no_timestamp:
            report["timestamp"] = datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds")
        sys.stdout.write(dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
