"""Batch driver: identity suites, norm computation, parameter scans with
exponent fits, sieve and BDH experiments.

Subcommands: verify | norm | scan | sieve | bdh.  Configuration comes from
a line-oriented key=value file (repeated keys or comma-separated values
form lists) with command-line flags overriding; every output record
carries the full parameter tuple, the seed, a per-record wall time in
milliseconds, and a timestamp isolated in its own column.  Identical
config + seed reproduce identical output except for the millis and
timestamp columns, under a fixed BLAS thread setting: the thread count
of a threaded BLAS can change the last bits of a norm.  Exit codes:
0 all pass, 1 violation or finding, 2 usage error.
"""

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import product
from math import gcd, isfinite, log

import numpy as np

FIELDS = ["experiment", "Q", "k", "T", "N", "extra_params", "value",
          "residual", "pass", "seed", "millis", "timestamp"]


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    subcommand: str
    Q: list = field(default_factory=lambda: [4.0])
    k: list = field(default_factory=lambda: [1])
    T: list = field(default_factory=lambda: [1.0])
    N: list = field(default_factory=lambda: [16.0])
    X: list = field(default_factory=lambda: [20])
    seed: int = 12345
    tol: float = 1e-9
    out: str = None
    format: str = "csv"
    threads: int = 1
    suites: list = None
    family: str = "multiplicative"
    plan: str = None
    trials: int = 5
    plot_out: str = None

    def validate(self):
        for name in ("Q", "k", "T", "N", "X"):
            vals = getattr(self, name)
            if not vals:
                raise ConfigError(f"range {name} is empty")
            if not all(isfinite(v) for v in vals):
                raise ConfigError(f"range {name} must be finite")
            if any(v < 1 for v in vals):
                raise ConfigError(f"range {name} must be >= 1")
        if not (isfinite(self.tol) and self.tol >= 0):
            raise ConfigError("tol must be finite and nonnegative")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.family not in ("multiplicative", "additive", "rational"):
            raise ConfigError(f"unknown family {self.family!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")


def parse_config_file(path):
    """key=value lines; repeated keys and comma-separated values form
    lists; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            vals = [v.strip() for v in val.split(",") if v.strip()]
            out.setdefault(key, []).extend(vals)
    return out


def _each(parse):
    return lambda vals: [parse(v) for v in vals]


def _last(parse):
    return lambda vals: parse(vals[-1])


def _split_commas(vals):
    return [s for v in vals for s in v.split(",") if s]


# every key of the config file and the flag of the same name, with the
# parser of its list of values; a single-valued key keeps its last value
KEYS = {
    "Q": _each(float), "T": _each(float), "N": _each(float),
    "k": _each(int), "X": _each(int),
    "seed": _last(int), "tol": _last(float), "out": _last(str),
    "format": _last(str), "threads": _last(int), "suites": _split_commas,
    "family": _last(str), "plan": _last(str), "trials": _last(int),
    "plot_out": _last(str),
}


def build_config(args):
    cfg = RunConfig(subcommand=args.subcommand)
    given = parse_config_file(args.config) if args.config else {}
    for key in given:
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    if getattr(args, "threads", None) is None and os.environ.get("SIEVELAB_THREADS"):
        given["threads"] = [os.environ["SIEVELAB_THREADS"]]
    # flags override the file
    for key in KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = flag if isinstance(flag, list) else [flag]
    for key, vals in given.items():
        try:
            setattr(cfg, key, KEYS[key](vals))
        except ValueError:
            raise ConfigError(f"bad value for {key}: {vals!r}")
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------

def make_record(experiment, Q="", k="", T="", N="", extra=None, value="",
                residual="", ok=True, seed=0, millis=0):
    return {
        "experiment": experiment, "Q": Q, "k": k, "T": T, "N": N,
        "extra_params": json.dumps(extra or {}, sort_keys=True),
        "value": repr(value) if isinstance(value, float) else value,
        "residual": repr(residual) if isinstance(residual, float) else residual,
        "pass": ok, "seed": seed, "millis": millis,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def write_records(records, cfg):
    if cfg.format == "json":
        text = json.dumps(records, indent=2, default=str) + "\n"
    else:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=FIELDS, lineterminator="\n")
        w.writeheader()
        for r in records:
            w.writerow(r)
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_plot(path, pairs, xlabel, ylabel):
    with open(path, "w") as fh:
        fh.write(f"{xlabel},{ylabel}\n")
        for x, y in pairs:
            fh.write(f"{x!r},{y!r}\n")


def _timed(fn, *a, **kw):
    t0 = time.monotonic()
    out = fn(*a, **kw)
    return out, int((time.monotonic() - t0) * 1000)


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------

def _suite_orthogonality(seed, tol):
    from .characters import char_group
    from .arith import totient
    rng = random.Random(seed)
    worst = 0.0
    for q in [1, 2, 5, 8, 9, 12, 15, 24, 30]:
        for _ in range(3):
            m, n = rng.randrange(q or 1), rng.randrange(q or 1)
            if q > 1 and (gcd(m, q) != 1 or gcd(n, q) != 1):
                continue
            s = sum(complex(chi(m)) * complex(chi(n)).conjugate()
                    for chi in char_group(q))
            want = totient(q) if (m - n) % max(q, 1) == 0 else 0.0
            worst = max(worst, abs(s - want))
    return worst, worst <= max(tol, 0) * 100 + (1e-9 if tol > 0 else 0)


def _suite_kernel(seed, tol):
    from .characters import char_group, is_primitive
    from .kernels import kernel_detection_value, primitivity_kernel
    from .arith import divisors
    worst = 0.0
    for q in range(1, 41):
        ker = primitivity_kernel(q)
        if ker.abs_sum() > len(divisors(q)):
            return float("inf"), False
        for psi in char_group(q):
            v = kernel_detection_value(psi)
            want = 1.0 if is_primitive(psi) else 0.0
            worst = max(worst, abs(v - want))
    return worst, worst <= tol + 1e-12 if tol > 0 else worst == 0


def _suite_coset(seed, tol):
    from .kernels import coset_identity_check, random_char_table
    from .characters import char_group
    rng = random.Random(seed)
    worst = 0.0
    ok = True
    for q, r in [(6, 3), (12, 4), (15, 5), (20, 10), (24, 12), (36, 12)]:
        tab = random_char_table(list(char_group(q)), rng.randrange(2**30))
        F = lambda c1, c2: tab[c1] * tab[c2].conjugate()
        rep = coset_identity_check(q, r, F, tol=max(tol, 1e-300))
        worst = max(worst, rep.residual)
        ok = ok and rep.ok
    return worst, ok


def _suite_theta(seed, tol):
    from .kernels import random_char_table, theta_separation_check
    from .characters import char_group
    rng = random.Random(seed)
    worst = 0.0
    ok = True
    for k in [1, 2, 3, 4, 6, 8, 9, 12, 15]:
        b = random_char_table(list(char_group(k)), rng.randrange(2**30))
        rep = theta_separation_check(k, b, tol=max(tol, 1e-300))
        worst = max(worst, rep.residual1, rep.residual2)
        ok = ok and rep.ok
    return worst, ok


def _suite_chifact(seed, tol):
    from .characters import primitive_chars
    from .kernels import chi_factorize
    rng = random.Random(seed)
    worst = 0.0
    for q1, q2 in [(3, 4), (4, 8), (5, 9), (8, 12), (9, 16), (12, 5)]:
        g1, g2 = list(primitive_chars(q1)), list(primitive_chars(q2))
        for _ in range(4):
            c1, c2 = rng.choice(g1), rng.choice(g2)
            f = chi_factorize(c1, c2)
            err1 = 0.0 if f.reconstruct(1) == c1 else 1.0
            err2 = 0.0 if f.reconstruct(2) == c2 else 1.0
            err3 = 0.0 if f.product_conductor_formula() else 1.0
            worst = max(worst, err1, err2, err3)
    return worst, worst <= tol if tol > 0 else worst == 0


def _suite_chisep(seed, tol):
    from .characters import primitive_chars
    from .kernels import chiseparation_check, random_char_table
    moduli = [3, 4, 5, 8, 9, 12]
    chars = [c for q in moduli for c in primitive_chars(q)]
    b = random_char_table(chars, seed)
    rep = chiseparation_check(moduli, b, tol=max(tol, 1e-300))
    return rep.residual, rep.ok


def _suite_archimedean(seed, tol):
    import math
    from .kernels import archimedean_coset_check
    rng = random.Random(seed)
    worst = 0.0
    ok = True
    for T, U in [(4.0, 1.0), (8.0, 2.0), (6.0, 3.0)]:
        c = [rng.gauss(0, 1) for _ in range(3)]
        d = [rng.gauss(0, 1) for _ in range(2)]
        beta = lambda t: c[0] + c[1] * math.cos(t) + c[2] * math.sin(0.7 * t)
        w = lambda x: d[0] + d[1] * math.cos(0.5 * x)
        rep = archimedean_coset_check(T, U, beta, w, tol=max(tol, 1e-300))
        worst = max(worst, rep.residual)
        ok = ok and rep.ok
    return worst, ok


def _suite_zfunction(seed, tol):
    from .specials import z_cd_euler, z_cd_series
    worst = 0.0
    for c, d in [(1, 1), (1, 2), (2, 3), (4, 6), (5, 5)]:
        for s in (2.0, 2 + 1j):
            e = z_cd_euler(c, d, s)
            t = z_cd_series(c, d, s)
            worst = max(worst, abs(e - t) / abs(e))
    return worst, worst <= max(tol, 1e-4)


def _suite_gram(seed, tol):
    from .norms import FamilySpec, gram_bruteforce, gram_multiplicative
    from .rationals import enumerate_pairs
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(4):
        Q = rng.randint(3, 12)
        k = rng.randint(1, 4)
        T = rng.choice([1.0, 2.0])
        N = rng.randint(4, 24)
        spec = FamilySpec(Q, k, T)
        idx = enumerate_pairs(N, "dyadic")
        g1 = gram_multiplicative(spec, idx)
        g2 = gram_bruteforce(spec, idx, 96)
        scale = max(np.abs(g1.matrix).max(), 1.0)
        worst = max(worst, float(np.abs(g1.matrix - g2.matrix).max() / scale))
    return worst, worst <= max(tol, 1e-8) if tol > 0 else worst == 0


def _suite_duality(seed, tol):
    from .norms import additive_matrix, duality_check
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(4):
        Q = rng.randint(2, 10)
        N = rng.randint(4, 30)
        rows, cols, lam = additive_matrix(Q, N)
        v1, v2 = duality_check(rows, cols, lam)
        worst = max(worst, abs(v1 - v2) / max(v1, 1.0))
    return worst, worst <= max(tol, 1e-8) if tol > 0 else worst == 0


def _suite_bdh(seed, tol):
    from .sieve_apps import bdh_lhs, bdh_rhs_chars, random_bdh_input
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(6):
        inp = random_bdh_input(rng.randint(2, 40), rng.randint(1, 10),
                               seed=rng.randrange(2**30))
        l, r = bdh_lhs(inp), bdh_rhs_chars(inp)
        worst = max(worst, abs(l - r) / max(l, 1e-12))
    return worst, worst <= max(tol, 1e-8) if tol > 0 else worst == 0


SUITES = {
    "orthogonality": _suite_orthogonality,
    "kernel": _suite_kernel,
    "coset": _suite_coset,
    "theta": _suite_theta,
    "chifact": _suite_chifact,
    "chisep": _suite_chisep,
    "archimedean": _suite_archimedean,
    "zfunction": _suite_zfunction,
    "gram": _suite_gram,
    "duality": _suite_duality,
    "bdh": _suite_bdh,
}


def cmd_verify(cfg):
    names = cfg.suites or list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}")
    records = []
    all_ok = True
    for name in names:
        (worst, ok), ms = _timed(SUITES[name], cfg.seed, cfg.tol)
        all_ok = all_ok and ok
        records.append(make_record(
            f"verify_{name}", extra={"tol": cfg.tol}, value=float(worst),
            residual=float(worst), ok=bool(ok), seed=cfg.seed, millis=ms))
    write_records(records, cfg)
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# norm / scan
# ----------------------------------------------------------------------

def _norm_point(cfg, point):
    from .norms import delta, delta_add, delta_rational
    Q, k, T, N = point
    if cfg.family == "multiplicative":
        est = delta(Q, k, T, N, tol=cfg.tol or 1e-9)
    elif cfg.family == "additive":
        est = delta_add(Q, N, tol=cfg.tol or 1e-9)
    else:
        est = delta_rational(Q, N, tol=cfg.tol or 1e-9)
    return est


def _grid(cfg):
    return list(product(cfg.Q, cfg.k, cfg.T, cfg.N))


def _run_grid(cfg):
    """The grid and, for each point, (estimate, millis)."""
    grid = _grid(cfg)

    def worker(point):
        return _timed(_norm_point, cfg, point)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(worker, grid))
    else:
        results = [worker(p) for p in grid]
    return grid, results


def cmd_norm(cfg):
    grid, results = _run_grid(cfg)
    records = []
    for (Q, k, T, N), (est, ms) in zip(grid, results):
        records.append(make_record(
            f"norm_{cfg.family}", Q=Q, k=k, T=T, N=N,
            extra={"method": est.method, "route": est.route, "size": est.size,
                   "iterations": est.iterations},
            value=est.value, residual=est.residual, ok=True,
            seed=cfg.seed, millis=ms))
    write_records(records, cfg)
    return 0


def cmd_scan(cfg):
    from .norms import exponent_fit

    grid, results = _run_grid(cfg)
    records = []
    values = {}
    for (Q, k, T, N), (est, ms) in zip(grid, results):
        # against the trivial bound Q^2 k T + N, and against Q^2 k T + n for
        # the index count n, about (6/pi^2) N log N, which tracks Delta
        # without the log N drift at fixed Q
        budget = Q * Q * k * T
        values[(Q, k, T, N)] = est.value
        records.append(make_record(
            f"scan_{cfg.family}", Q=Q, k=k, T=T, N=N,
            extra={"method": est.method, "route": est.route, "size": est.size,
                   "ratio_trivial": est.value / (budget + N),
                   "ratio_index": est.value / (budget + est.size)},
            value=est.value, residual=est.residual, ok=True,
            seed=cfg.seed, millis=ms))

    plots = []
    # N-aspect fits at each fixed (Q, k, T); Q-aspect at each fixed (k, T, N),
    # each over the distinct values of its axes, so a repeated grid value
    # neither repeats a fit nor counts as a point of one
    distinct = {axis: list(dict.fromkeys(getattr(cfg, axis))) for axis in "QkTN"}
    for aspect, i in (("N", 3), ("Q", 0)):
        fixed_axes = [axis for axis in "QkTN" if axis != aspect]
        for fixed in product(*(distinct[axis] for axis in fixed_axes)):
            points = [fixed[:i] + (x,) + fixed[i:] for x in distinct[aspect]]
            samples = [(p[i], values[p]) for p in points if values[p] > 0]
            if len(samples) >= 3:
                fit = exponent_fit(samples)
                records.append(make_record(
                    f"scan_fit_{aspect}", **dict(zip(fixed_axes, fixed)),
                    extra={"intercept": fit.intercept, "points": len(samples)},
                    value=fit.slope, residual=fit.residual, ok=True,
                    seed=cfg.seed, millis=0))
                plots.extend(samples)
    if cfg.plot_out and plots:
        write_plot(cfg.plot_out, plots, "x", "delta")
    write_records(records, cfg)
    return 0


# ----------------------------------------------------------------------
# sieve / bdh
# ----------------------------------------------------------------------

# a drawn residue held in its plan's frozenset, its record's sorted list and
# the record text: traced at about 230 bytes a residue at Q = 10^4
_RESIDUE_BYTES = 240


def cmd_sieve(cfg):
    """One report per plan: the plan file's, or an empty-plan control and
    `trials` random plans.  Delta_rational(Q, N) is solved once for each
    distinct (Q, N) and its value passed to every report of that (Q, N); the
    first record of each (Q, N), the control in a random run, carries the
    solve in its millis."""
    from .arith import primes_in
    from .norms import delta_rational
    from .rationals import _ROUTE_BYTES, _check_bytes
    from .sieve_apps import SievePlan, read_plan, sieve_inequality_report

    jobs = []
    if cfg.plan:
        plan, Q = read_plan(cfg.plan)
        jobs.append((plan, Q, "file"))
    else:
        N = int(cfg.N[0])
        Q = cfg.Q[0]
        P = max(int(Q), 2)
        # a trial draws at most p - 1 residues at each prime p <= P, and
        # sum_{p <= P} p = P pi(P) - int_2^P pi <= (0.75506 P^2 + 144.5) / ln P
        # by t / ln t < pi(t) (t >= 17) < 1.25506 t / ln t (Rosser-Schoenfeld)
        _check_bytes(f"random plan draw of {cfg.trials} trials to Q = {P}",
                     _RESIDUE_BYTES * cfg.trials * (0.75506 * P * P + 144.5) / log(P),
                     _ROUTE_BYTES)
        jobs.append((SievePlan(N, {}), Q, "control"))
        rng = random.Random(cfg.seed)
        for t in range(cfg.trials):
            omega = {}
            for p in primes_in(2, P):
                if rng.random() < 0.6:
                    size = rng.randint(0, p - 1)
                    omega[p] = frozenset(rng.sample(range(p), size))
            jobs.append((SievePlan(N, omega), Q, f"random_{t}"))

    tol = cfg.tol or 1e-9
    deltas = {}

    def report(plan, Q):
        if (Q, plan.N) not in deltas:
            deltas[Q, plan.N] = delta_rational(Q, plan.N, tol=tol).value
        return sieve_inequality_report(plan, Q, tol, deltas[Q, plan.N])

    records = []
    all_ok = True
    for plan, Q, tag in jobs:
        rep, ms = _timed(report, plan, Q)
        all_ok = all_ok and rep.ok
        records.append(make_record(
            "sieve", Q=Q, N=plan.N,
            extra={"tag": tag, "size": rep.size, "H": str(rep.H),
                   "omega": {str(p): sorted(v) for p, v in plan.omega.items()}},
            value=rep.ratio, residual=float(max(0.0, rep.ratio - 1)),
            ok=rep.ok, seed=cfg.seed, millis=ms))
    write_records(records, cfg)
    return 0 if all_ok else 1


def cmd_bdh(cfg):
    from .sieve_apps import bdh_lhs, bdh_rhs_chars, random_bdh_input

    def trial(X, Q, seed):
        inp = random_bdh_input(X, Q, seed=seed)
        return inp, bdh_lhs(inp), bdh_rhs_chars(inp)

    rng = random.Random(cfg.seed)
    records = []
    all_ok = True
    tol = cfg.tol if cfg.tol > 0 else 0.0
    for t in range(cfg.trials):
        X = rng.choice(cfg.X)
        Q = int(rng.choice(cfg.Q))
        (inp, l, r), ms = _timed(trial, X, Q, rng.randrange(2**30))
        rel = abs(l - r) / max(abs(l), 1e-12)
        ok = rel <= max(tol, 1e-8) if tol > 0 else rel == 0
        all_ok = all_ok and ok
        records.append(make_record(
            "bdh", Q=Q, N=X, extra={"support": len(inp.alpha), "lhs": l, "rhs": r},
            value=rel, residual=rel, ok=ok, seed=cfg.seed, millis=ms))
    write_records(records, cfg)
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="sievelab",
        description="large-sieve norms, identity suites, and sieve experiments")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in ("verify", "norm", "scan", "sieve", "bdh"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("-Q", action="append", dest="Q")
        p.add_argument("-k", action="append", dest="k")
        p.add_argument("-T", action="append", dest="T")
        p.add_argument("-N", action="append", dest="N")
        if name == "verify":
            p.add_argument("--suites", action="append")
        if name in ("norm", "scan"):
            p.add_argument("--family",
                           choices=("multiplicative", "additive", "rational"))
        if name == "scan":
            p.add_argument("--plot-out", dest="plot_out")
        if name == "sieve":
            p.add_argument("--plan")
            p.add_argument("--trials", type=int, default=None)
        if name == "bdh":
            p.add_argument("-X", action="append", dest="X")
            p.add_argument("--trials", type=int, default=None)
    return ap


COMMANDS = {"verify": cmd_verify, "norm": cmd_norm, "scan": cmd_scan,
            "sieve": cmd_sieve, "bdh": cmd_bdh}


def run(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = build_config(args)
        return COMMANDS[args.subcommand](cfg)
    except (ConfigError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
