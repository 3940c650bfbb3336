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
from datetime import datetime, timezone
from itertools import product
from math import gcd, isfinite, log

import numpy as np

FIELDS = ["experiment", "Q", "k", "T", "N", "extra_params", "value",
          "residual", "pass", "seed", "millis", "timestamp"]


class ConfigError(Exception):
    pass


def _each(parse):
    return lambda vals: [parse(v) for v in vals]


def _last(parse):
    def last(vals):
        if not vals:
            raise ValueError("no value given")
        return _each(parse)(vals)[-1]
    return last


def _one_of(*allowed):
    def parse(v):
        if v not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}")
        return v
    return parse


def _split_commas(vals):
    return [s for v in vals for s in v.split(",") if s]


# every run option once: key -> (the parser of its list of values, its
# default as a config-file value or None, the subcommands whose flag takes
# it, all when none are named).  Its flag is -Q for a one-letter key and
# --plot-out for plot_out; every value of a repeated key or flag is parsed,
# and a single-valued key keeps the last
OPTIONS = {
    "Q": (_each(float), "4", ()),
    "k": (_each(int), "1", ()),
    "T": (_each(float), "1", ()),
    "N": (_each(float), "16", ()),
    "X": (_each(int), "20", ("bdh",)),
    "seed": (_last(int), "12345", ()),
    "tol": (_last(float), "1e-9", ()),
    "out": (_last(str), None, ()),
    "format": (_last(_one_of("csv", "json")), "csv", ()),
    "threads": (_last(int), "1", ()),
    "suites": (_split_commas, None, ("verify",)),
    "family": (_last(_one_of("multiplicative", "additive", "rational")), "multiplicative",
               ("norm", "scan")),
    "plan": (_last(str), None, ("sieve",)),
    "trials": (_last(int), "5", ("sieve", "bdh")),
    "plot_out": (_last(str), None, ("scan",)),
}


def validate(cfg):
    for name in ("Q", "k", "T", "N", "X"):
        vals = getattr(cfg, name)
        if not vals:
            raise ConfigError(f"range {name} is empty")
        if not all(isfinite(v) for v in vals):
            raise ConfigError(f"range {name} must be finite")
        if any(v < 1 for v in vals):
            raise ConfigError(f"range {name} must be >= 1")
    if not (isfinite(cfg.tol) and cfg.tol >= 0):
        raise ConfigError("tol must be finite and nonnegative")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    if cfg.trials < 1:
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
            if key not in OPTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            vals = [v.strip() for v in val.split(",") if v.strip()]
            out.setdefault(key, []).extend(vals)
    return out


def build_config(args):
    """The run's options: the table's defaults, then the config file, then
    SIEVELAB_THREADS, then the flags."""
    given = {key: [default] for key, (_, default, _) in OPTIONS.items() if default is not None}
    if args.config:
        given.update(parse_config_file(args.config))
    if args.threads is None and os.environ.get("SIEVELAB_THREADS"):
        given["threads"] = [os.environ["SIEVELAB_THREADS"]]
    # argparse gives the value "--" of --seed=-- as an empty list
    given.update((key, [v if isinstance(v, str) else "--" for v in vals])
                 for key, vals in vars(args).items() if key in OPTIONS and vals is not None)
    cfg = argparse.Namespace(**dict.fromkeys(OPTIONS))
    for key, vals in given.items():
        try:
            setattr(cfg, key, OPTIONS[key][0](vals))
        except ValueError as e:
            raise ConfigError(f"bad value for {key}: {vals!r} ({e})")
    validate(cfg)
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

def _passes(worst, tol, floor=0.0):
    """The pass rule, exact at tol = 0: worst == 0, else worst <= max(tol, floor)."""
    return worst <= max(tol, floor) if tol > 0 else worst == 0


def _worst(*residuals):
    """The largest residual, NaN when any is NaN, which then fails every
    pass rule; max() alone keeps the first of two unordered values, so it
    loses a NaN met after a number."""
    return max(residuals, key=lambda r: (r != r, r))


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
            worst = _worst(worst, abs(s - want))
    return worst, _passes(worst, tol, 100 * tol + 1e-9)


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
            worst = _worst(worst, abs(v - want))
    return worst, _passes(worst, tol, tol + 1e-12)


def _suite_coset(seed, tol):
    from .kernels import coset_identity_check, random_char_table
    from .characters import char_group
    rng = random.Random(seed)
    worst = 0.0
    for q, r in [(6, 3), (12, 4), (15, 5), (20, 10), (24, 12), (36, 12)]:
        tab = random_char_table(list(char_group(q)), rng.randrange(2**30))
        F = lambda c1, c2: tab[c1] * tab[c2].conjugate()
        worst = _worst(worst, coset_identity_check(q, r, F).residual)
    return worst, _passes(worst, tol)


def _suite_theta(seed, tol):
    from .kernels import random_char_table, theta_separation_check
    from .characters import char_group
    rng = random.Random(seed)
    worst = 0.0
    for k in [1, 2, 3, 4, 6, 8, 9, 12, 15]:
        b = random_char_table(list(char_group(k)), rng.randrange(2**30))
        rep = theta_separation_check(k, b)
        worst = _worst(worst, rep.residual1, rep.residual2)
    return worst, _passes(worst, tol)


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
            worst = _worst(worst, err1, err2, err3)
    return worst, _passes(worst, tol)


def _suite_chisep(seed, tol):
    from .characters import primitive_chars
    from .kernels import chiseparation_check, random_char_table
    moduli = [3, 4, 5, 8, 9, 12]
    chars = [c for q in moduli for c in primitive_chars(q)]
    b = random_char_table(chars, seed)
    worst = chiseparation_check(moduli, b).residual
    return worst, _passes(worst, tol)


def _suite_archimedean(seed, tol):
    import math
    from .kernels import archimedean_coset_check
    rng = random.Random(seed)
    worst = 0.0
    for T, U in [(4.0, 1.0), (8.0, 2.0), (6.0, 3.0)]:
        c = [rng.gauss(0, 1) for _ in range(3)]
        d = [rng.gauss(0, 1) for _ in range(2)]
        beta = lambda t: c[0] + c[1] * math.cos(t) + c[2] * math.sin(0.7 * t)
        w = lambda x: d[0] + d[1] * math.cos(0.5 * x)
        worst = _worst(worst, archimedean_coset_check(T, U, beta, w).residual)
    return worst, _passes(worst, tol)


def _suite_zfunction(seed, tol):
    from .specials import z_cd_euler, z_cd_series
    worst = 0.0
    for c, d in [(1, 1), (1, 2), (2, 3), (4, 6), (5, 5)]:
        for s in (2.0, 2 + 1j):
            e = z_cd_euler(c, d, s)
            t = z_cd_series(c, d, s)
            worst = _worst(worst, abs(e - t) / abs(e))
    # not `_passes`: the truncated series is never exact, so no tol, 0
    # included, asks for less than its 1e-4 of the Euler product
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
        g2 = gram_bruteforce(spec, idx)
        scale = max(np.abs(g1.matrix).max(), 1.0)
        worst = _worst(worst, float(np.abs(g1.matrix - g2.matrix).max() / scale))
    return worst, _passes(worst, tol, 1e-8)


def _suite_duality(seed, tol):
    """Both sides of `duality_check` on the additive coefficient matrix,
    and the member side against `delta_add`, whose pair-side route shares
    no arithmetic with the member values."""
    from .experiments import duality_check
    from .norms import additive_matrix, delta_add
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(4):
        Q = rng.randint(2, 10)
        N = rng.randint(4, 30)
        rows, cols, lam = additive_matrix(Q, N)
        v1, v2 = duality_check(rows, cols, lam)
        worst = _worst(worst, abs(v1 - v2) / max(v1, 1.0),
                    abs(delta_add(Q, N).value - v2) / max(v2, 1.0))
    return worst, _passes(worst, tol, 1e-8)


def _suite_bdh(seed, tol):
    from .sieve_apps import bdh_lhs, bdh_rhs_chars, random_bdh_input
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(6):
        inp = random_bdh_input(rng.randint(2, 40), rng.randint(1, 10),
                               seed=rng.randrange(2**30))
        l, r = bdh_lhs(inp), bdh_rhs_chars(inp)
        worst = _worst(worst, abs(l - r) / max(l, 1e-12))
    return worst, _passes(worst, tol, 1e-8)


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

def _norm_tol(cfg):
    # the suites' exact tol = 0 gives a norm the default Lanczos tolerance
    return cfg.tol or 1e-9


def _norm_point(cfg, point):
    from .norms import delta, delta_add, delta_rational
    Q, k, T, N = point
    tol = _norm_tol(cfg)
    if cfg.family == "multiplicative":
        return delta(Q, k, T, N, tol=tol)
    if cfg.family == "additive":
        return delta_add(Q, N, tol=tol)
    return delta_rational(Q, N, tol=tol)


def _estimate_fields(est):
    """How a norm was estimated, for the record of each norm and scan point."""
    return {"method": est.method, "route": est.route, "size": est.size,
            "nodes": est.nodes, "bins": est.bins}


def _grid(cfg):
    return list(product(cfg.Q, cfg.k, cfg.T, cfg.N))


def _run_grid(cfg):
    """The grid and, for each point, (estimate, millis)."""
    grid = _grid(cfg)

    def worker(point):
        return _timed(_norm_point, cfg, point)

    if cfg.threads > 1:
        # concurrent.futures pulls in logging, milliseconds of every start
        from concurrent.futures import ThreadPoolExecutor

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
            extra={**_estimate_fields(est), "iterations": est.iterations},
            value=est.value, residual=est.residual, ok=True,
            seed=cfg.seed, millis=ms))
    write_records(records, cfg)
    return 0


def cmd_scan(cfg):
    from .experiments import exponent_fit

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
            extra={**_estimate_fields(est), "ratio_trivial": est.value / (budget + N),
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
    `trials` random plans.  Each distinct N has one sift table
    (`sieve_apps.sift_table`): its coprime pairs of ab <= N, built once,
    and the reduction mod each prime with a nonempty Omega_p in one of its
    plans, made once; every plan of that N is sifted from it.
    Delta_rational(Q, N) is solved once for each distinct (Q, N) and its
    value passed to every report of that (Q, N).  The first record of
    each N carries the table build in its millis, and the first of each
    (Q, N) the solve: both land on the control in a random run."""
    from .arith import primes_in
    from .norms import delta_rational
    from .rationals import _ROUTE_BYTES, _check_bytes
    from .sieve_apps import SievePlan, read_plan, sieve_inequality_report, sift_table

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

    primes = {}
    for plan, _, _ in jobs:
        primes.setdefault(plan.N, set()).update(plan.sifting_primes)
    tables, deltas = {}, {}

    def report(plan, Q):
        if plan.N not in tables:
            tables[plan.N] = sift_table(plan.N, primes[plan.N])
        if (Q, plan.N) not in deltas:
            deltas[Q, plan.N] = delta_rational(Q, plan.N, tol=_norm_tol(cfg)).value
        return sieve_inequality_report(plan, Q, delta=deltas[Q, plan.N], table=tables[plan.N])

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
    for t in range(cfg.trials):
        X = rng.choice(cfg.X)
        Q = int(rng.choice(cfg.Q))
        (inp, l, r), ms = _timed(trial, X, Q, rng.randrange(2**30))
        rel = abs(l - r) / max(abs(l), 1e-12)
        ok = _passes(rel, cfg.tol, 1e-8)
        all_ok = all_ok and ok
        records.append(make_record(
            "bdh", Q=Q, N=X, extra={"support": len(inp.alpha), "lhs": l, "rhs": r},
            value=rel, residual=rel, ok=ok, seed=cfg.seed, millis=ms))
    write_records(records, cfg)
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _flag(key):
    return f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")


def build_parser():
    """Every flag is a row of OPTIONS, those naming no subcommand on one
    parent parser that each subcommand inherits.  A flag keeps its raw
    strings: build_config parses and refuses them."""
    ap = argparse.ArgumentParser(
        prog="sievelab",
        description="large-sieve norms, identity suites, and sieve experiments")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config")
    for key, (_, _, commands) in OPTIONS.items():
        if not commands:
            shared.add_argument(_flag(key), dest=key, action="append")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    parsers = {name: sub.add_parser(name, parents=[shared]) for name in COMMANDS}
    for key, (_, _, commands) in OPTIONS.items():
        for name in commands:
            parsers[name].add_argument(_flag(key), dest=key, action="append")
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
