"""Batch CLI: subcommands, exit codes, record schema, determinism,
config-file layering, thread-pool dispatch, and plot emission."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from sievelab.cli import COMMANDS, FIELDS, OPTIONS, SUITES, build_parser, run
from sievelab.experiments import exponent_fit
from sievelab.norms import delta
from sievelab.rationals import rationals_up_to

REPO = Path(__file__).resolve().parent.parent


def _rows(text):
    rows = list(csv.DictReader(text.splitlines()))
    assert all(list(r) == FIELDS for r in rows)
    return rows


def _scrub(text):
    # determinism modulo the isolated timing columns
    out = []
    for row in csv.reader(text.splitlines()):
        if row and row[0] != "experiment":
            row = row[:-2] + ["", ""]
        out.append(row)
    return out


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_all_suites_pass(capsys):
    assert run(["verify", "--seed", "7"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert {r["experiment"] for r in rows} == {f"verify_{s}" for s in SUITES}
    assert all(r["pass"] == "True" for r in rows)
    assert all(r["seed"] == "7" for r in rows)


def test_verify_restricted_suites(capsys):
    assert run(["verify", "--suites", "orthogonality,kernel", "--seed", "1"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert {r["experiment"] for r in rows} == {"verify_orthogonality", "verify_kernel"}


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run(["verify", "--suites", "nonexistent"]) == 2
    assert capsys.readouterr().err.strip()


def test_verify_impossible_tolerance_is_a_finding(capsys):
    # tol = 0 demands exact floating-point identities: the kernel suite
    # reports a violation and the exit code says so
    assert run(["verify", "--suites", "kernel", "--tol", "0"]) == 1
    rows = _rows(capsys.readouterr().out)
    assert rows[0]["pass"] == "False"


# ----------------------------------------------------------------------
# norm
# ----------------------------------------------------------------------

def test_norm_matches_library(capsys):
    assert run(["norm", "-Q", "6", "-N", "40", "--seed", "2"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 1
    want = delta(6.0, 1, 1.0, 40.0).value
    assert abs(float(rows[0]["value"]) - want) <= 1e-12 * max(1.0, want)
    assert rows[0]["experiment"] == "norm_multiplicative"
    assert (rows[0]["Q"], rows[0]["k"], rows[0]["T"], rows[0]["N"]) == (
        "6.0", "1", "1.0", "40.0",
    )
    assert json.loads(rows[0]["extra_params"])["route"] == "pairs"


def test_norm_record_names_the_family_route(capsys):
    # 2702 pairs at N = 1000, 2 F J = 924 < n: the windowed family side
    # runs, by one dense eigh on the F r = 315 dimensions the rank cut
    # leaves; the 2809 rationals at N = 600 fall in 57 bins, 57^3 <= 2000 x
    # 2809 x 12 gates, so they take the bins.  Each record gives the index
    # count, the family route its quadrature nodes and the bins route its
    # bin count
    assert run(["norm", "-Q", "12", "-T", "4", "-N", "1000"]) == 0
    extra = json.loads(_rows(capsys.readouterr().out)[0]["extra_params"])
    assert (extra["method"], extra["route"], extra["size"]) == ("eigh", "family", 2702)
    assert (extra["nodes"], extra["bins"], extra["iterations"]) == (22, None, 1)
    assert run(["norm", "--family", "rational", "-Q", "12", "-N", "600"]) == 0
    extra = json.loads(_rows(capsys.readouterr().out)[0]["extra_params"])
    assert (extra["method"], extra["route"], extra["size"]) == ("eigh", "bins", 2809)
    assert (extra["nodes"], extra["bins"], extra["iterations"]) == (None, 57, 1)


def test_norm_rational_family_exact_count(capsys):
    assert run(["norm", "--family", "rational", "-Q", "1", "-N", "20"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert float(rows[0]["value"]) == float(len(rationals_up_to(20)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("T", ["1e200", "1e308"])
def test_norm_with_an_overflowing_window_exits_2(T, capsys):
    # 1e200 overflowed the Lanczos norms and printed "nan"; 1e308 raised
    # OverflowError from the node count
    assert run(["norm", "-Q", "4", "-T", T, "-N", "40"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_norm_grid_is_cartesian_in_order(capsys):
    assert run(["norm", "-Q", "4", "-Q", "8", "-N", "16", "-N", "32"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [(r["Q"], r["N"]) for r in rows] == [
        ("4.0", "16.0"), ("4.0", "32.0"), ("8.0", "16.0"), ("8.0", "32.0"),
    ]


def test_norm_threads_preserve_order_and_values(capsys):
    args = ["norm", "-Q", "4", "-Q", "8", "-N", "16", "-N", "32", "--seed", "3"]
    assert run(args + ["--threads", "1"]) == 0
    one = _scrub(capsys.readouterr().out)
    assert run(args + ["--threads", "3"]) == 0
    three = _scrub(capsys.readouterr().out)
    assert one == three


# ----------------------------------------------------------------------
# determinism and output plumbing
# ----------------------------------------------------------------------

def test_byte_determinism_modulo_timing(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["verify", "--suites", "coset,theta,bdh", "--seed", "99"]
    assert run(base + ["--out", str(f1)]) == 0
    assert run(base + ["--out", str(f2)]) == 0
    assert _scrub(f1.read_text()) == _scrub(f2.read_text())


def test_json_format(tmp_path):
    out = tmp_path / "r.json"
    assert run(["norm", "-Q", "5", "-N", "24", "--format", "json",
                "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert isinstance(records, list) and len(records) == 1
    assert set(records[0]) == set(FIELDS)
    assert records[0]["pass"] is True


def test_every_record_has_seed_and_parameters(capsys):
    assert run(["bdh", "-X", "30", "-Q", "8", "--trials", "4", "--seed", "5"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 4
    for r in rows:
        assert r["seed"] != "" and r["Q"] != "" and r["N"] != ""
        json.loads(r["extra_params"])  # well-formed JSON


# ----------------------------------------------------------------------
# config file layering
# ----------------------------------------------------------------------

def test_config_file_grid_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment grid\nQ=4,8\nN=32\nseed=9\n")
    assert run(["norm", "--config", str(cfg)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["Q"] for r in rows] == ["4.0", "8.0"]
    assert all(r["seed"] == "9" for r in rows)
    # flags win over the file
    assert run(["norm", "--config", str(cfg), "-Q", "2"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["Q"] for r in rows] == ["2.0"]


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("quux=1\n")
    assert run(["norm", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.strip()


def test_config_bad_value_is_usage_error(tmp_path, capsys):
    # a single-valued key with no value raised IndexError; every value of
    # a key is parsed, as every value of a repeated flag is
    cfg = tmp_path / "bad.cfg"
    for line in ("seed=", "seed=abc,7"):
        cfg.write_text(line + "\n")
        assert run(["norm", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: bad value for seed")
    assert run(["norm", "--seed", "abc", "--seed", "7"]) == 2


@pytest.mark.parametrize("line, message", [
    ("Q=", "error: range Q is empty"),
    ("garbage", "error: bad config line 'garbage\\n'"),
])
def test_a_config_file_refuses_an_empty_range_or_a_bad_line(line, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run(["norm", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("key, bad, good, allowed", [
    ("format", "xml", "json", "csv, json"),
    ("family", "bogus", "rational", "multiplicative, additive, rational"),
])
def test_a_refused_choice_names_the_allowed_values(key, bad, good, allowed, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={bad}\n")
    for argv in (["norm", f"--{key}", bad], ["norm", f"--{key}", bad, f"--{key}", good],
                 ["norm", "--config", str(cfg)]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"bad value for {key}" in err and allowed in err, (argv, err)


def test_each_flag_is_a_row_of_the_option_table():
    # a flag declared outside OPTIONS, or a row missing from a subcommand
    # that it names, changes some subcommand's dests
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(COMMANDS)
    for name, parser in subparsers.choices.items():
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        assert dests == {"config"} | {key for key, (_, _, commands) in OPTIONS.items()
                                      if not commands or name in commands}, name


# a flag, a subcommand that takes it, the other flags of the run and a value
# for each key; {tmp} is the test's directory
FLAG_CASES = {
    "Q": ("-Q", "norm", ["-N", "24"], "5"),
    "k": ("-k", "norm", ["-N", "24"], "2"),
    "T": ("-T", "norm", ["-N", "24"], "2"),
    "N": ("-N", "norm", ["-Q", "3"], "24"),
    "X": ("-X", "bdh", ["--trials", "2"], "30"),
    "seed": ("--seed", "bdh", ["--trials", "2"], "3"),
    "tol": ("--tol", "verify", ["--suites", "orthogonality"], "1e-6"),
    "out": ("--out", "norm", ["-N", "24"], "{tmp}/records.csv"),
    "format": ("--format", "norm", ["-N", "24"], "json"),
    "threads": ("--threads", "norm", ["-N", "16", "-N", "24"], "2"),
    "suites": ("--suites", "verify", [], "orthogonality,kernel"),
    "family": ("--family", "norm", ["-N", "24"], "rational"),
    "plan": ("--plan", "sieve", [], "{tmp}/plan.txt"),
    "trials": ("--trials", "bdh", [], "2"),
    "plot_out": ("--plot-out", "scan", ["-N", "16", "-N", "24", "-N", "32"], "{tmp}/plot.csv"),
}


def _untimed(text):
    if text.startswith("["):
        records = json.loads(text)
        for r in records:
            del r["millis"], r["timestamp"]
        return records
    return _scrub(text)


def test_a_config_line_and_its_flag_give_the_same_records(tmp_path, capsys):
    assert set(FLAG_CASES) == set(OPTIONS)
    (tmp_path / "plan.txt").write_text("N=80\nQ=6\n3: 1\n")
    records, plot = tmp_path / "records.csv", tmp_path / "plot.csv"
    cfg = tmp_path / "run.cfg"

    def outcome(argv):
        code = run(argv)
        files = (_untimed(records.read_text()) if records.exists() else None,
                 plot.read_text() if plot.exists() else None)
        records.unlink(missing_ok=True)
        plot.unlink(missing_ok=True)
        return code, _untimed(capsys.readouterr().out), files

    for key, (flag, command, base, value) in FLAG_CASES.items():
        value = value.format(tmp=tmp_path)
        cfg.write_text(f"{key}={value}\n")
        by_flag = outcome([command, *base, flag, value])
        assert by_flag[0] in (0, 1), key
        if key != "threads":  # the thread count leaves every record as it is
            assert by_flag != outcome([command, *base]), key
        assert outcome([command, *base, "--config", str(cfg)]) == by_flag, key


def test_threads_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("SIEVELAB_THREADS", "2")
    assert run(["norm", "-Q", "4", "-N", "16"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("SIEVELAB_THREADS", "not-a-number")
    assert run(["norm", "-Q", "4", "-N", "16"]) == 2


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

def test_scan_emits_fit_and_plot(tmp_path, capsys):
    plot = tmp_path / "growth.csv"
    assert run(["scan", "-Q", "4", "-N", "16", "-N", "32", "-N", "64",
                "--seed", "2", "--plot-out", str(plot)]) == 0
    rows = _rows(capsys.readouterr().out)
    fits = [r for r in rows if r["experiment"] == "scan_fit_N"]
    assert len(fits) == 1
    slope = float(fits[0]["value"])
    assert 0.0 < slope < 2.0
    points = [r for r in rows if r["experiment"] == "scan_multiplicative"]
    assert len(points) == 3
    for r in points:
        extra = json.loads(r["extra_params"])
        assert "ratio_trivial" in extra
    lines = plot.read_text().strip().splitlines()
    assert lines[0] == "x,delta"
    assert len(lines) == 4
    for line in lines[1:]:
        x, y = line.split(",")
        assert float(x) > 0 and float(y) > 0


def test_scan_records_the_route_and_the_ratio_to_the_index(capsys):
    # Delta / (Q^2 k T + n) beside Delta / (Q^2 k T + N), for the index
    # count n of the route that ran
    assert run(["scan", "--family", "rational", "-Q", "6", "-N", "40", "-N", "80",
                "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 2
    for rec, N in zip(records, (40, 80)):
        extra = json.loads(rec["extra_params"])
        value, n = float(rec["value"]), len(rationals_up_to(N))
        # 17 bins, 17^2 <= n x 6 gates: the bins route
        assert (extra["route"], extra["size"], extra["nodes"], extra["bins"]) == (
            "bins", n, None, 17)
        assert extra["ratio_index"] == value / (36.0 + n)
        assert extra["ratio_trivial"] == value / (36.0 + N)


def test_scan_records_the_family_route_nodes(capsys):
    # a windowed scan point with 2 F J < n runs on the family route
    # and records its quadrature nodes beside the route and the index count
    assert run(["scan", "-Q", "12", "-T", "4", "-N", "1000", "--format", "json"]) == 0
    (rec,) = json.loads(capsys.readouterr().out)
    extra = json.loads(rec["extra_params"])
    assert (extra["route"], extra["size"], extra["nodes"]) == ("family", 2702, 22)


def test_scan_fits_the_Q_aspect(capsys):
    assert run(["scan", "-Q", "4", "-Q", "8", "-Q", "16", "-N", "32", "--seed", "2"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert not [r for r in rows if r["experiment"] == "scan_fit_N"]
    fits = [r for r in rows if r["experiment"] == "scan_fit_Q"]
    assert len(fits) == 1
    fit = fits[0]
    # the fixed axes are recorded, the fitted one is left blank
    assert (fit["Q"], fit["k"], fit["T"], fit["N"]) == ("", "1", "1.0", "32.0")
    assert json.loads(fit["extra_params"])["points"] == 3
    points = [(float(r["Q"]), float(r["value"])) for r in rows
              if r["experiment"] == "scan_multiplicative"]
    assert [Q for Q, _ in points] == [4.0, 8.0, 16.0]
    assert float(fit["value"]) == exponent_fit(points).slope
    assert float(fit["residual"]) == exponent_fit(points).residual


def test_scan_without_enough_points_has_no_fit(capsys):
    assert run(["scan", "-Q", "4", "-N", "16", "-N", "32"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert not [r for r in rows if r["experiment"].startswith("scan_fit")]


def test_scan_with_a_repeated_value_keeps_its_records(capsys):
    # three equal N are three norms and no fit, not a degenerate-sample error
    assert run(["scan", "-Q", "4", "-N", "20", "-N", "20", "-N", "20"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["experiment"] for r in rows] == ["scan_multiplicative"] * 3


def test_scan_fits_near_equal_values(capsys):
    # distinct values within np.allclose of each other are still a fit
    assert run(["scan", "-Q", "4", "-N", "20", "-N", "20.00001", "-N", "20.00002"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["experiment"] for r in rows] == ["scan_multiplicative"] * 3 + ["scan_fit_N"]


def test_scan_fits_over_the_distinct_values(capsys):
    assert run(["scan", "-Q", "4", "-Q", "4", "-N", "16", "-N", "16", "-N", "32",
                "-N", "64", "--seed", "2"]) == 0
    rows = _rows(capsys.readouterr().out)
    norms = [r for r in rows if r["experiment"] == "scan_multiplicative"]
    assert len(norms) == 8
    fits = [r for r in rows if r["experiment"].startswith("scan_fit")]
    assert [r["experiment"] for r in fits] == ["scan_fit_N"]
    assert json.loads(fits[0]["extra_params"])["points"] == 3
    points = {float(r["N"]): float(r["value"]) for r in norms}
    assert float(fits[0]["value"]) == exponent_fit(list(points.items())).slope


# ----------------------------------------------------------------------
# sieve
# ----------------------------------------------------------------------

def test_sieve_plan_file_violation_exits_1(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("N=135\nQ=9\n5: 1,2,3,4\n")
    assert run(["sieve", "--plan", str(plan)]) == 1
    out = capsys.readouterr()
    rows = _rows(out.out)
    assert rows[0]["pass"] == "False"
    assert "SIEVE-INEQUALITY FINDING" in out.err


def test_sieve_control_plan_passes(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("N=80\nQ=6\n")
    assert run(["sieve", "--plan", str(plan)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0]["pass"] == "True"
    assert float(rows[0]["value"]) <= 1.0


def test_sieve_random_trials(capsys):
    code = run(["sieve", "--trials", "3", "--seed", "11"])
    assert code in (0, 1)
    rows = _rows(capsys.readouterr().out)
    # an empty-plan control row precedes the random trials
    assert len(rows) == 4
    assert json.loads(rows[0]["extra_params"])["tag"] == "control"
    assert rows[0]["pass"] == "True"
    assert (code == 1) == any(r["pass"] == "False" for r in rows)


def test_sieve_solves_delta_once_for_its_plans(monkeypatch, capsys):
    # eleven plans of one (Q, N) share one Delta_rational, solved once and
    # passed to every report; each ratio is |S| H over that one value
    from sievelab import norms, sieve_apps

    calls = []
    solve = norms.delta_rational

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    for module in (norms, sieve_apps):
        monkeypatch.setattr(module, "delta_rational", counted)
    assert run(["sieve", "-N", "200", "-Q", "12", "--trials", "10", "--format", "json"]) in (0, 1)
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 11 and calls == [(12.0, 200)]
    want = solve(12, 200).value
    for rec in records:
        extra = json.loads(rec["extra_params"])
        assert float(rec["value"]) == float(extra["size"] * Fraction(extra["H"])) / want


def test_sieve_builds_one_sift_table_for_its_plans(call_counts, capsys):
    # eleven plans of one N sift one table: its index is built once and
    # each distinct plan prime with a nonempty Omega_p reduced once,
    # whatever the plans share
    from sievelab import sieve_apps

    pairs = call_counts(sieve_apps, "_coprime_pairs")
    reductions = call_counts(sieve_apps, "_reduce")
    assert run(["sieve", "-N", "200", "-Q", "12", "--trials", "10", "--format", "json"]) in (0, 1)
    records = json.loads(capsys.readouterr().out)
    primes = {int(p) for rec in records
              for p, res in json.loads(rec["extra_params"])["omega"].items() if res}
    assert len(records) == 11 and pairs == [(200,)]
    assert sorted(args[2] for args in reductions) == sorted(primes)


def test_sieve_refuses_an_oversized_sift_table_before_building_it(monkeypatch, call_counts,
                                                                   tmp_path, capsys):
    # the table holds 16 bytes a pair for (a, b) and a residue array for
    # each sifting plan prime: one byte a pair for 2, 3 and 5, none for
    # the empty Omega_7, two for 257; each reduction holds 33 bytes a pair
    # while it runs, and the sift adds a 258-byte lookup for 257.  One
    # byte under that, the command exits 2 naming the estimate before the
    # index is built; at it, the table is built, with no reduction mod 7
    from sievelab import norms, sieve_apps
    from sievelab.rationals import _coprime_count

    plan = tmp_path / "plan.txt"
    plan.write_text("N=20000\nQ=12\n2: 1\n3: 2\n5: 1,4\n7:\n257: 3,200\n")
    n = _coprime_count(20000)
    need = n * (16 + 3 + 2 + 33) + 258
    monkeypatch.setattr(sieve_apps, "_ROUTE_BYTES", need - 1)
    pairs = call_counts(sieve_apps, "_coprime_pairs")
    assert run(["sieve", "--plan", str(plan)]) == 2
    captured = capsys.readouterr()
    assert (f"sift table of height <= 20000 at 4 primes needs an estimated "
            f"{need / 2**20:.1f} MiB, over the " in captured.err)
    assert captured.out == "" and pairs == []
    monkeypatch.setattr(sieve_apps, "_ROUTE_BYTES", need)
    monkeypatch.setattr(norms, "delta_rational", lambda Q, N, tol: SimpleNamespace(value=1.0))
    reductions = call_counts(sieve_apps, "_reduce")
    assert run(["sieve", "--plan", str(plan)]) in (0, 1)
    assert pairs == [(20000,)] and [args[2] for args in reductions] == [2, 3, 5, 257]
    table = sieve_apps.sift_table(20000, [2, 3, 5, 257])
    assert len(table.a) == n
    assert n * (16 + 33) + sum(red.nbytes for red in table.residues.values()) + 258 == need


def test_sieve_refuses_oversized_random_plans_before_drawing(monkeypatch, tmp_path, capsys):
    from sievelab import rationals

    # with the cap lowered to 1 MiB, 2 trials to Q = 200 are over it: the
    # command exits 2 with the estimate and draws and writes nothing
    monkeypatch.setattr(rationals, "_ROUTE_BYTES", 1 << 20)
    out = tmp_path / "records.csv"
    assert run(["sieve", "-N", "10", "-Q", "200", "--trials", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert re.search(r"random plan draw of 2 trials to Q = 200 needs an estimated [\d.]+ MiB, "
                     r"over the 1.0 MiB cap", captured.err)
    assert captured.out == "" and not out.exists()
    monkeypatch.undo()
    # at the real cap, Q = 10^5 is refused at once; drawn, its plans
    # would grow like Q^2 / ln Q past the memory of the machine
    start = time.perf_counter()
    assert run(["sieve", "-N", "10", "-Q", "100000", "--trials", "1"]) == 2
    assert "MiB cap" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_sieve_plan_estimate_covers_the_measured_peak(monkeypatch, tmp_path, traced_peak):
    from sievelab import rationals

    needs = []
    check = rationals._check_bytes

    def record(what, need, cap):
        needs.append((what, need))
        check(what, need, cap)

    monkeypatch.setattr(rationals, "_check_bytes", record)
    argv = ["sieve", "-N", "10", "-Q", "1000", "--trials", "2", "--out", str(tmp_path / "r.csv")]
    codes = []
    peak = traced_peak(lambda: codes.append(run(argv)))
    assert codes[0] in (0, 1)
    need, = [need for what, need in needs if what.startswith("random plan draw")]
    assert peak <= need, (peak, need)
    # with Delta stubbed, the sift table of 47 sifting primes is the run's
    # largest allocation (14.0 MB of estimate against the draw's 5.7 and
    # the index build's 8.7).  The table stays while each reduction's
    # int64 temporaries, 33 bytes a pair, come and go, and the table's
    # estimate counts them: its build, index included, traced 13.8 MB.
    # The whole run, 0.5 MB of it before the build, traced 14.3 MB at
    # most, under the sum of the three estimates
    from sievelab import norms, sieve_apps

    monkeypatch.setattr(sieve_apps, "_check_bytes", record)
    monkeypatch.setattr(norms, "delta_rational", lambda Q, N, tol: SimpleNamespace(value=1.0))
    build, built, before = sieve_apps.sift_table, [], []

    def traced_build(N, primes):
        # the build's peak over what was traced before it; the run's peak
        # so far is kept, so the whole run stays measured
        held, peak_so_far = tracemalloc.get_traced_memory()
        before.append(peak_so_far)
        tracemalloc.reset_peak()
        table = build(N, primes)
        built.append(tracemalloc.get_traced_memory()[1] - held)
        return table

    monkeypatch.setattr(sieve_apps, "sift_table", traced_build)
    needs.clear()
    argv = ["sieve", "-N", "20000", "-Q", "300", "--trials", "2",
            "--out", str(tmp_path / "r.csv")]
    peak = traced_peak(lambda: codes.append(run(argv)))
    assert codes[1] in (0, 1)
    draw, = [need for what, need in needs if what.startswith("random plan draw")]
    table, = [need for what, need in needs if what.startswith("sift table")]
    index = max(need for what, need in needs if what.startswith("index of height"))
    peak = max(before + [peak])
    assert max(draw, index) < table and peak <= draw + index + table, (peak, draw, index, table)
    assert len(built) == 1 and built[0] <= table, (built, table)


# ----------------------------------------------------------------------
# usage errors and the console entry point
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["sieve", "-N", "20", "-Q", "4", "--trials", "0"],
    ["bdh", "--trials", "0"],
])
def test_zero_trials_is_a_usage_error(argv, capsys):
    # a zero flag is a given value, not an absent one
    assert run(argv) == 2
    assert "trials" in capsys.readouterr().err


def test_usage_errors():
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["norm", "--tol", "-1"]) == 2
    # a non-finite tolerance stops Lanczos at once (inf) or never (nan)
    assert run(["norm", "-Q", "12", "-k", "3", "-T", "4", "-N", "400", "--tol", "inf"]) == 2
    assert run(["norm", "-Q", "12", "-k", "3", "-T", "4", "-N", "400", "--tol", "nan"]) == 2
    assert run(["norm", "--format", "xml"]) == 2
    assert run(["norm", "-Q", "0.5"]) == 2
    assert run(["norm", "--threads", "0"]) == 2
    # a non-finite size is a usage error, not a crash (exit 1 is a finding)
    assert run(["sieve", "-N", "inf"]) == 2
    assert run(["sieve", "-Q", "inf"]) == 2
    assert run(["bdh", "-Q", "inf"]) == 2
    assert run(["norm", "-N", "nan"]) == 2
    # argparse hands the value "--" over as an empty list; it raised
    # IndexError, TypeError and AttributeError here
    assert run(["norm", "--seed=--"]) == 2
    assert run(["norm", "-N--"]) == 2
    assert run(["verify", "--suites=--"]) == 2


def _declared_console_script():
    """The ``sievelab`` entry of ``[project.scripts]`` in this tree's
    pyproject.toml, split into (module, attr)."""
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sievelab"]
    module, attr = target.split(":")
    return module, attr


def test_console_script_smoke():
    # Run the declared entry point in a fresh process from this source
    # tree, the way the wrapper that pip generates does: import the
    # target and pass its return value to sys.exit.  An installed
    # `sievelab` on PATH may come from another checkout, so it is not used.
    module, attr = _declared_console_script()
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))

    def sievelab(*args):
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    proc = sievelab("verify", "--suites", "orthogonality", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert "verify_orthogonality" in proc.stdout
    # the wrapper turns main()'s return value into the exit code
    assert sievelab("verify", "--suites", "nonexistent").returncode == 2
