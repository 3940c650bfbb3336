"""Batch CLI: subcommands, exit codes, record schema, determinism,
config-file layering, thread-pool dispatch, and plot emission."""

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

import pytest

from sievelab.cli import FIELDS, SUITES, run
from sievelab.norms import delta, exponent_fit
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
    # 2702 pairs at N = 1000: past the cutoff the windowed family side
    # runs; the 2809 rationals at N = 600 take the buckets, as every
    # discrete family does.  Each record gives the index count
    assert run(["norm", "-Q", "12", "-T", "4", "-N", "1000"]) == 0
    extra = json.loads(_rows(capsys.readouterr().out)[0]["extra_params"])
    assert (extra["method"], extra["route"], extra["size"]) == ("lanczos", "family", 2702)
    assert run(["norm", "--family", "rational", "-Q", "12", "-N", "600"]) == 0
    extra = json.loads(_rows(capsys.readouterr().out)[0]["extra_params"])
    assert (extra["method"], extra["route"], extra["size"]) == ("lanczos", "buckets", 2809)


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
        assert (extra["route"], extra["size"]) == ("buckets", n)
        assert extra["ratio_index"] == value / (36.0 + n)
        assert extra["ratio_trivial"] == value / (36.0 + N)


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


def test_sieve_plan_estimate_covers_the_measured_peak(monkeypatch, tmp_path):
    from sievelab import rationals

    needs = []
    check = rationals._check_bytes

    def record(what, need, cap):
        needs.append((what, need))
        check(what, need, cap)

    monkeypatch.setattr(rationals, "_check_bytes", record)
    argv = ["sieve", "-N", "10", "-Q", "1000", "--trials", "2", "--out", str(tmp_path / "r.csv")]
    tracemalloc.start()
    try:
        assert run(argv) in (0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need, = [need for what, need in needs if what.startswith("random plan draw")]
    assert peak <= need, (peak, need)


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
