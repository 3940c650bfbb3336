"""The benchmark's own fast tests: span arithmetic, the value gate, the
wrapper bookkeeping, and a tiny-size smoke run of every workload.

    python3 -m pytest bench -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds inner [2, 5] (which holds leaf [3, 4]) and
    # inner [6, 7]
    tr = spans.Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 7, 10]))
    outer = tr.enter()
    inner = tr.enter()
    leaf = tr.enter()
    tr.exit("leaf", leaf)
    tr.exit("inner", inner)
    inner = tr.enter()
    tr.exit("inner", inner)
    tr.exit("outer", outer)
    assert tr.self_s == {"leaf": 1, "inner": 2 + 1, "outer": 10 - 3 - 1}
    assert tr.spans == {"leaf": 1, "inner": 2, "outer": 1}
    assert sum(tr.self_s.values()) == 10  # self times tile the outer span


def test_spans_closed_out_of_order_raise():
    tr = spans.Tracer(clock=FakeClock([0, 1, 2]))
    outer = tr.enter()
    tr.enter()
    with pytest.raises(RuntimeError):
        tr.exit("outer", outer)


def test_missing_wrapped_name_is_reported_not_zero():
    from sievelab import norms

    orig = norms.top_eigenvalue
    tr, counts = spans.Tracer(), spans.Counts()
    wraps = [("norms", "top_eigenvalue", "norms.solve", spans._on_solve),
             ("norms", "renamed_away", "norms.solve", None)]
    missing, restore = spans.install(tr, counts, wraps)
    try:
        assert missing == ["norms.renamed_away"]
        assert norms.top_eigenvalue is not orig
    finally:
        restore()
    assert norms.top_eigenvalue is orig
    metrics = spans.layer_metrics(tr, counts, ["norms.top_eigenvalue"])
    assert metrics["norms.solve_ms"] is None and metrics["norms.matvecs"] is None
    assert metrics["kernels.checks"] == 0.0


def test_rebinding_reaches_calls_made_inside_the_package(tmp_path):
    res = worker.run_pass("sieve_cli", 5, "tiny", 1, str(tmp_path))
    assert res["failed"] == 0, res["errors"]
    layers = res["layers"]
    # cmd_sieve -> sieve_apps.sieve_inequality_report -> sieve_apps.delta_rational
    assert layers["sieve_apps.norm_calls"] == 3  # control + 2 trials
    assert layers["sieve_apps.norm_reuse"] == pytest.approx(1 / 3)
    assert layers["norms.gram_calls"] == 3 and layers["cli.self_ms"] > 0


@pytest.mark.parametrize("workload,key", [
    ("pair_solve", "delta_add(6,40)"),
    ("family_route", "delta(4,1,2,800,odd)"),
    ("sieve_cli", "sieve control delta_rational(6,40)"),
])
def test_value_gate_trips_on_perturbed_reference(tmp_path, workload, key):
    ref = workloads.load_reference()["tiny"]
    assert worker.run_pass(workload, 1, "tiny", 0, str(tmp_path), ref=ref)["failed"] == 0
    close = dict(ref, **{key: ref[key] * (1 + 1e-12)})
    assert worker.run_pass(workload, 1, "tiny", 0, str(tmp_path), ref=close)["failed"] == 0
    off = dict(ref, **{key: ref[key] * (1 + 1e-8)})
    res = worker.run_pass(workload, 1, "tiny", 0, str(tmp_path), ref=off)
    assert res["failed"] == 1
    assert key in res["errors"][0]


def test_call_returning_none_fails_the_gate(tmp_path, monkeypatch):
    from sievelab import norms

    monkeypatch.setattr(norms, "delta", lambda *a, **kw: None)
    res = worker.run_pass("pair_solve", 1, "tiny", 0, str(tmp_path))
    assert res["attempted"] == 2 and res["failed"] == 1
    assert "output check raised" in res["errors"][0]


def test_pass_past_the_run_limit_is_killed_and_counted_failed(tmp_path):
    # a full-size pair_solve pass takes seconds; kill it 2 s in
    deadline = run.time.perf_counter() + 2.0
    setup_s, wall_s, res = run.spawn("pair_solve", 1, "full", 0, str(tmp_path), deadline)
    assert wall_s < 4.0
    assert res["attempted"] == 1 and res["failed"] == 1
    assert 0 < res["job_s"] <= wall_s - setup_s + 1e-9
    assert "killed" in res["errors"][0] and res["peak_rss_mb"] > 0


def test_job_s_is_wall_time_scaled_by_the_probe(monkeypatch, tmp_path):
    assert set(workloads.PROBE_KIND) == set(workloads.WORKLOADS)
    assert set(workloads.PROBE_KIND.values()) <= set(probe.PROBES)
    probe_times = iter([0.002, 0.006])  # before the first call, after the last
    monkeypatch.setattr(probe, "measure", lambda kind: next(probe_times))
    monkeypatch.setattr(probe, "EVERY_S", float("inf"))
    res = worker.run_pass("pair_solve", 1, "tiny", 0, str(tmp_path))
    assert res["failed"] == 0 and res["probe_s"] == pytest.approx(0.004)
    assert res["job_s"] == pytest.approx(res["wall_job_s"] * probe.REF_S["stream"] / 0.004)


def test_sieve_gate_checks_every_record(tmp_path):
    ref = workloads.load_reference()["tiny"]
    (call,) = workloads.sieve_cli(2, "tiny", ref, str(tmp_path))
    assert call.gate(call.fn()) is None
    assert call.gate(2) == "sieve: exit code 2"
    path = tmp_path / "sieve_2.json"
    path.write_text(path.read_text().replace('\\"size\\": ', '\\"size\\": 1'))
    assert "disagrees with the count" in call.gate(0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run_of_every_workload(monkeypatch, workload):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    ok, attempted, failed, metrics, notes = run.run_workload(workload, 3, 0, 1, size="tiny")
    assert ok and failed == 0 and attempted > 0, notes
    assert set(metrics) == {m for m in spans.LAYER_METRICS} | {
        "trace.job_s", "trace.untraced_job_s", "trace.overhead", "trace.missing"}
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["trace.missing"]["value"] == 0
    ok, attempted, failed, metrics, notes = run.run_workload(workload, 3, 0, 0, size="tiny")
    assert ok and set(metrics) == {"job_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())
