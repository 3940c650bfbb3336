"""sievelab benchmark: four workloads, a value gate, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, both modes

Each pass of a workload runs in a fresh worker process (``worker.py``), so
no cache of the package outlives a pass and the peak RSS belongs to that
pass alone.  A run spawns passes one after another and stops starting new
ones when the next would end after ``--seconds``; it always makes at least
one.  Set-up is timed from spawning a worker to its READY line, in every
pass plus extra set-up-only spawns up to SETUP_SAMPLES, and reported as
the median.

``--trace 0`` reports the end-to-end metrics: ``job_s`` (median pass time,
scaled by the worker's machine-speed probe, ``probe.py``; the median wall
time is printed beside it), ``setup_s`` and ``peak_rss_mb``.  The run pins
itself and its workers to one CPU.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``spans.py`` (medians
over traced passes) plus the tracing overhead, traced over untraced
``job_s``.  Every pass checks its outputs against ``reference.json``;
``failed`` counts calls that raised or failed that gate.  A worker still
running ``RUN_LIMIT_S`` after the run began is killed, and its pass counts
as one failed call with the time it had run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("pair_solve", "family_route", "sieve_cli", "identities")

# One BLAS thread, the same on every machine: the last bits of a norm and
# the solve time depend on the thread count, and on a shared 2-core machine
# two threads spread job_s wider from run to run (see README.md, Noise).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
# A run must exit within 180 s.  A worker still running RUN_LIMIT_S after
# the run began is killed, and its pass is reported as one failed call
# with the time it had run, so a large slowdown reads as a slow, failed
# pass rather than as a crashed benchmark.
RUN_LIMIT_S = 160.0


class BenchError(Exception):
    pass


def _git_commit():
    """The checkout's commit; 'unknown' unless the checkout is the top of a
    git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], ROOT):
        return "unknown"
    return lines[1]


def provenance():
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: str(BLAS_THREADS) for v in BLAS_VARS},
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def spawn(workload, seed, size, trace, workdir, deadline, setup_only=False):
    """Run one worker, killed at `deadline` (a perf_counter time); return
    (set-up seconds, wall seconds, result or None)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{v: str(BLAS_THREADS) for v in BLAS_VARS})
    err_path = os.path.join(workdir, "worker.err")
    killed = threading.Event()
    with open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=env, cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        watchdog = threading.Timer(max(deadline - t0, 0.0), kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        wall_s = time.perf_counter() - t0
        if ready.strip() != "READY" or (code != 0 and not killed.is_set()):
            err.seek(0)
            tail = err.read()[-2000:]
            raise BenchError(f"worker for {workload} exited with {code}:\n{tail}")
    if setup_only:
        return setup_s, wall_s, None
    if killed.is_set():
        # The worker's own peak RSS died with it; the largest of any worker
        # of this run, this one included, is what is left.
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        ran = wall_s - setup_s
        return setup_s, wall_s, {
            "job_s": ran, "wall_job_s": ran, "peak_rss_mb": rss, "attempted": 1, "failed": 1,
            "errors": [f"pass killed after {ran:.1f} s, at the run's {RUN_LIMIT_S:g} s limit"],
            "values": {}}
    return setup_s, wall_s, json.loads(rest.strip().splitlines()[-1])


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def run_passes(workload, seed, seconds, trace, workdir, size="full"):
    """Spawn passes until the next would end after `seconds`.  With trace,
    passes alternate untraced and traced, starting untraced, and at least
    one of each runs unless the first reaches RUN_LIMIT_S.  Returns (untraced results, traced results, set-ups)."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    plain, traced, setups, walls = [], [], [], []
    while True:
        use_trace = bool(trace) and len(plain) > len(traced)
        setup_s, wall_s, res = spawn(workload, seed, size, int(use_trace), workdir, deadline)
        (traced if use_trace else plain).append(res)
        setups.append(setup_s)
        walls.append(wall_s)
        if trace and not traced and time.perf_counter() < deadline:
            continue
        if time.perf_counter() - start + max(walls[-2:]) > seconds:
            break
    while len(setups) < SETUP_SAMPLES and time.perf_counter() < deadline:
        setups.append(spawn(workload, seed, size, 0, workdir, deadline, setup_only=True)[0])
    return plain, traced, setups


def summarize(workload, trace, plain, traced, setups):
    """(correct, attempted, failed, metrics, notes) of one run."""
    results = plain + traced
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    notes = [f"{workload}: {r}" for res in results for r in res["errors"]]
    job = [r["job_s"] for r in plain]
    notes.append(_spread_line("job_s", job, "s"))
    notes.append(_spread_line("wall job_s", [r["wall_job_s"] for r in plain], "s"))
    probes = [r["probe_s"] for r in plain if "probe_s" in r]  # a killed pass has none
    if probes:
        notes.append(_spread_line("probe_s", probes, "s"))
    notes.append(_spread_line("setup_s", setups, "s"))
    notes.append(f"fail_share {failed / attempted!r} ({failed} of {attempted} calls)")
    if not trace:
        metrics = {
            "job_s": {"value": statistics.median(job), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median([r["peak_rss_mb"] for r in plain]),
                            "unit": "MB"},
        }
        return failed == 0, attempted, failed, metrics, notes

    traced_ok = [r for r in traced if "layers" in r]  # a killed pass has none
    missing = sorted({m for r in traced_ok for m in r["missing"]})
    if missing:
        notes.append("MISSING wrapped names: " + ", ".join(missing))
    metrics = {}
    for name, (unit, _, _) in spans.LAYER_METRICS.items():
        vals = [r["layers"][name] for r in traced_ok]
        if not vals or any(v is None for v in vals):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    # No traced pass runs when the untraced one used up the run's time limit.
    traced_job = statistics.median([r["job_s"] for r in traced]) if traced else None
    metrics["trace.job_s"] = {"value": traced_job, "unit": "s"}
    metrics["trace.untraced_job_s"] = {"value": statistics.median(job), "unit": "s"}
    metrics["trace.overhead"] = {
        "value": traced_job / statistics.median(job) if traced else None, "unit": "ratio"}
    metrics["trace.missing"] = {"value": len(missing), "unit": "count"}
    return failed == 0, attempted, failed, metrics, notes


def _spread_line(name, xs, unit):
    q1, q3 = _quartiles(xs)
    return (f"{name} median {statistics.median(xs):.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, "
            f"n={len(xs)}")


def run_workload(workload, seed, seconds, trace, size="full"):
    if not os.path.isfile(os.path.join(ROOT, "src", "sievelab", "__init__.py")):
        raise BenchError(f"no sievelab sources under {os.path.join(ROOT, 'src')}")
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=base) as workdir:
            plain, traced, setups = run_passes(workload, seed, seconds, trace, workdir, size)
    finally:
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run still uses it
    return summarize(workload, trace, plain, traced, setups)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    prov = provenance()
    # One CPU for every worker: two CPUs of a shared host can run the same
    # code up to 1.8 times apart at the same moment, and a pass that moves
    # between them mixes both speeds.  Workers inherit the affinity.
    prov["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {prov["cpu"]})
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            for trace in modes:
                ok, att, fail, mets, notes = run_workload(name, args.seed, args.seconds, trace)
                correct, attempted, failed = correct and ok, attempted + att, failed + fail
                for note in notes:
                    print(f"[{name} trace={trace}] {note}", flush=True)
                for metric, m in mets.items():
                    print(f"[{name} trace={trace}] {metric} = {m['value']!r} {m['unit']}",
                          flush=True)
                    key = metric if len(names) == 1 else f"{name}/{metric}"
                    metrics[key] = m
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
