"""One pass of one workload, in a fresh process.

Protocol with ``run.py``: after sievelab is imported and the warm-up is
done the worker prints ``READY``; the parent times set-up from spawning
the process to that line.  With ``--setup-only`` the worker then exits.
Otherwise it runs the workload's calls, timing only the calls and timing
the workload's machine-speed probe (``probe.py``) before, between and
after them, checks every output against the value gate, and prints one
JSON line:

    {"job_s", "wall_job_s", "probe_s", "peak_rss_mb", "attempted",
     "failed", "errors", "values", "layers", "missing"}

``wall_job_s`` is the wall time of the calls, ``probe_s`` the median probe
time, and ``job_s`` the wall time scaled to the probe's reference speed.

``values`` holds the norm of each call that returned one, which is how
``reference.json`` was produced.  ``layers`` and ``missing`` are set only
with ``--trace 1``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RAISED = object()  # the output of a call that raised; any other output is gated


def warm_up():
    """Import sievelab and initialise BLAS and LAPACK on a tiny matrix, so
    that lazy library set-up is not charged to the first timed call."""
    sys.path.insert(0, SRC)
    import numpy as np

    import sievelab  # noqa: F401
    from sievelab import cli  # noqa: F401  (not imported by the package)

    m = np.eye(4) + 0.5
    np.linalg.eigvalsh(m @ m)


def run_pass(workload, seed, size, trace, workdir, ref=None):
    """Run one pass in this process and return the result dict."""
    import probe
    import workloads

    ref = workloads.load_reference()[size] if ref is None else ref
    calls = workloads.WORKLOADS[workload](seed, size, ref, workdir)
    tracer = counts = restore = None
    missing = []
    if trace:
        import spans as tr

        tracer, counts = tr.Tracer(), tr.Counts()
        missing, restore = tr.install(tracer, counts)

    kind = workloads.PROBE_KIND[workload]
    probes = [probe.measure(kind)]
    outputs, errors, job_s, since_probe = [], [], 0.0, 0.0
    try:
        for call in calls:
            t0 = time.perf_counter()
            try:
                out = call.fn()
            except Exception:  # a raising call is a failed call, recorded
                out = RAISED
                errors.append(f"{call.name}: {traceback.format_exc(limit=3)}")
            dt = time.perf_counter() - t0
            job_s += dt
            outputs.append(out)
            since_probe += dt
            if since_probe >= probe.EVERY_S:
                probes.append(probe.measure(kind))
                since_probe = 0.0
    finally:
        if restore is not None:
            restore()
    probes.append(probe.measure(kind))
    probe_s = statistics.median(probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    values = {}
    for call, out in zip(calls, outputs):
        if out is RAISED:
            continue
        try:
            if call.value is not None:
                values[call.name] = call.value(out)
            reason = call.gate(out)
        except Exception:  # an output the gate cannot read fails the call
            reason = f"{call.name}: output check raised {traceback.format_exc(limit=3)}"
        if reason is not None:
            errors.append(reason)
    result = {
        "job_s": job_s * probe.REF_S[kind] / probe_s,
        "wall_job_s": job_s,
        "probe_s": probe_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(calls),
        "failed": len(errors),
        "errors": errors,
        "values": values,
    }
    if trace:
        result["layers"] = tr.layer_metrics(tracer, counts, missing)
        result["missing"] = missing
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = run_pass(args.workload, args.seed, args.size, args.trace, args.workdir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
