"""Run-to-run spread of the end-to-end metrics, and a baseline file.

    python3 bench/spread.py [--out bench/BENCH_x.json]

Runs ``run.py`` once per seed, 1 to 10, on every workload of
BENCHMARK.json, for its ``run_seconds``, as the benchmark's command line
does.  For every end-to-end metric, ``setup_s`` included, it prints the
median, the quartiles of ``statistics.quantiles(n=4)`` and the spread
(q3 - q1) / median, and flags a spread above a third of the metric's
bound.  It exits 1 if a spread other than that of ``setup_s`` is above its
bound: set-up time is gated on its median between two sets, not on its
spread within one, since a 0.2 s start-up moves by tens of milliseconds
with the machine's load.  It then makes one traced run per
workload.  ``--out`` writes every run's numbers, the summaries, the traced
runs and the provenance as JSON, the form of a BENCH_*.json file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    prov = json.loads(lines[0].split(" ", 1)[1])
    return prov, json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for name in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in SEEDS:
            prov, res = run_once(name, seed, seconds, 0)
            runs.append({"seed": seed, **res})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                + f", failed {res['failed']}/{res['attempted']}", flush=True)
        entry = {"runs": runs, "summary": {}}
        for metric, bound in bounds.items():
            s = summary([r["metrics"][metric]["value"] for r in runs])
            entry["summary"][metric] = s
            flag = "" if s["spread"] <= bound / 3 else "  <-- above bound/3"
            ok = ok and (metric == "setup_s" or s["spread"] <= bound)
            print(f"{name} {metric}: median {s['median']:.6g}, quartiles {s['q1']:.6g}.."
                  f"{s['q3']:.6g}, spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        _, entry["traced"] = run_once(name, SEEDS[0], seconds, 1)
        doc["workloads"][name] = entry
    doc["provenance"] = prov
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
