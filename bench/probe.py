"""Machine-speed probes: fixed work that owes nothing to sievelab, timed in
the worker between a pass's calls.

On a shared host the same code runs 20-40 % slower for seconds to minutes
at a time while neighbours load the machine, so a run's median pass time
follows the host as much as the program.  The worker therefore times a
probe of the kind that matches the workload's work before the first
call, after every ``EVERY_S`` seconds of timed calls and after the last
call, and reports ``job_s`` as the pass's wall time scaled to the probe's
reference speed:

    job_s = wall seconds of the calls * REF_S[kind] / median probe seconds

A change to sievelab moves the wall time and leaves the probe alone, so
it moves ``job_s`` by the same factor; a slow spell of the host slows
both and largely cancels.  ``REF_S`` only fixes the scale, so that
``job_s`` reads as seconds on the machine the baselines came from.
Probes run with the garbage collector off, so the objects a pass has
built do not change what a probe costs.
"""

import gc
import statistics
import time
from fractions import Fraction
from math import gcd

import numpy as np

# About the median probe seconds on the machine of BENCH_seed.json: a
# 2-core x86_64 VM, Python 3.11.7, numpy 2.4.6, one BLAS thread.
REF_S = {"python": 0.0025, "stream": 0.0032, "dense": 0.0050}
SAMPLES = 3
EVERY_S = 0.1


def python_probe():
    """Fraction arithmetic, gcd, tuple keys and dict lookups: the mix of the
    character algebra, whose exponents are Fractions."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 300):
        f = Fraction(i % 97, 1 + i % 89)
        acc = (acc + f) % 1
        key = (i % 101, gcd(i, 360))
        table[key] = table.get(key, acc) * f
    return acc


def stream_inputs():
    # 8 MB, past the per-core cache, as the Gram matrices the power
    # iteration streams; built per probe so that it adds nothing to the
    # worker's resident memory while sievelab runs
    m = (np.arange(724 * 724, dtype=np.float64) % 7).reshape(724, 724) * (1 + 1j)
    cross = np.outer(np.arange(1, 401, dtype=np.int64), np.arange(3, 403, dtype=np.int64))
    return m, m[0].copy(), cross


def stream_probe(m, v, cross):
    """Matrix-vector products streamed from memory and an int64 congruence
    mask: the power iteration and the rational Gram."""
    for _ in range(5):
        m @ v
    return ((cross - cross.T) % 6 == 0).sum()


def dense_inputs():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    h = a[:128, :128] + a[:128, :128].conj().T
    return a, h


def dense_probe(a, h):
    """A cache-resident complex product and a Hermitian eigensolve: the
    quadrature Gram and eigvalsh of the family route."""
    a.conj().T @ a
    return np.linalg.eigvalsh(h)[-1]


PROBES = {
    "python": (python_probe, tuple),
    "stream": (stream_probe, stream_inputs),
    "dense": (dense_probe, dense_inputs),
}


def measure(kind):
    """Median seconds of SAMPLES runs of the probe of `kind`."""
    fn, make_inputs = PROBES[kind]
    args = make_inputs()
    times = []
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
    finally:
        if gc_was_on:
            gc.enable()
    return statistics.median(times)
