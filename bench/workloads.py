"""The benchmark's workloads: the sievelab calls of one pass and the value
gate that checks each call's output.

A workload is a function ``(seed, size, ref, workdir) -> list[Call]``.  Each
``Call`` holds the timed call into sievelab and a ``gate`` that receives
the call's output and returns ``None`` when the output is correct, or a
one-line reason when it is not.  Gates run outside the timed region.
A call that reports a norm also has ``value``; ``ref`` maps call names to
the reference norms, and ``workdir`` takes any files a call writes.

``size`` is ``"full"`` for the benchmark and ``"tiny"`` for the smoke
tests; both sizes have reference values in ``reference.json``.

Every norm is compared with the value the seed commit produced, to
``REL_TOL`` relative: a faster wrong answer is a failed call, never a gain.
"""

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

REL_TOL = 1e-9
IDENTITY_TOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass
class Call:
    name: str
    fn: Callable[[], object]
    gate: Callable[[object], object]
    value: Callable[[object], float] = None  # the norm the call reports


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)["values"]


def rel_diff(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def matches(got, want):
    """got equals want to REL_TOL relative; False whenever either is NaN."""
    return rel_diff(got, want) <= REL_TOL


def _estimate_value(est):
    return float(est.value)


def norm_call(ref, key, fn):
    """A call returning a NormEstimate whose value must match the reference
    to REL_TOL relative."""
    want = ref[key]

    def gate(est):
        got = float(est.value)
        if not matches(got, want):
            return f"{key}: value {got!r} differs from reference {want!r}"
        return None

    return Call(key, fn, gate, _estimate_value)


# ----------------------------------------------------------------------
# pair_solve: pair-side Gram assembly and power iteration dominate
# ----------------------------------------------------------------------

PAIR_SOLVE = {
    "full": {"delta": (12, 3, 4.0, 400.0), "delta_add": (12, 300.0)},
    "tiny": {"delta": (6, 3, 2.0, 60.0), "delta_add": (6, 40.0)},
}


def pair_solve(seed, size, ref, workdir):
    from sievelab import norms

    Q, k, T, N = PAIR_SOLVE[size]["delta"]
    Qa, Na = PAIR_SOLVE[size]["delta_add"]
    d_key = f"delta({Q},{k},{T:g},{N:g})"
    a_key = f"delta_add({Qa},{Na:g})"
    return [
        norm_call(ref, d_key, lambda: norms.delta(Q, k, T, N)),
        norm_call(ref, a_key, lambda: norms.delta_add(Qa, Na)),
    ]


# ----------------------------------------------------------------------
# family_route: past the pair cutoff, member x node Gram and eigvalsh
# ----------------------------------------------------------------------

FAMILY_ROUTE = {
    "full": [(10, 3, 4.0, 1000.0, None), (10, 3, 4.0, 1000.0, "odd"), (12, 1, 4.0, 1000.0, None)],
    "tiny": [(4, 1, 2.0, 800.0, None), (4, 1, 2.0, 800.0, "odd"), (5, 1, 2.0, 900.0, None)],
}


def family_route(seed, size, ref, workdir):
    from sievelab import norms

    calls = []
    for Q, k, T, N, parity in FAMILY_ROUTE[size]:
        key = f"delta({Q},{k},{T:g},{N:g}" + (f",{parity})" if parity else ")")
        fn = (lambda Q=Q, k=k, T=T, N=N, parity=parity:
              norms.delta(Q, k, T, N, parity=parity))
        calls.append(norm_call(ref, key, fn))
    return calls


# ----------------------------------------------------------------------
# sieve_cli: the user path, `sievelab sieve` run in-process
# ----------------------------------------------------------------------

SIEVE_CLI = {"full": (200, 12, 10), "tiny": (40, 6, 2)}


def _sifted_size(N, omega):
    """Independent count of the sifted rationals a/b, ab <= N."""
    count = 0
    for a in range(1, N + 1):
        for b in range(1, N // a + 1):
            if math.gcd(a, b) != 1:
                continue
            for p, forbidden in omega.items():
                if a % p and b % p and (a * pow(b, -1, p)) % p in forbidden:
                    break
            else:
                count += 1
    return count


def _exact_H(Q, omega):
    """Independent H: squarefree q <= Q built from plan primes."""
    h = {p: Fraction(len(r), p - len(r)) for p, r in omega.items()}
    total = Fraction(0)
    for q in range(1, Q + 1):
        term, m = Fraction(1), q
        for p in range(2, q + 1):
            if m % p == 0:
                m //= p
                if m % p == 0 or p not in h:
                    break
                term *= h[p]
        else:
            total += term
    return total


def _read_records(out_path):
    with open(out_path) as fh:
        return json.load(fh)


def _control_delta(records):
    """Delta_rational from the empty-plan control, where H = 1 and the
    ratio is |S| / Delta."""
    extra = json.loads(records[0]["extra_params"])
    return extra["size"] / float(records[0]["value"])


def sieve_gate(ref, key, N, Q, trials, out_path):
    """The sieve run's records: one control plus `trials` random plans, each
    with |S| and H matching independent counts, the control giving the
    reference Delta_rational, and every ratio equal to |S| H / Delta."""
    want_delta = ref[key]

    def gate(code):
        if code not in (0, 1):
            return f"sieve: exit code {code}"
        records = _read_records(out_path)
        if len(records) != trials + 1:
            return f"sieve: {len(records)} records, expected {trials + 1}"
        for rec in records:
            extra = json.loads(rec["extra_params"])
            omega = {int(p): frozenset(r) for p, r in extra["omega"].items()}
            size, H = extra["size"], Fraction(extra["H"])
            ratio = float(rec["value"])
            if size != _sifted_size(N, omega):
                return f"sieve {extra['tag']}: |S| = {size} disagrees with the count"
            if H != _exact_H(Q, omega):
                return f"sieve {extra['tag']}: H = {H} disagrees with the exact sum"
            if extra["tag"] == "control" and (
                    H != 1 or not matches(_control_delta(records), want_delta)):
                return (f"{key}: control gives {_control_delta(records)!r}, "
                        f"reference {want_delta!r}")
            if not matches(ratio, float(size * H) / want_delta):
                return f"sieve {extra['tag']}: ratio {ratio!r} != |S| H / Delta"
        return None

    return gate


def sieve_cli(seed, size, ref, workdir):
    from sievelab import cli

    N, Q, trials = SIEVE_CLI[size]
    out_path = os.path.join(workdir, f"sieve_{seed}.json")
    argv = ["sieve", "-N", str(N), "-Q", str(Q), "--trials", str(trials),
            "--seed", str(seed), "--format", "json", "--out", out_path]
    key = f"sieve control delta_rational({Q},{N})"
    # exit code 1 records findings (ratio > 1), not a failure
    return [Call(key, lambda: cli.run(argv), sieve_gate(ref, key, N, Q, trials, out_path),
                 lambda code: _control_delta(_read_records(out_path)))]


# ----------------------------------------------------------------------
# identities: Python-object character algebra, no Gram or solve
# ----------------------------------------------------------------------

IDENTITIES = {
    # coset q, theta k, chi-factorization q1,q2, chi-separation moduli sets,
    # kernel q, random tables per check
    "full": {"coset": 40, "theta": 40, "chifact": 24,
             "chisep": ([3, 4], [3, 9], [8, 12], [3, 4, 5], [5, 7, 9], [16, 24]),
             "kernel": 90, "tables": 2},
    "tiny": {"coset": 8, "theta": 8, "chifact": 6, "chisep": ([3, 4],),
             "kernel": 8, "tables": 1},
}


def _report_gate(label):
    def gate(rep):
        residuals = [getattr(rep, f) for f in ("residual", "residual1", "residual2")
                     if hasattr(rep, f)]
        if not rep.ok or not all(r <= IDENTITY_TOL for r in residuals):
            return f"{label}: ok={rep.ok} residuals={residuals}"
        return None

    return gate


def _chifact_gate(label):
    def gate(results):
        for c1, c2, f in results:
            if f.reconstruct(1) != c1 or f.reconstruct(2) != c2:
                return f"{label}: round trip fails for ({c1}, {c2})"
        return None

    return gate


def _is_primitive(psi, q):
    """Independent oracle: psi mod q is primitive when, for every proper
    divisor d of q, some unit n = 1 mod d has psi(n) != 1."""
    units = [n for n in range(1, q + 1) if math.gcd(n, q) == 1]
    for d in range(1, q):
        if q % d == 0 and all(abs(psi(n) - 1) < 1e-9 for n in units if (n - 1) % d == 0):
            return False
    return True


def _kernel_gate(q, label):
    def gate(result):
        group, values = result
        for psi, v in zip(group, values):
            want = 1.0 if _is_primitive(psi, q) else 0.0
            if abs(v - want) > IDENTITY_TOL:
                return f"{label}: detection value {v!r} at {psi}, expected {want}"
        return None

    return gate


def identities(seed, size, ref, workdir):
    from sievelab import arith, characters, kernels

    grid = IDENTITIES[size]
    rng = random.Random(seed)
    calls = []

    def table(chars):
        return kernels.random_char_table(chars, rng.randrange(2**30))

    for q in range(1, grid["coset"] + 1):
        for r in arith.divisors(q):
            for _ in range(grid["tables"]):
                def fn(q=q, r=r):
                    tab = table(list(characters.char_group(q)))
                    return kernels.coset_identity_check(
                        q, r, lambda c1, c2: tab[c1] * tab[c2].conjugate())
                calls.append(Call(f"coset({q},{r})", fn, _report_gate(f"coset({q},{r})")))
    for k in range(1, grid["theta"] + 1):
        for _ in range(grid["tables"]):
            def fn(k=k):
                return kernels.theta_separation_check(k, table(list(characters.char_group(k))))
            calls.append(Call(f"theta({k})", fn, _report_gate(f"theta({k})")))
    for q1 in range(1, grid["chifact"] + 1):
        def fn(q1=q1):
            prims = [c for q in range(1, grid["chifact"] + 1)
                     for c in characters.primitive_chars(q)]
            return [(c1, c2, kernels.chi_factorize(c1, c2))
                    for c1 in characters.primitive_chars(q1) for c2 in prims]
        calls.append(Call(f"chi_factorize({q1}, *)", fn, _chifact_gate(f"chi_factorize({q1}, *)")))
    for moduli in grid["chisep"]:
        for _ in range(grid["tables"]):
            def fn(moduli=moduli):
                chars = [c for q in moduli for c in characters.primitive_chars(q)]
                return kernels.chiseparation_check(moduli, table(chars))
            calls.append(Call(f"chisep{moduli}", fn, _report_gate(f"chisep{moduli}")))
    for q in range(1, grid["kernel"] + 1):
        def fn(q=q):
            kernels.primitivity_kernel(q)
            group = list(characters.char_group(q))
            return group, [kernels.kernel_detection_value(psi) for psi in group]
        calls.append(Call(f"kernel({q})", fn, _kernel_gate(q, f"kernel({q})")))
    return calls


WORKLOADS = {
    "pair_solve": pair_solve,
    "family_route": family_route,
    "sieve_cli": sieve_cli,
    "identities": identities,
}

# The probe of probe.py whose work is most like each workload's.  Chosen
# by timing all three kinds between the calls of every workload on a
# shared host and keeping, for each workload, the kind whose scaled run
# medians spread least (README.md, Noise).
PROBE_KIND = {
    "pair_solve": "stream",
    "family_route": "dense",
    "sieve_cli": "stream",
    "identities": "python",
}
