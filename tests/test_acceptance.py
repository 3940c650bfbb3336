"""Release acceptance: one test per headline criterion, each printing a
single PASS/FAIL line with the measured quantity and its budget.

Criteria marked as release blockers fail the build outright; the sieve
criterion treats inequality violations as reportable findings (they must
be emitted, never suppressed) because the underlying bound is only
proved with an unspecified constant."""

import math
import random
import time
from fractions import Fraction

import numpy as np

from sievelab.arith import divisors, primes_in
from sievelab.characters import (
    char_group,
    conductor,
    induce,
    is_primitive,
    primitive_chars,
)
from sievelab.experiments import (
    _n_aspect_conditions,
    _q_aspect_conditions,
    duality_check,
    exponent_fit,
    monotonicity_check_N,
    monotonicity_check_Q,
)
from sievelab.kernels import (
    chi_factorize,
    chiseparation_check,
    coset_identity_check,
    dk_tuples,
    kernel_detection_value,
    primitivity_kernel,
    random_char_table,
    theta_separation_check,
)
from sievelab.norms import (
    FamilySpec,
    additive_matrix,
    delta,
    gram_bruteforce,
    gram_multiplicative,
)
from sievelab.sieve_apps import (
    SievePlan,
    bdh_lhs,
    bdh_rhs_chars,
    random_bdh_input,
    sieve_inequality_report,
)
from sievelab.specials import exponent_sequence, z_cd_euler, z_cd_series
from test_norms import _pairs_prime_to


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# 1. primitivity-kernel detection, exact, q <= 120, under 30 s
# ----------------------------------------------------------------------

def test_acceptance_kernel_detection():
    t0 = time.monotonic()
    worst = 0.0
    mass_ok = True
    for q in range(1, 121):
        ker = primitivity_kernel(q)
        mass = ker.abs_sum()
        mass_ok = mass_ok and isinstance(mass, Fraction) and mass <= len(divisors(q))
        for psi in char_group(q):
            want = 1.0 if is_primitive(psi) else 0.0
            worst = max(worst, abs(kernel_detection_value(psi) - want))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and mass_ok and elapsed < 30.0
    _report(
        "kernel detection q<=120",
        ok,
        f"worst residual {worst:.2e} (tol 1e-9), coefficient mass <= tau(q) "
        f"{'exact' if mass_ok else 'VIOLATED'}, {elapsed:.1f}s of 30s",
    )


# ----------------------------------------------------------------------
# 2. decomposition identities on the stated grids, under 2 min
# ----------------------------------------------------------------------

def test_acceptance_decomposition_identities():
    t0 = time.monotonic()
    rng = random.Random(20260819)
    worst = 0.0

    # coset restriction: all (q, r | q), q <= 48, 20 random tables each
    for q in range(1, 49):
        chars = list(char_group(q))
        for r in divisors(q):
            for _ in range(20):
                tab = random_char_table(chars, rng.randrange(2**30))
                rep = coset_identity_check(q, r, lambda c1, c2: tab[c1] * tab[c2].conjugate())
                assert rep.ok, ("coset", q, r)
                worst = max(worst, rep.residual)

    # theta separation, both decomposed forms: all k <= 40, 20 tables each,
    # tuple family sized against the divisor-sum formula
    from sievelab.arith import totient

    for k in range(1, 41):
        assert len(dk_tuples(k)) == sum(totient(k) // totient(kp) for kp in divisors(k))
        chars = list(char_group(k))
        for _ in range(20):
            b = random_char_table(chars, rng.randrange(2**30))
            rep = theta_separation_check(k, b)
            assert rep.ok, ("theta", k)
            worst = max(worst, rep.residual1, rep.residual2)

    # chi factorization: round trip + conductor formula, all primitive
    # pairs with q1, q2 <= 36
    prims = [(q, c) for q in range(1, 37) for c in primitive_chars(q)]
    for q1, c1 in prims:
        for q2, c2 in prims:
            f = chi_factorize(c1, c2)
            assert f.reconstruct(1) == c1 and f.reconstruct(2) == c2, (q1, q2)
            L = math.lcm(q1, q2)
            direct = conductor(induce(c1, L) * induce(c2, L).conj())
            assert f.product_conductor_formula() == direct, (q1, q2)

    # combined chi separation over modulus sets from {q <= 24}, 20 tables
    for moduli in ([3], [4], [3, 4], [3, 9], [8, 12], [3, 4, 5], [5, 7, 9], [16, 24]):
        chars = [c for q in moduli for c in primitive_chars(q)]
        for _ in range(20):
            b = random_char_table(chars, rng.randrange(2**30))
            rep = chiseparation_check(moduli, b)
            assert rep.ok, ("chisep", moduli)
            worst = max(worst, rep.residual)

    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 120.0
    _report(
        "decomposition identities",
        ok,
        f"coset/theta/factorization/chi-separation worst residual {worst:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s of 120s",
    )


# ----------------------------------------------------------------------
# 3. Gram oracle equivalence on the sample grid, under 5 min
# ----------------------------------------------------------------------

ORACLE_GRID = [
    (3.0, 1, 1.0, 20.0),
    (4.0, 2, 2.0, 36.0),
    (7.0, 3, 1.0, 60.0),
    (9.0, 4, 4.0, 48.0),
    (12.0, 5, 2.0, 100.0),
    (16.0, 6, 1.0, 144.0),
    (11.0, 6, 4.0, 180.0),
    (1.5, 1, 2.0, 12.0),
    (6.0, 2, 4.0, 80.0),
    (20.0, 5, 4.0, 200.0),
]


def test_acceptance_gram_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for (Q, k, T, N) in ORACLE_GRID:
        spec = FamilySpec(Q, k, T)
        index = _pairs_prime_to(k, N)
        closed = gram_multiplicative(spec, index)
        brute = gram_bruteforce(spec, index)
        if closed.dim:
            worst = max(worst, float(np.max(np.abs(closed.matrix - brute.matrix))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 300.0
    _report(
        "Gram oracle equivalence",
        ok,
        f"{len(ORACLE_GRID)} points on (Q<=20, k<=6, T<=4, N<=200), worst "
        f"entrywise {worst:.2e} (tol 1e-8), {elapsed:.1f}s of 300s",
    )


# ----------------------------------------------------------------------
# 4. monotonicity with constant 8 wherever the P-conditions hold
#    (release blocker), under 10 min
# ----------------------------------------------------------------------

def test_acceptance_monotonicity_witnesses():
    t0 = time.monotonic()
    grid_Q = (4.0, 8.0, 12.0)
    grid_N = (8.0, 32.0, 128.0)
    grid_P = (17, 29, 53)
    exercised = 0
    failures = []
    for Q in grid_Q:
        for N in grid_N:
            for P in grid_P:
                _, met = _n_aspect_conditions(Q, N, P)
                if met:
                    res = monotonicity_check_N(Q, 1, 1.0, N, P)
                    assert res.conditions_met
                    exercised += 1
                    if not res.ok:
                        failures.append(("N", Q, N, P))
                _, met = _q_aspect_conditions(Q, N, P)
                if met:
                    res = monotonicity_check_Q(Q, 1, 1.0, N, P)
                    assert res.conditions_met
                    exercised += 1
                    if not res.ok:
                        failures.append(("Q", Q, N, P))
    elapsed = time.monotonic() - t0
    ok = not failures and exercised > 0 and elapsed < 600.0
    _report(
        "monotonicity witnesses (constant 8)",
        ok,
        f"{exercised} condition-holding grid points (Q<=12, N<=128, both "
        f"aspects), failures {failures or 'none'}, {elapsed:.1f}s of 600s",
    )


# ----------------------------------------------------------------------
# 5. duality of operator norms on 20 additive instances
# ----------------------------------------------------------------------

def test_acceptance_duality():
    rng = random.Random(515)
    worst = 0.0
    for _ in range(20):
        Q = rng.randrange(2, 17)
        N = rng.randrange(20, 201)
        rows, index, mat = additive_matrix(Q, N)
        v1, v2 = duality_check(rows, index, mat)
        worst = max(worst, abs(v1 - v2) / max(1.0, v1, v2))
    ok = worst <= 1e-8
    _report(
        "norm duality (additive family)",
        ok,
        f"20 instances (Q<=16, N<=200), worst relative gap {worst:.2e} (tol 1e-8)",
    )


# ----------------------------------------------------------------------
# 6. BDH variance identity on 50 random inputs
# ----------------------------------------------------------------------

def test_acceptance_bdh_identity():
    rng = random.Random(660)
    worst = 0.0
    for i in range(50):
        X = rng.randrange(2, 101)
        Q = rng.randrange(1, 13)
        inp = random_bdh_input(X, Q, seed=7000 + i)
        lhs, rhs = bdh_lhs(inp), bdh_rhs_chars(inp)
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs, rhs))
    ok = worst <= 1e-8
    _report(
        "BDH variance identity",
        ok,
        f"50 random inputs (X<=100, Q<=12), worst relative gap {worst:.2e} (tol 1e-8)",
    )


# ----------------------------------------------------------------------
# 7. Z_{c,d}: Euler product vs double series
# ----------------------------------------------------------------------

def test_acceptance_z_functions():
    worst = 0.0
    for s in (2.0, 3.0, 2 + 1j):
        for c in range(1, 11):
            for d in range(1, 11):
                e = z_cd_euler(c, d, s)
                v = z_cd_series(c, d, s)
                worst = max(worst, abs(e - v) / abs(v))
    ok = worst <= 1e-4
    _report(
        "Z_{c,d} Euler vs series",
        ok,
        f"(c,d) in {{1..10}}^2 at s in {{2, 3, 2+i}}, worst relative {worst:.2e} (tol 1e-4)",
    )


# ----------------------------------------------------------------------
# 8. exponent recursion, exact
# ----------------------------------------------------------------------

def test_acceptance_exponent_recursion():
    seq = exponent_sequence(10**4)
    exact = all(seq[i] == Fraction(i + 2, i + 1) for i in range(10**4 + 1))
    heads = seq[0] == 2 and seq[1] == Fraction(3, 2)
    ok = exact and heads
    _report(
        "exponent recursion",
        ok,
        f"e_i = (i+2)/(i+1) exact for i <= 10^4, e_0 = {seq[0]}, e_1 = {seq[1]}",
    )


# ----------------------------------------------------------------------
# 9. empirical growth probe at k = T = 1, under 15 min single-threaded
# ----------------------------------------------------------------------

def test_acceptance_growth_probe():
    t0 = time.monotonic()
    # (a) fixed Q = 4, N dyadic 64 -> 8192: N-slope in [0.85, 1.20]
    n_samples = []
    N = 64.0
    while N <= 8192.0:
        n_samples.append((N, delta(4.0, 1, 1.0, N).value))
        N *= 2
    n_fit = exponent_fit(n_samples)

    # (b) fixed N = 256, Q dyadic 8 -> 64: Q-slope <= 2.3 and the ratio
    # to Q^2 + N confined to a factor-50 band
    q_samples = []
    ratios = []
    Q = 8.0
    while Q <= 64.0:
        val = delta(Q, 1, 1.0, 256.0).value
        q_samples.append((Q, val))
        ratios.append(val / (Q * Q + 256.0))
        Q *= 2
    q_fit = exponent_fit(q_samples)
    band = max(ratios) / min(ratios)

    elapsed = time.monotonic() - t0
    ok = (
        0.85 <= n_fit.slope <= 1.20
        and q_fit.slope <= 2.3
        and band <= 50.0
        and elapsed < 900.0
    )
    _report(
        "growth probe (k = T = 1)",
        ok,
        f"N-slope {n_fit.slope:.3f} in [0.85, 1.20]; Q-slope {q_fit.slope:.3f} "
        f"<= 2.3; ratio band x{band:.2f} <= x50; {elapsed:.1f}s of 900s",
    )


# ----------------------------------------------------------------------
# 10. sieve inequality experiment: violations are findings, control exact
# ----------------------------------------------------------------------

def test_acceptance_sieve_experiment(capsys):
    rng = random.Random(1010)
    violations = 0
    emitted_ok = True
    for _ in range(20):
        N = rng.randrange(20, 201)
        Q = rng.randrange(2, 13)
        omega = {}
        for p in primes_in(2, Q):
            if rng.random() < 0.6:
                omega[p] = frozenset(rng.sample(range(p), rng.randint(0, p - 1)))
        rep = sieve_inequality_report(SievePlan(N, omega), Q)
        err = capsys.readouterr().err
        if rep.ratio > 1 + 1e-6:
            violations += 1
            emitted_ok = emitted_ok and (not rep.ok) and "SIEVE-INEQUALITY FINDING" in err
        else:
            emitted_ok = emitted_ok and rep.ok and err == ""

    control = sieve_inequality_report(SievePlan(120, {}), 10)
    capsys.readouterr()
    control_ok = control.ok and control.ratio <= 1.0 and control.H == 1

    ok = emitted_ok and control_ok
    with capsys.disabled():
        _report(
            "sieve inequality experiment",
            ok,
            f"20 random plans (N<=200, Q<=12): {violations} ratio violations, "
            f"all {'emitted as findings' if emitted_ok else 'NOT PROPERLY EMITTED'}; "
            f"empty-plan control ratio {control.ratio:.6f} <= 1 exactly",
        )
