"""Finite-group decomposition identities: primitivity-kernel detection,
coset restriction, theta separation, character factorization, combined
chi separation, and the archimedean tiling identity."""

import math
import random
from fractions import Fraction

import pytest

from sievelab.arith import divisors, factorize, prime_factors, totient
from sievelab.characters import (
    char_group,
    conductor,
    induce,
    is_primitive,
    primitive_chars,
    trivial_char,
)
from sievelab.kernels import (
    archimedean_coset_check,
    chi_factorize,
    chiseparation_check,
    coset_identity_check,
    dk_tuples,
    kernel_detection_value,
    primitivity_kernel,
    random_char_table,
    theta_separation_check,
)


# ----------------------------------------------------------------------
# primitivity kernel: detection identity and coefficient-mass bound
# ----------------------------------------------------------------------

def test_kernel_detects_primitivity_all_q_120():
    for q in range(1, 121):
        for psi in char_group(q):
            got = kernel_detection_value(psi)
            want = 1.0 if is_primitive(psi) else 0.0
            assert abs(got - want) <= 1e-9, (q, psi)


def test_kernel_coefficient_mass_bound_exact():
    for q in range(1, 121):
        mass = primitivity_kernel(q).abs_sum()
        assert isinstance(mass, Fraction)
        assert mass <= len(divisors(q)), q


def test_kernel_literal_convention_differs_on_nonunits():
    # evaluating the kernel with the zero-on-nonunits convention breaks
    # the detection identity at the d = q term: for prime q and the
    # trivial character the literal pairing returns 1/q instead of 0
    for p in (3, 7, 11):
        ker = primitivity_kernel(p)
        psi = trivial_char(p)
        assert abs(ker.pair_induced(psi) - 0.0) <= 1e-12
        assert abs(ker.pair_literal(psi) - 1.0 / p) <= 1e-12


# ----------------------------------------------------------------------
# coset restriction identity
# ----------------------------------------------------------------------

def test_coset_identity_full_grid():
    rng = random.Random(271828)
    for q in range(1, 49):
        chars = list(char_group(q))
        for r in divisors(q):
            for _ in range(20):
                tab = random_char_table(chars, rng.randrange(2**30))
                F = lambda c1, c2: tab[c1] * tab[c2].conjugate()
                rep = coset_identity_check(q, r, F)
                assert rep.ok, (q, r, rep.residual)


def test_coset_identity_counting_example():
    # F == 1: both sides count phi(q) * phi(r) pairs
    for q, r in [(12, 4), (30, 15), (8, 8), (7, 1)]:
        rep = coset_identity_check(q, r, lambda c1, c2: 1.0)
        assert rep.ok
        assert abs(rep.lhs - totient(q) * totient(r)) <= 1e-9


def test_coset_identity_arbitrary_tables():
    # arbitrary (non-rank-one) complex tables, pair-keyed dict form
    rng = random.Random(31337)
    for q, r in [(12, 4), (15, 5), (24, 12), (9, 3)]:
        chars = list(char_group(q))
        for _ in range(20):
            F = {
                (c1, c2): complex(rng.gauss(0, 1), rng.gauss(0, 1))
                for c1 in chars
                for c2 in chars
            }
            rep = coset_identity_check(q, r, F)
            assert rep.ok, (q, r, rep.residual)


# ----------------------------------------------------------------------
# theta separation and the tuple family behind it
# ----------------------------------------------------------------------

def _brute_tuple_count(k):
    # enumerate (k0, k1, k') with k0 k1 k' = k, gcd(k0,k') = 1,
    # rad(k1) | rad(k'), weighted by the number of coset representatives
    count = 0
    for kp in divisors(k):
        for k0 in divisors(k // kp):
            k1 = k // (kp * k0)
            if math.gcd(k0, kp) != 1:
                continue
            if any(p not in prime_factors(kp) for p in prime_factors(k1)):
                continue
            count += totient(k) // totient(kp)
    return count


def test_dk_tuple_counts():
    for k in range(1, 41):
        tuples = dk_tuples(k)
        assert len(tuples) == _brute_tuple_count(k)
        assert len(tuples) == sum(totient(k) // totient(kp) for kp in divisors(k))
        for t in tuples:
            assert t.k0 * t.k1 * t.kprime == k
            assert math.gcd(t.k0, t.kprime) == 1
    assert len(dk_tuples(1)) == 1
    for p in (2, 3, 5, 7, 11):
        assert len(dk_tuples(p)) == 1 + totient(p)


def test_theta_separation_full_grid():
    rng = random.Random(161803)
    for k in range(1, 41):
        chars = list(char_group(k))
        for _ in range(20):
            b = random_char_table(chars, rng.randrange(2**30))
            rep = theta_separation_check(k, b)
            assert rep.ok, (k, rep.residual1, rep.residual2)


def test_theta_separation_trivial_modulus():
    rep = theta_separation_check(1, {trivial_char(1): 2.5 - 1j})
    assert rep.ok
    assert abs(rep.lhs - abs(2.5 - 1j) ** 2) <= 1e-12


# ----------------------------------------------------------------------
# character factorization
# ----------------------------------------------------------------------

def test_chi_factorize_roundtrip_all_primitive_pairs():
    prims = [(q, c) for q in range(1, 37) for c in primitive_chars(q)]
    for q1, c1 in prims:
        for q2, c2 in prims:
            f = chi_factorize(c1, c2)
            assert f.reconstruct(1) == c1, (q1, q2)
            assert f.reconstruct(2) == c2, (q1, q2)


def test_chi_factorize_conductor_formula_all_primitive_pairs():
    prims = [(q, c) for q in range(1, 37) for c in primitive_chars(q)]
    for q1, c1 in prims:
        for q2, c2 in prims:
            f = chi_factorize(c1, c2)
            L = math.lcm(q1, q2)
            direct = conductor(induce(c1, L) * induce(c2, L).conj())
            assert f.product_conductor_formula() == direct, (q1, q2)


def test_chi_factorize_reconstruction_values():
    # exponent equality already implies value equality; spot-check the
    # values themselves on a sampled subset anyway
    rng = random.Random(5771)
    prims = [c for q in range(1, 37) for c in primitive_chars(q)]
    for _ in range(50):
        c1, c2 = rng.choice(prims), rng.choice(prims)
        f = chi_factorize(c1, c2)
        r1 = f.reconstruct(1)
        for n in range(c1.modulus):
            assert abs(r1(n) - c1(n)) <= 1e-12


def test_chi_factorize_stated_examples():
    chi3 = next(c for c in primitive_chars(3))
    chi5 = next(c for c in primitive_chars(5))
    f = chi_factorize(chi3, chi5)
    assert (f.q1_prime, f.q2_prime) == (3, 5)
    assert f.q1_plus == f.q1_minus == f.q2_plus == f.q2_minus == f.r == 1

    chi9 = next(c for c in primitive_chars(9))
    f = chi_factorize(chi9, chi3)
    assert (f.q1_plus, f.q2_minus, f.r) == (9, 3, 1)

    chi7 = next(c for c in primitive_chars(7))
    f = chi_factorize(chi7, chi7)
    assert f.r == 7
    assert f.product_conductor_formula() == 1


def test_chi_factorize_rejects_imprimitive():
    imprim = induce(next(c for c in primitive_chars(3)), 9)
    prim = next(c for c in primitive_chars(5))
    with pytest.raises(ValueError):
        chi_factorize(imprim, prim)
    with pytest.raises(ValueError):
        chi_factorize(prim, imprim)


# ----------------------------------------------------------------------
# combined chi separation over modulus sets
# ----------------------------------------------------------------------

CHISEP_SETS = [
    [3],
    [4],
    [5],
    [3, 4],
    [3, 9],          # exercises the q+/q- branches
    [8, 12],
    [3, 4, 5],
    [5, 7, 9],
    [16, 24],
    [7, 11, 13, 16],
]


def test_chiseparation_modulus_sets():
    rng = random.Random(424242)
    for moduli in CHISEP_SETS:
        chars = [c for q in moduli for c in primitive_chars(q)]
        for _ in range(10):
            b = random_char_table(chars, rng.randrange(2**30))
            rep = chiseparation_check(moduli, b)
            assert rep.ok, (moduli, rep.residual)


# ----------------------------------------------------------------------
# archimedean tiling identity
# ----------------------------------------------------------------------

def _bump(u):
    if u <= 0.0 or u >= 1.0:
        return 0.0
    return math.exp(-1.0 / (u * (1.0 - u)))


def test_archimedean_zero_weight():
    rep = archimedean_coset_check(8.0, 2.0, lambda t: 1.0, lambda x: 0.0)
    assert rep.ok
    assert abs(rep.lhs) <= 1e-15 and abs(rep.rhs) <= 1e-15


def test_archimedean_bump_example():
    beta = lambda t: 1.0
    w = lambda x: _bump((x - 2.0) / 2.0)
    rep = archimedean_coset_check(8.0, 2.0, beta, w)
    assert rep.ok, rep.residual


def test_archimedean_oscillatory():
    for (T, U) in [(4.0, 1.0), (8.0, 2.0), (6.0, 3.0)]:
        beta = lambda t: math.cos(0.7 * t) + 0.3 * math.sin(1.3 * t)
        w = lambda x: _bump((x - U) / U) * math.cos(0.5 * x)
        rep = archimedean_coset_check(T, U, beta, w)
        assert rep.ok, (T, U, rep.residual)


def test_archimedean_single_tile_collapse():
    # U = 2T: one tile covers the whole square and the identity is the
    # original double integral verbatim
    beta = lambda t: math.exp(-0.1 * t) * math.cos(t)
    w = lambda x: _bump((x - 8.0) / 8.0)
    rep = archimedean_coset_check(4.0, 8.0, beta, w)
    assert rep.ok, rep.residual


def test_archimedean_domain_precondition():
    with pytest.raises(ValueError):
        archimedean_coset_check(4.0, 0.5, lambda t: 1.0, lambda x: 0.0)
    with pytest.raises(ValueError):
        archimedean_coset_check(4.0, 9.0, lambda t: 1.0, lambda x: 0.0)


# ----------------------------------------------------------------------
# how often the checks read the caller's tables
# ----------------------------------------------------------------------

def test_coset_check_calls_F_once_per_ordered_pair():
    for q, r in [(12, 4), (15, 5), (24, 12), (9, 3), (7, 1), (8, 8), (1, 1)]:
        calls = []

        def F(c1, c2):
            calls.append((c1, c2))
            return 1.0

        assert coset_identity_check(q, r, F).ok
        assert len(calls) == len(set(calls)) == totient(q) ** 2, (q, r)


def test_theta_check_reads_b_at_most_once_per_character():
    rng = random.Random(8)
    for k in range(1, 31):
        chars = list(char_group(k))
        tab = random_char_table(chars, rng.randrange(2**30))
        reads = []

        def b(c):
            reads.append(c)
            return tab[c]

        assert theta_separation_check(k, b).ok
        assert len(reads) == len(set(reads)) <= len(chars), k
        assert set(reads) <= set(chars)
