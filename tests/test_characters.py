"""Character-group invariants: orthogonality, the primitive-character
Moebius closed form, conductor divisibility, Ramanujan sums against
direct exponential sums, and the integer-turn representation."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sievelab.arith import divisors, factorize, mobius, totient
from sievelab.characters import (
    char_group,
    char_order,
    conductor,
    crt_product,
    descend,
    induce,
    is_primitive,
    primitive_chars,
    primitive_part,
    ramanujan_sum,
    trivial_char,
    value_table,
)


# ----------------------------------------------------------------------
# orthogonality: sum over all chi mod q of chi(w)
# ----------------------------------------------------------------------

def test_orthogonality_over_characters():
    for q in range(1, 61):
        phi = totient(q)
        acc = np.zeros(q, dtype=complex)
        for chi in char_group(q):
            acc = acc + value_table(chi)
        for w in range(q):
            if q > 1 and math.gcd(w, q) != 1:
                continue
            want = phi if (w % q) == (1 % q) else 0
            assert abs(acc[w] - want) <= 1e-10, (q, w)


def test_orthogonality_over_residues():
    # the dual identity: sum over units w of chi(w) = phi(q) iff chi trivial
    for q in range(1, 61):
        phi = totient(q)
        for chi in char_group(q):
            s = value_table(chi).sum()
            want = phi if chi.is_trivial() else 0
            assert abs(s - want) <= 1e-10, (q, chi)


# ----------------------------------------------------------------------
# primitive-character sum vs the Moebius closed form
# ----------------------------------------------------------------------

def test_primitive_character_sum_moebius_form():
    for q in range(1, 61):
        prims = list(primitive_chars(q))
        for w in range(1, q + 1):
            if math.gcd(w, q) != 1:
                continue
            lhs = sum(chi(w) for chi in prims)
            rhs = sum(
                mobius(q // d) * totient(d)
                for d in divisors(q)
                if (w - 1) % d == 0
            )
            assert abs(lhs - rhs) <= 1e-10, (q, w)


def test_primitive_character_counts():
    for q in range(1, 61):
        count = sum(mobius(q // d) * totient(d) for d in divisors(q))
        assert len(list(primitive_chars(q))) == count
        for chi in primitive_chars(q):
            assert is_primitive(chi)


# ----------------------------------------------------------------------
# conductor arithmetic
# ----------------------------------------------------------------------

def test_conductor_of_product_divides_lcm():
    for q in range(1, 41):
        chars = list(char_group(q))
        conds = {chi: conductor(chi) for chi in chars}
        for c1 in chars:
            l1 = conds[c1]
            for c2 in chars:
                L = math.lcm(l1, conds[c2])
                assert L % conductor(c1 * c2) == 0, (q, c1, c2)


def test_conductor_basics():
    for q in range(1, 41):
        assert conductor(trivial_char(q)) == 1
        for chi in char_group(q):
            c = conductor(chi)
            assert q % c == 0
            assert is_primitive(chi) == (c == q)
            # the primitive part induces back to chi
            assert induce(primitive_part(chi), q) == chi


def test_character_order_divides_group_order():
    for q in range(1, 41):
        phi = totient(q)
        for chi in char_group(q):
            n = char_order(chi)
            assert phi % n == 0
            # chi^n is trivial: n * log-value of every unit is an integer
            for w in range(q):
                f = chi.log_value(w)
                if f is not None:
                    assert (n * f) % 1 == Fraction(0)


# ----------------------------------------------------------------------
# Ramanujan sums against the direct exponential sum
# ----------------------------------------------------------------------

def test_ramanujan_sum_matches_direct_exponential_sum():
    for q in range(1, 101):
        units = [a for a in range(q) if math.gcd(a, q) == 1] or [0]
        roots = [cmath.exp(2j * cmath.pi * m / q) for m in range(q)]
        for n in range(-100, 101):
            direct = sum(roots[(a * n) % q] for a in units)
            got = ramanujan_sum(q, n)
            assert abs(got - direct) < 1e-8, (q, n)
            assert got == int(round(direct.real))


def test_ramanujan_sum_multiplicative():
    rng = random.Random(1812)
    for _ in range(200):
        q1 = rng.randrange(1, 40)
        q2 = rng.randrange(1, 40)
        if math.gcd(q1, q2) != 1:
            continue
        n = rng.randrange(-60, 61)
        assert ramanujan_sum(q1 * q2, n) == ramanujan_sum(q1, n) * ramanujan_sum(q2, n)


# ----------------------------------------------------------------------
# the representation: integer turns over the group exponent
# ----------------------------------------------------------------------

def test_turns_are_a_homomorphism_and_match_the_values():
    rng = random.Random(60)
    for q in range(1, 61):
        group = char_group(q)
        lam = group.exponent
        chars = list(group)
        units = [n for n in range(q) if math.gcd(n, q) == 1]
        for chi in chars:
            for n in units:
                for m in rng.sample(units, min(5, len(units))):
                    assert chi.turns(m * n) == (chi.turns(m) + chi.turns(n)) % lam
            for psi in rng.sample(chars, min(3, len(chars))):
                for n in units:
                    assert (chi * psi).turns(n) == (chi.turns(n) + psi.turns(n)) % lam
            for n in range(-q, 2 * q):
                k = chi.turns(n)
                assert (k is None) == (math.gcd(n, q) != 1)
                if k is not None:
                    assert 0 <= k < lam
                    assert chi.conj().turns(n) == (-k) % lam
            table = value_table(chi)
            for n in range(q):
                assert table[n] == chi(n)


def test_crt_product_of_unitary_components_gives_chi_back():
    for q in range(1, 61):
        prime_powers = [p**e for p, e in factorize(q)]
        splits = {math.prod(s) for s in itertools.product(*[(1, pe) for pe in prime_powers])}
        for chi in char_group(q):
            for m in splits:
                assert crt_product([descend(chi, m), descend(chi, q // m)]) == chi, (chi, m)
            assert crt_product([descend(chi, pe) for pe in prime_powers]) == chi


def test_char_group_rejects_a_non_integer_modulus():
    for bad in (12.0, 2.5, "12", 0, -3):
        with pytest.raises(ValueError):
            char_group(bad)
    group = char_group(np.int64(12))
    assert group.q == 12 and type(group.q) is int
    assert group is char_group(12)


def test_value_table_is_read_only():
    chi = next(iter(char_group(7)))
    table = value_table(chi)
    with pytest.raises(ValueError):
        table[1] = 99
    with pytest.raises(ValueError):
        chi.group.roots[0] = 99
    assert value_table(chi)[1] == 1
