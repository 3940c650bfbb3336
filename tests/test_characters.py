"""Character-group invariants: orthogonality, the primitive-character
Moebius closed form, conductor divisibility, Ramanujan sums against
direct exponential sums, and the integer-turn representation."""

import cmath
import itertools
import math
import random
import sys
import threading
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


def test_descend_refuses_a_bad_modulus():
    chi = char_group(12).chars[3]
    for bad in (0, -4, 5, 2.0, "4", None):
        with pytest.raises(ValueError, match="m must be a positive divisor"):
            descend(chi, bad)
    assert descend(chi, np.int64(4)) is descend(chi, 4)


def test_value_table_is_read_only():
    chi = next(iter(char_group(7)))
    table = value_table(chi)
    with pytest.raises(ValueError):
        table[1] = 99
    with pytest.raises(ValueError):
        chi.group.roots[0] = 99
    assert value_table(chi)[1] == 1


# ----------------------------------------------------------------------
# interning: each character exists once, as an entry of its group
# ----------------------------------------------------------------------

def _is_interned(chi):
    group = char_group(chi.modulus)
    return chi.group is group and group.chars[chi.index] is chi


def test_groups_iterate_their_one_table():
    for q in range(1, 61):
        group = char_group(q)
        first, second = list(group), list(group)
        assert all(a is b for a, b in zip(first, second))
        assert all(a is b for a, b in zip(first, group.chars))
        assert len(first) == totient(q)
        assert [chi.index for chi in first] == list(range(totient(q)))
        assert trivial_char(q) is group.chars[0]


def test_character_operations_return_the_interned_character():
    rng = random.Random(2024)
    for q in range(1, 61):
        chars = char_group(q).chars
        prime_powers = [p**e for p, e in factorize(q)]
        for chi in chars:
            assert _is_interned(chi.conj())
            assert _is_interned(chi * rng.choice(chars))
            assert _is_interned(primitive_part(chi))
            for pe in prime_powers:
                assert _is_interned(descend(chi, pe))
            assert _is_interned(crt_product([descend(chi, pe) for pe in prime_powers]))
            for m in (2 * q, 3 * q):
                assert _is_interned(induce(chi, m))


def test_characters_of_different_moduli_are_unequal():
    # G_10 and G_5 have the same generator orders, so equal exponent tuples
    g5, g10 = char_group(5), char_group(10)
    for c5, c10 in zip(g5, g10):
        assert c5.exponents == c10.exponents
        assert c5 != c10
    assert len(set(g5) | set(g10)) == 8
    assert trivial_char(5) != trivial_char(10) and trivial_char(5) == trivial_char(5)


# ----------------------------------------------------------------------
# the group arrays against independent oracles
# ----------------------------------------------------------------------

def test_mul_and_conj_tables_against_exponent_arithmetic():
    for q in range(1, 201):
        group = char_group(q)
        E = np.array([chi.exponents for chi in group], dtype=np.int64)
        E = E.reshape(totient(q), len(group.orders))
        orders = np.array(group.orders, dtype=np.int64)
        assert np.array_equal(E[group.mul], (E[:, None, :] + E[None, :, :]) % orders), q
        assert np.array_equal(E[group.conj], -E % orders), q


def test_conductor_table_against_brute_force():
    # the smallest f | q with chi(n) = 1 at every unit n = 1 (mod f)
    for q in range(1, 201):
        group = char_group(q)
        values = np.array([value_table(chi) for chi in group])
        residues = np.arange(q)
        units = np.array([math.gcd(n, q) == 1 for n in range(q)])
        want = np.zeros(totient(q), dtype=np.int64)
        for f in sorted(divisors(q), reverse=True):
            fixed = units & (residues % f == 1 % f)
            want[np.all(np.abs(values[:, fixed] - 1) < 1e-9, axis=1)] = f
        assert np.array_equal(group.conductors, want), q


def test_value_table_against_pointwise_values():
    for q in range(1, 201):
        for chi in char_group(q):
            want = np.array([chi(n) for n in range(q)], dtype=np.complex128)
            assert value_table(chi).tobytes() == want.tobytes(), chi


def test_threads_building_one_group_share_its_characters():
    # moduli no other test builds, so every thread races to build each
    moduli = [4096 + 7 * i for i in range(4)]
    results = [None] * 8
    barrier = threading.Barrier(len(results))

    def build(slot):
        barrier.wait(timeout=30)
        results[slot] = [char_group(q) for q in moduli]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for groups in results:
        assert [g.q for g in groups] == moduli
        assert all(g is char_group(q) for g, q in zip(groups, moduli))
