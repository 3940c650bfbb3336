"""Dirichlet characters as exponent vectors with integer turns.

A character mod q is stored as an exponent vector (a_i) over a fixed
generator basis of (Z/qZ)^*: one cyclic generator per factor of each prime
power p^e || q (the smallest primitive root for odd p, 3 mod 4, and the
pair <-1, 5> mod 2^e for e >= 3), each lifted by CRT to 1 at the other
prime powers.  With lambda = lambda(q) the exponent of the group, the
value at a unit n is an integer number k of 1/lambda turns,

    chi(n) = e(k / lambda),   k = sum_i a_i * dlog_i(n) * (lambda / ord_i) mod lambda,

with e(x) = exp(2 pi i x).  The group holds one discrete-log table (the
exponent vector of every unit mod q) and one read-only root table
roots[k] = e(k / lambda), exact at the quarter turns 1, i, -1, -i.  All
character algebra stays in integers, so the identity checking in this
package costs exactly one rounding step, at the table's exp.

Conventions: chi(n) = 0 when gcd(n, q) > 1; the conductor is the smallest
modulus the character descends to.
"""

import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, lcm

import numpy as np

from .arith import divisors, factorize, mobius, totient, valuation


# ----------------------------------------------------------------------
# the group: generator basis, discrete logs, roots of unity
# ----------------------------------------------------------------------

def _mult_order(g, m, phi_m):
    """Multiplicative order of g modulo m (g a unit)."""
    order = phi_m
    for p, _ in factorize(phi_m):
        while order % p == 0 and pow(g, order // p, m) == 1:
            order //= p
    return order


def _local_basis(p, e):
    """Generators of (Z/p^eZ)^* and their orders."""
    m = p**e
    if p == 2:
        if e == 1:
            return (), ()
        if e == 2:
            return (3,), (2,)
        return (m - 1, 5), (2, 2 ** (e - 2))
    phi = totient(m)
    g = 2
    while _mult_order(g, m, phi) != phi:
        g += 1
        while g % p == 0:
            g += 1
    return (g,), (phi,)


def _root(k, lam):
    """e(k / lam), exact at the quarter turns."""
    if 4 * k % lam == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[4 * k // lam]
    return cmath.exp(2j * cmath.pi * (k / lam))


@dataclass(frozen=True, eq=False)
class CharGroup:
    """The character group mod q, i.e. the dual of (Z/qZ)^*.

    gens are residues mod q, each 1 at every prime power but its own;
    primes[i] is the prime of gens[i]; exponent is lambda(q) = lcm(orders);
    dlog[n] is the exponent vector of the unit n over gens (None off the
    units); roots[k] = e(k / exponent)."""

    q: int
    gens: tuple
    orders: tuple
    primes: tuple
    exponent: int
    dlog: tuple
    roots: np.ndarray

    def __iter__(self):
        for exps in iproduct(*[range(o) for o in self.orders]):
            yield DirichletChar(self, exps)

    def __repr__(self):
        return f"CharGroup(q={self.q})"


def char_group(q):
    """The character group mod q, built once per modulus."""
    try:
        q = operator.index(q)
    except TypeError:
        raise ValueError(f"modulus must be an integer, got {q!r}") from None
    if q < 1:
        raise ValueError("modulus must be >= 1")
    return _char_group(q)


@lru_cache(maxsize=None)
def _char_group(q):
    gens, orders, primes = [], [], []
    for p, e in factorize(q):
        local_gens, local_orders = _local_basis(p, e)
        gens += [_crt2(g, p**e, 1, q // p**e) for g in local_gens]
        orders += local_orders
        primes += [p] * len(local_gens)
    dlog = [None] * q
    for exps in iproduct(*[range(o) for o in orders]):
        n = 1 % q
        for g, a in zip(gens, exps):
            n = n * pow(g, a, q) % q
        dlog[n] = exps
    lam = lcm(*orders)
    roots = np.array([_root(k, lam) for k in range(lam)], dtype=np.complex128)
    roots.setflags(write=False)
    return CharGroup(q, tuple(gens), tuple(orders), tuple(primes), lam, tuple(dlog), roots)


# ----------------------------------------------------------------------
# characters
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DirichletChar:
    group: CharGroup
    exponents: tuple

    @property
    def modulus(self):
        return self.group.q

    # characters compare by (modulus, exponent vector); groups are cached
    # singletons but equality should not depend on that
    def __eq__(self, other):
        return (
            isinstance(other, DirichletChar)
            and self.group.q == other.group.q
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.group.q, self.exponents))

    def __repr__(self):
        return f"chi(mod {self.group.q}; {self.exponents})"

    def turns(self, n):
        """chi(n) = e(k / lambda) as the integer k in [0, lambda), or None
        on non-units."""
        g = self.group
        logs = g.dlog[n % g.q]
        if logs is None:
            return None
        lam = g.exponent
        return sum(a * x * (lam // o) for a, x, o in zip(self.exponents, logs, g.orders)) % lam

    def log_value(self, n):
        """chi(n) as a Fraction of a full turn in [0, 1), or None on non-units."""
        k = self.turns(n)
        return None if k is None else Fraction(k, self.group.exponent)

    def __call__(self, n):
        k = self.turns(n)
        return 0j if k is None else self.group.roots.item(k)

    def __mul__(self, other):
        if self.group.q != other.group.q:
            raise ValueError("character product needs a common modulus")
        exps = tuple(
            (a + b) % o for a, b, o in zip(self.exponents, other.exponents, self.group.orders)
        )
        return DirichletChar(self.group, exps)

    def conj(self):
        exps = tuple((-a) % o for a, o in zip(self.exponents, self.group.orders))
        return DirichletChar(self.group, exps)

    def is_trivial(self):
        return all(a == 0 for a in self.exponents)

    def parity(self):
        """chi(-1), which is +1 or -1."""
        return 1 if self.turns(-1) == 0 else -1


def trivial_char(q):
    g = char_group(q)
    return DirichletChar(g, tuple(0 for _ in g.orders))


@lru_cache(maxsize=None)
def value_table(chi):
    """chi on 0..q-1 as a read-only complex numpy vector (zeros on non-units)."""
    g = chi.group
    units = [n for n, logs in enumerate(g.dlog) if logs is not None]
    out = np.zeros(g.q, dtype=np.complex128)
    out[units] = g.roots[[chi.turns(n) for n in units]]
    out.setflags(write=False)
    return out


# ----------------------------------------------------------------------
# conductor / primitivity
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def conductor(chi):
    """Smallest f | q such that chi is induced by a character mod f."""
    g = chi.group
    cond = two = 1
    for a, o, p, gen in zip(chi.exponents, g.orders, g.primes, g.gens):
        m = o // gcd(o, a)  # order of the component
        if m == 1:
            continue
        if p != 2:
            cond *= p ** (valuation(m, p) + 1)
        else:
            # 4 * m on the generator 5 mod 2^e, at least 4 on -1 (or 3 mod 4)
            two = max(two, 4 * m if gen % 4 == 1 else 4)
    return cond * two


def is_primitive(chi):
    return conductor(chi) == chi.modulus


def _crt2(r1, m1, r2, m2):
    """x with x = r1 (mod m1), x = r2 (mod m2); m1, m2 coprime."""
    if m2 == 1:
        return r1 % m1 if m1 > 1 else 0
    if m1 == 1:
        return r2 % m2
    inv = pow(m1 % m2, -1, m2)
    t = ((r2 - r1) * inv) % m2
    return (r1 + m1 * t) % (m1 * m2)


def _from_generators(m, chars, rest=1):
    """The character mod m whose value at each basis generator g is the
    product of the chars at the unit that is g mod m and 1 mod rest
    (rest coprime to m)."""
    group = char_group(m)
    exps = []
    for g, o in zip(group.gens, group.orders):
        n = _crt2(g, m, 1, rest)
        a = 0
        for c in chars:
            k = c.turns(n) * o
            if k % c.group.exponent:
                raise ValueError("value is not an order-th root of unity")
            a += k // c.group.exponent
        exps.append(a % o)
    return DirichletChar(group, tuple(exps))


def descend(chi, m):
    """The character mod m (m | q) whose value at a unit n is chi at the
    lift of n that is 1 at the primes of q outside m.

    This is the primitive part when cond(chi) | m, and the component of
    chi at the primes of m when m is a unitary divisor of q."""
    q = chi.modulus
    if q % m != 0:
        raise ValueError(f"{m} does not divide the modulus {q}")
    rest = q
    for p, _ in factorize(m):
        rest //= p ** valuation(rest, p)
    return _from_generators(m, [chi], rest)


@lru_cache(maxsize=None)
def primitive_part(chi):
    """The primitive character mod conductor(chi) inducing chi."""
    f = conductor(chi)
    return chi if f == chi.modulus else descend(chi, f)


def induce(chi, q):
    """The character mod q agreeing with chi on units (chi.modulus | q)."""
    if q % chi.modulus != 0:
        raise ValueError("can only induce to a multiple of the modulus")
    return chi if q == chi.modulus else _from_generators(q, [chi])


def crt_product(chars):
    """Combine characters of pairwise coprime moduli into one mod the product."""
    chars = list(chars)
    q = 1
    for c in chars:
        if gcd(q, c.modulus) != 1:
            raise ValueError("moduli must be pairwise coprime")
        q *= c.modulus
    return _from_generators(q, chars)


def rational_eval(chi, a, b):
    """chi(a) * conj(chi(b)) — the character at the rational a/b."""
    return chi(a) * chi(b).conjugate()


def primitive_chars(q):
    return [c for c in char_group(q) if is_primitive(c)]


def char_order(chi):
    o = 1
    for a, m in zip(chi.exponents, chi.group.orders):
        o = lcm(o, m // gcd(m, a))
    return o


# ----------------------------------------------------------------------
# Ramanujan sums
# ----------------------------------------------------------------------

def ramanujan_sum(q, n):
    """c_q(n) = sum over units a mod q of e(an/q), as an exact integer:
    c_q(n) = sum_{d | (q, n)} d * mu(q/d).  c_q(0) = phi(q)."""
    g = gcd(q, abs(n))
    return sum(d * mobius(q // d) for d in divisors(g))
