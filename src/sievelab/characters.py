"""Dirichlet characters with exact root-of-unity arithmetic.

A character mod q is stored as an exponent vector over a fixed generator
basis of (Z/qZ)^*: one block of generators per prime power p^e || q
(a primitive root for odd p; the pair <-1, 5> for 2^e with e >= 3).  The
value chi(n) is then a rational number of turns

    chi(n) = e(sum_i a_i * dlog_i(n) / ord_i),        e(x) = exp(2 pi i x),

kept as a Fraction until the caller wants an actual complex number.  All the
identity checking in this package therefore costs exactly one rounding step,
at the final exp.

Conventions: chi(n) = 0 when gcd(n, q) > 1; the conductor is the smallest
modulus the character descends to; eval_induced goes through the primitive
character inducing chi and raises on arguments sharing a factor with the
conductor (the "induced" convention — the literal zero-on-non-units reading
breaks the detection identities, see the kernel module's tests).
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import gcd

import numpy as np

from .arith import divisors, factorize, mobius, totient, valuation


# ----------------------------------------------------------------------
# generator basis per prime power
# ----------------------------------------------------------------------

def _mult_order(g, m, phi_m):
    """Multiplicative order of g modulo m (g a unit)."""
    order = phi_m
    for p, _ in factorize(phi_m):
        while order % p == 0 and pow(g, order // p, m) == 1:
            order //= p
    return order


@dataclass(frozen=True, eq=False)
class PrimeBlock:
    """Generator data for (Z/p^eZ)^*: residue generators, their orders, and
    a discrete-log table residue -> exponent tuple."""

    p: int
    e: int
    modulus: int
    gens: tuple
    orders: tuple
    dlog: dict


@lru_cache(maxsize=None)
def _prime_block(p, e):
    m = p**e
    if p == 2:
        if e == 1:
            gens, orders = (), ()
        elif e == 2:
            gens, orders = (3,), (2,)
        else:
            gens, orders = (m - 1, 5), (2, 2 ** (e - 2))
    else:
        phi = totient(m)
        g = 2
        while _mult_order(g, m, phi) != phi:
            g += 1
            while g % p == 0:
                g += 1
        gens, orders = (g,), (phi,)
    dlog = {}
    for exps in iproduct(*[range(o) for o in orders]):
        r = 1
        for g, a in zip(gens, exps):
            r = (r * pow(g, a, m)) % m
        dlog[r] = exps
    assert len(dlog) == totient(m)
    return PrimeBlock(p, e, m, gens, orders, dlog)


@dataclass(frozen=True, eq=False)
class CharGroup:
    """The character group mod q, i.e. the dual of (Z/qZ)^*."""

    q: int
    blocks: tuple

    @property
    def orders(self):
        return tuple(o for b in self.blocks for o in b.orders)

    def size(self):
        return totient(self.q)

    def exponents_of(self, n):
        """Discrete log of a unit n as the concatenated per-block exponents."""
        n %= self.q
        if self.q > 1 and gcd(n, self.q) != 1:
            raise ValueError(f"{n} is not a unit mod {self.q}")
        out = []
        for b in self.blocks:
            out.extend(b.dlog[n % b.modulus])
        return tuple(out)

    def char(self, exponents):
        exps = tuple(a % o for a, o in zip(exponents, self.orders))
        if len(exps) != len(self.orders):
            raise ValueError("wrong exponent vector length")
        return DirichletChar(self, exps)

    def __iter__(self):
        for exps in iproduct(*[range(o) for o in self.orders]):
            yield DirichletChar(self, exps)

    def __repr__(self):
        return f"CharGroup(q={self.q})"


@lru_cache(maxsize=None)
def char_group(q):
    if q < 1:
        raise ValueError("modulus must be >= 1")
    return CharGroup(q, tuple(_prime_block(p, e) for p, e in factorize(q)))


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

    def log_value(self, n):
        """chi(n) as a Fraction of a full turn in [0, 1), or None on non-units."""
        q = self.group.q
        n %= q
        if q > 1 and gcd(n, q) != 1:
            return None
        f = Fraction(0)
        for b, a_slice in zip(self.group.blocks, self._block_slices()):
            exps = b.dlog[n % b.modulus]
            for a, x, o in zip(a_slice, exps, b.orders):
                f += Fraction(a * x, o)
        return f % 1

    def _block_slices(self):
        out = []
        i = 0
        for b in self.group.blocks:
            out.append(self.exponents[i : i + len(b.orders)])
            i += len(b.orders)
        return out

    def __call__(self, n):
        f = self.log_value(n)
        if f is None:
            return 0j
        return _turn(f)

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
        v = self.log_value(-1)
        return 1 if v == 0 else -1


@lru_cache(maxsize=None)
def _turn(frac):
    # exact values at the rational points everything else is compared against
    if frac == 0:
        return 1 + 0j
    if frac == Fraction(1, 2):
        return -1 + 0j
    if frac == Fraction(1, 4):
        return 1j
    if frac == Fraction(3, 4):
        return -1j
    return cmath.exp(2j * cmath.pi * float(frac))


def trivial_char(q):
    g = char_group(q)
    return DirichletChar(g, tuple(0 for _ in g.orders))


@lru_cache(maxsize=None)
def value_table(chi):
    """chi on 0..q-1 as a complex numpy vector (zeros on non-units)."""
    q = chi.modulus
    out = np.zeros(q, dtype=np.complex128)
    for n in range(q):
        if q == 1 or gcd(n, q) == 1:
            out[n] = chi(n)
    return out


# ----------------------------------------------------------------------
# conductor / primitivity
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def conductor(chi):
    """Smallest f | q such that chi is induced by a character mod f."""
    cond = 1
    for b, a_slice in zip(chi.group.blocks, chi._block_slices()):
        p = b.p
        if p != 2:
            a = a_slice[0]
            s = b.orders[0]
            if a != 0:
                m = s // gcd(s, a)  # order of the local component
                cond *= p ** (valuation(m, p) + 1)
        else:
            if b.e == 1:
                continue
            if b.e == 2:
                if a_slice[0] != 0:
                    cond *= 4
            else:
                a0, a1 = a_slice
                m1 = b.orders[1] // gcd(b.orders[1], a1)
                if m1 > 1:
                    cond *= 4 * m1
                elif a0 != 0:
                    cond *= 4
    return cond


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


def _unit_lift(x, m, q):
    """A residue mod q that is x mod m and 1 modulo the rest of q (m | q)."""
    return _crt2(x, m, 1, q // m)


def _char_by_values(q, value_of_gen):
    """Build the character mod q whose value at each basis generator g is
    given by value_of_gen(g_residue, block, gen_index) as a Fraction of a turn."""
    g = char_group(q)
    exps = []
    for b in g.blocks:
        for i, (gen, order) in enumerate(zip(b.gens, b.orders)):
            f = value_of_gen(gen, b, i)
            a = f * order
            if a.denominator != 1:
                raise ValueError("value is not an order-th root of unity")
            exps.append(int(a) % order)
    return DirichletChar(g, tuple(exps))


@lru_cache(maxsize=None)
def primitive_part(chi):
    """The primitive character mod conductor(chi) inducing chi."""
    q = chi.modulus
    f = conductor(chi)
    if f == q:
        return chi

    def val(gen, block, i):
        # lift the basis generator of (Z/fZ)^* — i.e. gen at its own prime
        # block, 1 at every other block of f AND at the primes of q outside
        # f — to a unit mod q; chi's value there is well defined because
        # cond(chi) | f and the value depends only on the residue mod f
        rest = f // block.modulus
        for p, e in factorize(q):
            if f % p != 0:
                rest *= p**e
        n = _crt2(gen, block.modulus, 1, rest)
        v = chi.log_value(n)
        assert v is not None
        return v

    return _char_by_values(f, val)


def induce(chi, q):
    """The character mod q agreeing with chi on units (chi.modulus | q)."""
    r = chi.modulus
    if q % r != 0:
        raise ValueError("can only induce to a multiple of the modulus")
    if q == r:
        return chi

    def val(gen, block, i):
        n = _unit_lift(gen, block.modulus, q)
        v = chi.log_value(n % r)
        assert v is not None
        return v

    return _char_by_values(q, val)


def crt_product(chars):
    """Combine characters of pairwise coprime moduli into one mod the product."""
    chars = list(chars)
    q = 1
    for c in chars:
        if gcd(q, c.modulus) != 1:
            raise ValueError("moduli must be pairwise coprime")
        q *= c.modulus

    def val(gen, block, i):
        # lift the block generator to the unit mod q that is 1 elsewhere,
        # then feed its reduction to every component
        n = _unit_lift(gen, block.modulus, q)
        f = Fraction(0)
        for c in chars:
            v = c.log_value(n % c.modulus)
            assert v is not None
            f += v
        return f % 1

    return _char_by_values(q, val)


def eval_induced(chi, n):
    """Evaluate the primitive character inducing chi at n.

    Raises ValueError when gcd(n, conductor) > 1 — there is no meaningful
    value there and silently returning 0 is exactly the convention that
    breaks the primitivity-detection identity.
    """
    star = primitive_part(chi)
    f = star.modulus
    if f > 1 and gcd(n, f) != 1:
        raise ValueError(f"gcd({n}, conductor {f}) > 1")
    return star(n)


def rational_eval(chi, a, b):
    """chi(a) * conj(chi(b)) — the character at the rational a/b."""
    return chi(a) * chi(b).conjugate()


def primitive_chars(q):
    return [c for c in char_group(q) if is_primitive(c)]


def char_order(chi):
    from math import lcm

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
