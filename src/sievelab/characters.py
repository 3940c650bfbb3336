"""Dirichlet characters as numbered exponent vectors with integer turns.

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

Each group owns its phi(q) characters once, as ``chars``, numbered
0..phi(q)-1 in mixed radix over the generator orders (the last exponent
varies fastest, the order in which the group iterates).  A character
carries its ``index``, and every character this module returns is taken
from that table, never built twice.  So equality and hashing are object
identity: two characters are equal exactly when they are the same entry
of the same group, and characters mod 5 and mod 10 are never equal.  The
group's read-only arrays, each built on first use, make the character
algebra integer index work:

    mul[i, j]       the index of chars[i] * chars[j]   (phi x phi)
    conj[i]         the index of conj(chars[i])
    conductors[i]   the conductor of chars[i]

and value_table(chi) is one integer matvec, chi's exponents against the
matrix of scaled unit logs, taken mod lambda into the same root table.

Conventions: chi(n) = 0 when gcd(n, q) > 1; the conductor is the smallest
modulus the character descends to.
"""

import cmath
import operator
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product as iproduct
from math import gcd, lcm

import numpy as np

from .arith import factorize, totient, valuation


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


def _frozen(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CharGroup:
    """The character group mod q, i.e. the dual of (Z/qZ)^*.

    gens are residues mod q, each 1 at every prime power but its own;
    primes[i] is the prime of gens[i]; exponent is lambda(q) = lcm(orders);
    dlog[n] is the exponent vector of the unit n over gens (None off the
    units); roots[k] = e(k / exponent); chars[i] is the character of
    index i."""

    q: int
    gens: tuple
    orders: tuple
    primes: tuple
    exponent: int
    dlog: tuple
    roots: np.ndarray
    chars: tuple = field(init=False, repr=False)

    def __iter__(self):
        return iter(self.chars)

    def __repr__(self):
        return f"CharGroup(q={self.q})"

    def _char(self, exps):
        """The character whose exponent vector is exps, taken mod the orders."""
        i = 0
        for a, o in zip(exps, self.orders):
            i = i * o + a % o
        return self.chars[i]

    @cached_property
    def _exps(self):
        """The exponent vectors of chars, one row each."""
        return np.array([c.exponents for c in self.chars], dtype=np.int64).reshape(
            len(self.chars), len(self.orders))

    @cached_property
    def mul(self):
        """mul[i, j] is the index of chars[i] * chars[j]."""
        out = np.zeros((len(self.chars),) * 2, dtype=np.int32)
        for e, o in zip(self._exps.T.astype(np.int32), self.orders):
            out = out * o + (e[:, None] + e) % o
        return _frozen(out)

    @cached_property
    def conj(self):
        """conj[i] is the index of the conjugate of chars[i]."""
        out = np.zeros(len(self.chars), dtype=np.int32)
        for e, o in zip(self._exps.T, self.orders):
            out = out * o + (-e) % o
        return _frozen(out)

    @cached_property
    def conductors(self):
        """conductors[i] is the conductor of chars[i].  A component of
        order m > 1 at an odd prime p needs p^(v_p(m) + 1); at 2 the
        component on -1 (or on 3 mod 4) needs 4 and the one on 5 needs 4m."""
        cond = np.ones(len(self.chars), dtype=np.int64)
        two = np.ones(len(self.chars), dtype=np.int64)
        for e, o, p, gen in zip(self._exps.T, self.orders, self.primes, self.gens):
            m = o // np.gcd(o, e)  # order of the component
            if p == 2:
                two = np.maximum(two, np.where(m > 1, 4 * m if gen % 4 == 1 else 4, 1))
                continue
            f, pk = np.where(m > 1, p, 1), p
            while o % pk == 0:
                f = np.where(m % pk == 0, f * p, f)
                pk *= p
            cond *= f
        return _frozen(cond * two)

    @cached_property
    def _unit_logs(self):
        """(logs, units): logs[i, n] = dlog_i(n) * (lambda / ord_i) at the
        units n (0 elsewhere) and the unit mask, so that a character's
        turns at every residue are its exponents @ logs mod lambda."""
        units = np.array([x is not None for x in self.dlog])
        r = len(self.orders)
        scale = np.array([self.exponent // o for o in self.orders], dtype=np.int64)
        logs = np.zeros((r, self.q), dtype=np.int64)
        unit_logs = np.array([x for x in self.dlog if x is not None], dtype=np.int64)
        logs[:, units] = unit_logs.reshape(len(self.chars), r).T * scale[:, None]
        return _frozen(logs), _frozen(units)


def char_group(q):
    """The character group mod q, built once per modulus."""
    try:
        q = operator.index(q)
    except TypeError:
        raise ValueError(f"modulus must be an integer, got {q!r}") from None
    if q < 1:
        raise ValueError("modulus must be >= 1")
    # one build per q even under threads, so every character is interned
    with _GROUP_LOCK:
        return _char_group(q)


_GROUP_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _char_group(q):
    gens, orders, primes = [], [], []
    for p, e in factorize(q):
        local_gens, local_orders = _local_basis(p, e)
        gens += [_crt2(g, p**e, 1, q // p**e) for g in local_gens]
        orders += local_orders
        primes += [p] * len(local_gens)
    dlog = [None] * q
    all_exps = list(iproduct(*[range(o) for o in orders]))
    for exps in all_exps:
        n = 1 % q
        for g, a in zip(gens, exps):
            n = n * pow(g, a, q) % q
        dlog[n] = exps
    lam = lcm(*orders)
    roots = _frozen(np.array([_root(k, lam) for k in range(lam)], dtype=np.complex128))
    group = CharGroup(q, tuple(gens), tuple(orders), tuple(primes), lam, tuple(dlog), roots)
    chars = tuple(DirichletChar(group, exps, i) for i, exps in enumerate(all_exps))
    object.__setattr__(group, "chars", chars)
    return group


# ----------------------------------------------------------------------
# characters
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False, slots=True)
class DirichletChar:
    """chars[index] of its group; equal only to itself."""

    group: CharGroup
    exponents: tuple
    index: int

    @property
    def modulus(self):
        return self.group.q

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

    def __call__(self, n):
        k = self.turns(n)
        return 0j if k is None else self.group.roots.item(k)

    def __mul__(self, other):
        if self.group.q != other.group.q:
            raise ValueError("character product needs a common modulus")
        return self.group._char(a + b for a, b in zip(self.exponents, other.exponents))

    def conj(self):
        return self.group._char(-a for a in self.exponents)

    def is_trivial(self):
        return self.index == 0

    def parity(self):
        """chi(-1), which is +1 or -1."""
        return 1 if self.turns(-1) == 0 else -1


def trivial_char(q):
    return char_group(q).chars[0]


@lru_cache(maxsize=None)
def value_table(chi):
    """chi on 0..q-1 as a read-only complex numpy vector (zeros on non-units)."""
    g = chi.group
    logs, units = g._unit_logs
    turns = np.array(chi.exponents, dtype=np.int64) @ logs % g.exponent
    return _frozen(np.where(units, g.roots[turns], 0))


# ----------------------------------------------------------------------
# conductor / primitivity
# ----------------------------------------------------------------------

def conductor(chi):
    """Smallest f | q such that chi is induced by a character mod f."""
    return int(chi.group.conductors[chi.index])


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
        exps.append(a)
    return group._char(exps)


@lru_cache(maxsize=None)
def descend(chi, m):
    """The character mod m (m | q) whose value at a unit n is chi at the
    lift of n that is 1 at the primes of q outside m.

    This is the primitive part when cond(chi) | m, and the component of
    chi at the primes of m when m is a unitary divisor of q."""
    q = chi.modulus
    if not isinstance(m, (int, np.integer)) or m < 1 or q % m != 0:
        raise ValueError(f"m must be a positive divisor of the modulus {q}, got {m!r}")
    rest = q
    for p, _ in factorize(m):
        rest //= p ** valuation(rest, p)
    return _from_generators(m, [chi], rest)


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
    g = char_group(q)
    return [g.chars[i] for i in np.flatnonzero(g.conductors == g.q)]

