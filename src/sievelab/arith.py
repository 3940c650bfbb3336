"""Exact elementary number theory shared across the package.

Trial-division factorization, Moebius, totient, divisor lists, p-adic
valuations, primes in an interval.  Everything returns plain ints; nothing
here ever rounds.  The moduli and heights this package touches stay below
~10^7, where trial division with a cache is plenty.
"""

from functools import lru_cache
from math import isqrt


@lru_cache(maxsize=None)
def factorize(n):
    """Prime factorization of n >= 1 as a tuple of (p, e) with p ascending."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    f = 5
    step = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f += step
        step = 6 - step  # alternate 5,7,11,13,... wheel
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_factors(n):
    return tuple(p for p, _ in factorize(n))


@lru_cache(maxsize=None)
def divisors(n):
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return tuple(sorted(divs))


def mobius(n):
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def totient(n):
    t = 1
    for p, e in factorize(n):
        t *= p ** (e - 1) * (p - 1)
    return t


def is_prime(n):
    if n < 2:
        return False
    f = factorize(n)
    return len(f) == 1 and f[0][1] == 1


def primes_in(lo, hi):
    """Primes p with lo <= p <= hi, ascending."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, hi + 1, p)))
    return [p for p in range(lo, hi + 1) if sieve[p]]


def omega(n):
    """Number of distinct prime factors."""
    return len(factorize(n))


def valuation(n, p):
    """The p-adic valuation v_p(n) of a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
