"""Rationals ordered by height, localizations, and the reduction map.

A positive rational in lowest terms is a coprime pair (a, b); its two
heights are ht(a/b) = a*b and Ht(a/b) = max(a, b).  Q_(q) is the set of
rationals with nonnegative p-adic valuation at every p | q ("denominator
prime to q"); the strict unit version Q_(q)^x asks for valuation exactly 0
at every p | q, i.e. gcd(ab, q) = 1, and is where the reduction map

    red_q(a/b) = a * b^{-1}  (mod q)

lands in (Z/qZ)^*.  Enumeration sweeps product values n and splits each
into its 2^omega(n) unitary coprime factorizations, which matches the
dyadic-window indexing N/2 < ab <= N directly.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, floor

from .arith import factorize, valuation


@dataclass(frozen=True)
class CoprimePair:
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1 or gcd(self.a, self.b) != 1:
            raise ValueError(f"({self.a},{self.b}) is not a coprime pair of positive integers")

    def __iter__(self):
        return iter((self.a, self.b))


@dataclass(frozen=True)
class RationalPoint:
    """a/b in lowest terms with b >= 1, plus a sign flag (+1 or -1)."""

    a: int
    b: int
    sign: int = 1

    def __post_init__(self):
        if self.a < 1 or self.b < 1 or gcd(self.a, self.b) != 1:
            raise ValueError("numerator/denominator must be coprime positive integers")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def __repr__(self):
        s = "-" if self.sign < 0 else ""
        return f"{s}{self.a}/{self.b}"


def as_point(n):
    if isinstance(n, RationalPoint):
        return n
    if isinstance(n, CoprimePair):
        return RationalPoint(n.a, n.b)
    if isinstance(n, int):
        if n == 0:
            raise ValueError("0 is not in Q^x")
        return RationalPoint(abs(n), 1, 1 if n > 0 else -1)
    if isinstance(n, Fraction):
        if n == 0:
            raise ValueError("0 is not in Q^x")
        return RationalPoint(abs(n.numerator), n.denominator, 1 if n > 0 else -1)
    raise TypeError(f"cannot interpret {n!r} as a rational point")


# ----------------------------------------------------------------------
# heights and valuations
# ----------------------------------------------------------------------

def ht(n):
    n = as_point(n)
    return n.a * n.b


def Ht(n):
    n = as_point(n)
    return max(n.a, n.b)


def vp(n, p):
    """p-adic valuation of the rational: vp(a) - vp(b)."""
    n = as_point(n)
    return valuation(n.a, p) - valuation(n.b, p)


# ----------------------------------------------------------------------
# localization and reduction
# ----------------------------------------------------------------------

def in_localization(n, q, strict=False):
    """Is n in Q_(q) (denominator prime to q), or in the unit group
    Q_(q)^x (both a and b prime to q) when strict=True?"""
    n = as_point(n)
    if q == 1:
        return True
    if strict:
        return gcd(n.a * n.b, q) == 1
    return gcd(n.b, q) == 1


def reduce_mod(n, q):
    """red_q(n) = a * b^{-1} mod q.  Requires gcd(b, q) = 1."""
    n = as_point(n)
    if q < 1:
        raise ValueError("modulus must be positive")
    if q > 1 and gcd(n.b, q) != 1:
        raise ValueError(f"{n} is not q-integral: gcd({n.b}, {q}) > 1")
    if q == 1:
        return 0
    r = (n.a * pow(n.b, -1, q)) % q
    return (n.sign * r) % q


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def _coprime_splittings(n):
    """All ordered (a, b) with a*b = n and gcd(a, b) = 1: each prime-power
    block goes wholly to a or wholly to b."""
    pairs = [(1, 1)]
    for p, e in factorize(n):
        pe = p**e
        pairs = [(a * pe, b) for a, b in pairs] + [(a, b * pe) for a, b in pairs]
    return pairs


def enumerate_pairs(N, window="dyadic", coprime_to=1):
    """Coprime pairs (a,b) with ab in the window: N/2 < ab <= N (dyadic)
    or 1 <= ab <= N (full), skipping ab sharing a factor with coprime_to.
    Output is sorted a-major, then b."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if window not in ("dyadic", "full"):
        raise ValueError(f"unknown window {window!r}")
    hi = floor(N)
    lo = floor(N / 2) + 1 if window == "dyadic" else 1
    out = []
    for n in range(lo, hi + 1):
        if coprime_to > 1 and gcd(n, coprime_to) != 1:
            continue
        out.extend(_coprime_splittings(n))
    out.sort()
    return [CoprimePair(a, b) for a, b in out]


def rationals_up_to(N, sign=False):
    """Positive rationals with ht <= N (both signs when sign=True),
    ordered a-major then b, negatives after positives."""
    pts = [RationalPoint(p.a, p.b) for p in enumerate_pairs(N, "full")]
    if sign:
        pts = pts + [RationalPoint(p.a, p.b, -1) for p in pts]
    return pts
