"""Rationals ordered by height, localizations, and the reduction map.

A positive rational in lowest terms is a coprime pair (a, b); its two
heights are ht(a/b) = a*b and Ht(a/b) = max(a, b).  Q_(q) is the set of
rationals with nonnegative p-adic valuation at every p | q ("denominator
prime to q"); the strict unit version Q_(q)^x asks for valuation exactly 0
at every p | q, i.e. gcd(ab, q) = 1, and is where the reduction map

    red_q(a/b) = a * b^{-1}  (mod q)

lands in (Z/qZ)^*.  The index, the coprime pairs with ab in a window, is
one pair of int64 arrays (a, b), enumerated (`_coprime_pairs`) and
reduced (`_reduce`) here alone; `enumerate_pairs` and `rationals_up_to`
are its object views, built by `_points`, and `reduce_mod` reduces one
point.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, isfinite, isqrt, log

import numpy as np

from .arith import mobius, totient, valuation

_CANDIDATE_BYTES = 40  # the enumerator's peak, about 32 bytes a candidate pair
_ROUTE_BYTES = 4 << 30  # the memory cap of a job: its index, its terms and its route
# a point object with its ints and the list slots of its columns: traced at
# 129-161 bytes on indices to N = 2 10^5, 193 with every coordinate past the
# small-int cache
_POINT_BYTES = 200


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

def _check_bytes(what, need, cap):
    """Refuse, with ValueError, a job whose size estimate passes cap."""
    if need > cap:
        raise ValueError(f"the {what} needs an estimated {need / 2**20:.1f} MiB, "
                         f"over the {cap / 2**20:.1f} MiB cap")


def _heights(N, window):
    """The heights lo <= ab <= hi of a window, "dyadic" (N/2 < ab <= N) or
    "full" (1 <= ab <= N); ValueError on a bad N or window, and when the
    at most floor(N)(1 + ln N) candidates of `_coprime_pairs` would pass
    _ROUTE_BYTES."""
    if not isfinite(N) or N < 1:
        raise ValueError(f"N must be a finite number >= 1, got {N!r}")
    if window not in ("dyadic", "full"):
        raise ValueError(f"unknown window {window!r}")
    hi = floor(N)
    lo = floor(N / 2) + 1 if window == "dyadic" else 1
    _check_bytes(f"index of height <= {hi}", _CANDIDATE_BYTES * hi * (1 + log(hi)), _ROUTE_BYTES)
    return lo, hi


def _coprime_count(x):
    """The number of coprime pairs with ab <= x, exactly:
    sum_{d <= sqrt x} mu(d) D(x // d^2), for the divisor summatory function
    D(y) = sum_{m <= y} d(m) = 2 sum_{i <= sqrt y} y // i - isqrt(y)^2."""
    total = 0
    for d in range(1, isqrt(x) + 1):
        mu = mobius(d)
        if mu:
            y = x // (d * d)
            r = isqrt(y)
            total += mu * (2 * sum(y // i for i in range(1, r + 1)) - r * r)
    return total


def _coprime_pairs(N, window="full", coprime_to=1):
    """`enumerate_pairs` as int64 arrays (a, b), the full window by default;
    ValueError from `_heights` before any array is built."""
    lo, hi = _heights(N, window)
    a = np.arange(1, hi + 1, dtype=np.int64)
    first = (lo - 1) // a + 1  # b runs over first, ..., hi // a
    count = hi // a - first + 1
    a = np.repeat(a, count)
    b = np.arange(len(a), dtype=np.int64)
    b += np.repeat(first - np.cumsum(count) + count, count)
    keep = np.gcd(a, b) == 1
    if coprime_to > 1:
        keep &= np.gcd(a * b, coprime_to) == 1
    return a[keep], b[keep]


def _reduce(a, b, m):
    """(red, unit): red = a b^(phi(m) - 1) mod m, red_m(a/b) on the mask unit
    of gcd(ab, m) = 1; Python integers where int64 products would overflow."""
    if m >= 2**31:
        a, b = a.astype(object), b.astype(object)
    red, x, e = a % m, b % m, totient(m) - 1
    while e:
        if e & 1:
            red = red * x % m
        x = x * x % m
        e >>= 1
    return red, np.gcd(a * b, m) == 1


def _check_points(count):
    """ValueError when count point objects at _POINT_BYTES would pass
    _ROUTE_BYTES."""
    _check_bytes(f"list of {count} point objects", _POINT_BYTES * count, _ROUTE_BYTES)


def _points(point, *columns):
    """[point(*row) for each row of the int64 columns]; ValueError, before any
    object is built, when _POINT_BYTES an object would pass _ROUTE_BYTES."""
    _check_points(len(columns[0]))
    return list(map(point, *(c.tolist() for c in columns)))


def enumerate_pairs(N, window="dyadic", coprime_to=1):
    """Coprime pairs (a,b) with ab in the window: N/2 < ab <= N (dyadic)
    or 1 <= ab <= N (full), skipping ab sharing a factor with coprime_to.
    Output is sorted a-major, then b.  With coprime_to = 1 the count is
    exact from N, so an oversized list is refused before the index arrays
    are built."""
    if coprime_to == 1:
        lo, hi = _heights(N, window)
        _check_points(_coprime_count(hi) - _coprime_count(lo - 1))
    return _points(CoprimePair, *_coprime_pairs(N, window, coprime_to))


def rationals_up_to(N, sign=False):
    """Positive rationals with ht <= N (both signs when sign=True),
    ordered a-major then b, negatives after positives.  An oversized list
    is refused from its exact count before the index arrays are built."""
    signs = np.array((1, -1) if sign else (1,))
    _check_points(len(signs) * _coprime_count(_heights(N, "full")[1]))
    a, b = _coprime_pairs(N)
    return _points(RationalPoint, np.tile(a, len(signs)), np.tile(b, len(signs)),
                   np.repeat(signs, len(a)))
