"""Scalar special functions: the Z_{c,d}(s) Euler products and the
recursion of exponents.

Z_{c,d}(s) = sum over n coprime to cd and m | c^infty of (n/phi(n)) (mn)^{-s}.
The Euler side factors as

    Z_{c,d}(s) = Z_{1,1}(s) * nu_c(s) * prod_{p | d, p coprime to c} F_p(s)^{-1},

where F_p(s) = 1 + (1 - 1/p)^{-1} p^{-s} / (1 - p^{-s}) is the Z_{1,1} local
factor and nu_c(s) = prod_{p | c} (1 + p^{-s-1}/(1 - 1/p))^{-1} swaps F_p for
the geometric series the m-sum contributes.  (Writing the d-factor with
(1 - 1/p)^{+1} does not invert F_p and fails against the defining series by
several percent; the form above matches it to truncation error, shared
primes of c and d included — for those the nu factor alone is correct since
the m-sum survives while n is killed either way.)

Everything is plain complex arithmetic; Re(s) must exceed 1 + 1e-3 so the
truncated tails stay controlled.
"""

from fractions import Fraction
from functools import lru_cache
from math import log

import numpy as np

from .arith import prime_factors, primes_in


_MIN_RE = 1 + 1e-3


def _require_domain(s):
    if complex(s).real <= _MIN_RE:
        raise ValueError(f"Re(s) must exceed {_MIN_RE}; got {s}")


def _local_factor(p, s):
    """Z_{1,1} Euler factor at p."""
    x = p ** (-s)
    return 1 + (1 - 1 / p) ** (-1) * x / (1 - x)


def z11_euler(s, prime_cutoff=10**4):
    _require_domain(s)
    out = complex(1)
    for p in primes_in(2, prime_cutoff):
        out *= _local_factor(p, s)
    return out


def nu_factor(c, s):
    out = complex(1)
    for p in prime_factors(c):
        out *= 1 / (1 + p ** (-s - 1) / (1 - 1 / p))
    return out


def delta_factor(d, s, c=1):
    """Removes the Z_{1,1} local factors at primes of d not already
    handled by the c-part."""
    out = complex(1)
    for p in prime_factors(d):
        if c % p != 0:
            out *= 1 / _local_factor(p, s)
    return out


def z_cd_euler(c, d, s, prime_cutoff=10**4):
    """Truncated Euler-product evaluation of Z_{c,d}(s)."""
    if c < 1 or d < 1:
        raise ValueError("c, d must be positive integers")
    if prime_cutoff < 100:
        raise ValueError("prime cutoff must be >= 100")
    _require_domain(s)
    return z11_euler(s, prime_cutoff) * nu_factor(c, s) * delta_factor(d, s, c)


@lru_cache(maxsize=2)
def _totient_ratio(M):
    """n/phi(n) for n = 1..M, sieved."""
    phi = np.arange(M + 1, dtype=np.float64)
    for p in primes_in(2, M):
        phi[p::p] *= 1 - 1 / p
    n = np.arange(1, M + 1, dtype=np.float64)
    return n / phi[1:]


@lru_cache(maxsize=8)
def _weighted_powers(M, s):
    """(n/phi(n)) * n^{-s} for n = 1..M."""
    n = np.arange(1, M + 1, dtype=np.float64)
    return _totient_ratio(M) * np.exp(-complex(s) * np.log(n))


def z_cd_series(c, d, s, cutoff=10**6):
    """Direct truncated double series (mn <= cutoff) — the oracle the
    Euler product is checked against."""
    if c < 1 or d < 1:
        raise ValueError("c, d must be positive integers")
    _require_domain(s)
    M = int(cutoff)
    mask = np.ones(M, dtype=bool)
    for p in prime_factors(c * d):
        mask[p - 1 :: p] = False
    terms = np.where(mask, _weighted_powers(M, complex(s)), 0)
    prefix = np.cumsum(terms)

    # m ranges over divisors of c^infty up to M
    ms = [1]
    for p in prime_factors(c):
        ms = [m * p**j for m in ms for j in range(int(log(M, p)) + 1) if m * p**j <= M]
    total = 0j
    for m in sorted(ms):
        total += m ** (-complex(s)) * prefix[M // m - 1]
    return complex(total)


def exponent_sequence(steps):
    """e_0 = 2, e_{i+1} = 2 - 1/e_i, exactly; e_i = (i+2)/(i+1)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    es = [Fraction(2)]
    for _ in range(steps):
        es.append(2 - 1 / es[-1])
    return es

