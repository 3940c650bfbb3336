"""Sieving rationals by height and the character-variance identity.

A sieve plan prescribes, for finitely many primes p, a forbidden residue
set Omega_p inside Z/pZ.  A positive rational n of height ht(n) = ab <= N
survives when red_p(n) lies outside Omega_p at every plan prime where the
reduction is defined (v_p(n) = 0); rationals with v_p(n) != 0 are exempt
at p.  The sieve weight is

    h(p) = |Omega_p| / (p - |Omega_p|),      H = sum_{q <= Q squarefree,
                                                  p | q => p in the plan}
                                                  prod_{p | q} h(p),

computed in exact rational arithmetic (the q = 1 term makes H >= 1).  The
large-sieve bound for the rational-family norm then controls the sifted
set: |S| * H <= Delta_rational(Q, N) is measured and soft-asserted.

The Barban-Davenport-Halberstam variance over reduced residue classes
equals a character sum exactly:

    sum_{q <= Q} sum*_{a mod q} |A_q(a) - M_q / phi(q)|^2
        = sum_{q <= Q} (1/phi(q)) sum_{chi != chi_0 mod q} |S(X, chi)|^2,

where A_q(a) sums alpha_n over n in the strict localization with
red_q(n) = a, M_q is the full localized sum, and
S(X, chi) = sum alpha_n chi(red_q(n)).  Both sides are computed
independently and compared; rationals outside the localization at q are
dropped from that q (the same convention as the rational norm).
"""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

import numpy as np

from .arith import is_prime, totient
from .characters import char_group, trivial_char, value_table
from .norms import delta_rational
from .rationals import (_ROUTE_BYTES, RationalPoint, _check_bytes, _coprime_count,
                        _coprime_pairs, _heights, _points, _reduce, as_point, ht,
                        rationals_up_to)


# ----------------------------------------------------------------------
# plans and sifting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SievePlan:
    N: int
    omega: dict  # prime p -> frozenset of residues mod p, |Omega_p| < p

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        clean = {}
        for p, res in self.omega.items():
            if not is_prime(p):
                raise ValueError(f"plan key {p} is not prime")
            res = frozenset(int(r) % p for r in res)
            if len(res) >= p:
                raise ValueError(f"Omega_{p} must omit at least one residue")
            clean[p] = res
        object.__setattr__(self, "omega", clean)

    @property
    def sifting_primes(self):
        """The plan primes with a nonempty Omega_p; the others sift nothing
        and need no reduction."""
        return [p for p, res in self.omega.items() if res]

    def h(self, p):
        """h(p) = |Omega_p| / (p - |Omega_p|), exact; 0 off the plan."""
        w = len(self.omega.get(p, ()))
        return Fraction(w, p - w)


class SiftTable(NamedTuple):
    """What every plan of height N sifts: the coprime pairs (a, b) of
    ab <= N as int64 arrays, and for each prime p of the table red_p(a/b)
    as one array of the smallest unsigned dtype that holds p, with p
    marking the non-units (v_p(a/b) != 0)."""

    N: int
    a: np.ndarray
    b: np.ndarray
    residues: dict  # prime p -> red_p(a/b), or p where gcd(ab, p) > 1


def sift_table(N, primes):
    """The SiftTable of height N for the given primes, each reduced once.
    ValueError, before the index is built, when its bytes pass
    _ROUTE_BYTES: 16 a pair, counted exactly by `_coprime_count`, one
    residue array a distinct prime, and, with any prime, the 33 bytes a
    pair of the one `_reduce` held at a time (four int64 arrays: its
    residues, its power base, a b and its gcd; and the unit mask) and the
    (p + 1)-byte lookup that `_sift` builds for the largest p."""
    primes = sorted(set(primes))
    dtypes = [np.min_scalar_type(p) for p in primes]
    hi = _heights(N, "full")[1]
    n = _coprime_count(hi)
    need = n * (16 + sum(dtype.itemsize for dtype in dtypes))
    if primes:
        need += 33 * n + primes[-1] + 1
    _check_bytes(f"sift table of height <= {hi} at {len(primes)} primes", need, _ROUTE_BYTES)
    a, b = _coprime_pairs(N)
    residues = {}
    for p, dtype in zip(primes, dtypes):
        red, unit = _reduce(a, b, p)
        red = red.astype(dtype)
        red[~unit] = p
        residues[p] = red
    return SiftTable(N, a, b, residues)


def _sift(plan, table=None):
    """(a, b, keep): the pairs of the plan's sift table and the mask of the
    sifted set, the pairs whose reduction misses Omega_p at each plan prime
    p where it is a unit.  Each of the plan's sifting primes is one
    gather from a (p + 1)-entry table of the allowed residues, p, the
    non-unit marker, among them.  Without a table, a one-plan table is
    built for those primes."""
    sifting = plan.sifting_primes
    if table is None:
        table = sift_table(plan.N, sifting)
    elif table.N != plan.N or not set(sifting) <= table.residues.keys():
        raise ValueError(f"the sift table of height {table.N} does not cover the plan")
    keep = np.ones(len(table.a), dtype=bool)
    for p in sifting:
        allowed = np.ones(p + 1, dtype=bool)
        allowed[list(plan.omega[p])] = False
        keep &= allowed[table.residues[p]]
    return table.a, table.b, keep


def sifted_set(plan):
    """All positive rationals of ht <= N avoiding Omega_p at every plan
    prime where v_p(n) = 0 (the unit mask of the reduction mod p)."""
    a, b, keep = _sift(plan)
    return _points(RationalPoint, a[keep], b[keep])


def big_H(Q, plan):
    """H = sum over squarefree q <= Q with all prime factors in the plan
    of prod_{p | q} h(p); exact Fraction, q = 1 contributing 1.  The
    products of the plan's primes are walked depth first in increasing
    order, a branch ending where q passes Q or h(p) = 0 zeroes it."""
    primes = sorted(plan.omega)
    weights = [plan.h(p) for p in primes]

    def walk(start, q, term):
        total = term
        for i in range(start, len(primes)):
            if q * primes[i] > Q:
                break
            if weights[i]:
                total += walk(i + 1, q * primes[i], term * weights[i])
        return total

    return walk(0, 1, Fraction(1))


@dataclass(frozen=True)
class SiftedReport:
    size: int
    H: Fraction
    delta: float
    ratio: float
    ok: bool


def sieve_inequality_report(plan, Q, delta=None, table=None):
    """|S|, H, Delta_rational(Q, N) and the ratio |S| H / Delta.  Delta is
    solved here at tol 1e-9 unless the caller passes its value as `delta`, and
    the plan is sifted from `table` when one is given.  |S| is counted on
    the survivor mask; no point object is built.  The ratio is
    soft-asserted <= 1 + 1e-6: a violation prints a prominent diagnostic
    and flags the report, it does not raise."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    size = int(np.count_nonzero(_sift(plan, table)[2]))
    H = big_H(Q, plan)
    dl = delta_rational(Q, plan.N).value if delta is None else delta
    ratio = float(size * H) / dl if dl > 0 else 0.0
    ok = ratio <= 1 + 1e-6
    if not ok:
        print(
            f"SIEVE-INEQUALITY FINDING: |S| H / Delta = {ratio!r} > 1 + 1e-6 "
            f"(N={plan.N}, Q={Q}, |S|={size}, H={H})",
            file=sys.stderr,
        )
    return SiftedReport(size, H, dl, ratio, ok)


def read_plan(path):
    """Parse a plan file: header lines 'N=...' and 'Q=...', then one line
    per prime 'p: r1,r2,...' (an empty residue list is allowed).  Returns
    (plan, Q).  Blank lines and '#' comments are skipped."""
    N = None
    Q = None
    omega = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line and ":" not in line:
                key, _, val = line.partition("=")
                key = key.strip().upper()
                if key == "N":
                    N = int(val)
                elif key == "Q":
                    Q = int(val)
                else:
                    raise ValueError(f"unknown header {key!r}")
            elif ":" in line:
                head, _, rest = line.partition(":")
                p = int(head)
                residues = [int(tok) for tok in rest.replace(",", " ").split()]
                omega[p] = frozenset(residues)
            else:
                raise ValueError(f"unparseable plan line {raw!r}")
    if N is None or Q is None:
        raise ValueError("plan file must set N= and Q=")
    return SievePlan(N, omega), Q


# ----------------------------------------------------------------------
# Barban-Davenport-Halberstam variance
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BdhInput:
    X: int
    Q: int
    alpha: dict  # RationalPoint -> complex

    def __post_init__(self):
        if self.X < 1 or self.Q < 1:
            raise ValueError("X and Q must be positive integers")
        for pt in self.alpha:
            if ht(pt) > self.X:
                raise ValueError(f"support point {pt} has ht > X")


def _support(inp):
    """The support of alpha as arrays, in the order of the dict: a, b and the
    sign of each point (int64) and its value (complex128)."""
    pts = [as_point(pt) for pt in inp.alpha]
    a = np.array([p.a for p in pts], dtype=np.int64)
    b = np.array([p.b for p in pts], dtype=np.int64)
    sign = np.array([p.sign for p in pts], dtype=np.int64)
    return a, b, sign, np.array(list(inp.alpha.values()), dtype=np.complex128)


def _localized(support, q):
    """red_q(n), the sign applied, and alpha_n for the support points n in
    the strict localization at q, in support order."""
    a, b, sign, alpha = support
    red, unit = _reduce(a, b, q)
    return sign[unit] * red[unit] % q, alpha[unit]


def bdh_lhs(inp):
    """Variance over reduced residue classes: for each q <= Q and each
    a coprime to q, the class sum minus the localized mean, squared.  Each
    class sum and the localized sum run in support order."""
    support = _support(inp)
    total = 0.0
    for q in range(1, inp.Q + 1):
        reds, alpha = _localized(support, q)
        if not len(reds):
            continue
        mean = sum(alpha.tolist()) / totient(q)
        sums = np.zeros(q, dtype=np.complex128)
        np.add.at(sums, reds, alpha)  # unbuffered: each class adds in support order
        for a0 in range(q):
            if gcd(a0, q) == 1:  # the units mod q; a0 = 0 for q = 1
                total += abs(complex(sums[a0]) - mean) ** 2
    return total


def bdh_rhs_chars(inp):
    """The same variance through nontrivial characters:
    sum_q (1/phi(q)) sum_{chi != chi_0} |sum_n alpha_n chi(red_q(n))|^2."""
    support = _support(inp)
    total = 0.0
    for q in range(1, inp.Q + 1):
        reds, alpha = _localized(support, q)
        if not len(reds):
            continue
        triv = trivial_char(q)
        inner = 0.0
        for chi in char_group(q):
            if chi is not triv:
                inner += abs(complex(value_table(chi)[reds] @ alpha)) ** 2
        total += inner / totient(q)
    return total


def random_bdh_input(X, Q, seed=0):
    """A random finitely supported alpha on the height-X ball."""
    rng = random.Random(seed)
    pts = rationals_up_to(X)
    support = rng.sample(pts, max(1, len(pts) // 2))
    alpha = {pt: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for pt in support}
    return BdhInput(X, Q, alpha)
