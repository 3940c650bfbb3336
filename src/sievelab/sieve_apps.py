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
from math import gcd, isqrt

import numpy as np

from .arith import is_prime, is_squarefree, prime_factors, primes_in, totient
from .characters import char_group, trivial_char, value_table
from .norms import delta_rational
from .rationals import (RationalPoint, _coprime_pairs, _points, _reduce, as_point, ht,
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
    def primes(self):
        return frozenset(self.omega)

    def h(self, p):
        """h(p) = |Omega_p| / (p - |Omega_p|), exact; 0 off the plan."""
        w = len(self.omega.get(p, ()))
        return Fraction(w, p - w)


def _sift(plan):
    """The sifted set as int64 arrays (a, b): the coprime pairs of ab <= N
    whose reduction mod each plan prime p misses Omega_p where it is a unit
    (v_p(a/b) = 0)."""
    a, b = _coprime_pairs(plan.N)
    keep = np.ones(len(a), dtype=bool)
    for p, forbidden in plan.omega.items():
        red, unit = _reduce(a, b, p)
        keep &= ~(unit & np.isin(red, sorted(forbidden)))
    return a[keep], b[keep]


def sifted_set(plan):
    """All positive rationals of ht <= N avoiding Omega_p at every plan
    prime where v_p(n) = 0 (the unit mask of the reduction mod p)."""
    return _points(RationalPoint, *_sift(plan))


def big_H(Q, plan):
    """H = sum over squarefree q <= Q with all prime factors in the plan
    of prod_{p | q} h(p); exact Fraction, q = 1 contributing 1."""
    total = Fraction(1)
    for q in range(2, int(Q) + 1):
        if not is_squarefree(q):
            continue
        ps = prime_factors(q)
        if not all(p in plan.omega for p in ps):
            continue
        term = Fraction(1)
        for p in ps:
            term *= plan.h(p)
        total += term
    return total


@dataclass(frozen=True)
class SiftedReport:
    size: int
    H: Fraction
    delta: float
    ratio: float
    ok: bool


def sieve_inequality_report(plan, Q, tol=1e-9, delta=None):
    """|S|, H, Delta_rational(Q, N) and the ratio |S| H / Delta.  Delta is
    solved here at tol unless the caller passes its value as `delta`.  |S|
    is counted on the index arrays; no point object is built.  The ratio is
    soft-asserted <= 1 + 1e-6: a violation prints a prominent diagnostic
    and flags the report, it does not raise."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    size = len(_sift(plan)[0])
    H = big_H(Q, plan)
    dl = delta_rational(Q, plan.N, tol=tol).value if delta is None else delta
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


def half_residue_experiment(N, seed=0):
    """The H >> Q heuristic, measured: forbid an arbitrary floor((p-1)/2)
    residue subset at every prime p <= Q = floor(sqrt(N)) and record
    c = H / Q.  Reported, not asserted."""
    Q = isqrt(N)
    rng = random.Random(seed)
    omega = {}
    for p in primes_in(2, Q):
        count = (p - 1) // 2
        omega[p] = frozenset(rng.sample(range(p), count)) if count else frozenset()
    plan = SievePlan(N, omega)
    H = big_H(Q, plan)
    return {"N": N, "Q": Q, "H": H, "c": float(H) / Q if Q else float(H)}


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
