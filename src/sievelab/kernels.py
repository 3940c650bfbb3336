"""Exact character combinatorics: primitivity detection, coset systems,
tuple decompositions, the two-character conductor factorization, and the
archimedean interval-coset identity.

Each identity here is checked two ways on caller-supplied tables: a direct
expansion (the left side) against the decomposed form (the right side).
The decompositions are the load-bearing combinatorics — the point of the
checks is that the index sets below reconstruct every character pair
exactly once, and the builders assert that bijection structurally, not
just numerically.

The checks run on the character groups' index arrays (see `characters`).
A caller's table is read once per character, or once per ordered pair
for the coset check's F, into a numpy array; both sides are then masks
and gathers over that array by product, conjugate and conductor index,
summed as numpy reductions.  So the residuals depend on numpy's
summation order and may move in the last bits between numpy versions.

Conventions that matter:

* The detection coefficients c_ell live on residues mod q.  The closed
  form sum_{d|q} (mu(d)/d) [ell = 1 mod q/d] is folded to residues; the
  detection identity sum_ell c_ell psi*(ell) = [psi primitive] holds with
  psi evaluated through its inducing primitive character psi* (terms with
  gcd(ell, cond psi) > 1 are skipped).  The literal "psi(ell) = 0 off the
  units of q" convention breaks the identity — e.g. the trivial character
  mod a prime p pairs to 1/p instead of 0 — and the tests measure that
  failure rather than hiding it.

* The interval-coset identity tiles [T/2, T] into length-U blocks indexed
  from T/2 - U + Uj + v, v in [U, 2U].  With w one-sidedly supported on
  [U, 2U], the |j1 - j2| <= 1 form is exact precisely when the tile count
  ceil(T/(2U)) is at most 2 (i.e. U >= T/4); below that, dropped
  |j1 - j2| = 2 terms are genuinely nonzero.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, gcd

import numpy as np

from .arith import divisors, factorize, mobius, totient, valuation
from .characters import (
    DirichletChar,
    _frozen,
    char_group,
    conductor,
    crt_product,
    descend,
    induce,
    is_primitive,
    primitive_chars,
    primitive_part,
    value_table,
)
from .norms import _gauss_nodes


@dataclass(frozen=True)
class IdentityReport:
    """Two evaluations of the same quantity and how far apart they landed.

    Truthiness is intentionally not defined; assert on `.ok`.
    """

    name: str
    lhs: complex
    rhs: complex
    residual: float
    ok: bool
    extra: dict = field(default_factory=dict)


def _relative(a, b, scale=0.0):
    s = max(abs(a), abs(b), scale)
    if s == 0:
        return 0.0
    return abs(a - b) / s


def random_char_table(chars, seed):
    """Complex gaussian table over the given characters, reproducible."""
    rng = random.Random(seed)
    return {c: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for c in chars}


# ----------------------------------------------------------------------
# primitivity-detecting kernel
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrimitivityKernel:
    q: int
    coefficients: dict  # residue mod q -> Fraction

    def abs_sum(self):
        return sum(abs(c) for c in self.coefficients.values())

    @cached_property
    def _terms(self):
        """The residues and their coefficients as float, as two arrays."""
        return (np.array(list(self.coefficients), dtype=np.int64),
                np.array([float(c) for c in self.coefficients.values()]))

    def pair_induced(self, psi):
        """sum_ell c_ell psi*(ell), the detection sum.  Equals 1 on
        primitive psi mod q and 0 otherwise.  psi*'s table is 0 at the
        ell that are not units mod cond(psi), so those terms drop out."""
        star = primitive_part(psi)
        ells, c = self._terms
        return complex(c @ value_table(star)[ells % star.modulus])

    def pair_literal(self, psi):
        """Same sum with the literal zero-on-non-units convention; kept to
        measure how the identity fails under it."""
        ells, c = self._terms
        return complex(c @ value_table(psi)[ells % psi.modulus])


@lru_cache(maxsize=None)
def primitivity_kernel(q):
    """c(ell mod q) = sum_{d | q} (mu(d)/d) [ell = 1 mod q/d]."""
    coef = {}
    for d in divisors(q):
        mu = mobius(d)
        if mu == 0:
            continue
        m = q // d
        w = Fraction(mu, d)
        for j in range(d):
            ell = (1 + j * m) % q
            coef[ell] = coef.get(ell, Fraction(0)) + w
    coef = {ell: c for ell, c in coef.items() if c != 0}
    kern = PrimitivityKernel(q, coef)
    assert kern.abs_sum() <= len(divisors(q))
    return kern


# ----------------------------------------------------------------------
# coset systems G_q / G_r
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CosetSystem:
    q: int
    r: int
    representatives: tuple


@lru_cache(maxsize=None)
def _induced(q, r):
    """The indices in G_q of the characters mod r induced to mod q, in the
    order of G_r."""
    return _frozen(np.array([induce(psi, q).index for psi in char_group(r)]))


@lru_cache(maxsize=None)
def coset_reps(q, r):
    """One representative per class of G_q modulo the image of G_r (r | q).

    A character lies in the image of G_r exactly when its conductor
    divides r, so classes are the fibers of chi |-> chi * G_r.
    """
    if q % r != 0:
        raise ValueError(f"{r} does not divide {q}")
    group = char_group(q)
    sub = _induced(q, r)
    seen = np.zeros(len(group.chars), dtype=bool)
    reps = []
    for i, chi in enumerate(group.chars):
        if not seen[i]:
            reps.append(chi)
            seen[group.mul[i, sub]] = True
    assert len(reps) == totient(q) // totient(r)
    return CosetSystem(q, r, tuple(reps))


def _lookup(F):
    if callable(F):
        return F
    return lambda c1, c2: F.get((c1, c2), 0)


def coset_identity_check(q, r, F, tol=1e-9):
    """sum over pairs (chi1, chi2) mod q with cond(chi1 * conj chi2) | r of
    F(chi1, chi2)  ==  sum_gamma sum_{psi1, psi2 mod r} F(gamma psi1, gamma psi2),
    gamma over coset representatives and psi induced to mod q.

    F is called once per ordered pair, into a phi(q) x phi(q) array; the
    left side masks it by the conductor of the product index and the right
    side gathers each coset's block of pairs from it."""
    f = _lookup(F)
    group = char_group(q)
    vals = np.array([[f(c1, c2) for c2 in group.chars] for c1 in group.chars],
                    dtype=np.complex128)
    mass = float(np.abs(vals).sum())
    lhs = complex(vals[r % group.conductors[group.mul[:, group.conj]] == 0].sum())
    reps = [gamma.index for gamma in coset_reps(q, r).representatives]
    lifted = group.mul[np.ix_(reps, _induced(q, r))]
    rhs = complex(vals[lifted[:, :, None], lifted[:, None, :]].sum())
    res = _relative(lhs, rhs, scale=mass)
    return IdentityReport("coset_identity", lhs, rhs, res, res <= tol, {"q": q, "r": r})


# ----------------------------------------------------------------------
# D_k tuples and theta separation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DkTuple:
    k0: int
    k1: int
    kprime: int
    delta: DirichletChar


@lru_cache(maxsize=None)
def dk_tuples(k):
    """All (k0, k1, k', delta): k0 k1 k' = k, gcd(k0, k') = 1, k1 | (k')^inf,
    delta over coset representatives of G_k / G_{k'}.

    Given k' | k the splitting of k/k' into (k0, k1) is unique — k1 collects
    exactly the primes of k' — so the count is sum_{k'|k} phi(k)/phi(k').
    """
    out = []
    for kp in divisors(k):
        rest = k // kp
        k1 = 1
        for p, _ in factorize(kp):
            while rest % p == 0:
                rest //= p
                k1 *= p
        k0 = k // (kp * k1)
        assert gcd(k0, kp) == 1 and k0 * k1 * kp == k
        for delta in coset_reps(k, kp).representatives:
            out.append(DkTuple(k0, k1, kp, delta))
    return tuple(out)


@lru_cache(maxsize=None)
def kernel_detection_value(psi):
    """The detection sum of the primitivity kernel mod psi's modulus at psi."""
    return primitivity_kernel(psi.modulus).pair_induced(psi)


@lru_cache(maxsize=None)
def _detection_vector(k):
    """kernel_detection_value at every character mod k, in index order."""
    return _frozen(np.array([kernel_detection_value(psi) for psi in char_group(k)]))


@dataclass(frozen=True)
class ThetaSeparationReport:
    lhs: float
    version1: complex
    version2: complex
    residual1: float
    residual2: float
    ok: bool


def theta_separation_check(k, b, tol=1e-9):
    """|sum_theta b_theta|^2 against its two decomposed forms.

    Version 1 re-detects the conductor through the primitivity kernel of
    each k' (pairing it with the product character theta1' conj theta2'
    through the inducing primitive character).  Version 2 restricts the
    double sum to cond(theta1' conj theta2') = k' directly.  Both must
    match the plain square.  b is read once per character mod k.
    """
    group = char_group(k)
    get = b if callable(b) else (lambda c: b.get(c, 0))
    vals = np.array([get(c) for c in group.chars], dtype=np.complex128)
    lhs = abs(complex(vals.sum())) ** 2
    mass = float(np.abs(vals).sum()) ** 2

    v1 = 0j
    v2 = 0j
    for tup in dk_tuples(k):
        kp = tup.kprime
        gkp = char_group(kp)
        # b at delta * theta for each theta mod k', in the order of G_k'
        bt = vals[group.mul[tup.delta.index, _induced(k, kp)]]
        # A(psi) = sum over theta2 of b(delta (psi theta2)) conj(b(delta theta2))
        a_psi = (bt[gkp.mul] * bt.conj()).sum(axis=1)
        v1 += complex(_detection_vector(kp) @ a_psi)
        v2 += complex(a_psi[gkp.conductors == kp].sum())

    r1 = _relative(lhs, v1, scale=mass)
    r2 = _relative(lhs, v2, scale=mass)
    return ThetaSeparationReport(lhs, v1, v2, r1, r2, r1 <= tol and r2 <= tol)


# ----------------------------------------------------------------------
# two-character factorization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChiFactorization:
    chi1: DirichletChar
    chi2: DirichletChar
    q1_prime: int
    q2_prime: int
    q1_plus: int
    q1_minus: int
    q2_plus: int
    q2_minus: int
    r: int
    chi1_prime: DirichletChar
    chi2_prime: DirichletChar
    chi1_plus: DirichletChar
    chi1_minus: DirichletChar
    chi2_plus: DirichletChar
    chi2_minus: DirichletChar
    chi1_r: DirichletChar
    chi2_r: DirichletChar

    def reconstruct(self, which):
        if which == 1:
            return crt_product([self.chi1_prime, self.chi1_plus, self.chi1_minus, self.chi1_r])
        return crt_product([self.chi2_prime, self.chi2_plus, self.chi2_minus, self.chi2_r])

    def product_conductor_formula(self):
        """Conductor of chi1 * conj(chi2) (as a character mod lcm(q1,q2))
        predicted by the factorization: q1' q2' q1+ q2+ cond(chi1_r conj chi2_r)."""
        return (
            self.q1_prime
            * self.q2_prime
            * self.q1_plus
            * self.q2_plus
            * conductor(self.chi1_r * self.chi2_r.conj())
        )


@lru_cache(maxsize=None)
def _split_parts(q1, q2):
    """Split q1 and q2 prime by prime by comparing valuations: primes of
    one modulus only (q1p, q2p), primes where q1 dominates (A, with q2's
    part a), where q2 dominates (B, with q1's part b), and primes of equal
    valuation (r).  The dict is cached; callers only read it."""
    out = {"q1p": 1, "q2p": 1, "A": 1, "a": 1, "B": 1, "b": 1, "r": 1}
    for p in sorted({p for p, _ in factorize(q1)} | {p for p, _ in factorize(q2)}):
        v1, v2 = valuation(q1, p), valuation(q2, p)
        if v2 == 0:
            out["q1p"] *= p**v1
        elif v1 == 0:
            out["q2p"] *= p**v2
        elif v1 > v2:
            out["A"] *= p**v1  # q1's dominant part
            out["a"] *= p**v2  # q2's dominated part
        elif v2 > v1:
            out["B"] *= p**v2
            out["b"] *= p**v1
        else:
            out["r"] *= p**v1
    return out


def chi_factorize(chi1, chi2):
    """Split a pair of primitive characters by comparing valuations of
    their moduli prime by prime: primes seen by only one modulus (q_i'),
    primes where one valuation strictly dominates (q+ above, q- below),
    and primes of equal valuation (r)."""
    if not is_primitive(chi1) or not is_primitive(chi2):
        raise ValueError("chi_factorize expects primitive characters")
    p = _split_parts(chi1.modulus, chi2.modulus)
    # q1+ = A and q1- = b; q2+ = B and q2- = a
    moduli = (p["q1p"], p["q2p"], p["A"], p["b"], p["B"], p["a"], p["r"])
    chis = (chi1, chi2, chi1, chi1, chi2, chi2, chi1)
    # each modulus is a unitary divisor, so descending gives the component
    return ChiFactorization(
        chi1, chi2, *moduli,
        *(descend(chi, m) for chi, m in zip(chis, moduli)),
        descend(chi2, p["r"]),
    )


# ----------------------------------------------------------------------
# separation over several moduli
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _separation_index(moduli):
    """The decomposed index set behind the multi-modulus separation lemma:
    for each (q1, q2) enumerate component characters (primitive on each
    sole/dominant/dominated part) and the (D_r, psi1, psi2) data on the
    shared part, and reconstruct the character pair.

    Asserts the bijection: reconstructions are distinct and, restricted to
    primitive pairs, exhaust primitive(q1) x primitive(q2).  Returns the
    primitive pairs as two arrays of positions in the support, the
    primitive characters of the moduli in order.
    """
    support = [c for q in moduli for c in primitive_chars(q)]
    position = {c: i for i, c in enumerate(support)}
    index = []
    for q1 in moduli:
        for q2 in moduli:
            parts = _split_parts(q1, q2)
            r = parts["r"]
            grp = char_group(r)
            rpart_pairs = []
            for tup in dk_tuples(r):
                kp = char_group(tup.kprime)
                # delta * psi induced to mod r, for each psi mod k'
                lifted = [grp.chars[i] for i in grp.mul[tup.delta.index, _induced(r, kp.q)]]
                pairs = np.nonzero(kp.conductors[kp.mul[:, kp.conj]] == kp.q)
                rpart_pairs += [(lifted[i], lifted[j]) for i, j in zip(*pairs)]
            assert len(rpart_pairs) == totient(r) ** 2
            assert len(set(rpart_pairs)) == len(rpart_pairs)

            bucket = []
            for c1p in primitive_chars(parts["q1p"]):
                for c1A in primitive_chars(parts["A"]):
                    for c1b in primitive_chars(parts["b"]):
                        for c2p in primitive_chars(parts["q2p"]):
                            for c2B in primitive_chars(parts["B"]):
                                for c2a in primitive_chars(parts["a"]):
                                    for x1r, x2r in rpart_pairs:
                                        chi1 = crt_product([c1p, c1A, c1b, x1r])
                                        chi2 = crt_product([c2p, c2B, c2a, x2r])
                                        bucket.append((chi1, chi2))
            prim = [(c1, c2) for c1, c2 in bucket if is_primitive(c1) and is_primitive(c2)]
            want = len(primitive_chars(q1)) * len(primitive_chars(q2))
            assert len(prim) == len(set(prim)) == want, (q1, q2)
            index += [(position[c1], position[c2]) for c1, c2 in prim]
    i1, i2 = _frozen(np.array(index, dtype=np.int64).reshape(-1, 2).T)
    return i1, i2


def chiseparation_check(moduli, b, tol=1e-9):
    """|sum over primitive chi of listed moduli of b_chi|^2 against the
    fully decomposed double sum.  b is read once per primitive character."""
    moduli = tuple(sorted(set(moduli)))
    support = [c for q in moduli for c in primitive_chars(q)]
    get = b if callable(b) else (lambda c: b.get(c, 0))
    vals = np.array([get(c) for c in support], dtype=np.complex128)
    lhs = abs(complex(vals.sum())) ** 2
    mass = float(np.abs(vals).sum()) ** 2
    i1, i2 = _separation_index(moduli)
    rhs = complex(vals[i1] @ vals[i2].conj())
    res = _relative(lhs, rhs, scale=mass)
    return IdentityReport("chiseparation", lhs, rhs, res, res <= tol, {"moduli": moduli})


# ----------------------------------------------------------------------
# archimedean interval cosets
# ----------------------------------------------------------------------

def archimedean_coset_check(T, U, beta, w, nodes=96, tol=1e-6):
    """int int beta(t1) conj(beta(t2)) w(t1 - t2) dt1 dt2 over [T/2, T]^2
    against the tiled form

        sum_{|j1-j2| <= 1} int_U^{2U} int_U^{2U}
            beta(T/2 - U + U j1 + v1) conj(beta(...j2 + v2))
            w(U (j1 - j2) + v1 - v2) dv1 dv2,

    both sides by Gauss-Legendre quadrature.  beta is treated as 0 outside
    [T/2, T].  With w supported on [U, 2U] the restriction |j1 - j2| <= 1
    is exact iff the tile count ceil(T/(2U)) is <= 2 (U >= T/4); smaller U
    genuinely drops |j1-j2| = 2 terms, and this check will report it.
    """
    if not (1 <= U <= 2 * T):
        raise ValueError("need 1 <= U <= 2T")

    def beta_ext(t):
        return beta(t) if T / 2 <= t <= T else 0.0

    t, wt = _gauss_nodes(T / 2, T, nodes)
    bv = np.array([beta(x) for x in t], dtype=complex)
    wmat = np.array([[w(t1 - t2) for t2 in t] for t1 in t])
    lhs = complex(np.einsum("i,j,ij,i,j->", bv, bv.conj(), wmat, wt, wt))

    n_tiles = ceil(T / (2 * U))
    v, wv = _gauss_nodes(U, 2 * U, nodes)
    tile_vals = []
    for j in range(n_tiles):
        tile_vals.append(np.array([beta_ext(T / 2 - U + U * j + x) for x in v], dtype=complex))
    rhs = 0j
    for j1 in range(n_tiles):
        for j2 in range(n_tiles):
            if abs(j1 - j2) > 1:
                continue
            wm = np.array([[w(U * (j1 - j2) + v1 - v2) for v2 in v] for v1 in v])
            rhs += complex(
                np.einsum("i,j,ij,i,j->", tile_vals[j1], tile_vals[j2].conj(), wm, wv, wv)
            )

    scale = float(np.sum(np.abs(bv) * wt)) ** 2 * max(abs(w(x)) for x in np.linspace(U, 2 * U, 64))
    res = _relative(lhs, rhs, scale=scale)
    return IdentityReport(
        "archimedean_coset", lhs, rhs, res, res <= tol, {"T": T, "U": U, "tiles": n_tiles}
    )
