"""Large-sieve Gram matrices and their extremal eigenvalues.

Three families act on coefficient vectors indexed by coprime pairs or by
rationals:

* multiplicative: moduli Q/2 < q <= Q coprime to k, primitive chi mod q,
  theta mod k, t in [T/2, T], acting through
  lambda_{chi theta, t}(a,b) = chi theta(a) conj(chi theta(b)) (a/b)^{it};
* additive: moduli Q/2 < q <= Q, primitive additive characters
  e_q(t a bbar), fully discrete;
* rational: all moduli q <= Q, primitive chi mod q, columns the positive
  rationals of height ht <= N, gated by strict localization at q.

The sup over unit coefficient vectors of the family-summed square is the
largest eigenvalue of a finite Hermitian Gram matrix on the index set: the
t-integral comes out in closed form,

    I_T(L) = int_{T/2}^{T} e^{itL} dt = (T/2) sinc(LT/4) e^{3iTL/4},

and the character sums collapse by the standard Moebius identity over
primitive characters,

    sum over primitive chi mod q of chi(u) conj(chi(v))
        = sum_{d | q} mu(q/d) phi(d) [u = v mod d]      (u, v units mod q);

with weight d in place of phi(d) the same sum is the Ramanujan sum
c_q(u - v) of the additive family.  Each family states its pair side
once, as a list of congruence terms (g, d, c, s): the pair (n, m) gains c
when gcd(a_n b_n a_m b_m, g) = 1 and a_n b_m = s a_m b_n mod d.  The twist
by theta mod k joins each Moebius term by CRT (gate qk, modulus dk, a
factor phi(k)), and a parity eps = +-1, the projector
(1 + eps chi theta(-1))/2, weighs each term c/2 and its s = -1 twin
eps c/2.  One exact routine, `_congruence_sum`, evaluates every list into
the whole pair side, a float64 matrix of multiples of 1/2 below 2^52:
residue-indicator products for small phi(d), matched residues for the rest.
Each route, each public Gram builder and `additive_matrix` refuse a job
whose size estimate passes _ROUTE_BYTES, and so does the index, from N
alone, and the term list, from Q alone, before anything is built.

Every family holds its index as the int64 arrays a, b of `rationals`
with L = log(a/b), and reduces it there (`_reduce`); no route builds a
pair or point object.

The pair side solves one real symmetric float64 matrix for every family:
the integer matrix S itself for a discrete family (additive, rational: no
window), float64 from its first product on, and S o K for a window, with
K[n, m] = (T/2) sinc((L_n - L_m) T/4) the real factor of I_T.  The phase
of I_T factors out as d_n conj(d_m), d = e^{3iTL/4}, so the Hermitian
Gram S I_T is D (S o K) D^H for the unitary D = diag(d), with the same
spectrum; only `gram_multiplicative` forms it.

Every Delta builds its family once, index arrays and term list, and hands
it to the route rule (`_solve`), which builds the operator of the route it
takes from that family alone; no Delta builds a GramMatrix or a point
object.  The public `gram_*` builders return matrices for their callers
(the verify suites, the oracles, the tests); the Delta path does not use
them.

The top eigenvalue comes from one Lanczos solver (`top_eigenvalue`), which
reads one contract: `shape`, `dtype`, `@` and `bounds()` (the diagonal,
the all-ones form and a true upper bound).  A plain matrix has no
`bounds()` and gets them from its entries.  It runs in the dtype, real for
a real symmetric matrix and complex otherwise, from a start vector the
seed fixes for each dtype.  Its value is a Rayleigh quotient (a lower
bound up to rounding) capped by the upper bound.

Three routes solve a family.  A discrete family takes the buckets
(`_Buckets`): S applied through one label a row for each gate, O(n) a
gate and matvec, with the exact diagonal, the exact all-ones form and a
cap over the Gershgorin row sums as its bounds, and as many Lanczos steps
as keep its basis within _ROUTE_BYTES.  With a window, past
_PAIR_ROUTE_MAX indices a family whose members x nodes are fewer than its
indices takes the family side, and otherwise the pair side S o K.  On
the family side the coefficient matrix is the row-wise Khatri-Rao
product A = V o P of the member values V (`_member_matrix`, through the
reduction map a/b -> a bbar mod m) and the phases P of Gauss-Legendre
quadrature of I_T for a window (P = 1 for the exact additive and rational
families), and Delta = ||A||^2 is the top eigenvalue of H = A^H A, whose
nonzero spectrum is that of A A^H = (V V^H) o (P P^H), the pair side's.
The solver applies H as x -> A^H (A x) (`_KhatriRao`) and forms neither A
nor H, so the family side holds O(n (members + nodes)) numbers plus the
Lanczos basis.  The routes share the definition of a family, stated
once as data (`_Family`): the pair side and the buckets read its terms
(exactly, and to rounding in another summation order), the family side its
members, so the routes are one another's oracles in the tests.
"""

import struct
from dataclasses import dataclass, replace
from math import gcd, isfinite, isqrt, log

import numpy as np

from .arith import divisors, mobius, primes_in, totient
from .characters import char_group, primitive_chars, value_table
from .rationals import (_POINT_BYTES, _ROUTE_BYTES, CoprimePair, RationalPoint, _check_bytes,
                        _coprime_pairs, _points, _reduce)

_START_SEED = 0x5EED
_PAIR_ROUTE_MAX = 2000
_CHECK_ROWS = 64
_PRODUCT_BLOCK = 1 << 22
_DENSE_PHI = 16
_MAX_ITER = 20000
_TERM_BYTES = 136  # a term (g, d, c, s): its tuple, its ints and its list slot
_ROUTES = ("auto", "pairs", "family")


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

def _require_finite(**values):
    for name, x in values.items():
        try:
            finite = isfinite(x)
        except (TypeError, ValueError, OverflowError):  # not a real number, or no float
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite real number, got {x!r}")


@dataclass(frozen=True)
class FamilySpec:
    Q: float
    k: int = 1
    T: float = 1.0
    parity: str | None = None  # None | "even" | "odd"

    def __post_init__(self):
        _require_finite(Q=self.Q, T=self.T)
        if self.Q < 1:
            raise ValueError(f"need Q >= 1, got {self.Q!r}")
        if self.T < 1:
            raise ValueError(f"need T >= 1, got {self.T!r}")
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"need an integer k >= 1, got {self.k!r}")
        if self.parity not in (None, "even", "odd"):
            raise ValueError("parity must be None, 'even', or 'odd'")


@dataclass(frozen=True)
class GramMatrix:
    """A pair-side Gram matrix and the index of its rows and columns.  The
    matrix is float64 for a discrete family (additive, rational), whose
    entries are exact integers, and complex128 with a t-window."""

    index: tuple
    matrix: np.ndarray

    @property
    def dim(self):
        return len(self.index)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    residual: float
    iterations: int
    method: str
    route: str | None = None  # "pairs", "family" or "buckets", set by the Delta norms
    size: int | None = None  # the index count n, set by the Delta norms


def _moduli(Q, k=1):
    """The dyadic conductor window: Q/2 < q <= Q with gcd(q, k) = 1."""
    return [q for q in range(int(Q / 2) + 1, int(Q) + 1) if gcd(q, k) == 1]


def family_members(spec):
    """All (q, chi, theta) of the multiplicative family: Q/2 < q <= Q,
    gcd(q, k) = 1, chi primitive mod q, theta mod k, optionally filtered
    by the parity of chi*theta."""
    sign = {"even": 1, "odd": -1}.get(spec.parity)
    members = []
    for q in _moduli(spec.Q, spec.k):
        for chi in primitive_chars(q):
            for theta in char_group(spec.k):
                if sign is None or chi.parity() * theta.parity() == sign:
                    members.append((q, chi, theta))
    return members


# ----------------------------------------------------------------------
# the t-integral
# ----------------------------------------------------------------------

def _window(L, T):
    """(T/2) sinc(LT/4), the real factor of I_T(L); even in L, and exactly
    T/2 at L = 0.  A window past the float64 range gives NaN without a
    warning; the solver refuses the non-finite entries."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (T / 2) * np.sinc(L * (T / (4 * np.pi)))


def t_integral(L, T):
    """I_T(L) = int_{T/2}^T e^{itL} dt = (T/2) sinc(LT/4) e^{3iTL/4},
    vectorized over L: the real `_window` times the phase e^{3iTL/4}.

    This is (e^{iTL} - e^{iTL/2})/(iL) without its cancellation near
    L = 0: np.sinc is accurate to rounding there, so the form keeps the
    |I_T(L) - T/2| <= 3|L|T^2/8 bound in floating point, and I_T(0) is
    exactly T/2."""
    L = np.asarray(L, dtype=np.float64)
    out = _window(L, T) * np.exp(0.75j * T * L)
    if out.ndim == 0:
        return complex(out)
    return out


# ----------------------------------------------------------------------
# Gram constructions
# ----------------------------------------------------------------------

def _hermitize(G):
    """Mirror the strict upper triangle onto the lower in place, in row
    blocks, so G[m,n] is exactly conj(G[n,m]) and the diagonal is exactly
    real; returns G."""
    n = G.shape[0]
    for s in range(0, n, _CHECK_ROWS):
        e = min(s + _CHECK_ROWS, n)
        lower = np.tril_indices(e - s, -1)
        G[s:e, s:e][lower] = G[s:e, s:e].T[lower].conj()
        G[e:, s:e] = G[s:e, e:].T.conj()
    G[np.diag_indices(n)] = G.diagonal().real
    return G


# ----- the families, stated once for both sides -------------------------

class _Family:
    """The pair side reads the index arrays a, b, the terms and the window
    [T/2, T] (T None: discrete); the family side a, b, the window and
    members(), the residue tables, built on call like `index`."""

    def __init__(self, a, b, terms, members, T=None, point=CoprimePair):
        self.a, self.b = a, b
        self.terms = terms
        self.members = members
        self.T = T
        self.point = point
        # log(a_n b_m / (a_m b_n)) = L_n - L_m
        self.L = np.log(a.astype(np.float64)) - np.log(b.astype(np.float64))

    @property
    def index(self):
        return tuple(_points(self.point, self.a, self.b))


def _pair_arrays(index):
    """The int64 arrays a, b of a sequence of coprime pairs."""
    return np.array([(p.a, p.b) for p in index], dtype=np.int64).reshape(-1, 2).T


def _check_terms(Q):
    """Refuse, before the moduli are listed, a term list past _ROUTE_BYTES:
    q <= Q has at most d(q) terms, so there are at most
    2 sum_{q <= Q} d(q) <= 2 Q (1 + ln Q), with a parity's s = -1 twins."""
    _check_bytes(f"term list of Q = {Q:g}", _TERM_BYTES * 2 * Q * (1 + log(Q)), _ROUTE_BYTES)


def _congruence_terms(moduli, weight, k=1, parity=None):
    """The congruence terms (g, d, c, s) of a family: mu(q/d) weight(d) for
    q in moduli (all coprime to k) and d | q, joined by CRT with the sum
    over theta mod k; for a parity eps = +-1, the projector
    (1 + eps chi theta(-1))/2, each term at c/2 and its s = -1 twin at eps c/2."""
    terms = [(q * k, d * k, mobius(q // d) * weight(d) * totient(k), 1)
             for q in moduli for d in divisors(q) if mobius(q // d)]
    if parity is not None:
        eps = 1 if parity == "even" else -1
        terms = [(g, d, w * c / 2, s) for w, s in ((1, 1), (eps, -1)) for g, d, c, _ in terms]
    return terms


def _multiplicative(spec, a, b):
    _check_terms(spec.Q)
    terms = _congruence_terms(_moduli(spec.Q, spec.k), totient, spec.k, spec.parity)
    return _Family(a, b, terms,
                   lambda: [(value_table(chi), value_table(theta))
                            for _, chi, theta in family_members(spec)],
                   spec.T)


def _additive_rows(moduli):
    """The additive members (q, t): t primitive mod q (t = 0 for q = 1)."""
    return [(q, t) for q in moduli for t in range(q) if gcd(t, q) == 1]


def _additive(Q, N):
    _check_terms(Q)
    a, b = _coprime_pairs(N, "dyadic")
    moduli = _moduli(Q)
    return _Family(a, b, _congruence_terms(moduli, lambda d: d),
                   lambda: [(np.exp(2j * np.pi * t * np.arange(q) / q),)
                            for q, t in _additive_rows(moduli)])


def _rational(Q, N):
    _check_terms(Q)
    a, b = _coprime_pairs(N)
    moduli = range(1, int(Q) + 1)
    return _Family(a, b, _congruence_terms(moduli, totient),
                   lambda: [(value_table(chi),) for q in moduli
                            for chi in primitive_chars(q)],
                   point=RationalPoint)


# ----- pair side: one exact congruence sum -----------------------------

def _congruence_sum(a, b, terms):
    """The float64 matrix

        S[n, m] = sum of c over the terms (g, d, c, s) with
            gcd(a_n b_n a_m b_m, g) = 1 and a_n b_m = s a_m b_n mod d.

    Each d divides its g, so on the gated rows, gcd(a_n b_n, g) = 1, the
    congruence is u_n = s u_m for u = a bbar mod d.  A term with phi(d) <=
    _DENSE_PHI owns phi(d) columns, one per unit residue mod d: row n of U
    holds c in the column of u_n and row n of U_s holds 1 in the column of
    s u_n, and these terms sum to U U_s^T, taken as float64 GEMMs over
    chunks of whole terms, each step = min(_PRODUCT_BLOCK / n, n / 2)
    columns or over by less than one term, added to S in blocks of
    _CHECK_ROWS rows.  A term with larger phi(d) matches about
    n^2 / phi(d) pairs, far fewer than its n^2 phi(d) GEMM terms; it adds c
    into the same S at each matching pair, found by sorting the labels, in
    slices of step rows.  For weights c that are multiples of 1/2, every
    partial sum of either kind is a multiple of 1/2 of size at most
    sum |c| < 2^52, so S is exact whatever the BLAS summation order or
    thread count."""
    n = len(a)
    prod = a * b
    gates, dense, sparse = {}, [], []  # (gated rows, d, c, s)
    for g, d, c, s in terms:
        if g not in gates:
            gates[g] = np.flatnonzero(np.gcd(prod, g) == 1)
        (dense if totient(d) <= _DENSE_PHI else sparse).append((gates[g], d, c, s))
    if sum(abs(c) for _, _, c, _ in terms) >= 2**52:
        raise ValueError("congruence weights too large for an exact float64 product")
    # S is an exact sum, so the order of the terms is free: in order of d,
    # each d's residues are built once and dropped after its last term
    dense.sort(key=lambda term: term[1])
    sparse.sort(key=lambda term: term[1])
    residues = {}

    def labels(rows, d, s):
        if d not in residues:
            residues.clear()
            # column[r] numbers the units r mod d as 0, ..., phi(d) - 1
            residues[d] = np.cumsum(np.gcd(np.arange(d), d) == 1) - 1, _reduce(a, b, d)[0]
        column, u = residues[d]
        u = u[rows]
        return column, u, s * u % d

    def add_product(chunk, width):
        """S += U U_s^T over the whole terms of one chunk."""
        U, Us = np.zeros((n, width)), np.zeros((n, width))
        first = 0
        for rows, d, c, s in chunk:
            column, u, us = labels(rows, d, s)
            U[rows, first + column[u]] = c
            Us[rows, first + column[us]] = 1
            first += totient(d)
        for r in range(0, n, _CHECK_ROWS):
            S[r:r + _CHECK_ROWS] += U[r:r + _CHECK_ROWS] @ Us.T

    # U and U_s together stay within 8 bytes per entry of S plus fewer than
    # _DENSE_PHI columns, and each chunk's product goes into S in row blocks,
    # so no second n x n array sits beside S (_pair_route_bytes)
    step = max(1, min(_PRODUCT_BLOCK // max(n, 1), n // 2))
    S = np.zeros((n, n))
    chunk, width = [], 0
    for t, term in enumerate(dense, 1):
        chunk.append(term)
        width += totient(term[1])
        if width >= step or t == len(dense):
            add_product(chunk, width)
            chunk, width = [], 0
    flat = S.reshape(-1)
    for rows, d, c, s in sparse:
        _, u, us = labels(rows, d, s)
        order = np.argsort(us)
        us = us[order]
        for lo in range(0, len(rows), step):
            start = np.searchsorted(us, u[lo:lo + step], "left")
            count = np.searchsorted(us, u[lo:lo + step], "right") - start
            # row i matches the sorted us at start_i, ..., start_i + count_i - 1;
            # within one term and one slice each (row, column) comes once
            i = np.repeat(rows[lo:lo + step], count)
            j = np.arange(len(i)) + np.repeat(start - np.cumsum(count) + count, count)
            flat[i * n + rows[order[j]]] += c
    return S


def _pair_gram(fam):
    """The pair-side matrix of a family, real symmetric float64: the
    congruence sum S of its terms (integers, or halves for a parity) for a
    discrete family (T None), and S o K for a window, K[n, m] = _window(L_n
    - L_m, T), multiplied into S in place in row blocks so that the
    temporaries stay small; _window is even, so S o K is exactly symmetric."""
    S = _congruence_sum(fam.a, fam.b, fam.terms)
    if fam.T is not None:
        L = fam.L
        for s in range(0, len(L), _CHECK_ROWS):
            S[s:s + _CHECK_ROWS] *= _window(L[s:s + _CHECK_ROWS, None] - L, fam.T)
    return S


def _checked(fam, entry, columns=0):
    """fam, if a public Gram builder or oracle on its n indices fits in
    _ROUTE_BYTES, else ValueError: `entry` bytes an n x n entry, 16 for each
    n x columns member value and phase of an oracle, and for each index its
    point object and the row-block temporaries of `_pair_route_bytes`."""
    n = len(fam.a)
    need = entry * n * n + (16 * columns + _POINT_BYTES + 8 * 16 * _CHECK_ROWS) * n
    _check_bytes(f"Gram on {n} indices", need, _ROUTE_BYTES)
    return fam


def gram_multiplicative(spec, index):
    """Closed-form Gram matrix of the multiplicative family on the given
    coprime pairs, which the result keeps as its index; complex128 and
    exactly Hermitian:

    G[n, m] = [sum over q in (Q/2, Q], (q, k) = 1, (a_n b_n a_m b_m, q) = 1
                of the Moebius congruence sum]
              * phi(k) [a_n b_m = a_m b_n mod k] [(a_n b_n a_m b_m, k) = 1]
              * I_T(log(a_n b_m / (a_m b_n))),

    formed as D (S o K) D^H from the real `_pair_gram` and the phases
    d = e^{3iTL/4} of I_T."""
    index = tuple(index)
    fam = _checked(_multiplicative(spec, *_pair_arrays(index)), 32)  # G beside _pair_gram
    d = np.exp(0.75j * spec.T * fam.L)
    G = np.outer(d, d.conj())
    G *= _pair_gram(fam)
    return GramMatrix(index, _hermitize(G))


def gram_additive(Q, N):
    """G[n, m] = sum over q in (Q/2, Q] with gcd(a_n b_n a_m b_m, q) = 1 of
    c_q(a_n bbar_n - a_m bbar_m), the Ramanujan-sum Gram of the additive
    family on the dyadic window; real (float64)."""
    fam = _checked(_additive(Q, N), 16)
    return GramMatrix(fam.index, _pair_gram(fam))


def gram_rational(Q, N):
    """Rational-family Gram: rows all q <= Q with primitive chi mod q,
    columns the positive rationals of ht <= N; contributions gated by
    strict localization gcd(a b, q) = 1.  Real (float64)."""
    fam = _checked(_rational(Q, N), 16)
    return GramMatrix(fam.index, _pair_gram(fam))


# ----- family side: one member-value matrix ----------------------------

def _member_matrix(members, a, b):
    """V[n, f] = product over member f's residue tables of
    table[red_m(a_n / b_n)], where m = len(table) and
    red_m(a/b) = a bbar mod m is the reduction map; the entry is 0 where
    gcd(a_n b_n, m) > 1.  A multiplicative member is (chi table, theta
    table), a rational member (chi table,), an additive member
    (e_q(t .) table,)."""
    V = np.ones((len(a), len(members)), dtype=np.complex128)
    reductions = {}
    for f, tables in enumerate(members):
        for table in tables:
            m = len(table)
            if m not in reductions:
                reductions[m] = _reduce(a, b, m)
            red, unit = reductions[m]
            V[:, f] *= np.where(unit, table[red], 0)
    return V


def _gauss_nodes(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _phase_matrix(L, T, nodes):
    """P[n, j] = e^{i t_j L_n} sqrt(w_j) over the Gauss-Legendre nodes t_j
    of [T/2, T]; the single column P = 1 for a discrete family."""
    if T is None:
        return np.ones((len(L), 1), dtype=np.complex128)
    t, w = _gauss_nodes(T / 2, T, nodes)
    P = 1j * np.outer(L, t)
    np.exp(P, out=P)
    P *= np.sqrt(w)
    return P


class _KhatriRao:
    """H = A^H A for A = V (row-wise Khatri-Rao) P, A[n, (f, j)] =
    V[n, f] P[n, j], on the (member, node) space of size F J.  Neither A
    nor H is formed: H x is A^H (A x), with X = x.reshape(F, J),

        A x = ((P X^T) o V) 1,    A^H y = conj((V o conj(y))^T P),

    summed over row blocks of at most _PRODUCT_BLOCK entries of V or P, so
    each temporary is one block.  `bounds()` gives the exact diagonal
    sum_n |V[n, f]|^2 |P[n, j]|^2, the all-ones form ||A 1||^2 and the
    upper bound min(||A||_F^2, ||A||_1 ||A||_inf) on ||A||^2 =
    lambda_max(H); with `shape` and the complex `dtype`, the contract of
    `top_eigenvalue`.  Raises ValueError on non-finite V or P."""

    dtype = np.dtype(np.complex128)

    def __init__(self, V, P):
        if not (np.isfinite(V).all() and np.isfinite(P).all()):
            raise ValueError("member or phase matrix has non-finite entries")
        self.grid = (V.shape[1], P.shape[1])  # (F, J)
        self.shape = (V.shape[1] * P.shape[1],) * 2
        step = _block_rows(*self.grid)
        self.blocks = [(V[s:s + step], P[s:s + step]) for s in range(0, len(V), step)]

    def __matmul__(self, x):
        X = x.reshape(self.grid).T
        z = np.zeros(self.grid, dtype=np.complex128)
        for V, P in self.blocks:
            y = np.einsum("nf,nf->n", V, P @ X)
            z += (V * y.conj()[:, None]).T @ P
        return np.conj(z).reshape(-1)

    def bounds(self):
        diag, norm_1 = np.zeros(self.grid), np.zeros(self.grid)
        norm_inf = ones = 0.0
        for V, P in self.blocks:
            aV, aP = np.abs(V), np.abs(P)
            norm_1 += aV.T @ aP
            norm_inf = max(norm_inf, float((aV.sum(axis=1) * aP.sum(axis=1)).max()))
            diag += np.square(aV, out=aV).T @ np.square(aP, out=aP)
            y = V.sum(axis=1) * P.sum(axis=1)
            ones += float(np.vdot(y, y).real)
        return diag.reshape(-1), ones, min(float(diag.sum()), float(norm_1.max()) * norm_inf)


def _block_rows(F, J):
    """Rows of a block of V (n x F) and P (n x J) of at most _PRODUCT_BLOCK
    entries each."""
    return max(1, _PRODUCT_BLOCK // max(F, J, 1))


# ----- bucket side: S applied through residue buckets -------------------

class _Buckets:
    """The pair-side S of a discrete family (T None), applied through residue
    buckets and never formed.  Each term (g, d, c, s) has d | g, so on the
    gated rows, gcd(a_n b_n, g) = 1, its congruence reads the one residue
    r_n = a_n bbar_n mod g of its gate: a_n b_m = s a_m b_n mod d is r_n = s
    r_m mod d.  Each gate keeps one small label a row: the rank of r_n among
    the residues its rows occupy, and past them a dump bin for the rows off
    the gate.  A matvec takes, for each gate, the bucket sums B = bincount
    of x over its labels; then two bincounts over the terms' entries, one
    for each occupied residue r of the term's gate (`entries`), fold B to
    B_d over r mod d and add c B_d[s r mod d] into C[r]; and then
    (S x)_n = sum over the gates of C[label_n], with C 0 at the dump bin.
    That is O(n) a gate and O(entries), against O(n^2) for S.

    `bounds()` gives the exact diagonal sum c [r = s r mod d], the all-ones
    form sum_r count[r] C1[r] for the bucket counts and their C1, both
    exact sums of halves, and the cap max_n sum over the terms of |c| times
    the count of m matching n, never below the Gershgorin row sum; with
    `shape` and the float64 `dtype`, the contract of `top_eigenvalue`."""

    dtype = np.dtype(np.float64)

    def __init__(self, fam):
        if fam.T is not None:
            raise ValueError("the bucket route serves the discrete families only")
        n = len(fam.a)
        self.shape = (n, n)
        gates = {}
        for g, d, c, s in fam.terms:
            gates.setdefault(g, []).append((d, c, s))
        self.gates = []  # (first bin, bins, labels) of each gate
        pos, fold, read, weight = [], [], [], []
        first = key = 0
        for g, terms in gates.items():
            red, unit = _reduce(fam.a, fam.b, g)
            values, labels = np.unique(np.where(unit, red, g), return_inverse=True)
            self.gates.append((first, len(values),
                               labels.astype(np.min_scalar_type(max(len(values) - 1, 0)))))
            residues = values[values < g].astype(np.int64)  # bins 0, ..., len - 1
            for d, c, s in terms:
                pos.append(first + np.arange(len(residues)))
                fold.append(key + residues % d)
                read.append(key + s * residues % d)
                weight.append(np.full(len(residues), float(c)))
                key += d
            first += len(values)
        self.bins = first
        self.pos, self.weight = np.concatenate(pos), np.concatenate(weight)
        # number the (term, residue mod d) keys that occur, folded or read
        distinct, keys = np.unique(np.concatenate(fold + read), return_inverse=True)
        self.fold, self.read = keys[: len(self.pos)], keys[len(self.pos):]
        self.keys = len(distinct)

    def _sum_over_gates(self, stacked):
        """y_n = sum over the gates of stacked[first + label_n]."""
        y = np.zeros(self.shape[0])
        for first, bins, labels in self.gates:
            y += stacked[first:first + bins][labels]
        return y

    def _buckets(self, x=None):
        """The bucket sums of x (the counts for None) of every gate, stacked."""
        B = np.empty(self.bins)
        for first, bins, labels in self.gates:
            B[first:first + bins] = np.bincount(labels, x, bins)
        return B

    def _apply(self, B, weight):
        """C[r] = sum over the entries (term, r) of weight B_d[s r mod d]."""
        Bd = np.bincount(self.fold, B[self.pos], self.keys)
        return np.bincount(self.pos, weight * Bd[self.read], self.bins)

    def __matmul__(self, x):
        return self._sum_over_gates(self._apply(self._buckets(x), self.weight))

    def bounds(self):
        count = self._buckets()
        diag = np.bincount(self.pos, self.weight * (self.fold == self.read), self.bins)
        ones = float(count @ self._apply(count, self.weight))
        cap = self._sum_over_gates(self._apply(count, np.abs(self.weight)))
        return self._sum_over_gates(diag), ones, float(cap.max(initial=0.0))


def _family_gram(fam, nodes):
    """Oracle: the pair-side Gram as A A^H from the family side.  For the
    row-wise Khatri-Rao A = V o P, A A^H = (V V^H) o (P P^H): the explicit
    character sum over the members times the Gauss-Legendre quadrature of
    I_T (all ones for a discrete family)."""
    members = fam.members()
    _checked(fam, 32, len(members) + nodes)  # V V^H beside P P^H
    V = _member_matrix(members, fam.a, fam.b)
    P = _phase_matrix(fam.L, fam.T, nodes)
    G = V @ V.conj().T
    G *= P @ P.conj().T
    return GramMatrix(fam.index, _hermitize(G))


def gram_bruteforce(spec, index, quadrature_nodes=64):
    """Oracle: the same Gram matrix by explicit sums over (q, chi, theta)
    and Gauss-Legendre quadrature of the t-integral."""
    return _family_gram(_multiplicative(spec, *_pair_arrays(index)), quadrature_nodes)


def additive_matrix(Q, N):
    """The additive family's coefficient matrix: rows (q, t) with
    Q/2 < q <= Q and t primitive mod q (t = 0 counts as primitive for
    q = 1), columns the dyadic-window pairs; entries e_q(t a bbar) gated
    on gcd(ab, q) = 1.  ValueError, before the rows, the member tables or
    V are built, when their estimate on the n indices and the
    F = sum phi(q) members passes _ROUTE_BYTES."""
    fam = _additive(Q, N)
    moduli = _moduli(Q)
    n, F = len(fam.a), sum(map(totient, moduli))
    # V, 16 bytes an entry; each member's table of q <= Q values and its
    # row (q, t); each index's point object, its residues and unit masks
    # (9 bytes a modulus) and the row temporaries of `_member_matrix`
    need = 16 * n * F + (16 * Q + 400) * F + (_POINT_BYTES + 9 * len(moduli) + 64) * n
    _check_bytes(f"additive matrix on {n} indices x {F} members", need, _ROUTE_BYTES)
    V = _member_matrix(fam.members(), fam.a, fam.b)
    return _additive_rows(moduli), fam.index, V.T


def gram_rational_bruteforce(Q, N):
    """Oracle for gram_rational via explicit character sums."""
    return _family_gram(_rational(Q, N), 1)


# ----------------------------------------------------------------------
# extremal eigenvalue
# ----------------------------------------------------------------------

def _dense_bounds(M):
    """The diagonal, the all-ones form sum(M) and the Gershgorin bound
    max_i sum_j |M[i, j]| of a Hermitian matrix M.  Row blocks keep the
    temporaries of the checks far below the size of M."""
    amax = ceiling = asym = 0.0
    for s in range(0, M.shape[0], _CHECK_ROWS):
        rows = M[s:s + _CHECK_ROWS]
        a = np.abs(rows)
        top = float(a.max())
        if not isfinite(top):
            raise ValueError("matrix has non-finite entries")
        amax = max(amax, top)
        ceiling = max(ceiling, float(a.sum(axis=1).max()))
        asym = max(asym, float(np.abs(rows - M[:, s:s + _CHECK_ROWS].conj().T).max()))
    if asym > 1e-12 * max(amax, 1.0):
        raise ValueError("matrix is not Hermitian")
    return M.diagonal().real, float(M.sum().real), ceiling


def _grown(a, shape):
    """a copied into the top left corner of a zero array of the given shape."""
    out = np.zeros(shape, dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def top_eigenvalue(G, tol=1e-9, seed=_START_SEED, max_iter=_MAX_ITER):
    """Largest eigenvalue of a Hermitian operator G, as a NormEstimate.

    G meets one contract: `shape` (n, n), `dtype`, `G @ x` and `bounds()`,
    which returns the diagonal, the all-ones form 1^H G 1 and a true upper
    bound on lambda_max, as `_KhatriRao` does for H = A^H A.  An ndarray or
    a GramMatrix, which has no `bounds()`, is solved as its matrix with
    `_dense_bounds`: the Gershgorin bound max_i sum_j |G[i, j]|, after the
    checks that its entries are finite and Hermitian.

    Lanczos with full reorthogonalization from a deterministic seeded start
    (boosted at the largest diagonal entry).  The dtype sets the
    arithmetic: a real dtype gets a real start vector, the first
    standard-normal draw of the seed, and a float64 basis; a complex dtype
    gets the start vector whose real part is that draw and whose imaginary
    part is the next, and a complex128 basis.  The tridiagonal T of the
    Lanczos coefficients is one float64 array that grows by doubling with
    the basis.  It stops once the top Ritz pair's residual
    |beta_j s_j| / max(|theta|, 1) is at most tol, on Krylov breakdown, or
    after min(n, max_iter) steps.  The reported value is the Rayleigh
    quotient rho = y^H G y of the unit Ritz vector y, taken with one more
    matvec, so up to rounding it is a lower bound on lambda_max.  It is
    raised to the floors max_i G[i, i] and 1^H G 1 / n (the Rayleigh
    quotients of the coordinate and all-ones vectors) and capped by the
    upper bound of `bounds()`.

    `residual` is ||G y - rho y|| / max(|rho|, 1).  For Hermitian G it
    bounds the distance from rho to *some* eigenvalue, not necessarily to
    lambda_max; `iterations` counts the matvecs.  Raises ValueError on a
    non-square, non-finite or non-Hermitian matrix, on a non-finite or
    negative tol, and when the Rayleigh quotient or the residual overflows
    (entries near the float64 range); the solve stops at the first
    non-finite beta, and the overflows on the way raise no warning.
    """
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    M = G.matrix if isinstance(G, GramMatrix) else G
    if not hasattr(M, "bounds"):
        M = np.asarray(M)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 0:
        return NormEstimate(0.0, 0.0, 0, "lanczos")
    diag, total, ceiling = M.bounds() if hasattr(M, "bounds") else _dense_bounds(M)
    floor = max(float(diag.max()), total / n)

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    if np.iscomplexobj(M):
        v = v + 1j * rng.standard_normal(n)
    v[int(np.argmax(diag))] += 2.0 * np.abs(v).max()
    steps = max(1, min(n, int(max_iter)))
    basis = np.empty((min(steps, 32), n), dtype=v.dtype)
    T = np.zeros((len(basis),) * 2)
    basis[0] = v / np.linalg.norm(v)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below when not finite
        for j in range(steps):
            w = M @ basis[j]
            T[j, j] = np.vdot(basis[j], w).real
            for _ in range(2):  # classical Gram-Schmidt, twice, conjugating no basis row
                w -= np.conj(basis[: j + 1] @ w.conj()) @ basis[: j + 1]
            b = float(np.linalg.norm(w))
            theta, S = np.linalg.eigh(T[: j + 1, : j + 1])
            ritz_res = b * abs(S[-1, -1]) / max(abs(theta[-1]), 1.0)
            if (ritz_res <= tol or b <= np.finfo(np.float64).eps * ceiling or j + 1 == steps
                    or not isfinite(b)):
                break
            if j + 1 == len(basis):  # grow the basis and T by doubling, never past n rows
                rows = min(2 * len(basis), steps)
                basis, T = _grown(basis, (rows, n)), _grown(T, (rows, rows))
            basis[j + 1] = w / b
            T[j, j + 1] = T[j + 1, j] = b

        y = S[:, -1] @ basis[: j + 1]
        y /= np.linalg.norm(y)
        Gy = M @ y
        rho = float(np.vdot(y, Gy).real)
        res = float(np.linalg.norm(Gy - rho * y)) / max(abs(rho), 1.0)
    if not (isfinite(rho) and isfinite(res)):
        raise ValueError("the Lanczos solve overflowed: its Rayleigh quotient or residual "
                         "is not finite")
    value = max(min(rho, ceiling), floor)
    return NormEstimate(value, res, j + 2, "lanczos")


# ----------------------------------------------------------------------
# the Delta norms
# ----------------------------------------------------------------------

def _pair_route_bytes(n):
    """Peak bytes of the pair route on n indices: 16 an entry, the float64
    S beside its indicator chunks inside _congruence_sum (8 bytes an entry
    of S between them), which a window then multiplies in place.  Plus
    fewer than sixteen float64 _CHECK_ROWS x n arrays: a chunk's overrun
    (under _DENSE_PHI columns) and the row blocks of product and window."""
    return 16 * n * n + 8 * 16 * _CHECK_ROWS * n


def _family_route_bytes(n, F, nodes, rows):
    """Peak bytes of the family route on n indices and F members x nodes,
    with a Lanczos basis of `rows` vectors: the index arrays a, b (int64)
    and L (float64), 24 bytes an entry; V and P (n x F and n x nodes,
    complex); two ufunc buffers; and the larger of two stages over row
    blocks of b rows (`_block_rows`).  Setup holds the float moduli of a
    block in `bounds` and three length-b vectors.  The solve holds the
    basis and the float64 tridiagonal T at their capacity (doubled from 32
    rows up to F nodes, as in `top_eigenvalue`), four more vectors, two
    rows x rows arrays (the Ritz vectors and eigh's copy of T), and the
    b x F temporary of a matvec with its two length-b vectors."""
    size = F * nodes
    b = min(n, _block_rows(F, nodes))
    capacity = 32
    while capacity < rows:
        capacity *= 2
    capacity = min(capacity, size, _MAX_ITER)
    solve = (16 * size * (capacity + 4) + 8 * capacity * capacity + 16 * rows * rows
             + 16 * b * (F + 2))
    return (24 * n + 16 * n * (F + nodes) + 32 * np.getbufsize()
            + max(8 * b * (F + nodes + 6), solve))


def _bucket_sizes(n, terms):
    """The gates of a term list, the bytes of their labels on n indices and
    the terms' entries, each bounded before anything is built: a gate g
    has at most min(n, g) occupied residues, and its labels take the
    smallest unsigned integer type that holds their count."""
    gates = {g for g, _, _, _ in terms}
    labels = sum(n * np.min_scalar_type(min(n, g)).itemsize for g in gates)
    return len(gates), labels, sum(min(n, g) for g, _, _, _ in terms)


def _bucket_route_bytes(n, labels, entries, rows):
    """Peak bytes of the bucket route on n indices, `labels` bytes of
    labels and `entries` term entries, with a Lanczos basis of at most
    `rows` vectors: the index arrays a, b and L, 24 bytes an index; the
    labels; 160 bytes an entry, its four stacked arrays beside the lists
    and the sort that build them; twelve more float64 or int64 vectors,
    the residues, masks and sort of a gate's labels in setup and the bucket
    sums, gathers and vectors of a solve; and 16 n rows + 32 rows^2, the
    basis and the float64 tridiagonal T at capacity rows beside their
    smaller copies at the last doubling (`top_eigenvalue`), with eigh's two
    rows x rows arrays."""
    return labels + 24 * n + 160 * entries + 96 * n + 16 * n * rows + 32 * rows * rows


def _solve(fam, tol, route="auto"):
    """The one route rule: every Delta hands it its family, built once, and
    it builds the operator of the route it takes from that family alone.
    "pairs" solves the real symmetric pair-side matrix `_pair_gram(fam)`;
    "family" solves H = A^H A for A the `_KhatriRao` operator of the member
    values V (rows the index, columns the members) and the phases P (rows
    the index, columns the quadrature nodes), never formed; its nonzero
    spectrum is the pair side's up to the quadrature of I_T.  "buckets"
    solves the pair side S of a discrete family through `_Buckets`, never
    formed, with as many Lanczos steps as keep its basis within
    _ROUTE_BYTES.  No route builds a `GramMatrix` or a point object.  "auto"
    takes the buckets for a discrete family (T None); with a window, it
    takes the family side past _PAIR_ROUTE_MAX indices when members x nodes
    < indices, counting the members F as S at the index 1/1, where every
    member is 1, and the pair side otherwise.  Each route first raises
    ValueError when its size estimate, at the deepest Lanczos basis on the
    family and bucket sides, passes _ROUTE_BYTES.  The NormEstimate records
    the route that ran and the index count n."""
    n = len(fam.a)
    if route == "auto" and fam.T is None:
        route = "buckets"
    if route == "buckets":
        gates, labels, entries = _bucket_sizes(n, fam.terms)
        # the most steps, at most min(n, _MAX_ITER), whose basis fits: the
        # integer root of 32 rows^2 + 16 n rows <= the room the rest leaves
        room = _ROUTE_BYTES - _bucket_route_bytes(n, labels, entries, 0)
        steps = max(1, min(n, _MAX_ITER, (isqrt(64 * n * n + 32 * max(room, 0)) - 8 * n) // 32))
        _check_bytes(f"buckets route on {n} indices x {gates} gates",
                     _bucket_route_bytes(n, labels, entries, steps), _ROUTE_BYTES)
        estimate = top_eigenvalue(_Buckets(fam), tol=tol, max_iter=steps)
        return replace(estimate, route=route, size=n)
    Lmax = float(np.abs(fam.L).max(initial=0.0))
    # past _ROUTE_BYTES nodes the family estimate (16 n nodes bytes and more)
    # passes the cap whatever n is, so the count is clamped there: an
    # overflowing Lmax T stays refused and never reaches int(inf)
    nodes = 1 if fam.T is None else max(48, int(min(Lmax * fam.T / 2, _ROUTE_BYTES)) + 40)
    one = np.ones(1, dtype=np.int64)
    F = int(_congruence_sum(one, one, fam.terms)[0, 0])
    if route == "auto":
        route = "family" if n > _PAIR_ROUTE_MAX and F * nodes < n else "pairs"
    if route == "pairs":
        sizes, need = f"{n} indices", _pair_route_bytes(n)
    else:
        sizes = f"{F} members x {nodes} nodes"
        need = _family_route_bytes(n, F, nodes, min(F * nodes, _MAX_ITER))
    _check_bytes(f"{route} route on {sizes}", need, _ROUTE_BYTES)
    if route == "pairs":
        operator = _pair_gram(fam)
    else:  # P before V: its outer-product temporary then has no V beside it
        P = _phase_matrix(fam.L, fam.T, nodes)
        operator = _KhatriRao(_member_matrix(fam.members(), fam.a, fam.b), P)
    return replace(top_eigenvalue(operator, tol=tol), route=route, size=n)


def delta(Q, k=1, T=1.0, N=1.0, tol=1e-9, parity=None, route="auto"):
    """Delta(Q, k, T, N): the multiplicative-family norm on the dyadic
    window N/2 < ab <= N, as the largest Gram eigenvalue.  "auto" follows
    the route rule of `_solve`."""
    if route not in _ROUTES:
        raise ValueError(f"route must be one of {_ROUTES}, got {route!r}")
    spec = FamilySpec(Q, k, T, parity)
    return _solve(_multiplicative(spec, *_coprime_pairs(N, "dyadic")), tol, route)


def delta_add(Q, N, tol=1e-9):
    """Additive-family norm (Ramanujan-sum Gram) on the dyadic window."""
    FamilySpec(Q)
    return _solve(_additive(Q, N), tol)


def delta_rational(Q, N, tol=1e-9):
    """Rational-family norm: all q <= Q, primitive characters, columns the
    positive rationals with ht <= N."""
    FamilySpec(Q)
    return _solve(_rational(Q, N), tol)


# ----------------------------------------------------------------------
# Delta' grids
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaPrimeGrid:
    tuples: tuple  # (X, R, U, C, ell)
    values: tuple
    best: float
    best_tuple: tuple
    is_lower_bound: bool = True


def delta_prime_grid(Q, k, T, N, grid=None, tol=1e-9):
    """max over admissible tuples (X, R, U, C, ell) — X R^2 ell U <= Q^2 k T
    and X <= C — of X * Delta(R, ell, U, N/C).  A finite maximization,
    hence a lower bound for the full sup."""
    if grid is None:
        grid = default_delta_prime_grid(Q, k, T)
    budget = Q * Q * k * T
    values = []
    for X, R, U, C, ell in grid:
        if X * R * R * ell * U > budget * (1 + 1e-12) or X > C:
            raise ValueError(f"inadmissible tuple {(X, R, U, C, ell)}")
        if N / C < 1:
            values.append(0.0)
            continue
        values.append(X * delta(R, ell, U, N / C, tol=tol).value)
    best_i = int(np.argmax(values)) if values else 0
    grid = tuple(tuple(t) for t in grid)
    return DeltaPrimeGrid(grid, tuple(values), max(values) if values else 0.0,
                          grid[best_i] if grid else ())


def default_delta_prime_grid(Q, k, T):
    """The trivial tuple plus dyadic budget-respecting shrinkages."""
    grid = [(1, Q, T, 1, k)]
    X = 4
    R = Q / 2
    while R >= 1:
        grid.append((X, R, T, X, k))
        X *= 4
        R /= 2
    return grid


# ----------------------------------------------------------------------
# monotonicity
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityResult:
    aspect: str
    Q: float
    k: int
    T: float
    N: float
    P: int
    conditions_met: bool
    conditions: dict
    base: float
    values: dict
    witness: int | None

    @property
    def ok(self):
        return self.witness is not None


def _n_aspect_conditions(Q, N, P):
    pstar = len(primes_in(P, 2 * P))
    c1 = pstar * log(P) >= 2 * log(Q)
    c2 = 4 * log(N) <= 0.5 * pstar * log(P) if N > 1 else True
    return {"P*": pstar, "P*logP>=2logQ": c1, "4logN<=P*logP/2": c2}, c1 and c2


def _q_aspect_conditions(Q, N, P):
    pss = sum(p - 2 for p in primes_in(P, 2 * P))
    logp = log(P)
    c1 = 2 * P * log(N) <= 0.5 * pss * logp if N > 1 else True
    c2 = 4 * P * log(Q) <= 0.5 * pss * logp
    return {"P**": pss, "2PlogN<=P**logP/2": c1, "4PlogQ<=P**logP/2": c2}, c1 and c2


def _witness_search(aspect, conditions, Q, k, T, N, P, tol):
    """The witness search of both aspects.  The aspect's preconditions gate
    the assertion, not the search; primes dividing k are skipped (the
    enlarged family needs p in its unit group)."""
    conds, met = conditions(Q, N, P)
    base = delta(Q, k, T, N, tol=tol).value
    values = {}
    witness = None
    for p in primes_in(P, 2 * P):
        if k % p == 0:
            continue
        Qp, Np = (Q, N * p) if aspect == "N" else (Q * p, N)
        values[p] = delta(Qp, k, T, Np, tol=tol).value
        if base <= 8 * values[p] * (1 + 10 * tol) + 1e-12:
            witness = p
            break
    return MonotonicityResult(aspect, Q, k, T, N, P, met, conds, base, values, witness)


def monotonicity_check_N(Q, k, T, N, P, tol=1e-6):
    """Search [P, 2P] for a prime p with Delta(Q,k,T,N) <= 8 Delta(Q,k,T,Np)."""
    return _witness_search("N", _n_aspect_conditions, Q, k, T, N, P, tol)


def monotonicity_check_Q(Q, k, T, N, P, tol=1e-6):
    """Same in the Q aspect: p in [P, 2P] with Delta(Q,k,T,N) <= 8 Delta(Qp,k,T,N)."""
    return _witness_search("Q", _q_aspect_conditions, Q, k, T, N, P, tol)


# ----------------------------------------------------------------------
# duality, fits, export
# ----------------------------------------------------------------------

def duality_check(rows, cols, mat, tol=1e-9):
    """lambda_max of mat^H mat and of mat mat^H — equal operator norms of a
    matrix and its transpose.  mat has one row per entry of rows and one
    column per entry of cols."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (len(rows), len(cols)):
        raise ValueError(f"matrix shape {mat.shape} does not match "
                         f"{len(rows)} rows x {len(cols)} columns")
    g1 = _hermitize(mat.conj().T @ mat)
    g2 = _hermitize(mat @ mat.conj().T)
    v1 = top_eigenvalue(g1, tol=tol).value
    v2 = top_eigenvalue(g2, tol=tol).value
    return v1, v2


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float


def exponent_fit(samples):
    """Least-squares slope of log(value) against log(parameter), over at
    least 3 samples with at least 2 distinct parameters, however close."""
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    x = np.array([s[0] for s in samples], dtype=float)
    y = np.array([s[1] for s in samples], dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("samples must be positive")
    if np.all(x == x[0]):
        raise ValueError("degenerate sample: fewer than 2 distinct parameters")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fitted = A @ np.array([slope, intercept])
    rms = float(np.sqrt(np.mean((fitted - ly) ** 2)))
    return FitResult(float(slope), float(intercept), rms)


_MAGIC = b"SLGM"


def save_gram(path, gram):
    """Binary dump: 16-byte header (magic 'SLGM', u32 dim, u64 reserved),
    then row-major little-endian interleaved re/im float64."""
    M = np.ascontiguousarray(gram.matrix, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", M.shape[0], 0))
        fh.write(M.astype("<c16").tobytes("C"))


def load_gram(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError("not a Gram dump")
        dim, _ = struct.unpack("<IQ", fh.read(12))
        data = np.frombuffer(fh.read(), dtype="<c16").reshape(dim, dim)
    return GramMatrix(tuple(range(dim)), data.astype(np.complex128))


def save_gram_csv(path, gram):
    """Entry-per-line CSV for small matrices: i, j, re, im."""
    if gram.dim > 64:
        raise ValueError("CSV export is for small matrices (dim <= 64)")
    with open(path, "w") as fh:
        fh.write("i,j,re,im\n")
        for i in range(gram.dim):
            for j in range(gram.dim):
                z = gram.matrix[i, j]
                fh.write(f"{i},{j},{float(z.real)!r},{float(z.imag)!r}\n")
