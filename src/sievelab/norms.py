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
the pair side, on any rows against the whole index, a float64 matrix of
multiples of 1/2 below 2^52: residue-indicator products for small phi(d),
matched residues for the rest.
Each route, each public Gram builder and `additive_matrix` refuse a job
whose size estimate passes _ROUTE_BYTES, and so does the index, from N
alone, and the term list, from Q alone, before anything is built.

Every family holds its index as the int64 arrays a, b of `rationals`
with L = log(a/b), and reduces it there (`_reduce`).  Every Delta builds
its family once and solves it by the route rule (`_solve`), where alone
the tests name a route; the public `gram_*` builders return matrices for
the verify suites, the oracles and the tests.

The top eigenvalue comes from one Lanczos solver (`top_eigenvalue`) on
one operator contract, `shape`, `@` and `bounds()`, real symmetric in
float64: a Rayleigh quotient, a lower bound up to rounding, capped by the
upper bound.  The oracles and `experiments.duality_check` take theirs from
LAPACK (`np.linalg.eigvalsh`), apart from the solver they check.

Four routes solve a family, each in float64.  A discrete family is held
in buckets (`_Buckets`): one label a row for each gate, so S = U M U^T
for the indicator U of the labels and the bins x bins term map M.  It
takes the bins route, a dense eigh of G = W^{1/2} M W^{1/2}, W = U^T U,
whose nonzero spectrum is S's (`_bin_space`), when bins^3 <= 2000 n gates,
and otherwise the bucket route, Lanczos on S applied through the labels,
O(n) a gate and matvec.  With a window, a family of F members on J nodes
with 2 F J < n indices takes the family side, and otherwise the pair side
S o K, with K[n, m] = (T/2) sinc((L_n - L_m) T/4) the real factor of I_T;
its phase factors out as D = diag(e^{3iTL/4}), and only
`gram_multiplicative` forms the Hermitian D (S o K) D^H.  On the family
side Delta = ||A||^2 for the row-wise Khatri-Rao product A = V o P of the
member values V and the phases P of Gauss-Legendre quadrature of I_T;
A A^H = (V V^H) o (P P^H) is the pair side up to the quadrature, on the
fewest nodes J whose Bernstein-ellipse bound (Trefethen, SIAM Review 50,
2008), joined to the Schur-product bound for the PSD S (Horn and Johnson,
Topics in Matrix Analysis, 5.5), moves Delta by at most 1e-12 / 2
relative (`_quadrature_nodes`), and P is then cut to its numerical rank r,
which moves it by at most the other half (`_rank_cut`, `_solve`).  A small
family side, F r (m + F r) <= 600 m on m rows, is solved by one dense
eigh of H (`_KhatriRao.matrix`, `_dense_top`), as the bins are; every
other route runs Lanczos, with the deepest basis that fits beside the
route's other bytes (`_lanczos_bytes`, `_basis_rows`).  The index is
closed under sigma: a/b -> b/a, so both windowed routes hold the rows
a <= b alone: sigma leaves S o K invariant, so its spectrum is that of an
even and an odd block (`_pair_blocks`): the pair route solves one and
proves the other's top eigenvalue no larger, by its Gershgorin cap or a
Cholesky with Rump's margin (`_below`), or solves it too, and the family
route conjugates the characters and the phases, so H = A^H A is real, and
`_KhatriRao` applies it there.  The routes and the oracles (the discrete
families' member values, with P = 1) read one definition of a family
(`_Family`) and check one another in the tests.
"""

from bisect import bisect_right
from dataclasses import dataclass, replace
from math import ceil, gcd, isfinite, log, sqrt

import numpy as np

from .arith import divisors, mobius, totient
from .characters import char_group, primitive_chars, value_table
from .rationals import (_POINT_BYTES, _ROUTE_BYTES, CoprimePair, RationalPoint, _check_bytes,
                        _coprime_pairs, _points, _ranges, _reduce)

_START_SEED = 0x5EED
_CHECK_STRIDE = 4
_FIRST_ROWS = 32  # the rows of the first Lanczos basis, doubled as it fills
_CHECK_ROWS = 64
_PRODUCT_BLOCK = 1 << 22
_DENSE_PHI = 16
_MAX_ITER = 20000
_TERM_BYTES = 136  # a term (g, d, c, s): its tuple, its ints and its list slot
_QUADRATURE_TOL = 1e-12  # the most the family route's nodes and rank cut move Delta, relative
_RHO = 1 + np.geomspace(1e-4, 1e4, 96)  # the Bernstein ellipses E_rho of the node bound
# a Lanczos solve's time in flops of the dense solve: 600 m F r on `_KhatriRao` and
# 2000 n gates on `_Buckets`, measured crossovers of some 80 matvecs (`_solve`)
_DENSE_WORK = {"family": 600, "bins": 2000}


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
    route: str | None = None  # "pairs", "family", "buckets" or "bins", set by the Delta norms
    size: int | None = None  # the index count n, set by the Delta norms
    nodes: int | None = None  # the quadrature nodes J, set on the family route
    bins: int | None = None  # the bin count of the buckets, set on the bins route


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
    """(T/2) sinc(LT/4), the real factor of I_T(L), for `t_integral`; even
    in L, and exactly T/2 at L = 0.  A window past the float64 range gives
    NaN without a warning.  The pair side builds the same factor from the
    sine addition formula (`_pair_gram`)."""
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
    members(), the reads of residue tables, built on call like `index`."""

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
                   lambda: [((value_table(chi), 1), (value_table(theta), 1))
                            for _, chi, theta in family_members(spec)],
                   spec.T)


def _additive_rows(moduli):
    """The additive members (q, t): t primitive mod q (t = 0 for q = 1)."""
    return [(q, t) for q in moduli for t in range(q) if gcd(t, q) == 1]


def _additive(Q, N):
    _check_terms(Q)
    a, b = _coprime_pairs(N, "dyadic")
    moduli = _moduli(Q)

    def members():  # reads of one e_q table for all of q's members
        tables = {q: np.exp(2j * np.pi * np.arange(q) / q) for q in moduli}
        return [((tables[q], t),) for q, t in _additive_rows(moduli)]

    return _Family(a, b, _congruence_terms(moduli, lambda d: d), members)


def _rational(Q, N):
    _check_terms(Q)
    a, b = _coprime_pairs(N)
    moduli = range(1, int(Q) + 1)
    return _Family(a, b, _congruence_terms(moduli, totient),
                   lambda: [((value_table(chi), 1),) for q in moduli
                            for chi in primitive_chars(q)],
                   point=RationalPoint)


# ----- pair side: one exact congruence sum -----------------------------

def _congruence_sum(a, b, terms, rows=None):
    """The float64 matrix on the indices `rows` (all by default) against
    the whole index,

        S[i, m] = sum of c over the terms (g, d, c, s) with, for n = rows[i],
            gcd(a_n b_n a_m b_m, g) = 1 and a_n b_m = s a_m b_n mod d.

    Each d divides its g, so on the gated indices, gcd(a_n b_n, g) = 1, the
    congruence is u_n = s u_m for u = a bbar mod d.  A term with phi(d) <=
    _DENSE_PHI owns phi(d) columns, one per unit residue mod d: row i of U
    holds c in the column of u_n and row m of U_s holds 1 in the column of
    s u_m, and these terms sum to U U_s^T, taken as float64 GEMMs over
    chunks of whole terms, each step = min(_PRODUCT_BLOCK / n, rows / 2)
    columns or over by less than one term, added to S in blocks of
    _CHECK_ROWS rows.  A term with larger phi(d) matches about
    n^2 / phi(d) pairs, far fewer than its n^2 phi(d) GEMM terms; it adds c
    into the same S at each matching pair, found by sorting the labels, in
    slices of step rows.  For weights c that are multiples of 1/2, every
    partial sum of either kind is a multiple of 1/2 of size at most
    sum |c| < 2^52, so S is exact whatever the BLAS summation order or
    thread count, and equal to the rows of the square S."""
    n = len(a)
    rows = np.arange(n) if rows is None else rows
    prod = a * b
    gates, dense, sparse = {}, [], []  # (gated rows, gated columns, d, c, s)
    for g, d, c, s in terms:
        if g not in gates:
            unit = np.gcd(prod, g) == 1
            gates[g] = np.flatnonzero(unit[rows]), np.flatnonzero(unit)
        (dense if totient(d) <= _DENSE_PHI else sparse).append((*gates[g], d, c, s))
    if sum(abs(c) for _, _, c, _ in terms) >= 2**52:
        raise ValueError("congruence weights too large for an exact float64 product")
    # S is an exact sum, so the order of the terms is free: in order of d,
    # each d's residues are built once and dropped after its last term
    dense.sort(key=lambda term: term[2])
    sparse.sort(key=lambda term: term[2])
    residues = {}
    # columns[d][r] numbers the units r mod d of a dense term as 0, ..., phi(d) - 1
    columns = {d: np.cumsum(np.gcd(np.arange(d), d) == 1) - 1 for _, _, d, _, _ in dense}

    def labels(gated, cols, d, s):
        if d not in residues:
            residues.clear()
            residues[d] = _reduce(a, b, d)[0]
        u = residues[d]
        return u[rows[gated]], s * u[cols] % d

    def add_product(chunk, width):
        """S += U U_s^T over the whole terms of one chunk."""
        U, Us = np.zeros((len(rows), width)), np.zeros((n, width))
        first = 0
        for gated, cols, d, c, s in chunk:
            u, us = labels(gated, cols, d, s)
            U[gated, first + columns[d][u]] = c
            Us[cols, first + columns[d][us]] = 1
            first += totient(d)
        for r in range(0, len(rows), _CHECK_ROWS):
            S[r:r + _CHECK_ROWS] += U[r:r + _CHECK_ROWS] @ Us.T

    # U and U_s together stay within 8 bytes per entry of S plus fewer than
    # _DENSE_PHI columns, and each chunk's product goes into S in row blocks,
    # so no second array of the size of S sits beside it (_pair_route_bytes)
    step = max(1, min(_PRODUCT_BLOCK // max(n, 1), len(rows) // 2))
    S = np.zeros((len(rows), n))
    chunk, width = [], 0
    for t, term in enumerate(dense, 1):
        chunk.append(term)
        width += totient(term[2])
        if width >= step or t == len(dense):
            add_product(chunk, width)
            chunk, width = [], 0
    flat = S.reshape(-1)
    for gated, cols, d, c, s in sparse:
        u, us = labels(gated, cols, d, s)
        order = np.argsort(us)
        us = us[order]
        for lo in range(0, len(gated), step):
            # within one term and one slice each (row, column) comes once
            i, j = _matches(order, us, u[lo:lo + step], gated[lo:lo + step])
            flat[i * n + cols[j]] += c
    return S


def _matches(order, keys, queries, ids):
    """(ids[i], order[j]) for each match queries[i] = keys[j] of the keys
    sorted by order, i ascending: query i matches keys[start_i:start_i + count_i]."""
    start = np.searchsorted(keys, queries, "left")
    count = np.searchsorted(keys, queries, "right") - start
    return np.repeat(ids, count), order[_ranges(start, count)]


def _member_count(terms):
    """F, the congruence sum at 1/1: every gate holds and u = 1 = s u mod d."""
    return int(sum(c for _, d, c, s in terms if (1 - s) % d == 0))


def _pair_gram(fam, order=None, rows=None):
    """The pair-side matrix of a family, float64: the congruence sum S of
    its terms (integers, or halves for a parity) for a discrete family
    (T None), and S o K for a window, K[n, m] = (T/2) sinc((L_n - L_m) T/4),
    multiplied into S in place in row blocks so that the temporaries stay
    small.  Its columns are the index in `order` and its rows the
    positions `rows` of those (all of each by default: the square).

    K comes from the sine addition formula on s = 2 sin(alpha L) and
    c = cos(alpha L), alpha = T/4, taken once an index:
    K[n, m] = (s_n c_m - c_n s_m) / (L_n - L_m), and exactly T/2 where
    L_n = L_m.  That is O(n) sines and cosines where sinc takes one an
    entry.  The products commute and a negation is exact, so K is exactly
    symmetric, and sigma: L -> -L leaves it exactly invariant, as sin is
    odd and cos even.  Against sinc it loses the cancellation of the
    products, about eps (16/T + Lmax) / |L_n - L_m| of T/2 for eps =
    2^-52 (`tests/test_window_property.py`).  A window past the float64
    range gives non-finite entries without a warning, which `_Dense`
    refuses."""
    a, b, L = fam.a, fam.b, fam.L
    if order is not None:
        a, b, L = a[order], b[order], L[order]
    S = _congruence_sum(a, b, fam.terms, rows)
    if fam.T is not None:
        rows = slice(None) if rows is None else rows
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s, c = 2 * np.sin(fam.T / 4 * L), np.cos(fam.T / 4 * L)
            Lr, sr, cr = L[rows], s[rows], c[rows]
            for i in range(0, len(Lr), _CHECK_ROWS):
                r = slice(i, i + _CHECK_ROWS)
                D = np.subtract.outer(Lr[r], L)
                K = np.multiply.outer(sr[r], c)
                K -= np.multiply.outer(cr[r], s)
                K /= D
                K[D == 0] = fam.T / 2
                S[r] *= K
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
    """V[n, f] = product over member f's reads (table, t) of
    table[t red_m(a_n / b_n) mod m], m = len(table), red_m(a/b) = a bbar
    mod m; 0 where gcd(a_n b_n, m) > 1.  A character is read at t = 1; an
    additive member (q, t) reads e_q at t, one table for all of q's members.
    One reduction is held at a time."""
    V = np.ones((len(a), len(members)), dtype=np.complex128)
    reads = {}
    for f, member in enumerate(members):
        for table, t in member:
            reads.setdefault(len(table), []).append((f, table, t))
    for m, group in reads.items():
        red, unit = _reduce(a, b, m)
        for f, table, t in group:
            V[:, f] *= np.where(unit, table[red * t % m], 0)
    return V


def _gauss_nodes(lo, hi, n):
    """The n-point Gauss-Legendre nodes and weights on [lo, hi] by Golub
    and Welsch (Math. Comp. 23, 1969): the nodes on [-1, 1] are the
    eigenvalues of the Jacobi matrix of the Legendre polynomials, with
    off-diagonal k / sqrt(4k^2 - 1), and the weights 2 v_0^2 for the first
    entries v_0 of its unit eigenvectors; both made symmetric about 0."""
    k = np.arange(1.0, n)
    x, V = np.linalg.eigh(np.diag(k / np.sqrt(4 * k * k - 1), -1))  # eigh reads the lower half
    x, w = (x - x[::-1]) / 2, V[0] ** 2 + V[0, ::-1] ** 2
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _quadrature_nodes(n, Lmax, T):
    """The fewest Gauss-Legendre nodes J on [T/2, T] that move the Delta of
    n indices with |L| <= Lmax by at most _QUADRATURE_TOL relative.  With
    t = 3T/4 + (T/4) x, an entry of P P^H is the J-point rule for
    (T/4) e^{iwx}, |w| <= w* = T Lmax / 2, at most e^{w* (rho - 1/rho) / 2}
    on the Bernstein ellipse E_rho; so the entries of E = P P^H - I_T err
    by at most eps_J = (T/4) (64/15) e^{w* (rho - 1/rho) / 2}
    rho^(2 - 2J) / (rho^2 - 1) for each rho > 1 (Trefethen, SIAM Review 50,
    2008, whose rule has n + 1 = J points).  S is PSD, so
    |Delta_J - Delta| <= max S_nn ||E|| <= max S_nn n eps_J (Horn and
    Johnson, Topics in Matrix Analysis, 5.5), and Delta >= (T/2) max S_nn:
    J is the least with 2 n eps_J / T <= _QUADRATURE_TOL / 2, the nodes'
    half of the budget beside the rank cut (`_solve`), at some rho of
    _RHO, clamped at _ROUTE_BYTES, where the family estimate passes the cap
    whatever n is, so an overflowing T Lmax raises nothing."""
    x = (log(64 * max(n, 1) / (15 * _QUADRATURE_TOL)) + T * Lmax * (_RHO - 1 / _RHO) / 4
         - np.log(_RHO * _RHO - 1)) / (2 * np.log(_RHO))
    return 1 + ceil(min(x.min(), _ROUTE_BYTES))


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


def _rank_cut(P, w, T):
    """P Z_r for the eigenvectors Z_r of C = Re(P^H diag(w) P), the J x J
    Gram of the phases on the whole index, whose eigenvalues pass
    tau = T tol / (4 + 2 tol), tol = _QUADRATURE_TOL (`_solve`).  C comes
    from the float view of P, columns (Re, Im) of each node, beside one
    copy of it."""
    X = P.view(np.float64) * np.sqrt(w)[:, None]
    C = X.T @ X
    lam, Z = np.linalg.eigh(C[::2, ::2] + C[1::2, 1::2])
    return P @ Z[:, lam > T * _QUADRATURE_TOL / (4 + 2 * _QUADRATURE_TOL)]


class _KhatriRao:
    """H = A^H A for A = V (row-wise Khatri-Rao) P, A[n, (f, j)] =
    V[n, f] P[n, j], on the (member, node) space of size F J, from V and P
    on the rows R = {a <= b} of an index closed under a/b -> b/a, where
    A[b/a] = conj A[a/b]: H is real and, with w = 2 (1 at 1/1) and
    X = x.reshape(F, J), H x = Re(A_R^H (w o A_R x)) for
    A_R x = ((P X^T) o V) 1 and Re(A_R^H u) = Re((V o conj(u))^T P), summed
    over row blocks of at most _PRODUCT_BLOCK entries of V or P; neither A
    nor H is formed, but `matrix()` forms H for a dense solve.  `bounds()`
    gives the exact diagonal sum_R w |V|^2 |P|^2, the all-ones form
    sum_R w |A_R 1|^2 and the bound min(||A||_F^2, ||A||_1 ||A||_inf) >=
    lambda_max(H), with w-weighted column sums; with `shape`, the contract
    of `top_eigenvalue`.  Raises ValueError on non-finite V or P."""

    def __init__(self, V, P, w):
        if not (np.isfinite(V).all() and np.isfinite(P).all()):
            raise ValueError("member or phase matrix has non-finite entries")
        self.grid = (V.shape[1], P.shape[1])  # (F, J)
        self.shape = (V.shape[1] * P.shape[1],) * 2
        step = _block_rows(*self.grid)
        self.blocks = [(V[s:s + step], P[s:s + step], w[s:s + step])
                       for s in range(0, len(V), step)]

    def __matmul__(self, x):
        X = x.reshape(self.grid).T
        z = np.zeros(self.grid)
        for V, P, w in self.blocks:
            u = w * np.einsum("nf,nf->n", V, P @ X)
            z += ((V * u.conj()[:, None]).T @ P).real
        return z.reshape(-1)

    def matrix(self):
        """H, F J x F J, as the sum of B^T B over blocks of _CHECK_ROWS rows,
        B the real and imaginary parts of sqrt(w) A_R stacked."""
        H = np.zeros(self.shape)
        for V, P, w in self.blocks:
            for s in range(0, len(V), _CHECK_ROWS):
                A = V[s:s + _CHECK_ROWS, :, None] * P[s:s + _CHECK_ROWS, None, :]
                A *= np.sqrt(w[s:s + _CHECK_ROWS])[:, None, None]
                B = np.concatenate([A.real, A.imag]).reshape(-1, self.shape[0])
                H += B.T @ B
        return H

    def bounds(self):
        diag, norm_1 = np.zeros(self.grid), np.zeros(self.grid)
        norm_inf = ones = 0.0
        for V, P, w in self.blocks:
            aV, aP = np.abs(V), np.abs(P)
            norm_inf = max(norm_inf, float((aV.sum(axis=1) * aP.sum(axis=1)).max()))
            wV = aV * w[:, None]
            norm_1 += wV.T @ aP
            wV *= aV
            diag += wV.T @ np.square(aP, out=aP)
            y = V.sum(axis=1) * P.sum(axis=1)
            ones += float(np.vdot(y, w * y).real)
        cap = min(float(diag.sum()), float(norm_1.max(initial=0.0)) * norm_inf)
        return diag.reshape(-1), ones, cap


def _fold(a, b):
    """The rows a <= b of an index closed under sigma: a/b -> b/a, with
    weights 2, or 1 at a fixed point a = b, and the position sigma(r) of
    each one's twin; ValueError when it is not closed."""
    first, twin = np.lexsort((b, a)), np.lexsort((a, b))
    if not (np.array_equal(a[first], b[twin]) and np.array_equal(b[first], a[twin])):
        raise ValueError("the folded routes need an index closed under a/b -> b/a")
    sigma = np.empty_like(first)
    sigma[first] = twin  # the k-th of (a, b) order is the twin of the k-th of (b, a)
    reps = np.flatnonzero(a <= b)
    return reps, np.where(a[reps] == b[reps], 1.0, 2.0), sigma[reps]


def _pair_blocks(fam):
    """The even and odd blocks of the pair side M, whose spectra together
    are M's.  sigma: a/b -> b/a leaves M invariant, M[sigma, sigma] = M, so
    on the reps R = {a <= b} (`_fold`), with A = M[R, R] and
    B = M[R, sigma R], the even block is E = A + B and the odd block
    O = A - B on the free reps, except at a fixed point f = 1/1: E keeps
    M[f, f], and the rest of its row and column is sqrt(2) M[., f].  Both
    are views of one rectangle, M on the rows R, free reps first, against
    the columns [R | sigma(free R)], which `_pair_gram` builds and the fold
    overwrites in place, row block by row block, beside a _CHECK_ROWS-row
    copy of A."""
    reps, weight, twin = _fold(fam.a, fam.b)
    free = weight == 2
    m, p = len(reps), int(free.sum())
    X = _pair_gram(fam, np.concatenate([reps[free], reps[~free], twin[free]]), np.arange(m))
    for s in range(0, p, _CHECK_ROWS):
        e = min(s + _CHECK_ROWS, p)
        A = X[s:e, :p].copy()
        X[s:e, :p] += X[s:e, m:]
        np.subtract(A, X[s:e, m:], out=X[s:e, m:])
    X[:p, p:m] *= np.sqrt(2)
    X[p:m, :p] = X[:p, p:m].T
    return X[:, :m], X[:p, m:]


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
    That is O(n) a gate and O(entries), against O(n^2) for S.  So
    S = U M U^T for the n x bins indicator U of the labels and the M of
    `matrix()`, and `counts()` gives W = U^T U: the bins route
    (`_bin_space`) reads both.  `_solve` builds it for a discrete family
    alone.

    `bounds()` gives the exact diagonal sum c [r = s r mod d], the all-ones
    form sum_r count[r] C1[r] for the bucket counts and their C1, both
    exact sums of halves, and the cap max_n sum over the terms of |c| times
    the count of m matching n, never below the Gershgorin row sum; with
    `shape`, the contract of `top_eigenvalue`."""

    def __init__(self, fam):
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

    def pairs(self):
        """The (entry, entry) pairs whose read and fold keys match, the terms
        of `matrix()`: per key, the reads at it times the folds at it."""
        return int(np.bincount(self.read, minlength=self.keys)
                   @ np.bincount(self.fold, minlength=self.keys))

    def matrix(self):
        """M, bins x bins, the matrix of `_apply`: C = M B, so S = U M U^T
        for the n x bins indicator U of the labels.  M[p, p'] is the sum of
        the weights of the entries at p whose read is the fold of an entry
        at p', each match found by sorting the folds; M is symmetric, as
        r' = s r mod d is r = s r' for s = +-1, and exact, a sum of halves."""
        order = np.argsort(self.fold)
        e, match = _matches(order, self.fold[order], self.read, np.arange(len(self.pos)))
        return np.bincount(self.pos[e] * self.bins + self.pos[match], self.weight[e],
                           self.bins * self.bins).reshape(self.bins, self.bins)

    def counts(self):
        """W = U^T U, bins x bins: the bucket counts on the diagonal, since a
        row has one label a gate, and for each pair of gates the joint
        counts of their labels, one 2-D bincount, O(n gates^2) in all."""
        W = np.diag(self._buckets())
        for i, (first, bins, labels) in enumerate(self.gates):
            labels = labels.astype(np.intp)
            for other, width, across in self.gates[i + 1:]:
                key = labels * width
                key += across
                block = np.bincount(key, minlength=bins * width).reshape(bins, width)
                W[first:first + bins, other:other + width] = block
                W[other:other + width, first:first + bins] = block.T
        return W


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


def gram_bruteforce(spec, index):
    """Oracle: the same Gram matrix by explicit sums over (q, chi, theta)
    and 96-node Gauss-Legendre quadrature of the t-integral."""
    return _family_gram(_multiplicative(spec, *_pair_arrays(index)), 96)


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
    # V, 16 bytes an entry; each modulus's table of q <= Q values; each
    # member's read and row (q, t); each index's point object and the
    # temporaries of one reduction in `_member_matrix`
    need = 16 * n * F + (16 * Q + 128) * len(moduli) + 256 * F + (_POINT_BYTES + 64) * n
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
    max_i sum_j |M[i, j]| of a real square array M; ValueError, and no
    warning, when an entry is not finite or a sum overflows.  Row blocks
    keep the temporaries far below the size of M."""
    ceiling = 0.0
    with np.errstate(over="ignore"):
        for s in range(0, M.shape[0], _CHECK_ROWS):
            a = np.abs(M[s:s + _CHECK_ROWS])
            if not isfinite(float(a.max())):
                raise ValueError("matrix has non-finite entries")
            ceiling = max(ceiling, float(a.sum(axis=1).max()))
        total = float(M.sum())
    if not (isfinite(ceiling) and isfinite(total)):
        raise ValueError("matrix sums overflow float64")
    return M.diagonal(), total, ceiling


class _Dense:
    """A real symmetric float64 array as an operator of `top_eigenvalue`,
    with its `_dense_bounds` taken once, on construction, which refuse a
    non-finite entry; the caller vouches that it is symmetric, as the pair
    route's blocks are by construction."""

    def __init__(self, M):
        self.matrix, self.shape = M, M.shape
        self._bounds = _dense_bounds(M)

    def __matmul__(self, x):
        return self.matrix @ x

    def bounds(self):
        return self._bounds


def _below(B, mu):
    """True when a Cholesky proves lambda_max(B) < mu for the real symmetric
    k x k array B.  It factors A - cI for A = mu I - B with Rump's margin
    c = 2 (k + 2) eps tr(A), eps = 2^-52: a float64 Cholesky of A - cI
    that runs to completion proves A positive definite once c passes
    (k + 1) u tr(A) / (1 - (k + 1) u), u = eps / 2 (Rump, BIT 46, 2006),
    and the margin is four times that, which also covers the rounding of
    mu - B_ii.  False when A - cI has a diagonal entry that is not
    positive or finite, or the factor breaks down or has a pivot that is
    not finite, as it does on any non-finite entry; no warning is raised.
    The factor runs in place on B's storage: B is negated, its diagonal
    set to that of A - cI, factored and negated back, and its diagonal
    restored, so B comes back bitwise unchanged and the factor, with
    LAPACK's copy of it, 16 k^2 bytes, is the only new memory.  An empty B
    has no eigenvalue: True."""
    k = len(B)
    if k == 0:
        return True
    saved = B.diagonal().copy()
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = mu - saved
        shifted -= 2 * (k + 2) * 2.0**-52 * shifted.sum()
    if not (shifted > 0).all():
        return False
    diagonal = np.einsum("ii->i", B)  # a writable view
    np.negative(B, out=B)
    diagonal[:] = shifted
    try:
        # a NaN pivot passes the test for a positive one, so read the pivots:
        # any non-finite entry of B's lower half reaches its row's pivot
        return bool(np.isfinite(np.linalg.cholesky(B).diagonal()).all())
    except np.linalg.LinAlgError:
        return False
    finally:
        np.negative(B, out=B)
        diagonal[:] = saved


def _start(k, seed):
    """k draws (z >> 11) 2^-52 - 1 in [-1, 1), z the SplitMix64 output at the
    state (seed + i) gamma, i < k, on uint64 arrays, which wrap where scalars warn."""
    z = np.arange(k, dtype=np.uint64) + np.uint64(seed)
    for mul, shift in ((0x9E3779B97F4A7C15, 30), (0xBF58476D1CE4E5B9, 27),
                       (0x94D049BB133111EB, 31)):
        z *= np.uint64(mul)
        z ^= z >> np.uint64(shift)
    return (z >> np.uint64(11)) * 2.0**-52 - 1.0


def top_eigenvalue(G, tol=1e-9, max_iter=_MAX_ITER):
    """Largest eigenvalue of a real symmetric operator G, as a NormEstimate.

    G meets one contract: `shape` (n, n), `G @ x` on float64 vectors and
    `bounds()`, which returns the diagonal, the all-ones form 1^T G 1 and a
    true upper bound on lambda_max, as `_KhatriRao`, `_Buckets` and `_Dense`
    do.  Its callers are the routes of `_solve`: the Delta norms check tol,
    and max_iter, an integer >= 1, is the route's `_basis_rows`.

    Lanczos with full reorthogonalization in a float64 basis, from the
    first n `_start` draws of the seed _START_SEED, boosted at the largest
    diagonal entry.  The basis grows by doubling; the Lanczos tridiagonal T
    is held as its diagonal and off-diagonal, and formed only for a Ritz
    check, in the lower half that eigh reads.  Every _CHECK_STRIDE steps it
    takes the top Ritz pair of T and stops once |beta_j s_j| / max(|theta|,
    1) is at most tol; it takes the pair and stops at any step on Krylov
    breakdown (beta at most sqrt(n) eps times the upper bound of
    `bounds()`, the rounding of a matvec, which one ulp of the bound does
    not cover once BLAS splits the sums over threads), a non-finite beta or
    the min(n, max_iter)-th step.  The
    value is the Rayleigh quotient rho = y^T G y of the unit Ritz vector y,
    taken with one more matvec, so up to rounding a lower bound on
    lambda_max, raised to the floors max_i G[i, i] and 1^T G 1 / n (the
    Rayleigh quotients of the coordinate and all-ones vectors) and capped
    by the upper bound of `bounds()`.

    `residual` is ||G y - rho y|| / max(|rho|, 1).  For symmetric G it
    bounds the distance from rho to *some* eigenvalue, not necessarily to
    lambda_max; `iterations` counts the matvecs.  Raises ValueError when rho
    or the residual overflows (entries near the float64 range); the
    overflows on the way raise no warning.
    """
    n = G.shape[0]
    if n == 0:
        return NormEstimate(0.0, 0.0, 0, "lanczos")
    diag, total, ceiling = G.bounds()
    floor = max(float(diag.max()), total / n)

    v = _start(n, _START_SEED)
    v[int(np.argmax(diag))] += 2.0 * np.abs(v).max()
    steps = min(n, max_iter)
    # breakdown: beta within the rounding of a matvec, sqrt(n) ulps of the bound
    broken = sqrt(n) * np.finfo(np.float64).eps * ceiling
    basis = np.empty((min(steps, _FIRST_ROWS), n))
    alpha, beta = np.empty(steps), np.empty(steps)  # the diagonal and off-diagonal of T
    basis[0] = v / np.linalg.norm(v)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below when not finite
        for j in range(steps):
            w = G @ basis[j]
            alpha[j] = basis[j] @ w
            for _ in range(2):  # classical Gram-Schmidt, twice
                w -= (basis[: j + 1] @ w) @ basis[: j + 1]
            b = float(np.linalg.norm(w))
            last = b <= broken or j + 1 == steps or not isfinite(b)
            if last or (j + 1) % _CHECK_STRIDE == 0:
                T = np.diag(alpha[: j + 1])
                T[np.arange(1, j + 1), np.arange(j)] = beta[:j]
                theta, S = np.linalg.eigh(T)
                if last or b * abs(S[-1, -1]) / max(abs(theta[-1]), 1.0) <= tol:
                    break
            if j + 1 == len(basis):  # grow the basis by doubling, never past n rows
                basis = np.pad(basis, ((0, min(2 * len(basis), steps) - j - 1), (0, 0)))
            basis[j + 1] = w / b
            beta[j] = b

        y = S[:, -1] @ basis[: j + 1]
    value, res = _rayleigh(G, y, floor, ceiling)
    return NormEstimate(value, res, j + 2, "lanczos")


def _rayleigh(M, y, floor, ceiling):
    """The Rayleigh quotient rho of y on the operator M, with one matvec,
    once y is scaled to a unit vector in place, raised to `floor` and
    capped by `ceiling`, and its residual ||M y - rho y|| / max(|rho|, 1);
    ValueError, and no warning, when rho or the residual is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        y /= np.linalg.norm(y)
        My = M @ y
        rho = float(y @ My)
        res = float(np.linalg.norm(My - rho * y)) / max(abs(rho), 1.0)
    if not (isfinite(rho) and isfinite(res)):
        raise ValueError("the solve overflowed: its Rayleigh quotient or residual is not finite")
    return max(min(rho, ceiling), floor), res


def _lanczos_bytes(dim, rows):
    """Peak bytes of `top_eigenvalue`'s own arrays on an operator of
    dimension `dim` with a basis of at most `rows` vectors (its max_iter).
    Throughout, the basis at its capacity of `rows`, sixteen length-rows
    vectors (among them the diagonal and off-diagonal of T) and at most
    eight vectors of dim: the start draws, the diagonal of `bounds()` and a
    Gram-Schmidt product, and at the end the last step's matvec, the Ritz
    vector, its matvec and the two of the residual.  Beside them, the
    larger of two moments: the last doubling, where np.pad still holds the
    old basis, of `prev` rows, beside T and the Ritz vectors of the eigh
    just before, prev x prev each; and the last eigh, with T, the previous
    Ritz vectors and eigh's four rows x rows arrays (its copy of T, the two
    of syevd's workspace and the new Ritz vectors).  The operator's own
    temporaries are the route's."""
    prev = 1 << ((rows - 1).bit_length() - 1) if rows > _FIRST_ROWS else 0
    grow = dim * prev + 2 * prev * prev
    return 8 * (dim * (rows + 8) + 16 * rows + max(grow, 6 * rows * rows))


# ----------------------------------------------------------------------
# the Delta norms
# ----------------------------------------------------------------------

def _pair_route_bytes(n):
    """Peak bytes of the pair route on n indices beside its Lanczos basis:
    the float64 rectangle of the m = (n + 1) / 2 rows a <= b against the n
    columns (`_pair_blocks`), 8 m n, beside one chunk of its indicator
    columns inside _congruence_sum, U (m x width) and U_s (n x width) with
    width under step + _DENSE_PHI, step = min(_PRODUCT_BLOCK / n, m / 2).
    The window and the fold then run in place.  Plus fewer than sixteen
    float64 _CHECK_ROWS x n arrays: the row blocks of the product and the
    window, and the fold's copy of a row block."""
    m = (n + 1) // 2
    step = max(1, min(_PRODUCT_BLOCK // max(n, 1), m // 2))
    return 8 * m * n + 8 * (m + n) * (step + _DENSE_PHI) + 8 * 16 * _CHECK_ROWS * n


def _family_route_bytes(n, F, nodes):
    """Peak bytes of the family route on n indices and F members x nodes,
    as (setup, solve), the two stages over row blocks of b rows
    (`_block_rows`); one frees its temporaries before the other starts.
    Both hold a, b and L, 24 bytes an index; on the m = (n + 1) / 2 rows
    a <= b, their numbers and weights, 16 bytes a row, and V and P (m x F
    and m x nodes, complex); and two ufunc buffers.  Setup, before the
    Lanczos basis or H exists, adds the larger of the rank cut's weighted
    copy of P (`_rank_cut`, before V is built) and the temporaries of
    `bounds`: the float moduli of a block, the weighted |V| beside them and
    six length-b vectors, and three float F x nodes arrays, the diagonal,
    the column sums and a block's product.  The solve, beside the basis,
    adds a matvec's b x F complex temporary with two complex length-b
    vectors and its F x nodes complex product."""
    m = (n + 1) // 2
    b = min(m, _block_rows(F, nodes))
    held = 24 * n + 16 * m * (F + nodes + 1) + 32 * np.getbufsize()
    return (held + max(8 * b * (2 * F + nodes + 6) + 24 * F * nodes, 16 * m * nodes),
            held + 16 * b * (F + 2) + 16 * F * nodes)


def _bucket_sizes(n, terms):
    """The gates of a term list, the bytes of their labels on n indices and
    the terms' entries, each bounded before anything is built: a gate g
    has at most min(n, g) occupied residues, and its labels take the
    smallest unsigned integer type that holds their count."""
    gates = {g for g, _, _, _ in terms}
    labels = sum(n * np.min_scalar_type(min(n, g)).itemsize for g in gates)
    return len(gates), labels, sum(min(n, g) for g, _, _, _ in terms)


def _bucket_route_bytes(n, labels, entries):
    """Peak bytes of the bucket route on n indices, `labels` bytes of
    labels and `entries` term entries beside its Lanczos basis: the index
    arrays a, b and L, 24 bytes an index; the labels; 160 bytes an entry,
    its four stacked arrays beside the lists and the sort that build them;
    and twelve more float64 or int64 vectors, the residues, masks and sort
    of a gate's labels in setup and the bucket sums and gathers of a
    matvec."""
    return labels + 24 * n + 160 * entries + 96 * n


def _bins_route_bytes(bins, pairs):
    """Peak bytes of the bins route beside the buckets
    (`_bucket_route_bytes`): six float64 bins x bins arrays, and 48 bytes
    for each of the `pairs` of `_Buckets.matrix`, its five int64 vectors
    and its weights, counted whole.  The eigh of W holds five: W, eigh's
    copy of it, the two of syevd's workspace and the eigenvectors; the
    solve of G three: M Y, G and LAPACK's copy of G; M is built beside Y
    alone.  The temporaries of the pairwise counts of W and of the sort of
    the entries fit in those of the buckets' own setup, which are gone by
    then."""
    return 48 * bins * bins + 48 * pairs


def _bin_space(ops):
    """lambda_max of the S = U M U^T of `_Buckets` ops, in its bins: with
    W = U^T U = Y Y^T, the nonzero spectrum of S is that of the bins x bins
    G = Y^T M Y, and a top pair (theta, y) of G lifts to the eigenvector
    x = U M Y y of S, since S x = U M W M Y y = U M Y G y = theta x, with
    ||x|| = theta.  Y is W's eigenvectors times the square roots of its
    eigenvalues, less those at rounding level (below bins eps times the
    largest, numpy's `matrix_rank` default), where the gates' columns,
    each summing to the all-ones vector, make W singular; `_dense_top`
    solves G."""

    def gram():
        lam, V = np.linalg.eigh(ops.counts())
        rank = np.searchsorted(lam, len(lam) * np.finfo(np.float64).eps * lam[-1], "right")
        Y = V[:, rank:] * np.sqrt(lam[rank:])
        del V  # M is built beside Y alone (_bins_route_bytes)
        MY = ops.matrix() @ Y
        return Y.T @ MY, lambda y: ops._sum_over_gates(MY @ y)

    return NormEstimate(*_dense_top(ops, gram), 1, "eigh", bins=ops.bins)


def _dense_top(ops, gram):
    """The value and residual of lambda_max of the operator ops from a dense
    real symmetric G with ops's nonzero spectrum: gram(), called after
    ops's `bounds()`, gives G and the lift of its eigenvectors to ops's.
    G's top eigenvalue theta comes from eigvalsh, and its eigenvector y
    from one inverse-iteration solve (G - mu I) y = z, in place of G, at
    mu just above theta, from the `_start` draws z: eigh's eigenvectors
    would double the bytes.  The value is the Rayleigh quotient of the
    lift x on ops, raised to the floors and capped by the upper bound of
    `bounds()`, as in `top_eigenvalue`, and the residual is its residual on
    ops.  When x vanishes, G and so ops are 0 up to rounding, and x is the
    coordinate vector of ops's largest diagonal entry."""
    n = ops.shape[0]
    diag, total, ceiling = ops.bounds()
    G, lift = gram()
    theta = np.linalg.eigvalsh(G)[-1]
    y = _start(len(G), _START_SEED)
    if theta > 0:  # else G is 0 up to rounding, and any y is a top eigenvector
        np.einsum("ii->i", G)[:] -= theta * (1 + 4 * len(G) * 2.0**-52)
        y = np.linalg.solve(G, y)
    del G
    x = lift(y)
    if not np.linalg.norm(x):
        x = np.zeros(n)
        x[np.argmax(diag)] = 1.0
    return _rayleigh(ops, x, max(float(diag.max()), total / n), ceiling)


def _first_fit(order, need):
    """The first route of `order` whose `need` fits under _ROUTE_BYTES, or,
    when none does, the one with the smallest need, which then refuses."""
    return next((r for r in order if need[r] <= _ROUTE_BYTES), min(order, key=need.get))


def _basis_rows(what, fixed, dim):
    """The deepest Lanczos basis, at most min(dim, _MAX_ITER) rows, whose
    `_lanczos_bytes` on an operator of dimension dim fit beside a route's
    `fixed` bytes under _ROUTE_BYTES; ValueError naming `what` and its
    estimate with one row when not even that fits."""
    rows = bisect_right(range(1, min(dim, _MAX_ITER) + 1), _ROUTE_BYTES - fixed,
                        key=lambda rows: _lanczos_bytes(dim, rows))
    rows = max(rows, 1)
    _check_bytes(what, fixed + _lanczos_bytes(dim, rows), _ROUTE_BYTES)
    return rows


def _solve(fam, tol, route="auto"):
    """The one route rule: every Delta hands it its family, built once, and
    it builds the operator of the route it takes from that family alone,
    never a `GramMatrix` or a point object.  "pairs" takes the even and
    odd blocks of the real symmetric pair side (`_pair_blocks`), exactly
    symmetric by construction, as `_Dense` operators, whose bounds are
    taken once.  It solves the nonempty block with the larger Gershgorin
    cap with `top_eigenvalue`, and then proves the other's lambda_max at
    most that value by its cap when the cap is at most the value, or else
    tries to prove it below by a Cholesky
    (`_below`), when its factor fits in the room the basis has.  Proven,
    it reports the first solve, whose value is then the larger; otherwise
    it solves the other block too and reports the larger value with that
    block's residual.  `iterations` counts the matvecs of the solves that
    ran; "family", for a window only, the real H = A^H A of `_KhatriRao`,
    with the member values V and the phases P on the m rows a <= b
    (`_fold`), whose nonzero spectrum is the pair side's up to the
    quadrature of I_T on the J nodes of `_quadrature_nodes`, which move
    Delta by at most tol / 2 relative, tol = _QUADRATURE_TOL, and up to
    the rank cut of P (`_rank_cut`).  C = Re(P^H diag(w) P) is the Gram
    of the phases P^ on the whole index, real as P^[b/a] = conj P^[a/b].
    For its eigenvectors Z_r with eigenvalues above tau = T tol / (4 + 2
    tol), E = P^ P^H - P^ Z_r Z_r^T P^H is PSD, of norm the largest dropped
    eigenvalue, at most tau.  S is PSD, so by Schur 0 <= Delta_J - Delta_r
    <= max S_nn tau <= (2 tau / T) Delta_J, as Delta_J >= (T/2) max S_nn,
    and (2 tau / T) Delta_J <= (tol / (2 + tol)) (1 + tol / 2) Delta =
    (tol / 2) Delta: both together move Delta by at most tol.  Z is real,
    so H on P Z_r, of dimension F r, stays real.  The route solves it by one
    dense eigh (`_KhatriRao.matrix`, `_dense_top`), reported as one
    iteration, when F r (m + F r) <= 600 m, that is, when the dense solve's
    m (F r)^2 + (F r)^3 flops cost no more than a Lanczos solve, about 600
    m F r flops' time (`_DENSE_WORK`), and when its bytes, H beside a
    block's product and temporaries, fit under _ROUTE_BYTES; and by
    Lanczos otherwise; "buckets" the S of a discrete family through
    `_Buckets`; "bins", for a discrete family too, the dense eigh of G in
    the bins of those buckets (`_bin_space`), one matvec of S.  "auto", for
    a discrete family (T None), tries the bins first when bins^3 <= 2000 n
    gates, where their dense solve costs no more than a Lanczos solve on
    the buckets, and the buckets first otherwise; with a
    window, it tries the family side first when 2 F J < n, counting the
    members F from the terms (`_member_count`), and the pair side first
    otherwise.  Either way it takes the first of the two
    whose estimate, with a one-vector basis on a Lanczos route, fits under
    _ROUTE_BYTES, or, when neither fits, the one with the smaller
    estimate, which then refuses.  Every Lanczos route takes the deepest
    basis that fits beside its size estimate (`_basis_rows`), and raises
    ValueError when not even one vector fits; the discrete routes refuse
    before the buckets are built when they alone, or on the bucket route
    with a one-vector basis, do not fit, and the bins route when its
    `_bins_route_bytes` beside them do not; the family route refuses,
    before P is built, when its setup stage, which runs before the basis
    exists, or a one-vector basis on F J dimensions does not fit, even
    where the other route would.  ValueError also on the family route
    on a discrete family, on the bins and bucket routes on a window, and
    on the pair and family routes on an index not closed under
    a/b -> b/a, before their matrices are built.  The NormEstimate records
    the route that ran, the index count n, on the family route J and on
    the bins route the bin count."""
    n = len(fam.a)
    if route in ("bins", "buckets") or (route == "auto" and fam.T is None):
        if fam.T is not None:
            raise ValueError(f"the {route} route serves the discrete families only")
        gates, labels, entries = _bucket_sizes(n, fam.terms)
        fixed = _bucket_route_bytes(n, labels, entries)
        what = f"buckets route on {n} indices x {gates} gates"
        if route == "buckets":  # refused before the buckets are built
            steps = _basis_rows(what, fixed, n)
        else:  # the buckets, which both routes read, before they are built
            _check_bytes(what, fixed, _ROUTE_BYTES)
        ops = _Buckets(fam)
        if route != "buckets":
            need = {"bins": fixed + _bins_route_bytes(ops.bins, ops.pairs()),
                    "buckets": fixed + _lanczos_bytes(n, 1)}
            if route == "auto":
                cheap = ops.bins**3 <= _DENSE_WORK["bins"] * n * gates
                route = _first_fit(("bins", "buckets") if cheap else ("buckets", "bins"), need)
            if route == "bins":
                _check_bytes(f"bins route on {n} indices x {ops.bins} bins", need["bins"],
                             _ROUTE_BYTES)
                return replace(_bin_space(ops), route=route, size=n)
            steps = _basis_rows(what, fixed, n)
        return replace(top_eigenvalue(ops, tol=tol, max_iter=steps), route=route, size=n)
    if route != "pairs":
        if fam.T is None:
            raise ValueError("the family route serves the windowed families only")
        nodes = _quadrature_nodes(n, float(np.abs(fam.L).max(initial=0.0)), fam.T)
        F = _member_count(fam.terms)
        setup, fixed = _family_route_bytes(n, F, nodes)
        if route == "auto":
            order = ("family", "pairs") if 2 * F * nodes < n else ("pairs", "family")
            # each route's least bytes: its stages beside a one-vector basis
            need = {"pairs": _pair_route_bytes(n) + _lanczos_bytes((n + 1) // 2, 1),
                    "family": max(setup, fixed + _lanczos_bytes(F * nodes, 1))}
            route = _first_fit(order, need)
    if route == "pairs":
        fixed = _pair_route_bytes(n)
        # the even block is the larger, and never empty: it has (n + 1) // 2 rows
        steps = _basis_rows(f"pairs route on {n} indices", fixed, (n + 1) // 2)
        blocks = [_Dense(block) for block in _pair_blocks(fam) if len(block)]
        first, *rest = sorted(blocks, key=lambda block: -block.bounds()[2])
        top = top_eigenvalue(first, tol=tol, max_iter=steps)
        if rest:
            (other,) = rest
            k = len(other.matrix)
            # the certificate holds its factor and LAPACK's copy where the basis was
            fits = fixed + 16 * k * k <= _ROUTE_BYTES
            proven = other.bounds()[2] <= top.value or (fits and _below(other.matrix, top.value))
            if not proven:
                second = top_eigenvalue(other, tol=tol, max_iter=steps)
                even, odd = (top, second) if first is blocks[0] else (second, top)
                top = replace(max(even, odd, key=lambda estimate: estimate.value),
                              iterations=even.iterations + odd.iterations)
        return replace(top, route=route, size=n)
    reps, weight, _ = _fold(fam.a, fam.b)
    what = f"family route on {F} members x {nodes} nodes"
    _check_bytes(what, max(setup, fixed + _lanczos_bytes(F * nodes, 1)), _ROUTE_BYTES)
    # P before V: its outer-product temporary then has no V beside it
    P = _rank_cut(_phase_matrix(fam.L[reps], fam.T, nodes), weight, fam.T)
    ops = _KhatriRao(_member_matrix(fam.members(), fam.a[reps], fam.b[reps]), P, weight)
    m, k = len(reps), ops.shape[0]
    # beside `fixed`: H with a block's product, A and B, or H's LAPACK copy
    if (0 < k * (m + k) <= _DENSE_WORK["family"] * m
            and fixed + 16 * k * k + 32 * _CHECK_ROWS * k <= _ROUTE_BYTES):
        estimate = NormEstimate(*_dense_top(ops, lambda: (ops.matrix(), lambda y: y)), 1, "eigh")
    else:
        estimate = top_eigenvalue(ops, tol=tol, max_iter=_basis_rows(what, fixed, k))
    return replace(estimate, route=route, size=n, nodes=nodes)


def _require_tol(tol):
    """ValueError unless tol, the Lanczos stopping tolerance of a Delta, is
    a finite number >= 0: inf stopped Lanczos after one step and nan never
    did.  Checked on every route, the dense ones too, which do not read it."""
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def delta(Q, k=1, T=1.0, N=1.0, tol=1e-9, parity=None):
    """Delta(Q, k, T, N): the multiplicative-family norm on the dyadic
    window N/2 < ab <= N, as the largest Gram eigenvalue, on the route that
    the route rule of `_solve` takes."""
    spec = FamilySpec(Q, k, T, parity)
    _require_tol(tol)
    return _solve(_multiplicative(spec, *_coprime_pairs(N, "dyadic")), tol)


def delta_add(Q, N, tol=1e-9):
    """Additive-family norm (Ramanujan-sum Gram) on the dyadic window."""
    FamilySpec(Q)
    _require_tol(tol)
    return _solve(_additive(Q, N), tol)


def delta_rational(Q, N, tol=1e-9):
    """Rational-family norm: all q <= Q, primitive characters, columns the
    positive rationals with ht <= N."""
    FamilySpec(Q)
    _require_tol(tol)
    return _solve(_rational(Q, N), tol)
