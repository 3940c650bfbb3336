"""Gram-matrix construction and extremal-eigenvalue machinery: oracle
equivalence, positivity, the t-integral's closed form, eigenvalue floors and
certificates, monotonicity, duality, the grid maximization, growth fits,
and the binary dump format."""

import csv
import functools
import io
import math
import re
import struct
import time
import warnings

import numpy as np
import pytest

from sievelab import norms
from sievelab.arith import divisors, mobius, primes_in, totient
from sievelab.experiments import (duality_check, exponent_fit, monotonicity_check_N,
                                  monotonicity_check_Q)
from sievelab.norms import (
    FamilySpec,
    additive_matrix,
    delta,
    delta_add,
    delta_rational,
    family_members,
    gram_additive,
    gram_bruteforce,
    gram_multiplicative,
    gram_rational,
    gram_rational_bruteforce,
    t_integral,
    top_eigenvalue,
)
from sievelab.rationals import (CoprimePair, RationalPoint, _coprime_pairs, enumerate_pairs,
                                rationals_up_to)

# sample grid through (Q <= 20) x (k <= 6) x (T in {1,2,4}) x (N <= 200)
ORACLE_GRID = [
    (3.0, 1, 1.0, 20.0),
    (4.0, 2, 2.0, 36.0),
    (7.0, 3, 1.0, 60.0),
    (9.0, 4, 4.0, 48.0),
    (12.0, 5, 2.0, 100.0),
    (16.0, 6, 1.0, 144.0),
    (11.0, 6, 4.0, 180.0),
    (1.5, 1, 2.0, 12.0),
    (6.0, 2, 4.0, 80.0),
    (20.0, 5, 4.0, 200.0),
]


def _delta_on(route, Q, k=1, T=1.0, N=1.0, tol=1e-9, parity=None):
    """delta(Q, k, T, N, tol, parity) on the named route, through the route
    rule `_solve`, which takes the route as its test seam."""
    fam = norms._multiplicative(FamilySpec(Q, k, T, parity), *norms._coprime_pairs(N, "dyadic"))
    return norms._solve(fam, tol, route)


def _pairs_prime_to(k, N):
    """The dyadic index of height N without the pairs whose ab shares a
    factor with k, which the family's gate zeroes."""
    return [p for p in enumerate_pairs(N, "dyadic") if math.gcd(p.a * p.b, k) == 1]


def _gram_pair(Q, k, T, N, parity=None):
    spec = FamilySpec(Q, k, T, parity=parity)
    index = _pairs_prime_to(k, N)
    return gram_multiplicative(spec, index), gram_bruteforce(spec, index)


# ----------------------------------------------------------------------
# oracle equivalence: closed form vs character/quadrature brute force
# ----------------------------------------------------------------------

def test_gram_oracle_equivalence_sample_grid():
    for (Q, k, T, N) in ORACLE_GRID:
        closed, brute = _gram_pair(Q, k, T, N)
        assert closed.index == brute.index
        diff = np.max(np.abs(closed.matrix - brute.matrix)) if closed.dim else 0.0
        assert diff <= 1e-8, (Q, k, T, N, diff)


def test_gram_oracle_equivalence_with_parity():
    for parity in ("even", "odd"):
        for (Q, k, T, N) in [(8.0, 3, 2.0, 60.0), (12.0, 1, 1.0, 48.0)]:
            closed, brute = _gram_pair(Q, k, T, N, parity=parity)
            diff = np.max(np.abs(closed.matrix - brute.matrix)) if closed.dim else 0.0
            assert diff <= 1e-8, (parity, Q, k, T, N, diff)


def test_rational_gram_oracle():
    for (Q, N) in [(1, 10), (4, 30), (7, 60), (12, 100)]:
        fast = gram_rational(Q, N)
        slow = gram_rational_bruteforce(Q, N)
        assert np.max(np.abs(fast.matrix - slow.matrix)) <= 1e-8, (Q, N)


# a and b need not be coprime; with _PRODUCT_BLOCK = 3n a chunk holds the
# whole terms that fill its three columns, so the product accumulates over
# many chunks, some wider than three columns by part of a term, and the
# matched pairs come in slices of three rows
_RNG = np.random.default_rng(7)
_A = _RNG.integers(1, 60, 24)
_B = _RNG.integers(1, 60, 24)
_MODULI = [(1,), (4, 8, 9), (12, 16, 18, 27), tuple(range(1, 13))]
# dense_phi sends every term to the matched pairs, splits them, or sends
# all to the product
_DENSE = pytest.mark.parametrize("dense_phi", [0, 4, 10**6], ids=["pairs", "mixed", "product"])


def _congruence_sum_by_loops(terms, a=_A, b=_B):
    """The docstring of norms._congruence_sum, term by term."""
    n = len(a)
    S = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for g, d, c, s in terms:
                if (math.gcd(int(a[i] * b[i] * a[j] * b[j]), g) == 1
                        and (int(a[i] * b[j]) - s * int(a[j] * b[i])) % d == 0):
                    S[i, j] += c
    return S


@pytest.mark.parametrize("moduli", _MODULI)
@pytest.mark.parametrize("ssign", [1, -1])
@pytest.mark.parametrize("twist", [(totient, 1), (lambda d: d, 1), (totient, 4)],
                         ids=["phi", "d", "twist-4"])
@_DENSE
def test_congruence_sum_matches_its_definition(moduli, ssign, twist, dense_phi, monkeypatch):
    # Moebius terms of sign ssign; twist-4 joins them with a modulus 4
    weight, k = twist
    terms = [(q * k, d * k, mobius(q // d) * weight(d) * totient(k), ssign)
             for q in moduli for d in divisors(q) if mobius(q // d)]
    monkeypatch.setattr(norms, "_PRODUCT_BLOCK", 3 * len(_A))
    monkeypatch.setattr(norms, "_DENSE_PHI", dense_phi)
    got = norms._congruence_sum(_A, _B, terms)
    assert got.dtype == np.float64
    assert np.array_equal(got, _congruence_sum_by_loops(terms))


@functools.lru_cache(maxsize=None)
def _pair_side_by_loops(moduli, weight, k, parity):
    """A family's pair side from its definition: for each sign s the sum
    over q in moduli with gcd(a_n b_n a_m b_m, q) = 1 of
    sum_{d | q} mu(q/d) weight(d) [a_n b_m = s a_m b_n mod d], times the
    sum over theta mod k, phi(k) [a_n b_m = s a_m b_n mod k] gated on
    gcd(a_n b_n a_m b_m, k) = 1; then S_+ without a parity, and
    (S_+ + eps S_-) / 2 with one."""
    n = len(_A)
    S = {1: np.zeros((n, n), dtype=np.int64), -1: np.zeros((n, n), dtype=np.int64)}
    for s, M in S.items():
        for i in range(n):
            for j in range(n):
                P = int(_A[i] * _B[i] * _A[j] * _B[j])
                x = int(_A[i] * _B[j] - s * _A[j] * _B[i])
                if math.gcd(P, k) != 1 or x % k:
                    continue
                for q in moduli:
                    if math.gcd(P, q) == 1:
                        M[i, j] += totient(k) * sum(mobius(q // d) * weight(d)
                                                    for d in divisors(q) if x % d == 0)
    if parity is None:
        return S[1]
    eps = 1 if parity == "even" else -1
    return (S[1] + eps * S[-1]) / 2


@pytest.mark.parametrize("moduli", _MODULI)
@pytest.mark.parametrize("k", [1, 3, 4])
@pytest.mark.parametrize("parity", [None, "even", "odd"])
@pytest.mark.parametrize("weight", [totient, lambda d: d], ids=["phi", "d"])
@_DENSE
def test_congruence_terms_match_their_definition(moduli, k, parity, weight, dense_phi,
                                                 monkeypatch):
    # the family's terms, with the twist joined by CRT and the parity as
    # half weights on the terms and their s = -1 twins, against the twist
    # and the parity taken separately: the congruence sum is the whole
    # pair side, with no pass after it
    moduli = tuple(q for q in moduli if math.gcd(q, k) == 1)
    monkeypatch.setattr(norms, "_PRODUCT_BLOCK", 3 * len(_A))
    monkeypatch.setattr(norms, "_DENSE_PHI", dense_phi)
    got = norms._congruence_sum(_A, _B, norms._congruence_terms(moduli, weight, k, parity))
    assert np.array_equal(got, _pair_side_by_loops(moduli, weight, k, parity))


@pytest.mark.parametrize("moduli", _MODULI[2:])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("parity", [None, "even", "odd"])
@_DENSE
def test_congruence_sum_on_rows_is_the_rows_of_the_square(moduli, k, parity, dense_phi,
                                                          monkeypatch):
    # S on some rows against the columns, in any order of the columns, is
    # bitwise those rows and columns of the square S: the half weights, the
    # s = -1 twins and the twist included.  The rows are the first half of
    # the columns, as the pair route folds them, or any positions
    terms = norms._congruence_terms(tuple(q for q in moduli if math.gcd(q, k) == 1),
                                    totient, k, parity)
    monkeypatch.setattr(norms, "_PRODUCT_BLOCK", 3 * len(_A))
    monkeypatch.setattr(norms, "_DENSE_PHI", dense_phi)
    square = norms._congruence_sum(_A, _B, terms)
    rng = np.random.default_rng(11)
    cols = rng.permutation(len(_A))
    for rows in (np.arange(len(_A) // 2 + 1), rng.choice(len(_A), 7), np.arange(1)):
        got = norms._congruence_sum(_A[cols], _B[cols], terms, rows)
        assert got.shape == (len(rows), len(_A))
        assert np.array_equal(got, square[cols][:, cols][rows])


def test_congruence_sum_refuses_weights_past_exact_float64():
    # the partial sums are multiples of 1/2, exact below 2^52
    one = np.ones(1, dtype=np.int64)
    assert norms._congruence_sum(one, one, [(1, 1, 2**52 - 0.5, 1)])[0, 0] == 2**52 - 0.5
    with pytest.raises(ValueError, match="exact"):
        norms._congruence_sum(one, one, [(1, 1, 2**52, 1)])


# ----------------------------------------------------------------------
# structural matrix properties
# ----------------------------------------------------------------------

def _all_sample_grams():
    out = []
    for (Q, k, T, N) in ORACLE_GRID[:6]:
        spec = FamilySpec(Q, k, T)
        out.append(gram_multiplicative(spec, _pairs_prime_to(k, N)))
    out.append(gram_multiplicative(FamilySpec(8.0, 3, 2.0, parity="even"),
                                   _pairs_prime_to(3, 60)))
    out.append(gram_multiplicative(FamilySpec(8.0, 3, 2.0, parity="odd"),
                                   _pairs_prime_to(3, 60)))
    out.append(gram_additive(10, 80))
    out.append(gram_rational(9, 90))
    return out


_DISCRETE = {"additive": (norms._additive, gram_additive),
             "rational": (norms._rational, gram_rational)}


@pytest.mark.parametrize("family,Q,N", [("additive", 10, 80), ("additive", 16, 200),
                                        ("rational", 9, 90), ("rational", 12, 100)])
def test_discrete_grams_are_real_exact_congruence_sums(family, Q, N):
    # no window: the Gram is the congruence sum itself, exact integers as
    # float64, which are the real parts of the complex128 Gram the pair
    # side built before
    build, gram = _DISCRETE[family]
    fam, g = build(Q, N), gram(Q, N)
    assert g.matrix.dtype == np.float64
    assert np.array_equal(g.matrix, norms._congruence_sum(fam.a, fam.b, fam.terms))
    if family == "rational":
        slow = gram_rational_bruteforce(Q, N).matrix
    else:
        mat = additive_matrix(Q, N)[2]
        slow = mat.conj().T @ mat
    assert np.abs(g.matrix - slow).max() <= 1e-9 * np.abs(slow).max(), (Q, N)


def _member_side(family, Q, N):
    """lambda_max by LAPACK of a discrete family's members x members Gram
    of its member values, which shares no arithmetic with the congruence
    sum: M M^H for the additive coefficient matrix M, and V^H V for the
    rational character values V, whose nonzero spectrum is that of the
    Gram V V^H by explicit character sums."""
    if family == "additive":
        mat = additive_matrix(Q, N)[2]
        return float(np.linalg.eigvalsh(mat @ mat.conj().T)[-1])
    fam = norms._rational(Q, N)
    V = norms._member_matrix(fam.members(), fam.a, fam.b)
    return float(np.linalg.eigvalsh(V.conj().T @ V)[-1])


@pytest.mark.parametrize("family,Q,N", [("additive", 12, 300), ("additive", 40, 300),
                                        ("rational", 12, 200), ("rational", 5, 100)])
def test_discrete_norms_agree_across_routes(family, Q, N):
    # delta_add and delta_rational take no route argument: the one route
    # rule is called with each route in turn.  The family route serves the
    # windowed families only, so the member side is the dense oracle
    build, _ = _DISCRETE[family]
    routes = ("pairs", "buckets", "bins")
    pairs, buckets, bins = (norms._solve(build(Q, N), 1e-9, route) for route in routes)
    assert (pairs.route, buckets.route, bins.route) == routes
    members = _member_side(family, Q, N)
    assert abs(pairs.value - members) <= 1e-9 * members, (pairs, members)
    # the buckets sum S x in another order than the dense S, and the bins
    # take the Rayleigh quotient of a lifted eigenvector of G: these four
    # moved by at most 4.4e-16 and 8.5e-16 relative
    assert abs(buckets.value - pairs.value) <= 1e-12 * pairs.value, (pairs, buckets)
    assert abs(bins.value - pairs.value) <= 1e-12 * pairs.value, (pairs, bins)
    norm = delta_add if family == "additive" else delta_rational
    # "auto" takes the bins where bins^3 <= 2000 n gates, and the buckets
    # at (40, 300): 382 bins against 702 indices and 20 gates
    assert norm(Q, N) == (buckets if (family, Q) == ("additive", 40) else bins)


def test_every_gram_is_hermitian_exactly():
    for g in _all_sample_grams():
        assert np.array_equal(g.matrix, g.matrix.conj().T), g.dim


def test_every_gram_is_positive_semidefinite():
    for g in _all_sample_grams():
        if g.dim == 0:
            continue
        eigs = np.linalg.eigvalsh(g.matrix)
        assert eigs[0] >= -1e-8 * max(eigs[-1], 1.0), (g.dim, eigs[0])


# ----------------------------------------------------------------------
# the t-integral: closed form, quadrature oracle, small-L bound
# ----------------------------------------------------------------------

def test_t_integral_matches_ratio_form():
    # the ratio form itself loses ~ulp/L digits as L -> 0, so compare
    # where it is a solid reference; the quadrature and Taylor tests
    # below cover the small-L regime
    for T in (1.0, 2.0, 4.0, 16.0):
        for L in np.geomspace(1e-3, 10.0, 40):
            for s in (1.0, -1.0):
                want = (np.exp(1j * T * s * L) - np.exp(1j * T * s * L / 2)) / (1j * s * L)
                got = t_integral(s * L, T)
                assert abs(got - want) <= 1e-12 * T, (T, s * L)


def test_t_integral_matches_quadrature():
    nodes, weights = np.polynomial.legendre.leggauss(64)
    for T in (1.0, 3.0, 8.0):
        t = T * 0.75 + (T / 4) * nodes
        wt = (T / 4) * weights
        for L in (-4.0, -0.3, 0.0, 0.17, 2.5):
            want = np.sum(wt * np.exp(1j * t * L))
            assert abs(t_integral(L, T) - want) <= 1e-9, (T, L)


def test_gauss_nodes_match_leggauss():
    # Golub-Welsch against numpy's companion-matrix rule with its Newton
    # step.  Past J = 140 leggauss's own weights err by up to 1.2e-14
    # (against 40-digit Newton roots, where these err by 5e-16), so the
    # weights get 2e-14 of it, and an oracle of their own: the rule is
    # exact to degree 2J - 1, so it keeps the Legendre polynomials below
    # degree J orthogonal, with norms 2 / (2a + 1)
    for J in range(1, 201):
        x, w = norms._gauss_nodes(-1.0, 1.0, J)
        want_x, want_w = np.polynomial.legendre.leggauss(J)
        assert np.abs(x - want_x).max() <= 1e-14, J
        assert np.abs(w - want_w).max() <= 2e-14, J
        P = np.polynomial.legendre.legvander(x, J - 1)
        gram = P.T @ (w[:, None] * P)
        assert np.abs(gram - np.diag(2 / (2 * np.arange(J) + 1.0))).max() <= 1e-13, J
    x, w = norms._gauss_nodes(2.0, 4.0, 5)  # mapped onto [T/2, T]
    want_x, want_w = np.polynomial.legendre.leggauss(5)
    assert np.abs(x - (3.0 + want_x)).max() <= 1e-14 and np.abs(w - want_w).max() <= 1e-14


def test_t_integral_taylor_branch_bound():
    for T in (1.0, 2.0, 4.0, 8.0, 16.0):
        for mag in [0.0] + list(np.geomspace(1e-18, 1e-6, 60)):
            for L in (mag, -mag):
                err = abs(t_integral(L, T) - T / 2)
                assert err <= abs(L) * T * T * (3.0 / 8.0) + 0.0, (T, L, err)


def test_t_integral_at_zero_is_exactly_half_T():
    # the diagonal of every windowed Gram: sinc(0) = e^0 = 1 exactly
    for T in (1.0, 2.0, 3.0, 4.0, 7.5, 16.0, 1e6):
        assert t_integral(0.0, T) == T / 2
        assert np.array_equal(t_integral(np.zeros(3), T), np.full(3, T / 2, dtype=complex))


# ----------------------------------------------------------------------
# eigenvalue engine
# ----------------------------------------------------------------------

def test_top_eigenvalue_trivial_cases():
    assert top_eigenvalue(norms._Dense(np.zeros((0, 0)))).value == 0.0
    est = top_eigenvalue(norms._Dense(np.ones((5, 5))))
    assert est.value == 5.0
    est = top_eigenvalue(norms._Dense(np.diag([3.0, 1.0, 2.0])))
    assert est.value == 3.0


def test_top_eigenvalue_power_route_certificate():
    # above the dense cutoff: power iteration with a residual certificate
    rng = np.random.default_rng(77)
    B = rng.standard_normal((600, 80))
    M = B @ B.T
    M = (M + M.T) / 2
    est = top_eigenvalue(norms._Dense(M))
    true = float(np.linalg.eigvalsh(M)[-1])
    assert abs(est.value - true) <= max(est.residual, 1e-9 * true)
    assert abs(est.value - true) <= 1e-8 * true


def _random_psd(n, kind, seed):
    """Seeded real PSD test matrices.  "wishart" is B B^T with B n x n/2;
    "triple" and "gap" are H diag(lam) H, H the product of two seeded
    Householder reflections, with a planted spectrum lam in [0, 1) topped
    by a triple eigenvalue 1 or by 1 and 1 - 1e-8."""
    rng = np.random.default_rng(seed)
    if kind == "wishart":
        B = rng.standard_normal((n, n // 2))
        M = B @ B.T
        return (M + M.T) / 2
    lam = rng.uniform(0.0, 0.9, n)
    top = [1.0, 1.0, 1.0] if kind == "triple" else [1.0, 1.0 - 1e-8]
    lam[rng.choice(n, len(top), replace=False)] = top
    M = np.diag(lam)
    for u in rng.standard_normal((2, n)):
        # (I - 2 u u^T) M (I - 2 u u^T) for a unit u, which keeps the spectrum
        u /= np.linalg.norm(u)
        Mu = M @ u
        M = M - 2 * np.outer(u, Mu) - 2 * np.outer(Mu, u) + 4 * (u @ Mu) * np.outer(u, u)
    return (M + M.T) / 2


@pytest.mark.parametrize("n", [50, 600, 1500])
@pytest.mark.parametrize("kind", ["wishart", "triple", "gap"])
def test_top_eigenvalue_matches_eigvalsh_on_random_psd(n, kind):
    M = _random_psd(n, kind, seed=n)
    est = top_eigenvalue(norms._Dense(M))
    true = float(np.linalg.eigvalsh(M)[-1])
    assert est.method == "lanczos"
    assert abs(est.value - true) <= 1e-12 * true, (est, true)
    assert est.residual <= 1e-9
    # the Ritz test runs every _CHECK_STRIDE steps, so a solve that neither
    # broke down nor reached its step cap took a multiple of them, plus the
    # matvec of the Rayleigh quotient
    assert est.iterations - 1 < n and (est.iterations - 1) % norms._CHECK_STRIDE == 0, est


def _random_symmetric(n, kind, seed):
    """Seeded real symmetric test matrices: "psd" is B B^T with B n x n/2,
    "indefinite" the symmetric part of an n x n Gaussian matrix."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n // 2 if kind == "psd" else n))
    M = B @ B.T if kind == "psd" else B
    return (M + M.T) / 2


@pytest.mark.parametrize("n", [50, 300, 800])
@pytest.mark.parametrize("kind", ["psd", "indefinite"])
def test_top_eigenvalue_matches_eigvalsh_on_random_real_symmetric(n, kind):
    M = _random_symmetric(n, kind, seed=n)
    est = top_eigenvalue(norms._Dense(M))
    true = float(np.linalg.eigvalsh(M)[-1])
    assert abs(est.value - true) <= 1e-9 * abs(true), (est, true)
    assert est.residual <= 1e-9
    # Ritz tests every _CHECK_STRIDE steps, as above
    assert est.iterations - 1 < n and (est.iterations - 1) % norms._CHECK_STRIDE == 0, est


class _Operator:
    """A matrix behind the solver's contract alone: shape, @ and bounds();
    it records the dtype of every vector it is applied to."""

    def __init__(self, M):
        self.shape = M.shape
        self.bounds = functools.partial(norms._dense_bounds, M)
        self.matrix, self.applied_to = M, set()

    def __matmul__(self, x):
        self.applied_to.add(x.dtype)
        return self.matrix @ x


def test_top_eigenvalue_reads_one_operator_contract():
    # an operator that is no _Dense gets the same solve as the _Dense of
    # its matrix, applied to float64 vectors alone
    M = _random_symmetric(300, "indefinite", seed=4)
    op = _Operator(M)
    assert top_eigenvalue(op) == top_eigenvalue(norms._Dense(M))
    assert op.applied_to == {np.dtype(np.float64)}


def test_top_eigenvalue_all_ones_breaks_down_exactly():
    # the Krylov space of the all-ones matrix is span(v, 1): the solve
    # stops on breakdown after two steps and returns n exactly
    n = 700
    est = top_eigenvalue(norms._Dense(np.ones((n, n))))
    assert est.value == float(n)
    assert est.iterations <= 3


def _splitmix_draw(seed, i):
    """The loop reference of `norms._start` in Python integers."""
    z = (seed + i) * 0x9E3779B97F4A7C15 % 2**64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return ((z ^ z >> 31) >> 11) * 2.0**-52 - 1.0


def test_start_stream_is_pinned():
    # pinned so the start vector, and with it every solve, is the same on
    # every platform: the first draws of _START_SEED, and for seed 0 the
    # draws 1 and 2, the SplitMix64 stream of state 0 (0xe220a8397b1dcdaf,
    # 0x6e789e6aa1b965f4)
    assert norms._start(4, norms._START_SEED).tolist() == [
        0.9305911382252656, -0.9056085943056216, -0.937839880720043, 0.7471417786161445]
    assert norms._start(3, 0)[1:].tolist() == [
        (0xE220A8397B1DCDAF >> 11) * 2.0**-52 - 1.0, (0x6E789E6AA1B965F4 >> 11) * 2.0**-52 - 1.0]
    # the uint64 arrays wrap without a RuntimeWarning, at either end of the
    # seed range, and agree with the loop in Python integers
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, norms._START_SEED, 2**63, 2**64 - 1):
            draws = norms._start(1000, seed)
            assert draws.dtype == np.float64 and draws.min() >= -1.0 and draws.max() < 1.0
            assert draws.tolist() == [_splitmix_draw(seed, i) for i in range(1000)]


def test_start_vector_is_the_stream_boosted_at_the_top_diagonal():
    # a solve starts from the first n draws, and the largest diagonal
    # entry gets a boost
    n = 6
    M = np.diag(np.arange(1.0, n + 1))
    first = []
    v = norms._start(n, norms._START_SEED)
    v[n - 1] += 2.0 * np.abs(v).max()

    class Recording(_Operator):
        def __matmul__(self, x):
            first.append(x.copy())
            return self.matrix @ x

    top_eigenvalue(Recording(M), max_iter=1)
    assert first[0].dtype == np.float64
    assert np.array_equal(first[0], v / np.linalg.norm(v))


def test_top_eigenvalue_is_bitwise_repeatable():
    for M in (_random_symmetric(300, "indefinite", seed=6), _random_psd(300, "wishart", seed=6)):
        one, two = top_eigenvalue(norms._Dense(M)), top_eigenvalue(norms._Dense(M))
        assert one == two
        assert struct.pack("<2d", one.value, one.residual) == struct.pack(
            "<2d", two.value, two.residual)


def test_top_eigenvalue_stops_at_max_iter_off_the_stride():
    M = _random_symmetric(200, "indefinite", seed=2)
    assert norms._CHECK_STRIDE > 1 and 6 % norms._CHECK_STRIDE
    capped = top_eigenvalue(norms._Dense(M), max_iter=6)
    assert capped.iterations == 7
    assert capped.residual > 1e-9


def test_top_eigenvalue_between_floors_and_gershgorin():
    # the real pair sides of the sample families: S o K for a window, with
    # the spectrum of the Hermitian Gram, and S for a discrete family
    mats = [norms._pair_gram(norms._multiplicative(FamilySpec(Q, k, T),
                                                   *norms._pair_arrays(_pairs_prime_to(k, N))))
            for (Q, k, T, N) in ORACLE_GRID[:6]]
    mats += [gram_additive(10, 80).matrix, gram_rational(9, 90).matrix,
             _random_psd(300, "wishart", seed=3)]
    for M in mats:
        n = M.shape[0]
        floor = max(M.diagonal().max(), M.sum() / n)
        ceiling = np.abs(M).sum(axis=1).max()
        val = top_eigenvalue(norms._Dense(M)).value
        assert floor <= val <= ceiling, (n, floor, val, ceiling)


def test_pair_route_gram_solves_in_few_matvecs():
    # delta(12, 3, 4, 400) takes the pair route at n = 970; power
    # iteration needed about 5000 matvecs here
    est = delta(12.0, 3, 4.0, 400.0)
    assert est.method == "lanczos"
    assert est.iterations <= 200, est.iterations


def test_top_eigenvalue_rejects_non_finite():
    # the dense operator refuses a non-finite entry as it takes its bounds
    M = _random_psd(600, "wishart", seed=5)
    M[3, 7] = M[7, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        top_eigenvalue(norms._Dense(M))
    with pytest.raises(ValueError, match="non-finite"):
        top_eigenvalue(norms._Dense(np.full((4, 4), np.inf)))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
@pytest.mark.parametrize("call", [
    pytest.param(lambda tol: delta_rational(12, 200, tol=tol), id="rational-bins"),
    pytest.param(lambda tol: delta_add(12, 300, tol=tol), id="additive-bins"),
    pytest.param(lambda tol: delta(10, 3, 4, 1000, tol=tol), id="family-dense"),
    pytest.param(lambda tol: delta(12, 3, 4, 400, tol=tol), id="pairs-lanczos"),
])
def test_every_delta_refuses_a_bad_tol_on_every_route(call, tol, monkeypatch):
    # a tolerance of inf stopped Lanczos after one step and nan never
    # stopped it; the dense routes never read it, and refuse it all the
    # same, before the index is built
    def index(*args):
        raise AssertionError("the index was built for a bad tol")

    monkeypatch.setattr(norms, "_coprime_pairs", index)
    with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
        call(tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_top_eigenvalue_rejects_an_overflowing_solve():
    # finite entries whose Lanczos norms overflow give a ValueError, not a
    # NaN value; delta reached them from T near 1e155
    for M in (np.full((4, 4), 1e300), 1e200 * np.eye(5), np.full((3, 3), -1e300)):
        with pytest.raises(ValueError, match="overflowed"):
            top_eigenvalue(norms._Dense(M))
    with pytest.raises(ValueError, match="overflowed"):
        delta(4.0, 1, 1e200, 40.0)
    # and a window too wide for int() is refused by the family estimate
    with pytest.raises(ValueError, match="family route .* over the"):
        _delta_on("family", 4.0, 1, 1e308, 40.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: FamilySpec(4.0, 1, float("nan")), id="spec-T-nan"),
    pytest.param(lambda: FamilySpec(float("inf"), 1, 1.0), id="spec-Q-inf"),
    pytest.param(lambda: FamilySpec(float("nan"), 1, 1.0), id="spec-Q-nan"),
    pytest.param(lambda: FamilySpec(4.0, 3.0, 1.0), id="spec-k-float"),
    pytest.param(lambda: FamilySpec(4.0, 2.5, 1.0), id="spec-k-fraction"),
    pytest.param(lambda: FamilySpec(None), id="spec-Q-none"),
    pytest.param(lambda: FamilySpec("4"), id="spec-Q-str"),
    pytest.param(lambda: FamilySpec(4.0, 1, 2 + 0j), id="spec-T-complex"),
    pytest.param(lambda: FamilySpec(10**400), id="spec-Q-past-float"),
    pytest.param(lambda: delta(4.0, 1, 1.0, float("inf")), id="delta-N-inf"),
    pytest.param(lambda: delta(4.0, 1, float("nan"), 40.0), id="delta-T-nan"),
    pytest.param(lambda: delta_rational(0.5, 40), id="rational-Q-below-1"),
    pytest.param(lambda: delta_rational(float("inf"), 40), id="rational-Q-inf"),
    pytest.param(lambda: delta_rational(4, float("nan")), id="rational-N-nan"),
    pytest.param(lambda: delta_add(0.5, 40), id="additive-Q-below-1"),
    pytest.param(lambda: delta_add(float("nan"), 40), id="additive-Q-nan"),
    pytest.param(lambda: delta_add(4, float("inf")), id="additive-N-inf"),
    pytest.param(lambda: duality_check([(1, 0)], [0, 1, 2], np.ones((2, 3))),
                 id="duality-shape"),
])
def test_norm_inputs_are_validated_at_the_boundary(call):
    with pytest.raises(ValueError):
        call()


def test_size_errors_name_only_the_bad_size():
    with pytest.raises(ValueError, match=r"^need Q >= 1, got 0\.5$"):
        delta_add(0.5, 40)
    with pytest.raises(ValueError, match=r"^need Q >= 1, got 0$"):
        delta_rational(0, 40)
    with pytest.raises(ValueError, match=r"^need T >= 1, got 0\.5$"):
        delta(4.0, 1, 0.5, 40.0)
    with pytest.raises(ValueError, match=r"^need an integer k >= 1, got 1\.5$"):
        delta(4.0, 1.5, 1.0, 40.0)


def test_delta_routes_agree():
    for (Q, k, T, N, parity) in [(4.0, 1, 1.0, 40.0, None), (6.0, 2, 2.0, 100.0, None),
                                 (3.0, 1, 4.0, 64.0, None), (6.0, 3, 2.0, 100.0, "odd")]:
        a = _delta_on("pairs", Q, k, T, N, parity=parity).value
        b = _delta_on("family", Q, k, T, N, parity=parity).value
        assert abs(a - b) <= 1e-9 * max(1.0, a), (Q, k, T, N, parity, a, b)


def test_a_large_twist_stays_small_in_memory(traced_peak):
    # the member count reads the terms alone, and the pair side numbers the
    # units mod d for its dense terms only: at k = 10^7 the sparse terms'
    # d reach 4 10^7, and their unit numbering took 563 MB on n = 200
    peak = traced_peak(lambda: delta(4.0, 10**7, 1.0, 100.0))
    assert peak < 8 << 20, peak


def test_delta_route_dispatch_at_scale():
    # with 2 F J = 48 < n = 2400 "auto" takes the family route
    auto = delta(4.0, 1, 1.0, 900.0).value
    fam = _delta_on("family", 4.0, 1, 1.0, 900.0).value
    assert auto == fam
    # and at a size where both routes are explicit they agree
    a = _delta_on("pairs", 4.0, 1, 1.0, 640.0).value
    b = _delta_on("family", 4.0, 1, 1.0, 640.0).value
    assert abs(a - b) <= 1e-8 * a


def _family_dims(monkeypatch):
    """Lists (m, F, r) of each `_KhatriRao` built: the rows a <= b and the
    members and phase columns left by the rank cut."""
    dims = []
    init = norms._KhatriRao.__init__

    def record(self, V, P, w):
        init(self, V, P, w)
        dims.append((len(V), *self.grid))

    monkeypatch.setattr(norms._KhatriRao, "__init__", record)
    return dims


def test_family_route_record_names_its_solve(monkeypatch):
    # 2400 pairs at N = 900 and F = 2 members: 2 F J < n, so "auto" takes
    # the family route.  The rank cut leaves F r = 18 dimensions, and
    # F r (m + F r) <= 600 m: one dense eigh of H, reported as one iteration
    dims = _family_dims(monkeypatch)
    est = delta(4.0, 1, 1.0, 900.0)
    (m, F, r), = dims
    assert (est.method, est.iterations, est.route) == ("eigh", 1, "family")
    assert 2 * F * est.nodes < est.size and r < est.nodes
    assert 0 < F * r * (m + F * r) <= norms._DENSE_WORK["family"] * m
    assert est.residual <= 1e-12
    # delta(20, 1, 1, 1000): 2 F J = 1512 < n = 2702 takes the family
    # route too, but F r = 567 is past the rule's bound: Lanczos, one
    # matvec an iteration
    dims.clear()
    est = delta(20.0, 1, 1.0, 1000.0)
    (m, F, r), = dims
    assert (est.method, est.route, 2 * F * est.nodes < est.size) == ("lanczos", "family", True)
    assert F * r * (m + F * r) > norms._DENSE_WORK["family"] * m
    assert est.iterations > 1 and est.residual <= 1e-8
    # delta(12, 3, 4, 400): 2 F J = 2 x 32 x 20 >= n = 970 keeps the pair route
    est = delta(12.0, 3, 4.0, 400.0)
    assert (est.route, est.size) == ("pairs", 970)
    assert 2 * 32 * norms._quadrature_nodes(970, math.log(400), 4.0) >= 970
    # the window (1, 2] holds no primitive character: an empty family,
    # which no route solves densely
    for route in ("auto", "pairs", "family"):
        empty = _delta_on(route, 2.0, 1, 1.0, 40.0)
        assert empty.value == 0.0
        assert empty.method == "lanczos"


def test_trivial_family_norms_are_exact_counts():
    # Q = 1 leaves the all-ones Gram: top eigenvalue is the index size.
    # The certified floor makes the value >= n exactly; the dense solver
    # may only add rounding on the high side.
    # up to N = 500 (n = 2285) and N = 1000 (n = 2702), every count comes
    # from the buckets
    for N in (10, 30, 75, 500):
        n = len(rationals_up_to(N))
        val = delta_rational(1, N).value
        assert n <= val <= n * (1 + 1e-12)
    for N in (10, 30, 75, 1000):
        n = len(enumerate_pairs(N, "dyadic"))
        val = delta_add(1, N).value
        assert n <= val <= n * (1 + 1e-12)


def test_rational_and_additive_norms_take_a_discrete_route_at_any_size(monkeypatch):
    cases = {"rational": (norms._rational, delta_rational, 12, 600),
             "additive": (norms._additive, delta_add, 12, 1200)}
    want = {}
    for name, (build, _, Q, N) in cases.items():
        want[name] = (len(build(Q, N).a), _member_side(name, Q, N))

    def pair_side(*args):
        raise AssertionError("the pair-side Gram was built for a discrete family")

    # with the pair-side matrix raising, the norms can only come from a
    # route that forms no S: the bins or the buckets, which the route rule
    # gives every family without a window (T None), whatever its size;
    # at these sizes bins^3 <= 2000 n gates, so "auto" takes the bins
    monkeypatch.setattr(norms, "_pair_gram", pair_side)
    for name, (build, norm, Q, N) in cases.items():
        dim, value = want[name]
        for got, route in [(norm(Q, N), "bins"), (norms._solve(build(Q, N), 1e-9, "buckets"),
                                                  "buckets")]:
            assert (got.route, got.size) == (route, dim), (name, got)
            assert abs(got.value - value) <= 1e-12 * value, (name, got.value, value)


def test_auto_route_keeps_the_pair_side_when_the_family_side_is_larger(monkeypatch):
    # at any size, a windowed family with 2 members x nodes >= indices
    # stays on the pair side: H would be the costlier operator
    index = enumerate_pairs(60, "dyadic")
    nodes = norms._quadrature_nodes(len(index), math.log(60), 1.0)  # 1/60 has the largest |L|
    larger = {  # (norm, pair-side Gram, indices, members x nodes)
        "multiplicative": (lambda: delta(12.0, 1, 1.0, 60.0),
                           gram_multiplicative(FamilySpec(12.0), index), 21 * nodes),
        "additive": (lambda: delta_add(12, 20), gram_additive(12, 20), 34),
        "rational": (lambda: delta_rational(12, 6), gram_rational(12, 6), 27),
    }
    want = {}
    for name, (_, g, size) in larger.items():
        assert g.dim <= 2 * size, (name, g.dim)
        want[name] = float(np.linalg.eigvalsh(g.matrix)[-1])
    # a single member (Q = 1, T = 1) is the cheaper side for 70 indices
    assert 2 * norms._quadrature_nodes(70, math.log(40), 1.0) < 70
    single = float(np.linalg.eigvalsh(
        gram_multiplicative(FamilySpec(1.0), enumerate_pairs(40)).matrix)[-1])

    def member_values(*args):
        raise AssertionError("the family side was built although it is larger")

    # the window keeps the pair side, which solves its even and odd blocks;
    # the discrete families take the bins (40^3 <= 2000 x 30 x 6 and
    # 49^3 <= 2000 x 13 x 12), which solve S in another order
    with monkeypatch.context() as m:
        m.setattr(norms, "_member_matrix", member_values)
        got = larger["multiplicative"][0]()
        assert got.route == "pairs"
        assert abs(got.value - want["multiplicative"]) <= 1e-12 * want["multiplicative"]
        for name in ("additive", "rational"):
            got = larger[name][0]()
            assert got.route == "bins"
            assert abs(got.value - want[name]) <= 1e-12 * want[name], name

    def pair_side(*args):
        raise AssertionError("the pair-side Gram was built")

    monkeypatch.setattr(norms, "_pair_gram", pair_side)
    est = delta(1.0, 1, 1.0, 40.0)
    assert est.route == "family" and abs(est.value - single) <= 1e-9 * single
    # neither side for a discrete family with one member
    assert delta_add(1, 20).value == len(enumerate_pairs(20, "dyadic"))
    assert delta_rational(1, 6).value == len(rationals_up_to(6))


def test_pair_route_refuses_an_oversized_job(monkeypatch, capsys):
    from sievelab import cli

    # with the cap lowered to 1 MiB the bench-sized pair routes are over it;
    # the pair-side builders raise, so no test allocates the oversized matrix
    rational = delta_rational(12, 200)
    monkeypatch.setattr(norms, "_ROUTE_BYTES", 1 << 20)

    def pair_side(*args):
        raise AssertionError("the pair-side Gram was built past the cap")

    for name in ("gram_rational", "gram_additive", "gram_multiplicative", "_pair_gram"):
        monkeypatch.setattr(norms, name, pair_side)
    def estimate(n):  # with a one-vector basis on the even block
        need = norms._pair_route_bytes(n) + norms._lanczos_bytes((n + 1) // 2, 1)
        return f"{need / 2**20:.1f} MiB"

    for norm, n in [(lambda: norms._solve(norms._rational(12, 200), 1e-9, "pairs"),
                     len(rationals_up_to(200))),
                    (lambda: _delta_on("pairs", 12.0, 3, 4.0, 400.0),
                     len(enumerate_pairs(400, "dyadic")))]:
        with pytest.raises(ValueError, match=f"pairs route on {n} indices .* {estimate(n)}, "
                                             "over the 1.0 MiB cap"):
            norm()
    # delta(12, 3, 4, 400) tries the pair side first by the route rule, but
    # neither route fits: "auto" refuses with the smaller estimate, the
    # family route's setup stage
    assert cli.run(["norm", "-Q", "12", "-k", "3", "-T", "4", "-N", "400"]) == 2
    err = capsys.readouterr().err
    setup = norms._family_route_bytes(len(enumerate_pairs(400)), 32, 20)[0]
    assert estimate(len(enumerate_pairs(400))) not in err
    assert (f"family route on 32 members x 20 nodes needs an estimated {setup / 2**20:.1f} MiB, "
            "over the 1.0 MiB cap") in err
    # the discrete families take the buckets, which hold no n x n matrix
    # and fit under the lowered cap with the steps this solve needs
    assert delta_rational(12, 200) == rational
    assert delta_rational(1, 500).value >= len(rationals_up_to(500))


_PUBLIC_GRAMS = {
    "rational": (lambda: gram_rational(12, 200), len(rationals_up_to(200))),
    "additive": (lambda: gram_additive(150, 500), len(enumerate_pairs(500))),
    "multiplicative": (lambda: gram_multiplicative(FamilySpec(12.0, 3, 4.0, "odd"),
                                                   enumerate_pairs(400)), len(enumerate_pairs(400))),
    "bruteforce": (lambda: gram_bruteforce(FamilySpec(6.0, 2, 2.0), enumerate_pairs(300)),
                   len(enumerate_pairs(300))),
    "rational-bruteforce": (lambda: gram_rational_bruteforce(12, 100), len(rationals_up_to(100))),
}


@pytest.mark.parametrize("kind", list(_PUBLIC_GRAMS))
def test_public_grams_refuse_an_oversized_job(kind, monkeypatch):
    # the public builders and oracles refuse with the estimate before they
    # allocate: with the cap lowered to 1 MiB, the matrices and member
    # values below are never built
    monkeypatch.setattr(norms, "_ROUTE_BYTES", 1 << 20)

    def built(*args):
        raise AssertionError("a Gram was built past the cap")

    monkeypatch.setattr(norms, "_pair_gram", built)
    monkeypatch.setattr(norms, "_member_matrix", built)
    build, n = _PUBLIC_GRAMS[kind]
    with pytest.raises(ValueError, match=f"the Gram on {n} indices needs an estimated "
                                         "[\\d.]+ MiB, over the 1.0 MiB cap"):
        build()


@pytest.mark.parametrize("kind", list(_PUBLIC_GRAMS))
def test_public_gram_estimates_cover_the_measured_peak(kind, monkeypatch, traced_peak):
    needs = []
    check = norms._check_bytes

    def record(what, need, cap):
        needs.append((what, need))
        check(what, need, cap)

    monkeypatch.setattr(norms, "_check_bytes", record)
    build, n = _PUBLIC_GRAMS[kind]
    build()  # fills the caches of characters and divisors first
    needs.clear()
    peak = traced_peak(build)
    need, = [need for what, need in needs if what == f"Gram on {n} indices"]
    assert 8 * n * n <= peak <= need, (peak / (n * n), need / (n * n))


def _additive_sizes(Q, N):
    """n indices and F = sum phi(q) members of the additive family."""
    return len(enumerate_pairs(N)), sum(totient(q) for q in range(int(Q / 2) + 1, int(Q) + 1))


def test_additive_matrix_refuses_an_oversized_job(monkeypatch):
    # the public coefficient matrix refuses with its estimate before the
    # rows, the member tables or V exist
    monkeypatch.setattr(norms, "_ROUTE_BYTES", 1 << 20)

    def built(*args):
        raise AssertionError("the additive matrix was built past the cap")

    monkeypatch.setattr(norms, "_member_matrix", built)
    monkeypatch.setattr(norms, "_additive_rows", built)
    n, F = _additive_sizes(150, 500)
    with pytest.raises(ValueError, match=f"the additive matrix on {n} indices x {F} members "
                                         "needs an estimated [\\d.]+ MiB, over the 1.0 MiB cap"):
        additive_matrix(150, 500)


@pytest.mark.parametrize("Q,N", [(150, 500), (200, 100), (40, 2000), (2, 3000)])
def test_additive_matrix_estimate_covers_the_measured_peak(Q, N, monkeypatch, traced_peak):
    # V dominates at (150, 500) and (40, 2000), the member tables at
    # (200, 100) and the index at (2, 3000)
    needs = []
    check = norms._check_bytes

    def record(what, need, cap):
        needs.append((what, need))
        check(what, need, cap)

    monkeypatch.setattr(norms, "_check_bytes", record)
    additive_matrix(Q, N)  # fills the caches of divisors first
    needs.clear()
    peak = traced_peak(lambda: additive_matrix(Q, N))
    n, F = _additive_sizes(Q, N)
    what = f"additive matrix on {n} indices x {F} members"
    need, = [need for w, need in needs if w == what]
    assert 16 * n * F <= peak <= need, (peak, need)


def test_additive_members_share_one_table_a_modulus(monkeypatch, traced_peak):
    # an additive member (q, t) reads e_q(t a bbar) at t a bbar mod q from
    # one table for q, so the tables hold sum q numbers where a table a
    # member held sum q phi(q): 77 MB here, far past V (0.7 MB)
    needs = []
    check = norms._check_bytes

    def record(what, need, cap):
        needs.append(need)
        check(what, need, cap)

    monkeypatch.setattr(norms, "_check_bytes", record)
    additive_matrix(300, 2)  # fills the caches of divisors first
    needs.clear()
    peak = traced_peak(lambda: additive_matrix(300, 2))
    n, F = _additive_sizes(300, 2)
    per_member = 16 * sum(q * totient(q) for q in range(151, 301))
    assert 16 * n * F <= peak <= needs[-1] < per_member, (peak, needs, per_member)


@pytest.mark.parametrize("call,what", [
    pytest.param(lambda: delta_add(1e9, 10), "term list of Q = 1e\\+09", id="additive-Q-1e9"),
    pytest.param(lambda: delta_rational(2, 1e8), "index of height <= 100000000",
                 id="rational-N-1e8"),
])
def test_huge_sizes_are_refused_before_any_work(call, what):
    # the term list and the index are bounded from Q and N alone, so the
    # refusal comes before the moduli loop or the index arrays
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"the {what} needs an estimated .* MiB, over the "):
        call()
    assert time.perf_counter() - start < 1.0


def test_family_route_refuses_an_oversized_job(monkeypatch, capsys):
    from sievelab import cli

    # the same lowered cap; the member values raise, so the refusal must
    # come from the estimate, before the family side is built
    monkeypatch.setattr(norms, "_ROUTE_BYTES", 1 << 20)

    def member_values(*args):
        raise AssertionError("the family side was built past the cap")

    monkeypatch.setattr(norms, "_member_matrix", member_values)
    F = len(family_members(FamilySpec(12.0, 3, 4.0)))
    with pytest.raises(ValueError, match=f"family route on {F} members x \\d+ nodes needs an "
                                         "estimated .* MiB, over the 1.0 MiB cap"):
        _delta_on("family", 12.0, 3, 4.0, 400.0)
    # delta(12, 1, 4, 1000) takes the family side: 2 F J = 924 < n = 2702
    assert cli.run(["norm", "-Q", "12", "-T", "4", "-N", "1000"]) == 2
    err = capsys.readouterr().err
    F = len(family_members(FamilySpec(12.0, 1, 4.0)))
    assert re.search(f"family route on {F} members x \\d+ nodes", err) and "1.0 MiB cap" in err


def _dense_need(fixed, k):
    """The dense solve's bytes beside the family route's `fixed`: H and a
    block's product, or a LAPACK copy of H, and a block's A and B."""
    return fixed + 16 * k * k + 32 * norms._CHECK_ROWS * k


def test_family_route_runs_the_steps_that_fit_under_the_cap(monkeypatch):
    # the family route caps its Lanczos basis at the deepest one whose
    # estimate on the F r dimensions left by the rank cut fits, as the
    # bucket route does, so a cap below the estimate at min(F r, _MAX_ITER)
    # rows no longer refuses a job that converges in fewer steps.  At this
    # cap the dense solve does not fit, so the route runs Lanczos
    want = _delta_on("pairs", 12.0, 1, 4.0, 1000.0).value
    dims = _family_dims(monkeypatch)
    delta(12.0, 1, 4.0, 1000.0)
    (_, F, r), = dims
    n, nodes, k = len(_coprime_pairs(1000, "dyadic")[0]), 22, F * r
    assert (F, r) == (21, 15)
    setup, fixed = norms._family_route_bytes(n, F, nodes)
    cap = fixed + norms._lanczos_bytes(k, 128)
    assert setup <= cap < _dense_need(fixed, k)
    assert fixed + norms._lanczos_bytes(k, min(k, norms._MAX_ITER)) > cap
    steps = []
    solve = norms.top_eigenvalue

    def record(G, tol, max_iter):
        steps.append(max_iter)
        return solve(G, tol=tol, max_iter=max_iter)

    monkeypatch.setattr(norms, "_ROUTE_BYTES", cap)
    monkeypatch.setattr(norms, "top_eigenvalue", record)
    got = delta(12.0, 1, 4.0, 1000.0)
    assert (got.route, got.method, got.size, got.nodes) == ("family", "lanczos", n, nodes)
    assert 128 <= steps[0] < k and got.iterations <= steps[0]
    assert fixed + norms._lanczos_bytes(k, steps[0] + 1) > cap
    assert abs(got.value - want) <= 1e-12 * want
    # refused, before P is built, only when not even a one-vector basis
    # fits on the F J dimensions before the rank cut
    monkeypatch.setattr(norms, "_ROUTE_BYTES", fixed + norms._lanczos_bytes(F * nodes, 1) - 1)
    with pytest.raises(ValueError, match=f"family route on {F} members x {nodes} nodes"):
        delta(12.0, 1, 4.0, 1000.0)
    # and when its setup stage, before the basis, does not fit
    assert setup > fixed + norms._lanczos_bytes(F * nodes, 1)
    monkeypatch.setattr(norms, "_ROUTE_BYTES", setup - 1)
    with pytest.raises(ValueError, match=f"family route on {F} members x {nodes} nodes"):
        delta(12.0, 1, 4.0, 1000.0)
    monkeypatch.setattr(norms, "_ROUTE_BYTES", setup)
    assert delta(12.0, 1, 4.0, 1000.0).route == "family"


def test_family_route_falls_back_to_lanczos_one_byte_under_the_dense_estimate(monkeypatch):
    # the bench call delta(12, 1, 4, 1000) takes the dense solve by the
    # rule; at exactly its estimate it still does, and one byte under it
    # the route runs Lanczos on the same compressed H instead of refusing
    want = _delta_on("pairs", 12.0, 1, 4.0, 1000.0).value
    dims = _family_dims(monkeypatch)
    dense = delta(12.0, 1, 4.0, 1000.0)
    (_, F, r), = dims
    assert (dense.route, dense.method, dense.iterations, dense.nodes) == ("family", "eigh", 1, 22)
    need = _dense_need(norms._family_route_bytes(dense.size, F, dense.nodes)[1], F * r)
    monkeypatch.setattr(norms, "_ROUTE_BYTES", need)
    assert delta(12.0, 1, 4.0, 1000.0) == dense
    monkeypatch.setattr(norms, "_ROUTE_BYTES", need - 1)
    got = delta(12.0, 1, 4.0, 1000.0)
    assert (got.route, got.method, got.nodes) == ("family", "lanczos", 22)
    for est in (dense, got):
        assert abs(est.value - want) <= 1e-12 * want, (est, want)


def test_auto_route_falls_back_to_the_route_that_fits(monkeypatch):
    # delta(12, 3, 4, 400) tries the pair side first (2 F J = 1280 >= n =
    # 970).  Under a cap between the two routes' estimates, each with a
    # one-vector basis, only the family route fits: "auto" runs it, where a
    # caller's "pairs" refuses.  Under both, "auto" refuses with the
    # smaller estimate, the family route's
    want = delta(12.0, 3, 4.0, 400.0)
    n, F, nodes = len(_coprime_pairs(400, "dyadic")[0]), 32, 20
    pairs = norms._pair_route_bytes(n) + norms._lanczos_bytes((n + 1) // 2, 1)
    setup, fixed = norms._family_route_bytes(n, F, nodes)
    family = max(setup, fixed + norms._lanczos_bytes(F * nodes, 1))
    assert want.route == "pairs" and 2 * F * nodes >= n and family < pairs
    monkeypatch.setattr(norms, "_ROUTE_BYTES", pairs - 1)
    got = delta(12.0, 3, 4.0, 400.0)
    assert got == _delta_on("family", 12.0, 3, 4.0, 400.0)
    assert (got.route, got.size, got.nodes) == ("family", n, nodes)
    assert abs(got.value - want.value) <= 1e-9 * want.value
    with pytest.raises(ValueError, match=f"pairs route on {n} indices needs an estimated "
                                         f"{pairs / 2**20:.1f} MiB"):
        _delta_on("pairs", 12.0, 3, 4.0, 400.0)
    monkeypatch.setattr(norms, "_ROUTE_BYTES", family - 1)
    with pytest.raises(ValueError, match=f"family route on {F} members x {nodes} nodes needs an "
                                         f"estimated {family / 2**20:.1f} MiB"):
        delta(12.0, 3, 4.0, 400.0)


def _bins_rule(fam):
    """(bins, n, gates) of a discrete family's buckets, which "auto" sends
    to the bins route when bins^3 <= 2000 n gates."""
    n = len(fam.a)
    return norms._Buckets(fam).bins, n, norms._bucket_sizes(n, fam.terms)[0]


@pytest.mark.parametrize("build,Q,N,route", [
    (norms._rational, 12, 200, "bins"),  # 57^3 <= 2000 x 801 x 12
    (norms._additive, 12, 300, "bins"),  # 40^3 <= 2000 x 702 x 6
    (norms._rational, 60, 3600, "bins"),  # 1161^3 <= 2000 x 20763 x 60
    (norms._additive, 20, 60, "bins"),  # few indices: 106^3 <= 2000 x 110 x 10
    (norms._additive, 40, 300, "buckets"),  # 382^3 > 2000 x 702 x 20
    (norms._additive, 60, 2000, "buckets"),  # 854^3 > 2000 x 5824 x 30
])
def test_auto_route_takes_the_bins_by_the_rule(build, Q, N, route):
    # "auto" takes the bins where their dense solve, about bins^3 flops,
    # costs no more than a Lanczos solve on the buckets, about 2000 n gates
    # flops' time (some 80 matvecs of O(n) a gate), and the buckets
    # otherwise: the rule the family route's dense solve follows.  With
    # both in the memory cap, the side of the rule alone decides, and the
    # other route gives the same value
    fam = build(Q, N)
    bins, n, gates = _bins_rule(fam)
    assert (bins**3 <= 2000 * n * gates) == (route == "bins")
    got = norms._solve(fam, 1e-9)
    assert got == norms._solve(fam, 1e-9, route)
    assert (got.route, got.bins) == (route, bins if route == "bins" else None)
    other = norms._solve(fam, 1e-9, "buckets" if route == "bins" else "bins")
    assert abs(other.value - got.value) <= 1e-12 * got.value, (got, other)


def test_bins_route_on_a_pair_side_of_zero():
    # delta_add(2, 2) has the one modulus 2 and the index 1/2, 2/1, both
    # off its gate: S = 0 and G = 0, so the lift x = U M Y y vanishes and
    # the route takes the coordinate vector of the largest diagonal entry
    got = delta_add(2, 2)
    assert (got.route, got.size, got.bins) == ("bins", 2, 1)
    assert (got.value, got.residual) == (0.0, 0.0)
    assert norms._solve(norms._additive(2, 2), 1e-9, "buckets").value == 0.0


def _discrete_needs(fam):
    """The shared bytes of the buckets, and the bins and bucket routes'
    least bytes beside them, the bucket route's with a one-vector basis."""
    n = len(fam.a)
    _, labels, entries = norms._bucket_sizes(n, fam.terms)
    fixed = norms._bucket_route_bytes(n, labels, entries)
    ops = norms._Buckets(fam)
    return (fixed, fixed + norms._bins_route_bytes(ops.bins, ops.pairs()),
            fixed + norms._lanczos_bytes(n, 1))


def test_auto_route_falls_back_from_the_bins_to_the_buckets(monkeypatch):
    # delta_rational(12, 200) tries the bins first.  Under a cap one byte
    # short of their estimate, above the buckets' with a one-vector basis,
    # "auto" runs the buckets, where a caller's "bins" refuses with its
    # estimate; the room left holds 16 basis rows, short of the 28 steps
    # the solve takes at the full cap, so its lower bound is a little
    # lower.  Under both, "auto" refuses with the smaller, the buckets'
    fam = norms._rational(12, 200)
    n, bins = len(fam.a), norms._Buckets(fam).bins
    fixed, need_bins, need_buckets = _discrete_needs(fam)
    want = delta_rational(12, 200)
    assert want.route == "bins" and need_buckets < need_bins
    monkeypatch.setattr(norms, "_ROUTE_BYTES", need_bins - 1)
    got = delta_rational(12, 200)
    assert got == norms._solve(fam, 1e-9, "buckets")
    assert (got.route, got.size, got.bins) == ("buckets", n, None)
    assert want.value * (1 - 1e-6) <= got.value <= want.value * (1 + 1e-12)
    with pytest.raises(ValueError, match=f"bins route on {n} indices x {bins} bins needs an "
                                         f"estimated {need_bins / 2**20:.1f} MiB"):
        norms._solve(fam, 1e-9, "bins")
    monkeypatch.setattr(norms, "_ROUTE_BYTES", need_buckets - 1)
    with pytest.raises(ValueError, match=f"buckets route on {n} indices x 12 gates needs an "
                                         f"estimated {need_buckets / 2**20:.1f} MiB"):
        delta_rational(12, 200)


def test_auto_route_refuses_with_the_smaller_discrete_estimate(monkeypatch):
    # at N = 2000 the bins need less than one bucket vector: under both
    # estimates "auto" refuses with the bins'.  Under the buckets alone,
    # which both routes read, it refuses before they are built
    fam = norms._rational(12, 2000)
    n, bins = len(fam.a), norms._Buckets(fam).bins
    fixed, need_bins, need_buckets = _discrete_needs(fam)
    assert need_bins < need_buckets
    monkeypatch.setattr(norms, "_ROUTE_BYTES", need_bins)
    assert delta_rational(12, 2000).route == "bins"
    monkeypatch.setattr(norms, "_ROUTE_BYTES", need_bins - 1)
    with pytest.raises(ValueError, match=f"bins route on {n} indices x {bins} bins needs an "
                                         f"estimated {need_bins / 2**20:.1f} MiB"):
        delta_rational(12, 2000)

    def operator(*args):
        raise AssertionError("the buckets were built past the cap")

    monkeypatch.setattr(norms, "_Buckets", operator)
    monkeypatch.setattr(norms, "_ROUTE_BYTES", fixed - 1)
    for route in ("auto", "bins"):
        with pytest.raises(ValueError, match=f"buckets route on {n} indices x 12 gates needs "
                                             f"an estimated {fixed / 2**20:.1f} MiB"):
            norms._solve(fam, 1e-9, route)


def test_bins_and_bucket_routes_refuse_a_window():
    fam = norms._multiplicative(FamilySpec(6.0, 1, 2.0), *_coprime_pairs(60, "dyadic"))
    for route in ("bins", "buckets"):
        with pytest.raises(ValueError, match=f"the {route} route serves the discrete families"):
            norms._solve(fam, 1e-9, route)


def test_family_route_takes_the_bounded_node_count_at_the_bench_sizes():
    # the three bench family_route calls run on 22 nodes (the former guess
    # took 53), and delta(12, 3, 4, 400) stays on the pair side
    for args in [(10, 3, 4.0, 1000.0, None), (10, 3, 4.0, 1000.0, "odd"),
                 (12, 1, 4.0, 1000.0, None)]:
        got = delta(*args[:4], parity=args[4])
        assert (got.route, got.size, got.nodes) == ("family", 2702, 22), args
    got = delta(12.0, 3, 4.0, 400.0)
    assert (got.route, got.nodes) == ("pairs", None)
    assert delta_rational(12, 200).nodes is None


def test_bounded_node_count_certifies_delta_and_half_of_it_does_not(monkeypatch):
    # a small family with a large T Lmax: w* = 32 log(200) / 2 = 85.  On the
    # bound's J nodes the family route meets the pair route; on half of them
    # it misses by far more than the value gate
    want = _delta_on("pairs", 6.0, 1, 32.0, 200.0, tol=1e-12).value
    got = _delta_on("family", 6.0, 1, 32.0, 200.0, tol=1e-12)
    assert got.nodes == norms._quadrature_nodes(got.size, math.log(200), 32.0) > 40
    assert abs(got.value - want) <= 1e-12 * want
    nodes = norms._quadrature_nodes
    monkeypatch.setattr(norms, "_quadrature_nodes", lambda n, Lmax, T: nodes(n, Lmax, T) // 2)
    half = _delta_on("family", 6.0, 1, 32.0, 200.0, tol=1e-12)
    assert half.nodes == got.nodes // 2
    assert abs(half.value - want) > 1e-9 * want


def test_node_count_edge_cases():
    # an empty family: no entry to bound, a node count all the same
    empty = np.zeros(0, dtype=np.int64)
    assert norms._quadrature_nodes(0, 0.0, 2.0) >= 1
    got = norms._solve(norms._multiplicative(FamilySpec(4.0, 1, 2.0), empty, empty), 1e-9,
                       "family")
    assert (got.value, got.size, got.route) == (0.0, 0, "family")
    # the single index 1/1 (Lmax = 0): both routes give F T / 2, F = 2
    for route in ("family", "pairs"):
        assert abs(_delta_on(route, 4.0, 1, 2.0, 1.0).value - 2.0) <= 1e-14
    # an overflowing T Lmax is clamped, not an error of its own: the pair
    # route's solve overflows, and the family estimate refuses
    with pytest.raises(ValueError, match="overflowed"):
        delta(4.0, 1, 1e200, 40.0)
    assert norms._quadrature_nodes(70, math.log(40), 1e308) == norms._ROUTE_BYTES + 1
    with pytest.raises(ValueError, match="family route on 2 members x \\d+ nodes needs an "):
        _delta_on("family", 4.0, 1, 1e308, 40.0)


@pytest.mark.parametrize("Q,k,T,N,parity", [(6.0, 1, 4.0, 200.0, None),
                                          (8.0, 3, 16.0, 120.0, "odd"),
                                          (4.0, 1, 32.0, 60.0, "even")])
def test_rank_cut_moves_delta_by_at_most_its_bound(Q, k, T, N, parity):
    # on the whole index, closed under sigma, C = P^H P is real, and P P^H
    # less its rank cut is P Z_d Z_d^T P^H: PSD, of norm the largest
    # dropped eigenvalue of C, at most tau = T tol / (4 + 2 tol).  S is
    # PSD, so by Schur 0 <= Delta_J - Delta_r <= max S_nn tau, and
    # Delta_J >= (T/2) max S_nn makes that at most (2 tau / T) Delta_J.
    # With the nodes' tol / 2 the two move Delta by at most tol = 1e-12
    tol = norms._QUADRATURE_TOL
    tau = T * tol / (4 + 2 * tol)
    assert tol / 2 + (2 * tau / T) * (1 + tol / 2) <= tol
    fam = norms._multiplicative(FamilySpec(Q, k, T, parity), *_coprime_pairs(N, "dyadic"))
    n = len(fam.a)
    nodes = norms._quadrature_nodes(n, math.log(N), T)
    P = norms._phase_matrix(fam.L, T, nodes)
    cut = norms._rank_cut(P, np.ones(n), T)
    C = P.conj().T @ P
    assert np.abs(C.imag).max() <= 1e-12 * np.abs(C).max()
    lam = np.linalg.eigvalsh(C.real)
    r = cut.shape[1]
    assert 0 < r < nodes and lam[nodes - r - 1] <= tau < lam[nodes - r]
    S = norms._congruence_sum(fam.a, fam.b, fam.terms)
    full, low = (float(np.linalg.eigvalsh(S * (X @ X.conj().T)).max()) for X in (P, cut))
    assert -1e-13 * full <= full - low <= S.diagonal().max() * lam[nodes - r - 1] + 1e-13 * full
    assert S.diagonal().max() * tau <= (2 * tau / T) * full
    # and the family route reports the value on the cut phases
    got = norms._solve(fam, 1e-12, "family")
    assert abs(got.value - low) <= 1e-13 * low, (got, low)


def test_family_route_edge_cases_on_the_dense_solve(monkeypatch, capsys):
    from sievelab import cli

    # with the rule set to take the dense solve whenever H has a dimension:
    # the empty family (no primitive character in (1, 2]) still gives 0 by
    # Lanczos on no dimension, at the CLI too
    monkeypatch.setitem(norms._DENSE_WORK, "family", math.inf)
    empty = _delta_on("family", 2.0, 1, 1.0, 40.0)
    assert (empty.value, empty.method, empty.route) == (0.0, "lanczos", "family")
    assert cli.run(["norm", "-Q", "2"]) == 0
    row, = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert float(row["value"]) == 0.0
    # the single index 1/1: F T / 2, F = 2, by one dense eigh
    one = _delta_on("family", 4.0, 1, 2.0, 1.0)
    assert (one.method, one.iterations, one.size) == ("eigh", 1, 1)
    assert abs(one.value - 2.0) <= 1e-14
    # an overflowing T Lmax refuses by the family estimate before P is
    # built, as before, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="family route on 2 members x \\d+ nodes needs an "):
            _delta_on("family", 4.0, 1, 1e308, 40.0)


def test_family_route_refuses_a_discrete_family_or_an_unfolded_index(monkeypatch):
    # the family route solves H on the rows a <= b, as A[b/a] = conj A[a/b]:
    # it serves the windowed families only, whose index is closed under
    # a/b -> b/a.  Both refusals come before the member values are built
    def member_values(*args):
        raise AssertionError("the family side was built")

    monkeypatch.setattr(norms, "_member_matrix", member_values)
    for fam in (norms._rational(12, 600), norms._additive(12, 300)):
        with pytest.raises(ValueError, match="windowed families only"):
            norms._solve(fam, 1e-9, "family")
    a, b = _coprime_pairs(60, "dyadic")
    twin = (a == 5) & (b == 7)  # 5/7 goes, 7/5 stays
    assert twin.sum() == 1 and ((a == 7) & (b == 5)).sum() == 1
    fam = norms._multiplicative(FamilySpec(6.0, 2, 2.0), a[~twin], b[~twin])
    with pytest.raises(ValueError, match="closed under a/b -> b/a"):
        norms._solve(fam, 1e-9, "family")


_OPERATOR_FAMILIES = {
    "multiplicative": lambda: norms._multiplicative(FamilySpec(6.0, 2, 2.0),
                                                    *_coprime_pairs(60, "dyadic")),
    "odd": lambda: norms._multiplicative(FamilySpec(7.0, 1, 1.0, "odd"),
                                         *_coprime_pairs(40, "dyadic")),
    "additive": lambda: norms._additive(6, 40),
    "rational": lambda: norms._rational(5, 12),
}


def _entrywise_A(fam):
    """V, P and A[n, (f, j)] = V[n, f] P[n, j], built entrywise, on 12
    nodes for a window."""
    nodes = 1 if fam.T is None else 12
    V = norms._member_matrix(fam.members(), fam.a, fam.b)
    P = norms._phase_matrix(fam.L, fam.T, nodes)
    return V, P, (V[:, :, None] * P[:, None, :]).reshape(len(fam.a), -1)


@pytest.mark.parametrize("block", [None, 100])
@pytest.mark.parametrize("kind", list(_OPERATOR_FAMILIES))
def test_family_operator_matches_the_dense_H(kind, block, monkeypatch):
    # H = A^H A with A built entrywise on the whole index; a small
    # _PRODUCT_BLOCK splits the operator's rows, and the pair side's
    # congruence product, into several blocks
    if block:
        monkeypatch.setattr(norms, "_PRODUCT_BLOCK", block)
    fam = _OPERATOR_FAMILIES[kind]()
    V, P, A = _entrywise_A(fam)
    H = A.conj().T @ A
    top = float(np.linalg.eigvalsh(H).max())
    if fam.T is None:
        # the family route serves the windowed families only: a discrete
        # member side checks the pair and bucket routes, and the dense
        # oracle (V V^H) o (P P^H) of the same member values
        for route in ("pairs", "buckets"):
            assert abs(norms._solve(fam, 1e-12, route).value - top) <= 1e-12 * top, route
        oracle = float(np.linalg.eigvalsh(norms._family_gram(fam, 1).matrix)[-1])
        assert abs(oracle - top) <= 1e-12 * top
    else:
        # the operator holds the rows a <= b alone, weighted 2 (1 at 1/1),
        # and applies the real H
        reps, w, _ = norms._fold(fam.a, fam.b)
        op = norms._KhatriRao(V[reps], P[reps], w)
        assert op.shape == H.shape
        assert (len(op.blocks) > 1) == bool(block)
        assert np.abs(H.imag).max() <= 1e-12 * np.abs(H).max()
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.standard_normal(H.shape[0])
            assert np.linalg.norm(op @ x - H.real @ x) <= 1e-12 * np.linalg.norm(H @ x)
        diag, ones, cap = op.bounds()
        assert np.abs(diag - H.diagonal().real).max() <= 1e-12 * H.diagonal().real.max()
        assert abs(ones - H.sum().real) <= 1e-12 * abs(H.sum())
        assert cap >= top
        assert abs(top_eigenvalue(op).value - top) <= 1e-12 * top


@pytest.mark.parametrize("kind", ["odd", "additive", "rational"])
def test_family_gram_is_the_entrywise_A_AH(kind):
    # the oracle forms (V V^H) o (P P^H); its definition is A A^H for
    # A[n, (f, j)] = V[n, f] P[n, j]
    fam = _OPERATOR_FAMILIES[kind]()
    _, P, A = _entrywise_A(fam)
    want = A @ A.conj().T
    got = norms._family_gram(fam, P.shape[1])
    assert got.index == fam.index
    assert np.abs(got.matrix - want).max() <= 1e-13 * np.abs(want).max()


def test_family_route_builds_no_point_objects(monkeypatch):
    # the index stays int64 arrays from enumeration through the solve, on
    # the family route, with and without a parity, and on the pair route of
    # every family
    built = []
    for cls in (CoprimePair, RationalPoint):
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
    assert delta(12.0, 1, 4.0, 1000.0).route == "family"
    assert delta(10.0, 3, 4.0, 1000.0, parity="odd").route == "family"
    assert _delta_on("pairs", 4.0, 1, 1.0, 40.0).route == "pairs"
    assert norms._solve(norms._additive(12, 300), 1e-9, "pairs").route == "pairs"
    assert delta_add(12, 300).route == "bins"
    assert delta_rational(12, 200).route == "bins"
    assert delta_rational(12, 600).route == "bins"
    assert norms._solve(norms._rational(12, 600), 1e-9, "buckets").route == "buckets"
    assert built == []


def test_pair_route_builds_the_index_once(monkeypatch):
    # each Delta enumerates its index once; the pair route hands the arrays
    # to one pair-side matrix, the rectangle of the rows a <= b against the
    # whole index, and the bins build none.  No solve builds a second
    # index, term list or point object
    calls, sides, built = [], [], []
    enumerate_once, pair_gram = norms._coprime_pairs, norms._pair_gram

    def counted_pairs(*args):
        calls.append(args)
        return enumerate_once(*args)

    def counted_gram(fam, *args):
        sides.append(pair_gram(fam, *args))
        return sides[-1]

    monkeypatch.setattr(norms, "_coprime_pairs", counted_pairs)
    monkeypatch.setattr(norms, "_pair_gram", counted_gram)
    for cls in (CoprimePair, RationalPoint):
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
    for norm, args, route in [(lambda: _delta_on("pairs", 4.0, 1, 1.0, 40.0),
                               (40.0, "dyadic"), "pairs"),
                              (lambda: delta_add(12, 300), (300, "dyadic"), "bins"),
                              (lambda: delta_rational(12, 200), (200,), "bins")]:
        calls.clear()
        sides.clear()
        est = norm()
        assert est.route == route
        assert calls == [args]
        assert est.size == len(_coprime_pairs(*args)[0])
        n = est.size
        assert [S.shape for S in sides] == ([((n + 1) // 2, n)] if route == "pairs" else [])
    assert built == []


def test_discrete_norms_build_neither_side(monkeypatch):
    # on the auto route the discrete families solve through their bins,
    # and on the bucket route through the buckets: no pair-side matrix,
    # no member values and no phases
    def built(*args):
        raise AssertionError("a pair or family side was built")

    want = [norms._solve(norms._additive(12, 300), 1e-9, "bins"),
            norms._solve(norms._rational(12, 200), 1e-9, "bins")]
    for name in ("_pair_gram", "_member_matrix", "_phase_matrix"):
        monkeypatch.setattr(norms, name, built)
    assert [delta_add(12, 300), delta_rational(12, 200)] == want
    assert [est.route for est in want] == ["bins", "bins"]
    assert [norms._solve(build(Q, N), 1e-9, "buckets").route
            for build, Q, N in [(norms._additive, 12, 300), (norms._rational, 12, 200)]] == [
        "buckets", "buckets"]


def test_bucket_route_caps_its_steps_to_fit_and_refuses_past_the_cap(monkeypatch):
    # the Lanczos steps are capped by _ROUTE_BYTES: with room for 5 rows
    # the solve stops there and reports its residual; with no room for one
    # row the route refuses before the operator is built
    fam = norms._rational(12, 200)
    n = len(fam.a)
    gates, labels, entries = norms._bucket_sizes(n, fam.terms)
    assert gates == 12

    def buckets():
        return norms._solve(fam, 1e-9, "buckets")

    full = buckets()
    assert full.iterations > 6
    fixed = norms._bucket_route_bytes(n, labels, entries)
    monkeypatch.setattr(norms, "_ROUTE_BYTES", fixed + norms._lanczos_bytes(n, 5))
    capped = buckets()
    assert (capped.route, capped.iterations) == ("buckets", 6)
    assert capped.residual > 1e-9 and capped.value <= full.value * (1 + 1e-12)

    def operator(*args):
        raise AssertionError("the buckets were built past the cap")

    monkeypatch.setattr(norms, "_Buckets", operator)
    monkeypatch.setattr(norms, "_ROUTE_BYTES", fixed + norms._lanczos_bytes(n, 1) - 1)
    with pytest.raises(ValueError, match=f"buckets route on {n} indices x 12 gates needs an "
                                         "estimated [\\d.]+ MiB, over the "):
        buckets()


@pytest.mark.parametrize("family", [
    lambda: norms._rational(9, 300),
    lambda: norms._additive(12, 400),
    lambda: norms._multiplicative(FamilySpec(8.0, 1, 2.0), *_coprime_pairs(300, "dyadic")),
    lambda: norms._multiplicative(FamilySpec(8.0, 3, 2.0, "odd"), *_coprime_pairs(300, "dyadic")),
    lambda: norms._multiplicative(FamilySpec(7.0, 1, 4.0, "even"), *_coprime_pairs(300, "dyadic")),
], ids=["rational", "additive", "multiplicative", "odd", "even"])
def test_pair_side_is_invariant_under_a_over_b_to_b_over_a(family):
    # sigma maps the index entry a/b to b/a; the gate and each congruence
    # a_n b_m = s a_m b_n (mod d) are sigma-invariant and the window is even
    # in L, so M[sigma][:, sigma] == M exactly.  A pair side that reads a
    # and b unequally, or a window odd in L, breaks it
    fam = family()
    at = {(a, b): i for i, (a, b) in enumerate(zip(fam.a.tolist(), fam.b.tolist()))}
    sigma = np.array([at[b, a] for a, b in zip(fam.a.tolist(), fam.b.tolist())])
    assert not np.array_equal(sigma, np.arange(len(sigma)))
    M = norms._pair_gram(fam)
    assert np.array_equal(M[sigma][:, sigma], M)
    # the folded routes read this sigma from `_fold`
    reps, _, twin = norms._fold(fam.a, fam.b)
    assert np.array_equal(twin, sigma[reps])


def _windowed(Q, k, T, parity, N, window="dyadic"):
    return norms._multiplicative(FamilySpec(Q, k, T, parity), *_coprime_pairs(N, window))


_FOLDED = {
    "rational": lambda: norms._rational(9, 40),  # holds 1/1
    "additive": lambda: norms._additive(12, 200),
    **{f"k{k}-{parity}-{window}": functools.partial(_windowed, 8.0, k, 2.0, parity, 120, window)
       for k in (1, 3) for parity in (None, "odd", "even") for window in ("dyadic", "full")},
    "odd-block": functools.partial(_windowed, 6.0, 3, 2.0, "odd", 200),
    "only-1/1": functools.partial(_windowed, 4.0, 1, 1.0, None, 1),
    "no-fixed-point": functools.partial(_windowed, 4.0, 1, 1.0, None, 2),
}


def _record_pair_route(monkeypatch):
    """Lists the pair route's block solves, (block, estimate), and its
    certificates, (block, mu, proven), as they run."""
    solves, proofs = [], []
    solve, below = norms.top_eigenvalue, norms._below

    def record_solve(G, **kwargs):
        solves.append((np.array(G.matrix), solve(G, **kwargs)))
        return solves[-1][1]

    def record_proof(B, mu):
        proofs.append((np.array(B), mu, below(B, mu)))
        return proofs[-1][2]

    monkeypatch.setattr(norms, "top_eigenvalue", record_solve)
    monkeypatch.setattr(norms, "_below", record_proof)
    return solves, proofs


@pytest.mark.parametrize("kind", list(_FOLDED))
def test_folded_pair_route_is_the_top_eigenvalue_of_the_square(kind, monkeypatch):
    # the pair route solves one of the even and odd blocks of M on the rows
    # a <= b, and the other only when neither its Gershgorin cap nor a
    # Cholesky proves its top eigenvalue at most the first value; the
    # Cholesky runs only when the cap does not prove it.  It reports the
    # larger.  Against eigvalsh of the square M and of each block.  The odd
    # block is empty when the index is 1/1 alone, and the multiplicative
    # odd family puts lambda_max in the odd block
    fam = _FOLDED[kind]()
    n = len(fam.a)
    want = float(np.linalg.eigvalsh(norms._pair_gram(fam)).max())
    fixed = int(((fam.a == 1) & (fam.b == 1)).sum())
    even, odd = (np.array(block) for block in norms._pair_blocks(fam))
    assert even.shape == ((n + fixed) // 2,) * 2 and odd.shape == ((n - fixed) // 2,) * 2
    solves, proofs = _record_pair_route(monkeypatch)
    got = norms._solve(fam, 1e-12, "pairs")
    assert (got.route, got.size) == ("pairs", n)
    assert abs(got.value - want) <= 1e-12 * want, (got.value, want)
    for B, mu, proven in proofs:  # the certificate against its oracle
        assert not proven or float(np.linalg.eigvalsh(B).max()) < mu
    if kind == "only-1/1":
        assert got.value == 1.0 and odd.shape == (0, 0)
        assert len(solves) == 1 and not proofs
    else:
        first, value = solves[0][0], solves[0][1].value
        other = odd if np.array_equal(first, even) else even
        assert {other.shape, first.shape} == {even.shape, odd.shape}
        if norms._Dense(other).bounds()[2] <= value:
            assert not proofs and len(solves) == 1
        else:
            (B, mu, proven), = proofs
            assert np.array_equal(B, other) and mu == value
            assert len(solves) == 1 + (not proven)
        estimates = [estimate for _, estimate in solves]
        assert got.iterations == sum(estimate.iterations for estimate in estimates)
        assert got.residual == max(estimates, key=lambda e: e.value).residual
    if kind == "odd-block":
        assert np.linalg.eigvalsh(odd).max() > np.linalg.eigvalsh(even).max()


def test_bench_pair_call_solves_one_block(monkeypatch):
    # delta(12, 3, 4, 400): the odd block has the larger Gershgorin cap and
    # lambda_max, and a Cholesky proves the even block below it, so one
    # Lanczos solve runs and `iterations` counts its matvecs alone
    solves, proofs = _record_pair_route(monkeypatch)
    got = delta(12.0, 3, 4.0, 400.0)
    (B, estimate), = solves
    assert [proven for _, _, proven in proofs] == [True]
    assert got.iterations == estimate.iterations
    assert abs(got.value - np.linalg.eigvalsh(B).max()) <= 1e-12 * got.value


def test_pair_route_solves_both_blocks_when_the_cap_picks_the_loser(monkeypatch):
    # delta(8, 2, 2, 500) on the pair route: the odd block has the larger
    # cap but the even block holds lambda_max, so the certificate fails and
    # both blocks are solved, as when the route solved both always
    solves, proofs = _record_pair_route(monkeypatch)
    got = _delta_on("pairs", 8.0, 2, 2.0, 500.0)
    fam = norms._multiplicative(FamilySpec(8.0, 2, 2.0), *_coprime_pairs(500, "dyadic"))
    want = float(np.linalg.eigvalsh(norms._pair_gram(fam)).max())
    assert [proven for _, _, proven in proofs] == [False]
    assert len(solves) == 2
    assert got.iterations == sum(estimate.iterations for _, estimate in solves)
    assert abs(got.value - want) <= 1e-12 * want, (got.value, want)


def test_pair_route_runs_the_certificate_only_when_its_factor_fits(monkeypatch):
    # the certificate holds its factor and LAPACK's copy, 16 k^2 bytes, in
    # the room that the route's estimate leaves for the basis under the
    # cap; one byte less and both blocks are solved, as before the
    # certificate.  `_pair_route_bytes` is zeroed so that the room is the cap
    n = len(_coprime_pairs(400, "dyadic")[0])
    k = (n + 1) // 2  # no 1/1 in the dyadic window: both blocks have k rows
    monkeypatch.setattr(norms, "_pair_route_bytes", lambda n: 0)
    solves, proofs = _record_pair_route(monkeypatch)
    for cap, certified in ((16 * k * k, True), (16 * k * k - 1, False)):
        monkeypatch.setattr(norms, "_ROUTE_BYTES", cap)
        solves.clear()
        proofs.clear()
        delta(12.0, 3, 4.0, 400.0)
        assert (len(proofs), len(solves)) == ((1, 1) if certified else (0, 2))


def _spd(k, seed):
    X = np.random.default_rng(seed).standard_normal((k, k + 3))
    return X @ X.T


@pytest.mark.parametrize("k", [1, 2, 7, 60, 300])
def test_certificate_proves_only_a_true_bound(k):
    # a Cholesky of mu I - B, shifted by Rump's margin, proves
    # lambda_max(B) < mu: never just below lambda_max, always just above;
    # on a strided view, which comes back bitwise unchanged
    for seed in range(3):
        rect = np.concatenate([_spd(k, seed), _spd(k, seed + 10)], axis=1)
        before = rect.copy()
        B = rect[:, :k]
        top = float(np.linalg.eigvalsh(B).max())
        assert not norms._below(B, top * (1 - 1e-9))
        assert np.array_equal(rect.view(np.uint64), before.view(np.uint64))
        assert norms._below(B, top * (1 + 1e-9))
        assert np.array_equal(rect.view(np.uint64), before.view(np.uint64))


def test_certificate_keeps_rumps_margin():
    # B = diag(0, ..., 0, lam), k = 300: tr(mu I - B) is about 299 lam, so
    # the margin 2 (k + 2) eps tr is about 4e-11 lam.  A gap of 1e-12 lam
    # is true but below the margin, and a Cholesky without it would claim it
    k, lam = 300, 7.0
    B = np.zeros((k, k))
    B[-1, -1] = lam
    assert not norms._below(B, lam * (1 + 1e-12))
    assert norms._below(B, lam * (1 + 1e-9))


def test_certificate_of_an_empty_or_non_finite_block():
    assert norms._below(np.zeros((0, 0)), 1.0)
    for bad in (np.inf, -np.inf, np.nan):
        for at in ((2, 2), (1, 3)):
            B = _spd(5, 0)
            B[at] = B[at[::-1]] = bad
            before = B.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not norms._below(B, 1e6)
            assert np.array_equal(B.view(np.uint64), before.view(np.uint64))


def test_family_operator_rejects_non_finite():
    V, P = np.ones((5, 2), dtype=complex), np.ones((5, 3), dtype=complex)
    for M, bad in [(V, np.nan), (P, np.inf), (P, complex(0, np.nan))]:
        M[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            norms._KhatriRao(V, P, np.ones(5))
        M[2, 1] = 1


def _capacity(rows, steps):
    """The rows of the Lanczos basis after `rows` steps of at most `steps`:
    doubled from 32, as in top_eigenvalue."""
    capacity = 32
    while capacity < rows:
        capacity *= 2
    return min(capacity, steps)


def test_route_estimates_cover_the_measured_peak(monkeypatch, traced_peak):
    searches = []  # (what, fixed, dim, rows) of each basis search
    basis_rows = norms._basis_rows

    def record(what, fixed, dim):
        searches.append((what, fixed, dim, basis_rows(what, fixed, dim)))
        return searches[-1][3]

    monkeypatch.setattr(norms, "_basis_rows", record)
    dims = _family_dims(monkeypatch)
    for norm in [lambda: delta(12.0, 3, 4.0, 400.0),  # a window, pairs
                 lambda: _delta_on("pairs", 12.0, 3, 4.0, 400.0, parity="odd"),
                 lambda: norms._solve(norms._rational(12, 200), 1e-9, "buckets"),  # discrete
                 lambda: delta_add(40, 300),  # auto takes the buckets: 382^2 > 702 x 20
                 # the basis doubles past 64 rows
                 lambda: norms._solve(norms._rational(30, 2000), 1e-9, "buckets"),
                 # the family side, on Lanczos by the rule (F r = 567)
                 lambda: delta(20.0, 1, 1.0, 1000.0)]:
        norm()  # fills the caches of characters and divisors first
        searches.clear()
        results = []
        peak = traced_peak(lambda: results.append(norm()))
        # each route searches once, for the deepest basis that fits beside
        # its estimate, and is checked against both together; the family
        # route also checks its setup stage, which runs before the basis
        (what, fixed, dim, rows), = searches
        est = results[0]
        n = est.size
        setup = 0
        if est.route == "family":
            # its basis spans the F r dimensions the rank cut leaves
            _, F, r = dims[-1]
            setup, solve = norms._family_route_bytes(n, F, est.nodes)
            assert (solve, dim) == (fixed, F * r)
        need = max(setup, fixed + norms._lanczos_bytes(dim, rows))
        assert what.startswith(f"{est.route} route")
        assert peak <= need, (what, peak, need)
        assert rows == min(dim, norms._MAX_ITER) or (
            fixed + norms._lanczos_bytes(dim, rows + 1) > norms._ROUTE_BYTES)
        if est.route == "pairs":
            # the pair side really holds the rectangle of the m rows a <= b
            # against the n columns, 8 bytes an entry, at its peak, with or
            # without a window, and no square S
            assert 8 * ((n + 1) // 2) * n <= peak < 8 * n * n
            continue
        # the solve held iterations - 1 Lanczos vectors: the last matvec is
        # the Rayleigh quotient of the Ritz vector; the estimate at the
        # basis it reached still covers the peak
        used = est.iterations - 1
        ran = max(setup, fixed + norms._lanczos_bytes(dim, _capacity(used, rows)))
        assert peak <= ran, (what, peak, ran)
        if est.route == "buckets":
            assert peak < 8 * n * n
            assert ran <= 2 * peak, (what, peak, ran)
        else:
            # and at the rows it used, not by much
            assert used < rows
            tight = max(setup, fixed + norms._lanczos_bytes(dim, used))
            assert tight <= 1.1 * peak, (what, peak, tight)
    assert (est.route, est.method) == ("family", "lanczos")
    # the dense solve searches no basis: its estimate, H and a block's
    # product with a block's A and B beside the route's fixed bytes, covers
    # the peak, which holds at least H and the product, both F r x F r
    dims.clear()
    searches.clear()
    peak = traced_peak(lambda: results.append(delta(12.0, 1, 4.0, 1000.0)))
    ((_, F, r),), est = dims, results[-1]
    setup, fixed = norms._family_route_bytes(est.size, F, est.nodes)
    assert (est.route, est.method, searches) == ("family", "eigh", [])
    assert 16 * (F * r) ** 2 <= peak <= max(setup, _dense_need(fixed, F * r)), (peak, F, r)


@pytest.mark.parametrize("build,Q,N", [(norms._rational, 12, 200), (norms._additive, 12, 300),
                                       (norms._rational, 40, 1600), (norms._rational, 30, 20000),
                                       (norms._additive, 40, 300)])
def test_bins_route_estimate_covers_the_traced_peak(build, Q, N, traced_peak):
    # the bins route's estimate beside the buckets covers the traced peak of
    # the route; tracemalloc sees numpy's arrays, W, M, Y, G and the
    # eigenvectors, but not LAPACK's workspace, which the estimate counts
    # too.  W and the eigenvectors of its eigh are live together, so the
    # peak is at least two bins x bins arrays
    fam = build(Q, N)
    n = len(fam.a)
    _, labels, entries = norms._bucket_sizes(n, fam.terms)
    ops = norms._Buckets(fam)
    need = norms._bucket_route_bytes(n, labels, entries) + norms._bins_route_bytes(
        ops.bins, ops.pairs())
    norms._solve(fam, 1e-9, "bins")  # fills the caches of divisors and totients first
    results = []
    peak = traced_peak(lambda: results.append(norms._solve(fam, 1e-9, "bins")))
    assert (results[0].route, results[0].bins) == ("bins", ops.bins)
    assert 16 * ops.bins**2 <= peak <= need, (peak, need)


class _Diagonal:
    """diag(d) as an operator of `top_eigenvalue`; its `bounds()` allocate nothing."""

    def __init__(self, d):
        self.d, self.shape = d, (len(d), len(d))

    def __matmul__(self, x):
        return self.d * x

    def bounds(self):
        return self.d, float(self.d.sum()), float(self.d.max())


def test_lanczos_model_covers_the_traced_peak(traced_peak):
    # at tol = 0 on distinct eigenvalues the solve runs max_iter steps, so
    # each depth fills the basis: the first one of 32 rows, one doubling
    # past it, two doublings; the model holds the copies of the last one
    dim = 100_000
    op = _Diagonal(np.linspace(1.0, 2.0, dim))
    for rows in (1, 32, 33, 64, 65, 128):
        results = []
        peak = traced_peak(lambda: results.append(top_eigenvalue(op, tol=0, max_iter=rows)))
        assert results[0].iterations == rows + 1
        assert peak <= norms._lanczos_bytes(dim, rows), (rows, peak)


def test_pair_route_caps_each_block_solve_at_the_basis_that_fits(monkeypatch, traced_peak):
    # with room for r = 40 basis rows beside the route's estimate, fewer
    # than the 485 rows of a block, each block solve at tol = 0 stops after
    # r steps, the certificate's 16 k^2 bytes do not fit, and the traced run
    # stays under the checked bytes; with room for less than one vector the
    # route refuses with its estimate
    n = len(_coprime_pairs(400, "dyadic")[0])
    m, r = (n + 1) // 2, 40
    fixed = norms._pair_route_bytes(n)
    _delta_on("pairs", 12.0, 3, 4.0, 400.0, tol=0)  # fills the caches first
    monkeypatch.setattr(norms, "_ROUTE_BYTES", fixed + norms._lanczos_bytes(m, r))
    needs, solves = [], []
    check, solve = norms._check_bytes, norms.top_eigenvalue

    def record_check(what, need, cap):
        needs.append((what, need))
        check(what, need, cap)

    def record_solve(G, tol, max_iter):
        solves.append((max_iter, solve(G, tol=tol, max_iter=max_iter)))
        return solves[-1][1]

    monkeypatch.setattr(norms, "_check_bytes", record_check)
    monkeypatch.setattr(norms, "top_eigenvalue", record_solve)
    peak = traced_peak(lambda: _delta_on("pairs", 12.0, 3, 4.0, 400.0, tol=0))
    assert [(max_iter, est.iterations) for max_iter, est in solves] == [(r, r + 1)] * 2
    need, = [need for what, need in needs if what == f"pairs route on {n} indices"]
    assert need == norms._ROUTE_BYTES
    assert peak <= need, (peak, need)
    one = (fixed + norms._lanczos_bytes(m, 1)) / 2**20
    monkeypatch.setattr(norms, "_ROUTE_BYTES", fixed + norms._lanczos_bytes(m, 1) - 1)
    with pytest.raises(ValueError, match=f"pairs route on {n} indices needs an estimated "
                                         f"{one:.1f} MiB, over the "):
        _delta_on("pairs", 12.0, 3, 4.0, 400.0, tol=0)


def test_pair_route_skips_the_certificate_when_the_cap_proves_the_bound(monkeypatch):
    # Q = 4 has real characters alone, so S[n, sigma m] = S[n, m] and the
    # odd block is zero: its Gershgorin cap, 0, is at most the even value,
    # which it proves the larger with no Cholesky.  The bench's
    # delta(12, 3, 4, 400) keeps its certificate: the cap there, about
    # 1018, passes the first value, about 343, and the solves take 53 matvecs
    fam = norms._rational(4, 100)
    even, odd = norms._pair_blocks(fam)
    assert not odd.any() and norms._Dense(np.array(odd)).bounds()[2] == 0.0
    want = float(np.linalg.eigvalsh(norms._pair_gram(fam)).max())
    solves, proofs = _record_pair_route(monkeypatch)
    got = norms._solve(fam, 1e-12, "pairs")
    assert not proofs and len(solves) == 1 and solves[0][0].shape == even.shape
    assert abs(got.value - want) <= 1e-12 * want, (got.value, want)
    solves.clear()
    got = delta(12.0, 3, 4.0, 400.0)
    (B, mu, proven), = proofs
    assert proven and mu == solves[0][1].value < norms._Dense(B).bounds()[2]
    assert len(solves) == 1 and got.iterations == 53


def test_pair_route_checks_its_certificate_past_5500_indices(monkeypatch, traced_peak):
    # past n = 5500 the certificate's factor and LAPACK's copy, 16 k^2
    # bytes, pass the build's temporaries that `_pair_route_bytes` counts
    # beside the rectangle.  With the room under the cap set to exactly the
    # certificate's bytes, it runs, and the traced run stays under the
    # bytes the route checked.  At Q = 7 the odd block's Gershgorin cap,
    # 11226, passes the even value, 8447.17, so the cap proves nothing and
    # the Cholesky runs (eigvalsh: the odd block's lambda_max is 6750.90)
    fam = norms._rational(7, 1600)
    n = len(fam.a)
    m = (n + 1) // 2
    fixed = norms._pair_route_bytes(n)
    k = m - 1  # the odd block, which 1/1 leaves out
    assert n > 5500 and 16 * k * k > fixed - 8 * m * n
    monkeypatch.setattr(norms, "_ROUTE_BYTES", fixed + 16 * k * k)
    needs, proofs = [], []
    check, below = norms._check_bytes, norms._below

    def record_check(what, need, cap):
        needs.append((what, need))
        check(what, need, cap)

    def record_proof(B, mu):
        proofs.append((len(B), below(B, mu)))
        return proofs[-1][1]

    monkeypatch.setattr(norms, "_check_bytes", record_check)
    monkeypatch.setattr(norms, "_below", record_proof)
    results = []
    peak = traced_peak(lambda: results.append(norms._solve(fam, 1e-9, "pairs")))
    want = 8447.170953342118  # eigvalsh of the even block
    assert proofs == [(k, True)] and abs(results[0].value - want) <= 1e-9 * want
    need, = [need for what, need in needs if what == f"pairs route on {n} indices"]
    assert peak <= need, (peak / 2**20, need / 2**20)


def test_discrete_pair_gram_stays_within_its_estimate(monkeypatch, traced_peak):
    # gram_additive(150, 500): n = 1248 and 826 indicator columns, so the
    # congruence product runs in two column chunks.  Added as one n x n
    # temporary beside S, the product would hold 24 bytes an entry, past
    # the 16-byte estimate of the square that `_checked` charges
    needs = []
    check = norms._check_bytes

    def record(what, need, cap):
        needs.append((what, need))
        check(what, need, cap)

    monkeypatch.setattr(norms, "_check_bytes", record)
    n = len(_coprime_pairs(500, "dyadic")[0])
    gram_additive(150, 500)  # fills the caches of divisors first
    needs.clear()
    peak = traced_peak(lambda: gram_additive(150, 500))
    need, = [need for what, need in needs if what == f"Gram on {n} indices"]
    assert 16 * n * n <= peak <= need < 24 * n * n


def test_discrete_pair_gram_holds_S_alone(traced_peak):
    # gram_rational(12, 200): one column chunk, so the float64 S is the
    # whole peak, with no int64 or float64 copy of it beside
    n = len(_coprime_pairs(200)[0])
    gram_rational(12, 200)  # fills the caches of divisors first
    peak = traced_peak(lambda: gram_rational(12, 200))
    assert 8 * n * n <= peak < 14 * n * n, peak / (n * n)


_WINDOWED = [FamilySpec(12.0, 3, 4.0), FamilySpec(8.0, 3, 2.0, "even"),
             FamilySpec(7.0, 1, 1.0, "odd"), FamilySpec(6.0, 2, 2.0)]


@pytest.mark.parametrize("spec", _WINDOWED, ids=str)
def test_windowed_pair_gram_is_real_and_exactly_symmetric(spec):
    # the phase of I_T leaves the pair side: S o K, K = (T/2) sinc(T L / 4)
    fam = norms._multiplicative(spec, *_coprime_pairs(200, "dyadic"))
    M = norms._pair_gram(fam)
    assert M.dtype == np.float64
    assert np.array_equal(M, M.T)
    assert np.array_equal(M.diagonal(), norms._congruence_sum(fam.a, fam.b, fam.terms).diagonal()
                          * (spec.T / 2))


@pytest.mark.parametrize("spec", _WINDOWED, ids=str)
def test_multiplicative_gram_is_the_phased_pair_matrix(spec):
    # G = D M D^H for M = _pair_gram and D = diag(e^{3iTL/4}), complex128
    # and exactly Hermitian
    index = enumerate_pairs(200, "dyadic")
    G = gram_multiplicative(spec, index).matrix
    fam = norms._multiplicative(spec, *_coprime_pairs(200, "dyadic"))
    d = np.exp(0.75j * spec.T * fam.L)
    want = d[:, None] * norms._pair_gram(fam) * d.conj()[None, :]
    assert G.dtype == np.complex128
    assert np.array_equal(G, G.conj().T)
    assert np.abs(G - want).max() <= 1e-14 * np.abs(want).max()


def test_delta_pair_route_solves_a_real_matrix(monkeypatch):
    # delta hands top_eigenvalue the even or odd block of the real S o K,
    # or both, as a _Dense operator, not the complex Gram
    dtypes = []
    solve = norms.top_eigenvalue

    def record(G, **kwargs):
        dtypes.append((type(G), G.matrix.dtype))
        return solve(G, **kwargs)

    monkeypatch.setattr(norms, "top_eigenvalue", record)
    assert delta(12.0, 3, 4.0, 400.0).route == "pairs"
    assert dtypes and all(dtype == (norms._Dense, np.float64) for dtype in dtypes)


def test_windowed_pair_route_peak_stays_below_16_bytes_an_entry(traced_peak):
    # S o K in place on the rectangle of the m rows a <= b: no complex
    # n x n Gram beside it (27 bytes an entry), and no square S either
    n = len(_coprime_pairs(400, "dyadic")[0])
    m = (n + 1) // 2
    delta(12.0, 3, 4.0, 400.0)  # fills the caches of characters and divisors first
    peak = traced_peak(lambda: delta(12.0, 3, 4.0, 400.0))
    assert 8 * m * n <= peak < 8 * n * n, peak / (n * n)


def test_family_route_peak_stays_below_the_size_of_A(monkeypatch, traced_peak):
    # A = V (row-wise Khatri-Rao) P is n x (F nodes) complex; the family
    # route forms neither A nor, on Lanczos, H = A^H A, and its dense
    # solve forms H on the F r dimensions left by the rank cut alone
    sizes = []
    estimate = norms._family_route_bytes

    def record(n, F, nodes, *rest):
        sizes.append((n, F, nodes))
        return estimate(n, F, nodes, *rest)

    monkeypatch.setattr(norms, "_family_route_bytes", record)
    delta(12.0, 1, 4.0, 1000.0)  # fills the caches of characters and divisors first
    peak = traced_peak(lambda: delta(12.0, 1, 4.0, 1000.0))
    n, F, nodes = sizes[-1]
    assert peak < 16 * n * F * nodes, (peak, n, F, nodes)


# ----------------------------------------------------------------------
# monotonicity under index enlargement (interlacing)
# ----------------------------------------------------------------------

def test_delta_monotone_under_index_enlargement():
    # on the real S o K, whose leading blocks are unitarily similar to the
    # Gram's, G = D (S o K) D^H for the diagonal phases D
    spec = FamilySpec(8.0, 3, 2.0)
    index = _pairs_prime_to(3, 120)
    M = norms._pair_gram(norms._multiplicative(spec, *norms._pair_arrays(index)))
    prev = 0.0
    for m in (5, 17, 40, len(index)):
        val = top_eigenvalue(norms._Dense(M[:m, :m].copy())).value
        assert val >= prev - 1e-10 * max(1.0, val)
        prev = val


# ----------------------------------------------------------------------
# duality of operator norms
# ----------------------------------------------------------------------

def test_duality_on_additive_instances():
    import random

    rng = random.Random(9001)
    for _ in range(20):
        Q = rng.randrange(2, 17)
        N = rng.randrange(20, 201)
        rows, index, mat = additive_matrix(Q, N)
        v1, v2 = duality_check(rows, index, mat)
        assert abs(v1 - v2) <= 1e-8 * max(1.0, v1, v2), (Q, N, v1, v2)


def test_additive_gram_matches_row_matrix():
    # q = 1, q = 2, prime powers 7, 8, 9, 11, 13, 16 and composite moduli
    for Q, N in [(10, 80), (1, 30), (2, 40), (16, 200)]:
        rows, index, mat = additive_matrix(Q, N)
        g = gram_additive(Q, N)
        assert g.index == index
        assert np.max(np.abs(g.matrix - mat.conj().T @ mat)) <= 1e-9, (Q, N)


# ----------------------------------------------------------------------
# monotonicity lemmas: witness search
# ----------------------------------------------------------------------

def test_monotonicity_witness_N_aspect():
    res = monotonicity_check_N(4.0, 1, 1.0, 8.0, 23)
    assert res.conditions_met
    assert res.ok and res.witness is not None
    assert 23 <= res.witness <= 46
    assert res.witness in primes_in(23, 46)
    assert res.base <= 8.0 * res.values[res.witness] * (1 + 1e-5) + 1e-9


def test_monotonicity_witness_Q_aspect():
    res = monotonicity_check_Q(4.0, 1, 1.0, 8.0, 17)
    assert res.conditions_met
    assert res.ok and res.witness is not None
    assert 17 <= res.witness <= 34


def test_monotonicity_searches_even_when_conditions_fail():
    # P too small for the N-aspect inequalities at this N: the report
    # records the failed conditions but still searches for a witness
    res = monotonicity_check_N(4.0, 1, 1.0, 64.0, 5)
    assert not res.conditions_met
    assert isinstance(res.conditions, dict) and res.values


# ----------------------------------------------------------------------
# growth-exponent fitting
# ----------------------------------------------------------------------

def test_exponent_fit_exact_recovery():
    samples = [(2.0, 3.0 * 2.0**1.5), (4.0, 3.0 * 4.0**1.5), (8.0, 3.0 * 8.0**1.5),
               (32.0, 3.0 * 32.0**1.5)]
    fit = exponent_fit(samples)
    assert abs(fit.slope - 1.5) <= 1e-12
    assert abs(fit.intercept - math.log(3.0)) <= 1e-12
    assert fit.residual <= 1e-12


def test_exponent_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        exponent_fit([(2.0, 4.0), (4.0, 16.0)])
    with pytest.raises(ValueError):
        exponent_fit([(2.0, 4.0), (4.0, -16.0), (8.0, 64.0)])
    with pytest.raises(ValueError):
        exponent_fit([(2.0, 4.0), (2.0, 5.0), (2.0, 6.0)])


# ----------------------------------------------------------------------
# family construction details
# ----------------------------------------------------------------------

def test_family_members_conductor_window():
    from sievelab.characters import is_primitive

    spec = FamilySpec(12.0, 5, 1.0)
    members = family_members(spec)
    assert members, "window (6,12] coprime to 5 is nonempty"
    for (q, chi, theta) in members:
        assert 6 < q <= 12 and math.gcd(q, 5) == 1
        assert chi.modulus == q and is_primitive(chi)
        assert theta.modulus == 5
    # q = 1 appears only when Q < 2
    small = [q for (q, _, _) in family_members(FamilySpec(1.5, 1, 1.0))]
    assert small == [1]
    assert all(q > 1 for (q, _, _) in family_members(FamilySpec(4.0, 1, 1.0)))
    # parity filter splits the family in two
    full = family_members(FamilySpec(8.0, 3, 1.0))
    even = family_members(FamilySpec(8.0, 3, 1.0, parity="even"))
    odd = family_members(FamilySpec(8.0, 3, 1.0, parity="odd"))
    assert len(even) + len(odd) == len(full)


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(0.5, 1, 1.0)
    with pytest.raises(ValueError):
        FamilySpec(4.0, 0, 1.0)
    with pytest.raises(ValueError):
        FamilySpec(4.0, 1, 0.5)
    with pytest.raises(ValueError):
        FamilySpec(4.0, 1, 1.0, parity="sideways")
