"""Gram-matrix construction and extremal-eigenvalue machinery: oracle
equivalence, positivity, the t-integral's closed form, eigenvalue floors and
certificates, monotonicity, duality, the grid maximization, growth fits,
and the binary dump format."""

import functools
import math
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest

from sievelab import norms
from sievelab.arith import divisors, mobius, primes_in, totient
from sievelab.norms import (
    FamilySpec,
    GramMatrix,
    additive_matrix,
    default_delta_prime_grid,
    delta,
    delta_add,
    delta_prime_grid,
    delta_rational,
    duality_check,
    exponent_fit,
    family_members,
    gram_additive,
    gram_bruteforce,
    gram_multiplicative,
    gram_rational,
    gram_rational_bruteforce,
    load_gram,
    monotonicity_check_N,
    monotonicity_check_Q,
    save_gram,
    save_gram_csv,
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


def _gram_pair(Q, k, T, N, parity=None):
    spec = FamilySpec(Q, k, T, parity=parity)
    index = enumerate_pairs(N, "dyadic", coprime_to=k)
    return gram_multiplicative(spec, index), gram_bruteforce(
        spec, index, quadrature_nodes=96
    )


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
        out.append(gram_multiplicative(spec, enumerate_pairs(N, "dyadic", coprime_to=k)))
    out.append(gram_multiplicative(FamilySpec(8.0, 3, 2.0, parity="even"),
                                   enumerate_pairs(60, "dyadic", coprime_to=3)))
    out.append(gram_multiplicative(FamilySpec(8.0, 3, 2.0, parity="odd"),
                                   enumerate_pairs(60, "dyadic", coprime_to=3)))
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


@pytest.mark.parametrize("family,Q,N", [("additive", 12, 300), ("additive", 40, 300),
                                        ("rational", 12, 200), ("rational", 5, 100)])
def test_discrete_norms_agree_across_routes(family, Q, N):
    # delta_add and delta_rational take no route argument: the one route
    # rule is called with each route in turn
    build, _ = _DISCRETE[family]
    pairs, fam, buckets = (norms._solve(build(Q, N), 1e-9, route)
                           for route in ("pairs", "family", "buckets"))
    assert (pairs.route, fam.route, buckets.route) == ("pairs", "family", "buckets")
    assert abs(pairs.value - fam.value) <= 1e-9 * pairs.value, (pairs, fam)
    # the buckets sum S x in another order than the dense S: these four
    # moved by at most 4.4e-16 relative
    assert abs(buckets.value - pairs.value) <= 1e-12 * pairs.value, (pairs, buckets)
    norm = delta_add if family == "additive" else delta_rational
    assert norm(Q, N) == buckets  # "auto" takes the buckets


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
    assert top_eigenvalue(np.zeros((0, 0), dtype=complex)).value == 0.0
    est = top_eigenvalue(np.ones((5, 5), dtype=complex))
    assert est.value == 5.0
    est = top_eigenvalue(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert est.value == 3.0


def test_top_eigenvalue_rejects_non_hermitian():
    M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        top_eigenvalue(M)


def test_top_eigenvalue_power_route_certificate():
    # above the dense cutoff: power iteration with a residual certificate
    rng = np.random.default_rng(77)
    B = rng.standard_normal((600, 80)) + 1j * rng.standard_normal((600, 80))
    M = B @ B.conj().T
    M = (M + M.conj().T) / 2
    est = top_eigenvalue(M)
    true = float(np.linalg.eigvalsh(M)[-1])
    assert abs(est.value - true) <= max(est.residual, 1e-9 * true)
    assert abs(est.value - true) <= 1e-8 * true


def _random_psd(n, kind, seed):
    """Seeded PSD test matrices.  "wishart" is B B^H with B n x n/2 complex;
    "triple" and "gap" are Hermitian circulants with a planted spectrum in
    [0, 1) topped by a triple eigenvalue 1 or by 1 and 1 - 1e-8."""
    rng = np.random.default_rng(seed)
    if kind == "wishart":
        B = rng.standard_normal((n, n // 2)) + 1j * rng.standard_normal((n, n // 2))
        M = B @ B.conj().T
        return (M + M.conj().T) / 2
    lam = rng.uniform(0.0, 0.9, n)
    top = [1.0, 1.0, 1.0] if kind == "triple" else [1.0, 1.0 - 1e-8]
    lam[rng.choice(n, len(top), replace=False)] = top
    # circulant C[i, j] = c[(i - j) mod n] with c = ifft(lam) has spectrum lam
    c = np.fft.ifft(lam)
    i = np.arange(n)
    M = c[(i[:, None] - i[None, :]) % n]
    return (M + M.conj().T) / 2


@pytest.mark.parametrize("n", [50, 600, 1500])
@pytest.mark.parametrize("kind", ["wishart", "triple", "gap"])
def test_top_eigenvalue_matches_eigvalsh_on_random_psd(n, kind):
    M = _random_psd(n, kind, seed=n)
    est = top_eigenvalue(M)
    true = float(np.linalg.eigvalsh(M)[-1])
    assert est.method == "lanczos"
    assert abs(est.value - true) <= 1e-12 * true, (est, true)
    assert est.residual <= 1e-9


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
    est = top_eigenvalue(M)
    true = float(np.linalg.eigvalsh(M)[-1])
    assert abs(est.value - true) <= 1e-9 * abs(true), (est, true)
    assert est.residual <= 1e-9


class _Operator:
    """A matrix behind the solver's contract alone: shape, dtype, @ and
    bounds(); it records the dtype of every vector it is applied to."""

    def __init__(self, M):
        self.shape, self.dtype = M.shape, M.dtype
        self.bounds = functools.partial(norms._dense_bounds, M)
        self.matrix, self.applied_to = M, set()

    def __matmul__(self, x):
        self.applied_to.add(x.dtype)
        return self.matrix @ x


@pytest.mark.parametrize("M,basis", [(_random_symmetric(300, "indefinite", seed=4), np.float64),
                                     (_random_psd(300, "wishart", seed=4), np.complex128)])
def test_top_eigenvalue_reads_one_operator_contract(M, basis):
    # an operator that is no ndarray, GramMatrix or _KhatriRao gets the
    # same solve as its bare matrix, in the arithmetic its dtype names
    op = _Operator(M)
    assert top_eigenvalue(op) == top_eigenvalue(M)
    assert op.applied_to == {np.dtype(basis)}


def test_top_eigenvalue_rejects_real_non_symmetric():
    with pytest.raises(ValueError, match="not Hermitian"):
        top_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))
    M = _random_symmetric(40, "psd", seed=1)
    M[3, 5] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        top_eigenvalue(M)


def test_top_eigenvalue_all_ones_breaks_down_exactly():
    # the Krylov space of the all-ones matrix is span(v, 1): the solve
    # stops on breakdown after two steps and returns n exactly
    n = 700
    est = top_eigenvalue(np.ones((n, n), dtype=complex))
    assert est.value == float(n)
    assert est.iterations <= 3


def test_top_eigenvalue_between_floors_and_gershgorin():
    mats = [g.matrix for g in _all_sample_grams() if g.dim]
    mats.append(_random_psd(300, "wishart", seed=3))
    for M in mats:
        n = M.shape[0]
        floor = max(M.diagonal().real.max(), M.sum().real / n)
        ceiling = np.abs(M).sum(axis=1).max()
        val = top_eigenvalue(M).value
        assert floor <= val <= ceiling, (n, floor, val, ceiling)


def test_pair_route_gram_solves_in_few_matvecs():
    # delta(12, 3, 4, 400) takes the pair route at n = 970; power
    # iteration needed about 5000 matvecs here
    est = delta(12.0, 3, 4.0, 400.0)
    assert est.method == "lanczos"
    assert est.iterations <= 200, est.iterations


def test_top_eigenvalue_rejects_non_finite():
    M = _random_psd(600, "wishart", seed=5)
    M[3, 7] = M[7, 3] = np.nan
    with pytest.raises(ValueError):
        top_eigenvalue(M)
    with pytest.raises(ValueError):
        top_eigenvalue(np.full((4, 4), np.inf, dtype=complex))
    with pytest.raises(ValueError):
        top_eigenvalue(np.ones((3, 4), dtype=complex))
    # a tolerance of inf stopped Lanczos after one step, nan never stopped it
    for tol in (float("inf"), float("nan"), -1e-9):
        with pytest.raises(ValueError, match="tol"):
            top_eigenvalue(np.eye(3), tol=tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_top_eigenvalue_rejects_an_overflowing_solve():
    # finite entries whose Lanczos norms overflow give a ValueError, not a
    # NaN value; delta reached them from T near 1e155
    for M in (np.full((4, 4), 1e300), 1e200 * np.eye(5), np.full((3, 3), 1e300 + 0j)):
        with pytest.raises(ValueError, match="overflowed"):
            top_eigenvalue(M)
    with pytest.raises(ValueError, match="overflowed"):
        delta(4.0, 1, 1e200, 40.0)
    # and a window too wide for int() is refused by the family estimate
    with pytest.raises(ValueError, match="family route .* over the"):
        delta(4.0, 1, 1e308, 40.0, route="family")


def test_delta_rejects_unknown_route():
    with pytest.raises(ValueError):
        delta(4.0, 1, 1.0, 40.0, route="bogus")
    with pytest.raises(ValueError):
        delta(4.0, 1, 1.0, 40.0, route="pair")


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
        a = delta(Q, k, T, N, parity=parity, route="pairs").value
        b = delta(Q, k, T, N, parity=parity, route="family").value
        assert abs(a - b) <= 1e-9 * max(1.0, a), (Q, k, T, N, parity, a, b)


def test_delta_route_dispatch_at_scale():
    # past the pair-route cutoff "auto" takes the family route
    auto = delta(4.0, 1, 1.0, 900.0, route="auto").value
    fam = delta(4.0, 1, 1.0, 900.0, route="family").value
    assert auto == fam
    # and at a size where both routes are explicit they agree
    a = delta(4.0, 1, 1.0, 640.0, route="pairs").value
    b = delta(4.0, 1, 1.0, 640.0, route="family").value
    assert abs(a - b) <= 1e-8 * a


def test_family_route_record_is_a_lanczos_solve():
    # 2400 pairs at N = 900: past the cutoff, "auto" takes the family route
    est = delta(4.0, 1, 1.0, 900.0)
    assert est.method == "lanczos"
    assert est.iterations > 1
    assert est.residual <= 1e-8
    assert est.route == "family"
    # at N = 640 (1592 pairs) "auto" keeps the pair route
    assert delta(4.0, 1, 1.0, 640.0).route == "pairs"
    # the window (1, 2] holds no primitive character: an empty family
    for route in ("auto", "pairs", "family"):
        empty = delta(2.0, 1, 1.0, 40.0, route=route)
        assert empty.value == 0.0
        assert empty.method == "lanczos"


def test_trivial_family_norms_are_exact_counts():
    # Q = 1 leaves the all-ones Gram: top eigenvalue is the index size.
    # The certified floor makes the value >= n exactly; the dense solver
    # may only add rounding on the high side.
    # N = 500 (n = 2285) and N = 1000 (n = 2702) are past the pair cutoff,
    # which the discrete families no longer read: every count comes from
    # the buckets
    for N in (10, 30, 75, 500):
        n = len(rationals_up_to(N))
        val = delta_rational(1, N).value
        assert n <= val <= n * (1 + 1e-12)
    for N in (10, 30, 75, 1000):
        n = len(enumerate_pairs(N, "dyadic", 1))
        val = delta_add(1, N).value
        assert n <= val <= n * (1 + 1e-12)


def test_rational_and_additive_norms_take_the_family_side_past_the_cutoff(monkeypatch):
    cases = {"gram_rational": (delta_rational, 12, 600), "gram_additive": (delta_add, 12, 1200)}
    want = {}
    for name, (_, Q, N) in cases.items():
        g = getattr(norms, name)(Q, N)
        assert g.dim > norms._PAIR_ROUTE_MAX
        want[name] = top_eigenvalue(g).value

    def pair_side(*args):
        raise AssertionError("the pair-side Gram was built past the cutoff")

    # with the pair-side matrix raising, the norms can only come from a
    # route that forms no S: the buckets, since the discrete families take
    # them at every size
    monkeypatch.setattr(norms, "_pair_gram", pair_side)
    for name, (norm, Q, N) in cases.items():
        got = norm(Q, N).value
        assert abs(got - want[name]) <= 1e-12 * want[name], (name, got, want[name])


def test_auto_route_keeps_the_pair_side_when_the_family_side_is_larger(monkeypatch):
    # with the cutoff lowered to 10 indices, a family with members x nodes
    # >= indices stays on the pair side: H would be the larger matrix
    monkeypatch.setattr(norms, "_PAIR_ROUTE_MAX", 10)
    index = enumerate_pairs(60, "dyadic")
    larger = {  # (norm, pair-side Gram, indices, members x nodes)
        "multiplicative": (lambda: delta(12.0, 1, 1.0, 60.0),
                           gram_multiplicative(FamilySpec(12.0), index), 21 * 48),
        "additive": (lambda: delta_add(12, 20), gram_additive(12, 20), 34),
        "rational": (lambda: delta_rational(12, 6), gram_rational(12, 6), 27),
    }
    want = {}
    for name, (_, g, size) in larger.items():
        assert norms._PAIR_ROUTE_MAX < g.dim <= size, (name, g.dim)
        want[name] = top_eigenvalue(g).value
    # a single member (Q = 1, T = 1: 48 nodes) is the smaller side for 70
    # indices
    single = top_eigenvalue(gram_multiplicative(FamilySpec(1.0), enumerate_pairs(40))).value

    def member_values(*args):
        raise AssertionError("the family side was built although it is larger")

    # the window keeps the pair side bitwise; the discrete families take
    # the buckets, which sum S x in another order
    with monkeypatch.context() as m:
        m.setattr(norms, "_member_matrix", member_values)
        assert larger["multiplicative"][0]().value == want["multiplicative"]
        for name in ("additive", "rational"):
            got = larger[name][0]()
            assert got.route == "buckets"
            assert abs(got.value - want[name]) <= 1e-12 * want[name], name

    def pair_side(*args):
        raise AssertionError("the pair-side Gram was built")

    monkeypatch.setattr(norms, "_pair_gram", pair_side)
    est = delta(1.0, 1, 1.0, 40.0)
    assert est.route == "family" and abs(est.value - single) <= 1e-9 * single
    # neither side for a discrete family with one member
    n = len(enumerate_pairs(20, "dyadic", 1))
    assert n > norms._PAIR_ROUTE_MAX
    assert delta_add(1, 20).value == n
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
    for norm, n in [(lambda: norms._solve(norms._rational(12, 200), 1e-9, "pairs"),
                     len(rationals_up_to(200))),
                    (lambda: delta(12.0, 3, 4.0, 400.0, route="pairs"),
                     len(enumerate_pairs(400, "dyadic")))]:
        estimate = f"{norms._pair_route_bytes(n) / 2**20:.1f} MiB"
        with pytest.raises(ValueError, match=f"pairs route on {n} indices .* {estimate}, "
                                             "over the 1.0 MiB cap"):
            norm()
    # delta(12, 3, 4, 400) takes the pair side by the route rule
    assert cli.run(["norm", "-Q", "12", "-k", "3", "-T", "4", "-N", "400"]) == 2
    err = capsys.readouterr().err
    assert f"{norms._pair_route_bytes(len(enumerate_pairs(400))) / 2**20:.1f} MiB" in err
    assert "1.0 MiB cap" in err
    # the discrete families take the buckets, which hold no n x n matrix
    # and fit under the lowered cap with the steps this solve needs
    assert delta_rational(12, 200) == rational
    assert delta_rational(1, 500).value >= len(rationals_up_to(500))


_PUBLIC_GRAMS = {
    "rational": (lambda: gram_rational(12, 200), len(rationals_up_to(200))),
    "additive": (lambda: gram_additive(150, 500), len(enumerate_pairs(500))),
    "multiplicative": (lambda: gram_multiplicative(FamilySpec(12.0, 3, 4.0, "odd"),
                                                   enumerate_pairs(400)), len(enumerate_pairs(400))),
    "bruteforce": (lambda: gram_bruteforce(FamilySpec(6.0, 2, 2.0), enumerate_pairs(300), 96),
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
def test_public_gram_estimates_cover_the_measured_peak(kind, monkeypatch):
    needs = []
    check = norms._check_bytes

    def record(what, need, cap):
        needs.append((what, need))
        check(what, need, cap)

    monkeypatch.setattr(norms, "_check_bytes", record)
    build, n = _PUBLIC_GRAMS[kind]
    build()  # fills the caches of characters and divisors first
    needs.clear()
    peak = _traced_peak(build)
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
def test_additive_matrix_estimate_covers_the_measured_peak(Q, N, monkeypatch):
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
    peak = _traced_peak(lambda: additive_matrix(Q, N))
    n, F = _additive_sizes(Q, N)
    what = f"additive matrix on {n} indices x {F} members"
    need, = [need for w, need in needs if w == what]
    assert 16 * n * F <= peak <= need, (peak, need)


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
    from sievelab.characters import primitive_chars

    # the same lowered cap; the member values raise, so the refusal must
    # come from the estimate, before the family side is built
    monkeypatch.setattr(norms, "_ROUTE_BYTES", 1 << 20)

    def member_values(*args):
        raise AssertionError("the family side was built past the cap")

    monkeypatch.setattr(norms, "_member_matrix", member_values)
    F = len(family_members(FamilySpec(12.0, 3, 4.0)))
    with pytest.raises(ValueError, match=f"family route on {F} members x \\d+ nodes needs an "
                                         "estimated .* MiB, over the 1.0 MiB cap"):
        delta(12.0, 3, 4.0, 400.0, route="family")
    # past 2000 pairs delta(12, 1, 4, 1000) takes the family side
    assert cli.run(["norm", "-Q", "12", "-T", "4", "-N", "1000"]) == 2
    err = capsys.readouterr().err
    F = len(family_members(FamilySpec(12.0, 1, 4.0)))
    assert re.search(f"family route on {F} members x \\d+ nodes", err) and "1.0 MiB cap" in err
    # an explicit family route on a discrete family refuses the same way
    F = sum(len(primitive_chars(q)) for q in range(1, 13))
    with pytest.raises(ValueError, match=f"family route on {F} members x 1 nodes .* 1.0 MiB cap"):
        norms._solve(norms._rational(12, 600), 1e-9, "family")


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
    # H = A^H A with A built entrywise; a small _PRODUCT_BLOCK splits the
    # operator's rows into several blocks
    if block:
        monkeypatch.setattr(norms, "_PRODUCT_BLOCK", block)
    V, P, A = _entrywise_A(_OPERATOR_FAMILIES[kind]())
    H = A.conj().T @ A
    op = norms._KhatriRao(V, P)
    assert op.shape == H.shape
    assert (len(op.blocks) > 1) == bool(block)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
        assert np.linalg.norm(op @ x - H @ x) <= 1e-12 * np.linalg.norm(H @ x)
    diag, ones, cap = op.bounds()
    assert np.abs(diag - H.diagonal().real).max() <= 1e-12 * H.diagonal().real.max()
    assert abs(ones - H.sum().real) <= 1e-12 * abs(H.sum())
    top = float(np.linalg.eigvalsh(H).max())
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
    # the family route and on the pair route of every family
    built = []
    for cls in (CoprimePair, RationalPoint):
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
    assert delta(12.0, 1, 4.0, 1000.0).route == "family"
    assert norms._solve(norms._rational(12, 600), 1e-9, "family").route == "family"
    assert delta(4.0, 1, 1.0, 40.0).route == "pairs"
    assert norms._solve(norms._additive(12, 300), 1e-9, "pairs").route == "pairs"
    assert delta_add(12, 300).route == "buckets"
    assert delta_rational(12, 200).route == "buckets"
    assert delta_rational(12, 600).route == "buckets"
    assert built == []


def test_pair_route_builds_the_index_once(monkeypatch):
    # each Delta enumerates its index once; the pair route hands the arrays
    # to one pair-side matrix, and the buckets build none.  No solve builds
    # a second index, term list or point object
    calls, sides, built = [], [], []
    enumerate_once, pair_gram = norms._coprime_pairs, norms._pair_gram

    def counted_pairs(*args):
        calls.append(args)
        return enumerate_once(*args)

    def counted_gram(fam):
        sides.append(pair_gram(fam))
        return sides[-1]

    monkeypatch.setattr(norms, "_coprime_pairs", counted_pairs)
    monkeypatch.setattr(norms, "_pair_gram", counted_gram)
    for cls in (CoprimePair, RationalPoint):
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
    for norm, args, route in [(lambda: delta(4.0, 1, 1.0, 40.0), (40.0, "dyadic"), "pairs"),
                              (lambda: delta_add(12, 300), (300, "dyadic"), "buckets"),
                              (lambda: delta_rational(12, 200), (200,), "buckets")]:
        calls.clear()
        sides.clear()
        est = norm()
        assert est.route == route
        assert calls == [args]
        assert est.size == len(_coprime_pairs(*args)[0])
        assert [S.shape for S in sides] == ([(est.size,) * 2] if route == "pairs" else [])
    assert built == []


def test_discrete_norms_build_neither_side(monkeypatch):
    # on the auto route the discrete families solve through the buckets:
    # no pair-side matrix, no member values and no phases
    def built(*args):
        raise AssertionError("a pair or family side was built")

    want = [norms._solve(norms._additive(12, 300), 1e-9, "buckets"),
            norms._solve(norms._rational(12, 200), 1e-9, "buckets")]
    for name in ("_pair_gram", "_member_matrix", "_phase_matrix"):
        monkeypatch.setattr(norms, name, built)
    assert [delta_add(12, 300), delta_rational(12, 200)] == want
    assert [est.route for est in want] == ["buckets", "buckets"]


def test_bucket_route_caps_its_steps_to_fit_and_refuses_past_the_cap(monkeypatch):
    # the Lanczos steps are capped by _ROUTE_BYTES: with room for 5 rows
    # the solve stops there and reports its residual; with no room for one
    # row the route refuses before the operator is built
    fam = norms._rational(12, 200)
    n = len(fam.a)
    gates, labels, entries = norms._bucket_sizes(n, fam.terms)
    assert gates == 12
    full = delta_rational(12, 200)
    assert full.iterations > 6
    monkeypatch.setattr(norms, "_ROUTE_BYTES", norms._bucket_route_bytes(n, labels, entries, 5))
    capped = delta_rational(12, 200)
    assert (capped.route, capped.iterations) == ("buckets", 6)
    assert capped.residual > 1e-9 and capped.value <= full.value * (1 + 1e-12)

    def operator(*args):
        raise AssertionError("the buckets were built past the cap")

    monkeypatch.setattr(norms, "_Buckets", operator)
    monkeypatch.setattr(norms, "_ROUTE_BYTES", norms._bucket_route_bytes(n, labels, entries, 1) - 1)
    with pytest.raises(ValueError, match=f"buckets route on {n} indices x 12 gates needs an "
                                         "estimated [\\d.]+ MiB, over the "):
        delta_rational(12, 200)


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


def test_family_operator_rejects_non_finite():
    V, P = np.ones((5, 2), dtype=complex), np.ones((5, 3), dtype=complex)
    for M, bad in [(V, np.nan), (P, np.inf), (P, complex(0, np.nan))]:
        M[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            norms._KhatriRao(V, P)
        M[2, 1] = 1


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _capacity(rows, steps):
    """The rows of the Lanczos basis after `rows` steps of at most `steps`:
    doubled from 32, as in top_eigenvalue."""
    capacity = 32
    while capacity < rows:
        capacity *= 2
    return min(capacity, steps)


def test_route_estimates_cover_the_measured_peak(monkeypatch):
    family_route_bytes = norms._family_route_bytes
    bucket_route_bytes = norms._bucket_route_bytes
    estimates = []
    for name in ("_pair_route_bytes", "_family_route_bytes", "_bucket_route_bytes"):
        def record(*args, estimate=getattr(norms, name), name=name):
            estimates.append((name, args, estimate(*args)))
            return estimates[-1][2]
        monkeypatch.setattr(norms, name, record)
    for norm in [lambda: delta(12.0, 3, 4.0, 400.0),  # a window, pairs
                 lambda: delta(12.0, 3, 4.0, 400.0, parity="odd"),
                 lambda: delta_rational(12, 200),  # discrete, buckets
                 lambda: delta_add(40, 300),
                 lambda: delta_rational(30, 2000),  # the basis doubles past 64 rows
                 lambda: delta(12.0, 1, 4.0, 1000.0)]:  # the family side
        norm()  # fills the caches of characters and divisors first
        estimates.clear()
        results = []
        peak = _traced_peak(lambda: results.append(norm()))
        # the route is checked against its last estimate; the bucket route
        # first estimates without a basis, for the room its steps may take
        (name, args, need) = estimates[-1]
        assert {name for name, _, _ in estimates} == {name}
        assert peak <= need, (name, args, peak, need)
        if name == "_pair_route_bytes":
            # the pair side really holds S, 8 bytes an entry, at its peak,
            # with or without a window
            (n,) = args
            assert 8 * n * n <= peak
        elif name == "_bucket_route_bytes":
            # the most steps that fit under the cap; no n x n matrix, and the
            # estimate at the basis the solve reached still covers the peak
            n, labels, entries, steps = args
            assert steps == min(n, norms._MAX_ITER) or (
                bucket_route_bytes(n, labels, entries, steps + 1) > norms._ROUTE_BYTES)
            assert peak < 8 * n * n
            ran = bucket_route_bytes(n, labels, entries,
                                     _capacity(results[0].iterations - 1, steps))
            assert peak <= ran <= 2 * peak, (args, peak, ran)
        else:
            # the solve held iterations - 1 Lanczos vectors: the last matvec
            # is the Rayleigh quotient of the Ritz vector
            n, F, nodes, rows = args
            rows_used = results[0].iterations - 1
            assert rows == min(F * nodes, norms._MAX_ITER) and rows_used < rows
            ran = family_route_bytes(n, F, nodes, rows_used)
            assert peak <= ran <= 1.1 * peak, (args, rows_used, peak, ran)
            assert ran <= need
    assert [name for name, _, _ in estimates] == ["_family_route_bytes"]


def test_discrete_pair_gram_stays_within_its_estimate():
    # gram_additive(150, 500): n = 1248 and 826 indicator columns, so the
    # congruence product runs in two column chunks.  Added as one n x n
    # temporary beside S, the product would hold 24 bytes an entry, past
    # the 16-byte estimate
    n = len(_coprime_pairs(500, "dyadic")[0])
    gram_additive(150, 500)  # fills the caches of divisors first
    peak = _traced_peak(lambda: gram_additive(150, 500))
    assert 16 * n * n <= peak <= norms._pair_route_bytes(n) < 24 * n * n


def test_discrete_pair_gram_holds_S_alone():
    # gram_rational(12, 200): one column chunk, so the float64 S is the
    # whole peak, with no int64 or float64 copy of it beside
    n = len(_coprime_pairs(200)[0])
    gram_rational(12, 200)  # fills the caches of divisors first
    peak = _traced_peak(lambda: gram_rational(12, 200))
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
    # delta hands top_eigenvalue the real S o K, not the complex Gram
    dtypes = []
    solve = norms.top_eigenvalue

    def record(G, **kwargs):
        dtypes.append(np.asarray(G).dtype)
        return solve(G, **kwargs)

    monkeypatch.setattr(norms, "top_eigenvalue", record)
    assert delta(12.0, 3, 4.0, 400.0).route == "pairs"
    assert dtypes == [np.float64]


def test_windowed_pair_route_peak_stays_below_16_bytes_an_entry():
    # S o K in place: no complex n x n Gram beside S (27 bytes an entry)
    n = len(_coprime_pairs(400, "dyadic")[0])
    delta(12.0, 3, 4.0, 400.0)  # fills the caches of characters and divisors first
    peak = _traced_peak(lambda: delta(12.0, 3, 4.0, 400.0))
    assert 8 * n * n <= peak < 16 * n * n, peak / (n * n)


def test_family_route_peak_stays_below_the_size_of_A(monkeypatch):
    # A = V (row-wise Khatri-Rao) P is n x (F nodes) complex; the family
    # route forms neither A nor H = A^H A
    sizes = []
    estimate = norms._family_route_bytes

    def record(n, F, nodes, *rest):
        sizes.append((n, F, nodes))
        return estimate(n, F, nodes, *rest)

    monkeypatch.setattr(norms, "_family_route_bytes", record)
    delta(12.0, 1, 4.0, 1000.0)  # fills the caches of characters and divisors first
    peak = _traced_peak(lambda: delta(12.0, 1, 4.0, 1000.0))
    n, F, nodes = sizes[-1]
    assert peak < 16 * n * F * nodes, (peak, n, F, nodes)


# ----------------------------------------------------------------------
# monotonicity under index enlargement (interlacing)
# ----------------------------------------------------------------------

def test_delta_monotone_under_index_enlargement():
    spec = FamilySpec(8.0, 3, 2.0)
    index = enumerate_pairs(120, "dyadic", coprime_to=3)
    G = gram_multiplicative(spec, index).matrix
    prev = 0.0
    for m in (5, 17, 40, len(index)):
        val = top_eigenvalue(G[:m, :m]).value
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
# grid maximization
# ----------------------------------------------------------------------

def test_delta_prime_grid_default():
    g = delta_prime_grid(8.0, 1, 1.0, 32.0)
    assert g.is_lower_bound
    assert g.best == max(g.values)
    assert g.best_tuple in g.tuples
    # the trivial tuple makes the grid value at least delta itself
    base = delta(8.0, 1, 1.0, 32.0).value
    assert g.best >= base - 1e-9 * base
    for (X, R, U, C, ell) in default_delta_prime_grid(8.0, 1, 1.0):
        assert X * R * R * ell * U <= 64.0 * (1 + 1e-12)
        assert X <= C


def test_delta_prime_grid_rejects_inadmissible():
    with pytest.raises(ValueError):
        delta_prime_grid(4.0, 1, 1.0, 16.0, grid=[(2, 4.0, 1.0, 2, 1)])
    with pytest.raises(ValueError):
        delta_prime_grid(4.0, 1, 1.0, 16.0, grid=[(4, 2.0, 1.0, 2, 1)])


def test_delta_prime_grid_empty_window_scores_zero():
    g = delta_prime_grid(4.0, 1, 1.0, 16.0, grid=[(1, 4.0, 1.0, 32.0, 1)])
    assert g.values == (0.0,)
    assert g.best == 0.0


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
# binary dump and CSV export
# ----------------------------------------------------------------------

def test_gram_dump_roundtrip(tmp_path):
    g = gram_multiplicative(FamilySpec(6.0, 1, 2.0), enumerate_pairs(30, "dyadic", 1))
    path = tmp_path / "g.slgm"
    save_gram(path, g)
    raw = path.read_bytes()
    assert raw[:4] == b"SLGM"
    dim, reserved = struct.unpack("<IQ", raw[4:16])
    assert dim == g.dim and reserved == 0
    assert len(raw) == 16 + 16 * dim * dim
    back = load_gram(path)
    assert np.array_equal(back.matrix, g.matrix)


def test_gram_dump_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.slgm"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError):
        load_gram(path)


def test_gram_csv_export(tmp_path):
    g = gram_rational(3, 12)
    path = tmp_path / "g.csv"
    save_gram_csv(path, g)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,re,im"
    assert len(lines) == 1 + g.dim * g.dim
    i, j, re, im = lines[1].split(",")
    assert (int(i), int(j)) == (0, 0)
    assert complex(float(re), float(im)) == g.matrix[0, 0]


def test_gram_csv_export_rejects_large(tmp_path):
    big = GramMatrix(tuple(range(65)), np.zeros((65, 65), dtype=complex))
    with pytest.raises(ValueError):
        save_gram_csv(tmp_path / "big.csv", big)


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
