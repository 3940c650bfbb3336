"""Property tests: on small random families of all three kinds the pair
side (exact congruence sums) equals the family side (member values, with
Gauss-Legendre quadrature of I_T for the multiplicative window).  The two
sides share no arithmetic, so each checks the other.  Needs hypothesis,
a development dependency; the module is skipped without it."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab import norms  # noqa: E402
from sievelab.rationals import _coprime_pairs  # noqa: E402
from test_norms import _congruence_sum_by_loops, _pairs_prime_to  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)
# 1 <= Q <= 12 in halves.  The multiplicative family side holds
# (members x 48 nodes)^2 entries, 48 MB at Q = 12 but 5 GB at Q = 40.
Qs = st.integers(2, 24).map(lambda x: x / 2)
# 1 <= Q <= 40 for the discrete families, whose family side is members^2
# (at most 362^2): many more squareful q and d | q reach the pair side.
wide_Qs = st.integers(2, 80).map(lambda x: x / 2)
Ns = st.integers(1, 80)


def _rel_diff(G, H):
    scale = max(1.0, float(np.max(np.abs(G), initial=0.0)))
    return float(np.max(np.abs(G - H), initial=0.0)) / scale


def _top(M):
    """lambda_max of a Hermitian array by LAPACK, which reads its lower
    half; 0 on an empty index, as the solver gives."""
    return float(np.linalg.eigvalsh(M)[-1]) if len(M) else 0.0


def _assert_norms_agree(pair, members, fam, rel):
    """lambda_max of the pair-side matrix `pair` by LAPACK against the
    member side `members`, whatever the index size: the family route's
    H = A^H A for a window, LAPACK on a dense oracle from the member values
    for a discrete family, which the family route does not serve; and the
    route rule's member count, the congruence sum at the index 1/1, and its
    closed form from the terms, are the number of members."""
    want = _top(pair)
    assert abs(members - want) <= rel * max(1.0, want), (members, want)
    one = np.ones(1, dtype=np.int64)
    F = len(fam.members())
    assert norms._congruence_sum(one, one, fam.terms)[0, 0] == norms._member_count(fam.terms) == F


@PROPERTY
@given(Q=Qs, k=st.integers(1, 4), T=st.floats(1.0, 4.0), N=Ns,
       parity=st.sampled_from([None, "even", "odd"]), coprime=st.booleans())
def test_multiplicative_pair_side_equals_family_side(Q, k, T, N, parity, coprime):
    spec = norms.FamilySpec(Q, k, T, parity)
    index = _pairs_prime_to(k if coprime else 1, N)
    pair = norms.gram_multiplicative(spec, index)
    family = norms.gram_bruteforce(spec, index)
    assert pair.index == family.index
    assert _rel_diff(pair.matrix, family.matrix) <= 1e-8
    fam = norms._multiplicative(spec, *norms._pair_arrays(index))
    members = norms._solve(fam, 1e-12, route="family").value
    _assert_norms_agree(pair.matrix, members, fam, 1e-8)
    # the real S o K that delta's pair route solves has the same spectrum
    _assert_norms_agree(norms._pair_gram(fam), members, fam, 1e-8)


@PROPERTY
@given(Q=wide_Qs, N=Ns)
def test_additive_pair_side_equals_family_side(Q, N):
    pair = norms.gram_additive(Q, N)
    rows, index, mat = norms.additive_matrix(Q, N)
    assert pair.index == index and len(rows) == mat.shape[0]
    assert _rel_diff(pair.matrix, mat.conj().T @ mat) <= 1e-9
    _assert_norms_agree(pair.matrix, _top(mat @ mat.conj().T), norms._additive(Q, N), 1e-9)


@PROPERTY
@given(Q=wide_Qs, N=Ns)
def test_rational_pair_side_equals_family_side(Q, N):
    pair = norms.gram_rational(Q, N)
    family = norms.gram_rational_bruteforce(Q, N)
    assert pair.index == family.index
    assert _rel_diff(pair.matrix, family.matrix) <= 1e-9
    _assert_norms_agree(pair.matrix, _top(family.matrix), norms._rational(Q, N), 1e-9)


@PROPERTY
@given(Q=Qs, k=st.sampled_from([1, 3]), T=st.floats(1.0, 4.0), N=Ns,
       parity=st.sampled_from([None, "even", "odd"]), window=st.sampled_from(["dyadic", "full"]),
       block=st.integers(1, 6))
def test_folded_family_operator_is_A_H_A_on_the_whole_index(Q, k, T, N, parity, window, block):
    # sigma maps a/b to b/a.  The member values and phases at sigma n are
    # the conjugates of those at n, so H = A^H A on the whole index is the
    # real operator on the rows a <= b, weighted 2, and 1 at 1/1, which the
    # full window holds and the dyadic one only at N = 1.  A _PRODUCT_BLOCK
    # of block rows splits it into several row blocks
    spec = norms.FamilySpec(Q, k, T, parity)
    fam = norms._multiplicative(spec, *_coprime_pairs(N, window))
    at = {(a, b): i for i, (a, b) in enumerate(zip(fam.a.tolist(), fam.b.tolist()))}
    sigma = np.array([at[b, a] for a, b in zip(fam.a.tolist(), fam.b.tolist())])
    V = norms._member_matrix(fam.members(), fam.a, fam.b)
    P = norms._phase_matrix(fam.L, fam.T, 12)
    assert np.abs(V[sigma] - V.conj()).max(initial=0.0) <= 1e-14
    assert np.abs(P[sigma] - P.conj()).max(initial=0.0) <= 1e-14
    A = (V[:, :, None] * P[:, None, :]).reshape(len(fam.a), -1)
    H = A.conj().T @ A
    reps, w, _ = norms._fold(fam.a, fam.b)
    assert len(reps) == (len(fam.a) + 1) // 2 and w.sum() == len(fam.a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_PRODUCT_BLOCK", block * max(V.shape[1], 12))
        op = norms._KhatriRao(V[reps], P[reps], w)
    assert op.shape == H.shape
    assert len(op.blocks) == -(-len(reps) // block)
    x = np.random.default_rng(len(fam.a)).standard_normal(H.shape[0])
    scale = max(1.0, float(np.abs(H).max(initial=0.0)))
    assert np.abs(op @ x - H.real @ x).max(initial=0.0) <= 1e-12 * scale * np.abs(x).sum()
    diag, ones, cap = op.bounds()
    assert np.abs(diag - H.diagonal().real).max(initial=0.0) <= 1e-12 * scale
    assert abs(ones - H.sum().real) <= 1e-12 * scale * H.size
    aA = np.abs(A)
    bound = min(float((aA * aA).sum()), float(aA.sum(axis=0).max(initial=0.0))
                * float(aA.sum(axis=1).max(initial=0.0)))
    assert abs(cap - bound) <= 1e-12 * max(1.0, bound)


# a term (g, d, c, s): d | g, an integer or half weight c, s = +-1
term = st.tuples(st.integers(1, 40), st.integers(1, 4), st.integers(-40, 40),
                 st.sampled_from([1, -1])).map(lambda t: (t[0] * t[1], t[0], t[2] / 2, t[3]))
terms = st.lists(term, max_size=12)


@settings(PROPERTY, max_examples=300)
@given(ab=st.lists(st.tuples(st.integers(1, 300), st.integers(1, 300)), min_size=1, max_size=24),
       terms=terms, block=st.integers(1, 8), dense_phi=st.sampled_from([0, 4, 16, 10**6]))
def test_congruence_sum_equals_its_loops(ab, terms, block, dense_phi):
    # a chunk of block columns can be narrower than one term (phi(d) <= 16);
    # dense_phi sends every term to the matched pairs, splits them, or sends
    # all to the product
    a, b = np.array(ab, dtype=np.int64).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_PRODUCT_BLOCK", block * len(a))
        mp.setattr(norms, "_DENSE_PHI", dense_phi)
        got = norms._congruence_sum(a, b, terms)
    assert np.array_equal(got, _congruence_sum_by_loops(terms, a, b))


@settings(PROPERTY, max_examples=300)
@given(ab=st.lists(st.tuples(st.integers(1, 300), st.integers(1, 300)), min_size=1, max_size=24),
       terms=st.lists(term, min_size=1, max_size=12))
def test_buckets_apply_the_congruence_sum(ab, terms):
    # every discrete family has at least one term.  The buckets sum S x in
    # another order than the dense product, so they agree to rounding in
    # the sum of |c| |x_m| over the terms, which cancelling weights make
    # larger than |S x|.  Their bounds are the exact diagonal and all-ones
    # form and a cap over the Gershgorin row sums
    a, b = np.array(ab, dtype=np.int64).T
    S = norms._congruence_sum(a, b, terms)
    op = norms._Buckets(norms._Family(a, b, terms, None))
    assert op.shape == S.shape
    x = np.random.default_rng(len(a)).standard_normal(len(a))
    absolute = norms._congruence_sum(a, b, [(g, d, abs(c), s) for g, d, c, s in terms])
    scale = np.linalg.norm(absolute @ np.abs(x))
    assert np.linalg.norm(op @ x - S @ x) <= 1e-13 * scale
    diag, ones, cap = op.bounds()
    assert np.array_equal(diag, S.diagonal())
    assert ones == S.sum()
    assert cap >= np.abs(S).sum(axis=1).max()
