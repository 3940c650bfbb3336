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
from sievelab.rationals import enumerate_pairs  # noqa: E402
from test_norms import _congruence_sum_by_loops  # noqa: E402

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


def _assert_norms_agree(pair, fam, rel):
    """lambda_max of the pair-side Gram against the family side of the
    route rule (H = A^H A), whatever the index size; and the route rule's
    member count, the congruence sum at the index 1/1, is the number of
    members."""
    want = norms.top_eigenvalue(pair, tol=1e-12).value
    got = norms._solve(fam, None, 1e-12, route="family").value
    assert abs(got - want) <= rel * max(1.0, want), (got, want)
    one = np.ones(1, dtype=np.int64)
    assert norms._congruence_sum(one, one, fam.terms)[0, 0] == len(fam.members())


@PROPERTY
@given(Q=Qs, k=st.integers(1, 4), T=st.floats(1.0, 4.0), N=Ns,
       parity=st.sampled_from([None, "even", "odd"]), coprime=st.booleans())
def test_multiplicative_pair_side_equals_family_side(Q, k, T, N, parity, coprime):
    spec = norms.FamilySpec(Q, k, T, parity)
    index = enumerate_pairs(N, "dyadic", coprime_to=k if coprime else 1)
    pair = norms.gram_multiplicative(spec, index)
    family = norms.gram_bruteforce(spec, index, quadrature_nodes=96)
    assert pair.index == family.index
    assert _rel_diff(pair.matrix, family.matrix) <= 1e-8
    fam = norms._multiplicative(spec, *norms._pair_arrays(index))
    _assert_norms_agree(pair, fam, 1e-8)
    # the real S o K that delta's pair route solves has the same spectrum
    _assert_norms_agree(norms._pair_gram(fam), fam, 1e-8)


@PROPERTY
@given(Q=wide_Qs, N=Ns)
def test_additive_pair_side_equals_family_side(Q, N):
    pair = norms.gram_additive(Q, N)
    rows, index, mat = norms.additive_matrix(Q, N)
    assert pair.index == index and len(rows) == mat.shape[0]
    assert _rel_diff(pair.matrix, mat.conj().T @ mat) <= 1e-9
    _assert_norms_agree(pair, norms._additive(Q, N), 1e-9)


@PROPERTY
@given(Q=wide_Qs, N=Ns)
def test_rational_pair_side_equals_family_side(Q, N):
    pair = norms.gram_rational(Q, N)
    family = norms.gram_rational_bruteforce(Q, N)
    assert pair.index == family.index
    assert _rel_diff(pair.matrix, family.matrix) <= 1e-9
    _assert_norms_agree(pair, norms._rational(Q, N), 1e-9)


# a term (g, d, c, s): d | g, an integer or half weight c, s = +-1
terms = st.lists(st.tuples(st.integers(1, 40), st.integers(1, 4), st.integers(-40, 40),
                           st.sampled_from([1, -1]))
                 .map(lambda t: (t[0] * t[1], t[0], t[2] / 2, t[3])), max_size=12)


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
