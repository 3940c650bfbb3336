"""Property test for the family route's two solves on the rank-cut phases:
on random windowed multiplicative families, the dense eigh of H and
Lanczos on the same compressed operator must both give the pair route's
Delta to 1e-12 relative.  The node bound and the rank cut together may
move Delta by at most 1e-12 relative; a rank cut a million times coarser
fails the property.  Needs hypothesis, a development dependency; the
module is skipped without it."""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab import norms  # noqa: E402
from sievelab.norms import FamilySpec  # noqa: E402
from sievelab.rationals import _coprime_pairs  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@PROPERTY
@given(Q=st.integers(1, 12), k=st.sampled_from([1, 3]),
       parity=st.sampled_from([None, "even", "odd"]), T=st.floats(1.0, 32.0),
       N=st.integers(1, 300))
def test_dense_and_lanczos_family_solves_match_the_pair_route(Q, k, T, N, parity):
    # the rule is set to each side in turn: a dense eigh whenever H has a
    # dimension, then Lanczos always; the empty family has none, so it
    # runs Lanczos on both
    fam = norms._multiplicative(FamilySpec(Q, k, T, parity), *_coprime_pairs(N, "dyadic"))
    want = norms._solve(fam, 1e-12, "pairs").value
    got = {}
    with pytest.MonkeyPatch.context() as m:
        for work in (math.inf, 0):
            m.setitem(norms._DENSE_WORK, "family", work)
            got[work] = norms._solve(fam, 1e-12, "family")
    dense, lanczos = got[math.inf], got[0]
    assert dense.method == ("eigh" if want else "lanczos") and lanczos.method == "lanczos"
    assert dense.nodes == lanczos.nodes == norms._quadrature_nodes(
        len(fam.a), float(abs(fam.L).max()), T)
    for est in (dense, lanczos):
        assert est.route == "family"
        assert abs(est.value - want) <= 1e-12 * max(want, 1.0), (est, want)
