"""Property test for the bins route: on the discrete families it solves
the bins x bins G = Y^T M Y, W = U^T U = Y Y^T, of the buckets in place of
Lanczos on S = U M U^T, and must give the bucket route's value to 1e-12
relative on random additive and rational families.  Needs hypothesis, a
development dependency; the module is skipped without it."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab import norms  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@PROPERTY
@given(family=st.sampled_from([norms._additive, norms._rational]), Q=st.integers(1, 30),
       N=st.integers(1, 1500))
def test_bins_route_matches_the_bucket_route(family, Q, N):
    # both routes read one `_Buckets`; the buckets solve S to tol 1e-12
    # by Lanczos, the bins take the top eigenpair of G and its Rayleigh
    # quotient on S.  A W short of one pair of gates' joint counts, or a
    # lift that misses M, moves the value by far more than 1e-12
    fam = family(Q, N)
    bins = norms._solve(fam, 1e-12, "bins")
    buckets = norms._solve(fam, 1e-12, "buckets")
    assert (bins.route, bins.method, bins.iterations) == ("bins", "eigh", 1)
    assert bins.size == buckets.size == len(fam.a)
    assert bins.bins == norms._Buckets(fam).bins and buckets.bins is None
    assert abs(bins.value - buckets.value) <= 1e-12 * max(buckets.value, 1.0), (bins, buckets)
    assert bins.residual <= 1e-9, bins
