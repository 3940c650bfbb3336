"""Property test for the pair side's window: `_pair_gram` builds
K[n, m] = (T/2) sinc((L_n - L_m) T/4) from the sine addition formula, from
O(n) sines and cosines, and must stay within its rounding bound of the
direct `_window` on random index sets and windows T.  Needs hypothesis, a
development dependency; the module is skipped without it."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab import norms  # noqa: E402
from sievelab.norms import FamilySpec  # noqa: E402
from sievelab.rationals import _coprime_pairs  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)
EPS = 2.0**-52


@PROPERTY
@given(N=st.integers(2, 3000), T=st.floats(1.0, 1e4), keep=st.integers(2, 300),
       seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 3]))
def test_addition_formula_window_matches_sinc(N, T, keep, seed, k):
    # the formula's rounding: sines and cosines of O(1) in products that
    # cancel, eps (16/T) of T/2 over |L_n - L_m|, and the rounding of
    # alpha L_n, eps Lmax of T/2 over |L_n - L_m|; sinc's own, a few eps
    # of T/2.  Exactly T/2 where L_n = L_m.  A wrong alpha, sign or
    # diagonal misses the bound by orders of magnitude
    a, b = _coprime_pairs(N)
    pick = np.random.default_rng(seed).permutation(len(a))[:keep]
    fam = norms._multiplicative(FamilySpec(6.0, k, T), a[pick], b[pick])
    M = norms._pair_gram(fam)
    S = norms._congruence_sum(fam.a, fam.b, fam.terms)
    D = fam.L[:, None] - fam.L
    want = S * norms._window(D, T)
    same = D == 0
    assert np.array_equal(M[same], S[same] * (T / 2))
    Lmax = float(np.abs(fam.L).max())
    bound = np.abs(S[~same]) * (T / 2) * EPS * (8 + (32 / T + 2 * Lmax) / np.abs(D[~same]))
    assert (np.abs(M[~same] - want[~same]) <= bound).all()
