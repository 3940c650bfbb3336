"""Property tests for the index and the family parameters: the array
enumerator of `rationals` against a nested-loop brute force over (a, b),
the sift table that many plans share against a fresh sift and a brute
oracle, and `FamilySpec`, which accepts exactly its documented domain and
refuses everything else with ValueError.  Needs hypothesis, a development
dependency; the module is skipped without it."""

import math
import operator

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab.norms import FamilySpec  # noqa: E402
from sievelab.rationals import _coprime_pairs, rationals_up_to, reduce_mod, vp  # noqa: E402
from sievelab.sieve_apps import SievePlan, _sift, sift_table  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)


def _brute_pairs(N, window):
    """(a, b) coprime with ab <= N and N/2 < ab for the dyadic window, by
    two nested loops in a-major, then-b order."""
    out = []
    a = 1
    while a <= N:
        b = 1
        while a * b <= N:
            if math.gcd(a, b) == 1 and (window == "full" or a * b > N / 2):
                out.append((a, b))
            b += 1
        a += 1
    return out


@PROPERTY
@given(N=st.floats(1.0, 300.0), window=st.sampled_from(["dyadic", "full"]))
def test_enumerator_matches_nested_loops(N, window):
    a, b = _coprime_pairs(N, window)
    assert a.dtype == b.dtype == np.int64
    assert list(zip(a.tolist(), b.tolist())) == _brute_pairs(N, window)


# 2 and 3 divide many ab, so many pairs carry the non-unit marker; past
# 255 the residues are uint16
_SIFT_PRIMES = (2, 3, 5, 7, 257, 263)


@st.composite
def _plans(draw):
    """One to five plans of one height N <= 200 over _SIFT_PRIMES."""
    N = draw(st.integers(1, 200))
    plans = []
    for _ in range(draw(st.integers(1, 5))):
        primes = draw(st.sets(st.sampled_from(_SIFT_PRIMES)))
        plans.append(SievePlan(N, {p: draw(st.sets(st.integers(0, p - 1), max_size=min(p - 1, 60)))
                                   for p in primes}))
    return plans


def _brute_sifted(plan):
    """The oracle of test_sifted_set_brute_oracle, as (a, b) pairs."""
    return [(pt.a, pt.b) for pt in rationals_up_to(plan.N)
            if all(vp(pt, p) != 0 or reduce_mod(pt, p) not in plan.omega[p] for p in plan.omega)]


@settings(PROPERTY, max_examples=100)
@given(plans=_plans())
def test_shared_sift_table_matches_a_fresh_sift_and_the_brute_oracle(plans):
    table = sift_table(plans[0].N, {p for plan in plans for p in plan.omega})
    for p, red in table.residues.items():
        assert red.dtype == (np.uint8 if p < 256 else np.uint16)
        assert np.array_equal(red == p, (table.a * table.b) % p == 0)
    for plan in plans:
        a, b, keep = _sift(plan, table)
        fresh_a, fresh_b, fresh = _sift(plan)
        assert np.array_equal(a[keep], fresh_a[fresh]) and np.array_equal(b[keep], fresh_b[fresh])
        assert list(zip(a[keep].tolist(), b[keep].tolist())) == _brute_sifted(plan)


reals = st.one_of(
    st.integers(-(10**30), 10**30),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.floats(-1e6, 1e6).map(np.float64),
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
anything = st.one_of(
    reals,
    st.booleans(),
    st.none(),
    st.complex_numbers(),
    st.text(max_size=6),
    st.sampled_from(["even", "odd"]),
)


def _real_at_least_one(x):
    if isinstance(x, str):  # no size, whatever float() makes of it
        return False
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        return False
    return math.isfinite(x) and x >= 1


def _integer_at_least_one(x):
    return isinstance(x, (int, np.integer)) and operator.index(x) >= 1


@PROPERTY
@given(Q=anything, k=anything, T=anything,
       parity=st.one_of(st.sampled_from([None, "even", "odd"]), anything))
def test_family_spec_refuses_with_value_error(Q, k, T, parity):
    try:
        FamilySpec(Q, k, T, parity)
    except ValueError:
        accepted = False
    else:
        accepted = True
    domain = (_real_at_least_one(Q) and _real_at_least_one(T) and _integer_at_least_one(k)
              and parity in (None, "even", "odd"))
    assert accepted == domain, (Q, k, T, parity)

