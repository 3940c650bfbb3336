"""Rational-point enumeration and reduction: pair-count oracle, window
semantics, character evaluation through red_q, and the homomorphism
property of reduction."""

import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sievelab.arith import is_prime, omega
from sievelab.characters import char_group, rational_eval
from sievelab.rationals import (
    CoprimePair,
    Ht,
    RationalPoint,
    _coprime_pairs,
    _reduce,
    as_point,
    enumerate_pairs,
    ht,
    in_localization,
    rationals_up_to,
    reduce_mod,
    vp,
)


# ----------------------------------------------------------------------
# pair-count oracle: #{(a,b) coprime, ab <= N} = sum_{n<=N} 2^omega(n)
# ----------------------------------------------------------------------

def test_pair_count_oracle_up_to_1e4():
    NMAX = 10**4
    pairs = enumerate_pairs(NMAX, "full")
    per_product = Counter(p.a * p.b for p in pairs)
    # per-product counts pin every cumulative count at once
    for n in range(1, NMAX + 1):
        assert per_product[n] == 2 ** omega(n), n
    # and the enumerator's own N-dependence agrees on a ladder of cuts
    running = 0
    cumulative = {}
    for n in range(1, NMAX + 1):
        running += per_product[n]
        cumulative[n] = running
    cuts = list(range(1, 201)) + [333, 999, 1024, 4096, 7919, NMAX]
    for N in cuts:
        assert len(enumerate_pairs(N, "full")) == cumulative[N], N


def test_window_semantics():
    for N in (1, 2, 7, 24, 100, 241):
        full = set(enumerate_pairs(N, "full"))
        dyadic = set(enumerate_pairs(N, "dyadic"))
        assert dyadic == {p for p in full if p.a * p.b > N / 2}
        for p in full:
            assert math.gcd(p.a, p.b) == 1
            assert 1 <= p.a * p.b <= N


def test_non_finite_heights_are_refused():
    for N in (math.inf, math.nan):
        for build in (lambda: enumerate_pairs(N, "full"), lambda: enumerate_pairs(N),
                      lambda: rationals_up_to(N)):
            with pytest.raises(ValueError, match="finite"):
                build()


def test_point_views_refuse_past_the_cap_before_building(monkeypatch, capsys):
    # each object view of an index refuses once _POINT_BYTES an object
    # passes the cap, before any object; the views whose count is exact
    # from N alone refuse before the int64 index too
    from sievelab import cli, rationals
    from sievelab.norms import _rational
    from sievelab.sieve_apps import SievePlan, sifted_set

    built = []
    for cls in (CoprimePair, RationalPoint):
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))

    def enumerated(*args):
        raise AssertionError("the index was built before the refusal")

    full, dyadic = (len(rationals._coprime_pairs(3000, w)[0]) for w in ("full", "dyadic"))
    for view, count, counted in [(lambda: enumerate_pairs(3000), dyadic, True),
                                 (lambda: rationals_up_to(3000), full, True),
                                 (lambda: rationals_up_to(3000, sign=True), 2 * full, True),
                                 (lambda: sifted_set(SievePlan(3000, {})), full, False),
                                 (lambda: _rational(1, 3000).index, full, False)]:
        cap = rationals._POINT_BYTES * count - 1
        assert 40 * 3000 * (1 + math.log(3000)) <= cap  # the index itself fits
        monkeypatch.setattr(rationals, "_ROUTE_BYTES", cap)
        with monkeypatch.context() as m:
            if counted:
                m.setattr(rationals, "_coprime_pairs", enumerated)
            with pytest.raises(ValueError, match=f"the list of {count} point objects needs an "
                                                 f"estimated [\\d.]+ MiB, over the "):
                view()
    # the CLI path that reaches a view exits 2 with the estimate, before the
    # index; the sieve counts its survivors on the index arrays and reaches
    # no view
    with monkeypatch.context() as m:
        m.setattr(rationals, "_coprime_pairs", enumerated)
        assert cli.run(["bdh", "-X", "3000", "-Q", "4", "--trials", "1"]) == 2
    assert cli.run(["sieve", "-N", "3000", "-Q", "4", "--trials", "1"]) in (0, 1)
    assert capsys.readouterr().err.count(f"list of {full} point objects") == 1
    assert built == []


@pytest.mark.parametrize("N", [1, 2, 7.5, 10, 99, 1000, 4321, 10**5])
def test_index_count_is_exact_from_N(N):
    # sum_{d <= sqrt N} mu(d) D(N / d^2) against the enumerated index, in
    # both windows; the dyadic window is count(N) - count(N/2)
    from sievelab.rationals import _coprime_count

    assert _coprime_count(math.floor(N)) == len(_coprime_pairs(N)[0])
    dyadic = _coprime_count(math.floor(N)) - _coprime_count(math.floor(N / 2))
    assert dyadic == len(_coprime_pairs(N, "dyadic")[0])


def test_point_estimate_covers_the_measured_peak(traced_peak):
    # the worst case: every coordinate past the small-int cache, so each
    # object holds ints of its own, and a sign column; (a + M b, b + M a')
    # stays coprime
    from sievelab.rationals import _POINT_BYTES, _points

    a, b = _coprime_pairs(20000)
    a = a + 10**6 * b
    b = b + 10**6 * a
    sign = np.ones(len(a), dtype=np.int64)
    for point, columns in [(CoprimePair, (a, b)), (RationalPoint, (a, b, sign))]:
        peak = traced_peak(lambda: _points(point, *columns))
        assert 100 * len(a) <= peak <= _POINT_BYTES * len(a), peak / len(a)


def test_enumeration_order_is_a_major_then_b():
    pairs = enumerate_pairs(200, "full")
    assert pairs == sorted(pairs, key=lambda p: (p.a, p.b))


# ----------------------------------------------------------------------
# character evaluation through reduction
# ----------------------------------------------------------------------

def test_rational_eval_matches_char_of_reduction():
    pairs = enumerate_pairs(100, "full")
    for q in range(1, 31):
        for chi in char_group(q):
            for p in pairs:
                if math.gcd(p.a * p.b, q) != 1:
                    continue
                lhs = chi(reduce_mod(Fraction(p.a, p.b), q))
                rhs = rational_eval(chi, p.a, p.b)
                assert abs(lhs - rhs) <= 1e-10, (q, chi, p)


def test_reduce_mod_is_a_homomorphism():
    rng = random.Random(4099)
    done = 0
    while done < 1000:
        q = rng.randrange(1, 31)
        a1, b1 = rng.randrange(-50, 51), rng.randrange(1, 51)
        a2, b2 = rng.randrange(-50, 51), rng.randrange(1, 51)
        if a1 == 0 or a2 == 0:
            continue
        f1, f2 = Fraction(a1, b1), Fraction(a2, b2)
        if not (in_localization(f1, q, strict=True) and in_localization(f2, q, strict=True)):
            continue
        lhs = reduce_mod(f1 * f2, q)
        rhs = (reduce_mod(f1, q) * reduce_mod(f2, q)) % q
        assert lhs == rhs, (q, f1, f2)
        done += 1


# ----------------------------------------------------------------------
# heights, valuations, signed enumeration
# ----------------------------------------------------------------------

def test_heights_and_valuations():
    assert ht(Fraction(3, 4)) == 12
    assert ht(6) == 6
    assert Ht(Fraction(3, 4)) == 4
    assert Ht(Fraction(-7, 2)) == 7
    assert vp(Fraction(12, 5), 2) == 2
    assert vp(Fraction(12, 5), 5) == -1
    assert vp(Fraction(12, 5), 7) == 0
    p = as_point(Fraction(-3, 7))
    assert (p.a, p.b, p.sign) == (3, 7, -1)
    assert as_point(5) == RationalPoint(5, 1)
    assert as_point(-5) == RationalPoint(5, 1, -1)


def test_rationals_up_to_matches_pair_enumeration():
    for N in (1, 10, 50, 144):
        pos = rationals_up_to(N, sign=False)
        assert len(pos) == len(enumerate_pairs(N, "full"))
        assert all(pt.a > 0 and ht(pt) <= N for pt in pos)
        both = rationals_up_to(N, sign=True)
        assert len(both) == 2 * len(pos)
        # negatives come after positives, mirroring them
        tail = both[len(pos):]
        assert all(t.sign == -1 for t in tail)
        assert [(t.a, t.b) for t in tail] == [(p.a, p.b) for p in pos]


def test_localization_membership():
    f = Fraction(4, 9)
    assert in_localization(f, 10)            # denominator prime to 10
    assert not in_localization(f, 3)         # 3 divides the denominator
    assert not in_localization(f, 2, strict=True)   # numerator shares 2
    assert in_localization(f, 5, strict=True)


@pytest.mark.parametrize("call, error, message", [
    (lambda: CoprimePair(2, 4), ValueError, "(2,4) is not a coprime pair of positive integers"),
    (lambda: CoprimePair(0, 1), ValueError, "(0,1) is not a coprime pair of positive integers"),
    (lambda: RationalPoint(2, 4), ValueError,
     "numerator/denominator must be coprime positive integers"),
    (lambda: RationalPoint(1, 2, 0), ValueError, "sign must be +1 or -1"),
    (lambda: as_point(0), ValueError, "0 is not in Q^x"),
    (lambda: as_point(Fraction(0)), ValueError, "0 is not in Q^x"),
    (lambda: as_point(1.5), TypeError, "cannot interpret 1.5 as a rational point"),
    (lambda: reduce_mod(RationalPoint(1, 2), 0), ValueError, "modulus must be positive"),
    (lambda: reduce_mod(RationalPoint(1, 2), 6), ValueError,
     "1/2 is not q-integral: gcd(2, 6) > 1"),
    (lambda: enumerate_pairs(10, "weekly"), ValueError, "unknown window 'weekly'"),
])
def test_points_and_the_index_refuse_bad_input_at_the_boundary(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_reduce_past_int64_products_matches_pow():
    # past 2^31 the reduction runs on Python integers, whose products an
    # int64 square would overflow
    m = 2**31 + 11
    assert is_prime(m)
    rng = random.Random(31)
    values = [1, 2, m - 1, m, m + 1, 2 * m, 3 * m - 2]
    values += [rng.randrange(1, 2**40) for _ in range(40)]
    a = np.array(values, dtype=np.int64)
    b = np.array(values[::-1], dtype=np.int64)
    red, unit = _reduce(a, b, m)
    want = [x * pow(y, -1, m) % m if (x * y) % m else None for x, y in zip(values, values[::-1])]
    assert unit.tolist() == [w is not None for w in want]
    assert [int(r) for r, u in zip(red, unit) if u] == [w for w in want if w is not None]
