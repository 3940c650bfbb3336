"""Sifted sets, the exact H sum, the end-to-end sieve-inequality report,
and the Barban-Davenport-Halberstam variance identity."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from sievelab.arith import totient
from sievelab.characters import char_group, trivial_char, value_table
from sievelab.rationals import RationalPoint, in_localization, rationals_up_to, reduce_mod, vp
from sievelab.sieve_apps import (
    BdhInput,
    SievePlan,
    bdh_lhs,
    bdh_rhs_chars,
    big_H,
    half_residue_experiment,
    random_bdh_input,
    read_plan,
    sieve_inequality_report,
    sifted_set,
)


def _random_plan(rng, nmax=200, pool=(2, 3, 5, 7, 11)):
    N = rng.randrange(20, nmax + 1)
    omega = {}
    for p in rng.sample(pool, rng.randrange(1, 4)):
        w = rng.randrange(1, p)
        omega[p] = frozenset(rng.sample(range(p), w))
    return SievePlan(N, omega)


# ----------------------------------------------------------------------
# plans and sifting
# ----------------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(ValueError):
        SievePlan(0, {})
    with pytest.raises(ValueError):
        SievePlan(10, {4: {1}})
    with pytest.raises(ValueError):
        SievePlan(10, {3: {0, 1, 2}})
    plan = SievePlan(10, {5: {-1, 6, 4}})
    assert plan.omega[5] == frozenset({4, 1})
    assert plan.h(5) == Fraction(2, 3)
    assert plan.h(7) == 0


def test_sifted_set_brute_oracle():
    rng = random.Random(62)
    for _ in range(5):
        plan = _random_plan(rng, nmax=60)
        brute = [
            pt
            for pt in rationals_up_to(plan.N)
            if all(
                vp(pt, p) != 0 or reduce_mod(pt, p) not in plan.omega[p]
                for p in plan.omega
            )
        ]
        assert sifted_set(plan) == brute


def test_sifted_set_builds_only_its_survivors(monkeypatch):
    plan = SievePlan(300, {2: {1}, 3: {0, 2}, 7: {1, 2, 4}})
    built = []
    monkeypatch.setattr(RationalPoint, "__post_init__", lambda self: built.append(self))
    survivors = sifted_set(plan)
    assert survivors and built == survivors


def test_sifted_set_containment_under_enlargement():
    rng = random.Random(63)
    for _ in range(10):
        plan = _random_plan(rng, nmax=120)
        p = rng.choice(sorted(plan.omega))
        missing = [r for r in range(p) if r not in plan.omega[p]]
        if len(missing) <= 1:
            continue  # enlargement would forbid every residue
        bigger = dict(plan.omega)
        bigger[p] = plan.omega[p] | {rng.choice(missing)}
        enlarged = SievePlan(plan.N, bigger)
        assert set(sifted_set(enlarged)) <= set(sifted_set(plan))


# ----------------------------------------------------------------------
# the H sum
# ----------------------------------------------------------------------

def test_big_H_direct_product():
    plan = SievePlan(200, {3: {1}, 5: {2, 3}, 7: {1, 2, 4}})
    # Q covering every squarefree product of plan primes: H factors
    want = Fraction(1)
    for p in (3, 5, 7):
        want *= 1 + plan.h(p)
    assert big_H(105, plan) == want
    # any larger Q adds nothing: no other squarefree q has factors in the plan
    assert big_H(10**4, plan) == want


def test_big_H_partial_sums_by_subsets():
    plan = SievePlan(100, {2: {1}, 3: {0}, 11: {5, 6}})
    from itertools import combinations

    ps = sorted(plan.omega)
    for Q in (1, 2, 5, 6, 22, 33, 66, 100):
        want = Fraction(0)
        for r in range(len(ps) + 1):
            for sub in combinations(ps, r):
                q = 1
                for p in sub:
                    q *= p
                if q <= Q:
                    term = Fraction(1)
                    for p in sub:
                        term *= plan.h(p)
                    want += term
        assert big_H(Q, plan) == want, Q


def test_big_H_empty_plan():
    assert big_H(100, SievePlan(50, {})) == 1


# ----------------------------------------------------------------------
# sieve-inequality reports
# ----------------------------------------------------------------------

def test_empty_plan_control_is_exact(capsys):
    # (500, 12) has 2285 rationals: Delta comes from the family side
    for (N, Q) in [(20, 4), (60, 7), (150, 12), (500, 12)]:
        rep = sieve_inequality_report(SievePlan(N, {}), Q)
        assert rep.ok
        assert rep.H == 1
        assert rep.size == len(rationals_up_to(N))
        assert rep.ratio <= 1.0  # exactly: delta >= |S| via the all-ones floor
    assert capsys.readouterr().err == ""


def test_violations_are_reported_not_raised(capsys):
    # a plan whose sifted survivors are exempt at a plan prime: the ratio
    # exceeds 1 and the report says so on stderr without raising
    plan = SievePlan(135, {5: {1, 2, 3, 4}})
    rep = sieve_inequality_report(plan, 9)
    err = capsys.readouterr().err
    assert not rep.ok
    assert rep.ratio > 1.3
    assert "SIEVE-INEQUALITY FINDING" in err
    assert f"N={plan.N}" in err


def test_report_fields_are_consistent():
    rng = random.Random(64)
    for _ in range(5):
        plan = _random_plan(rng, nmax=100)
        Q = rng.randrange(1, 13)
        rep = sieve_inequality_report(plan, Q)
        assert rep.size == len(sifted_set(plan))
        assert rep.H == big_H(Q, plan)
        assert rep.delta > 0
        assert abs(rep.ratio - float(rep.size * rep.H) / rep.delta) <= 1e-12
        assert rep.ok == (rep.ratio <= 1 + 1e-6)


def test_report_counts_survivors_without_building_them(monkeypatch):
    # |S| is the length of the sifted index arrays, and the rational norm
    # solves on index arrays: the report builds no point object
    plan = SievePlan(300, {2: {1}, 3: {0, 2}, 7: {1, 2, 4}})
    want = len(sifted_set(plan))
    built = []
    monkeypatch.setattr(RationalPoint, "__post_init__", lambda self: built.append(self))
    assert sieve_inequality_report(plan, 12).size == want
    assert built == []


# ----------------------------------------------------------------------
# plan files
# ----------------------------------------------------------------------

PLAN_TEXT = """\
# a comment line
N=60
Q=8

2: 1
5: 0,2
7:
"""


def test_read_plan(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text(PLAN_TEXT)
    plan, Q = read_plan(path)
    assert Q == 8
    assert plan.N == 60
    assert plan.omega == {2: frozenset({1}), 5: frozenset({0, 2}), 7: frozenset()}


def test_read_plan_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("N=10\nnot a plan line\n")
    with pytest.raises(ValueError):
        read_plan(path)


# ----------------------------------------------------------------------
# half-residue experiment
# ----------------------------------------------------------------------

def test_half_residue_experiment_reports_positive_c():
    for N in (100, 400):
        out = half_residue_experiment(N, seed=5)
        assert set(out) == {"N", "Q", "H", "c"}
        assert out["N"] == N and out["Q"] == int(N**0.5)
        assert out["c"] > 0
        assert abs(out["c"] - float(out["H"]) / out["Q"]) <= 1e-12
        # reported, not asserted: print the measured constant
        print(f"half-residue N={N}: H={float(out['H']):.3f} c={out['c']:.3f}")


# ----------------------------------------------------------------------
# BDH variance identity
# ----------------------------------------------------------------------

def test_bdh_identity_fifty_random_inputs():
    rng = random.Random(65)
    for i in range(50):
        X = rng.randrange(2, 101)
        Q = rng.randrange(1, 13)
        inp = random_bdh_input(X, Q, seed=1000 + i)
        lhs, rhs = bdh_lhs(inp), bdh_rhs_chars(inp)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, lhs, rhs), (X, Q, i)


def _bdh_by_points(inp):
    """Both BDH sides point by point, through the scalar in_localization and
    reduce_mod, with every sum in support order."""
    lhs = rhs = 0.0
    for q in range(1, inp.Q + 1):
        loc = [(pt, a) for pt, a in inp.alpha.items() if in_localization(pt, q, strict=True)]
        if not loc:
            continue
        mean = sum(a for _, a in loc) / totient(q)
        sums = {}
        for pt, a in loc:
            r = reduce_mod(pt, q)
            sums[r] = sums.get(r, 0) + a
        for a0 in range(q):
            if gcd(a0, q) == 1:
                lhs += abs(sums.get(a0, 0) - mean) ** 2
        reds = np.array([reduce_mod(pt, q) for pt, _ in loc])
        alpha = np.array([a for _, a in loc], dtype=np.complex128)
        inner = 0.0
        for chi in char_group(q):
            if chi is not trivial_char(q):
                inner += abs(complex(value_table(chi)[reds] @ alpha)) ** 2
        rhs += inner / totient(q)
    return lhs, rhs


def test_bdh_sides_match_the_scalar_path_bitwise():
    # both signs, and keys given as RationalPoint, int and Fraction
    rng = random.Random(12)
    for i in range(40):
        X, Q = rng.randrange(1, 90), rng.randrange(1, 16)
        pool = rationals_up_to(X, sign=True)
        pts = rng.sample(pool, rng.randrange(1, min(len(pool), 30) + 1))
        keys = [Fraction(p.sign * p.a, p.b) if rng.random() < 0.2 else
                p.sign * p.a if p.b == 1 and rng.random() < 0.5 else p for p in pts]
        inp = BdhInput(X, Q, {k: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for k in keys})
        assert (bdh_lhs(inp), bdh_rhs_chars(inp)) == _bdh_by_points(inp), (X, Q, i)


def test_bdh_single_point_closed_form():
    from sievelab.arith import totient
    from sievelab.rationals import as_point

    pt = as_point(2)
    inp = BdhInput(4, 6, {pt: 1.0 + 0j})
    # strict localization keeps q in {1, 3, 5}; each contributes 1 - 1/phi(q)
    want = sum(1 - 1 / totient(q) for q in (1, 3, 5))
    assert abs(bdh_lhs(inp) - want) <= 1e-12
    assert abs(bdh_rhs_chars(inp) - want) <= 1e-12


def test_bdh_input_validation():
    pt = rationals_up_to(10)[-1]
    with pytest.raises(ValueError):
        BdhInput(2, 4, {pt: 1.0})  # ht(pt) = 10 > X = 2
    with pytest.raises(ValueError):
        BdhInput(0, 4, {})
