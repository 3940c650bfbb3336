"""Scalar special functions: the Z_{c,d}(s) Euler products against the
direct double series and the exponent recursion."""

from fractions import Fraction

import pytest

from sievelab.specials import (
    delta_factor,
    exponent_sequence,
    nu_factor,
    z11_euler,
    z_cd_euler,
    z_cd_series,
)

S_VALUES = (2.0, 3.0, 2 + 1j)


# ----------------------------------------------------------------------
# Euler product vs double series on the full (c,d) grid
# ----------------------------------------------------------------------

def test_z_euler_vs_series_full_grid():
    for s in S_VALUES:
        for c in range(1, 11):
            for d in range(1, 11):
                e = z_cd_euler(c, d, s)
                v = z_cd_series(c, d, s)
                assert abs(e - v) / abs(v) <= 1e-4, (c, d, s)


def test_z_cd_reduces_to_z11():
    for s in S_VALUES:
        assert abs(z_cd_euler(1, 1, s) - z11_euler(s)) <= 1e-12
        assert abs(nu_factor(1, s) - 1) <= 1e-12
        assert abs(delta_factor(1, s) - 1) <= 1e-12


def test_z_truncation_is_stable():
    # doubling a cutoff moves the values by less than the comparison
    # tolerance, so the 1e-4 grid agreement is not a truncation accident
    for s in S_VALUES:
        e1 = z_cd_euler(3, 4, s)
        e2 = z_cd_euler(3, 4, s, prime_cutoff=2 * 10**4)
        assert abs(e1 - e2) / abs(e2) <= 1e-4
        v1 = z_cd_series(3, 4, s, cutoff=5 * 10**5)
        v2 = z_cd_series(3, 4, s, cutoff=10**6)
        assert abs(v1 - v2) / abs(v2) <= 1e-4


@pytest.mark.parametrize("call, message", [
    (lambda: z_cd_euler(0, 1, 2.0), "c, d must be positive integers"),
    (lambda: z_cd_euler(1, -2, 2.0), "c, d must be positive integers"),
    (lambda: z_cd_euler(1, 1, 2.0, prime_cutoff=99), "prime cutoff must be >= 100"),
    (lambda: z_cd_series(1, 0, 2.0), "c, d must be positive integers"),
    (lambda: exponent_sequence(0), "steps must be >= 1"),
])
def test_special_functions_refuse_bad_parameters(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_z_domain_restriction():
    with pytest.raises(ValueError):
        z_cd_euler(1, 1, 1.0005)
    with pytest.raises(ValueError):
        z_cd_series(2, 3, 1.0 + 5j)


# ----------------------------------------------------------------------
# exponent recursion e_0 = 2, e_{i+1} = 2 - 1/e_i
# ----------------------------------------------------------------------

def test_exponent_sequence_closed_form_exact():
    seq = exponent_sequence(10**4)
    assert len(seq) == 10**4 + 1
    assert seq[0] == Fraction(2) and seq[1] == Fraction(3, 2)
    for i, e in enumerate(seq):
        assert e == Fraction(i + 2, i + 1), i
        assert e - 1 == Fraction(1, i + 1), i
    for i in range(10**4):
        assert seq[i + 1] == 2 - Fraction(1, 1) / seq[i]

