"""Property tests for the character groups: char_group accepts exactly the
integers >= 1 and refuses anything else with ValueError, and each group's
index tables (mul, conj, conductors) agree with character arithmetic on
random moduli.  Needs hypothesis, a development dependency; the module is
skipped without it."""

import math
import operator

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab.arith import divisors  # noqa: E402
from sievelab.characters import char_group, conductor, value_table  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)
# A group's tables are O(q) and mul is phi(q)^2, so positive moduli stay
# small; the negative side reaches far.
ints = st.integers(-(10**30), 3000)
moduli_like = st.one_of(
    ints,
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-128, 127).map(np.int8),
    st.integers(0, 3000).map(np.uint16),
    st.integers(-(2**63), 3000).map(np.int64),
    st.floats(-1e6, 1e6).map(np.float64),
    st.text(max_size=6),
)


@PROPERTY
@given(moduli_like)
def test_char_group_takes_integers_and_refuses_the_rest(x):
    try:
        want = operator.index(x)
    except TypeError:
        want = None
    if want is not None and want >= 1:
        group = char_group(x)
        assert group.q == want and type(group.q) is int
        assert group is char_group(want)
    else:
        with pytest.raises(ValueError):
            char_group(x)


def _brute_conductor(chi):
    """The smallest f | q with chi(n) = 1 at every unit n = 1 (mod f)."""
    q = chi.modulus
    values = value_table(chi)
    for f in divisors(q):
        fixed = [n for n in range(q) if math.gcd(n, q) == 1 and n % f == 1 % f]
        if np.all(np.abs(values[fixed] - 1) < 1e-9):
            return f


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(st.integers(1, 2000), st.data())
def test_group_tables_agree_with_character_arithmetic(q, data):
    group = char_group(q)
    chars = group.chars
    index = st.integers(0, len(chars) - 1)
    for _ in range(5):
        i, j = data.draw(index), data.draw(index)
        assert chars[group.mul[i, j]] is chars[i] * chars[j]
        assert chars[group.conj[i]] is chars[i].conj()
        assert group.conductors[i] == conductor(chars[i]) == _brute_conductor(chars[i])
