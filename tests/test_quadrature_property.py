"""Property tests for the family route's node count: the Gauss-Legendre
error of the quadrature Gram P P^H against the closed-form t-integral stays
within the Bernstein-ellipse bound eps_J, and `_quadrature_nodes` is the
fewest J whose bound moves Delta by at most 1e-12 / 2 relative, its share
of the 1e-12 beside the rank cut of the phases.  The bound is
restated here from its formula, apart from the code.  Needs hypothesis, a
development dependency; the module is skipped without it."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab import norms  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)
FINE_RHO = 1 + np.geomspace(1e-6, 1e6, 4001)


def _eps(J, T, Lmax, rho=FINE_RHO):
    """eps_J = (T/4) (64/15) e^{w (rho - 1/rho) / 2} rho^(2 - 2J) / (rho^2 - 1),
    w = T Lmax / 2, the least over rho: the error of the J-point rule for
    (T/4) e^{iwx} on [-1, 1] (Trefethen, SIAM Review 50, 2008, whose rule
    has n + 1 = J points), taken in logs so that no term overflows."""
    log_eps = (math.log(16 * T / 15) + T * Lmax * (rho - 1 / rho) / 4
               + (2 - 2 * J) * np.log(rho) - np.log(rho * rho - 1))
    return math.exp(float(log_eps.min()))


@PROPERTY
@given(T=st.floats(1.0, 32.0), Lmax=st.floats(0.0, 10.0), excess=st.integers(-4, 16))
def test_quadrature_gram_stays_within_the_ellipse_bound(T, Lmax, excess):
    # J around w* / 2 = T Lmax / 4, where the bound is tight: with the
    # exponent -2J in place of 2 - 2J the property fails
    J = max(1, math.ceil(T * Lmax / 4) + excess)
    L = np.linspace(-Lmax, Lmax, 33)  # differences up to 2 Lmax
    P = norms._phase_matrix(L, T, J)
    exact = norms.t_integral(L[:, None] - L[None, :], T)
    error = float(np.abs(P @ P.conj().T - exact).max())
    assert error <= _eps(J, T, Lmax) + 1e-14 * T, (error, _eps(J, T, Lmax))


@PROPERTY
@given(n=st.integers(0, 10**7), T=st.floats(1.0, 1e3), Lmax=st.floats(0.0, 20.0))
def test_node_count_is_the_fewest_the_bound_certifies(n, T, Lmax):
    # on the ellipses of the node rule, J meets 2 n eps_J / T <= 1e-12 / 2
    # and J - 1 does not: the nodes take half of the 1e-12 that Delta may
    # move, and the rank cut of the phases the rest.  A far finer grid of
    # ellipses saves at most one node
    J = norms._quadrature_nodes(n, Lmax, T)
    target = 0.5e-12 * T / (2 * max(n, 1))
    assert _eps(J, T, Lmax, norms._RHO) <= target * (1 + 1e-9)
    assert J == 1 or _eps(J - 1, T, Lmax, norms._RHO) > target * (1 - 1e-9)
    assert J <= 2 or _eps(J - 2, T, Lmax) > target
