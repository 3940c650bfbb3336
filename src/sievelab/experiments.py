"""Experiments on the Delta norms: the witness search for monotonicity
under enlargement of the index or of the moduli, the duality of operator
norms, and growth-exponent fits of a norm against a parameter."""

from dataclasses import dataclass
from math import log

import numpy as np

from .arith import primes_in
from .norms import delta


# ----------------------------------------------------------------------
# monotonicity
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityResult:
    aspect: str
    Q: float
    k: int
    T: float
    N: float
    P: int
    conditions_met: bool
    conditions: dict
    base: float
    values: dict
    witness: int | None

    @property
    def ok(self):
        return self.witness is not None


def _n_aspect_conditions(Q, N, P):
    pstar = len(primes_in(P, 2 * P))
    c1 = pstar * log(P) >= 2 * log(Q)
    c2 = 4 * log(N) <= 0.5 * pstar * log(P) if N > 1 else True
    return {"P*": pstar, "P*logP>=2logQ": c1, "4logN<=P*logP/2": c2}, c1 and c2


def _q_aspect_conditions(Q, N, P):
    pss = sum(p - 2 for p in primes_in(P, 2 * P))
    logp = log(P)
    c1 = 2 * P * log(N) <= 0.5 * pss * logp if N > 1 else True
    c2 = 4 * P * log(Q) <= 0.5 * pss * logp
    return {"P**": pss, "2PlogN<=P**logP/2": c1, "4PlogQ<=P**logP/2": c2}, c1 and c2


def _witness_search(aspect, conditions, Q, k, T, N, P):
    """The witness search of both aspects, at tol 1e-6.  The aspect's
    preconditions gate the assertion, not the search; primes dividing k
    are skipped (the enlarged family needs p in its unit group)."""
    tol = 1e-6
    conds, met = conditions(Q, N, P)
    base = delta(Q, k, T, N, tol=tol).value
    values = {}
    witness = None
    for p in primes_in(P, 2 * P):
        if k % p == 0:
            continue
        Qp, Np = (Q, N * p) if aspect == "N" else (Q * p, N)
        values[p] = delta(Qp, k, T, Np, tol=tol).value
        if base <= 8 * values[p] * (1 + 10 * tol) + 1e-12:
            witness = p
            break
    return MonotonicityResult(aspect, Q, k, T, N, P, met, conds, base, values, witness)


def monotonicity_check_N(Q, k, T, N, P):
    """Search [P, 2P] for a prime p with Delta(Q,k,T,N) <= 8 Delta(Q,k,T,Np)."""
    return _witness_search("N", _n_aspect_conditions, Q, k, T, N, P)


def monotonicity_check_Q(Q, k, T, N, P):
    """Same in the Q aspect: p in [P, 2P] with Delta(Q,k,T,N) <= 8 Delta(Qp,k,T,N)."""
    return _witness_search("Q", _q_aspect_conditions, Q, k, T, N, P)


# ----------------------------------------------------------------------
# duality and fits
# ----------------------------------------------------------------------

def duality_check(rows, cols, mat):
    """lambda_max of mat^H mat and of mat mat^H by LAPACK (eigvalsh, which
    reads the lower half), 0 for an empty side — equal operator norms of a
    matrix and its transpose.  mat has one row per entry of rows and one
    column per entry of cols."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (len(rows), len(cols)):
        raise ValueError(f"matrix shape {mat.shape} does not match "
                         f"{len(rows)} rows x {len(cols)} columns")
    return tuple(float(np.linalg.eigvalsh(g)[-1]) if len(g) else 0.0
                 for g in (mat.conj().T @ mat, mat @ mat.conj().T))


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float


def exponent_fit(samples):
    """Least-squares slope of log(value) against log(parameter), over at
    least 3 samples with at least 2 distinct parameters, however close."""
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    x = np.array([s[0] for s in samples], dtype=float)
    y = np.array([s[1] for s in samples], dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("samples must be positive")
    if np.all(x == x[0]):
        raise ValueError("degenerate sample: fewer than 2 distinct parameters")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fitted = A @ np.array([slope, intercept])
    rms = float(np.sqrt(np.mean((fitted - ly) ** 2)))
    return FitResult(float(slope), float(intercept), rms)
