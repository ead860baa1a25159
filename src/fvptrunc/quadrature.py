"""Exponential-kernel quadrature on uniform time grids.

Everything here evaluates integrals of the form

    I(t_k) = int_{t_k}^{tau} e^{lam (s - t_k)} w(s) ds,      lam >= 0,

for w sampled at the grid points, plus the plain backward cumulative
integral W(t_k) = int_{t_k}^{tau} w ds.  The kernel is integrated exactly
against a piecewise-polynomial interpolant of w:

  order 2 -- piecewise-linear interpolant; per-interval antiderivatives
             use the scaled functions (e^z - 1)/z and (e^z - 1 - z)/z^2,
             evaluated by series for small z to avoid cancellation.
  order 6 -- degree-5 interpolant on a sliding 6-point stencil; the
             weighted moments int_0^1 s^m e^{z s} ds come from the
             confluent hypergeometric function, which is stable for all
             z >= 0 of interest.  Only 5 stencil shapes occur (the
             centred one inside, and two one-sided ones at each end), so
             the interior intervals are one 6-tap correlation of w with
             the centred weight row and the 4 edge intervals are dot
             products with their own rows.

The backward recurrence I_k = A_k + e^{lam h} I_{k+1} that sums the
interval integrals is one unit-bidiagonal banded triangular solve (BLAS
dtbsv, transposed lower form); see `exp_kernel_profile` for why that form.

Per-mode arithmetic only ever uses growth factors e^{lam (s - t)} with
s >= t (the per-interval factor e^{lam h} inside a backward recurrence),
so magnitudes never exceed what the mathematical result requires.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.special import hyp1f1

from .errors import ExponentOverflowError
from .spectral import MAX_EXP_ARG

#: interpolation orders accepted by the routines below
ORDERS = (2, 6)

#: convergence order of the composite scheme, keyed by `order`
SCHEME_ORDER = {2: 2, 6: 6}


def phi1(z: float) -> float:
    """(e^z - 1)/z, continuously extended through z = 0."""
    if abs(z) < 1e-8:
        return 1.0 + z * (0.5 + z / 6.0)
    return math.expm1(z) / z


def phi2(z: float) -> float:
    """(e^z - 1 - z)/z^2, by series for small |z| (direct form cancels)."""
    if abs(z) < 0.35:
        term = 0.5
        acc = term
        for k in range(3, 24):
            term *= z / k
            acc += term
            if abs(term) < 1e-18 * abs(acc):
                break
        return acc
    return (math.expm1(z) - z) / (z * z)


def _pl_interval_weights(z: float) -> np.ndarray:
    """Weights (a0, a1): int_0^1 e^{z s} (w0 (1-s) + w1 s) ds = a0 w0 + a1 w1."""
    p1 = phi1(z)
    p2 = phi2(z)
    return np.array([p1 - p2, p2])


def _exp_moments(z: float, mmax: int) -> np.ndarray:
    """M_m = int_0^1 s^m e^{z s} ds for m = 0..mmax."""
    m = np.arange(mmax + 1)
    vals = hyp1f1(m + 1, m + 2, z) / (m + 1)
    if not np.all(np.isfinite(vals)):
        raise ExponentOverflowError(f"exponential moments overflow at z = {z:.6g}")
    return vals


def lagrange_exp_weights(offsets: np.ndarray, z: float) -> np.ndarray:
    """Quadrature weights a_o with int_0^1 L_o(s) e^{z s} ds = a_o.

    `offsets` are the stencil node positions in units of the grid spacing,
    relative to the left end of the unit interval being integrated.
    """
    offsets = np.asarray(offsets, dtype=float)
    k = offsets.size
    V = np.vander(offsets, k, increasing=True)
    # column o of V^{-1} holds the monomial coefficients of L_o
    Vinv = np.linalg.inv(V)
    return Vinv.T @ _exp_moments(z, k - 1)


@lru_cache(maxsize=256)
def _interval_weight_table(z: float, order: int) -> np.ndarray:
    """Stencil weight rows: interval i integrates to h * dot(row, w[stencil]).

    order 2 -- one row (a0, a1) over the stencil (i, i+1).
    order 6 -- 5 rows; row s + 4 serves the stencil i+s .. i+s+5, whose
               leftmost node lies s = -4..0 steps from the interval start.
               Interior intervals use s = -2 (centred); intervals 0, 1
               use s = 0, -1 and the last two use s = -3, -4, so every
               stencil stays on the grid.
    The rows depend only on (lam * h, order), not on the grid size, and
    are cached because they are reused across fixed-point iterations.
    """
    if order == 2:
        table = _pl_interval_weights(z)[None, :]
    else:
        table = np.array([lagrange_exp_weights(np.arange(s, s + 6), z) for s in range(-4, 1)])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _recurrence_band(z: float, n: int) -> np.ndarray:
    """Band storage of the n x n recurrence matrix L, read-only.

    Row 1 holds the subdiagonal -e^z; row 0, the unit diagonal, is never
    read (dtbsv with diag=1).  Like the weight tables it depends only on
    (lam * h, n) and is reused across fixed-point iterations.
    """
    band = np.full((2, n), -math.exp(z), order="F")
    band.flags.writeable = False
    return band


def _interval_integrals(w: np.ndarray, h: float, z: float, order: int) -> np.ndarray:
    """A_i = int_{t_i}^{t_{i+1}} e^{z (s - t_i)/h} w_interp(s) ds, all intervals."""
    n = w.size - 1
    table = _interval_weight_table(z, order)
    if order == 2:
        return h * np.correlate(w, table[0], "valid")
    if n < 5:
        raise ValueError("order-6 quadrature needs at least 6 grid points")
    A = np.empty(n)
    A[2:n - 2] = np.correlate(w, table[2], "valid")
    # contiguous copies: BLAS sums a strided dot in another order, and the
    # result must not depend on the caller's memory layout
    head, tail = np.ascontiguousarray(w[:6]), np.ascontiguousarray(w[-6:])
    A[0] = table[4] @ head
    A[1] = table[3] @ head
    A[n - 2] = table[1] @ tail
    A[n - 1] = table[0] @ tail
    return h * A


def exp_kernel_profile(lam: float, h: float, w: np.ndarray, order: int = 2) -> np.ndarray:
    """I(t_k) = int_{t_k}^{tau} e^{lam (s - t_k)} w_interp(s) ds at every grid point.

    Uses the backward recurrence I_k = A_k + e^{lam h} I_{k+1}, which keeps
    every factor of the form e^{lam (s - t)} with s >= t.  The recurrence
    is the unit-bidiagonal system L^T I = A, where L has -e^{lam h} on its
    subdiagonal, solved by BLAS dtbsv in its transposed-lower form.  That
    form takes each step as a length-1 dot followed by a subtraction, so
    every I_k is fl(A_k + fl(e^{lam h} I_{k+1})), the plain recurrence
    rounded step by step.  The equivalent upper, non-transposed form runs
    through an axpy kernel that may fuse the multiply and the add, which
    rounds differently and would move results in their last bits.
    """
    if lam < 0.0:
        raise ValueError("kernel rate lam must be >= 0")
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}")
    w = np.asarray(w, dtype=float)
    n = w.size - 1
    if n < 1:
        raise ValueError("need at least two grid points")
    z = lam * h
    # 9 below the double range: e^{lam h} stays under e^700 ~ 1e304, so a
    # step e^{lam h} I_{k+1} with |I_{k+1}| up to e^9 ~ 8e3 is finite; the
    # finiteness check below catches the rest
    if z > MAX_EXP_ARG - 9.0:
        raise ExponentOverflowError(
            f"per-interval growth e^(lam h) overflows (lam h = {z:.6g})")
    A = _interval_integrals(w, h, z, order)
    out = np.zeros(n + 1)
    # dtbsv subtracts a zero product as +0.0 and so keeps the sign of an
    # A_k = -0.0; the recurrence adds e^{lam h} I_{k+1} and never returns -0.0.
    # Adding 0.0 (in place of the copy into `out`) changes only that sign.
    np.add(dtbsv(1, _recurrence_band(z, n), A, lower=1, trans=1, diag=1), 0.0,
           out=out[:-1])
    # A non-finite I_{k+1} makes every later step non-finite: e^{lam h} >= 1,
    # so fl(A_k + e^{lam h} I_{k+1}) is +-inf or NaN.  I_0 checks them all.
    if not math.isfinite(out[0]):
        raise ExponentOverflowError(
            f"exponential-kernel integral overflows for lam = {lam:.6g}")
    return out


def backward_cumulative(h: float, w: np.ndarray, order: int = 2) -> np.ndarray:
    """W(t_k) = int_{t_k}^{tau} w_interp(s) ds at every grid point."""
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}")
    w = np.asarray(w, dtype=float)
    inc = _interval_integrals(w, h, 0.0, order)
    out = np.zeros(w.size)
    # out[-2::-1] is out[:-1] reversed: the running sums land in place
    np.cumsum(inc[::-1], out=out[-2::-1])
    return out
