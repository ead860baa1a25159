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

A solve runs these quadratures for every retained mode on every Picard
iteration, so their checks, table lookups and scratch row live in a
`QuadraturePlan` built once per solve; `exp_kernel_profile` and
`backward_cumulative` run the same code on a one-off plan.

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
    """Weights (a0, a1): int_0^1 e^{z s} (w0 (1-s) + w1 s) ds = a0 w0 + a1 w1.

    The left node's weight is a0 = int_0^1 (1-s) e^{z s} ds = phi2(z), the
    right node's a1 = int_0^1 s e^{z s} ds = phi1(z) - phi2(z).
    """
    p1 = phi1(z)
    p2 = phi2(z)
    return np.array([p2, p1 - p2])


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


def _interval_integrals(w: np.ndarray, h: float, table: np.ndarray, out: np.ndarray) -> None:
    """out[i] = A_i = int_{t_i}^{t_{i+1}} e^{z (s - t_i)/h} w_interp(s) ds, unchecked.

    `table` is `_interval_weight_table(z, order)`, `w` a contiguous float
    row of n + 1 samples (n >= 5 at order 6) and `out` n slots.  BLAS sums
    a strided dot in another order, and the result must not depend on the
    caller's memory layout, hence the contiguous row.
    """
    n = out.size
    if table.shape[0] == 1:
        np.multiply(np.correlate(w, table[0], "valid"), h, out=out)
        return
    np.multiply(np.correlate(w, table[2], "valid"), h, out=out[2:n - 2])
    head, tail = w[:6], w[-6:]
    out[0] = h * table[4].dot(head)
    out[1] = h * table[3].dot(head)
    out[n - 2] = h * table[1].dot(tail)
    out[n - 1] = h * table[0].dot(tail)


class QuadraturePlan:
    """The per-mode quadratures of one grid, with every check done once.

    For the kernel rates `lams` on a grid of n steps of width h, the plan
    looks up each rate's weight table and recurrence band and the table of
    the plain integral once, and owns the scratch row of interval
    integrals.  `cumulative` and `profile` then do only the arithmetic of
    `backward_cumulative` and `exp_kernel_profile`, which are these same
    calls on a one-off plan.  The rows passed in must be contiguous float
    rows of n + 1 samples.
    """

    def __init__(self, lams, h: float, n: int, order: int):
        if any(lam < 0.0 for lam in lams):
            raise ValueError("kernel rate lam must be >= 0")
        if order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}")
        if n < 1:
            raise ValueError("need at least two grid points")
        if order == 6 and n < 5:
            raise ValueError("order-6 quadrature needs at least 6 grid points")
        zs = [lam * h for lam in lams]
        for z in zs:
            # 9 below the double range: e^{lam h} stays under e^700 ~ 1e304,
            # so a step e^{lam h} I_{k+1} with |I_{k+1}| up to e^9 ~ 8e3 is
            # finite; `profile`'s finiteness check catches the rest
            if z > MAX_EXP_ARG - 9.0:
                raise ExponentOverflowError(
                    f"per-interval growth e^(lam h) overflows (lam h = {z:.6g})")
        self.lams, self.h = lams, h
        self.tables = [_interval_weight_table(z, order) for z in zs]
        self.bands = [_recurrence_band(z, n) for z in zs]
        self.plain_table = _interval_weight_table(0.0, order)
        self.scratch = np.empty(n)

    def cumulative(self, w: np.ndarray, out: np.ndarray) -> None:
        """out = W, W(t_k) = int_{t_k}^{tau} w_interp(s) ds at every grid point."""
        inc = self.scratch
        _interval_integrals(w, self.h, self.plain_table, inc)
        # out[-2::-1] is out[:-1] reversed: the running sums land in place
        np.add.accumulate(inc[::-1], out=out[-2::-1])
        out[-1] = 0.0

    def profile(self, j: int, w: np.ndarray, out: np.ndarray) -> None:
        """out = I for rate lams[j], I(t_k) = int_{t_k}^{tau} e^{lam (s - t_k)} w_interp(s) ds.

        The recurrence I_k = A_k + e^{lam h} I_{k+1} is solved in place on
        the scratch row; see `exp_kernel_profile` for the banded form.
        """
        A = self.scratch
        _interval_integrals(w, self.h, self.tables[j], A)
        # dtbsv subtracts a zero product as +0.0 and so keeps the sign of an
        # A_k = -0.0; the recurrence adds e^{lam h} I_{k+1} and never returns
        # -0.0.  Adding 0.0 on the way into `out` changes only that sign.
        np.add(dtbsv(1, self.bands[j], A, lower=1, trans=1, diag=1, overwrite_x=1), 0.0,
               out=out[:-1])
        out[-1] = 0.0
        # A non-finite I_{k+1} makes every later step non-finite: e^{lam h} >= 1,
        # so fl(A_k + e^{lam h} I_{k+1}) is +-inf or NaN.  I_0 checks them all.
        if not math.isfinite(out[0]):
            raise ExponentOverflowError(
                f"exponential-kernel integral overflows for lam = {self.lams[j]:.6g}")


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
    w = np.ascontiguousarray(w, dtype=float)
    out = np.empty(w.size)
    QuadraturePlan((lam,), h, w.size - 1, order).profile(0, w, out)
    return out


def backward_cumulative(h: float, w: np.ndarray, order: int = 2) -> np.ndarray:
    """W(t_k) = int_{t_k}^{tau} w_interp(s) ds at every grid point."""
    w = np.ascontiguousarray(w, dtype=float)
    out = np.empty(w.size)
    QuadraturePlan((), h, w.size - 1, order).cumulative(w, out)
    return out
