"""Exponential-kernel quadrature on uniform time grids.

Everything here evaluates integrals of the form

    I(t_k) = int_{t_k}^{tau} e^{lam (s - t_k)} w(s) ds,      lam >= 0,

for w sampled at the grid points, plus the plain backward cumulative
integral W(t_k) = int_{t_k}^{tau} w ds.  The kernel is integrated exactly
against the degree-5 interpolant of w on a sliding 6-point stencil, a
sixth-order scheme.  The weighted moments int_0^1 s^m e^{z s} ds come from
the confluent hypergeometric function, which is stable for all z >= 0 of
interest.  Only 5 stencil shapes occur (the centred one inside, and two
one-sided ones at each end), so the interior intervals are one 6-tap
correlation of w with the centred weight row and the 4 edge intervals are
dot products with their own rows.  The 5 rows of a rate share one moment
vector, and the stencils' Vandermonde inverses, which do not depend on the
rate, are formed once per process.  A grid needs at least 6 points.

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
from .spectral import SAFE_EXP_ARG

#: convergence order of the composite scheme, keyed by its interpolation
#: order (`solver.DEFAULT_QUADRATURE_ORDER`)
SCHEME_ORDER = {6: 6}


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
    relative to the left end of the unit interval being integrated.  The
    solver's tables (`_interval_weight_table`) form the same rows for
    several stencils from one moment vector; this one-stencil form is the
    reference they are tested against.
    """
    offsets = np.asarray(offsets, dtype=float)
    k = offsets.size
    V = np.vander(offsets, k, increasing=True)
    # column o of V^{-1} holds the monomial coefficients of L_o
    Vinv = np.linalg.inv(V)
    return Vinv.T @ _exp_moments(z, k - 1)


@lru_cache(maxsize=1)
def _stencil_inverses() -> tuple[np.ndarray, ...]:
    """V^{-1} of the 5 stencils s .. s+5, s = -4..0, as `lagrange_exp_weights`
    forms it; they do not depend on z, so they are built once, on first use."""
    return tuple(np.linalg.inv(np.vander(np.arange(s, s + 6, dtype=float), 6, increasing=True))
                 for s in range(-4, 1))


@lru_cache(maxsize=256)
def _interval_weight_table(z: float) -> np.ndarray:
    """Stencil weight rows: interval i integrates to h * dot(row, w[stencil]).

    Row s + 4 of the 5 rows serves the stencil i+s .. i+s+5, whose leftmost
    node lies s = -4..0 steps from the interval start.  Interior intervals
    use s = -2 (centred); intervals 0, 1 use s = 0, -1 and the last two use
    s = -3, -4, so every stencil stays on the grid.  The rows depend only
    on lam * h, not on the grid size, and are cached because they are
    reused across fixed-point iterations.  Row s + 4 is
    `lagrange_exp_weights(np.arange(s, s + 6), z)` bit for bit, from one
    moment vector for all 5 rows.
    """
    moments = _exp_moments(z, 5)
    table = np.array([inv.T @ moments for inv in _stencil_inverses()])
    table.flags.writeable = False
    return table


def _interval_integrals(w: np.ndarray, h: float, table: np.ndarray, out: np.ndarray) -> None:
    """out[i] = A_i = int_{t_i}^{t_{i+1}} e^{z (s - t_i)/h} w_interp(s) ds, unchecked.

    `table` is `_interval_weight_table(z)`, `w` a contiguous float row of
    n + 1 samples (n >= 5) and `out` n slots.  BLAS sums a strided dot in
    another order, and the result must not depend on the caller's memory
    layout, hence the contiguous row.
    """
    n = out.size
    np.multiply(np.correlate(w, table[2], "valid"), h, out=out[2:n - 2])
    head, tail = w[:6], w[-6:]
    out[0] = h * table[4].dot(head)
    out[1] = h * table[3].dot(head)
    out[n - 2] = h * table[1].dot(tail)
    out[n - 1] = h * table[0].dot(tail)


class QuadraturePlan:
    """The per-mode quadratures of one grid, with every check done once.

    For the kernel rates `lams` on a grid of n steps of width h, the plan
    looks up each rate's weight table and the table of the plain integral
    once, builds each rate's recurrence band, and owns the scratch row of
    interval integrals.  `cumulative` and `profile` then do only the
    arithmetic of `backward_cumulative` and `exp_kernel_profile`, which are
    these same calls on a one-off plan.  The rows passed in must be contiguous float
    rows of n + 1 samples.
    """

    def __init__(self, lams, h: float, n: int):
        if not all(lam >= 0.0 for lam in lams):  # NaN fails too
            raise ValueError("kernel rate lam must be >= 0")
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError("step h must be finite and positive")
        if n < 5:
            raise ValueError("the quadrature needs at least 6 grid points")
        zs = [lam * h for lam in lams]
        for z in zs:
            # e^{lam h} stays under e^700 ~ 1e304, so a step e^{lam h} I_{k+1}
            # with |I_{k+1}| up to e^9 ~ 8e3 is finite; `profile`'s
            # finiteness check catches the rest
            if z > SAFE_EXP_ARG:
                raise ExponentOverflowError(
                    f"per-interval growth e^(lam h) overflows (lam h = {z:.6g})")
        self.lams, self.h = lams, h
        self.tables = [_interval_weight_table(z) for z in zs]
        # band storage of the n x n recurrence matrix L: row 1 holds the
        # subdiagonal -e^z, row 0 (the unit diagonal) is never read
        # (dtbsv with diag=1); read-only, as the shared weight tables are
        self.bands = [np.full((2, n), -math.exp(z), order="F") for z in zs]
        for band in self.bands:
            band.flags.writeable = False
        self.plain_table = _interval_weight_table(0.0)
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


def exp_kernel_profile(lam: float, h: float, w: np.ndarray) -> np.ndarray:
    """I(t_k) = int_{t_k}^{tau} e^{lam (s - t_k)} w_interp(s) ds at every grid point.

    w_interp is the sixth-order stencil interpolant, as in the solver (this
    routine once defaulted to a piecewise-linear one, now removed).

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
    QuadraturePlan((lam,), h, w.size - 1).profile(0, w, out)
    return out


def backward_cumulative(h: float, w: np.ndarray) -> np.ndarray:
    """W(t_k) = int_{t_k}^{tau} w_interp(s) ds at every grid point.

    w_interp is the sixth-order stencil interpolant, as in the solver (this
    routine once defaulted to a piecewise-linear one, now removed).
    """
    w = np.ascontiguousarray(w, dtype=float)
    out = np.empty(w.size)
    QuadraturePlan((), h, w.size - 1).cumulative(w, out)
    return out
