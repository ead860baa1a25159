"""Exponential-kernel quadrature on uniform time grids.

Everything here evaluates integrals of the form

    I(t_k) = int_{t_k}^{tau} e^{lam (s - t_k)} w(s) ds,      lam >= 0,

for w sampled at the grid points, plus the plain backward cumulative
integral W(t_k) = int_{t_k}^{tau} w ds.  The kernel is integrated exactly
against the degree-5 interpolant of w on a sliding 6-point stencil, a
sixth-order scheme.  The weighted moments int_0^1 s^m e^{z s} ds are computed
in double precision by `_exp_moments` (a power series below z = 10, a
damped recurrence above), within a few ulp for every z >= 0 up to the
overflow.  Only 5 stencil shapes occur (the centred one inside, and two
one-sided ones at each end), so the interior intervals are one 6-tap
correlation of w with the centred weight row and the 4 edge intervals are
dot products with their own rows.  The 5 rows of a rate share one moment
vector, and the stencils' Vandermonde inverses, which do not depend on the
rate, are formed once per process.  A grid needs at least 6 points.

The backward recurrence I_k = A_k + e^{lam h} I_{k+1} that sums the
interval integrals is one unit-bidiagonal banded triangular solve (BLAS
dtbsv, transposed lower form); see `exp_kernel_profile` for why that form.
The dtbsv is the one in the OpenBLAS that numpy's wheels bundle, called
through ctypes, so the module needs no scipy; with a numpy built on
another BLAS, or a library that fails a 2 x 2 probe solve, it is
scipy's, chosen once at import.  Either way `_dtbsv(band, row)` checks
both buffers and returns the solve as a plain zero-argument call.

A solve runs these quadratures for every retained mode on every Picard
iteration, so their checks, table lookups, banded solves and scratch row
live in a `QuadraturePlan` built once per solve; `exp_kernel_profile` and
`backward_cumulative` run the same code on a one-off plan.

Per-mode arithmetic only ever uses growth factors e^{lam (s - t)} with
s >= t (the per-interval factor e^{lam h} inside a backward recurrence),
so magnitudes never exceed what the mathematical result requires.
"""

from __future__ import annotations

import ctypes
import math
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .spectral import checked, require_finite


#: the fixed arguments of the recurrence's cblas_dtbsv: CblasColMajor,
#: CblasLower, CblasTrans, CblasUnit, then k = 1, lda = 2 and incx = 1
_CBLAS_FLAGS = tuple(ctypes.c_int(flag) for flag in (102, 122, 112, 132))
_K, _LDA, _INCX = ctypes.c_int64(1), ctypes.c_int64(2), ctypes.c_int64(1)


def _address(a: np.ndarray) -> ctypes.c_void_p:
    """A pointer to the data of `a` that keeps `a` alive while it lives."""
    ptr = ctypes.c_void_p(a.__array_interface__["data"][0])
    ptr._array = a
    return ptr


def _solves_probe(dtbsv) -> bool:
    """Whether `dtbsv` solves L^T y = (1, 1) for L = [[1, 0], [-2, 1]] to y = (3, 1).

    A library whose dtbsv reads the flags, the integer width or the band
    otherwise than assumed gives another answer."""
    x = np.ones(2)
    dtbsv(np.full((2, 2), -2.0, order="F"), x)()
    return x.tolist() == [3.0, 1.0]


def _check_buffers(band: np.ndarray, x: np.ndarray) -> None:
    """Refuse a band or a row that a dtbsv call would misread."""
    if not (band.dtype == x.dtype == np.float64 and band.ndim == 2 and band.shape[0] == 2
            and band.flags.f_contiguous and x.shape == band.shape[1:]
            and x.flags.c_contiguous and x.flags.writeable):
        raise ValueError("dtbsv takes a (2, n) Fortran-order float band and a writeable "
                         "contiguous float row of n")


def _openblas_dtbsv():
    """cblas_dtbsv of the ILP64 OpenBLAS bundled with numpy, or None.

    numpy's wheels ship `libscipy_openblas64_` and load it on import, so
    binding its dtbsv costs no further import.  A numpy built on another
    BLAS (MKL, Accelerate, a system OpenBLAS) has no such file, and a
    library that fails `_solves_probe` is not used.  The function returned,
    `dtbsv(band, x)`, takes `band`, the (2, n) Fortran-order band of a unit
    lower bidiagonal L, and a writeable contiguous float row `x` of n, and
    returns the call that overwrites `x` with the solution of L^T y = x:
    a `partial` whose ten arguments are converted once, when it is made.
    The two addresses among them hold references to `band` and `x`.
    """
    root = Path(np.__file__).parent
    # numpy.libs/ beside the package on Linux and Windows, .dylibs/ in it on macOS
    for path in sorted([*root.parent.glob("numpy.libs/libscipy_openblas64_*"),
                        *root.glob(".dylibs/libscipy_openblas64_*")]):
        try:
            fn = ctypes.CDLL(str(path)).scipy_cblas_dtbsv64_
        except (OSError, AttributeError):
            continue
        # order, uplo, trans, diag, n, k, a, lda, x, incx
        fn.argtypes = [ctypes.c_int] * 4 + [ctypes.c_int64] * 2 + [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
        fn.restype = None

        def dtbsv(band: np.ndarray, x: np.ndarray):
            _check_buffers(band, x)
            return partial(fn, *_CBLAS_FLAGS, ctypes.c_int64(x.size), _K, _address(band),
                           _LDA, _address(x), _INCX)
        if _solves_probe(dtbsv):
            return dtbsv
    return None


def _scipy_dtbsv():
    """The `dtbsv(band, x)` of `_openblas_dtbsv` on scipy's dtbsv, for any other numpy."""
    from scipy.linalg.blas import dtbsv as scipy_dtbsv

    def dtbsv(band: np.ndarray, x: np.ndarray):
        _check_buffers(band, x)

        def solve():
            x[:] = scipy_dtbsv(1, band, x, lower=1, trans=1, diag=1, overwrite_x=1)
        return solve
    return dtbsv


#: chosen once, at import, so a fallback to scipy is paid here and not in a solve
_dtbsv = _openblas_dtbsv() or _scipy_dtbsv()

#: convergence order of the composite scheme, keyed by its interpolation
#: order (`solver.DEFAULT_QUADRATURE_ORDER`)
SCHEME_ORDER = {6: 6}


#: the power series of the moments runs to k = 59 at most, and stops before
#: its first z^k / k! under 1e-22: below z = 10 the terms left out add up
#: to less than 1e-21, against M_m(z) >= 1 / (m + 1)
_SERIES_K = np.arange(60.0)
_SERIES_FACTORIALS = np.array([float(math.factorial(k)) for k in range(60)])


def _exp_moments(z: float, mmax: int) -> np.ndarray:
    """M_m = int_0^1 s^m e^{z s} ds for m = 0..mmax, z >= 0, mmax <= 9.

    Below z = 10 the power series sum_k z^k / (k! (m + k + 1)) has positive
    terms only, and `math.fsum` adds them exactly.  From z = 10 on,
    J_m = e^{-z} M_m follows from integration by parts,
    J_m = (1 - m J_{m-1}) / z from J_0 = (1 - e^{-z}) / z, which damps
    errors while m < z; one product with e^z gives M_m.  Both stay within a
    few ulp of the exact moments.  For z < 0 the series alternates and
    cancels, so such a z is refused.
    """
    if z < 0.0:
        raise ValueError(f"exponential moments need z >= 0, got z = {z:.6g}")
    if z < 10.0:
        powers = z ** _SERIES_K / _SERIES_FACTORIALS
        k = int(np.argmax(powers < 1e-22)) or powers.size
        m = np.arange(mmax + 1.0)[:, None]
        terms = powers[:k] / (m + _SERIES_K[:k] + 1.0)
        vals = np.array([math.fsum(row) for row in terms.tolist()])
    else:
        J = [-math.expm1(-z) / z]
        for m in range(1, mmax + 1):
            J.append((1.0 - m * J[-1]) / z)
        # past z ~ 709.8 e^z is inf (nan for a nan or infinite z): reported below
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(z) * np.array(J)
    return checked(vals, "exponential moments overflow at z = %.6g", z)


@lru_cache(maxsize=1)
def _stencil_inverses() -> tuple[np.ndarray, ...]:
    """V^{-1} of the 5 stencils s .. s+5, s = -4..0, as the one-stencil
    reference `lagrange_exp_weights` of tests/oracle.py forms it; they do
    not depend on z, so they are built once, on first use."""
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
    reused across fixed-point iterations.  Row s + 4 is, bit for bit,
    tests/oracle.py's `lagrange_exp_weights(np.arange(s, s + 6), z)`,
    formed from one moment vector for all 5 rows.
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


@lru_cache(maxsize=64)
def _recurrence_band(z: float, n: int) -> np.ndarray:
    """The read-only band of the recurrence matrix of rate z on n steps.

    L is n x n with 1 on the diagonal and -e^z on the subdiagonal.  In band
    storage row 1 holds the subdiagonal; row 0, the unit diagonal, is never
    read (dtbsv with diag=1).  Every plan of this rate and grid size shares
    the band, and each plan's solve holds it, so an eviction from this
    cache frees it only once no plan uses it.
    """
    band = np.full((2, n), -math.exp(z), order="F")
    band.flags.writeable = False
    return band


class QuadraturePlan:
    """The per-mode quadratures of one grid, with every check done once.

    For the kernel rates `lams` on a grid of n steps of width h, the plan
    looks up each rate's weight table, the table of the plain integral and
    each rate's band once, and owns the scratch row of interval integrals;
    each rate's solve is `_dtbsv` of its band and that row.
    `cumulative` and `profile` then do only the arithmetic of
    `backward_cumulative` and `exp_kernel_profile`, which are these same
    calls on a one-off plan.  The rows passed in must be contiguous float
    rows of n + 1 samples.
    """

    def __init__(self, lams, h: float, n: int):
        for lam in lams:
            require_finite("lam", lam, ">= 0")
        require_finite("step h", h, "positive")
        if n < 5:
            raise ValueError("the quadrature needs at least 6 grid points")
        zs = [lam * h for lam in lams]
        self.lams, self.h = lams, h
        # every rate's moments up front: they refuse an e^{lam h} that overflows
        self.tables = [_interval_weight_table(z) for z in zs]
        self.plain_table = _interval_weight_table(0.0)
        self.scratch = np.empty(n)
        # each rate's dtbsv call on the scratch row; it holds its band
        self.solves = [_dtbsv(_recurrence_band(z, n), self.scratch) for z in zs]

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
        self.solves[j]()
        np.add(A, 0.0, out=out[:-1])
        out[-1] = 0.0
        # A non-finite I_{k+1} makes every later step non-finite: e^{lam h} >= 1,
        # so fl(A_k + e^{lam h} I_{k+1}) is +-inf or NaN.  I_0 checks them all.
        checked(out[0], "exponential-kernel integral overflows for lam = %.6g", self.lams[j])


def exp_kernel_profile(lam: float, h: float, w: np.ndarray) -> np.ndarray:
    """I(t_k) = int_{t_k}^{tau} e^{lam (s - t_k)} w_interp(s) ds at every grid point.

    w_interp is the sixth-order stencil interpolant, as in the solver.

    Uses the backward recurrence I_k = A_k + e^{lam h} I_{k+1}, which keeps
    every factor of the form e^{lam (s - t)} with s >= t.  The recurrence
    is the unit-bidiagonal system L^T I = A, where L has -e^{lam h} on its
    subdiagonal, solved by BLAS dtbsv in its transposed-lower form.  That
    form takes each step as a length-1 dot followed by a subtraction, so
    every I_k is fl(A_k + fl(e^{lam h} I_{k+1})), the plain recurrence
    rounded step by step.  The equivalent upper, non-transposed form runs
    through an axpy kernel that may fuse the multiply and the add, which
    rounds differently and would move results in their last bits.  The
    dtbsv is numpy's bundled OpenBLAS's (scipy's where numpy has none),
    and the interval integrals A_k come from weights built on the
    double-precision moments of `_exp_moments`.
    """
    w = np.ascontiguousarray(w, dtype=float)
    out = np.empty(w.size)
    QuadraturePlan((lam,), h, w.size - 1).profile(0, w, out)
    return out


def backward_cumulative(h: float, w: np.ndarray) -> np.ndarray:
    """W(t_k) = int_{t_k}^{tau} w_interp(s) ds at every grid point.

    w_interp is the sixth-order stencil interpolant, as in the solver.
    """
    w = np.ascontiguousarray(w, dtype=float)
    out = np.empty(w.size)
    QuadraturePlan((), h, w.size - 1).cumulative(w, out)
    return out
