"""Reference implementations the tests check the package against.

None of these is on the package's run path: no command, experiment or
bound calls them.  Each is a second, plainer route to a quantity the
package computes, or a closed form of the lemma its bounds rest on:

- `zeta` and `zeta_inverse`: the function the log rule inverts, and its
  inverse by bisection beside the asymptotic form the rule uses;
- `gronwall_bound` and `gronwall_comparison_solution`: the iterated-integral
  Gronwall lemma's conclusion, read through `bounds.log_gronwall_factor`,
  the factor the truncation bound uses, and the equality case of its
  hypothesis in closed form (acceptance criterion 3);
- `apply_spectral_growth`: G_N at one time, on a field, through the
  solver's one G_N (`solver._growth_rows`);
- `lagrange_exp_weights`: one stencil's weights, the reference of the
  quadrature's weight tables, from the same moments (`_exp_moments`);
- `ode_solution`: the solve's equation as a backward ODE per mode,
  integrated by scipy's DOP853 with no solver or quadrature code of the
  package.

This module may import scipy; the package's own import stays free of it
(`test_import_footprint.py`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from fvptrunc.bounds import log_gronwall_factor
from fvptrunc.errors import ConfigError
from fvptrunc.grids import TimeGrid
from fvptrunc.quadrature import _exp_moments
from fvptrunc.solver import _growth_rows
from fvptrunc.spectral import (SpectralField, checked, exp_or_inf, require_finite, require_int,
                               require_time)

# --------------------------------------------------------------------------
# the log rule's zeta and its inverse

#: zeta_inverse brackets its root in [ZETA_INVERSE_START, ZETA_INVERSE_END]
ZETA_INVERSE_START = 1e-300
ZETA_INVERSE_END = 0.5


def zeta(s: float, b: float, c: float, dcoef: float) -> float:
    """s^b (dcoef ln(1/s))^{-c} on (0, 1), for b > 0, c >= 0 and dcoef > 0."""
    if not 0.0 < require_finite("s", s) < 1.0:
        raise ConfigError(f"zeta is defined on (0, 1), got s = {s!r}")
    require_finite("b", b, "positive")
    require_finite("c", c, ">= 0")
    require_finite("dcoef", dcoef, "positive")
    return s ** b * (dcoef * math.log(1.0 / s)) ** (-c)


class ZetaInverse(NamedTuple):
    root: float        # bisection inverse, relative accuracy ~1e-13
    asymptotic: float  # s^{1/b} ((dcoef/b) ln(1/s))^{c/b}


def zeta_inverse(s: float, b: float, c: float, dcoef: float) -> ZetaInverse:
    """Invert zeta on [ZETA_INVERSE_START, ZETA_INVERSE_END] by bisection;
    also return the asymptotic form.

    zeta is strictly increasing on (0, 1) for b, c, dcoef > 0, so the
    bisection runs on ln sigma, where the midpoint of two small sigmas
    cannot underflow.  An s whose root lies below the bracket is refused.
    The asymptotic value tends to the true inverse as s -> 0; exposing
    both lets callers check the ratio instead of trusting the limit.
    """
    a = ZETA_INVERSE_END
    if not 0.0 < require_finite("s", s) <= zeta(a, b, c, dcoef):    # zeta checks b, c, dcoef
        raise ConfigError(f"s = {s:.6g} outside the range of zeta on (0, {a}]")
    if c == 0.0:
        root = s ** (1.0 / b)
        return ZetaInverse(root=root, asymptotic=root)
    start = ZETA_INVERSE_START
    if zeta(start, b, c, dcoef) > s:
        raise ConfigError(f"s = {s:.6g} lies below zeta({start:g}): its root is below "
                          f"the bracket [{start:g}, {a}]")
    asym = s ** (1.0 / b) * ((dcoef / b) * math.log(1.0 / s)) ** (c / b)
    lo, hi = math.log(start), math.log(a)
    # down to a relative width of 1e-14 in sigma, or no double between the ends
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if zeta(math.exp(mid), b, c, dcoef) < s:
            lo = mid
        else:
            hi = mid
    return ZetaInverse(root=math.exp(0.5 * (lo + hi)), asymptotic=asym)


# --------------------------------------------------------------------------
# the Gronwall lemma for iterated integrals

def gronwall_bound(c0: float, c1: float, t: float, tau: float) -> float:
    """c0 * e^{(1+c1)(tau - t)}; ExponentOverflowError past the double range."""
    _check_gronwall_constants(c0, c1, tau)
    require_time(t, tau)
    return checked(c0 * exp_or_inf(log_gronwall_factor(c1, t, tau)),
                   "gronwall bound overflows for c1 = %.6g, tau - t = %.6g", c1, tau - t)


def _check_gronwall_constants(c0: float, c1: float, tau: float) -> None:
    for name, value in (("c0", c0), ("c1", c1), ("tau", tau)):
        require_finite(name, value, "positive")


def gronwall_comparison_solution(c0: float, c1: float, tau: float,
                                 n_steps: int = 400) -> tuple[np.ndarray, np.ndarray]:
    """U saturating the hypothesis: the equality case in closed form.

    X(t) = c0 + c1 int_t^tau (X + int_s^tau X) is the solution of
    X' = -c1 (X + Y), Y' = -X with X(tau) = c0, Y(tau) = 0.  In w = tau - t
    that is X'' = c1 (X' + X), so X = A e^{r1 w} + (c0 - A) e^{r2 w} with
    the roots r1 = (c1 + sqrt(c1^2 + 4 c1)) / 2 and r2 = -c1 / r1 of
    r^2 = c1 (r + 1), and A = c0 (c1 - r2) / (r1 - r2) from X'(0) = c1 c0.
    Both terms are positive and r1 < 1 + c1, so X stays below
    `gronwall_bound`; X(tau) is set to c0 exactly, where the bound equals
    c0.  Returns (grid points, U = X on them); ExponentOverflowError if X
    leaves the double range.
    """
    _check_gronwall_constants(c0, c1, tau)
    pts = TimeGrid(tau, n_steps).points
    w = tau - pts
    r1 = 0.5 * (c1 + math.sqrt(c1 * c1 + 4.0 * c1))
    r2 = -c1 / r1  # the product of the roots; r1 + r2 would cancel
    a = c0 * (c1 - r2) / (r1 - r2)
    with np.errstate(over="ignore", invalid="ignore"):
        x = a * np.exp(r1 * w) + (c0 - a) * np.exp(r2 * w)
    checked(x, "comparison solution overflows: r1 tau = %.6g", r1 * tau)
    x[-1] = c0
    return pts, x


# --------------------------------------------------------------------------
# the growth operator and the quadrature weights, one value at a time

def apply_spectral_growth(t: float, psi: SpectralField, level: int) -> SpectralField:
    """Keep modes 1..level and multiply mode j by e^{lambda_j t}.

    At t = 0 this is the rank-`level` orthogonal projection.  Raises
    ExponentOverflowError naming the first mode whose growth factor leaves
    the double range while its coefficient is nonzero.
    """
    model = psi.model
    require_int("level", level, high=model.mode_count)
    require_finite("t", t, ">= 0")
    out = np.zeros(model.mode_count)
    with np.errstate(all="ignore"):
        out[:level] = _growth_rows(model.lambdas[:level], np.array([t]), psi.coeffs[:level])[:, 0]
    return SpectralField(model, out)


def lagrange_exp_weights(offsets: np.ndarray, z: float) -> np.ndarray:
    """Quadrature weights a_o with int_0^1 L_o(s) e^{z s} ds = a_o.

    `offsets` are the stencil node positions in units of the grid spacing,
    relative to the left end of the unit interval being integrated.  The
    solver's tables (`quadrature._interval_weight_table`) form the same
    rows for several stencils from one moment vector; this one-stencil
    form is the reference they are tested against.
    """
    offsets = np.asarray(offsets, dtype=float)
    k = offsets.size
    V = np.vander(offsets, k, increasing=True)
    # column o of V^{-1} holds the monomial coefficients of L_o
    Vinv = np.linalg.inv(V)
    return Vinv.T @ _exp_moments(z, k - 1)


# --------------------------------------------------------------------------
# the solve's equation as an ODE

#: DOP853's relative tolerance; against a 25-digit mpmath solve of sin
#: data [[1, 0.2], [2, 1e-4]] on tau 0.25 it is off by 1.0e-13 at t = 0,
#: where the solution's norm is 2.4
ODE_RTOL = 1e-13


def ode_solution(lambdas, source, tau: float, data, times) -> np.ndarray:
    """The exact solution's modes at `times`, from an ODE solver.

    For a coefficient-wise source F the modes decouple, and mode j of the
    integral equation that `solver.picard_solve` discretises is the
    backward problem

        v' = -lambda_j v + F(v) + M,   M' = -v,   v(tau) = data_j, M(tau) = 0,

    integrated here by scipy's DOP853 at rtol ODE_RTOL.  `source` is F as a
    numpy function of the coefficients (np.sin for the sin source), so a
    change to `SourceFunction.apply` does not move the oracle.  A mode whose
    datum is 0 keeps the zero solution, since F(0) = 0.  Returns the
    (len(lambdas), len(times)) array of v_j at the ascending `times`.

    Each mode's absolute tolerance is 1e-3 ODE_RTOL |data_j|, and its first
    step 1e-3 tau: an absolute tolerance that does not scale with the
    datum (1e-300, say) makes the initial-step heuristic overflow, which
    numpy reports as a RuntimeWarning.
    """
    from scipy.integrate import solve_ivp

    times = np.asarray(times, dtype=float)
    out = np.zeros((len(lambdas), times.size))
    for j, (lam, g) in enumerate(zip(lambdas, data)):
        if g == 0.0:
            continue
        sol = solve_ivp(lambda _, y, lam=lam: [-lam * y[0] + source(y[0]) + y[1], -y[0]],
                        (tau, 0.0), [g, 0.0], method="DOP853", t_eval=times[::-1],
                        rtol=ODE_RTOL, atol=1e-3 * ODE_RTOL * abs(g), first_step=1e-3 * tau)
        if not sol.success:
            raise RuntimeError(f"mode {j + 1}: {sol.message}")
        out[j] = sol.y[0][::-1]
    return out
