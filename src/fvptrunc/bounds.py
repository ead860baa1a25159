"""Stability and error bounds, and dominance checks of measurement vs theory.

The bounds follow from a Gronwall inequality for iterated integrals: if
U(t) <= c0 + c1 int_t^tau (U(s) + int_s^tau U) ds then
U(t) <= c0 e^{(1+c1)(tau-t)}.  With kappa1 = 1 + max(kappa, 1):

  truncation (power regime,  smoothness parameter p > 0):
      e^{kappa1 (tau-t)} * rho * lambda_N^{-p} * e^{-lambda_N t}
  truncation (exponential regime, margin q > 0):
      e^{kappa1 (tau-t)} * rho * e^{-(q+t) lambda_N}
  noise:
      delta * e^{lambda_N (tau-t)} * e^{kappa1 (tau-t)}

rho budgets the weighted-norm size of the exact solution over time; the
two regimes correspond to weight pairs (p, tau) and (0, q+tau) and are not
mixed.  All bounds have log-space variants so ladders can extend past the
double range of the plain values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedRegimeError
from .spectral import (EigenModel, checked, exp_checked, exp_or_inf, require_finite,
                       require_int, require_time)

REGIMES = ("gevrey_p", "gevrey_q")


def gronwall_bound(c0: float, c1: float, t: float, tau: float) -> float:
    """c0 * e^{(1+c1)(tau - t)}; ExponentOverflowError past the double range."""
    _check_gronwall_constants(c0, c1, tau)
    require_time(t, tau)
    return checked(c0 * exp_or_inf((1.0 + c1) * (tau - t)),
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
    # at n_steps = 0 the one point t = 0 would be set to X(tau) = c0 below
    require_int("n_steps", n_steps)
    pts = np.linspace(0.0, tau, n_steps + 1)
    w = tau - pts
    r1 = 0.5 * (c1 + math.sqrt(c1 * c1 + 4.0 * c1))
    r2 = -c1 / r1  # the product of the roots; r1 + r2 would cancel
    a = c0 * (c1 - r2) / (r1 - r2)
    with np.errstate(over="ignore", invalid="ignore"):
        x = a * np.exp(r1 * w) + (c0 - a) * np.exp(r2 * w)
    checked(x, "comparison solution overflows: r1 tau = %.6g", r1 * tau)
    x[-1] = c0
    return pts, x


@dataclass(frozen=True)
class BoundInputs:
    """Everything the error bounds need at one (N, delta, t) sample.

    For regime 'gevrey_p' the smoothness pair is (p, tau) and q must be 0;
    for 'gevrey_q' it is (0, q + tau) and p must be 0.  Mixed regimes are
    rejected, matching the two separate estimates that exist.
    """

    model: EigenModel
    level: int
    t: float
    tau: float
    delta: float
    rho: float
    kappa: float
    regime: str
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise UnsupportedRegimeError(f"regime must be one of {REGIMES}")
        require_int("level", self.level, high=self.model.mode_count)
        for name in ("tau", "p", "q"):
            require_finite(name, getattr(self, name))
        require_time(self.t, self.tau)
        # kappa0 = max(kappa, 1) would turn a negative Lipschitz constant into 1
        require_finite("kappa", self.kappa, ">= 0")
        require_finite("delta", self.delta, ">= 0")
        require_finite("rho", self.rho, "positive")
        if self.regime == "gevrey_p" and not (self.p > 0.0 and self.q == 0.0):
            raise UnsupportedRegimeError("gevrey_p regime needs p > 0 and q = 0")
        if self.regime == "gevrey_q" and not (self.q > 0.0 and self.p == 0.0):
            raise UnsupportedRegimeError("gevrey_q regime needs q > 0 and p = 0")

    @property
    def kappa0(self) -> float:
        return max(self.kappa, 1.0)

    @property
    def kappa1(self) -> float:
        return 1.0 + self.kappa0

    @property
    def lam_n(self) -> float:
        return self.model.eigenvalue(self.level)


def log_truncation_bound(b: BoundInputs) -> float:
    lam = b.lam_n
    base = b.kappa1 * (b.tau - b.t) + math.log(b.rho)
    if b.regime == "gevrey_p":
        return base - b.p * math.log(lam) - lam * b.t
    return base - (b.q + b.t) * lam


def log_noise_bound(b: BoundInputs) -> float:
    if b.delta == 0.0:
        return -math.inf
    return math.log(b.delta) + (b.lam_n + b.kappa1) * (b.tau - b.t)


def log_total_bound(b: BoundInputs) -> float:
    return float(np.logaddexp(log_truncation_bound(b), log_noise_bound(b)))


def truncation_bound(b: BoundInputs) -> float:
    """Bound on the pure truncation error at time t."""
    return exp_checked(log_truncation_bound(b), "truncation bound")


def noise_bound(b: BoundInputs) -> float:
    """Bound on the noise-propagation error: delta e^{(lambda_N + kappa1)(tau-t)}."""
    return exp_checked(log_noise_bound(b), "noise bound")


def total_bound(b: BoundInputs) -> float:
    """truncation_bound + noise_bound; ExponentOverflowError if the sum of
    two finite terms leaves the double range."""
    return checked(truncation_bound(b) + noise_bound(b),
                   "total bound exceeds the floating range")


@dataclass(frozen=True)
class DominanceSample:
    """One measured error with the bound inputs it must sit below."""

    inputs: BoundInputs
    measured: float
    # quadrature allowance, e.g. 10x a Richardson estimate; run_experiment
    # leaves it 0 on a row whose measured error meets the bare bound
    slack: float = 0.0


@dataclass(frozen=True)
class DominanceReport:
    total: int
    violations: tuple
    # min over samples of (bound + slack - measured); NaN if any is.  On
    # run_experiment's samples the slack is 0 where the bare bound holds,
    # so there it is the margin below total_bound itself
    min_margin: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_dominance(samples) -> DominanceReport:
    """Assert measured <= total_bound + slack for every sample.

    Violations are collected, not raised; callers decide whether a nonempty
    list is a test failure (it is, everywhere in this package).  A NaN
    measured error or slack dominates nothing: the sample is a violation
    and the report's `min_margin` is NaN.
    """
    violations = []
    margins = []
    samples = list(samples)
    for s in samples:
        bound = total_bound(s.inputs) + s.slack
        margins.append(bound - s.measured)
        if not s.measured <= bound:
            violations.append(s)
    min_margin = math.nan if any(map(math.isnan, margins)) else min(margins, default=math.inf)
    return DominanceReport(total=len(samples), violations=tuple(violations),
                           min_margin=min_margin)
