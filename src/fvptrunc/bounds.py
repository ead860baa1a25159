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
from .spectral import EigenModel, exp_checked

REGIMES = ("gevrey_p", "gevrey_q")


def gronwall_bound(c0: float, c1: float, t: float, tau: float) -> float:
    """c0 * e^{(1+c1)(tau - t)}."""
    if c0 <= 0.0 or c1 <= 0.0:
        raise ValueError("c0 and c1 must be positive")
    if not 0.0 <= t <= tau:
        raise ValueError("need 0 <= t <= tau")
    return c0 * math.exp((1.0 + c1) * (tau - t))


def gronwall_comparison_solution(c0: float, c1: float, tau: float,
                                 n_steps: int = 400) -> tuple[np.ndarray, np.ndarray]:
    """U saturating the hypothesis: the equality case integrated numerically.

    Solves X' = -c1 (X + Y), Y' = -X backward from X(tau) = c0, Y(tau) = 0,
    so that X(t) = c0 + c1 int_t^tau (X + int_s^tau X) holds exactly.
    Returns (grid points, U = X on them).
    """
    # imported here, not at module level: scipy.integrate loads scipy.optimize,
    # which every `import fvptrunc` would pay for, and only this demo needs it
    from scipy.integrate import solve_ivp

    pts = np.linspace(0.0, tau, n_steps + 1)

    def rhs(t, xy):
        x, y = xy
        return [-c1 * (x + y), -x]

    sol = solve_ivp(rhs, (tau, 0.0), [c0, 0.0], t_eval=pts[::-1],
                    rtol=1e-10, atol=1e-12, method="RK45")
    if not sol.success:
        raise RuntimeError(f"comparison-system integration failed: {sol.message}")
    return pts, sol.y[0][::-1].copy()


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
        if not 1 <= self.level <= self.model.mode_count:
            raise ValueError("truncation level outside the model range")
        if not 0.0 <= self.t <= self.tau:
            raise ValueError("need 0 <= t <= tau")
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
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
    if b.delta == 0.0:
        return 0.0
    return exp_checked(log_noise_bound(b), "noise bound")


def total_bound(b: BoundInputs) -> float:
    """truncation_bound + noise_bound."""
    return truncation_bound(b) + noise_bound(b)


@dataclass(frozen=True)
class DominanceSample:
    """One measured error with the bound inputs it must sit below."""

    inputs: BoundInputs
    measured: float
    slack: float = 0.0  # quadrature allowance, e.g. 10x a Richardson estimate


@dataclass(frozen=True)
class DominanceReport:
    total: int
    violations: tuple
    min_margin: float  # min over samples of (bound + slack - measured)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_dominance(samples) -> DominanceReport:
    """Assert measured <= total_bound + slack for every sample.

    Violations are collected, not raised; callers decide whether a nonempty
    list is a test failure (it is, everywhere in this package).
    """
    violations = []
    min_margin = math.inf
    samples = list(samples)
    for s in samples:
        bound = total_bound(s.inputs) + s.slack
        margin = bound - s.measured
        min_margin = min(min_margin, margin)
        if s.measured > bound:
            violations.append(s)
    return DominanceReport(total=len(samples), violations=tuple(violations),
                           min_margin=min_margin)
