"""Stability and error bounds, and dominance checks of measurement vs theory.

The bounds follow from a Gronwall inequality for iterated integrals: if
U(t) <= c0 + c1 int_t^tau (U(s) + int_s^tau U) ds then
U(t) <= c0 e^{(1+c1)(tau-t)}, whose exponent is `log_gronwall_factor`
(acceptance criterion 3 checks it through `gronwall_bound` in tests/oracle.py).
With kappa0 = max(kappa, 1) and kappa1 = 1 + kappa0:

  truncation:
      e^{kappa1 (tau-t)} * rho * lambda_N^{-p} * e^{-(q+t) lambda_N}
  noise:
      delta * e^{lambda_N (tau-t)} * e^{kappa1 (tau-t)}

The truncation bound reads the factor at c1 = kappa0.  The noise bound
keeps (lambda_N + kappa1)(tau - t) as one product, which is not the sum
of the two products bit for bit.

rho budgets the norm of the exact solution over time in the Gevrey weight
(p, q + tau).  The two smoothness regimes are that one weight with one
parameter 0: 'gevrey_p' (power regime, p > 0 and q = 0) and 'gevrey_q'
(exponential regime, margin q > 0 and p = 0); they are not mixed.  The
truncation and noise bounds are formed as logs and exponentiated once by
`exp_checked`: a bound past the double range is a range error
(`ExponentOverflowError`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .spectral import EigenModel, checked, exp_checked, require_finite, require_int, require_time

REGIMES = ("gevrey_p", "gevrey_q")


def log_gronwall_factor(c1: float, t: float, tau: float) -> float:
    """(1 + c1)(tau - t), the log of the lemma's growth factor."""
    return (1.0 + c1) * (tau - t)


@dataclass(frozen=True)
class BoundInputs:
    """Everything the error bounds need at one (N, delta, t) sample.

    The smoothness weight is (p, q + tau).  Regime 'gevrey_p' needs p > 0
    and q = 0, 'gevrey_q' needs q > 0 and p = 0: mixed regimes are
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
            raise ConfigError(f"regime must be one of {REGIMES}")
        require_int("level", self.level, high=self.model.mode_count)
        for name in ("tau", "p", "q"):
            require_finite(name, getattr(self, name))
        require_time(self.t, self.tau)
        # kappa0 = max(kappa, 1) would turn a negative Lipschitz constant into 1
        require_finite("kappa", self.kappa, ">= 0")
        require_finite("delta", self.delta, ">= 0")
        require_finite("rho", self.rho, "positive")
        if self.regime == "gevrey_p" and not (self.p > 0.0 and self.q == 0.0):
            raise ConfigError("gevrey_p regime needs p > 0 and q = 0")
        if self.regime == "gevrey_q" and not (self.q > 0.0 and self.p == 0.0):
            raise ConfigError("gevrey_q regime needs q > 0 and p = 0")

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
    """kappa1 (tau - t) + ln rho - p ln lambda_N - (q + t) lambda_N, with the
    lemma's factor at c1 = kappa0."""
    lam = b.lam_n
    return (log_gronwall_factor(b.kappa0, b.t, b.tau) + math.log(b.rho) - b.p * math.log(lam)
            - (b.q + b.t) * lam)


def log_noise_bound(b: BoundInputs) -> float:
    if b.delta == 0.0:
        return -math.inf
    return math.log(b.delta) + (b.lam_n + b.kappa1) * (b.tau - b.t)


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
