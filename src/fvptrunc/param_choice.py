"""A-priori rules tying the truncation level to the noise level.

Both rules minimize the two competing bound terms using the eigenvalue
growth constants e1, e2 (lambda_n between e1 n^{2/d} and e2 n^{2/d}):

  power-regime (logarithmic rate), weight eta(t) = e1 t + e2 (tau - t):
      r = ( ln( (delta/rho)^{-1/eta} * ((1/eta) ln(rho/delta))^{-p/eta} ) )^{d/2}
  exponential-regime (Holder rate delta^{e1(q+t)/(e1(q+t)+e2(tau-t))}):
      r = ( ln(rho/delta) / (e1 (q+t) + e2 (tau - t)) )^{d/2}

The returned level is max(1, floor(r)); noise close to rho often produces
r < 1, which the rules clamp and flag.  The n-th root inversion behind the
first rule (inverse of s -> s^b (d ln(1/s))^{-c}) is exposed separately,
with both a rigorous bisection inverse and its closed-form asymptotic, so
the asymptotic agreement can be verified rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (BracketError, ExponentOverflowError, NoiseTooLargeError,
                     UnsupportedRegimeError)
from .spectral import checked, require_finite, require_int, require_time

LOG_RULE = "log_rule"
HOLDER_RULE = "holder_rule"
RULES = (LOG_RULE, HOLDER_RULE)


@dataclass(frozen=True)
class ChoiceInputs:
    """Inputs of a parameter-choice rule at one evaluation time.

    The log rule reads p and the holder rule q; the other one may hold
    only its default, 0 (p = 0 under the log rule is valid).
    """

    regime: str
    rho: float
    delta: float
    t: float
    tau: float
    d: int
    e1: float
    e2: float
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if self.regime not in RULES:
            raise ValueError(f"regime must be one of {RULES}")
        # an inf leaves the rules past the double range
        for name in ("rho", "delta", "tau", "e1", "e2"):
            require_finite(name, getattr(self, name), "positive")
        for name in ("p", "q"):
            require_finite(name, getattr(self, name), ">= 0")
        require_int("d", self.d)
        require_time(self.t, self.tau)
        if self.delta >= self.rho:
            raise NoiseTooLargeError("rules require delta < rho (ln(rho/delta) > 0)")
        if self.regime == HOLDER_RULE and self.p != 0.0:
            raise UnsupportedRegimeError("p is not used by the holder rule")
        if self.regime == LOG_RULE and self.q != 0.0:
            raise UnsupportedRegimeError("q is not used by the log rule")

    @property
    def eta(self) -> float:
        """e1 t + e2 (tau - t)."""
        return self.e1 * self.t + self.e2 * (self.tau - self.t)


class LevelChoice(NamedTuple):
    level: int
    raw: float      # the rule's value before flooring/clamping
    clamped: bool   # True when floor(raw) < 1


def _ratio(big_l: float, denom: float) -> float:
    """ln(rho/delta) / denom; a denom > 0 that underflowed to 0, or a
    quotient past the double range, is a range error."""
    if denom == 0.0:
        raise ExponentOverflowError("the rule's denominator underflows to 0")
    return checked(big_l / denom, "ln(rho/delta) / %.6g leaves the double range", denom)


def _finish(base: float, d: int) -> LevelChoice:
    """The level of rule value base^{d/2}; ExponentOverflowError past the double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = float(np.float64(base) ** (d / 2.0))  # libm pow, as float's `**`
    checked(raw, "rule value %.6g^(%d/2) leaves the double range", base, d)
    floored = math.floor(raw)
    return LevelChoice(level=max(1, floored), raw=raw, clamped=floored < 1)


def choose_n_log(ci: ChoiceInputs) -> LevelChoice:
    """Level for the power regime (logarithmic rate)."""
    if ci.regime != LOG_RULE:
        raise ValueError(f"inputs are not for the log rule: regime {ci.regime!r}")
    eta = ci.eta
    big_l = math.log(ci.rho) - math.log(ci.delta)  # rho/delta can overflow
    # ln of (delta/rho)^{-1/eta} ((1/eta) ln(rho/delta))^{-p/eta}
    inner = _ratio(big_l, eta)
    if ci.p != 0.0:  # at p = 0 the second factor is 1, whatever its base
        if inner == 0.0:  # math.log(0) raises
            raise ExponentOverflowError("ln(rho/delta) / eta underflows to 0")
        inner = (big_l - ci.p * math.log(inner)) / eta
        if inner <= 0.0:
            raise NoiseTooLargeError(
                "noise too large for the log rule (inner logarithm argument <= 1)")
    return _finish(inner, ci.d)


def choose_n_holder(ci: ChoiceInputs) -> LevelChoice:
    """Level for the exponential regime (Holder rate)."""
    if ci.regime != HOLDER_RULE:
        raise ValueError(f"inputs are not for the holder rule: regime {ci.regime!r}")
    denom = ci.e1 * (ci.q + ci.t) + ci.e2 * (ci.tau - ci.t)
    big_l = math.log(ci.rho) - math.log(ci.delta)  # rho/delta can overflow
    return _finish(_ratio(big_l, denom), ci.d)


def choose_level(ci: ChoiceInputs) -> LevelChoice:
    """Dispatch on the configured regime."""
    return choose_n_log(ci) if ci.regime == LOG_RULE else choose_n_holder(ci)


def zeta(s: float, b: float, c: float, dcoef: float) -> float:
    """s^b (dcoef ln(1/s))^{-c} on (0, 1), for b > 0, c >= 0 and dcoef > 0."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"zeta is defined on (0, 1), got s = {s!r}")
    require_finite("b", b, "positive")
    require_finite("c", c, ">= 0")
    require_finite("dcoef", dcoef, "positive")
    return s ** b * (dcoef * math.log(1.0 / s)) ** (-c)


class ZetaInverse(NamedTuple):
    root: float        # bisection inverse, relative accuracy ~1e-13
    asymptotic: float  # s^{1/b} ((dcoef/b) ln(1/s))^{c/b}


def zeta_inverse(s: float, b: float, c: float, dcoef: float,
                 a: float = 0.5) -> ZetaInverse:
    """Invert zeta on (0, a] by bisection; also return the asymptotic form.

    zeta is strictly increasing on (0, 1) for b, c, dcoef > 0, so the
    bracket is (tiny, a].  The asymptotic value tends to the true inverse
    as s -> 0; exposing both lets callers check the ratio instead of
    trusting the limit.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("domain endpoint a must lie in (0, 1)")
    if not 0.0 < s <= zeta(a, b, c, dcoef):    # zeta checks b, c and dcoef
        raise BracketError(
            f"s = {s:.6g} outside the range of zeta on (0, {a}]")
    if c == 0.0:
        root = s ** (1.0 / b)
        return ZetaInverse(root=root, asymptotic=root)
    asym = s ** (1.0 / b) * ((dcoef / b) * math.log(1.0 / s)) ** (c / b)
    lo, hi = 1e-300, a
    # log-space bisection: zeta is increasing
    for _ in range(300):
        mid = math.sqrt(lo * hi)
        if zeta(mid, b, c, dcoef) < s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    root = math.sqrt(lo * hi)
    return ZetaInverse(root=root, asymptotic=asym)
