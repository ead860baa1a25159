"""A-priori rules tying the truncation level to the noise level.

Both rules minimize the two competing bound terms using the eigenvalue
growth constants e1, e2 (lambda_n between e1 n^{2/d} and e2 n^{2/d}), for
the Gevrey weight (p, q + tau) of `bounds.log_truncation_bound`, in which
p or q is 0.  With eta = e1 (q + t) + e2 (tau - t) and L = ln(rho/delta),
one formula covers both:

  r = ( (L - p ln(L / eta)) / eta )^{d/2}

  q = 0, the log rule (logarithmic rate), eta = e1 t + e2 (tau - t):
      r = ( ln( (delta/rho)^{-1/eta} * ((1/eta) ln(rho/delta))^{-p/eta} ) )^{d/2}
  p = 0, the Holder rule (rate delta^{e1(q+t)/(e1(q+t)+e2(tau-t))}):
      r = ( ln(rho/delta) / (e1 (q+t) + e2 (tau - t)) )^{d/2}

At p = q = 0 the two are one rule.  The returned level is
max(1, floor(r)); noise close to rho often produces r < 1, which the
rules clamp and flag.  The log rule is the closed-form asymptotic
inverse of s -> s^b (d ln(1/s))^{-c}; the tests check it against a
bisection inverse in tests/oracle.py rather than assume the limit.

Every input a rule cannot take is a `ConfigError`: a value out of its
range, both p and q nonzero, and noise at or above rho or too large for
the log rule's inner logarithm.  A rule value past the double range is
an `ExponentOverflowError`.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ExponentOverflowError
from .spectral import checked, require_finite, require_int, require_time

class LevelChoice(NamedTuple):
    level: int
    raw: float      # the rule's value before flooring/clamping
    clamped: bool   # True when floor(raw) < 1


def choose_level(rho: float, delta: float, t: float, tau: float, d: int,
                 e1: float, e2: float, p: float = 0.0, q: float = 0.0) -> LevelChoice:
    """The level the rule picks at time t: the log rule for p, the Holder
    rule for q; at most one of them may be nonzero."""
    # an inf leaves the rules past the double range
    for name, value in (("rho", rho), ("delta", delta), ("tau", tau), ("e1", e1), ("e2", e2)):
        require_finite(name, value, "positive")
    for name, value in (("p", p), ("q", q)):
        require_finite(name, value, ">= 0")
    require_int("d", d, high=sys.float_info.max)    # the rule divides d as a double
    require_time(t, tau)
    if delta >= rho:
        raise ConfigError("rules require delta < rho (ln(rho/delta) > 0)")
    if p != 0.0 and q != 0.0:
        raise ConfigError(f"p and q cannot both be nonzero (the log rule reads p, the "
                          f"Holder rule q), got p = {p!r} and q = {q!r}")

    big_l = math.log(rho) - math.log(delta)  # rho/delta can overflow
    eta = e1 * (q + t) + e2 * (tau - t)
    # an eta > 0 that underflowed to 0, or a quotient past the double
    # range, is a range error
    if eta == 0.0:
        raise ExponentOverflowError("the rule's denominator underflows to 0")
    base = checked(big_l / eta, "ln(rho/delta) / %.6g leaves the double range", eta)
    # the log rule's ln of (delta/rho)^{-1/eta} ((1/eta) ln(rho/delta))^{-p/eta};
    # at p = 0 the second factor is 1, whatever its base
    if p != 0.0:
        if base == 0.0:  # math.log(0) raises
            raise ExponentOverflowError("ln(rho/delta) / eta underflows to 0")
        base = (big_l - p * math.log(base)) / eta
        if base <= 0.0:
            raise ConfigError(
                "noise too large for the log rule (inner logarithm argument <= 1)")
    with np.errstate(over="ignore", invalid="ignore"):
        raw = float(np.float64(base) ** (d / 2.0))  # libm pow, as float's `**`
    checked(raw, "rule value %.6g^(%d/2) leaves the double range", base, d)
    floored = math.floor(raw)
    return LevelChoice(level=max(1, floored), raw=raw, clamped=floored < 1)
