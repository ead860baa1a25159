"""Exact and self-convergent reference solutions.

For a linear source F = c u the mode ODE

    u' + lambda u = c u + int_t^tau u ds,   u(tau) = 1,

has the closed-form solution

    u(t) = (alpha e^{-alpha (tau-t)} - beta e^{-beta (tau-t)}) / (alpha - beta)

where alpha, beta are the roots of r^2 + (lambda - c) r + 1 = 0.  Single
modes (and, by linearity, their combinations) therefore give exact ground
truth.  The same closed form drives the instability demonstration: data of
norm 1/|beta_n| produces a solution of norm >= e^{|beta_n| (tau-t)}/|beta_n|.

For nonlinear sources no closed form exists; references are produced by a
grid-refinement ladder on n/4, n/2 and n steps whose successive differences
must shrink by at least 3 per halving, with a Richardson error estimate
attached.  Existence of the underlying exact solution is an assumption
there; the ladder only certifies the discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ReferenceRejectedError
from .grids import TimeGrid, Trajectory
from .problem import FvpInstance
from .quadrature import SCHEME_ORDER
from .solver import DEFAULT_QUADRATURE_ORDER, SolverConfig, picard_solve
from .spectral import EigenModel, SpectralField, checked, require_finite, require_times


@dataclass(frozen=True)
class LinearModeRoots:
    """Roots of r^2 + (lambda - c) r + 1 = 0, with alpha beta = 1."""

    alpha: float
    beta: float
    lam: float


def mode_roots(lam: float, c: float) -> LinearModeRoots:
    """Stable root pair for a single mode of the linear-source problem.

    beta (the larger in magnitude) is computed by the add-the-square-root
    branch of the quadratic formula, alpha as 1/beta; this avoids the
    cancellation the subtractive branch would suffer for large lambda.
    """
    require_finite("lam", lam)
    require_finite("c", c)
    s = lam - c
    disc = s * s - 4.0
    if disc <= 0.0:
        raise ConfigError(
            f"(lambda - c)^2 must exceed 4 for real distinct roots; got lambda={lam}, c={c}")
    beta = -0.5 * (s + math.sqrt(disc))
    alpha = 1.0 / beta
    return LinearModeRoots(alpha=alpha, beta=beta, lam=lam)


#: the message of a closed-form value past the double range: the growth
#: factor e^{|beta| w} is the only term that can overflow, with |beta| w and lambda
_GROWTH_OVERFLOW = "e^(|beta| (tau - t)) overflows: |beta| (tau - t) = %.6g (lambda = %.6g)"


def mode_coefficient(roots: LinearModeRoots, tau: float, t) -> np.ndarray:
    """u(t) of the closed form, normalized to u(tau) = 1, for every t in
    [0, tau].

    Raises ExponentOverflowError where u(t) leaves the double range.
    """
    a, b = roots.alpha, roots.beta
    w = tau - require_times(t, tau)
    with np.errstate(over="ignore", invalid="ignore"):
        u = (a * np.exp(-a * w) - b * np.exp(-b * w)) / (a - b)
    return checked(u, _GROWTH_OVERFLOW, abs(b) * float(np.max(w)), roots.lam)


@dataclass(frozen=True)
class ReferenceSolution:
    """A ground-truth trajectory and its error estimate: 0 for the closed
    form, exact up to rounding, and the Richardson estimate for a
    self-convergent ladder.  Its final data g is the trajectory at t = tau.
    """

    trajectory: Trajectory
    error_estimate: float = 0.0

    @property
    def final_data(self) -> SpectralField:
        return self.trajectory.state(self.trajectory.grid.n_steps)


def closed_form_solution(model: EigenModel, n: int, c: float, tau: float,
                         grid: TimeGrid) -> ReferenceSolution:
    """Single-mode exact solution with final data phi_n; the grid must
    span [0, tau]."""
    require_finite("tau", tau, "positive")
    if not grid.spans(tau):
        raise ValueError("grid must span [0, tau]")
    return combined_closed_form(model, ((n, 1.0),), c, grid)


def combined_closed_form(model: EigenModel, weights, c: float,
                         grid: TimeGrid) -> ReferenceSolution:
    """Exact solution on [0, grid.tau] with final data sum_n w_n phi_n
    (linear source only).

    `weights` holds (1-based mode, w_n) pairs, each mode at most once.
    """
    SpectralField.from_coeffs(model, weights)  # checks the mode indices
    states = np.zeros((model.mode_count, grid.n_steps + 1))
    for n, w in weights:
        if w == 0.0:
            continue
        roots = mode_roots(model.eigenvalue(n), c)
        # the last point, tau, is set exactly
        states[n - 1, :-1] = w * mode_coefficient(roots, grid.tau, grid.points[:-1])
        states[n - 1, -1] = w  # w (alpha - beta)/(alpha - beta), exactly
    return ReferenceSolution(Trajectory(grid, model, states))


@dataclass(frozen=True)
class IllposedPair:
    """The instability example at one mode: small data, huge solution.

    data_norm = 1/|beta_n| shrinks with n while the solution norm at any
    t < tau exceeds e^{|beta_n| (tau - t)} / |beta_n|, which blows up.
    """

    mode: int
    tau: float
    data_norm: float
    roots: LinearModeRoots

    def solution_norm(self, t) -> np.ndarray:
        """Exact ||v(t)|| from the closed form."""
        return np.abs(mode_coefficient(self.roots, self.tau, t)) * self.data_norm

    def lower_bound(self, t) -> np.ndarray:
        """e^{|beta| (tau - t)} / |beta|; ExponentOverflowError past the double range."""
        b = abs(self.roots.beta)
        w = self.tau - require_times(t, self.tau)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.exp(b * w) / b
        return checked(bound, _GROWTH_OVERFLOW, b * float(np.max(w)), self.roots.lam)


def illposed_pair(model: EigenModel, n: int, tau: float) -> IllposedPair:
    """Data/solution pair for the source F = u demonstrating instability."""
    require_finite("tau", tau, "positive")
    roots = mode_roots(model.eigenvalue(n), 1.0)
    return IllposedPair(mode=n, tau=tau, data_norm=1.0 / abs(roots.beta), roots=roots)


def check_ladder_contraction(diffs, floor: float = 0.0):
    """Gate: each grid halving must shrink the difference by at least 3.

    `diffs[i]` is the sup distance between ladder solves i and i+1, each
    on twice the steps of the one before.  Differences at or below `floor`
    count as converged.  Raises ReferenceRejectedError on the first
    failing pair.
    """
    for i in range(len(diffs) - 1):
        if diffs[i + 1] <= floor:
            continue
        # a NaN difference fails this test
        if not diffs[i] / diffs[i + 1] >= 3.0:
            raise ReferenceRejectedError(
                f"ladder differences {diffs[i]:.3e} -> {diffs[i + 1]:.3e} shrink by "
                f"{diffs[i] / diffs[i + 1]:.2f} < required 3.00")


def richardson_estimate(diff: float) -> float:
    """Error of the finer of two solves on h and h/2 that differ by `diff`:
    diff / (2^p - 1) at the solver's scheme order p."""
    return diff / (2.0 ** SCHEME_ORDER[DEFAULT_QUADRATURE_ORDER] - 1.0)


def self_convergent_reference(instance: FvpInstance, cfg: SolverConfig,
                              data: SpectralField) -> ReferenceSolution:
    """Reference by grid refinement for sources without a closed form.

    Solves the instance's equation from `data`, the exact final data g, at
    cfg.n_steps / 4, / 2 and / 1 steps at cfg's truncation level, as
    `picard_solve` does; cfg.n_steps must be divisible by 4.  Each halving
    must shrink the sup-norm difference by at least 3, otherwise the
    ladder is rejected.  The finest solve is returned, tagged with a
    Richardson error estimate from the last difference.
    """
    if cfg.n_steps % 4:
        raise ValueError(f"the reference ladder needs n_steps divisible by 4, got {cfg.n_steps}")
    solves = [picard_solve(instance, replace(cfg, n_steps=cfg.n_steps // k), data).trajectory
              for k in (4, 2, 1)]
    diffs = [solves[i + 1].sup_distance(solves[i]) for i in range(len(solves) - 1)]
    floor = 1e-13 * max(s.sup_norm() for s in solves)  # rounding floor: treat as converged
    check_ladder_contraction(diffs, floor)
    return ReferenceSolution(solves[-1], float(richardson_estimate(diffs[-1])))
