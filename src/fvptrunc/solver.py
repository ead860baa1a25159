"""The regularized solver: truncated growth operator, the integral-equation
fixed-point map, and Picard iteration.

The regularized approximation at truncation level N solves

    v(t) = G_N(tau - t) g  -  int_t^tau G_N(s - t) F(s, v(s)) ds
                          -  int_t^tau G_N(s - t) int_s^tau v(xi) dxi ds,

where G_N(t) keeps the first N modes and multiplies mode j by e^{lambda_j t}.
Successive substitution converges for every N because the m-th iterate of
the map contracts like x^m / m! (x independent of the iterate); the solver
reports the observed increments.

Every iterate vanishes above mode N, so the Picard loop carries only the N
retained rows of the mode-major `Trajectory` layout, which the per-mode
quadratures read and write without copies.  It pads them with zero rows
once, when it returns, and takes the defect, when it is read, on the
retained rows with the solve's own leading term and quadrature plan.
`fixed_point_map` and `fixed_point_defect` take full-width trajectories
and check a solution independently of the loop.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ExponentOverflowError, NonConvergenceError
from .grids import TimeGrid, Trajectory, sup_over_time
from .problem import FvpInstance
from .spectral import MAX_EXP_ARG, EigenModel, SpectralField
from .quadrature import QuadraturePlan

DEFAULT_PICARD_TOL = 1e-11
DEFAULT_MAX_ITERS = 500
#: interpolation order of the quadrature, the sixth-order stencil scheme; it
#: is the only one (a piecewise-linear scheme stalled near 3e-3; see the README)
DEFAULT_QUADRATURE_ORDER = 6


@dataclass(frozen=True)
class SolverConfig:
    """Truncation level, grid resolution and iteration controls."""

    level: int                       # truncation level N
    n_steps: int
    picard_tol: float = DEFAULT_PICARD_TOL
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        for name in ("level", "n_steps", "max_iters"):
            value = getattr(self, name)
            # a float slices nothing and a bool is no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.level < 1:
            raise ValueError("truncation level must be >= 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0.0):
            raise ValueError(f"picard_tol must be finite and positive, got {self.picard_tol!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def grid(self, tau: float) -> TimeGrid:
        return TimeGrid(tau, self.n_steps)


def apply_spectral_growth(t: float, psi: SpectralField, level: int) -> SpectralField:
    """Keep modes 1..level and multiply mode j by e^{lambda_j t}.

    At t = 0 this is the rank-`level` orthogonal projection.  Raises
    ExponentOverflowError naming the first mode whose growth factor leaves
    the double range while its coefficient is nonzero.
    """
    model = psi.model
    if not 1 <= level <= model.mode_count:
        raise ValueError(f"level must lie in 1..{model.mode_count}")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    out = np.zeros(model.mode_count)
    out[:level] = _growth_rows(model.lambdas[:level], np.array([t]), psi.coeffs[:level])[:, 0]
    return SpectralField(model, out)


def _growth_rows(lam: np.ndarray, back: np.ndarray, data: np.ndarray) -> np.ndarray:
    """G_N on a grid, mode-major: e^{lam_j * back_i} * data_j at [j, i].

    A growth factor past the double range is harmless on a zero coefficient
    (its row is zero); on a nonzero one it raises ExponentOverflowError
    naming the first such mode.
    """
    args = np.outer(lam, back)
    over = args > MAX_EXP_ARG
    if np.any(over):
        bad = np.any(over, axis=1) & (data != 0.0)
        if np.any(bad):
            j = int(np.argmax(bad)) + 1
            raise ExponentOverflowError(
                f"e^(lambda_{j} s) overflows for s = {float(np.max(back)):.6g} "
                f"(lambda = {lam[j - 1]:.6g})")
        args = np.where(over, 0.0, args)  # zero data: row is zero anyway
    return np.exp(args) * data[:, None]


def _check_level(cfg: SolverConfig, model: EigenModel) -> None:
    if cfg.level > model.mode_count:
        raise ValueError("truncation level exceeds the model mode count")


def _map_retained(rows: np.ndarray, instance: FvpInstance, plan: QuadraturePlan,
                  lead: np.ndarray) -> np.ndarray:
    """fixed_point_map on the retained modes, mode-major: (N, n+1) rows to
    their (N, n+1) image.  `lead` is the map's term that does not depend on
    the iterate, G_N(tau - t) data on the grid (`_growth_rows`), and `plan`
    holds the modes' quadratures; both are built once per solve."""
    integrand = instance.source.apply(rows)  # F, a new array
    out = np.empty_like(lead)
    for j, row in enumerate(rows):
        image = out[j]
        plan.cumulative(row, image)  # W, until the profile overwrites it
        integrand[j] += image  # F + W
        plan.profile(j, integrand[j], image)
        np.subtract(lead[j], image, out=image)
    return out


def _padded(grid: TimeGrid, model: EigenModel, rows: np.ndarray) -> Trajectory:
    """The trajectory whose first modes are `rows`, the rest zero."""
    out = np.zeros((model.mode_count, grid.n_steps + 1))
    out[:rows.shape[0]] = rows
    return Trajectory(grid, model, out)


def fixed_point_map(v: Trajectory, instance: FvpInstance, cfg: SolverConfig,
                    data: SpectralField) -> Trajectory:
    """One application of the regularized integral-equation map to v.

    Per retained mode j:  e^{lambda_j (tau - t)} data_j  minus the kernel
    integral of F_j(s, v(s)) + W_j(s), where W_j(s) = int_s^tau v_j.
    Modes beyond the truncation level are zero.
    """
    _check_level(cfg, instance.model)
    N = cfg.level
    lead = _growth_rows(instance.model.lambdas[:N], instance.tau - v.grid.points,
                        data.coeffs[:N])
    plan = QuadraturePlan(instance.model.lambdas[:N], v.grid.h, v.grid.n_steps)
    image = _map_retained(v.states[:N], instance, plan, lead)
    return _padded(v.grid, instance.model, image)


def fixed_point_defect(v: Trajectory, instance: FvpInstance, cfg: SolverConfig,
                       data: SpectralField) -> float:
    """Sup-over-grid L2 norm of v - map(v); zero iff v is a discrete fixed point."""
    return v.sup_distance(fixed_point_map(v, instance, cfg, data))


@dataclass(frozen=True)
class PicardResult:
    """A converged solve.  `defect` is fixed_point_defect of the trajectory;
    it takes one more map, run when `defect` is first read and then kept."""

    trajectory: Trajectory
    iterations: int
    defect_of: Callable[[], float] = field(repr=False, compare=False)
    increments: list[float] = field(repr=False)

    @cached_property
    def defect(self) -> float:
        return self.defect_of()


def picard_solve(instance: FvpInstance, cfg: SolverConfig, data: SpectralField) -> PicardResult:
    """Iterate the fixed-point map to convergence.

    Starts from v_0(t) = G_N(tau - t) data, the map's leading term.  Stops
    when the sup-norm increment falls below picard_tol * (1 + ||v||);
    raises NonConvergenceError with the increment history and the defect
    when max_iters is exhausted.

    The stop test first reads an upper bound of ||v||, carried from the
    previous iterate by the triangle inequality ||v_new|| <= ||v|| + inc
    and widened by 1e-9 relative for the norms' rounding.  Only when the
    test passes on the bound is the exact norm taken and the test repeated
    on it, so every decision is the one the exact norm gives, while the
    iterations the test fails on (all but the last) take one norm, the
    increment, instead of two.

    The iterates are the (N, n+1) rows of the retained modes; the result
    is padded to the model's mode count once, at the end.  The leading
    term and a `QuadraturePlan` of the N modes are built once per solve,
    so the checks, weight tables, recurrence bands and scratch row of the
    quadratures are not repeated per iteration.

    The defect is fixed_point_defect of the result taken on the retained
    rows, since the modes above N are zero in the result and in its image.
    It costs one more map, so a converged solve runs it only when
    `PicardResult.defect` is first read: a solve whose defect nobody reads
    runs exactly `iterations` maps.
    """
    grid = cfg.grid(instance.tau)
    model = instance.model
    N = cfg.level
    _check_level(cfg, model)

    lead = _growth_rows(model.lambdas[:N], instance.tau - grid.points, data.coeffs[:N])
    plan = QuadraturePlan(model.lambdas[:N], grid.h, grid.n_steps)
    v = lead
    bound = sup_over_time(v)  # an upper bound of sup_over_time(v)
    increments: list[float] = []
    converged = False
    its = 0
    for its in range(1, cfg.max_iters + 1):
        image = _map_retained(v, instance, plan, lead)
        inc = sup_over_time(v - image)
        increments.append(inc)
        v = image
        # sup(image) <= sup(v) + inc; the factor covers the norms' rounding
        bound = (bound + inc) * (1.0 + 1e-9)
        if inc <= cfg.picard_tol * (1.0 + bound):
            bound = sup_over_time(v)
            if inc <= cfg.picard_tol * (1.0 + bound):
                converged = True
                break

    def defect_of() -> float:
        return sup_over_time(v - _map_retained(v, instance, plan, lead))

    if not converged:
        raise NonConvergenceError(
            f"no convergence after {cfg.max_iters} iterations "
            f"(last increment {increments[-1]:.3e})",
            increments=increments, defect=defect_of())
    return PicardResult(trajectory=_padded(grid, model, v), iterations=its,
                        defect_of=defect_of, increments=increments)
