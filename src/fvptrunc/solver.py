"""The regularized solver: truncated growth operator, the integral-equation
fixed-point map, and Picard iteration.

The regularized approximation at truncation level N solves

    v(t) = G_N(tau - t) g  -  int_t^tau G_N(s - t) F(s, v(s)) ds
                          -  int_t^tau G_N(s - t) int_s^tau v(xi) dxi ds,

where G_N(t) keeps the first N modes and multiplies mode j by e^{lambda_j t}.
Successive substitution converges for every N because the m-th iterate of
the map contracts like x^m / m! (x independent of the iterate); the solver
reports the observed increments.

Every iterate vanishes above mode N, and every source is coefficient-wise
with F(0) = 0, so a retained mode whose datum is 0 stays exactly +-0 too.
The Picard loop therefore carries only the live retained rows, those with
nonzero data, of the mode-major `Trajectory` layout, which the per-mode
quadratures read and write without copies.  It scatters them into the
full width once, when it returns (a zero-data row keeps its leading term,
+-0), and takes the defect, when it is read, on the live rows with the
solve's own leading term and quadrature plan.  `fixed_point_map` and
`fixed_point_defect` take full-width trajectories and check a solution
independently of the loop.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import NonConvergenceError
from .grids import TimeGrid, Trajectory
from .problem import FvpInstance, SourceFunction
from .spectral import (SpectralField, checked, require_finite, require_int,
                       require_same_model, sup_over_time)
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
            require_int(name, getattr(self, name))
        require_finite("picard_tol", self.picard_tol, "positive")

    def grid(self, tau: float) -> TimeGrid:
        return TimeGrid(tau, self.n_steps)


def _growth_rows(lam: np.ndarray, back: np.ndarray, data: np.ndarray) -> np.ndarray:
    """G_N on a grid, mode-major: e^{lam_j * back_i} * data_j at [j, i].

    The package's one G_N (tests/oracle.py wraps it for one time and one
    field).  A growth factor past the double range is harmless on a zero
    coefficient (its row is zero); a value past it raises
    ExponentOverflowError naming the first such mode.  Every e^{lam_j s}
    is largest at the largest s, so that column alone is checked.  Callers
    run it with numpy's warnings off.
    """
    rows = np.exp(np.outer(lam, back)) * data[:, None]
    edge = rows[:, int(np.argmax(back))]  # a view of the column
    if not np.isfinite(edge).all():
        zero = data == 0.0
        rows[zero] = data[zero, None]  # inf * +-0 is NaN; the row is +-0
        j = int(np.argmax(~np.isfinite(edge))) + 1
        checked(edge, "e^(lambda_%d s) overflows for s = %.6g (lambda = %.6g)",
                j, float(np.max(back)), lam[j - 1])
    return rows


def _solve_setup(instance: FvpInstance, cfg: SolverConfig, grid: TimeGrid,
                 data: SpectralField) -> tuple[np.ndarray, QuadraturePlan]:
    """The map's leading term G_N(tau - t) data on `grid`, as (N, n+1) rows,
    and the `QuadraturePlan` of the N modes: what every map of a solve shares.
    `data` must live over the instance's model."""
    require_int("level", cfg.level, high=instance.model.mode_count)
    require_same_model("data", data.model, instance.model)
    lams = instance.model.lambdas[:cfg.level]
    lead = _growth_rows(lams, instance.tau - grid.points, data.coeffs[:cfg.level])
    return lead, QuadraturePlan(lams, grid.h, grid.n_steps)


def _map_retained(rows: np.ndarray, source: SourceFunction, plan: QuadraturePlan,
                  lead: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    """fixed_point_map on some retained modes, mode-major: (m, n+1) rows to
    their (m, n+1) image.  Row k is mode modes[k] + 1; `lead` holds the
    map's term that does not depend on the iterate for the same modes, and
    `plan`, from `_solve_setup`, the quadratures of all N retained modes.
    The source is coefficient-wise, so the rows map independently of the
    modes left out.  Callers run it with numpy's warnings off: an overflow
    anywhere in the map reaches the profiles' I_0 check as inf or NaN."""
    integrand = source.apply(rows)  # F, a new array
    out = np.empty_like(lead)
    for k, (j, row) in enumerate(zip(modes, rows)):
        image = out[k]
        plan.cumulative(row, image)  # W, until the profile overwrites it
        integrand[k] += image  # F + W
        plan.profile(j, integrand[k], image)
        np.subtract(lead[k], image, out=image)
    return out


def fixed_point_map(v: Trajectory, instance: FvpInstance, cfg: SolverConfig,
                    data: SpectralField) -> Trajectory:
    """One application of the regularized integral-equation map to v.

    Per retained mode j:  e^{lambda_j (tau - t)} data_j  minus the kernel
    integral of F_j(s, v(s)) + W_j(s), where W_j(s) = int_s^tau v_j.
    Modes beyond the truncation level are zero.  v must live over the
    instance's model and span [0, tau]; ValueError naming the trajectory
    otherwise.
    """
    require_same_model("trajectory", v.model, instance.model)
    if not v.grid.spans(instance.tau):
        raise ValueError(f"trajectory spans [0, {v.grid.tau!r}], not [0, tau = {instance.tau!r}]")
    with np.errstate(all="ignore"):
        lead, plan = _solve_setup(instance, cfg, v.grid, data)
        image = _map_retained(v.states[:cfg.level], instance.source, plan, lead, range(cfg.level))
    states = np.zeros(v.states.shape)
    states[:cfg.level] = image
    return Trajectory(v.grid, instance.model, states)


def fixed_point_defect(v: Trajectory, instance: FvpInstance, cfg: SolverConfig,
                       data: SpectralField) -> float:
    """Sup-over-grid L2 norm of v - map(v); zero iff v is a discrete fixed point."""
    return v.sup_distance(fixed_point_map(v, instance, cfg, data))


class PicardResult(NamedTuple):
    """A converged solve.  `defect` is fixed_point_defect of the trajectory;
    it takes one more map, which `defect_of` runs when first called and
    then remembers.  `modes` lists the 1-based modes the loop iterated."""

    trajectory: Trajectory
    iterations: int
    defect_of: Callable[[], float]
    increments: list[float]
    modes: tuple[int, ...]

    @property
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

    The iterates are the (m, n+1) rows of the live retained modes, those
    whose datum is nonzero (all N when none is).  The source is
    coefficient-wise with F(0) = 0 (see `SourceFunction`), so a zero-data
    mode's iterates are all its leading term, +-0 with the datum's sign,
    and each such row would add exactly +0.0 to a grid point's
    mode-ordered sum of squares: the increments, stop decisions and defect
    are those of the loop over all N rows, bit for bit.  The result is
    scattered into the model's mode count once, at the end, each zero-data
    row holding its datum, which is its leading-term row.  The leading
    term and the `QuadraturePlan` are built for all N modes
    (`_solve_setup`), so a range error names the mode a loop over all N
    rows would name.  Both are built once per solve, so the checks, weight
    tables, banded solves and scratch row of the quadratures are not
    repeated per iteration.

    The defect is fixed_point_defect of the result taken on the live rows,
    since the other modes are fixed by the map.  It costs one more map, so
    a converged solve runs it only when `PicardResult.defect` is first
    read: a solve whose defect nobody reads runs exactly `iterations` maps.
    `defect_of` is that map behind `functools.cache`, so a second read
    reuses it.
    """
    grid = cfg.grid(instance.tau)
    increments: list[float] = []
    # Every warning off, not only overflow and invalid: with all of them
    # ignored numpy skips reading the floating-point status after each
    # ufunc call (a map at n = 128 measured up to 1% faster).  A division
    # by zero gives inf or NaN, which the checks catch like an overflow.
    with np.errstate(all="ignore"):
        lead, plan = _solve_setup(instance, cfg, grid, data)
        live = np.flatnonzero(data.coeffs[:cfg.level] != 0.0)
        if live.size == 0:
            live = np.arange(cfg.level)
        modes = live.tolist()
        lead = lead[live]
        v = lead

        @cache
        def defect_of() -> float:
            with np.errstate(all="ignore"):
                return sup_over_time(v - _map_retained(v, instance.source, plan, lead, modes))

        bound = sup_over_time(v)  # an upper bound of sup_over_time(v)
        for its in range(1, cfg.max_iters + 1):
            image = _map_retained(v, instance.source, plan, lead, modes)
            inc = sup_over_time(v - image)
            increments.append(inc)
            v = image
            # sup(image) <= sup(v) + inc; the factor covers the norms' rounding
            bound = (bound + inc) * (1.0 + 1e-9)
            if inc <= cfg.picard_tol * (1.0 + bound):
                bound = sup_over_time(v)
                if inc <= cfg.picard_tol * (1.0 + bound):
                    break
        else:
            raise NonConvergenceError(
                f"no convergence after {cfg.max_iters} iterations "
                f"(last increment {increments[-1]:.3e})",
                increments=increments, defect=defect_of())
    # a zero-data row is its leading term, +-0 with the datum's sign
    states = np.zeros((instance.model.mode_count, grid.n_steps + 1))
    states[:cfg.level] = data.coeffs[:cfg.level, None]
    states[live] = v
    return PicardResult(trajectory=Trajectory(grid, instance.model, states), iterations=its,
                        defect_of=defect_of, increments=increments,
                        modes=tuple(j + 1 for j in modes))
