"""The regularized solver: truncated growth operator, the integral-equation
fixed-point map, and Picard iteration.

The regularized approximation at truncation level N solves

    v(t) = G_N(tau - t) g  -  int_t^tau G_N(s - t) F(s, v(s)) ds
                          -  int_t^tau G_N(s - t) int_s^tau v(xi) dxi ds,

where G_N(t) keeps the first N modes and multiplies mode j by e^{lambda_j t}.
Successive substitution converges for every N because the m-th iterate of
the map contracts like x^m / m! (x independent of the iterate); the solver
reports the first m at which that a-priori factor drops below one as a
diagnostic, together with the observed increments.

Every iterate vanishes above mode N, so the Picard loop carries only the N
retained modes, and it stores them mode-major, shape (N, n_steps + 1): each
mode's time series is one contiguous row, which the per-mode quadratures
read and write without copies; the sup norms take the transposed view.
The loop transposes and pads to the model's (n_steps + 1, mode_count)
layout once, when it returns, and takes the returned defect on the
retained rows with the solve's own leading term.  `fixed_point_map` and
`fixed_point_defect` keep the full-width layout and check a solution
independently of the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExponentOverflowError, NonConvergenceError
from .grids import TimeGrid, Trajectory
from .problem import FvpInstance
from .spectral import MAX_EXP_ARG, EigenModel, SpectralField, sup_row_norm
from .quadrature import SCHEME_ORDER, backward_cumulative, exp_kernel_profile

DEFAULT_PICARD_TOL = 1e-11
DEFAULT_MAX_ITERS = 500
DEFAULT_QUADRATURE_ORDER = 6


@dataclass(frozen=True)
class SolverConfig:
    """Truncation level, grid resolution and iteration controls."""

    level: int                       # truncation level N
    n_steps: int
    picard_tol: float = DEFAULT_PICARD_TOL
    max_iters: int = DEFAULT_MAX_ITERS
    quadrature_order: int = DEFAULT_QUADRATURE_ORDER

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("truncation level must be >= 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.picard_tol <= 0.0:
            raise ValueError("picard_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.quadrature_order not in SCHEME_ORDER:
            raise ValueError(f"quadrature_order must be one of {tuple(SCHEME_ORDER)}")

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


def exp_kernel_integral(lam: float, grid: TimeGrid, w: np.ndarray, t_index: int,
                        order: int = 2) -> float:
    """int_{t}^{tau} e^{lam (s - t)} w(s) ds at grid point t = t_{t_index}.

    w holds samples on the grid; the kernel is integrated exactly against
    the piecewise-polynomial interpolant of the given order (2 = linear,
    the documented default; 6 = the solver's high-order variant).
    """
    if not 0 <= t_index <= grid.n_steps:
        raise IndexError("t_index outside the grid")
    profile = exp_kernel_profile(lam, grid.h, np.asarray(w, dtype=float), order)
    return float(profile[t_index])


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


def _map_retained(rows: np.ndarray, instance: FvpInstance, cfg: SolverConfig,
                  lead: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """fixed_point_map on the retained modes, mode-major: (N, n+1) rows to
    their (N, n+1) image.  `lead` is the map's term that does not depend on
    the iterate, G_N(tau - t) data on the grid (`_growth_rows`), computed
    once per solve."""
    lam = instance.model.lambdas[:cfg.level]
    h, order = grid.h, cfg.quadrature_order
    integrand = instance.source.apply(grid.points, rows)  # F, a new array
    out = np.empty_like(lead)
    for j, row in enumerate(rows):
        integrand[j] += backward_cumulative(h, row, order)  # F + W
        np.subtract(lead[j], exp_kernel_profile(lam[j], h, integrand[j], order),
                    out=out[j])
    return out


def _padded(grid: TimeGrid, model: EigenModel, rows: np.ndarray) -> Trajectory:
    """The trajectory whose first modes are the mode-major `rows`, the rest zero."""
    out = np.zeros((grid.n_steps + 1, model.mode_count))
    out[:, :rows.shape[0]] = rows.T
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
    image = _map_retained(v.states[:, :N].T.copy(), instance, cfg, lead, v.grid)
    return _padded(v.grid, instance.model, image)


def fixed_point_defect(v: Trajectory, instance: FvpInstance, cfg: SolverConfig,
                       data: SpectralField) -> float:
    """Sup-over-grid L2 norm of v - map(v); zero iff v is a discrete fixed point."""
    return v.sup_distance(fixed_point_map(v, instance, cfg, data))


def apriori_contraction_iteration(kappa: float, lam_n: float, tau: float) -> float:
    """First m with (kappa0 e^(lambda_N tau) (1+tau) tau)^m / m! < 1.

    kappa0 = max(kappa, 1).  Returned as a float because the threshold is
    astronomically large for desk-scale lambda_N tau; it is a diagnostic of
    how pessimistic the a-priori factorial bound is, not an iteration count
    the solver ever waits for.
    """
    kappa0 = max(kappa, 1.0)
    log_x = math.log(kappa0) + lam_n * tau + math.log1p(tau) + math.log(tau)
    if log_x <= 0.0:
        return 1.0
    # m ln x < lgamma(m+1); the crossover sits near e^(1 + ln x).  The
    # margin of 7 below the double range keeps the bisection's upper end
    # 4 e^(1 + ln x) <= e^(703 + ln 4) ~ 4e305 finite.
    if log_x > MAX_EXP_ARG - 7.0:
        return math.inf

    def crosses(m: float) -> bool:
        try:
            return m * log_x >= math.lgamma(m + 1.0)
        except OverflowError:
            return False

    lo, hi = 1.0, max(4.0, 4.0 * math.exp(1.0 + log_x))
    if crosses(hi):
        return math.inf
    while hi - lo > max(1.0, 1e-9 * hi):
        mid = 0.5 * (lo + hi)
        if crosses(mid):
            lo = mid
        else:
            hi = mid
    return float(math.ceil(hi))


@dataclass(frozen=True)
class PicardResult:
    trajectory: Trajectory
    iterations: int
    defect: float
    increments: list[float] = field(repr=False)
    apriori_contraction_m: float = math.nan


def picard_solve(instance: FvpInstance, cfg: SolverConfig, data: SpectralField,
                 initial: Trajectory | None = None) -> PicardResult:
    """Iterate the fixed-point map to convergence.

    Starts from v_0(t) = G_N(tau - t) data (the map's leading term) unless
    `initial` is given.  Stops when the sup-norm increment falls below
    picard_tol * (1 + ||v||); raises NonConvergenceError with the increment
    history when max_iters is exhausted.

    The iterates are the (N, n+1) mode-major rows of the retained modes;
    the result is transposed and padded to the model's mode count once, at
    the end.  The first increment from a given `initial` also counts its
    modes above N, which the map drops.  The returned defect is
    fixed_point_defect of the result taken on the retained rows, since the
    modes above N are zero in the result and in its image.  Each grid
    point's squares are summed over the modes in order there, and in
    numpy's vectorised order over the full width in fixed_point_defect, so
    the two may differ in the last bit.
    """
    grid = cfg.grid(instance.tau)
    model = instance.model
    N = cfg.level
    _check_level(cfg, model)
    if initial is not None and initial.grid.n_steps != grid.n_steps:
        raise ValueError("initial trajectory must live on the solver grid")

    lead = _growth_rows(model.lambdas[:N], instance.tau - grid.points, data.coeffs[:N])
    if initial is None:
        v = lead
        dropped = None
    else:
        v = initial.states[:, :N].T.copy()
        dropped = initial.states[:, N:]

    increments: list[float] = []
    converged = False
    its = 0
    for its in range(1, cfg.max_iters + 1):
        image = _map_retained(v, instance, cfg, lead, grid)
        step = (v - image).T
        if dropped is not None:
            step = np.hstack((step, dropped))
            dropped = None
        inc = sup_row_norm(step)
        increments.append(inc)
        v = image
        if inc <= cfg.picard_tol * (1.0 + sup_row_norm(v.T)):
            converged = True
            break

    defect = sup_row_norm((v - _map_retained(v, instance, cfg, lead, grid)).T)
    if not converged:
        raise NonConvergenceError(
            f"no convergence after {cfg.max_iters} iterations "
            f"(last increment {increments[-1]:.3e})",
            increments=increments, defect=defect)
    m_star = apriori_contraction_iteration(instance.source.kappa,
                                           model.lambdas[N - 1], instance.tau)
    return PicardResult(trajectory=_padded(grid, model, v), iterations=its, defect=defect,
                        increments=increments, apriori_contraction_m=m_star)
