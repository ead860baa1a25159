"""Uniform time grids and time-indexed spectral trajectories."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (EigenModel, SpectralField, _readonly, require_buildable, require_finite,
                       require_int, require_time, scaled_norm_rows, sup_over_time)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i tau / n_steps, i = 0..n_steps."""

    tau: float
    n_steps: int

    def __post_init__(self):
        require_finite("tau", self.tau, "positive")
        require_int("n_steps", self.n_steps)
        pts = require_buildable("n_steps", lambda: np.linspace(0.0, self.tau, self.n_steps + 1))
        object.__setattr__(self, "_points", _readonly(pts))

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def h(self) -> float:
        return self.tau / self.n_steps

    def spans(self, tau: float) -> bool:
        """Whether the grid spans [0, tau], up to rounding (1e-12 max(tau, 1))."""
        return abs(self.tau - tau) <= 1e-12 * max(tau, 1.0)

    def index_of(self, t: float) -> int:
        """Grid index of t; t must lie in [0, tau] and be a grid point (up to
        rounding, 1e-9 max(tau, 1))."""
        i = int(round(require_time(t, self.tau) / self.h))
        if abs(self.points[i] - t) > 1e-9 * max(self.tau, 1.0):
            raise ValueError(f"t = {t} is not a grid point of {self}")
        return i


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One SpectralField per grid point.

    Stored mode-major, shape (mode_count, n_steps + 1): states[j-1, i] is
    the coefficient of mode j at t_i, so each mode's time series is one
    contiguous row.
    """

    grid: TimeGrid
    model: EigenModel
    states: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "states", _readonly(self.states))
        expected = (self.model.mode_count, self.grid.n_steps + 1)
        if self.states.shape != expected:
            raise ValueError(f"states must have shape (mode_count, n_steps + 1) = {expected}, "
                             f"got {self.states.shape}")

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.model, self.states[:, i])

    def norms(self) -> np.ndarray:
        """Per-grid-point L2 norms (overflow-safe)."""
        return scaled_norm_rows(self.states.T)

    def sup_norm(self) -> float:
        """max over grid points of the L2 norm (the C([0,tau]; L2) norm)."""
        return sup_over_time(self.states)

    def sup_distance(self, other: "Trajectory") -> float:
        """Sup-over-time L2 distance; grids must span one interval and nest."""
        if not other.grid.spans(self.grid.tau):
            raise ValueError("trajectories live on different time intervals")
        fine, coarse = (self, other) if self.grid.n_steps >= other.grid.n_steps else (other, self)
        r, rem = divmod(fine.grid.n_steps, coarse.grid.n_steps)
        if rem != 0:
            raise ValueError("grids are not nested; cannot compare trajectories")
        return sup_over_time(fine.states[:, ::r] - coarse.states)
