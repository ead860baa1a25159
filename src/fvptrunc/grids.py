"""Uniform time grids and time-indexed spectral trajectories."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .spectral import (FAST_NORM_MAX, FAST_NORM_MIN, EigenModel, SpectralField, _readonly,
                       scaled_norm_rows, sup_row_norm)


def require_int(name: str, value) -> None:
    """ValueError naming `name` unless `value` is an int: a float slices
    nothing and a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i tau / n_steps, i = 0..n_steps."""

    tau: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        require_int("n_steps", self.n_steps)
        if self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")
        pts = np.linspace(0.0, self.tau, self.n_steps + 1)
        object.__setattr__(self, "_points", _readonly(pts))

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def h(self) -> float:
        return self.tau / self.n_steps

    def index_of(self, t: float) -> int:
        """Grid index of t; t must be a grid point (up to rounding)."""
        i = int(round(t / self.h))
        if not 0 <= i <= self.n_steps or abs(self.points[i] - t) > 1e-9 * max(self.tau, 1.0):
            raise ValueError(f"t = {t} is not a grid point of {self}")
        return i


def sup_over_time(rows: np.ndarray) -> float:
    """max over grid points of the L2 norm of mode-major rows; in the unscaled
    range a point's squares add in mode order, so zero rows keep the bits.

    A single row (the Picard stop test of a solve with one live mode) has
    the norm |x| at each point, and its largest, max |x|, is returned when
    it lies in [2 FAST_NORM_MIN, FAST_NORM_MAX].  That is
    sup_row_norm(rows.T) = sqrt(max fl(x^2)) bit for bit: squaring is
    monotone, so the largest square is fl(M^2) for M = max |x|, which is a
    normal double for M in that range, and then sqrt(fl(M^2)) == M (a
    correctly rounded square root undoes a correctly rounded square in
    binary arithmetic).  A NaN fails the range test.  Every other input
    takes sup_row_norm.  One reduction replaces an einsum over a strided
    transpose.
    """
    if rows.shape[0] == 1:
        top = float(np.abs(rows).max())
        if 2.0 * FAST_NORM_MIN <= top <= FAST_NORM_MAX:
            return top
    return sup_row_norm(rows.T)


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

    @staticmethod
    def zero(grid: TimeGrid, model: EigenModel) -> "Trajectory":
        return Trajectory(grid, model, np.zeros((model.mode_count, grid.n_steps + 1)))

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
        if abs(self.grid.tau - other.grid.tau) > 1e-12 * max(self.grid.tau, 1.0):
            raise ValueError("trajectories live on different time intervals")
        if self.grid.n_steps == other.grid.n_steps:
            d = self.states - other.states
        else:
            fine, coarse = (self, other) if self.grid.n_steps > other.grid.n_steps else (other, self)
            r, rem = divmod(fine.grid.n_steps, coarse.grid.n_steps)
            if rem != 0:
                raise ValueError("grids are not nested; cannot compare trajectories")
            d = fine.states[:, ::r] - coarse.states
        return sup_over_time(d)
