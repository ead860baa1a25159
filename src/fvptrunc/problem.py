"""Problem descriptions: source terms and final-value instances."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import EigenModel, SpectralField


@dataclass(frozen=True)
class SourceFunction:
    """The source F(t, u), applied coefficient-wise in the eigenbasis.

    Supported kinds:
      zero            F = 0,            Lipschitz constant 0
      linear          F = c * u,        Lipschitz constant |c|
      sin             F = sin(u) coefficient-wise, Lipschitz constant 1

    The Picard loop relies on two properties every kind has: F is applied
    coefficient-wise, so mode j of F(u) depends on mode j of u alone, and
    F maps 0 to 0 exactly (to +-0), which is why `c` must be finite.  So a
    mode whose datum is zero has the zero solution, and the loop iterates
    only the retained modes that carry data.  A kind with F(0) != 0, or
    one that couples modes, must carry every retained row instead.
    """

    kind: str
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "sin"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not math.isfinite(self.c):
            raise ValueError(f"source coefficient c must be finite, got {self.c!r}")

    @property
    def kappa(self) -> float:
        """Lipschitz constant in the state argument."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "linear":
            return abs(self.c)
        return 1.0

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """F evaluated on coefficient arrays; shape is preserved.

        Every kind is autonomous, so F does not depend on t.
        """
        if self.kind == "zero":
            return np.zeros_like(coeffs)
        if self.kind == "linear":
            return self.c * coeffs
        return np.sin(coeffs)

    @staticmethod
    def zero() -> "SourceFunction":
        return SourceFunction("zero")

    @staticmethod
    def linear(c: float) -> "SourceFunction":
        return SourceFunction("linear", c=float(c))


@dataclass(frozen=True)
class FvpInstance:
    """A final-value problem: recover u on [0, tau] from data at t = tau.

    `final_data` is the exact final value g; `noisy_data`, when present, is
    a measurement g_delta with ||g_delta - g|| <= delta.
    """

    model: EigenModel
    tau: float
    source: SourceFunction
    final_data: SpectralField | None = None
    noisy_data: SpectralField | None = None
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"final time tau must be finite and positive, got {self.tau!r}")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"noise level delta must be finite and >= 0, got {self.delta!r}")
        if self.final_data is None and self.noisy_data is None:
            raise ValueError("an instance needs final_data and/or noisy_data")
        for name in ("final_data", "noisy_data"):
            f = getattr(self, name)
            if f is not None and f.model.mode_count != self.model.mode_count:
                raise ValueError(f"{name} must live over the instance model")
