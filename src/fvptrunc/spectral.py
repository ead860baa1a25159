"""Eigenvalue models, coefficient-space fields and their norms.

States live in L2(0,1) and are represented by their coefficients against
the Dirichlet eigenbasis of -d2/dx2, phi_j(x) = sqrt(2) sin(j pi x) with
eigenvalues lambda_j = j^2 pi^2.  Abstract eigenvalue sequences (d >= 1)
are supported too.  Everything here works on coefficients; nothing
evaluates a field at points of the domain.

The package's two value policies live here too.  Output: `checked` holds
the one overflow test, a value is out of range exactly when it is not a
finite double, and there is no exponent cap.  Input: `require_finite`,
`require_int`, `require_mode` and `require_time` are the one check of a
scalar argument, a finite real in its range or an int count or mode
index (never a bool), and `require_times` the array form of
`require_time`.  Each refusal reads `<name> must be ..., got <value>` and
is a `ConfigError`, whether the value came from a config key, a CLI
option or a library argument; only `require_mode` raises IndexError, for
an int mode index out of range.  `require_buildable` refuses a size that
numpy cannot allocate, `<name> is too large to build: ...`, also a
`ConfigError`.  `require_same_model` is the one test that a field lives
over a given eigenvalue model; it raises ValueError naming the field.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ExponentOverflowError


#: the sign rules of `require_finite`, by the words its refusal uses
_SIGNS = {"positive": lambda x: x > 0.0, ">= 0": lambda x: x >= 0.0, None: lambda x: True}
# concrete types rather than the `numbers` ABCs, whose isinstance costs
# several times more on the per-solve checks
_INTS = (int, np.integer)
_REALS = (float, np.floating) + _INTS


def require_finite(name: str, value, sign: str | None = None):
    """`value` if it is a finite real (a numpy number too, never a bool) of
    the given sign, "positive", ">= 0" or None for any, else ConfigError
    naming `name`."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, _REALS)
              and math.isfinite(value) and _SIGNS[sign](value))
    except OverflowError:    # an int past the double range
        ok = False
    if not ok:
        rule = "finite" if sign is None else f"finite and {sign}"
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
    return value


def _require_int_type(name: str, value) -> None:
    # a float indexes nothing and a bool is no count
    if isinstance(value, bool) or not isinstance(value, _INTS):
        raise ConfigError(f"{name} must be an int, got {value!r}")


def require_int(name: str, value, low: int = 1, high: float | None = None):
    """`value` if it is an int (a numpy integer too, never a bool) in
    low..high (no upper limit for None), else ConfigError naming `name`."""
    _require_int_type(name, value)
    if value < low or (high is not None and value > high):
        rule = f">= {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"{name} must be an int {rule}, got {value!r}")
    return value


def require_buildable(name: str, build):
    """build(), or a ConfigError `<name> is too large to build: ...` when
    numpy cannot allocate an array of the size the input `name` asks for.
    A refusal from a nested call is raised again under `name`, with
    numpy's message alone."""
    try:
        return build()
    except (MemoryError, ValueError) as exc:    # "Maximum allowed size exceeded"
        reason = exc.__cause__ or exc  # numpy's refusal, under a nested one too
        raise ConfigError(f"{name} is too large to build: {reason}") from reason


def require_mode(j, mode_count: int):
    """`j` if it is a 1-based mode index in 1..mode_count: ConfigError for a
    non-int, IndexError for an int out of range."""
    _require_int_type("mode index", j)
    if not 1 <= j <= mode_count:
        raise IndexError(f"mode index {j} out of range 1..{mode_count}")
    return j


def require_time(t, tau: float):
    """`t` if it is finite and 0 <= t <= tau, else ConfigError naming t."""
    require_finite("t", t)
    if not 0.0 <= t <= tau:
        raise ConfigError(f"t must lie in [0, tau = {tau!r}], got {t!r}")
    return t


def require_times(t, tau: float) -> np.ndarray:
    """`t`, a real scalar or array, as a float array if tau is finite and
    positive and every entry of t lies in [0, tau] (so is finite), else
    ConfigError naming tau or t."""
    require_finite("tau", tau, "positive")
    ts = np.asarray(t)
    if ts.dtype.kind not in "iuf" or not np.all((ts >= 0.0) & (ts <= tau)):    # NaN included
        raise ConfigError(f"t must lie in [0, tau = {tau!r}], got {t!r}")
    return ts.astype(float, copy=False)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class EigenModel:
    """Eigenvalue sequence of the Dirichlet Laplacian on a d-dimensional domain.

    lambdas[j-1] holds lambda_j.  e1, e2 are the two-sided growth constants:
    e1 * j**(2/d) <= lambda_j <= e2 * j**(2/d) for every stored j.
    """

    dimension: int
    lambdas: np.ndarray
    e1: float
    e2: float

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _readonly(self.lambdas))
        # the growth check below divides by dimension as a double
        require_int("dimension", self.dimension, high=sys.float_info.max)
        require_finite("e1", self.e1, "positive")
        require_finite("e2", self.e2, "positive")
        lam = self.lambdas
        if lam.ndim != 1 or lam.size < 1:
            raise ValueError("lambdas must be a non-empty 1D sequence")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if lam[0] <= 0.0:
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be non-decreasing")
        j = np.arange(1, lam.size + 1, dtype=float)
        pw = j ** (2.0 / self.dimension)
        # tiny relative slack so exact models (lambda_j = e * j^{2/d}) pass
        tol = 1e-12 * np.maximum(lam, 1.0)
        if np.any(lam < self.e1 * pw - tol) or np.any(lam > self.e2 * pw + tol):
            raise ValueError("eigenvalue growth bounds e1 j^{2/d} <= lambda_j <= e2 j^{2/d} violated")

    @property
    def mode_count(self) -> int:
        return int(self.lambdas.size)

    def eigenvalue(self, j: int) -> float:
        """lambda_j for 1-based mode index j."""
        return float(self.lambdas[require_mode(j, self.mode_count) - 1])

    @staticmethod
    def dirichlet_1d(mode_count: int = 64) -> "EigenModel":
        """The built-in model on (0,1): lambda_j = j^2 pi^2, e1 = e2 = pi^2."""
        require_int("mode_count", mode_count)
        j = require_buildable("mode_count", lambda: np.arange(1, mode_count + 1, dtype=float))
        return EigenModel(dimension=1, lambdas=j ** 2 * math.pi ** 2,
                          e1=math.pi ** 2, e2=math.pi ** 2)


def require_same_model(name: str, model: EigenModel, expected: EigenModel):
    """ValueError naming `name` unless `model` is `expected`, or has its
    dimension and eigenvalues: the one test that two models agree."""
    if model is not expected and not (model.dimension == expected.dimension
                                      and np.array_equal(model.lambdas, expected.lambdas)):
        raise ValueError(f"{name} lives over another eigenvalue model")


@dataclass(frozen=True)
class GevreyParams:
    """Weights of the smoothness norm sum lambda^{2p} e^{2q lambda} |c_j|^2."""

    p: float
    q: float

    def __post_init__(self):
        # an inf weight leaves the double range
        require_finite("p", self.p, ">= 0")
        require_finite("q", self.q, ">= 0")


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A finite eigen-expansion: coeffs[j-1] = <psi, phi_j>."""

    model: EigenModel
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _readonly(self.coeffs))
        if self.coeffs.shape != (self.model.mode_count,):
            raise ValueError("coeffs length must equal the model mode count")

    @staticmethod
    def zero(model: EigenModel) -> "SpectralField":
        return SpectralField(model, np.zeros(model.mode_count))

    @staticmethod
    def basis(model: EigenModel, j: int) -> "SpectralField":
        """The eigenfunction phi_j as a field (1-based index)."""
        return SpectralField.from_coeffs(model, ((j, 1.0),))

    @staticmethod
    def from_coeffs(model: EigenModel, pairs) -> "SpectralField":
        """Build from an iterable of (1-based mode, coefficient) pairs, each
        mode at most once."""
        c = np.zeros(model.mode_count)
        seen = set()
        for j, val in pairs:
            require_mode(j, model.mode_count)
            if j in seen:
                raise ValueError(f"mode {j} is given twice")
            seen.add(j)
            c[j - 1] = val
        return SpectralField(model, c)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        require_same_model("right operand", other.model, self.model)
        return SpectralField(self.model, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        require_same_model("right operand", other.model, self.model)
        return SpectralField(self.model, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.model, self.coeffs * float(scalar))

    __rmul__ = __mul__


# Row norms inside this range take the unscaled path (see scaled_norm_rows).
FAST_NORM_MIN = 1e-140
FAST_NORM_MAX = 1e140


def scaled_norm_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norms, safe for entries near the double range.

    Fast path: sqrt of the plain row sum of squares.  A result inside
    [FAST_NORM_MIN, FAST_NORM_MAX] is kept as it is: no square in such a
    row can overflow, and squares that underflow are below 1e-308 against
    a sum of at least 1e-280, so they change the norm by less than 1e-27
    relative.  Every other row (zero, inf, NaN, or a sum of squares that
    overflowed or underflowed: backward-grown modes legitimately pass
    1e154) is recomputed scaled by its row maximum, adding the squares
    column by column (in mode order for a trajectory's points), so zero
    columns add exactly +0.0 and padding a row with zeros keeps its bits.
    """
    a = np.atleast_2d(a)
    out = np.sqrt(np.einsum("ij,ij->i", a, a))
    slow = ~((out >= FAST_NORM_MIN) & (out <= FAST_NORM_MAX))
    if np.any(slow):
        b = a[slow]
        row_max = np.max(np.abs(b), axis=1)
        safe = np.where(row_max > 0.0, row_max, 1.0)
        acc = np.zeros(b.shape[0])
        for col in b.T:
            x = col / safe
            acc += x * x
        out[slow] = row_max * np.sqrt(acc)
    return out


def sup_over_time(rows: np.ndarray) -> float:
    """max over grid points of the L2 norm of mode-major rows, shape
    (modes, points): scaled_norm_rows(rows.T).max() bit for bit, in one
    pass where it can.

    Many rows: sqrt is monotone and correctly rounded, so the sqrt of the
    largest sum of squares over a point is the largest plain point norm.
    If that lies in the fast range, scaled_norm_rows keeps it unchanged,
    and no point is inf, NaN or overflowed (it would be the largest).  A
    point below the range is recomputed there with scaling: its plain norm
    is under FAST_NORM_MIN and its scaled one within a few ulps of that, so
    the doubled lower limit keeps it under the maximum.  The points' squares
    add in mode order, so zero rows keep the bits.

    One row (the Picard stop test of a solve with one live mode): the norm
    at each point is |x|, and the largest square is fl(M^2) for M = max |x|
    (squaring is monotone).  For M in the same range fl(M^2) is a normal
    double, and sqrt(fl(M^2)) == M (a correctly rounded square root undoes
    a correctly rounded square in binary arithmetic), so M is the value;
    one reduction replaces an einsum over a strided transpose.

    Either value is returned when it lies in [2 FAST_NORM_MIN,
    FAST_NORM_MAX]; a NaN fails that test.  Every other input takes
    scaled_norm_rows(rows.T).max().
    """
    if rows.shape[0] == 1:
        top = float(np.abs(rows).max())
    else:
        a = rows.T
        top = math.sqrt(np.einsum("ij,ij->i", a, a).max())
    if 2.0 * FAST_NORM_MIN <= top <= FAST_NORM_MAX:
        return top
    return float(scaled_norm_rows(rows.T).max())


def l2_norm(psi: SpectralField) -> float:
    """Parseval norm sqrt(sum c_j^2)."""
    return float(scaled_norm_rows(psi.coeffs)[0])


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum_j e^{a_ij} for every row of the 2-D array `a`.

    The steps of SciPy 1.17's `special.logsumexp(a, axis=1)` for real
    input, so the bits are the same: with M the row maximum and m the
    number of entries equal to it, the other entries sum to
    s = sum e^{a_ij - M}, and the result is log1p(s / m) + log(m) + M.  A
    row for which that is not finite (a NaN, a +inf or every entry -inf)
    is evaluated directly as log(sum e^{a_ij}), which yields the NaN, +inf
    or -inf the row calls for.  A row of width 0 gives -inf.  Callers run
    it with numpy's warnings off, as those steps raise them on such rows.

    A single row (every `gevrey_norm` call) takes the same ufuncs on the
    row and then on numpy scalars, in the same order, leaving out only the
    2-D bookkeeping (keepdims, boolean row masks).  The row's reductions
    are those of a one-row axis-1 reduction, and the scalar steps work on
    single elements as the row-wise steps do on a one-row input's (1, 1)
    arrays, so it gives the bits of the row-wise steps called on that one
    row (`tests/test_fast_paths.py` holds it to a copy of them).  Many rows
    (the certified rho) take the row-wise steps.
    """
    if a.shape[1] == 0:
        return np.full(a.shape[0], -np.inf)
    if a.shape[0] == 1:
        row = a[0]
        top = row.max()
        ties = row == top
        m = np.float64(np.count_nonzero(ties))
        s = np.exp(np.where(ties, -np.inf, row) - top).sum()
        out = np.log1p(s / m) + np.log(m) + top
        if not math.isfinite(out):
            out = np.log(np.exp(row).sum())
        return np.array([out])
    top = np.max(a, axis=1, keepdims=True)
    ties = a == top
    m = np.sum(ties, axis=1, keepdims=True, dtype=float)
    s = np.sum(np.exp(np.where(ties, -np.inf, a) - top), axis=1, keepdims=True)
    # s is +0.0 only with m >= 1, so s / m is s there, as SciPy's
    # where(s == 0, s, s / m) keeps it
    out = (np.log1p(s / m) + np.log(m) + top)[:, 0]
    bad = ~np.isfinite(out)
    if np.any(bad):
        out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


@lru_cache(maxsize=64)
def _gevrey_weights(lambdas: bytes, gp: GevreyParams) -> np.ndarray:
    """The read-only log weights
    w_j = log lambda_j^{2p} e^{2q lambda_j} = 2p log(lambda_j) + 2q lambda_j
    of the float64 eigenvalues whose bytes are `lambdas`."""
    lam = np.frombuffer(lambdas)
    with np.errstate(all="ignore"):  # an overflowing weight is inf, masked by the caller
        return _readonly(2.0 * gp.p * np.log(lam) + 2.0 * gp.q * lam)


def gevrey_log_norms(lambdas: np.ndarray, coeffs: np.ndarray, gp: GevreyParams) -> np.ndarray:
    """Row-wise log Gevrey norms 0.5 log sum_j lambda_j^{2p} e^{2q lambda_j} c_ij^2.

    `coeffs` holds one coefficient vector per row against `lambdas`.  One
    log-sum-exp over the mode axis, so terms far outside the double range
    do no harm.  Zero coefficients never contribute, however large their
    weight would be; a row with none but zeros gives -inf.  The weights
    are cached per (eigenvalues, parameters), since a rho taken as the
    largest `gevrey_norm` over a trajectory's grid points reads the same
    weights at every point.
    """
    w = _gevrey_weights(np.ascontiguousarray(lambdas, dtype=float).tobytes(), gp)
    c = coeffs[None] if coeffs.ndim == 1 else coeffs
    # one errstate for both steps, as the log-sum-exp warns on non-finite rows
    with np.errstate(all="ignore"):
        log_terms = np.where(c != 0.0, w + 2.0 * np.log(np.abs(c)), -np.inf)
        return 0.5 * _row_logsumexp(log_terms)


def checked(value, message: str, *args):
    """`value` if it is a finite double (every entry, for an array), else
    ExponentOverflowError(message % args).

    The package's one overflow test: a quantity is out of range exactly
    when it is not finite.  Callers compute `value` with numpy's over and
    invalid warnings off (and `exp_or_inf` in place of `math.exp`), so an
    overflow anywhere on the way shows up as inf or NaN in the value
    itself.  The message is formatted only when it is raised.
    """
    ok = math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()
    if not ok:
        raise ExponentOverflowError(message % args)
    return value


def exp_or_inf(x: float) -> float:
    """math.exp(x), with inf where math.exp raises OverflowError (as numpy's
    exp gives inf), for `checked` to reject."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exp_checked(log_value: float, what: str) -> float:
    """exp(log_value); ExponentOverflowError naming `what` past the double range."""
    return checked(exp_or_inf(log_value), "%s exceeds the floating range (log value = %.6g)",
                   what, log_value)


def gevrey_norm(psi: SpectralField, gp: GevreyParams) -> float:
    """Weighted norm sqrt(sum lambda_j^{2p} e^{2q lambda_j} c_j^2).

    Raises ExponentOverflowError when the result itself exceeds the double
    range (the sum is accumulated in log space, so intermediate terms may
    exceed it without harm).  Zero coefficients never contribute, however
    large their weight would be.
    """
    return exp_checked(float(gevrey_log_norms(psi.model.lambdas, psi.coeffs, gp)[0]),
                       "Gevrey norm")

