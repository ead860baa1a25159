"""The sin source against an ODE solver that shares no code with the package.

The linear source has a closed form; the sin source has none, and the
package's own checks of it compare the scheme with itself on other grids.
Here `oracle.ode_solution` integrates each mode's backward problem with
scipy's DOP853 from the data of the sin-ladder's reference (sin, tau 0.25,
data [[1, 0.2], [2, 1e-4]], level 2; mode 2 grows to 1.5 at t = 0).  Both
`picard_solve` and the self-convergent reference's error estimate are
held to it.
"""

import numpy as np
import pytest

from fvptrunc import (EigenModel, FvpInstance, SolverConfig, SourceFunction, SpectralField,
                      TimeGrid, picard_solve, self_convergent_reference)
from fvptrunc.quadrature import SCHEME_ORDER
from fvptrunc.solver import DEFAULT_PICARD_TOL, DEFAULT_QUADRATURE_ORDER
from fvptrunc.spectral import sup_over_time
from oracle import ODE_RTOL, ode_solution

TAU, LEVEL = 0.25, 2
MODEL = EigenModel.dirichlet_1d(LEVEL)
INSTANCE = FvpInstance(MODEL, TAU, SourceFunction("sin"))
DATA = SpectralField.from_coeffs(MODEL, [(1, 0.2), (2, 1e-4)])
#: 2^p / (2^p - 1): a p-th order solve's error over its distance to the
#: solve on half the step
RICHARDSON = 2.0 ** SCHEME_ORDER[DEFAULT_QUADRATURE_ORDER] / (
    2.0 ** SCHEME_ORDER[DEFAULT_QUADRATURE_ORDER] - 1.0)


def exact(n_steps: int) -> np.ndarray:
    """The oracle's modes on the grid of n_steps, as (LEVEL, n + 1) rows."""
    return ode_solution(MODEL.lambdas, np.sin, TAU, DATA.coeffs, TimeGrid(TAU, n_steps).points)


def solve(n_steps: int) -> np.ndarray:
    return picard_solve(INSTANCE, SolverConfig(level=LEVEL, n_steps=n_steps),
                        DATA).trajectory.states


@pytest.mark.parametrize("n_steps", [16, 64, 256, 1024])
def test_sin_solve_matches_the_ode_oracle(n_steps):
    # lambda_N h runs from 0.62 (n 16) to 0.0096 (n 1024).  The allowance
    # comes from the scheme's order and the stop test, not from the error:
    # - while errors shrink at order p, the error of the n-step solve is
    #   RICHARDSON times its distance to the 2n-step solve; twice that
    #   covers the approach to this range;
    # - each of the two solves stops within about picard_tol (1 + ||v||)
    #   of its discrete fixed point, since the map contracts like x^m / m!;
    # - the oracle is good to about ODE_RTOL ||v||; ten times that.
    # A source 1e-6 off moves the solution by 5.7e-7, above the allowance
    # at n 64, 256 and 1024.
    v, fine = solve(n_steps), solve(2 * n_steps)
    stop = DEFAULT_PICARD_TOL * (1.0 + sup_over_time(v))
    allowance = (2.0 * RICHARDSON * sup_over_time(fine[:, ::2] - v) + 2.0 * stop
                 + 10.0 * ODE_RTOL * sup_over_time(v))
    assert sup_over_time(v - exact(n_steps)) <= allowance


#: estimate over actual error; the Richardson estimate of a sixth-order
#: ladder is asymptotically exact, and between these factors on its way
ESTIMATE_FACTOR = (0.5, 2.0)


@pytest.mark.parametrize("n_steps", [
    64, 128, 256,
    # the ladder 256, 512, 1024 differs by 6e-14 at the last step, the
    # solves' rounding floor; its estimate, that difference over 63, is
    # about 190 times below the actual error
    pytest.param(1024, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 4: the estimate at the rounding floor")),
])
def test_reference_error_estimate_against_the_ode_oracle(n_steps):
    ref = self_convergent_reference(INSTANCE, SolverConfig(level=LEVEL, n_steps=n_steps), DATA)
    actual = sup_over_time(ref.trajectory.states - exact(n_steps))
    low, high = ESTIMATE_FACTOR
    assert low * actual <= ref.error_estimate <= high * actual
