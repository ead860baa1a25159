"""Input checks that no other test reaches, one parametrized test per module.

Each case asserts the exception type and that its message names the
offending field.
"""

import math
import re

import numpy as np
import pytest

from fvptrunc import (BoundInputs, ChoiceInputs, ConfigError, EigenModel, ExperimentConfig,
                      FvpInstance, GevreyParams, ReferenceSolution, SolverConfig, SourceFunction,
                      SpectralField, TimeGrid, Trajectory, UnsupportedRegimeError,
                      apply_spectral_growth, choose_n_holder, zeta, zeta_inverse)
from fvptrunc.param_choice import HOLDER_RULE, LOG_RULE

PI2 = math.pi ** 2
MODEL = EigenModel.dirichlet_1d(4)
OTHER = EigenModel.dirichlet_1d(3)


def cases(table: dict):
    """Parametrize over {id: (call, exception type, field)}."""
    return pytest.mark.parametrize("call, exc, field", list(table.values()), ids=list(table))


def check(call, exc, field):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is exc
    assert re.search(rf"(?<![\w.]){re.escape(field)}(?![\w])", str(info.value)), str(info.value)


def choice(**over):
    kw = dict(regime=HOLDER_RULE, rho=1.0, delta=1e-6, t=0.0, tau=1.0, d=1,
              e1=PI2, e2=PI2, q=0.5)
    return ChoiceInputs(**{**kw, **over})


@cases({
    "regime": (lambda: choice(regime="ridge"), ValueError, "regime"),
    "delta-zero": (lambda: choice(delta=0.0), ValueError, "delta"),
    "rho-negative": (lambda: choice(rho=-1.0), ValueError, "rho"),
    "t-past-tau": (lambda: choice(t=1.5), ValueError, "t"),
    "t-negative": (lambda: choice(t=-0.1), ValueError, "t"),
    "d-zero": (lambda: choice(d=0), ValueError, "d"),
    "e1-zero": (lambda: choice(e1=0.0), ValueError, "e1"),
    "e2-negative": (lambda: choice(e2=-1.0), ValueError, "e2"),
    "p-negative-log": (lambda: choice(regime=LOG_RULE, p=-1.0, q=0.0), ValueError, "p"),
    "q-negative-holder": (lambda: choice(q=-1.0), ValueError, "q"),
    "holder-on-log-inputs": (lambda: choose_n_holder(choice(regime=LOG_RULE, p=1.0, q=0.0)),
                             ValueError, "regime"),
    "zeta-s-zero": (lambda: zeta(0.0, 1.0, 1.0, 1.0), ValueError, "s"),
    "zeta-s-one": (lambda: zeta(1.0, 1.0, 1.0, 1.0), ValueError, "s"),
    "zeta-inverse-a-one": (lambda: zeta_inverse(0.1, 1.0, 1.0, 1.0, a=1.0), ValueError, "a"),
    "zeta-inverse-a-zero": (lambda: zeta_inverse(0.1, 1.0, 1.0, 1.0, a=0.0), ValueError, "a"),
})
def test_param_choice(call, exc, field):
    check(call, exc, field)


def bound(**over):
    kw = dict(model=MODEL, level=1, t=0.0, tau=1.0, delta=1e-6, rho=1.0, kappa=1.0,
              regime="gevrey_q", q=0.5)
    return BoundInputs(**{**kw, **over})


@cases({
    "regime": (lambda: bound(regime="gevrey_r"), UnsupportedRegimeError, "regime"),
    "level-zero": (lambda: bound(level=0), ValueError, "level"),
    "level-past-modes": (lambda: bound(level=5), ValueError, "level"),
    "t-past-tau": (lambda: bound(t=2.0), ValueError, "t"),
    "t-negative": (lambda: bound(t=-0.5), ValueError, "t"),
})
def test_bounds(call, exc, field):
    check(call, exc, field)


@cases({
    "level-zero": (lambda: SolverConfig(level=0, n_steps=8), ValueError, "level"),
    "n_steps-zero": (lambda: SolverConfig(level=1, n_steps=0), ValueError, "n_steps"),
    "max_iters-zero": (lambda: SolverConfig(level=1, n_steps=8, max_iters=0), ValueError,
                       "max_iters"),
    "growth-level-zero": (lambda: apply_spectral_growth(0.0, SpectralField.basis(MODEL, 1), 0),
                          ValueError, "level"),
    "growth-level-past-modes": (
        lambda: apply_spectral_growth(0.0, SpectralField.basis(MODEL, 1), 5), ValueError,
        "level"),
})
def test_solver(call, exc, field):
    check(call, exc, field)


@cases({
    "dimension-zero": (lambda: EigenModel(0, np.array([PI2]), PI2, PI2), ValueError,
                       "dimension"),
    "lambdas-empty": (lambda: EigenModel(1, np.array([]), PI2, PI2), ValueError, "lambdas"),
    "e1-zero": (lambda: EigenModel(1, np.array([PI2]), 0.0, PI2), ValueError, "e1"),
    "e2-negative": (lambda: EigenModel(1, np.array([PI2]), PI2, -1.0), ValueError, "e2"),
    "gevrey-p-negative": (lambda: GevreyParams(-1.0, 0.0), ValueError, "p"),
    "gevrey-q-negative": (lambda: GevreyParams(0.0, -1.0), ValueError, "q"),
    "coeffs-length": (lambda: SpectralField(MODEL, np.zeros(3)), ValueError, "coeffs"),
    "basis-index-zero": (lambda: SpectralField.basis(MODEL, 0), IndexError, "mode index"),
    "basis-index-past-modes": (lambda: SpectralField.basis(MODEL, 5), IndexError,
                               "mode index"),
})
def test_spectral(call, exc, field):
    check(call, exc, field)


def trajectory(n_steps: int) -> Trajectory:
    return Trajectory.zero(TimeGrid(1.0, n_steps), MODEL)


@cases({
    "n_steps-zero": (lambda: TimeGrid(1.0, 0), ValueError, "n_steps"),
    "grids-not-nested": (lambda: trajectory(64).sup_distance(trajectory(24)), ValueError,
                         "grids"),
})
def test_grids(call, exc, field):
    check(call, exc, field)


@cases({
    "no-data": (lambda: FvpInstance(MODEL, 1.0, SourceFunction.zero()), ValueError,
                "final_data"),
    "final-data-other-model": (
        lambda: FvpInstance(MODEL, 1.0, SourceFunction.zero(),
                            final_data=SpectralField.zero(OTHER)), ValueError, "final_data"),
    "noisy-data-other-model": (
        lambda: FvpInstance(MODEL, 1.0, SourceFunction.zero(),
                            final_data=SpectralField.zero(MODEL),
                            noisy_data=SpectralField.zero(OTHER)), ValueError, "noisy_data"),
})
def test_problem(call, exc, field):
    check(call, exc, field)


@cases({
    "provenance": (lambda: ReferenceSolution(trajectory(8), SpectralField.zero(MODEL), "guess"),
                   ValueError, "provenance"),
    "state-at-tau": (lambda: ReferenceSolution(trajectory(8), SpectralField.basis(MODEL, 1),
                                               "closed_form"), ValueError, "final_data"),
})
def test_reference(call, exc, field):
    check(call, exc, field)


def parsed(**over):
    doc = {
        "instance": {"tau": 0.25, "mode_count": 4, "source": {"kind": "sin"},
                     "reference": {"kind": "self_convergent", "data": [[1, 0.2]]}},
        "noise": {"deltas": [1e-4, 1e-6]},
        "solver": {"n_steps": 64},
        "choice": {"regime": "holder_rule", "q": 0.5},
        "eval_times": [0.0],
    }
    for path, value in over.items():
        *outer, last = path.split(".")
        holder = doc
        for key in outer:
            holder = holder[key]
        holder[last] = value
    return lambda: ExperimentConfig.from_dict(doc)


@cases({
    "data-entry-not-a-pair": (parsed(**{"instance.reference.data": [[1, 0.2, 3.0]]}),
                              ConfigError, "instance.reference data"),
    "data-entry-a-number": (parsed(**{"instance.reference.data": [0.2]}), ConfigError,
                            "instance.reference data"),
    "section-a-list": (parsed(noise=[1e-4]), ConfigError, "noise"),
    "subsection-a-string": (parsed(**{"instance.source": "sin"}), ConfigError,
                            "instance.source"),
})
def test_harness_config_reader(call, exc, field):
    check(call, exc, field)
