"""Input checks that no other test reaches, one parametrized test per module,
and one property test of the input policy over every scalar field.

Each case asserts the exception type and that its message names the
offending field.
"""

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvptrunc import (BoundInputs, ConfigError, EigenModel, ExperimentConfig,
                      FvpInstance, GevreyParams, SolverConfig, SourceFunction,
                      SpectralField, TimeGrid, Trajectory, add_noise, choose_level,
                      closed_form_solution, fit_rate, fixed_point_defect, illposed_pair,
                      mode_coefficient, mode_roots, picard_solve)
from oracle import (apply_spectral_growth, gronwall_bound, gronwall_comparison_solution, zeta,
                    zeta_inverse)

PI2 = math.pi ** 2
MODEL = EigenModel.dirichlet_1d(4)
OTHER = EigenModel.dirichlet_1d(3)
MODEL8 = EigenModel.dirichlet_1d(8)
# as many modes as MODEL8 and MODEL, other eigenvalues
SCALED8 = EigenModel(1, 4.0 * MODEL8.lambdas, 4.0 * PI2, 4.0 * PI2)
SCALED4 = EigenModel(1, 4.0 * MODEL.lambdas, 4.0 * PI2, 4.0 * PI2)
#: a size numpy refuses to allocate (728 TiB of doubles), before it touches memory
HUGE = 10 ** 14


def cases(table: dict):
    """Parametrize over {id: (call, exception type, field)}."""
    return pytest.mark.parametrize("call, exc, field", list(table.values()), ids=list(table))


def check(call, exc, field):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is exc
    assert re.search(rf"(?<![\w.]){re.escape(field)}(?![\w])", str(info.value)), str(info.value)


def choice(**over):
    kw = dict(rho=1.0, delta=1e-6, t=0.0, tau=1.0, d=1,
              e1=PI2, e2=PI2, q=0.5)
    return choose_level(**{**kw, **over})


@cases({
    "delta-zero": (lambda: choice(delta=0.0), ConfigError, "delta"),
    "rho-negative": (lambda: choice(rho=-1.0), ConfigError, "rho"),
    "t-past-tau": (lambda: choice(t=1.5), ConfigError, "t"),
    "t-negative": (lambda: choice(t=-0.1), ConfigError, "t"),
    "d-zero": (lambda: choice(d=0), ConfigError, "d"),
    "d-not-an-int": (lambda: choice(d=1.5), ConfigError, "d"),
    "e1-zero": (lambda: choice(e1=0.0), ConfigError, "e1"),
    "e2-negative": (lambda: choice(e2=-1.0), ConfigError, "e2"),
    "p-negative-log": (lambda: choice(p=-1.0, q=0.0), ConfigError, "p"),
    "q-negative-holder": (lambda: choice(q=-1.0), ConfigError, "q"),
    # p selects the log rule and q the holder rule: one refusal names both
    "p-and-q-names-p": (lambda: choice(p=3.0), ConfigError, "p"),
    "p-and-q-names-q": (lambda: choice(p=1.0, q=0.5), ConfigError, "q"),
    "zeta-s-zero": (lambda: zeta(0.0, 1.0, 1.0, 1.0), ConfigError, "s"),
    "zeta-s-one": (lambda: zeta(1.0, 1.0, 1.0, 1.0), ConfigError, "s"),
    "zeta-s-a-string": (lambda: zeta("1", 1.0, 1.0, 1.0), ConfigError, "s"),
    "zeta-inverse-s-a-string": (lambda: zeta_inverse("1", 1.0, 1.0, 1.0), ConfigError, "s"),
    "zeta-inverse-s-400-digits": (lambda: zeta_inverse(10 ** 400, 1.0, 1.0, 1.0), ConfigError,
                                  "s"),
    "zeta-b-nan": (lambda: zeta(0.5, math.nan, 1.0, 1.0), ConfigError, "b"),
    "zeta-dcoef-negative": (lambda: zeta(0.5, 1.0, 0.5, -1.0), ConfigError, "dcoef"),
    "zeta-inverse-dcoef-inf": (lambda: zeta_inverse(0.01, 1.0, 1.0, math.inf), ConfigError,
                               "dcoef"),
})
def test_param_choice(call, exc, field):
    check(call, exc, field)


def bound(**over):
    kw = dict(model=MODEL, level=1, t=0.0, tau=1.0, delta=1e-6, rho=1.0, kappa=1.0,
              regime="gevrey_q", q=0.5)
    return BoundInputs(**{**kw, **over})


@cases({
    "regime": (lambda: bound(regime="gevrey_r"), ConfigError, "regime"),
    "level-zero": (lambda: bound(level=0), ConfigError, "level"),
    "level-past-modes": (lambda: bound(level=5), ConfigError, "level"),
    "level-not-an-int": (lambda: bound(level=1.5), ConfigError, "level"),
    "level-a-bool": (lambda: bound(level=True), ConfigError, "level"),
    "t-past-tau": (lambda: bound(t=2.0), ConfigError, "t"),
    "t-negative": (lambda: bound(t=-0.5), ConfigError, "t"),
    "comparison-n_steps-zero": (lambda: gronwall_comparison_solution(1.0, 1.0, 1.0, n_steps=0),
                                ConfigError, "n_steps"),
    "comparison-n_steps-not-an-int": (
        lambda: gronwall_comparison_solution(1.0, 1.0, 1.0, n_steps=2.5), ConfigError, "n_steps"),
    # sizes numpy refuses to allocate, before it touches memory
    **{f"comparison-n_steps-{name}": (
        lambda n=n: gronwall_comparison_solution(1.0, 1.0, 1.0, n_steps=n), ConfigError,
        "n_steps") for name, n in (("huge", HUGE), ("400-digits", 10 ** 400))},
})
def test_bounds(call, exc, field):
    check(call, exc, field)


def solve_from(model: EigenModel, defect: bool = False):
    """A level-4 solve, or a defect, of an instance over MODEL8 from phi_1 over `model`."""
    inst = FvpInstance(MODEL8, 1.0, SourceFunction.linear(1.0),
                       final_data=SpectralField.basis(MODEL8, 1))
    cfg, data = SolverConfig(level=4, n_steps=64), SpectralField.basis(model, 1)
    if defect:
        zero = Trajectory(TimeGrid(1.0, 64), MODEL8, np.zeros((MODEL8.mode_count, 65)))
        return fixed_point_defect(zero, inst, cfg, data)
    return picard_solve(inst, cfg, data)


def closed_form_defect(model: EigenModel, tau: float = 1.0):
    """The defect of the closed form of phi_1 over MODEL on [0, 1], against an
    instance over `model` on [0, tau] from phi_1 over `model`."""
    ref = closed_form_solution(MODEL, 1, 1.0, 1.0, TimeGrid(1.0, 64))
    return fixed_point_defect(ref.trajectory, FvpInstance(model, tau, SourceFunction.linear(1.0)),
                              SolverConfig(level=1, n_steps=64), SpectralField.basis(model, 1))


@cases({
    "level-zero": (lambda: SolverConfig(level=0, n_steps=8), ConfigError, "level"),
    "n_steps-zero": (lambda: SolverConfig(level=1, n_steps=0), ConfigError, "n_steps"),
    "max_iters-zero": (lambda: SolverConfig(level=1, n_steps=8, max_iters=0), ConfigError,
                       "max_iters"),
    "growth-level-zero": (lambda: apply_spectral_growth(0.0, SpectralField.basis(MODEL, 1), 0),
                          ConfigError, "level"),
    "growth-level-past-modes": (
        lambda: apply_spectral_growth(0.0, SpectralField.basis(MODEL, 1), 5), ConfigError,
        "level"),
    # data over a model the instance does not live over: fewer modes, or
    # as many with other eigenvalues
    "solve-data-fewer-modes": (lambda: solve_from(OTHER), ValueError, "data"),
    "defect-data-fewer-modes": (lambda: solve_from(OTHER, defect=True), ValueError, "data"),
    "solve-data-other-eigenvalues": (lambda: solve_from(SCALED8), ValueError, "data"),
    # a trajectory of another problem: another interval, other eigenvalues,
    # more modes
    "defect-trajectory-other-tau": (lambda: closed_form_defect(MODEL, tau=2.0), ValueError,
                                    "trajectory"),
    "defect-trajectory-other-eigenvalues": (lambda: closed_form_defect(SCALED4), ValueError,
                                            "trajectory"),
    "defect-trajectory-other-mode-count": (lambda: closed_form_defect(MODEL8), ValueError,
                                           "trajectory"),
    "solve-n_steps-unallocatable": (
        lambda: picard_solve(FvpInstance(MODEL, 1.0, SourceFunction.zero()),
                             SolverConfig(level=1, n_steps=HUGE), SpectralField.basis(MODEL, 1)),
        ConfigError, "n_steps"),
})
def test_solver(call, exc, field):
    check(call, exc, field)


@cases({
    "dimension-zero": (lambda: EigenModel(0, np.array([PI2]), PI2, PI2), ConfigError,
                       "dimension"),
    "dimension-not-an-int": (lambda: EigenModel(1.5, np.array([PI2]), PI2, PI2), ConfigError,
                             "dimension"),
    "lambdas-empty": (lambda: EigenModel(1, np.array([]), PI2, PI2), ValueError, "lambdas"),
    "e1-zero": (lambda: EigenModel(1, np.array([PI2]), 0.0, PI2), ConfigError, "e1"),
    "e2-negative": (lambda: EigenModel(1, np.array([PI2]), PI2, -1.0), ConfigError, "e2"),
    "gevrey-p-negative": (lambda: GevreyParams(-1.0, 0.0), ConfigError, "p"),
    "gevrey-q-negative": (lambda: GevreyParams(0.0, -1.0), ConfigError, "q"),
    "coeffs-length": (lambda: SpectralField(MODEL, np.zeros(3)), ValueError, "coeffs"),
    "difference-over-other-eigenvalues": (
        lambda: SpectralField.basis(MODEL8, 1) - SpectralField.basis(SCALED8, 1), ValueError,
        "right operand"),
    "basis-index-zero": (lambda: SpectralField.basis(MODEL, 0), IndexError, "mode index"),
    "basis-index-past-modes": (lambda: SpectralField.basis(MODEL, 5), IndexError,
                               "mode index"),
    **{f"{name}-mode-{j!r}": (lambda call=call, j=j: call(j), ConfigError, "mode index")
       for name, call in (("from-coeffs", lambda j: SpectralField.from_coeffs(MODEL, [(j, 1.0)])),
                          ("eigenvalue", MODEL.eigenvalue),
                          ("basis", lambda j: SpectralField.basis(MODEL, j)))
       for j in (1.5, True)},
    **{f"dirichlet-1d-mode-count-{n!r}": (lambda n=n: EigenModel.dirichlet_1d(n), ConfigError,
                                          "mode_count") for n in (2.5, True, 0, HUGE)},
})
def test_spectral(call, exc, field):
    check(call, exc, field)


def trajectory(n_steps: int) -> Trajectory:
    return Trajectory(TimeGrid(1.0, n_steps), MODEL, np.zeros((MODEL.mode_count, n_steps + 1)))


@cases({
    "n_steps-zero": (lambda: TimeGrid(1.0, 0), ConfigError, "n_steps"),
    "grids-not-nested": (lambda: trajectory(64).sup_distance(trajectory(24)), ValueError,
                         "grids"),
    # sizes numpy cannot allocate: past its maximum array size, and past memory
    "n_steps-past-numpy": (lambda: TimeGrid(1.0, 10 ** 400), ConfigError, "n_steps"),
    "n_steps-unallocatable": (lambda: TimeGrid(1.0, HUGE), ConfigError, "n_steps"),
})
def test_grids(call, exc, field):
    check(call, exc, field)


@cases({
    "final-data-other-model": (
        lambda: FvpInstance(MODEL, 1.0, SourceFunction.zero(),
                            final_data=SpectralField.basis(OTHER, 1)), ValueError, "final_data"),
    "noisy-data-other-model": (
        lambda: FvpInstance(MODEL, 1.0, SourceFunction.zero(),
                            final_data=SpectralField.basis(MODEL, 1),
                            noisy_data=SpectralField.basis(OTHER, 1)), ValueError, "noisy_data"),
    "final-data-other-eigenvalues": (
        lambda: FvpInstance(MODEL8, 1.0, SourceFunction.zero(),
                            final_data=SpectralField.basis(SCALED8, 1)), ValueError, "final_data"),
    "source-c-a-bool": (lambda: SourceFunction("linear", True), ConfigError, "c"),
})
def test_problem(call, exc, field):
    check(call, exc, field)


@cases({
    "closed-form-tau-nan": (lambda: closed_form_solution(MODEL, 1, 1.0, math.nan,
                                                         TimeGrid(1.0, 8)), ConfigError, "tau"),
    "closed-form-c-nan": (lambda: closed_form_solution(MODEL, 1, math.nan, 1.0,
                                                       TimeGrid(1.0, 8)), ConfigError, "c"),
    "mode-roots-lam-nan": (lambda: mode_roots(math.nan, 1.0), ConfigError, "lam"),
    "illposed-tau-nan": (lambda: illposed_pair(MODEL, 1, math.nan), ConfigError, "tau"),
    "illposed-tau-negative": (lambda: illposed_pair(MODEL, 1, -1.0), ConfigError, "tau"),
    "solution-norm-t-past-tau": (lambda: illposed_pair(MODEL, 1, 1.0).solution_norm(2.0),
                                 ConfigError, "t"),
    "lower-bound-t-nan": (lambda: illposed_pair(MODEL, 1, 1.0).lower_bound(math.nan),
                          ConfigError, "t"),
    "lower-bound-t-array-negative": (
        lambda: illposed_pair(MODEL, 1, 1.0).lower_bound(np.array([0.5, -0.5])), ConfigError,
        "t"),
    "mode-coefficient-t-array-past-tau": (
        lambda: mode_coefficient(mode_roots(PI2, 1.0), 1.0, np.array([0.0, 1.5])), ConfigError,
        "t"),
    "mode-coefficient-tau-nan": (lambda: mode_coefficient(mode_roots(PI2, 1.0), math.nan, 0.0),
                                 ConfigError, "tau"),
})
def test_reference(call, exc, field):
    check(call, exc, field)


@cases({
    **{f"add-noise-mode-{j!r}": (
        lambda j=j: add_noise(SpectralField.basis(MODEL, 1), 1e-3, "worst_case_mode", mode=j),
        ConfigError, "mode index") for j in (1.5, True)},
    **{f"add-noise-seed-{seed!r}": (
        lambda seed=seed: add_noise(SpectralField.basis(MODEL, 1), 1e-3, seed=seed),
        ConfigError, "seed") for seed in (None, True, -1, 2.5)},
    "fit-rate-delta-nan": (lambda: fit_rate([(math.nan, 1.0), (1e-2, 0.1), (1e-3, 0.01),
                                             (1e-4, 1e-3)]), ConfigError, "delta"),
})
def test_harness(call, exc, field):
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
    # an integer literal past the double range
    "tau-400-digits": (parsed(**{"instance.tau": 10 ** 400}), ConfigError, "instance.tau"),
    "q-400-digits": (parsed(**{"choice.q": 10 ** 400}), ConfigError, "choice.q"),
})
def test_harness_config_reader(call, exc, field):
    check(call, exc, field)


# --------------------------------------------------------------------------
# the input policy on every scalar field of the public constructors

#: what each constructor is given for the fields a case leaves alone
BUILDERS = {
    TimeGrid: lambda **kw: TimeGrid(**{"tau": 1.0, "n_steps": 8, **kw}),
    FvpInstance: lambda **kw: FvpInstance(**{"model": MODEL, "tau": 1.0,
                                             "source": SourceFunction.zero(),
                                             "final_data": SpectralField.basis(MODEL, 1), **kw}),
    SolverConfig: lambda **kw: SolverConfig(**{"level": 1, "n_steps": 8, **kw}),
    SourceFunction: lambda **kw: SourceFunction(**{"kind": "linear", "c": 1.0, **kw}),
    GevreyParams: lambda **kw: GevreyParams(**{"p": 0.0, "q": 0.5, **kw}),
    EigenModel: lambda **kw: EigenModel(**{"dimension": 1, "lambdas": MODEL.lambdas,
                                           "e1": PI2, "e2": PI2, **kw}),
    BoundInputs: bound,
    choose_level: choice,
    zeta: lambda **kw: zeta(**{"s": 0.5, "b": 1.0, "c": 1.0, "dcoef": 1.0, **kw}),
    zeta_inverse: lambda **kw: zeta_inverse(**{"s": 0.01, "b": 1.0, "c": 1.0, "dcoef": 1.0,
                                               **kw}),
    gronwall_bound: lambda **kw: gronwall_bound(**{"c0": 1.0, "c1": 1.0, "t": 0.0, "tau": 1.0,
                                                   **kw}),
    gronwall_comparison_solution: lambda **kw: gronwall_comparison_solution(
        **{"c0": 1.0, "c1": 1.0, "tau": 1.0, "n_steps": 8, **kw}),
    # (lam - c)^2 > 4 at lam or c = 2.5 too
    mode_roots: lambda **kw: mode_roots(**{"lam": 20.0, "c": 10.0, **kw}),
}
NOT_SCALAR = {"model", "source", "final_data", "noisy_data", "kind", "lambdas", "regime"}
INT_FIELDS = {"n_steps", "level", "max_iters", "dimension", "d", "mode index"}
#: (what, field, call of the value)
SCALAR_CASES = [(what.__name__, name, lambda v, b=build, name=name: b(**{name: v}))
                for what, build in BUILDERS.items() for name in inspect.signature(what).parameters
                if name not in NOT_SCALAR] + [
    ("SpectralField.basis", "mode index", lambda v: SpectralField.basis(MODEL, v)),
    ("EigenModel.eigenvalue", "mode index", MODEL.eigenvalue),
]
BAD_VALUES = [math.nan, math.inf, -math.inf, True, 2.5, "1"]


@st.composite
def bad_scalar_inputs(draw):
    what, name, call = draw(st.sampled_from(SCALAR_CASES))
    # a mode index is also tried just outside 1..mode_count, and a real
    # field, d and dimension (both divided as doubles) with an int past the
    # double range (another int field takes any int)
    extra = ([0, MODEL.mode_count + 1] if name == "mode index"
             else [] if name in INT_FIELDS - {"d", "dimension"} else [10 ** 400])
    return what, name, call, draw(st.sampled_from(BAD_VALUES + extra))


@settings(max_examples=300, deadline=None)
@given(bad_scalar_inputs())
def test_scalar_fields_refuse_bad_values_by_name(case):
    # 2.5 is in range for a real field; every other value is refused, by
    # the field's name, and never by numpy, LAPACK or the range policy (a
    # TypeError or ExponentOverflowError escapes and fails the test)
    what, name, call, value = case
    try:
        call(value)
    except IndexError as exc:
        assert name == "mode index" and isinstance(value, int) and not isinstance(value, bool)
        assert str(exc).startswith(f"mode index {value} out of range")
    except ValueError as exc:
        assert not isinstance(exc, np.linalg.LinAlgError), exc
        assert re.search(rf"(?<![\w.]){re.escape(name)}(?![\w])", str(exc)), (what, str(exc))
    else:
        assert value == 2.5 and name not in INT_FIELDS, (what, name)
