"""Non-finite inputs to the library's entry points: a float argument of a
function that `tests/test_acceptance.py` imports, replaced by nan, inf or
-inf, either raises a ValueError that names the argument or gives a finite
result. numpy's floating-point warnings are errors throughout, so a NaN
cannot pass silently through a cast or a comparison."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aclab import (AnalysisParams, ConstantProfile, GDeltaParams, Grid,
                   LayerSpec,
                   RadialProfile, Scenario, build, build_layer_stack,
                   build_radial_layer, corollary_holder_check,
                   density_ratio_profile, g_delta_ledger, make_state,
                   manufactured_forcing, monotonicity_report,
                   quantization_check, sheet_separation_integral,
                   slab_report, smooth_test_field)
from aclab.measures import eta_lq_norm
from aclab.quantization import Line
from aclab.scenarios import default_lines, default_radii

EPS = 0.2
RADII = np.linspace(0.2, 0.5, 7)


@functools.cache
def _circle():
    """A manufactured circle R = 0.5 at eps = 0.2 on a 41^2 grid, h = eps/4,
    with its scenario."""
    g = Grid(extent=(2.0, 2.0), points=(41, 41), origin=(-1.0, -1.0))
    u = build_radial_layer(g, EPS, (0.0, 0.0), 0.5)
    scenario = Scenario(name="circle-41", grid=g, epsilons=(EPS,),
                        profile=RadialProfile(center=(0.0, 0.0), radius=0.5))
    return make_state(u, manufactured_forcing(u, EPS), EPS), scenario


def _scenario(profile):
    return dataclasses.replace(_circle()[1], profile=profile)


def _radii(x):
    return np.where(np.arange(len(RADII)) == len(RADII) - 1, x, RADII)


def _line(**kw):
    return Line(**{"base": (0.0, 0.0), "direction": (1.0, 0.0), "t_lo": 0.0,
                   "t_hi": 0.8, "samples": 33, **kw})


# case id -> (the argument's name, a finite value of it, a call with x in
# its place)
CASES = {
    "AnalysisParams.q0": (
        "q0", 3.0, lambda st_, x: AnalysisParams(q0=x)),
    "AnalysisParams.grad_threshold": (
        "grad_threshold", 1e-8, lambda st_, x: AnalysisParams(
            grad_threshold=x)),
    "AnalysisParams.tau": (
        "tau", 0.1, lambda st_, x: AnalysisParams(tau=x)),
    "GDeltaParams.delta": (
        "delta", 0.1, lambda st_, x: g_delta_ledger(
            GDeltaParams(delta=x, points=200))),
    "GDeltaParams.c0": (
        "c0", 2.0, lambda st_, x: g_delta_ledger(
            GDeltaParams(0.1, c0=x, points=200))),
    "LayerSpec.positions": (
        "positions", 0.0, lambda st_, x: build_layer_stack(
            st_.grid, 0.15, LayerSpec(positions=(x,), axis=1))),
    "build_layer_stack.epsilon": (
        "epsilon", 0.15, lambda st_, x: build_layer_stack(
            st_.grid, x, LayerSpec(positions=(0.0,), axis=1))),
    "build_radial_layer.radius": (
        "radius", 0.5, lambda st_, x: build_radial_layer(
            st_.grid, EPS, (0.0, 0.0), x)),
    "make_state.epsilon": (
        "epsilon", EPS, lambda st_, x: make_state(st_.u, st_.f, x)),
    "manufactured_forcing.epsilon": (
        "epsilon", EPS, lambda st_, x: manufactured_forcing(st_.u, x)),
    "corollary_holder_check.s": (
        "s", 3.0, lambda st_, x: corollary_holder_check(st_, x, 1.5)),
    "corollary_holder_check.t": (
        "t", 1.5, lambda st_, x: corollary_holder_check(st_, 3.0, x)),
    "density_ratio_profile.center": (
        "center", 0.0, lambda st_, x: density_ratio_profile(
            st_, (x, 0.0), RADII)),
    "density_ratio_profile.radii": (
        "radii", RADII[-1], lambda st_, x: density_ratio_profile(
            st_, (0.0, 0.0), _radii(x))),
    "monotonicity_report.center": (
        "center", 0.0, lambda st_, x: monotonicity_report(
            st_, (0.0, x), RADII)),
    "monotonicity_report.radii": (
        "radii", RADII[-1], lambda st_, x: monotonicity_report(
            st_, (0.0, 0.0), _radii(x))),
    "slab_report.center": (
        "center", 0.0, lambda st_, x: slab_report(
            st_, (x, 0.0), RADII, -0.05, 0.05)),
    "slab_report.radii": (
        "radii", RADII[-1], lambda st_, x: slab_report(
            st_, (0.0, 0.0), _radii(x), -0.05, 0.05)),
    "slab_report.t_lo": (
        "t_lo", -0.05, lambda st_, x: slab_report(
            st_, (0.0, 0.0), RADII, x, 0.05)),
    "slab_report.t_hi": (
        "t_hi", 0.05, lambda st_, x: slab_report(
            st_, (0.0, 0.0), RADII, -0.05, x)),
    "sheet_separation_integral.x": (
        "x", 0.0, lambda st_, x: sheet_separation_integral(
            st_, (x, 0.0), 0.5, 0.2, 0.4)),
    "sheet_separation_integral.t3": (
        "t3", 0.5, lambda st_, x: sheet_separation_integral(
            st_, (0.0, 0.0), x, 0.2, 0.4)),
    "sheet_separation_integral.d": (
        "d", 0.2, lambda st_, x: sheet_separation_integral(
            st_, (0.0, 0.0), 0.5, x, 0.4)),
    "sheet_separation_integral.R": (
        "R", 0.4, lambda st_, x: sheet_separation_integral(
            st_, (0.0, 0.0), 0.5, 0.2, x)),
    "quantization_check.tau": (
        "tau", 0.1, lambda st_, x: quantization_check(
            st_, [_line()], tau=x)),
    "Line.base": (
        "base", 0.0, lambda st_, x: quantization_check(
            st_, [_line(base=(x, 0.0))])),
    "Line.direction": (
        "direction", 0.0, lambda st_, x: quantization_check(
            st_, [_line(direction=(1.0, x))])),
    "Line.t_lo": (
        "t_lo", 0.0, lambda st_, x: quantization_check(
            st_, [_line(t_lo=x)])),
    "Line.t_hi": (
        "t_hi", 0.8, lambda st_, x: quantization_check(
            st_, [_line(t_hi=x)])),
    "eta_lq_norm.q": (
        "q", 2.0, lambda st_, x: eta_lq_norm(
            st_, smooth_test_field(st_.grid, 0), x)),
    "default_radii.eps": (
        "eps", EPS, lambda st_, x: default_radii(
            _circle()[1], x, (0.0, 0.0))),
    "default_radii.center": (
        "center", 0.0, lambda st_, x: default_radii(
            _circle()[1], EPS, (x, 0.0))),
    "default_lines.eps": (
        "eps", EPS, lambda st_, x: default_lines(_circle()[1], x)),
    "RadialProfile.radius": (
        "radius", 0.5, lambda st_, x: build(_scenario(
            RadialProfile(center=(0.0, 0.0), radius=x)))),
    "RadialProfile.center": (
        "center", 0.0, lambda st_, x: build(_scenario(
            RadialProfile(center=(x, 0.0), radius=0.5)))),
    "ConstantProfile.value": (
        "value", 0.5, lambda st_, x: build(_scenario(
            ConstantProfile(value=x)))),
    "build.epsilon": (
        "epsilon", EPS, lambda st_, x: build(dataclasses.replace(
            _circle()[1], epsilons=(x,)))),
}


def _finite(obj) -> bool:
    """Every number in obj (a number, an array, a field, a dataclass or a
    list, tuple or dict of them) is finite."""
    if dataclasses.is_dataclass(obj):
        return all(_finite(getattr(obj, f.name))
                   for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    if hasattr(obj, "values") and isinstance(obj.values, np.ndarray):
        return _finite(obj.values)  # a ScalarField or a VectorField
    if isinstance(obj, (float, int, np.ndarray, np.number)):
        return bool(np.all(np.isfinite(obj)))
    return True  # a name, a flag, a grid


def _call(case, x):
    fn = CASES[case][2]
    # numpy warns of all but underflow by default: those warnings raise
    with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(_circle()[0], x)


@pytest.mark.parametrize("case", CASES)
def test_each_case_runs_on_its_finite_value(case):
    # so that a refusal below is the non-finite value's and not the call's
    assert _finite(_call(case, CASES[case][1]))


@pytest.mark.parametrize("case", CASES)
@settings(deadline=None)
@given(x=st.sampled_from((np.nan, np.inf, -np.inf)))
def test_a_non_finite_argument_is_refused_by_name_or_gives_finite(case, x):
    name = CASES[case][0]
    try:
        result = _call(case, x)
    except ValueError as exc:
        assert name in str(exc), f"{case}({x}): {exc}"
        return
    assert _finite(result), f"{case}({x}) gave {result!r}"
