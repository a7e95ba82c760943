"""The G_delta barrier and its inequality ledger."""

import numpy as np
import pytest

from aclab import GDeltaParams, g_delta, g_delta_ledger


def test_params_validation():
    with pytest.raises(ValueError):
        GDeltaParams(delta=0.0)
    with pytest.raises(ValueError):
        GDeltaParams(delta=0.7)
    with pytest.raises(ValueError):
        GDeltaParams(delta=0.1, c0=0.5)


def test_fractional_points_are_refused():
    # np.linspace would raise a TypeError in the ledger
    with pytest.raises(ValueError, match="points must be an integer >= 100"):
        GDeltaParams(delta=0.1, points=100.5)


def test_nan_r_is_refused_by_name():
    # every comparison with NaN is false, so the range test lets it through
    params = GDeltaParams(delta=0.1, points=200)
    with pytest.raises(ValueError, match="r must be finite"):
        g_delta(float("nan"), params)
    with pytest.raises(ValueError, match="r must be finite"):
        g_delta(np.array([0.0, np.nan]), params)


def test_left_endpoint_value_exact():
    params = GDeltaParams(delta=0.01, c0=2.0)
    g, gp, gpp = g_delta(params.r_lo, params)
    assert g == params.delta
    assert gp == params.delta
    assert gpp < 0.0


def test_domain_enforced():
    params = GDeltaParams(delta=0.01, c0=2.0)
    with pytest.raises(ValueError, match="outside"):
        g_delta(3.5, params)


@pytest.mark.parametrize("delta", [0.5, 0.3, 0.1, 0.01])
@pytest.mark.parametrize("c0", [1.0, 2.0, 3.0])
def test_increasing_and_concave(delta, c0):
    params = GDeltaParams(delta=delta, c0=c0, points=5000)
    r = np.linspace(params.r_lo, params.r_hi, 501)
    g, gp, gpp = g_delta(r, params)
    assert np.all(gp > 0.0)
    assert np.all(gpp < 0.0)
    assert np.all(np.diff(g) > 0.0)


@pytest.mark.parametrize("delta", [0.1, 0.01])
def test_ledger_margins(delta):
    led = g_delta_ledger(GDeltaParams(delta=delta, c0=2.0))
    assert led.margin_lower >= -1e-10
    assert led.margin_derivative >= -1e-10
    assert led.margin_concavity >= -1e-10
    assert led.margin_differential >= -1e-10
    # constants the source only asserts to exist: recorded, positive
    assert led.upper_constant >= 1.0
    assert led.cubic_constant > 0.0


@pytest.mark.parametrize("delta", [0.1, 0.01])
def test_ledger_refinement_stable(delta):
    coarse = g_delta_ledger(GDeltaParams(delta=delta, c0=2.0, points=20000))
    fine = g_delta_ledger(GDeltaParams(delta=delta, c0=2.0, points=40000))
    for name in ("margin_lower", "margin_derivative", "margin_concavity",
                 "margin_differential"):
        assert abs(getattr(coarse, name) - getattr(fine, name)) <= 1e-8


def test_cubic_lower_bound_shape():
    # min G'/delta^3 stays positive as delta shrinks (the delta^3 law)
    consts = [g_delta_ledger(GDeltaParams(delta=d, c0=2.0)).cubic_constant
              for d in (0.1, 0.03, 0.01)]
    assert all(c > 0 for c in consts)
