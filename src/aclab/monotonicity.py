"""Density-ratio profiles and term-by-term residual verification of the
ball monotonicity identity, its slab-weighted variant, and the
sheets-separation integrals.

With n = ambient_dim - 1 and all positions relative to the ball center c,
the ball identity verified here is

    d/dr ( r^-n mu(B_r) ) = - r^-(n+1) xi(B_r)
                            + eps r^-(n+2)  int_{dB_r} <x-c, grad u>^2
                            - r^-(n+1)      int_{B_r}  <x-c, grad u> f.

The slab variant restricts every integral to B_r and the slab
S = {t1 <= x_last <= t2} and adds the two hyperplane terms

    + r^-(n+1) int_{B_r, x_last=t1} S_c  -  r^-(n+1) int_{B_r, x_last=t2} S_c,

where S_c(y) = (y_last - c_last) * mu(y) - eps * d_last u * <y-c, grad u>
is the sheets-separation integrand. The left side is a central difference
over the radius grid, the sphere integral is the radial derivative of a
cumulative ball integral, so the reported residual budgets both the radius
and the spatial discretization.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .fields import (RegionError, _check_ball_margin, _check_finite,
                     _check_supersample, _gradient_box, _plane_stencil,
                     _square_sum, _stream, ball_integrals, disc_integral,
                     inert_slab, radial_derivative)
from .measures import energy_densities
from .phasefield import PhaseFieldState, resolution_floor, under_resolved


@dataclass(frozen=True)
class MonotonicityReport:
    """Per-radius columns of the ball identity plus aggregate residual."""

    radii: np.ndarray
    ratio: np.ndarray
    lhs: np.ndarray
    term_xi: np.ndarray
    term_boundary: np.ndarray
    term_forcing: np.ndarray
    residual: np.ndarray
    scale: float
    aggregate: float


@dataclass(frozen=True)
class SlabReport(MonotonicityReport):
    """Slab-restricted identity columns; plane terms are signed as they
    enter the right-hand side (+ at t1, - at t2)."""

    term_plane_lo: np.ndarray
    term_plane_hi: np.ndarray


def check_geometry(grid, epsilon: float, center, radii, slab=None,
                   min_count: int = 5):
    """The identities' scalar preconditions; returns (center, radii) as
    float arrays. At least `min_count` uniform radii from the resolution
    floor up, t_lo < t_hi, the 2h domain margin of the largest ball clipped
    by the slab, and slab planes on the grid clear of every sphere's pole
    by 2h."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) < min_count:
        raise ValueError(f"need at least {min_count} radii")
    _check_finite(radii=radii)
    dr = np.diff(radii)
    if np.any(dr <= 0) or np.any(np.abs(dr - dr[:1]) > 1e-9 * dr[:1]):
        raise ValueError("radii must be strictly ascending and uniform")
    floor = resolution_floor(grid, epsilon)
    if radii[0] < floor - 1e-12:
        raise ValueError(under_resolved("radius", radii[0],
                                        "radii >= max(4h, eps)", floor))
    if slab is not None:
        _check_finite(t_lo=slab[0], t_hi=slab[1])
        if not slab[0] < slab[1]:
            raise RegionError(f"degenerate slab: t = {slab[0]}, {slab[1]} "
                              "needs t_lo < t_hi")
    c = np.atleast_1d(np.asarray(center, dtype=float))
    _check_ball_margin(grid, c, radii[-1], slab=slab)
    for t in slab or ():
        _plane_stencil(grid, t)
        off = abs(t - c[-1])
        for r in radii:
            if r - 2.0 * grid.h < off < r + 2.0 * grid.h:
                raise RegionError(
                    f"slab plane t={t} within 2h of the pole of B_{r:g}")
    return c, radii


def _radial_pairing(grad, mesh, center):
    """<x-c, grad u> from grad u's components and the sparse node
    coordinates (`Grid.meshgrid(sparse=True)`) on the same nodes."""
    return sum((m - ci) * gi for gi, m, ci in zip(grad, mesh, center))


def _identity_integrands(state: PhaseFieldState, center, box):
    """|grad u|^2, u, <x-c,grad u> and f, c the float array `center`, on
    the index box `box` (a tuple of slices), the arrays
    `_identity_densities` forms the ball terms from: two box arrays, both
    taken from grad u on one run of the box's axis-0 planes at a time (see
    fields._stream), so grad u is never held on the whole box, and views
    of the state's u and f."""
    g, u, f = state.grid, state.u.values, state.f.values
    mesh = g.meshgrid(sparse=True)

    def fill(rows):
        part = (rows, *box[1:])
        grad = _gradient_box(u, g, part)
        return _square_sum(grad), _radial_pairing(
            grad, [m[(slice(None),) * ax + (b,)]
                   for ax, (m, b) in enumerate(zip(mesh, part))], center)

    grad_sq, radial = _stream(g, fill, 2, box)
    return grad_sq, u[box], radial, f[box]


def _identity_densities(state: PhaseFieldState):
    """The ball terms' integrands mu, xi, eps <x-c,grad u>^2 and
    <x-c,grad u> f from the values of `_identity_integrands`' arrays on the
    nodes a radius gathers, so none is ever held on the box: mu and xi from
    the gathers of |grad u|^2 and u, the last two in place in the gathers
    of <x-c,grad u> and f."""
    eps = state.epsilon

    def form(grad_sq, u, radial, f):
        f *= radial  # <x-c,grad u> f
        radial *= radial
        radial *= eps  # eps <x-c,grad u>^2
        return (*energy_densities(grad_sq, u, eps), radial, f)
    return form


def _d_dr(radii, values):
    return radial_derivative(np.column_stack([radii, values]))[:, 1]


def _ball_columns(state: PhaseFieldState, c, radii, supersample, slab):
    """The ball terms mu, xi, eps <x-c,grad u>^2 and <x-c,grad u> f
    integrated over each radius's region: one read-only row per radius,
    swept once per state for each center, radii, supersample and effective
    slab. A slab that masks no ball (`inert_slab`) is no slab, so the
    default slab reads the ball identity's columns. The supersample is
    checked before the memo: 2.0 would find the entry of 2."""
    _check_supersample(supersample)
    g = state.grid
    if slab is not None and inert_slab(g, c, radii[-1], supersample, slab):
        slab = None

    def sweep():
        cols = ball_integrals(
            g, lambda box: _identity_integrands(state, c, box), c, radii,
            supersample, slab, _identity_densities(state))
        cols.setflags(write=False)
        return cols

    key = ("ball_columns", c.tobytes(), radii.tobytes(), supersample,
           None if slab is None else tuple(map(float, slab)))
    return state.derived(key, sweep)


def _identity_report(state: PhaseFieldState, center, radii, supersample,
                     slab=None) -> MonotonicityReport:
    """The identity's columns from the ball columns of one sweep over the
    radii (`_ball_columns`). With a slab (t_lo, t_hi) every ball integral
    is slab-restricted and the two plane terms enter the right-hand side
    after the three ball terms."""
    g = state.grid
    c, radii = check_geometry(g, state.epsilon, center, radii, slab)
    n = g.ndim - 1
    mu_c, xi_c, bnd_c, frc_c = _ball_columns(state, c, radii, supersample,
                                             slab).T
    ratio = mu_c / radii ** n
    lhs = _d_dr(radii, ratio)
    terms = {"term_xi": -xi_c / radii ** (n + 1),
             "term_boundary": _d_dr(radii, bnd_c) / radii ** (n + 2),
             "term_forcing": -frc_c / radii ** (n + 1)}
    if slab is not None:
        for name, sign, t in (("term_plane_lo", 1.0, slab[0]),
                              ("term_plane_hi", -1.0, slab[1])):
            terms[name] = _plane_term(g, _sheet_integrand_on_plane(state, c, t),
                                      c, t, radii, supersample, sign)
    # left to right, never from a 0 start: 0 + -0.0 would flip zero signs
    residual = lhs - functools.reduce(operator.add, terms.values())
    interior = slice(1, -1)
    scale = float(np.max(np.abs(np.column_stack([lhs, *terms.values()]))
                         [interior]))
    max_res = float(np.max(np.abs(residual[interior])))
    aggregate = 0.0 if max_res == 0.0 else (np.inf if scale == 0.0
                                            else max_res / scale)
    report = MonotonicityReport if slab is None else SlabReport
    return report(radii=radii, ratio=ratio, lhs=lhs, residual=residual,
                  scale=scale, aggregate=aggregate, **terms)


def density_ratio_profile(state: PhaseFieldState, center, radii,
                          supersample: int = 4) -> np.ndarray:
    """Rows (r, r^-n mu(B_r(center))) over a uniform radius grid: the mu
    column of the ball identity's sweep (`_ball_columns`)."""
    g = state.grid
    c, radii = check_geometry(g, state.epsilon, center, radii, min_count=1)
    mu_c = _ball_columns(state, c, radii, supersample, None)[:, 0]
    return np.column_stack([radii, mu_c / radii ** (g.ndim - 1)])


def monotonicity_report(state: PhaseFieldState, center, radii,
                        supersample: int = 4) -> MonotonicityReport:
    """All terms of the ball identity by independent quadratures.

    The aggregate is max interior |residual| over the max interior term
    magnitude; end radii use one-sided differences and are excluded.
    """
    return _identity_report(state, center, radii, supersample)


def _sheet_integrand_on_plane(state: PhaseFieldState, center, t):
    """S_c, c the float array `center`, restricted to the hyperplane
    {x_last = t} (transverse array): the values on the two grid planes of
    the last axis around it, mixed as `restrict_to_plane` mixes them.
    grad u is formed once on each of those two planes, and mu, d_last u
    and <x-c, grad u> from it."""
    g, u = state.grid, state.u.values
    eps = state.epsilon
    k0, k1, lam = _plane_stencil(g, t)
    mesh = g.meshgrid(sparse=True)
    rest = (slice(None),) * (g.ndim - 1)

    def on_plane(k):  # mu, d_last u and <x-c, grad u> on the grid plane k
        part = _gradient_box(u, g, (*rest, slice(k, k + 1)))[..., 0]
        # the other axes' coordinates have length 1 on the last axis
        mesh_k = [m[..., k if m.shape[-1] > 1 else 0] for m in mesh]
        return (energy_densities(_square_sum(part), u[..., k], eps)[0],
                part[-1], _radial_pairing(part, mesh_k, center))

    mu, dlast, radial = ((1.0 - lam) * a + lam * b
                         for a, b in zip(on_plane(k0), on_plane(k1)))
    return (t - center[-1]) * mu - eps * dlast * radial


def _plane_term(grid, plane_values, center, t, radii, supersample,
                sign=1.0) -> np.ndarray:
    """sign * r^-(n+1) int_{B_r(center), x_last=t} plane_values dH^n for
    each radius r; +0 where the plane misses the open ball B_r."""
    off = abs(t - center[-1])
    gap = radii * radii - off * off
    col = np.zeros(len(radii))
    for k in np.flatnonzero(gap > 0):
        col[k] = sign * disc_integral(grid, plane_values, center[:-1],
                                      np.sqrt(gap[k]),
                                      supersample) / radii[k] ** grid.ndim
    return col


def slab_report(state: PhaseFieldState, center, radii, t_lo: float,
                t_hi: float, supersample: int = 4) -> SlabReport:
    """Slab-weighted identity with hyperplane terms from the
    sheets-separation integrand.

    Planes must clear the sphere poles by 2h at every radius (tangency
    degenerates the disc quadrature) or miss the ball entirely.
    """
    return _identity_report(state, center, radii, supersample, (t_lo, t_hi))


def sheet_separation_integral(state: PhaseFieldState, x, t3: float, d: float,
                              R: float, supersample: int = 4) -> float:
    """int_d^R rho^-(n+1) int_{B_rho(x), y_last=t3} |S_x| dH^n drho.

    Trapezoidal in rho over 64 uniform subintervals; discriminates planes
    passing through layer mass from planes in the energy-free gap between
    sheets.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != state.grid.ndim or not np.all(np.isfinite(x)):
        raise RegionError(f"x {x.tolist()} needs {state.grid.ndim} finite "
                          "coordinates")
    _check_finite(t3=t3, d=d, R=R)
    if d > R:
        raise ValueError(f"empty radius range: d={d} > R={R}")
    if d < state.epsilon:
        raise ValueError(f"d={d} below the layer width eps={state.epsilon}")
    s_abs = np.abs(_sheet_integrand_on_plane(state, x, t3))
    rhos = np.linspace(d, R, 65)
    vals = _plane_term(state.grid, s_abs, x, t3, rhos, supersample)
    return float(np.trapezoid(vals, rhos))
