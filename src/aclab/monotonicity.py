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

from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .fields import (RegionError, ScalarField, _BallQuadrature, disc_integral,
                     radial_derivative, restrict_to_plane)
from .measures import density_fields, state_gradient
from .phasefield import PhaseFieldState


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
    row_scale: np.ndarray
    scale: float
    aggregate: float


@dataclass(frozen=True)
class SlabReport:
    """Slab-restricted identity columns; plane terms are signed as they
    enter the right-hand side (+ at t1, - at t2)."""

    radii: np.ndarray
    ratio: np.ndarray
    lhs: np.ndarray
    term_xi: np.ndarray
    term_boundary: np.ndarray
    term_forcing: np.ndarray
    term_plane_lo: np.ndarray
    term_plane_hi: np.ndarray
    residual: np.ndarray
    row_scale: np.ndarray
    scale: float
    aggregate: float
    t_lo: float
    t_hi: float


def _validate_radii(state: PhaseFieldState, radii, min_count=5):
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) < min_count:
        raise ValueError(f"need at least {min_count} radii")
    dr = np.diff(radii)
    if np.any(dr <= 0) or np.any(np.abs(dr - dr[:1]) > 1e-9 * dr[:1]):
        raise ValueError("radii must be strictly ascending and uniform")
    floor = max(4.0 * state.grid.h, state.epsilon)
    if radii[0] < floor - 1e-12:
        raise ValueError(
            f"minimum radius {radii[0]} below the resolution floor "
            f"max(4h, eps) = {floor}")
    return radii


def _radial_pairing(state: PhaseFieldState, center) -> np.ndarray:
    """<x-c, grad u> at every node."""
    grad = state_gradient(state)
    c = np.atleast_1d(np.asarray(center, dtype=float))
    mesh = state.grid.meshgrid(sparse=True)
    return sum((m - ci) * grad[i] for i, (m, ci) in enumerate(zip(mesh, c)))


def _identity_integrands(state: PhaseFieldState, center):
    """mu, xi, <x-c,grad u>^2 and <x-c,grad u> f node arrays."""
    dens = density_fields(state)
    radial = _radial_pairing(state, center)
    return (dens.mu.values, dens.xi.values,
            state.epsilon * radial ** 2, radial * state.f.values)


def _assemble(radii, n, mu_c, xi_c, bnd_c, frc_c, extra=None):
    ratio = mu_c / radii ** n
    lhs = radial_derivative(np.column_stack([radii, ratio]))[:, 1]
    term_xi = -xi_c / radii ** (n + 1)
    dbnd = radial_derivative(np.column_stack([radii, bnd_c]))[:, 1]
    term_boundary = dbnd / radii ** (n + 2)
    term_forcing = -frc_c / radii ** (n + 1)
    total = term_xi + term_boundary + term_forcing
    cols = [lhs, term_xi, term_boundary, term_forcing]
    if extra is not None:
        for col in extra:
            total = total + col
            cols.append(col)
    residual = lhs - total
    row_scale = np.max(np.abs(np.column_stack(cols)), axis=1)
    interior = slice(1, -1)
    scale = float(np.max(row_scale[interior]))
    max_res = float(np.max(np.abs(residual[interior])))
    aggregate = 0.0 if max_res == 0.0 else (np.inf if scale == 0.0
                                            else max_res / scale)
    return ratio, lhs, term_xi, term_boundary, term_forcing, residual, \
        row_scale, scale, aggregate


def density_ratio_profile(state: PhaseFieldState, center, radii,
                          supersample: int = 4) -> np.ndarray:
    """Rows (r, r^-n mu(B_r(center))) over a uniform radius grid."""
    radii = _validate_radii(state, radii, min_count=1)
    g = state.grid
    n = g.ndim - 1
    dens = density_fields(state)
    quad = _BallQuadrature(g, np.atleast_1d(center), supersample)
    vals = np.array([quad.integral(dens.mu.values, r) for r in radii])
    return np.column_stack([radii, vals / radii ** n])


def monotonicity_report(state: PhaseFieldState, center, radii,
                        supersample: int = 4) -> MonotonicityReport:
    """All terms of the ball identity by independent quadratures.

    The aggregate is max interior |residual| over the max interior term
    magnitude; end radii use one-sided differences and are excluded.
    """
    radii = _validate_radii(state, radii)
    g = state.grid
    n = g.ndim - 1
    integrands = _identity_integrands(state, center)
    quad = _BallQuadrature(g, np.atleast_1d(center), supersample)
    cums = np.array([quad.integral_many(list(integrands), r) for r in radii])
    ratio, lhs, t_xi, t_bnd, t_frc, res, row_scale, scale, agg = _assemble(
        radii, n, cums[:, 0], cums[:, 1], cums[:, 2], cums[:, 3])
    return MonotonicityReport(radii=radii, ratio=ratio, lhs=lhs, term_xi=t_xi,
                              term_boundary=t_bnd, term_forcing=t_frc,
                              residual=res, row_scale=row_scale, scale=scale,
                              aggregate=agg)


def _sheet_integrand_on_plane(state: PhaseFieldState, center, t):
    """S_c restricted to the hyperplane {x_last = t} (transverse array)."""
    g = state.grid
    eps = state.epsilon
    dens = density_fields(state)
    c = np.atleast_1d(np.asarray(center, dtype=float))
    radial = _radial_pairing(state, c)
    mu_p = restrict_to_plane(dens.mu, t)
    dlast_p = restrict_to_plane(ScalarField(g, state_gradient(state)[-1]), t)
    radial_p = restrict_to_plane(ScalarField(g, radial), t)
    return (t - c[-1]) * mu_p - eps * dlast_p * radial_p


def _disc_radius(r, offset):
    gap = r * r - offset * offset
    return np.sqrt(gap) if gap > 0 else -1.0


def slab_report(state: PhaseFieldState, center, radii, t_lo: float,
                t_hi: float, supersample: int = 4) -> SlabReport:
    """Slab-weighted identity with hyperplane terms from the
    sheets-separation integrand.

    Planes must clear the sphere poles by 2h at every radius (tangency
    degenerates the disc quadrature) or miss the ball entirely.
    """
    if not t_lo < t_hi:
        raise RegionError(f"degenerate slab: t_lo={t_lo} >= t_hi={t_hi}")
    radii = _validate_radii(state, radii)
    g = state.grid
    n = g.ndim - 1
    c = np.atleast_1d(np.asarray(center, dtype=float))
    h = g.h
    for t in (t_lo, t_hi):
        off = abs(t - c[-1])
        for r in radii:
            if r - 2.0 * h < off < r + 2.0 * h:
                raise RegionError(
                    f"slab plane t={t} within 2h of the pole of B_{r:g}")

    integrands = _identity_integrands(state, center)
    quad = _BallQuadrature(g, c, supersample, t_lo=t_lo, t_hi=t_hi)
    cums = np.array([quad.integral_many(list(integrands), r) for r in radii])

    plane_cols = []
    for sign, t in ((1.0, t_lo), (-1.0, t_hi)):
        s_plane = _sheet_integrand_on_plane(state, c, t)
        off = abs(t - c[-1])
        col = np.zeros(len(radii))
        for k, r in enumerate(radii):
            a = _disc_radius(r, off)
            if a > 0:
                col[k] = sign * disc_integral(g, s_plane, c[:-1], a,
                                              supersample) / r ** (n + 1)
        plane_cols.append(col)

    ratio, lhs, t_xi, t_bnd, t_frc, res, row_scale, scale, agg = _assemble(
        radii, n, cums[:, 0], cums[:, 1], cums[:, 2], cums[:, 3],
        extra=plane_cols)
    return SlabReport(radii=radii, ratio=ratio, lhs=lhs, term_xi=t_xi,
                      term_boundary=t_bnd, term_forcing=t_frc,
                      term_plane_lo=plane_cols[0], term_plane_hi=plane_cols[1],
                      residual=res, row_scale=row_scale, scale=scale,
                      aggregate=agg, t_lo=t_lo, t_hi=t_hi)


def sheet_separation_integral(state: PhaseFieldState, x, t3: float, d: float,
                              R: float, subdivisions: int = 64,
                              supersample: int = 4) -> float:
    """int_d^R rho^-(n+1) int_{B_rho(x), y_last=t3} |S_x| dH^n drho.

    Trapezoidal in rho over a uniform subdivision; discriminates planes
    passing through layer mass from planes in the energy-free gap between
    sheets.
    """
    if d > R:
        raise ValueError(f"empty radius range: d={d} > R={R}")
    if d < state.epsilon:
        raise ValueError(f"d={d} below the layer width eps={state.epsilon}")
    g = state.grid
    n = g.ndim - 1
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s_abs = np.abs(_sheet_integrand_on_plane(state, x, t3))
    off = abs(t3 - x[-1])
    rhos = np.linspace(d, R, subdivisions + 1)
    vals = np.zeros_like(rhos)
    for k, rho in enumerate(rhos):
        a = _disc_radius(rho, off)
        if a > 0:
            vals[k] = disc_integral(g, s_abs, x[:-1], a,
                                    supersample) / rho ** (n + 1)
    return float(trapezoid(vals, rhos))
