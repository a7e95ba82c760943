"""The comparison function G_delta and its inequality ledger.

G_delta is the concave increasing barrier

    G_delta(r) = delta * (1 + int_{-c0-1}^r exp(-A(t)) dt),
    A(t) = int_{-c0-1}^t (|W'(s)| + delta) / (2 (W(s) + delta)) ds,

built on the compact interval [-c0-1, c0+1] by cumulative trapezoidal
quadrature on a fixed fine grid. Its derivatives come from the integrand
analytically: G' = delta*exp(-A) and G'' = -G' * (|W'|+delta)/(2(W+delta)),
so the four ledger inequalities hold exactly up to floating point, with no
quadrature cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import _check_finite
from .phasefield import double_well, double_well_prime


@dataclass(frozen=True)
class GDeltaParams:
    """delta in (0, 1/2], the sup bound c0 >= 1, and the quadrature grid size."""

    delta: float
    c0: float = 2.0
    points: int = 20000

    def __post_init__(self):
        if not 0 < self.delta <= 0.5:
            raise ValueError("delta must lie in (0, 1/2]")
        if not 1 <= self.c0 < np.inf:
            raise ValueError("c0 must be finite and >= 1")
        if not isinstance(self.points, (int, np.integer)) or self.points < 100:
            raise ValueError("points must be an integer >= 100")

    @property
    def r_lo(self) -> float:
        return -self.c0 - 1.0

    @property
    def r_hi(self) -> float:
        return self.c0 + 1.0


def _integrand(r, delta):
    return (np.abs(double_well_prime(r)) + delta) / (2.0 * (double_well(r) + delta))


def _tables(params: GDeltaParams):
    """Grid r, inner cumulative A, G' = delta*exp(-A), and cumulative G."""
    r = np.linspace(params.r_lo, params.r_hi, params.points)
    a = _integrand(r, params.delta)
    dr = r[1] - r[0]
    inner = np.concatenate([[0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * dr)])
    gprime = params.delta * np.exp(-inner)
    outer = np.concatenate(
        [[0.0], np.cumsum(0.5 * (gprime[1:] + gprime[:-1]) * dr)])
    g = params.delta + outer
    return r, inner, gprime, g


def g_delta(r, params: GDeltaParams):
    """(G, G', G'') at r, from the fixed-grid tables.

    A and G are interpolated linearly between grid points; the second
    derivative is analytic in G' and the integrand.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    _check_finite(r=r_arr)
    if np.any(r_arr < params.r_lo - 1e-12) or np.any(r_arr > params.r_hi + 1e-12):
        raise ValueError(f"r outside [{params.r_lo}, {params.r_hi}]")
    grid, inner, gprime, g = _tables(params)
    a_r = _integrand(r_arr, params.delta)
    gp = params.delta * np.exp(-np.interp(r_arr, grid, inner))
    gv = np.interp(r_arr, grid, g)
    gpp = -gp * a_r
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(gv[0]), float(gp[0]), float(gpp[0])
    return gv, gp, gpp


@dataclass(frozen=True)
class GDeltaLedger:
    """Minimum margins of the four proven inequalities, plus the measured
    constants the source only asserts to exist."""

    margin_lower: float        # G - delta >= 0
    margin_derivative: float   # delta - G' >= 0 (and G' > 0)
    margin_concavity: float    # -G'' > 0
    margin_differential: float  # G'W' - 2G''(W+G) - delta G' >= 0
    upper_constant: float      # G(c0+1)/delta
    cubic_constant: float      # min G'/delta^3


def g_delta_ledger(params: GDeltaParams) -> GDeltaLedger:
    """Evaluate the inequality ledger at 2001 equispaced sample points."""
    r = np.linspace(params.r_lo, params.r_hi, 2001)
    g, gp, gpp = g_delta(r, params)
    w = double_well(r)
    wp = double_well_prime(r)
    diff = gp * wp - 2.0 * gpp * (w + g) - params.delta * gp
    return GDeltaLedger(
        margin_lower=float(np.min(g - params.delta)),
        margin_derivative=float(np.min(params.delta - gp)),
        margin_concavity=float(np.min(-gpp)),
        margin_differential=float(np.min(diff)),
        upper_constant=float(g[-1] / params.delta),
        cubic_constant=float(np.min(gp) / params.delta ** 3),
    )
