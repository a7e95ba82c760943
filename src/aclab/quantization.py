"""Layer detection along sampled lines and verification that line energy is
an integer multiple of the single-layer energy alpha = 4/3.

A line crossing K well-separated transition layers carries energy density
integral K*alpha per unit cross-sectional area, and each layer window holds
potential energy alpha/2 (the equipartition of one heteroclinic profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import _check_finite, _LazyField, line_sample
from .measures import density_fields
from .phasefield import PhaseFieldState, constants, double_well


@dataclass(frozen=True)
class Line:
    """A sampling segment base + t*direction/|direction|, t in [t_lo, t_hi]."""

    base: tuple[float, ...]
    direction: tuple[float, ...]
    t_lo: float
    t_hi: float
    samples: int

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(float(b) for b in self.base))
        object.__setattr__(self, "direction",
                           tuple(float(d) for d in self.direction))
        _check_finite(base=self.base, direction=self.direction,
                      t_lo=self.t_lo, t_hi=self.t_hi)
        if self.samples < 3:
            raise ValueError("need at least 3 samples per line")
        if not self.t_lo < self.t_hi:
            raise ValueError("empty parameter range")


@dataclass(frozen=True)
class LineResult:
    line_id: int
    layer_count: int
    theta_hat: float
    nearest_k: int
    quantization_residual: float
    potential_per_layer: tuple[float, ...]


@dataclass(frozen=True)
class QuantizationReport:
    """Per-line quantization rows plus residual aggregates."""

    rows: tuple[LineResult, ...]
    mean_residual: float
    max_residual: float
    mean_theta_hat: float


def detect_layers(samples: np.ndarray, tau: float, epsilon: float):
    """Maximal windows where |u| <= 1 - tau, widened by 3 eps and merged.

    samples are rows (t, u) from line_sample; returns a list of (lo, hi)
    parameter windows clipped to the sampled range.
    """
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    samples = np.asarray(samples, dtype=float)
    t, u = samples[:, 0], samples[:, 1]
    inside = np.abs(u) <= 1.0 - tau
    windows = []
    k = 0
    m = len(t)
    while k < m:
        if inside[k]:
            start = k
            while k + 1 < m and inside[k + 1]:
                k += 1
            windows.append((t[start] - 3.0 * epsilon, t[k] + 3.0 * epsilon))
        k += 1
    merged = []
    for lo, hi in windows:
        lo, hi = max(lo, t[0]), min(hi, t[-1])
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _window_integral(t: np.ndarray, values: np.ndarray, lo: float, hi: float):
    mask = (t >= lo - 1e-12) & (t <= hi + 1e-12)
    return float(np.trapezoid(values[mask], t[mask]))


def quantization_check(state: PhaseFieldState, lines, tau: float = 0.1
                       ) -> QuantizationReport:
    """Integrate the energy density and per-window potential along lines.

    theta_hat is the line integral of the energy density, interpreted as
    energy per unit cross-sectional area; nearest_k rounds theta_hat/alpha
    half-up so ties stay visible through the reported residual.
    """
    alpha = constants().alpha
    mu = _LazyField(state.grid, lambda idx: density_fields(state, idx)[0])
    eps = state.epsilon
    rows = []
    for i, line in enumerate(lines):
        u_samp = line_sample(state.u, line.base, line.direction, line.samples,
                             line.t_lo, line.t_hi)
        mu_samp = line_sample(mu, line.base, line.direction,
                              line.samples, line.t_lo, line.t_hi)
        t = u_samp[:, 0]
        windows = detect_layers(u_samp, tau, eps)
        theta = float(np.trapezoid(mu_samp[:, 1], t))
        pots = tuple(
            _window_integral(t, double_well(u_samp[:, 1]) / eps, lo, hi)
            for lo, hi in windows)
        nearest = int(math.floor(theta / alpha + 0.5))
        rows.append(LineResult(
            line_id=i, layer_count=len(windows), theta_hat=theta,
            nearest_k=nearest,
            quantization_residual=abs(theta - nearest * alpha) / alpha,
            potential_per_layer=pots))
    if not rows:
        raise ValueError("need at least one line")
    res = np.array([r.quantization_residual for r in rows])
    thetas = np.array([r.theta_hat for r in rows])
    return QuantizationReport(rows=tuple(rows),
                              mean_residual=float(res.mean()),
                              max_residual=float(res.max()),
                              mean_theta_hat=float(thetas.mean()))

