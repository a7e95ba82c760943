"""Energy and discrepancy densities, tilt excess, the L^q0 diffuse
mean-curvature norm, scalar norm reports, and the stress-energy first
variation identity.

Density conventions (all per unit volume):

    mu   = eps*|grad u|^2/2 + W(u)/eps     energy density
    xi   = eps*|grad u|^2/2 - W(u)/eps     discrepancy density
    tilt = eps*|grad u|^2 * sqrt(1 - nu_e^2)

The unit normal nu = grad u/|grad u| is only used where the gradient is
above a threshold; every nu-dependent integrand carries an eps*|grad u|^2
or |grad u| factor, so setting it to zero on the discrete critical set is
measure-correct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (ScalarField, VectorField, _central_difference,
                     ball_integrals, gradient, integrate)
from .phasefield import PhaseFieldState, double_well

# Nodes per slab of whole axis-0 planes in `first_variation_identity`: its
# temporaries are a few slab-sized arrays, not grid-sized ones (2^16 is 3
# planes of a 129^3 grid).
_SLAB_NODES = 1 << 16


@dataclass(frozen=True)
class AnalysisParams:
    """Tunable exponents and thresholds shared by the measure diagnostics.

    q0 defaults to the ambient dimension n+1, which satisfies the q0 > n
    requirement in every supported dimension.
    """

    q0: float = None
    grad_threshold: float = 1e-8
    supersample: int = 4
    tau: float = 0.1

    def __post_init__(self):
        if not 0 < self.tau < 1:
            raise ValueError("tau must lie in (0, 1)")
        if self.grad_threshold < 0:
            raise ValueError("grad_threshold must be nonnegative")
        if self.supersample < 1:
            raise ValueError("supersample must be >= 1")

    def resolve_q0(self, ndim: int) -> float:
        q0 = float(self.q0) if self.q0 is not None else float(ndim)
        if not q0 > ndim - 1:
            raise ValueError(f"q0={q0} must exceed n={ndim - 1}")
        return q0


@dataclass(frozen=True)
class DensityFields:
    """Pointwise densities derived from one state."""

    mu: ScalarField
    xi: ScalarField
    xi_plus: ScalarField
    grad_mag: ScalarField


@dataclass(frozen=True)
class NormReport:
    """Scalar diagnostics for the three compactness conditions plus the
    gradient sup bound and bookkeeping masses."""

    total_energy: float
    sup_u: float
    lambda_hat: float
    sup_eps_grad: float
    xi_plus_mass: float
    xi_abs_mass: float
    f_l2_over_eps: float
    excluded_mass_fraction: float


def state_gradient(state: PhaseFieldState) -> np.ndarray:
    """The node values of gradient(state.u), computed once per state."""
    return state.derived("gradient", lambda: gradient(state.u).values)


def density_fields(state: PhaseFieldState) -> DensityFields:
    """Evaluate mu, xi, xi_plus and |grad u|.

    Computed once per state; later calls return the same object.
    """
    return state.derived("density_fields", lambda: _density_fields(state))


def _density_fields(state: PhaseFieldState) -> DensityFields:
    g = state.grid
    eps = state.epsilon
    grad = state_gradient(state)
    grad_sq = np.sum(grad * grad, axis=0)
    w = double_well(state.u.values)
    mu = 0.5 * eps * grad_sq + w / eps
    xi = 0.5 * eps * grad_sq - w / eps
    return DensityFields(
        mu=ScalarField._adopt(g, mu),
        xi=ScalarField._adopt(g, xi),
        xi_plus=ScalarField._adopt(g, np.maximum(xi, 0.0)),
        grad_mag=ScalarField._adopt(g, np.sqrt(grad_sq)),
    )


def tilt_excess(state: PhaseFieldState, center, radius: float,
                axis: int = -1, supersample: int = 4) -> float:
    """Integral over B_radius(center) of the tilt integrand
    eps*|grad u|^2 sqrt(1 - nu_axis^2), which is zero wherever grad u
    vanishes; built on each call from the cached gradient."""
    grad = state_gradient(state)
    grad_sq = np.sum(grad * grad, axis=0)
    tangential = np.clip(grad_sq - grad[axis] ** 2, 0.0, None)
    tilt = state.epsilon * np.sqrt(grad_sq) * np.sqrt(tangential)
    return float(ball_integrals(state.grid, [tilt], center, [radius],
                                supersample)[0, 0])


def _curvature_quotient(state: PhaseFieldState, threshold: float):
    """|f|/(eps|grad u|) on cells with eps|grad u| >= threshold (0 elsewhere,
    and where a zero gradient makes it non-finite), the eps|grad u|^2 mass,
    and the inclusion mask."""
    eps = state.epsilon
    grad_mag = density_fields(state).grad_mag.values
    eps_grad = eps * grad_mag
    mass = eps * grad_mag ** 2
    included = eps_grad >= threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(included, np.abs(state.f.values) / eps_grad, 0.0)
    quotient = np.where(np.isfinite(quotient), quotient, 0.0)
    return quotient, mass, included


def diffuse_mean_curvature_norm(state: PhaseFieldState, params: AnalysisParams):
    """L^q0 norm integral of |f|/(eps|grad u|) against eps|grad u|^2 dx.

    The quotient is evaluated only on cells with eps|grad u| above the
    threshold; the eps|grad u|^2 mass carried by excluded cells is reported
    as a fraction of the total so silent truncation is visible.
    """
    q0 = params.resolve_q0(state.grid.ndim)
    quotient, mass, included = _curvature_quotient(state, params.grad_threshold)
    g = state.grid
    lam = integrate(ScalarField._adopt(g, quotient ** q0 * mass))
    total_mass = integrate(ScalarField._adopt(g, mass))
    excl = integrate(ScalarField._adopt(g, np.where(included, 0.0, mass)))
    fraction = excl / total_mass if total_mass > 0 else 0.0
    return float(lam), float(fraction)


def norm_report(state: PhaseFieldState,
                params: AnalysisParams = AnalysisParams()) -> NormReport:
    """Assemble all scalar diagnostics of a state in one pass."""
    g = state.grid
    eps = state.epsilon
    dens = density_fields(state)
    lam, fraction = diffuse_mean_curvature_norm(state, params)
    return NormReport(
        total_energy=integrate(dens.mu),
        sup_u=float(np.max(np.abs(state.u.values))),
        lambda_hat=lam,
        sup_eps_grad=float(eps * np.max(dens.grad_mag.values)),
        xi_plus_mass=integrate(dens.xi_plus),
        xi_abs_mass=integrate(ScalarField._adopt(g, np.abs(dens.xi.values))),
        f_l2_over_eps=integrate(
            ScalarField._adopt(g, state.f.values ** 2)) / eps,
        excluded_mass_fraction=fraction,
    )


@dataclass(frozen=True)
class HolderCheck:
    lhs: float
    rhs: float
    holds: bool
    q0: float
    c1: float
    c2: float


def corollary_holder_check(state: PhaseFieldState, s: float, t: float,
                           params: AnalysisParams = AnalysisParams()) -> HolderCheck:
    """Check the Hoelder chain bounding the curvature norm by split norms of f.

    With q0 = t(s-2)/s + 2, the chain reads

        Lambda_hat <= C1^2 * C2^(q0-2),
        C1 = eps^{-1/2} ||f||_{L^s},   C2 = ||f/(eps|grad u|)||_{L^t},

    where C2 is restricted to cells above the gradient threshold, exactly
    like Lambda_hat itself. The inequality is exact for the shared cell
    quadrature, so any violation indicates a quadrature bug.
    """
    if not s > 2:
        raise ValueError("s must exceed 2")
    if not t > 0:
        raise ValueError("t must be positive")
    g = state.grid
    q0 = t * (s - 2.0) / s + 2.0
    n = g.ndim - 1
    if not q0 > n:
        raise ValueError(f"resulting q0={q0} must exceed n={n}")
    eps = state.epsilon
    check_params = AnalysisParams(q0=q0, grad_threshold=params.grad_threshold,
                                  supersample=params.supersample, tau=params.tau)
    lhs, _ = diffuse_mean_curvature_norm(state, check_params)
    w = g.node_weights()
    c1 = (np.sum(np.abs(state.f.values) ** s * w)) ** (1.0 / s) / np.sqrt(eps)
    quotient, _, _ = _curvature_quotient(state, params.grad_threshold)
    c2 = (np.sum(quotient ** t * w)) ** (1.0 / t)
    rhs = c1 ** 2 * c2 ** (q0 - 2.0)
    return HolderCheck(lhs=float(lhs), rhs=float(rhs),
                       holds=bool(lhs <= rhs * (1.0 + 1e-9)),
                       q0=q0, c1=float(c1), c2=float(c2))


@dataclass(frozen=True)
class FirstVariationResult:
    lhs: float
    rhs: float
    residual: float
    forcing_term: float
    discrepancy_term: float


def first_variation_identity(state: PhaseFieldState, eta: VectorField,
                             params: AnalysisParams = AnalysisParams()
                             ) -> FirstVariationResult:
    """Both sides of the first-variation identity by independent quadratures.

    lhs integrates the tangential-divergence integrand of the associated
    varifold over the above-threshold set,

        lhs = int (div eta - grad_eta(nu, nu)) dmu,

    and the right side comes from the stress-energy tensor of the equation,

        rhs = int f <grad u, eta> dx + int grad_eta(nu, nu) dxi.

    Both sides vanish together in the continuum; the reported residual
    |lhs - rhs| / (1 + |lhs| + |rhs|) is pure discretization error.
    """
    g = state.grid
    if eta.grid != g:
        raise ValueError("eta must live on the state's grid")
    _require_compact_support(eta)
    dens = density_fields(state)
    grad_u = state_gradient(state)
    w = g.node_weights()
    mu, xi, f = dens.mu.values, dens.xi.values, state.f.values
    # each integrand is built slab by slab into a whole-grid buffer and
    # summed by one np.sum over the grid: the same call on the same values
    # as over whole-grid temporaries, so the same bits
    lhs_w, disc_w = np.empty(g.shape), np.empty(g.shape)
    for lo, hi in _slabs(g):
        sl = slice(lo, hi)
        # the mask eps|grad u| >= threshold and the unit normal on it (0
        # elsewhere, and where grad u = 0)
        grad_mag = dens.grad_mag.values[sl]
        included = state.epsilon * grad_mag >= params.grad_threshold
        nu = np.divide(grad_u[:, sl], grad_mag,
                       out=np.zeros((g.ndim,) + grad_mag.shape),
                       where=included & (grad_mag > 0))
        # one derivative axis i at a time, so only d_i eta is ever held;
        # the sums keep the order and the products of div_eta = sum_j
        # d_j eta_j and grad_eta_nunu = sum_i sum_j (d_i eta_j nu_i) nu_j
        div_eta = np.zeros(nu.shape[1:])
        grad_eta_nunu = np.zeros(nu.shape[1:])
        d_eta = np.empty_like(nu)
        for i in range(g.ndim):  # d_eta[j] = d_i eta_j
            if i == 0:  # reads one plane past each end of the slab
                _central_difference(eta.values, g, 0, d_eta, lo, hi)
            else:
                _central_difference(eta.values[:, sl], g, i, d_eta)
            div_eta += d_eta[i]
            d_eta *= nu[i]
            d_eta *= nu  # d_eta[j] = (d_i eta_j nu_i) nu_j
            for term in d_eta:
                grad_eta_nunu += term
        np.multiply(np.where(included, (div_eta - grad_eta_nunu) * mu[sl],
                             0.0), w[sl], out=lhs_w[sl])
        np.multiply(np.where(included, grad_eta_nunu * xi[sl], 0.0), w[sl],
                    out=disc_w[sl])
    lhs, disc = float(np.sum(lhs_w)), float(np.sum(disc_w))
    forcing_w = lhs_w  # free once lhs is summed
    for lo, hi in _slabs(g):
        sl = slice(lo, hi)
        pairing = sum(grad_u[i, sl] * eta.values[i, sl]
                      for i in range(g.ndim))
        np.multiply(f[sl] * pairing, w[sl], out=forcing_w[sl])
    forcing = float(np.sum(forcing_w))
    rhs = forcing + disc
    residual = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
    return FirstVariationResult(lhs=lhs, rhs=rhs, residual=residual,
                                forcing_term=forcing, discrepancy_term=disc)


def _slabs(grid):
    """(lo, hi) of consecutive runs of whole axis-0 planes, about
    _SLAB_NODES nodes each (at least one plane)."""
    n = grid.points[0]
    step = max(1, _SLAB_NODES // int(np.prod(grid.points[1:])))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _require_compact_support(eta: VectorField):
    """Refuse eta unless it vanishes (to 1e-12 of its peak) on the nodes
    closer than 4h to a zero-flux face, the 4 outermost layers on each side
    of each axis: max and min over those shells, never a grid mask."""
    g = eta.grid
    if g.boundary == "periodic":
        return

    def peak(v):
        return max(float(np.max(v)), -float(np.min(v)))

    top = peak(eta.values)
    for ax in range(g.ndim):
        for shell in (slice(0, 4), slice(-4, None)):
            layers = eta.values[(slice(None),) * (ax + 1) + (shell,)]
            if peak(layers) > 1e-12 * top:
                raise ValueError(
                    "eta must vanish within 4h of the domain boundary")


def eta_lq_norm(state: PhaseFieldState, eta: VectorField, q: float) -> float:
    """||eta||_{L^q(mu)} with |eta| the Euclidean norm, used by the duality
    bound on the first variation. q = inf gives the mu-essential sup: the
    max of |eta| over nodes carrying mu mass."""
    dens = density_fields(state)
    # |eta|^2 summed a component at a time, in the order np.sum(axis=0) adds
    mag = eta.values[0] ** 2
    for comp in eta.values[1:]:
        mag += comp ** 2
    np.sqrt(mag, out=mag)
    w = state.grid.node_weights()
    if np.isinf(q):
        return float(np.max(mag, where=dens.mu.values * w > 0, initial=0.0))
    mag **= q  # now the integrand |eta|^q mu w, built in place
    mag *= dens.mu.values
    mag *= w
    return float(np.sum(mag) ** (1.0 / q))


def bump_half_widths(grid, margin_cells: float = 5.0) -> list[float]:
    """Half-widths of the test field's bump on each axis: half the extent
    less margin_cells*h. Refuses a grid on which one is not positive; on an
    isotropic grid that depends on the point counts only."""
    halves = [0.5 * ext - margin_cells * grid.h for ext in grid.extent]
    if any(hw <= 0 for hw in halves):
        raise ValueError("grid too small for a compactly supported test field")
    return halves


def smooth_test_field(grid, seed: int, margin_cells: float = 5.0) -> VectorField:
    """A pseudo-random smooth vector field vanishing near the boundary.

    Each component is a C-infinity bump times a low-order trigonometric
    polynomial with seeded coefficients, so repeated calls are reproducible
    and the 4h compact-support precondition holds by construction.
    """
    halves = bump_half_widths(grid, margin_cells)
    rng = np.random.default_rng(seed)
    centers = [0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi)]
    # every factor depends on one coordinate: evaluate it on the 1-d axis
    # (in broadcastable shape) and let the products fill the grid
    bump = np.ones(())
    scaled = []
    for m, c, hw in zip(grid.meshgrid(sparse=True), centers, halves):
        s = (m - c) / hw
        scaled.append(s)
        inside = np.abs(s) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            b = np.where(inside, np.exp(1.0 - 1.0 / np.maximum(1.0 - s * s, 1e-300)),
                         0.0)
        bump = bump * b
    out = np.empty((grid.ndim,) + grid.shape)
    for comp in out:
        poly = rng.uniform(-1.0, 1.0)
        for s in scaled[:-1]:
            poly = poly + rng.uniform(-1.0, 1.0) * np.sin(np.pi * s)
            poly = poly + rng.uniform(-1.0, 1.0) * np.cos(np.pi * s)
        # the last axis's terms fill the grid: add them, and the bump, in
        # place in the component
        s = scaled[-1]
        np.add(poly, rng.uniform(-1.0, 1.0) * np.sin(np.pi * s), out=comp)
        comp += rng.uniform(-1.0, 1.0) * np.cos(np.pi * s)
        np.multiply(bump, comp, out=comp)
    return VectorField._adopt(grid, out)


def transition_region_split(state: PhaseFieldState,
                            params: AnalysisParams = AnalysisParams()):
    """Split the total energy mass by the transition-band threshold.

    Returns (energy where |u| < 1 - tau, energy where |u| >= 1 - tau).
    """
    dens = density_fields(state)
    w = state.grid.node_weights()
    in_band = np.abs(state.u.values) < 1.0 - params.tau
    mu = dens.mu.values
    return (float(np.sum(np.where(in_band, mu, 0.0) * w)),
            float(np.sum(np.where(in_band, 0.0, mu) * w)))
