"""Energy and discrepancy densities, the L^q0 diffuse mean-curvature norm,
scalar norm reports, and the stress-energy first variation identity.

Density conventions (all per unit volume):

    mu   = eps*|grad u|^2/2 + W(u)/eps     energy density
    xi   = eps*|grad u|^2/2 - W(u)/eps     discrepancy density

The unit normal nu = grad u/|grad u| is only used where the gradient is
above a threshold; every nu-dependent integrand carries an eps*|grad u|^2
or |grad u| factor, so setting it to zero on the discrete critical set is
measure-correct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import (PERIODIC, ScalarField, VectorField, _central_difference,
                     _gradient_planes, _halo, _integrals, _LazyField, _slabs,
                     _stream)
from .phasefield import PhaseFieldState, double_well


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
        if self.q0 is not None and not np.isfinite(self.q0):
            raise ValueError(f"q0 must be finite, got {self.q0}")
        if not np.isfinite(self.grad_threshold):
            raise ValueError("grad_threshold must be finite")
        if self.grad_threshold < 0:
            raise ValueError("grad_threshold must be nonnegative")
        if not isinstance(self.supersample, (int, np.integer)):
            raise ValueError("supersample must be an integer")
        if self.supersample < 1:
            raise ValueError("supersample must be >= 1")

    def resolve_q0(self, ndim: int) -> float:
        q0 = float(self.q0) if self.q0 is not None else float(ndim)
        if not q0 > ndim - 1:
            raise ValueError(f"q0={q0} must exceed n={ndim - 1}")
        return q0


def energy_densities(grad_sq, u, eps: float):
    """(mu, xi) on the nodes of grad_sq = |grad u|^2 and u: the one formula
    of the two densities. It is elementwise, so on any nodes they have the
    bits of the whole grid's."""
    half = 0.5 * eps * grad_sq
    w = double_well(u) / eps
    mu = half + w
    half -= w  # now xi
    return mu, half


@dataclass(frozen=True)
class DensityFields:
    """|grad u|^2 of one state, read-only: the one grid array a state
    caches. Readers form mu, xi (`on`) and |grad u| = sqrt(grad_sq) from it
    and u on the nodes they read: a slab, the nodes a ball gathers, two
    grid planes, the corners of a line's interpolation stencil. `mu`, `xi`
    and `grad_mag` build them whole, on every access, for callers outside
    the package."""

    u: ScalarField
    epsilon: float
    grad_sq: np.ndarray

    def on(self, idx):
        """(mu, xi) on the nodes idx (any index of a grid-shaped array)."""
        return energy_densities(self.grad_sq[idx], self.u.values[idx],
                                self.epsilon)

    def lazy_mu(self) -> _LazyField:
        """mu as a field formed on the nodes it is read on."""
        return _LazyField(self.u.grid, lambda idx: self.on(idx)[0])

    @property
    def mu(self) -> ScalarField:
        return ScalarField._adopt(self.u.grid, self.on(...)[0])

    @property
    def xi(self) -> ScalarField:
        return ScalarField._adopt(self.u.grid, self.on(...)[1])

    @property
    def grad_mag(self) -> ScalarField:
        return ScalarField._adopt(self.u.grid, np.sqrt(self.grad_sq))


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


def density_fields(state: PhaseFieldState) -> DensityFields:
    """|grad u|^2 of the state, built a slab of axis-0 planes at a time,
    and with it mu, xi and |grad u|.

    Computed once per state; later calls return the same object.
    """
    return state.derived("density_fields", lambda: _density_fields(state))


def _density_fields(state: PhaseFieldState) -> DensityFields:
    g, u = state.grid, state.u.values

    def fill(sl):
        part = _gradient_planes(u, g, sl)
        return (np.sum(part * part, axis=0),)

    grad_sq = _stream(g, fill, 1)[0]
    grad_sq.setflags(write=False)
    return DensityFields(u=state.u, epsilon=state.epsilon, grad_sq=grad_sq)


def _finite(*sums):
    """The sums, refused like a field of their integrand's values would be
    if one is not finite."""
    if not np.all(np.isfinite(sums)):
        raise ValueError("field values must be finite")
    return sums


def _curvature_quotient(grad_mag, f, eps: float, threshold: float):
    """On the nodes of the arrays given: |f|/(eps|grad u|) where
    eps|grad u| >= threshold (0 elsewhere, and where a zero gradient makes
    it non-finite), the eps|grad u|^2 mass, and the inclusion mask."""
    eps_grad = eps * grad_mag
    mass = eps * grad_mag ** 2
    included = eps_grad >= threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(included, np.abs(f) / eps_grad, 0.0)
    quotient = np.where(np.isfinite(quotient), quotient, 0.0)
    return quotient, mass, included


def diffuse_mean_curvature_norm(state: PhaseFieldState, params: AnalysisParams):
    """L^q0 norm integral of |f|/(eps|grad u|) against eps|grad u|^2 dx.

    The quotient is evaluated only on cells with eps|grad u| above the
    threshold; the eps|grad u|^2 mass carried by excluded cells is reported
    as a fraction of the total so silent truncation is visible.
    """
    q0 = params.resolve_q0(state.grid.ndim)
    g = state.grid
    grad_sq, f = density_fields(state).grad_sq, state.f.values

    def integrands(sl):
        quotient, mass, included = _curvature_quotient(
            np.sqrt(grad_sq[sl]), f[sl], state.epsilon, params.grad_threshold)
        return quotient ** q0 * mass, mass, np.where(included, 0.0, mass)

    lam, total_mass, excl = _finite(*_integrals(g, integrands))
    fraction = excl / total_mass if total_mass > 0 else 0.0
    return lam, fraction


def norm_report(state: PhaseFieldState,
                params: AnalysisParams = AnalysisParams()) -> NormReport:
    """Assemble all scalar diagnostics of a state in one pass."""
    g = state.grid
    eps = state.epsilon
    dens = density_fields(state)
    lam, fraction = diffuse_mean_curvature_norm(state, params)
    f = state.f.values

    def integrands(sl):
        mu, xi = dens.on(sl)
        return np.abs(xi), f[sl] ** 2, mu, np.maximum(xi, 0.0)

    xi_abs, f_sq, energy, xi_plus_mass = _integrals(g, integrands)
    _finite(xi_abs, f_sq)
    return NormReport(
        total_energy=energy,
        sup_u=max(float(np.max(np.abs(state.u.values[sl])))
                  for sl in _slabs(g)),
        lambda_hat=lam,
        # sqrt is monotone, so sqrt(max) is the max of |grad u|
        sup_eps_grad=float(eps * np.sqrt(np.max(dens.grad_sq))),
        xi_plus_mass=xi_plus_mass,
        xi_abs_mass=xi_abs,
        f_l2_over_eps=f_sq / eps,
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
    quadrature, so any violation indicates a quadrature bug; `holds` is
    decided at the scale max|f| = 1 where the reported sides underflow.
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
    lhs, _ = diffuse_mean_curvature_norm(state, replace(params, q0=q0))
    grad_sq, f = density_fields(state).grad_sq, state.f.values

    def powers(sl):
        quotient, _, _ = _curvature_quotient(np.sqrt(grad_sq[sl]), f[sl], eps,
                                             params.grad_threshold)
        return np.abs(f[sl]) ** s, quotient ** t

    f_s, quotient_t = _integrals(g, powers)
    c1 = f_s ** (1.0 / s) / np.sqrt(eps)
    c2 = quotient_t ** (1.0 / t)
    rhs = c1 ** 2 * c2 ** (q0 - 2.0)
    holds = bool(lhs <= rhs * (1.0 + 1e-9))
    if not holds:
        # a tiny f can underflow the powers of |f| and of the quotient to 0;
        # the chain is homogeneous of degree q0 in f, so decide it again
        # for f / max|f| (only the comparison is kept)
        peak = max(float(np.max(np.abs(f[sl]))) for sl in _slabs(g))

        def scaled_powers(sl):
            scaled = f[sl] / peak
            quotient, mass, _ = _curvature_quotient(
                np.sqrt(grad_sq[sl]), scaled, eps, params.grad_threshold)
            return (quotient ** q0 * mass, np.abs(scaled) ** s,
                    quotient ** t)

        lam, f_s, quotient_t = _integrals(g, scaled_powers)
        holds = bool(lam <= f_s ** (2.0 / s) / eps
                     * quotient_t ** ((q0 - 2.0) / t) * (1.0 + 1e-9))
    return HolderCheck(lhs=float(lhs), rhs=float(rhs), holds=holds,
                       q0=q0, c1=float(c1), c2=float(c2))


@dataclass(frozen=True)
class FirstVariationResult:
    lhs: float
    rhs: float
    residual: float
    forcing_term: float
    discrepancy_term: float


def first_variation_identity(state: PhaseFieldState, eta,
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

    eta, a VectorField or a SmoothTestField, is read one slab of axis-0
    planes at a time. On a zero-flux grid it must vanish (to 1e-12 of its
    peak) on the nodes closer than 4h to a face.
    """
    g = state.grid
    if eta.grid != g:
        raise ValueError("eta must live on the state's grid")
    dens = density_fields(state)
    u, f = state.u.values, state.f.values
    carry = None  # eta on the last two planes read
    # max |eta| over the nodes read, and over those of them closer than 4h
    # to a face: the 4 outermost layers on each side of each axis
    peak = shell = 0.0

    def identity_terms(sl):
        nonlocal carry, peak, shell
        # eta on the planes sl and one past each end, each plane read once
        idx = _halo(g, sl)
        halo = (eta.planes(idx) if carry is None else
                np.concatenate((carry, eta.planes(idx[2:])), axis=1))
        carry, core = halo[:, -2:], halo[:, 1:-1]  # core: eta on sl
        if g.boundary != PERIODIC:
            n = g.points[0]
            strips = [core[:, :max(4 - sl.start, 0)],
                      core[:, max(n - 4 - sl.start, 0):]]
            for ax in range(2, core.ndim):  # the transverse grid axes
                m = np.moveaxis(core, ax, 0)
                strips += [m[:4], m[-4:]]
            # max |eta| as max(max, -min): no slab-sized |eta| is built
            top = [max(float(a.max()), -float(a.min()))
                   for a in (core, *strips) if a.size]
            peak, shell = max(peak, top[0]), max([shell, *top[1:]])
        # the mask eps|grad u| >= threshold and the unit normal on it (0
        # elsewhere, and where grad u = 0)
        grad_u = _gradient_planes(u, g, sl)
        grad_mag = np.sqrt(dens.grad_sq[sl])
        included = state.epsilon * grad_mag >= params.grad_threshold
        nu = np.divide(grad_u, grad_mag,
                       out=np.zeros((g.ndim,) + grad_mag.shape),
                       where=included & (grad_mag > 0))
        # one derivative axis i at a time, so only d_i eta is ever held;
        # the sums keep the order and the products of div_eta = sum_j
        # d_j eta_j and grad_eta_nunu = sum_i sum_j (d_i eta_j nu_i) nu_j
        div_eta = np.zeros(nu.shape[1:])
        grad_eta_nunu = np.zeros(nu.shape[1:])
        d_eta = np.empty_like(nu)
        for i in range(g.ndim):  # d_eta[j] = d_i eta_j
            if i == 0:  # the central difference of _central_difference
                np.subtract(halo[:, 2:], halo[:, :-2], out=d_eta)
                d_eta /= 2.0 * g.h
            else:
                _central_difference(core, g, i, d_eta)
            div_eta += d_eta[i]
            d_eta *= nu[i]
            d_eta *= nu  # d_eta[j] = (d_i eta_j nu_i) nu_j
            for term in d_eta:
                grad_eta_nunu += term
        div_eta -= grad_eta_nunu
        mu, xi = dens.on(sl)
        div_eta *= mu  # now (div_eta - grad_eta_nunu) mu
        grad_eta_nunu *= xi
        pairing = sum(grad_u[i] * core[i] for i in range(g.ndim))
        return (np.where(included, div_eta, 0.0),
                np.where(included, grad_eta_nunu, 0.0), f[sl] * pairing)

    lhs, disc, forcing = _integrals(g, identity_terms)
    if shell > 1e-12 * peak:
        raise ValueError("eta must vanish within 4h of the domain boundary")
    rhs = forcing + disc
    residual = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
    return FirstVariationResult(lhs=lhs, rhs=rhs, residual=residual,
                                forcing_term=forcing, discrepancy_term=disc)


def eta_lq_norm(state: PhaseFieldState, eta, q: float) -> float:
    """||eta||_{L^q(mu)} with |eta| the Euclidean norm, used by the duality
    bound on the first variation. q = inf gives the mu-essential sup: the
    max of |eta| over nodes carrying mu mass. eta is read one slab of
    axis-0 planes at a time, as by first_variation_identity."""
    g, dens = state.grid, density_fields(state)

    def magnitude(sl):
        # |eta|^2 summed a component at a time, in the order np.sum(axis=0)
        # adds
        part = eta.planes(sl)
        mag = part[0] ** 2
        for comp in part[1:]:
            mag += comp ** 2
        return np.sqrt(mag, out=mag)

    if np.isinf(q):
        return max(float(np.max(magnitude(sl),
                                 where=dens.on(sl)[0] * g.node_weights(sl) > 0,
                                 initial=0.0)) for sl in _slabs(g))
    total, = _integrals(g, lambda sl: (magnitude(sl) ** q * dens.on(sl)[0],))
    return total ** (1.0 / q)


def bump_half_widths(grid) -> list[float]:
    """Half-widths of the test field's bump on each axis: half the extent
    less a 5h margin. Refuses a grid on which one is not positive; on an
    isotropic grid that depends on the point counts only."""
    halves = [0.5 * ext - 5.0 * grid.h for ext in grid.extent]
    if any(hw <= 0 for hw in halves):
        raise ValueError("grid too small for a compactly supported test field")
    return halves


class SmoothTestField:
    """A pseudo-random smooth vector field vanishing near the boundary,
    evaluated on demand on any axis-0 grid planes, so that it need never be
    held whole; `smooth_test_field` builds it whole.

    Each component is a C-infinity bump times a low-order trigonometric
    polynomial with seeded coefficients, so the field is reproducible and
    the 4h compact-support precondition holds by construction. Every factor
    depends on one coordinate and is tabulated once on its axis (in
    broadcastable shape); `planes` multiplies them out.
    """

    def __init__(self, grid, seed: int):
        halves = bump_half_widths(grid)
        rng = np.random.default_rng(seed)
        centers = [0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi)]
        self.grid = grid
        self._bumps, scaled = [], []
        for m, c, hw in zip(grid.meshgrid(sparse=True), centers, halves):
            s = (m - c) / hw
            scaled.append(s)
            inside = np.abs(s) < 1.0
            with np.errstate(divide="ignore", over="ignore"):
                self._bumps.append(np.where(
                    inside, np.exp(1.0 - 1.0 / np.maximum(1.0 - s * s, 1e-300)),
                    0.0))
        # per component: a constant, then a sin and a cos term per axis
        self._terms = [(rng.uniform(-1.0, 1.0),
                        [rng.uniform(-1.0, 1.0) * trig(np.pi * s)
                         for s in scaled for trig in (np.sin, np.cos)])
                       for _ in range(grid.ndim)]

    def planes(self, idx) -> np.ndarray:
        """The components on the axis-0 grid planes idx (a slice or an
        index array)."""
        def on(table):  # only a factor of axis 0 varies with the plane
            return table[idx] if table.shape[0] > 1 else table

        bump = np.ones(())
        for b in self._bumps:
            bump = bump * on(b)
        out = np.empty((self.grid.ndim,) + bump.shape)
        for comp, (poly, tables) in zip(out, self._terms):
            for table in tables[:-2]:
                poly = poly + on(table)
            # the last axis's terms fill the planes: add them, and the
            # bump, in place in the component
            np.add(poly, on(tables[-2]), out=comp)
            comp += on(tables[-1])
            np.multiply(bump, comp, out=comp)
        return out


def smooth_test_field(grid, seed: int) -> VectorField:
    """The SmoothTestField of the seed, built whole."""
    return VectorField._adopt(
        grid, SmoothTestField(grid, seed).planes(slice(None)))

