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

import operator
from dataclasses import dataclass

import numpy as np

from .fields import (PERIODIC, VectorField, _central_difference,
                     _check_finite, _check_supersample, _ghosts,
                     _grad_sq_at, _gradient_box, _integrals, _PairwiseSums,
                     _slabs, _square_sum, _weighted_slabs)
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
        _check_supersample(self.supersample)

    def resolve_q0(self, ndim: int) -> float:
        q0 = float(self.q0) if self.q0 is not None else float(ndim)
        # at least 1, so that firstvar's conjugate exponent is too
        if not q0 > ndim - 1 or q0 < 1.0:
            raise ValueError(f"q0={q0} must exceed n={ndim - 1} and be >= 1")
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


def density_fields(state: PhaseFieldState, idx=...):
    """(mu, xi) of the state on the nodes idx, formed there from u and
    |grad u|^2 and never kept. idx is a node shape of
    `fields._grad_sq_at`: a slice of axis-0 planes, `...` (the whole grid)
    or a tuple of integer index arrays; another raises IndexError."""
    u = state.u.values
    return energy_densities(_grad_sq_at(u, state.grid, idx), u[idx],
                            state.epsilon)


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
    """(Lambda_hat, excluded mass fraction) of the state's norm report:
    the L^q0 norm integral of |f|/(eps|grad u|) against eps|grad u|^2 dx.

    The quotient is evaluated only on cells with eps|grad u| above the
    threshold; the eps|grad u|^2 mass carried by excluded cells is reported
    as a fraction of the total so silent truncation is visible.
    """
    report = norm_report(state, params)
    return report.lambda_hat, report.excluded_mass_fraction


def norm_report(state: PhaseFieldState,
                params: AnalysisParams = AnalysisParams()) -> NormReport:
    """Assemble all scalar diagnostics of a state in one pass, once per
    state and params."""
    return state.derived(("norm_report", params),
                         lambda: _norm_report(state, params))


def _norm_report(state: PhaseFieldState, params: AnalysisParams) -> NormReport:
    """One walk over the slabs: |grad u|^2 is formed once per slab, and
    with it the integrands of the report, and the slab's max |u| and max
    |grad u|^2. The curvature norm's are quotient^q0 times the
    eps|grad u|^2 mass, the mass, and the mass the threshold excludes."""
    g, eps = state.grid, state.epsilon
    q0 = params.resolve_q0(g.ndim)
    u, f = state.u.values, state.f.values
    sups = []  # per slab: max |u|, max |grad u|^2

    def integrands(sl):
        grad_sq = _grad_sq_at(u, g, sl)
        sups.append((np.max(np.abs(u[sl])), np.max(grad_sq)))
        mu, xi = energy_densities(grad_sq, u[sl], eps)
        quotient, mass, included = _curvature_quotient(
            np.sqrt(grad_sq), f[sl], eps, params.grad_threshold)
        return (np.abs(xi), f[sl] ** 2, mu, np.maximum(xi, 0.0),
                quotient ** q0 * mass, mass, np.where(included, 0.0, mass))

    with np.errstate(over="ignore"):  # the sums are refused by name below
        xi_abs, f_sq, energy, xi_plus_mass, lam, mass, excl = _integrals(
            g, integrands)
    _check_finite(lambda_hat=lam, eps_grad_sq_mass=mass, excluded_mass=excl,
                  xi_abs_mass=xi_abs, f_sq_integral=f_sq)
    sup_u, sup_grad_sq = map(max, zip(*sups))
    return NormReport(
        total_energy=energy,
        sup_u=float(sup_u),
        lambda_hat=lam,
        # sqrt is monotone, so sqrt(max) is the max of |grad u|
        sup_eps_grad=float(eps * np.sqrt(sup_grad_sq)),
        xi_plus_mass=xi_plus_mass,
        xi_abs_mass=xi_abs,
        f_l2_over_eps=f_sq / eps,
        excluded_mass_fraction=excl / mass if mass > 0 else 0.0,
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
    if not 2 < s < np.inf:
        raise ValueError("s must exceed 2 and be finite")
    if not 0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    g = state.grid
    q0 = t * (s - 2.0) / s + 2.0
    n = g.ndim - 1
    if not q0 > n:
        raise ValueError(f"resulting q0={q0} must exceed n={n}")
    eps = state.epsilon
    u, f = state.u.values, state.f.values

    def powers(scale):
        """The integrals of quotient^q0 * mass (Lambda_hat), |f/scale|^s
        and quotient^t, the quotient formed from f/scale."""
        def integrands(sl):
            scaled = f[sl] / scale
            quotient, mass, _ = _curvature_quotient(
                np.sqrt(_grad_sq_at(u, g, sl)), scaled, eps,
                params.grad_threshold)
            return (quotient ** q0 * mass, np.abs(scaled) ** s,
                    quotient ** t)
        return _integrals(g, integrands)

    # f / 1.0 is f, bit for bit; a side that overflows is a non-finite
    # value, refused (lhs) or reported as it is (rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, f_s, quotient_t = powers(1.0)
        _check_finite(holder_lhs=lhs)
        c1 = f_s ** (1.0 / s) / np.sqrt(eps)
        c2 = quotient_t ** (1.0 / t)
        rhs = c1 ** 2 * c2 ** (q0 - 2.0)
    holds = bool(lhs <= rhs * (1.0 + 1e-9))
    if not holds:
        # a tiny f can underflow the powers of |f| and of the quotient to 0;
        # the chain is homogeneous of degree q0 in f, so decide it again
        # for f / max|f| (only the comparison is kept)
        peak = max(float(np.max(np.abs(f[sl]))) for sl in _slabs(g))
        lam, f_s, quotient_t = powers(peak)
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
    planes at a time, by the walk of `first_variations`. On a zero-flux
    grid it must vanish (to 1e-12 of its peak) on the nodes closer than 4h
    to a face.
    """
    return first_variations(state, [eta], params)[0][0]


# test fields per walk of first_variations: each holds two planes of its
# own between slabs
_WALK_FIELDS = 8


def first_variations(state: PhaseFieldState, etas,
                     params: AnalysisParams = AnalysisParams(), q=None):
    """(first_variation_identity(state, eta, params), eta_lq_norm(state,
    eta, q) or None without q) for each eta, with their bits, from one walk
    over the slabs per _WALK_FIELDS fields.

    Each slab's state factors (grad u, and from it |grad u|^2, the mask,
    nu, mu and xi) are formed once, and each field's planes once: a field
    keeps the two planes its next slab's axis-0 difference reads. A
    field's integrands are summed by its own _PairwiseSums, so one field's
    are held at a time, and the slabs shrink with the number of fields
    (see _slabs). A field that does not vanish within 4h of a zero-flux
    face (`_off_support`) is refused before any walk."""
    g = state.grid
    if any(eta.grid != g for eta in etas):
        raise ValueError("eta must live on the state's grid")
    if g.boundary != PERIODIC and any(map(_off_support, etas)):
        raise ValueError("eta must vanish within 4h of the domain boundary")
    u, f = state.u.values, state.f.values
    out = []
    for lo in range(0, len(etas), _WALK_FIELDS):
        walks = [_FieldWalk(eta, g, q)
                 for eta in etas[lo:lo + _WALK_FIELDS]]
        for sl, w in _weighted_slabs(g, len(walks)):
            # the mask eps|grad u| >= threshold and the unit normal on it
            # (0 elsewhere, and where grad u = 0)
            grad_u = _gradient_box(u, g, (sl,))
            grad_sq = _square_sum(grad_u)
            grad_mag = np.sqrt(grad_sq)
            included = state.epsilon * grad_mag >= params.grad_threshold
            nu = np.divide(grad_u, grad_mag,
                           out=np.zeros((g.ndim,) + grad_mag.shape),
                           where=included & (grad_mag > 0))
            mu, xi = energy_densities(grad_sq, u[sl], state.epsilon)
            excluded = ~included
            for walk in walks:
                walk.add(sl, w, grad_u, excluded, nu, mu, xi, f[sl])
        out += [walk.results() for walk in walks]
    return out


def _off_support(eta) -> bool:
    """Whether eta fails to vanish, to 1e-12 of its peak, on the 4 outer
    node layers of each axis, closer than 4h to a face: a SmoothTestField's
    bump tables are 0 there by construction; a VectorField's max |eta| is
    max(max, -min) of its values, so that no |eta| is built."""
    shell = [slice(4), slice(-4, None)]
    if isinstance(eta, SmoothTestField):
        return any(np.any(b.ravel()[k]) for b in eta._bumps for k in shell)

    def top(a):
        return max(float(a.max()), -float(a.min()))
    v = eta.values
    return max(top(np.moveaxis(v, ax, 0)[k]) for ax in range(1, v.ndim)
               for k in shell) > 1e-12 * top(v)


class _FieldWalk:
    """One test field's share of a walk of `first_variations`: its planes
    carried between slabs and the sums of its three identity integrands
    and of its L^q(mu) integrand."""

    def __init__(self, eta, grid, q):
        self.eta, self.grid = eta, grid
        self.carry = None  # eta on the last two planes read
        self.sums = _PairwiseSums(int(np.prod(grid.shape)))
        self.norm = None if q is None else _LqNorm(q)

    def add(self, sl, w, grad_u, excluded, nu, mu, xi, f):
        g, eta = self.grid, self.eta
        # eta on the planes sl and one past each end, each plane read once
        idx = _ghosts(g, 0, np.arange(sl.start - 1, sl.stop + 1))
        halo = (eta.planes(idx) if self.carry is None else
                np.concatenate((self.carry, eta.planes(idx[2:])), axis=1))
        self.carry, core = None, halo[:, 1:-1]  # core: eta on sl
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
        del d_eta
        div_eta -= grad_eta_nunu
        div_eta *= mu  # now (div_eta - grad_eta_nunu) mu
        grad_eta_nunu *= xi
        # 0 off the mask, as np.where(included, ..., 0.0) gives
        np.copyto(div_eta, 0.0, where=excluded)
        np.copyto(grad_eta_nunu, 0.0, where=excluded)
        pairing = sum(grad_u[i] * core[i] for i in range(g.ndim))
        pairing *= f
        terms = [div_eta, grad_eta_nunu, pairing]
        if self.norm is not None:
            terms += self.norm.integrand(core, mu)
        for v in terms:
            v *= w  # the node weights, as _integrals weighs
        self.sums.add(terms)
        # a copy, made last: a view would keep the whole halo
        self.carry = halo[:, -2:].copy()

    def results(self):
        lhs, disc, forcing, *lq = self.sums.sums()
        rhs = forcing + disc
        residual = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
        return (FirstVariationResult(lhs=lhs, rhs=rhs, residual=residual,
                                     forcing_term=forcing,
                                     discrepancy_term=disc),
                None if self.norm is None else self.norm.value(*lq))


class _LqNorm:
    """||eta||_{L^q(mu)}, |eta| the Euclidean norm, from eta's and mu's
    values on consecutive slabs: the integral of |eta|^q mu, or for q = inf
    the max of |eta| over nodes carrying mu mass."""

    def __init__(self, q: float):
        if not q >= 1.0:
            raise ValueError(f"q must be >= 1 (inf for the sup), got {q}")
        self.q, self.sups = q, []

    def integrand(self, part, mu):
        """(|eta|^q mu,) on the slab, for the caller to integrate; for
        q = inf (), and the slab's max over nodes with mu > 0 is kept (a
        node weight is never 0, so these are the nodes carrying mass)."""
        mag = _square_sum(part)
        np.sqrt(mag, out=mag)
        if not np.isinf(self.q):
            # a large q may overflow: the infinite norm is reported, and
            # the CSV flags it
            with np.errstate(over="ignore"):
                np.power(mag, self.q, out=mag)
            mag *= mu
            return (mag,)
        self.sups.append(float(np.max(mag, where=mu > 0, initial=0.0)))
        return ()

    def value(self, total=None) -> float:
        """The norm from the integral of the integrands (q finite)."""
        return max(self.sups) if total is None else total ** (1.0 / self.q)


def eta_lq_norm(state: PhaseFieldState, eta, q: float) -> float:
    """||eta||_{L^q(mu)} with |eta| the Euclidean norm, used by the duality
    bound on the first variation. q = inf gives the mu-essential sup: the
    max of |eta| over nodes carrying mu mass. eta is read one slab of
    axis-0 planes at a time; `first_variations` forms the same integrand
    in its walk."""
    norm = _LqNorm(q)
    return norm.value(*_integrals(state.grid, lambda sl: norm.integrand(
        eta.planes(sl), density_fields(state, sl)[0])))


def bump_half_widths(grid) -> list[float]:
    """Half-widths of the test field's bump on each axis: half the extent
    less a 5h margin. Refuses a grid on which one is not positive; on an
    isotropic grid that depends on the point counts only."""
    halves = [0.5 * ext - 5.0 * grid.h for ext in grid.extent]
    if any(hw <= 0 for hw in halves):
        raise ValueError("grid too small for a compactly supported test field")
    return halves


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _PCG64:
    """The stream of `np.random.default_rng(seed)`, drawn without importing
    numpy.random: NumPy's SeedSequence (pool of four 32-bit words, NEP 19)
    seeds PCG64 (XSL-RR 128/64, O'Neill 2014), and `uniform` maps 53 bits
    of each 64-bit output to [low, high) as numpy does, bit for bit."""

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        words = [seed >> k & _M32
                 for k in range(0, max(seed.bit_length(), 1), 32)]
        const = 0x43B0D7E5

        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & _M32
            value = value * const & _M32
            return value ^ value >> 16

        def mix(x, y):
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight 32-bit words, paired low first
        const, out = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & _M32
            value = value * const & _M32
            out.append(value ^ value >> 16)
        s0, s1, s2, s3 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
        # pcg64_set_seed: state 0, step, add the initial state, step
        self._inc = (s2 << 64 | s3) << 1 & _M128 | 1
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT
                       + self._inc) & _M128

    def next64(self) -> int:
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self.next64() >> 11) * 2.0 ** -53)


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
        rng = _PCG64(seed)
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

