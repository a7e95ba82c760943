"""A named corpus of reproducible experiment configurations.

Each scenario binds a grid, an epsilon list, a profile recipe, and analysis
parameters; build() turns it into one state per epsilon, deterministically.
Manufactured profiles carry residual zero by construction; solved profiles
carry the solver tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, ScalarField, ZERO_FLUX, _check_finite
from .measures import AnalysisParams
from .phasefield import (LayerSpec, PhaseFieldState, SolverError,
                         build_layer_stack, build_radial_layer,
                         check_layer_fit, constants, make_state,
                         manufactured_forcing, resolution_floor,
                         signed_distance_ball, solve_stationary,
                         under_resolved)


class ScenarioError(RuntimeError):
    """A scenario cannot build, or failed to; carries scenario context."""


def _finite_fields(profile):
    """A profile's __post_init__: refuse a non-finite number by its field."""
    _check_finite(**vars(profile))


@dataclass(frozen=True)
class RadialProfile:
    center: tuple[float, ...]
    radius: float
    __post_init__ = _finite_fields


@dataclass(frozen=True)
class ConstantProfile:
    value: float
    __post_init__ = _finite_fields


@dataclass(frozen=True)
class SolvedBubbleProfile:
    """Newton solve with constant forcing balanced so a radius-R bubble is
    stationary (f = n alpha/(2R), with n = ndim - 1 the sphere's mean
    curvature times R); initial guess is the shifted tanh bubble. A solve
    that leaves the bubble is refused (see `_check_bubble`).

    The solved states carry a genuinely epsilon-scaled discrepancy, unlike
    manufactured tanh profiles whose continuum discrepancy vanishes.
    """

    center: tuple[float, ...]
    radius: float
    __post_init__ = _finite_fields


@dataclass(frozen=True)
class SolvedFromForcingProfile:
    """Newton solve against the manufactured forcing of the radial tanh
    layer of `center` and `radius` (the RadialProfile's field), from that
    field plus seeded noise uniform on [-a, a), a = `noise_amplitude`
    (`_guess_noise`)."""

    center: tuple[float, ...]
    radius: float
    noise_amplitude: float = 0.01
    __post_init__ = _finite_fields


Profile = (LayerSpec, RadialProfile, ConstantProfile,
           SolvedBubbleProfile, SolvedFromForcingProfile)
# the profiles of one interface around a center
_BALLS = (RadialProfile, SolvedBubbleProfile, SolvedFromForcingProfile)
# accepted steps a solved profile's Newton solve may take to reach its tol
_SOLVER_MAX_ITER = 80


def check_epsilon_labels(epsilons):
    """Refuse two epsilons that print alike: a run keys each epsilon's
    results by its label f"{eps:g}" (`norms` rows, summary values and
    flags), so one epsilon's results would hide the other's. Raises
    ValueError naming both."""
    labels = [f"{eps:g}" for eps in epsilons]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(
                f"epsilons {epsilons[labels.index(label)]!r} and "
                f"{epsilons[i]!r} share the label eps={label}")


@dataclass(frozen=True)
class Scenario:
    name: str
    grid: Grid
    epsilons: tuple[float, ...]
    profile: object
    params: AnalysisParams = field(default_factory=AnalysisParams)
    seed: int = 0

    def __post_init__(self):
        """Refuses a bad argument with a ValueError that names it;
        ScenarioError is left to a scenario that cannot build."""
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValueError(f"{self.name}: epsilons holds no epsilon")
        if not all(0 < e < math.inf for e in eps):
            raise ValueError(
                f"{self.name}: epsilon must be positive and finite")
        try:
            check_epsilon_labels(eps)
        except ValueError as exc:
            raise ValueError(f"{self.name}: {exc}") from None
        h = self.grid.h
        for e in eps:
            if h > e / 4.0 + 1e-12 * h:
                raise ValueError(f"{self.name}: " + under_resolved(
                    "epsilon", e, "eps >= 4h", 4.0 * h))
        if not isinstance(self.profile, Profile):
            raise ValueError(f"{self.name}: {type(self.profile).__name__} "
                             "is not a profile class")
        object.__setattr__(self, "epsilons", eps)


def _check_bubble_grid(scenario: Scenario):
    """A solved bubble needs a curved interface (2 or 3 grid axes) and a
    sphere with nodes on both sides. The node box's farthest and nearest
    points to the centre bound every node's `signed_distance_ball` from
    above and below in the same arithmetic, so a sphere is refused only
    when every node lies inside it (distance < 0) or none does."""
    g, prof = scenario.grid, scenario.profile
    if g.ndim < 2:
        raise ScenarioError(
            f"scenario {scenario.name!r}: a solved bubble needs a 2-d or "
            "3-d grid; in 1-d there is no curvature to balance")
    near = far = 0.0
    for c, lo, n in zip(prof.center, g.lo, g.points):
        hi = lo + g.h * (n - 1)  # the last node, as Grid.axis_coords has it
        ends = ((lo - c) * (lo - c), (hi - c) * (hi - c))
        near += 0.0 if lo <= c <= hi else min(ends)
        far += max(ends)
    inside = math.sqrt(far) - prof.radius < 0.0
    if inside or not math.sqrt(near) - prof.radius < 0.0:
        raise ScenarioError(
            f"scenario {scenario.name!r}: every grid node lies "
            f"{'inside' if inside else 'outside'} the bubble of radius "
            f"{prof.radius:g}, so the grid holds no interface to solve for")


def check_bubble_radius(scenario: Scenario):
    """A solved bubble of radius at most 2.5 eps loses its interface in the
    Newton solve (in 2-d at eps 0.05-0.1 on 129^2 and 161^2, and in 3-d at
    eps 0.1 on 81^3, R = 2.5 eps failed), so it is refused at every
    epsilon before an array is built."""
    radius = scenario.profile.radius
    for eps in scenario.epsilons:
        if radius <= 2.5 * eps:
            raise ScenarioError(
                f"scenario {scenario.name!r}: a solved bubble of radius "
                f"{radius:g} loses its interface at eps={eps:g}; the radius "
                "must exceed 2.5 eps")


def check_buildable(scenario: Scenario):
    """The scalar preconditions of build(), checked without building an
    array: a stack's layers must fit the grid at every epsilon, and a
    solved bubble needs a curved interface (2 or 3 grid axes) that crosses
    the grid, of radius above 2.5 eps. Raises ScenarioError."""
    prof = scenario.profile
    if isinstance(prof, SolvedBubbleProfile):
        _check_bubble_grid(scenario)
        check_bubble_radius(scenario)
    if not isinstance(prof, LayerSpec):
        return
    for eps in scenario.epsilons:
        try:
            check_layer_fit(scenario.grid, eps, prof)
        except ValueError as exc:
            raise ScenarioError(f"scenario {scenario.name!r} cannot build "
                                f"at eps={eps:g}: {exc}") from exc


def _analytic_field(grid: Grid, eps: float, profile) -> ScalarField:
    """The field of a manufactured profile."""
    if isinstance(profile, LayerSpec):
        return build_layer_stack(grid, eps, profile)
    if isinstance(profile, RadialProfile):
        return build_radial_layer(grid, eps, profile.center, profile.radius)
    return ScalarField(grid, np.full(grid.shape, float(profile.value)))


def _guess_noise(shape: tuple, seed: int, amplitude: float) -> np.ndarray:
    """Noise uniform on [-amplitude, amplitude) for a solved guess: node k
    (in flat order) takes the k-th output of SplitMix64 (Steele, Lea &
    Flood 2014) seeded with `seed`, a hash of (seed, k) formed on uint64
    arrays, whose arithmetic wraps modulo 2^64 without the warning numpy
    scalars give. Its top 53 bits, an integer j < 2^53, map exactly to
    j/2^52 - 1 in [-1, 1), whose product with the amplitude rounds below
    it. Needs no `numpy.random`."""
    z = np.arange(1, math.prod(shape) + 1, dtype=np.uint64)
    z *= 0x9E3779B97F4A7C15  # the state advances by the golden gamma
    z += seed % (1 << 64)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= mult
    z ^= z >> 31
    return (((z >> 11).astype(float) * 2.0 ** -52 - 1.0)
            * amplitude).reshape(shape)


def _build_state(scenario: Scenario, eps: float) -> PhaseFieldState:
    g = scenario.grid
    prof = scenario.profile
    if isinstance(prof, (LayerSpec, RadialProfile, ConstantProfile)):
        u = _analytic_field(g, eps, prof)
        return make_state(u, manufactured_forcing(u, eps), eps)
    if isinstance(prof, SolvedBubbleProfile):
        check_buildable(scenario)
        force = (g.ndim - 1) * constants().alpha / (2.0 * prof.radius)
        f = ScalarField._adopt(g, np.full(g.shape, force))
        # the initial guess, and the distance it is formed from, are
        # temporaries: no name holds them through the solve (see
        # `solve_stationary`), so the distance is formed again for the check
        state = solve_stationary(g, eps, f, ScalarField._adopt(
            g, np.tanh(signed_distance_ball(g, prof.center, prof.radius) / eps)
            + eps * force / 4.0), max_iter=_SOLVER_MAX_ITER)
        _check_bubble(state, signed_distance_ball(g, prof.center, prof.radius))
        return state
    # a SolvedFromForcingProfile, the last of `Profile`
    f = manufactured_forcing(
        build_radial_layer(g, eps, prof.center, prof.radius), eps)
    # the guess is a temporary, formed from the layer again, so that
    # neither is held through the solve
    return solve_stationary(g, eps, f, ScalarField._adopt(
        g, build_radial_layer(g, eps, prof.center, prof.radius).values
        + _guess_noise(g.shape, scenario.seed, prof.noise_amplitude)),
        max_iter=_SOLVER_MAX_ITER)


def _check_bubble(state: PhaseFieldState, dist: np.ndarray):
    """Refuse a solved bubble that lost its interface. A critical bubble is
    a saddle of the energy, so Newton can leave it for a uniform state or
    another radius. u must change sign, and every node farther than eps
    from the sphere (dist = |x - c| - R) must lie on the side of the zero
    level set that the initial bubble gave it: the level-set radius stays
    within eps of R."""
    u, eps = state.u.values, state.epsilon
    if not u.min() < 0.0 < u.max():
        raise SolverError(
            f"bubble solve lost its interface: u has no sign change "
            f"(range [{u.min():.3g}, {u.max():.3g}])", state.residual_norm)
    off = float(np.max(np.abs(dist[(u < 0.0) != (dist < 0.0)]), initial=0.0))
    if off > eps:
        raise SolverError(
            f"bubble solve lost its interface: the zero level set lies "
            f"{off:.3g} from radius R, beyond eps = {eps:g}",
            state.residual_norm)


def build(scenario: Scenario) -> list[PhaseFieldState]:
    """One state per epsilon; referentially transparent."""
    states = []
    for eps in scenario.epsilons:
        try:
            states.append(_build_state(scenario, eps))
        except ScenarioError:
            raise
        except Exception as exc:
            raise ScenarioError(
                f"scenario {scenario.name!r} failed at eps={eps:g}: "
                f"{type(exc).__name__}: {exc}") from exc
    return states


def _square_grid(half_extent: float, points: int) -> Grid:
    return Grid(extent=(2 * half_extent, 2 * half_extent),
                points=(points, points), boundary=ZERO_FLUX,
                origin=(-half_extent, -half_extent))


def default_center(scenario: Scenario):
    """Analysis ball center: on the first layer plane or on the interface."""
    prof = scenario.profile
    g = scenario.grid
    mid = [0.5 * (lo + hi) for lo, hi in zip(g.lo, g.hi)]
    if isinstance(prof, LayerSpec):
        c = list(mid)
        c[prof.axis % g.ndim] = prof.positions[0]
        return tuple(c)
    if isinstance(prof, _BALLS):
        c = list(prof.center)
        c[0] += prof.radius
        return tuple(c)
    return tuple(mid)


def default_radii(scenario: Scenario, eps: float, center):
    """25 uniform radii respecting the resolution floor and margins.

    The upper end is capped at 8 eps: for interface-centered balls the
    identity terms decay like (eps/r)^2 beyond that, leaving nothing but
    quadrature noise in the residual columns.
    """
    _check_finite(eps=eps, center=center)
    g = scenario.grid
    gap = min(min(c - lo for c, lo in zip(center, g.lo)),
              min(hi - c for c, hi in zip(center, g.hi)))
    r_max = min(gap - 3.0 * g.h, 8.0 * eps)
    r_min = max(resolution_floor(g, eps), 0.25 * r_max)
    if r_min >= r_max:
        raise ScenarioError(
            f"{scenario.name}: domain too small for a radius range")
    return np.linspace(r_min, r_max, 25)


def default_lines(scenario: Scenario, eps: float):
    """Sampling lines: radial fans for interfaces with a center, axis lines
    at node-aligned transverse offsets for planar stacks."""
    from .quantization import Line

    g = scenario.grid
    prof = scenario.profile
    if isinstance(prof, _BALLS):
        center = np.asarray(prof.center)
        reach = min(min(hi - c for c, hi in zip(center, g.hi)),
                    min(c - lo for c, lo in zip(center, g.lo)))
        t_hi = reach - 3.0 * g.h
        count = max(9, int(round(t_hi / (0.5 * g.h))))
        if g.ndim == 1:
            dirs = [(1.0,), (-1.0,)]
        elif g.ndim == 2:
            angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
            dirs = [(np.cos(a), np.sin(a)) for a in angles]
        else:
            dirs = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                    (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)]
        return [Line(base=tuple(center), direction=d, t_lo=0.0, t_hi=t_hi,
                     samples=count) for d in dirs]
    axis = (prof.axis % g.ndim if isinstance(prof, LayerSpec)
            else g.ndim - 1)
    t_lo = g.lo[axis] + 3.0 * g.h
    t_hi = g.hi[axis] - 3.0 * g.h
    samples = int(round((t_hi - t_lo) / g.h)) + 1
    direction = tuple(1.0 if ax == axis else 0.0 for ax in range(g.ndim))
    transverse = [ax for ax in range(g.ndim) if ax != axis]
    if not transverse:
        bases = [tuple(0.0 for _ in range(g.ndim))]
    else:
        tax = transverse[0]
        span = 0.3 * (g.hi[tax] - g.lo[tax])
        mid = 0.5 * (g.lo[tax] + g.hi[tax])
        vals = [g.lo[tax] + round((mid + span * k - g.lo[tax]) / g.h) * g.h
                for k in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        bases = []
        for v in vals:
            b = [0.5 * (lo + hi) for lo, hi in zip(g.lo, g.hi)]
            b[tax] = v
            b[axis] = 0.0
            bases.append(tuple(b))
    return [Line(base=b, direction=direction, t_lo=t_lo, t_hi=t_hi,
                 samples=samples) for b in bases]


def standard_corpus() -> dict[str, Scenario]:
    """The named scenarios exercised by the acceptance suite.

    Resolutions keep h <= eps/8 at the finest epsilon of each scenario
    except the coarse 3-d sphere (h = eps/4).
    """
    corpus = {}

    corpus["planar-1"] = Scenario(
        name="planar-1", grid=_square_grid(1.0, 321), epsilons=(0.05,),
        profile=LayerSpec(positions=(0.0,), axis=1))

    corpus["stack-2"] = Scenario(
        name="stack-2", grid=_square_grid(0.5, 401), epsilons=(0.02,),
        profile=LayerSpec(positions=(-0.1, 0.1), axis=1))

    corpus["stack-3"] = Scenario(
        name="stack-3", grid=_square_grid(0.75, 601), epsilons=(0.02,),
        profile=LayerSpec(positions=(-0.2, 0.0, 0.2), axis=1))

    corpus["stack-2-1d"] = Scenario(
        name="stack-2-1d",
        grid=Grid(extent=(1.0,), points=(801,), boundary=ZERO_FLUX,
                  origin=(-0.5,)),
        epsilons=(0.02, 0.01),
        profile=LayerSpec(positions=(-0.1, 0.1), axis=0))

    corpus["stack-3-1d"] = Scenario(
        name="stack-3-1d",
        grid=Grid(extent=(1.5,), points=(1201,), boundary=ZERO_FLUX,
                  origin=(-0.75,)),
        epsilons=(0.02, 0.01),
        profile=LayerSpec(positions=(-0.2, 0.0, 0.2), axis=0))

    corpus["circle"] = Scenario(
        name="circle", grid=_square_grid(1.0, 641),
        epsilons=(0.1, 0.05, 0.025),
        profile=RadialProfile(center=(0.0, 0.0), radius=0.5))

    corpus["circle-sweep"] = Scenario(
        name="circle-sweep", grid=_square_grid(1.0, 641),
        epsilons=(0.1, 0.05, 0.025),
        profile=SolvedBubbleProfile(center=(0.0, 0.0), radius=0.5))

    corpus["sphere"] = Scenario(
        name="sphere",
        grid=Grid(extent=(2.0, 2.0, 2.0), points=(81, 81, 81),
                  boundary=ZERO_FLUX, origin=(-1.0, -1.0, -1.0)),
        epsilons=(0.1,),
        profile=RadialProfile(center=(0.0, 0.0, 0.0), radius=0.4))

    corpus["constant-zero"] = Scenario(
        name="constant-zero", grid=_square_grid(1.0, 81), epsilons=(0.1,),
        profile=ConstantProfile(0.0))

    corpus["constant-one"] = Scenario(
        name="constant-one", grid=_square_grid(1.0, 81), epsilons=(0.1,),
        profile=ConstantProfile(1.0))

    corpus["solved-circle"] = Scenario(
        name="solved-circle", grid=_square_grid(1.0, 481), epsilons=(0.05,),
        profile=SolvedFromForcingProfile(center=(0.0, 0.0), radius=0.5,
                                         noise_amplitude=0.01),
        seed=20)

    return corpus
