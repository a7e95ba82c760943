"""A named corpus of reproducible experiment configurations.

Each scenario binds a grid, an epsilon list, a profile recipe, and analysis
parameters; build() turns it into one state per epsilon, deterministically.
Manufactured profiles carry residual zero by construction; solved profiles
carry the solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, ScalarField, ZERO_FLUX
from .measures import AnalysisParams
from .phasefield import (LayerSpec, PhaseFieldState, SolverError,
                         build_layer_stack, build_radial_layer,
                         check_layer_fit, constants, make_state,
                         manufactured_forcing, signed_distance_ball,
                         solve_stationary)


class ScenarioError(RuntimeError):
    """A scenario failed to validate or build; carries scenario context."""


@dataclass(frozen=True)
class LayerStackProfile:
    positions: tuple[float, ...]
    axis: int = -1
    first_sign: int = 1


@dataclass(frozen=True)
class RadialProfile:
    center: tuple[float, ...]
    radius: float


@dataclass(frozen=True)
class ConstantProfile:
    value: float


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


@dataclass(frozen=True)
class SolvedFromForcingProfile:
    """Newton solve against the manufactured forcing of a base profile,
    from a noise-perturbed initial guess."""

    base: "RadialProfile | LayerStackProfile"
    noise_amplitude: float = 0.01


Profile = (LayerStackProfile, RadialProfile, ConstantProfile,
           SolvedBubbleProfile, SolvedFromForcingProfile)


@dataclass(frozen=True)
class Scenario:
    name: str
    grid: Grid
    epsilons: tuple[float, ...]
    profile: object
    params: AnalysisParams = field(default_factory=AnalysisParams)
    seed: int = 0
    solver_tol: float = 1e-10
    solver_max_iter: int = 80

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ScenarioError(f"{self.name}: needs at least one epsilon")
        if any(e <= 0 for e in eps):
            raise ScenarioError(f"{self.name}: epsilon must be positive")
        h = self.grid.h
        for e in eps:
            if h > e / 4.0 + 1e-12 * h:
                raise ScenarioError(
                    f"{self.name}: grid spacing h={h:g} exceeds eps/4 for eps={e:g}")
        if not isinstance(self.profile, Profile):
            raise ScenarioError(f"{self.name}: unknown profile type")
        object.__setattr__(self, "epsilons", eps)


def _layer_spec(profile: LayerStackProfile) -> LayerSpec:
    return LayerSpec(positions=profile.positions, axis=profile.axis,
                     first_sign=profile.first_sign)


def _check_bubble_grid(scenario: Scenario):
    if scenario.grid.ndim < 2:
        raise ScenarioError(
            f"scenario {scenario.name!r}: a solved bubble needs a 2-d or "
            "3-d grid; in 1-d there is no curvature to balance")


def check_buildable(scenario: Scenario):
    """The scalar preconditions of build(), checked without building an
    array: a stack's layers must fit the grid at every epsilon, and a
    solved bubble needs a curved interface (2 or 3 grid axes). Raises
    ScenarioError."""
    prof = scenario.profile
    if isinstance(prof, SolvedBubbleProfile):
        _check_bubble_grid(scenario)
    if isinstance(prof, SolvedFromForcingProfile):
        prof = prof.base
    if not isinstance(prof, LayerStackProfile):
        return
    for eps in scenario.epsilons:
        try:
            check_layer_fit(scenario.grid, eps, _layer_spec(prof))
        except ValueError as exc:
            raise ScenarioError(f"scenario {scenario.name!r} cannot build "
                                f"at eps={eps:g}: {exc}") from exc


def _base_field(grid: Grid, eps: float, profile) -> ScalarField:
    if isinstance(profile, LayerStackProfile):
        return build_layer_stack(grid, eps, _layer_spec(profile))
    if isinstance(profile, RadialProfile):
        return build_radial_layer(grid, eps, profile.center, profile.radius)
    if isinstance(profile, ConstantProfile):
        return ScalarField(grid, np.full(grid.shape, float(profile.value)))
    raise ScenarioError(f"no analytic field for profile {type(profile).__name__}")


def _build_state(scenario: Scenario, eps: float) -> PhaseFieldState:
    g = scenario.grid
    prof = scenario.profile
    if isinstance(prof, (LayerStackProfile, RadialProfile, ConstantProfile)):
        u = _base_field(g, eps, prof)
        return make_state(u, manufactured_forcing(u, eps), eps)
    if isinstance(prof, SolvedBubbleProfile):
        _check_bubble_grid(scenario)
        force = (g.ndim - 1) * constants().alpha / (2.0 * prof.radius)
        f = ScalarField(g, np.full(g.shape, force))
        dist = signed_distance_ball(g, prof.center, prof.radius)
        init = ScalarField(g, np.tanh(dist / eps) + eps * force / 4.0)
        state = solve_stationary(g, eps, f, init, tol=scenario.solver_tol,
                                 max_iter=scenario.solver_max_iter)
        _check_bubble(state, dist)
        return state
    if isinstance(prof, SolvedFromForcingProfile):
        u_star = _base_field(g, eps, prof.base)
        f = manufactured_forcing(u_star, eps)
        rng = np.random.default_rng(scenario.seed)
        init = ScalarField(
            g, u_star.values + prof.noise_amplitude * rng.standard_normal(g.shape))
        return solve_stationary(g, eps, f, init, tol=scenario.solver_tol,
                                max_iter=scenario.solver_max_iter)
    raise ScenarioError(f"unknown profile type {type(prof).__name__}")


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
                f"scenario {scenario.name!r} failed at eps={eps:g}: {exc}") from exc
    return states


def _square_grid(half_extent: float, points: int) -> Grid:
    return Grid(extent=(2 * half_extent, 2 * half_extent),
                points=(points, points), boundary=ZERO_FLUX,
                origin=(-half_extent, -half_extent))


def to_config(scenario: Scenario, out: str = "out") -> str:
    """Serialize a scenario to the flat key-value config format the CLI
    reads back; the key table lives in `aclab.cli`."""
    from .cli import to_config as write

    return write(scenario, out)


def default_center(scenario: Scenario):
    """Analysis ball center: on the first layer plane or on the interface."""
    prof = scenario.profile
    g = scenario.grid
    mid = [0.5 * (lo + hi) for lo, hi in zip(g.lo, g.hi)]
    if isinstance(prof, SolvedFromForcingProfile):
        prof = prof.base
    if isinstance(prof, LayerStackProfile):
        c = list(mid)
        c[prof.axis % g.ndim] = prof.positions[0]
        return tuple(c)
    if isinstance(prof, (RadialProfile, SolvedBubbleProfile)):
        c = list(prof.center)
        c[0] += prof.radius
        return tuple(c)
    return tuple(mid)


def default_radii(scenario: Scenario, eps: float, center, count: int = 25):
    """A uniform radius range respecting the resolution floor and margins.

    The upper end is capped at 8 eps: for interface-centered balls the
    identity terms decay like (eps/r)^2 beyond that, leaving nothing but
    quadrature noise in the residual columns.
    """
    g = scenario.grid
    floor = max(4.0 * g.h, eps)
    gap = min(min(c - lo for c, lo in zip(center, g.lo)),
              min(hi - c for c, hi in zip(center, g.hi)))
    r_max = min(gap - 3.0 * g.h, 8.0 * eps)
    r_min = max(floor, 0.25 * r_max)
    if r_min >= r_max:
        raise ScenarioError(
            f"{scenario.name}: domain too small for a radius range")
    return np.linspace(r_min, r_max, count)


def default_lines(scenario: Scenario, eps: float):
    """Sampling lines: radial fans for interfaces with a center, axis lines
    at node-aligned transverse offsets for planar stacks."""
    from .quantization import Line

    g = scenario.grid
    prof = scenario.profile
    if isinstance(prof, SolvedFromForcingProfile):
        prof = prof.base
    if isinstance(prof, (RadialProfile, SolvedBubbleProfile)):
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
    axis = (prof.axis % g.ndim if isinstance(prof, LayerStackProfile)
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
        profile=LayerStackProfile(positions=(0.0,), axis=1))

    corpus["stack-2"] = Scenario(
        name="stack-2", grid=_square_grid(0.5, 401), epsilons=(0.02,),
        profile=LayerStackProfile(positions=(-0.1, 0.1), axis=1))

    corpus["stack-3"] = Scenario(
        name="stack-3", grid=_square_grid(0.75, 601), epsilons=(0.02,),
        profile=LayerStackProfile(positions=(-0.2, 0.0, 0.2), axis=1))

    corpus["stack-2-1d"] = Scenario(
        name="stack-2-1d",
        grid=Grid(extent=(1.0,), points=(801,), boundary=ZERO_FLUX,
                  origin=(-0.5,)),
        epsilons=(0.02, 0.01),
        profile=LayerStackProfile(positions=(-0.1, 0.1), axis=0))

    corpus["stack-3-1d"] = Scenario(
        name="stack-3-1d",
        grid=Grid(extent=(1.5,), points=(1201,), boundary=ZERO_FLUX,
                  origin=(-0.75,)),
        epsilons=(0.02, 0.01),
        profile=LayerStackProfile(positions=(-0.2, 0.0, 0.2), axis=0))

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
        profile=SolvedFromForcingProfile(
            base=RadialProfile(center=(0.0, 0.0), radius=0.5),
            noise_amplitude=0.01),
        seed=20)

    return corpus
