"""Uniform tensor-product grids, finite-difference operators, and region quadrature.

Everything downstream (energy measures, monotonicity profiles, quantization
line integrals) is built from the primitives in this module: second-order
central stencils respecting the boundary tag, cell-indicator quadrature over
balls and slabs with subcell supersampling, and multilinear interpolation for
line and hyperplane restrictions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

PERIODIC = "periodic"
ZERO_FLUX = "zero-flux"

_BOUNDARIES = (PERIODIC, ZERO_FLUX)

# Nodes are cell centers of side h; a cell is fully inside a ball when the
# node is deeper than half the cell diagonal, fully outside when farther.
_CELL_DIAG = {1: 0.5, 2: 0.5 * np.sqrt(2.0), 3: 0.5 * np.sqrt(3.0)}


class RegionError(ValueError):
    """A region violates its placement preconditions (margins, degeneracy)."""


def _as_tuple(x, n, kind=float):
    if np.isscalar(x):
        return tuple(kind(x) for _ in range(n))
    t = tuple(kind(v) for v in x)
    if len(t) != n:
        raise ValueError(f"expected {n} entries, got {len(t)}")
    return t


@dataclass(frozen=True)
class Grid:
    """Isotropic uniform grid on a box, tagged periodic or zero-flux.

    Spacing is extent/points on periodic axes (nodes tile the torus) and
    extent/(points-1) on zero-flux axes (nodes include both box faces).
    Only isotropic grids are supported: all axes must share one h.
    """

    extent: tuple[float, ...]
    points: tuple[int, ...]
    boundary: str = ZERO_FLUX
    origin: tuple[float, ...] = None

    def __post_init__(self):
        ndim = len(self.extent)
        if ndim not in (1, 2, 3):
            raise ValueError(f"ambient dimension must be 1, 2 or 3, got {ndim}")
        if len(self.points) != ndim:
            raise ValueError("extent and points must have equal length")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")
        object.__setattr__(self, "extent", _as_tuple(self.extent, ndim))
        object.__setattr__(self, "points", _as_tuple(self.points, ndim, int))
        origin = self.origin if self.origin is not None else (0.0,) * ndim
        object.__setattr__(self, "origin", _as_tuple(origin, ndim))
        for n in self.points:
            if n < 8:
                raise ValueError("each axis needs at least 8 points")
        for ext in self.extent:
            if not ext > 0:
                raise ValueError("extent must be positive")
        spacings = [self._spacing(ax) for ax in range(ndim)]
        h0 = spacings[0]
        if any(abs(h - h0) > 1e-12 * h0 for h in spacings):
            raise ValueError(f"grid is anisotropic: spacings {spacings}")

    def _spacing(self, axis):
        if self.boundary == PERIODIC:
            return self.extent[axis] / self.points[axis]
        return self.extent[axis] / (self.points[axis] - 1)

    @property
    def ndim(self) -> int:
        return len(self.extent)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def h(self) -> float:
        return self._spacing(0)

    @property
    def lo(self) -> tuple[float, ...]:
        return self.origin

    @property
    def hi(self) -> tuple[float, ...]:
        return tuple(o + e for o, e in zip(self.origin, self.extent))

    def axis_coords(self, axis) -> np.ndarray:
        return self.origin[axis] + self.h * np.arange(self.points[axis])

    def meshgrid(self, sparse: bool = False) -> list[np.ndarray]:
        """Node coordinates per axis; sparse=True keeps each axis 1-d in
        broadcastable shape (n, 1, ...), (1, n, ...), ... instead of full."""
        return np.meshgrid(*[self.axis_coords(ax) for ax in range(self.ndim)],
                           indexing="ij", sparse=sparse)

    def node_weights(self) -> np.ndarray:
        """Quadrature weights for whole-domain integrals (volume h^d).

        Zero-flux axes get trapezoid end-weights (boundary cells are half
        cells); periodic axes are plain midpoint cells. Built once per grid
        and returned as the same read-only array on every call.
        """
        w = self.__dict__.get("_node_weights")
        if w is None:
            w = _unit_weights(self) * self.h ** self.ndim
            w.setflags(write=False)
            # setdefault: threads racing on a first call share one array
            w = self.__dict__.setdefault("_node_weights", w)
        return w


def _unit_weights(grid: Grid) -> np.ndarray:
    """Node weights in units of h^d: 1/2 on zero-flux faces, 1 elsewhere."""
    w = np.ones(()).reshape((1,) * grid.ndim)
    for ax in range(grid.ndim):
        wax = np.ones(grid.points[ax])
        if grid.boundary == ZERO_FLUX:
            wax[0] = wax[-1] = 0.5
        shape = [1] * grid.ndim
        shape[ax] = grid.points[ax]
        w = w * wax.reshape(shape)
    return w


def _transverse(grid: Grid) -> Grid:
    """The grid of a hyperplane {x_last = t}: the first ndim-1 axes."""
    nd = grid.ndim - 1
    return Grid(extent=grid.extent[:nd], points=grid.points[:nd],
                boundary=grid.boundary, origin=grid.origin[:nd])


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid node; immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class VectorField:
    """One (n+1)-tuple per grid node, stored component-major."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.ndim,) + self.grid.shape:
            raise ValueError(
                f"values shape {v.shape} != {(self.grid.ndim,) + self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Region:
    """Integration region: whole box, ball, ball-slab intersection, plane, or line."""

    kind: str
    center: tuple[float, ...] = None
    radius: float = None
    t_lo: float = None
    t_hi: float = None
    base: tuple[float, ...] = None
    direction: tuple[float, ...] = None

    @staticmethod
    def whole() -> "Region":
        return Region(kind="whole")

    @staticmethod
    def ball(center, radius) -> "Region":
        return Region(kind="ball", center=tuple(float(c) for c in np.atleast_1d(center)),
                      radius=float(radius))

    @staticmethod
    def slab_ball(center, radius, t_lo, t_hi) -> "Region":
        if not t_lo < t_hi:
            raise RegionError(f"degenerate slab: t_lo={t_lo} >= t_hi={t_hi}")
        return Region(kind="slab_ball",
                      center=tuple(float(c) for c in np.atleast_1d(center)),
                      radius=float(radius), t_lo=float(t_lo), t_hi=float(t_hi))

    @staticmethod
    def plane_slice(t) -> "Region":
        return Region(kind="plane_slice", t_lo=float(t))

    @staticmethod
    def line(base, direction) -> "Region":
        return Region(kind="line", base=tuple(float(b) for b in np.atleast_1d(base)),
                      direction=tuple(float(d) for d in np.atleast_1d(direction)))


def _neighbours(grid: Grid, axis: int):
    """Index triples (nodes, i+1 neighbours, i-1 neighbours) along one axis.

    The three triples cover the interior, the first and the last node; each
    index is a slice, so values[...] is a view, never a copy. Periodic
    wraps; zero-flux mirrors across the boundary node (ghost(-1) = u[1]),
    which makes the central first derivative vanish at the boundary.
    """
    def at(s):
        idx = [slice(None)] * grid.ndim
        idx[axis] = s
        return tuple(idx)

    wrap = grid.boundary == PERIODIC
    first, second = slice(0, 1), slice(1, 2)
    last, before_last = slice(-1, None), slice(-2, -1)
    return ((at(slice(1, -1)), at(slice(2, None)), at(slice(None, -2))),
            (at(first), at(second), at(last if wrap else second)),
            (at(last), at(first if wrap else before_last), at(before_last)))


def gradient(f: ScalarField) -> VectorField:
    """Second-order central-difference gradient respecting the boundary tag."""
    g = f.grid
    v = f.values
    out = np.empty((g.ndim,) + g.shape)
    for ax in range(g.ndim):
        for nodes, plus, minus in _neighbours(g, ax):
            np.subtract(v[plus], v[minus], out=out[ax][nodes])
        out[ax] /= 2.0 * g.h
    return VectorField(g, out)


def laplacian(f: ScalarField) -> ScalarField:
    """Standard (2*dim+1)-point second-order Laplacian."""
    g = f.grid
    v = f.values
    twice = 2.0 * v
    term = np.empty(g.shape)
    out = np.zeros(g.shape)
    for ax in range(g.ndim):
        for nodes, plus, minus in _neighbours(g, ax):
            np.subtract(v[plus], twice[nodes], out=term[nodes])
            term[nodes] += v[minus]
        term /= g.h ** 2
        out += term
    return ScalarField(g, out)


def _check_ball_margin(grid: Grid, center, radius, what="ball region",
                       axis="axis", slab=None):
    """A slab = (t_lo, t_hi) clips the ball on the last axis, so there only
    the clipped extent must keep the margin."""
    h = grid.h
    for ax in range(grid.ndim):
        lo_end, hi_end = center[ax] - radius, center[ax] + radius
        if slab is not None and ax == grid.ndim - 1:
            lo_end, hi_end = max(lo_end, slab[0]), min(hi_end, slab[1])
        lo_gap = lo_end - grid.lo[ax]
        hi_gap = grid.hi[ax] - hi_end
        if lo_gap < 2.0 * h - 1e-12 * h or hi_gap < 2.0 * h - 1e-12 * h:
            raise RegionError(
                f"{what} violates the 2h domain margin on {axis} {ax}: "
                f"needs >= {2.0 * h:.6g}, has {min(lo_gap, hi_gap):.6g}")


class _BallQuadrature:
    """The one cell-indicator quadrature core: balls and slab-balls, and
    discs on the grid of a hyperplane (disc_integral). Built only by
    `ball_integrals`, which checks the radii and the domain margin.

    Classifies every node cell as fully inside, fully outside, or boundary;
    boundary cells get an indicator fraction from subcell-center sampling.
    Each radius visits only the index box of nodes within radius + half the
    cell diagonal of the center on every axis: every node outside it is
    fully outside, and boolean gathers over the box take the same elements
    in the same order as over the whole grid, so every sum is unchanged.
    """

    def __init__(self, grid: Grid, center, supersample: int, t_lo=None, t_hi=None):
        if supersample < 1:
            raise ValueError("supersample must be >= 1")
        self.grid = grid
        self.center = np.asarray(center, dtype=float)
        if self.center.shape != (grid.ndim,):
            raise ValueError("ball center dimension mismatch")
        self.supersample = int(supersample)
        self.t_lo = t_lo
        self.t_hi = t_hi
        mesh = grid.meshgrid(sparse=True)
        rel = [m - c for m, c in zip(mesh, self.center)]
        self.dist = np.sqrt(sum(r * r for r in rel))
        self.half_diag = _CELL_DIAG[grid.ndim] * grid.h
        # subcell-center offsets along one axis, relative to the node
        s = self.supersample
        self._offsets = (np.arange(s) + 0.5) / s * grid.h - 0.5 * grid.h
        if t_lo is not None:
            # (1, ..., 1, n): sliced on the last axis only, then broadcast
            tcoord = mesh[-1]
            half = 0.5 * grid.h
            self._slab_in = (tcoord - half >= t_lo) & (tcoord + half <= t_hi)
            self._slab_out = (tcoord + half <= t_lo) | (tcoord - half >= t_hi)

    def _window(self, radius: float) -> tuple[slice, ...]:
        """Index box holding every node that is not fully outside B_radius,
        padded by one node per side against rounding."""
        g = self.grid
        reach = radius + self.half_diag
        rel = self.center - np.asarray(g.lo)
        lo = np.floor((rel - reach) / g.h).astype(int) - 1
        hi = np.ceil((rel + reach) / g.h).astype(int) + 2
        return tuple(slice(max(a, 0), max(min(b, n), 0))
                     for a, b, n in zip(lo, hi, g.points))

    def _band_fractions(self, window, band, radius: float) -> np.ndarray:
        """Share of the supersample^d subcell centers of each band cell that
        lie in the region. Squared distances are sums of per-axis tables
        ((x + o) - c)^2 taken in axis order, the order in which numpy sums
        the coordinate axis of a (cells, subcells, ndim) array."""
        g = self.grid
        cells = np.nonzero(band)
        nb, s = len(cells[0]), self.supersample

        def rows(table, ax):
            shape = [nb] + [1] * g.ndim
            shape[1 + ax] = s
            return table[cells[ax]].reshape(shape)

        d2 = None
        for ax in range(g.ndim):
            sub = g.axis_coords(ax)[window[ax], None] + self._offsets
            term = rows((sub - self.center[ax]) ** 2, ax)
            d2 = term if d2 is None else d2 + term
        inside = d2 <= radius * radius
        if self.t_lo is not None:  # sub holds the last axis' subcell coords
            inside &= rows((sub >= self.t_lo) & (sub <= self.t_hi), g.ndim - 1)
        return np.count_nonzero(inside.reshape(nb, -1), axis=1) / s ** g.ndim

    def integral_many(self, values_list, radius: float) -> list[float]:
        """Integrals of each node array over the region at one radius."""
        g = self.grid
        window = self._window(radius)
        dist = self.dist[window]
        full = dist <= radius - self.half_diag
        empty = dist >= radius + self.half_diag
        if self.t_lo is not None:
            full &= self._slab_in[..., window[-1]]
            empty |= self._slab_out[..., window[-1]]
        band = ~(full | empty)
        frac = self._band_fractions(window, band, radius) if band.any() else None
        out = []
        for values in values_list:
            box = values[window]
            total = float(np.sum(box[full])) if full.any() else 0.0
            if frac is not None:
                total += float(np.sum(box[band] * frac))
            out.append(total * g.h ** g.ndim)
        return out


def ball_integrals(grid: Grid, arrays, center, radii, supersample: int,
                   slab=None) -> np.ndarray:
    """Integrals of each node array over B_r(center), intersected with the
    slab t_lo <= x_last <= t_hi when slab = (t_lo, t_hi) is given: one row
    per radius, one column per array.

    The one entry point into `_BallQuadrature`: the radii must be nonempty
    and strictly ascending, and the largest ball, clipped by the slab if one
    is given, must keep the 2h domain margin.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) < 1:
        raise ValueError("radii must be a nonempty 1-d sequence")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly ascending")
    quad = _BallQuadrature(grid, np.atleast_1d(center), supersample,
                           *(slab or ()))
    _check_ball_margin(grid, quad.center, radii[-1], slab=slab)
    return np.array([quad.integral_many(arrays, r) for r in radii])


def integrate(f: ScalarField, region: Region, supersample: int = 4) -> float:
    """Cell-based quadrature of a field over a region.

    Boundary cells of ball-like regions are resolved by subcell sampling of
    the region indicator; results are deterministic functions of the inputs.
    """
    g = f.grid
    if region.kind == "whole":
        return float(np.sum(f.values * g.node_weights()))
    if region.kind in ("ball", "slab_ball"):
        slab = (region.t_lo, region.t_hi) if region.kind == "slab_ball" else None
        return float(ball_integrals(g, [f.values], region.center,
                                    [region.radius], supersample, slab)[0, 0])
    if region.kind == "plane_slice":
        return plane_slice_integral(f, region.t_lo, supersample=supersample)
    raise RegionError(f"cannot integrate over region kind {region.kind!r}; "
                      "sample lines with line_sample")


def cumulative_ball_profile(f: ScalarField, center, radii,
                            supersample: int = 4) -> np.ndarray:
    """Integral of the field over concentric balls, one windowed pass over
    the cells near each ball (see `ball_integrals`).

    Returns an array of rows (r, integral over B_r). Radii must be ascending
    and the largest ball must respect the 2h domain margin.
    """
    radii = np.asarray(radii, dtype=float)
    vals = ball_integrals(f.grid, [f.values], center, radii, supersample)
    return np.column_stack([radii, vals[:, 0]])


def _uniform_spacing(radii: np.ndarray) -> float:
    dr = np.diff(radii)
    if np.any(np.abs(dr - dr[0]) > 1e-9 * dr[0]):
        raise ValueError("radii must be uniformly spaced")
    return float(dr[0])


def radial_derivative(profile: np.ndarray) -> np.ndarray:
    """d/dr of a radial profile: central differences inside, one-sided (second
    order) at the ends. Needs at least 3 uniformly spaced radii."""
    prof = np.asarray(profile, dtype=float)
    if prof.ndim != 2 or prof.shape[0] < 3:
        raise ValueError("need a profile with at least 3 radii")
    r, v = prof[:, 0], prof[:, 1]
    dr = _uniform_spacing(r)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * dr)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dr)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dr)
    return np.column_stack([r, d])


def _locate(grid: Grid, pts: np.ndarray):
    """Cell indices and weights for multilinear interpolation at pts (m, d)."""
    rel = (pts - np.asarray(grid.lo)) / grid.h
    if grid.boundary == PERIODIC:
        i0 = np.floor(rel).astype(int)
        w = rel - i0
        i0 = np.mod(i0, grid.points)
        i1 = np.mod(i0 + 1, grid.points)
    else:
        eps = 1e-9
        n = np.asarray(grid.points)
        if np.any(rel < -eps) or np.any(rel > (n - 1) + eps):
            raise RegionError("interpolation point outside the domain")
        i0 = np.clip(np.floor(rel).astype(int), 0, n - 2)
        w = rel - i0
        i1 = i0 + 1
    return i0, i1, w


def interpolate(f: ScalarField, pts) -> np.ndarray:
    """Multilinear interpolation of a field at points of shape (m, ndim)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    g = f.grid
    i0, i1, w = _locate(g, pts)
    out = np.zeros(len(pts))
    for corner in itertools.product((0, 1), repeat=g.ndim):
        idx = tuple(np.where(c, i1[:, ax], i0[:, ax])
                    for ax, c in enumerate(corner))
        wt = np.ones(len(pts))
        for ax, c in enumerate(corner):
            wt = wt * (w[:, ax] if c else 1.0 - w[:, ax])
        out += wt * f.values[idx]
    return out


def line_sample(f: ScalarField, base, direction, samples: int,
                t_lo: float, t_hi: float) -> np.ndarray:
    """Field values along the segment base + t*direction/|direction|.

    Returns rows (t, value) at `samples` equispaced parameters in
    [t_lo, t_hi]. The whole segment must lie inside the domain.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ValueError("direction must be nonzero")
    t = np.linspace(t_lo, t_hi, int(samples))
    pts = base[None, :] + t[:, None] * (direction / norm)[None, :]
    vals = interpolate(f, pts)
    return np.column_stack([t, vals])


def restrict_to_plane(f: ScalarField, t: float) -> np.ndarray:
    """Field on the hyperplane {x_last = t}: linear interpolation between the
    two adjacent grid planes. Returns the transverse-shaped array."""
    g = f.grid
    last = g.ndim - 1
    rel = (t - g.lo[last]) / g.h
    n = g.points[last]
    if g.boundary == PERIODIC:
        k0 = int(np.floor(rel)) % n
        k1 = (k0 + 1) % n
        lam = rel - np.floor(rel)
    else:
        if rel < -1e-9 or rel > (n - 1) + 1e-9:
            raise RegionError(f"plane t={t} outside the domain")
        k0 = min(max(int(np.floor(rel)), 0), n - 2)
        k1 = k0 + 1
        lam = rel - k0
    sl0 = [slice(None)] * g.ndim
    sl1 = [slice(None)] * g.ndim
    sl0[last], sl1[last] = k0, k1
    return (1.0 - lam) * f.values[tuple(sl0)] + lam * f.values[tuple(sl1)]


def disc_integral(grid: Grid, plane_values: np.ndarray, center_transverse,
                  radius: float, supersample: int = 4) -> float:
    """H^n integral of plane-restricted values over a transverse disc: the
    ball quadrature on the (ndim-1)-d grid of the plane.

    In ambient dimension 1 the "disc" is a point and the integral is the
    plane value itself (counting measure).
    """
    if radius < 0:
        return 0.0
    if grid.ndim == 1:
        return float(plane_values)
    plane = _transverse(grid)
    ct = np.atleast_1d(np.asarray(center_transverse, dtype=float))
    # checked here first so that a refusal names the disc, not a ball
    _check_ball_margin(plane, ct, radius, what="plane disc",
                       axis="transverse axis")
    return float(ball_integrals(plane, [plane_values], ct, [radius],
                                supersample)[0, 0])


def plane_slice_integral(f: ScalarField, t: float, supersample: int = 4) -> float:
    """H^n integral of a field over the whole hyperplane {x_last = t}."""
    g = f.grid
    plane = restrict_to_plane(f, t)
    if g.ndim == 1:
        return float(plane)
    w = _unit_weights(_transverse(g))
    return float(np.sum(plane * w) * g.h ** (g.ndim - 1))
