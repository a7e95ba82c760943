"""Uniform tensor-product grids, finite-difference operators, and quadrature.

Everything downstream (energy measures, monotonicity profiles, quantization
line integrals) is built from the primitives in this module: second-order
central stencils respecting the boundary tag, cell-indicator quadrature over
balls and slabs with subcell supersampling, and multilinear interpolation for
line and hyperplane restrictions.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

PERIODIC = "periodic"
ZERO_FLUX = "zero-flux"

_BOUNDARIES = (PERIODIC, ZERO_FLUX)

# Nodes are cell centers of side h; a cell is fully inside a ball when the
# node is deeper than half the cell diagonal, fully outside when farther.
_CELL_DIAG = {1: 0.5, 2: 0.5 * np.sqrt(2.0), 3: 0.5 * np.sqrt(3.0)}

# A whole-grid integrand is built one slab of whole axis-0 planes at a time
# (see _slabs), so its temporaries are slab-sized. A slab is about
# 1/_SLAB_SHARE of the grid, so that the temporaries of a pass stay a small
# part of one grid array, and between _SLAB_NODES and 8 _SLAB_NODES nodes,
# so that numpy's cost per call stays small against the work and a slab's
# arrays stay in cache: one plane of 65^3, two of 81^3, three of 129^3.
_SLAB_SHARE = 40
_SLAB_NODES = 1 << 13


class RegionError(ValueError):
    """A region violates its placement preconditions (margins, degeneracy)."""


def _check_finite(**values):
    """Refuse, by its parameter name, a value that is not finite (for an
    array: one with an entry that is not)."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def _check_supersample(supersample):
    """Refuse a subcell count that is not an integer >= 1: int() of 2.7
    would quietly sample as 2 does."""
    if not isinstance(supersample, (int, np.integer)) or supersample < 1:
        raise ValueError("supersample must be an integer >= 1")


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
        ndim = np.size(self.extent)
        if ndim not in (1, 2, 3):
            raise ValueError(f"ambient dimension must be 1, 2 or 3, got {ndim}")
        if self.origin is None:
            object.__setattr__(self, "origin", (0.0,) * ndim)
        # each is converted in place, a point count only if it is whole
        for name, kind in (("extent", float), ("points", int),
                           ("origin", float)):
            value = getattr(self, name)
            if np.ndim(value) != 1 or len(value) != ndim:
                raise ValueError(f"{name} must have one entry per axis")
            if kind is int and not all(float(n).is_integer() for n in value):
                raise ValueError("points must be whole numbers")
            object.__setattr__(self, name, tuple(map(kind, value)))
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")
        if min(self.points) < 8:
            raise ValueError("each axis needs at least 8 points")
        if not all(0 < ext < np.inf for ext in self.extent):
            raise ValueError("extent must be positive and finite")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("origin must be finite")
        spacings = [self._spacing(ax) for ax in range(ndim)]
        h0 = spacings[0]
        if any(abs(h - h0) > 1e-12 * h0 for h in spacings):
            raise ValueError(f"grid is anisotropic: extent and points give "
                             f"spacings {spacings}")
        # the Laplacian divides by h^2, which must not underflow
        if h0 * h0 < np.finfo(float).tiny:
            raise ValueError(f"extent and points give a spacing {h0:g} whose "
                             "square underflows the smallest normal float")

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

    def node_weights(self, planes=slice(None)) -> np.ndarray:
        """Quadrature weights for whole-domain integrals (volume h^d), on
        the axis-0 planes `planes` (a slice; all of them by default).

        Zero-flux axes get trapezoid end-weights (boundary cells are half
        cells); periodic axes are plain midpoint cells. Built from the
        per-axis tables of `_unit_weights` on every call, never cached:
        products of 1s and 1/2s times h^d, so a slab's weights have the
        bits of the whole grid's on its planes.
        """
        return _unit_weights(self, planes) * self.h ** self.ndim


def _unit_weights(grid: Grid, planes=slice(None)) -> np.ndarray:
    """Node weights in units of h^d on the axis-0 planes `planes` (a
    slice): 1/2 on zero-flux faces, 1 elsewhere. Axis 0's table covers the
    planes only, so that a slab's weights on a 1-d grid are no grid-sized
    array."""
    w = np.ones(()).reshape((1,) * grid.ndim)
    for ax in range(grid.ndim):
        n = grid.points[ax]
        nodes = range(n)[planes] if ax == 0 else range(n)
        wax = np.ones(len(nodes))
        if grid.boundary == ZERO_FLUX and nodes:
            for end in (0, -1):  # a slice meets the faces at its ends
                if nodes[end] in (0, n - 1):
                    wax[end] = 0.5
        shape = [1] * grid.ndim
        shape[ax] = -1
        w = w * wax.reshape(shape)
    return w


def _scale_by_unit_weights(a: np.ndarray, grid: Grid, factor: float = 0.5):
    """a * _unit_weights(grid) (factor 1/2) or a / _unit_weights(grid)
    (factor 2), in place on a grid-shaped array, one axis at a time: each
    per-axis table is 1 but on the two zero-flux faces, so only those
    planes are scaled. Every factor is a power of two, so the bits are
    those of the product with the whole table."""
    if grid.boundary == ZERO_FLUX:
        for ax in range(grid.ndim):
            for end in (0, -1):
                a[(slice(None),) * ax + (end,)] *= factor
    return a


@dataclass(frozen=True)
class _Field:
    """Node values on a grid, immutable after construction. The public
    constructors copy the array they are given; every field has the shape
    its grid implies and finite values."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self, copy: bool = True):
        v = np.array(self.values, dtype=float) if copy else self.values
        shape = ((self.grid.ndim,) if self._vector else ()) + self.grid.shape
        if v.shape != shape:
            raise ValueError(f"values shape {v.shape} != {shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray):
        """A field over a float64 array the package has just built and hands
        over: checked like any other, but not copied."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", values)
        field.__post_init__(copy=False)
        return field


class ScalarField(_Field):
    """One real value per grid node; immutable after construction."""

    _vector = False

    def at(self, idx) -> np.ndarray:
        """The values on the nodes idx (any index of a grid-shaped array)."""
        return self.values[idx]


@dataclass(frozen=True)
class _LazyField:
    """Node values formed on demand, never held whole: at(idx) forms them
    on the nodes idx, a tuple of integer index arrays, one per axis.
    `interpolate` (and through it `line_sample`) reads it as it reads a
    ScalarField."""

    grid: Grid
    at: Callable


class VectorField(_Field):
    """One (n+1)-tuple per grid node, stored component-major."""

    _vector = True

    def planes(self, idx) -> np.ndarray:
        """The components on the axis-0 grid planes idx (a slice or an index
        array): a view for a slice."""
        return self.values[:, idx]


def _neighbours(grid: Grid, axis: int, span: slice = slice(None)):
    """Index triples (nodes, i+1 neighbours, i-1 neighbours) along one axis,
    for the nodes `span` of it (a slice of step 1; all of them by default).

    The triples cover the span's interior nodes and, where the span holds
    them, the first and the last node; `nodes` counts from the span's
    start, the neighbours from the axis's. Each index is slices on the
    trailing grid axes, so values[...] is a view, never a copy, also of
    fields stacked in front of the grid. Periodic wraps; zero-flux mirrors
    across the boundary node (ghost(-1) = u[1]), which makes the central
    first derivative vanish at the boundary.
    """
    def at(s):
        return (..., s) + (slice(None),) * (grid.ndim - 1 - axis)

    n = grid.points[axis]
    lo, hi, _ = span.indices(n)
    wrap = grid.boundary == PERIODIC
    a, b = max(lo, 1), min(hi, n - 1)  # the span's interior nodes
    triples = []
    if a < b:
        triples.append((at(slice(a - lo, b - lo)), at(slice(a + 1, b + 1)),
                        at(slice(a - 1, b - 1))))
    if lo == 0 < hi:
        triples.append((at(slice(0, 1)), at(slice(1, 2)),
                        at(slice(n - 1, n) if wrap else slice(1, 2))))
    if lo < n == hi:
        triples.append((at(slice(n - 1 - lo, n - lo)),
                        at(slice(0, 1) if wrap else slice(n - 2, n - 1)),
                        at(slice(n - 2, n - 1))))
    return triples


def _central_difference(v: np.ndarray, grid: Grid, axis: int,
                        out: np.ndarray, span: slice = slice(None)):
    """out = (v[i+1] - v[i-1]) / 2h along one grid axis, on the nodes
    `span` of it (see _neighbours): v is whole along the axis, out holds
    the span."""
    for nodes, plus, minus in _neighbours(grid, axis, span):
        np.subtract(v[plus], v[minus], out=out[nodes])
    out /= 2.0 * grid.h


def _ghosts(grid: Grid, axis: int, idx: np.ndarray) -> np.ndarray:
    """The nodes of the indices idx (-1 .. n on an axis of n nodes), with
    the ghosts of `_neighbours` past the ends: wrapped, or mirrored across
    the boundary node (-1 -> 1, n -> n-2)."""
    n = grid.points[axis]
    if grid.boundary == PERIODIC:
        return idx % n
    return n - 1 - np.abs(n - 1 - np.abs(idx))


def _gradient_box(v: np.ndarray, grid: Grid, box) -> np.ndarray:
    """The central-difference gradient of the node values v on the index
    box `box` (a tuple of slices of step 1 for the leading grid axes; the
    others whole): along each axis, the `_neighbours` triples of the box's
    span on that axis read v, whole along it and cut to the box on the
    others, as views. Every node gets the operations of the whole-axis
    stencil, so its bits do not depend on the box asked for."""
    box += (slice(None),) * (grid.ndim - len(box))
    shape = tuple(len(range(*b.indices(n))) for b, n in zip(box, grid.points))
    out = np.empty((grid.ndim,) + shape)
    for ax in range(grid.ndim):
        _central_difference(v[box[:ax] + (slice(None),) + box[ax + 1:]],
                            grid, ax, out[ax], box[ax])
    return out


def _gradient_points(v: np.ndarray, grid: Grid, idx) -> np.ndarray:
    """The central-difference gradient of the node values v on the nodes
    idx, a tuple of integer index arrays (one per axis, broadcast
    together): each node's two neighbours on each axis, with the ghosts of
    `_neighbours`, differenced and halved as _gradient_box does."""
    idx = tuple(np.asarray(i) % n for i, n in zip(idx, grid.points))
    out = np.empty((grid.ndim,)
                   + np.broadcast_shapes(*(i.shape for i in idx)))
    for ax, i in enumerate(idx):
        plus, minus = (_ghosts(grid, ax, i + step) for step in (1, -1))
        np.subtract(v[idx[:ax] + (plus,) + idx[ax + 1:]],
                    v[idx[:ax] + (minus,) + idx[ax + 1:]], out=out[ax])
        out[ax] /= 2.0 * grid.h
    return out


def _square_sum(grad: np.ndarray) -> np.ndarray:
    """|grad|^2 from a gradient's components: their squares summed in axis
    order, as np.sum(grad * grad, axis=0) adds them."""
    total = grad[0] * grad[0]
    for comp in grad[1:]:
        total += comp * comp
    return total


def gradient(f: ScalarField) -> VectorField:
    """Second-order central-difference gradient respecting the boundary tag,
    built a slab of axis-0 planes at a time (see _gradient_box)."""
    g = f.grid
    return VectorField._adopt(g, _stream(
        g, lambda sl: _gradient_box(f.values, g, (sl,)), g.ndim))


def _grad_sq_at(v: np.ndarray, grid: Grid, idx) -> np.ndarray:
    """|grad v|^2 of the node values v on the nodes idx, in v[idx]'s shape:
    the one |grad u|^2 of the package, formed where it is read and never
    kept. idx is one of three node shapes: a slice of step 1 of axis-0
    planes (a slab, formed at once), `...` (the whole grid, formed a slab
    at a time), or a tuple of integer index arrays, one per axis (the
    corners of an interpolation stencil).

    Every node gets the operations of the whole-grid stencil in its order,
    mirror and wrap ghosts included (_gradient_box, _gradient_points), and
    the squares of the components summed in axis order (_square_sum), so
    its bits do not depend on the nodes asked for."""
    if isinstance(idx, slice) and idx.step in (None, 1):
        return _square_sum(_gradient_box(v, grid, (idx,)))
    if idx is Ellipsis:
        return _stream(grid, lambda sl: (_grad_sq_at(v, grid, sl),), 1)[0]
    if (isinstance(idx, tuple) and len(idx) == grid.ndim
            and all(isinstance(i, np.ndarray) and i.dtype.kind in "iu"
                    for i in idx)):
        return _square_sum(_gradient_points(v, grid, idx))
    raise IndexError(
        f"nodes must be a slice of axis-0 planes of step 1, `...` or a "
        f"tuple of {grid.ndim} integer index arrays, got {idx!r}")


def _laplacian_planes(v: np.ndarray, grid: Grid, sl) -> np.ndarray:
    """The (2*dim+1)-point second-order Laplacian of the node values v on
    the axis-0 planes sl (a slice), from the `_neighbours` triples of each
    axis, as _gradient_box reads them: axis 0's read v, the others' the
    planes sl. Summed axis by axis onto a +0.0 start, each term as
    ((v[i+1] - 2 v[i]) + v[i-1]) / h^2, so a node's bits do not depend on
    the planes asked for."""
    core = v[sl]
    out, term = np.zeros(core.shape), np.empty(core.shape)
    for ax in range(grid.ndim):
        line, span = (v, sl) if ax == 0 else (core, slice(None))
        for nodes, plus, minus in _neighbours(grid, ax, span):
            np.multiply(core[nodes], 2.0, out=term[nodes])
            np.subtract(line[plus], term[nodes], out=term[nodes])
            term[nodes] += line[minus]
        term /= grid.h ** 2
        out += term
    return out


def laplacian(f: ScalarField) -> ScalarField:
    """Standard (2*dim+1)-point second-order Laplacian, built a slab of
    axis-0 planes at a time (see _laplacian_planes)."""
    g = f.grid
    return ScalarField._adopt(g, _stream(
        g, lambda sl: (_laplacian_planes(f.values, g, sl),), 1)[0])


def _neighbour_sum_into(v: np.ndarray, grid: Grid, out: np.ndarray):
    """out = sum over the axes of v[i+1] + v[i-1], with the ghosts of
    _neighbours: h^2 times the off-diagonal part of the Laplacian stencil,
    into a buffer the caller keeps (the Newton matvec). The sum is in
    another order than `laplacian`'s, so the two differ in the last bits."""
    for ax in range(grid.ndim):
        for nodes, plus, minus in _neighbours(grid, ax):
            if ax == 0:
                np.add(v[plus], v[minus], out=out[nodes])
            else:
                out[nodes] += v[plus]
                out[nodes] += v[minus]


def _check_ball_margin(grid: Grid, center, radius, what="ball region",
                       axis="axis", slab=None):
    """A slab = (t_lo, t_hi) clips the ball on the last axis, so there only
    the clipped extent must keep the margin."""
    if len(center) != grid.ndim or not np.all(np.isfinite(center)):
        raise RegionError(f"{what} center {center.tolist()} needs "
                          f"{grid.ndim} finite coordinates")
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
    discs on the grid of a hyperplane (disc_integral). Built by
    `ball_integrals` and `inert_slab`, whose callers check the center,
    radii and margin.

    Classifies every node cell as fully inside, fully outside, or boundary;
    boundary cells get an indicator fraction from subcell-center sampling.
    Each radius visits only the index box of nodes within radius + half the
    cell diagonal of the center on every axis: every node outside it is
    fully outside, and boolean gathers over the box take the same elements
    in the same order as over the whole grid, so every sum is unchanged.
    Node distances and the integrands are kept on the box of `max_radius`,
    the largest radius asked for, only; the box of a smaller radius lies
    inside it. The distances are formed on the first pass, so that
    `inert_slab` costs only the slab's 1-d masks.
    """

    def __init__(self, grid: Grid, center, supersample: int,
                 max_radius: float, t_lo=None, t_hi=None):
        _check_supersample(supersample)
        self.grid = grid
        self.center = np.asarray(center, dtype=float)
        self.supersample = int(supersample)
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.half_diag = _CELL_DIAG[grid.ndim] * grid.h
        self.box = self._window(max_radius)
        # subcell-center offsets along one axis, relative to the node
        s = self.supersample
        self._offsets = (np.arange(s) + 0.5) / s * grid.h - 0.5 * grid.h
        if t_lo is not None:
            # (1, ..., 1, n): sliced on the last axis only, then broadcast
            tcoord = grid.meshgrid(sparse=True)[-1]
            half = 0.5 * grid.h
            self._slab_in = (tcoord - half >= t_lo) & (tcoord + half <= t_hi)
            self._slab_out = (tcoord + half <= t_lo) | (tcoord - half >= t_hi)

    @functools.cached_property
    def dist(self) -> np.ndarray:
        """The nodes' distances to the center on the box."""
        rel = [(m - c)[(slice(None),) * ax + (self.box[ax],)]
               for ax, (m, c) in enumerate(zip(self.grid.meshgrid(sparse=True),
                                               self.center))]
        dist = sum(r * r for r in rel)
        return np.sqrt(dist, out=dist)

    def _subcells_in_slab(self, window) -> np.ndarray:
        """(cells, supersample): which subcell centers of the last axis'
        nodes in window[-1] lie in [t_lo, t_hi]."""
        g = self.grid
        sub = g.axis_coords(g.ndim - 1)[window[-1], None] + self._offsets
        return (sub >= self.t_lo) & (sub <= self.t_hi)

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
        the coordinate axis of a (cells, subcells, ndim) array. The cells go
        in chunks of about 2 _SLAB_NODES subcells, summed into one buffer
        and compared into another, so that the squared distances are never
        held for the whole band nor twice for a chunk."""
        g = self.grid
        flat = np.flatnonzero(band)
        nb, s = len(flat), self.supersample
        tables = [(g.axis_coords(ax)[window[ax], None] + self._offsets
                   - self.center[ax]) ** 2 for ax in range(g.ndim)]
        if self.t_lo is not None:
            in_slab = self._subcells_in_slab(window)
        frac = np.empty(nb)
        step = max(1, 2 * _SLAB_NODES // s ** g.ndim)
        d2_buf = np.empty((min(step, nb),) + (s,) * g.ndim)
        inside_buf = np.empty(d2_buf.shape, dtype=bool)
        for lo in range(0, nb, step):
            chunk = np.unravel_index(flat[lo:lo + step], band.shape)
            m = len(chunk[0])

            def rows(table, ax):
                shape = [m] + [1] * g.ndim
                shape[1 + ax] = s
                return table[chunk[ax]].reshape(shape)

            d2, inside = d2_buf[:m], inside_buf[:m]
            np.copyto(d2, rows(tables[0], 0))
            for ax in range(1, g.ndim):
                np.add(d2, rows(tables[ax], ax), out=d2)
            np.less_equal(d2, radius * radius, out=inside)
            if self.t_lo is not None:
                inside &= rows(in_slab, g.ndim - 1)
            frac[lo:lo + m] = (np.count_nonzero(inside.reshape(m, -1), axis=1)
                               / s ** g.ndim)
        return frac

    def integral_many(self, values_list, radius: float,
                      integrands=None) -> list[float]:
        """Integrals over the region at one radius of each box array, or of
        each integrand that integrands(*gathered) forms from the arrays'
        values on the nodes gathered (see ball_integrals).

        The full and the band nodes are each gathered a run of axis-0
        planes of the window at a time, about half a slab's nodes (see
        _slab_nodes), and summed by _PairwiseSums: the bits of np.sum over
        the whole gather, which is never held."""
        g = self.grid
        window = self._window(radius)
        in_box = tuple(slice(w.start - b.start, w.stop - b.start)
                       for w, b in zip(window, self.box))
        dist = self.dist[in_box]
        # band = neither full nor empty, built in place: full lies in
        # ~empty, the nodes not fully outside
        full = dist <= radius - self.half_diag
        band = dist < radius + self.half_diag
        if self.t_lo is not None:
            full &= self._slab_in[..., window[-1]]
            band &= ~self._slab_out[..., window[-1]]
        band ^= full
        boxes = [values[in_box] for values in values_list]
        form = integrands or (lambda *gathered: gathered)
        # first, so that its scratch is not held with a gather's
        band_frac = self._band_fractions(window, band, radius)
        run = max(1, _slab_nodes(g) // 2)
        totals = None
        for part, frac in ((full, None), (band, band_frac)):
            count = int(np.count_nonzero(part))
            if totals is not None and not count:
                break  # no band node: nothing to add
            ends = []
            if count > run:
                # upto[k]: the part's nodes on the window's axis-0 planes
                # 0..k; a run of planes ends where upto passes a multiple
                # of `run`
                upto = np.cumsum(np.count_nonzero(
                    part.reshape(len(part), -1), axis=1))
                ends = np.searchsorted(upto, np.arange(run, count, run)) + 1
            sums, pos = _PairwiseSums(count), 0
            for lo, hi in zip([0, *ends], [*ends, len(part)]):
                values = list(form(*(box[lo:hi][part[lo:hi]]
                                     for box in boxes)))
                m = values[0].size
                for v in values if frac is not None else ():
                    v *= frac[pos:pos + m]  # each a fresh gather
                sums.add(values)
                pos += m
            # no full node sums to +0.0; the band's sums are added to it
            totals = (sums.sums() if totals is None else
                      [t + s for t, s in zip(totals, sums.sums())])
        return [total * g.h ** g.ndim for total in totals]


def ball_integrals(grid: Grid, arrays, center, radii, supersample: int,
                   slab=None, integrands=None) -> np.ndarray:
    """Integrals of each node array over B_r(center), intersected with the
    slab t_lo <= x_last <= t_hi when slab = (t_lo, t_hi) is given: one row
    per radius, one column per array. `arrays` is a list of whole-grid
    arrays, or a function that takes the index box of the largest ball (a
    tuple of slices; every node outside it is outside every ball) and
    returns the arrays on that box only.

    With `integrands`, the columns are the integrals of the integrands it
    forms instead: integrands(*gathered) takes each array's values on the
    nodes a radius gathers (one 1-d array per array, in the arrays' order)
    and returns the integrands' values on those nodes, as new arrays (the
    band's are weighted in place). Formed elementwise, they have the bits
    of integrands built on the whole box, which is never held.

    It checks nothing. Its callers, `monotonicity._ball_columns` (the ball
    identities and `density_ratio_profile`, after `check_geometry`) and
    `disc_integral`, check the center, the radii, the slab and the 2h
    margin of the largest ball.
    """
    radii = np.asarray(radii, dtype=float)
    quad = _BallQuadrature(grid, np.atleast_1d(center), supersample,
                           radii[-1], *(slab or ()))
    arrays = (arrays(quad.box) if callable(arrays)
              else [v[quad.box] for v in arrays])
    return np.array([quad.integral_many(arrays, r, integrands)
                     for r in radii])


def inert_slab(grid: Grid, center, max_radius: float, supersample: int,
               slab) -> bool:
    """Whether the slab masks nothing of any ball up to max_radius, so
    that ball_integrals with it has the bits of ball_integrals without it:
    every node cell and subcell center of the largest ball's index box lies
    inside it. They ascend with the last axis's coordinates, so the cells
    of the box's first and last node on that axis decide."""
    quad = _BallQuadrature(grid, np.atleast_1d(center), supersample,
                           max_radius, *slab)
    ends = (..., [quad.box[-1].start, quad.box[-1].stop - 1])
    return bool(quad._slab_in[ends].all() and not quad._slab_out[ends].any()
                and quad._subcells_in_slab(ends).all())


def _slab_nodes(grid: Grid) -> int:
    """The nodes of a slab: the size _SLAB_SHARE and _SLAB_NODES set."""
    return min(max(math.prod(grid.points) // _SLAB_SHARE, _SLAB_NODES),
               8 * _SLAB_NODES)


def _slabs(grid: Grid, parts: int = 1, box=None) -> list[slice]:
    """Consecutive runs of whole axis-0 planes that cover the grid in order,
    of about _slab_nodes / parts nodes, but no fewer than _SLAB_NODES (and
    at least one plane): a pass that holds `parts` sets of a slab's
    temporaries takes smaller slabs. With an index box `box` (a tuple of
    slices of step 1, one per axis), runs of the box's axis-0 planes that
    cover the box, counting its nodes only."""
    rows, *rest = (range(*b.indices(n)) for b, n
                   in zip(box or (slice(None),) * grid.ndim, grid.points))
    plane = max(math.prod(len(r) for r in rest), 1)
    step = max(1, max(_slab_nodes(grid) // parts, _SLAB_NODES) // plane)
    return [slice(lo, min(lo + step, rows.stop))
            for lo in range(rows.start, rows.stop, step)]


def _weighted_slabs(grid: Grid, parts: int = 1):
    """(sl, Grid.node_weights(sl)) for each slab of _slabs(grid, parts).
    The slabs between the first and the last are alike: one length, no face
    plane, so they share one set of weights."""
    slabs = _slabs(grid, parts)
    inner = grid.node_weights(slabs[1]) if len(slabs) > 2 else None
    for k, sl in enumerate(slabs):
        yield sl, (inner if 0 < k < len(slabs) - 1 else grid.node_weights(sl))


def _stream(grid: Grid, fill, count: int, box=None) -> np.ndarray:
    """`count` arrays on the index box `box` (a tuple of slices of step 1,
    one per axis; the whole grid by default), stacked, filled one run of
    its axis-0 planes at a time (see _slabs): fill(rows) returns their
    values on the box's nodes on the planes rows, so every temporary of
    the integrands is slab-sized."""
    box = box or (slice(None),) * grid.ndim
    ranges = [range(*b.indices(n)) for b, n in zip(box, grid.points)]
    out = np.empty((count,) + tuple(map(len, ranges)))
    for rows in _slabs(grid, box=box):
        part = slice(rows.start - ranges[0].start, rows.stop - ranges[0].start)
        for buf, values in zip(out, fill(rows), strict=True):
            buf[part] = values
    return out


# numpy's pairwise_sum (numpy/_core/src/umath/loops_utils.h.src), which
# np.sum runs over the flat order of a C-contiguous array: a run of at most
# _PW_BLOCKSIZE elements is a leaf, summed with 8-way unrolled accumulators;
# a longer run of n splits after n // 2 rounded down to a multiple of 8.
_PW_BLOCKSIZE = 128


class _PairwiseSums:
    """np.sum of `size`-element C-contiguous arrays that arrive in
    consecutive pieces of their flat order, without ever holding them whole:
    a walk of numpy's pairwise tree. A node of the tree inside one piece is
    np.add.reduce of its range; a leaf across two pieces waits, copied, in a
    carry of fewer than _PW_BLOCKSIZE elements; the two children of a node
    are added as numpy adds them. add.reduce starts from +0.0, so a node
    summing to -0.0 reads +0.0; then so does every sum above it, as np.sum
    reads it too, and every result has np.sum's bits."""

    def __init__(self, size: int):
        self.size, self.pos, self.arrays = size, 0, None

    def add(self, pieces):
        """Feed the next piece of each array, all of one size. The walk of
        the tree over the flat range [pos, stop) gives the steps, with
        offsets into the piece: (lo, hi) reduces a node, (None, hi) completes
        a leaf in the carry, (lo, None) carries a leaf's head, () adds the
        last two node sums."""
        if self.arrays is None:  # per array: node sums, leaf carry
            self.arrays = [([], []) for _ in pieces]
        if not pieces or not pieces[0].size:
            return
        pos, stop, steps = self.pos, self.pos + pieces[0].size, []

        def visit(a, n):
            if a + n <= pos or a >= stop:
                return
            if pos <= a and a + n <= stop:
                steps.append((a - pos, a + n - pos))
            elif n <= _PW_BLOCKSIZE:
                steps.append((None, a + n - pos) if a + n <= stop
                             else (max(a, pos) - pos, None))
            else:
                half = n // 2 - n // 2 % 8
                visit(a, half)
                visit(a + half, n - half)
                if a + n <= stop:
                    steps.append(())

        visit(0, self.size)
        for piece, (stack, carry) in zip(pieces, self.arrays, strict=True):
            flat = piece.reshape(-1)
            for step in steps:
                if not step:
                    right = stack.pop()
                    stack[-1] = stack[-1] + right
                elif step[0] is None:
                    carry.append(flat[:step[1]])
                    stack.append(np.add.reduce(np.concatenate(carry)))
                    carry.clear()
                elif step[1] is None:
                    carry.append(flat[step[0]:].copy())
                else:
                    stack.append(np.add.reduce(flat[step[0]:step[1]]))
        self.pos = stop

    def sums(self) -> list[float]:
        """The sums, +0.0 for arrays of no element (as np.sum's); none
        before the first piece."""
        return [float(stack[0]) if stack else 0.0
                for stack, _ in self.arrays or ()]


def _integrals(grid: Grid, fill) -> list[float]:
    """The one whole-domain quadrature: the integral of each integrand that
    fill(sl) returns on the axis-0 planes sl (see _slabs), times the slab's
    Grid.node_weights, summed slab by slab by _PairwiseSums: the bits of
    np.sum over a whole-grid temporary, with every temporary slab-sized."""
    sums = _PairwiseSums(int(np.prod(grid.shape)))
    for sl, w in _weighted_slabs(grid):
        sums.add([v * w for v in fill(sl)])
    return sums.sums()


def integrate(f: ScalarField) -> float:
    """Integral of a field over the whole domain (see Grid.node_weights)."""
    return _integrals(f.grid, lambda sl: (f.values[sl],))[0]


def radial_derivative(profile: np.ndarray) -> np.ndarray:
    """d/dr of a radial profile: central differences inside, one-sided (second
    order) at the ends. Needs at least 3 uniformly spaced radii."""
    prof = np.asarray(profile, dtype=float)
    if prof.ndim != 2 or prof.shape[0] < 3:
        raise ValueError("need a profile with at least 3 radii")
    r, v = prof[:, 0], prof[:, 1]
    steps = np.diff(r)
    if np.any(np.abs(steps - steps[0]) > 1e-9 * steps[0]):
        raise ValueError("radii must be uniformly spaced")
    dr = float(steps[0])
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * dr)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dr)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dr)
    return np.column_stack([r, d])


def _cell_stencil(grid: Grid, axis: int, x, outside: str):
    """(i0, i1, w) for the finite coordinates x on one grid axis: the
    nodes below and above each and the weight of the one above. A periodic
    axis wraps them; a zero-flux axis keeps them in its last cell and
    refuses a coordinate outside the domain with RegionError(outside)."""
    rel, n = (x - grid.lo[axis]) / grid.h, grid.points[axis]
    if grid.boundary == PERIODIC:
        k = np.floor(rel)
        i0 = (k % n).astype(int)  # k is whole, so k % n is exact
        return i0, (i0 + 1) % n, rel - k
    if np.any(rel < -1e-9) or np.any(rel > (n - 1) + 1e-9):
        raise RegionError(outside)
    i0 = np.clip(np.floor(rel).astype(int), 0, n - 2)
    return i0, i0 + 1, rel - i0


def interpolate(f: ScalarField, pts) -> np.ndarray:
    """Multilinear interpolation of a field (a ScalarField, or a _LazyField,
    which only this reads: on the corner nodes) at points (m, ndim)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    _check_finite(pts=pts)
    g = f.grid
    cells = [_cell_stencil(g, ax, pts[:, ax],
                           "interpolation point outside the domain")
             for ax in range(g.ndim)]
    out = np.zeros(len(pts))
    for corner in itertools.product((0, 1), repeat=g.ndim):
        idx = tuple(cell[c] for cell, c in zip(cells, corner))
        wt = np.ones(len(pts))
        for (_, _, w), c in zip(cells, corner):
            wt = wt * (w if c else 1.0 - w)
        out += wt * f.at(idx)
    return out


def line_sample(f: ScalarField, base, direction, samples: int,
                t_lo: float, t_hi: float) -> np.ndarray:
    """Field values (see interpolate) along the segment
    base + t*direction/|direction|.

    Returns rows (t, value) at `samples` equispaced parameters in
    [t_lo, t_hi], a whole number of at least 2. The whole segment must lie
    inside the domain.
    """
    _check_finite(samples=samples)
    if not float(samples).is_integer():
        raise ValueError(f"samples must be a whole number, got {samples}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    _check_finite(base=base, direction=direction, t_lo=t_lo, t_hi=t_hi)
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ValueError("direction must be nonzero")
    t = np.linspace(t_lo, t_hi, int(samples))
    pts = base[None, :] + t[:, None] * (direction / norm)[None, :]
    vals = interpolate(f, pts)
    return np.column_stack([t, vals])


def _plane_stencil(g: Grid, t: float):
    """(k0, k1, lam): the grid planes on each side of {x_last = t} and the
    weight of k1 (see _cell_stencil)."""
    _check_finite(t=t)
    return _cell_stencil(g, g.ndim - 1, t, f"plane t={t} outside the domain")


def restrict_to_plane(f: ScalarField, t: float) -> np.ndarray:
    """A ScalarField on the hyperplane {x_last = t}: linear interpolation
    between the two adjacent grid planes. Returns the transverse-shaped
    array."""
    g = f.grid
    k0, k1, lam = _plane_stencil(g, t)
    return (1.0 - lam) * f.at((..., k0)) + lam * f.at((..., k1))


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
    nd = grid.ndim - 1  # the plane's grid: the first ndim-1 axes
    plane = Grid(extent=grid.extent[:nd], points=grid.points[:nd],
                 boundary=grid.boundary, origin=grid.origin[:nd])
    ct = np.atleast_1d(np.asarray(center_transverse, dtype=float))
    # checked here first so that a refusal names the disc, not a ball
    _check_ball_margin(plane, ct, radius, what="plane disc",
                       axis="transverse axis")
    return float(ball_integrals(plane, [plane_values], ct, [radius],
                                supersample)[0, 0])
