"""The ball / slab-ball / disc quadrature core.

The windowed, separable `_BallQuadrature` must give the numbers of the
full-grid pass it replaced bit for bit; that pass is kept here as the
reference. Properties: linearity in the integrand, monotonicity in r for
non-negative integrands.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aclab import Grid, PERIODIC, RegionError, ZERO_FLUX, fields
from aclab.fields import (_CELL_DIAG, _BallQuadrature, ball_integrals,
                          disc_integral)


# ---------------------------------------------------------------- reference

def _reference_fractions(mesh, band, center, radius, h, supersample,
                         t_lo=None, t_hi=None):
    ndim = len(mesh)
    one = (np.arange(supersample) + 0.5) / supersample * h - 0.5 * h
    offsets = np.array(list(itertools.product(one, repeat=ndim)))
    pts = np.stack([m[band] for m in mesh], axis=-1)
    sub = pts[:, None, :] + offsets[None, :, :]
    inside = np.sum((sub - center) ** 2, axis=-1) <= radius * radius
    if t_lo is not None:
        tc = sub[..., -1]
        inside &= (tc >= t_lo) & (tc <= t_hi)
    return inside.mean(axis=1)


def reference_integral_many(grid, center, supersample, values_list, radius,
                            t_lo=None, t_hi=None):
    """Full-grid pass: full meshgrid coordinates, every node classified,
    band subcell points built as (cells, subcells, ndim) arrays."""
    center = np.asarray(center, dtype=float)
    h = grid.h
    mesh = grid.meshgrid()
    rel = [m - c for m, c in zip(mesh, center)]
    dist = np.sqrt(sum(r * r for r in rel))
    half_diag = _CELL_DIAG[grid.ndim] * h
    full = dist <= radius - half_diag
    empty = dist >= radius + half_diag
    if t_lo is not None:
        t = mesh[-1]
        full = full & ((t - 0.5 * h >= t_lo) & (t + 0.5 * h <= t_hi))
        empty = empty | ((t + 0.5 * h <= t_lo) | (t - 0.5 * h >= t_hi))
    band = ~(full | empty)
    frac = None
    if band.any():
        frac = _reference_fractions(mesh, band, center, radius, h,
                                    supersample, t_lo, t_hi)
    out = []
    for values in values_list:
        total = float(np.sum(values[full])) if full.any() else 0.0
        if frac is not None:
            total += float(np.sum(values[band] * frac))
        out.append(total * h ** grid.ndim)
    return out


def reference_disc_integral(grid, plane_values, center_transverse, radius,
                            supersample=4):
    """The stand-alone disc quadrature on the transverse axes."""
    nd = grid.ndim - 1
    if radius < 0:
        return 0.0
    if nd == 0:
        return float(plane_values)
    ct = np.atleast_1d(np.asarray(center_transverse, dtype=float))
    h = grid.h
    mesh = np.meshgrid(*[grid.axis_coords(ax) for ax in range(nd)],
                       indexing="ij")
    rel = [m - c for m, c in zip(mesh, ct)]
    dist = np.sqrt(sum(r * r for r in rel))
    half_diag = _CELL_DIAG[nd] * h
    full = dist <= radius - half_diag
    empty = dist >= radius + half_diag
    band = ~(full | empty)
    total = float(np.sum(plane_values[full])) if full.any() else 0.0
    if band.any():
        frac = _reference_fractions(mesh, band, ct, radius, h, supersample)
        total += float(np.sum(plane_values[band] * frac))
    return total * h ** nd


# ---------------------------------------------------------------- helpers

def box_grid(ndim, boundary, points=None):
    n = points or {1: 41, 2: 33, 3: 17}[ndim]
    return Grid(extent=(2.0,) * ndim, points=(n,) * ndim, boundary=boundary,
                origin=(-1.0,) * ndim)


def edge_radii(grid, center, count=6, largest=0.6):
    """Radii r with r - half_diag or r + half_diag equal, in floating
    point, to the computed distance of some node from the center: the
    full / band / empty and window edges sit exactly on nodes."""
    c = np.asarray(center, dtype=float)
    rel = [m - ci for m, ci in zip(grid.meshgrid(), c)]
    dist = np.unique(np.sqrt(sum(r * r for r in rel)))
    half_diag = _CELL_DIAG[grid.ndim] * grid.h
    picks = dist[(dist > 2 * half_diag) & (dist < largest)]
    picks = picks[np.linspace(0, len(picks) - 1, count).astype(int)]
    out = []
    for d in picks:
        for sign in (1.0, -1.0):
            r = d + sign * half_diag
            for _ in range(16):
                edge = r - half_diag if sign > 0 else r + half_diag
                if edge == d:
                    out.append(float(r))
                    break
                r = np.nextafter(r, np.inf if edge < d else -np.inf)
    assert len(out) >= count
    return out


CASES = [(ndim, boundary, ss) for ndim in (1, 2, 3)
         for boundary in (ZERO_FLUX, PERIODIC) for ss in (1, 2, 4)]


def _case_id(case):
    ndim, boundary, ss = case
    return f"{ndim}d-{boundary}-ss{ss}"


# ---------------------------------------------------------------- bit identity

@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_ball_and_slab_match_full_grid_reference(case):
    ndim, boundary, ss = case
    g = box_grid(ndim, boundary)
    rng = np.random.default_rng(ndim * 10 + ss)
    values = [rng.standard_normal(g.shape) for _ in range(3)]
    centers = [rng.uniform(-0.15, 0.15, ndim),      # off the nodes
               np.asarray(g.axis_coords(0)[len(g.axis_coords(0)) // 2]
                          * np.ones(ndim))]         # on a node
    for center in centers:
        radii = edge_radii(g, center) + list(rng.uniform(0.0, 0.65, 4)) + [0.0]
        ball = _BallQuadrature(g, center, ss, max(radii))
        for r in radii:
            assert ball.integral_many([v[ball.box] for v in values], r) == \
                reference_integral_many(g, center, ss, values, r)
        h = g.h
        node_t = g.axis_coords(ndim - 1)[len(g.axis_coords(0)) // 2 - 2]
        for t_lo, t_hi in ((-0.37, 0.21), (node_t - 0.5 * h, node_t + 2.5 * h),
                           (-2.0, 2.0)):
            slab = _BallQuadrature(g, center, ss, max(radii), t_lo, t_hi)
            for r in radii:
                assert slab.integral_many([v[slab.box] for v in values], r) == \
                    reference_integral_many(g, center, ss, values, r,
                                            t_lo=t_lo, t_hi=t_hi)


@pytest.mark.parametrize("nodes", [2, 64], ids=lambda n: f"runs-of-{n // 2}")
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_runs_of_gathered_nodes_and_formed_integrands_match_reference(
        case, nodes):
    """A radius gathers its full and its band nodes in runs of whole planes
    of about half a slab's nodes. With slabs of `nodes` nodes every run is
    a plane or a few, and the sums must keep the bits of the whole gather;
    integrands formed from the gathered values must give the reference's
    integrals of the integrands built whole."""
    ndim, boundary, ss = case
    g = box_grid(ndim, boundary)
    rng = np.random.default_rng(ndim * 100 + ss)
    a, b = (rng.standard_normal(g.shape) for _ in range(2))
    center = rng.uniform(-0.15, 0.15, ndim)
    radii = sorted(edge_radii(g, center) + list(rng.uniform(0.0, 0.65, 3)))
    with mock.patch.object(fields, "_SLAB_NODES", nodes), \
            mock.patch.object(fields, "_SLAB_SHARE", 10 ** 9):
        assert fields._slab_nodes(g) == nodes
        for slab in (None, (-0.37, 0.21)):
            got = ball_integrals(g, [a, b], center, radii, ss, slab,
                                 lambda x, y: (x * y, x - y, y))
            want = [reference_integral_many(g, center, ss, [a * b, a - b, b],
                                            r, *(slab or ())) for r in radii]
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("case", [c for c in CASES if c[0] > 1], ids=_case_id)
def test_disc_matches_reference(case):
    ndim, boundary, ss = case
    g = box_grid(ndim, boundary)
    plane_grid = box_grid(ndim - 1, boundary, points=g.points[0])
    rng = np.random.default_rng(ndim + ss)
    plane = rng.standard_normal(g.shape[:-1])
    ct = rng.uniform(-0.15, 0.15, ndim - 1)
    radii = (edge_radii(plane_grid, ct, largest=0.45)
             + list(rng.uniform(0.0, 0.5, 4))
             + [0.0, -0.1])
    for r in radii:
        assert disc_integral(g, plane, ct, r, ss) == \
            reference_disc_integral(g, plane, ct, r, ss)


def test_disc_point_case_and_margin():
    g1 = box_grid(1, ZERO_FLUX)
    assert disc_integral(g1, np.float64(2.5), (), 0.3) == 2.5
    assert disc_integral(g1, np.float64(2.5), (), -0.3) == 0.0
    g = box_grid(3, ZERO_FLUX)
    plane = np.ones(g.shape[:-1])
    with pytest.raises(RegionError, match="plane disc violates the 2h domain "
                                          "margin on transverse axis 1"):
        disc_integral(g, plane, (0.0, 0.5), 0.45)


def test_cumulative_profile_matches_reference():
    g = box_grid(3, ZERO_FLUX, points=25)
    f = np.random.default_rng(5).standard_normal(g.shape)
    center = (0.03, -0.07, 0.11)
    radii = np.linspace(0.2, 0.6, 9)
    vals = ball_integrals(g, [f], center, radii, 2)
    ref = [reference_integral_many(g, center, 2, [f], r)[0] for r in radii]
    assert vals[:, 0].tolist() == ref


# ---------------------------------------------------------------- properties

@st.composite
def ball_problems(draw):
    ndim = draw(st.sampled_from((1, 2, 3)))
    boundary = draw(st.sampled_from((ZERO_FLUX, PERIODIC)))
    points = draw(st.integers(17, {1: 64, 2: 33, 3: 21}[ndim]))
    g = Grid(extent=(2.0,) * ndim, points=(points,) * ndim,
             boundary=boundary, origin=(-1.0,) * ndim)
    center = tuple(draw(st.floats(-0.2, 0.2)) for _ in range(ndim))
    supersample = draw(st.sampled_from((1, 2, 4)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return g, center, supersample, np.random.default_rng(seed)


def _ball(values, g, center, r, slab, ss):
    return ball_integrals(g, [values], center, [r], ss, slab)[0, 0]


@settings(max_examples=40, deadline=None)
@given(ball_problems(), st.floats(0.0, 0.5), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.booleans())
def test_integral_is_linear(problem, r, a, b, use_slab):
    g, center, ss, rng = problem
    f, k = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    slab = (-0.3, 0.25) if use_slab else None

    def integral(v):
        return _ball(v, g, center, r, slab, ss)

    combined = integral(a * f + b * k)
    scale = abs(a) * integral(np.abs(f)) + abs(b) * integral(np.abs(k))
    assert abs(combined - (a * integral(f) + b * integral(k))) <= \
        1e-12 * (scale + 1e-300)


@settings(max_examples=40, deadline=None)
@given(ball_problems(), st.floats(0.0, 0.5), st.floats(0.0, 0.5),
       st.booleans())
def test_integral_of_nonnegative_field_grows_with_radius(problem, r1, r2,
                                                         use_slab):
    g, center, ss, rng = problem
    r_small, r_big = sorted((r1, r2))
    f = np.abs(rng.standard_normal(g.shape))
    slab = (-0.3, 0.25) if use_slab else None
    small = _ball(f, g, center, r_small, slab, ss)
    big = _ball(f, g, center, r_big, slab, ss)
    # exact in real arithmetic; the two sums group terms differently
    assert big >= small - 1e-12 * big
