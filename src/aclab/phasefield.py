"""Double-well potential, layer constructions, and a stationary solver for
the forced interface equation

    eps * lap(u) - W'(u)/eps = f,      W(t) = (1 - t^2)^2 / 2.

States are either manufactured (f defined as the discrete residual of an
exact profile, so the pair satisfies the discrete equation identically) or
solved by damped Newton with a gradient-flow warmup.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (PERIODIC, Grid, ScalarField, _check_finite, _grad_sq_at,
                     _integrals, _laplacian_planes, _neighbour_sum_into,
                     _scale_by_unit_weights, _slabs, _stream, _unit_weights)


class SolverError(RuntimeError):
    """Stationary solve failed; carries the best residual reached."""

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = float(best_residual)


def double_well(t):
    """W(t) = (1 - t^2)^2 / 2, minimized at the pure phases +-1."""
    t = np.asarray(t, dtype=float)
    w = (1.0 - t * t) ** 2 / 2.0
    return w if w.ndim else float(w)


def double_well_prime(t):
    """W'(t) = -2 t (1 - t^2)."""
    t = np.asarray(t, dtype=float)
    w = -2.0 * t * (1.0 - t * t)
    return w if w.ndim else float(w)


def double_well_second(t):
    """W''(t) = 6 t^2 - 2 (vanishes at t = 1/sqrt(3))."""
    t = np.asarray(t, dtype=float)
    w = 6.0 * t * t - 2.0
    return w if w.ndim else float(w)


@dataclass(frozen=True)
class Constants:
    """Scalar constants of the 1-d problem.

    sigma: int_{-1}^{1} sqrt(2 W)  -- surface tension of the profile
    alpha: int (tanh')^2           -- energy of one transition layer
    t0:    1/sqrt(3)               -- inflection point of W'
    """

    sigma: float
    alpha: float
    t0: float


def constants() -> Constants:
    """The closed forms sigma = alpha = 4/3 and t0 = 1/sqrt(3)."""
    return Constants(sigma=4.0 / 3.0, alpha=4.0 / 3.0, t0=1.0 / np.sqrt(3.0))


@dataclass(frozen=True)
class LayerSpec:
    """A stack of parallel transition layers along one axis, the planar
    and stack profile of a scenario. check_layer_fit checks it against a
    grid. Orientations alternate starting from first_sign (+-1), so the
    profile has exactly len(positions) sign changes.
    """

    positions: tuple[float, ...]
    axis: int = -1
    first_sign: int = 1

    @property
    def orientations(self) -> tuple[int, ...]:
        return tuple(self.first_sign * (-1) ** k for k in range(len(self.positions)))


@dataclass(frozen=True)
class PhaseFieldState:
    """A triple (u, f, eps) with the max-norm residual of the discrete
    equation recorded at construction.

    u and f are the state's only grid arrays: nothing derived from them is
    kept as one. |grad u|^2, mu, xi, the gradient of u, the unit normal
    and the node weights are formed by each reader where it reads them, a
    slab of axis-0 planes (or fewer nodes) at a time; `derived` keeps
    scalars and the ball identity's columns (one row per radius).
    """

    u: ScalarField
    f: ScalarField
    epsilon: float
    residual_norm: float
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if self.u.grid != self.f.grid:
            raise ValueError("u and f must share a grid")
        _check_epsilon(self.u.grid, self.epsilon)
        if not np.isfinite(self.residual_norm):
            raise ValueError("residual_norm must be finite")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def derived(self, key, compute):
        """The value of compute() stored under key, computed on first use.

        Values are shared: they must be immutable (read-only arrays).
        """
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]


def under_resolved(quantity: str, value: float, rule: str,
                   bound: float) -> str:
    """The refusal text of a resolution check: the quantity and its value,
    the rule it breaks and the rule's bound on the grid."""
    return f"{quantity}={value} under-resolves the grid: need {rule} = {bound}"


def _check_epsilon(grid: Grid, epsilon: float):
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if epsilon < 2.0 * grid.h - 1e-12 * grid.h:  # slack as in check_layer_fit
        raise ValueError(
            under_resolved("epsilon", epsilon, "eps >= 2h", 2 * grid.h))


def resolution_floor(grid: Grid, epsilon: float) -> float:
    """The smallest radius the monotonicity identities take: max(4h, eps)."""
    return max(4.0 * grid.h, epsilon)


def _operator_planes(u: np.ndarray, grid: Grid, epsilon: float, sl):
    """eps*lap_h(u) - W'(u)/eps, the left side of the equation, on the
    axis-0 planes sl."""
    return (epsilon * _laplacian_planes(u, grid, sl)
            - double_well_prime(u[sl]) / epsilon)


def make_state(u: ScalarField, f: ScalarField, epsilon: float) -> PhaseFieldState:
    """Assemble a state, recording the discrete residual max-norm, taken a
    slab of axis-0 planes at a time (np.max, so a NaN is kept)."""
    g = u.grid
    _check_epsilon(g, epsilon)
    rn = float(np.max([
        np.max(np.abs(_operator_planes(u.values, g, epsilon, sl)
                      - f.values[sl])) for sl in _slabs(g)]))
    return PhaseFieldState(u=u, f=f, epsilon=float(epsilon), residual_norm=rn)


def check_layer_fit(grid: Grid, epsilon: float, spec: LayerSpec):
    """The stack's scalar preconditions: at least one layer, strictly
    increasing positions, first_sign +-1, an axis of the grid, and layers
    4 eps apart and 6 eps from the domain faces on it. Raises ValueError;
    builds no array."""
    pos = spec.positions
    if not len(pos):
        raise ValueError("need at least one layer position")
    _check_finite(positions=pos)
    if any(b <= a for a, b in zip(pos, pos[1:])):
        raise ValueError("layer positions must be strictly increasing")
    if spec.first_sign not in (1, -1):
        raise ValueError("first_sign must be +1 or -1")
    if not -grid.ndim <= spec.axis < grid.ndim:
        raise ValueError(f"layer axis {spec.axis} is not an axis of a "
                         f"{grid.ndim}-d grid")
    axis = spec.axis % grid.ndim
    gaps = [b - a for a, b in zip(pos, pos[1:])]
    slack = 1e-12 * grid.h  # layers that fit exactly must not fail in floats
    if any(g < 4.0 * epsilon - slack for g in gaps):
        raise ValueError(f"overlapping layers: min gap {min(gaps)} < 4 eps")
    lo, hi = grid.lo[axis], grid.hi[axis]
    if min(pos[0] - lo, hi - pos[-1]) < 6.0 * epsilon - slack:
        raise ValueError("layer positions need a 6 eps margin to the domain faces")


def build_layer_stack(grid: Grid, epsilon: float, spec: LayerSpec) -> ScalarField:
    """Clamped superposition of tanh transitions with alternating orientation.

    u = c + sum_k s_k tanh((x_a - p_k)/eps), with c fixing the far field at
    -first_sign, then clamped to [-1, 1] (the unclamped overlap excess is
    exp(-gap/eps) small).
    """
    _check_epsilon(grid, epsilon)
    check_layer_fit(grid, epsilon, spec)
    x = grid.meshgrid(sparse=True)[spec.axis % grid.ndim]
    signs = spec.orientations
    u = np.full(grid.shape, float(sum(signs) - spec.first_sign))
    for p, s in zip(spec.positions, signs):
        u = u + s * np.tanh((x - p) / epsilon)
    return ScalarField(grid, np.clip(u, -1.0, 1.0))


def signed_distance_ball(grid: Grid, center, radius: float) -> np.ndarray:
    """Analytic signed distance to a sphere (negative inside)."""
    mesh = grid.meshgrid(sparse=True)
    c = np.atleast_1d(np.asarray(center, dtype=float))
    return np.sqrt(sum((m - ci) ** 2 for m, ci in zip(mesh, c))) - radius


def build_radial_layer(grid: Grid, epsilon: float, center, radius: float) -> ScalarField:
    """tanh profile across a circular/spherical interface, -1 inside."""
    _check_epsilon(grid, epsilon)
    _check_finite(center=center, radius=radius)
    return ScalarField(grid, np.tanh(signed_distance_ball(grid, center, radius) / epsilon))


def manufactured_forcing(u_exact: ScalarField, epsilon: float) -> ScalarField:
    """f := eps*lap_h(u) - W'(u)/eps, so (u_exact, f) solves the discrete
    equation with residual exactly zero. Built a slab of axis-0 planes at
    a time."""
    g = u_exact.grid
    _check_epsilon(g, epsilon)
    return ScalarField._adopt(g, _stream(g, lambda sl: (
        _operator_planes(u_exact.values, g, epsilon, sl),), 1)[0])


@functools.lru_cache(maxsize=8)
def _laplacian_matrix(points: tuple, h: float, boundary: str):
    """Sparse CSR matrix of the discrete Laplacian. The solver applies the
    stencil instead (`spsolve`); the benchmark's tracer binds this name."""
    import scipy.sparse as sp

    ones = [None] * len(points)
    blocks = []
    for ax, n in enumerate(points):
        main = np.full(n, -2.0)
        off = np.ones(n - 1)
        a = sp.diags([off, main, off], [-1, 0, 1], format="lil")
        if boundary == PERIODIC:
            a[0, n - 1] = 1.0
            a[n - 1, 0] = 1.0
        else:
            a[0, 1] = 2.0
            a[n - 1, n - 2] = 2.0
        blocks.append(sp.csr_matrix(a) / h ** 2)
        ones[ax] = sp.identity(n, format="csr")
    total = None
    for ax in range(len(points)):
        factors = [blocks[ax] if k == ax else ones[k] for k in range(len(points))]
        term = factors[0]
        for fct in factors[1:]:
            term = sp.kron(term, fct, format="csr")
        total = term if total is None else total + term
    return total.tocsr()


# A Newton system solved on its own goes to _LINEAR_RTOL; inside
# solve_stationary the tolerance is a forcing term. A poor direction is
# caught by the step acceptance test on the true nonlinear residual.
_LINEAR_RTOL = 1e-10
_LINEAR_MAXITER = 500
_FORCING_MAX = 1e-4
_FORCING_GAMMA = 0.9
# Choice 2 admits any exponent in (1, 2], its local q-order: at 2 the
# early pure-Newton steps solved to digits the next step did not use
_FORCING_EXPONENT = (1.0 + math.sqrt(5.0)) / 2.0
# Far below 1 because MINRES stops on its estimate of the preconditioned
# residual, not on the max-norm of R: at 0.1 tol/r_k both configs of the
# `solve` benchmark take one more Newton step.
_FORCING_TOL_FLOOR = 1e-3


def forcing_term(rnorm: float, rprev, tol: float) -> float:
    """Relative MINRES tolerance for the Newton step taken at residual
    max-norm rnorm, where rprev is the previous accepted step's residual
    (None on the first step): Eisenstat & Walker's (1996) choice 2,
    0.9 (rnorm/rprev)^phi with phi = (1+sqrt 5)/2, capped at 1e-4 and
    floored at 1e-3 tol/rnorm and 1e-10, so a solve is only as accurate as
    the next step can use."""
    if rprev is None:
        return _FORCING_MAX
    return min(_FORCING_MAX, max(_FORCING_GAMMA * (rnorm / rprev)
                                 ** _FORCING_EXPONENT,
                                 _FORCING_TOL_FLOOR * tol / rnorm,
                                 _LINEAR_RTOL))


def _laplacian_eigenvalues(points: tuple, h: float, boundary: str) -> np.ndarray:
    """Eigenvalues of -lap_h in the transform basis that diagonalises it,
    summed over axes: (4/h^2) sin^2(pi k/m) for k < n, with m = n in the
    FFT basis (periodic) and m = 2(n-1) in the DCT-I basis (zero-flux),
    whose even extension is the mirror ghost. A periodic last axis keeps
    k <= n/2, the half spectrum of a real FFT."""
    total = np.zeros((1,) * len(points))
    for ax, n in enumerate(points):
        m = n if boundary == PERIODIC else 2 * (n - 1)
        k = n // 2 + 1 if boundary == PERIODIC and ax == len(points) - 1 else n
        shape = [1] * len(points)
        shape[ax] = k
        lam = np.sin(np.pi * np.arange(k) / m) ** 2
        total = total + (4.0 / h ** 2) * lam.reshape(shape)
    return total


# The DCT-I transforms the lines of one axis in chunks of 1/_DCT_SHARE of
# another axis's planes, through two buffers of about 4/_DCT_SHARE grid
# arrays together.
_DCT_SHARE = 16


class _CosineTransform:
    """The DCT-I along every axis of a zero-flux grid array, in place:

        y_k = x_0 + (-1)^k x_{n-1} + 2 sum_{0<i<n-1} x_i cos(pi i k/(n-1))

    on each line, axis 0 first. A line's y is the real part of the real
    FFT of its even extension (x_0, ..., x_{n-1}, x_{n-2}, ..., x_1) of
    length 2(n-1), which is how pocketfft forms it, and numpy's FFT is the
    same pocketfft: the result has the bits of scipy.fft.dctn(x, type=1),
    and with `inverse` those of scipy.fft.idctn(x, type=1), which
    multiplies the axis-0 pass by 1/prod_k 2(n_k-1) rounded from long
    double. The lines go through two buffers allocated once, a chunk of
    1/_DCT_SHARE of another axis's planes at a time (axis 1 for axis 0,
    else axis 0; the one line in 1-d)."""

    def __init__(self, shape: tuple):
        nd = len(shape)
        self.scale = float(np.longdouble(1)
                           / math.prod(2 * (n - 1) for n in shape))
        chunks = []  # (axis, index of the chunk's lines, their shape)
        for ax in range(nd):
            cut = 1 if ax == 0 else 0
            planes = shape[cut] if nd > 1 else 1
            step = -(-planes // _DCT_SHARE)
            for lo in range(0, planes, step):
                block, part = [slice(None)] * nd, list(shape)
                if nd > 1:
                    hi = min(lo + step, planes)
                    block[cut], part[cut] = slice(lo, hi), hi - lo
                chunks.append((ax, tuple(block), part))
        self.even = np.empty(max(math.prod(p) // p[ax] * 2 * (p[ax] - 1)
                                 for ax, _, p in chunks))
        self.spectrum = np.empty(max(math.prod(p) for _, _, p in chunks),
                                 dtype=complex)
        self.chunks = []
        for ax, block, part in chunks:
            n = part[ax]
            spectrum = self.spectrum[:math.prod(part)].reshape(part)
            part[ax] = 2 * (n - 1)
            even = self.even[:math.prod(part)].reshape(part)
            axis = (slice(None),) * ax
            self.chunks.append((ax, block, axis + (slice(n - 2, 0, -1),),
                                even, even[axis + (slice(0, n),)],
                                even[axis + (slice(n, None),)], spectrum))

    def __call__(self, x: np.ndarray, inverse: bool = False) -> np.ndarray:
        for ax, block, mirror, even, head, tail, spectrum in self.chunks:
            lines = x[block]
            np.copyto(head, lines)
            np.copyto(tail, lines[mirror])
            np.fft.rfft(even, axis=ax, out=spectrum)
            if inverse and ax == 0:
                np.multiply(spectrum.real, self.scale, out=lines)
            else:
                np.copyto(lines, spectrum.real)
        return x


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product by numpy's own einsum kernel: one thread, and the same
    summation order at every BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def minres(matvec, psolve, b: np.ndarray, rtol: float, maxiter: int):
    """Preconditioned MINRES (Paige & Saunders 1975) for A x = b from x = 0,
    where matvec applies the symmetric A and psolve applies M^{-1} for a
    symmetric positive definite M. The recurrences and stopping tests are
    those of scipy.sparse.linalg.minres (scipy 1.17, shift 0); inner
    products and ||x|| use `_dot`. The arrays matvec returns are updated in
    place, and psolve's result is read before the next matvec. b is read
    only in the first two iterations, so matvec may return its buffer from
    the third on. Besides b and what matvec and psolve keep, it holds five
    vectors: x, v, a scratch and the two last directions w. Returns (x,
    iterations)."""
    n = b.size
    eps = np.finfo(float).eps
    x, w1, w2 = (np.zeros(n) for _ in range(3))
    v, tmp = np.empty(n), np.empty(n)
    r1 = r2 = b
    y = psolve(r1)
    beta1 = _dot(r1, y)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0
    beta1 = math.sqrt(beta1)
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin = 0.0, 0.0, np.finfo(float).max
    cs, sn = -1.0, 0.0
    itn = 0
    while itn < maxiter:
        itn += 1
        # Lanczos step: v = y/beta, then y = A v - alfa r2/beta - beta r1/oldb
        np.multiply(y, 1.0 / beta, out=v)
        y = matvec(v)
        if itn >= 2:
            y -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = _dot(v, y)
        y -= np.multiply(r2, alfa / beta, out=tmp)
        r1, r2 = r2, y
        y = psolve(r2)
        oldb, beta = beta, _dot(r2, y)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        tnorm2 += alfa ** 2 + oldb ** 2 + beta ** 2
        stop = itn == 1 and beta / beta1 <= 10 * eps
        # apply the previous plane rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # w = (v - oldeps w1 - delta w2)/gamma in the buffer of w1, which
        # it reads first and only once
        w = w1
        np.subtract(v, np.multiply(w1, oldeps, out=w), out=w)
        w -= np.multiply(w2, delta, out=tmp)
        w *= 1.0 / gamma
        w1, w2 = w2, w
        x += np.multiply(w, phi, out=tmp)
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(_dot(x, x))
        test1 = (math.inf if ynorm == 0 or anorm == 0
                 else phibar / (anorm * ynorm))  # ||r|| / (||A|| ||x||)
        test2 = math.inf if anorm == 0 else root / anorm  # ||Ar|| / (||A|| ||r||)
        if (stop or 1 + test1 <= 1 or 1 + test2 <= 1
                or gmax / gmin >= 0.1 / eps or anorm * ynorm * eps >= beta1
                or test1 <= rtol or test2 <= rtol):
            break
    return x, itn


# The interface coarse space of pure-Newton steps (`InterfaceSpace`): about
# _COARSE_MODES modes, m = round(64^(1/d)) per axis in every dimension;
# eigenvalues of Q^T M Q under _GRAM_CUTOFF times the largest are dropped
# as rank deficiency; Ritz values of the preconditioned Jacobian under
# _COARSE_FLOOR in magnitude are lifted to +-_COARSE_FLOOR.
_COARSE_MODES = 64
_GRAM_CUTOFF = 1e-10
_COARSE_FLOOR = 0.5
_AXES = "abc"


def _axis_modes(n: int, m: int, boundary: str) -> np.ndarray:
    """(m, n) table of the m smoothest modes on one axis: cos(pi k i/(n-1))
    on a zero-flux axis; 1, cos, sin, cos, ... of 2 pi k i/n on a periodic
    one."""
    i = np.arange(n)
    if boundary == PERIODIC:
        k = (np.arange(m) + 1) // 2
        theta = 2.0 * np.pi * np.outer(k, i) / n
        is_cos = (np.arange(m) % 2 == 1) | (k == 0)
        return np.where(is_cos[:, None], np.cos(theta), np.sin(theta))
    return np.cos(np.pi * np.outer(np.arange(m), i) / (n - 1))


def _contract(field: np.ndarray, tables) -> np.ndarray:
    """sum_i field[i] prod_k tables[k][p_k, i_k], of shape (P_0, ..., P_d-1),
    one axis at a time from the contiguous one. einsum keeps it in numpy's
    own kernels: a BLAS product of grid-sized operands changes its bits with
    the thread count."""
    idx = list(_AXES[:field.ndim])
    for ax in reversed(range(field.ndim)):
        src = "".join(idx)
        idx[ax] = idx[ax].upper()
        field = np.einsum(f"{src},{idx[ax]}{_AXES[ax]}->{''.join(idx)}",
                          field, tables[ax])
    return field


def _expand(coeffs: np.ndarray, tables, out: np.ndarray) -> np.ndarray:
    """out = sum_p coeffs[p] prod_k tables[k][p_k, i_k] on the grid: the
    adjoint of `_contract`."""
    last = coeffs.ndim - 1
    idx = list(_AXES[:last + 1].upper())
    for ax in range(last + 1):
        src = "".join(idx)
        idx[ax] = _AXES[ax]
        coeffs = np.einsum(f"{src},{src[ax]}{_AXES[ax]}->{''.join(idx)}",
                           coeffs, tables[ax], out=out if ax == last else None)
    return coeffs


class InterfaceSpace:
    """Coarse space of a pure-Newton step, localised on the interface:
    Q = g * (products of the m smoothest modes per axis), with the weight
    g = |grad_h u|, the square root of `fields._grad_sq_at` on the whole
    grid, the |grad u|^2 every analysis forms, 0 in the pure phases. K is
    the pure-Newton operator at u, diag = W''(u)/eps.

    With A = D*K and M = D*P the operator and preconditioner of `spsolve`,
    the Galerkin matrices Q^T A Q and Q^T M Q are summed from the stencil
    in closed form: K = diag - eps*lap_h and D*lap_h is the negative of a
    graph Laplacian whose edges carry the node weights of the other axes,
    so each matrix is a node sum and one edge sum per axis, contracted
    separably in O(N m^2) per axis (N nodes). The generalised eigenvectors
    Y (Y^T Q^T M Q Y = I, Y^T Q^T A Q Y = diag(lam)) are the Ritz vectors
    of M^{-1} A on range(Q). `add_correction` applies

        Q Y diag(max(floor/|lam| - 1, 0)) Y^T Q^T,

    symmetric and positive semidefinite, so M^{-1} plus it is SPD: it lifts
    the Ritz values under floor = 1/2 in magnitude (the interface modes
    u'(r) cos(k theta), near 0) to +-1/2 and leaves the rest of the
    spectrum where M^{-1} put it, in [-1, 1]. Lifting them to 1/2, not
    to 1, keeps MINRES's estimate of the operator norm, which its stopping
    test divides by, near its value without the correction, so the true
    residual at a given tolerance stays about as small. An interface-free
    state (g = 0) has an empty space, and `spsolve` then runs without it.
    """

    def __init__(self, grid: Grid, epsilon: float, u: np.ndarray):
        shape, nd, h = grid.shape, grid.ndim, grid.h
        self.g = np.sqrt(_grad_sq_at(u, grid, ...))
        diag = double_well_second(u) / epsilon
        m = round(_COARSE_MODES ** (1.0 / nd))
        self.modes = [_axis_modes(n, min(m, n), grid.boundary) for n in shape]
        # the node weights of D = node_weights/h^d
        unit = _unit_weights(grid)
        pairs = [np.einsum("ai,bi->abi", t, t).reshape(-1, t.shape[1])
                 for t in self.modes]
        weighted = unit * self.g * self.g
        c = float(np.max(np.abs(diag)))
        # Q^T M Q: the node sum of P = c - eps*lap_h (the diagonal of
        # -eps D lap_h is 2 nd eps/h^2 D) less its edge sums
        precond = _contract(weighted * (c + 2.0 * nd * epsilon / h ** 2),
                            pairs)
        for ax in range(nd):
            # the weights of the other axes: D at an interior node of ax
            other = np.take(unit, [shape[ax] // 2], axis=ax)
            t = self.modes[ax]
            if grid.boundary == PERIODIC:
                edge = other * self.g * np.roll(self.g, -1, axis=ax)
                here, there = t, np.roll(t, -1, axis=1)
            else:
                lo = (slice(None),) * ax + (slice(0, -1),)
                hi = (slice(None),) * ax + (slice(1, None),)
                edge = (other * self.g)[lo] * self.g[hi]
                here, there = t[:, :-1], t[:, 1:]
            cross = (np.einsum("ai,bi->abi", here, there)
                     + np.einsum("ai,bi->abi", there, here))
            tables = list(pairs)
            tables[ax] = cross.reshape(-1, cross.shape[2])
            precond -= (epsilon / h ** 2) * _contract(edge, tables)
        # Q^T A Q differs from Q^T M Q by the node sum of diag - c
        galerkin = precond - _contract(weighted * (c - diag), pairs)
        self.shape = [t.shape[0] for t in self.modes]
        size = int(np.prod(self.shape))
        # (a0, a0', a1, a1', ...) -> (a0, a1, ..., a0', a1', ...)
        order = [*range(0, 2 * nd, 2), *range(1, 2 * nd, 2)]
        square = [x.reshape([k for mk in self.shape for k in (mk, mk)])
                  .transpose(order).reshape(size, size)
                  for x in (precond, galerkin)]
        sig, vec = np.linalg.eigh(square[0])
        keep = sig > _GRAM_CUTOFF * max(sig[-1], 0.0)
        w = vec[:, keep] / np.sqrt(sig[keep])
        lam, rot = np.linalg.eigh(
            np.einsum("ki,kj->ij", w, np.einsum("kl,lj->kj", square[1], w)))
        lift = _COARSE_FLOOR / np.maximum(np.abs(lam), 1e-300) - 1.0
        self.basis = np.einsum("ik,kj->ij", w, rot)[:, lift > 0]
        self.weights = lift[lift > 0]

    def add_correction(self, r: np.ndarray, out: np.ndarray,
                       work: np.ndarray):
        """out += Q Y diag(weights) Y^T Q^T r, for grid-shaped r and out,
        with work a scratch array of the same shape."""
        np.multiply(self.g, r, out=work)
        c = np.einsum("ij,i->j", self.basis,
                      _contract(work, self.modes).ravel())
        c *= self.weights
        y = np.einsum("ij,j->i", self.basis, c).reshape(self.shape)
        out += np.multiply(self.g, _expand(y, self.modes, out=work), out=work)


def spsolve(grid: Grid, epsilon: float, diag: np.ndarray, rhs: np.ndarray,
            rtol: float = _LINEAR_RTOL, coarse: InterfaceSpace = None,
            shift: float = 0.0) -> np.ndarray:
    """Preconditioned MINRES solve of one Newton system K du = rhs, where

        K = diag(diag + shift) - eps*lap_h,    diag = W''(u)/eps,

    i.e. (I/dtau - J) on pseudo-transient steps (shift = 1/dtau) and -J
    on pure-Newton steps (shift = 0); the shift is added where the centre
    is formed, so diag + shift is never an array of its own. With
    D = node_weights/h^d, D*K is symmetric, so MINRES runs on
    D*K du = D*rhs (the same iterates as on the symmetrised
    D^{1/2} K D^{-1/2}). The matvec applies D*K as one fused operator,
    centre*x - D*((eps/h^2) S(x)) with S the neighbour sum of the
    Laplacian stencil (`fields._neighbour_sum_into`) and
    centre = D*(diag + shift + 2 nd eps/h^2); no matrix is assembled, and
    D is never an array: it scales the zero-flux face planes one axis at
    a time (`fields._scale_by_unit_weights`), with the bits of the whole
    product. The preconditioner is (D*P)^{-1} with P = c*I - eps*lap_h
    and c = max|diag + shift|: symmetric positive definite, and applied
    exactly by numpy's FFT: a DCT-I (`_CosineTransform`, zero-flux) or a
    real FFT on the half spectrum (periodic). With `coarse`, an
    `InterfaceSpace` of a pure-Newton step, its correction is added to it
    (still SPD). MINRES stops at relative residual rtol.

    diag is overwritten: the centre is formed in its buffer, after c has
    been read from it. Besides MINRES's five vectors the solve holds six
    grid arrays: the centre, the transform's symbol, three matvec products
    (MINRES keeps the two before the last), of which D*rhs is the third
    (MINRES reads b only in its first two iterations), and the neighbour
    sum, in which the preconditioner also works (MINRES has read its
    result before the next matvec); the coarse correction works in the
    product matvec writes next; and the DCT-I's chunk buffers, about
    4/_DCT_SHARE = 1/4 of a grid array.
    """
    shape = grid.shape
    # max|fl(x + shift)| over diag is reached at diag's max or min, as
    # x -> fl(x + shift) is monotone
    c = max(abs(float(np.max(diag)) + shift), abs(float(np.min(diag)) + shift))
    inv_symbol = 1.0 / (c + epsilon * _laplacian_eigenvalues(
        grid.points, grid.h, grid.boundary))
    coupling = epsilon / grid.h ** 2
    centre = np.add(diag, shift, out=diag).reshape(shape)
    centre += 2.0 * grid.ndim * coupling
    centre = _scale_by_unit_weights(centre, grid).ravel()
    spread = np.empty(shape)
    if grid.boundary != PERIODIC:
        dct = _CosineTransform(shape)
    b = _scale_by_unit_weights(np.array(rhs, dtype=float).reshape(shape),
                               grid).ravel()
    # minres keeps the two products before the last, so three buffers
    # rotate; b is the third, which minres reads only in its first two
    # iterations and matvec first writes in the third
    products = [np.empty(b.size), np.empty(b.size), b]

    def matvec(x):
        y = products.pop(0)
        products.append(y)
        _neighbour_sum_into(x.reshape(shape), grid, spread)
        np.multiply(centre, x, out=y)
        np.multiply(spread, coupling, out=spread)
        y -= _scale_by_unit_weights(spread, grid).ravel()
        return y

    def precondition(y):
        # D^{-1} y, transformed in place in `spread` until the next call
        x = spread
        np.copyto(x, y.reshape(shape))
        _scale_by_unit_weights(x, grid, 2.0)
        if grid.boundary == PERIODIC:
            spectrum = np.fft.rfftn(x)
            spectrum *= inv_symbol
            np.fft.irfftn(spectrum, s=shape, axes=tuple(range(grid.ndim)),
                          out=x)
        else:
            dct(x)
            x *= inv_symbol
            dct(x, inverse=True)
        return x.ravel()

    if coarse is not None and coarse.weights.size:
        plain = precondition

        def precondition(y):
            # the correction works in the product matvec writes next: minres
            # holds only the other two when it preconditions
            x = plain(y)
            coarse.add_correction(y.reshape(shape), x.reshape(shape),
                                  products[0].reshape(shape))
            return x

    du, _ = minres(matvec, precondition, b, rtol=rtol,
                   maxiter=_LINEAR_MAXITER)
    return du.reshape(shape)


def _resid_energy(grid: Grid, epsilon: float, u: np.ndarray, f: np.ndarray):
    """The residual R(u) = eps*lap_h(u) - W'(u)/eps - f, as a new grid
    array, and the energy

        F(u) = sum_w [ -(eps/2) u lap_h(u) + W(u)/eps + f u ],

    whose weighted gradient is -R, from one walk of weighted slabs: each
    slab's Laplacian serves both, R is written into its planes and F's
    integrand summed by `_integrals`, so every temporary besides R is
    slab-sized, and R and F keep the bits of the whole-grid expressions.
    F is not checked finite, so that a trial whose F overflows is
    rejected."""
    r = np.empty(grid.shape)

    def fill(sl):
        uv, fv = u[sl], f[sl]
        lap = _laplacian_planes(u, grid, sl)
        np.subtract(epsilon * lap - double_well_prime(uv) / epsilon, fv,
                    out=r[sl])
        return (-0.5 * epsilon * uv * lap + double_well(uv) / epsilon
                + fv * uv,)

    return r, _integrals(grid, fill)[0]


def solve_stationary(grid: Grid, epsilon: float, f: ScalarField,
                     u_init: ScalarField, tol: float = 1e-10,
                     max_iter: int = 50) -> PhaseFieldState:
    """Damped Newton via pseudo-transient continuation on the discrete
    residual R(u) = eps*lap_h(u) - W'(u)/eps - f.

    Every step solves (I/dtau - J) du = R by preconditioned MINRES (see
    `spsolve`), a semi-implicit gradient-flow step for finite dtau and the
    Newton step as dtau -> infinity. Steps are accepted when either the
    residual max-norm or the discrete energy F (`_resid_energy`, which
    forms R and F in one walk) decreases; the energy clause lets far
    initial guesses follow the flow through residual humps into the right
    basin, as in the 1-d picture du/dt = -W'(u)/eps. dtau grows on accepted
    steps and collapses to pure Newton once the residual contracts strongly,
    giving the usual quadratic tail. This is inexact Newton: each step's
    MINRES tolerance is the forcing term of `forcing_term`, loose (1e-4)
    while the residual is large and tightening as the steps contract, and
    retried trials of a step reuse it. The pure-Newton steps are two-level:
    the first one builds an `InterfaceSpace` at its u, whose correction is
    added to the preconditioner of every pure-Newton solve of the call
    (the interface barely moves in the tail). Deterministic at every BLAS
    thread count (the forcing terms follow from the residuals; fixed
    ordering, single-worker transforms, grid-sized products and MINRES
    inner products without BLAS). The state records the residual max-norm
    of the last step's test: the expression of a state assembled from its
    u, f and eps, in the same order, so the same bits. Raises SolverError,
    before any linear solve, when the guess's residual is not finite, and
    with the best residual when a linear solve gives a non-finite step or
    max_iter accepted steps cannot reach tol.

    Through a linear solve a step holds u, R and the coarse space's
    weight, but not the last step's du, and W''(u)/eps only as the centre
    `spsolve` forms in it: with `spsolve`'s six arrays and MINRES's five,
    about 14 grid arrays besides f. u_init is read, never copied, and not
    held past the first step (on CPython >= 3.11, when the caller holds
    no name to it either).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    _check_epsilon(grid, epsilon)
    if u_init.grid != grid or f.grid != grid:
        raise ValueError("fields must live on the target grid")

    # read-only; every step forms a new array. The guess is not held past
    # the first step: on CPython >= 3.11 a frame owns its call arguments,
    # so a guess passed as a temporary is freed with the first step's u.
    u = u_init.values
    del u_init
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        r, fu = _resid_energy(grid, epsilon, u, f.values)
    rnorm = float(np.max(np.abs(r)))
    if not np.isfinite(rnorm):
        raise SolverError(
            f"the initial guess's residual is not finite ({rnorm})", rnorm)
    best = rnorm
    if rnorm <= tol:
        return PhaseFieldState(ScalarField(grid, u), f, float(epsilon), rnorm)

    dtau = epsilon / 4.0
    pure_newton = False
    rprev = None
    coarse = None
    for _ in range(max_iter):
        eta = forcing_term(rnorm, rprev, tol)
        if pure_newton and coarse is None:
            coarse = InterfaceSpace(grid, epsilon, u)
        while True:
            # W''(u)/eps is formed for each trial, as spsolve overwrites it;
            # du is added and dropped: it is not held through the next solve.
            # A huge r can overflow MINRES's inner products: refused below
            with np.errstate(over="ignore", invalid="ignore"):
                trial = u + spsolve(grid, epsilon,
                                    double_well_second(u) / epsilon, r,
                                    rtol=eta,
                                    coarse=coarse if pure_newton else None,
                                    shift=0.0 if pure_newton else 1.0 / dtau)
            if not np.all(np.isfinite(trial)):
                raise SolverError(f"the linear solve at residual {rnorm:.3e} "
                                  "gave a non-finite step", best)
            rt_field, ft = _resid_energy(grid, epsilon, trial, f.values)
            rt = float(np.max(np.abs(rt_field)))
            if np.isfinite(rt) and (rt < rnorm or (
                    not pure_newton and ft <= fu + 1e-12 * (1.0 + abs(fu)))):
                break
            if pure_newton:
                pure_newton = False
            else:
                dtau /= 10.0
                if dtau < 1e-14:
                    raise SolverError(
                        f"pseudo-timestep underflow at residual {best:.3e}", best)
        contraction = rt / rnorm if rnorm > 0 else 0.0
        rprev = rnorm
        u, r, rnorm, fu = trial, rt_field, rt, ft
        best = min(best, rnorm)
        if rnorm <= tol:
            return PhaseFieldState(ScalarField(grid, u), f, float(epsilon),
                                   rnorm)
        if contraction <= 0.3:
            pure_newton = True
        elif not pure_newton:
            dtau *= 3.0
    raise SolverError(
        f"stationary solve did not reach tol={tol}: best residual {best:.3e}", best)
