"""Double-well potential, heteroclinic profile, layer constructions, and a
stationary solver for the forced interface equation

    eps * lap(u) - W'(u)/eps = f,      W(t) = (1 - t^2)^2 / 2.

States are either manufactured (f defined as the discrete residual of an
exact profile, so the pair satisfies the discrete equation identically) or
solved by damped Newton with a gradient-flow warmup.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.integrate
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, minres

from .fields import PERIODIC, Grid, ScalarField, laplacian


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


def heteroclinic(t):
    """The 1-d transition profile q(t) = tanh t and its derivative sech^2 t.

    Satisfies q' = sqrt(2 W(q)) identically; its energy integral
    int (q')^2 dt = 4/3 is the quantization unit.
    """
    t = np.asarray(t, dtype=float)
    q = np.tanh(t)
    dq = 1.0 - q * q
    if q.ndim:
        return q, dq
    return float(q), float(dq)


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


@functools.lru_cache(maxsize=1)
def constants() -> Constants:
    """Compute sigma and alpha by adaptive quadrature, cross-checked against
    the closed antiderivatives (both equal 4/3 for this potential)."""
    sigma, sig_err = scipy.integrate.quad(
        lambda s: np.sqrt(2.0 * double_well(s)), -1.0, 1.0)
    alpha, alp_err = scipy.integrate.quad(
        lambda s: (1.0 - np.tanh(s) ** 2) ** 2, -40.0, 40.0, limit=200)
    if sig_err > 1e-8 or alp_err > 1e-8:
        raise RuntimeError("quadrature for the layer constants did not converge")
    exact = 4.0 / 3.0
    if abs(sigma - exact) > 1e-8 or abs(alpha - exact) > 1e-8:
        raise RuntimeError(
            f"layer constants disagree with closed forms: sigma={sigma}, alpha={alpha}")
    return Constants(sigma=sigma, alpha=alpha, t0=1.0 / np.sqrt(3.0))


@dataclass(frozen=True)
class LayerSpec:
    """A stack of parallel transition layers along one axis.

    positions must be strictly increasing; orientations alternate starting
    from first_sign, so the profile has exactly len(positions) sign changes.
    """

    positions: tuple[float, ...]
    axis: int = -1
    first_sign: int = 1

    def __post_init__(self):
        pos = tuple(float(p) for p in self.positions)
        if len(pos) < 1:
            raise ValueError("need at least one layer position")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("layer positions must be strictly increasing")
        if self.first_sign not in (1, -1):
            raise ValueError("first_sign must be +1 or -1")
        object.__setattr__(self, "positions", pos)

    @property
    def orientations(self) -> tuple[int, ...]:
        return tuple(self.first_sign * (-1) ** k for k in range(len(self.positions)))


@dataclass(frozen=True)
class PhaseFieldState:
    """A triple (u, f, eps) with the max-norm residual of the discrete
    equation recorded at construction.

    Arrays derived from the state (its gradient, the density fields, the
    unit normal) are computed once through `derived` and kept for the
    state's lifetime.
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

        Threads racing on a missing key may each compute it, but setdefault
        keeps the first value stored, so every caller gets the same object.
        Values are shared: they must be immutable (read-only arrays).
        """
        try:
            return self._derived[key]
        except KeyError:
            return self._derived.setdefault(key, compute())


def _check_epsilon(grid: Grid, epsilon: float):
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if epsilon < 2.0 * grid.h:
        raise ValueError(
            f"epsilon={epsilon} under-resolves the layer: need eps >= 2h = {2 * grid.h}")


def residual_field(u: ScalarField, f: ScalarField, epsilon: float) -> np.ndarray:
    return (epsilon * laplacian(u).values
            - double_well_prime(u.values) / epsilon - f.values)


def make_state(u: ScalarField, f: ScalarField, epsilon: float) -> PhaseFieldState:
    """Assemble a state, recording the discrete residual max-norm."""
    rn = float(np.max(np.abs(residual_field(u, f, epsilon))))
    return PhaseFieldState(u=u, f=f, epsilon=float(epsilon), residual_norm=rn)


def check_layer_fit(grid: Grid, epsilon: float, spec: LayerSpec):
    """The stack's scalar preconditions: an axis of the grid, and layers
    4 eps apart and 6 eps from the domain faces on it. Raises ValueError;
    builds no array."""
    if not -grid.ndim <= spec.axis < grid.ndim:
        raise ValueError(f"layer axis {spec.axis} is not an axis of a "
                         f"{grid.ndim}-d grid")
    axis = spec.axis % grid.ndim
    pos = spec.positions
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
    x = grid.meshgrid()[spec.axis % grid.ndim]
    signs = spec.orientations
    u = np.full(grid.shape, float(sum(signs) - spec.first_sign))
    for p, s in zip(spec.positions, signs):
        u = u + s * np.tanh((x - p) / epsilon)
    return ScalarField(grid, np.clip(u, -1.0, 1.0))


def signed_distance_ball(grid: Grid, center, radius: float) -> np.ndarray:
    """Analytic signed distance to a sphere (negative inside)."""
    mesh = grid.meshgrid()
    c = np.atleast_1d(np.asarray(center, dtype=float))
    return np.sqrt(sum((m - ci) ** 2 for m, ci in zip(mesh, c))) - radius


def build_radial_layer(grid: Grid, epsilon: float, center, radius: float) -> ScalarField:
    """tanh profile across a circular/spherical interface, -1 inside."""
    _check_epsilon(grid, epsilon)
    return ScalarField(grid, np.tanh(signed_distance_ball(grid, center, radius) / epsilon))


def manufactured_forcing(u_exact: ScalarField, epsilon: float) -> ScalarField:
    """f := eps*lap_h(u) - W'(u)/eps, so (u_exact, f) solves the discrete
    equation with residual exactly zero."""
    _check_epsilon(u_exact.grid, epsilon)
    f = (epsilon * laplacian(u_exact).values
         - double_well_prime(u_exact.values) / epsilon)
    return ScalarField(u_exact.grid, f)


@functools.lru_cache(maxsize=8)
def _laplacian_matrix(points: tuple, h: float, boundary: str) -> sp.csr_matrix:
    """Sparse matrix of the discrete Laplacian used by Newton."""
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
# Far below 1 because MINRES stops on its estimate of the preconditioned
# residual, not on the max-norm of R: at 0.1 tol/r_k both configs of the
# `solve` benchmark take one more Newton step.
_FORCING_TOL_FLOOR = 1e-3


def forcing_term(rnorm: float, rprev, tol: float) -> float:
    """Relative MINRES tolerance for the Newton step taken at residual
    max-norm rnorm, where rprev is the previous accepted step's residual
    (None on the first step): Eisenstat & Walker's (1996) choice 2,
    0.9 (rnorm/rprev)^2, capped at 1e-4 and floored at 1e-3 tol/rnorm and
    1e-10, so a solve is only as accurate as the next step can use."""
    if rprev is None:
        return _FORCING_MAX
    return min(_FORCING_MAX, max(_FORCING_GAMMA * (rnorm / rprev) ** 2,
                                 _FORCING_TOL_FLOOR * tol / rnorm,
                                 _LINEAR_RTOL))


def _laplacian_eigenvalues(points: tuple, h: float, boundary: str) -> np.ndarray:
    """Eigenvalues of -lap_h in the transform basis that diagonalises it,
    summed over axes: (4/h^2) sin^2(pi k/m) for k < n, with m = n in the
    FFT basis (periodic) and m = 2(n-1) in the DCT-I basis (zero-flux),
    whose even extension is the mirror ghost."""
    total = np.zeros((1,) * len(points))
    for ax, n in enumerate(points):
        m = n if boundary == PERIODIC else 2 * (n - 1)
        shape = [1] * len(points)
        shape[ax] = n
        lam = np.sin(np.pi * np.arange(n) / m) ** 2
        total = total + (4.0 / h ** 2) * lam.reshape(shape)
    return total


def spsolve(grid: Grid, lap_mat: sp.csr_matrix, epsilon: float,
            diag: np.ndarray, rhs: np.ndarray,
            rtol: float = _LINEAR_RTOL) -> np.ndarray:
    """Preconditioned MINRES solve of one Newton system K du = rhs, where

        K = diag(diag) - eps*lap_h,    diag = W''(u)/eps + 1/dtau,

    i.e. (I/dtau - J) on pseudo-transient steps and -J (1/dtau dropped) on
    pure-Newton steps. With D = node_weights/h^d, D*K is symmetric, so
    MINRES runs on D*K du = D*rhs (the same iterates as on the symmetrised
    D^{1/2} K D^{-1/2}). The preconditioner is (D*P)^{-1} with
    P = c*I - eps*lap_h and c = max|diag|: symmetric positive definite, and
    applied exactly by DCT-I (zero-flux) or FFT (periodic). Matvecs use the
    sparse Laplacian `lap_mat`. MINRES stops at relative residual rtol.
    """
    shape = grid.shape
    d = (grid.node_weights() / grid.h ** grid.ndim).ravel()
    diag = diag.ravel()
    c = float(np.max(np.abs(diag)))
    inv_symbol = 1.0 / (c + epsilon * _laplacian_eigenvalues(
        grid.points, grid.h, grid.boundary))

    def matvec(x):
        return d * (diag * x - epsilon * (lap_mat @ x))

    def precondition(y):
        y = (y / d).reshape(shape)
        if grid.boundary == PERIODIC:
            x = scipy.fft.ifftn(scipy.fft.fftn(y) * inv_symbol).real
        else:
            x = scipy.fft.dctn(y, type=1, overwrite_x=True) * inv_symbol
            x = scipy.fft.idctn(x, type=1, overwrite_x=True)
        return x.ravel()

    n = d.size
    du, _ = minres(LinearOperator((n, n), matvec=matvec), d * rhs.ravel(),
                   M=LinearOperator((n, n), matvec=precondition),
                   rtol=rtol, maxiter=_LINEAR_MAXITER)
    return du.reshape(shape)


def solve_stationary(grid: Grid, epsilon: float, f: ScalarField,
                     u_init: ScalarField, tol: float = 1e-10,
                     max_iter: int = 50) -> PhaseFieldState:
    """Damped Newton via pseudo-transient continuation on the discrete
    residual R(u) = eps*lap_h(u) - W'(u)/eps - f.

    Every step solves (I/dtau - J) du = R by preconditioned MINRES (see
    `spsolve`), a semi-implicit gradient-flow step for finite dtau and the
    Newton step as dtau -> infinity. Steps are accepted when either the
    residual max-norm or the discrete energy

        F(u) = sum_w [ -(eps/2) u lap_h(u) + W(u)/eps + f u ]

    (whose weighted gradient is -R) decreases; the energy clause lets far
    initial guesses follow the flow through residual humps into the right
    basin, as in the 1-d picture du/dt = -W'(u)/eps. dtau grows on accepted
    steps and collapses to pure Newton once the residual contracts strongly,
    giving the usual quadratic tail. This is inexact Newton: each step's
    MINRES tolerance is the forcing term of `forcing_term`, loose (1e-4)
    while the residual is large and tightening as the steps contract, and
    retried trials of a step reuse it. Deterministic for a fixed BLAS
    thread count (the forcing terms follow from the residuals; fixed
    ordering, single-worker transforms). Raises SolverError with the best
    residual when max_iter accepted steps cannot reach tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    _check_epsilon(grid, epsilon)
    if u_init.grid != grid or f.grid != grid:
        raise ValueError("fields must live on the target grid")

    fv = f.values
    weights = grid.node_weights()
    lap_mat = _laplacian_matrix(grid.points, grid.h, grid.boundary)

    def resid_energy(uv):
        """R(uv) and F(uv) from one Laplacian, freed on return."""
        lap_uv = laplacian(ScalarField(grid, uv)).values
        dens = (-0.5 * epsilon * uv * lap_uv
                + double_well(uv) / epsilon + fv * uv)
        return (epsilon * lap_uv - double_well_prime(uv) / epsilon - fv,
                float(np.sum(dens * weights)))

    u = u_init.values.copy()
    r, fu = resid_energy(u)
    rnorm = float(np.max(np.abs(r)))
    best = rnorm
    if rnorm <= tol:
        return make_state(ScalarField(grid, u), f, epsilon)

    dtau = epsilon / 4.0
    pure_newton = False
    rprev = None
    for _ in range(max_iter):
        w2 = double_well_second(u) / epsilon
        eta = forcing_term(rnorm, rprev, tol)
        while True:
            du = spsolve(grid, lap_mat, epsilon,
                         w2 if pure_newton else w2 + 1.0 / dtau, r, rtol=eta)
            trial = u + du
            rt_field, ft = resid_energy(trial)
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
            return make_state(ScalarField(grid, u), f, epsilon)
        if contraction <= 0.3:
            pure_newton = True
        elif not pure_newton:
            dtau *= 3.0
    raise SolverError(
        f"stationary solve did not reach tol={tol}: best residual {best:.3e}", best)
