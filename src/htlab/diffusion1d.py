"""One-dimensional drift diffusion with reflecting walls.

The reference process is dX = -U'(X) dt + dW on a truncated interval, with
reversing density proportional to e^{-2U}. The backward function g is solved
with Crank-Nicolson; the forward function f is stepped with the exact
m-weighted adjoint of the backward scheme, so the discrete pairing of f and g
against the reversing weights is conserved to rounding. The transformed
process moves with drift -U' + d/dx log g and is sampled by Euler-Maruyama
with reflection.

Reflecting walls emulate the whole line on a bounded window: terminal weights
and initial laws should live in the bulk, and the closed-form comparisons in
the tests measure (rather than hide) the residual boundary contamination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from htlab.errors import (DegenerateInputError, ModelValidationError,
                          PositivityError)
from htlab.feynman_kac import derivative
from htlab.markov_core import TimeGrid, _freeze


@dataclass(frozen=True)
class Diffusion1DModel:
    """Potential landscape on a uniform spatial grid with no-flux walls."""

    x_min: float
    x_max: float
    M: int
    U: np.ndarray

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ModelValidationError("domain must have positive width",
                                       reason="bad_domain")
        if self.M < 16:
            raise ModelValidationError("need at least 16 spatial cells",
                                       reason="grid_too_coarse")
        U = np.asarray(self.U, dtype=float)
        if np.isscalar(self.U) or U.ndim == 0:
            U = np.full(self.M + 1, float(self.U))
        if U.shape != (self.M + 1,) or not np.all(np.isfinite(U)):
            raise ModelValidationError("potential must be finite with one "
                                       "value per node", reason="bad_potential")
        object.__setattr__(self, "U", _freeze(U))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.M

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.M + 1)

    @property
    def U_prime(self) -> np.ndarray:
        """Second-order derivative of U: central inside, one-sided at walls."""
        return derivative(self.U, self.dx)

    @property
    def m_weights(self) -> np.ndarray:
        """Node masses of the reversing measure (trapezoid quadrature)."""
        w = np.exp(-2.0 * (self.U - self.U.min()))
        w[0] *= 0.5
        w[-1] *= 0.5
        return w / w.sum()

    @property
    def density(self) -> np.ndarray:
        """Reversing probability density at the nodes."""
        w = np.exp(-2.0 * (self.U - self.U.min()))
        trap = np.full(self.M + 1, self.dx)
        trap[0] = trap[-1] = 0.5 * self.dx
        return w / np.sum(w * trap)


@dataclass(frozen=True)
class GridFunction:
    """Values on the time-space grid: rows are time nodes."""

    grid: TimeGrid
    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.N + 1, self.xs.shape[0]):
            raise ModelValidationError("grid-function shape mismatch",
                                       reason="dimension_mismatch")
        object.__setattr__(self, "xs", _freeze(self.xs))
        object.__setattr__(self, "values", _freeze(v))


def potential_on_grid(V, grid: TimeGrid, M: int) -> np.ndarray:
    """Broadcast a scalar / spatial vector / full field to (N+1) x (M+1)."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 0:
        return np.full((grid.N + 1, M + 1), float(V))
    if V.ndim == 1 and V.shape == (M + 1,):
        return np.tile(V, (grid.N + 1, 1))
    if V.shape == (grid.N + 1, M + 1):
        return V.copy()
    raise ModelValidationError("potential must be scalar, spatial vector, or "
                               "full time-space field",
                               reason="dimension_mismatch")


def _operator_bands(model: Diffusion1DModel, Vg: np.ndarray) -> list:
    """Tridiagonal bands of A = 1/2 d2 - U' d1 - V(t_k) with mirrored walls.

    Returns one (diag, upper, lower) per row of Vg, where upper[i] =
    A[i, i+1] and lower[i] = A[i+1, i]; only diag depends on the time node,
    so every entry shares one read-only upper and lower band.
    """
    M, dx = model.M, model.dx
    up = model.U_prime
    c2 = 0.5 / dx ** 2
    c1 = 0.5 / dx
    upper = np.full(M, c2)
    lower = np.full(M, c2)
    upper[1:] -= up[1:-1] * c1   # A[i, i+1] for i = 1..M-1
    lower[:-1] += up[1:-1] * c1  # A[i, i-1] for i = 1..M-1
    # mirrored ghost nodes: walls see a doubled inward second difference and
    # no advection
    upper[0] = 2.0 * c2
    lower[-1] = 2.0 * c2
    upper.setflags(write=False)
    lower.setflags(write=False)
    return [(np.full(M + 1, -2.0 * c2) - v, upper, lower) for v in Vg]


def _banded_lhs(diag, upper, lower):
    n = diag.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1] = diag
    ab[2, :-1] = lower
    return ab


def _tridiag_mul(diag, upper, lower, v):
    out = diag * v
    out[:-1] += upper * v[1:]
    out[1:] += lower * v[:-1]
    return out


@dataclass(frozen=True)
class PDESolution:
    """Solved grid function plus the count of negativity-clipped nodes."""

    gf: GridFunction
    clipped_nodes: int


def _check_finite(v: np.ndarray, what: str):
    if not np.all(np.isfinite(v)):
        raise DegenerateInputError(f"{what} solve produced non-finite values; "
                                   "time step too large for the potential",
                                   reason="cn_conditioning")


def solve_g_pde(model: Diffusion1DModel, V, gamma1: np.ndarray,
                grid: TimeGrid) -> PDESolution:
    """Backward Crank-Nicolson for the potential-weighted heat flow.

    Solves d_t g - U' g' + 1/2 g'' = V g backward from the terminal weight,
    no-flux walls. Negative values produced by dispersion are clipped to zero
    and counted.
    """
    gamma1 = np.asarray(gamma1, dtype=float)
    if gamma1.shape != (model.M + 1,) or np.any(gamma1 < 0):
        raise ModelValidationError("terminal weight must be a nonnegative "
                                   "spatial vector", reason="bad_terminal")
    if not np.any(gamma1 > 0):
        raise DegenerateInputError("terminal weight must not vanish",
                                   reason="zero_weight")
    Vg = potential_on_grid(V, grid, model.M)
    N, half = grid.N, 0.5 * grid.dt
    vals = np.empty((N + 1, model.M + 1))
    vals[N] = gamma1
    clipped = 0
    bands = _operator_bands(model, Vg)
    for k in range(N - 1, -1, -1):
        dl, ul, ll = bands[k]
        dr, ur, lr = bands[k + 1]
        rhs = _tridiag_mul(1.0 + half * dr, half * ur, half * lr, vals[k + 1])
        lhs = _banded_lhs(1.0 - half * dl, -half * ul, -half * ll)
        g = solve_banded((1, 1), lhs, rhs)
        _check_finite(g, "backward")
        neg = g < 0.0
        clipped += int(neg.sum())
        vals[k] = np.where(neg, 0.0, g)
    return PDESolution(gf=GridFunction(grid=grid, xs=model.xs, values=vals),
                       clipped_nodes=clipped)


def solve_f_pde(model: Diffusion1DModel, V, f0: np.ndarray,
                grid: TimeGrid) -> PDESolution:
    """Forward function via the m-weighted adjoint of the backward stepping.

    Defining the forward step as the adjoint (in the reversing inner product)
    of the backward Crank-Nicolson step makes the pairing sum f g m constant
    in time exactly, which is the discrete shape of the duality between the
    two functions.
    """
    f0 = np.asarray(f0, dtype=float)
    if f0.shape != (model.M + 1,) or np.any(f0 < 0):
        raise ModelValidationError("initial weight must be a nonnegative "
                                   "spatial vector", reason="bad_initial")
    if not np.any(f0 > 0):
        raise DegenerateInputError("initial weight must not vanish",
                                   reason="zero_weight")
    Vg = potential_on_grid(V, grid, model.M)
    N, half = grid.N, 0.5 * grid.dt
    mw = model.m_weights
    vals = np.empty((N + 1, model.M + 1))
    vals[0] = f0
    clipped = 0
    bands = _operator_bands(model, Vg)
    for k in range(N):
        dl, ul, ll = bands[k]
        dr, ur, lr = bands[k + 1]
        # transpose of (I - half A_k): swap the off-diagonal bands
        lhsT = _banded_lhs(1.0 - half * dl, -half * ll, -half * ul)
        z = solve_banded((1, 1), lhsT, mw * vals[k])
        f_next = _tridiag_mul(1.0 + half * dr, half * lr, half * ur, z) / mw
        _check_finite(f_next, "forward")
        neg = f_next < 0.0
        clipped += int(neg.sum())
        vals[k + 1] = np.where(neg, 0.0, f_next)
    return PDESolution(gf=GridFunction(grid=grid, xs=model.xs, values=vals),
                       clipped_nodes=clipped)


def psi_and_drift(model: Diffusion1DModel,
                  g: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Log of g and the transformed drift -U' + d/dx log g.

    Nodes with g <= 0 are masked with NaN and propagate through the
    derivative stencils.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.where(g.values > 0, np.log(np.maximum(g.values, 1e-300)),
                       np.nan)
    drift = -model.U_prime[None, :] + derivative(psi, model.dx, axis=-1)
    return (GridFunction(grid=g.grid, xs=g.xs, values=psi),
            GridFunction(grid=g.grid, xs=g.xs, values=drift))


def diffusion_hjb_residual(psi: GridFunction, model: Diffusion1DModel,
                           V) -> GridFunction:
    """Residual of d_t psi - U' psi' + 1/2 psi'' + 1/2 (psi')^2 - V."""
    Vg = potential_on_grid(V, psi.grid, model.M)
    dx = model.dx
    p = psi.values
    dt_psi = derivative(p, psi.grid.dt)
    dx_psi = derivative(p, dx, axis=-1)
    dxx_psi = np.empty_like(p)
    dxx_psi[:, 1:-1] = (p[:, 2:] - 2 * p[:, 1:-1] + p[:, :-2]) / dx ** 2
    dxx_psi[:, 0] = (2 * p[:, 0] - 5 * p[:, 1] + 4 * p[:, 2]
                     - p[:, 3]) / dx ** 2
    dxx_psi[:, -1] = (2 * p[:, -1] - 5 * p[:, -2] + 4 * p[:, -3]
                      - p[:, -4]) / dx ** 2
    res = (dt_psi - model.U_prime[None, :] * dx_psi + 0.5 * dxx_psi
           + 0.5 * dx_psi ** 2 - Vg)
    return GridFunction(grid=psi.grid, xs=psi.xs, values=res)


@dataclass(frozen=True)
class DiffusionTransform:
    """Bundle of the transformed diffusion: solved g, f, psi and drift."""

    model: Diffusion1DModel
    grid: TimeGrid
    V: np.ndarray
    f0: np.ndarray
    gamma1: np.ndarray
    g: GridFunction
    f: GridFunction
    psi: GridFunction
    drift: GridFunction
    c: float
    clipped_nodes: int

    def marginal_masses(self, t: float) -> np.ndarray:
        """Node masses of the transformed law at a grid time."""
        k = self.grid.node_index(t)
        return self.f.values[k] * self.g.values[k] * self.model.m_weights


def build_diffusion_transform(model: Diffusion1DModel, V, f0, gamma1,
                              grid: TimeGrid) -> DiffusionTransform:
    """Normalize, solve both PDEs, and derive the transformed drift."""
    f0 = np.asarray(f0, dtype=float)
    gamma1 = np.asarray(gamma1, dtype=float)
    sol_g = solve_g_pde(model, V, gamma1, grid)
    mw = model.m_weights
    c = float(np.sum(mw * f0 * sol_g.gf.values[0]))
    if not np.isfinite(c) or c <= 0:
        raise DegenerateInputError("weights give the transform zero mass",
                                   reason="null_transform")
    f0_scaled = f0 / c
    sol_f = solve_f_pde(model, V, f0_scaled, grid)
    psi, drift = psi_and_drift(model, sol_g.gf)
    Vg = potential_on_grid(V, grid, model.M)
    return DiffusionTransform(model=model, grid=grid, V=_freeze(Vg),
                              f0=_freeze(f0_scaled), gamma1=_freeze(gamma1),
                              g=sol_g.gf, f=sol_f.gf, psi=psi, drift=drift,
                              c=c,
                              clipped_nodes=sol_g.clipped_nodes + sol_f.clipped_nodes)


def _reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold positions back into [lo, hi] (billiard reflection)."""
    width = hi - lo
    y = np.mod(x - lo, 2.0 * width)
    y = np.where(y > width, 2.0 * width - y, y)
    return lo + y


class _DriftField:
    """Drift evaluation with linear interpolation in space and time."""

    def __init__(self, model: Diffusion1DModel, drift: GridFunction | None):
        self.model = model
        self.drift = drift
        self.static = -model.U_prime if drift is None else None

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        xs = self.model.xs
        if self.drift is None:
            return np.interp(x, xs, self.static)
        N = self.drift.grid.N
        s = min(max(t, 0.0), 1.0) * N
        k = min(int(np.floor(s)), N - 1)
        a = s - k
        # masked (NaN) nodes are tolerated as long as no path needs them, so
        # the finiteness guard applies to the interpolated values only
        if a == 0.0:
            row = self.drift.values[k]
        else:
            row = (1.0 - a) * self.drift.values[k] + a * self.drift.values[k + 1]
        out = np.interp(x, xs, row)
        if not np.all(np.isfinite(out)):
            raise PositivityError("a path reached a region where the drift "
                                  "field is masked", reason="masked_drift")
        return out


def _em_batch(model: Diffusion1DModel, n_paths: int, seed, steps: int,
              drift: GridFunction | None, x0, initial_masses,
              t_end: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo, hi = model.x_min, model.x_max
    width = hi - lo
    if initial_masses is not None:
        masses = np.asarray(initial_masses, dtype=float)
        cdf = np.cumsum(masses)
        idx = np.searchsorted(cdf, rng.random(n_paths) * cdf[-1], side="right")
        x = model.xs[np.minimum(idx, model.M)]
    elif x0 is None:
        raise ModelValidationError("need x0 or initial masses",
                                   reason="missing_initial")
    else:
        x = np.full(n_paths, x0, dtype=float) if np.isscalar(x0) \
            else np.asarray(x0, dtype=float).copy()
    field = _DriftField(model, drift)
    dt = t_end / steps
    sqrt_dt = np.sqrt(dt)
    out = np.empty((n_paths, steps + 1))
    out[:, 0] = x
    for k in range(steps):
        t = k * dt
        x = x + field(t, x) * dt + sqrt_dt * rng.standard_normal(n_paths)
        if np.any(x < lo - width) or np.any(x > hi + width):
            raise ModelValidationError(
                "a path escaped the padded domain; drift and step size are "
                "inconsistent with the model window", reason="path_escaped")
        x = _reflect(x, lo, hi)
        out[:, k + 1] = x
    return out


def sample_em_paths(model: Diffusion1DModel, n_paths: int, seed,
                    steps: int, drift: GridFunction | None = None,
                    x0: float | np.ndarray | None = None,
                    initial_masses: np.ndarray | None = None,
                    t_end: float = 1.0) -> np.ndarray:
    """Euler-Maruyama batch with reflection at the walls.

    Initial positions come from x0 (scalar or per-path array) or are drawn
    from node masses. Returns an (n_paths, steps+1) array of positions.
    A path escaping the 2x-padded domain aborts the run: the drift and step
    size are inconsistent with the model window.
    """
    if steps < 100:
        raise ModelValidationError("need at least 100 steps",
                                   reason="too_few_steps")
    return _em_batch(model, n_paths, seed, steps, drift, x0, initial_masses,
                     t_end)


def empirical_vs_fk_marginal(transform: DiffusionTransform, t: float,
                             n_paths: int, seed, bins: int = 64) -> float:
    """Total variation between sampled and solved marginals at time t.

    Paths start from the transformed initial law and move with the
    transformed drift; node masses of f g m are aggregated onto the same
    equal-width bins as the path histogram.
    """
    model, grid = transform.model, transform.grid
    k = grid.node_index(t)
    edges = np.linspace(model.x_min, model.x_max, bins + 1)
    p0 = transform.marginal_masses(0.0)
    if k > 0:
        paths = _em_batch(model, n_paths, seed, steps=k,
                          drift=transform.drift, x0=None,
                          initial_masses=p0, t_end=t)
        positions = paths[:, -1]
    else:
        rng = np.random.default_rng(seed)
        cdf = np.cumsum(p0)
        idx = np.searchsorted(cdf, rng.random(n_paths) * cdf[-1], side="right")
        positions = model.xs[np.minimum(idx, model.M)]
    hist, _ = np.histogram(positions, bins=edges)
    empirical = hist / n_paths
    masses = transform.marginal_masses(t)
    which = np.clip(np.searchsorted(edges, model.xs, side="right") - 1,
                    0, bins - 1)
    target = np.bincount(which, weights=masses, minlength=bins)
    target = target / target.sum()
    return 0.5 * float(np.abs(empirical - target).sum())
