"""Backward and forward Feynman-Kac functions for jump models.

Computes the backward function g (conditional expectation of the weighted
terminal reward) and the forward function f (density of the weighted initial
law) as vector sweeps of classical fourth-order Runge-Kutta on a uniform time
grid, in O(N n) memory, and the propagator Phi(s,t) as dense RK4 factors.

A factor S_k = Phi(t_k, t_{k+1}) is the same polynomial in h(Q - V) as one
sweep cell, so g(t_k) = Phi(t_k, t_l) g(t_l) holds to rounding, not exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from htlab.errors import DegenerateInputError, ModelValidationError
from htlab.markov_core import ReversibleModel, TimeGrid, _freeze

POSITIVITY_THRESHOLD = 1e-300


@dataclass(frozen=True)
class PotentialField:
    """Killing/creation potential sampled on grid nodes, per state.

    values[k, x] = V(t_k, x); between nodes V is piecewise linear in t (the
    declared discretization contract; discontinuous potentials should place
    their jumps on grid nodes). lo is the declared lower-bound parameter:
    V >= -lo everywhere.
    """

    values: np.ndarray
    lo: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ModelValidationError("potential must be (N+1) x n",
                                       reason="bad_shape")
        if not np.all(np.isfinite(v)):
            raise ModelValidationError("potential must be finite",
                                       reason="nonfinite_potential")
        if self.lo < 0:
            raise ModelValidationError("lower-bound parameter must be >= 0",
                                       reason="bad_lower_bound")
        if np.min(v) < -self.lo - 1e-12:
            raise ModelValidationError(
                f"potential dips below -lo = {-self.lo}",
                reason="potential_below_bound")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def constant(cls, c: float, grid: TimeGrid, n: int) -> "PotentialField":
        vals = np.full((grid.N + 1, n), float(c))
        return cls(values=vals, lo=max(0.0, -float(c)))

    @classmethod
    def from_function(cls, fn, grid: TimeGrid, n: int,
                      lo: float | None = None) -> "PotentialField":
        """Sample fn(t, x_index) on the grid nodes."""
        vals = np.array([[fn(t, x) for x in range(n)] for t in grid.nodes])
        if lo is None:
            lo = max(0.0, -float(np.min(vals)))
        return cls(values=vals, lo=lo)


def _nonneg_weight(vec: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.ndim != 1:
        raise ModelValidationError(f"{what} must be a vector", reason="bad_shape")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ModelValidationError(f"{what} must be finite and nonnegative",
                                   reason="negative_weight")
    if not np.any(v > 0):
        raise DegenerateInputError(f"{what} must not vanish identically",
                                   reason="zero_weight")
    return _freeze(v)


@dataclass(frozen=True)
class TerminalWeight:
    """Nonnegative terminal reward, not identically zero."""

    gamma1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma1",
                           _nonneg_weight(self.gamma1, "terminal weight"))


@dataclass(frozen=True)
class InitialWeight:
    """Nonnegative initial density factor, not identically zero."""

    f0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f0", _nonneg_weight(self.f0, "initial weight"))


@dataclass(frozen=True)
class FKPropagator:
    """Per-step propagator factors plus on-demand products.

    step[k] = Phi(t_k, t_{k+1}), dense, for Phi as a matrix (check_semigroup
    and test references). half_step is an empty read-only (0, n, n) array
    that exists only because the bytes hook in perfbench/tracer.py reads it.
    """

    grid: TimeGrid
    step: np.ndarray
    half_step: np.ndarray

    def matrix(self, k: int, l: int) -> np.ndarray:
        """Phi(t_k, t_l) as the ordered product of step factors."""
        N = self.grid.N
        if not (0 <= k <= l <= N):
            raise ModelValidationError("need grid indices 0 <= k <= l <= N",
                                       reason="bad_grid_indices")
        out = np.eye(self.step.shape[1])
        for j in range(k, l):
            out = out @ self.step[j]
        return out


@dataclass(frozen=True)
class FKSolution:
    """Grid values of the backward function g and forward function f."""

    grid: TimeGrid
    g: np.ndarray
    f: np.ndarray


def rk4_matrix_step(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray,
                    h: float) -> np.ndarray:
    """One classical RK4 step of dM/dtau = M A(tau) from M = I.

    A0, A1, A2 are the coefficient matrices at the start, midpoint and end of
    the step.
    """
    eye = np.eye(A0.shape[0])
    k1 = A0
    k2 = (eye + 0.5 * h * k1) @ A1
    k3 = (eye + 0.5 * h * k2) @ A1
    k4 = (eye + h * k3) @ A2
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _require_shape(model: ReversibleModel, V: PotentialField, grid: TimeGrid):
    if V.values.shape != (grid.N + 1, model.n):
        raise ModelValidationError("potential shape must be (N+1) x n",
                                   reason="dimension_mismatch")


def fk_propagator(model: ReversibleModel, V: PotentialField,
                  grid: TimeGrid) -> FKPropagator:
    """Integrate the propagator over every grid cell."""
    _require_shape(model, V, grid)
    n, h, Q, vals = model.n, grid.dt, model.Q, V.values
    steps = np.empty((grid.N, n, n))
    for k in range(grid.N):
        v0, v2 = vals[k], vals[k + 1]
        steps[k] = rk4_matrix_step(Q - np.diag(v0),
                                   Q - np.diag(0.5 * (v0 + v2)),
                                   Q - np.diag(v2), h)
    return FKPropagator(grid=grid, step=_freeze(steps),
                        half_step=_freeze(np.empty((0, n, n))))


def _rk4_sweep(A: np.ndarray, v_rows: np.ndarray, x0: np.ndarray,
               h: float) -> np.ndarray:
    """Classical RK4 for dx/dtau = (A - diag v(tau)) x from x0 at node 0.

    v_rows[k] is v at node k, linear in tau between nodes; row k is x there.
    """
    def rate(v, y):
        return A @ y - v * y

    x = np.empty(v_rows.shape)
    x[0] = x0
    for k in range(len(v_rows) - 1):
        v0, v2 = v_rows[k], v_rows[k + 1]
        v1, xk = 0.5 * (v0 + v2), x[k]
        k1 = rate(v0, xk)
        k2 = rate(v1, xk + 0.5 * h * k1)
        k3 = rate(v1, xk + 0.5 * h * k2)
        k4 = rate(v2, xk + h * k3)
        x[k + 1] = xk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def solve_g(model: ReversibleModel, V: PotentialField, gamma1: TerminalWeight,
            grid: TimeGrid) -> np.ndarray:
    """Backward equation dg/dt = (V - Q) g, swept from g(1) = gamma1."""
    _require_shape(model, V, grid)
    g = _rk4_sweep(model.Q, V.values[::-1], gamma1.gamma1, grid.dt)[::-1]
    # The weighted semigroup preserves nonnegativity; tiny negative values can
    # only be integrator artifacts near zero and are clamped.
    return np.maximum(g, 0.0)


def solve_f(model: ReversibleModel, V: PotentialField, f0: InitialWeight,
            grid: TimeGrid) -> np.ndarray:
    """Forward function f(t,y) = sum_x m(x) f0(x) Phi(0,t)(x,y) / m(y).

    m f is swept forward as the left vector of the propagator, so no appeal
    to reversibility is needed.
    """
    _require_shape(model, V, grid)
    f = _rk4_sweep(model.Q.T, V.values, model.m * f0.f0, grid.dt) / model.m
    f[0] = f0.f0
    return np.maximum(f, 0.0)


def solve_fk(model: ReversibleModel, V: PotentialField, f0: InitialWeight,
             gamma1: TerminalWeight, grid: TimeGrid) -> FKSolution:
    """Both Feynman-Kac functions, g and f, on the grid."""
    return FKSolution(grid=grid, g=_freeze(solve_g(model, V, gamma1, grid)),
                      f=_freeze(solve_f(model, V, f0, grid)))


def check_semigroup(prop: FKPropagator, s: float, t: float, u: float) -> float:
    """Max-norm residual of Phi(s,u) - Phi(s,t) Phi(t,u) at grid times."""
    ks, kt, ku = (prop.grid.node_index(x) for x in (s, t, u))
    if not ks <= kt <= ku:
        raise ModelValidationError("need s <= t <= u", reason="bad_time_order")
    lhs = prop.matrix(ks, ku)
    rhs = prop.matrix(ks, kt) @ prop.matrix(kt, ku)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class GeneratorResidual:
    """Pointwise residual of the backward equation, with summary stats."""

    residual: np.ndarray
    max_residual: float
    mean_residual: float
    grid_N: int

    def report(self) -> str:
        return (f"max_residual={self.max_residual:.6e}\n"
                f"mean_residual={self.mean_residual:.6e}\n"
                f"grid_N={self.grid_N}\n")


def derivative(values: np.ndarray, step: float, axis: int = 0) -> np.ndarray:
    """Second-order derivative along one axis of a uniform grid.

    Centered differences in the interior, one-sided three-point stencils at
    both ends, so the result is O(step^2) accurate everywhere.
    """
    v = np.moveaxis(values, axis, 0)
    if v.shape[0] < 3:
        raise ModelValidationError("need at least 3 grid nodes",
                                   reason="grid_too_coarse")
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * step)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * step)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * step)
    return np.moveaxis(d, 0, axis)


def check_fk_generator(model: ReversibleModel, V: PotentialField,
                       g: np.ndarray, grid: TimeGrid) -> GeneratorResidual:
    """Residual of d/dt g + Q g - V g = 0 at every grid node."""
    dg = derivative(g, grid.dt)
    res = np.abs(dg + g @ model.Q.T - V.values * g)
    return GeneratorResidual(residual=_freeze(res),
                             max_residual=float(res.max()),
                             mean_residual=float(res.mean()),
                             grid_N=grid.N)


def positivity_report(g: np.ndarray, grid: TimeGrid,
                      threshold: float = POSITIVITY_THRESHOLD) -> list[tuple[float, int]]:
    """Grid points (t, state) where dividing by g would be unsafe."""
    bad = np.argwhere(g <= threshold)
    return [(float(k / grid.N), int(x)) for k, x in bad]
