"""Backward and forward Feynman-Kac functions for jump models.

Computes the propagator Phi(s,t) of the potential-weighted transition
semigroup, the backward function g (conditional expectation of the weighted
terminal reward) and the forward function f (density of the weighted initial
law), all on a uniform time grid with classical fourth-order Runge-Kutta.

The per-step factors S_k = Phi(t_k, t_{k+1}) are the primitive objects; every
Phi(t_k, t_l) is a product of factors, so the semigroup property holds by
construction and g(t_k) = Phi(t_k, t_l) g(t_l) is exact in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    step[k] = Phi(t_k, t_{k+1}). half_step is an empty read-only (0, n, n)
    array that exists only because the bytes hook in perfbench/tracer.py
    reads it; g between grid nodes comes from h_transform.g_at.
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
    propagator: FKPropagator = field(repr=False, default=None)


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


def _rk4_factor(Q: np.ndarray, v_stages: tuple[np.ndarray, np.ndarray, np.ndarray],
                h: float) -> np.ndarray:
    """RK4 propagator factor for dM/dtau = M (Q - diag V(tau))."""
    v0, v1, v2 = v_stages
    return rk4_matrix_step(Q - np.diag(v0), Q - np.diag(v1), Q - np.diag(v2), h)


def fk_propagator(model: ReversibleModel, V: PotentialField,
                  grid: TimeGrid) -> FKPropagator:
    """Integrate the propagator over every grid cell."""
    n = model.n
    if V.values.shape != (grid.N + 1, n):
        raise ModelValidationError("potential shape must be (N+1) x n",
                                   reason="dimension_mismatch")
    h = grid.dt
    Q = model.Q
    vals = V.values
    steps = np.empty((grid.N, n, n))
    for k in range(grid.N):
        v0, v1 = vals[k], vals[k + 1]
        steps[k] = _rk4_factor(Q, (v0, 0.5 * (v0 + v1), v1), h)
    return FKPropagator(grid=grid, step=_freeze(steps),
                        half_step=_freeze(np.empty((0, n, n))))


def solve_g(model: ReversibleModel, V: PotentialField, gamma1: TerminalWeight,
            grid: TimeGrid, propagator: FKPropagator | None = None) -> np.ndarray:
    """Backward recursion g(t_k) = Phi(t_k, t_{k+1}) g(t_{k+1}), g(1) = gamma1."""
    if propagator is None:
        propagator = fk_propagator(model, V, grid)
    return _backward_sweep(propagator, gamma1.gamma1)


def _backward_sweep(prop: FKPropagator, terminal: np.ndarray) -> np.ndarray:
    N = prop.grid.N
    g = np.empty((N + 1, terminal.shape[0]))
    g[N] = terminal
    for k in range(N - 1, -1, -1):
        g[k] = prop.step[k] @ g[k + 1]
    # The weighted semigroup preserves nonnegativity; tiny negative values can
    # only be integrator artifacts near zero and are clamped.
    return np.maximum(g, 0.0)


def solve_f(model: ReversibleModel, V: PotentialField, f0: InitialWeight,
            grid: TimeGrid, propagator: FKPropagator | None = None) -> np.ndarray:
    """Forward function f(t,y) = sum_x m(x) f0(x) Phi(0,t)(x,y) / m(y).

    Computed from the propagator itself (a single left-vector recursion), not
    from a separate forward ODE, so no appeal to reversibility is needed.
    """
    if propagator is None:
        propagator = fk_propagator(model, V, grid)
    N = grid.N
    f = np.empty((N + 1, model.n))
    w = model.m * f0.f0
    f[0] = f0.f0
    for k in range(N):
        w = w @ propagator.step[k]
        f[k + 1] = w / model.m
    return np.maximum(f, 0.0)


def solve_fk(model: ReversibleModel, V: PotentialField, f0: InitialWeight,
             gamma1: TerminalWeight, grid: TimeGrid,
             propagator: FKPropagator | None = None) -> FKSolution:
    """One-pass computation of (g, f) sharing a single propagator."""
    if propagator is None:
        propagator = fk_propagator(model, V, grid)
    g = _backward_sweep(propagator, gamma1.gamma1)
    f = solve_f(model, V, f0, grid, propagator=propagator)
    return FKSolution(grid=grid, g=_freeze(g), f=_freeze(f),
                      propagator=propagator)


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
