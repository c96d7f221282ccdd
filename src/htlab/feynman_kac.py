"""Backward and forward Feynman-Kac functions for jump models.

Computes the backward function g (conditional expectation of the weighted
terminal reward) and the forward function f (density of the weighted initial
law) as vector sweeps of classical fourth-order Runge-Kutta on a uniform time
grid, in O(N n) memory, and the propagator Phi(s,t) as dense RK4 factors.

A factor S_k = Phi(t_k, t_{k+1}) is the same polynomial in h(Q - V) as one
sweep cell, so g(t_k) = Phi(t_k, t_l) g(t_l) holds to rounding, not exactly.
A cell whose two V rows equal those of the cell before it (repeated_rows,
shared with the diffusion's Crank-Nicolson sweeps) has that cell's factor,
so the factor is copied, not recomputed: a V constant in time costs one RK4
matrix step, not N, and its N factors are one read-only broadcast view.
The sweeps step a run of at least n cells with equal V rows by that run's
one factor, a matrix-vector product per cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from htlab.errors import DegenerateInputError, ModelValidationError
from htlab.markov_core import ReversibleModel, TimeGrid, _freeze

POSITIVITY_THRESHOLD = 1e-300


def potential_on_grid(V, grid: TimeGrid, n: int) -> np.ndarray:
    """Read-only (N+1) x n view of V on the grid nodes, row k = V(t_k, .).

    V is a scalar, a vector with one value per state (or spatial node) or a
    full (N+1) x n field. Its shape is checked first; then each leading
    axis of stride 0 is dropped, so a view returned here (or any broadcast
    view) is read as the scalar or vector it repeats. What is left is
    copied unless no writable array holds its memory (so a view returned
    here is not copied again), then checked to be finite; the result
    views it, in O(n) work and memory unless V is a full field. Between
    nodes V is piecewise linear in t (the discretization contract; a
    discontinuous potential should place its jumps on grid nodes).
    """
    V = np.asarray(V, dtype=float)
    if V.shape not in ((), (n,), (grid.N + 1, n)):
        raise ModelValidationError("potential must be scalar, one value per "
                                   "state, or a full (N+1) x n field",
                                   reason="dimension_mismatch")
    while V.ndim and V.strides[0] == 0 and V.size:
        V = V[0, ...]
    base = V
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:  # memory that can still be written
        V = _freeze(V)
    if not np.all(np.isfinite(V)):
        raise ModelValidationError("potential must be finite",
                                   reason="nonfinite_potential")
    return np.broadcast_to(V, (grid.N + 1, n))


def repeated_rows(vals: np.ndarray) -> list[bool]:
    """same[j] for j = 0..N-1: rows j and j + 1 of the (N+1) x n grid view
    of a (finite) V are equal. A view constant in time (row stride 0, as
    potential_on_grid gives for a scalar or a vector) repeats every row
    and is not compared."""
    if vals.strides[0] == 0:
        return [True] * (len(vals) - 1)
    return np.all(vals[1:] == vals[:-1], axis=1).tolist()


def weight_on_nodes(w, n: int, what: str, reason: str) -> np.ndarray:
    """Read-only copy of a weight with one finite value >= 0 per node.

    A shape other than (n,) is a dimension_mismatch, a NaN, infinite or
    negative entry raises the caller's reason token and an all-zero weight
    is a zero_weight.
    """
    w = _freeze(w)
    if w.shape != (n,):
        raise ModelValidationError(f"{what} must have one value per node",
                                   reason="dimension_mismatch")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ModelValidationError(f"{what} must be finite and nonnegative",
                                   reason=reason)
    if not np.any(w > 0):
        raise DegenerateInputError(f"{what} must not vanish identically",
                                   reason="zero_weight")
    return w


@dataclass(frozen=True, eq=False)
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


def fk_propagator(model: ReversibleModel, V,
                  grid: TimeGrid) -> FKPropagator:
    """Integrate the propagator over every grid cell; frozen in place."""
    vals = potential_on_grid(V, grid, model.n)
    n, h, Q = model.n, grid.dt, model.Q

    def factor(k):
        v0, v2 = vals[k], vals[k + 1]
        return rk4_matrix_step(Q - np.diag(v0), Q - np.diag(0.5 * (v0 + v2)),
                               Q - np.diag(v2), h)

    # a cell k with same[k - 1] and same[k] has the two V rows of cell
    # k - 1, and its factor
    same = repeated_rows(vals)
    if all(same):  # one factor, viewed (read-only) on every cell
        steps = np.broadcast_to(factor(0), (grid.N, n, n))
    else:
        steps = np.empty((grid.N, n, n))
        for k in range(grid.N):
            steps[k] = (steps[k - 1] if k and same[k - 1] and same[k]
                        else factor(k))
        steps.setflags(write=False)
    return FKPropagator(grid=grid, step=steps,
                        half_step=_freeze(np.empty((0, n, n))))


def _rk4_sweep(A: np.ndarray, v_rows: np.ndarray, x0: np.ndarray,
               h: float) -> np.ndarray:
    """Classical RK4 for dx/dtau = (A - diag v(tau)) x from x0 at node 0.

    v_rows[k] is v at node k, linear in tau between nodes; row k is x there.
    A run of L >= n cells whose V rows are all one row v (repeated_rows)
    is stepped by its one factor S = rk4_matrix_step(B, B, B, h), B = A -
    diag v: the same polynomial in hB as the stages, so x[k + 1] = S x[k]
    holds to rounding. S costs about 6 n^3 flops (three n x n products)
    and saves about 6 n^2 per cell, so shorter runs keep the stages.
    """
    def rate(v, y):
        return A @ y - v * y

    x = np.empty(v_rows.shape)
    x[0] = x0
    start = 0
    for equal, run in itertools.groupby(repeated_rows(v_rows)):
        cells = range(start, start + len(list(run)))
        start = cells.stop
        if equal and len(cells) >= len(x0):
            B = A - np.diag(v_rows[cells.start])
            S = rk4_matrix_step(B, B, B, h)
            for k in cells:
                np.matmul(S, x[k], out=x[k + 1])
            continue
        for k in cells:
            v0, v2 = v_rows[k], v_rows[k + 1]
            v1, xk = 0.5 * (v0 + v2), x[k]
            k1 = rate(v0, xk)
            k2 = rate(v1, xk + 0.5 * h * k1)
            k3 = rate(v1, xk + 0.5 * h * k2)
            k4 = rate(v2, xk + h * k3)
            x[k + 1] = xk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def solve_g(model: ReversibleModel, V, gamma1,
            grid: TimeGrid) -> np.ndarray:
    """Backward equation dg/dt = (V - Q) g, swept from g(1) = gamma1."""
    gamma1 = weight_on_nodes(gamma1, model.n, "terminal weight",
                             "negative_weight")
    V = potential_on_grid(V, grid, model.n)
    g = _rk4_sweep(model.Q, V[::-1], gamma1, grid.dt)[::-1]
    # The weighted semigroup preserves nonnegativity; tiny negative values can
    # only be integrator artifacts near zero and are clamped.
    return np.maximum(g, 0.0)


def solve_f(model: ReversibleModel, V, f0,
            grid: TimeGrid) -> np.ndarray:
    """Forward function f(t,y) = sum_x m(x) f0(x) Phi(0,t)(x,y) / m(y).

    m f is swept forward as the left vector of the propagator, so no appeal
    to reversibility is needed.
    """
    f0 = weight_on_nodes(f0, model.n, "initial weight", "negative_weight")
    V = potential_on_grid(V, grid, model.n)
    f = _rk4_sweep(model.Q.T, V, model.m * f0, grid.dt) / model.m
    f[0] = f0
    return np.maximum(f, 0.0)


def solve_fk(model: ReversibleModel, V, f0, gamma1,
             grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Both Feynman-Kac functions on the grid, as the read-only pair (g, f).

    f is solved first, so a bad f0 is reported before a bad gamma1, as in
    build_h_process.
    """
    f = _freeze(solve_f(model, V, f0, grid))
    return _freeze(solve_g(model, V, gamma1, grid)), f


def check_semigroup(prop: FKPropagator, s: float, t: float, u: float) -> float:
    """Max-norm residual of Phi(s,u) - Phi(s,t) Phi(t,u) at grid times."""
    ks, kt, ku = (prop.grid.node_index(x) for x in (s, t, u))
    if not ks <= kt <= ku:
        raise ModelValidationError("need s <= t <= u", reason="bad_time_order")
    phi_st = prop.matrix(ks, kt)
    lhs = phi_st  # Phi(s,u): the product carried on from Phi(s,t)
    for j in range(kt, ku):
        lhs = lhs @ prop.step[j]
    rhs = phi_st @ prop.matrix(kt, ku)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True, eq=False)
class GeneratorResidual:
    """Pointwise residual of the backward equation and its maximum."""

    residual: np.ndarray
    max_residual: float


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
    np.subtract(v[2:], v[:-2], out=d[1:-1])
    d[1:-1] /= 2.0 * step
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * step)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * step)
    return np.moveaxis(d, 0, axis)


def log_g(g: np.ndarray) -> np.ndarray:
    """Read-only psi = log g, NaN where g = 0 (or is not positive).

    The exact log wherever g > 0, subnormal g included, so psi has no
    floor. Every derivative stencil that reads a masked node is NaN.
    """
    psi = np.full(np.shape(g), np.nan)
    np.log(g, out=psi, where=np.greater(g, 0.0))
    psi.setflags(write=False)
    return psi


def check_fk_generator(model: ReversibleModel, V,
                       g: np.ndarray, grid: TimeGrid) -> GeneratorResidual:
    """Residual of d/dt g + Q g - V g = 0 at every grid node."""
    V = potential_on_grid(V, grid, model.n)
    dg = derivative(g, grid.dt)
    res = np.abs(dg + g @ model.Q.T - V * g)
    return GeneratorResidual(residual=_freeze(res),
                             max_residual=float(res.max()))


def positivity_report(g: np.ndarray,
                      grid: TimeGrid) -> list[tuple[float, int]]:
    """Grid points (t, state) where g <= POSITIVITY_THRESHOLD is unsafe to
    divide by."""
    bad = np.argwhere(g <= POSITIVITY_THRESHOLD)
    return [(float(k / grid.N), int(x)) for k, x in bad]
