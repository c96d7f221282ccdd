"""Numerical stochastic derivatives and carre-du-champ checks.

Conditional expectations are always computed from exact transition matrices
(uniformization for the reference chain, time-ordered RK4 products for the
transformed chain), never from Monte Carlo, so the residuals reported here
isolate discretization error from sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from htlab.errors import (InconsistencyError, ModelValidationError,
                          PositivityError)
from htlab.feynman_kac import potential_on_grid, rk4_matrix_step
from htlab.h_transform import MASS_THRESHOLD, HProcess, g_at, marginal
from htlab.markov_core import ReversibleModel, TimeGrid, transition_matrix

DEFAULT_H_SEQUENCE = (1e-2, 5e-3, 2.5e-3)
# Steps of the backward-equation check, in grid cells, so g(t+h) is on the grid
_H_CELLS = (8, 4, 2)


@dataclass(frozen=True, eq=False)
class DerivativeEstimate:
    """Finite-difference generator estimates over a step sequence.

    estimates[i] is the plain difference quotient at the i-th step, shaped
    like the function (or stack of functions) it differentiates;
    extrapolated is the two-level Richardson limit.
    """

    estimates: np.ndarray
    extrapolated: np.ndarray


def _richardson(hs: tuple[float, ...], quotient) -> DerivativeEstimate:
    """Two-level Richardson limit of quotient(h), a first-order difference
    quotient per state, over three decreasing geometric steps hs."""
    estimates = np.array([quotient(h) for h in hs])
    r = hs[0] / hs[1]
    first = [(r * estimates[i + 1] - estimates[i]) / (r - 1.0)
             for i in range(len(hs) - 1)]
    r2 = r * r
    extrapolated = (r2 * first[1] - first[0]) / (r2 - 1.0)
    return DerivativeEstimate(estimates=estimates, extrapolated=extrapolated)


def transformed_rate_matrix(g_slice: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Generator of the transformed chain for one time slice of g."""
    if np.any(g_slice <= 0):
        raise PositivityError("transformed rates need strictly positive g",
                              reason="zero_g_slice")
    rates = J * (g_slice[None, :] / g_slice[:, None])
    np.fill_diagonal(rates, 0.0)
    return rates - np.diag(rates.sum(axis=1))


def transition_matrix_P(hp: HProcess, s: float, t: float) -> np.ndarray:
    """Transition matrix of the transformed chain between two times.

    Time-ordered RK4 product, one step per grid cell (partial steps where s
    or t falls inside a cell). Validates stochasticity to 1e-9.
    """
    if not (0.0 <= s <= t <= 1.0):
        raise ModelValidationError("need 0 <= s <= t <= 1", reason="bad_times")
    J = hp.model.J.rates
    N = hp.grid.N
    out = np.eye(hp.n)
    a = s
    while a < t - 1e-15:
        cell = min(int(np.floor(a * N + 1e-12)), N - 1)
        b = min((cell + 1) / N, t)
        mid = 0.5 * (a + b)
        step = rk4_matrix_step(transformed_rate_matrix(g_at(hp, a), J),
                               transformed_rate_matrix(g_at(hp, mid), J),
                               transformed_rate_matrix(g_at(hp, b), J),
                               b - a)
        out = out @ step
        a = b
    row_defect = float(np.max(np.abs(out.sum(axis=1) - 1.0)))
    if row_defect > 1e-9:
        raise InconsistencyError(
            f"transformed transition rows sum to 1 only within {row_defect:.3e}",
            reason="nonstochastic_rows")
    return out


def stochastic_derivative(process: ReversibleModel | HProcess, u: np.ndarray,
                          t: float) -> DerivativeEstimate:
    """Difference quotients (E[u(X_{t+h})|X_t=x] - u(x))/h with extrapolation.

    The steps are DEFAULT_H_SEQUENCE. For the reference chain the conditional
    expectation is the uniformized matrix exponential; for a transformed
    process it is the time-ordered product, so the estimate sees the full
    time inhomogeneity. u is one function, a length-n vector, or a (k, n)
    stack of them; each step's transition matrix is built once and applied
    to every row.
    """
    u = np.asarray(u, dtype=float)
    if t + DEFAULT_H_SEQUENCE[0] > 1.0 + 1e-12:
        raise ModelValidationError("largest step leaves the time interval",
                                   reason="step_beyond_horizon")

    def quotient(h: float) -> np.ndarray:
        if isinstance(process, HProcess):
            T = transition_matrix_P(process, t, t + h)
        else:
            T = transition_matrix(process, h)
        Tu = np.reshape([T @ row for row in np.atleast_2d(u)], u.shape)
        return (Tu - u) / h
    return _richardson(DEFAULT_H_SEQUENCE, quotient)


def carre_du_champ(model: ReversibleModel, phi: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """Bilinear jump form Gamma(phi, u)(x) = sum_y J(x,y) Dphi Du.

    The product-rule form Q(phi u) - phi Qu - u Qphi is computed alongside
    and must agree to floating-point accuracy; disagreement indicates a
    corrupted generator.
    """
    phi = np.asarray(phi, dtype=float)
    u = np.asarray(u, dtype=float)
    if phi.shape != (model.n,) or u.shape != (model.n,):
        raise ModelValidationError("vector lengths must match the state count",
                                   reason="dimension_mismatch")
    J = model.J.rates
    dphi = phi[None, :] - phi[:, None]
    du = u[None, :] - u[:, None]
    jump_form = (J * dphi * du).sum(axis=1)
    Q = model.Q
    product_rule = Q @ (phi * u) - phi * (Q @ u) - u * (Q @ phi)
    scale = max(1.0, float(np.max(np.abs(jump_form))),
                float(np.max(np.abs(phi))) * float(np.max(np.abs(u))))
    if np.max(np.abs(jump_form - product_rule)) > 1e-12 * scale:
        raise InconsistencyError("carre-du-champ forms disagree beyond "
                                 "floating-point error",
                                 reason="carre_du_champ_mismatch")
    return jump_form


@dataclass(frozen=True, eq=False)
class IdentityResidual:
    """Largest residual of a generator identity, and the estimate it used."""

    max_residual: float
    derivative: DerivativeEstimate


def check_transformed_generator(hp: HProcess, u: np.ndarray,
                                t: float) -> IdentityResidual:
    """Transformed generator versus reference generator plus carre du champ.

    Compares the extrapolated stochastic derivative of the transformed chain
    (steps DEFAULT_H_SEQUENCE) with Qu + Gamma(g_t, u)/g_t, per state,
    reporting the max only over states whose transformed mass exceeds
    h_transform.MASS_THRESHOLD. u is one function or a (k, n) stack of them,
    which share the transition matrices; the max is then over all of them.
    """
    k = hp.grid.node_index(t)
    g_t = hp.g[k]
    if np.any(g_t <= 0):
        raise PositivityError("g must be positive at the evaluation time",
                              reason="zero_g_slice")
    est = stochastic_derivative(hp, u, t)
    u = np.asarray(u, dtype=float)
    rhs = np.reshape([hp.model.Q @ row
                      + carre_du_champ(hp.model, g_t, row) / g_t
                      for row in np.atleast_2d(u)], u.shape)
    residuals = np.abs(est.extrapolated - rhs)
    mask = marginal(hp, t) > MASS_THRESHOLD
    return IdentityResidual(max_residual=float(residuals[..., mask].max()),
                            derivative=est)


def check_fk_stochastic_derivative(model: ReversibleModel, V,
                                   g: np.ndarray, grid: TimeGrid,
                                   t: float) -> IdentityResidual:
    """Backward-equation check in stochastic-derivative form.

    Estimates (1/h)(e^{Qh} g(t+h,.) - g(t,.)) for h spanning 8, 4 and 2 grid
    cells (so g(t+h) is available exactly on the grid) and compares the
    Richardson limit against V(t,.) g(t,.).
    """
    V = potential_on_grid(V, grid, model.n)
    k = grid.node_index(t)
    if k + _H_CELLS[0] > grid.N:
        raise ModelValidationError("largest step leaves the time interval",
                                   reason="step_beyond_horizon")
    est = _richardson(
        tuple(c * grid.dt for c in _H_CELLS),
        lambda h: (transition_matrix(model, h) @ g[grid.node_index(t + h)]
                   - g[k]) / h)
    residuals = np.abs(est.extrapolated - V[k] * g[k])
    return IdentityResidual(max_residual=float(residuals.max()),
                            derivative=est)
