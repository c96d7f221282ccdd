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
from htlab.feynman_kac import PotentialField, rk4_matrix_step
from htlab.h_transform import MASS_THRESHOLD, HProcess, g_at, marginal
from htlab.markov_core import ReversibleModel, TimeGrid, transition_matrix

DEFAULT_H_SEQUENCE = (1e-2, 5e-3, 2.5e-3)
_MIN_STEP = 1e-8


@dataclass(frozen=True)
class DerivativeEstimate:
    """Finite-difference generator estimates over a step sequence.

    estimates[i] is the plain difference quotient at h_sequence[i], one entry
    per state; extrapolated is the two-level Richardson limit; observed_order
    is the median convergence order of the plain estimates (about 1 for a
    first-order quotient).
    """

    h_sequence: tuple[float, ...]
    estimates: np.ndarray
    extrapolated: np.ndarray
    observed_order: float


def _validate_h_sequence(h_sequence) -> tuple[float, ...]:
    hs = tuple(float(h) for h in h_sequence)
    if len(hs) != 3:
        raise ModelValidationError("need exactly three steps for two-level "
                                   "extrapolation", reason="bad_h_sequence")
    if any(h <= _MIN_STEP for h in hs):
        raise ModelValidationError(f"steps below {_MIN_STEP} are dominated by "
                                   "conditioning error", reason="step_too_small")
    if not (hs[0] > hs[1] > hs[2]):
        raise ModelValidationError("steps must decrease strictly",
                                   reason="bad_h_sequence")
    r1, r2 = hs[0] / hs[1], hs[1] / hs[2]
    if abs(r1 - r2) > 1e-9 * r1:
        raise ModelValidationError("steps must form a geometric sequence",
                                   reason="bad_h_sequence")
    return hs


def _richardson(estimates: np.ndarray, hs: tuple[float, ...]):
    """Two-level Richardson for a first-order-in-h difference quotient."""
    r = hs[0] / hs[1]
    first = [(r * estimates[i + 1] - estimates[i]) / (r - 1.0)
             for i in range(len(hs) - 1)]
    r2 = r * r
    extrapolated = (r2 * first[1] - first[0]) / (r2 - 1.0)
    d01 = np.abs(estimates[0] - estimates[1])
    d12 = np.abs(estimates[1] - estimates[2])
    safe = d12 > 0
    if np.any(safe):
        orders = np.log(d01[safe] / d12[safe]) / np.log(r)
        observed = float(np.median(orders))
    else:
        observed = np.nan
    return extrapolated, observed


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
                          t: float,
                          h_sequence=DEFAULT_H_SEQUENCE) -> DerivativeEstimate:
    """Difference quotients (E[u(X_{t+h})|X_t=x] - u(x))/h with extrapolation.

    For the reference chain the conditional expectation is the uniformized
    matrix exponential; for a transformed process it is the time-ordered
    product, so the estimate sees the full time inhomogeneity.
    """
    hs = _validate_h_sequence(h_sequence)
    u = np.asarray(u, dtype=float)
    if t + hs[0] > 1.0 + 1e-12:
        raise ModelValidationError("largest step leaves the time interval",
                                   reason="step_beyond_horizon")
    estimates = np.empty((len(hs), u.shape[0]))
    for i, h in enumerate(hs):
        if isinstance(process, HProcess):
            T = transition_matrix_P(process, t, t + h)
        else:
            T = transition_matrix(process, h)
        estimates[i] = (T @ u - u) / h
    extrapolated, order = _richardson(estimates, hs)
    return DerivativeEstimate(h_sequence=hs, estimates=estimates,
                              extrapolated=extrapolated, observed_order=order)


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


@dataclass(frozen=True)
class IdentityResidual:
    """Residuals of a generator identity, masked to states carrying mass."""

    residuals: np.ndarray
    mask: np.ndarray
    max_residual: float
    derivative: DerivativeEstimate


def check_transformed_generator(hp: HProcess, u: np.ndarray, t: float,
                       h_sequence=DEFAULT_H_SEQUENCE,
                       mass_threshold: float = MASS_THRESHOLD) -> IdentityResidual:
    """Transformed generator versus reference generator plus carre du champ.

    Compares the extrapolated stochastic derivative of the transformed chain
    with Qu + Gamma(g_t, u)/g_t, per state, reporting the max only over
    states whose transformed mass exceeds the threshold.
    """
    k = hp.grid.node_index(t)
    g_t = hp.fk.g[k]
    if np.any(g_t <= 0):
        raise PositivityError("g must be positive at the evaluation time",
                              reason="zero_g_slice")
    est = stochastic_derivative(hp, u, t, h_sequence)
    u = np.asarray(u, dtype=float)
    rhs = hp.model.Q @ u + carre_du_champ(hp.model, g_t, u) / g_t
    residuals = np.abs(est.extrapolated - rhs)
    mask = marginal(hp, t) > mass_threshold
    return IdentityResidual(residuals=residuals, mask=mask,
                           max_residual=float(residuals[mask].max()),
                           derivative=est)


def check_fk_stochastic_derivative(model: ReversibleModel, V: PotentialField,
                                   g: np.ndarray, grid: TimeGrid, t: float,
                                   h_cells: tuple[int, ...] = (8, 4, 2)) -> IdentityResidual:
    """Backward-equation check in stochastic-derivative form.

    Estimates (1/h)(e^{Qh} g(t+h,.) - g(t,.)) for h spanning the given
    numbers of grid cells (so g(t+h) is available exactly on the grid) and
    compares the Richardson limit against V(t,.) g(t,.).
    """
    k = grid.node_index(t)
    if any(c <= 0 for c in h_cells) or len(h_cells) != 3:
        raise ModelValidationError("need three positive cell counts",
                                   reason="bad_h_sequence")
    if k + max(h_cells) > grid.N:
        raise ModelValidationError("largest step leaves the time interval",
                                   reason="step_beyond_horizon")
    hs = tuple(c * grid.dt for c in h_cells)
    _validate_h_sequence(hs)
    estimates = np.empty((3, model.n))
    for i, c in enumerate(h_cells):
        h = hs[i]
        estimates[i] = (transition_matrix(model, h) @ g[k + c] - g[k]) / h
    extrapolated, order = _richardson(estimates, hs)
    est = DerivativeEstimate(h_sequence=hs, estimates=estimates,
                             extrapolated=extrapolated, observed_order=order)
    residuals = np.abs(extrapolated - V.values[k] * g[k])
    mask = np.ones(model.n, dtype=bool)
    return IdentityResidual(residuals=residuals, mask=mask,
                           max_residual=float(residuals.max()),
                           derivative=est)
