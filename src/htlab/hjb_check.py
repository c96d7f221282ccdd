"""Convex-pair evaluation and the discrete Hamilton-Jacobi-Bellman residual.

The log of the backward Feynman-Kac function solves an integro-differential
HJB equation on the grid exactly when g solves the backward equation; this
module evaluates that residual (never solving the HJB directly) together with
the conjugate pair theta / theta_star that shapes its nonlinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from htlab.errors import ModelValidationError
from htlab.feynman_kac import PotentialField, derivative
from htlab.markov_core import ReversibleModel, TimeGrid, _freeze


def theta(a):
    """e^a - a - 1, elementwise; the exponential-moment Young function."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        out = np.expm1(a) - a
    return out if out.ndim else float(out)


def theta_star(b):
    """(b+1) log(b+1) - b on [-1, inf), with 0 log 0 = 0 at the endpoint."""
    b = np.asarray(b, dtype=float)
    if np.any(b < -1.0):
        raise ModelValidationError("conjugate argument must be >= -1",
                                   reason="theta_star_domain")
    x = b + 1.0
    out = x * np.log(np.where(x > 0.0, x, 1.0)) - b
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PsiField:
    """log g on the grid, with -inf exactly where g vanishes.

    The source g values are kept alongside so that derived quantities can
    avoid the exp(log(.)) roundtrip where exactness matters.
    """

    grid: TimeGrid
    psi: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi", _freeze(self.psi))
        object.__setattr__(self, "g", _freeze(self.g))

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.psi)


def psi_field_from_g(g: np.ndarray, grid: TimeGrid) -> PsiField:
    g = np.asarray(g, dtype=float)
    if g.shape[0] != grid.N + 1:
        raise ModelValidationError("g rows must match the grid",
                                   reason="dimension_mismatch")
    with np.errstate(divide="ignore"):
        psi = np.where(g > 0, np.log(np.maximum(g, 1e-300)), -np.inf)
    return PsiField(grid=grid, psi=psi, g=g)


@dataclass(frozen=True)
class HJBResidual:
    """Pointwise HJB residual with NaN at undefined (masked) points."""

    residual: np.ndarray
    defined: np.ndarray
    max_residual: float
    mean_residual: float
    self_check_max: float
    flagged: list[tuple[float, int]]

    def report(self) -> str:
        return (f"max_residual={self.max_residual:.6e}\n"
                f"mean_residual={self.mean_residual:.6e}\n"
                f"self_check_max={self.self_check_max:.6e}\n"
                f"undefined_points={len(self.flagged)}\n")


def discrete_hjb_residual(psi: PsiField, model: ReversibleModel,
                          V: PotentialField,
                          time_term: str = "exponential") -> HJBResidual:
    """Residual of the discrete HJB equation for psi = log g.

    residual = d_t psi + sum_y J (D psi) + sum_y theta(D psi) J - V, with
    Du(x;y) = u(y) - u(x). The two jump sums are also recomputed in the
    collapsed form sum_y (e^{D psi} - 1) J as a self-check; the collapse is
    an exact identity, so any gap beyond rounding is a bug.

    time_term selects the discrete time derivative of psi:
      - "exponential": (d_t g)/g with the grid's second-order stencils.
        Makes residual * g reproduce the backward-equation residual to
        floating-point accuracy (the algebraic equivalence of the two
        equations, at the discrete level).
      - "log": the same stencils applied to psi itself. Exact for psi linear
        in t; differs from "exponential" at second order in the step.
    Points where psi is -inf (or where a jump lands on one) are masked.
    """
    grid = psi.grid
    if V.values.shape != psi.psi.shape:
        raise ModelValidationError("potential and psi shapes differ",
                                   reason="dimension_mismatch")
    J = model.J.rates
    N, n = grid.N, model.n
    finite = psi.finite_mask
    # A point is evaluable when psi is finite there, at every jump target
    # with positive rate, and (for the time stencil) at the stencil nodes.
    bad_targets = (~finite).astype(float) @ (J.T > 0).astype(float)
    defined = finite & (bad_targets == 0)
    stencil_ok = np.empty_like(defined)
    stencil_ok[1:-1] = finite[2:] & finite[:-2]
    stencil_ok[0] = finite[1] & finite[2]
    stencil_ok[-1] = finite[-2] & finite[-3]
    if time_term == "log":
        defined = defined & stencil_ok

    if time_term == "exponential":
        with np.errstate(divide="ignore", invalid="ignore"):
            dt_psi = derivative(psi.g, grid.dt) / psi.g
    elif time_term == "log":
        safe_psi = np.where(finite, psi.psi, 0.0)
        dt_psi = derivative(safe_psi, grid.dt)
    else:
        raise ModelValidationError("time_term must be 'exponential' or 'log'",
                                   reason="bad_time_term")

    residual = np.full((N + 1, n), np.nan)
    self_check = 0.0
    for k in range(N + 1):
        row_ok = defined[k]
        if not np.any(row_ok):
            continue
        p = np.where(finite[k], psi.psi[k], 0.0)
        # Differences are only ever weighted by J; zero-rate pairs are blanked
        # so that placeholder psi values cannot overflow theta.
        dpsi = np.where(J > 0, p[None, :] - p[:, None], 0.0)
        linear = (J * dpsi).sum(axis=1)
        theta_sum = (J * theta(dpsi)).sum(axis=1)
        collapsed = (J * np.expm1(dpsi)).sum(axis=1)
        gap = np.abs((linear + theta_sum) - collapsed)[row_ok]
        self_check = max(self_check, float(gap.max()))
        res_k = dt_psi[k] + linear + theta_sum - V.values[k]
        residual[k, row_ok] = res_k[row_ok]

    vals = residual[defined]
    flagged = [(float(k / N), int(x)) for k, x in np.argwhere(~defined)]
    return HJBResidual(residual=_freeze(residual), defined=defined,
                       max_residual=float(np.max(np.abs(vals))),
                       mean_residual=float(np.mean(np.abs(vals))),
                       self_check_max=self_check, flagged=flagged)
