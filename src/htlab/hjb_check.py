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
from htlab.feynman_kac import derivative, log_g, potential_on_grid
from htlab.markov_core import ReversibleModel, TimeGrid, _freeze

# theta_star(b) = b^2 sum_k (-b)^k / ((k+1)(k+2)), highest power first.
_SERIES = np.array([(-1) ** k / ((k + 1) * (k + 2)) for k in range(14, -1, -1)])

# Time rows whose jump sums discrete_hjb_residual forms at once.
_ROWS_PER_BLOCK = 16


def theta(a):
    """e^a - a - 1, elementwise; the exponential-moment Young function."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        out = np.expm1(a) - a
    return out if out.ndim else float(out)


def theta_star(b):
    """(b+1) log(b+1) - b on [-1, inf), with 0 log 0 = 0 at the endpoint.

    The closed form cancels to b^2/2 near 0 while log1p(b) alone carries an
    error of about eps*b, so |b| <= 0.1 uses the Taylor series to b^16,
    whose truncation error is below 1e-16 relative.
    """
    b = np.asarray(b, dtype=float)
    if np.any(b < -1.0):
        raise ModelValidationError("conjugate argument must be >= -1",
                                   reason="theta_star_domain")
    closed = (b + 1.0) * np.log1p(np.where(b > -1.0, b, 0.0)) - b
    series = b * b * np.polyval(_SERIES, b)
    out = np.where(np.abs(b) <= 0.1, series, closed)
    return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class HJBResidual:
    """Pointwise HJB residual with NaN where it is not defined (masked)."""

    residual: np.ndarray
    defined: np.ndarray
    max_residual: float
    mean_residual: float
    self_check_max: float

    def report(self) -> str:
        return (f"max_residual={self.max_residual:.6e}\n"
                f"mean_residual={self.mean_residual:.6e}\n"
                f"self_check_max={self.self_check_max:.6e}\n"
                f"undefined_points={np.count_nonzero(~self.defined)}\n")


def _summarise(residual: np.ndarray, gap: np.ndarray,
               defined: np.ndarray) -> HJBResidual:
    residual = np.where(defined, residual, np.nan)
    vals = np.abs(residual[defined])
    return HJBResidual(
        residual=_freeze(residual), defined=defined,
        max_residual=float(np.max(vals)), mean_residual=float(np.mean(vals)),
        self_check_max=float(np.max(gap[defined], initial=0.0)))


def discrete_hjb_residual(g: np.ndarray, model: ReversibleModel,
                          V, grid: TimeGrid
                          ) -> tuple[HJBResidual, HJBResidual]:
    """Residuals of the discrete HJB equation for psi = log g, in two forms.

    residual = d_t psi + sum_y J (D psi) + sum_y theta(D psi) J - V, with
    Du(x;y) = u(y) - u(x) and psi = feynman_kac.log_g(g), NaN where g = 0.
    The two jump sums are also recomputed in the collapsed form
    sum_y (e^{D psi} - 1) J as a self-check; the collapse is an exact
    identity, so any gap beyond rounding is a bug.

    Returns the pair (exponential, log), which differ only in d_t psi:
      - exponential: (d_t g)/g with the grid's second-order stencils.
        Makes residual * g reproduce the backward-equation residual to
        floating-point accuracy (the algebraic equivalence of the two
        equations, at the discrete level).
      - log: the same stencils applied to psi itself. Exact for psi linear
        in t; differs from the exponential form at second order in the step.
    Points where psi is NaN, or where a jump lands on one, are masked in
    both forms; the log form also masks points whose stencil reads one.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.N + 1, model.n):
        raise ModelValidationError("g must be (N+1) x n",
                                   reason="dimension_mismatch")
    V = potential_on_grid(V, grid, model.n)
    psi = log_g(g)
    out = model.J.out_edges
    source, slot = np.nonzero(out.rate)  # in np.nonzero(J.rates)'s order
    target, rate = out.target[source, slot], out.rate[source, slot]
    finite = np.isfinite(psi)
    # A point is evaluable when psi is finite there and at every jump target.
    defined = finite & ~np.logical_or.reduceat(~finite[:, target], out.first,
                                               axis=1)

    linear, theta_sum, gap = np.full((3, *g.shape), np.nan)
    rows = np.flatnonzero(defined.any(axis=1))
    for start in range(0, rows.size, _ROWS_PER_BLOCK):
        ks = rows[start:start + _ROWS_PER_BLOCK]
        p = np.where(finite[ks], psi[ks], 0.0)
        dpsi = p[:, target] - p[:, source]
        linear[ks], theta_sum[ks], collapsed = (
            np.add.reduceat(rate * term, out.first, axis=1)
            for term in (dpsi, theta(dpsi), np.expm1(dpsi)))
        gap[ks] = np.abs((linear[ks] + theta_sum[ks]) - collapsed)

    with np.errstate(divide="ignore", invalid="ignore"):
        dt_exp = derivative(g, grid.dt) / g
    # NaN exactly where the stencil reads a node with g = 0.
    dt_log = derivative(psi, grid.dt)
    log_defined = defined & np.isfinite(dt_log)
    return tuple(
        _summarise(dt_psi + linear + theta_sum - V, gap, mask)
        for dt_psi, mask in ((dt_exp, defined), (dt_log, log_defined)))
