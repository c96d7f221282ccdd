"""Entropic bridge between two prescribed marginals over a reference chain.

With zero potential, reweighting by f0(X_0) gamma1(X_1) only moves the
endpoint joint law, so matching both marginals is a classical iterative
proportional fitting problem on the two-time kernel K(x,y) = m(x) e^Q(x,y).
The minimizer of relative entropy under both marginal constraints has exactly
this product form.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from htlab.errors import (ConvergenceError, InconsistencyError,
                          ModelValidationError)
from htlab.h_transform import HProcess, build_h_process, marginal
from htlab.markov_core import (ReversibleModel, TimeGrid, _freeze, _is_integer,
                               transition_matrix)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


def _probability_vector(v, n: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ModelValidationError(f"{what} must have one entry per state",
                                   reason="dimension_mismatch")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ModelValidationError(f"{what} must be a probability vector",
                                   reason="bad_probability")
    if abs(v.sum() - 1.0) > 1e-9:
        raise ModelValidationError(f"{what} must sum to 1",
                                   reason="unnormalized_probability")
    return _freeze(v / v.sum())


@dataclass(frozen=True, eq=False)
class BridgeProblem:
    """Reference chain, target marginals, and the two-time joint kernel."""

    model: ReversibleModel
    mu0: np.ndarray
    mu1: np.ndarray
    K: np.ndarray


def build_bridge_problem(model: ReversibleModel, mu0, mu1) -> BridgeProblem:
    mu0 = _probability_vector(mu0, model.n, "initial marginal")
    mu1 = _probability_vector(mu1, model.n, "terminal marginal")
    K = model.m[:, None] * transition_matrix(model, 1.0)
    return BridgeProblem(model=model, mu0=mu0, mu1=mu1, K=_freeze(K))


@dataclass(frozen=True, eq=False)
class IPFResult:
    f0: np.ndarray
    gamma1: np.ndarray
    iterations: int
    final_error: float
    error_history: tuple[float, ...]
    support_restricted: bool


def ipf_solve(problem: BridgeProblem, tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER) -> IPFResult:
    """Alternate row and column scalings until both marginals match.

    States with zero target mass are removed from the corresponding scaling
    (their multiplier is zero by definition) and embedded back afterwards.
    The marginal error is the max of the two l1 gaps and must decrease
    monotonically; a strictly positive kernel guarantees convergence.
    """
    if not (_is_integer(max_iter) and max_iter >= 1):
        raise ModelValidationError(f"need an integer max_iter > 0, got "
                                   f"{max_iter!r}", reason="bad_max_iter")
    # a NaN fails the comparisons
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < np.inf):
        raise ModelValidationError(f"need a real 0 < tol < inf, got {tol!r}",
                                   reason="bad_tolerance")
    on0 = problem.mu0 > 0
    on1 = problem.mu1 > 0
    restricted = bool((~on0).any() or (~on1).any())
    mu0 = problem.mu0[on0]
    mu1 = problem.mu1[on1]
    K = problem.K[np.ix_(on0, on1)]
    if np.any(K <= 0):
        raise ModelValidationError(
            "two-time kernel must be strictly positive on the support",
            reason="degenerate_kernel")
    b = np.ones_like(mu1)
    history: list[float] = []
    prev = np.inf
    for it in range(1, max_iter + 1):
        a = mu0 / (K @ b)
        b = mu1 / (K.T @ a)
        joint = a[:, None] * K * b[None, :]
        err = max(float(np.abs(joint.sum(axis=1) - mu0).sum()),
                  float(np.abs(joint.sum(axis=0) - mu1).sum()))
        history.append(err)
        if err > prev + 1e-15:
            raise InconsistencyError(
                f"marginal error increased at iteration {it} "
                f"({prev:.3e} -> {err:.3e})", reason="ipf_error_increase")
        prev = err
        if err < tol:
            f0 = np.zeros(problem.model.n)
            gamma1 = np.zeros(problem.model.n)
            f0[on0] = a
            gamma1[on1] = b
            return IPFResult(f0=_freeze(f0), gamma1=_freeze(gamma1),
                             iterations=it, final_error=err,
                             error_history=tuple(history),
                             support_restricted=restricted)
    raise ConvergenceError(
        f"iterative fitting stalled at error {prev:.3e} after {max_iter} "
        "iterations", final_error=prev, iterations=max_iter,
        reason="ipf_max_iterations")


def bridge_to_hprocess(problem: BridgeProblem, f0: np.ndarray,
                       gamma1: np.ndarray, grid: TimeGrid,
                       tol: float = DEFAULT_TOL) -> HProcess:
    """Assemble the transformed process and verify it hits both marginals."""
    hp = build_h_process(problem.model, f0, gamma1, 0.0, grid)
    gap0 = float(np.abs(marginal(hp, 0.0) - problem.mu0).sum())
    gap1 = float(np.abs(marginal(hp, 1.0) - problem.mu1).sum())
    if max(gap0, gap1) > 10.0 * tol:
        raise InconsistencyError(
            f"bridge marginals off by ({gap0:.3e}, {gap1:.3e})",
            reason="bridge_marginal_mismatch")
    return hp


def static_entropy(problem: BridgeProblem, f0: np.ndarray,
                   gamma1: np.ndarray) -> float:
    """Relative entropy of the product-form two-time joint against K."""
    joint = joint_distribution(problem, f0, gamma1)
    ratio = np.outer(f0, gamma1)
    # 0 log 0 = 0: the joint vanishes wherever the ratio does.
    return float((joint * np.log(np.where(joint > 0.0, ratio, 1.0))).sum())


def joint_distribution(problem: BridgeProblem, f0: np.ndarray,
                       gamma1: np.ndarray) -> np.ndarray:
    return f0[:, None] * problem.K * gamma1[None, :]
