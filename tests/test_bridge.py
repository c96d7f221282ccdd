"""Iterative proportional fitting of endpoint marginals over a jump chain.

Oracles: the stationary marginals are a one-step fixed point, pinned targets
force indicator weights, and on a three-state problem the fitted joint beats
every feasible joint on a fine simplex grid in static relative entropy (the
variational characterization, checked by brute force).
"""

import numpy as np
import pytest
from scipy.special import xlogy

from conftest import five_state_model, reversible_two_state, two_state_model
from htlab.bridge import (BridgeProblem, build_bridge_problem,
                          bridge_to_hprocess, ipf_solve, joint_distribution,
                          static_entropy)
from htlab.errors import ConvergenceError, ModelValidationError
from htlab.h_transform import marginal, relative_entropy
from htlab.markov_core import StateSpace, TimeGrid, build_metropolis
from conftest import ring_kernel


def test_two_time_kernel_is_a_symmetric_probability():
    model = five_state_model()
    problem = build_bridge_problem(model, model.m, model.m)
    assert problem.K.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(problem.K, problem.K.T, atol=1e-13)
    assert np.all(problem.K > 0)


def test_stationary_marginals_are_a_fixed_point():
    model = two_state_model()
    problem = build_bridge_problem(model, model.m, model.m)
    res = ipf_solve(problem)
    assert res.iterations == 1
    np.testing.assert_allclose(res.f0, 1.0, atol=1e-9)
    np.testing.assert_allclose(res.gamma1, 1.0, atol=1e-9)
    assert not res.support_restricted


def test_pinned_terminal_marginal():
    model = two_state_model()
    problem = build_bridge_problem(model, model.m, np.array([0.0, 1.0]))
    res = ipf_solve(problem)
    assert res.support_restricted
    assert res.final_error <= 1e-10
    assert res.gamma1[0] == 0.0
    grid = TimeGrid(100)
    hp = bridge_to_hprocess(problem, res.f0, res.gamma1, grid)
    np.testing.assert_allclose(marginal(hp, 0.0), model.m, atol=1e-9)
    np.testing.assert_allclose(marginal(hp, 1.0), [0.0, 1.0], atol=1e-9)


def test_error_history_is_monotone():
    model = five_state_model()
    mu0 = np.array([0.4, 0.1, 0.2, 0.1, 0.2])
    mu1 = np.array([0.1, 0.1, 0.1, 0.2, 0.5])
    res = ipf_solve(build_bridge_problem(model, mu0, mu1))
    hist = np.array(res.error_history)
    assert np.all(np.diff(hist) <= 1e-15)
    assert res.final_error == hist[-1]
    joint = joint_distribution(build_bridge_problem(model, mu0, mu1),
                               res.f0, res.gamma1)
    np.testing.assert_allclose(joint.sum(axis=1), mu0, atol=1e-9)
    np.testing.assert_allclose(joint.sum(axis=0), mu1, atol=1e-9)


def three_state_problem():
    space = StateSpace(("a", "b", "c"))
    model = build_metropolis(space, ring_kernel(3, 0.4), np.full(3, 1 / 3),
                             np.array([0.0, 0.3, -0.2]))
    mu0 = np.array([0.5, 0.3, 0.2])
    mu1 = np.array([0.2, 0.2, 0.6])
    return build_bridge_problem(model, mu0, mu1)


def test_fitted_joint_minimizes_static_entropy():
    """Brute force over all joints with the target marginals on a 0.02 grid.

    Marginal entries are multiples of 0.02, so every feasible lattice joint
    has the exact marginals; the fitted product-form joint must undercut all
    of them (up to the lattice resolution around the smooth minimum).
    """
    problem = three_state_problem()
    res = ipf_solve(problem)
    fitted = static_entropy(problem, res.f0, res.gamma1)

    row = (25, 15, 10)  # units of 0.02
    col = (10, 10, 30)
    best = np.inf
    K = problem.K
    for p00 in range(min(row[0], col[0]) + 1):
        for p01 in range(min(row[0] - p00, col[1]) + 1):
            p02 = row[0] - p00 - p01
            for p10 in range(min(row[1], col[0] - p00) + 1):
                for p11 in range(min(row[1] - p10, col[1] - p01) + 1):
                    p12 = row[1] - p10 - p11
                    p20 = col[0] - p00 - p10
                    p21 = col[1] - p01 - p11
                    p22 = col[2] - p02 - p12
                    if p21 < 0 or p22 < 0:
                        continue
                    pi = 0.02 * np.array([[p00, p01, p02],
                                          [p10, p11, p12],
                                          [p20, p21, p22]])
                    best = min(best, float(xlogy(pi, pi / K).sum()))
    assert fitted <= best + 1e-9
    assert best - fitted <= 0.05


def test_dynamic_entropy_equals_static_entropy():
    """With zero potential all path entropy sits in the endpoint joint."""
    problem = three_state_problem()
    res = ipf_solve(problem)
    hp = bridge_to_hprocess(problem, res.f0, res.gamma1, TimeGrid(100))
    assert relative_entropy(hp) == pytest.approx(
        static_entropy(problem, res.f0, res.gamma1), abs=1e-8)


def test_static_entropy_gauge_invariance():
    problem = three_state_problem()
    res = ipf_solve(problem)
    scaled = static_entropy(problem, 2.0 * res.f0, 0.5 * res.gamma1)
    assert scaled == pytest.approx(static_entropy(problem, res.f0, res.gamma1),
                                   rel=1e-12)
    np.testing.assert_allclose(
        joint_distribution(problem, 2.0 * res.f0, 0.5 * res.gamma1),
        joint_distribution(problem, res.f0, res.gamma1), rtol=1e-12)


def test_static_entropy_matches_xlogy_reference():
    """Zero multipliers give 0 log 0 = 0 terms, as with scipy's xlogy."""
    model = five_state_model()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        problem = build_bridge_problem(model, rng.dirichlet(np.ones(5)),
                                       rng.dirichlet(np.ones(5)))
        f0, gamma1 = rng.uniform(0.0, 2.0, (2, 5))
        f0[rng.integers(5)] = 0.0
        gamma1[rng.integers(5)] = 0.0
        joint = joint_distribution(problem, f0, gamma1)
        reference = float(xlogy(joint, np.outer(f0, gamma1)).sum())
        assert static_entropy(problem, f0, gamma1) == pytest.approx(
            reference, rel=1e-15, abs=0.0)


def test_ipf_iteration_budget():
    problem = three_state_problem()
    with pytest.raises(ConvergenceError) as info:
        ipf_solve(problem, max_iter=1)
    assert info.value.reason == "ipf_max_iterations"
    assert info.value.iterations == 1
    assert info.value.final_error > 0


@pytest.mark.parametrize("limits, reason", [
    ({"max_iter": 0}, "bad_max_iter"),
    ({"max_iter": -3}, "bad_max_iter"),
    ({"tol": 0.0}, "bad_tolerance"),
    ({"tol": -1e-10}, "bad_tolerance"),
    ({"tol": np.nan}, "bad_tolerance"),
    ({"tol": np.inf}, "bad_tolerance"),
])
def test_ipf_rejects_limits_it_cannot_run(limits, reason):
    """No iteration, or a tolerance no error can fall below (or one every
    error falls below), is a validation error, not a stalled fit."""
    with pytest.raises(ModelValidationError) as info:
        ipf_solve(three_state_problem(), **limits)
    assert info.value.reason == reason


def test_marginal_validation():
    model = reversible_two_state()
    with pytest.raises(ModelValidationError):
        build_bridge_problem(model, np.array([0.5, 0.5, 0.0]),
                             np.array([0.5, 0.5]))
    with pytest.raises(ModelValidationError):
        build_bridge_problem(model, np.array([0.7, 0.2]),
                             np.array([0.5, 0.5]))
    with pytest.raises(ModelValidationError):
        build_bridge_problem(model, np.array([1.5, -0.5]),
                             np.array([0.5, 0.5]))
