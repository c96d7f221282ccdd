"""Stochastic-derivative estimates, carre du champ, and generator identities.

The independent references: uniformized matrix exponentials for the
homogeneous chain, closed-form generator values on indicator functions, and
the product-rule identity for the carre du champ (two derivations computed
inside the module must already agree; the tests add hand values on top).
"""

import numpy as np
import pytest

from conftest import (five_state_model, generic_hprocess, identity_hprocess,
                      two_state_model)
from htlab import generator_lab
from htlab.errors import ModelValidationError, PositivityError
from htlab.feynman_kac import solve_g
from htlab.generator_lab import (DEFAULT_H_SEQUENCE, carre_du_champ,
                                 check_fk_stochastic_derivative,
                                 check_transformed_generator, stochastic_derivative,
                                 transformed_rate_matrix, transition_matrix_P)
from htlab.h_transform import MASS_THRESHOLD, build_h_process, marginal
from htlab.markov_core import TimeGrid, transition_matrix


def test_transition_matrix_P_identity_process():
    """The identity transform propagates exactly like the reference chain."""
    model = five_state_model()
    hp = identity_hprocess(model)
    for s, t in ((0.0, 1.0), (0.2, 0.7)):
        np.testing.assert_allclose(transition_matrix_P(hp, s, t),
                                   transition_matrix(model, t - s), atol=1e-9)
    np.testing.assert_array_equal(transition_matrix_P(hp, 0.4, 0.4), np.eye(5))


def test_transition_matrix_P_is_stochastic():
    hp = generic_hprocess()
    T = transition_matrix_P(hp, 0.1, 0.9)
    assert np.all(T >= 0)
    np.testing.assert_allclose(T.sum(axis=1), 1.0, atol=1e-9)


def test_transition_matrix_P_chapman_kolmogorov():
    hp = generic_hprocess()
    for mid in (0.5, 0.333):
        lhs = transition_matrix_P(hp, 0.0, 1.0)
        rhs = transition_matrix_P(hp, 0.0, mid) @ transition_matrix_P(hp, mid, 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_transition_matrix_P_input_checks():
    hp = generic_hprocess()
    with pytest.raises(ModelValidationError):
        transition_matrix_P(hp, 0.7, 0.3)
    with pytest.raises(ModelValidationError):
        transition_matrix_P(hp, -0.1, 0.5)
    with pytest.raises(PositivityError):
        transformed_rate_matrix(np.array([1.0, 0.0]), two_state_model().J.rates)


def test_transition_matrix_P_pinned_terminal():
    model = two_state_model()
    grid = TimeGrid(100)
    hp = build_h_process(model, np.ones(2), np.array([1.0, 0.0]), 0.0, grid)
    T = transition_matrix_P(hp, 0.0, 0.99)
    assert T[0, 0] > 0.99
    with pytest.raises(PositivityError):
        transition_matrix_P(hp, 0.0, 1.0)


def test_stochastic_derivative_reference_indicator():
    """On u = 1_{hi} the limit is Qu = (0.5, -2) for the two-state chain."""
    model = two_state_model()
    u = np.array([0.0, 1.0])
    est = stochastic_derivative(model, u, 0.0)
    np.testing.assert_allclose(est.extrapolated, [0.5, -2.0], atol=1e-7)
    # the plain quotients converge at first order in h
    gaps = np.abs(np.diff(est.estimates, axis=0))
    r = DEFAULT_H_SEQUENCE[0] / DEFAULT_H_SEQUENCE[1]
    np.testing.assert_allclose(np.log(gaps[0] / gaps[1]) / np.log(r), 1.0,
                               atol=0.1)
    # the plain quotient at the finest step is visibly worse
    plain_err = np.max(np.abs(est.estimates[2] - np.array([0.5, -2.0])))
    extr_err = np.max(np.abs(est.extrapolated - np.array([0.5, -2.0])))
    assert extr_err < 0.01 * plain_err


def test_stochastic_derivative_constant_function():
    est = stochastic_derivative(two_state_model(), np.ones(2), 0.3)
    assert np.max(np.abs(est.extrapolated)) <= 1e-9


def test_stochastic_derivative_transformed_sees_time_dependence():
    """For the transformed chain the estimate matches Qu + Gamma(g,u)/g."""
    hp = generic_hprocess()
    u = np.arange(5, dtype=float)
    t = 0.5
    est = stochastic_derivative(hp, u, t)
    g_t = hp.g[50]
    rhs = hp.model.Q @ u + carre_du_champ(hp.model, g_t, u) / g_t
    np.testing.assert_allclose(est.extrapolated, rhs, atol=1e-5)
    assert np.max(np.abs(est.estimates[0] - rhs)) > 10 * np.max(
        np.abs(est.extrapolated - rhs))


def test_h_sequence_validation():
    model = two_state_model()
    u = np.zeros(2)
    with pytest.raises(ModelValidationError) as err:
        stochastic_derivative(model, u, 0.995)
    assert err.value.reason == "step_beyond_horizon"


def test_carre_du_champ_hand_values():
    model = two_state_model()
    u = np.array([0.0, 1.0])
    np.testing.assert_allclose(carre_du_champ(model, u, u), [0.5, 2.0],
                               atol=1e-14)


def test_carre_du_champ_structure():
    model = five_state_model()
    rng = np.random.default_rng(0)
    phi, u, w = rng.normal(size=(3, 5))
    np.testing.assert_allclose(carre_du_champ(model, phi, u),
                               carre_du_champ(model, u, phi), atol=1e-13)
    lhs = carre_du_champ(model, 2.0 * phi + 3.0 * w, u)
    rhs = 2.0 * carre_du_champ(model, phi, u) + 3.0 * carre_du_champ(model, w, u)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    assert np.all(carre_du_champ(model, u, u) >= 0)
    with pytest.raises(ModelValidationError):
        carre_du_champ(model, phi[:3], u)


def test_transformed_generator_identity_process():
    model = five_state_model()
    hp = identity_hprocess(model)
    u = np.array([0.0, 1.0, -1.0, 2.0, 0.5])
    res = check_transformed_generator(hp, u, 0.5)
    assert res.max_residual <= 1e-6
    # so the max is taken over every state
    assert np.all(marginal(hp, 0.5) > MASS_THRESHOLD)


def test_transformed_generator_indicator_potential():
    """Two-state transform with V = 1_{hi}, checked at mid-horizon."""
    model = two_state_model()
    grid = TimeGrid(100)
    V = np.array([0.0, 1.0])
    hp = build_h_process(model, np.ones(2), np.ones(2), V, grid)
    res = check_transformed_generator(hp, np.array([0.0, 1.0]), 0.5)
    assert res.max_residual <= 1e-5


def test_transformed_generator_generic_process():
    hp = generic_hprocess()
    rng = np.random.default_rng(7)
    for _ in range(3):
        u = rng.normal(size=5)
        assert check_transformed_generator(hp, u, 0.25).max_residual <= 1e-5


def test_stacked_functions_share_the_transition_matrices(monkeypatch):
    """A (k, n) stack of u builds each step's transition matrix once and
    gives, row for row, the bits of k separate checks."""
    hp = generic_hprocess()
    us = np.random.default_rng(3).normal(size=(3, 5))
    singles = [check_transformed_generator(hp, u, 0.25) for u in us]
    calls = []

    def counted(*args):
        calls.append(args)
        return transition_matrix_P(*args)

    monkeypatch.setattr(generator_lab, "transition_matrix_P", counted)
    stacked = check_transformed_generator(hp, us, 0.25)
    assert len(calls) == len(DEFAULT_H_SEQUENCE)
    assert stacked.max_residual == max(r.max_residual for r in singles)
    for i, single in enumerate(singles):
        assert np.array_equal(stacked.derivative.estimates[:, i],
                              single.derivative.estimates)
        assert np.array_equal(stacked.derivative.extrapolated[i],
                              single.derivative.extrapolated)


def test_fk_stochastic_derivative_zero_potential():
    model = five_state_model()
    grid = TimeGrid(1000)
    V = 0.0
    gamma1 = np.array([0.2, 0.5, 1.0, 0.3, 0.8])
    g = solve_g(model, V, gamma1, grid)
    res = check_fk_stochastic_derivative(model, V, g, grid, 0.5)
    assert res.max_residual <= 1e-8


def test_fk_stochastic_derivative_constant_potential():
    """With V = 1 the sharp derivative equals g itself."""
    model = five_state_model()
    grid = TimeGrid(1000)
    V = 1.0
    gamma1 = np.array([0.2, 0.5, 1.0, 0.3, 0.8])
    g = solve_g(model, V, gamma1, grid)
    res = check_fk_stochastic_derivative(model, V, g, grid, 0.3)
    assert res.max_residual <= 1e-6
    np.testing.assert_allclose(res.derivative.extrapolated, g[300], atol=1e-6)


def test_fk_stochastic_derivative_generic():
    hp = generic_hprocess(N=1000)
    res = check_fk_stochastic_derivative(hp.model, hp.V, hp.g, hp.grid, 0.4)
    assert res.max_residual <= 1e-5


def test_fk_stochastic_derivative_input_checks():
    model = two_state_model()
    grid = TimeGrid(100)
    V = 0.0
    g = solve_g(model, V, np.ones(2), grid)
    with pytest.raises(ModelValidationError) as err:
        check_fk_stochastic_derivative(model, V, g, grid, 0.95)
    assert err.value.reason == "step_beyond_horizon"


def test_default_h_sequence_is_geometric():
    assert DEFAULT_H_SEQUENCE == (1e-2, 5e-3, 2.5e-3)
