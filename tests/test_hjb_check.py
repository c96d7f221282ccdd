"""Conjugate pair theta/theta_star and the discrete HJB residual of log g.

Closed forms anchor everything: theta(1) = e - 2, theta_star(-1) = 1, the
Fenchel-Young equality locus b = e^a - 1, an exactly linear-in-time psi for
constant potentials, and the algebraic identity residual * g = backward
Feynman-Kac residual in the exponential time mode.
"""

import numpy as np
import pytest
from scipy.special import xlogy

from conftest import five_state_model, generic_hprocess, two_state_model
from htlab.errors import ModelValidationError
from htlab.feynman_kac import (InitialWeight, PotentialField, TerminalWeight,
                               check_fk_generator, solve_g)
from htlab.h_transform import build_h_process
from htlab.hjb_check import (discrete_hjb_residual, psi_field_from_g, theta,
                             theta_star)
from htlab.markov_core import TimeGrid


def test_theta_values():
    assert theta(0.0) == 0.0
    assert theta(1.0) == pytest.approx(np.e - 2.0, rel=1e-14)
    a = np.linspace(-3.0, 3.0, 61)
    vals = theta(a)
    assert isinstance(vals, np.ndarray)
    assert np.all(vals >= 0.0)
    # convexity: nonnegative second differences
    assert np.all(np.diff(vals, 2) >= -1e-14)


def test_theta_star_values():
    assert theta_star(0.0) == 0.0
    assert theta_star(-1.0) == pytest.approx(1.0, abs=1e-15)
    b = np.linspace(-1.0, 5.0, 61)
    vals = theta_star(b)
    assert np.all(vals >= -1e-15)
    assert np.all(np.diff(vals, 2) >= -1e-12)
    with pytest.raises(ModelValidationError):
        theta_star(-1.0001)


def test_theta_star_matches_xlogy_reference():
    """x log x in numpy, with 0 log 0 = 0, against scipy's xlogy."""
    rng = np.random.default_rng(5)
    b = np.concatenate([[-1.0, 0.0], rng.uniform(-1.0, 20.0, 10_000)])
    x_log_x = xlogy(b + 1.0, b + 1.0)
    assert theta_star(-1.0) == 1.0
    assert theta_star(0.0) == 0.0
    # numpy's log and libm's may differ in the last bit, and theta_star
    # cancels near b = 0, so the gap is measured against the x log x term.
    gap = np.abs(theta_star(b) - (x_log_x - b))
    assert np.all(gap <= 1e-15 * np.abs(x_log_x))


def test_fenchel_young_inequality_and_equality():
    rng = np.random.default_rng(3)
    a = rng.uniform(-3.0, 3.0, size=200)
    b = rng.uniform(-1.0, 5.0, size=200)
    assert np.all(theta(a) + theta_star(b) - a * b >= -1e-12)
    for ai in np.linspace(-2.0, 2.0, 9):
        bi = np.expm1(ai)
        assert theta(ai) + theta_star(bi) == pytest.approx(
            ai * bi, abs=1e-12)


def test_psi_field_marks_vanishing_g():
    grid = TimeGrid(4)
    g = np.ones((5, 2))
    g[5 - 1:, 1] = 0.0
    psi = psi_field_from_g(g, grid)
    assert psi.psi[4, 1] == -np.inf
    assert psi.psi[0, 0] == 0.0
    np.testing.assert_array_equal(psi.finite_mask[:, 0], True)
    with pytest.raises(ModelValidationError):
        psi_field_from_g(np.ones((6, 2)), grid)


def test_residual_zero_for_trivial_transform():
    """V = 0 and unit terminal weight give g = 1 and an exactly zero residual."""
    model = two_state_model()
    grid = TimeGrid(50)
    V = PotentialField.constant(0.0, grid, 2)
    g = solve_g(model, V, TerminalWeight(np.ones(2)), grid)
    for mode in ("exponential", "log"):
        res = discrete_hjb_residual(psi_field_from_g(g, grid), model, V,
                                    time_term=mode)
        assert res.max_residual == 0.0
        assert res.flagged == []


def test_residual_log_mode_exact_for_linear_psi():
    """psi = -c (1 - t) is linear in t, so the log stencil is exact."""
    model = two_state_model()
    grid = TimeGrid(100)
    c = 0.8
    V = PotentialField.constant(c, grid, 2)
    g_exact = np.exp(-c * (1.0 - grid.nodes))[:, None] * np.ones((1, 2))
    res = discrete_hjb_residual(psi_field_from_g(g_exact, grid), model, V,
                                time_term="log")
    assert res.max_residual <= 1e-12
    # the solver's g carries an O(dt^4) bias, still far below stencil error
    g_solved = solve_g(model, V, TerminalWeight(np.ones(2)), grid)
    res_solved = discrete_hjb_residual(psi_field_from_g(g_solved, grid),
                                       model, V, time_term="log")
    assert res_solved.max_residual <= 1e-9


def test_residual_exponential_mode_matches_backward_equation():
    """residual * g equals the backward-equation residual, pointwise."""
    hp = generic_hprocess()
    psi = psi_field_from_g(hp.fk.g, hp.grid)
    res = discrete_hjb_residual(psi, hp.model, hp.V, time_term="exponential")
    fk_res = check_fk_generator(hp.model, hp.V, hp.fk.g, hp.grid)
    np.testing.assert_allclose(np.abs(res.residual) * hp.fk.g,
                               fk_res.residual, atol=1e-12)
    assert res.self_check_max <= 1e-12


def test_residual_modes_differ_at_second_order():
    def mode_gap(N):
        hp = generic_hprocess(N=N)
        psi = psi_field_from_g(hp.fk.g, hp.grid)
        r_exp = discrete_hjb_residual(psi, hp.model, hp.V, "exponential")
        r_log = discrete_hjb_residual(psi, hp.model, hp.V, "log")
        return np.max(np.abs(r_exp.residual - r_log.residual))

    ratio = mode_gap(100) / mode_gap(200)
    assert 2.5 <= ratio <= 6.0


def test_residual_masks_pinned_states():
    model = two_state_model()
    grid = TimeGrid(100)
    V = PotentialField.constant(0.0, grid, 2)
    g = solve_g(model, V, TerminalWeight(np.array([1.0, 0.0])), grid)
    psi = psi_field_from_g(g, grid)
    res_exp = discrete_hjb_residual(psi, model, V, "exponential")
    assert set(res_exp.flagged) == {(1.0, 0), (1.0, 1)}
    assert np.isnan(res_exp.residual[100]).all()
    assert np.isfinite(res_exp.residual[:100]).all()
    res_log = discrete_hjb_residual(psi, model, V, "log")
    assert (0.99, 1) in res_log.flagged
    assert len(res_log.flagged) == 3
    assert "undefined_points=3" in res_log.report()


def test_residual_small_for_generic_transform():
    """Both modes shrink toward zero as the grid refines."""
    hp = generic_hprocess(N=400)
    psi = psi_field_from_g(hp.fk.g, hp.grid)
    for mode in ("exponential", "log"):
        res = discrete_hjb_residual(psi, hp.model, hp.V, mode)
        assert res.max_residual <= 1e-4
        assert res.mean_residual <= res.max_residual


def test_residual_input_checks():
    model = five_state_model()
    grid = TimeGrid(20)
    V = PotentialField.constant(0.0, grid, 5)
    g = solve_g(model, V, TerminalWeight(np.ones(5)), grid)
    psi = psi_field_from_g(g, grid)
    with pytest.raises(ModelValidationError):
        discrete_hjb_residual(psi, model, V, time_term="midpoint")
    with pytest.raises(ModelValidationError):
        discrete_hjb_residual(psi, model,
                              PotentialField.constant(0.0, grid, 4))


def test_residual_detects_wrong_potential():
    """Feeding the wrong V leaves a residual of exactly the V mismatch."""
    model = two_state_model()
    grid = TimeGrid(100)
    V = PotentialField.constant(0.0, grid, 2)
    g = solve_g(model, V, TerminalWeight(np.ones(2)), grid)
    wrong = PotentialField.constant(0.3, grid, 2)
    res = discrete_hjb_residual(psi_field_from_g(g, grid), model, wrong)
    assert res.max_residual == pytest.approx(0.3, abs=1e-12)
