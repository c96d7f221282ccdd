"""Backward/forward Feynman-Kac solves, propagators, and their invariants.

The independent oracles here: closed forms for constant potentials, a
Monte Carlo average of exp(-integral of V) over reference paths, and an
exhaustive sum over jump-count-limited path classes whose sojourn integrals
are divided differences of the exponential (computed via a bidiagonal
matrix exponential, not via the solver under test).
"""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (five_state_model, ring_kernel, two_state_model,
                      wavy_potential)
from htlab.errors import DegenerateInputError, ModelValidationError
from htlab.feynman_kac import (FKPropagator, InitialWeight, PotentialField,
                               TerminalWeight, check_fk_generator,
                               check_semigroup, derivative, fk_propagator,
                               positivity_report, solve_f, solve_fk, solve_g)
from htlab.markov_core import (StateSpace, TimeGrid, build_metropolis,
                               sample_paths_R, transition_matrix)


def test_propagator_zero_potential_matches_transition_matrix():
    model = two_state_model()
    grid = TimeGrid(200)
    prop = fk_propagator(model, PotentialField.constant(0.0, grid, 2), grid)
    np.testing.assert_allclose(prop.matrix(0, 200), transition_matrix(model, 1.0),
                               atol=1e-8)
    np.testing.assert_array_equal(prop.matrix(40, 40), np.eye(2))


def test_propagator_constant_potential_shift():
    """V = c commutes with everything: Phi(s,t) = e^{-c(t-s)} e^{Q(t-s)}."""
    model = two_state_model()
    grid = TimeGrid(400)
    c = 0.8
    prop = fk_propagator(model, PotentialField.constant(c, grid, 2), grid)
    for k, l in ((0, 400), (100, 300), (0, 40)):
        dt = (l - k) / 400
        expected = np.exp(-c * dt) * transition_matrix(model, dt)
        np.testing.assert_allclose(prop.matrix(k, l), expected, atol=1e-9)


def _wavy(model, grid):
    ts = grid.nodes
    xs = np.arange(model.n, dtype=float)
    return PotentialField(0.4 * np.sin(2 * np.pi * ts)[:, None]
                          + 0.3 * xs[None, :], lo=0.4)


def test_semigroup_residual():
    model = two_state_model()
    grid = TimeGrid(1000)
    prop = fk_propagator(model, _wavy(model, grid), grid)
    assert check_semigroup(prop, 0.0, 0.5, 1.0) <= 1e-8
    assert check_semigroup(prop, 0.3, 0.3, 0.9) == 0.0
    zero_prop = fk_propagator(model, PotentialField.constant(0.0, grid, 2), grid)
    assert check_semigroup(zero_prop, 0.0, 0.5, 1.0) <= 1e-10
    with pytest.raises(ModelValidationError):
        check_semigroup(prop, 0.0, 0.2503, 1.0)
    with pytest.raises(ModelValidationError):
        check_semigroup(prop, 0.5, 0.2, 1.0)


def test_propagator_entry_bounds():
    """Entries stay nonnegative with row sums at most e^{lo (t-s)}."""
    model = two_state_model()
    grid = TimeGrid(100)
    lo = 0.5
    ts = grid.nodes
    V = PotentialField(-lo * np.sin(np.pi * ts)[:, None] * np.ones((1, 2)),
                       lo=lo)
    prop = fk_propagator(model, V, grid)
    for k, l in ((0, 100), (20, 70)):
        M = prop.matrix(k, l)
        assert np.all(M >= -1e-15)
        assert np.max(M.sum(axis=1)) <= np.exp(lo * (l - k) / 100) + 1e-10


def test_solve_g_trivial_cases():
    model = two_state_model()
    grid = TimeGrid(100)
    ones = TerminalWeight(np.ones(2))
    g0 = solve_g(model, PotentialField.constant(0.0, grid, 2), ones, grid)
    np.testing.assert_allclose(g0, 1.0, atol=1e-14)
    g1 = solve_g(model, PotentialField.constant(1.0, grid, 2), ones, grid)
    expected = np.exp(-(1.0 - grid.nodes))[:, None] * np.ones((1, 2))
    np.testing.assert_allclose(g1, expected, atol=1e-9)
    assert g1[0, 0] == pytest.approx(0.367879, abs=1e-6)


def test_solve_g_monte_carlo_oracle():
    """g(0,x) = E[exp(-occupation of state 1) gamma(X_1)] along reference paths."""
    model = two_state_model()
    grid = TimeGrid(100)
    V = PotentialField(np.tile(np.array([0.0, 1.0]), (101, 1)))
    g = solve_g(model, V, TerminalWeight(np.ones(2)), grid)
    n_paths = 30_000
    for x0 in (0, 1):
        paths = sample_paths_R(model, n_paths, seed=90 + x0, x0=x0)
        samples = np.empty(n_paths)
        for i, p in enumerate(paths):
            occupation = sum(b - a for a, b, s in p.segments() if s == 1)
            samples[i] = np.exp(-occupation)
        se = samples.std(ddof=1) / np.sqrt(n_paths)
        assert abs(samples.mean() - g[0, x0]) <= 3.0 * se


def _sojourn_integral(mus):
    """Ordered-time integral of exp(-sum mu_i * duration_i) over [0,1].

    Equals the divided difference of e^z at the points -mu_i, read off the
    corner entry of a bidiagonal matrix exponential; handles repeated rates.
    """
    k = len(mus) - 1
    B = np.diag(-np.asarray(mus, dtype=float))
    for i in range(k):
        B[i, i + 1] = 1.0
    return expm(B)[0, k]


def test_solve_g_path_class_enumeration_oracle():
    """Exhaustive sum over all path classes with at most six jumps.

    Exit rates are small enough that seven or more jumps carry less mass
    than the tolerance; each class contributes the product of its jump rates
    times the analytic sojourn integral times the terminal weight.
    """
    space = StateSpace(("a", "b", "c"))
    model = build_metropolis(space, ring_kernel(3, 0.3), np.full(3, 1 / 3),
                             np.array([0.0, 0.2, -0.1]))
    v_states = np.array([0.2, 0.0, 0.5])
    gamma1 = np.array([1.0, 0.4, 0.7])
    grid = TimeGrid(10)
    g = solve_g(model, PotentialField(np.tile(v_states, (11, 1))),
                TerminalWeight(gamma1), grid)
    J = model.J.rates
    exit_rates = model.J.exit_rates

    def class_sum(seq, rate_product):
        x = seq[-1]
        mus = [exit_rates[s] + v_states[s] for s in seq]
        total = rate_product * _sojourn_integral(mus) * gamma1[x]
        if len(seq) - 1 < 6:
            for y in range(3):
                if J[x, y] > 0:
                    total += class_sum(seq + [y], rate_product * J[x, y])
        return total

    for x0 in range(3):
        assert abs(g[0, x0] - class_sum([x0], 1.0)) <= 1e-4


def test_solve_f_trivial_cases():
    model = two_state_model()
    grid = TimeGrid(100)
    ones = InitialWeight(np.ones(2))
    f0 = solve_f(model, PotentialField.constant(0.0, grid, 2), ones, grid)
    np.testing.assert_allclose(f0, 1.0, atol=1e-12)
    c = 0.7
    fc = solve_f(model, PotentialField.constant(c, grid, 2), ones, grid)
    expected = np.exp(-c * grid.nodes)[:, None] * np.ones((1, 2))
    np.testing.assert_allclose(fc, expected, atol=1e-10)


def test_fg_duality():
    """The m-weighted pairing of f and g is conserved across the grid."""
    model = two_state_model()
    grid = TimeGrid(150)
    V = _wavy(model, grid)
    sol = solve_fk(model, V, InitialWeight(np.array([0.5, 1.5])),
                   TerminalWeight(np.array([1.0, 0.3])), grid)
    pairing = np.sum(sol.f * sol.g * model.m[None, :], axis=1)
    np.testing.assert_allclose(pairing, pairing[0], rtol=1e-12)


def test_g_against_propagator_composition():
    """The vector sweep agrees with products of the dense RK4 factors."""
    model = two_state_model()
    grid = TimeGrid(100)
    V = _wavy(model, grid)
    sol = solve_fk(model, V, InitialWeight(np.ones(2)),
                   TerminalWeight(np.array([0.2, 1.0])), grid)
    prop = fk_propagator(model, V, grid)
    for k, l in ((0, 100), (30, 80)):
        np.testing.assert_allclose(sol.g[k], prop.matrix(k, l) @ sol.g[l],
                                   rtol=1e-12)


def test_f_against_propagator_composition():
    """f(t_l) = m f0 Phi(0, t_l) / m with the dense factors as reference."""
    model = five_state_model()
    grid = TimeGrid(100)
    V = wavy_potential(model, grid)
    f0 = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
    f = solve_f(model, V, InitialWeight(f0), grid)
    prop = fk_propagator(model, V, grid)
    np.testing.assert_array_equal(f[0], f0)
    for l in (1, 37, 100):
        np.testing.assert_allclose(
            f[l], (model.m * f0) @ prop.matrix(0, l) / model.m, rtol=1e-12)


def test_g_upper_bounds():
    model = two_state_model()
    grid = TimeGrid(100)
    gamma1 = TerminalWeight(np.array([0.4, 1.3]))
    ts = grid.nodes
    nonneg = PotentialField(0.5 * (1 + np.sin(3 * ts))[:, None] * np.ones((1, 2)))
    g = solve_g(model, nonneg, gamma1, grid)
    assert g.max() <= 1.3 + 1e-12
    lo = 0.8
    dipping = PotentialField(-lo * np.ones((101, 2)), lo=lo)
    g_dip = solve_g(model, dipping, gamma1, grid)
    bound = np.exp(lo * (1.0 - ts))[:, None] * 1.3
    assert np.all(g_dip <= bound + 1e-10)


def test_fk_generator_residual_trivial():
    model = two_state_model()
    grid = TimeGrid(100)
    g = solve_g(model, PotentialField.constant(0.0, grid, 2),
                TerminalWeight(np.ones(2)), grid)
    res = check_fk_generator(model, PotentialField.constant(0.0, grid, 2),
                             g, grid)
    assert res.max_residual <= 1e-13


def test_fk_generator_residual_second_order():
    """The centered-difference residual drops by about 4x when N doubles."""
    model = two_state_model()

    def max_residual(N):
        grid = TimeGrid(N)
        V = _wavy(model, grid)
        g = solve_g(model, V, TerminalWeight(np.array([0.5, 1.0])), grid)
        return check_fk_generator(model, V, g, grid).max_residual

    r_coarse, r_fine = max_residual(250), max_residual(500)
    assert 3.3 <= r_coarse / r_fine <= 4.7


def test_fk_generator_residual_constant_potential():
    model = two_state_model()
    grid = TimeGrid(100)
    V = PotentialField.constant(1.0, grid, 2)
    g = solve_g(model, V, TerminalWeight(np.ones(2)), grid)
    res = check_fk_generator(model, V, g, grid)
    # stencil error of e^{-(1-t)}: dt^2/6 inside, dt^2/3 at the endpoints
    assert res.max_residual <= (grid.dt ** 2) / 2.0
    assert res.max_residual >= (grid.dt ** 2) / 20.0


def test_positivity_report():
    model = two_state_model()
    grid = TimeGrid(50)
    V = PotentialField.constant(0.0, grid, 2)
    g_pos = solve_g(model, V, TerminalWeight(np.array([1.0, 0.5])), grid)
    assert positivity_report(g_pos, grid) == []
    g_zero = solve_g(model, V, TerminalWeight(np.array([1.0, 0.0])), grid)
    assert positivity_report(g_zero, grid) == [(1.0, 1)]


def test_potential_field_validation():
    grid = TimeGrid(10)
    with pytest.raises(ModelValidationError):
        PotentialField(np.zeros(11))
    with pytest.raises(ModelValidationError):
        PotentialField(np.full((11, 2), -1.0), lo=0.5)
    with pytest.raises(ModelValidationError):
        PotentialField(np.full((11, 2), np.nan))
    field = PotentialField.from_function(lambda t, x: t * (x + 1), grid, 2)
    assert field.values[5, 1] == pytest.approx(1.0)


def test_weight_validation():
    with pytest.raises(ModelValidationError):
        TerminalWeight(np.array([1.0, -0.1]))
    with pytest.raises(DegenerateInputError):
        TerminalWeight(np.zeros(2))
    with pytest.raises(DegenerateInputError):
        InitialWeight(np.zeros(3))


def test_time_derivative_exact_for_quadratics():
    ts = np.linspace(0.0, 1.0, 21)[:, None]
    values = 3.0 * ts ** 2 - 2.0 * ts + 1.0
    d = derivative(values, ts[1, 0] - ts[0, 0])
    np.testing.assert_allclose(d, 6.0 * ts - 2.0, atol=1e-12)
    with pytest.raises(ModelValidationError):
        derivative(values[:2], 0.05)


def test_derivative_axis_is_a_transpose():
    """Along the last axis the stencil gives the transpose, bit for bit."""
    values = np.random.default_rng(3).standard_normal((7, 5))
    values[2, 1] = np.nan
    for step in (0.1, 0.37):
        np.testing.assert_array_equal(derivative(values.T, step, axis=-1),
                                      derivative(values, step).T)


def test_propagator_dimension_check():
    model = two_state_model()
    grid = TimeGrid(10)
    with pytest.raises(ModelValidationError):
        fk_propagator(model, PotentialField.constant(0.0, grid, 3), grid)
    prop = fk_propagator(model, PotentialField.constant(0.0, grid, 2), grid)
    with pytest.raises(ModelValidationError):
        prop.matrix(5, 2)
