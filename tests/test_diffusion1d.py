"""Crank-Nicolson transform machinery and reflected Euler-Maruyama sampling.

Closed-form anchors: flat solutions are exact, constant potentials reduce to
the scalar Pade factor with its c^3 dt^2 / 12 bias, and a Gaussian terminal
weight under zero potential has an explicit backward function and bridge
drift. Sampling checks use binned total variation against the solved
marginals with thresholds calibrated well above the Monte Carlo floor.
"""

import numpy as np
import pytest

from htlab.diffusion1d import (Diffusion1DModel, GridFunction,
                               build_diffusion_transform,
                               diffusion_hjb_residual,
                               empirical_vs_fk_marginal, potential_on_grid,
                               psi_and_drift, sample_em_paths,
                               solve_f_pde, solve_g_pde)
from htlab.errors import (DegenerateInputError, ModelValidationError,
                          PositivityError)
from htlab.markov_core import TimeGrid


def flat_model(M=64, lo=-4.0, hi=4.0):
    return Diffusion1DModel(lo, hi, M, np.zeros(M + 1))


def quadratic_model(M=128, lo=-2.0, hi=2.0):
    xs = lo + (hi - lo) / M * np.arange(M + 1)
    return Diffusion1DModel(lo, hi, M, 0.5 * xs ** 2)


def gaussian_weight(model, eps, y0=0.0):
    return np.exp(-(model.xs - y0) ** 2 / (2 * eps ** 2))


def test_model_validation_and_geometry():
    with pytest.raises(ModelValidationError):
        Diffusion1DModel(1.0, 1.0, 64, 0.0)
    with pytest.raises(ModelValidationError):
        Diffusion1DModel(0.0, 1.0, 8, 0.0)
    with pytest.raises(ModelValidationError):
        Diffusion1DModel(0.0, 1.0, 64, np.zeros(10))
    with pytest.raises(ModelValidationError):
        Diffusion1DModel(0.0, 1.0, 64, np.full(65, np.nan))
    model = quadratic_model()
    assert model.dx == pytest.approx(4.0 / 128)
    np.testing.assert_allclose(model.U_prime, model.xs, atol=1e-12)
    assert model.m_weights.sum() == pytest.approx(1.0, abs=1e-12)
    trap = np.full(model.M + 1, model.dx)
    trap[0] = trap[-1] = 0.5 * model.dx
    assert np.sum(model.density * trap) == pytest.approx(1.0, abs=1e-12)


def test_potential_broadcasting():
    grid = TimeGrid(10)
    assert potential_on_grid(0.3, grid, 16).shape == (11, 17)
    vec = np.linspace(0, 1, 17)
    np.testing.assert_array_equal(potential_on_grid(vec, grid, 16)[7], vec)
    full = np.zeros((11, 17))
    assert potential_on_grid(full, grid, 16).shape == (11, 17)
    with pytest.raises(ModelValidationError):
        potential_on_grid(np.zeros(16), grid, 16)


def test_backward_flat_solution_is_exact():
    model = quadratic_model()
    grid = TimeGrid(100)
    sol = solve_g_pde(model, 0.0, np.ones(model.M + 1), grid)
    np.testing.assert_allclose(sol.gf.values, 1.0, atol=1e-12)
    assert sol.clipped_nodes == 0


def test_backward_constant_potential_pade():
    """V = c decouples from space; the error is the scalar Pade bias."""
    model = flat_model()
    grid = TimeGrid(256)
    c = 1.0
    sol = solve_g_pde(model, c, np.ones(model.M + 1), grid)
    exact = np.exp(-c * (1.0 - grid.nodes))[:, None]
    assert np.max(np.abs(sol.gf.values - exact)) <= 2e-6


def test_backward_gaussian_closed_form():
    """Free heat flow from a Gaussian weight, checked in the bulk."""
    model = flat_model(M=512)
    grid = TimeGrid(512)
    eps = 0.5
    sol = solve_g_pde(model, 0.0, gaussian_weight(model, eps), grid)
    s = eps ** 2 + 1.0 - grid.nodes[:, None]
    exact = eps / np.sqrt(s) * np.exp(-model.xs[None, :] ** 2 / (2 * s))
    win = np.abs(model.xs) <= 2.0
    rel = np.abs(sol.gf.values[:, win] - exact[:, win]) / exact[:, win]
    assert rel.max() <= 1e-3
    assert sol.clipped_nodes == 0


def test_backward_second_order_convergence():
    """Quartering (dt, dx^2) cuts the bulk error by about four."""
    def max_rel(M, N):
        model = flat_model(M=M)
        grid = TimeGrid(N)
        eps = 0.5
        sol = solve_g_pde(model, 0.0, gaussian_weight(model, eps), grid)
        s = eps ** 2 + 1.0 - grid.nodes[:, None]
        exact = eps / np.sqrt(s) * np.exp(-model.xs[None, :] ** 2 / (2 * s))
        win = np.abs(model.xs) <= 2.0
        return np.max(np.abs(sol.gf.values[:, win] - exact[:, win])
                      / exact[:, win])

    ratio = max_rel(64, 64) / max_rel(128, 256)
    assert 3.0 <= ratio <= 5.0


def test_forward_flat_and_constant_potential():
    model = flat_model()
    grid = TimeGrid(256)
    sol = solve_f_pde(model, 0.0, np.ones(model.M + 1), grid)
    np.testing.assert_allclose(sol.gf.values, 1.0, atol=1e-12)
    c = 0.8
    sol_c = solve_f_pde(model, c, np.ones(model.M + 1), grid)
    exact = np.exp(-c * grid.nodes)[:, None]
    assert np.max(np.abs(sol_c.gf.values - exact)) <= 2e-6


def test_forward_backward_duality_is_exact():
    """The m-weighted pairing of f and g is constant to rounding."""
    model = quadratic_model()
    grid = TimeGrid(200)
    xs, ts = model.xs, grid.nodes
    V = 0.4 * np.sin(np.pi * ts)[:, None] + 0.2 * np.cos(xs)[None, :]
    f0 = 1.0 + 0.5 * np.cos(xs)
    gamma1 = np.exp(-xs ** 2)
    g = solve_g_pde(model, V, gamma1, grid).gf.values
    f = solve_f_pde(model, V, f0, grid).gf.values
    pairing = np.sum(f * g * model.m_weights[None, :], axis=1)
    np.testing.assert_allclose(pairing, pairing[0], rtol=1e-12)


def test_weight_validation():
    model = flat_model()
    grid = TimeGrid(100)
    with pytest.raises(ModelValidationError):
        solve_g_pde(model, 0.0, np.ones(model.M), grid)
    with pytest.raises(ModelValidationError):
        solve_g_pde(model, 0.0, -np.ones(model.M + 1), grid)
    with pytest.raises(DegenerateInputError):
        solve_g_pde(model, 0.0, np.zeros(model.M + 1), grid)
    with pytest.raises(DegenerateInputError):
        solve_f_pde(model, 0.0, np.zeros(model.M + 1), grid)


def test_transform_marginals_are_probabilities():
    model = quadratic_model()
    grid = TimeGrid(200)
    tr = build_diffusion_transform(model, 0.1, 1.0 + 0.3 * np.sin(model.xs),
                                   gaussian_weight(model, 0.8), grid)
    for t in (0.0, 0.25, 0.6, 1.0):
        masses = tr.marginal_masses(t)
        assert np.all(masses >= 0)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert tr.c > 0


def test_flat_g_gives_reference_drift():
    model = quadratic_model()
    grid = TimeGrid(100)
    tr = build_diffusion_transform(model, 0.0, np.ones(model.M + 1),
                                   np.ones(model.M + 1), grid)
    np.testing.assert_allclose(tr.psi.values, 0.0, atol=1e-12)
    np.testing.assert_allclose(
        tr.drift.values, np.tile(-model.U_prime, (101, 1)), atol=1e-12)


def test_drift_is_gauge_invariant():
    model = flat_model(M=128)
    grid = TimeGrid(100)
    gamma1 = gaussian_weight(model, 0.7)
    tr1 = build_diffusion_transform(model, 0.0, np.ones(129), gamma1, grid)
    tr2 = build_diffusion_transform(model, 0.0, np.ones(129), 2.5 * gamma1,
                                    grid)
    np.testing.assert_allclose(tr2.psi.values - tr1.psi.values, np.log(2.5),
                               atol=1e-10)
    np.testing.assert_allclose(tr2.drift.values, tr1.drift.values, atol=1e-9)


def test_bridge_drift_closed_form():
    """Narrow Gaussian pinning approximates the Brownian bridge drift."""
    model = flat_model(M=256)
    grid = TimeGrid(500)
    eps = 0.1
    tr = build_diffusion_transform(model, 0.0, np.ones(257),
                                   gaussian_weight(model, eps), grid)
    s = eps ** 2 + 1.0 - grid.nodes[:, None]
    exact = -model.xs[None, :] / s
    tw = grid.nodes <= 0.9
    win = np.abs(model.xs) <= 1.0
    err = np.abs(tr.drift.values[np.ix_(tw, win)] - exact[np.ix_(tw, win)])
    assert err.max() / np.abs(exact[np.ix_(tw, win)]).max() <= 1e-2


def test_masked_psi_propagates_and_blocks_sampling():
    model = flat_model(M=64)
    grid = TimeGrid(100)
    gamma1 = np.where(model.xs >= 0.0, gaussian_weight(model, 0.8), 0.0)
    tr = build_diffusion_transform(model, 0.0, np.ones(65), gamma1, grid)
    assert np.isnan(tr.psi.values[-1, 0])
    assert np.isnan(tr.drift.values[-1, 0])
    assert np.isfinite(tr.psi.values[:-1]).all()
    # off-grid final step blends into the masked terminal row
    with pytest.raises(PositivityError):
        sample_em_paths(model, 4, seed=3, steps=101, drift=tr.drift, x0=-1.5)


def test_hjb_residual_exact_and_pade():
    model = quadratic_model()
    grid = TimeGrid(512)
    tr = build_diffusion_transform(model, 0.0, np.ones(129), np.ones(129),
                                   grid)
    res0 = diffusion_hjb_residual(tr.psi, model, 0.0)
    assert np.max(np.abs(res0.values)) <= 1e-12
    c = 0.05
    tr_c = build_diffusion_transform(model, c, np.ones(129), np.ones(129),
                                     grid)
    res_c = diffusion_hjb_residual(tr_c.psi, model, c)
    # psi is exactly linear in time, leaving only the c^3 dt^2 / 12 Pade bias
    assert np.max(np.abs(res_c.values)) <= 1e-10


def test_hjb_residual_gaussian_scales_with_dx():
    def interior_max(M):
        model = flat_model(M=M)
        grid = TimeGrid(512)
        tr = build_diffusion_transform(model, 0.0, np.ones(M + 1),
                                       gaussian_weight(model, 0.5), grid)
        res = diffusion_hjb_residual(tr.psi, model, 0.0)
        win = np.abs(model.xs) <= 2.0
        return float(np.nanmax(np.abs(res.values[:, win])))

    coarse, fine = interior_max(256), interior_max(512)
    assert fine <= 0.05
    assert coarse / fine >= 2.5


def test_em_increments_are_gaussian():
    model = flat_model(M=64, lo=-20.0, hi=20.0)
    paths = sample_em_paths(model, 100, seed=21, steps=1000, x0=0.0)
    assert paths.shape == (100, 1001)
    assert np.abs(paths).max() < 20.0
    inc = np.diff(paths, axis=1).ravel()
    dt = 1.0 / 1000
    assert abs(inc.mean()) <= 3.0 * np.sqrt(dt / inc.size)
    assert abs(inc.var() / dt - 1.0) <= 3.0 * np.sqrt(2.0 / inc.size)


def test_em_reflection_keeps_paths_inside():
    model = flat_model(M=32, lo=-1.0, hi=1.0)
    paths = sample_em_paths(model, 50, seed=9, steps=400, x0=0.95)
    assert paths.min() >= -1.0
    assert paths.max() <= 1.0


def test_em_determinism_and_inputs():
    model = quadratic_model()
    a, b, c = (sample_em_paths(model, 1, seed=seed, steps=200, x0=0.3)[0]
               for seed in (5, 5, 6))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (201,)
    assert not np.array_equal(a, c)
    batch = sample_em_paths(model, 3, seed=5, steps=200,
                            x0=np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_array_equal(batch[:, 0], [-1.0, 0.0, 1.0])
    with pytest.raises(ModelValidationError):
        sample_em_paths(model, 2, seed=1, steps=50, x0=0.0)
    with pytest.raises(ModelValidationError):
        sample_em_paths(model, 2, seed=1, steps=200)


def test_em_escape_guard():
    model = quadratic_model()
    grid = TimeGrid(100)
    runaway = GridFunction(grid=grid, xs=model.xs,
                           values=np.full((101, model.M + 1), 1e4))
    with pytest.raises(ModelValidationError) as info:
        sample_em_paths(model, 2, seed=1, steps=100, drift=runaway, x0=0.0)
    assert info.value.reason == "path_escaped"


def test_empirical_marginal_identity_transform():
    """Sampling the reference-drift transform reproduces f g m at both ends."""
    model = quadratic_model()
    grid = TimeGrid(500)
    tr = build_diffusion_transform(model, 0.0, np.ones(129), np.ones(129),
                                   grid)
    assert empirical_vs_fk_marginal(tr, 0.0, 30_000, seed=78) <= 0.03
    assert empirical_vs_fk_marginal(tr, 1.0, 30_000, seed=77) <= 0.03


def test_empirical_marginal_bridge_transform():
    """The pinned transform still matches its marginal deep into the squeeze."""
    model = flat_model(M=256)
    grid = TimeGrid(500)
    tr = build_diffusion_transform(model, 0.0, np.ones(257),
                                   gaussian_weight(model, 0.1), grid)
    assert empirical_vs_fk_marginal(tr, 0.9, 20_000, seed=5) <= 0.05
