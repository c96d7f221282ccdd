"""Transformed-law construction, marginals, kernels, entropy and sampling.

Oracles: the identity transform must reproduce the reference law exactly;
constant potentials shift nothing; density ratios have a closed product
form checked against hand-integrated potentials; the sampler is compared
with the exact marginal (total variation) and with the reference sampler
(two-sample Kolmogorov-Smirnov on the first jump time).
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import (five_state_model, generic_hprocess, identity_hprocess,
                      two_state_model, wavy_potential)
from htlab.errors import (DegenerateInputError, ModelValidationError,
                          PositivityError)
from htlab import feynman_kac, h_transform
from htlab.feynman_kac import (InitialWeight, PotentialField, TerminalWeight,
                               rk4_matrix_step, solve_f, solve_fk, solve_g)
from htlab.h_transform import (build_h_process, forward_marginal_evolve, g_at,
                               integrate_potential_along_path, jump_kernel,
                               marginal, path_density_ratio, relative_entropy,
                               sample_paths_P, time_dependent_kernel)
from htlab.markov_core import (PathSample, TimeGrid, empirical_marginal,
                               sample_paths_R)


def test_identity_transform_reproduces_reference():
    model = two_state_model()
    hp = identity_hprocess(model)
    assert hp.c == pytest.approx(1.0, abs=1e-12)
    for t in (0.0, 0.37, 1.0):
        np.testing.assert_allclose(marginal(hp, t), model.m, atol=1e-12)
        np.testing.assert_allclose(jump_kernel(hp, t), model.J.rates,
                                   atol=1e-12)
    assert abs(relative_entropy(hp)) <= 1e-12


def test_constant_potential_is_a_gauge():
    """V = 1 rescales f and g in opposite directions and changes no law."""
    model = two_state_model()
    grid = TimeGrid(100)
    hp = build_h_process(model, InitialWeight(np.ones(2)),
                         TerminalWeight(np.ones(2)),
                         PotentialField.constant(1.0, grid, 2), grid)
    assert hp.c == pytest.approx(np.exp(-1.0), rel=1e-9)
    np.testing.assert_allclose(marginal(hp, 0.5), model.m, atol=1e-9)
    np.testing.assert_allclose(jump_kernel(hp, 0.25), model.J.rates, atol=1e-9)
    assert abs(relative_entropy(hp)) <= 1e-9


def test_h_process_builds_no_propagator(monkeypatch):
    """g and f are swept as vectors; no dense factor is built on the way."""
    model = five_state_model()
    grid = TimeGrid(100)
    V = wavy_potential(model, grid)
    f0 = InitialWeight(np.array([1.0, 2.0, 0.5, 1.5, 1.0]))
    gamma1 = TerminalWeight(np.array([0.2, 0.5, 1.0, 0.3, 0.8]))

    def forbidden(*args, **kwargs):
        raise AssertionError("fk_propagator called")

    monkeypatch.setattr(feynman_kac, "fk_propagator", forbidden)
    monkeypatch.setattr(h_transform, "fk_propagator", forbidden, raising=False)
    hp = build_h_process(model, f0, gamma1, V, grid)
    fk = solve_fk(model, V, hp.f0, gamma1, grid)

    g = solve_g(model, V, gamma1, grid)
    c = float(np.sum(model.m * f0.f0 * g[0]))
    f = solve_f(model, V, InitialWeight(f0.f0 / c), grid)
    assert hp.c == c
    for sol in (hp.fk, fk):
        assert np.array_equal(sol.g, g)
        assert np.array_equal(sol.f, f)


def test_g_at_returns_the_grid_values_at_nodes():
    hp = generic_hprocess()
    N = hp.grid.N
    for k in range(N + 1):
        assert np.array_equal(g_at(hp, k / N), hp.fk.g[k]), k


def _half_step_midpoints(hp):
    """g(t_k + dt/2) = Phi(t_k + dt/2, t_{k+1}) g(t_{k+1}), by one RK4 step."""
    Q, v, h = hp.model.Q, hp.V.values, hp.grid.dt
    out = np.empty((hp.grid.N, hp.n))
    for k in range(hp.grid.N):
        factor = rk4_matrix_step(Q - np.diag(0.5 * (v[k] + v[k + 1])),
                                 Q - np.diag(0.25 * v[k] + 0.75 * v[k + 1]),
                                 Q - np.diag(v[k + 1]), 0.5 * h)
        out[k] = factor @ hp.fk.g[k + 1]
    return out


def test_g_at_midpoints_converge_at_fourth_order():
    """The Hermite midpoints agree with an integrated half step to O(dt^4)."""
    gaps = []
    for N in (100, 200, 400):
        hp = generic_hprocess(N)
        mid = np.array([g_at(hp, (k + 0.5) * hp.grid.dt) for k in range(N)])
        gaps.append(float(np.max(np.abs(mid - _half_step_midpoints(hp)))))
    assert gaps[0] <= 1e-10
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert orders.min() >= 3.5, gaps


def test_marginals_are_probabilities():
    hp = generic_hprocess()
    for k in range(0, 101, 10):
        p = marginal(hp, k / 100)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_terminal_kernel_reweights_by_terminal_weight():
    """At t = 1 the rates become J(x,y) gamma(y)/gamma(x)."""
    model = two_state_model()
    grid = TimeGrid(50)
    hp = build_h_process(model, InitialWeight(np.ones(2)),
                         TerminalWeight(np.array([1.0, 2.0])),
                         PotentialField.constant(0.0, grid, 2), grid)
    np.testing.assert_allclose(jump_kernel(hp, 1.0),
                               np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
    tdk = time_dependent_kernel(hp)
    assert tdk.rates.shape == (51, 2, 2)
    np.testing.assert_array_equal(tdk.rates[50], jump_kernel(hp, 1.0))
    np.testing.assert_array_equal(tdk.rates[10], jump_kernel(hp, 0.2))


def test_pinning_turns_off_jumps_into_dead_states():
    model = two_state_model()
    grid = TimeGrid(50)
    hp = build_h_process(model, InitialWeight(np.ones(2)),
                         TerminalWeight(np.array([1.0, 0.0])),
                         PotentialField.constant(0.0, grid, 2), grid)
    kern = jump_kernel(hp, 1.0)
    assert np.isnan(kern[1]).all()
    assert kern[0, 1] == 0.0
    # approaching t = 1 the escape rate from the kept state vanishes
    assert jump_kernel(hp, 0.98)[0, 1] < jump_kernel(hp, 0.5)[0, 1]


def test_forward_evolution_matches_fk_marginal():
    model = two_state_model()
    p_id = forward_marginal_evolve(identity_hprocess(model))
    np.testing.assert_allclose(p_id, np.tile(model.m, (101, 1)), atol=1e-12)
    hp = generic_hprocess(N=200)
    p = forward_marginal_evolve(hp)
    exact = hp.fk.f * hp.fk.g * hp.model.m[None, :]
    assert np.max(np.abs(p - exact)) <= 1e-8


def test_forward_evolution_rejects_vanishing_g():
    model = two_state_model()
    grid = TimeGrid(50)
    hp = build_h_process(model, InitialWeight(np.ones(2)),
                         TerminalWeight(np.array([1.0, 0.0])),
                         PotentialField.constant(0.0, grid, 2), grid)
    with pytest.raises(PositivityError) as info:
        forward_marginal_evolve(hp)
    assert info.value.reason == "zero_g_nodes"


def test_relative_entropy_nonnegative_and_sampled():
    hp = generic_hprocess()
    H = relative_entropy(hp)
    assert H >= 0.0
    # H is the transformed-law average of the log density ratio
    n_paths = 20_000
    paths = sample_paths_P(hp, n_paths, seed=314)
    f0, gamma1 = hp.f0.f0, hp.gamma1.gamma1
    samples = np.empty(n_paths)
    for i, p in enumerate(paths):
        integral = integrate_potential_along_path(hp, p, 0.0, 1.0)
        samples[i] = (np.log(f0[p.x0]) - integral
                      + np.log(gamma1[p.state_at(1.0)]))
    se = samples.std(ddof=1) / np.sqrt(n_paths)
    assert abs(samples.mean() - H) <= 3.0 * se


def test_density_ratio_integrates_to_one_over_reference():
    hp = generic_hprocess()
    n_paths = 20_000
    paths = sample_paths_R(hp.model, n_paths, seed=2718)
    ratios = np.array([path_density_ratio(hp, p, 0.0, 1.0) for p in paths])
    se = ratios.std(ddof=1) / np.sqrt(n_paths)
    assert abs(ratios.mean() - 1.0) <= 3.0 * se


def test_potential_integral_closed_form():
    """V(t,x) = t (x+1) integrated along a hand-built two-jump path."""
    model = two_state_model()
    grid = TimeGrid(100)
    V = PotentialField.from_function(lambda t, x: t * (x + 1), grid, 2)
    hp = build_h_process(model, InitialWeight(np.ones(2)),
                         TerminalWeight(np.array([0.7, 1.0])), V, grid)
    path = PathSample(x0=0, times=np.array([0.3, 0.7]),
                      states=np.array([1, 0]), n_states=2, seed=(0,))
    # int_0^.3 t + int_.3^.7 2t + int_.7^1 t = 0.045 + 0.4 + 0.255
    assert integrate_potential_along_path(hp, path, 0.0, 1.0) == \
        pytest.approx(0.7, abs=1e-12)
    assert integrate_potential_along_path(hp, path, 0.2, 0.5) == \
        pytest.approx(0.185, abs=1e-12)
    ratio = path_density_ratio(hp, path, 0.0, 1.0)
    expected = hp.f0.f0[0] * np.exp(-0.7) * hp.gamma1.gamma1[0]
    assert ratio == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ModelValidationError):
        path_density_ratio(hp, path, 0.5, 0.2)


def test_density_ratio_windowed_form():
    """On [s, t] the ratio is f(s, X_s) exp(-int V) g(t, X_t)."""
    hp = generic_hprocess()
    path = sample_paths_R(hp.model, 1, seed=99)[0]
    s, t = 0.25, 0.75
    ks, kt = 25, 75
    xs, xt = path.state_at(s), path.state_at(t)
    integral = integrate_potential_along_path(hp, path, s, t)
    expected = hp.fk.f[ks, xs] * np.exp(-integral) * hp.fk.g[kt, xt]
    assert path_density_ratio(hp, path, s, t) == pytest.approx(expected,
                                                               rel=1e-12)


def test_sampler_identity_law_matches_reference():
    """First-jump times of the identity transform pass a two-sample KS test."""
    model = two_state_model()
    hp = identity_hprocess(model)
    n = 10_000
    p_paths = sample_paths_P(hp, n, seed=11)
    r_paths = sample_paths_R(model, n, seed=12)
    first_p = [p.times[0] for p in p_paths if p.times.size]
    first_r = [p.times[0] for p in r_paths if p.times.size]
    assert ks_2samp(first_p, first_r).pvalue > 1e-3


def test_sampler_marginal_total_variation():
    hp = generic_hprocess()
    paths = sample_paths_P(hp, 10_000, seed=4242)
    for t in (0.25, 0.75):
        emp = empirical_marginal(paths, t)
        assert 0.5 * np.abs(emp - marginal(hp, t)).sum() <= 0.03


def test_sampler_respects_terminal_pinning():
    model = two_state_model()
    grid = TimeGrid(100)
    hp = build_h_process(model, InitialWeight(np.ones(2)),
                         TerminalWeight(np.array([1.0, 0.0])),
                         PotentialField.constant(0.0, grid, 2), grid)
    paths = sample_paths_P(hp, 2000, seed=5)
    assert all(p.state_at(1.0) == 0 for p in paths)


def test_thinning_rate_within_cell_endpoint_bound():
    """Inside a cell the exit rate stays below its larger endpoint rate.

    The thinning sampler draws against endpoint bounds without checking the
    rate it accepts, so this is the property that makes it exact.
    """
    grid = TimeGrid(100)
    pinned = build_h_process(two_state_model(), InitialWeight(np.ones(2)),
                             TerminalWeight(np.array([1.0, 0.0])),
                             PotentialField.constant(0.0, grid, 2), grid)
    for hp in (pinned, generic_hprocess()):
        ctx = h_transform._ThinningContext(hp)
        N = ctx.N
        with np.errstate(divide="ignore", invalid="ignore"):
            node_rates = np.where(ctx.g > 0, ctx.numer / ctx.g, np.inf)
        top = np.maximum(node_rates[:-1], node_rates[1:])
        checked = 0
        for k, x in np.argwhere(np.isfinite(top)):
            for a in (0.1, 0.25, 0.5, 0.75, 0.9):
                assert ctx.rate((k + a) / N, x) <= top[k, x] * (1 + 1e-12)
                checked += 1
        assert checked >= 5 * N * hp.n - 5


def test_sampler_determinism_and_seed_records():
    hp = generic_hprocess()
    [a] = sample_paths_P(hp, 1, 7)
    [b] = sample_paths_P(hp, 1, 7)
    assert a.x0 == b.x0
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.states, b.states)
    assert a.seed == (7, 0)
    batch1 = sample_paths_P(hp, 5, seed=11)
    batch2 = sample_paths_P(hp, 5, seed=11)
    for i, (p, q) in enumerate(zip(batch1, batch2)):
        np.testing.assert_array_equal(p.times, q.times)
        assert p.seed == (11, i)
    with pytest.raises(DegenerateInputError):
        sample_paths_P(hp, 0, seed=1)


def test_entropy_invariant_under_weight_rescaling():
    """Scaling f0 by a constant is absorbed by c and changes nothing."""
    model = five_state_model()
    grid = TimeGrid(100)
    V = wavy_potential(model, grid)
    gamma1 = TerminalWeight(np.array([0.2, 0.5, 1.0, 0.3, 0.8]))
    hp1 = build_h_process(model, InitialWeight(np.ones(5)), gamma1, V, grid)
    hp2 = build_h_process(model, InitialWeight(np.full(5, 3.7)), gamma1, V, grid)
    assert hp2.c == pytest.approx(3.7 * hp1.c, rel=1e-12)
    np.testing.assert_allclose(marginal(hp2, 0.5), marginal(hp1, 0.5),
                               rtol=1e-12)
    assert relative_entropy(hp2) == pytest.approx(relative_entropy(hp1),
                                                  rel=1e-10)
