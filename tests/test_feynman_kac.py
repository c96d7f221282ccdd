"""Backward/forward Feynman-Kac solves, propagators, and their invariants.

The independent oracles here: closed forms for constant potentials, a
Monte Carlo average of exp(-integral of V) over reference paths, and an
exhaustive sum over jump-count-limited path classes whose sojourn integrals
are divided differences of the exponential (computed via a bidiagonal
matrix exponential, not via the solver under test).
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (five_state_model, ring_kernel, two_state_model,
                      wavy_potential)
from htlab import feynman_kac
from htlab.diffusion1d import (Diffusion1DModel, build_diffusion_transform,
                               solve_f_pde, solve_g_pde)
from htlab.errors import (DegenerateInputError, HTLabError,
                          ModelValidationError)
from htlab.feynman_kac import (check_fk_generator, check_semigroup,
                               derivative, fk_propagator, log_g,
                               potential_on_grid, positivity_report,
                               repeated_rows, rk4_matrix_step, solve_f,
                               solve_fk, solve_g)
from htlab.h_transform import build_h_process, relative_entropy
from htlab.markov_core import (StateSpace, TimeGrid, build_metropolis,
                               sample_paths_R, transition_matrix)


def test_propagator_zero_potential_matches_transition_matrix():
    model = two_state_model()
    grid = TimeGrid(200)
    prop = fk_propagator(model, 0.0, grid)
    np.testing.assert_allclose(prop.matrix(0, 200), transition_matrix(model, 1.0),
                               atol=1e-8)
    np.testing.assert_array_equal(prop.matrix(40, 40), np.eye(2))


def test_propagator_constant_potential_shift():
    """V = c commutes with everything: Phi(s,t) = e^{-c(t-s)} e^{Q(t-s)}."""
    model = two_state_model()
    grid = TimeGrid(400)
    c = 0.8
    prop = fk_propagator(model, c, grid)
    for k, l in ((0, 400), (100, 300), (0, 40)):
        dt = (l - k) / 400
        expected = np.exp(-c * dt) * transition_matrix(model, dt)
        np.testing.assert_allclose(prop.matrix(k, l), expected, atol=1e-9)


def _wavy(model, grid):
    ts = grid.nodes
    xs = np.arange(model.n, dtype=float)
    return 0.4 * np.sin(2 * np.pi * ts)[:, None] + 0.3 * xs[None, :]


def test_semigroup_residual():
    model = two_state_model()
    grid = TimeGrid(1000)
    prop = fk_propagator(model, _wavy(model, grid), grid)
    assert check_semigroup(prop, 0.0, 0.5, 1.0) <= 1e-8
    assert check_semigroup(prop, 0.3, 0.3, 0.9) == 0.0
    zero_prop = fk_propagator(model, 0.0, grid)
    assert check_semigroup(zero_prop, 0.0, 0.5, 1.0) <= 1e-10
    with pytest.raises(ModelValidationError):
        check_semigroup(prop, 0.0, 0.2503, 1.0)
    with pytest.raises(ModelValidationError):
        check_semigroup(prop, 0.5, 0.2, 1.0)


def test_semigroup_residual_carries_the_prefix_product():
    """Phi(s,u) carried on from Phi(s,t) is the same matmul sequence as
    Phi(s,u) formed from s, so the gap is the same to the bit."""
    model = five_state_model()
    grid = TimeGrid(60)
    prop = fk_propagator(model, _wavy(model, grid), grid)
    for s, t, u in ((0.0, 0.5, 1.0), (0.2, 0.2, 0.9), (0.1, 0.6, 0.6)):
        ks, kt, ku = (grid.node_index(x) for x in (s, t, u))
        gap = np.max(np.abs(prop.matrix(ks, ku) - prop.matrix(ks, kt)
                            @ prop.matrix(kt, ku)))
        assert check_semigroup(prop, s, t, u) == float(gap)


def test_propagator_reuses_the_factor_of_a_repeated_cell(monkeypatch):
    """On a piecewise-constant V every factor equals its own cell's RK4 step
    bit for bit, and RK4 runs once per run of cells with the same two rows."""
    model = five_state_model()
    grid = TimeGrid(12)
    levels = np.array([[0.1, 0.4, 0.0, 0.2, 0.3],
                       [0.5, 0.1, 0.2, 0.0, 0.1],
                       [0.2, 0.2, 0.6, 0.1, 0.0]])
    # V jumps at nodes 4 and 8: cells 0-2 have rows (a, a), 3 (a, b),
    # 4-6 (b, b), 7 (b, c) and 8-11 (c, c)
    rows = levels[np.array([0] * 4 + [1] * 4 + [2] * 5)]
    V = rows
    h, Q = grid.dt, model.Q
    cells = [(rows[k], rows[k + 1]) for k in range(grid.N)]
    expected = [rk4_matrix_step(Q - np.diag(v0), Q - np.diag(0.5 * (v0 + v2)),
                                Q - np.diag(v2), h) for v0, v2 in cells]
    calls = []

    def counted(*args):
        calls.append(args)
        return rk4_matrix_step(*args)

    monkeypatch.setattr(feynman_kac, "rk4_matrix_step", counted)
    prop = fk_propagator(model, V, grid)
    for k in range(grid.N):
        assert np.array_equal(prop.step[k], expected[k])
    distinct = {(v0.tobytes(), v2.tobytes()) for v0, v2 in cells}
    assert len(calls) == len(distinct) == 5


@pytest.mark.parametrize("V", ["scalar", "vector", "tiled", "changes"])
def test_repeated_rows_compare_across_blocks(V):
    """repeated_rows equals the whole-array row comparison on the grid view
    of V: a scalar or a vector (views constant in time, not compared), a
    dense field of equal rows, and one whose rows change at nodes 127-129,
    255-257 and in the last row (N = 300)."""
    grid, n = TimeGrid(300), 7
    if V in ("tiled", "changes"):
        changes = (127, 128, 129, 255, 256, 257, 300) if V == "changes" else ()
        V = np.tile(np.linspace(0.0, 1.0, n), (grid.N + 1, 1))
        for k in changes:
            V[k:, k % n] += 0.5
    else:
        V = 0.3 if V == "scalar" else np.linspace(0.0, 1.0, n)
    vals = potential_on_grid(V, grid, n)
    same = repeated_rows(vals)
    assert same == (vals[1:] == vals[:-1]).all(axis=1).tolist()
    assert len(same) == grid.N


def test_propagator_entry_bounds():
    """Entries stay nonnegative with row sums at most e^{lo (t-s)}."""
    model = two_state_model()
    grid = TimeGrid(100)
    lo = 0.5
    ts = grid.nodes
    V = -lo * np.sin(np.pi * ts)[:, None] * np.ones((1, 2))
    prop = fk_propagator(model, V, grid)
    for k, l in ((0, 100), (20, 70)):
        M = prop.matrix(k, l)
        assert np.all(M >= -1e-15)
        assert np.max(M.sum(axis=1)) <= np.exp(lo * (l - k) / 100) + 1e-10


def test_solve_g_trivial_cases():
    model = two_state_model()
    grid = TimeGrid(100)
    ones = np.ones(2)
    g0 = solve_g(model, 0.0, ones, grid)
    np.testing.assert_allclose(g0, 1.0, atol=1e-14)
    g1 = solve_g(model, 1.0, ones, grid)
    expected = np.exp(-(1.0 - grid.nodes))[:, None] * np.ones((1, 2))
    np.testing.assert_allclose(g1, expected, atol=1e-9)
    assert g1[0, 0] == pytest.approx(0.367879, abs=1e-6)


def test_solve_g_monte_carlo_oracle():
    """g(0,x) = E[exp(-occupation of state 1) gamma(X_1)] along reference paths."""
    model = two_state_model()
    grid = TimeGrid(100)
    V = np.array([0.0, 1.0])
    g = solve_g(model, V, np.ones(2), grid)
    n_paths = 30_000
    for x0 in (0, 1):
        paths = sample_paths_R(model, n_paths, seed=90 + x0, x0=x0)
        samples = np.empty(n_paths)
        for i, p in enumerate(paths):
            knots = np.concatenate(([0.0], p.times, [1.0]))
            occupied = np.concatenate(([p.x0], p.states))
            samples[i] = np.exp(-np.diff(knots)[occupied == 1].sum())
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
    g = solve_g(model, v_states, gamma1, grid)
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
    ones = np.ones(2)
    f0 = solve_f(model, 0.0, ones, grid)
    np.testing.assert_allclose(f0, 1.0, atol=1e-12)
    c = 0.7
    fc = solve_f(model, c, ones, grid)
    expected = np.exp(-c * grid.nodes)[:, None] * np.ones((1, 2))
    np.testing.assert_allclose(fc, expected, atol=1e-10)


def test_fg_duality():
    """The m-weighted pairing of f and g is conserved across the grid."""
    model = two_state_model()
    grid = TimeGrid(150)
    V = _wavy(model, grid)
    g, f = solve_fk(model, V, np.array([0.5, 1.5]), np.array([1.0, 0.3]), grid)
    pairing = np.sum(f * g * model.m[None, :], axis=1)
    np.testing.assert_allclose(pairing, pairing[0], rtol=1e-12)


def test_g_against_propagator_composition():
    """The vector sweep agrees with products of the dense RK4 factors."""
    model = two_state_model()
    grid = TimeGrid(100)
    V = _wavy(model, grid)
    g, _ = solve_fk(model, V, np.ones(2), np.array([0.2, 1.0]), grid)
    prop = fk_propagator(model, V, grid)
    for k, l in ((0, 100), (30, 80)):
        np.testing.assert_allclose(g[k], prop.matrix(k, l) @ g[l],
                                   rtol=1e-12)


def test_f_against_propagator_composition():
    """f(t_l) = m f0 Phi(0, t_l) / m with the dense factors as reference."""
    model = five_state_model()
    grid = TimeGrid(100)
    V = wavy_potential(model, grid)
    f0 = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
    f = solve_f(model, V, f0, grid)
    prop = fk_propagator(model, V, grid)
    np.testing.assert_array_equal(f[0], f0)
    for l in (1, 37, 100):
        np.testing.assert_allclose(
            f[l], (model.m * f0) @ prop.matrix(0, l) / model.m, rtol=1e-12)


def _stage_sweep(A, v_rows, x0, h):
    """The RK4 stages on every cell: the sweep before runs of equal V rows
    were stepped by one factor."""
    def rate(v, y):
        return A @ y - v * y

    x = np.empty(v_rows.shape)
    x[0] = x0
    for k in range(len(v_rows) - 1):
        v0, v2 = v_rows[k], v_rows[k + 1]
        v1, xk = 0.5 * (v0 + v2), x[k]
        k1 = rate(v0, xk)
        k2 = rate(v1, xk + 0.5 * h * k1)
        k3 = rate(v1, xk + 0.5 * h * k2)
        k4 = rate(v2, xk + h * k3)
        x[k + 1] = xk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _stage_g(model, V, gamma1, grid):
    V = potential_on_grid(V, grid, model.n)
    return np.maximum(_stage_sweep(model.Q, V[::-1], gamma1, grid.dt)[::-1],
                      0.0)


def _stage_f(model, V, f0, grid):
    V = potential_on_grid(V, grid, model.n)
    f = _stage_sweep(model.Q.T, V, model.m * f0, grid.dt) / model.m
    f[0] = f0
    return np.maximum(f, 0.0)


def _switch_once(model, grid):
    """V rows a up to node N/2 - 1 and b from N/2 on: runs of N/2 - 1 and
    N/2 cells with equal rows, and one cell between them."""
    rows = np.where(grid.nodes[:, None] < 0.5, 0.3,
                    np.linspace(0.1, 0.6, model.n)[None, :])
    assert repeated_rows(potential_on_grid(rows, grid, model.n)).count(
        False) == 1
    return rows


@pytest.mark.parametrize("kind, N, factors", [
    ("constant", 40, 1), ("switch", 40, 2), ("every row", 40, 0),
    ("constant", 4, 0)], ids=["constant", "switch", "every-row", "short"])
def test_sweeps_step_runs_of_equal_rows_by_one_factor(monkeypatch, kind, N,
                                                      factors):
    """A run of at least n cells with equal V rows is stepped by one RK4
    factor, the same polynomial as the stages, so g and f agree with the
    stage loop to rounding; a V that changes in every row, and a run of
    fewer than n cells, keep the stages and their bits."""
    model = five_state_model()
    grid = TimeGrid(N)
    V = {"constant": 0.3, "switch": _switch_once(model, grid),
         "every row": wavy_potential(model, grid)}[kind]
    f0 = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
    gamma1 = np.array([0.2, 0.5, 1.0, 0.3, 0.8])
    calls = []

    def counted(*args):
        calls.append(args)
        return rk4_matrix_step(*args)

    monkeypatch.setattr(feynman_kac, "rk4_matrix_step", counted)
    for solve, stages, weight in ((solve_g, _stage_g, gamma1),
                                  (solve_f, _stage_f, f0)):
        calls.clear()
        got, want = solve(model, V, weight, grid), stages(model, V, weight,
                                                         grid)
        assert len(calls) == factors
        if factors:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        else:
            assert np.array_equal(got, want)


def test_propagator_of_a_constant_V_is_one_factor_viewed_N_times():
    """A V constant in time gives the materialized factors' bits and the
    same semigroup gap, from one read-only factor of row stride 0."""
    model = five_state_model()
    grid = TimeGrid(60)
    h, Q = grid.dt, model.Q
    vec = np.linspace(0.1, 0.6, model.n)
    for V in (0.3, vec, np.tile(vec, (grid.N + 1, 1))):
        v = potential_on_grid(V, grid, model.n)[0]
        old = np.empty((grid.N, model.n, model.n))
        old[:] = rk4_matrix_step(Q - np.diag(v), Q - np.diag(0.5 * (v + v)),
                                 Q - np.diag(v), h)
        prop = fk_propagator(model, V, grid)
        assert prop.step.strides[0] == 0 and not prop.step.flags.writeable
        assert np.array_equal(prop.step, old)
        materialized = feynman_kac.FKPropagator(grid=grid, step=old,
                                                half_step=prop.half_step)
        for s, t, u in ((0.0, 0.5, 1.0), (0.2, 0.3, 0.9)):
            assert (check_semigroup(prop, s, t, u)
                    == check_semigroup(materialized, s, t, u))


def test_g_upper_bounds():
    model = two_state_model()
    grid = TimeGrid(100)
    gamma1 = np.array([0.4, 1.3])
    ts = grid.nodes
    nonneg = 0.5 * (1 + np.sin(3 * ts))[:, None] * np.ones((1, 2))
    g = solve_g(model, nonneg, gamma1, grid)
    assert g.max() <= 1.3 + 1e-12
    lo = 0.8
    dipping = np.full(2, -lo)
    g_dip = solve_g(model, dipping, gamma1, grid)
    bound = np.exp(lo * (1.0 - ts))[:, None] * 1.3
    assert np.all(g_dip <= bound + 1e-10)


def test_fk_generator_residual_trivial():
    model = two_state_model()
    grid = TimeGrid(100)
    g = solve_g(model, 0.0, np.ones(2), grid)
    res = check_fk_generator(model, 0.0, g, grid)
    assert res.max_residual <= 1e-13


def test_fk_generator_residual_second_order():
    """The centered-difference residual drops by about 4x when N doubles."""
    model = two_state_model()

    def max_residual(N):
        grid = TimeGrid(N)
        V = _wavy(model, grid)
        g = solve_g(model, V, np.array([0.5, 1.0]), grid)
        return check_fk_generator(model, V, g, grid).max_residual

    r_coarse, r_fine = max_residual(250), max_residual(500)
    assert 3.3 <= r_coarse / r_fine <= 4.7


def test_fk_generator_residual_constant_potential():
    model = two_state_model()
    grid = TimeGrid(100)
    V = 1.0
    g = solve_g(model, V, np.ones(2), grid)
    res = check_fk_generator(model, V, g, grid)
    # stencil error of e^{-(1-t)}: dt^2/6 inside, dt^2/3 at the endpoints
    assert res.max_residual <= (grid.dt ** 2) / 2.0
    assert res.max_residual >= (grid.dt ** 2) / 20.0


def test_positivity_report():
    model = two_state_model()
    grid = TimeGrid(50)
    V = 0.0
    g_pos = solve_g(model, V, np.array([1.0, 0.5]), grid)
    assert positivity_report(g_pos, grid) == []
    g_zero = solve_g(model, V, np.array([1.0, 0.0]), grid)
    assert positivity_report(g_zero, grid) == [(1.0, 1)]


def test_potential_field_validation():
    """A full field is kept row for row as a read-only copy: later writes to
    the caller's array do not reach it."""
    grid = TimeGrid(10)
    field = grid.nodes[:, None] * np.array([1.0, 2.0])
    Vg = potential_on_grid(field, grid, 2)
    assert Vg[5, 1] == pytest.approx(1.0)
    assert not Vg.flags.writeable
    field[5, 1] = 7.0
    assert Vg[5, 1] == pytest.approx(1.0)
    # the read-only field view passed back is not copied again
    assert np.shares_memory(potential_on_grid(Vg, grid, 2), Vg)
    # nor does a write to a writable vector behind a broadcast view reach
    # the result
    vec = np.array([1.0, 2.0])
    Vg = potential_on_grid(np.broadcast_to(vec, (grid.N + 1, 2)), grid, 2)
    vec[1] = 7.0
    assert Vg[5, 1] == 2.0
    # a negative potential is a creation rate, not an error
    assert potential_on_grid(-1.0, grid, 2).min() == -1.0


def _jump_outputs(V, grid):
    """Every jump-solver output that reads V: both RK4 sweeps, the
    propagator, the backward-equation residual, V_cum and the entropy."""
    model = five_state_model()
    hp = build_h_process(model, np.linspace(0.5, 1.5, 5),
                         np.array([0.5, 1.0, 0.8, 0.3, 1.2]), V, grid)
    return (hp.g, hp.f_stored, hp.V, hp.V_cum, relative_entropy(hp),
            fk_propagator(model, V, grid).step,
            check_fk_generator(model, V, hp.g, grid).residual)


def _cn_outputs(V, grid):
    """g and f of both Crank-Nicolson sweeps and their clip counts."""
    model = Diffusion1DModel(-2.0, 2.0, 16, np.linspace(-1.0, 1.0, 17) ** 2)
    weight = np.exp(-np.linspace(-2.0, 2.0, 17) ** 2)
    return (*solve_g_pde(model, V, weight, grid),
            *solve_f_pde(model, V, weight, grid))


@pytest.mark.parametrize("outputs, n", [(_jump_outputs, 5), (_cn_outputs, 17)],
                         ids=["jump", "diffusion"])
def test_both_model_kinds_take_V_in_the_same_forms(outputs, n):
    """A scalar, a node vector and the constant full field they stand for
    give the same outputs to the bit; any other shape is a
    dimension_mismatch and a NaN a nonfinite_potential."""
    grid = TimeGrid(20)
    vec = np.linspace(-0.2, 0.6, n)
    for V in (0.3, vec):
        field = np.full((grid.N + 1, n), V)
        for got, want in zip(outputs(V, grid), outputs(field, grid)):
            assert np.array_equal(got, want)
    for bad, reason in [(np.zeros((1, grid.N + 1, n)), "dimension_mismatch"),
                        (np.zeros(n - 1), "dimension_mismatch"),
                        (np.zeros((grid.N, n)), "dimension_mismatch"),
                        (np.where(vec > 0.5, np.nan, vec),
                         "nonfinite_potential")]:
        with pytest.raises(ModelValidationError) as info:
            outputs(bad, grid)
        assert info.value.reason == reason


def _jump_weight_users(grid):
    """build(f0, gamma1), solve_f(f0) and solve_g(gamma1) on a jump chain."""
    model = five_state_model()
    return (lambda f0, gamma1: build_h_process(model, f0, gamma1, 0.1, grid),
            lambda f0: solve_f(model, 0.1, f0, grid),
            lambda gamma1: solve_g(model, 0.1, gamma1, grid))


def _cn_weight_users(grid):
    """The same three on a diffusion, with the Crank-Nicolson solvers."""
    model = Diffusion1DModel(-2.0, 2.0, 16, np.linspace(-1.0, 1.0, 17) ** 2)
    return (lambda f0, gamma1: build_diffusion_transform(model, 0.1, f0,
                                                         gamma1, grid),
            lambda f0: solve_f_pde(model, 0.1, f0, grid),
            lambda gamma1: solve_g_pde(model, 0.1, gamma1, grid))


@pytest.mark.parametrize("users, n, initial, terminal", [
    (_jump_weight_users, 5, "negative_weight", "negative_weight"),
    (_cn_weight_users, 17, "bad_initial", "bad_terminal")],
    ids=["jump", "diffusion"])
def test_both_model_kinds_check_weights_the_same_way(users, n, initial,
                                                     terminal):
    """A NaN, infinite or negative entry raises each kind's own token, an
    all-zero weight zero_weight and any shape but (n,) dimension_mismatch,
    from the builder and from the solver that reads the weight. Accepted
    weights are kept as read-only copies."""
    grid = TimeGrid(20)
    build, f_solver, g_solver = users(grid)
    ok = np.linspace(0.5, 1.5, n)
    for token, solve, place in [
            (initial, f_solver, lambda w: build(w, ok)),
            (terminal, g_solver, lambda w: build(ok, w))]:
        for bad, reason in [(np.where(ok > 1.2, np.nan, ok), token),
                            (np.where(ok > 1.2, np.inf, ok), token),
                            (np.where(ok > 1.2, -1.0, ok), token),
                            (np.zeros(n), "zero_weight"),
                            (np.ones(3), "dimension_mismatch"),
                            (np.ones((1, n)), "dimension_mismatch")]:
            for call in (solve, place):
                with pytest.raises(HTLabError) as info:
                    call(bad)
                assert info.value.reason == reason
                assert isinstance(info.value, DegenerateInputError
                                  if reason == "zero_weight"
                                  else ModelValidationError)
    f0, gamma1 = ok.copy(), ok.copy()
    hp = build(f0, gamma1)
    f0[:] = gamma1[:] = 7.0
    assert not hp.f0.flags.writeable and not hp.gamma1.flags.writeable
    np.testing.assert_allclose(hp.f0 * hp.c, ok, rtol=1e-15)
    assert np.array_equal(hp.gamma1, ok)


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


def test_log_g_is_nan_exactly_where_g_vanishes():
    """The exact log wherever g > 0, subnormal g included: no floor."""
    tiny = np.nextafter(0.0, 1.0)
    g = np.array([[0.0, tiny, 1e-310, 1e-300, 0.5],
                  [1.0, 2.0, 0.0, 3e-320, 7.0]])
    psi = log_g(g)
    np.testing.assert_array_equal(np.isnan(psi), g == 0)
    live = g > 0
    assert np.array_equal(psi[live], np.log(g[live]))
    assert psi[0, 1] == np.log(tiny) < np.log(1e-300)
    assert not psi.flags.writeable
    with pytest.raises(ValueError):
        psi[0, 0] = 1.0


def test_propagator_factors_are_not_copied():
    """One call holds its (N, n, n) factor array once, not a frozen copy too."""
    n = 30
    model = build_metropolis(StateSpace(tuple(f"s{i}" for i in range(n))),
                             ring_kernel(n), np.full(n, 1.0 / n), np.zeros(n))
    grid = TimeGrid(200)
    V = 0.2
    tracemalloc.start()
    try:
        prop = fk_propagator(model, V, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not prop.step.flags.writeable
    assert peak < 1.5 * prop.step.nbytes


def test_propagator_dimension_check():
    model = two_state_model()
    grid = TimeGrid(10)
    with pytest.raises(ModelValidationError):
        fk_propagator(model, np.zeros(3), grid)
    prop = fk_propagator(model, 0.0, grid)
    with pytest.raises(ModelValidationError):
        prop.matrix(5, 2)
