"""Conjugate pair theta/theta_star and the discrete HJB residual of log g.

Closed forms anchor everything: theta(1) = e - 2, theta_star(-1) = 1, the
Fenchel-Young equality locus b = e^a - 1, an exactly linear-in-time psi for
constant potentials, and the algebraic identity residual * g = backward
Feynman-Kac residual in the exponential time form.
"""

import decimal
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from scipy.special import xlogy

from conftest import (chorded_ring_model, complete_graph_model,
                      five_state_model, generic_hprocess, ring_kernel,
                      two_state_model, wavy_potential)
from htlab.errors import ModelValidationError
from htlab.feynman_kac import (check_fk_generator, derivative, log_g,
                               potential_on_grid, solve_g)
from htlab.h_transform import build_h_process
from htlab.hjb_check import (_summarise, discrete_hjb_residual, theta,
                             theta_star)
from htlab.markov_core import (StateSpace, TimeGrid, build_metropolis,
                               sample_path_R)


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


def test_theta_star_small_arguments_match_decimal_reference():
    """Near b = 0, and on both sides of the series cut-off at |b| = 0.1,
    theta_star keeps its relative accuracy and stays >= 0."""
    bs = (1e-3, -1e-3, 1e-5, -1e-5, 1e-8, 1e-12, 1.0001e-3, 1.5e-3, -1.5e-3,
          5e-3, 0.0999, 0.1001, -0.0999, -0.1001)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = [float((Decimal(b) + 1) * (Decimal(b) + 1).ln() - Decimal(b))
                 for b in bs]
    for b, ref in zip(bs, exact):
        assert theta_star(b) >= 0.0
        assert theta_star(b) == pytest.approx(ref, rel=1e-14)
    np.testing.assert_allclose(theta_star(np.array(bs)), exact, rtol=1e-14)


def test_fenchel_young_inequality_and_equality():
    rng = np.random.default_rng(3)
    a = rng.uniform(-3.0, 3.0, size=200)
    b = rng.uniform(-1.0, 5.0, size=200)
    assert np.all(theta(a) + theta_star(b) - a * b >= -1e-12)
    for ai in np.linspace(-2.0, 2.0, 9):
        bi = np.expm1(ai)
        assert theta(ai) + theta_star(bi) == pytest.approx(
            ai * bi, abs=1e-12)


def test_residual_zero_for_trivial_transform():
    """V = 0 and unit terminal weight give g = 1 and an exactly zero residual."""
    model = two_state_model()
    grid = TimeGrid(50)
    V = 0.0
    g = solve_g(model, V, np.ones(2), grid)
    for res in discrete_hjb_residual(g, model, V, grid):
        assert res.max_residual == 0.0
        assert res.defined.all()


def test_residual_log_mode_exact_for_linear_psi():
    """psi = -c (1 - t) is linear in t, so the log stencil is exact."""
    model = two_state_model()
    grid = TimeGrid(100)
    c = 0.8
    V = c
    g_exact = np.exp(-c * (1.0 - grid.nodes))[:, None] * np.ones((1, 2))
    _, res = discrete_hjb_residual(g_exact, model, V, grid)
    assert res.max_residual <= 1e-12
    # the solver's g carries an O(dt^4) bias, still far below stencil error
    g_solved = solve_g(model, V, np.ones(2), grid)
    _, res_solved = discrete_hjb_residual(g_solved, model, V, grid)
    assert res_solved.max_residual <= 1e-9


def test_residual_exponential_mode_matches_backward_equation():
    """residual * g equals the backward-equation residual, pointwise."""
    hp = generic_hprocess()
    res, _ = discrete_hjb_residual(hp.fk.g, hp.model, hp.V, hp.grid)
    fk_res = check_fk_generator(hp.model, hp.V, hp.fk.g, hp.grid)
    np.testing.assert_allclose(np.abs(res.residual) * hp.fk.g,
                               fk_res.residual, atol=1e-12)
    assert res.self_check_max <= 1e-12


def test_residual_modes_differ_at_second_order():
    def mode_gap(N):
        hp = generic_hprocess(N=N)
        r_exp, r_log = discrete_hjb_residual(hp.fk.g, hp.model, hp.V, hp.grid)
        return np.max(np.abs(r_exp.residual - r_log.residual))

    ratio = mode_gap(100) / mode_gap(200)
    assert 2.5 <= ratio <= 6.0


def test_residual_masks_pinned_states():
    model = two_state_model()
    grid = TimeGrid(100)
    V = 0.0
    g = solve_g(model, V, np.array([1.0, 0.0]), grid)
    res_exp, res_log = discrete_hjb_residual(g, model, V, grid)
    np.testing.assert_array_equal(np.argwhere(~res_exp.defined),
                                  [[100, 0], [100, 1]])
    assert np.isnan(res_exp.residual[100]).all()
    assert np.isfinite(res_exp.residual[:100]).all()
    assert not res_log.defined[99, 1]
    assert np.count_nonzero(~res_log.defined) == 3
    assert "undefined_points=3" in res_log.report()


def test_residual_small_for_generic_transform():
    """Both forms shrink toward zero as the grid refines."""
    hp = generic_hprocess(N=400)
    for res in discrete_hjb_residual(hp.fk.g, hp.model, hp.V, hp.grid):
        assert res.max_residual <= 1e-4
        assert res.mean_residual <= res.max_residual


def test_residual_input_checks():
    model = five_state_model()
    grid = TimeGrid(20)
    V = 0.0
    g = solve_g(model, V, np.ones(5), grid)
    with pytest.raises(ModelValidationError):
        discrete_hjb_residual(g[:-1], model, V, grid)
    with pytest.raises(ModelValidationError):
        discrete_hjb_residual(g, model, np.zeros(4), grid)


def test_residual_detects_wrong_potential():
    """Feeding the wrong V leaves a residual of exactly the V mismatch."""
    model = two_state_model()
    grid = TimeGrid(100)
    V = 0.0
    g = solve_g(model, V, np.ones(2), grid)
    wrong = 0.3
    res, _ = discrete_hjb_residual(g, model, wrong, grid)
    assert res.max_residual == pytest.approx(0.3, abs=1e-12)


def test_log_form_takes_the_exact_log_below_1e_300():
    """V = 700 on a unit-rate 5-ring drives g(0) = e^{-700} below 1e-300.

    psi is then the exact log, so the log form keeps its stencil error
    (h V = 0.35 at N = 2000); a log floored at 1e-300 would flatten psi
    there and leave a residual of V itself.
    """
    n = 5
    model = build_metropolis(StateSpace(tuple(f"s{i}" for i in range(n))),
                             ring_kernel(n), np.full(n, 1.0 / n), np.zeros(n))
    grid = TimeGrid(2000)
    V = 700.0
    g = solve_g(model, V, np.ones(n), grid)
    assert 0.0 < g[0].max() < 1e-300
    _, res = discrete_hjb_residual(g, model, V, grid)
    assert res.defined.all()
    assert res.max_residual <= 0.2


def dense_hjb_residual(g, model, V, grid):
    """The residual evaluated on every pair (x, y), one time row at a time,
    with zero-rate pairs blanked: the reference for the edge-list form."""
    V = potential_on_grid(V, grid, model.n)
    psi = log_g(g)
    J = model.J.rates
    finite = np.isfinite(psi)
    bad_targets = (~finite).astype(float) @ (J.T > 0).astype(float)
    defined = finite & (bad_targets == 0)
    linear, theta_sum, gap = np.full((3, *g.shape), np.nan)
    for k in np.flatnonzero(defined.any(axis=1)):
        p = np.where(finite[k], psi[k], 0.0)
        dpsi = np.where(J > 0, p[None, :] - p[:, None], 0.0)
        linear[k] = (J * dpsi).sum(axis=1)
        theta_sum[k] = (J * theta(dpsi)).sum(axis=1)
        collapsed = (J * np.expm1(dpsi)).sum(axis=1)
        gap[k] = np.abs((linear[k] + theta_sum[k]) - collapsed)
    with np.errstate(divide="ignore", invalid="ignore"):
        dt_exp = derivative(g, grid.dt) / g
    dt_log = derivative(psi, grid.dt)
    log_defined = defined & np.isfinite(dt_log)
    return tuple(
        _summarise(dt_psi + linear + theta_sum - V, gap, mask)
        for dt_psi, mask in ((dt_exp, defined), (dt_log, log_defined)))


@pytest.mark.parametrize("build, gamma1", [
    (chorded_ring_model, [0.2, 0.5, 1.0, 0.3, 0.8, 0.6, 0.4]),
    (complete_graph_model, [0.2, 0.5, 1.0, 0.3]),
    (chorded_ring_model, [0.2, 0.5, 0.0, 0.3, 0.8, 0.6, 0.4]),
], ids=["chorded_ring", "complete_graph", "zero_gamma1"])
def test_edge_residual_matches_the_dense_rows_to_rounding(build, gamma1):
    """The sums over J's edges agree with the dense row sums, on unequal
    out-degrees, on a complete graph, and with masked points: the masks and
    NaN places exactly, the values to rounding (1e-13). N = 40 gives 41
    rows, so the last block of rows is short."""
    model = build()
    grid = TimeGrid(40)
    hp = build_h_process(model, np.ones(model.n), np.array(gamma1),
                         wavy_potential(model, grid), grid)
    new = discrete_hjb_residual(hp.fk.g, model, hp.V, grid)
    old = dense_hjb_residual(hp.fk.g, model, hp.V, grid)
    for a, b in zip(new, old):
        np.testing.assert_array_equal(a.defined, b.defined)
        np.testing.assert_array_equal(np.isnan(a.residual),
                                      np.isnan(b.residual))
        np.testing.assert_allclose(a.residual, b.residual, rtol=0.0,
                                   atol=1e-13)
        for name in ("max_residual", "mean_residual", "self_check_max"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-13
    if 0.0 in gamma1:
        assert not new[0].defined.all()


def test_edge_layers_form_no_n_by_n_scratch():
    """On a 400-state Metropolis ring the HJB residual stays below the size
    of one n x n float array, and the Gillespie sampler, for 200 paths,
    below a quarter of it: their work is O(edges). Each is called once to
    warm up; the peak of its second call is traced."""
    n = 400
    model = build_metropolis(StateSpace(tuple(f"s{i}" for i in range(n))),
                             ring_kernel(n), np.full(n, 1.0 / n),
                             0.5 * np.sin(np.arange(n) / 7.0))
    grid = TimeGrid(20)
    hp = build_h_process(model, np.ones(n), np.linspace(0.5, 1.5, n),
                         wavy_potential(model, grid), grid)
    dense = n * n * 8

    def peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: discrete_hjb_residual(hp.fk.g, model, hp.V,
                                              grid)) < dense
    assert peak(lambda: sample_path_R(model, np.arange(200), 5)) < dense / 4
