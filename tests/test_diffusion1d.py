"""Crank-Nicolson transform machinery and reflected Euler-Maruyama sampling.

Closed-form anchors: flat solutions are exact, constant potentials reduce to
the scalar Pade factor with its c^3 dt^2 / 12 bias, and a Gaussian terminal
weight under zero potential has an explicit backward function and bridge
drift. Sampling checks use binned total variation against the solved
marginals with thresholds calibrated well above the Monte Carlo floor.
"""

import collections
import hashlib
import importlib.machinery
import tracemalloc
import types

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from htlab import diffusion1d
from htlab.diffusion1d import (_DRIFT_BLOCK_ROWS, Diffusion1DModel,
                               _DriftField, _factored_solver,
                               _operator_bands, _reflect, _tridiag_mul,
                               build_diffusion_transform,
                               diffusion_hjb_residual,
                               empirical_vs_fk_marginal, sample_em_paths,
                               solve_f_pde, solve_g_pde)
from htlab.errors import (DegenerateInputError, ModelValidationError,
                          PositivityError)
from htlab.feynman_kac import derivative, log_g, potential_on_grid
from htlab.h_transform import marginal, relative_entropy
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
    # trapezoid masses of the reversing density e^{-2U}
    w = np.exp(-2.0 * model.U)
    w[[0, -1]] *= 0.5
    np.testing.assert_allclose(model.m_weights, w / w.sum(), rtol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo,hi", [
    (0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (np.nan, 1.0),
    (-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))],
    ids=["hi_inf", "lo_inf", "both_inf", "lo_nan", "width_overflows",
         "width_overflows_np"])
def test_model_window_must_be_finite(lo, hi):
    with pytest.raises(ModelValidationError) as info:
        Diffusion1DModel(lo, hi, 64, 0.0)
    assert info.value.reason == "bad_domain"


def test_potential_broadcasting():
    grid = TimeGrid(10)
    assert potential_on_grid(0.3, grid, 17).shape == (11, 17)
    vec = np.linspace(0, 1, 17)
    np.testing.assert_array_equal(potential_on_grid(vec, grid, 17)[7], vec)
    full = np.zeros((11, 17))
    assert potential_on_grid(full, grid, 17).shape == (11, 17)
    # scalars and node vectors are views along time, not tiled copies
    for V in (0.3, vec):
        Vg = potential_on_grid(V, grid, 17)
        assert Vg.strides[0] == 0
        assert not Vg.flags.writeable
    with pytest.raises(ModelValidationError):
        potential_on_grid(np.zeros(16), grid, 17)
    for bad in (np.inf, np.where(vec > 0.5, np.nan, vec)):
        with pytest.raises(ModelValidationError) as info:
            potential_on_grid(bad, grid, 17)
        assert info.value.reason == "nonfinite_potential"


@pytest.mark.parametrize("n", [17, 1025])
def test_tridiag_solve_matches_solve_banded(n):
    rng = np.random.default_rng(n)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    lower = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.0 + rng.uniform(0.0, 1.0, n)
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1] = diag
    ab[2, :-1] = lower
    rhs = rng.standard_normal(n)
    assert np.array_equal(_factored_solver(diag, upper, lower)(rhs),
                          solve_banded((1, 1), ab, rhs))
    with pytest.raises(DegenerateInputError) as info:
        _factored_solver(np.zeros(n), np.zeros(n - 1), np.zeros(n - 1))(rhs)
    assert info.value.reason == "cn_conditioning"


def test_backward_flat_solution_is_exact():
    model = quadratic_model()
    grid = TimeGrid(100)
    g, clipped = solve_g_pde(model, 0.0, np.ones(model.M + 1), grid)
    np.testing.assert_allclose(g, 1.0, atol=1e-12)
    assert clipped == 0


def test_backward_constant_potential_pade():
    """V = c decouples from space; the error is the scalar Pade bias."""
    model = flat_model()
    grid = TimeGrid(256)
    c = 1.0
    g = solve_g_pde(model, c, np.ones(model.M + 1), grid)[0]
    exact = np.exp(-c * (1.0 - grid.nodes))[:, None]
    assert np.max(np.abs(g - exact)) <= 2e-6


def test_backward_gaussian_closed_form():
    """Free heat flow from a Gaussian weight, checked in the bulk."""
    model = flat_model(M=512)
    grid = TimeGrid(512)
    eps = 0.5
    g, clipped = solve_g_pde(model, 0.0, gaussian_weight(model, eps), grid)
    s = eps ** 2 + 1.0 - grid.nodes[:, None]
    exact = eps / np.sqrt(s) * np.exp(-model.xs[None, :] ** 2 / (2 * s))
    win = np.abs(model.xs) <= 2.0
    rel = np.abs(g[:, win] - exact[:, win]) / exact[:, win]
    assert rel.max() <= 1e-3
    assert clipped == 0


def test_backward_second_order_convergence():
    """Quartering (dt, dx^2) cuts the bulk error by about four."""
    def max_rel(M, N):
        model = flat_model(M=M)
        grid = TimeGrid(N)
        eps = 0.5
        g = solve_g_pde(model, 0.0, gaussian_weight(model, eps), grid)[0]
        s = eps ** 2 + 1.0 - grid.nodes[:, None]
        exact = eps / np.sqrt(s) * np.exp(-model.xs[None, :] ** 2 / (2 * s))
        win = np.abs(model.xs) <= 2.0
        return np.max(np.abs(g[:, win] - exact[:, win])
                      / exact[:, win])

    ratio = max_rel(64, 64) / max_rel(128, 256)
    assert 3.0 <= ratio <= 5.0


def test_forward_flat_and_constant_potential():
    model = flat_model()
    grid = TimeGrid(256)
    f = solve_f_pde(model, 0.0, np.ones(model.M + 1), grid)[0]
    np.testing.assert_allclose(f, 1.0, atol=1e-12)
    c = 0.8
    f_c = solve_f_pde(model, c, np.ones(model.M + 1), grid)[0]
    exact = np.exp(-c * grid.nodes)[:, None]
    assert np.max(np.abs(f_c - exact)) <= 2e-6


def test_forward_backward_duality_is_exact():
    """The m-weighted pairing of f and g is constant to rounding."""
    model = quadratic_model()
    grid = TimeGrid(200)
    xs, ts = model.xs, grid.nodes
    V = 0.4 * np.sin(np.pi * ts)[:, None] + 0.2 * np.cos(xs)[None, :]
    f0 = 1.0 + 0.5 * np.cos(xs)
    gamma1 = np.exp(-xs ** 2)
    g = solve_g_pde(model, V, gamma1, grid)[0]
    f = solve_f_pde(model, V, f0, grid)[0]
    pairing = np.sum(f * g * model.m_weights[None, :], axis=1)
    np.testing.assert_allclose(pairing, pairing[0], rtol=1e-12)


def _gtsv(diag, upper, lower, rhs):
    x, info = dgtsv(lower, diag, upper, rhs)[3:]
    assert info == 0
    return x


def reference_sweeps(model, V, gamma1, f0, grid):
    """Per-step Crank-Nicolson sweeps for g and f, every band formed inside
    the time loop and every step solved by LAPACK gtsv: the reference for
    the solvers' hoisted loops and factored left-hand sides."""
    Vg = potential_on_grid(V, grid, model.M + 1)
    N, half = grid.N, 0.5 * grid.dt
    center, upper, lower = _operator_bands(model)
    hu, hl = half * upper, half * lower
    mw = model.m_weights
    g = np.empty((N + 1, model.M + 1))
    g[N] = gamma1
    g_clipped = 0
    for k in range(N - 1, -1, -1):
        rhs = _tridiag_mul(1.0 + half * (center - Vg[k + 1]), hu, hl, g[k + 1])
        x = _gtsv(1.0 - half * (center - Vg[k]), -hu, -hl, rhs)
        neg = x < 0.0
        g_clipped += int(neg.sum())
        g[k] = np.where(neg, 0.0, x)
    f = np.empty((N + 1, model.M + 1))
    f[0] = f0
    f_clipped = 0
    for k in range(N):
        z = _gtsv(1.0 - half * (center - Vg[k]), -hl, -hu, mw * f[k])
        x = _tridiag_mul(1.0 + half * (center - Vg[k + 1]), hl, hu, z) / mw
        neg = x < 0.0
        f_clipped += int(neg.sum())
        f[k + 1] = np.where(neg, 0.0, x)
    return g, g_clipped, f, f_clipped


def cn_potential(kind, xs, grid):
    """A scalar, a node vector, or an (N+1) x (M+1) field: one that changes
    in every time row, one that switches once at t = 1/2 (a node for even N)
    and one that differs from the node vector only in its last row."""
    ts = grid.nodes[:, None]
    vector = 0.2 + 0.1 * xs ** 2
    if kind == "switch":
        return np.where(ts < 0.5, vector, 0.5 + 0.3 * np.cos(xs))
    if kind == "last":
        V = np.tile(vector, (grid.N + 1, 1))
        V[-1] += 0.4 * np.sin(xs)
        return V
    return {"scalar": 0.3, "vector": vector,
            "field": 0.6 * np.sin(3.0 * ts + xs[None, :])
            + 0.4 * ts * xs[None, :] ** 2}[kind]


@pytest.mark.parametrize("steep,V_kind,N,width", [
    (False, "field", 200, 0.5), (False, "field", 20, 0.05),
    (False, "scalar", 200, 0.5), (False, "vector", 200, 0.5),
    (False, "scalar", 20, 0.05), (False, "vector", 20, 0.05),
    (True, "scalar", 200, 0.5), (True, "vector", 20, 0.05),
    (False, "switch", 200, 0.5), (False, "last", 20, 0.05),
], ids=["smooth", "clipping", "scalar", "vector", "scalar_clipping",
        "vector_clipping", "steep_scalar", "steep_vector_clipping",
        "switch_once", "last_row_clipping"])
def test_cn_sweeps_match_per_step_reference(steep, V_kind, N, width):
    """Both solvers equal the per-step gtsv loop bit for bit, clipping
    included, under an asymmetric U (or a steep one, whose systems need row
    interchanges) and a V that changes in every row, in some rows or in
    none."""
    lo, hi, M = -2.0, 2.0, (32 if steep else 64)
    xs = lo + (hi - lo) / M * np.arange(M + 1)
    U = 40.0 * xs ** 2 if steep else 5.0 * (xs - 0.3) ** 2 + 0.7 * xs ** 3
    model = Diffusion1DModel(lo, hi, M, U)
    grid = TimeGrid(N)
    V = cn_potential(V_kind, xs, grid)
    gamma1 = np.exp(-0.5 * ((xs - 1.0) / width) ** 2)
    f0 = np.exp(-0.5 * ((xs + 0.8) / width) ** 2)
    g_ref, g_clipped, f_ref, f_clipped = reference_sweeps(model, V, gamma1,
                                                          f0, grid)
    g, g_clips = solve_g_pde(model, V, gamma1, grid)
    f, f_clips = solve_f_pde(model, V, f0, grid)
    assert np.array_equal(g, g_ref)
    assert np.array_equal(f, f_ref)
    assert (g_clips, f_clips) == (g_clipped, f_clipped)
    if width < 0.1:
        assert g_clipped > 0 and f_clipped > 0
    if steep:
        half = 0.5 * grid.dt
        center, upper, lower = _operator_bands(model)
        diag = 1.0 - half * (center - potential_on_grid(V, grid, M + 1)[0])
        ipiv = dgttrf(-half * lower, diag, -half * upper)[4]
        assert np.any(ipiv != np.arange(1, M + 2))


def test_lapack_routines_are_scipy_linalg_lapacks():
    """Loaded after scipy.linalg, the extension's routines are the very
    objects scipy.linalg.lapack holds (the other order runs in a fresh
    interpreter in test_cli)."""
    loaded = diffusion1d._lapack.__wrapped__()
    assert loaded.dgtsv is dgtsv
    assert loaded.dgttrf is dgttrf
    assert loaded.dgttrs is dgttrs


def test_missing_lapack_extension_is_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".absent"])
    with pytest.raises(ImportError, match="_flapack in .*linalg"):
        diffusion1d._lapack.__wrapped__()


def test_cn_factors_once_per_run_of_equal_V_rows(monkeypatch):
    """Each sweep makes a gttrf per run of equal V rows among nodes
    0..N-1, whose left-hand sides it solves, and a gttrs per step, however
    V is given; no gtsv."""
    lapack = diffusion1d._lapack()
    calls = collections.Counter()

    def counted(name):
        routine = getattr(lapack, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)
        return wrapper

    names = ("dgtsv", "dgttrf", "dgttrs")
    counting = types.SimpleNamespace(**{n: counted(n) for n in names})
    monkeypatch.setattr(diffusion1d, "_lapack", lambda: counting)
    model = quadratic_model()
    grid = TimeGrid(50)
    xs, w = model.xs, gaussian_weight(model, 0.5)
    vector = cn_potential("vector", xs, grid)
    factors = [(cn_potential("scalar", xs, grid), 1), (vector, 1),
               (np.tile(vector, (grid.N + 1, 1)), 1),
               (cn_potential("last", xs, grid), 1),
               (cn_potential("switch", xs, grid), 2),
               (cn_potential("field", xs, grid), grid.N)]
    for V, gttrf in factors:
        for solve in (solve_g_pde, solve_f_pde):
            calls.clear()
            solve(model, V, w, grid)
            assert calls == {"dgttrf": gttrf, "dgttrs": grid.N}


def test_transform_marginals_are_probabilities():
    model = quadratic_model()
    grid = TimeGrid(200)
    tr = build_diffusion_transform(model, 0.1, 1.0 + 0.3 * np.sin(model.xs),
                                   gaussian_weight(model, 0.8), grid)
    for t in (0.0, 0.25, 0.6, 1.0):
        masses = marginal(tr, t)
        assert np.all(masses >= 0)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert tr.c > 0
    for values in (tr.f0, tr.gamma1, tr.V, tr.m, tr.fk.g, tr.fk.f,
                   tr.drift_rows(slice(None)), tr.drift_rows(7)):
        assert not values.flags.writeable


def test_relative_entropy_comes_from_the_jump_chain_function():
    """h_transform.relative_entropy reads a diffusion transform as it reads
    a jump chain's. A constant V changes no law, so H(P|R) = 0 up to the
    O(dt^2) Pade bias; a tilting V and gamma1 give H > 0, converging as the
    grid is refined."""
    model = quadratic_model(M=64)
    ones = np.ones(model.M + 1)
    tr = build_diffusion_transform(model, 0.3, ones, ones, TimeGrid(200))
    assert abs(relative_entropy(tr)) <= 1e-6

    def tilted(M, N):
        model = quadratic_model(M=M)
        xs = model.xs
        return relative_entropy(build_diffusion_transform(
            model, 0.3 * np.exp(-xs ** 2), np.ones(M + 1),
            np.exp(-(xs - 0.5) ** 2), TimeGrid(N)))

    h = [tilted(32, 100), tilted(64, 200), tilted(128, 400)]
    assert min(h) > 0.0
    assert abs(h[2] - h[1]) < abs(h[1] - h[0])


def test_flat_g_gives_reference_drift():
    model = quadratic_model()
    grid = TimeGrid(100)
    tr = build_diffusion_transform(model, 0.0, np.ones(model.M + 1),
                                   np.ones(model.M + 1), grid)
    np.testing.assert_allclose(log_g(tr.fk.g), 0.0, atol=1e-12)
    np.testing.assert_allclose(tr.drift_rows(slice(None)),
                               np.tile(-model.U_prime, (101, 1)), atol=1e-12)


def test_drift_is_gauge_invariant():
    model = flat_model(M=128)
    grid = TimeGrid(100)
    gamma1 = gaussian_weight(model, 0.7)
    tr1 = build_diffusion_transform(model, 0.0, np.ones(129), gamma1, grid)
    tr2 = build_diffusion_transform(model, 0.0, np.ones(129), 2.5 * gamma1,
                                    grid)
    np.testing.assert_allclose(log_g(tr2.fk.g) - log_g(tr1.fk.g),
                               np.log(2.5), atol=1e-10)
    np.testing.assert_allclose(tr2.drift_rows(slice(None)),
                               tr1.drift_rows(slice(None)), atol=1e-9)


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
    err = np.abs(tr.drift_rows(tw)[:, win] - exact[np.ix_(tw, win)])
    assert err.max() / np.abs(exact[np.ix_(tw, win)]).max() <= 1e-2


def test_masked_psi_propagates_and_blocks_sampling():
    model = flat_model(M=64)
    grid = TimeGrid(100)
    gamma1 = np.where(model.xs >= 0.0, gaussian_weight(model, 0.8), 0.0)
    tr = build_diffusion_transform(model, 0.0, np.ones(65), gamma1, grid)
    assert np.isnan(log_g(tr.fk.g)[-1, 0])
    assert np.isnan(tr.drift_rows(-1)[0])
    assert np.isfinite(log_g(tr.fk.g)[:-1]).all()
    # off-grid final step blends into the masked terminal row
    with pytest.raises(PositivityError):
        sample_em_paths(model, 4, seed=3, steps=101,
                        drift=tr.drift_rows(slice(None)), x0=-1.5)


@pytest.mark.parametrize("masked", [False, True])
def test_drift_is_the_derivative_of_log_g(masked):
    """The drift is -U' plus the shared stencil applied to log g, bit for
    bit, NaN where that stencil reads a node with g = 0."""
    model = quadratic_model(M=64)
    gamma1 = gaussian_weight(model, 0.8)
    if masked:
        gamma1 = np.where(model.xs >= 0.0, gamma1, 0.0)
    tr = build_diffusion_transform(model, 0.1, np.ones(65), gamma1,
                                   TimeGrid(150))
    full = derivative(log_g(tr.fk.g), model.dx, -1) - model.U_prime
    assert np.isnan(full).any() == masked
    B = _DRIFT_BLOCK_ROWS
    for rows in (slice(None), slice(0, B + 1), slice(B, 2 * B + 1),
                 slice(2 * B, 3 * B + 1), slice(B - 3, B + 4), slice(-7, None),
                 [0, B - 1, B, 150], B, 150):
        drift = tr.drift_rows(rows)
        assert not drift.flags.writeable
        assert_same_bits(drift, full[rows])


def test_hjb_residual_exact_and_pade():
    model = quadratic_model()
    grid = TimeGrid(512)
    tr = build_diffusion_transform(model, 0.0, np.ones(129), np.ones(129),
                                   grid)
    res0 = diffusion_hjb_residual(tr.fk.g, model, 0.0, grid)
    assert np.max(np.abs(res0)) <= 1e-12
    c = 0.05
    tr_c = build_diffusion_transform(model, c, np.ones(129), np.ones(129),
                                     grid)
    res_c = diffusion_hjb_residual(tr_c.fk.g, model, c, grid)
    # psi is exactly linear in time, leaving only the c^3 dt^2 / 12 Pade bias
    assert np.max(np.abs(res_c)) <= 1e-10


def test_hjb_residual_gaussian_scales_with_dx():
    def interior_max(M):
        model = flat_model(M=M)
        grid = TimeGrid(512)
        tr = build_diffusion_transform(model, 0.0, np.ones(M + 1),
                                       gaussian_weight(model, 0.5), grid)
        res = diffusion_hjb_residual(tr.fk.g, model, 0.0, grid)
        win = np.abs(model.xs) <= 2.0
        return float(np.nanmax(np.abs(res[:, win])))

    coarse, fine = interior_max(256), interior_max(512)
    assert fine <= 0.05
    assert coarse / fine >= 2.5


def assert_same_bits(a, b):
    """Equal arrays, NaN where NaN, and the same sign on every zero."""
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a) | np.isnan(a),
                                  np.signbit(b) | np.isnan(b))


def interp_probe(model, rng):
    """Random points around the window, every node, and the ends."""
    xs, width = model.xs, model.x_max - model.x_min
    return np.concatenate([
        rng.uniform(model.x_min - 0.5 * width, model.x_max + 0.5 * width,
                    2000),
        xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
        [model.x_min, model.x_max, xs[-1], np.inf, -np.inf, np.nan,
         -1e308, 1e308]])


@pytest.mark.parametrize("M", [16, 17, 1024])
@pytest.mark.parametrize("lo,hi", [(-1.0, 0.3), (-2.0, 2.0), (0.1, 0.7)])
def test_interp_kernel_matches_np_interp(M, lo, hi):
    model = Diffusion1DModel(lo, hi, M, 0.0)
    field = _DriftField(model, None)
    rng = np.random.default_rng(M)
    x = interp_probe(model, rng)
    for trial in range(20):
        row = rng.standard_normal(M + 1) * 10.0 ** rng.uniform(-3, 3)
        if trial % 4 == 1:
            row[rng.integers(0, M + 1, 3)] = np.nan
        if trial % 4 == 2:
            row[rng.integers(0, M + 1, 3)] = [np.inf, -np.inf, np.inf]
        if trial % 4 == 3:
            row[rng.integers(0, M + 1, 6)] = [0.0, -0.0] * 3
        assert_same_bits(field._interp(x, row, field._slopes(row)),
                         np.interp(x, model.xs, row))


def test_interp_kernel_node_hits_and_ends():
    model = Diffusion1DModel(-1.0, 0.3, 16, 0.0)
    assert model.xs[-1] != model.x_max
    model = Diffusion1DModel(-1.0, 0.3, 17, 0.0)
    field = _DriftField(model, None)
    xs = model.xs
    row = np.linspace(0.0, 4.0, 18)
    row[5] = np.nan
    got = field._interp(xs, row, field._slopes(row))
    # a node hit returns the node value even when its right neighbour is NaN
    assert got[4] == row[4]
    assert np.isnan(got[5])
    assert_same_bits(got, np.interp(xs, xs, row))
    ends = np.array([model.x_min, model.x_max, xs[-1], -5.0, 5.0])
    np.testing.assert_array_equal(
        field._interp(ends, row, field._slopes(row)),
        [row[0], row[-1], row[-1], row[0], row[-1]])


def test_drift_field_branches_match_np_interp():
    model = quadratic_model(M=64)
    rng = np.random.default_rng(3)
    x = interp_probe(model, rng)[:-5]  # finite points only
    static = _DriftField(model, None)
    for t in (0.0, 0.37, 1.0):
        assert_same_bits(static(t, x), np.interp(x, model.xs, -model.U_prime))
    # N is no multiple of the block rows, and the times leave and reenter
    # blocks and blend rows B - 1 and B, the last row of a block and the
    # first of the next
    grid = TimeGrid(150)
    drift = rng.standard_normal((151, 65))
    blended = _DriftField(model, drift.__getitem__, grid.N)
    B = _DRIFT_BLOCK_ROWS
    for t in (0.0, 0.013, 0.5, (B - 0.5) / 150, 0.731, 1.0, 0.42,
              (2 * B + 0.3) / 150, B / 150):
        s = t * grid.N
        k = min(int(np.floor(s)), grid.N - 1)
        a = s - k
        row = drift[k] if a == 0.0 else \
            (1.0 - a) * drift[k] + a * drift[k + 1]
        assert_same_bits(blended(t, x), np.interp(x, model.xs, row))


def test_reflect_matches_full_fold():
    def fold(x, lo, hi):
        width = hi - lo
        y = np.mod(x - lo, 2.0 * width)
        return lo + np.where(y > width, 2.0 * width - y, y)

    rng = np.random.default_rng(17)
    for _ in range(200):
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + 10.0 ** rng.uniform(-3, 1)
        width = hi - lo
        x = np.concatenate([rng.uniform(lo - width, hi + width, 500),
                            [lo, hi, lo - width, hi + width]])
        assert_same_bits(_reflect(x.copy(), lo, hi), fold(x, lo, hi))
    x = np.array([0.0, -0.0, -1.0, 1.0, -3.0, 3.0, 1.5, -2.5])
    assert_same_bits(_reflect(x.copy(), -1.0, 1.0), fold(x, -1.0, 1.0))


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


@pytest.mark.parametrize("inputs,reason", [
    (dict(x0=np.nan), "bad_initial"),
    (dict(x0=5.0), "bad_initial"),
    (dict(x0=np.array([0.0, -2.5])), "bad_initial"),
    (dict(x0=np.zeros(3)), "dimension_mismatch"),
    (dict(x0=np.zeros((2, 1))), "dimension_mismatch"),
    (dict(initial_masses=np.ones(10)), "dimension_mismatch"),
    (dict(initial_masses=np.full(33, np.nan)), "bad_initial"),
    (dict(x0=0.0, drift=np.zeros((1, 33))), "dimension_mismatch"),
    (dict(x0=0.0, drift=np.zeros((101, 32))), "dimension_mismatch"),
    (dict(x0=0.0, drift=np.zeros(33)), "dimension_mismatch"),
    (dict(x0=0.0, drift=np.full((101, 33), "abc")), "dimension_mismatch"),
    (dict(x0=0.0, drift=[[0.0] * 33] * 100 + [[0.0] * 32]),
     "dimension_mismatch"),
], ids=["x0_nan", "x0_outside", "x0_one_outside", "x0_length", "x0_2d",
        "masses_length", "masses_nan", "drift_one_row", "drift_width",
        "drift_1d", "drift_strings", "drift_ragged"])
def test_em_checks_its_inputs_before_drawing(inputs, reason):
    model = flat_model(M=32, lo=-2.0, hi=2.0)
    with pytest.raises(ModelValidationError) as info:
        sample_em_paths(model, 2, seed=1, steps=100, **inputs)
    assert info.value.reason == reason


def test_em_reads_a_nested_list_drift_as_its_array():
    model = flat_model(M=32, lo=-2.0, hi=2.0)
    rows = [[0.1 * np.sin(0.3 * k + 0.2 * j) for j in range(33)]
            for k in range(101)]
    x0 = np.linspace(-1.5, 1.5, 4)
    assert np.array_equal(
        sample_em_paths(model, 4, 1, 100, drift=rows, x0=x0),
        sample_em_paths(model, 4, 1, 100, drift=np.array(rows), x0=x0))


def test_em_starts_on_the_window_edges():
    model = flat_model(M=32, lo=-2.0, hi=2.0)
    paths = sample_em_paths(model, 2, seed=1, steps=100,
                            x0=np.array([-2.0, 2.0]))
    np.testing.assert_array_equal(paths[:, 0], [-2.0, 2.0])
    masses = np.zeros(33)
    masses[-1] = 1.0
    paths = sample_em_paths(model, 3, seed=1, steps=100,
                            initial_masses=masses)
    np.testing.assert_array_equal(paths[:, 0], 2.0)


def test_em_static_drift_stream_is_pinned():
    """Reference-drift paths are fixed by seed, down to the last bit."""
    paths = sample_em_paths(quadratic_model(), 200, seed=3, steps=400, x0=0.3)
    assert paths.shape == (200, 401)
    assert hashlib.sha256(paths.astype("<f8").tobytes()).hexdigest() == \
        "f6efa06c3aa302f82d7d8d2641093d706efb4da2aeea42ecc4b5c095a2ccf39a"


@pytest.mark.parametrize("n_paths", [0, -5])
def test_em_rejects_empty_requests(n_paths):
    model = quadratic_model()
    with pytest.raises(DegenerateInputError) as info:
        sample_em_paths(model, n_paths, seed=1, steps=200, x0=0.0)
    assert info.value.reason == "empty_request"
    tr = build_diffusion_transform(model, 0.0, np.ones(129), np.ones(129),
                                   TimeGrid(100))
    with pytest.raises(DegenerateInputError) as info:
        empirical_vs_fk_marginal(tr, 0.5, n_paths, seed=1)
    assert info.value.reason == "empty_request"


def test_em_escape_guard():
    model = quadratic_model()
    runaway = np.full((101, model.M + 1), 1e4)
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


def test_empirical_marginal_stream_is_pinned():
    """The sampler's random stream, start draw included, is fixed by seed."""
    model = quadratic_model()
    tr = build_diffusion_transform(model, 0.1, 1.0 + 0.3 * np.sin(model.xs),
                                   gaussian_weight(model, 0.8), TimeGrid(200))
    assert empirical_vs_fk_marginal(tr, 0.0, 2000, seed=4) == \
        0.06950133994521619
    assert empirical_vs_fk_marginal(tr, 0.5, 2000, seed=4) == \
        0.06215240810393192


def binned_tv(tr, positions, t):
    """The total variation empirical_vs_fk_marginal reports for positions
    at time t."""
    model = tr.model
    bins = min(64, model.M)
    edges = np.linspace(model.x_min, model.x_max, bins + 1)
    empirical = np.histogram(positions, bins=edges)[0] / len(positions)
    which = np.clip(np.searchsorted(edges, model.xs, side="right") - 1,
                    0, bins - 1)
    target = np.bincount(which, weights=marginal(tr, t), minlength=bins)
    return 0.5 * float(np.abs(empirical - target / target.sum()).sum())


def test_empirical_marginal_reads_the_blocks_as_the_full_drift():
    """Driven from the transform's drift blocks, the sampler takes the same
    paths as sample_em_paths given the full drift array. N = 150 is no
    multiple of the block rows, and t = 0.5 steps through two blocks."""
    model = quadratic_model()
    grid = TimeGrid(150)
    tr = build_diffusion_transform(model, 0.1, 1.0 + 0.3 * np.sin(model.xs),
                                   gaussian_weight(model, 0.8), grid)
    paths = sample_em_paths(model, 500, 9, grid.N,
                            drift=tr.drift_rows(slice(None)),
                            initial_masses=marginal(tr, 0.0))
    for t in (0.5, 1.0):
        k = grid.node_index(t)
        assert k > _DRIFT_BLOCK_ROWS
        assert empirical_vs_fk_marginal(tr, t, 500, 9) == \
            binned_tv(tr, paths[:, k], t)


def test_em_blocked_drift_steps_as_the_full_field():
    """With steps != N the time blend of rows k and k + 1 runs across block
    edges; every step equals one taken with np.interp on the blend of the
    full drift array."""
    model = quadratic_model(M=64)
    grid = TimeGrid(150)
    tr = build_diffusion_transform(model, 0.1, np.ones(65),
                                   gaussian_weight(model, 0.8), grid)
    drift = tr.drift_rows(slice(None))
    steps, x0 = 211, np.linspace(-1.5, 1.5, 40)
    paths = sample_em_paths(model, 40, 4, steps, drift=drift, x0=x0)
    rng = np.random.default_rng(4)
    dt = 1.0 / steps
    x = x0
    for j in range(steps):
        s = j * dt * grid.N
        k = min(int(np.floor(s)), grid.N - 1)
        a = s - k
        row = drift[k] if a == 0.0 else \
            (1.0 - a) * drift[k] + a * drift[k + 1]
        x = x + np.interp(x, model.xs, row) * dt \
            + np.sqrt(dt) * rng.standard_normal(40)
        x = _reflect(x, model.x_min, model.x_max)
        assert_same_bits(paths[:, j + 1], x)


def test_sampled_transform_holds_no_drift_field():
    """Building a transform and sampling its marginal holds g and f, not a
    drift field or a log g of the same size (4 grids before the drift was
    formed a block of rows at a time)."""
    model = quadratic_model(M=256)
    grid = TimeGrid(1000)
    grid_bytes = (grid.N + 1) * (model.M + 1) * 8
    ones = np.ones(model.M + 1)
    tracemalloc.start()
    try:
        tr = build_diffusion_transform(model, 0.1, ones,
                                       gaussian_weight(model, 0.8), grid)
        empirical_vs_fk_marginal(tr, 0.5, 2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * grid_bytes


@pytest.mark.parametrize("M", [16, 32, 48])
@pytest.mark.parametrize("height", [0.0, 0.4])
def test_empirical_marginal_coarse_grid(M, height):
    """With fewer cells than bins, no bin is left without a node."""
    xs = np.linspace(-2.0, 2.0, M + 1)
    model = Diffusion1DModel(-2.0, 2.0, M,
                             height * np.exp(-xs ** 2 / (2 * 0.6 ** 2)))
    tr = build_diffusion_transform(model, 0.3, np.ones(M + 1),
                                   np.ones(M + 1), TimeGrid(50))
    assert empirical_vs_fk_marginal(tr, 0.5, 20_000, seed=6) <= 0.1


def test_empirical_marginal_bridge_transform():
    """The pinned transform still matches its marginal deep into the squeeze."""
    model = flat_model(M=256)
    grid = TimeGrid(500)
    tr = build_diffusion_transform(model, 0.0, np.ones(257),
                                   gaussian_weight(model, 0.1), grid)
    assert empirical_vs_fk_marginal(tr, 0.9, 20_000, seed=5) <= 0.05
