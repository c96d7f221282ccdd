"""Acceptance gate: eleven end-to-end checks with pinned tolerances.

Each test prints one "ACCEPTANCE n: PASS" or "ACCEPTANCE n: FAIL" line, so
running `pytest -s tests/test_acceptance.py` doubles as a sign-off sheet.
Every tolerance is written out literally at the call site; stochastic checks
use fixed seeds, so the verdicts are reproducible bit for bit.
"""

import time

import numpy as np
from scipy.special import xlogy

from conftest import (five_state_model, identity_hprocess, generic_hprocess,
                      path_bytes, ring_kernel, wavy_potential)
from htlab.bridge import build_bridge_problem, ipf_solve, static_entropy
from htlab.diffusion1d import (Diffusion1DModel, build_diffusion_transform,
                               sample_em_paths)
from htlab.feynman_kac import (check_fk_generator, fk_propagator,
                               check_semigroup, solve_g)
from htlab.generator_lab import (carre_du_champ, check_fk_stochastic_derivative,
                                 check_transformed_generator)
from htlab.h_transform import (build_h_process, forward_marginal_evolve,
                               marginal, path_density_ratio, relative_entropy,
                               sample_paths_P)
from htlab.hjb_check import discrete_hjb_residual
from htlab.markov_core import (StateSpace, TimeGrid, build_metropolis,
                               empirical_marginal, sample_paths_R)
from htlab.orlicz_diag import (WeightedMeasure, YoungFunction, holder_check,
                               luxemburg_norm)


def _verdict(n: int, checks: dict) -> None:
    ok = all(checks.values())
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")
    failed = [name for name, good in checks.items() if not good]
    assert not failed, f"failed sub-checks: {', '.join(failed)}"


def test_01_semigroup_composition():
    start = time.perf_counter()
    model = five_state_model()
    grid = TimeGrid(1000)
    prop = fk_propagator(model, wavy_potential(model, grid), grid)
    gap = check_semigroup(prop, 0.0, 0.5, 1.0)
    elapsed = time.perf_counter() - start
    _verdict(1, {"composition_gap": gap <= 1e-8,
                 "runtime": elapsed < 1.0})


def test_02_backward_equation_both_forms():
    model = five_state_model()
    gamma1 = np.array([0.2, 0.5, 1.0, 0.3, 0.8])

    def pde_max(N: int) -> float:
        grid = TimeGrid(N)
        V = wavy_potential(model, grid)
        g = solve_g(model, V, gamma1, grid)
        return check_fk_generator(model, V, g, grid).max_residual

    grid = TimeGrid(1000)
    V = wavy_potential(model, grid)
    g = solve_g(model, V, gamma1, grid)
    stochastic = max(
        check_fk_stochastic_derivative(model, V, g, grid, t).max_residual
        for t in (0.25, 0.5))
    coarse, fine = pde_max(1000), pde_max(2000)
    ratio = coarse / fine
    _verdict(2, {"pde_residual": coarse <= 1e-6,
                 "stochastic_residual": stochastic <= 1e-5,
                 "second_order_reduction": 3.0 <= ratio <= 5.0})


def test_03_transformed_generator_identity():
    start = time.perf_counter()
    space = StateSpace(("a", "b", "c", "d"))
    model = build_metropolis(space, ring_kernel(4, 0.3), np.full(4, 0.25),
                             np.array([0.0, 0.25, -0.15, 0.4]))
    grid = TimeGrid(400)
    indicator = np.zeros(4)
    indicator[1] = 0.6
    hp = build_h_process(model, np.ones(4), np.array([0.5, 1.0, 0.8, 0.3]),
                         indicator, grid)
    rng = np.random.default_rng(7)
    worst = max(
        check_transformed_generator(hp, rng.uniform(-1.0, 1.0, 4), t).max_residual
        for t in (0.25, 0.5, 0.75) for _ in range(5))
    elapsed = time.perf_counter() - start
    _verdict(3, {"generator_identity": worst <= 1e-5,
                 "runtime": elapsed < 5.0})


def test_04_forward_master_equation():
    hp = generic_hprocess(N=1000)
    evolved = forward_marginal_evolve(hp)
    product = hp.fk.f * hp.fk.g * hp.model.m[None, :]
    gap = float(np.abs(evolved - product).sum(axis=1).max())
    _verdict(4, {"marginal_consistency": gap <= 1e-6})


def test_05_monte_carlo_law():
    start = time.perf_counter()
    hp = generic_hprocess(N=400)
    paths = sample_paths_P(hp, 100_000, seed=20260826)
    tv = 0.5 * float(np.abs(empirical_marginal(paths, 0.5)
                            - marginal(hp, 0.5)).sum())
    rerun = sample_paths_P(hp, 100_000, seed=20260826)
    identical = path_bytes(paths) == path_bytes(rerun)
    elapsed = time.perf_counter() - start
    _verdict(5, {"total_variation": tv <= 0.01,
                 "seed_reproducibility": identical,
                 "runtime": elapsed < 30.0})


def test_06_relative_entropy_estimate():
    hp = generic_hprocess(N=200)
    exact = relative_entropy(hp)
    paths = sample_paths_R(hp.model, 100_000, seed=314159)
    weights = np.array([path_density_ratio(hp, p, 0.0, 1.0) for p in paths])
    samples = xlogy(weights, weights)
    stderr = float(samples.std(ddof=1)) / np.sqrt(len(samples))
    identity_h = relative_entropy(identity_hprocess(five_state_model()))
    _verdict(6, {"importance_sampling": abs(samples.mean() - exact) <= 3 * stderr,
                 "identity_transform": abs(identity_h) <= 1e-12})


def test_07_discrete_hjb():
    model = five_state_model()
    grid = TimeGrid(4000)
    V = wavy_potential(model, grid)
    g = solve_g(model, V, np.array([0.2, 0.5, 1.0, 0.3, 0.8]), grid)
    res, _ = discrete_hjb_residual(g, model, V, grid)
    fk_res = check_fk_generator(model, V, g, grid).residual
    identity_gap = float(np.abs(np.abs(res.residual) * g - fk_res).max())
    masked = np.abs(res.residual)[g > 1e-6]
    _verdict(7, {"algebraic_identity": identity_gap <= 1e-12,
                 "hjb_residual": float(masked.max()) <= 1e-6})


def test_08_bridge_fitting():
    start = time.perf_counter()
    model = five_state_model()
    problem = build_bridge_problem(model,
                                   np.array([0.4, 0.1, 0.2, 0.1, 0.2]),
                                   np.array([0.1, 0.1, 0.1, 0.2, 0.5]))
    res = ipf_solve(problem, tol=1e-10, max_iter=500)
    history = np.array(res.error_history)
    monotone = bool(np.all(np.diff(history) <= 1e-15))

    space = StateSpace(("a", "b", "c"))
    small = build_metropolis(space, ring_kernel(3, 0.4), np.full(3, 1 / 3),
                             np.array([0.0, 0.3, -0.2]))
    small_problem = build_bridge_problem(small, np.array([0.5, 0.3, 0.2]),
                                         np.array([0.2, 0.2, 0.6]))
    small_res = ipf_solve(small_problem)
    fitted = static_entropy(small_problem, small_res.f0, small_res.gamma1)
    row = (25, 15, 10)  # marginal masses in units of 0.02
    col = (10, 10, 30)
    K = small_problem.K
    best = np.inf
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
    elapsed = time.perf_counter() - start
    _verdict(8, {"marginal_error": res.final_error <= 1e-10,
                 "iteration_budget": res.iterations <= 500,
                 "monotone_error": monotone,
                 "entropy_optimality": fitted <= best + 1e-3,
                 "runtime": elapsed < 10.0})


def test_09_diffusion_bridge_drift():
    eps, y0 = 0.05, 0.5
    model = Diffusion1DModel(-2.0, 3.0, 256, np.zeros(257))
    grid = TimeGrid(512)
    gamma1 = np.exp(-(model.xs - y0) ** 2 / (2 * eps ** 2))
    tr = build_diffusion_transform(model, 0.0, np.ones(257), gamma1, grid)

    ts = grid.nodes[:, None]
    exact = (y0 - model.xs[None, :]) / (1.0 - ts + eps ** 2)
    in_middle = np.abs(model.xs - 0.5 * (model.x_min + model.x_max)) \
        <= 0.25 * (model.x_max - model.x_min)
    region = (grid.nodes[:, None] <= 0.9) & in_middle[None, :]
    err = np.abs(tr.drift - exact)[region]
    rel = float(err.max()) / float(np.abs(exact[region]).max())

    out = sample_em_paths(model, 10_000, seed=606, steps=512, drift=tr.drift,
                          initial_masses=marginal(tr, 0.0))
    std_bound = 2 * eps + 2 * model.dx
    _verdict(9, {"drift_formula": rel <= 1e-2,
                 "terminal_spread": float(out[:, -1].std()) <= std_bound})


def test_10_carre_du_champ_forms():
    model = five_state_model()
    Q = model.Q
    rng = np.random.default_rng(42)
    worst = 0.0
    nonneg = True
    for _ in range(100):
        u = rng.uniform(-1.0, 1.0, model.n)
        v = rng.uniform(-1.0, 1.0, model.n)
        jump_form = carre_du_champ(model, u, v)
        product_rule = Q @ (u * v) - u * (Q @ v) - v * (Q @ u)
        worst = max(worst, float(np.abs(jump_form - product_rule).max()))
        nonneg = nonneg and bool(np.all(carre_du_champ(model, u, u) >= 0.0))
    _verdict(10, {"forms_agree": worst <= 1e-13,
                  "quadratic_nonnegative": nonneg})


def test_11_orlicz_norm_and_holder():
    m = WeightedMeasure(five_state_model().m)
    pairs = (YoungFunction("theta_exp"), YoungFunction("power", 3.0))
    rng = np.random.default_rng(99)
    unit_ok = True
    holder_ok = True
    for gammaY in pairs:
        for _ in range(100):
            u = rng.uniform(-1.0, 1.0, 5)
            v = rng.uniform(-1.0, 1.0, 5)
            for w, kind in ((u, gammaY), (v, gammaY.conjugate())):
                norm = luxemburg_norm(w, m, kind)
                mean = float(np.sum(m.weights * kind(np.abs(w) / norm)))
                unit_ok = unit_ok and abs(mean - 1.0) <= 1e-6
            holder_ok = holder_ok and holder_check(u, v, m, gammaY).satisfied
    _verdict(11, {"luxemburg_unit_property": unit_ok,
                  "holder_factor_two": holder_ok})
