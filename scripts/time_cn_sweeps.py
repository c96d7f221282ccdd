"""Time the g and f sweeps of both model kinds with a V constant in time, a
V that switches once and a V that changes in every time row.

    python3 scripts/time_cn_sweeps.py

Imports htlab from the `src/` of the checkout holding this script. On a
jump chain (a Metropolis ring with chords to every 7th state, N = 200 time
cells) at n = 100 states, the `jump-dense` size, and at n = 400, it prints
the best of three wall times of `solve_g` and `solve_f` for each V; the V
that switches once does so at t = 1/2, so its two runs of equal rows have
N/2 - 1 and N/2 cells. It then builds a diffusion model at the `diffusion-cn` size,
M = 1024 nodes and N = 2000 time cells, and prints those of `solve_g_pde`
and `solve_f_pde` for each V, and for each V those of
`build_diffusion_transform` (both sweeps, with V checked once) and of
`DiffusionTransform.f_rows` on the mid-grid row that resumes the forward
sweep for the most steps (B - 1 from the stored row below N/2, for
B = `h_transform._BLOCK_ROWS`). Last it prints that of
`empirical_vs_fk_marginal` on the transform with the V constant in time:
Euler-Maruyama with 5,000 paths to t = 0.5, the `diffusion-cn` sampling.
Run it at two checkouts to compare their sweeps and samplers.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from htlab import diffusion1d, feynman_kac  # noqa: E402
from htlab.h_transform import _BLOCK_ROWS  # noqa: E402
from htlab.markov_core import (JumpKernel, StateSpace, TimeGrid,  # noqa: E402
                               build_metropolis)

M, N, REPEATS = 1024, 2000, 3
EM_PATHS, EM_T = 5000, 0.5
JUMP_SIZES, JUMP_N = (100, 400), 200


def _best(fn) -> float:
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _potentials(grid: TimeGrid, xs: np.ndarray):
    """(name, V) for the three kinds of V, on nodes xs."""
    ts = grid.nodes[:, None]
    return (("constant", 0.058),
            ("switch", np.where(ts < 0.5, 0.058,
                                0.05 + 0.1 * np.sin(3.0 + xs) ** 2)),
            ("varying", 0.05 + 0.1 * np.sin(3.0 * ts + xs) ** 2))


def _time_jump_sweeps(n: int) -> None:
    states = np.arange(n)
    rates = np.zeros((n, n))
    for step in (1, 7):
        rates[states, (states + step) % n] = 0.5
        rates[(states + step) % n, states] = 0.5
    xs = np.linspace(-2.0, 2.0, n)
    model = build_metropolis(StateSpace(tuple(f"s{i}" for i in states)),
                             JumpKernel(rates), np.full(n, 1.0 / n),
                             0.3 * np.sin(xs))
    grid = TimeGrid(JUMP_N)
    weight = np.exp(-0.5 * ((xs + 0.7) / 0.55) ** 2)
    for name, V in _potentials(grid, xs):
        for solve in (feynman_kac.solve_g, feynman_kac.solve_f):
            seconds = _best(lambda: solve(model, V, weight, grid))
            print(f"{solve.__name__} n={n} {name} {seconds:.4f} s", flush=True)


def main() -> int:
    for n in JUMP_SIZES:
        _time_jump_sweeps(n)
    xs = np.linspace(-2.0, 2.0, M + 1)
    model = diffusion1d.Diffusion1DModel(
        -2.0, 2.0, M, 0.26 * np.exp(-0.5 * ((xs + 0.12) / 0.46) ** 2))
    grid = TimeGrid(N)
    weight = np.exp(-0.5 * ((xs + 0.7) / 0.55) ** 2)
    for name, V in _potentials(grid, xs):
        for solve in (diffusion1d.solve_g_pde, diffusion1d.solve_f_pde):
            seconds = _best(lambda: solve(model, V, weight, grid))
            print(f"{solve.__name__} {name} {seconds:.4f} s", flush=True)

        def build():
            return diffusion1d.build_diffusion_transform(model, V, weight,
                                                         weight, grid)
        seconds = _best(build)
        print(f"build_diffusion_transform {name} {seconds:.4f} s", flush=True)
        tr = build()
        row = N // 2 - N // 2 % _BLOCK_ROWS + _BLOCK_ROWS - 1
        seconds = _best(lambda: tr.f_rows(row))
        print(f"f_rows({row}) {name} {seconds:.4f} s", flush=True)
        if name == "constant":
            sampled = tr
    seconds = _best(lambda: diffusion1d.empirical_vs_fk_marginal(
        sampled, EM_T, EM_PATHS, 1))
    print(f"empirical_vs_fk_marginal paths={EM_PATHS} t={EM_T} constant "
          f"{seconds:.4f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
