"""Time the Crank-Nicolson sweeps with a constant and a time-varying V.

    python3 scripts/time_cn_sweeps.py

Imports htlab from the `src/` of the checkout holding this script and builds
a diffusion model at the `diffusion-cn` size, M = 1024 nodes and N = 2000
time cells. It prints the best of three wall times of `solve_g_pde` and
`solve_f_pde` for a scalar V and for a V that changes in every time row; run
it at two checkouts to compare their sweeps. Then, on the left-hand sides of
the time-varying case, it prints the mean time of one step taken each way a
per-step solve can go: a LAPACK `gtsv`, or a `gttrf` followed by a `gttrs`.
The sweeps use `gtsv` for a time-varying V because it is the faster of the
two. Both ways call the routines the sweeps call, those of
`diffusion1d._lapack()`.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from htlab import diffusion1d  # noqa: E402
from htlab.markov_core import TimeGrid  # noqa: E402

M, N, REPEATS = 1024, 2000, 3


def _best(fn) -> float:
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    xs = np.linspace(-2.0, 2.0, M + 1)
    model = diffusion1d.Diffusion1DModel(
        -2.0, 2.0, M, 0.26 * np.exp(-0.5 * ((xs + 0.12) / 0.46) ** 2))
    grid = TimeGrid(N)
    weight = np.exp(-0.5 * ((xs + 0.7) / 0.55) ** 2)
    varying = 0.05 + 0.1 * np.sin(3.0 * grid.nodes[:, None] + xs) ** 2
    for name, V in (("constant", 0.058), ("varying", varying)):
        for solve in (diffusion1d.solve_g_pde, diffusion1d.solve_f_pde):
            seconds = _best(lambda: solve(model, V, weight, grid))
            print(f"{solve.__name__} {name} {seconds:.4f} s", flush=True)

    lapack = diffusion1d._lapack()
    center, upper, lower = diffusion1d._operator_bands(model)
    half = 0.5 * grid.dt
    diags = [1.0 - half * (center - v) for v in varying[:N]]
    hu, hl, rhs = -half * upper, -half * lower, weight

    def gtsv():
        for d in diags:
            lapack.dgtsv(hl, d, hu, rhs)

    def gttrf_gttrs():
        for d in diags:
            lapack.dgttrs(*lapack.dgttrf(hl, d, hu)[:5], rhs)

    for name, steps in (("gtsv", gtsv), ("gttrf+gttrs", gttrf_gttrs)):
        print(f"step {name} {_best(steps) / N * 1e6:.1f} us", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
