"""Time the Crank-Nicolson sweeps with a V constant in time, a V that
switches once and a V that changes in every time row.

    python3 scripts/time_cn_sweeps.py

Imports htlab from the `src/` of the checkout holding this script and builds
a diffusion model at the `diffusion-cn` size, M = 1024 nodes and N = 2000
time cells. It prints the best of three wall times of `solve_g_pde` and
`solve_f_pde` for a scalar V, for a V that switches once at t = 1/2 and for
a V that changes in every time row, and for each V those of
`build_diffusion_transform` (both sweeps, with V checked once) and of
`DiffusionTransform.f_rows` on the mid-grid row that resumes the forward
sweep for the most steps (B - 1 from the stored row below N/2, for
B = `h_transform._BLOCK_ROWS`); run it at two checkouts to compare their
sweeps.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from htlab import diffusion1d  # noqa: E402
from htlab.h_transform import _BLOCK_ROWS  # noqa: E402
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
    ts = grid.nodes[:, None]
    weight = np.exp(-0.5 * ((xs + 0.7) / 0.55) ** 2)
    switch = np.where(ts < 0.5, 0.058, 0.05 + 0.1 * np.sin(3.0 + xs) ** 2)
    varying = 0.05 + 0.1 * np.sin(3.0 * ts + xs) ** 2
    for name, V in (("constant", 0.058), ("switch", switch),
                    ("varying", varying)):
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
