"""Seeded workload generators.

A workload is one generated YAML config (a jump chain or a 1-d diffusion)
and the ops run on it. Every number in the config (chain, tilt U, gamma1,
f0, V, bridge marginals, sampling seed) is drawn from the workload seed, so
the same seed always gives a byte-identical config. The program under test
only ever sees the generated file.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

# Each workload loads its own layers and bypasses the other's:
#  - jump-dense: every jump-chain layer: config parsing, the dense (N, n, n)
#    RK4 factors, CSV writing, IPF, and the per-path Python overhead of both
#    samplers and the density ratios; no diffusion layer runs.
#  - diffusion-cn: Crank-Nicolson solves and Euler-Maruyama paths; no
#    jump-chain layer runs.
# Ops are `htlab` subcommands, except entropy_mc (a library op, see
# pass_runner.py).
WORKLOADS = {
    "jump-dense": dict(kind="jump", ops=("fk", "transform", "check", "hjb",
                                         "bridge", "sample", "entropy_mc"),
                       size=dict(n=100, chords=200, N=200, n_paths=4000)),
    "diffusion-cn": dict(kind="diffusion", ops=("diffusion",),
                         size=dict(M=1024, N=2000, n_paths=5000)),
}

RING_RATE = 0.3
CHORD_RATES = (0.02, 0.1)
TILT = 0.5


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([zlib.crc32(workload.encode()), seed]))


def _flow(values) -> str:
    """YAML flow sequence with round-trip float literals."""
    if isinstance(values, np.ndarray) and values.ndim == 2:
        return "[" + ", ".join(_flow(row) for row in values) + "]"
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


def _probability(rng, n: int) -> np.ndarray:
    p = rng.dirichlet(np.full(n, 2.0))
    return p / p.sum()


def _checks(N: int) -> list[str]:
    # README guidance: 1e-6 / 1e-5 are matched to N >= 1000, coarser grids
    # use 1e-4 for both the PDE and the generator identity.
    fine = N >= 1000
    return ["checks:",
            "  tolerance_semigroup: 1.0e-8",
            f"  tolerance_pde: {'1.0e-6' if fine else '1.0e-4'}",
            f"  tolerance_generator: {'1.0e-5' if fine else '1.0e-4'}",
            "  times: [0.25, 0.5, 0.75]"]


def jump_config(rng, n: int, chords: int, N: int, n_paths: int) -> str:
    """Metropolis chain: a ring plus random symmetric chords, tilted by U."""
    J0 = np.zeros((n, n))
    for i in range(n):
        J0[i, (i + 1) % n] = J0[(i + 1) % n, i] = RING_RATE
    added = 0
    while added < chords:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i == j or J0[i, j] > 0:
            continue
        J0[i, j] = J0[j, i] = float(rng.uniform(*CHORD_RATES))
        added += 1
    lines = ["model:",
             "  kind: jump",
             f"  J0: {_flow(J0)}",
             "  m0: 1.0",
             f"  U: {_flow(rng.uniform(-TILT, TILT, n))}",
             "transform:",
             f"  f0: {_flow(rng.uniform(0.5, 1.5, n))}",
             f"  gamma1: {_flow(rng.uniform(0.2, 1.0, n))}",
             f"  V: {_flow(rng.uniform(0.0, 0.4, n))}",
             "grid:",
             f"  N: {N}",
             *_checks(N),
             "sampling:",
             f"  seed: {int(rng.integers(0, 2**31))}",
             f"  n_paths: {n_paths}",
             "  process: P",
             "bridge:",
             f"  mu0: {_flow(_probability(rng, n))}",
             f"  mu1: {_flow(_probability(rng, n))}",
             "  tol: 1.0e-10",
             "  max_iter: 10000"]
    return "\n".join(lines) + "\n"


def diffusion_config(rng, M: int, N: int, n_paths: int) -> str:
    """Reflected diffusion on [-2, 2] with a Gaussian bump potential U."""
    lines = ["model:",
             "  kind: diffusion",
             "  x_min: -2.0",
             "  x_max: 2.0",
             f"  M: {M}",
             "  U:",
             "    gaussian: {center: %r, width: %r, height: %r}" % (
                 float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.4, 0.8)),
                 float(rng.uniform(0.2, 0.6))),
             "transform:",
             "  gamma1:",
             "    gaussian: {center: %r, width: %r}" % (
                 float(rng.uniform(-0.8, 0.8)), float(rng.uniform(0.5, 1.0))),
             f"  V: {float(rng.uniform(0.05, 0.2))!r}",
             "grid:",
             f"  N: {N}",
             "checks:",
             "  times: [0.0, 0.25, 0.5, 0.75]",
             "sampling:",
             f"  seed: {int(rng.integers(0, 2**31))}",
             f"  n_paths: {n_paths}",
             "  t: 0.5"]
    return "\n".join(lines) + "\n"


def write_config(workload: str, seed: int, directory: str) -> str:
    """Write the workload's config for this seed; return its path."""
    spec = WORKLOADS[workload]
    rng = _rng(workload, seed)
    make = jump_config if spec["kind"] == "jump" else diffusion_config
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{spec['kind']}.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(make(rng, **spec["size"]))
    return path
