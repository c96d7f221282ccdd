"""Shared model builders for the test suite."""

import numpy as np

from htlab.h_transform import build_h_process
from htlab.markov_core import (JumpKernel, PathBatch, StateSpace, TimeGrid,
                               build_metropolis, build_reversible_model)


def two_state_model():
    """Two-state tilted chain with J = [[0, 0.5], [2, 0]] and m = (0.8, 0.2)."""
    space = StateSpace(("lo", "hi"))
    J0 = JumpKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return build_metropolis(space, J0, np.array([1.0, 1.0]),
                            np.array([0.0, np.log(2.0)]))


def ring_kernel(n: int, scale: float = 1.0) -> JumpKernel:
    """Nearest-neighbour ring with symmetric rates."""
    rates = np.zeros((n, n))
    for i in range(n):
        rates[i, (i + 1) % n] = scale
        rates[i, (i - 1) % n] = scale
    return JumpKernel(rates)


def five_state_model():
    """Five-state Metropolis ring used across the solver tests."""
    n = 5
    U = np.array([0.0, 0.3, -0.2, 0.5, 0.1])
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    return build_metropolis(space, ring_kernel(n, 0.3), np.full(n, 1.0 / n), U)


def chorded_ring_model():
    """Seven-state Metropolis ring with three chords, so that out-degrees
    differ from state to state (4, 2, 3, 3, 3, 3, 2)."""
    n = 7
    rates = np.array(ring_kernel(n, 0.3).rates)
    for x, y, r in ((0, 3, 0.2), (0, 4, 0.05), (2, 5, 0.15)):
        rates[x, y] = rates[y, x] = r
    U = np.array([0.0, 0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    return build_metropolis(space, JumpKernel(rates), np.full(n, 1.0 / n), U)


def complete_graph_model():
    """Four-state Metropolis chain on the complete graph."""
    n = 4
    rates = 0.3 + 0.1 * np.add.outer(np.arange(n), np.arange(n))
    np.fill_diagonal(rates, 0.0)
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    return build_metropolis(space, JumpKernel(rates), np.full(n, 1.0 / n),
                            np.array([0.0, 0.4, -0.3, 0.2]))


def wavy_potential(model, grid: TimeGrid) -> np.ndarray:
    """Smooth nonconstant potential: 0.25 sin(pi t) + 0.1 x."""
    ts = grid.nodes
    xs = np.arange(model.n, dtype=float)
    return 0.25 * np.sin(np.pi * ts)[:, None] + 0.1 * xs[None, :]


def identity_hprocess(model, N: int = 100):
    """Transform with unit weights and zero potential: the reference law."""
    grid = TimeGrid(N)
    return build_h_process(model, np.ones(model.n), np.ones(model.n), 0.0,
                           grid)


def generic_hprocess(N: int = 100):
    """Five-state transform with nonconstant potential and terminal weight."""
    model = five_state_model()
    grid = TimeGrid(N)
    return build_h_process(model, np.ones(model.n),
                           np.array([0.2, 0.5, 1.0, 0.3, 0.8]),
                           wavy_potential(model, grid), grid)


def reversible_two_state():
    """Plain (non-tilted) 2-state model J = [[0,1],[2,0]], m = (2/3, 1/3)."""
    space = StateSpace(("a", "b"))
    J = JumpKernel(np.array([[0.0, 1.0], [2.0, 0.0]]))
    return build_reversible_model(space, J, np.array([2.0, 1.0]))


def path_batch(paths, n_states: int = 2) -> PathBatch:
    """PathBatch from (x0, jump times, jump states) triples."""
    return PathBatch(
        x0=np.array([x0 for x0, _, _ in paths], dtype=int),
        offsets=np.cumsum([0] + [len(t) for _, t, _ in paths]),
        times=np.array([t for _, ts, _ in paths for t in ts], dtype=float),
        states=np.array([y for _, _, ys in paths for y in ys], dtype=int),
        n_states=n_states)


def path_bytes(paths: PathBatch) -> bytes:
    """Every array of a batch as bytes, for byte-identity checks on reruns."""
    return b"".join(a.tobytes() for a in (paths.x0, paths.offsets,
                                          paths.times, paths.states))
