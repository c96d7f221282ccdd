"""The parts of htlab that the benchmark in perfbench/ depends on.

The benchmark traces every per-layer metric named in the root BENCHMARK.json
by wrapping the public htlab function of that name, and its count hooks read
fields of a few return values. A renamed or privatised layer, or a changed
return type, would otherwise surface only when the benchmark runs.
"""

import importlib
import inspect
import json
import pathlib

import numpy as np
import pytest

import htlab.cli  # noqa: F401  (loads every htlab module, as perfbench does)
from conftest import generic_hprocess
from htlab import config, diffusion1d, h_transform, markov_core
from htlab.feynman_kac import fk_propagator
from htlab.h_transform import sample_paths_P
from htlab.markov_core import sample_paths_R

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Metrics that are op spans or derived figures, not wrapped functions.
_NOT_LAYERS = ("cli.", "bench.", "trace.", "htlab.")
_DERIVED = "diffusion1d.em_path_steps_per_s"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracer")


def _listed_layers() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return sorted({m["name"].rpartition(".")[0] for m in spec["per_layer"]
                   if not m["name"].startswith(_NOT_LAYERS)
                   and m["name"] != _DERIVED})


def test_listed_layers_are_wrapped_public_functions(tracer):
    layers = _listed_layers()
    assert "feynman_kac.fk_propagator" in layers
    targets = tracer.Tracer().targets()
    for layer in layers:
        module, name = layer.split(".")
        fn = getattr(importlib.import_module(f"htlab.{module}"), name, None)
        assert inspect.isfunction(fn), layer
        assert fn.__module__ == f"htlab.{module}", layer
        assert targets.get(layer) is fn, layer


def test_propagator_bytes_hook_counts_the_step_factors(tracer):
    hp = generic_hprocess(20)
    prop = fk_propagator(hp.model, hp.V, hp.grid)
    hook = tracer.COUNT_HOOKS["feynman_kac.fk_propagator"]
    assert prop.half_step.size == 0
    assert hook((), {}, prop) == {"bytes": prop.step.nbytes}
    assert prop.step.nbytes == 20 * hp.n * hp.n * 8


def test_sampler_hooks_count_paths_and_jumps(tracer):
    """The path hooks read len(batch) and p.times.size over iteration."""
    hp = generic_hprocess(20)
    for name, paths in [("h_transform.sample_paths_P",
                         sample_paths_P(hp, 4, 0)),
                        ("markov_core.sample_paths_R",
                         sample_paths_R(hp.model, 4, 0))]:
        assert len(paths) == 4
        jumps = sum(p.times.size for p in paths)
        assert jumps == paths.times.size
        assert tracer.COUNT_HOOKS[name]((), {}, paths) == {"paths": 4,
                                                           "jumps": jumps}
        assert all(isinstance(p.times, np.ndarray) for p in paths)


def test_diffusion_hooks_read_a_real_transform(tracer):
    """The clipped-node hook reads build_diffusion_transform's result, and
    the path-step hook reads (transform, t, n_paths) and the result's
    grid.node_index."""
    M = 16
    xs = np.linspace(-2.0, 2.0, M + 1)
    model = diffusion1d.Diffusion1DModel(-2.0, 2.0, M, 0.5 * xs ** 2)
    tr = diffusion1d.build_diffusion_transform(
        model, 0.1, np.ones(M + 1), np.exp(-xs ** 2),
        markov_core.TimeGrid(20))
    hook = tracer.COUNT_HOOKS["diffusion1d.build_diffusion_transform"]
    assert hook((), {}, tr) == {"clipped_nodes": tr.clipped_nodes}
    assert isinstance(tr.clipped_nodes, int)
    args = (tr, 0.5, 7, 3)
    tv = diffusion1d.empirical_vs_fk_marginal(*args)
    steps = tracer.COUNT_HOOKS["diffusion1d.empirical_vs_fk_marginal"]
    assert steps is tracer._em_path_steps
    assert steps(args, {}, tv) == {"path_steps": 7 * 10}


def test_reference_sampler_calls_the_traced_gillespie_kernel(tracer):
    """The tracer's self-test needs a markov_core.sample_path_R call on the
    jump workload, whose sampling goes through sample_paths_R."""
    hp = generic_hprocess(20)
    trace = tracer.Tracer()
    trace.install()
    try:
        markov_core.sample_paths_R(hp.model, 4, 0)
    finally:
        trace.uninstall()
    assert trace.counts["markov_core.sample_path_R.calls"] >= 1
    assert trace.counts["markov_core.sample_paths_R.paths"] == 4


def test_config_triple_feeds_the_master_equation_oracle(tmp_path):
    """perfbench builds the process as the CLI does: the (f0, gamma1, V)
    triple from transform_pieces goes straight into build_h_process, and the
    transform oracle integrates the result with forward_marginal_evolve."""
    path = tmp_path / "run.yaml"
    path.write_text("""
model:
  kind: jump
  J0: [[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]]
  m0: 1.0
  U: [0.0, 0.3, -0.2]
transform:
  f0: [1.0, 0.5, 2.0]
  gamma1: [0.5, 1.0, 0.8]
  V: [0.1, 0.3, 0.0]
grid:
  N: 100
""", encoding="utf-8")
    cfg = config.load_config(str(path))
    model = config.build_model_from_config(cfg)
    grid = cfg.time_grid
    f0, gamma1, V = config.transform_pieces(cfg, model, grid)
    hp = h_transform.build_h_process(model, f0, gamma1, V, grid)
    np.testing.assert_array_equal(hp.V[37], [0.1, 0.3, 0.0])
    evolved = h_transform.forward_marginal_evolve(hp)
    marginals = np.array([h_transform.marginal(hp, t) for t in grid.nodes])
    assert evolved.shape == marginals.shape == (grid.N + 1, model.n)
    assert float(np.abs(evolved - marginals).sum(axis=1).max()) <= 1e-9
