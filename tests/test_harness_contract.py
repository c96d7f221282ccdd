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
    hp = generic_hprocess(20)
    for name, paths in [("h_transform.sample_paths_P",
                         sample_paths_P(hp, 4, 0)),
                        ("markov_core.sample_paths_R",
                         sample_paths_R(hp.model, 4, 0))]:
        jumps = sum(p.times.size for p in paths)
        assert tracer.COUNT_HOOKS[name]((), {}, paths) == {"paths": 4,
                                                           "jumps": jumps}
        assert all(isinstance(p.times, np.ndarray) for p in paths)
