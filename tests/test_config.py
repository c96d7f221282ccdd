"""YAML config parsing, defaults, and model/transform assembly."""

import numpy as np
import pytest
import yaml

from htlab.config import (DEFAULT_GRID_N, RunConfig, build_model_from_config,
                          load_config, transform_pieces)
from htlab.diffusion1d import Diffusion1DModel
from htlab.errors import ModelValidationError
from htlab.markov_core import ReversibleModel


def write(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    return str(path)


JUMP_YAML = """
model:
  kind: jump
  states: [a, b, c]
  J0: [[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]]
  m0: 1.0
  U: [0.0, 0.3, -0.2]
transform:
  gamma1: [0.5, 1.0, 0.8]
  V: 0.2
grid:
  N: 40
sampling:
  seed: 7
  n_paths: 50
"""


def test_load_jump_config(tmp_path):
    cfg = load_config(write(tmp_path, JUMP_YAML))
    assert cfg.grid_n == 40
    assert cfg.seed == 7
    assert cfg.require_seed() == 7
    model = build_model_from_config(cfg)
    assert isinstance(model, ReversibleModel)
    assert model.space.labels == ("a", "b", "c")
    expected_m = np.exp(-2.0 * np.array([0.0, 0.3, -0.2]))
    np.testing.assert_allclose(model.m, expected_m / expected_m.sum(),
                               atol=1e-12)
    f0, gamma1, V = transform_pieces(cfg, model, cfg.time_grid)
    np.testing.assert_array_equal(f0.f0, np.ones(3))
    np.testing.assert_array_equal(gamma1.gamma1, [0.5, 1.0, 0.8])
    assert V.values.shape == (41, 3)
    assert np.all(V.values == 0.2)


def test_defaults_and_missing_seed(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg.grid_n == DEFAULT_GRID_N
    assert cfg.seed is None
    with pytest.raises(ModelValidationError) as info:
        cfg.require_seed()
    assert info.value.reason == "missing_seed"


def test_structural_validation(tmp_path):
    with pytest.raises(ModelValidationError):
        load_config(write(tmp_path, "- a\n- b\n"))
    with pytest.raises(ModelValidationError):
        load_config(write(tmp_path, "modle: {}\n"))
    with pytest.raises(ModelValidationError):
        load_config(write(tmp_path, "model: 3\n"))


def test_model_section_validation():
    with pytest.raises(ModelValidationError):
        build_model_from_config(RunConfig(model={"kind": "quantum"}))
    with pytest.raises(ModelValidationError):
        build_model_from_config(RunConfig(model={"kind": "jump", "m0": 1.0}))
    with pytest.raises(ModelValidationError):
        build_model_from_config(RunConfig(
            model={"kind": "diffusion", "x_min": 0.0, "M": 64}))


def test_jump_model_without_tilt_uses_base_measure():
    cfg = RunConfig(model={"kind": "jump",
                           "J0": [[0.0, 1.0], [1.0, 0.0]],
                           "m0": [1.0, 1.0]})
    model = build_model_from_config(cfg)
    np.testing.assert_allclose(model.m, [0.5, 0.5])
    np.testing.assert_array_equal(model.J.rates, [[0.0, 1.0], [1.0, 0.0]])


def test_vector_forms_for_jump_transform():
    cfg = RunConfig(model={"kind": "jump",
                           "J0": [[0.0, 1.0], [1.0, 0.0]], "m0": 1.0},
                    transform={"V": [0.1, 0.2]}, grid={"N": 10})
    model = build_model_from_config(cfg)
    f0, gamma1, V = transform_pieces(cfg, model, cfg.time_grid)
    np.testing.assert_array_equal(V.values[7], [0.1, 0.2])
    full = np.zeros((11, 2)).tolist()
    cfg_full = RunConfig(model=cfg.model, transform={"V": full},
                         grid={"N": 10})
    _, _, V_full = transform_pieces(cfg_full, model, cfg_full.time_grid)
    assert V_full.values.shape == (11, 2)
    bad = RunConfig(model=cfg.model, transform={"f0": [1.0, 2.0, 3.0]},
                    grid={"N": 10})
    with pytest.raises(ModelValidationError):
        transform_pieces(bad, model, bad.time_grid)
    # the gaussian convenience form has no meaning without a spatial axis
    gauss = RunConfig(model=cfg.model,
                      transform={"gamma1": {"gaussian": {"center": 0.0,
                                                         "width": 1.0}}},
                      grid={"N": 10})
    with pytest.raises(ModelValidationError):
        transform_pieces(gauss, model, gauss.time_grid)


DIFFUSION_YAML = """
model:
  kind: diffusion
  x_min: -2.0
  x_max: 2.0
  M: 64
  U: 0.0
transform:
  gamma1:
    gaussian: {center: 0.5, width: 0.6, height: 2.0}
grid:
  N: 100
"""


def generated_jump_yaml(n: int = 100, N: int = 20, seed: int = 5) -> str:
    """A large config in the style of generated ones: repr float literals,
    1.0e-8-style exponents and nested flow lists."""
    rng = np.random.default_rng(seed)
    J0 = np.zeros((n, n))
    for i in range(n):
        J0[i, (i + 1) % n] = J0[(i + 1) % n, i] = 0.3
    for _ in range(2 * n):
        i, j = rng.choice(n, size=2, replace=False)
        J0[i, j] = J0[j, i] = rng.uniform(0.02, 0.1)

    def flow(row):
        return "[" + ", ".join(repr(float(v)) for v in row) + "]"

    V = rng.uniform(-1.0, 1.0, size=(N + 1, n)) * 10.0 ** rng.integers(
        -9, 3, size=(N + 1, n))
    V_rows = ", ".join("[" + ", ".join(f"{v:.6e}" for v in row) + "]"
                       for row in V)
    return f"""model:
  kind: jump
  J0: [{", ".join(flow(row) for row in J0)}]
  m0: 1.0
  U: {flow(rng.uniform(-0.5, 0.5, n))}
transform:
  f0: {flow(rng.uniform(0.5, 1.5, n))}
  gamma1: {flow(rng.uniform(0.5, 1.5, n))}
  V: [{V_rows}]
grid:
  N: {N}
checks:
  tolerance_semigroup: 1.0e-8
  tolerance_pde: 2.5E-6
  times: [0.25, 0.5, 0.75]
bridge:
  mu0: {flow(rng.dirichlet(np.ones(n)))}
  mu1: {flow(rng.dirichlet(np.ones(n)))}
sampling:
  seed: 12345
  n_paths: 4000
  process: P
"""


@pytest.mark.parametrize("text", [JUMP_YAML, DIFFUSION_YAML,
                                  generated_jump_yaml()],
                         ids=["jump", "diffusion", "generated_n100"])
def test_loader_matches_pure_python_safe_loader(tmp_path, text):
    cfg = load_config(write(tmp_path, text))
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    for name in ("model", "transform", "grid", "checks", "sampling",
                 "bridge"):
        assert getattr(cfg, name) == expected.get(name, {}), name


def test_generated_config_parses_floats(tmp_path):
    cfg = load_config(write(tmp_path, generated_jump_yaml()))
    assert cfg.checks["tolerance_semigroup"] == 1e-8
    assert cfg.checks["tolerance_pde"] == 2.5e-6
    V = np.asarray(cfg.transform["V"])
    assert V.shape == (21, 100) and V.dtype == float
    model = build_model_from_config(cfg)
    assert model.n == 100


def test_diffusion_model_and_gaussian_weights(tmp_path):
    cfg = load_config(write(tmp_path, DIFFUSION_YAML))
    model = build_model_from_config(cfg)
    assert isinstance(model, Diffusion1DModel)
    f0, gamma1, V = transform_pieces(cfg, model, cfg.time_grid)
    np.testing.assert_array_equal(f0, np.ones(65))
    expected = 2.0 * np.exp(-0.5 * ((model.xs - 0.5) / 0.6) ** 2)
    np.testing.assert_allclose(gamma1, expected, atol=1e-12)
    assert V == 0.0


def test_gaussian_form_validation():
    cfg = RunConfig(model={"kind": "diffusion", "x_min": -1.0, "x_max": 1.0,
                           "M": 32},
                    transform={"gamma1": {"gaussian": {"center": 0.0,
                                                       "width": -1.0}}})
    model = build_model_from_config(cfg)
    with pytest.raises(ModelValidationError):
        transform_pieces(cfg, model, cfg.time_grid)
    cfg2 = RunConfig(model=cfg.model,
                     transform={"gamma1": {"normal": {"center": 0.0}}})
    with pytest.raises(ModelValidationError):
        transform_pieces(cfg2, model, cfg2.time_grid)
