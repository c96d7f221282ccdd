"""YAML config parsing, defaults, and model/transform assembly."""

import struct

import numpy as np
import pytest
import yaml

from htlab import config
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
    np.testing.assert_array_equal(f0, np.ones(3))
    np.testing.assert_array_equal(gamma1, [0.5, 1.0, 0.8])
    assert V.shape == () and V == 0.2


def test_defaults_and_missing_seed(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg.grid_n == DEFAULT_GRID_N
    assert cfg.seed is None
    with pytest.raises(ModelValidationError) as info:
        cfg.require_seed()
    assert info.value.reason == "missing_seed"


@pytest.mark.parametrize("value,expected", [
    (200, 200), (200.0, 200), (-3, -3), (0.0, 0), (True, None),
    (False, None), (200.7, None), (-0.5, None), (float("inf"), None),
    (float("nan"), None), ("200", None), (None, None), ([1], None)])
def test_read_int_refuses_what_it_would_truncate(value, expected):
    if expected is None:
        with pytest.raises(ModelValidationError) as info:
            config._read_int(value, "grid.N")
        assert info.value.reason == "bad_config"
        assert f"grid.N: expected an integer, got {value!r}" in \
            str(info.value)
    else:
        got = config._read_int(value, "grid.N")
        assert got == expected and type(got) is int


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
    np.testing.assert_array_equal(V, [0.1, 0.2])
    full = np.zeros((11, 2)).tolist()
    cfg_full = RunConfig(model=cfg.model, transform={"V": full},
                         grid={"N": 10})
    _, _, V_full = transform_pieces(cfg_full, model, cfg_full.time_grid)
    assert V_full.shape == (11, 2)
    # V is checked before any solve, in the form the solvers take
    for V_bad, reason in [([0.1], "dimension_mismatch"),
                          (np.zeros((10, 2)).tolist(), "dimension_mismatch"),
                          (float("nan"), "nonfinite_potential")]:
        cfg_bad = RunConfig(model=cfg.model, transform={"V": V_bad},
                            grid={"N": 10})
        with pytest.raises(ModelValidationError) as info:
            transform_pieces(cfg_bad, model, cfg_bad.time_grid)
        assert info.value.reason == reason
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


# Model keys are checked only when the model is built, so any mapping can
# stand under `model:` in a loaded config. Fast-path inputs are built from
# the event stream; fallback inputs take yaml.load.
FAST_PATH_CORPUS = {
    "quoted_numbers": "a: '1.5'\nb: \"2\"\nc: '1.0e+3'\nd: '~'\n",
    "underscores": "a: 1_000.5\nb: 1__0.5\nc: 10_.5\nd: 1_000\ne: -_1.5\n",
    "special_floats": "a: .inf\nb: -.Inf\nc: .nan\nd: +.INF\ne: [.NaN, 1.]\n",
    "signed_zeros": "a: -0.0\nb: 0.0\nc: [-0.0, 0.0, -0., +0.0]\n",
    "exponents": "a: 1.0e-8\nb: 2.5E+6\nc: 1e5\nd: 6.02e23\ne: 1.0e400\n",
    "sexagesimal": "a: 1:30.5\nb: -1:30\nc: 190:20:30\nd: 1:30.5\n",
    "integers": "a: 010\nb: 0x1F\nc: 0b101\nd: -0o17\ne: 1_000\nf: +7\n",
    "nulls": "a: ~\nb:\nc: null\nd: [~, NULL]\n",
    "bools": "a: yes\nb: on\nc: No\nd: OFF\ne: [true, False, y]\n",
    "timestamps": ("a: 2001-12-14\nb: 2001-12-14t21:59:43.10-05:00\n"
                   "c: 2001-12-14 21:59:43.10\nd: 2002-12-14\n"),
    "duplicate_keys": "a: 1\nb: 2\na: 3.5\n1: x\n1.0: y\n",
    "nested_flow": "a: {b: {c: [1, {d: 2.5}]}, e: []}\nf: {}\ng: [[], [[0.5]]]\n",
    "scalar_keys": "1: a\n1.5: b\n~: c\ntrue: d\n2001-12-14: e\n",
    "block_scalars": "a: |\n  1.5\n  two\nb: >\n  folded\n  text\n",
    "repeated_values": "a: [0.0, 0.0, 1.5, 0.0, '0.0', 0.0]\nb: 0.0\n",
}
FALLBACK_CORPUS = {
    "anchor_alias": "a: &x [1, 2.5]\nb: *x\n",
    "anchor_only": "a: &x 1.5\n",
    "merge": "base: &b {x: 1}\nderived:\n  <<: *b\n  y: 2\n",
    "merge_inline": "a:\n  <<: {x: 1, y: 0.5}\n  y: 2\n",
    "explicit_str": "a: !!str 1.0\n",
    "explicit_float": "a: !!float 1\n",
    "explicit_collection": "a: !!seq [1]\nb: !!map {c: 2}\n",
    "value_key": "=: 1\n",
}
ERROR_CORPUS = {
    "two_documents": "model: {}\n---\nmodel: {}\n",
    "list_as_key": "model:\n  ? [1, 2]\n  : x\n",
}


def _exact(obj):
    """obj with every scalar typed and every float as its 8 bytes, so that
    == on the result is exact (NaN payloads, -0.0, key order)."""
    if isinstance(obj, dict):
        return ["dict", [(_exact(k), _exact(v)) for k, v in obj.items()]]
    if isinstance(obj, list):
        return ["list", [_exact(v) for v in obj]]
    if isinstance(obj, float):
        return ["float", struct.pack("<d", obj)]
    return [type(obj).__name__, obj]


def _as_model(text: str) -> str:
    return "model:\n" + "".join(f"  {line}\n" for line in text.splitlines())


@pytest.fixture(params=["default", "pure_python"])
def loader(request, monkeypatch):
    """Run a test with the default loader, then with PyYAML's pure-Python
    SafeLoader in its place."""
    if request.param == "pure_python":
        monkeypatch.setattr(config, "_YAML_LOADER", yaml.SafeLoader)
    return request.param


def _yaml_load_spy(monkeypatch, allowed: bool):
    """Count calls to yaml.load; make it raise unless allowed."""
    calls = []
    real = yaml.load

    def spy(*args, **kwargs):
        calls.append(args)
        if not allowed:
            raise AssertionError("yaml.load reached")
        return real(*args, **kwargs)
    monkeypatch.setattr(yaml, "load", spy)
    return calls


@pytest.mark.parametrize("name", sorted(FAST_PATH_CORPUS))
def test_event_loader_matches_safe_loader(tmp_path, monkeypatch, loader,
                                          name):
    text = _as_model(FAST_PATH_CORPUS[name])
    expected = yaml.load(text, Loader=yaml.SafeLoader)["model"]
    _yaml_load_spy(monkeypatch, allowed=False)
    got = load_config(write(tmp_path, text)).model
    assert _exact(got) == _exact(expected)
    if name != "special_floats":  # NaN != NaN
        assert got == expected


@pytest.mark.parametrize("name", sorted(FALLBACK_CORPUS))
def test_fallback_inputs_take_yaml_load(tmp_path, monkeypatch, loader, name):
    text = _as_model(FALLBACK_CORPUS[name])
    expected = yaml.load(text, Loader=yaml.SafeLoader)["model"]
    calls = _yaml_load_spy(monkeypatch, allowed=True)
    got = load_config(write(tmp_path, text)).model
    assert calls, "the input should have left the event-stream builder"
    assert got == expected and _exact(got) == _exact(expected)


@pytest.mark.parametrize("name", sorted(ERROR_CORPUS))
def test_unloadable_inputs_stay_config_errors(tmp_path, loader, name):
    with pytest.raises(ModelValidationError) as info:
        load_config(write(tmp_path, ERROR_CORPUS[name]))
    assert info.value.reason == "bad_config"


def test_generated_config_never_reaches_yaml_load(tmp_path, monkeypatch):
    text = generated_jump_yaml()
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    _yaml_load_spy(monkeypatch, allowed=False)
    cfg = load_config(write(tmp_path, text))
    assert _exact(cfg.transform) == _exact(expected["transform"])
    anchored = text.replace("  m0: 1.0", "  m0: &m 1.0")
    with pytest.raises(AssertionError, match="yaml.load reached"):
        load_config(write(tmp_path, anchored))


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
