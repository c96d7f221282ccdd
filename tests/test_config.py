"""YAML config parsing, defaults, and model/transform assembly."""

import importlib
import pathlib
import struct

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from htlab import config
from htlab.config import (DEFAULT_GRID_N, RunConfig, build_model_from_config,
                          load_config, transform_pieces)
from htlab.diffusion1d import Diffusion1DModel
from htlab.errors import ModelValidationError
from htlab.markov_core import ReversibleModel

ROOT = pathlib.Path(__file__).resolve().parents[1]
SECTIONS = ("model", "transform", "grid", "checks", "sampling", "bridge")

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
    assert V.shape == (41, 3) and np.all(V == 0.2)


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


def test_run_configs_compare_and_hash_by_identity():
    """A config holds dict sections, so == and hash are those of object
    identity, and hash does not raise on the unhashable dicts."""
    a, b = RunConfig(model={"kind": "jump"}), RunConfig(model={"kind": "jump"})
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


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
    # V comes back as the read-only grid view the solvers take
    assert V.shape == (11, 2) and not V.flags.writeable
    np.testing.assert_array_equal(V, np.broadcast_to([0.1, 0.2], (11, 2)))
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
    for name in SECTIONS:
        assert getattr(cfg, name) == expected.get(name, {}), name


# Model keys are checked only when the model is built, so any mapping can
# stand under `model:` in a loaded config. Each corpus entry must load to
# exactly the object yaml.load builds, under both loaders: scalars of every
# resolver kind, and anchors, aliases, tags and merges, also beside a lifted
# list, a cycle included.
SCALAR_CORPUS = {
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
ANCHOR_AND_TAG_CORPUS = {
    "anchor_alias": "a: &x [1, 2.5]\nb: *x\n",
    "anchor_only": "a: &x 1.5\n",
    "merge": "base: &b {x: 1}\nderived:\n  <<: *b\n  y: 2\n",
    "merge_inline": "a:\n  <<: {x: 1, y: 0.5}\n  y: 2\n",
    "explicit_str": "a: !!str 1.0\n",
    "explicit_float": "a: !!float 1\n",
    "explicit_collection": "a: !!seq [1]\nb: !!map {c: 2}\n",
    "value_key": "=: 1\n",
    "cycle_beside_lifted": "a: &x\n  - *x\nb: [1.0, 2.0]\n",
    "alias_of_lifted": ("m: &m\n  c: [1.0, 2.0]\n  d: 0.5\nn: *m\n"
                        "o: [[3.5], []]\np: *m\n"),
}
# Texts the loader refuses, with the message it gives on the original text.
# The last two are refused on the lifted text too, with other messages.
ERROR_CORPUS = {
    "two_documents": "model: {}\n---\nmodel: {}\n",
    "list_as_key": "model:\n  ? [1, 2]\n  : x\n",
    "indent_after_lifted": "model:\n  a: [1.0, 2.0]\n   b: 1\n",
    "tab_after_lifted": "model:\n  a: [1.0, 2.0]\n\tb: 1\n",
}


def _exact(obj, seen=None):
    """obj with every scalar typed and every float as its 8 bytes, so that
    == on the result is exact (NaN payloads, -0.0, key order). A list or
    dict met again (an alias, or a cycle) is written as the number of its
    first visit, so shared structure must match too."""
    if seen is None:
        seen = {}
    if isinstance(obj, (dict, list)):
        if id(obj) in seen:
            return ["seen", seen[id(obj)]]
        seen[id(obj)] = len(seen)
    if isinstance(obj, dict):
        return ["dict", [(_exact(k, seen), _exact(v, seen))
                         for k, v in obj.items()]]
    if isinstance(obj, list):
        return ["list", [_exact(v, seen) for v in obj]]
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


@pytest.mark.parametrize("name", sorted(SCALAR_CORPUS))
def test_event_loader_matches_safe_loader(tmp_path, loader, name):
    """Plain scalars load as yaml.load gives them, to the type and sign."""
    text = _as_model(SCALAR_CORPUS[name])
    expected = yaml.load(text, Loader=yaml.SafeLoader)["model"]
    got = load_config(write(tmp_path, text)).model
    assert _exact(got) == _exact(expected)
    if name != "special_floats":  # NaN != NaN
        assert got == expected


@pytest.mark.parametrize("name", sorted(ANCHOR_AND_TAG_CORPUS))
def test_fallback_inputs_take_yaml_load(tmp_path, loader, name):
    """Anchors, aliases and tags load as yaml.load gives them, beside a
    lifted list too."""
    text = _as_model(ANCHOR_AND_TAG_CORPUS[name])
    expected = yaml.load(text, Loader=yaml.SafeLoader)["model"]
    got = load_config(write(tmp_path, text)).model
    assert _exact(got) == _exact(expected)


@pytest.mark.parametrize("name", sorted(ERROR_CORPUS))
def test_unloadable_inputs_stay_config_errors(tmp_path, loader, name):
    path = write(tmp_path, ERROR_CORPUS[name])
    with open(path, encoding="utf-8") as fh, \
            pytest.raises(yaml.YAMLError) as expected:
        yaml.load(fh, Loader=config._YAML_LOADER)
    with pytest.raises(ModelValidationError) as info:
        load_config(path)
    assert info.value.reason == "bad_config"
    assert str(info.value) == f"config is not valid YAML: {expected.value}"


# A one-line flow sequence of plain numbers as a block-mapping value is read
# by json, and the loader meets a mark in its place, when each number is one
# that YAML 1.1 and JSON read alike. Lines of the second corpus are left to
# the loader.
LIFTED_CORPUS = {
    "nested": "a: [[0.0, 0.3, 1.5], [0.3, 0.0, -2.25], [], [[7]]]\n",
    "negative_zero": "a: [-0.0, 0.0, -0, 0]\n",
    "overflow": "a: [1.0e+400, -1.0e+400, 2.5e-400]\n",
    "ints": "a: [1, -7, 0, 123456789012345678901234567890]\n",
    "no_spaces": "a: [1.5,2,[-0.25,3.0e-8]]\n",
    "trailing_spaces": "a: [1.5, 2.5]   \nb: [0.5]  \n",
}
UNLIFTED_CORPUS = {
    "yaml11_strings": "a: [1e-05]\nb: [1.0e5]\n",
    "other_yaml_floats": "a: [1.]\nb: [+1.0]\nc: [01.0]\n",
    "not_json": "a: [1.0 2.0]\nb: [1.0, ]\n",
    "comment": "a: [1.0, 2.0] # two numbers\n",
    "tabs": "a:\t[1.0, 2.0]\nb: [1.0,\t2.0]\n",
}
# Lines that look like numeric lists but sit inside other YAML, and whether
# a mark then lands inside a longer scalar, so that the original text is
# loaded instead.
MARK_CORPUS = {
    "block_scalar": ("a: |\n  b: [1.0, 2.0]\nc: [3.0]\n", True),
    "quoted_string": ('a: "x\n  b: [1.0, 2.0]\n  y"\nc: [3.0]\n', True),
    "flow_mapping": ("a: {b: 1,\n  c: [1.0, 2.0]\n  }\nd: [3.0]\n", False),
    "mark_in_file": (f"a: {config._MARK}0\nb: [1.0, 2.0]\n", False),
}


def _yaml_load_model(text):
    """yaml.load's model section with the loader in use, or None where that
    loader refuses the text (the pure-Python scanner refuses tabs)."""
    try:
        return yaml.load(text, Loader=config._YAML_LOADER)["model"]
    except yaml.YAMLError:
        return None


def _assert_loads_as(tmp_path, text, expected):
    """load_config(text).model is exactly expected, or, for None, a
    bad_config error."""
    if expected is None:
        with pytest.raises(ModelValidationError) as info:
            load_config(write(tmp_path, text))
        assert info.value.reason == "bad_config"
    else:
        got = load_config(write(tmp_path, text)).model
        assert _exact(got) == _exact(expected)


@pytest.mark.parametrize("name", sorted(LIFTED_CORPUS))
def test_numeric_lists_are_lifted(tmp_path, loader, name):
    text = _as_model(LIFTED_CORPUS[name])
    _assert_loads_as(tmp_path, text, _yaml_load_model(text))
    keys = [line.split(":")[0].strip() for line in text.splitlines()[1:]]
    lifted, lists = config._lift_numeric_lists(text)
    assert lifted == "model:\n" + "".join(
        f"  {key}: {config._MARK}{i}\n" for i, key in enumerate(keys))
    assert list(lists) == [f"{config._MARK}{i}" for i in range(len(keys))]


@pytest.mark.parametrize("name", sorted(UNLIFTED_CORPUS))
def test_other_lists_take_the_event_stream(tmp_path, loader, name):
    """A list that is not one line of plain numbers is not lifted, and
    loads as yaml.load gives it or fails as a config error."""
    text = _as_model(UNLIFTED_CORPUS[name])
    _assert_loads_as(tmp_path, text, _yaml_load_model(text))
    assert config._lift_numeric_lists(text) == (text, {})


@pytest.mark.parametrize("name", sorted(MARK_CORPUS))
def test_marks_outside_plain_values(tmp_path, loader, name):
    text, inside = MARK_CORPUS[name]
    text = _as_model(text)
    _assert_loads_as(tmp_path, text, _yaml_load_model(text))
    lifted, lists = config._lift_numeric_lists(text)
    assert len(lists) == (0 if name == "mark_in_file" else 2)
    if inside:
        with pytest.raises(KeyError):
            config._load_yaml(lifted, "run.yaml", lists)


def test_crlf_lines_are_lifted_after_newline_translation(tmp_path):
    """load_config reads in text mode, so CRLF ends arrive as LF; a CR left
    before a line end would keep the line from being lifted."""
    text = "model:\r\n  a: [1.0, 2]\r\n  b: [[0.5], []]\r\n"
    path = tmp_path / "crlf.yaml"
    path.write_bytes(text.encode("utf-8"))
    expected = yaml.load(text, Loader=yaml.SafeLoader)["model"]
    assert _exact(load_config(str(path)).model) == _exact(expected)
    lifted, _ = config._lift_numeric_lists(text.replace("\r\n", "\n"))
    assert lifted == (f"model:\n  a: {config._MARK}0\n"
                      f"  b: {config._MARK}1\n")
    assert config._lift_numeric_lists(text) == (text, {})


def test_lifted_lines_keep_the_line_of_an_unreadable_value(tmp_path,
                                                           loader):
    text = _as_model("a: [1.0, 2.0]\nb: [[1, 2],\n  [3]]\nc: 2001-13-45\n")
    with pytest.raises(ModelValidationError,
                       match="line 5: '2001-13-45'") as info:
        load_config(write(tmp_path, text))
    assert info.value.reason == "bad_config"


_NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers()
_NESTED = st.lists(st.recursive(
    _NUMBERS, lambda inner: st.lists(inner, max_size=4), max_leaves=20),
    max_size=6)


def _flow(items, float_format: str) -> str:
    if isinstance(items, list):
        return "[" + ", ".join(_flow(v, float_format) for v in items) + "]"
    return float_format % items if isinstance(items, float) else "%r" % items


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=st.lists(_NESTED, min_size=1, max_size=3))
def test_drawn_numeric_lists_match_yaml_load(tmp_path, loader, drawn):
    """repr and %.6e floats, %r ints: lifted or not, each line's list is
    yaml.load's."""
    text = "model:\n" + "".join(
        f"  r{i}: {_flow(items, '%r')}\n  e{i}: {_flow(items, '%.6e')}\n"
        for i, items in enumerate(drawn))
    _assert_loads_as(tmp_path, text, _yaml_load_model(text))


LIST_KEYS = ("J0", "V", "U", "f0", "gamma1", "mu0", "mu1")


def test_config_lists_are_lifted(tmp_path, monkeypatch):
    """On a generated config and the benchmark's seed-11 jump-dense config,
    each line of J0, V, U, f0, gamma1, mu0 and mu1 is lifted, so the loader
    meets its key and a mark only, and every section equals yaml.load's."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    dense = workloads.write_config("jump-dense", 11, str(tmp_path / "bench"))
    texts = [generated_jump_yaml(),
             pathlib.Path(dense).read_text(encoding="utf-8")]
    for text in texts:
        expected = yaml.load(text, Loader=yaml.SafeLoader)
        cfg = load_config(write(tmp_path, text))
        for name in SECTIONS:
            assert _exact(getattr(cfg, name)) == _exact(expected.get(name,
                                                                      {}))
        lifted, lists = config._lift_numeric_lists(text)
        values = {}
        for line in lifted.splitlines():
            key, _, value = line.strip().partition(": ")
            if key in LIST_KEYS:
                values.setdefault(key, []).append(value)
        assert sorted(values) == sorted(LIST_KEYS)
        assert all(len(found) == 1 and found[0] in lists
                   for found in values.values())


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
    assert V.shape == (cfg.time_grid.N + 1, 65) and not V.any()


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
