"""YAML run configuration: parsing, validation, and model assembly.

A run config is a single YAML document with nested sections. Matrices are
row-major lists of lists. The schema (documented in the README) mirrors the
library objects: a `model` section builds either a jump model or a diffusion
model, a `transform` section supplies the reweighting data, and the
remaining sections carry grid resolution, check tolerances, and sampling
controls.
"""

from __future__ import annotations

import functools
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np
import yaml
from yaml.nodes import ScalarNode

from htlab.diffusion1d import Diffusion1DModel, check_window
from htlab.errors import ModelValidationError
from htlab.feynman_kac import potential_on_grid
from htlab.markov_core import (JumpKernel, ReversibleModel, StateSpace,
                               TimeGrid, build_metropolis,
                               build_reversible_model)

DEFAULT_GRID_N = 200

# libyaml's C scanner and parser with PyYAML's safe constructor and resolver;
# the pure-Python loader, used when libyaml is absent, builds the same objects
# except where the two scanners differ: a tab before or inside a flow list
# (`a:\t[1.0, 2.0]`) loads under libyaml and is a bad_config without it.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# A block-mapping line whose whole value is a one-line flow sequence
# (`  J0: [[0.0, 0.3], [0.3, 0.0]]`), and the numbers in such a sequence
# that YAML 1.1 and JSON read as the same int or float. `1e-05` and
# `1.0e5` (strings in YAML 1.1), `1.`, `+1.0` and `01.0` are not among them.
_FLOW_LINE = re.compile(r"^( *\w+: +)(\[[^\n]*\]) *$", re.MULTILINE)
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+][0-9]+)?)?"
# Possessive, so that a match keeps no backtracking state per token.
_NUMERIC_FLOW = re.compile(rf"(?:[\[\], ]++|{_NUMBER}(?![^\[\], ]))*+")
_MARK = "_htlab_lifted_list_"  # numbered, it stands in for a lifted value
# Within one text, equal literals share one float, so a matrix's repeated
# entries (J0's zeros) hold one object each. One decoder serves every load:
# a decoder made per load or per list leaves its scanner's blocks on
# CPython's free lists.
_PARSE_FLOAT = functools.lru_cache(maxsize=None)(float)
_DECODER = json.JSONDecoder(parse_float=_PARSE_FLOAT)

# The keys each section defines; the model section's depend on its kind.
_SECTION_KEYS = {"transform": {"f0", "gamma1", "V"}, "grid": {"N"},
                 "checks": {"times", "tolerance_semigroup", "tolerance_pde",
                            "tolerance_generator"},
                 "sampling": {"seed", "n_paths", "process", "t"},
                 "bridge": {"mu0", "mu1", "tol", "max_iter"}}
_MODEL_KEYS = {"jump": {"kind", "states", "J0", "m0", "U"},
               "diffusion": {"kind", "x_min", "x_max", "M", "U"}}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration with raw sections and typed accessors."""

    model: dict = field(default_factory=dict)
    transform: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    sampling: dict = field(default_factory=dict)
    bridge: dict = field(default_factory=dict)

    @property
    def grid_n(self) -> int:
        return _read_int(self.grid.get("N", DEFAULT_GRID_N), "grid.N")

    @property
    def time_grid(self) -> TimeGrid:
        return TimeGrid(N=self.grid_n)

    @property
    def seed(self):
        return self.sampling.get("seed")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ModelValidationError(
                "sampling commands need an explicit seed in the config",
                reason="missing_seed")
        return _read_seed(self.seed)


def _reject_unknown_keys(mapping: dict, known, what: str):
    unknown = sorted(str(key) for key in set(mapping) - set(known))
    if unknown:
        raise ModelValidationError(f"unknown {what}: {unknown}",
                                   reason="bad_config")


def _read(convert, value, what: str):
    """convert(value), with a malformed value reported as a config error."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:  # int(.inf)
        raise ModelValidationError(f"{what}: cannot read {value!r} ({exc})",
                                   reason="bad_config") from None


def _read_int(value, what: str) -> int:
    """An integer setting: an int, or a float with no fractional part
    (200.0). A bool, a fractional or non-finite float and any other type
    are bad_config, naming the key and the value: nothing is truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ModelValidationError(f"{what}: expected an integer, got {value!r}",
                               reason="bad_config")


def _read_seed(value) -> int:
    """sampling.seed: an integer >= 0, as np.random.SeedSequence needs,
    else bad_config."""
    seed = _read_int(value, "sampling.seed")
    if seed < 0:
        raise ModelValidationError(f"sampling.seed: expected an integer >= 0, "
                                   f"got {value!r}", reason="bad_config")
    return seed


def _read_tolerance(value, what: str) -> float:
    """A tolerance from the config: a finite float > 0, else bad_config."""
    tol = _read(float, value, what)
    if not 0.0 < tol < math.inf:
        raise ModelValidationError(f"{what}: tolerance must be finite and "
                                   f"> 0, got {value!r}", reason="bad_config")
    return tol


def _lift_numeric_lists(text: str):
    """(text with marks, {mark: list}): each value that _FLOW_LINE and
    _NUMERIC_FLOW accept is parsed by json and replaced, on its line, by a
    numbered mark, so line numbers do not move. Nothing is lifted from a
    text that already holds the mark."""
    lists = {}
    if _MARK in text:
        return text, lists

    def lift(match):
        head, flow = match.groups()
        if not _NUMERIC_FLOW.fullmatch(flow):
            return match.group()
        try:
            items = _DECODER.decode(flow)
        except (ValueError, RecursionError):  # `[1.0 2.0]`, `[1.0, ]`
            return match.group()
        mark = f"{_MARK}{len(lists)}"
        lists[mark] = items
        return head + mark

    text = _FLOW_LINE.sub(lift, text)
    _PARSE_FLOAT.cache_clear()  # the lists keep their floats, not the cache
    return text, lists


def _load_yaml(text: str, path: str, lists: dict):
    """The loader's document for text, in which each plain scalar that is a
    mark of lists stands for its list. A mark inside a longer scalar raises
    KeyError. A scalar that its constructor cannot build (`2001-13-45`,
    `!!int abc`) is a bad_config naming its line; the whole text is
    composed first, so a syntax error anywhere is reported instead, as the
    loader's own message.
    """
    stream = io.StringIO(text)
    stream.name = path
    loader = _YAML_LOADER(stream)
    construct = loader.construct_object

    def construct_object(node, deep=False):
        if not isinstance(node, ScalarNode):
            return construct(node, deep)
        if lists and _MARK in node.value:
            return lists[node.value]
        try:
            return construct(node, deep)
        except (TypeError, ValueError) as exc:
            raise ModelValidationError(
                f"config value cannot be read: line {node.start_mark.line + 1}"
                f": {node.value!r}: {exc}", reason="bad_config") from None

    loader.construct_object = construct_object
    try:
        return loader.get_single_data()
    except yaml.YAMLError as exc:
        raise ModelValidationError(f"config is not valid YAML: {exc}",
                                   reason="bad_config") from exc
    finally:
        loader.dispose()
        del loader.construct_object  # it refers back to the loader


def load_config(path: str) -> RunConfig:
    """Read and structurally validate a YAML config file.

    The loader reads the text with its numeric lists lifted out. If that
    fails, or a mark lands inside a longer scalar, it reads the original
    text instead, so such inputs get exactly its objects and errors.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lifted, lists = _lift_numeric_lists(text)
    try:
        raw = _load_yaml(lifted, path, lists)
    except (ModelValidationError, KeyError):
        raw = _load_yaml(text, path, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ModelValidationError("config must be a mapping of sections",
                                   reason="bad_config")
    known = ("model", *_SECTION_KEYS)
    _reject_unknown_keys(raw, known, "config sections")
    sections = {}
    for name in known:
        value = raw.get(name, {})
        if not isinstance(value, dict):
            raise ModelValidationError(f"section '{name}' must be a mapping",
                                       reason="bad_config")
        # The model's keys depend on its kind, so they are checked when the
        # model is built.
        _reject_unknown_keys(value, _SECTION_KEYS.get(name, value),
                             f"{name} keys")
        sections[name] = value
    return RunConfig(**sections)


def _float_array(entry) -> np.ndarray:
    return np.asarray(entry, dtype=float)


def _vector(entry, n: int, what: str, xs: np.ndarray | None = None) -> np.ndarray:
    """Expand a config entry to a length-n vector.

    Accepts a scalar (constant vector), an explicit list, or for spatial
    grids a {gaussian: {center, width, height?}} convenience form.
    """
    if isinstance(entry, dict):
        if xs is None or set(entry) != {"gaussian"}:
            raise ModelValidationError(f"{what}: unsupported mapping form",
                                       reason="bad_config")
        spec = entry["gaussian"]
        if not isinstance(spec, dict) or not {"center", "width"} <= set(spec):
            raise ModelValidationError(f"{what}: gaussian needs center and "
                                       "width", reason="bad_config")
        _reject_unknown_keys(spec, {"center", "width", "height"}, f"{what} keys")
        center = _read(float, spec["center"], f"{what}.center")
        width = _read(float, spec["width"], f"{what}.width")
        height = _read(float, spec.get("height", 1.0), f"{what}.height")
        if width <= 0:
            raise ModelValidationError(f"{what}: gaussian width must be > 0",
                                       reason="bad_config")
        return height * np.exp(-0.5 * ((xs - center) / width) ** 2)
    arr = _read(_float_array, entry, what)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ModelValidationError(
            f"{what}: expected {n} entries, got shape {arr.shape}",
            reason="dimension_mismatch")
    return arr


def build_model_from_config(cfg: RunConfig):
    """Assemble the jump or diffusion model named by the config."""
    sec = cfg.model
    kind = str(sec.get("kind", "jump"))
    if kind not in _MODEL_KEYS:
        raise ModelValidationError(f"unknown model kind '{kind}'",
                                   reason="bad_config")
    _reject_unknown_keys(sec, _MODEL_KEYS[kind], "model keys")
    return _jump_model(sec) if kind == "jump" else _diffusion_model(sec)


def _jump_model(sec: dict) -> ReversibleModel:
    if "J0" not in sec or "m0" not in sec:
        raise ModelValidationError("jump model needs J0 and m0",
                                   reason="bad_config")
    J0 = _read(_float_array, sec["J0"], "J0")
    n = J0.shape[0] if J0.ndim == 2 else 0
    labels = _read(lambda v: tuple(str(s) for s in v),
                   sec.get("states", range(n)), "states")
    space = StateSpace(labels=labels)
    m0 = _vector(sec["m0"], space.n, "m0")
    kernel = JumpKernel(rates=J0)
    if "U" in sec:
        U = _vector(sec["U"], space.n, "U")
        return build_metropolis(space, kernel, m0, U)
    return build_reversible_model(space, kernel, m0)


def _diffusion_model(sec: dict) -> Diffusion1DModel:
    for key in ("x_min", "x_max", "M"):
        if key not in sec:
            raise ModelValidationError(f"diffusion model needs '{key}'",
                                       reason="bad_config")
    M = _read_int(sec["M"], "M")
    x_min = _read(float, sec["x_min"], "x_min")
    x_max = _read(float, sec["x_max"], "x_max")
    check_window(x_min, x_max, M)  # before linspace warns or fails on it
    xs = np.linspace(x_min, x_max, M + 1)
    U = _vector(sec.get("U", 0.0), M + 1, "U", xs=xs)
    return Diffusion1DModel(x_min=x_min, x_max=x_max, M=M, U=U)


def transform_pieces(cfg: RunConfig, model, grid: TimeGrid):
    """Extract (f0, gamma1, V) from the transform section.

    For both model kinds the weights are plain node vectors, whose entries
    the model's builder checks (feynman_kac.weight_on_nodes). V (scalar,
    node vector or (N+1) x n field) is checked here, so that a bad V fails
    before any solve, and returned as the read-only (N+1) x n view of
    feynman_kac.potential_on_grid, which the solvers take without a copy.
    """
    sec = cfg.transform
    if isinstance(model, ReversibleModel):
        n, xs = model.n, None
    else:
        n, xs = model.M + 1, model.xs
    f0 = _vector(sec.get("f0", 1.0), n, "f0", xs=xs)
    gamma1 = _vector(sec.get("gamma1", 1.0), n, "gamma1", xs=xs)
    V_entry = sec.get("V", 0.0)
    if isinstance(V_entry, dict):
        V = _vector(V_entry, n, "V", xs=xs)
    else:
        V = _read(_float_array, V_entry, "V")
    return f0, gamma1, potential_on_grid(V, grid, n)
