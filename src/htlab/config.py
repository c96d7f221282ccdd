"""YAML run configuration: parsing, validation, and model assembly.

A run config is a single YAML document with nested sections. Matrices are
row-major lists of lists. The schema (documented in the README) mirrors the
library objects: a `model` section builds either a jump model or a diffusion
model, a `transform` section supplies the reweighting data, and the
remaining sections carry grid resolution, check tolerances, and sampling
controls.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
import yaml
from yaml.events import (AliasEvent, DocumentStartEvent, MappingEndEvent,
                         MappingStartEvent, ScalarEvent, SequenceEndEvent,
                         SequenceStartEvent, StreamEndEvent)
from yaml.nodes import ScalarNode

from htlab.diffusion1d import Diffusion1DModel, check_window
from htlab.errors import ModelValidationError
from htlab.feynman_kac import potential_on_grid
from htlab.markov_core import (JumpKernel, ReversibleModel, StateSpace,
                               TimeGrid, build_metropolis,
                               build_reversible_model)

DEFAULT_GRID_N = 200

# libyaml's C scanner and parser with PyYAML's safe constructor and resolver;
# the pure-Python loader builds the same objects when libyaml is absent.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_FLOAT_TAG = "tag:yaml.org,2002:float"
_STR_TAG = "tag:yaml.org,2002:str"

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
        return _read_int(self.seed, "sampling.seed")


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


def _read_tolerance(value, what: str) -> float:
    """A tolerance from the config: a finite float > 0, else bad_config."""
    tol = _read(float, value, what)
    if not 0.0 < tol < math.inf:
        raise ModelValidationError(f"{what}: tolerance must be finite and "
                                   f"> 0, got {value!r}", reason="bad_config")
    return tol


class _OutsideFastPath(Exception):
    """The text uses a YAML feature that only the full loader builds."""


def _scalar(loader, value: str, implicit):
    """The object yaml.load builds for an untagged scalar."""
    tag = loader.resolve(ScalarNode, value, implicit)
    if tag == _STR_TAG:
        return value
    if tag == _FLOAT_TAG:
        try:
            return float(value)
        except ValueError:  # underscores, .inf, .nan, sexagesimal
            pass
    constructor = loader.yaml_constructors.get(tag)
    if constructor is None:  # `<<` merges and `=` values
        raise _OutsideFastPath
    return constructor(loader, ScalarNode(tag, value))


def _load_events(text: str):
    """Build the document straight from the loader's event stream.

    Covers the YAML a config is written in: one document of mappings,
    sequences and untagged scalars. Scalars take their tags from the
    loader's own resolver (exact while it has no path resolvers), so the
    objects equal yaml.load's. Raises _OutsideFastPath on an anchor, an
    alias, an explicit tag, a merge key or `=` scalar, an unhashable key or
    a second document, which the full loader handles. A scalar that its
    constructor cannot build is reported, with its line, only once the
    stream has ended, so that a later syntax error keeps yaml.load's own
    message.
    """
    loader = _YAML_LOADER(text)
    try:
        if loader.yaml_path_resolvers:
            raise _OutsideFastPath
        get_event = loader.get_event
        scalars = {}  # (value, implicit) -> object, within this text
        frames = [[]]  # items of each open collection, the document first
        documents = 0
        unreadable = None  # (line, value, error) of the first such scalar
        while True:
            event = get_event()
            kind = type(event)
            if kind is ScalarEvent:
                if event.anchor is not None or event.tag is not None:
                    raise _OutsideFastPath
                key = (event.value, event.implicit)
                try:
                    value = scalars[key]
                except KeyError:
                    try:
                        value = _scalar(loader, *key)
                    except (TypeError, ValueError) as exc:  # `2001-13-45`
                        if unreadable is None:
                            unreadable = (event.start_mark.line + 1,
                                          event.value, exc)
                        value = None
                    scalars[key] = value
                frames[-1].append(value)
            elif kind is SequenceStartEvent or kind is MappingStartEvent:
                if event.anchor is not None or event.tag is not None:
                    raise _OutsideFastPath
                frames.append([])
            elif kind is SequenceEndEvent:
                items = frames.pop()
                frames[-1].append(items)
            elif kind is MappingEndEvent:
                items = frames.pop()
                try:  # later duplicate keys win, as in yaml.load
                    mapping = dict(zip(items[0::2], items[1::2]))
                except TypeError:  # an unhashable key
                    raise _OutsideFastPath from None
                frames[-1].append(mapping)
            elif kind is DocumentStartEvent:
                documents += 1
                if documents > 1:
                    raise _OutsideFastPath
            elif kind is AliasEvent:
                raise _OutsideFastPath
            elif kind is StreamEndEvent:
                break
    finally:
        loader.dispose()
    if unreadable is not None:
        line, value, exc = unreadable
        raise ModelValidationError(f"config value cannot be read: line {line}:"
                                   f" {value!r}: {exc}", reason="bad_config")
    return frames[0][0] if frames[0] else None


def _load_full(text: str, path: str):
    """yaml.load on the text, naming the file in its error messages."""
    stream = io.StringIO(text)
    stream.name = path
    try:
        return yaml.load(stream, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ModelValidationError(f"config is not valid YAML: {exc}",
                                   reason="bad_config") from exc
    except (TypeError, ValueError) as exc:  # e.g. `!!int abc`, `2001-13-45`
        raise ModelValidationError(f"config value cannot be read: {exc}",
                                   reason="bad_config") from exc


def load_config(path: str) -> RunConfig:
    """Read and structurally validate a YAML config file.

    The event-stream builder reads the usual config; any input outside its
    subset, and any input it cannot read, goes to yaml.load, so those get
    exactly yaml.load's objects and errors.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = _load_events(text)
    except (_OutsideFastPath, yaml.YAMLError, TypeError, ValueError):
        raw = _load_full(text, path)
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
    the model's builder checks (feynman_kac.weight_on_nodes), and V is the
    array as given (scalar, node vector or (N+1) x n field), checked here by
    feynman_kac.potential_on_grid so that a bad V fails before any solve.
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
    potential_on_grid(V, grid, n)
    return f0, gamma1, V
