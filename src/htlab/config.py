"""YAML run configuration: parsing, validation, and model assembly.

A run config is a single YAML document with nested sections. Matrices are
row-major lists of lists. The schema (documented in the README) mirrors the
library objects: a `model` section builds either a jump model or a diffusion
model, a `transform` section supplies the reweighting data, and the
remaining sections carry grid resolution, check tolerances, and sampling
controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from htlab.diffusion1d import Diffusion1DModel
from htlab.errors import ModelValidationError
from htlab.feynman_kac import InitialWeight, PotentialField, TerminalWeight
from htlab.markov_core import (JumpKernel, ReversibleModel, StateSpace,
                               TimeGrid, build_metropolis,
                               build_reversible_model)

DEFAULT_GRID_N = 200

# libyaml's C scanner and parser with PyYAML's safe constructor and resolver;
# the pure-Python loader builds the same objects when libyaml is absent.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
        return _read(int, self.grid.get("N", DEFAULT_GRID_N), "grid.N")

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
        return _read(int, self.seed, "sampling.seed")


def _read(convert, value, what: str):
    """convert(value), with a malformed value reported as a config error."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ModelValidationError(f"{what}: cannot read {value!r} ({exc})",
                                   reason="bad_config") from None


def load_config(path: str) -> RunConfig:
    """Read and structurally validate a YAML config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ModelValidationError(f"config is not valid YAML: {exc}",
                                       reason="bad_config") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ModelValidationError("config must be a mapping of sections",
                                   reason="bad_config")
    known = {"model", "transform", "grid", "checks", "sampling", "bridge"}
    unknown = set(raw) - known
    if unknown:
        raise ModelValidationError(
            f"unknown config sections: {sorted(unknown)}",
            reason="bad_config")
    sections = {}
    for name in known:
        value = raw.get(name, {})
        if not isinstance(value, dict):
            raise ModelValidationError(f"section '{name}' must be a mapping",
                                       reason="bad_config")
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
    kind = sec.get("kind", "jump")
    if kind == "jump":
        return _jump_model(sec)
    if kind == "diffusion":
        return _diffusion_model(sec)
    raise ModelValidationError(f"unknown model kind '{kind}'",
                               reason="bad_config")


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
    M = _read(int, sec["M"], "M")
    x_min = _read(float, sec["x_min"], "x_min")
    x_max = _read(float, sec["x_max"], "x_max")
    xs = np.linspace(x_min, x_max, M + 1)
    U = _vector(sec.get("U", 0.0), M + 1, "U", xs=xs)
    return Diffusion1DModel(x_min=x_min, x_max=x_max, M=M, U=U)


def transform_pieces(cfg: RunConfig, model, grid: TimeGrid):
    """Extract (f0, gamma1, V) from the transform section.

    For jump models the weights are wrapped in their validated types and V
    becomes a time-space potential field; for diffusion models plain node
    vectors and a broadcastable V entry are returned.
    """
    sec = cfg.transform
    lo = _read(float, sec.get("lo", 0.0), "lo")
    if isinstance(model, ReversibleModel):
        n, xs = model.n, None
    else:
        n, xs = model.M + 1, model.xs
    f0 = _vector(sec.get("f0", 1.0), n, "f0", xs=xs)
    gamma1 = _vector(sec.get("gamma1", 1.0), n, "gamma1", xs=xs)
    V_entry = sec.get("V", 0.0)
    if isinstance(model, ReversibleModel):
        V_arr = _read(_float_array, V_entry, "V")
        if V_arr.ndim == 2:
            field_vals = V_arr
        else:
            field_vals = np.tile(_vector(V_entry, n, "V"), (grid.N + 1, 1))
        V = PotentialField(values=field_vals, lo=max(lo, -float(field_vals.min()), 0.0))
        return InitialWeight(f0=f0), TerminalWeight(gamma1=gamma1), V
    if isinstance(V_entry, dict) or np.asarray(V_entry).ndim == 1:
        V_entry = _vector(V_entry, n, "V", xs=xs)
    return f0, gamma1, V_entry
