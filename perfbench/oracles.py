"""Output checks, run on a finished pass, never inside a timed region.

Each check returns a list of failure strings for one op (empty: the op's
output is correct). Monte Carlo bounds are fixed from standard errors
before any result is seen: Z_BOUND standard errors, which a correct
program exceeds with probability below 1e-6 per check.
"""

from __future__ import annotations

import json
import os

import numpy as np

Z_BOUND = 5.0
# Sum f g m is conserved exactly by the stored factors; 1e-9 sits far above
# rounding and far below any real defect.
CONSERVATION_TOL = 1e-9
# Acceptance test 04 pins the master-equation gap at 1e-6 for N = 1000; RK4
# error scales as N^-4, so coarser grids get that bound scaled accordingly.
MASTER_TOL_N1000 = 1e-6


def table(path: str) -> np.ndarray:
    """Numeric rows of an htlab CSV (comment preamble and header skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def csv_size(path: str) -> tuple[int, int]:
    """(data rows, bytes) of an htlab CSV."""
    with open(path, "rb") as fh:
        content = fh.read()
    rows = sum(1 for line in content.splitlines() if not line.startswith(b"#"))
    return rows - 1, len(content)


def summary(path: str) -> dict:
    """key=value lines of an htlab summary file."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.strip().partition("=")
            if sep:
                out[key] = value
    return out


def tv_bound(p: np.ndarray, n: int) -> float:
    """Mean plus Z_BOUND deviations of the TV between n draws and p.

    Each cell's frequency error is about normal with sd s = sqrt(p(1-p)/n);
    |error| then has mean s sqrt(2/pi) and variance s^2 (1 - 2/pi). Cells
    are treated as independent, which overstates the variance of a
    multinomial.
    """
    s2 = p * (1.0 - p) / n
    mean = np.sqrt(2.0 / np.pi) * np.sqrt(s2).sum()
    sd = np.sqrt((1.0 - 2.0 / np.pi) * s2.sum())
    return 0.5 * float(mean + Z_BOUND * sd)


class JumpOracle:
    """Checks for the jump-chain ops of one config."""

    def __init__(self, htlab, config_path: str):
        self.htlab = htlab
        cfg = htlab.config.load_config(config_path)
        self.cfg = cfg
        self.model = htlab.config.build_model_from_config(cfg)
        self.grid = cfg.time_grid
        f0, gamma1, V = htlab.config.transform_pieces(cfg, self.model,
                                                      self.grid)
        self.hp = htlab.h_transform.build_h_process(self.model, f0, gamma1, V,
                                                    self.grid)

    def _field(self, path: str, column: int) -> np.ndarray:
        return table(path)[:, column].reshape(self.grid.N + 1, self.model.n)

    def fk(self, out: str) -> list[str]:
        path = os.path.join(out, "fk.csv")
        g, f = self._field(path, 2), self._field(path, 3)
        mass = (f * g * self.model.m).sum(axis=1)
        drift = float(np.abs(mass / mass[0] - 1.0).max())
        if drift > CONSERVATION_TOL:
            return [f"fk: sum f g m drifts by {drift:.3e} across nodes"]
        return []

    def transform(self, out: str) -> list[str]:
        p = self._field(os.path.join(out, "marginals.csv"), 2)
        errors = []
        total = float(np.abs(p.sum(axis=1) - 1.0).max())
        if total > CONSERVATION_TOL:
            errors.append(f"transform: marginals miss mass 1 by {total:.3e}")
        evolved = self.htlab.h_transform.forward_marginal_evolve(self.hp)
        gap = float(np.abs(evolved - p).sum(axis=1).max())
        tol = MASTER_TOL_N1000 * (1000.0 / self.grid.N) ** 4
        if gap > tol:
            errors.append(f"transform: master equation differs from "
                          f"marginals.csv by {gap:.3e} > {tol:.3e}")
        return errors

    def check(self, out: str) -> list[str]:
        with open(os.path.join(out, "check_report.txt"),
                  encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        bad = [line for line in lines if not line.startswith("PASS ")]
        if len(lines) != 5 or bad:
            return [f"check: {bad or lines}"]
        return []

    def hjb(self, out: str) -> list[str]:
        res = table(os.path.join(out, "hjb.csv"))[:, 2:]
        if not np.all(np.isfinite(res)):
            return ["hjb: non-finite residual rows"]
        return []

    def bridge(self, out: str) -> list[str]:
        h = self.htlab
        rows = table(os.path.join(out, "bridge_multipliers.csv"))
        sec = self.cfg.bridge
        problem = h.bridge.build_bridge_problem(self.model, sec["mu0"],
                                                sec["mu1"])
        try:
            h.bridge.bridge_to_hprocess(problem, rows[:, 1], rows[:, 2],
                                        self.grid, tol=float(sec["tol"]))
        except h.errors.HTLabError as exc:
            return [f"bridge: {exc.reason}: {exc}"]
        return []

    def sample(self, out: str) -> list[str]:
        rows = table(os.path.join(out, "paths.csv"))
        n_paths = int(self.cfg.sampling["n_paths"])
        before = rows[rows[:, 1] <= 0.5]
        ids = before[:, 0]
        last = np.r_[ids[1:] != ids[:-1], True]
        states = before[last, 2].astype(int)
        if states.size != n_paths:
            return [f"sample: {states.size} paths, expected {n_paths}"]
        empirical = np.bincount(states, minlength=self.model.n) / n_paths
        target = self.htlab.h_transform.marginal(self.hp, 0.5)
        tv = 0.5 * float(np.abs(empirical - target).sum())
        bound = tv_bound(target, n_paths)
        if tv > bound:
            return [f"sample: TV at t=0.5 is {tv:.4f} > {bound:.4f}"]
        return []

    def entropy_mc(self, out: str) -> list[str]:
        with open(os.path.join(out, "entropy_mc.json"),
                  encoding="utf-8") as fh:
            est = json.load(fh)
        gap = abs(est["estimate"] - est["exact"])
        if not gap <= Z_BOUND * est["stderr"]:
            return [f"entropy_mc: |IS - exact| = {gap:.3e} > "
                    f"{Z_BOUND:g} x stderr {est['stderr']:.3e}"]
        return []


def diffusion(htlab, config_path: str, out: str) -> list[str]:
    """empirical_tv against the TV bound of the solved marginal's bins."""
    cfg = htlab.config.load_config(config_path)
    model = htlab.config.build_model_from_config(cfg)
    t = float(cfg.sampling["t"])
    n_paths = int(cfg.sampling["n_paths"])
    fields = []
    for name in ("diffusion_f.csv", "diffusion_g.csv"):
        rows = table(os.path.join(out, name))
        fields.append(rows[np.isclose(rows[:, 0], t), 2])
    masses = fields[0] * fields[1] * model.m_weights
    # the same 64 equal-width bins as diffusion1d.empirical_vs_fk_marginal
    bins = 64
    edges = np.linspace(model.x_min, model.x_max, bins + 1)
    which = np.clip(np.searchsorted(edges, model.xs, side="right") - 1,
                    0, bins - 1)
    target = np.bincount(which, weights=masses, minlength=bins)
    target = target / target.sum()
    tv = float(summary(os.path.join(out, "diffusion_summary.txt"))
               ["empirical_tv"])
    bound = tv_bound(target, n_paths)
    if not tv <= bound:
        return [f"diffusion: empirical_tv {tv:.4f} > {bound:.4f}"]
    return []


def check_pass(htlab, kind: str, config: str, pass_dir: str, ops) -> dict:
    """Failures per op for the outputs of one pass."""
    jump = JumpOracle(htlab, config) if kind == "jump" else None
    failures = {}
    for op in ops:
        out = os.path.join(pass_dir, op)
        try:
            if op == "diffusion":
                failures[op] = diffusion(htlab, config, out)
            else:
                failures[op] = getattr(jump, op)(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures[op] = [f"{op}: unreadable output: {exc!r}"]
    return failures


def file_counts(pass_dir: str) -> dict:
    """Exact counts read back from a pass's files."""
    counts = {}
    for op in sorted(os.listdir(pass_dir)):
        out = os.path.join(pass_dir, op)
        if not os.path.isdir(out):
            continue
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                rows, size = csv_size(os.path.join(out, name))
                counts[f"{op}/{name}.rows"] = rows
                counts[f"{op}/{name}.bytes"] = size
    paths = os.path.join(pass_dir, "sample", "paths.csv")
    if os.path.exists(paths):
        ids = table(paths)[:, 0]
        counts["sample.paths"] = int(np.unique(ids).size)
        counts["sample.jumps"] = int(ids.size - np.unique(ids).size)
    bridge = os.path.join(pass_dir, "bridge", "bridge_summary.txt")
    if os.path.exists(bridge):
        counts["bridge.iterations"] = int(summary(bridge)["iterations"])
    diff = os.path.join(pass_dir, "diffusion", "diffusion_summary.txt")
    if os.path.exists(diff):
        counts["diffusion.clipped_nodes"] = int(summary(diff)["clipped_nodes"])
    return counts
