"""Command-line front door: config-driven runs with deterministic reports.

Subcommands cover the pipeline stages: `model` validates the reversible
model, `fk` solves the two weight functions, `transform` builds the
reweighted process, `sample` draws reference or transformed paths, `check`
runs the residual checks, `hjb` evaluates both Hamilton-Jacobi residual
forms, `bridge` runs iterative proportional fitting, `diffusion` runs the
PDE pipeline, and `report` aggregates the pass/fail summary.

Exit codes: 0 success, 2 config or model validation failure, 3 numerical
check failure beyond tolerance. All failures carry machine-readable reason
strings on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from htlab import bridge as bridge_mod
from htlab import diffusion1d, generator_lab, h_transform, hjb_check
from htlab import orlicz_diag
from htlab.config import RunConfig, _float_array, _read, _read_int, \
    _read_seed, _read_tolerance, build_model_from_config, load_config, \
    transform_pieces
from htlab.errors import (ConvergenceError, HTLabError, InconsistencyError,
                          ModelValidationError)
from htlab.feynman_kac import (check_fk_generator, check_semigroup,
                               fk_propagator, solve_fk)
from htlab.markov_core import (ReversibleModel, _require_paths,
                               detailed_balance_violation, sample_paths_R)
from htlab.reports import write_csv, write_text

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK = 3


def _say(args, text: str):
    if args.verbose:
        print(text)


def _jump_model(cfg: RunConfig) -> ReversibleModel:
    model = build_model_from_config(cfg)
    if not isinstance(model, ReversibleModel):
        raise ModelValidationError(
            "this subcommand needs a jump model (model.kind: jump)",
            reason="wrong_model_kind")
    return model


def _hprocess(cfg: RunConfig):
    model = _jump_model(cfg)
    grid = cfg.time_grid
    f0, gamma1, V = transform_pieces(cfg, model, grid)
    return model, grid, h_transform.build_h_process(model, f0, gamma1, V, grid)


def _check_times(cfg: RunConfig, default=(0.25, 0.5, 0.75)) -> list[float]:
    """checks.times: a nonempty list of nodes of the config's grid."""
    times = _read(lambda ts: [float(t) for t in ts],
                  cfg.checks.get("times", default), "checks.times")
    if not times:  # an empty list would check nothing and pass
        raise ModelValidationError("checks.times: need at least one time",
                                   reason="bad_config")
    grid = cfg.time_grid
    for t in times:
        grid.node_index(t)
    return times


def _time_state(nodes, n: int) -> dict:
    """`t` and `state` columns of a (len(nodes), n) field, row by row."""
    return {"t": np.repeat(nodes, n),
            "state": np.tile(np.arange(n), len(nodes))}


def cmd_model(cfg: RunConfig, args) -> int:
    model = build_model_from_config(cfg)
    lines = []
    if isinstance(model, ReversibleModel):
        lines.append(f"kind=jump states={model.n}")
        lines.append("labels=" + ",".join(model.space.labels))
        lines.append("m=" + ",".join(repr(float(v)) for v in model.m))
        lines.append("exit_rates=" + ",".join(
            repr(float(v)) for v in model.J.exit_rates))
        lines.append(f"detailed_balance_violation="
                     f"{detailed_balance_violation(model.J.rates, model.m)!r}")
        lines.append("irreducible=yes")
    else:
        lines.append(f"kind=diffusion M={model.M} "
                     f"x_min={model.x_min!r} x_max={model.x_max!r}")
        lines.append(f"dx={model.dx!r}")
    write_text(os.path.join(args.out, "model_summary.txt"), lines)
    _say(args, "model ok")
    return EXIT_OK


def cmd_fk(cfg: RunConfig, args) -> int:
    model = _jump_model(cfg)
    grid = cfg.time_grid
    f0, gamma1, V = transform_pieces(cfg, model, grid)
    g, f = solve_fk(model, V, f0, gamma1, grid)
    write_csv(os.path.join(args.out, "fk.csv"),
              {**_time_state(grid.nodes, model.n),
               "g": g.ravel(), "f": f.ravel()},
              meta={"grid_N": grid.N})
    _say(args, f"fk solved on N={grid.N}")
    return EXIT_OK


def cmd_transform(cfg: RunConfig, args) -> int:
    times = _check_times(cfg)
    model, grid, hp = _hprocess(cfg)
    marg = np.array([h_transform.marginal(hp, t) for t in grid.nodes])
    kernels = np.reshape([h_transform.jump_kernel(hp, t) for t in times],
                         (len(times), model.n, model.n))
    entropy = h_transform.relative_entropy(hp)
    rep = orlicz_diag.hypothesis_report(
        hp.f0, hp.gamma1, hp.V, orlicz_diag.WeightedMeasure(weights=model.m))
    write_csv(os.path.join(args.out, "marginals.csv"),
              {**_time_state(grid.nodes, model.n), "p": marg.ravel()},
              meta={"grid_N": grid.N})
    off = ~np.eye(model.n, dtype=bool)
    source, target = np.nonzero(off)
    write_csv(os.path.join(args.out, "kernel.csv"),
              {"t": np.repeat(times, len(source)),
               "from": np.tile(source, len(times)),
               "to": np.tile(target, len(times)),
               "rate": kernels[:, off].ravel()},
              meta={"grid_N": grid.N})
    write_text(os.path.join(args.out, "transform_summary.txt"),
               [f"normalization_c={hp.c!r}",
                f"relative_entropy={entropy!r}",
                f"p={rep.p}",
                f"f0_integral={rep.f0_sqlog_integral:.6e}",
                f"gamma1_integral={rep.gamma1_sqlog_integral:.6e}",
                f"verdict={rep.verdict}"])
    _say(args, f"transform built, H(P|R)={entropy:.6g}")
    return EXIT_OK


def cmd_sample(cfg: RunConfig, args) -> int:
    seed = cfg.require_seed()
    n_paths = _read_int(cfg.sampling.get("n_paths", 1000), "sampling.n_paths")
    _require_paths(n_paths)
    process = str(cfg.sampling.get("process", "P"))
    if process == "P":
        model, grid, hp = _hprocess(cfg)
        paths = h_transform.sample_paths_P(hp, n_paths, seed)
    elif process == "R":
        model = _jump_model(cfg)
        paths = sample_paths_R(model, n_paths, seed)
    else:
        raise ModelValidationError(
            f"sampling.process must be 'R' or 'P', got {process!r}",
            reason="bad_config")
    # One row for each path's start, then one per jump; np.insert keeps the
    # given order of equal indices, so a path with no jump is one row.
    starts = paths.offsets[:-1]
    write_csv(os.path.join(args.out, "paths.csv"),
              {"path_id": np.repeat(np.arange(len(paths)),
                                    np.diff(paths.offsets) + 1),
               "time": np.insert(paths.times, starts, 0.0),
               "state": np.insert(paths.states, starts, paths.x0)},
              meta={"process": process, "seed": seed, "n_paths": n_paths})
    _say(args, f"sampled {n_paths} {process}-paths")
    return EXIT_OK


def _run_checks(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    """Shared body of `check` and `report`: named pass/fail results.

    The check settings are read before the process is built, so a bad one
    fails before any solve.
    """
    tol_semigroup, tol_pde, tol_generator = (
        _read_tolerance(cfg.checks.get(key, default), f"checks.{key}")
        for key, default in [("tolerance_semigroup", 1e-8),
                             ("tolerance_pde", 1e-6),
                             ("tolerance_generator", 1e-5)])
    seed = _read_seed(cfg.sampling.get("seed", 0))
    times = _check_times(cfg)
    model, grid, hp = _hprocess(cfg)
    results = []

    mid = 0.5 if grid.N % 2 == 0 else (grid.N // 2) / grid.N
    gap = check_semigroup(fk_propagator(model, hp.V, grid), 0.0, mid, 1.0)
    results.append(("semigroup_identity", gap <= tol_semigroup,
                    f"gap={gap:.3e} tol={tol_semigroup:.1e}"))

    res = check_fk_generator(hp.model, hp.V, hp.g, grid)
    results.append(("backward_equation_residual", res.max_residual <= tol_pde,
                    f"max={res.max_residual:.3e} tol={tol_pde:.1e}"))

    streams = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(streams[0])
    worst = 0.0
    for t in times:
        us = [rng.standard_normal(model.n) for _ in range(3)]
        res = generator_lab.check_transformed_generator(hp, us, t)
        worst = max(worst, res.max_residual)
    results.append(("transformed_generator_identity", worst <= tol_generator,
                    f"max={worst:.3e} tol={tol_generator:.1e}"))

    rng2 = np.random.default_rng(streams[1])
    mw = orlicz_diag.WeightedMeasure(weights=model.m)
    holder_ok = True
    detail = ""
    for kind, p in [("theta_exp", None), ("power", 2.0)]:
        gammaY = orlicz_diag.YoungFunction(kind, p)
        for _ in range(5):
            u = rng2.standard_normal(model.n)
            v = rng2.standard_normal(model.n)
            hc = orlicz_diag.holder_check(u, v, mw, gammaY)
            if not hc.satisfied:
                holder_ok = False
                detail = f"lhs={hc.lhs:.3e} rhs={hc.rhs:.3e}"
    results.append(("holder_inequality", holder_ok, detail or "all pairs ok"))

    rep = orlicz_diag.hypothesis_report(hp.f0, hp.gamma1, hp.V, mw)
    results.append(("integrability_hypotheses",
                    rep.verdict.startswith("satisfied"),
                    f"sup_conjugate_integral={rep.sup_v_conjugate_integral:.3e}"))
    return results


def _write_check_report(results, out_dir: str, name: str) -> int:
    lines = []
    failed = False
    for label, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        failed = failed or not ok
        lines.append(f"{status} {label} {detail}")
    write_text(os.path.join(out_dir, name), lines)
    for line in lines:
        print(line)
    if failed:
        print("error: reason=check_failure", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_check(cfg: RunConfig, args) -> int:
    return _write_check_report(_run_checks(cfg), args.out,
                               "check_report.txt")


def cmd_hjb(cfg: RunConfig, args) -> int:
    model, grid, hp = _hprocess(cfg)
    res_exp, res_log = hjb_check.discrete_hjb_residual(hp.g, model, hp.V,
                                                       grid)
    columns = {**_time_state(grid.nodes, model.n),
               "residual_exponential": res_exp.residual.ravel(),
               "residual_log": res_log.residual.ravel()}
    defined = res_exp.defined.ravel()
    write_csv(os.path.join(args.out, "hjb.csv"),
              {name: values[defined] for name, values in columns.items()},
              meta={"grid_N": grid.N})
    write_text(os.path.join(args.out, "hjb_summary.txt"),
               ["time_term=exponential", res_exp.report().rstrip(),
                "time_term=log", res_log.report().rstrip()])
    _say(args, f"hjb residuals: exp max={res_exp.max_residual:.3e}, "
               f"log max={res_log.max_residual:.3e}")
    return EXIT_OK


def _bridge_limits(cfg: RunConfig) -> tuple[float, int]:
    """bridge.tol and bridge.max_iter, read before anything is built."""
    sec = cfg.bridge
    tol = _read_tolerance(sec.get("tol", bridge_mod.DEFAULT_TOL), "bridge.tol")
    max_iter = _read_int(sec.get("max_iter", bridge_mod.DEFAULT_MAX_ITER),
                         "bridge.max_iter")
    if max_iter < 1:
        raise ModelValidationError("bridge.max_iter: expected an integer >= 1, "
                                   f"got {max_iter!r}", reason="bad_config")
    return tol, max_iter


def _fit_bridge(cfg: RunConfig, model: ReversibleModel, tol: float,
                max_iter: int):
    """Read the bridge marginals and fit them: (problem, result)."""
    sec = cfg.bridge
    if "mu0" not in sec or "mu1" not in sec:
        raise ModelValidationError("bridge section needs mu0 and mu1",
                                   reason="bad_config")
    mu0, mu1 = (_read(_float_array, sec[key], f"bridge.{key}")
                for key in ("mu0", "mu1"))
    problem = bridge_mod.build_bridge_problem(model, mu0, mu1)
    return problem, bridge_mod.ipf_solve(problem, tol=tol, max_iter=max_iter)


def cmd_bridge(cfg: RunConfig, args) -> int:
    tol, max_iter = _bridge_limits(cfg)
    model = _jump_model(cfg)
    problem, result = _fit_bridge(cfg, model, tol, max_iter)
    history = result.error_history
    write_csv(os.path.join(args.out, "bridge_convergence.csv"),
              {"iteration": np.arange(1, len(history) + 1), "error": history},
              meta={"tol": tol})
    write_csv(os.path.join(args.out, "bridge_multipliers.csv"),
              {"state": np.arange(model.n), "f0": result.f0,
               "gamma1": result.gamma1})
    entropy = bridge_mod.static_entropy(problem, result.f0, result.gamma1)
    write_text(os.path.join(args.out, "bridge_summary.txt"),
               [f"iterations={result.iterations}",
                f"final_error={result.final_error!r}",
                f"support_restricted={result.support_restricted}",
                f"static_entropy={entropy!r}"])
    _say(args, f"bridge converged in {result.iterations} iterations")
    return EXIT_OK


def cmd_diffusion(cfg: RunConfig, args) -> int:
    model = build_model_from_config(cfg)
    if not isinstance(model, diffusion1d.Diffusion1DModel):
        raise ModelValidationError(
            "this subcommand needs model.kind: diffusion",
            reason="wrong_model_kind")
    grid = cfg.time_grid
    f0, gamma1, V = transform_pieces(cfg, model, grid)
    times = _check_times(cfg, (0.0, 0.25, 0.5, 0.75))
    indices = [grid.node_index(t) for t in times]
    sampling, rows = None, indices
    if "n_paths" in cfg.sampling:
        sampling = (_read(float, cfg.sampling.get("t", 0.5), "sampling.t"),
                    _read_int(cfg.sampling["n_paths"], "sampling.n_paths"),
                    cfg.require_seed())
        _require_paths(sampling[1])
        rows = indices + [grid.node_index(sampling[0])]
    tr = diffusion1d.build_diffusion_transform(model, V, f0, gamma1, grid)
    # one f_rows call resumes the forward sweep once per stored row, for the
    # CSV's rows and the sampled one together
    f = tr.f_rows(rows)
    lines = [f"normalization_c={tr.c!r}",
             f"clipped_nodes={tr.clipped_nodes}"]
    if sampling is not None:
        masses = f[-1] * tr.g[rows[-1]] * tr.m  # marginal(tr, t)'s bits
        tv = diffusion1d.empirical_vs_fk_marginal(tr, *sampling,
                                                  masses=masses)
        lines.append(f"empirical_tv={tv!r}")
    for name, values in [("diffusion_g.csv", tr.g[indices]),
                         ("diffusion_f.csv", f[:len(indices)]),
                         ("diffusion_drift.csv", tr.drift_rows(indices))]:
        write_csv(os.path.join(args.out, name),
                  {"t": np.repeat(times, len(model.xs)),
                   "x": np.tile(model.xs, len(times)),
                   "value": values.ravel()},
                  meta={"grid_N": grid.N, "M": model.M})
    write_text(os.path.join(args.out, "diffusion_summary.txt"), lines)
    _say(args, "diffusion pipeline done")
    return EXIT_OK


def cmd_report(cfg: RunConfig, args) -> int:
    fit = "mu0" in cfg.bridge and "mu1" in cfg.bridge
    limits = _bridge_limits(cfg) if fit else None
    results = _run_checks(cfg)
    if fit:
        try:
            result = _fit_bridge(cfg, _jump_model(cfg), *limits)[1]
            results.append(("bridge_convergence", True,
                            f"iterations={result.iterations}"))
        except (ConvergenceError, InconsistencyError) as exc:
            results.append(("bridge_convergence", False, f"reason={exc.reason}"))
    return _write_check_report(results, args.out, "report.txt")


_COMMANDS = {
    "model": (cmd_model, "build and validate the configured model"),
    "fk": (cmd_fk, "solve the backward and forward weight functions"),
    "transform": (cmd_transform,
                  "build the transformed process and its reports"),
    "sample": (cmd_sample, "draw reference or transformed paths"),
    "check": (cmd_check, "run residual and inequality checks"),
    "hjb": (cmd_hjb, "evaluate both Hamilton-Jacobi residual forms"),
    "bridge": (cmd_bridge, "fit endpoint marginals by proportional scaling"),
    "diffusion": (cmd_diffusion, "run the one-dimensional PDE pipeline"),
    "report": (cmd_report, "aggregate pass/fail across configured checks"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htlab",
        description="Reweighted Markov dynamics: solvers, samplers, checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="YAML run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command][0](cfg, args)
    except FileNotFoundError as exc:
        print(f"error: reason=missing_file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, InconsistencyError) as exc:
        print(f"error: reason={exc.reason}: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except HTLabError as exc:
        print(f"error: reason={exc.reason}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
