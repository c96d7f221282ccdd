"""One cold pass of a workload, in a fresh interpreter.

Usage (started by run.py, which records the spawn time):

    python3 pass_runner.py SPAWN_T ROOT WORKLOAD CONFIG OUT_DIR RESULT TRACE

The pass times its own start-up (spawn until the model of CONFIG is
built), then every op of the workload, each as one in-process call, and
writes a JSON result. Outputs are checked by run.py afterwards, never here,
so no check runs inside a timed region.

Right after start-up and after every op, outside every timed region, the
pass times a fixed speed probe that does not touch htlab. run.py uses the
probe times to express each time at the speed of a reference machine.
"""

import json
import os
import resource
import sys
import time

PROBE_LOOPS = 1_000_000


def _import_htlab(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import htlab.cli
    if not os.path.abspath(htlab.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"htlab imported from {htlab.cli.__file__}, "
                          f"not from {src}")
    return htlab


def entropy_mc(config_path: str, out_dir: str) -> int:
    """Importance-sampling estimate of H(P|R) from reference paths.

    As acceptance test 06: sample R-paths, weight them by the path density
    ratio over [0, 1], and average w log w. The exact entropy is written
    beside the estimate; run.py compares the two against the standard error.
    """
    import numpy as np
    from htlab import config, h_transform, markov_core

    cfg = config.load_config(config_path)
    model = config.build_model_from_config(cfg)
    grid = cfg.time_grid
    f0, gamma1, V = config.transform_pieces(cfg, model, grid)
    hp = h_transform.build_h_process(model, f0, gamma1, V, grid)
    n_paths = int(cfg.sampling["n_paths"])
    paths = markov_core.sample_paths_R(model, n_paths, cfg.require_seed())
    w = np.array([h_transform.path_density_ratio(hp, p, 0.0, 1.0)
                  for p in paths])
    samples = w * np.log(w)
    exact = h_transform.relative_entropy(hp)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "entropy_mc.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"estimate": float(samples.mean()),
                   "stderr": float(samples.std(ddof=1) / np.sqrt(n_paths)),
                   "exact": float(exact), "n_paths": n_paths}, fh)
    return 0


def speed_probe() -> float:
    """Seconds taken by a fixed piece of interpreted Python that does not
    touch htlab (about run.PROBE_REF_S on the reference machine)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def main(argv):
    spawn_t, root, workload, config, out_dir, result_path, trace = argv
    t_import = time.monotonic()
    htlab = _import_htlab(root)
    import_s = time.monotonic() - t_import
    htlab.config.build_model_from_config(htlab.config.load_config(config))
    t_ready = time.monotonic()

    from workloads import WORKLOADS  # after the timed start-up

    tracer = None
    if trace == "1":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    ops, probe_s = {}, [speed_probe()]
    for op in WORKLOADS[workload]["ops"]:
        out = os.path.join(out_dir, op)
        error = None
        span = tracer.op(op) if tracer else None
        t0 = time.perf_counter()
        try:
            if op == "entropy_mc":
                rc = entropy_mc(config, out)
            else:
                rc = htlab.cli.main([op, "--config", config, "--out", out])
        except Exception as exc:  # a raising op is a failed op, not a crash
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        ops[op] = {"seconds": elapsed, "rc": rc, "error": error}
        probe_s.append(speed_probe())

    result = {
        "setup_s": t_ready - float(spawn_t),
        "import_s": import_s,
        "ops": ops,
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(out_dir)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
