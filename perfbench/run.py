"""htlab benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload jump-dense --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; htlab is imported from its `src/`. The
workload's config is generated from the seed, then the workload runs as a
series of passes, each in a fresh interpreter (pass_runner.py), until the
time is up. A pass times its own start-up (setup_s) and every op; times
are medians over passes, peak RSS a mean. Outputs are checked afterwards (oracles.py), CSV
digests must agree across passes and with earlier runs of the same seed and
sources, and the last line of stdout is the JSON result.

Times are given at the speed of a reference machine. The host of a small
shared VM switches between speed phases up to 1.65x apart that last for
minutes, which no run length averages out. So each pass also times a fixed
pure-Python speed probe after its start-up and after every op, and each
time is scaled by PROBE_REF_S over the probe time next to it (for an op,
the mean of the probes before and after it). The unscaled medians and the
probe times are in the record line.

With --trace 1 the passes alternate untraced and traced (tracer.py); the
result holds the per-layer metrics named in BENCHMARK.json, and a self-test
fails the run if a layer recorded no call on a workload that must call it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, write_config  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench-work")
MIN_PASSES = 3
MIN_TRACE_PASSES = 4  # two untraced, two traced
HARD_LIMIT_S = 165.0  # the run must end within 180 s
# Time of pass_runner.speed_probe on the reference machine (a 2-vCPU Xeon
# VM at 2.1 GHz, Python 3.11), so that scaled times read as seconds there.
PROBE_REF_S = 0.1
# BLAS is pinned to one thread so that timings do not depend on how many
# cores other processes leave free.
PASS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# Workload on which each traced layer must record at least one call.
DIFFUSION_LAYERS = ("diffusion1d.solve_g_pde", "diffusion1d.solve_f_pde",
                    "diffusion1d.build_diffusion_transform",
                    "diffusion1d.empirical_vs_fk_marginal")
SHARED_LAYERS = ("config.load_config", "config.build_model_from_config",
                 "reports.write_csv")


def _expected_workloads(layer: str) -> tuple:
    if layer in SHARED_LAYERS:
        return tuple(WORKLOADS)
    return ("diffusion-cn",) if layer in DIFFUSION_LAYERS else ("jump-dense",)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _csv_digests(pass_dir: str, ops) -> dict:
    out = {}
    for op in ops:
        op_dir = os.path.join(pass_dir, op)
        if os.path.isdir(op_dir):
            for name in sorted(os.listdir(op_dir)):
                if name.endswith(".csv"):
                    out[f"{op}/{name}"] = _sha256(os.path.join(op_dir, name))
    return out


def _source_hash() -> str:
    h = hashlib.sha256()
    for directory in (os.path.join(ROOT, "src", "htlab"), HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(directory, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _run_pass(workload: str, config: str, pass_dir: str, traced: bool,
              timeout: float):
    """One pass in a fresh interpreter; its result dict, or None."""
    os.makedirs(pass_dir)
    result_path = os.path.join(pass_dir, "result.json")
    env = dict(os.environ, **PASS_ENV)
    with open(os.path.join(pass_dir, "stdout.txt"), "w") as out, \
            open(os.path.join(pass_dir, "stderr.txt"), "w") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "pass_runner.py"),
             repr(spawn), ROOT, workload, config, pass_dir, result_path,
             "1" if traced else "0"],
            stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_s"] = time.monotonic() - spawn
    result["traced"] = traced
    return result


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(PASS_ENV["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count()}


def _median(values) -> float:
    return float(statistics.median(values))


def _wall_run_s(result) -> float:
    return sum(v["seconds"] for v in result["ops"].values())


def _run_s(result) -> float:
    """Summed op times, each scaled by the probes before and after it."""
    probes = result["probe_s"]
    return sum(v["seconds"] * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
               for i, v in enumerate(result["ops"].values()))


def _setup_s(result) -> float:
    """Start-up time scaled by the probe that follows it."""
    return result["setup_s"] * PROBE_REF_S / result["probe_s"][0]


def _op_walls(passes) -> dict:
    """Median wall time of each op the workload runs."""
    return {f"{op}_s": _median([p["ops"][op]["seconds"] for p in passes])
            for op in passes[0]["ops"]}


def _end_to_end(passes, spec) -> dict:
    values = {"setup_s": _median([_setup_s(p) for p in passes]),
              "run_s": _median([_run_s(p) for p in passes]),
              # A mean: a pass's peak takes one of a few values 16 MB apart
              # at random, and a median flips between them.
              "peak_rss_mb": statistics.fmean(p["peak_rss_mb"]
                                              for p in passes)}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def _layer_value(name: str, traced, plain):
    """Per-layer metric; an op or layer the workload does not run reads 0."""
    if name == "htlab.import_s":
        return _median([p["import_s"] for p in traced])
    if name == "trace.overhead_s":
        return (_median([_run_s(p) for p in traced])
                - _median([_run_s(p) for p in plain]))
    if name == "diffusion1d.em_path_steps_per_s":
        rates = []
        for p in traced:
            busy = p["trace"]["self_s"].get(
                "diffusion1d.empirical_vs_fk_marginal", 0.0)
            steps = p["trace"]["counts"].get(
                "diffusion1d.empirical_vs_fk_marginal.path_steps", 0)
            rates.append(steps / busy if busy > 0 else 0.0)
        return _median(rates)
    layer, _, stat = name.rpartition(".")
    if stat == "wall_s":  # untraced wall time of one op: cli.<op>.wall_s
        op = layer.split(".", 1)[1]
        if op not in plain[0]["ops"]:
            return 0.0
        return _median([p["ops"][op]["seconds"] for p in plain])
    if stat == "self_s":
        return _median([p["trace"]["self_s"].get(layer, 0.0) for p in traced])
    return traced[0]["trace"]["counts"].get(name, 0)


def _self_test(workload: str, traced, spec) -> list[str]:
    """Every listed layer is wrapped, called where expected, and its counts
    repeat between passes."""
    errors = []
    wrapped = set(traced[0]["trace"]["wrapped"])
    for metric in spec:
        name = metric["name"]
        if name.startswith(("cli.", "bench.", "trace.", "htlab.")) or \
                name == "diffusion1d.em_path_steps_per_s":
            continue  # op spans and derived figures, not wrapped functions
        layer = name.rpartition(".")[0]
        if layer not in wrapped:
            errors.append(f"trace self-test: {layer} is not a wrapped "
                          "public function")
            continue
        if workload not in _expected_workloads(layer):
            continue
        for i, p in enumerate(traced):
            if p["trace"]["counts"].get(f"{layer}.calls", 0) < 1:
                errors.append(f"trace self-test: {layer} recorded no call "
                              f"in traced pass {i}")
    for p in traced[1:]:
        if p["trace"]["counts"] != traced[0]["trace"]["counts"]:
            errors.append("trace self-test: counts differ between passes")
            break
    return sorted(set(errors))


def _digest_record(workload: str, seed: int, digests: dict) -> list[str]:
    """Compare with (or store) the digests of an earlier run with the same
    seed and sources; return the ops whose CSVs differ."""
    store = os.path.join(WORK, "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{workload}-s{seed}-{_source_hash()}.json")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
        return []
    with open(path, encoding="utf-8") as fh:
        earlier = json.load(fh)
    return sorted({key.split("/")[0] for key in set(earlier) | set(digests)
                   if earlier.get(key) != digests.get(key)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    spec = WORKLOADS[args.workload]
    ops = spec["ops"]

    if not os.path.isfile(os.path.join(ROOT, "src", "htlab", "cli.py")):
        return _fail(f"no htlab sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    config = write_config(args.workload, args.seed,
                          os.path.join(run_dir, "config"))

    passes, digests = [], None
    failures = {op: [] for op in ops}  # messages, per op
    failed_in = set()  # (op, pass index) executions that failed
    min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_dir = os.path.join(run_dir, f"pass{len(passes)}")
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        result = _run_pass(args.workload, config, pass_dir, traced, remaining)
        if result is None:
            return _fail(f"pass {len(passes)} ended without a result; see "
                         f"{pass_dir}")
        for op, v in result["ops"].items():
            if v["rc"] != 0:
                failed_in.add((op, len(passes)))
                failures[op].append(f"pass {len(passes)}: rc={v['rc']} "
                                    f"{v['error'] or ''}".rstrip())
        pass_digests = _csv_digests(pass_dir, ops)
        if digests is None:
            digests = pass_digests
        else:
            for key in set(digests) | set(pass_digests):
                if digests.get(key) != pass_digests.get(key):
                    failed_in.add((key.split("/")[0], len(passes)))
                    failures[key.split("/")[0]].append(
                        f"pass {len(passes)}: {key} differs from pass 0")
            shutil.rmtree(pass_dir)  # identical to pass 0, or already failed
        passes.append(result)
        elapsed = time.monotonic() - start
        per_pass = max(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + per_pass > args.seconds:
            break
        if elapsed + 2 * per_pass > HARD_LIMIT_S:
            break

    # Oracles and cross-run digests run after every timed region has ended.
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import htlab.cli  # noqa: F401  (loads every htlab module)
    import oracles

    # Every pass wrote the same CSVs as pass 0 (or already failed above), so
    # an op whose pass-0 output fails a check failed in every pass.
    pass0 = os.path.join(run_dir, "pass0")
    bad_output = []
    checked = oracles.check_pass(htlab, spec["kind"], config, pass0, ops)
    for op, errors in checked.items():
        failures[op].extend(errors)
        if errors:
            bad_output.append(op)
    for op in _digest_record(args.workload, args.seed, digests):
        bad_output.append(op)
        failures[op].append("CSV digests differ from an earlier run with "
                            "the same seed and sources")
    failed_in.update((op, i) for op in bad_output for i in range(len(passes)))
    attempted = len(ops) * len(passes)
    failed = len(failed_in)
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    self_test = []
    if args.trace:
        metrics = {m["name"]: {"value": _layer_value(m["name"], traced_passes,
                                                     plain),
                               "unit": m["unit"]}
                   for m in bench["per_layer"]}
        self_test = _self_test(args.workload, traced_passes,
                               bench["per_layer"])
    else:
        metrics = _end_to_end(plain, bench["end_to_end"])

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "environment": _environment(),
        "op_wall_s": _op_walls(plain),
        "wall_setup_s": _median([p["setup_s"] for p in plain]),
        "wall_run_s": _median([_wall_run_s(p) for p in plain]),
        "probe_s": _median([v for p in plain for v in p["probe_s"]]),
        "counts": oracles.file_counts(pass0),
        "trace_counts": (traced_passes[0]["trace"]["counts"]
                         if traced_passes else None),
        "csv_sha256": digests,
        "failed_frac": failed / attempted,
        "failures": {op: e for op, e in failures.items() if e},
        "self_test": self_test,
    }
    record_path = os.path.join(run_dir, "record.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(dict(record, wall_s=time.monotonic() - start, per_pass=[
            {"traced": p["traced"], "setup_s": p["setup_s"],
             "import_s": p["import_s"], "peak_rss_mb": p["peak_rss_mb"],
             "ops": {op: v["seconds"] for op, v in p["ops"].items()},
             "probe_s": p["probe_s"]}
            for p in passes]), fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not self_test,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
