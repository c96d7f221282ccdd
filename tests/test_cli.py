"""End-to-end command-line runs against temporary configs and output dirs.

Covers exit codes (0 ok, 2 validation, 3 failed checks), the deterministic
CSV contract (identical reruns are byte-identical), and the presence and
shape of every report file each subcommand promises.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import htlab
from htlab import diffusion1d
from htlab.cli import main

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
  N: 200
checks:
  tolerance_pde: 1.0e-4
  tolerance_generator: 1.0e-4
bridge:
  mu0: [0.5, 0.3, 0.2]
  mu1: [0.2, 0.2, 0.6]
sampling:
  seed: 7
  n_paths: 50
"""

DIFFUSION_YAML = """
model:
  kind: diffusion
  x_min: -2.0
  x_max: 2.0
  M: 64
  U: 0.0
transform:
  gamma1:
    gaussian: {center: 0.5, width: 0.6}
  V: 0.1
grid:
  N: 200
checks:
  times: [0.0, 0.5]
sampling:
  seed: 3
  n_paths: 2000
  t: 0.5
"""


@pytest.fixture
def jump_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(JUMP_YAML, encoding="utf-8")
    return str(path)


@pytest.fixture
def diffusion_config(tmp_path):
    path = tmp_path / "diff.yaml"
    path.write_text(DIFFUSION_YAML, encoding="utf-8")
    return str(path)


def run(command, config, out):
    return main([command, "--config", config, "--out", str(out)])


def test_model_summary(jump_config, tmp_path):
    assert run("model", jump_config, tmp_path / "out") == 0
    text = (tmp_path / "out" / "model_summary.txt").read_text()
    assert "kind=jump states=3" in text
    assert "labels=a,b,c" in text
    assert "irreducible=yes" in text


def test_model_rejects_unbalanced_kernel(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("model:\n  kind: jump\n"
                   "  J0: [[0.0, 1.0], [2.0, 0.0]]\n"
                   "  m0: [0.5, 0.5]\n", encoding="utf-8")
    assert main(["model", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert "reason=detailed_balance_violation" in capsys.readouterr().err


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_nonfinite_jump_potential_is_a_bad_potential(tmp_path, capsys,
                                                      value):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(JUMP_YAML.replace("U: [0.0, 0.3, -0.2]",
                                     f"U: [{value}, 0.3, -0.2]"),
                   encoding="utf-8")
    assert run("model", str(cfg), tmp_path / "out") == 2
    assert "reason=bad_potential" in capsys.readouterr().err


def test_fk_csv_layout(jump_config, tmp_path):
    assert run("fk", jump_config, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "fk.csv").read_text().splitlines()
    assert lines[0] == "# grid_N=200"
    assert lines[1] == "t,state,g,f"
    assert len(lines) == 2 + 201 * 3


def test_transform_outputs(jump_config, tmp_path):
    assert run("transform", jump_config, tmp_path / "out") == 0
    out = tmp_path / "out"
    assert (out / "marginals.csv").exists()
    assert (out / "kernel.csv").exists()
    summary = (out / "transform_summary.txt").read_text()
    assert "normalization_c=" in summary
    assert "relative_entropy=" in summary
    assert summary.splitlines()[2:] == ["p=2.0",
                                        "f0_integral=6.984351e-01",
                                        "gamma1_integral=0.000000e+00",
                                        "verdict=satisfied (finite space)"]
    # marginals at each node sum to one
    rows = (out / "marginals.csv").read_text().splitlines()[2:]
    total = sum(float(r.split(",")[2]) for r in rows)
    assert total == pytest.approx(201.0, abs=1e-9)


GRID = "# grid_N=200\n"
DIFFUSION_HEAD = GRID + "# M=64\nt,x,value\n"

# Preamble and header of every CSV each subcommand writes.
CSV_HEADS = {
    "fk": {"fk.csv": GRID + "t,state,g,f\n"},
    "transform": {"kernel.csv": GRID + "t,from,to,rate\n",
                  "marginals.csv": GRID + "t,state,p\n"},
    "hjb": {"hjb.csv": GRID + "t,state,residual_exponential,residual_log\n"},
    "bridge": {"bridge_convergence.csv": "# tol=1e-10\niteration,error\n",
               "bridge_multipliers.csv": "state,f0,gamma1\n"},
    "sample": {"paths.csv": "# process=P\n# seed=7\n# n_paths=50\n"
                            "path_id,time,state\n"},
    "diffusion": {"diffusion_drift.csv": DIFFUSION_HEAD,
                  "diffusion_f.csv": DIFFUSION_HEAD,
                  "diffusion_g.csv": DIFFUSION_HEAD},
}


@pytest.mark.parametrize("command", list(CSV_HEADS))
def test_reruns_are_byte_identical(command, request, tmp_path):
    """Every CSV keeps its preamble and header and is identical on rerun."""
    config = request.getfixturevalue(
        "diffusion_config" if command == "diffusion" else "jump_config")
    assert run(command, config, tmp_path / "a") == 0
    assert run(command, config, tmp_path / "b") == 0
    heads = CSV_HEADS[command]
    assert sorted(p.name for p in (tmp_path / "a").glob("*.csv")) == \
        sorted(heads)
    for name, head in heads.items():
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()
        assert a.decode().startswith(head)


@pytest.mark.parametrize("process", ["P", "R"])
def test_paths_csv_holds_each_start_then_its_jumps(tmp_path, monkeypatch,
                                                  process):
    """paths.csv has, for each path of the sampled batch in turn, one
    (path_id, 0.0, x0) row and then one row per jump, also for runs of
    paths with no jump."""
    batches = []

    def keep(sample):
        return lambda *args: batches.append(sample(*args)) or batches[-1]

    monkeypatch.setattr(htlab.h_transform, "sample_paths_P",
                        keep(htlab.h_transform.sample_paths_P))
    monkeypatch.setattr(htlab.cli, "sample_paths_R",
                        keep(htlab.cli.sample_paths_R))
    cfg = tmp_path / "run.yaml"
    cfg.write_text(JUMP_YAML.replace("n_paths: 50",
                                     f"n_paths: 50\n  process: {process}"),
                   encoding="utf-8")
    assert run("sample", str(cfg), tmp_path / "out") == 0
    [paths] = batches
    expected = [(i, t, x) for i, p in enumerate(paths)
                for t, x in zip([0.0, *p.times.tolist()],
                                [p.x0, *p.states.tolist()])]
    lines = (tmp_path / "out" / "paths.csv").read_text().splitlines()
    assert lines[3] == "path_id,time,state"
    rows = [(int(i), float(t), int(x))
            for i, t, x in (line.split(",") for line in lines[4:])]
    assert rows == expected
    still = np.diff(paths.offsets) == 0
    assert np.any(still[1:] & still[:-1]) and not still.all()


def test_sample_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "noseed.yaml"
    cfg.write_text(JUMP_YAML.replace("  seed: 7\n", ""), encoding="utf-8")
    assert main(["sample", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert "reason=missing_seed" in capsys.readouterr().err


def test_check_passes(jump_config, tmp_path, capsys):
    assert run("check", jump_config, tmp_path / "out") == 0
    stdout = capsys.readouterr().out
    for name in ("semigroup_identity", "backward_equation_residual",
                 "transformed_generator_identity", "holder_inequality",
                 "integrability_hypotheses"):
        assert f"PASS {name}" in stdout
    assert "FAIL" not in stdout
    assert (tmp_path / "out" / "check_report.txt").exists()


def test_check_fails_beyond_tolerance(tmp_path, capsys):
    cfg = tmp_path / "tight.yaml"
    cfg.write_text(JUMP_YAML.replace("tolerance_pde: 1.0e-4",
                                     "tolerance_pde: 1.0e-30"),
                   encoding="utf-8")
    assert main(["check", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert "FAIL backward_equation_residual" in captured.out
    assert "reason=check_failure" in captured.err


def test_hjb_outputs(jump_config, tmp_path):
    assert run("hjb", jump_config, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "hjb.csv").read_text().splitlines()
    assert lines[1] == "t,state,residual_exponential,residual_log"
    summary = (tmp_path / "out" / "hjb_summary.txt").read_text()
    assert "time_term=exponential" in summary
    assert "time_term=log" in summary


def test_bridge_outputs(jump_config, tmp_path):
    assert run("bridge", jump_config, tmp_path / "out") == 0
    out = tmp_path / "out"
    assert (out / "bridge_convergence.csv").exists()
    assert (out / "bridge_multipliers.csv").exists()
    summary = (out / "bridge_summary.txt").read_text()
    assert "iterations=" in summary
    assert "support_restricted=False" in summary


def test_bridge_requires_marginals(tmp_path, capsys):
    cfg = tmp_path / "nomu.yaml"
    cfg.write_text(JUMP_YAML.replace("  mu0: [0.5, 0.3, 0.2]\n", "")
                   .replace("  mu1: [0.2, 0.2, 0.6]\n", ""),
                   encoding="utf-8")
    assert main(["bridge", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert "reason=bad_config" in capsys.readouterr().err


def test_report_includes_bridge(jump_config, tmp_path, capsys):
    assert run("report", jump_config, tmp_path / "out") == 0
    assert "PASS bridge_convergence" in capsys.readouterr().out
    assert (tmp_path / "out" / "report.txt").exists()


def test_diffusion_outputs(diffusion_config, tmp_path):
    assert run("diffusion", diffusion_config, tmp_path / "out") == 0
    out = tmp_path / "out"
    for name in ("diffusion_g.csv", "diffusion_f.csv", "diffusion_drift.csv"):
        assert (out / name).exists()
    summary = (out / "diffusion_summary.txt").read_text()
    assert "normalization_c=" in summary
    assert "clipped_nodes=" in summary
    assert "empirical_tv=" in summary


def test_diffusion_resumes_the_forward_sweep_once(diffusion_config, tmp_path,
                                                  monkeypatch):
    """The sampled row t = 0.5 (node 100 of N = 200) is also a CSV row; its
    f is resumed once from stored node 64, for the CSV and the sampled
    marginal together."""
    sweeps = []
    forward = diffusion1d._forward_steps

    def spy(model, Vg, f, dt):
        sweeps.append(len(Vg))
        return forward(model, Vg, f, dt)
    monkeypatch.setattr(diffusion1d, "_forward_steps", spy)
    assert run("diffusion", diffusion_config, tmp_path / "out") == 0
    # stored rows (node 0 of the CSV and of the initial law) take no sweep
    assert sweeps == [201, 37]  # all rows, 64..100


def test_diffusion_path_on_a_masked_drift_fails(tmp_path, capsys):
    """A steep potential on a coarse step clips g to zero near the terminal
    peak, and a path that reaches the masked drift there stops the run with
    masked_drift before any output is written. The message names the
    clipped node count, the cause of the masked drift."""
    U = (5.0 * np.linspace(-2.0, 2.0, 65) ** 2).tolist()
    cfg = tmp_path / "masked.yaml"
    cfg.write_text(f"""
model: {{kind: diffusion, x_min: -2.0, x_max: 2.0, M: 64, U: {U}}}
transform:
  gamma1:
    gaussian: {{center: 1.0, width: 0.05}}
  V: 0.0
grid:
  N: 20
sampling:
  seed: 3
  n_paths: 2000
  t: 0.5
""", encoding="utf-8")
    out = tmp_path / "out"
    assert run("diffusion", str(cfg), out) == 2
    err = capsys.readouterr().err
    assert "reason=masked_drift" in err and "clipped_nodes=218" in err
    assert not out.exists()


@pytest.mark.parametrize("n_paths", ["0", "-5"])
def test_diffusion_empty_path_count_is_rejected(tmp_path, capsys, n_paths):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text(DIFFUSION_YAML.replace("n_paths: 2000",
                                          f"n_paths: {n_paths}"),
                   encoding="utf-8")
    assert main(["diffusion", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert "reason=empty_request" in capsys.readouterr().err


def test_wrong_model_kind(diffusion_config, tmp_path, capsys):
    assert run("fk", diffusion_config, tmp_path / "out") == 2
    assert "reason=wrong_model_kind" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["model", "--config", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "reason=missing_file" in capsys.readouterr().err


# Run in a fresh interpreter, because this one already holds scipy and
# may hold numpy.ma.
SCIPY_PROBE = """
import json, sys
from htlab import diffusion1d
from htlab.cli import main
from htlab.config import build_model_from_config, load_config
jump, diffusion, out = sys.argv[1:]
codes = [main([command, "--config", jump, "--out", out])
         for command in ("model", "fk", "transform", "check", "hjb",
                         "bridge", "sample")]
after_jump = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
numpy_ma = "numpy.ma" in sys.modules
build_model_from_config(load_config(diffusion))
lapack = diffusion1d._lapack()
print(json.dumps({"codes": codes, "after_jump": after_jump,
                  "numpy_ma": numpy_ma,
                  "scipy_linalg": "scipy.linalg" in sys.modules,
                  "routines": [callable(getattr(lapack, name, None))
                               for name in ("dgtsv", "dgttrf", "dgttrs")]}))
"""


def test_jump_subcommands_never_load_scipy(jump_config, diffusion_config,
                                           tmp_path):
    """scipy's LAPACK extension loads when a diffusion model is built, and
    only then, without scipy.linalg. The jump subcommands never load
    numpy.ma either: the generator checks take their median without
    np.median, whose first call imports it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(htlab.__file__)))
    probe = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, jump_config, diffusion_config,
         str(tmp_path / "out")], capture_output=True, text=True, check=True,
        timeout=300, env={**os.environ, "PYTHONPATH": src})
    result = json.loads(probe.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 7
    assert result["after_jump"] == []
    assert not result["numpy_ma"]
    assert not result["scipy_linalg"]
    assert result["routines"] == [True] * 3


DIFFUSION_PROBE = """
import json, sys
from htlab import diffusion1d
from htlab.cli import main
diffusion, out = sys.argv[1:]
code = main(["diffusion", "--config", diffusion, "--out", out])
scipy_linalg = "scipy.linalg" in sys.modules
from scipy.linalg import lapack
same = [getattr(diffusion1d._lapack(), name) is getattr(lapack, name)
        for name in ("dgtsv", "dgttrf", "dgttrs")]
print(json.dumps({"code": code, "scipy_linalg": scipy_linalg,
                  "same": same}))
"""


def test_diffusion_runs_without_scipy_linalg(diffusion_config, tmp_path):
    """`htlab diffusion` in a fresh interpreter leaves scipy.linalg
    unloaded, and the LAPACK routines it loaded first are the very objects
    scipy.linalg.lapack holds once it is imported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(htlab.__file__)))
    probe = subprocess.run(
        [sys.executable, "-c", DIFFUSION_PROBE, diffusion_config,
         str(tmp_path / "out")], capture_output=True, text=True, check=True,
        timeout=300, env={**os.environ, "PYTHONPATH": src})
    result = json.loads(probe.stdout.splitlines()[-1])
    assert result == {"code": 0, "scipy_linalg": False, "same": [True] * 3}


def test_malformed_yaml_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("model:\n  kind: jump\n  J0: [[0, 1], [1, 0\n",
                   encoding="utf-8")
    assert main(["model", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert "reason=bad_config" in capsys.readouterr().err


# YAML constructors that raise ValueError, on an explicit tag or on an
# implicit timestamp: the value is named with its line, unless the YAML
# after it does not parse.
@pytest.mark.parametrize("value,tail,message", [
    ("!!int abc", "", "config value cannot be read: line 12: 'abc': "
     "invalid literal for int()"),
    ("!!float x", "", "config value cannot be read: line 12: 'x': "
     "could not convert string to float"),
    ("2001-13-45", "", "config value cannot be read: line 12: '2001-13-45': "
     "month must be in 1..12"),
    ("2001-13-45", "extra: [1, 2\n", "config is not valid YAML: "),
], ids=["int_tag", "float_tag", "timestamp", "timestamp_then_bad_yaml"])
def test_unconstructible_value_is_a_config_error(tmp_path, capsys, value,
                                                 tail, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(JUMP_YAML.replace("N: 200", f"N: {value}") + tail,
                   encoding="utf-8")
    assert main(["model", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "reason=bad_config" in err
    assert message in err


@pytest.mark.parametrize("command,old,new", [
    ("fk", "gamma1: [0.5, 1.0, 0.8]", "gamma1: abc"),
    ("fk", "N: 200", "N: many"),
    ("sample", "seed: 7", "seed: x"),
    ("model", "J0: [[0.0, 0.3, 0.3], [0.3, 0.0, 0.3], [0.3, 0.3, 0.0]]",
     "J0: [[0, 1], [1]]"),
    ("model", "states: [a, b, c]", "states: 5"),
    ("sample", "n_paths: 50", "n_paths: [1]"),
    ("check", "seed: 7", "seed: x"),
    ("check", "tolerance_pde: 1.0e-4", "tolerance_pde: abc"),
    ("check", "tolerance_generator: 1.0e-4",
     "tolerance_generator: 1.0e-4\n  times: [a]"),
    ("bridge", "mu1: [0.2, 0.2, 0.6]", "mu1: [0.2, 0.2, 0.6]\n  tol: abc"),
    ("bridge", "mu1: [0.2, 0.2, 0.6]",
     "mu1: [0.2, 0.2, 0.6]\n  max_iter: lots"),
    ("bridge", "mu0: [0.5, 0.3, 0.2]", "mu0: abc"),
    ("fk", "N: 200", "N: .inf"),
    ("sample", "n_paths: 50", "n_paths: .inf"),
    ("bridge", "mu1: [0.2, 0.2, 0.6]",
     "mu1: [0.2, 0.2, 0.6]\n  max_iter: .inf"),
], ids=["gamma1", "N", "seed", "J0", "states", "n_paths", "check_seed",
        "tolerance_pde", "times", "tol", "max_iter", "mu0", "N_inf",
        "n_paths_inf", "max_iter_inf"])
def test_malformed_value_is_a_config_error(tmp_path, capsys, command, old,
                                           new):
    assert old in JUMP_YAML
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(JUMP_YAML.replace(old, new), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert "reason=bad_config" in capsys.readouterr().err


@pytest.mark.parametrize("text,old,new,key", [
    (JUMP_YAML, "  U: [0.0, 0.3, -0.2]", "  Uu: [0.0, 0.3, -0.2]", "Uu"),
    (JUMP_YAML, "  V: 0.2", "  V: 0.2\n  bogus: 1", "bogus"),
    (JUMP_YAML, "  V: 0.2", "  V: 0.2\n  lo: -3", "lo"),
    (JUMP_YAML, "  N: 200", "  M: 200", "M"),
    (JUMP_YAML, "  tolerance_pde:", "  tolerance_pd:", "tolerance_pd"),
    (JUMP_YAML, "  seed: 7", "  sead: 7", "sead"),
    (JUMP_YAML, "  mu1: [0.2, 0.2, 0.6]", "  mu1: [0.2, 0.2, 0.6]\n  maxiter: 5",
     "maxiter"),
    (DIFFUSION_YAML, "  M: 64", "  M: 64\n  J0: 1.0", "J0"),
    (DIFFUSION_YAML, "  U: 0.0",
     "  U: {gaussian: {center: 0.0, width: 1.0, hieght: 2.0}}", "hieght"),
], ids=["model", "transform", "transform_lo", "grid", "checks", "sampling",
        "bridge", "diffusion_model", "gaussian"])
def test_unknown_key_is_a_config_error(tmp_path, capsys, text, old, new, key):
    assert old in text
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["model", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "reason=bad_config" in err
    assert f"'{key}'" in err


@pytest.mark.parametrize("old,new,reason", [
    ("V: 0.1", "V: abc", "bad_config"),
    ("t: 0.5", "t: soon", "bad_config"),
    ("times: [0.0, 0.5]", "times: [x]", "bad_config"),
    ("n_paths: 2000", "n_paths: many", "bad_config"),
    ("V: 0.1", "V: .inf", "nonfinite_potential"),
    ("N: 200", "N: .inf", "bad_config"),
    ("seed: 3", "seed: -1", "bad_config: sampling.seed"),
], ids=["V", "t", "times", "n_paths", "V_inf", "N_inf", "negative_seed"])
def test_malformed_diffusion_value_is_a_config_error(tmp_path, capsys, old,
                                                     new, reason):
    assert old in DIFFUSION_YAML
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(DIFFUSION_YAML.replace(old, new), encoding="utf-8")
    assert main(["diffusion", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert f"reason={reason}" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,old,new,key,value", [
    ("fk", JUMP_YAML, "N: 200", "N: 200.7", "grid.N", "200.7"),
    ("fk", JUMP_YAML, "N: 200", "N: true", "grid.N", "True"),
    ("diffusion", DIFFUSION_YAML, "M: 64", "M: 16.5", "M", "16.5"),
    ("sample", JUMP_YAML, "n_paths: 50", "n_paths: 200.9",
     "sampling.n_paths", "200.9"),
    ("diffusion", DIFFUSION_YAML, "n_paths: 2000", "n_paths: 200.9",
     "sampling.n_paths", "200.9"),
    ("sample", JUMP_YAML, "seed: 7", "seed: 7.5", "sampling.seed", "7.5"),
    ("check", JUMP_YAML, "seed: 7", "seed: 7.5", "sampling.seed", "7.5"),
    ("bridge", JUMP_YAML, "mu1: [0.2, 0.2, 0.6]",
     "mu1: [0.2, 0.2, 0.6]\n  max_iter: 10.5", "bridge.max_iter", "10.5"),
], ids=["N", "N_bool", "M", "n_paths", "diffusion_n_paths", "seed",
        "check_seed", "max_iter"])
def test_integer_setting_is_not_truncated(tmp_path, capsys, command, text,
                                          old, new, key, value):
    """A fractional or boolean integer setting is a config error naming
    the key and the value, not a run with the value cut to an int."""
    assert old in text
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    assert run(command, str(cfg), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "reason=bad_config" in err
    assert f"{key}: expected an integer, got {value}" in err
    assert not (tmp_path / "out").exists()


def test_integral_float_setting_reads_as_its_int(tmp_path):
    whole = tmp_path / "whole.yaml"
    whole.write_text(JUMP_YAML.replace("N: 200", "N: 200.0")
                     .replace("n_paths: 50", "n_paths: 50.0"),
                     encoding="utf-8")
    plain = tmp_path / "plain.yaml"
    plain.write_text(JUMP_YAML, encoding="utf-8")
    for command, name in (("fk", "fk.csv"), ("sample", "paths.csv")):
        assert run(command, str(whole), tmp_path / "a") == 0
        assert run(command, str(plain), tmp_path / "b") == 0
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("old,new,reason", [
    ("x_max: 2.0", "x_max: .inf", "bad_domain"),
    ("x_min: -2.0", "x_min: -.inf", "bad_domain"),
    ("x_min: -2.0\n  x_max: 2.0", "x_min: -1.0e308\n  x_max: 1.0e308",
     "bad_domain"),
    ("x_min: -2.0", "x_min: .nan", "bad_domain"),
    ("M: 64", "M: -5", "grid_too_coarse"),
], ids=["x_max_inf", "x_min_inf", "width_overflows", "x_min_nan", "M_neg"])
def test_unusable_diffusion_window_fails_before_the_grid(tmp_path, capsys,
                                                         old, new, reason):
    """The window is checked before the node grid is built, so no numpy
    warning or error comes first."""
    assert old in DIFFUSION_YAML
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(DIFFUSION_YAML.replace(old, new), encoding="utf-8")
    assert run("diffusion", str(cfg), tmp_path / "out") == 2
    assert f"reason={reason}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [".nan", ".inf"])
@pytest.mark.parametrize("command,old,new", [
    ("transform", "tolerance_generator: 1.0e-4",
     "tolerance_generator: 1.0e-4\n  times: [{}]"),
    ("check", "tolerance_generator: 1.0e-4",
     "tolerance_generator: 1.0e-4\n  times: [{}]"),
    ("report", "tolerance_generator: 1.0e-4",
     "tolerance_generator: 1.0e-4\n  times: [{}]"),
    ("diffusion", "times: [0.0, 0.5]", "times: [{}]"),
    ("diffusion", "t: 0.5", "t: {}"),
], ids=["transform_times", "check_times", "report_times", "diffusion_times",
        "diffusion_t"])
def test_nonfinite_time_is_off_grid(tmp_path, capsys, command, old, new,
                                    value):
    text = DIFFUSION_YAML if command == "diffusion" else JUMP_YAML
    assert old in text
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text.replace(old, new.format(value)), encoding="utf-8")
    assert run(command, str(cfg), tmp_path / "out") == 2
    assert "reason=off_grid_time" in capsys.readouterr().err


@pytest.mark.parametrize("command,old,new,reason", [
    ("transform", "tolerance_pde: 1.0e-4",
     "tolerance_pde: 1.0e-4\n  times: [0.123]", "off_grid_time"),
    ("check", "tolerance_pde: 1.0e-4", "tolerance_pde: .nan", "bad_config"),
    ("check", "seed: 7", "seed: abc", "bad_config"),
    ("check", "tolerance_pde: 1.0e-4",
     "tolerance_pde: 1.0e-4\n  times: [0.123]", "off_grid_time"),
    ("report", "tolerance_generator: 1.0e-4", "tolerance_generator: 0.0",
     "bad_config"),
    ("report", "mu1: [0.2, 0.2, 0.6]", "mu1: [0.2, 0.2, 0.6]\n  tol: .nan",
     "bad_config"),
    ("report", "mu1: [0.2, 0.2, 0.6]",
     "mu1: [0.2, 0.2, 0.6]\n  max_iter: many", "bad_config"),
    ("bridge", "mu1: [0.2, 0.2, 0.6]",
     "mu1: [0.2, 0.2, 0.6]\n  max_iter: many", "bad_config"),
    ("sample", "seed: 7", "seed: -1", "bad_config: sampling.seed"),
    ("check", "seed: 7", "seed: -1", "bad_config: sampling.seed"),
    ("report", "seed: 7", "seed: -1", "bad_config: sampling.seed"),
    ("bridge", "mu1: [0.2, 0.2, 0.6]", "mu1: [0.2, 0.2, 0.6]\n  max_iter: 0",
     "bad_config: bridge.max_iter"),
    ("bridge", "mu1: [0.2, 0.2, 0.6]", "mu1: [0.2, 0.2, 0.6]\n  max_iter: -5",
     "bad_config: bridge.max_iter"),
    ("report", "mu1: [0.2, 0.2, 0.6]", "mu1: [0.2, 0.2, 0.6]\n  max_iter: 0",
     "bad_config: bridge.max_iter"),
    ("report", "mu1: [0.2, 0.2, 0.6]", "mu1: [0.2, 0.2, 0.6]\n  max_iter: -5",
     "bad_config: bridge.max_iter"),
    ("sample", "n_paths: 50", "n_paths: 0", "empty_request"),
], ids=["transform_off_grid", "check_tolerance", "check_seed",
        "check_off_grid", "report_tolerance", "report_bridge_tol",
        "report_max_iter", "bridge_max_iter", "sample_negative_seed",
        "check_negative_seed", "report_negative_seed", "bridge_max_iter_0",
        "bridge_max_iter_negative", "report_max_iter_0",
        "report_max_iter_negative", "sample_no_paths"])
def test_bad_setting_fails_before_anything_is_built(tmp_path, capsys,
                                                    monkeypatch, command, old,
                                                    new, reason):
    """Scalar settings (times, tolerances, seed, bridge limits, path count)
    are read and checked before the h-process or the bridge problem is
    built."""
    def forbidden(*args, **kwargs):
        raise AssertionError("built before the settings were checked")

    monkeypatch.setattr(htlab.h_transform, "build_h_process", forbidden)
    monkeypatch.setattr(htlab.bridge, "build_bridge_problem", forbidden)
    assert old in JUMP_YAML
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(JUMP_YAML.replace(old, new), encoding="utf-8")
    assert run(command, str(cfg), tmp_path / "out") == 2
    assert f"reason={reason}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [".nan", ".inf", "-1.0e-6", "0.0"])
@pytest.mark.parametrize("command,old,new", [
    ("check", "tolerance_pde: 1.0e-4",
     "tolerance_pde: 1.0e-4\n  tolerance_semigroup: {}"),
    ("check", "tolerance_pde: 1.0e-4", "tolerance_pde: {}"),
    ("check", "tolerance_generator: 1.0e-4", "tolerance_generator: {}"),
    ("bridge", "mu1: [0.2, 0.2, 0.6]", "mu1: [0.2, 0.2, 0.6]\n  tol: {}"),
], ids=["tolerance_semigroup", "tolerance_pde", "tolerance_generator",
        "bridge_tol"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, command, old,
                                               new, value):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(JUMP_YAML.replace(old, new.format(value)),
                   encoding="utf-8")
    assert run(command, str(cfg), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "reason=bad_config" in err
    assert "tolerance must be finite and > 0" in err


@pytest.mark.parametrize("weight,reason", [("gamma1", "bad_terminal"),
                                           ("f0", "bad_initial")])
@pytest.mark.parametrize("value", [".nan", ".inf"])
def test_nonfinite_diffusion_weight_is_rejected(tmp_path, capsys, weight,
                                                reason, value):
    """A NaN or infinite weight entry is named as a bad weight, not as a
    Crank-Nicolson failure or a transform without mass."""
    entries = ["1.0"] * 17
    entries[8] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"""
model: {{kind: diffusion, x_min: -2.0, x_max: 2.0, M: 16, U: 0.0}}
transform:
  {weight}: [{", ".join(entries)}]
  V: 0.1
grid:
  N: 20
""", encoding="utf-8")
    assert main(["diffusion", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert f"reason={reason}:" in capsys.readouterr().err


@pytest.mark.parametrize("command,edits,reason", [
    ("diffusion", [("n_paths: 2000", "n_paths: 0")], "empty_request"),
    ("diffusion", [("t: 0.5", "t: soon")], "bad_config"),
    ("diffusion", [("  seed: 3\n", "")], "missing_seed"),
    ("diffusion", [("t: 0.5", "t: 0.3333"), ("N: 200", "N: 100")],
     "off_grid_time"),
    ("transform", [("tolerance_generator: 1.0e-4",
                    "tolerance_generator: 1.0e-4\n  times: [a]")],
     "bad_config"),
    ("transform", [("tolerance_generator: 1.0e-4",
                    "tolerance_generator: 1.0e-4\n  times: [0.3333]")],
     "off_grid_time"),
], ids=["diffusion_n_paths", "diffusion_t", "diffusion_seed",
        "diffusion_off_grid_t",
        "transform_times", "transform_off_grid_times"])
def test_failed_run_writes_no_outputs(tmp_path, capsys, command, edits,
                                      reason):
    text = DIFFUSION_YAML if command == "diffusion" else JUMP_YAML
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run(command, str(cfg), out) == 2
    assert f"reason={reason}" in capsys.readouterr().err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command", ["transform", "check", "report",
                                     "diffusion"])
def test_empty_check_times_is_a_config_error(tmp_path, capsys, command):
    """An empty checks.times is refused, not read as a check of nothing
    that passes."""
    if command == "diffusion":
        text = DIFFUSION_YAML.replace("times: [0.0, 0.5]", "times: []")
    else:
        text = JUMP_YAML.replace("tolerance_generator: 1.0e-4",
                                 "tolerance_generator: 1.0e-4\n  times: []")
    assert "times: []" in text
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run(command, str(cfg), out) == 2
    captured = capsys.readouterr()
    assert "reason=bad_config" in captured.err
    assert "checks.times: need at least one time" in captured.err
    assert "PASS" not in captured.out
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("edits,reason", [
    ([("n_paths: 2000", "n_paths: 0")], "empty_request"),
    ([("t: 0.5", "t: 0.3333"), ("N: 200", "N: 100")], "off_grid_time"),
    ([("  seed: 3\n", "")], "missing_seed"),
], ids=["n_paths", "off_grid_t", "seed"])
def test_bad_diffusion_sampling_is_rejected_before_the_solve(
        tmp_path, capsys, monkeypatch, edits, reason):
    text = DIFFUSION_YAML
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text, encoding="utf-8")
    builds = []
    original = diffusion1d.build_diffusion_transform

    def counting(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(diffusion1d, "build_diffusion_transform", counting)
    assert run("diffusion", str(cfg), tmp_path / "out") == 2
    assert f"reason={reason}" in capsys.readouterr().err
    assert builds == []
