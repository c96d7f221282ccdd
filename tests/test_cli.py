"""End-to-end command-line runs against temporary configs and output dirs.

Covers exit codes (0 ok, 2 validation, 3 failed checks), the deterministic
CSV contract (identical reruns are byte-identical), and the presence and
shape of every report file each subcommand promises.
"""

import numpy as np
import pytest

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


def test_malformed_yaml_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("model:\n  kind: jump\n  J0: [[0, 1], [1, 0\n",
                   encoding="utf-8")
    assert main(["model", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert "reason=bad_config" in capsys.readouterr().err


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
], ids=["gamma1", "N", "seed", "J0", "states", "n_paths", "check_seed",
        "tolerance_pde", "times", "tol", "max_iter", "mu0"])
def test_malformed_value_is_a_config_error(tmp_path, capsys, command, old,
                                           new):
    assert old in JUMP_YAML
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(JUMP_YAML.replace(old, new), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert "reason=bad_config" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,reason", [
    ("V: 0.1", "V: abc", "bad_config"),
    ("t: 0.5", "t: soon", "bad_config"),
    ("times: [0.0, 0.5]", "times: [x]", "bad_config"),
    ("n_paths: 2000", "n_paths: many", "bad_config"),
    ("V: 0.1", "V: .inf", "nonfinite_potential"),
], ids=["V", "t", "times", "n_paths", "V_inf"])
def test_malformed_diffusion_value_is_a_config_error(tmp_path, capsys, old,
                                                     new, reason):
    assert old in DIFFUSION_YAML
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(DIFFUSION_YAML.replace(old, new), encoding="utf-8")
    assert main(["diffusion", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 2
    assert f"reason={reason}" in capsys.readouterr().err


@pytest.mark.parametrize("command,edits,reason", [
    ("diffusion", [("n_paths: 2000", "n_paths: 0")], "empty_request"),
    ("diffusion", [("t: 0.5", "t: soon")], "bad_config"),
    ("diffusion", [("t: 0.5", "t: 0.3333"), ("N: 200", "N: 100")],
     "off_grid_time"),
    ("transform", [("tolerance_generator: 1.0e-4",
                    "tolerance_generator: 1.0e-4\n  times: [a]")],
     "bad_config"),
    ("transform", [("tolerance_generator: 1.0e-4",
                    "tolerance_generator: 1.0e-4\n  times: [0.3333]")],
     "off_grid_time"),
], ids=["diffusion_n_paths", "diffusion_t", "diffusion_off_grid_t",
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


@pytest.mark.parametrize("edits,reason", [
    ([("n_paths: 2000", "n_paths: 0")], "empty_request"),
    ([("t: 0.5", "t: 0.3333"), ("N: 200", "N: 100")], "off_grid_time"),
], ids=["n_paths", "off_grid_t"])
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
