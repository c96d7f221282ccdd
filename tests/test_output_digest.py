"""The listing format of scripts/output_digest.py, without running htlab."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
    "output_digest.py"


@pytest.fixture
def output_digest(monkeypatch):
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "COMMANDS", ("fk", "hjb"))
    monkeypatch.setattr(module, "digest", lambda command, config: [
        f"{command} exit 0", f"{command} from {pathlib.Path(config).name}"])
    return module


def test_each_line_starts_with_its_configs_file_name(output_digest, capsys):
    assert output_digest.main(["--config", "a/run.yaml",
                               "--config", "b/diff.yaml"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "run.yaml fk exit 0", "run.yaml fk from run.yaml",
        "run.yaml hjb exit 0", "run.yaml hjb from run.yaml",
        "diff.yaml fk exit 0", "diff.yaml fk from diff.yaml",
        "diff.yaml hjb exit 0", "diff.yaml hjb from diff.yaml"]


def test_configs_with_one_file_name_are_rejected(output_digest, capsys):
    with pytest.raises(SystemExit) as info:
        output_digest.main(["--config", "a/run.yaml", "--config",
                            "b/run.yaml"])
    assert info.value.code == 2
    assert "file names must differ" in capsys.readouterr().err
