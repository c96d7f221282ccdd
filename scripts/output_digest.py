"""Print the sha256 of everything each htlab subcommand produces on configs.

    python3 scripts/output_digest.py --config run.yaml [--config diff.yaml ...]

For each config in turn, runs each of the nine subcommands once, as a fresh
interpreter that imports htlab from the `src/` of the checkout holding this
script, with `--out out` in its own empty working directory. For each
subcommand it prints one line for the exit code, one for stdout, one for
stderr, and one for every file written under `out/`, sorted by path, each
line starting with the config's file name:

    run.yaml fk exit 0
    run.yaml fk stdout <sha256>
    run.yaml fk stderr <sha256>
    run.yaml fk out/fk.csv <sha256>

Two checkouts give the same listing exactly when their outputs are
byte-identical, so comparing them is one `diff`. The configs' file names
must differ. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("model", "fk", "transform", "check", "hjb", "bridge", "sample",
            "diffusion", "report")
RUN = "import sys; from htlab.cli import main; sys.exit(main(sys.argv[1:]))"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(command: str, config: str) -> list[str]:
    """The listing lines of one subcommand run on one config."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    with tempfile.TemporaryDirectory() as work:
        run = subprocess.run([sys.executable, "-c", RUN, command, "--config",
                              config, "--out", "out"], cwd=work, env=env,
                             capture_output=True)
        lines = [f"{command} exit {run.returncode}",
                 f"{command} stdout {_sha256(run.stdout)}",
                 f"{command} stderr {_sha256(run.stderr)}"]
        files = []
        for folder, _, names in os.walk(os.path.join(work, "out")):
            files += [os.path.join(folder, name) for name in names]
        for path in sorted(files):
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, work).replace(os.sep, "/")
            lines.append(f"{command} {rel} {_sha256(data)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", required=True, action="append",
                        help="YAML run config; repeat for more configs")
    args = parser.parse_args(argv)
    names = [os.path.basename(config) for config in args.config]
    if len(set(names)) != len(names):
        parser.error("the configs' file names must differ")
    for name, config in zip(names, args.config):
        config = os.path.abspath(config)
        for command in COMMANDS:
            print("\n".join(f"{name} {line}"
                            for line in digest(command, config)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
