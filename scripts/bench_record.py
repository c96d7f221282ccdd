"""Record one perfbench run of this checkout as BENCH_<label>.json.

    python3 scripts/bench_record.py --label L -- --workload diffusion-cn \
        --seed 11 --seconds 55 --trace 0

Runs `perfbench/run.py` with the arguments after `--`, from the root of the
checkout that holds this script, and passes its stderr through. On success it
writes BENCH_<label>.json at that root with the git commit, whether tracked
files had uncommitted changes, the perfbench arguments, and the
record line and the result line exactly as perfbench printed them. When
perfbench fails it writes nothing and exits with perfbench's code.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv[:split])
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label may hold only letters, digits, '.', '_', '-'")
    bench_args = argv[split + 1:]
    run = subprocess.run([sys.executable, "perfbench/run.py", *bench_args],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) < 2:
        print(f"error: perfbench exited {run.returncode} with "
              f"{len(lines)} stdout lines; nothing written", file=sys.stderr)
        return run.returncode or 1
    out = {"label": args.label,
           "commit": _git("rev-parse", "HEAD"),
           "tree_dirty": bool(_git("status", "--porcelain",
                                        "--untracked-files=no")),
           "perfbench_args": bench_args,
           "record_line": lines[-2],
           "result_line": lines[-1]}
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(lines[-1])
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
