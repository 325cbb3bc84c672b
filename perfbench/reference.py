"""Record the reference digest of every benchmark command's stdout.

Usage, from the root of a checkout of the reference commit:

    python3 perfbench/reference.py

Each command runs as `python -m realbott.cli ...` and must exit 0 without a
traceback; `reference.json` maps the command to the sha256 of its stdout
(`verify`'s elapsed time masked).  The CLI's output is meant to stay the
same byte for byte, so the file is written once and changed only when an
output change is intended.
"""

import json
import subprocess
import sys

from run import FAMILY, REFERENCE, ROOT, SETUP, WORKLOADS, child_env, stdout_digest


def main() -> None:
    env = child_env()
    commands = [SETUP, *(c for cs in WORKLOADS.values() for c in cs), *FAMILY]
    reference = {}
    for command in dict.fromkeys(commands):
        proc = subprocess.run(
            [sys.executable, "-m", "realbott.cli", *command.split()],
            capture_output=True, cwd=ROOT, env=env, check=True,
        )
        if b"Traceback" in proc.stderr:
            raise SystemExit(f"{command}: traceback on stderr")
        reference[command] = stdout_digest(command, proc.stdout)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
