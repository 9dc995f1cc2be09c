"""Write cli_reference.json: the stdout of every workload's CLI commands.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose outputs are the
reference. run.py compares each CLI run's JSON with it (numbers within
1e-9) and reports whether the bytes are identical (sha256).
"""
import hashlib
import json
import os
import sys

import run
import workloads


def main() -> int:
    ref = {}
    with run.scratch_dir() as workdir:
        for w in workloads.WORKLOADS.values():
            for args in w.cli:
                _, proc = run.run_cli(args, workdir)
                if proc.returncode != 0:
                    print(proc.stderr.decode(), file=sys.stderr)
                    return 1
                ref[" ".join(args)] = {
                    "sha256": hashlib.sha256(proc.stdout).hexdigest(),
                    "stdout": json.loads(proc.stdout)}
    with open(os.path.join(run.HERE, "cli_reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
