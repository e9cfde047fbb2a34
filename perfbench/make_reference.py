"""Regenerate reference.json: the checked output values of the default seed.

    python3 perfbench/make_reference.py

Runs each workload that reports reference values at the default seed and
length, and keeps the values its checks report.  Review the diff before
committing it: later runs of the default seed are compared against it.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

WORKLOADS = ("certify", "leakage", "regions")  # codec ops report no values


def main() -> int:
    values = {}
    for name in WORKLOADS:
        subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", name],
                       cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL)
        record = run.OUT_DIR / f"{name}-seed{run.DEFAULT_SEED}-trace0.json"
        values[name] = json.loads(record.read_text())["worker"]["observed"]
    text = json.dumps({"seed": run.DEFAULT_SEED, "workloads": values}, indent=1,
                      sort_keys=True)
    (run.HERE / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
