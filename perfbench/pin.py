"""Pin the result digests of the committed seed.

    python3 perfbench/pin.py

Runs every workload on seed 0 for the run length in BENCHMARK.json and
writes, for each query, a digest of its argv and of its canonical result to
perfbench/digests.json.  Later runs of seed 0 fail any query whose result
digest differs.  A run with any failed query is not pinned.  Re-pin only
when a change to the program's output is intended, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_SEED = 0


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    pinned = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(PINNED_SEED), "--seconds", str(seconds), "--trace", "0",
               "--pin-digests"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["failed"]:
            print(f"{workload}: {result['failed']} queries failed; not pinned", file=sys.stderr)
            sys.stderr.write(proc.stderr)
            return 1
        report = json.loads((HERE / "out" / f"{workload}-seed{PINNED_SEED}-trace0.json").read_text())
        pinned[workload] = report["digests"]
        print(f"{workload}: pinned {len(report['digests'])} results")
    data = {"seed": PINNED_SEED, "seconds": seconds, "workloads": pinned}
    (HERE / "digests.json").write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
