"""Steadiness of the end-to-end metrics, and paired parent-versus-change runs.

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --workloads search --seeds 5
    python3 perfbench/steady.py --pairs 10 --parent-src /path/to/parent/src

Steadiness runs each workload once per seed and prints, per end-to-end
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json.  The target is a spread below a third of the bound.

Paired runs use this checkout's benchmark on both sides: the parent side
imports the package from ``--parent-src``, the change side from this
checkout's src/.  Pair i uses seed first-seed + i, and the side that runs
first alternates.  Per metric it prints both sides' medians and quartiles,
how many pairs the change won (ties count for neither), and a verdict:
``gain`` when the change won at least nine tenths of the pairs and the
medians differ by more than the parent's quartile distance, ``regression``
when the change's median is worse than the parent's by more than the bound,
``unresolved`` when the parent's own spread exceeds the bound and not every
change run beats every parent run, and ``no regression`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, src: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if src is not None:
        cmd += ["--src", str(src)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} failed queries", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _worse(metric: dict, change: float, parent: float) -> float:
    """How much worse the change is than the parent, as a share of the parent."""
    delta = (change - parent) / parent
    return delta if metric["better"] == "lower" else -delta


def steadiness(spec: dict, workloads: list[str], seeds: list[int], seconds: int) -> dict:
    table = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        table[workload] = {}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, median, q3 = quartiles(values)
            share = (q3 - q1) / median
            status = ("steady" if share < metric["bound"] / 3
                      else "within bound" if share <= metric["bound"] else "TOO WIDE")
            table[workload][metric["name"]] = {"values": values, "median": median, "q1": q1,
                                               "q3": q3, "spread": share,
                                               "bound": metric["bound"], "status": status}
            print(f"{workload:12s} {metric['name']:14s} median {median:10.4g}  "
                  f"q1 {q1:10.4g}  q3 {q3:10.4g}  spread {share:6.3f}  "
                  f"bound {metric['bound']:.2f}  {status}", flush=True)
    return table


def paired(spec: dict, workloads: list[str], seeds: list[int], seconds: int,
           parent_src: Path) -> dict:
    table = {}
    for workload in workloads:
        sides = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                src = parent_src if side == "parent" else None
                sides[side].append(run_once(workload, seed, seconds, src))
        table[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r[name] for r in sides["parent"]]
            change = [r[name] for r in sides["change"]]
            wins = sum(_worse(metric, c, p) < 0 for c, p in zip(change, parent))
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            all_better = all(_worse(metric, c, p) < 0 for c in change for p in parent)
            if wins >= 0.9 * len(seeds) and _worse(metric, c_med, p_med) < 0 \
                    and abs(c_med - p_med) > p_q3 - p_q1:
                verdict = "gain"
            elif _worse(metric, c_med, p_med) > metric["bound"]:
                verdict = "regression"
            elif (p_q3 - p_q1) / p_med > metric["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "no regression"
            table[workload][name] = {"parent": parent, "change": change, "wins": wins,
                                     "pairs": len(seeds), "verdict": verdict}
            print(f"{workload:12s} {name:14s} parent {p_med:10.4g} [{p_q1:.4g}, {p_q3:.4g}]  "
                  f"change {c_med:10.4g} [{c_q1:.4g}, {c_q3:.4g}]  "
                  f"wins {wins}/{len(seeds)}  {verdict}", flush=True)
    return table


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload")
    parser.add_argument("--pairs", type=int, help="paired runs per workload instead")
    parser.add_argument("--parent-src", type=Path, help="the parent's src/ for paired runs")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if any(w not in names for w in workloads):
        parser.error(f"workloads are {', '.join(names)}")
    if args.pairs:
        if args.parent_src is None:
            parser.error("--pairs needs --parent-src")
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        table = paired(spec, workloads, seeds, args.seconds, args.parent_src.resolve())
        kind = "paired"
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        table = steadiness(spec, workloads, seeds, args.seconds)
        kind = "steady"
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{kind}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"seeds": seeds, "seconds": args.seconds, "table": table},
                               indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
