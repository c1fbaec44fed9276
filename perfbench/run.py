"""Run one workload of the quotientfree benchmark and print its result.

    python3 perfbench/run.py --workload counting --seed 1 --seconds 20 --trace 0

Set-up is timed from spawning a fresh interpreter until it has imported
``quotientfree.cli`` and ``build_parser()`` has returned; the run's own worker
and several probes give the samples.  The worker then plays the workload for
``--seconds`` (see worker.py and player.py).  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The full report, with the environment and the
sample counts, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_ns, speed_factor
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 6  # plus the worker's own start: seven set-up samples per run
SPEED_SAMPLES = 5  # reference computations before each set-up sample
DEADLINE_S = 170  # the whole run, including set-up, ends within this
# a fixed hash seed, so that set and dict layouts, and their cost, repeat
# from run to run
_WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def _spawn_until_ready(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start cmd and wait for its 'ready' line; return the process and the seconds taken."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_WORKER_ENV)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start: {' '.join(cmd[:4])} ...")
    return proc, elapsed


def _probe(worker: list[str]) -> float:
    proc, elapsed = _spawn_until_ready(worker + ["--probe"])
    proc.communicate(timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def _speed() -> float:
    """The machine's speed factor right now, from a few reference computations."""
    return speed_factor([reference_ns() for _ in range(SPEED_SAMPLES)])


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _environment(report: dict, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "mpmath_backend": report.get("mpmath_backend"),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the order statistics.

    Unlike a single order statistic it does not jump across gaps between
    query families, so the percentile of a run moves smoothly with the run.
    """
    import mpmath

    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


def end_to_end(report: dict, setup_samples: list[float], setup_speeds: list[float]):
    """The end-to-end metric values, the same figures unscaled, and the sample counts.

    Times are scaled to the reference machine speed (see reference.py).
    """

    def figures(setup, walls, latencies):
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "query_p50_ms": harrell_davis(latencies, 0.5),
            "query_p90_ms": harrell_davis(latencies, 0.9),
            "peak_rss_mb": report["peak_rss_mb"],
        }

    values = figures([t * f for t, f in zip(setup_samples, setup_speeds)],
                     report["scaled_pass_wall_s"], report["scaled_latencies_ms"])
    raw = figures(setup_samples, report["pass_wall_s"], report["latencies_ms"])
    samples = {
        "setup": len(setup_samples),
        "passes": len(report["pass_wall_s"]),
        "queries": len(report["latencies_ms"]),
        "beyond_p90": sum(1 for v in report["scaled_latencies_ms"] if v > values["query_p90_ms"]),
    }
    return values, raw, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the quotientfree package (default: src/ of "
                             "this checkout); paired comparisons point it at another checkout")
    parser.add_argument("--pin-digests", action="store_true",
                        help="also report every result digest (used by pin.py)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = time.perf_counter()
    src = args.src.resolve()
    spec_file = ROOT / "BENCHMARK.json"
    if not (src / "quotientfree" / "cli.py").is_file():
        print(f"error: no quotientfree package under {src}", file=sys.stderr)
        return 2
    if not spec_file.is_file():
        print(f"error: {spec_file} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())

    worker = [sys.executable, str(HERE / "worker.py"), "--src", str(src)]
    try:
        _probe(worker)  # untimed: the first start also compiles bytecode caches
        setup_samples, setup_speeds = [], []
        for _ in range(SETUP_PROBES):
            setup_speeds.append(_speed())
            setup_samples.append(_probe(worker))
        cmd = worker + ["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)]
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            cmd += ["--spans", str(OUT / f"{stem}-spans.csv")]
        if args.pin_digests:
            cmd.append("--digests")
        setup_speeds.append(_speed())
        proc, ready = _spawn_until_ready(cmd)
        setup_samples.append(ready)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        try:
            stdout, _ = proc.communicate(timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        report = json.loads(stdout.strip().splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = report["failed"] == 0
    full = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(report, args),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "failed_frac": report["failed"] / report["attempted"],
        "failures": report["failures"],
        "pinned_checked": report["pinned_checked"],
        "families": report["families"],
        "setup_samples_s": setup_samples,
        "setup_speed": setup_speeds,
        "pass_wall_s": report["pass_wall_s"],
        "pass_cpu_s": report["pass_cpu_s"],
        "pass_speed": report["pass_speed"],
    }
    if args.trace:
        trace = report["trace"]
        correct = correct and trace["restored"]
        values = trace["metrics"]
        full["trace"] = trace
        wanted = spec["per_layer"]
    else:
        values, raw, samples = end_to_end(report, setup_samples, setup_speeds)
        full["samples"] = samples
        full["end_to_end"] = values
        full["unscaled"] = raw
        full["queries_ms"] = sorted(zip(report["scaled_latencies_ms"], report["query_families"]))
        full["raw_queries"] = list(zip(report["latencies_ms"], report.get("reference_ms", []),
                                       report["query_families"]))
        full["stdout_bytes"] = report["stdout_bytes"]
        wanted = spec["end_to_end"]
    if args.pin_digests:
        full["digests"] = report["digests"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the run did not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    full["correct"] = correct
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    for failure in report["failures"][:3]:
        print(f"failed: {failure['argv'][:120]}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
