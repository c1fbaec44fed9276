"""Plays one workload's passes through ``cli.main`` in process and reports.

Used by worker.py once the package is imported; see README.md for what a
pass, a traced pass and a pinned digest are.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from checks import Checker, digest
from reference import reference_ns, speed_factor
from tracing import Tracer
from workloads import CYCLE, CYCLE_SECONDS, QueryStream

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

TRACED_PASSES = 3  # fixed, so per-layer counts repeat exactly for a seed
HARD_LIMIT_S = 120  # stop starting passes after this, whatever was planned


def pass_count(workload: str, seconds: float) -> int:
    """Passes in a run: whole cycles, about ``seconds`` of work on the reference machine.

    The count depends only on the workload and ``seconds``, never on how fast
    this run goes, so every run of a workload plays the same mix of work and
    a faster program simply finishes sooner.  Whole cycles keep that mix the
    same for every seed.
    """
    cycles = round(seconds / CYCLE_SECONDS[workload])
    if cycles >= 1:
        return CYCLE * cycles
    # shorter than half a cycle: a smoke run, too short for steady figures
    return max(3, round(CYCLE * seconds / CYCLE_SECONDS[workload]))


@dataclass
class PassResult:
    traced: bool
    wall_ns: int = 0
    cpu_ns: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    reference_ns: list[int] = field(default_factory=list)
    families: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    stdout_bytes: int = 0


class Player:
    """Plays queries through ``cli.main`` in process, one at a time, and checks them.

    A query fails on an exception, a nonzero exit, or a problem the checker
    finds in its output.  Only the ``cli.main`` call is timed; the checks
    and a garbage collection run between queries, outside the timed span.
    """

    def __init__(self, cli, checker, keep_digests: bool = False):
        self.cli = cli
        self.checker = checker
        # argv digest -> result digest, kept only when pinning digests
        self.digests: dict[str, str] | None = {} if keep_digests else None

    def play(self, queries, tracer=None) -> PassResult:
        """One pass; with a tracer, which must be installed, each query gets its id."""
        result = PassResult(traced=tracer is not None)
        for query in queries:
            if tracer is not None:
                tracer.query_id += 1
            gc.collect()
            result.reference_ns.append(reference_ns())
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter_ns()
                cpu_start = time.thread_time_ns()
                try:
                    rc = self.cli.main(list(query.argv))
                except (Exception, SystemExit) as exc:  # the query failed; keep playing
                    rc = f"raised {type(exc).__name__}: {exc}"
                cpu = time.thread_time_ns() - cpu_start
                elapsed = time.perf_counter_ns() - start
            text = out.getvalue()
            canonical, problems = self.checker.check(query, rc, text)
            if canonical is not None and self.digests is not None:
                self.digests[digest(query.key)] = digest(canonical)
            result.wall_ns += elapsed
            result.cpu_ns += cpu
            result.latencies_ns.append(elapsed)
            result.families.append(query.family)
            result.stdout_bytes += len(text)
            if problems:
                stderr = err.getvalue().strip().splitlines()
                result.failures.append({
                    "family": query.family,
                    "argv": query.key[:300],
                    "problems": problems[:5],
                    "stderr": stderr[-1][:300] if stderr else "",
                })
        return result


def _pinned(workload: str, seed: int) -> dict[str, str]:
    if not DIGESTS.exists():
        return {}
    data = json.loads(DIGESTS.read_text())
    if data["seed"] != seed:
        return {}
    return data["workloads"].get(workload, {})


def run(cli, args) -> dict:
    stream = QueryStream(args.workload, args.seed)
    # when pinning afresh, the old pins must not judge the new results
    checker = Checker({} if args.digests else _pinned(args.workload, args.seed))
    player = Player(cli, checker, keep_digests=args.digests)
    tracer = Tracer() if args.trace else None
    planned = pass_count(args.workload, args.seconds)
    if tracer is not None:
        planned = max(planned, 2 * TRACED_PASSES)
    passes: list[PassResult] = []
    restored = True
    start = time.perf_counter()
    while len(passes) < planned and time.perf_counter() - start < HARD_LIMIT_S:
        queries = stream.next_pass()
        traced_done = sum(p.traced for p in passes)
        # traced runs interleave: traced passes at even indices until enough
        if tracer is not None and traced_done < TRACED_PASSES and len(passes) % 2 == 0:
            tracer.install()
            try:
                result = player.play(queries, tracer)
            finally:
                restored = tracer.restore() and restored
            tracer.counters["cli.stdout_bytes"] += result.stdout_bytes
        else:
            result = player.play(queries)
        passes.append(result)

    untraced = [p for p in passes if not p.traced]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(untraced),
        "pass_wall_s": [p.wall_ns / 1e9 for p in untraced],
        "latencies_ms": [ns / 1e6 for p in untraced for ns in p.latencies_ns],
        "pass_cpu_s": [p.cpu_ns / 1e9 for p in untraced],
        "pass_speed": [speed_factor(p.reference_ns) for p in untraced],
        "scaled_pass_wall_s": [p.wall_ns * speed_factor(p.reference_ns) / 1e9 for p in untraced],
        "scaled_latencies_ms": [ns * speed_factor(p.reference_ns) / 1e6
                                for p in untraced for ns in p.latencies_ns],
        "query_families": [f for p in untraced for f in p.families],
        "reference_ms": [ns / 1e6 for p in untraced for ns in p.reference_ns],
        "families": _family_summary(untraced),
        "attempted": sum(len(p.latencies_ns) for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "failures": [f for p in passes for f in p.failures][:20],
        "pinned_checked": checker.pinned_checked,
        "stdout_bytes": sum(p.stdout_bytes for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        traced = [p for p in passes if p.traced]
        metrics = tracer.metrics()
        traced_wall = statistics.median(p.wall_ns * speed_factor(p.reference_ns)
                                        for p in traced) / 1e9
        untraced_wall = statistics.median(p.wall_ns * speed_factor(p.reference_ns)
                                          for p in untraced) / 1e9
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["trace.passes"] = len(traced)
        report["trace"] = {
            "metrics": metrics,
            "restored": restored,
            "traced_pass_wall_s": [p.wall_ns / 1e9 for p in traced],
            "untraced_pass_wall_s": untraced_wall,
        }
        if args.spans:
            tracer.write_spans(args.spans)
            report["trace"]["spans_file"] = args.spans
    if player.digests is not None:
        report["digests"] = player.digests
    return report


def _family_summary(passes) -> dict:
    by_family: dict[str, list[float]] = {}
    for p in passes:
        for family, ns in zip(p.families, p.latencies_ns):
            by_family.setdefault(family, []).append(ns / 1e6)
    return {
        family: {"count": len(v), "median_ms": statistics.median(v), "max_ms": max(v),
                 "total_s": sum(v) / 1e3}
        for family, v in sorted(by_family.items())
    }
