"""Seeded query generators for the four benchmark workloads.

A run plays whole cycles of ``CYCLE`` passes.  Pass position ``i`` of a cycle
has a fixed layout: which pair, quotient set or basis each family uses comes
from a schedule indexed by ``i``, and sizes are stratified over each family's
range and jittered by the seed.  The seed also picks where in the cycle the
run starts, and the salts (suite seeds, caps) that keep argv lists distinct.
So every seed plays the same mix of work in a different order with different
inputs, which is what keeps medians and percentiles steady across seeds.

Only the argv list reaches the program.  ``meta`` carries what the output
checks need to know about the query; the checks never call the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import log10

WORKLOADS = ("counting", "materialize", "search", "geometry")

# Every schedule below has a length dividing CYCLE, so one cycle plays each
# scheduled combination equally often.
CYCLE = 6

# About the time of one untraced cycle, checks included, on the reference
# machine (2-core x86-64 VM, CPython 3.11, mpmath on its python backend);
# a run plays round(--seconds / CYCLE_SECONDS) whole cycles.
CYCLE_SECONDS = {"counting": 10.0, "materialize": 10.0, "search": 10.0, "geometry": 10.0}

PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (5, 7))


@dataclass(frozen=True)
class Query:
    family: str
    argv: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _strata(rng: random.Random, index: int, count: int, lo: float, hi: float,
            log: bool = False) -> list[float]:
    """``count`` values of [lo, hi) for the pass at cycle position ``index``.

    The range is cut into count * CYCLE strata; the pass takes strata index,
    index + CYCLE, ... (one in each count-th of the range, so passes cost
    about the same) and a cycle takes every stratum once (so runs cover the
    same sizes).  The seed only jitters each value inside its stratum.
    """
    total = count * CYCLE
    if log:
        lo, hi = log10(lo), log10(hi)
    out = []
    for i in range(count):
        x = lo + (hi - lo) * (i * CYCLE + index + rng.random()) / total
        out.append(10 ** x if log else x)
    return out


def _int_strata(rng, index, count, lo, hi, log=False) -> list[int]:
    return [int(v) for v in _strata(rng, index, count, lo, hi, log)]


def _majority_class(p: int, q: int, n: int) -> list[list[int]]:
    """The larger checkerboard class of the triangle p^x q^y <= n (white on ties)."""
    points = []
    x = 0
    while p ** x <= n:
        y = 0
        while p ** x * q ** y <= n:
            points.append([x, y])
            y += 1
        x += 1
    white = [pt for pt in points if sum(pt) % 2 == 0]
    black = [pt for pt in points if sum(pt) % 2 == 1]
    return white if len(white) >= len(black) else black


def _suite(rng: random.Random, suite: str, budget: str) -> Query:
    return Query("verify", ("verify", "--suite", suite, "--budget", budget,
                            "--seed", str(rng.randint(0, 10**9)), "--json"), {})


# ---------------------------------------------------------------------------
# Workloads: each builds the pass at cycle position ``index``
# ---------------------------------------------------------------------------


def _counting(rng: random.Random, index: int):
    # count-only paths: work in density and arith, tiny output, lattice idle
    for i, n in enumerate(_int_strata(rng, index, 6, 1e5, 1e6, log=True)):
        p, q = PAIRS[(i + index) % 6]
        yield Query("max-subset", ("max-subset", "--p", str(p), "--q", str(q),
                                   "--n", str(n), "--json"), {"p": p, "q": q, "n": n})
    for i, k in enumerate(_strata(rng, index, 6, 10, 46)):
        p, q = PAIRS[(i + index + 3) % 6]
        den = int(10 ** (k % 1 + 3)) * 10 ** (int(k) - 3)  # about 10^k
        yield Query("sigma", ("sigma", "--p", str(p), "--q", str(q),
                              "--tol", f"1/{den}", "--json"),
                    {"p": p, "q": q, "tol": (1, den)})
    for p, q in PAIRS:
        budget = rng.randint(400_000, 1_000_000)
        yield Query("gap", ("gap", "--p", str(p), "--q", str(q),
                            "--budget", str(budget), "--json"), {"p": p, "q": q})
    a = ((2, 3), (2, 5), (3, 5))[index % 3]
    checkpoints = [1000, 10_000] + _int_strata(rng, index, 1, 20_000, 60_000)
    yield Query("densities", ("densities", "--a", ",".join(map(str, a)),
                              "--checkpoints", ",".join(map(str, checkpoints)), "--csv"),
                {"a": a, "checkpoints": checkpoints})
    yield _suite(rng, "lemma2", "small")
    yield _suite(rng, "corollary", "default")


def _materialize(rng: random.Random, index: int):
    # member lists and large JSON: O(N) materialization plus serialization
    # the largest witness has a fixed size per cycle position, so the run's
    # peak memory does not depend on the seed's jitter
    sizes = _int_strata(rng, index, 11, 2e4, 1.6e5, log=True) + [200_000 - index]
    for i, n in enumerate(sizes):
        p, q = PAIRS[(i + index) % 6]
        yield Query("max-subset-witness", ("max-subset", "--p", str(p), "--q", str(q),
                                           "--n", str(n), "--witness", "--json"),
                    {"p": p, "q": q, "n": n})
    sets = (("2", "3"), ("3/2",), ("4/3",))
    for i, x in enumerate(_int_strata(rng, index, 6, 1.5e4, 6e4, log=True)):
        a = sets[(i + index) % 3]
        yield Query("dense-set", ("dense-set", "--a", ",".join(a), "--x", str(x), "--json"),
                    {"a": a, "x": x})
    bases = ((2, 3), (2, 3, 5), (2, 3, 5, 7), (3, 5, 7, 11), (2, 5), (2, 5, 7))
    for i, bound in enumerate(_int_strata(rng, index, 6, 1e10, 1e12, log=True)):
        basis = bases[(i + index) % 6]
        yield Query("enumerate", ("enumerate", "--a", ",".join(map(str, basis)),
                                  "--bound", str(bound), "--json"),
                    {"basis": basis, "bound": bound})


# One schedule of CYCLE (quotient set, depth) problems per search family.  The
# branch and bound can blow up on other rational sets ({9/4, 5/4} at depth
# 10 takes minutes), so these lists are fixed and were each timed.
_SEARCH_FAMILIES = (
    # four primes at depth 8, twice: the heaviest queries are more than a
    # tenth of the run, so p90 falls inside them rather than at their edge
    [(a, 8) for a in ("2,3,5,7", "2,3,5,11", "2,3,5,13", "2,3,7,11", "2,5,7,11", "3,5,7,11")],
    [(a, 8) for a in ("2,3,7,13", "2,5,7,13", "2,3,11,13", "3,5,7,13", "2,5,11,13", "2,7,11,13")],
    # three primes at depth 13
    [(a, 13) for a in ("2,3,5", "2,3,7", "2,3,11", "2,5,7", "3,5,7", "3,5,11")],
    # pairwise products of three primes: integers that share factors
    [(a, d) for a in ("6,10,15", "6,14,21", "10,14,35") for d in (9, 10)],
    # one rational quotient
    [(a, d) for a in ("3/2", "5/2", "5/3") for d in (28, 30)],
    # two rational quotients, the named set at six depths
    [("4/3,9/8", d) for d in range(7, 13)],
    # an integer with a rational
    [(a, d) for a in ("2,3/2", "2,5/2", "3,5/3") for d in (18, 20)],
    # dependent difference vectors {a, b, ab}
    [(a, d) for a in ("2,3,6", "2,5,10", "3,5,15") for d in (15, 16)],
)


def _search(rng: random.Random, index: int):
    # exact optimum search: lattice branch and bound plus witness extraction
    for family in _SEARCH_FAMILIES:
        a, depth = family[index % len(family)]
        cap = rng.randint(5000, 99_999)
        yield Query("rho-general", ("rho-general", "--a", a, "--depth", str(depth),
                                    "--cap", str(cap), "--json"),
                    {"a": tuple(a.split(",")), "depth": depth})
    for n in _int_strata(rng, index, 9, 1e4, 1e10, log=True):
        points = _majority_class(2, 3, n)
        yield Query("monochromatize", ("monochromatize", "--p", "2", "--q", "3", "--n", str(n),
                                       "--cap", "5000", "--points",
                                       json.dumps(points, separators=(",", ":")), "--json"),
                    {"p": 2, "q": 3, "n": n, "points": points})
    yield _suite(rng, "theorem6", "small")
    yield _suite(rng, "monochromatize", "small")


_SCALES = ((1, 1), (1, 2), (2, 3), (3, 2), (5, 7), (4, 5))


def _geometry(rng: random.Random, index: int):
    # certified comparisons: interval refinement and threshold recounts
    simplex_families = (
        (("1", "sqrt2", "sqrt3"), 10, 20),
        (("ln2", "ln3", "sqrt2"), 8, 15),
        (("sqrt2", "sqrt3", "sqrt5", "sqrt7"), 8, 15),
        (("1/2", "sqrt5"), 30, 100),
    )
    for alphas, lo, hi in simplex_families:
        for c100 in _int_strata(rng, index, 2, lo * 100, hi * 100):
            c = f"{c100}/100"
            yield Query("simplex", ("simplex", "--alphas", ",".join(alphas), "--c", c,
                                    "--counts-only", "--json"), {"alphas": alphas, "c": c})
    for bound in _int_strata(rng, index, 2, 1e8, 1e12, log=True):
        alphas = ("ln2", "ln3", "ln5", "ln7")
        yield Query("simplex", ("simplex", "--alphas", ",".join(alphas), "--c", f"ln{bound}",
                                "--counts-only", "--json"), {"alphas": alphas, "c": f"ln{bound}"})
    # black-majority: the named families scaled by the scheduled factor, which
    # moves the threshold but keeps the search
    num, den = _SCALES[index]
    m, k = index + 1, index + 1
    families = (
        tuple(f"{j * num}/{den}" for j in (1, 2, 3)),
        tuple(f"{j * num}/{den}" for j in (2, 3)),
        (str(m), f"sqrt{2 * m * m}"),
        (f"sqrt{2 * m * m}", f"sqrt{3 * m * m}"),
        (f"ln{2 ** k}", f"ln{3 ** k}"),
        (f"ln{2 ** k}", f"ln{3 ** k}", f"ln{5 ** k}"),
    )
    for alphas in families:
        # the scan precomputes --budget candidates, so the default budget stays
        yield Query("black-majority", ("black-majority", "--alphas", ",".join(alphas), "--json"),
                    {"alphas": alphas, "budget": 64})
    slopes = ((1, 2), (2, 3), (3, 5))
    for i, cmax in enumerate(_int_strata(rng, index, 2, 300, 1000)):
        a1, a2 = slopes[(i + index) % 3]
        yield Query("slope-profile", ("slope-profile", "--a1", str(a1), "--a2", str(a2),
                                      "--cmax", str(cmax), "--csv"),
                    {"a1": a1, "a2": a2, "cmax": cmax})
    yield _suite(rng, "geometry", "small")


_BUILDERS = {
    "counting": _counting,
    "materialize": _materialize,
    "search": _search,
    "geometry": _geometry,
}


class QueryStream:
    """Passes of distinct queries for one workload and seed.

    Pass j sits at cycle position (offset + j) mod CYCLE, where the seed picks
    the offset.  A pass whose argv lists repeat one another or an earlier
    pass is drawn again from its generator, so no query repeats within a run.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in _BUILDERS:
            raise ValueError(f"unknown workload: {workload}")
        self.workload = workload
        self.seed = seed
        self.offset = random.Random(f"quotientfree-bench:{workload}:{seed}").randrange(CYCLE)
        self.seen: set[tuple[str, ...]] = set()
        self.passes = 0

    def next_pass(self) -> list[Query]:
        rng = random.Random(f"quotientfree-bench:{self.workload}:{self.seed}:{self.passes}")
        index = (self.offset + self.passes) % CYCLE
        for _ in range(1000):
            out = list(_BUILDERS[self.workload](rng, index))
            keys = [q.argv for q in out]
            if len(set(keys)) == len(keys) and not self.seen.intersection(keys):
                break
        else:
            raise RuntimeError("could not draw a pass of distinct queries")
        self.seen.update(keys)
        rng.shuffle(out)
        self.passes += 1
        return out
