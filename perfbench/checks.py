"""Output checks that decide whether a query failed.

Each query's canonical ``result`` member (the CSV body for ``--csv``) is
hashed and compared with the digest pinned for the committed seed, when one
is pinned.  Independently of the seed, every output must satisfy invariants
computed here from first principles: none of these oracles imports or calls
``quotientfree``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations
from math import prod

# A float slack below this is too close to the boundary to decide by floats;
# such a point makes the float-based recount inconclusive instead of wrong.
_FLOAT_MARGIN = 1e-9


def digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def smooth_numbers(basis, bound: int) -> list[tuple[int, tuple[int, ...]]]:
    """All basis-smooth integers <= bound with exponent vectors, ascending."""
    out = []

    def rec(i: int, value: int, exps: tuple[int, ...]):
        if i == len(basis):
            out.append((value, exps))
            return
        e = 0
        while value <= bound:
            rec(i + 1, value, exps + (e,))
            value *= basis[i]
            e += 1

    rec(0, 1, ())
    out.sort()
    return out


def free_count(basis, x: int) -> int:
    """|{n <= x : no element of the pairwise-coprime basis divides n}|."""
    total = 0
    for k in range(len(basis) + 1):
        for combo in combinations(basis, k):
            total += (-1) ** k * (x // prod(combo))
    return total


def max_subset_oracle(p: int, q: int, n: int) -> int:
    """Exact maximum quotient-free subset size of {1..n} by blocks of equal t.

    Representatives r with m_t <= n/r < m_{t+1} all take the majority count
    f(t) of the first t smooth integers; the free integers in that block are
    counted by inclusion-exclusion.
    """
    smooth = smooth_numbers((p, q), n)
    total = 0
    white = 0
    for t, (m, exps) in enumerate(smooth, start=1):
        white += sum(exps) % 2 == 0
        following = smooth[t][0] if t < len(smooth) else n + 1
        block = free_count((p, q), n // m) - free_count((p, q), n // following)
        total += max(white, t - white) * block
    return total


def dense_count_oracle(basis, x: int) -> int:
    """Members <= x of the coprime dense construction: even smooth part times free part."""
    return sum(
        free_count(basis, x // m) for m, exps in smooth_numbers(basis, x) if sum(exps) % 2 == 0
    )


def rho_closed_form(values) -> Fraction:
    product = Fraction(1)
    for a in values:
        product *= Fraction(a - 1, a + 1)
    return (1 + product) / 2


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_basis(quotients) -> tuple[int, ...]:
    primes: set[int] = set()
    for f in quotients:
        primes.update(_factor(f.numerator))
        primes.update(_factor(f.denominator))
    return tuple(sorted(primes))


def tail_width(basis, depth: int) -> Fraction:
    """phi(basis) times the geometric weight of all points beyond the depth."""
    layer = [Fraction(1)] + [Fraction(0)] * depth
    for b in basis:
        grown = [Fraction(0)] * (depth + 1)
        for total, w in enumerate(layer):
            for k in range(depth - total + 1):
                grown[total + k] += w / b ** k
        layer = grown
    full = prod((Fraction(b, b - 1) for b in basis), start=Fraction(1))
    phi = prod((Fraction(b - 1, b) for b in basis), start=Fraction(1))
    return phi * (full - sum(layer))


def _atom(text: str):
    """('rational', Fraction) | ('sqrt', k) | ('log', k) from a CLI coefficient."""
    text = text.strip()
    for prefix, kind in (("sqrt", "sqrt"), ("ln", "log")):
        if text.startswith(prefix):
            return kind, int(text[len(prefix):].strip("()"))
    return "rational", Fraction(text)


def _atom_float(atom) -> float:
    kind, v = atom
    if kind == "rational":
        return float(v)
    return math.sqrt(v) if kind == "sqrt" else math.log(v)


def simplex_colors(alphas, c):
    """(white, black) of {x >= 0 : alphas . x <= c}, or None if a point is too close to call.

    All-log coefficients with a log bound are decided on integers; otherwise
    the rational part is exact and the irrational part is a float, and a
    point whose irrational slack is within the margin is left undecided.
    """
    atoms = [_atom(a) for a in alphas]
    bound = _atom(c)
    if all(kind == "log" for kind, _ in atoms) and bound[0] == "log":
        colors = [0, 0]
        for _, exps in smooth_numbers(tuple(v for _, v in atoms), bound[1]):
            colors[sum(exps) % 2] += 1
        return tuple(colors)
    if bound[0] != "rational":
        return None
    floats = [_atom_float(a) for a in atoms]
    c_value = bound[1]
    colors = [0, 0]
    undecided = False

    def rec(i: int, point: tuple[int, ...], used: float):
        nonlocal undecided
        if i == len(atoms):
            exact = sum(
                (v * x for (kind, v), x in zip(atoms, point) if kind == "rational"), Fraction(0)
            )
            irrational = sum(
                f * x for (kind, _), f, x in zip(atoms, floats, point) if kind != "rational"
            )
            has_irrational = any(
                x and kind != "rational" for (kind, _), x in zip(atoms, point)
            )
            if not has_irrational:
                inside = exact <= c_value
            else:
                slack = float(c_value - exact) - irrational
                if abs(slack) < _FLOAT_MARGIN:
                    undecided = True
                inside = slack > 0
            if inside:
                colors[sum(point) % 2] += 1
            return
        k = 0
        while used + k * floats[i] <= float(c_value) + _FLOAT_MARGIN:
            rec(i + 1, point + (k,), used + k * floats[i])
            k += 1

    rec(0, (), 0.0)
    return None if undecided else tuple(colors)


# ---------------------------------------------------------------------------
# Per-family checks: each returns a list of problems (empty when correct)
# ---------------------------------------------------------------------------


def _bracket(obj) -> tuple[Fraction, Fraction]:
    return Fraction(obj["lower"]), Fraction(obj["upper"])


def _quotient_free(members: list[int], quotients) -> bool:
    present = set(members)
    for a in quotients:
        u, v = a.numerator, a.denominator
        for y in members:
            if (y * u) % v == 0 and (y * u) // v in present:
                return False
    return True


def _sorted_distinct(values: list[int], lo: int, hi: int) -> bool:
    return all(lo <= v <= hi for v in values) and all(a < b for a, b in zip(values, values[1:]))


class Checker:
    """Checks outputs one query at a time, including invariants across queries.

    Brackets for the same quantity must all contain its true value, so any
    two of them overlap: ``_overlap`` keeps the tightest (max lower, min
    upper) seen so far per quantity.
    """

    def __init__(self, pinned: dict[str, str] | None = None):
        # digest of the argv string -> digest of the canonical result
        self.pinned = pinned or {}
        self.pinned_checked = 0
        self._overlap: dict[tuple, list[Fraction]] = {}

    def check(self, query, rc, stdout: str) -> tuple[str | None, list[str]]:
        """(canonical result, problems) for one query's exit code and output."""
        if rc != 0:
            return None, [f"exit code {rc}"]
        try:
            if query.argv[-1] == "--csv":
                lines = stdout.splitlines()
                canonical = "\n".join(lines[1:])
                result = lines
            else:
                payload = json.loads(stdout)
                result = payload["result"]
                canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
            problems = getattr(self, "_" + query.family.replace("-", "_"))(query, result)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            return None, [f"malformed output: {exc!r}"]
        expected = self.pinned.get(digest(query.key))
        if expected is not None:
            self.pinned_checked += 1
            if digest(canonical) != expected:
                problems.append("result differs from its pinned digest")
        return canonical, problems

    def _bracket_overlaps(self, key, lower: Fraction, upper: Fraction) -> list[str]:
        seen = self._overlap.setdefault(key, [lower, upper])
        seen[0], seen[1] = max(seen[0], lower), min(seen[1], upper)
        if seen[0] > seen[1]:
            return [f"bracket [{lower}, {upper}] misses an earlier bracket for {key}"]
        return []

    # -- counting ----------------------------------------------------------

    def _max_subset(self, query, result) -> list[str]:
        m = query.meta
        expected = max_subset_oracle(m["p"], m["q"], m["n"])
        if result["count"] != expected:
            return [f"count {result['count']} != {expected}"]
        return []

    def _sigma(self, query, result) -> list[str]:
        m = query.meta
        lower, upper = _bracket(result)
        problems = []
        if not lower <= upper:
            problems.append("sigma lower > upper")
        if Fraction(result["width"]) != upper - lower:
            problems.append("sigma width != upper - lower")
        if upper - lower > Fraction(*m["tol"]):
            problems.append("sigma width exceeds the tolerance")
        if upper < rho_closed_form((m["p"], m["q"])):
            problems.append("sigma upper bound below rho")
        # the series stops at the (terms + 1)-th smooth integer
        terms, following = result["detail"]["terms"], result["detail"]["next_value"]
        smooth = smooth_numbers((m["p"], m["q"]), following)
        if len(smooth) != terms + 1 or smooth[-1][0] != following:
            problems.append("next_value is not smooth number terms + 1")
        return problems + self._bracket_overlaps(("sigma", m["p"], m["q"]), lower, upper)

    def _gap(self, query, result) -> list[str]:
        m = query.meta
        rho = rho_closed_form((m["p"], m["q"]))
        problems = []
        if Fraction(result["rho"]) != rho:
            problems.append(f"rho {result['rho']} != {rho}")
        if result["sigma"] is not None:
            lower, upper = _bracket(result["sigma"])
            if not lower <= upper:
                problems.append("sigma lower > upper")
            if result["gap_proven"] and not lower > rho:
                problems.append("gap proven but sigma lower <= rho")
            problems += self._bracket_overlaps(("sigma", m["p"], m["q"]), lower, upper)
        elif result["gap_proven"]:
            problems.append("gap proven without a sigma bracket")
        return problems

    def _densities(self, query, lines) -> list[str]:
        m = query.meta
        if lines[0] != "X,count,count_density,count_density_dec12,log_density":
            return ["unexpected CSV header"]
        rows = [line.split(",") for line in lines[1:]]
        if [int(r[0]) for r in rows] != sorted(set(m["checkpoints"])):
            return ["rows do not match the checkpoints"]
        problems = []
        for r in rows:
            x, count = int(r[0]), int(r[1])
            if count != dense_count_oracle(m["a"], x):
                problems.append(f"count at X={x} is {count}, expected "
                                f"{dense_count_oracle(m['a'], x)}")
            if Fraction(r[2]) != Fraction(count, x):
                problems.append(f"count_density at X={x} != count/X")
        return problems

    def _verify(self, query, result) -> list[str]:
        if not result:
            return ["no suite reports"]
        return [f"suite {r['suite']} failed {r['failed']} cases"
                for r in result if r["failed"] or r["first_failure"] is not None or not r["passed"]]

    # -- materialize -------------------------------------------------------

    def _max_subset_witness(self, query, result) -> list[str]:
        m = query.meta
        problems = self._max_subset(query, result)
        witness = result["witness"]
        if len(witness) != result["count"]:
            problems.append("witness size != count")
        if not _sorted_distinct(witness, 1, m["n"]):
            problems.append("witness not sorted, distinct and within 1..N")
        if not _quotient_free(witness, (Fraction(m["p"]), Fraction(m["q"]))):
            problems.append("witness is not quotient-free")
        return problems

    def _dense_set(self, query, result) -> list[str]:
        m = query.meta
        quotients = [Fraction(a) for a in m["a"]]
        members = result["members"]
        problems = []
        if result["x"] != m["x"] or len(members) != result["count"]:
            problems.append("member count != count")
        if Fraction(result["counting_density"]) != Fraction(result["count"], m["x"]):
            problems.append("counting density != count/x")
        if not _sorted_distinct(members, 1, m["x"]):
            problems.append("members not sorted, distinct and within 1..x")
        if not _quotient_free(members, quotients):
            problems.append("members are not quotient-free")
        if all(a.denominator == 1 for a in quotients):
            basis = tuple(sorted(a.numerator for a in quotients))
            expected = dense_count_oracle(basis, m["x"])
            if result["count"] != expected:
                problems.append(f"count {result['count']} != {expected}")
        return problems

    def _enumerate(self, query, result) -> list[str]:
        m = query.meta
        basis = tuple(sorted(m["basis"]))
        values, exponents = result["values"], result["exponents"]
        problems = []
        if len(values) != len(exponents):
            return ["values and exponents differ in length"]
        if any(v != prod(b ** e for b, e in zip(basis, exps))
               for v, exps in zip(values, exponents)):
            problems.append("a value does not reproduce from its exponent vector")
        if not _sorted_distinct(values, 1, m["bound"]):
            problems.append("values not ascending within 1..bound")
        if len(values) != len(smooth_numbers(basis, m["bound"])):
            problems.append("enumeration is incomplete")
        return problems

    # -- search ------------------------------------------------------------

    def _rho_general(self, query, result) -> list[str]:
        m = query.meta
        quotients = [Fraction(a) for a in m["a"]]
        lower, upper = _bracket(result)
        basis = prime_basis(quotients)
        problems = []
        if not 0 < lower <= upper <= 1:
            problems.append("bracket outside 0 < lower <= upper <= 1")
        if Fraction(result["width"]) != upper - lower:
            problems.append("width != upper - lower")
        if upper - lower != tail_width(basis, m["depth"]):
            problems.append("width differs from the closed-form tail mass")
        if result["detail"]["basis"] != list(basis):
            problems.append("basis differs from the prime factors of A")
        ints = [a.numerator for a in quotients]
        if all(a.denominator == 1 for a in quotients) and all(
            math.gcd(x, y) == 1 for x, y in combinations(ints, 2)
        ):
            if not lower <= rho_closed_form(ints) <= upper:
                problems.append("bracket misses the closed form")
        return problems + self._bracket_overlaps(("rho", tuple(m["a"])), lower, upper)

    def _monochromatize(self, query, result) -> list[str]:
        m = query.meta
        out = [tuple(pt) for pt in result["points"]]
        present = set(out)
        problems = []
        if len(present) != len(out) or len(out) != len(m["points"]):
            problems.append("output size differs from input size")
        if any(x < 0 or y < 0 or m["p"] ** x * m["q"] ** y > m["n"] for x, y in out):
            problems.append("output leaves the triangle")
        if any((x + 1, y) in present or (x, y + 1) in present for x, y in out):
            problems.append("output has adjacent points")
        colors = {("white", "black")[sum(pt) % 2] for pt in out}
        if len(colors) > 1 or (out and colors != {result["color"]}):
            problems.append("output is not one color, or not the reported one")
        return problems

    # -- geometry ----------------------------------------------------------

    def _simplex(self, query, result) -> list[str]:
        m = query.meta
        if min(result["white"], result["black"]) < 0:
            return ["negative count"]
        expected = simplex_colors(m["alphas"], m["c"])
        if expected is not None and (result["white"], result["black"]) != expected:
            return [f"colors {(result['white'], result['black'])} != {expected}"]
        return []

    def _black_majority(self, query, result) -> list[str]:
        m = query.meta
        if not 1 <= result["candidates_tested"] <= m["budget"]:
            return ["candidates tested outside 1..budget"]
        if not result["found"]:
            return []
        problems = []
        if not result["black"] > result["white"]:
            problems.append("found without a black majority")
        c = result["c"] if result["n"] is None else f"ln{result['n']}"
        expected = simplex_colors(m["alphas"], c)
        if expected is not None and (result["white"], result["black"]) != expected:
            problems.append(f"recount at c={c} gives {expected}")
        return problems

    def _slope_profile(self, query, lines) -> list[str]:
        m = query.meta
        a1, a2 = m["a1"], m["a2"]
        if lines[0] != "c,white,black,diff":
            return ["unexpected CSV header"]
        rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
        if [r[0] for r in rows] != list(range(1, m["cmax"] + 1)):
            return ["rows are not c = 1..cmax"]
        problems = []
        if any(w - b != d for _, w, b, d in rows):
            problems.append("diff != white - black")
        step = max(1, m["cmax"] // 25)
        for c, white, black, _ in rows[step - 1::step]:
            colors = [0, 0]
            for y in range(c // a2 + 1):
                width = (c - a2 * y) // a1 + 1  # x = 0 .. width-1 on row y
                colors[y % 2] += (width + 1) // 2
                colors[1 - y % 2] += width // 2
            if (white, black) != tuple(colors):
                problems.append(f"row c={c} gives {(white, black)}, expected {tuple(colors)}")
        return problems
