"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's own algorithms: smooth numbers come
from nested loops, maxima from exhaustive subset enumeration, memberships
from direct arithmetic.
"""

import heapq
from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from math import ceil

from quotientfree import BudgetError, DensityBracket, PrecisionError
from quotientfree.geometry import (
    BlackMajoritySearch,
    ColorCount,
    ExactReal,
    SimplexSpec,
    _as_exact,
)


def naive_smooth(basis, bound):
    """All products of basis powers <= bound by nested loops, sorted."""
    values = {1: tuple([0] * len(basis))}

    def extend(partial, exps, index):
        if index == len(basis):
            return
        b = basis[index]
        power = partial
        e = list(exps)
        while True:
            extend(power, tuple(e), index + 1)
            power *= b
            if power > bound:
                break
            e[index] += 1
            values[power] = tuple(e)

    extend(1, tuple([0] * len(basis)), 0)
    ordered = sorted(values)
    return ordered, [values[v] for v in ordered]


def naive_smooth_stream(basis):
    """Basis-smooth integers ascending, forever: naive_smooth at squaring bounds."""
    bound, emitted = 2, 0
    while True:
        values, exponents = naive_smooth(basis, bound)
        yield from zip(values[emitted:], exponents[emitted:])
        bound, emitted = bound * bound, len(values)


def seen_set_smooth_stream(basis):
    """Basis-smooth (value, exponents) ascending, forever: a heap of exponent
    vectors with a seen-set, so every vector is pushed by each of its parents
    and kept once.  Ties between equal values (non-coprime bases) come out in
    exponent order."""
    s = len(basis)
    start = (0,) * s
    heap = [(1, start)]
    seen = {start}
    while heap:
        value, exps = heapq.heappop(heap)
        yield value, exps
        for j, bj in enumerate(basis):
            child = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (value * bj, child))


def naive_max_subset_counts(p, q, n_max):
    """Class-sum maximum for every horizon 1..n_max, one step at a time.

    Raising the horizon from n-1 to n lets exactly one class see one more
    smooth value: the class of n's (p, q)-free part.  So only that class's
    majority color count is updated.  Returns the list indexed by n.
    """
    values, exponents = naive_smooth((p, q), n_max)
    parity = {v: sum(e) % 2 for v, e in zip(values, exponents)}
    classes = {}  # free part -> (smooth values seen, white ones among them)
    counts = [0]
    for n in range(1, n_max + 1):
        rep = n
        while rep % p == 0:
            rep //= p
        while rep % q == 0:
            rep //= q
        seen, white = classes.get(rep, (0, 0))
        before = max(white, seen - white)
        seen, white = seen + 1, white + (parity[n // rep] == 0)
        classes[rep] = (seen, white)
        counts.append(counts[-1] + max(white, seen - white) - before)
    return counts


def naive_max_subset_witness(p, q, n):
    """(count, witness) of the maximal quotient-free subset of {1..n}, rep by rep.

    Every (p, q)-free representative sees the first t smooth values, those
    with m * rep <= n, and keeps the majority parity class among them (white
    on ties), scaled back by rep.
    """
    values, exponents = naive_smooth((p, q), n)
    parities = [sum(e) % 2 for e in exponents]
    white_prefix = [0]
    for parity in parities:
        white_prefix.append(white_prefix[-1] + (parity == 0))
    total = 0
    witness = []
    for rep in range(1, n + 1):
        if rep % p == 0 or rep % q == 0:
            continue
        t = bisect_right(values, n // rep)
        white = white_prefix[t]
        total += max(white, t - white)
        keep = 0 if white >= t - white else 1
        witness.extend(values[i] * rep for i in range(t) if parities[i] == keep)
    return total, tuple(sorted(witness))


def per_run_witness_mask(prefix, n):
    """The max-subset witness mask written one slice per pair of a smooth
    value and a later run of the kept class: for each smooth m, ascending,
    and each run of t with one kept class, the r with t(r) in that run get
    mask[m * r] = 1 exactly when m's class is the kept one.  ``prefix`` is
    ``_pair_prefix`` up to the last smooth value <= n."""
    firsts, classes = [], []
    for i, (_, _, _, _, kept) in enumerate(prefix):
        if not classes or classes[-1] != kept:
            firsts.append(i)
            classes.append(kept)
    # a run's r lie above n // (the first value after the run)
    runs = list(zip([n // prefix[i][0] for i in firsts[1:]] + [0], classes))
    fills = (bytes(n), b"\x01" * n)
    mask = bytearray(n + 1)
    k = 0
    for i, (m, a, b, _, _) in enumerate(prefix):
        if k + 1 < len(firsts) and firsts[k + 1] == i:
            k += 1
        color = (a + b) & 1
        hi = n // m
        for lo, kept in runs[k:]:
            mask[m * (lo + 1):m * hi + 1:m] = fills[kept == color][:hi - lo]
            hi = lo
    return mask


def extend_then_sort_members(x, smooth_parts, free_parts):
    """The dense set's members up to x: for each chosen smooth m <= x, the
    products m * n over the ascending free n <= x // m are appended to one
    list, which is sorted at the end."""
    members = []
    for m in smooth_parts:
        if m <= x:
            members.extend(m * n for n in free_parts[:bisect_right(free_parts, x // m)])
    members.sort()
    return tuple(members)


def naive_sigma_brackets(p, q):
    """The majority-color series bracket after each term, one Fraction per term.

    Partial sums and the prefix reciprocal sum are kept as Fractions, and a
    bracket is built for every term: the straightforward route that
    sigma_series must agree with exactly.
    """
    factor = Fraction((p - 1) * (q - 1), p * q)
    full_recip = Fraction(p * q, (p - 1) * (q - 1))
    stream = naive_smooth_stream((p, q))
    prev, prev_exps = next(stream)
    prefix_recip = Fraction(1, prev)
    partial = Fraction(0)
    white = black = 0
    for terms, (value, exps) in enumerate(stream, 1):
        prefix_recip += Fraction(1, value)
        if sum(prev_exps) % 2 == 0:
            white += 1
        else:
            black += 1
        partial += max(white, black) * (Fraction(1, prev) - Fraction(1, value))
        tail_lower = Fraction((terms + 2) // 2, value)
        tail_upper = Fraction(terms + 1, value) + (full_recip - prefix_recip)
        yield DensityBracket(
            factor * (partial + tail_lower),
            factor * (partial + tail_upper),
            "series-with-tail",
            {"terms": terms, "next_value": value},
        )
        prev, prev_exps = value, exps


def naive_sigma_series(p, q, tolerance, budget=10**6):
    """sigma_series by the per-term Fraction loop, with the same budget rule."""
    bracket = None
    brackets = naive_sigma_brackets(p, q)
    for _ in range(budget - 1):  # the first enumerated value opens no term
        bracket = next(brackets)
        if bracket.width <= tolerance:
            return bracket
    raise BudgetError(
        f"tolerance {tolerance} not reached within {budget} enumerated values",
        achieved=bracket,
    )


def brute_force_max_difference_free(points, diffs, weights=None):
    """Exhaustive maximum size (or total weight) of a conflict-free subset.

    Subset recursion over the points in the given order; ``weights`` lists
    one positive weight per point and defaults to unit weights.
    """
    points = list(points)
    n = len(points)
    if weights is None:
        weights = [1] * n
    index = {p: i for i, p in enumerate(points)}
    masks = [0] * n
    for i, p in enumerate(points):
        for d in diffs:
            q = tuple(a + b for a, b in zip(p, d))
            j = index.get(q)
            if j is not None and j != i:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]
    best = 0

    def rec(i, allowed, chosen):
        nonlocal best
        if chosen + suffix[i] < best:
            return
        if i == n:
            best = max(best, chosen)
            return
        if (allowed >> i) & 1:
            rec(i + 1, allowed & ~masks[i], chosen + weights[i])
        rec(i + 1, allowed, chosen)

    rec(0, (1 << n) - 1, 0)
    return best


def brute_force_all_optima(points, diffs):
    """Every maximum conflict-free subset, as sorted point tuples."""
    points = sorted(points)
    n = len(points)
    index = {p: i for i, p in enumerate(points)}
    masks = [0] * n
    for i, p in enumerate(points):
        for d in diffs:
            q = tuple(a + b for a, b in zip(p, d))
            j = index.get(q)
            if j is not None and j != i:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    best = brute_force_max_difference_free(points, diffs)
    optima = []
    for mask in range(1 << n):
        if bin(mask).count("1") != best:
            continue
        ok = True
        for i in range(n):
            if (mask >> i) & 1 and masks[i] & mask:
                ok = False
                break
        if ok:
            optima.append(tuple(points[i] for i in range(n) if (mask >> i) & 1))
    return optima


def point_weight(basis, u):
    """The geometric weight 1 / prod b**u_i of a lattice point, as a Fraction."""
    den = 1
    for b, e in zip(basis, u):
        den *= b**e
    return Fraction(1, den)


def truncated_weight_mass(basis, depth):
    """Exact total weight of all points with coordinate sum <= depth."""
    layer = [Fraction(1)] + [Fraction(0)] * depth
    for b in basis:
        nxt = [Fraction(0)] * (depth + 1)
        for total, w in enumerate(layer):
            if w == 0:
                continue
            power = Fraction(1)
            for k in range(depth - total + 1):
                nxt[total + k] += w * power
                power /= b
        layer = nxt
    return sum(layer, Fraction(0))


def iter_bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def conflict_masks(points, diffs):
    """Bit adjacency: i ~ j iff their difference (either way) is a diff vector."""
    index = {p: i for i, p in enumerate(points)}
    adj = [0] * len(points)
    for i, p in enumerate(points):
        for d in diffs:
            j = index.get(tuple(a + b for a, b in zip(p, d)))
            if j is not None and j != i:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def two_coloring(adj, sub_mask):
    """Side 0 or 1 of each vertex of the graph induced by sub_mask, by depth-first search.

    None when the graph has an odd cycle.  The lowest-index vertex of each
    component is on side 0.
    """
    side = {}
    for start in iter_bits(sub_mask):
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in iter_bits(adj[v] & sub_mask):
                if w not in side:
                    side[w] = side[v] ^ 1
                    stack.append(w)
                elif side[w] == side[v]:
                    return None
    return side


def greedy_by_solves(graph, diffs, order):
    """The greedy optimum completion with one exact solve per point.

    Visit the points in ``order`` and keep each iff the kept points plus it
    plus a maximum set of the live points off its neighbors still reach the
    maximum size.  Each residue is solved as the conflict graph of its own
    points under ``diffs``, the induced subgraph.  The oracle for the
    one-solve route; returns the kept indices in visiting order.
    """
    from quotientfree.lattice import _ConflictGraph, _solve

    n = len(graph.points)
    target = _solve(graph, [1] * n)[0]
    live = [True] * n
    kept = []
    for i in order:
        if not live[i]:
            continue
        live[i] = False
        residue = [v for v in range(n) if live[v] and v not in graph.nbrs[i]]
        sub = _ConflictGraph([graph.points[v] for v in residue], diffs)
        if len(kept) + 1 + _solve(sub, [1] * len(residue))[0] == target:
            kept.append(i)
            for w in graph.nbrs[i]:
                live[w] = False
    return kept


def quotient_free_violations(members, quotients):
    """Pairs (x, y) in members with x/y among the quotients, via partners."""
    member_set = set(members)
    bad = []
    for k in members:
        for a in quotients:
            a = Fraction(a)
            if (k * a.numerator) % a.denominator == 0:
                partner = k * a.numerator // a.denominator
                if partner in member_set and partner != k:
                    bad.append((partner, k))
    return bad


def random_fraction(rng, max_num, max_den):
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def _mpf_to_fraction(raw):
    sign, man, exp, _ = raw
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


def context_interval(kind, k, prec_bits):
    """Enclosure of ln(k) or sqrt(k) from mpmath's interval context at prec_bits.

    The context route the library used before it called libmp directly;
    it sets the context precision and restores it.
    """
    import mpmath

    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = prec_bits
        z = mpmath.iv.ln(k) if kind == "log" else mpmath.iv.sqrt(k)
    finally:
        mpmath.iv.prec = old
    lo, hi = z._mpi_
    return _mpf_to_fraction(lo), _mpf_to_fraction(hi)


def context_ln(x, digits):
    """ln(x) at `digits` decimal digits from mpmath's global context, exactly."""
    import mpmath

    with mpmath.workdps(digits):
        value = mpmath.ln(x)
    return _mpf_to_fraction(value._mpf_)


def decimal_dec12(value):
    """dec12 by a 12-digit Decimal division of the full numerator and denominator."""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def walked_points(spec, limit=None):
    """The region's points in lex order, by one membership test per point.

    The last coordinate grows until the point leaves the region; then it
    drops to zero and the coordinate before it grows.  With ``limit``, the
    walk stops once it holds ``limit`` points.  No row end is read.
    """
    r = len(spec.alphas)
    points = []
    x = [0] * r
    point = tuple(x)
    inside = spec.contains(point)
    while inside and len(points) != limit:
        points.append(point)
        for i in range(r - 1, -1, -1):
            x[i] += 1
            point = tuple(x)
            inside = spec.contains(point)
            if inside:
                break
            x[i] = 0
    return tuple(points)


def tallied_color_counts(spec):
    """Color counts by testing and tallying every point of walked_points."""
    white = black = 0
    for p in walked_points(spec):
        if sum(p) % 2 == 0:
            white += 1
        else:
            black += 1
    return ColorCount(white, black)


def double_loop_slope_profile(a1, a2, c_max):
    """(c, white, black, diff) per threshold, each row summed over its lines y."""
    rows = []
    for c in range(1, c_max + 1):
        white = black = 0
        for y in range(c // a2 + 1):
            top = (c - a2 * y) // a1  # x ranges over 0..top
            evens = top // 2 + 1
            odds = top + 1 - evens
            if y % 2 == 0:
                white += evens
                black += odds
            else:
                white += odds
                black += evens
        rows.append((c, white, black, white - black))
    return rows


def interval_sign(terms, what):
    """Sign of a rational combination of exact-real atoms, by Fraction intervals.

    Equal log arguments and radicands are merged first.  Exact routes:
    all-rational; all-log with zero rational part and integer coefficients
    (integer power comparison); a single radicand (square comparison).
    Anything else sums mpmath's enclosures (``context_interval``) of each
    log and sqrt, weighted in Fractions, at 64, 128, ... up to 4096 bits.
    """
    const = Fraction(0)
    logs, sqrts = {}, {}
    for atom, coeff in terms:
        if coeff == 0:
            continue
        if atom.kind == "rational":
            const += coeff * atom.rational
        elif atom.kind == "log":
            logs[atom.arg] = logs.get(atom.arg, Fraction(0)) + coeff
        else:
            sqrts[atom.arg] = sqrts.get(atom.arg, Fraction(0)) + coeff * atom.scale
    logs = {k: c for k, c in logs.items() if c != 0}
    sqrts = {k: c for k, c in sqrts.items() if c != 0}

    def sign(v):
        return (v > 0) - (v < 0)

    if not logs and not sqrts:
        return sign(const)
    if logs and not sqrts and const == 0 and all(c.denominator == 1 for c in logs.values()):
        num = den = 1
        for k, c in logs.items():
            if c > 0:
                num *= k ** c.numerator
            else:
                den *= k ** (-c.numerator)
        return sign(num - den)
    if sqrts and not logs and len(sqrts) == 1:
        ((k, c),) = sqrts.items()
        if const == 0 or sign(c) == sign(const):
            return sign(c)
        return sign(c * c * k - const * const) * sign(c)
    atoms = [("log", k, c) for k, c in logs.items()]
    atoms += [("sqrt", k, c) for k, c in sqrts.items()]
    bits = 64
    while bits <= 4096:
        lo = hi = const
        for kind, k, coeff in atoms:
            a_lo, a_hi = context_interval(kind, k, bits)
            lo += coeff * (a_lo if coeff >= 0 else a_hi)
            hi += coeff * (a_hi if coeff >= 0 else a_lo)
        if hi < 0:
            return -1
        if lo > 0:
            return 1
        bits *= 2
    raise PrecisionError(f"comparison undecided at 4096 bits while testing {what}")


def swept_simplest(lo, hi, max_den):
    """The fraction of least denominator in [lo, hi), by a sweep of the denominators.

    For each denominator q up to max_den, the least numerator p with p/q >= lo
    is tried against hi.  The arguments are Fractions; None past max_den.
    """
    for q in range(1, max_den + 1):
        candidate = Fraction(ceil(lo * q), q)
        if candidate < hi:
            return candidate
    return None


def swept_threshold(terms, following_terms, mid):
    """The fraction of least denominator in [value, following value), or None
    past denominator 512.  For each denominator, the least numerator at or
    above the value is settled by ``interval_sign`` in a walk from the
    value's midpoint ``mid``, and tried against the following value."""
    def above(terms, candidate):
        return interval_sign(list(terms) + [(ExactReal.of(candidate), Fraction(-1))], "sweep") > 0

    for den in range(1, 513):
        num = ceil(mid * den)
        while above(terms, Fraction(num, den)):
            num += 1
        while num >= 1 and not above(terms, Fraction(num - 1, den)):
            num -= 1
        if above(following_terms, Fraction(num, den)):
            return Fraction(num, den)
    return None


def eager_black_majority(alphas, budget=64):
    """The black-majority scan with every candidate computed before any test.

    All ``budget`` attained values come off a seen-set heap first (integer
    products for logarithms, midpoints otherwise), so no walk is shared
    with the library, and each count tallies the points of walked_points.
    Adjacent midpoints whose values are exactly equal, decided by
    ``interval_sign`` on their difference, are one candidate.  Otherwise
    the scan follows find_black_majority_c, and a mixed threshold is the
    denominator sweep of ``swept_threshold``.
    """
    atoms = tuple(_as_exact(a) for a in alphas)
    if all(a.kind == "log" for a in atoms):
        tested, previous = 0, None
        for value, _ in seen_set_smooth_stream([a.arg for a in atoms]):
            if tested >= budget:
                break
            if value == previous:
                continue
            previous = value
            tested += 1
            counts = tallied_color_counts(SimplexSpec(atoms, ExactReal.log(value)))
            if counts.black > counts.white:
                return BlackMajoritySearch(True, None, f"ln({value})", value, counts, tested)
        return BlackMajoritySearch(False, None, None, None, None, tested)

    keys = [a.sort_key() for a in atoms]
    start = (0,) * len(atoms)
    heap, seen, candidates, taken = [(Fraction(0), start)], {start}, [], set()
    while len(candidates) < budget:
        key, x = heapq.heappop(heap)
        terms = tuple(zip(atoms, map(Fraction, x)))
        # a new midpoint whose value equals the last candidate's exactly
        # (3*ln 2 and ln 8, say) is that candidate
        if key not in taken and not (candidates and interval_sign(
                terms + tuple((a, -c) for a, c in candidates[-1][1]), "tie") == 0):
            candidates.append((key, terms))
        taken.add(key)
        for j in range(len(atoms)):
            child = x[:j] + (x[j] + 1,) + x[j + 1:]
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (key + keys[j], child))

    for idx, (key, terms) in enumerate(candidates):
        counts = tallied_color_counts(SimplexSpec(atoms, terms))
        if counts.black <= counts.white:
            continue
        if all(a.is_rational for a in atoms):
            threshold = Fraction(sum(a.rational * c for a, c in terms))
            display = str(threshold)
        else:
            threshold = None
            if idx + 1 < len(candidates):
                threshold = swept_threshold(terms, candidates[idx + 1][1], key)
            display = (" + ".join(f"{c}*{a}" for a, c in terms if c) or "0"
                       if threshold is None else str(threshold))
        return BlackMajoritySearch(True, threshold, display, None, counts, idx + 1)
    return BlackMajoritySearch(False, None, None, None, None, len(candidates))
