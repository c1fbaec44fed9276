"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's own algorithms: smooth numbers come
from nested loops, maxima from exhaustive subset enumeration, memberships
from direct arithmetic.
"""

from bisect import bisect_right
from fractions import Fraction

from quotientfree import BudgetError, DensityBracket


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
