import hashlib
import json
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quotientfree import (
    AXIS_DIFFS,
    CapError,
    CoprimeBasis,
    DomainError,
    ExactReal,
    LatticeConfig,
    SKEW_TRIANGLE_COUNTEREXAMPLE,
    SimplexSpec,
    checkerboard_split,
    derive_basis,
    f_via_checkerboard,
    gamma_bracket,
    max_difference_free,
    monochromatize,
    rho_closed_form,
    simplex_points,
    RationalSet,
    white_weight_value,
)
from quotientfree import lattice
from quotientfree.lattice import (
    _ConflictGraph,
    _branch_and_bound,
    _greedy_optimum,
    _max_difference_free_size,
    _max_flow,
    _min_cut_optimum,
    _simplex_lattice,
    _solve,
    max_feasible_depth,
    total_weight_mass,
)
from quotientfree.rng import CounterRng
from quotientfree.verify import _random_rational_triangle

from helpers import (
    brute_force_all_optima,
    brute_force_max_difference_free,
    conflict_masks,
    greedy_by_solves,
    iter_bits,
    naive_smooth_stream,
    point_weight,
    truncated_weight_mass,
    two_coloring,
)


def first_entries(basis, t):
    """The exponent vectors of the first t basis-smooth integers."""
    return LatticeConfig.explicit(e for _, e in islice(naive_smooth_stream(basis), t))


def smooth_values(basis, config):
    out = []
    for e in config:
        v = 1
        for b, k in zip(basis, e):
            v *= b**k
        out.append(v)
    return sorted(out)


class TestCheckerboardSplit:
    def test_first_eight_pair_entries(self):
        config = first_entries((2, 3), 8)
        split = checkerboard_split(config)
        assert (split.counts.white, split.counts.black) == (4, 4)
        assert smooth_values((2, 3), split.white) == [1, 4, 6, 9]
        assert smooth_values((2, 3), split.black) == [2, 3, 8, 12]

    def test_origin_is_white(self):
        split = checkerboard_split(LatticeConfig.explicit([(0, 0)]))
        assert (split.counts.white, split.counts.black) == (1, 0)

    def test_first_three(self):
        split = checkerboard_split(first_entries((2, 3), 3))
        assert (split.counts.white, split.counts.black) == (1, 2)


class TestMaxDifferenceFree:
    def test_first_eight_entries(self):
        config = first_entries((2, 3), 8)
        assert max_difference_free(config, AXIS_DIFFS).size == 4

    def test_single_point(self):
        config = first_entries((2, 3), 1)
        result = max_difference_free(config, AXIS_DIFFS)
        assert result.size == 1
        assert result.witness == ((0, 0),)

    def test_empty_configuration_checks_its_difference_vectors(self):
        # a zero vector is rejected whatever the configuration, as with one point
        with pytest.raises(DomainError, match="difference vectors must be nonzero"):
            max_difference_free(LatticeConfig.explicit([]), [(0, 0)])
        with pytest.raises(DomainError, match="difference vectors must be nonzero"):
            max_difference_free(LatticeConfig.explicit([(0, 0)]), [(0, 0)])

    def test_empty_configuration_has_the_empty_optimum(self):
        result = max_difference_free(LatticeConfig.explicit([]), [(1, 0)])
        assert (result.size, result.witness) == (0, ())

    def test_skew_counterexample_beats_majority(self):
        config = LatticeConfig.explicit(SKEW_TRIANGLE_COUNTEREXAMPLE)
        result = max_difference_free(config, AXIS_DIFFS)
        split = checkerboard_split(config)
        assert result.size == 2
        assert split.counts.majority() == 1

    def test_witness_is_valid_and_optimal(self):
        config = first_entries((2, 3), 14)
        result = max_difference_free(config, AXIS_DIFFS)
        witness = set(result.witness)
        assert len(witness) == result.size
        for x, y in witness:
            assert (x + 1, y) not in witness
            assert (x, y + 1) not in witness

    @pytest.mark.parametrize("points,cap", [([(0, 0), (1, 0)], 0), ([], -1)])
    def test_cap_below_one_is_a_domain_error(self, points, cap):
        with pytest.raises(DomainError, match=f"cap must be at least 1, got {cap}"):
            max_difference_free(LatticeConfig.explicit(points), AXIS_DIFFS, cap=cap)

    def test_cap_exceeded(self):
        config = first_entries((2, 3), 30)
        with pytest.raises(CapError, match="too large for exact search"):
            max_difference_free(config, AXIS_DIFFS, cap=20)

    def test_matches_brute_force_on_random_configs(self):
        rng = CounterRng(11)
        for case in range(120):
            dim = 2 if case % 3 else 3
            pts = set()
            for _ in range(rng.randint(2, 12)):
                pts.add(tuple(rng.randint(0, 4) for _ in range(dim)))
            diffs = set()
            for _ in range(rng.randint(1, 3)):
                d = tuple(rng.randint(-2, 2) for _ in range(dim))
                if any(d):
                    diffs.add(d)
            if not diffs:
                diffs = {(1,) + (0,) * (dim - 1)}
            config = LatticeConfig.explicit(pts)
            got = max_difference_free(config, tuple(diffs)).size
            want = brute_force_max_difference_free(sorted(pts), tuple(diffs))
            assert got == want, (pts, diffs)

    def test_witness_is_lexicographically_least(self):
        rng = CounterRng(13)
        for _ in range(40):
            pts = set()
            for _ in range(rng.randint(2, 9)):
                pts.add((rng.randint(0, 3), rng.randint(0, 3)))
            config = LatticeConfig.explicit(pts)
            result = max_difference_free(config, AXIS_DIFFS)
            optima = brute_force_all_optima(pts, AXIS_DIFFS)
            assert tuple(sorted(result.witness)) == min(optima)

    def test_witness_is_lexicographically_least_for_general_vectors(self):
        # bipartite and odd-cycle conflict graphs alike
        rng = CounterRng(17)
        vector_sets = (
            ((1, 0), (0, 1), (1, 1)),
            ((-1, 1),),
            ((1, 0), (-1, 2)),
            ((2, 1), (1, -1), (1, 2)),
        )
        for case in range(60):
            diffs = vector_sets[case % len(vector_sets)]
            pts = set()
            for _ in range(rng.randint(2, 10)):
                pts.add((rng.randint(0, 3), rng.randint(0, 3)))
            result = max_difference_free(LatticeConfig.explicit(pts), diffs)
            optima = brute_force_all_optima(pts, diffs)
            assert result.size == len(optima[0])
            assert tuple(sorted(result.witness)) == min(optima)

    def test_general_difference_vectors(self):
        # conflicts along (-1, 1): value ratio 3/2 on the pair basis
        basis = derive_basis(RationalSet.of(["3/2"]))
        config = LatticeConfig.explicit([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
        result = max_difference_free(config, basis.diffs)
        assert result.size == brute_force_max_difference_free(
            sorted(config.points), basis.diffs
        )


def _rank(vectors):
    rows = [[Fraction(c) for c in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def independent_instances(draw):
    """Points in a small box with linearly independent difference vectors."""
    dim = draw(st.integers(2, 3))
    coord = st.integers(-1, 1)
    diffs = draw(
        st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=dim, unique=True)
    )
    assume(_rank(diffs) == len(diffs))
    box = st.tuples(*[st.integers(0, 5 - dim)] * dim)
    points = sorted(draw(st.sets(box, min_size=1, max_size=14)))
    return points, tuple(diffs)


def _gamma_problem(a, depth):
    """The points, weights and conflict graph that gamma_bracket searches."""
    basis = derive_basis(RationalSet.of(a.split(",")))
    points = sorted(_simplex_lattice(basis.size, depth))
    weights = [point_weight(basis.basis, p) for p in points]
    return points, weights, _ConflictGraph(points, basis.diffs)


def _is_conflict_free(graph, chosen):
    return all(not set(graph.nbrs[i]).intersection(chosen) for i in chosen)


class TestMinCutOptimum:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(instance=independent_instances(), data=st.data())
    def test_matches_brute_force(self, instance, data):
        points, diffs = instance
        graph = _ConflictGraph(points, diffs)
        # independent difference vectors give a bipartite graph: the flow route
        assert graph.side is not None
        config = LatticeConfig.explicit(points)
        unit = brute_force_max_difference_free(points, diffs)
        assert _max_difference_free_size(config, diffs) == unit
        assert max_difference_free(config, diffs).size == unit
        weights = data.draw(
            st.lists(
                st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)),
                min_size=len(points),
                max_size=len(points),
            )
        )
        best, chosen = _solve(graph, weights)
        assert best == brute_force_max_difference_free(points, diffs, weights)
        assert _is_conflict_free(graph, chosen)
        assert sum((weights[i] for i in chosen), Fraction(0)) == best

    def test_witness_is_the_majority_class_on_axis_triangles(self):
        # axis-legged triangles: the majority class is optimal (Theorem 6),
        # and the witness is that class, white on ties, as branch and bound's
        # incumbent rule gives
        rng = CounterRng(29)
        for _ in range(40):
            triangle = SimplexSpec.of(
                [Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                 Fraction(rng.randint(1, 9), rng.randint(1, 9))],
                Fraction(rng.randint(1, 40), rng.randint(1, 3)),
            )
            points = simplex_points(triangle).points
            graph = _ConflictGraph(points, AXIS_DIFFS)
            split = checkerboard_split(LatticeConfig.explicit(points))
            majority = split.white if split.counts.white >= split.counts.black else split.black
            best, chosen = _solve(graph, [1] * len(points))
            assert best == len(majority)
            assert tuple(points[i] for i in chosen) == majority

    # one shape per bipartite search family at a reduced depth: four primes,
    # three primes, pairwise products, one rational, two rationals, and an
    # integer with a rational
    @pytest.mark.parametrize(
        "a,depth",
        [
            ("2,3,5,7", 5),
            ("2,5,11,13", 4),
            ("2,3,5", 8),
            ("3,5,11", 7),
            ("6,10,15", 7),
            ("10,14,35", 6),
            ("3/2", 18),
            ("5/3", 16),
            ("4/3,9/8", 9),
            ("2,3/2", 12),
            ("3,5/3", 11),
        ],
    )
    def test_value_and_witness_match_branch_and_bound(self, a, depth):
        _, weights, graph = _gamma_problem(a, depth)
        assert graph.side is not None
        assert _min_cut_optimum(graph, weights) == _branch_and_bound(graph, weights)

    def test_dependent_vectors_take_branch_and_bound(self, monkeypatch):
        _, _, graph = _gamma_problem("2,3,6", 6)
        assert graph.side is None

        def refuse(*args):
            raise AssertionError("wrong route")

        basis = derive_basis(RationalSet.of(["2", "3", "6"]))
        expected = gamma_bracket(basis, 6)
        monkeypatch.setattr(lattice, "_min_cut_optimum", refuse)
        assert gamma_bracket(basis, 6) == expected
        monkeypatch.undo()
        monkeypatch.setattr(lattice, "_branch_and_bound", refuse)
        with pytest.raises(AssertionError, match="wrong route"):
            gamma_bracket(basis, 6)
        # an independent set never reaches branch and bound
        gamma_bracket(CoprimeBasis.from_coprime_integers([2, 3, 5]), 4)

    def test_branch_and_bound_leaves_recursion_limit_alone(self):
        limit = sys.getrecursionlimit()
        basis = derive_basis(RationalSet.of(["2", "3", "6"]))
        bracket = gamma_bracket(basis, 16, cap=200)
        assert sys.getrecursionlimit() == limit
        assert bracket.lower <= bracket.upper


# The (quotient set, depth) schedule of the bench's search workload, family
# by family, and four rational sets at depth 6: gamma_bracket's lower, upper
# and witness on each, pinned so that a change of arithmetic cannot move them
SEARCH_SCHEDULE = {
    "four-primes-a": [(a, 8) for a in ("2,3,5,7", "2,3,5,11", "2,3,5,13", "2,3,7,11",
                                       "2,5,7,11", "3,5,7,11")],
    "four-primes-b": [(a, 8) for a in ("2,3,7,13", "2,5,7,13", "2,3,11,13", "3,5,7,13",
                                       "2,5,11,13", "2,7,11,13")],
    "three-primes": [(a, 13) for a in ("2,3,5", "2,3,7", "2,3,11", "2,5,7", "3,5,7", "3,5,11")],
    "products": [(a, d) for a in ("6,10,15", "6,14,21", "10,14,35") for d in (9, 10)],
    "one-rational": [(a, d) for a in ("3/2", "5/2", "5/3") for d in (28, 30)],
    "two-rationals": [("4/3,9/8", d) for d in range(7, 13)],
    "integer-and-rational": [(a, d) for a in ("2,3/2", "2,5/2", "3,5/3") for d in (18, 20)],
    "dependent": [(a, d) for a in ("2,3,6", "2,5,10", "3,5,15") for d in (15, 16)],
    "rationals-depth-6": [(a, 6) for a in ("3/2", "4/3", "2,3/2", "4/9,6")],
}

PINNED_BRACKETS = {
    "four-primes-a":
        "d12445541946bb224be3889b4f4f44c0c24f4ee3b4122bba351ecb85425f69ed",
    "four-primes-b":
        "812f7c46ea89e828257bb8053efefa046b203586bc6e01d429dea50acc7c304f",
    "three-primes":
        "5812d95d29a15e349504a99987ff9ba6b321fd54c326430b821e6f5ae7ffaea3",
    "products":
        "fa51c871219efbb98306c6f3dc86b71a137b8634792b7de48e2e2ea68801a7fc",
    "one-rational":
        "9e0320d839b53d715b964e9be3b3a994709089d752799b9512e22a68d78761ec",
    "two-rationals":
        "04113b9dd57141bcc28e899415a4e1953b9732225abaf4b615f32bec7561534e",
    "integer-and-rational":
        "60535fb63dc77108b852c23478822cf5ad07a6f071cda1ef0e0936ce985fbbb9",
    "dependent":
        "59ac40e47dda2dc5c58c0a2fb9ce1c5de360de5686abfe96797a5e5696d55aa6",
    "rationals-depth-6":
        "8328f997cde649fb03415344758a849b7a2a6a1bbf80258d49e22665ffe38558",
}

# the shapes of TestMinCutOptimum.test_value_and_witness_match_branch_and_bound,
# and one odd-cycle set for branch and bound
SCALED_SHAPES = [
    ("2,3,5,7", 5),
    ("2,5,11,13", 4),
    ("2,3,5", 8),
    ("3,5,11", 7),
    ("6,10,15", 7),
    ("10,14,35", 6),
    ("3/2", 18),
    ("5/3", 16),
    ("4/3,9/8", 9),
    ("2,3/2", 12),
    ("3,5/3", 11),
    ("2,3,6", 10),
]


class TestIntegerWeights:
    @pytest.mark.parametrize("family", sorted(SEARCH_SCHEDULE))
    def test_brackets_match_the_pinned_digest(self, family):
        rows = []
        for a, depth in SEARCH_SCHEDULE[family]:
            bracket = gamma_bracket(derive_basis(RationalSet.of(a.split(","))), depth, 100_000)
            rows.append([a, depth, str(bracket.lower), str(bracket.upper),
                         [list(p) for p in bracket.witness]])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == PINNED_BRACKETS[family]

    @pytest.mark.parametrize("basis", [(2, 3), (2, 3, 5), (2, 3, 5, 7)])
    def test_width_is_the_tail_mass(self, basis):
        coprime = CoprimeBasis.from_coprime_integers(list(basis))
        for depth in range(13):
            bracket = gamma_bracket(coprime, depth, 100_000)
            assert bracket.width == total_weight_mass(basis) - truncated_weight_mass(basis, depth)

    @pytest.mark.parametrize("a,depth", SCALED_SHAPES)
    def test_scaled_integer_weights_give_the_scaled_optimum(self, a, depth):
        _, weights, graph = _gamma_problem(a, depth)
        scale = 1
        for b in derive_basis(RationalSet.of(a.split(","))).basis:
            scale *= b**depth
        scaled = [w.numerator * scale // w.denominator for w in weights]
        assert all(w * scale == k for w, k in zip(weights, scaled))
        best, chosen = _solve(graph, weights)
        assert _solve(graph, scaled) == (best * scale, chosen)


@st.composite
def flow_networks(draw):
    """A digraph of at most 12 nodes, capacities 0-20, no parallel arcs."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    # each ordered pair is absent (None) or one arc
    caps = draw(st.lists(st.one_of(st.none(), st.integers(0, 20)),
                         min_size=len(pairs), max_size=len(pairs)))
    return n, [(u, v, c) for (u, v), c in zip(pairs, caps) if c is not None]


class TestMaxFlow:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(network=flow_networks())
    # two networks that need the residual twins: the first for its value,
    # the second for the nodes the source reaches (1, back through 2-4-1)
    @example(network=(11, [(0, 5, 16), (0, 7, 1), (5, 6, 2), (5, 9, 1), (5, 10, 14),
                           (6, 10, 2), (7, 6, 1), (9, 10, 1)]))
    @example(network=(6, [(0, 1, 1), (0, 2, 1), (1, 4, 1), (2, 4, 1), (4, 5, 1)]))
    # first-fit keeps 1-3 and leaves 2 unmatched, so a phase must reverse a
    # greedy arc: 0-2-3, back along 3-1, then 1-4-5
    @example(network=(6, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1), (2, 3, 1),
                          (3, 5, 1), (4, 5, 1)]))
    # arcs the greedy start skips: source to sink, out of the sink, into the
    # source, and into the sink from the source's own neighbor
    @example(network=(5, [(0, 4, 3), (4, 1, 2), (1, 0, 4), (0, 1, 5), (1, 4, 2),
                          (1, 2, 3), (2, 0, 1), (2, 4, 4), (4, 3, 1), (3, 2, 2)]))
    def test_value_and_source_side_match_networkx(self, network):
        nx = pytest.importorskip("networkx")
        n, arcs = network
        source, sink = 0, n - 1
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_weighted_edges_from(arcs, weight="capacity")
        value, reached = _max_flow(n, arcs, source, sink)
        assert value == nx.maximum_flow_value(graph, source, sink)
        # the nodes the source reaches in the residual graph of networkx's flow
        _, flow = nx.maximum_flow(graph, source, sink)
        residual = {u: set() for u in range(n)}
        for u, v, c in arcs:
            if flow[u][v] < c:
                residual[u].add(v)
            if flow[u][v] > 0:
                residual[v].add(u)
        seen, stack = {source}, [source]
        while stack:
            for v in residual[stack.pop()] - seen:
                seen.add(v)
                stack.append(v)
        assert {u for u in range(n) if reached[u]} == seen


@st.composite
def conflict_instances(draw):
    """Points in a small box and any nonzero difference vectors, odd cycles included."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(-2, 2)
    diffs = draw(st.lists(st.tuples(*[coord] * dim).filter(any), min_size=1, max_size=3))
    box = st.tuples(*[st.integers(0, 6 - dim)] * dim)
    points = sorted(draw(st.sets(box, min_size=0, max_size=20)))
    return points, tuple(diffs)


@st.composite
def bipartite_instances(draw):
    """Any subset of a 7 x 7 box, with two independent difference vectors."""
    diffs = draw(st.sampled_from([AXIS_DIFFS, ((1, 0), (1, 1)), ((1, -1), (0, 1)),
                                  ((2, 1), (1, -1)), ((1, 2), (0, 1))]))
    keep = draw(st.lists(st.booleans(), min_size=49, max_size=49))
    points = [(x, y) for x in range(7) for y in range(7) if keep[7 * x + y]]
    return points, diffs


class TestConflictGraph:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(instance=conflict_instances())
    def test_neighbors_and_sides_match_masks_and_coloring(self, instance):
        points, diffs = instance
        graph = _ConflictGraph(points, diffs)
        adj = conflict_masks(points, diffs)
        assert graph.nbrs == [list(iter_bits(mask)) for mask in adj]
        coloring = two_coloring(adj, (1 << len(points)) - 1)
        if coloring is None:
            assert graph.side is None
        else:
            assert graph.side == [coloring[i] for i in range(len(points))]

    @pytest.mark.parametrize("a,depth", SCALED_SHAPES)
    def test_gamma_problems_match_masks_and_coloring(self, a, depth):
        points, _, graph = _gamma_problem(a, depth)
        adj = conflict_masks(points, derive_basis(RationalSet.of(a.split(","))).diffs)
        assert graph.nbrs == [list(iter_bits(mask)) for mask in adj]
        coloring = two_coloring(adj, (1 << len(points)) - 1)
        assert (graph.side is None) == (coloring is None) == (a == "2,3,6")
        if coloring is not None:
            assert graph.side == [coloring[i] for i in range(len(points))]

    @pytest.mark.parametrize("diff", [(1, 0, 5), (1,)])
    def test_rejects_a_difference_vector_of_another_dimension(self, diff):
        # a 3-D vector was once cut to (1, 0), which conflicts the two points
        config = LatticeConfig.explicit([(0, 0), (1, 0)])
        with pytest.raises(DomainError, match="dimension 2"):
            max_difference_free(config, [diff])
        with pytest.raises(DomainError, match="dimension 2"):
            _max_difference_free_size(config, [(0, 1), diff])


# sha256 of the lex-least witness of the 244 points (x, y) with 2^x 3^y <= 10^8
PINNED_TRIANGLE_WITNESS = "4c7878e9c44fbdf40ed20bf1df2708c0949f304becafb3c2b521b82fcbae515f"


class TestGreedyMatching:
    def test_triangle_witness_matches_the_pinned_digest(self):
        triangle = SimplexSpec((ExactReal.log(2), ExactReal.log(3)), ExactReal.log(10**8))
        points = simplex_points(triangle).points
        assert len(points) == 244
        result = max_difference_free(LatticeConfig.explicit(points), AXIS_DIFFS, cap=300)
        assert result.size == 122
        digest = hashlib.sha256(json.dumps([list(p) for p in result.witness]).encode()).hexdigest()
        assert digest == PINNED_TRIANGLE_WITNESS

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(instance=bipartite_instances(), data=st.data())
    def test_matching_greedy_equals_one_solve_per_point(self, instance, data):
        points, diffs = instance
        graph = _ConflictGraph(points, diffs)
        assert graph.side is not None
        order = data.draw(st.permutations(range(len(points))))
        assert _greedy_optimum(graph, order) == greedy_by_solves(graph, order)
        assert _greedy_optimum(graph, range(len(points))) == greedy_by_solves(
            graph, range(len(points)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matching_greedy_equals_one_solve_per_point_on_triangles(self, seed, data):
        _, pts = _random_rational_triangle(CounterRng(seed))
        graph = _ConflictGraph(LatticeConfig.explicit(pts).points, AXIS_DIFFS)
        order = data.draw(st.permutations(range(len(pts))))
        assert _greedy_optimum(graph, order) == greedy_by_solves(graph, order)

    @pytest.mark.parametrize("diffs,bipartite", [(AXIS_DIFFS, True),
                                                 (((1, 0), (0, 1), (1, 1)), False)],
                             ids=["bipartite", "odd-cycle"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_solve_per_greedy_optimum(self, diffs, bipartite, data):
        box = st.tuples(st.integers(0, 4), st.integers(0, 4))
        points = sorted(data.draw(st.sets(box, min_size=3, max_size=14)))
        graph = _ConflictGraph(points, diffs)
        assume((graph.side is not None) == bipartite)
        order = data.draw(st.permutations(range(len(points))))
        expected = greedy_by_solves(graph, order)
        calls = []

        def counted(*args):
            calls.append(args)
            return _solve(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "_solve", counted)
            assert _greedy_optimum(graph, order) == expected
        assert len(calls) == 1

    def test_path_witness_is_every_other_point(self):
        config = LatticeConfig.explicit([(k,) for k in range(20_000)])
        start = time.perf_counter()
        result = max_difference_free(config, [(1,)], cap=20_000)
        elapsed = time.perf_counter() - start
        assert result.witness == tuple((k,) for k in range(0, 20_000, 2))
        assert elapsed < 2.0


class TestFViaCheckerboard:
    def test_values(self):
        assert f_via_checkerboard(2, 3, 8) == 4
        assert f_via_checkerboard(2, 3, 1) == 1
        assert f_via_checkerboard(2, 3, 3) == 2

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            f_via_checkerboard(2, 4, 5)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            f_via_checkerboard(3, 2, 5)

    def test_monotone_steps_of_at_most_one(self):
        previous = None
        for t in range(1, 61):
            value = f_via_checkerboard(2, 3, t)
            if previous is not None:
                assert value in (previous, previous + 1)
            previous = value

    def test_agrees_with_exact_search(self):
        for t in range(1, 19):
            config = first_entries((2, 3), t)
            assert f_via_checkerboard(2, 3, t) == max_difference_free(
                config, AXIS_DIFFS
            ).size

    # the pairs that perfbench/workloads.py schedules
    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (5, 7)])
    def test_matches_a_parity_tally(self, p, q):
        white = 0
        for t, (_, exps) in enumerate(islice(naive_smooth_stream((p, q)), 2000), 1):
            white += sum(exps) % 2 == 0
            assert f_via_checkerboard(p, q, t) == max(white, t - white)

    def test_memory_stays_at_the_merge_window(self):
        # a list of the first 50,000 values would take megabytes
        tracemalloc.start()
        try:
            f_via_checkerboard(2, 3, 50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestGammaBracket:
    def test_depth_zero_is_origin_plus_tail(self):
        basis = CoprimeBasis.from_coprime_integers([2])
        bracket = gamma_bracket(basis, 0)
        assert bracket.lower == 1
        assert bracket.upper == 2
        assert bracket.witness == ((0,),)

    def test_single_base_converges_to_four_thirds(self):
        basis = CoprimeBasis.from_coprime_integers([2])
        bracket = gamma_bracket(basis, 20)
        assert bracket.lower <= Fraction(4, 3) <= bracket.upper
        assert bracket.width < Fraction(1, 10**5)

    def test_pair_contains_white_weight(self):
        basis = CoprimeBasis.from_coprime_integers([2, 3])
        for depth in range(0, 9):
            bracket = gamma_bracket(basis, depth, cap=100)
            assert bracket.lower <= Fraction(7, 4) <= bracket.upper

    def test_monotone_in_depth(self):
        basis = CoprimeBasis.from_coprime_integers([2, 3])
        previous = None
        for depth in range(0, 9):
            bracket = gamma_bracket(basis, depth, cap=100)
            if previous is not None:
                assert bracket.lower >= previous.lower
                assert bracket.upper <= previous.upper
            previous = bracket

    def test_lower_equals_truncated_white_sum_for_unit_diffs(self):
        basis = CoprimeBasis.from_coprime_integers([2, 3])
        for depth in (2, 4, 6):
            bracket = gamma_bracket(basis, depth, cap=100)
            white = Fraction(0)
            for x in range(depth + 1):
                for y in range(depth + 1 - x):
                    if (x + y) % 2 == 0:
                        white += Fraction(1, 2**x * 3**y)
            assert bracket.lower == white

    def test_witness_is_difference_free(self):
        basis = derive_basis(RationalSet.of(["4/9", 6]))
        bracket = gamma_bracket(basis, 6, cap=40)
        witness = set(bracket.witness)
        for u in witness:
            for d in basis.diffs:
                assert tuple(a + b for a, b in zip(u, d)) not in witness

    def test_cap_error_reports_feasible_depth(self):
        basis = CoprimeBasis.from_coprime_integers([2, 3])
        with pytest.raises(CapError, match="largest feasible depth is 7"):
            gamma_bracket(basis, 12, cap=40)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_feasible_depth_matches_the_linear_scan(self, s):
        # the scan is monotone in the cap, so one walk serves every cap
        depth = -1
        for cap in range(1, 3001):
            while comb(depth + 1 + s, s) <= cap:
                depth += 1
            assert max_feasible_depth(s, cap) == depth, cap
        assert max_feasible_depth(s, 0) == max_feasible_depth(s, -5) == -1

    def test_feasible_depth_of_a_huge_cap(self):
        assert max_feasible_depth(1, 10**12) == 10**12 - 1
        assert max_feasible_depth(2, 10**12) == 1_414_212
        with pytest.raises(DomainError, match="dimension must be at least 1"):
            max_feasible_depth(0, 10)

    def test_tail_mass_closed_form(self):
        # geometric series identity for the two-base truncation
        for depth in range(0, 10):
            direct = Fraction(0)
            for x in range(depth + 1):
                for y in range(depth + 1 - x):
                    direct += Fraction(1, 2**x * 3**y)
            assert truncated_weight_mass((2, 3), depth) == direct
        assert total_weight_mass((2, 3)) == 3


class TestWhiteWeightValue:
    def test_values(self):
        assert white_weight_value([2, 3]) == Fraction(7, 4)
        assert white_weight_value([2]) == Fraction(4, 3)
        # (15/4 + 5/12) / 2, cross-checked against the closed-form density
        assert white_weight_value([2, 3, 5]) == Fraction(25, 12)

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            white_weight_value([2, 4])

    def test_consistent_with_closed_form_density(self):
        rng = CounterRng(5)
        from math import gcd

        found = 0
        while found < 10:
            vals = sorted({rng.randint(2, 30) for _ in range(rng.randint(1, 3))})
            if any(
                gcd(a, b) != 1 for i, a in enumerate(vals) for b in vals[i + 1:]
            ):
                continue
            found += 1
            product = Fraction(1)
            for v in vals:
                product *= Fraction(v - 1, v)
            assert product * white_weight_value(vals) == rho_closed_form(vals)

    def test_bracket_contains_white_weight_at_every_depth(self):
        basis = CoprimeBasis.from_coprime_integers([2, 3, 5])
        target = white_weight_value([2, 3, 5])
        for depth in (0, 2, 4):
            bracket = gamma_bracket(basis, depth, cap=60)
            assert bracket.lower <= target <= bracket.upper


class TestMonochromatize:
    def test_already_monochromatic_unchanged(self):
        triangle = SimplexSpec((ExactReal.log(2), ExactReal.log(3)), ExactReal.log(3))
        result = monochromatize(triangle, [(1, 0), (0, 1)])
        assert result.points == ((0, 1), (1, 0))

    def test_mixed_optimal_set_becomes_white(self):
        triangle = SimplexSpec((ExactReal.log(2), ExactReal.log(3)), ExactReal.log(12))
        mixed = [(0, 0), (0, 2), (2, 1), (3, 0)]
        result = monochromatize(triangle, mixed)
        assert len(result.points) == 4
        assert {sum(p) % 2 for p in result.points} == {0}

    def test_rejects_non_maximal_input(self):
        triangle = SimplexSpec((ExactReal.log(2), ExactReal.log(3)), ExactReal.log(12))
        with pytest.raises(DomainError, match="maximum"):
            monochromatize(triangle, [(0, 0), (2, 1)])

    def test_rejects_adjacent_input(self):
        triangle = SimplexSpec((ExactReal.log(2), ExactReal.log(3)), ExactReal.log(12))
        with pytest.raises(DomainError, match="neighbor"):
            monochromatize(triangle, [(0, 0), (1, 0), (0, 2), (2, 1)])

    def test_rejects_outside_point(self):
        triangle = SimplexSpec((ExactReal.log(2), ExactReal.log(3)), ExactReal.log(3))
        with pytest.raises(DomainError, match="outside"):
            monochromatize(triangle, [(5, 5)])

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_a_cap_below_one(self, cap):
        # a cap below 1 would skip the maximality check and recolor this
        # non-maximal input
        triangle = SimplexSpec((ExactReal.log(2), ExactReal.log(3)), ExactReal.log(12))
        with pytest.raises(DomainError, match=f"cap must be at least 1, got {cap}"):
            monochromatize(triangle, [(0, 0), (0, 2)], cap=cap)

    def test_rejects_duplicate_points(self):
        # a plain list goes through LatticeConfig, so a repeat is not dropped
        triangle = SimplexSpec((ExactReal.log(2), ExactReal.log(3)), ExactReal.log(12))
        with pytest.raises(DomainError, match="distinct"):
            monochromatize(triangle, [(0, 0), (0, 0), (0, 2), (2, 1), (3, 0)])

    def test_rational_mode(self):
        triangle = SimplexSpec.of([Fraction(1), Fraction(3, 2)], Fraction(9, 2))
        pts = simplex_points(triangle).points
        target = max_difference_free(LatticeConfig.explicit(pts), AXIS_DIFFS).size
        witness = max_difference_free(LatticeConfig.explicit(pts), AXIS_DIFFS).witness
        result = monochromatize(triangle, witness)
        assert len(result.points) == target
        assert len({sum(p) % 2 for p in result.points}) == 1

    def test_steep_triangle_shifts_down(self):
        # mirrored orientation: the steep side cuts the diagonal on the
        # right, so its points shift down instead of left
        triangle = SimplexSpec.of([Fraction(317, 200), 1], Fraction(717, 200))
        assert sorted(simplex_points(triangle).points) == [
            (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0),
        ]
        mixed = [(0, 0), (2, 0), (1, 2), (0, 3)]
        result = monochromatize(triangle, mixed)
        assert len(result.points) == 4
        assert {sum(p) % 2 for p in result.points} == {0}

    def test_full_diagonal_pushes_interior_up(self):
        # a fully occupied diagonal forces the row under it empty, and the
        # sweep lifts everything below by one; reachable only through the
        # trusted path (the configuration is valid but not maximum)
        triangle = SimplexSpec.of([1, 1], Fraction(121, 2))
        full_diagonal = [(3, 0), (2, 1), (1, 2), (0, 3)]
        config = [(0, 0)] + full_diagonal
        result = monochromatize(triangle, config, cap=30)
        assert len(result.points) == 5
        assert {sum(p) % 2 for p in result.points} == {1}
        assert (0, 1) in result.points  # the origin moved up

    def test_preserves_size_validity_and_color_on_seeded_cases(self):
        rng = CounterRng(23)
        pairs = ((2, 3), (2, 5), (3, 4))
        for _ in range(25):
            p, q = pairs[rng.randint(0, 2)]
            n = rng.randint(1, 150)
            triangle = SimplexSpec((ExactReal.log(p), ExactReal.log(q)), ExactReal.log(n))
            pts = simplex_points(triangle).points
            config = LatticeConfig.explicit(pts)
            result = max_difference_free(config, AXIS_DIFFS)
            out = monochromatize(triangle, result.witness)
            assert len(out.points) == result.size
            out_set = set(out.points)
            for x, y in out_set:
                assert triangle.contains((x, y))
                assert (x + 1, y) not in out_set
                assert (x, y + 1) not in out_set
            assert len({sum(pt) % 2 for pt in out_set}) == 1


class TestTriangleEquivalence:
    def test_exact_search_equals_majority_on_random_triangles(self):
        rng = CounterRng(3)
        done = 0
        while done < 60:
            a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            b = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            c = Fraction(rng.randint(1, 48), rng.randint(1, 4))
            triangle = SimplexSpec.of([a, b], c)
            pts = simplex_points(triangle, limit=31).points
            if not 1 <= len(pts) <= 30:
                continue
            done += 1
            config = LatticeConfig.explicit(pts)
            exact = max_difference_free(config, AXIS_DIFFS).size
            majority = checkerboard_split(config).counts.majority()
            assert exact == majority, (a, b, c)
