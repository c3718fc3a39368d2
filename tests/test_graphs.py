"""Unit tests for the graph operations and counting bounds."""

import math
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufa import (
    Graph,
    all_graphs,
    check_graph_bounds,
    clique_coclique_covers,
    clique_coclique_partitions,
    complement_graph,
    count_cliques,
    count_cocliques,
    enumerate_cliques,
    extremal_split_graph,
    is_clique,
    is_coclique,
    nearest_k,
    verify_product_bound,
)
from helpers import brute_force_cliques, path3, random_graph


@st.composite
def graphs(draw, max_vertices=7):
    n = draw(st.integers(0, max_vertices))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, chosen)


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, (frozenset({0}),))
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, (frozenset({1}), frozenset()))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])

    def test_edges_are_sorted_with_u_below_v(self):
        g = Graph.from_edges(3, [(2, 1), (1, 0)])
        assert g.edges() == [(0, 1), (1, 2)]


class TestIsClique:
    def test_empty_set_is_a_clique(self):
        assert is_clique(path3(), frozenset())
        assert is_coclique(path3(), frozenset())

    def test_path_pairs(self):
        assert is_clique(path3(), {0, 1})
        assert not is_clique(path3(), {0, 2})
        assert is_coclique(path3(), {0, 2})

    def test_complete_graph_full_set(self):
        assert is_clique(Graph.complete(3), {0, 1, 2})

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            is_clique(path3(), {3})


class TestComplementGraph:
    def test_complete_to_edgeless(self):
        assert complement_graph(Graph.complete(3)).edges() == []

    def test_edgeless_to_complete(self):
        assert complement_graph(Graph(4, (frozenset(),) * 4)) == Graph.complete(4)

    def test_path_to_single_edge(self):
        assert complement_graph(path3()).edges() == [(0, 2)]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, g):
        assert complement_graph(complement_graph(g)) == g


class TestCountCliques:
    def test_complete_graphs(self):
        for n in (1, 3, 6):
            assert count_cliques(Graph.complete(n)) == 2**n
            assert count_cocliques(Graph.complete(n)) == n + 1

    def test_zero_vertex_graph_counts_the_empty_clique(self):
        assert count_cliques(Graph(0, ())) == 1
        assert count_cocliques(Graph(0, ())) == 1

    def test_path(self):
        assert count_cliques(path3()) == 6
        assert count_cocliques(path3()) == 5

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        assert count_cliques(g) == len(brute_force_cliques(g))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_cocliques_count_cliques_of_the_complement(self, g):
        assert count_cocliques(g) == len(brute_force_cliques(complement_graph(g)))

    def test_vertex_count_beyond_the_recursion_limit(self):
        n = 1100
        assert n > sys.getrecursionlimit()
        assert count_cliques(Graph(n, (frozenset(),) * n)) == n + 1
        assert count_cocliques(Graph.complete(n)) == n + 1


class TestEnumerateCliques:
    def test_single_vertex(self):
        assert enumerate_cliques(Graph(1, (frozenset(),))) == [frozenset(), {0}]

    def test_single_edge(self):
        assert enumerate_cliques(Graph.complete(2)) == [
            frozenset(),
            {0},
            {1},
            {0, 1},
        ]

    def test_path_in_canonical_order(self):
        assert enumerate_cliques(path3()) == [
            frozenset(),
            {0},
            {1},
            {2},
            {0, 1},
            {1, 2},
        ]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_no_duplicates_and_length_matches_count(self, g):
        listed = enumerate_cliques(g)
        assert len(listed) == len(set(listed)) == count_cliques(g)
        assert set(listed) == set(brute_force_cliques(g))


class TestPartitions:
    def test_empty_set_has_the_empty_partition(self):
        assert clique_coclique_partitions(path3(), frozenset()) == [frozenset()]

    def test_single_edge_full_set(self):
        g = Graph.complete(2)
        assert clique_coclique_partitions(g, {0, 1}) == [{0}, {1}, {0, 1}]

    def test_complete_graph_keeps_at_most_one_vertex_out(self):
        n = 4
        g = Graph.complete(n)
        halves = clique_coclique_partitions(g, set(range(n)))
        assert len(halves) == n + 1
        assert all(len(set(range(n)) - x) <= 1 for x in halves)

    def test_members_split_into_clique_and_coclique(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, 6)
            s = {v for v in range(6) if rng.random() < 0.5}
            for x in clique_coclique_partitions(g, s):
                assert is_clique(g, x)
                assert is_coclique(g, s - x)


class TestCovers:
    def test_empty_set(self):
        assert clique_coclique_covers(path3(), frozenset()) == [(frozenset(), frozenset())]

    def test_isolated_vertex(self):
        g = Graph(1, (frozenset(),))
        assert clique_coclique_covers(g, {0}) == [
            (frozenset(), {0}),
            ({0}, frozenset()),
            ({0}, {0}),
        ]

    def test_complete_graph_has_exactly_2n_plus_1(self):
        for n in (2, 3, 5):
            g = Graph.complete(n)
            assert len(clique_coclique_covers(g, set(range(n)))) == 2 * n + 1

    def test_pairs_cover_the_set(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, 5)
            s = {v for v in range(5) if rng.random() < 0.6}
            for x, y in clique_coclique_covers(g, s):
                assert is_clique(g, x)
                assert is_coclique(g, y)
                assert x | y == s


class TestProductBound:
    def test_complete_graph_is_tight(self):
        report = verify_product_bound(Graph.complete(3))
        assert report.product == report.bound == 32
        assert report.holds

    def test_zero_vertices(self):
        report = verify_product_bound(Graph(0, ()))
        assert report.product == 1 <= report.bound == 1

    def test_path(self):
        report = verify_product_bound(path3())
        assert (report.cliques, report.cocliques) == (6, 5)
        assert report.product == 30 <= report.bound == 32
        assert report.min_holds

    def test_exhaustive_small_graphs_obey_every_law(self):
        for n in range(5):
            for g in all_graphs(n):
                assert check_graph_bounds(g) == []


class TestNearestK:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, 1), (3, 2), (4, 3), (5, 3), (6, 4), (7, 5), (12, 7), (15, 9)],
    )
    def test_values(self, n, expected):
        assert nearest_k(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            nearest_k(0)

    def test_result_stays_within_range(self):
        for n in range(1, 200):
            assert 0 <= nearest_k(n) <= n

    def test_matches_the_float_formula(self):
        # The float formula nearest_k replaced, as an oracle: exact halves
        # (n + 1 a power of two) are settled in integers, the rest rounded
        # from floats.
        for n in range(1, 5001):
            if (n + 1) & n == 0:
                expected = (n + (n + 1).bit_length() - 1) // 2
            else:
                expected = math.floor(n / 2 + math.log2((n + 1) / 2) / 2 + 0.5)
            assert nearest_k(n) == max(0, min(n, expected)), n


class TestExtremalSplitGraph:
    def test_n4_is_a_triangle_plus_one_isolated_vertex(self):
        g = extremal_split_graph(4)
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]
        assert count_cliques(g) == 9
        assert count_cocliques(g) == 8

    def test_n0_is_the_empty_graph(self):
        g = extremal_split_graph(0)
        assert g.vertex_count == 0
        assert count_cliques(g) == count_cocliques(g) == 1

    def test_n2_is_edgeless(self):
        g = extremal_split_graph(2)
        assert g.edges() == []
        assert count_cliques(g) == 3
        assert count_cocliques(g) == 4

    def test_counts_match_the_split_structure(self):
        # A split graph with clique part k has 2**k + (n - k) cliques and
        # (k + 1) * 2**(n - k) cocliques; spot-check the implementation
        # against this closed form.
        for n in range(1, 20):
            k = nearest_k(n)
            g = extremal_split_graph(n)
            assert count_cliques(g) == 2**k + (n - k)
            assert count_cocliques(g) == (k + 1) * 2 ** (n - k)

    def test_both_counts_clear_half_the_bound_up_to_n24(self):
        for n in range(25):
            g = extremal_split_graph(n)
            bound_sq = (n + 1) * 2**n
            assert 4 * count_cliques(g) ** 2 >= bound_sq
            assert 4 * count_cocliques(g) ** 2 >= bound_sq
