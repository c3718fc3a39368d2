"""Unit tests for the graph operations and counting bounds."""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ufa import (
    Graph,
    all_graphs,
    check_graph_bounds,
    count_cliques,
    count_cocliques,
    extremal_split_graph,
    nearest_k,
    verify_product_bound,
)
from ufa.graphs import _cliques, _non_neighbor_masks, _subset_counts
from helpers import (
    adjacency,
    brute_force_cliques,
    complement_graph,
    complete_graph,
    count_clique_tree,
    graphs,
    graphs_with_isolated_vertices,
    is_clique,
    is_coclique,
    path3,
    random_graph,
    reference_covers,
    reference_partitions,
)


class TestGraphValidation:
    """The constructor takes (vertex, neighbor mask) pairs for the vertices
    with edges, by ascending vertex, and checks them with mask operations."""

    def test_accepts_the_masks_from_edges_builds(self):
        g = Graph(3, ((0, 0b010), (1, 0b101), (2, 0b010)))
        assert g == path3()
        assert hash(g) == hash(path3())
        assert g.neighbor_masks == ((0, 0b010), (1, 0b101), (2, 0b010))

    def test_isolated_vertices_are_left_out(self):
        g = Graph.from_edges(5, [(1, 3)])
        assert g.neighbor_masks == ((1, 0b01000), (3, 0b00010))
        assert g._adj_masks == (0, 0b01000, 0, 0b00010, 0)
        assert Graph.from_edges(4, []) == Graph(4, ())

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, ((0, 0b1),))
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, ((0, 0b011), (1, 0b001)))
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, ((0, 0b10),))
        with pytest.raises(ValueError, match="symmetric"):
            Graph(3, ((0, 0b110), (1, 0b001), (2, 0b010)))
        with pytest.raises(ValueError, match="symmetric"):
            # Vertex 2 lists 0, which does not list it back.
            Graph(3, ((0, 0b010), (1, 0b001), (2, 0b001)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 0b110), (1, 0b001)))
        with pytest.raises(ValueError, match="in range, got 2"):
            Graph(2, ((2, 0b01),))
        with pytest.raises(ValueError, match="in range, got -1"):
            Graph(2, ((-1, 0b01),))
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_empty_or_negative_masks(self):
        with pytest.raises(ValueError, match="empty"):
            Graph(2, ((0, 0),))
        with pytest.raises(ValueError, match="empty"):
            Graph(2, ((0, -2), (1, 0b01)))

    def test_rejects_non_int_vertices_and_masks(self):
        with pytest.raises(ValueError, match="in range, got 1.0"):
            Graph(3, ((0, 0b010), (1.0, 0b001)))
        with pytest.raises(ValueError, match="out of range, got 2.0"):
            Graph(2, ((0, 2.0), (1, 0b01)))
        with pytest.raises(ValueError, match="out of range, got 1.0"):
            Graph(2, ((0, 0b10), (1, 1.0)))
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 1.0)])

    def test_rejects_unsorted_or_duplicate_vertices(self):
        with pytest.raises(ValueError, match="ascending, distinct"):
            Graph(2, ((1, 0b01), (0, 0b10)))
        with pytest.raises(ValueError, match="ascending, distinct"):
            Graph(2, ((0, 0b10), (0, 0b10), (1, 0b01)))

    def test_rejects_a_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1, ())

    def test_edges_are_sorted_with_u_below_v(self):
        g = Graph.from_edges(3, [(2, 1), (1, 0)])
        assert g.edges() == [(0, 1), (1, 2)]


class TestIsClique:
    """The pairwise clique and coclique oracles in helpers."""

    def test_empty_set_is_a_clique(self):
        assert is_clique(path3(), frozenset())
        assert is_coclique(path3(), frozenset())

    def test_path_pairs(self):
        assert is_clique(path3(), {0, 1})
        assert not is_clique(path3(), {0, 2})
        assert is_coclique(path3(), {0, 2})

    def test_complete_graph_full_set(self):
        assert is_clique(complete_graph(3), {0, 1, 2})


class TestComplementGraph:
    """The complement oracle in helpers."""

    def test_complete_to_edgeless(self):
        assert complement_graph(complete_graph(3)).edges() == []

    def test_edgeless_to_complete(self):
        assert complement_graph(Graph(4, ())) == complete_graph(4)

    def test_path_to_single_edge(self):
        assert complement_graph(path3()).edges() == [(0, 2)]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, g):
        assert complement_graph(complement_graph(g)) == g


class TestCountCliques:
    def test_complete_graphs(self):
        for n in (1, 3, 6):
            assert count_cliques(complete_graph(n)) == 2**n
            assert count_cocliques(complete_graph(n)) == n + 1

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

    @given(graphs_with_isolated_vertices())
    @settings(max_examples=150, deadline=None)
    def test_graphs_with_isolated_vertices_match_the_oracles(self, drawn):
        g, edges = drawn
        assert g.edges() == sorted(edges)
        neighbors = adjacency(g)
        assert g._adj_masks == tuple(sum(1 << v for v in vs) for vs in neighbors)
        assert count_cliques(g) == len(brute_force_cliques(g))
        assert count_cocliques(g) == len(brute_force_cliques(complement_graph(g)))

    def test_vertex_count_beyond_the_recursion_limit(self):
        n = 1100
        assert n > sys.getrecursionlimit()
        assert count_cliques(Graph(n, ())) == n + 1
        assert count_cocliques(complete_graph(n)) == n + 1


@st.composite
def joined_graphs(draw):
    """A disjoint union of two drawn graphs, plus vertices joined to every
    other one and vertices joined to none, under a drawn relabeling: the
    shapes that the counter's reductions and product split take apart
    (the union is a product for the cocliques)."""
    left, right = draw(graphs(max_vertices=5)), draw(graphs(max_vertices=5))
    universal, isolated = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    base = left.vertex_count + right.vertex_count
    n = base + universal + isolated
    edges = left.edges() + [(u + left.vertex_count, v + left.vertex_count) for u, v in right.edges()]
    edges += [(u, w) for w in range(base, base + universal) for u in range(w)]
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


# The one seeded case below whose count is over 10**6, too many to list.
_OVER_A_MILLION = {(30, 0.9, "cliques")}


class TestBranchingCounter:
    """_count_cliques counts by branch and reduce; the oracles count one
    clique at a time."""

    @given(joined_graphs())
    @settings(max_examples=150, deadline=None)
    def test_unions_with_universal_and_isolated_vertices_match_brute_force(self, g):
        assert count_cliques(g) == len(brute_force_cliques(g))
        assert count_cocliques(g) == len(brute_force_cliques(complement_graph(g)))

    @pytest.mark.parametrize("n", range(15, 31))
    def test_seeded_random_graphs_match_the_clique_listing(self, n):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = random_graph(random.Random(f"{n}:{p}"), n, p)
            non = tuple(_non_neighbor_masks(dict(enumerate(g._adj_masks))).values())
            for kind, count, masks in (
                ("cliques", count_cliques(g), g._adj_masks),
                ("cocliques", count_cocliques(g), non),
            ):
                assert (count > 10**6) == ((n, p, kind) in _OVER_A_MILLION), (n, p, kind)
                if count <= 10**6:
                    assert count == count_clique_tree(masks, 10**6), (n, p, kind)

    @pytest.mark.parametrize("n,p", [(45, 0.5), (45, 0.6), (40, 0.7), (45, 0.3)])
    def test_networkx_agrees(self, n, p):
        nx = pytest.importorskip("networkx")
        g = random_graph(random.Random(f"nx:{n}:{p}"), n, p)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        # networkx lists the nonempty cliques only.
        assert count_cliques(g) == sum(1 for _ in nx.enumerate_all_cliques(h)) + 1
        assert count_cocliques(g) == sum(1 for _ in nx.enumerate_all_cliques(nx.complement(h))) + 1

    def test_a_star_past_the_recursion_limit(self):
        leaves = 1100
        assert leaves > sys.getrecursionlimit()
        star = Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        # The empty clique, 1101 singletons and 1100 edges; the cocliques
        # are the subsets of the leaves and the center alone.
        assert count_cliques(star) == 2202
        assert count_cocliques(star) == 2**leaves + 1


class TestEnumerateCliques:
    """graphs._cliques, on neighbor masks."""

    def test_single_vertex(self):
        assert _cliques(Graph(1, ())._adj_masks) == [(), (0,)]

    def test_single_edge(self):
        assert _cliques(complete_graph(2)._adj_masks) == [(), (0,), (1,), (0, 1)]

    def test_path_in_canonical_order(self):
        assert _cliques(path3()._adj_masks) == [(), (0,), (1,), (2,), (0, 1), (1, 2)]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_no_duplicates_and_length_matches_count(self, g):
        listed = _cliques(g._adj_masks)
        assert len(listed) == len(set(listed)) == count_cliques(g)
        assert set(map(frozenset, listed)) == set(brute_force_cliques(g))


class TestPartitions:
    """The partition oracle in helpers, which _subset_counts is checked
    against."""

    def test_empty_set_has_the_empty_partition(self):
        assert reference_partitions(path3(), frozenset()) == [frozenset()]

    def test_single_edge_full_set(self):
        g = complete_graph(2)
        assert reference_partitions(g, {0, 1}) == [{0}, {1}, {0, 1}]

    def test_complete_graph_keeps_at_most_one_vertex_out(self):
        n = 4
        g = complete_graph(n)
        halves = reference_partitions(g, set(range(n)))
        assert len(halves) == n + 1
        assert all(len(set(range(n)) - x) <= 1 for x in halves)

    def test_members_split_into_clique_and_coclique(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, 6)
            s = {v for v in range(6) if rng.random() < 0.5}
            for x in reference_partitions(g, s):
                assert is_clique(g, x)
                assert is_coclique(g, s - x)


class TestCovers:
    """The cover oracle in helpers, which _subset_counts is checked against."""

    def test_empty_set(self):
        assert reference_covers(path3(), frozenset()) == [(frozenset(), frozenset())]

    def test_isolated_vertex(self):
        g = Graph(1, ())
        assert reference_covers(g, {0}) == [
            (frozenset(), {0}),
            ({0}, frozenset()),
            ({0}, {0}),
        ]

    def test_complete_graph_has_exactly_2n_plus_1(self):
        for n in (2, 3, 5):
            g = complete_graph(n)
            assert len(reference_covers(g, set(range(n)))) == 2 * n + 1

    def test_pairs_cover_the_set(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, 5)
            s = {v for v in range(5) if rng.random() < 0.6}
            for x, y in reference_covers(g, s):
                assert is_clique(g, x)
                assert is_coclique(g, y)
                assert x | y == s


def _members(mask: int) -> set:
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


def _assert_counts_match_the_oracles(g):
    counts = list(_subset_counts(g))
    assert [mask for mask, _, _ in counts] == list(range(1 << g.vertex_count))
    for mask, partitions, covers in counts:
        s = _members(mask)
        assert partitions == len(reference_partitions(g, s)), (g, s)
        assert covers == len(reference_covers(g, s)), (g, s)


class TestSubsetCounts:
    def test_every_graph_up_to_five_vertices(self):
        checked = 0
        for n in range(6):
            for g in all_graphs(n):
                _assert_counts_match_the_oracles(g)
                checked += 1
        assert checked == 1100

    def test_seeded_six_and_seven_vertex_graphs(self):
        rng = random.Random(41)
        for n in (6, 7):
            for _ in range(100):
                _assert_counts_match_the_oracles(random_graph(rng, n, rng.random()))

    def test_inflated_counts_give_the_exact_violations(self, monkeypatch):
        # Counts for the 2-vertex complete graph, whose true product is
        # 4 * 3 = 12, raised past every per-set bound on some set.
        fake = [(0, 1, 1), (1, 3, 2), (2, 2, 4), (3, 4, 9)]
        monkeypatch.setattr("ufa.graphs._subset_counts", lambda g: iter(fake))
        assert check_graph_bounds(complete_graph(2)) == [
            "3 partitions of [0] exceed 2",
            "4 covering pairs of [1] exceed 3",
            "4 partitions of [0, 1] exceed 3",
            "9 covering pairs of [0, 1] exceed 5",
            "covering pairs total 16, expected 12",
        ]


class TestProductBound:
    def test_complete_graph_is_tight(self):
        report = verify_product_bound(complete_graph(3))
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
