import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquespace.errors import GraphFormatError
from cliquespace.graph import (
    Graph,
    GraphFormat,
    detect_format,
    generate,
    parse_graph,
    serialize,
    validate_connected,
)

DIMACS_K3 = "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


class TestDimacsParsing:
    def test_triangle(self):
        report = parse_graph(DIMACS_K3, GraphFormat.DIMACS_CLQ)
        g = report.graph
        assert g.node_count == 3
        assert g.edge_count == 3
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
        assert report.connected
        assert report.warnings == ()

    def test_one_based_conversion(self):
        report = parse_graph("p edge 2 1\ne 1 2\n", GraphFormat.DIMACS_CLQ)
        assert report.graph.edges == frozenset({(0, 1)})

    def test_self_loop_and_duplicate_warnings(self):
        text = "p edge 3 4\ne 1 1\ne 1 2\ne 2 1\ne 2 3\n"
        report = parse_graph(text, GraphFormat.DIMACS_CLQ)
        assert report.graph.edge_count == 2
        assert any("self-loop" in w for w in report.warnings)
        assert any("duplicate" in w for w in report.warnings)

    def test_warning_counts(self):
        text = "p edge 3 7\ne 1 1\ne 1 2\ne 2 1\ne 3 3\ne 1 2\ne 2 3\ne 3 2\n"
        report = parse_graph(text, GraphFormat.DIMACS_CLQ)
        assert report.graph == Graph(3, [(0, 1), (1, 2)])
        assert report.warnings == (
            "dropped 2 self-loop(s)",
            "dropped 3 duplicate edge(s)",
        )

    def test_header_count_mismatch_warns(self):
        report = parse_graph("p edge 3 5\ne 1 2\n", GraphFormat.DIMACS_CLQ)
        assert any("declares 5 edges" in w for w in report.warnings)

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError, match="outside"):
            parse_graph("p edge 3 1\ne 1 4\n", GraphFormat.DIMACS_CLQ)

    def test_missing_header_rejected(self):
        with pytest.raises(GraphFormatError, match="problem line"):
            parse_graph("e 1 2\n", GraphFormat.DIMACS_CLQ)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_graph("p edge 0 0\n", GraphFormat.DIMACS_CLQ)


class TestEdgeListParsing:
    def test_path(self):
        report = parse_graph("0 1\n1 2\n2 3\n", GraphFormat.EDGE_LIST)
        g = report.graph
        assert g.node_count == 4
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert report.connected

    def test_comments_and_blanks(self):
        report = parse_graph("# header\n\n0 1  # inline\n", GraphFormat.EDGE_LIST)
        assert report.graph.edges == frozenset({(0, 1)})

    def test_negative_id_rejected(self):
        with pytest.raises(GraphFormatError, match="negative"):
            parse_graph("-1 2\n", GraphFormat.EDGE_LIST)

    def test_empty_rejected(self):
        with pytest.raises(GraphFormatError, match="empty"):
            parse_graph("# nothing\n", GraphFormat.EDGE_LIST)

    def test_gap_in_ids_yields_isolated_nodes(self):
        report = parse_graph("0 3\n", GraphFormat.EDGE_LIST)
        assert report.graph.node_count == 4
        assert not report.connected


class TestMatrixMarketParsing:
    MM_TRIANGLE = (
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% triangle\n"
        "3 3 3\n"
        "2 1\n3 1\n3 2\n"
    )

    def test_triangle(self):
        report = parse_graph(self.MM_TRIANGLE, GraphFormat.MATRIX_MARKET)
        assert report.graph.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_general_symmetry_rejected(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1\n"
        with pytest.raises(GraphFormatError, match="symmetric"):
            parse_graph(text, GraphFormat.MATRIX_MARKET)

    def test_rectangular_rejected(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n2 1\n"
        with pytest.raises(GraphFormatError, match="square"):
            parse_graph(text, GraphFormat.MATRIX_MARKET)

    def test_diagonal_dropped_with_warning(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 1\n2 1\n"
        report = parse_graph(text, GraphFormat.MATRIX_MARKET)
        assert report.graph.edge_count == 1
        assert any("self-loop" in w for w in report.warnings)

    def test_real_values_ignored_with_warning(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 0.5\n"
        report = parse_graph(text, GraphFormat.MATRIX_MARKET)
        assert report.graph.edge_count == 1
        assert any("unweighted" in w for w in report.warnings)


class TestGraphInvariants:
    def test_adjacency_consistency(self):
        g = generate("gnp", 30, 0.4, seed=3)
        for u in range(g.node_count):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
        assert sum(g.degrees) == 2 * g.edge_count

    def test_constructor_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="outside"):
            Graph(3, [(0, 5)])

    def test_bitmask_matches_adjacency(self):
        g = generate("gnp", 25, 0.5, seed=9)
        for u in range(g.node_count):
            for v in range(g.node_count):
                assert g.has_edge(u, v) == (v in g.neighbors(u))

    # p stays low enough that many of the drawn graphs are disconnected
    @given(
        n=st.integers(1, 25),
        p=st.floats(0.0, 0.4),
        seed=st.integers(0, 10_000),
        rnd=st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_networkx(self, n, p, seed, rnd):
        G = nx.gnp_random_graph(n, p, seed=seed)
        g = Graph(n, list(G.edges()))
        assert g.edges == frozenset((min(u, v), max(u, v)) for u, v in G.edges())
        assert g.edge_count == G.number_of_edges()
        assert g.degrees == tuple(G.degree(v) for v in range(n))
        for u in range(n):
            assert g.neighbors(u) == tuple(sorted(G[u]))
            for v in range(n):
                assert g.has_edge(u, v) == G.has_edge(u, v)
        assert validate_connected(g) == nx.is_connected(G)

        shuffled = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in G.edges()]
        rnd.shuffle(shuffled)
        same = Graph(n, shuffled)
        assert same == g
        assert hash(same) == hash(g)


class TestGenerate:
    def test_complete_edge_count(self):
        assert generate("complete", 5).edge_count == 10

    def test_cycle_degrees(self):
        g = generate("cycle", 6)
        assert g.edge_count == 6
        assert all(d == 2 for d in g.degrees)

    def test_gnp_deterministic(self):
        a = generate("gnp", 15, 0.5, seed=42)
        b = generate("gnp", 15, 0.5, seed=42)
        assert a.edges == b.edges

    def test_gnp_seed_sensitivity(self):
        a = generate("gnp", 15, 0.5, seed=1)
        b = generate("gnp", 15, 0.5, seed=2)
        assert a.edges != b.edges

    def test_gnp_expected_edge_count(self):
        # mean over 200 seeds within 4 sigma of p * C(n, 2)
        n, p, trials = 50, 0.3, 200
        pairs = n * (n - 1) // 2
        counts = [generate("gnp", n, p, seed=s).edge_count for s in range(trials)]
        mean = sum(counts) / trials
        expected = p * pairs
        sigma = math.sqrt(pairs * p * (1 - p) / trials)
        assert abs(mean - expected) < 4 * sigma

    def test_star_shape(self):
        g = generate("star", 7)
        assert g.degrees[0] == 6
        assert all(d == 1 for d in g.degrees[1:])

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            generate("cycle", 2)
        with pytest.raises(ValueError):
            generate("gnp", 5, 1.5, seed=0)
        with pytest.raises(ValueError):
            generate("mystery", 5)


class TestConnectivity:
    def test_k5_connected(self, k5):
        assert validate_connected(k5)

    def test_two_triangles_disconnected(self, two_triangles):
        assert not validate_connected(two_triangles)

    def test_star_connected(self, star7):
        assert validate_connected(star7)

    def test_single_node_connected(self):
        assert validate_connected(Graph(1, []))


class TestSerialization:
    @pytest.mark.parametrize("fmt", list(GraphFormat))
    def test_round_trip_fixed(self, fmt, k5):
        report = parse_graph(serialize(k5, fmt), fmt)
        assert report.graph == k5

    @given(n=st.integers(2, 30), p=st.floats(0.05, 0.95), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, n, p, seed):
        g = generate("gnp", n, p, seed=seed)
        for fmt in GraphFormat:
            if fmt is GraphFormat.EDGE_LIST and g.edge_count == 0:
                continue
            # edge lists infer node count from max id; isolated tail nodes
            # cannot round-trip, so compare edge sets there
            parsed = parse_graph(serialize(g, fmt), fmt).graph
            assert parsed.edges == g.edges
            if fmt is not GraphFormat.EDGE_LIST:
                assert parsed.node_count == g.node_count

    def test_golden_bytes(self):
        # edges given out of order and reversed; output order is lexicographic
        g = Graph(4, [(3, 2), (0, 3), (2, 1), (1, 0)])
        assert serialize(g, GraphFormat.DIMACS_CLQ) == "p edge 4 4\ne 1 2\ne 1 4\ne 2 3\ne 3 4\n"
        assert serialize(g, GraphFormat.EDGE_LIST) == "0 1\n0 3\n1 2\n2 3\n"
        assert serialize(g, GraphFormat.MATRIX_MARKET) == (
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "4 4 4\n"
            "2 1\n4 1\n3 2\n4 3\n"
        )

    def test_detect_format(self, tmp_path):
        assert detect_format("x/brock200_1.clq") is GraphFormat.DIMACS_CLQ
        assert detect_format("y.mtx") is GraphFormat.MATRIX_MARKET
        assert detect_format("z.edges") is GraphFormat.EDGE_LIST
