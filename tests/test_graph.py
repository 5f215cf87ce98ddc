import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquespace import graph as graph_module
from cliquespace.errors import GraphFormatError
from cliquespace.graph import (
    _BLOCK_CHARS,
    Graph,
    GraphFormat,
    detect_format,
    generate,
    greedy_coloring_count,
    iter_bits,
    parse_graph,
    parse_path,
    peel_below,
    serialize,
    validate_connected,
    _blocks,
    _numbered_lines,
)

from oracles import from_networkx, to_networkx
from test_acceptance import _bipartite_trap

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


LINE_ENDS = ("\n", "\r\n", "\r", "\f")
COMMENT = {
    GraphFormat.DIMACS_CLQ: "c note",
    GraphFormat.EDGE_LIST: "# note",
    GraphFormat.MATRIX_MARKET: "% note",
}


def _entry(fmt: GraphFormat, u: int, v: int, value_field: str = "pattern") -> str:
    if fmt is GraphFormat.DIMACS_CLQ:
        return f"e {u + 1} {v + 1}"
    if fmt is GraphFormat.EDGE_LIST:
        return f"{u} {v}"
    return f"{u + 1} {v + 1}" + (" 7" if value_field == "integer" else "")


def _header(fmt: GraphFormat, n: int, declared: int, value_field: str = "pattern") -> list[str]:
    if fmt is GraphFormat.DIMACS_CLQ:
        return ["c generated", f"p edge {n} {declared}"]
    if fmt is GraphFormat.EDGE_LIST:
        return []
    return [
        f"%%MatrixMarket matrix coordinate {value_field} symmetric",
        "% generated",
        f"{n} {n} {declared}",
    ]


def _pad(fmt: GraphFormat, offset: int) -> str:
    """Comment lines, with every kind of line end in turn, filling more than
    one block of the parser's reader."""
    line = COMMENT[fmt] + " " + "x" * 60
    count = _BLOCK_CHARS // len(line) + 2
    return "".join(line + LINE_ENDS[(offset + i) % 4] for i in range(count)) + line


SUFFIX = {
    GraphFormat.DIMACS_CLQ: ".clq",
    GraphFormat.EDGE_LIST: ".txt",
    GraphFormat.MATRIX_MARKET: ".mtx",
}
# lines of all three formats, valid and not, and invalid UTF-8
FILE_LINES = tuple(
    line.encode()
    for line in (
        "p edge 4 3", "e 1 2", "e 2 3", "e 3 4", "e 4 4", "e 1 9", "e 1", "c é note",
        "%%MatrixMarket matrix coordinate pattern symmetric", "4 4 3", "2 1", "3 2", "4 3",
        "0 1", "1 2 # inline", "# note", "% note", "", "  ",
    )
) + (b"e 1 \xff2", b"\xc3", b"2 \xe2\x80")
FILE_LINE_ENDS = tuple(
    end.encode() for end in ("\n", "\r\n", "\r", "\f", "\v", "\x85", "\x1c", "\u2028", "")
)


def _outcome(parse, *args):
    """What a parse gives: its graph, warnings and connectivity, or its error."""
    try:
        report = parse(*args)
    except GraphFormatError as exc:
        return str(exc)
    return report.graph.adj_bits, report.graph.name, report.warnings, report.connected


def _draw_text(data, lines: list[str], last_ends=LINE_ENDS) -> str:
    """``lines``, each followed by a drawn line end, the last one's drawn
    from ``last_ends``."""
    ends = [data.draw(st.sampled_from(LINE_ENDS)) for _ in lines[:-1]]
    ends.append(data.draw(st.sampled_from(last_ends)))
    return "".join(line + end for line, end in zip(lines, ends))


class TestStreamingParse:
    """The parsers read a block of lines at a time and set each edge's bits
    as its line is read; they must agree with a whole-text reading."""

    @given(
        text=st.text(st.sampled_from("ab \n\r\f\x0b\x1c\x85\u2028"), max_size=60),
        block=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_numbered_lines_are_those_of_splitlines(self, text, block):
        with mock.patch.object(graph_module, "_BLOCK_CHARS", block):
            blocks = list(_blocks(text))
            assert list(_numbered_lines(blocks)) == list(enumerate(text.splitlines(), start=1))
        # every block but the last ends at a line break, "\r\n" kept whole
        assert "".join(blocks) == text
        for a, b in zip(blocks, blocks[1:]):
            assert len((a + "x").splitlines()) == len(a.splitlines()) + 1
            assert not (a.endswith("\r") and b.startswith("\n"))

    @pytest.mark.parametrize("fmt", list(GraphFormat))
    @given(
        lines=st.lists(st.sampled_from(FILE_LINES), max_size=12),
        ends=st.lists(st.sampled_from(FILE_LINE_ENDS), min_size=12, max_size=12),
        block=st.integers(1, 9),
    )
    @settings(max_examples=100, deadline=None)
    def test_parse_path_is_parse_graph_of_the_file(self, fmt, lines, ends, block):
        # mixed line ends and invalid UTF-8, streamed from a file at tiny
        # block sizes, give the graph, warnings or error of the whole bytes
        data = b"".join(line + end for line, end in zip(lines, ends))
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            graph_module, "_BLOCK_CHARS", block
        ):
            path = Path(tmp) / ("g" + SUFFIX[fmt])
            path.write_bytes(data)
            assert _outcome(parse_path, path) == _outcome(parse_graph, data, fmt, "g")

    @pytest.mark.parametrize("fmt", list(GraphFormat))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_graph_of_the_unique_edges(self, fmt, data):
        n = data.draw(st.integers(1, 12))
        node = st.integers(0, n - 1)
        # self-loops, duplicates and both orientations of an edge
        edges = data.draw(
            st.lists(st.tuples(node, node), min_size=fmt is GraphFormat.EDGE_LIST, max_size=30)
        )
        value_field = "pattern"
        delta = 0
        header_warnings = []
        if fmt is GraphFormat.DIMACS_CLQ:
            delta = data.draw(st.sampled_from((0, 0, 3)))
            if delta:
                header_warnings.append(
                    f"header declares {len(edges) + delta} edges, file has {len(edges)}"
                )
        elif fmt is GraphFormat.MATRIX_MARKET:
            value_field = data.draw(st.sampled_from(("pattern", "integer")))
            delta = data.draw(st.sampled_from((0, 0, 3)))
            if value_field != "pattern":
                header_warnings.append(
                    f"ignoring {value_field} values; graph treated as unweighted pattern"
                )
            if delta:
                header_warnings.append(
                    f"size line declares {len(edges) + delta} entries, file has {len(edges)}"
                )
        else:
            n = max(max(e) for e in edges) + 1

        body = [_entry(fmt, u, v, value_field) for u, v in edges]
        if fmt is GraphFormat.EDGE_LIST:
            body = [line + data.draw(st.sampled_from(("", "  # inline"))) for line in body]
        body += data.draw(st.lists(st.sampled_from((COMMENT[fmt], "", "   ")), max_size=10))
        if data.draw(st.booleans()):
            body.append(_pad(fmt, data.draw(st.integers(0, 3))))
        lines = _header(fmt, n, len(edges) + delta, value_field) + data.draw(st.permutations(body))
        text = _draw_text(data, lines, last_ends=LINE_ENDS + ("",))
        # the reader's own block size, or tiny blocks that cut inside the edges
        block = data.draw(st.sampled_from((_BLOCK_CHARS, 1, 5, 40)))

        with mock.patch.object(graph_module, "_BLOCK_CHARS", block):
            report = parse_graph(text, fmt)

        unique = {(min(u, v), max(u, v)) for u, v in edges if u != v}
        loops = sum(u == v for u, v in edges)
        dupes = len(edges) - loops - len(unique)
        assert report.graph.adj_bits == Graph(n, sorted(unique)).adj_bits
        assert report.warnings == tuple(
            header_warnings
            + [f"dropped {loops} self-loop(s)"] * bool(loops)
            + [f"dropped {dupes} duplicate edge(s)"] * bool(dupes)
        )

    @pytest.mark.parametrize(
        "fmt, bad",
        [
            (GraphFormat.DIMACS_CLQ, "e 1 x"),
            (GraphFormat.DIMACS_CLQ, "e 1"),
            (GraphFormat.EDGE_LIST, "1 x"),
            (GraphFormat.EDGE_LIST, "7"),
            (GraphFormat.MATRIX_MARKET, "1 x"),
            (GraphFormat.MATRIX_MARKET, "3"),
        ],
    )
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_malformed_line_after_a_block_boundary_names_its_line(self, fmt, bad, data):
        edges = [_entry(fmt, 0, 1), _entry(fmt, 2, 1)] * data.draw(st.integers(0, 3))
        lines = (
            _header(fmt, 5, len(edges))
            + [_pad(fmt, data.draw(st.integers(0, 3)))]
            + data.draw(st.permutations(edges + [bad, "", COMMENT[fmt]]))
        )
        text = _draw_text(data, lines)
        assert len(text) > _BLOCK_CHARS
        lineno = text.splitlines().index(bad) + 1
        with pytest.raises(GraphFormatError, match=f"^line {lineno}: "):
            parse_graph(text, fmt)

    @pytest.mark.parametrize("source", ["text", "file"])
    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    @pytest.mark.parametrize("fmt", list(GraphFormat))
    def test_parse_allocates_little(self, fmt, end, source, tmp_path):
        # one block of lines and the bitmasks are live at a time; holding
        # every line and one tuple per edge would peak near 10 MiB here, and
        # a file's bytes and their decoded text near 1.4 MiB
        g = generate("gnp", 400, p=0.9, seed=1)
        text = serialize(g, fmt).replace("\n", end)
        path = tmp_path / ("g" + SUFFIX[fmt])
        path.write_bytes(text.encode())
        tracemalloc.start()
        try:
            report = parse_graph(text, fmt) if source == "text" else parse_path(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.graph == g
        assert peak < 2**20


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


def _assert_peels_to_networkx_k_cores(g: Graph) -> None:
    """Peel below every k up to the top core number + 1, both from the
    whole graph and on from the previous k's survivors, against
    ``networkx.k_core``; ``degree`` must hold the live degrees after."""
    G = to_networkx(g)
    everyone = (1 << g.node_count) - 1
    kept, kept_degree = everyone, list(g.degrees)
    for k in range(max(nx.core_number(G).values()) + 2):
        expected = set(nx.k_core(G, k))
        degree = list(g.degrees)
        fresh = peel_below(g.adj_bits, everyone, degree, k)
        kept = peel_below(g.adj_bits, kept, kept_degree, k)
        for alive, live_degree in ((fresh, degree), (kept, kept_degree)):
            assert set(iter_bits(alive)) == expected, k
            for v in iter_bits(alive):
                assert live_degree[v] == (g.adj_bits[v] & alive).bit_count()


class TestPeelBelow:
    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(_bipartite_trap(7, 9), id="trap_7_9"),
            pytest.param(generate("star", 7), id="star7"),
            # node 4 is isolated: it leaves at k = 1, the triangle at k = 3
            pytest.param(Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)]), id="isolated_node"),
        ],
    )
    def test_matches_networkx_k_core(self, g):
        _assert_peels_to_networkx_k_cores(g)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), p=st.floats(0.0, 0.6), seed=st.integers(0, 10_000))
    def test_matches_networkx_k_core_on_gnp(self, n, p, seed):
        # low p gives disconnected draws and isolated nodes
        _assert_peels_to_networkx_k_cores(from_networkx(nx.gnp_random_graph(n, p, seed=seed)))


class TestGreedyColoringCount:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 30),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
        live=st.integers(min_value=1),
    )
    def test_matches_networkx_largest_first_on_the_live_graph(self, n, p, seed, live):
        g = generate("gnp", n, p, seed=seed)
        alive = live & ((1 << n) - 1) or 1
        H = nx.Graph()
        H.add_nodes_from(iter_bits(alive))  # ascending ids
        H.add_edges_from((u, v) for u, v in g.edges if alive >> u & alive >> v & 1)
        coloring = nx.greedy_color(
            H, strategy=lambda G, c: sorted(G, key=lambda v: (-G.degree(v), v))
        )
        assert greedy_coloring_count(g.adj_bits, alive) == max(coloring.values()) + 1


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
