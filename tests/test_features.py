import itertools
import math
import time
import tracemalloc

import numpy as np
import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliquespace import features
from cliquespace.errors import DisconnectedGraphError, FeatureTimeoutError
from cliquespace.features import (
    FEATURE_NAMES,
    FeatureVector,
    _csr,
    _shortest_path_sweep,
    compute_features,
    greedy_clique,
    read_features_csv,
    spectral_features,
    write_features_csv,
)
from cliquespace.graph import Budget, Graph, generate, iter_bits

from oracles import connected_gnp, from_networkx, to_networkx
from test_acceptance import _bipartite_trap


class TestFeatureVectorShape:
    def test_canonical_order_has_35_names(self):
        assert len(FEATURE_NAMES) == 35
        assert FEATURE_NAMES[0] == "node_count"
        assert FEATURE_NAMES[-1] == "chromatic_minus_greedy_clique_gap"

    def test_as_array_follows_canonical_order(self, k3):
        fv = compute_features(k3)
        arr = fv.as_array()
        assert arr.shape == (35,)
        for i, name in enumerate(FEATURE_NAMES):
            assert arr[i] == getattr(fv, name)

    def test_timings_cover_every_group_in_table_order(self, k5):
        fv = compute_features(k5)
        assert list(fv.timings) == [key for key, _ in features._GROUPS] == [
            "degree", "distance", "spectral", "clustering", "clique",
        ]
        assert all(t >= 0.0 for t in fv.timings.values())

    def test_groups_partition_the_feature_names(self, k5):
        # compute_features merges the groups with dict.update, which would
        # let a later group overwrite a name silently
        csr = _csr(k5)
        seen: set[str] = set()
        for key, group in features._GROUPS:
            names = set(group(k5, csr, Budget(60.0)))
            assert not names & seen, key
            seen |= names
        assert seen == set(FEATURE_NAMES)


class TestPreconditions:
    def test_disconnected_graph_rejected(self, two_triangles):
        with pytest.raises(DisconnectedGraphError):
            compute_features(two_triangles)

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            compute_features(Graph(1, []))

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_timeout_rejected(self, k3, timeout):
        with pytest.raises(ValueError, match="positive and finite"):
            compute_features(k3, timeout=timeout)

    def test_timeout_has_no_unlimited_budget(self, k3):
        # None means no limit only for the exact solver
        with pytest.raises(ValueError, match="positive and finite"):
            compute_features(k3, timeout=None)

    def test_budget_overrun_raises(self):
        g = connected_gnp(60, 0.5, seed=7)
        with pytest.raises(FeatureTimeoutError):
            compute_features(g, timeout=1e-9)

    def test_budget_checked_before_spectral_block(self, monkeypatch, k5):
        # the sweep returns true values but leaves the budget spent; the
        # eigenvalue calls that follow cannot be interrupted, so none may start
        real_sweep = features._shortest_path_sweep

        def slow_sweep(indptr, indices, budget):
            result = real_sweep(indptr, indices, budget)
            time.sleep(0.1)
            return result

        def no_eigvalsh(a):
            pytest.fail("eigvalsh ran after the budget was spent")

        monkeypatch.setattr(features, "_shortest_path_sweep", slow_sweep)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        with pytest.raises(FeatureTimeoutError):
            compute_features(k5, timeout=0.05)


class TestCountsAndDegrees:
    def test_k5_basics(self, k5):
        fv = compute_features(k5)
        assert fv.node_count == 5.0
        assert fv.edge_count == 10.0
        assert fv.density == 1.0
        assert fv.median_degree == 4.0
        assert fv.std_degree == 0.0

    def test_star_neighbor_degree_medians(self, star7):
        # leaves see only the hub (degree 6); the hub sees degree-1 leaves
        fv = compute_features(star7)
        assert fv.median_median_neighbor_degree == 6.0
        assert fv.std_median_neighbor_degree == pytest.approx(
            math.sqrt(1050.0 / 343.0), abs=1e-12
        )

    def test_neighbor_degree_medians_match_networkx(self):
        for seed in (21, 22, 23):
            g = connected_gnp(40, 0.15, seed=seed)
            G = to_networkx(g)
            medians = np.array([float(np.median([G.degree(u) for u in G[v]]))
                                for v in range(g.node_count)])
            fv = compute_features(g)
            assert fv.median_median_neighbor_degree == pytest.approx(
                float(np.median(medians)), abs=1e-12
            )
            assert fv.std_median_neighbor_degree == pytest.approx(
                float(np.std(medians)), abs=1e-12
            )

    def test_density_of_cycle(self, c5):
        fv = compute_features(c5)
        assert fv.density == pytest.approx(0.5)


class TestDistanceFeatures:
    def test_girth_fixtures(self, k3, c4, c5, p4, star7):
        assert compute_features(k3).girth == 3.0
        assert compute_features(c4).girth == 4.0
        assert compute_features(c5).girth == 5.0
        assert compute_features(p4).girth == 0.0  # acyclic sentinel
        assert compute_features(star7).girth == 0.0

    def test_petersen_girth_and_diameter(self):
        g = Graph(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
            name="petersen",
        )
        fv = compute_features(g)
        assert fv.girth == 5.0
        assert fv.diameter == 2.0

    def test_path_geodesic_stats(self, p3):
        # distances on 0-1-2: {1, 1, 2}
        fv = compute_features(p3)
        assert fv.diameter == 2.0
        assert fv.median_geodesic_distance == 1.0
        assert fv.std_geodesic_distance == pytest.approx(math.sqrt(2.0) / 3.0)

    def test_even_cycle_geodesics(self, c4):
        # C4 pair distances: four at 1, two at 2
        fv = compute_features(c4)
        assert fv.diameter == 2.0
        assert fv.median_geodesic_distance == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_girth_and_diameter_match_networkx(self, seed):
        g = connected_gnp(25, 0.12, seed=seed)
        G = to_networkx(g)
        fv = compute_features(g)
        expected_girth = nx.girth(G)
        assert fv.girth == (0.0 if expected_girth == math.inf else float(expected_girth))
        assert fv.diameter == float(nx.diameter(G))


# Symmetric graphs of even girth 2k >= 4: the sweep's 2d+2 branch sets the
# girth at depth d = k-1 >= 1, and pairs at distance k are joined by more
# than one geodesic.
CAGE_GRAPHS = {
    "heawood": (nx.heawood_graph, 6),
    "hypercube4": (lambda: nx.hypercube_graph(4), 4),
    "moebius_kantor": (nx.moebius_kantor_graph, 6),
    "tutte_coxeter": (lambda: nx.LCF_graph(30, [-13, -9, 7, -7, 9, 13], 5), 8),
}


class TestCsr:
    @given(n=st.integers(1, 70), p=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_a_walk_over_every_set_bit(self, n, p, seed):
        g = generate("gnp", n, p=p, seed=seed)
        indptr, indices = _csr(g)
        assert indptr.dtype == indices.dtype == np.int64
        assert indptr.tolist() == [0, *itertools.accumulate(g.degrees)]
        assert indices.tolist() == [v for mask in g.adj_bits for v in iter_bits(mask)]


class TestShortestPathSweep:
    @pytest.mark.parametrize("name", sorted(CAGE_GRAPHS))
    def test_matches_networkx_on_even_girth_graphs(self, name):
        build, girth = CAGE_GRAPHS[name]
        G = build()
        g = from_networkx(G, name=name)
        H = to_networkx(g)
        assert nx.girth(H) == girth
        sweep_girth, hist, dist_sums, bc = _shortest_path_sweep(*_csr(g), Budget(60.0))
        assert sweep_girth == float(girth)
        lengths = dict(nx.all_pairs_shortest_path_length(H))
        pair_dists = [lengths[u][v] for u in H for v in H if u < v]
        assert hist.tolist() == np.bincount(pair_dists, minlength=g.node_count).tolist()
        n = g.node_count
        expected_bc = nx.betweenness_centrality(H, normalized=True)
        expected_cc = nx.closeness_centrality(H)
        for v in range(n):
            assert bc[v] == pytest.approx(expected_bc[v], abs=1e-12)
            assert (n - 1) / dist_sums[v] == pytest.approx(expected_cc[v], abs=1e-12)
        fv = compute_features(g)
        assert fv.girth == float(girth)
        assert fv.diameter == float(nx.diameter(H))
        assert fv.median_betweenness_centrality == pytest.approx(
            float(np.median(list(expected_bc.values()))), abs=1e-12
        )
        assert fv.median_closeness_centrality == pytest.approx(
            float(np.median(list(expected_cc.values()))), abs=1e-12
        )

    def test_disconnected_csr_rejected(self, two_triangles):
        with pytest.raises(DisconnectedGraphError):
            _shortest_path_sweep(*_csr(two_triangles), Budget(60.0))

    @pytest.mark.parametrize("kind, n, calls", [("cycle", 12, 84), ("path", 7, 40)])
    def test_gathers_each_level_once_per_source(self, monkeypatch, kind, n, calls):
        # the dependency pass walks the edges the forward search kept, so
        # the only neighborhood gathers are one per BFS level (eccentricity
        # + 1, counting the level that finds nothing new) per source
        real_gather = features._gather
        count = 0

        def counting_gather(*args):
            nonlocal count
            count += 1
            return real_gather(*args)

        monkeypatch.setattr(features, "_gather", counting_gather)
        _shortest_path_sweep(*_csr(generate(kind, n)), Budget(60.0))
        assert count == calls


# Long paths (small spectral gaps), a star, a complete bipartite graph and
# an even cycle, beside two random graphs.
EIGENVECTOR_GRAPHS = {
    "gnp24_s21": lambda: connected_gnp(24, 0.3, seed=21),
    "gnp24_s22": lambda: connected_gnp(24, 0.3, seed=22),
    "p100": lambda: generate("path", 100),
    "p200": lambda: generate("path", 200),
    "s50": lambda: generate("star", 50),
    "k5_7": lambda: from_networkx(nx.complete_bipartite_graph(5, 7), name="k5_7"),
    "c4": lambda: generate("cycle", 4),
}


class TestCentralities:
    def test_path_betweenness_hand_values(self, p3):
        fv = compute_features(p3)
        # centre node carries the single 0-2 geodesic: values (0, 1, 0)
        assert fv.median_betweenness_centrality == 0.0
        assert fv.std_betweenness_centrality == pytest.approx(math.sqrt(2.0) / 3.0)

    def test_star_betweenness_median_is_zero(self, star7):
        fv = compute_features(star7)
        assert fv.median_betweenness_centrality == 0.0
        assert fv.median_degree_centrality == pytest.approx(1.0 / 6.0)

    def test_vertex_transitive_graphs_have_zero_spread(self, k5, c5, c4):
        for g in (k5, c5, c4):
            fv = compute_features(g)
            assert fv.std_betweenness_centrality < 1e-9
            assert fv.std_closeness_centrality < 1e-9
            assert fv.std_degree_centrality < 1e-9
            assert fv.std_eigenvector_centrality < 1e-9
        # the leading eigenvector is uniform, 1/sqrt(4) on every node of C4
        assert compute_features(c4).median_eigenvector_centrality == pytest.approx(0.5, abs=1e-12)

    def test_disconnected_rejected(self, two_triangles):
        with pytest.raises(DisconnectedGraphError):
            compute_features(two_triangles)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_betweenness_and_closeness_match_networkx(self, seed):
        g = connected_gnp(30, 0.2, seed=seed)
        G = to_networkx(g)
        fv = compute_features(g)
        bc = np.array([nx.betweenness_centrality(G, normalized=True)[v]
                       for v in range(g.node_count)])
        cc = np.array([nx.closeness_centrality(G)[v] for v in range(g.node_count)])
        assert fv.median_betweenness_centrality == pytest.approx(float(np.median(bc)), abs=1e-9)
        assert fv.std_betweenness_centrality == pytest.approx(float(np.std(bc)), abs=1e-9)
        assert fv.median_closeness_centrality == pytest.approx(float(np.median(cc)), abs=1e-9)
        assert fv.std_closeness_centrality == pytest.approx(float(np.std(cc)), abs=1e-9)

    @pytest.mark.parametrize("name", sorted(EIGENVECTOR_GRAPHS))
    def test_eigenvector_matches_dense_eigendecomposition(self, name):
        g = EIGENVECTOR_GRAPHS[name]()
        adj = np.zeros((g.node_count, g.node_count))
        for u, v in g.edges:
            adj[u, v] = adj[v, u] = 1.0
        _, vecs = np.linalg.eigh(adj)
        lead = vecs[:, -1]
        if lead.sum() < 0:
            lead = -lead
        fv = compute_features(g)
        assert fv.median_eigenvector_centrality == pytest.approx(
            float(np.median(lead)), abs=1e-12
        )
        assert fv.std_eigenvector_centrality == pytest.approx(float(np.std(lead)), abs=1e-12)

    @pytest.mark.parametrize("name", sorted(EIGENVECTOR_GRAPHS))
    def test_public_helpers_agree_with_compute_features(self, name):
        g = EIGENVECTOR_GRAPHS[name]()
        fv = compute_features(g)
        spec = vars(spectral_features(g))
        assert len(spec) == 13
        assert {k: getattr(fv, k) for k in spec} == spec


class TestClustering:
    def test_fixture_values(self, k5, c5, star7):
        assert compute_features(k5).global_clustering_coefficient == 1.0
        assert compute_features(c5).global_clustering_coefficient == 0.0
        assert compute_features(star7).global_clustering_coefficient == 0.0

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_matches_networkx_transitivity(self, seed):
        g = connected_gnp(40, 0.25, seed=seed)
        fv = compute_features(g)
        assert fv.global_clustering_coefficient == pytest.approx(
            nx.transitivity(to_networkx(g)), abs=1e-12
        )


class TestSpectralFeatures:
    def test_triangle_even_walk_proportion_frozen(self, k3):
        # adjacency eigenvalues of K3 are (2, -1, -1)
        expected = (math.cosh(2) + 2 * math.cosh(1)) / (math.exp(2) + 2 * math.exp(-1))
        spec = spectral_features(k3)
        assert spec.even_closed_walk_proportion == pytest.approx(expected, abs=1e-12)
        assert spec.even_closed_walk_proportion == pytest.approx(0.84289, abs=5e-6)

    def test_bipartite_graphs_score_exactly_one(self, c4, p4, star7):
        for g in (c4, p4, star7):
            spec = spectral_features(g)
            assert spec.even_closed_walk_proportion == pytest.approx(1.0, abs=1e-9)

    def test_odd_cycle_scores_below_one(self, c5):
        assert spectral_features(c5).even_closed_walk_proportion < 1.0 - 1e-6

    def test_complete_graph_spectrum(self, k5):
        # K5: adjacency (4, -1 x4), Laplacian (0, 5 x4)
        spec = spectral_features(k5)
        assert spec.spectral_radius == pytest.approx(4.0, abs=1e-9)
        assert spec.smallest_adjacency == pytest.approx(-1.0, abs=1e-9)
        assert spec.second_largest_adjacency == pytest.approx(-1.0, abs=1e-9)
        assert spec.gap_largest_second_largest_adjacency == pytest.approx(5.0, abs=1e-9)
        assert spec.laplacian_spectral_radius == pytest.approx(5.0, abs=1e-9)
        assert spec.smallest_nonzero_laplacian == pytest.approx(5.0, abs=1e-9)
        assert spec.second_smallest_nonzero_laplacian == pytest.approx(5.0, abs=1e-9)
        assert spec.gap_largest_smallest_laplacian == pytest.approx(5.0, abs=1e-9)
        assert spec.energy == pytest.approx(8.0, abs=1e-9)

    def test_single_edge_sentinels(self):
        # K2 has one non-zero Laplacian eigenvalue; the second slot is 0
        spec = spectral_features(Graph(2, [(0, 1)]))
        assert spec.smallest_nonzero_laplacian == pytest.approx(2.0)
        assert spec.second_smallest_nonzero_laplacian == 0.0
        assert spec.second_largest_laplacian == pytest.approx(0.0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            spectral_features(Graph(1, []))

    @pytest.mark.parametrize("seed", [41, 42, 43, 44])
    def test_trace_identities(self, seed):
        g = connected_gnp(30, 0.3, seed=seed)
        adj = np.zeros((g.node_count, g.node_count))
        for u, v in g.edges:
            adj[u, v] = adj[v, u] = 1.0
        eva = np.linalg.eigvalsh(adj)
        # sum of eigenvalues is trace 0; sum of squares counts edge endpoints
        assert abs(eva.sum()) < 1e-8 * g.node_count
        assert (eva ** 2).sum() == pytest.approx(2.0 * g.edge_count, rel=1e-9)
        spec = spectral_features(g)
        assert spec.energy >= abs(eva.sum()) - 1e-9
        assert spec.spectral_radius == pytest.approx(float(eva[-1]), abs=1e-9)


class TestMcpSpecificFeatures:
    def test_c5_walkthrough(self, c5):
        # coloring needs 3 colors on an odd cycle; greedy clique stops at an edge
        fv = compute_features(c5)
        assert fv.k_core_number == 2
        assert fv.chromatic_minus_greedy_clique_gap == 1
        assert len(greedy_clique(c5)) == 2

    def test_complete_graph_gap_zero(self, k5):
        fv = compute_features(k5)
        assert fv.k_core_number == 4
        assert fv.chromatic_minus_greedy_clique_gap == 0
        assert greedy_clique(k5) == [0, 1, 2, 3, 4]

    def test_greedy_clique_is_a_clique(self):
        for seed in (51, 52, 53):
            g = connected_gnp(35, 0.4, seed=seed)
            clique = greedy_clique(g)
            assert len(set(clique)) == len(clique)
            for i, u in enumerate(clique):
                for v in clique[i + 1:]:
                    assert g.has_edge(u, v)

    @pytest.mark.parametrize(
        "g",
        [
            *(pytest.param(connected_gnp(40, 0.3, seed=seed), id=str(seed)) for seed in (61, 62, 63)),
            # K7 bridged to K9,9 and a disconnected G(17, 0.1): the peel must
            # go on while any live node remains, not stop after n removals
            pytest.param(_bipartite_trap(7, 9), id="trap_7_9"),
            pytest.param(from_networkx(nx.gnp_random_graph(17, 0.1, seed=191)), id="gnp_17_191"),
        ],
    )
    def test_k_core_matches_networkx(self, g):
        assert features._k_core_number(g) == max(nx.core_number(to_networkx(g)).values())

    def test_k_core_peel_allocates_little(self):
        # the peel stacks each vertex at most once, so it holds O(n) entries;
        # one entry per degree decrement would be O(m), about 1.4 MB here
        g = generate("gnp", 400, p=0.9, seed=0)
        tracemalloc.start()
        try:
            assert features._k_core_number(g) == 343
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 2**20

    def test_star_k_core_is_one(self, star7):
        assert compute_features(star7).k_core_number == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_chromatic_estimate_matches_networkx_largest_first(self, seed):
        g = connected_gnp(30 + seed, 0.15 + 0.06 * seed, seed=900 + seed)
        G = to_networkx(g)
        coloring = nx.greedy_color(
            G, strategy=lambda G, c: sorted(G, key=lambda v: (-G.degree(v), v))
        )
        colors = max(coloring.values()) + 1
        gap = compute_features(g).chromatic_minus_greedy_clique_gap
        assert gap + len(greedy_clique(g)) == colors


class TestCsvRoundTrip:
    def test_write_read_identity(self, tmp_path, k3, c5, star7):
        rows = [
            ("k3", compute_features(k3)),
            ("c5", compute_features(c5)),
            ("star7", compute_features(star7)),
        ]
        path = tmp_path / "features.csv"
        write_features_csv(path, rows, meta={"tool": "cliquespace/0.1.0", "config": "abc123"})
        ids, matrix, meta = read_features_csv(path)
        assert ids == ["k3", "c5", "star7"]
        assert meta == {"tool": "cliquespace/0.1.0", "config": "abc123"}
        for i, (_, fv) in enumerate(rows):
            assert np.array_equal(matrix[i], fv.as_array())

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("instance_id,node_count\nx,3\n")
        with pytest.raises(ValueError):
            read_features_csv(path)

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_features_csv(path, [])
        ids, matrix, _ = read_features_csv(path)
        assert ids == []
        assert matrix.shape == (0, 35)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 18), p=st.floats(0.25, 0.8), seed=st.integers(0, 200))
def test_feature_vector_is_finite_and_consistent(n, p, seed):
    g = connected_gnp(n, p, seed=seed)
    fv = compute_features(g)
    arr = fv.as_array()
    assert np.isfinite(arr).all()
    assert fv.density <= 1.0 + 1e-12
    assert fv.diameter >= 1.0
    assert 0.0 <= fv.global_clustering_coefficient <= 1.0 + 1e-12
    assert fv.even_closed_walk_proportion <= 1.0 + 1e-9
    assert fv.spectral_radius >= fv.second_largest_adjacency - 1e-12
    assert fv.k_core_number >= 1.0
    # greedy coloring bounds the chromatic number from above, which bounds
    # the clique number from above, which bounds the greedy clique
    assert fv.chromatic_minus_greedy_clique_gap >= 0.0


def _bridged(a: nx.Graph, b: nx.Graph) -> nx.Graph:
    """Disjoint union of ``a`` and ``b`` plus the edge from a's node 0 to b's."""
    G = nx.disjoint_union(a, b)
    G.add_edge(0, a.number_of_nodes())
    return G


def _connected_nx_gnp(n: int, p: float, seed: int) -> nx.Graph:
    return next(G for s in range(seed, seed + 1000)
                if nx.is_connected(G := nx.gnp_random_graph(n, p, seed=s)))


COMPOSED_GRAPHS = st.one_of(
    st.builds(lambda k, f: _bridged(nx.complete_graph(k), nx.complete_bipartite_graph(f, f)),
              st.integers(3, 9), st.integers(2, 9)),
    st.builds(lambda a, b: _bridged(nx.complete_graph(a), nx.complete_graph(b)),
              st.integers(2, 12), st.integers(2, 12)),
    st.builds(lambda c, k: _bridged(nx.cycle_graph(c), nx.complete_graph(k)),
              st.integers(3, 20), st.integers(2, 10)),
    st.builds(lambda k, p, seed: nx.connected_watts_strogatz_graph(30, k, p, seed=seed),
              st.sampled_from([2, 4, 6]), st.floats(0.0, 0.5), st.integers(0, 10_000)),
    st.builds(lambda m, seed: nx.barabasi_albert_graph(30, m, seed=seed),
              st.integers(1, 5), st.integers(0, 10_000)),
    st.builds(_connected_nx_gnp, st.integers(4, 40), st.floats(0.2, 0.9), st.integers(0, 10_000)),
)


def _oracle_greedy_clique_size(G: nx.Graph) -> int:
    # networkx has no greedy clique: this re-derives graph.greedy_clique's
    # rule (most neighbours among the candidates, lowest id on ties)
    cand, size = set(G), 0
    while cand:
        v = max(sorted(cand), key=lambda u: len(cand.intersection(G[u])))
        cand &= set(G[v])
        size += 1
    return size


def _oracle_features(G: nx.Graph) -> dict[str, float]:
    n = G.number_of_nodes()
    nodes = range(n)
    degrees = np.array([G.degree(v) for v in nodes], dtype=float)
    nbr_medians = np.array([np.median([G.degree(u) for u in G[v]]) for v in nodes])
    lengths = dict(nx.all_pairs_shortest_path_length(G))
    pair_dists = [lengths[u][v] for u in nodes for v in nodes if u < v]
    girth = nx.girth(G)
    bc = nx.betweenness_centrality(G, normalized=True)
    cc = nx.closeness_centrality(G)
    ec = nx.eigenvector_centrality_numpy(G)
    eva = np.linalg.eigvalsh(nx.to_numpy_array(G, nodelist=nodes))
    evl = np.linalg.eigvalsh(nx.laplacian_matrix(G, nodelist=nodes).toarray().astype(float))
    colors = max(nx.greedy_color(G, strategy="largest_first").values()) + 1
    out = {
        "node_count": n,
        "edge_count": G.number_of_edges(),
        "density": nx.density(G),
        "girth": 0.0 if girth == math.inf else girth,
        "diameter": nx.diameter(G),
        "global_clustering_coefficient": nx.transitivity(G),
        "even_closed_walk_proportion": np.cosh(eva).sum() / np.exp(eva).sum(),
        "spectral_radius": eva[-1],
        "laplacian_spectral_radius": evl[-1],
        "energy": np.abs(eva).sum(),
        "std_adjacency_eigenvalues": np.std(eva),
        # a connected graph has one zero Laplacian eigenvalue, so the
        # nonzero ones start at index 1
        "smallest_nonzero_laplacian": evl[1],
        "second_smallest_nonzero_laplacian": evl[2],
        "second_largest_laplacian": evl[-2],
        "smallest_adjacency": eva[0],
        "second_smallest_adjacency": eva[1],
        "second_largest_adjacency": eva[-2],
        "gap_largest_second_largest_adjacency": eva[-1] - eva[-2],
        "gap_largest_smallest_laplacian": evl[-1] - evl[0],
        "k_core_number": max(nx.core_number(G).values()),
        "chromatic_minus_greedy_clique_gap": colors - _oracle_greedy_clique_size(G),
    }
    for name, values in [
        ("betweenness_centrality", [bc[v] for v in nodes]),
        ("closeness_centrality", [cc[v] for v in nodes]),
        ("degree_centrality", degrees / (n - 1)),
        ("eigenvector_centrality", [ec[v] for v in nodes]),
        ("degree", degrees),
        ("median_neighbor_degree", nbr_medians),
        ("geodesic_distance", pair_dists),
    ]:
        out[f"median_{name}"] = np.median(values)
        out[f"std_{name}"] = np.std(values)
    return {k: float(v) for k, v in out.items()}


@settings(max_examples=100, deadline=None)
@example(_bridged(nx.complete_graph(7), nx.complete_bipartite_graph(9, 9)))  # smoke's trap_7_9
@given(COMPOSED_GRAPHS)
def test_every_feature_matches_an_independent_oracle(G):
    """All 35 features against networkx and numpy on composed families.

    The graph features come from networkx, the spectra from ``eigvalsh``
    of the networkx adjacency and Laplacian, and the chromatic estimate
    from networkx's largest-first colouring.  No feature lacks an oracle,
    but the greedy clique that the chromatic gap subtracts is re-derived
    here from its rule, because networkx has no greedy clique.
    """
    g = from_networkx(G)
    H = to_networkx(g)
    fv = compute_features(g)
    expected = _oracle_features(H)
    assert set(expected) == set(FEATURE_NAMES)
    for name in FEATURE_NAMES:
        assert getattr(fv, name) == pytest.approx(expected[name], rel=1e-9, abs=1e-9), name


@settings(max_examples=30, deadline=None)
@given(COMPOSED_GRAPHS)
def test_each_group_alone_matches_compute_features(G):
    # a group needs only the graph and its CSR, so computing a subset of
    # the groups gives the same values as the full vector
    g = from_networkx(G)
    fv = compute_features(g)
    for key, group in features._GROUPS:
        values = group(g, _csr(g), Budget(60.0))
        assert values == {name: getattr(fv, name) for name in values}, key
