"""The 35-feature vector characterizing a maximum-clique instance.

Every feature is polynomial-time: counting and degree statistics are
linear; girth, the geodesic-distance statistics, closeness and
betweenness all come from one breadth-first search per source over a
CSR adjacency built once per instance, O(|V|*|E|) in total, whose
dependency pass walks the shortest-path edges that search found
(Brandes 2001), holding at most one pair per edge per source; and the
spectral block fills one dense n-by-n buffer from that CSR, takes the
adjacency eigenvalues, solves the shifted adjacency for eigenvector
centrality, then overwrites the buffer with the Laplacian for its
eigenvalues.  The block holds that buffer plus LAPACK's working copy,
two dense matrices, never a third.  One :class:`~cliquespace.graph.Budget`
covers the whole computation (see :func:`compute_features`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .artifacts import read_table, write_table
from .errors import DisconnectedGraphError, FeatureTimeoutError
from .graph import (
    Budget,
    Graph,
    greedy_clique,
    greedy_coloring_count,
    iter_bits,
    iter_edges,
    peel_below,
    validate_connected,
)

__all__ = [
    "FEATURE_NAMES",
    "FeatureVector",
    "compute_features",
    "graph_spectra",
    "spectral_features",
    "write_features_csv",
    "read_features_csv",
]

# Relative threshold below which a Laplacian eigenvalue counts as zero.
_LAPLACIAN_ZERO_RTOL = 1e-8


@dataclass(frozen=True)
class FeatureVector:
    """One instance's feature values plus per-group compute times.

    The field order is the canonical feature order; CSV columns follow it.
    """

    node_count: float
    edge_count: float
    density: float
    girth: float
    diameter: float
    median_betweenness_centrality: float
    median_closeness_centrality: float
    median_degree_centrality: float
    median_eigenvector_centrality: float
    std_betweenness_centrality: float
    std_closeness_centrality: float
    std_degree_centrality: float
    std_eigenvector_centrality: float
    median_degree: float
    std_degree: float
    median_median_neighbor_degree: float
    std_median_neighbor_degree: float
    median_geodesic_distance: float
    std_geodesic_distance: float
    global_clustering_coefficient: float
    even_closed_walk_proportion: float
    spectral_radius: float
    laplacian_spectral_radius: float
    energy: float
    std_adjacency_eigenvalues: float
    smallest_nonzero_laplacian: float
    second_smallest_nonzero_laplacian: float
    second_largest_laplacian: float
    smallest_adjacency: float
    second_smallest_adjacency: float
    second_largest_adjacency: float
    gap_largest_second_largest_adjacency: float
    gap_largest_smallest_laplacian: float
    k_core_number: float
    chromatic_minus_greedy_clique_gap: float
    timings: dict[str, float] = field(default_factory=dict, compare=False, repr=False)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)


FEATURE_NAMES: tuple[str, ...] = tuple(
    f.name for f in fields(FeatureVector) if f.name != "timings"
)
_COLUMNS = {"instance_id": str, **dict.fromkeys(FEATURE_NAMES, float)}


def _check(budget: Budget) -> None:
    """Raise FeatureTimeoutError once the instance's ``budget`` has run out."""
    if budget.expired():
        raise FeatureTimeoutError("feature computation exceeded its time budget")


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Row offsets and neighbor ids, each row ascending, unpacked from the
    adjacency bitmasks' bytes; the n-by-n bit matrix lives only in here."""
    n = g.node_count
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(g.degrees, out=indptr[1:])
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in g.adj_bits), np.uint8)
    bits = np.unpackbits(rows.reshape(n, width), axis=1, count=n, bitorder="little")
    indices = np.flatnonzero(bits).astype(np.int64, copy=False)
    indices %= n  # the flat offset v*n + u is the neighbor u of v
    return indptr, indices


def _gather(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray):
    """Flatten the neighborhoods of ``frontier`` into (sources, neighbors)."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    seg_ends = np.cumsum(counts)
    offsets = np.arange(total) - np.repeat(seg_ends - counts, counts) + np.repeat(starts, counts)
    return np.repeat(frontier, counts), indices[offsets]


def _shortest_path_sweep(indptr, indices, budget: Budget):
    """One breadth-first search per source, for the distance group.

    Returns ``(girth, hist, dist_sums, betweenness)``: the shortest cycle
    length (0 when acyclic), the histogram of geodesic distances over
    unordered pairs, each node's distance sum, and Brandes betweenness
    normalized by C(n-1, 2).  A same-level edge at depth d closes an odd
    cycle of length 2d+1; a node reached from two depth-d parents closes
    an even one of length 2d+2; the minimum over all sources is the girth.

    The dependency pass walks, in reverse, the shortest-path edges the
    forward search found (Brandes 2001), at most one pair per edge per
    source, so no neighborhood is gathered twice.
    """
    n = len(indptr) - 1
    girth = math.inf
    hist = np.zeros(n, dtype=np.int64)
    dist_sums = np.zeros(n)
    bc = np.zeros(n)
    for s in range(n):
        _check(budget)
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        sigma = np.zeros(n)
        sigma[s] = 1.0
        frontier = np.array([s], dtype=np.int64)
        edges = []  # (u, v) per level: the shortest-path edges from level d into d + 1
        d = 0
        while True:
            srcs, nbrs = _gather(indptr, indices, frontier)
            nbr_dist = dist[nbrs]
            if 2 * d + 1 < girth and (nbr_dist == d).any():
                girth = 2 * d + 1
            into_next = nbr_dist == -1
            frontier = np.unique(nbrs[into_next])
            if frontier.size == 0:
                break
            dist[frontier] = d + 1
            if 2 * d + 2 < girth and into_next.sum() > frontier.size:
                girth = 2 * d + 2
            u, v = srcs[into_next], nbrs[into_next]
            sigma += np.bincount(v, weights=sigma[u], minlength=n)
            edges.append((u, v))
            d += 1
        if (dist < 0).any():
            raise DisconnectedGraphError("shortest-path features need a connected graph")
        hist += np.bincount(dist[s + 1 :], minlength=n)
        dist_sums[s] = dist.sum()
        delta = np.zeros(n)
        for u, v in reversed(edges):
            delta += np.bincount(u, weights=sigma[u] / sigma[v] * (1.0 + delta[v]), minlength=n)
        delta[s] = 0.0
        bc += delta
    bc /= 2.0  # each unordered pair contributes from both endpoints
    if n > 2:
        bc /= (n - 1) * (n - 2) / 2.0
    return 0.0 if math.isinf(girth) else float(girth), hist, dist_sums, bc


def _leading_eigenvector(adj: np.ndarray, spectral_radius: float) -> np.ndarray:
    """Unit, non-negative leading eigenvector of the adjacency ``adj``.

    Three steps of inverse iteration on A - sigma*I from the uniform
    vector, with sigma = lambda_1 * (1 + 1e-9) written into the zero
    diagonal of ``adj`` and left there; :func:`_dense_spectra` then
    overwrites the whole buffer with the Laplacian.  Each solve factors
    its own copy, so the solves hold the buffer plus one more n-by-n
    matrix, as ``eigvalsh`` does.  A graph with an edge has
    lambda_1 >= 1, so sigma clears lambda_1 by at least 1e-9, far above
    eigvalsh's error, and each step grows the iterate at most 1e9-fold.
    """
    np.fill_diagonal(adj, -spectral_radius * (1.0 + 1e-9))
    x = np.ones(len(adj))
    for _ in range(3):
        x = np.linalg.solve(adj, x)
    x = np.abs(x)
    return x / np.linalg.norm(x)


def _dense_spectra(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(adjacency eigenvalues, Laplacian eigenvalues, leading eigenvector)``.

    One dense buffer is filled from the CSR and serves all three: the
    adjacency eigenvalues, then the eigenvector solves, then the buffer
    is overwritten in place with the Laplacian diag(d) - A.  ``0 - x``
    rather than ``-x`` keeps the absent edges at +0.0, so the Laplacian
    is bitwise the one ``np.diag(d) - A`` builds.  At most the buffer and
    one LAPACK copy of it are alive at once.  The eigenvector is None on
    a graph with no edge, where it is not unique and A - sigma*I is 0.
    """
    n = len(indptr) - 1
    degrees = np.diff(indptr)
    buf = np.zeros((n, n))
    buf[np.repeat(np.arange(n), degrees), indices] = 1.0
    eva = np.linalg.eigvalsh(buf)
    eigen = _leading_eigenvector(buf, eva[-1]) if indices.size else None
    np.subtract(0.0, buf, out=buf)
    np.fill_diagonal(buf, degrees)
    return eva, np.linalg.eigvalsh(buf), eigen


def graph_spectra(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the adjacency and Laplacian matrices."""
    eva, evl, _ = _dense_spectra(*_csr(g))
    return eva, evl


def spectral_features(g: Graph) -> SimpleNamespace:
    """Eigenvalue-derived features of the adjacency and Laplacian matrices.

    Uses one dense symmetric eigendecomposition per matrix.  Laplacian
    eigenvalues within ``1e-8 * max`` of zero count as zero when locating
    the smallest non-zero ones.  The even-closed-walk proportion is the
    factorially weighted ratio sum(cosh(lambda)) / sum(exp(lambda)) over
    adjacency eigenvalues, which is 1 exactly on bipartite graphs.  The
    13 features are the namespace's attributes.
    """
    if g.node_count < 2:
        raise ValueError("spectral features need at least 2 nodes")
    return SimpleNamespace(**_spectral_values(*graph_spectra(g)))


def _spectral_values(eva: np.ndarray, evl: np.ndarray) -> dict[str, float]:
    # overflow-safe cosh/exp ratio: factor out exp(max eigenvalue)
    shift = eva[-1]
    grown = np.exp(eva - shift)
    shrunk = np.exp(-eva - shift)
    lap_max = float(evl[-1])
    nonzero = evl[evl > _LAPLACIAN_ZERO_RTOL * lap_max]
    return {
        "even_closed_walk_proportion": float((0.5 * (grown + shrunk)).sum() / grown.sum()),
        "spectral_radius": float(eva[-1]),
        "laplacian_spectral_radius": lap_max,
        "energy": float(np.abs(eva).sum()),
        "std_adjacency_eigenvalues": float(np.std(eva)),
        "smallest_nonzero_laplacian": float(nonzero[0]) if nonzero.size else 0.0,
        "second_smallest_nonzero_laplacian": float(nonzero[1]) if nonzero.size > 1 else 0.0,
        "second_largest_laplacian": float(evl[-2]),
        "smallest_adjacency": float(eva[0]),
        "second_smallest_adjacency": float(eva[1]),
        "second_largest_adjacency": float(eva[-2]),
        "gap_largest_second_largest_adjacency": float(eva[-1] - eva[-2]),
        "gap_largest_smallest_laplacian": float(evl[-1] - evl[0]),
    }


def _k_core_number(g: Graph) -> int:
    """Largest k with a non-empty subgraph of minimum degree k (peeling)."""
    degree = list(g.degrees)
    alive = (1 << g.node_count) - 1
    core = 0
    while alive:
        core = min(degree[v] for v in iter_bits(alive))
        alive = peel_below(g.adj_bits, alive, degree, core + 1)
    return core


def _median_std(name: str, values: np.ndarray) -> dict[str, float]:
    return {f"median_{name}": float(np.median(values)), f"std_{name}": float(np.std(values))}


def _degree_group(g: Graph, csr, budget: Budget) -> dict[str, float]:
    n = g.node_count
    indptr, indices = csr
    degrees = np.asarray(g.degrees, dtype=float)
    bounds = indptr.tolist()
    neighbor_medians = np.array(
        [np.median(degrees[indices[a:b]]) for a, b in zip(bounds, bounds[1:])]
    )
    return {
        "node_count": float(n),
        "edge_count": float(g.edge_count),
        "density": 2.0 * g.edge_count / (n * (n - 1)),
        **_median_std("degree", degrees),
        **_median_std("degree_centrality", degrees / (n - 1)),
        **_median_std("median_neighbor_degree", neighbor_medians),
    }


def _distance_group(g: Graph, csr, budget: Budget) -> dict[str, float]:
    """Girth, diameter, geodesic distances, betweenness and closeness,
    all from the one shortest-path sweep."""
    girth, hist, dist_sums, betweenness = _shortest_path_sweep(*csr, budget)
    total = int(hist.sum())
    values = np.arange(hist.size, dtype=float)
    cum = np.cumsum(hist)
    lo = int(np.searchsorted(cum, (total - 1) // 2 + 1))
    hi = int(np.searchsorted(cum, total // 2 + 1))
    mean = float(hist @ values) / total
    return {
        "girth": girth,
        "diameter": float(np.max(np.nonzero(hist)[0])),
        "median_geodesic_distance": float(values[lo] + values[hi]) / 2.0,
        "std_geodesic_distance": math.sqrt(float(hist @ (values - mean) ** 2) / total),
        **_median_std("betweenness_centrality", betweenness),
        **_median_std("closeness_centrality", (g.node_count - 1) / dist_sums),
    }


def _spectral_group(g: Graph, csr, budget: Budget) -> dict[str, float]:
    eva, evl, eigenvector = _dense_spectra(*csr)
    return {**_spectral_values(eva, evl), **_median_std("eigenvector_centrality", eigenvector)}


def _clustering_group(g: Graph, csr, budget: Budget) -> dict[str, float]:
    """Transitivity: 3 * triangles over the number of connected triples."""
    triangles3 = 0  # every triangle is counted once per incident edge
    for u, v in iter_edges(g):
        triangles3 += (g.adj_bits[u] & g.adj_bits[v]).bit_count()
    wedges = sum(d * (d - 1) // 2 for d in g.degrees)
    return {"global_clustering_coefficient": triangles3 / wedges if wedges else 0.0}


def _clique_group(g: Graph, csr, budget: Budget) -> dict[str, float]:
    return {
        "k_core_number": float(_k_core_number(g)),
        "chromatic_minus_greedy_clique_gap": float(
            greedy_coloring_count(g.adj_bits, (1 << g.node_count) - 1) - len(greedy_clique(g))
        ),
    }


# (timings key, group) in the order the groups run.  Each group takes the
# graph, its CSR and the instance's budget, reads no other group's output, and
# returns its own features.
_GROUPS = (
    ("degree", _degree_group),
    ("distance", _distance_group),
    ("spectral", _spectral_group),
    ("clustering", _clustering_group),
    ("clique", _clique_group),
)


def compute_features(g: Graph, timeout: float = 120.0) -> FeatureVector:
    """Compute the full 35-feature vector for a connected graph.

    The wall-clock budget spans all feature groups; crossing it anywhere
    aborts the instance with :class:`FeatureTimeoutError`.  Graphs with
    fewer than 2 nodes are rejected (density and the spectral gaps are
    undefined), as are disconnected graphs (distance features are
    undefined on them).
    """
    if g.node_count < 2:
        raise ValueError("feature extraction needs at least 2 nodes")
    if not validate_connected(g):
        raise DisconnectedGraphError(f"graph {g.name!r} is disconnected")
    budget = Budget(timeout)
    csr = _csr(g)
    values: dict[str, float] = {}
    timings: dict[str, float] = {}
    for key, group in _GROUPS:
        t0 = budget.elapsed()
        values.update(group(g, csr, budget))
        timings[key] = budget.elapsed() - t0
        # the spectral block cannot be interrupted, so an instance already
        # over budget after the distance group must not start it
        _check(budget)
    return FeatureVector(**values, timings=timings)


def write_features_csv(
    path: str | Path,
    rows: list[tuple[str, FeatureVector]],
    meta: dict[str, str] | None = None,
) -> None:
    """One row per instance: instance_id plus the 35 canonical columns."""
    write_table(
        path,
        _COLUMNS,
        ([iid] + [getattr(fv, n) for n in FEATURE_NAMES] for iid, fv in rows),
        meta,
    )


def read_features_csv(path: str | Path) -> tuple[list[str], np.ndarray, dict[str, str]]:
    """Returns (instance ids, matrix in canonical column order, meta)."""
    meta, rows = read_table(path, _COLUMNS, ValueError, list)
    ids = [row[0] for row in rows]
    data = np.array([row[1:] for row in rows], dtype=float)
    return ids, data.reshape(len(ids), len(FEATURE_NAMES)), meta
