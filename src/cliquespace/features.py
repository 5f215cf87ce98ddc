"""The 35-feature vector characterizing a maximum-clique instance.

Every feature is polynomial-time: counting and degree statistics are
linear; girth, the geodesic-distance statistics, closeness and
betweenness all come from one breadth-first search per source over a
CSR adjacency built once per instance, O(|V|*|E|) in total; eigenvector
centrality is a power iteration at O(k*|E|) on the same CSR; and the
spectral block is one dense symmetric eigendecomposition each of the
adjacency and Laplacian matrices.  A single wall-clock budget covers the
whole computation; instances that blow it raise
:class:`~cliquespace.errors.FeatureTimeoutError` so a corpus run can
exclude them instead of stalling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .artifacts import read_table, write_table
from .errors import (
    DisconnectedGraphError,
    EigenConvergenceError,
    FeatureTimeoutError,
)
from .graph import Graph, greedy_clique, iter_bits, iter_edges, validate_connected

__all__ = [
    "FEATURE_NAMES",
    "FeatureVector",
    "CentralityStats",
    "SpectralStats",
    "compute_features",
    "centrality_stats",
    "graph_spectra",
    "spectral_features",
    "mcp_specific_features",
    "write_features_csv",
    "read_features_csv",
]

# Canonical feature order; CSV columns follow it exactly.
FEATURE_NAMES: tuple[str, ...] = (
    "node_count",
    "edge_count",
    "density",
    "girth",
    "diameter",
    "median_betweenness_centrality",
    "median_closeness_centrality",
    "median_degree_centrality",
    "median_eigenvector_centrality",
    "std_betweenness_centrality",
    "std_closeness_centrality",
    "std_degree_centrality",
    "std_eigenvector_centrality",
    "median_degree",
    "std_degree",
    "median_median_neighbor_degree",
    "std_median_neighbor_degree",
    "median_geodesic_distance",
    "std_geodesic_distance",
    "global_clustering_coefficient",
    "even_closed_walk_proportion",
    "spectral_radius",
    "laplacian_spectral_radius",
    "energy",
    "std_adjacency_eigenvalues",
    "smallest_nonzero_laplacian",
    "second_smallest_nonzero_laplacian",
    "second_largest_laplacian",
    "smallest_adjacency",
    "second_smallest_adjacency",
    "second_largest_adjacency",
    "gap_largest_second_largest_adjacency",
    "gap_largest_smallest_laplacian",
    "k_core_number",
    "chromatic_minus_greedy_clique_gap",
)

# Relative threshold below which a Laplacian eigenvalue counts as zero.
_LAPLACIAN_ZERO_RTOL = 1e-8

_POWER_ITERATION_TOL = 1e-8
_POWER_ITERATION_MAX_STEPS = 1000


@dataclass(frozen=True)
class FeatureVector:
    """One instance's feature values plus per-group compute times."""

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


assert tuple(f.name for f in fields(FeatureVector))[: len(FEATURE_NAMES)] == FEATURE_NAMES


@dataclass(frozen=True)
class CentralityStats:
    median_betweenness: float
    std_betweenness: float
    median_closeness: float
    std_closeness: float
    median_degree: float
    std_degree: float
    median_eigenvector: float
    std_eigenvector: float


@dataclass(frozen=True)
class SpectralStats:
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


class _Deadline:
    """Wall-clock budget shared by every feature group of one instance."""

    def __init__(self, seconds: float | None):
        self.limit = None if seconds is None else time.perf_counter() + seconds

    def check(self) -> None:
        if self.limit is not None and time.perf_counter() > self.limit:
            raise FeatureTimeoutError("feature computation exceeded its time budget")


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(g.node_count + 1, dtype=np.int64)
    np.cumsum(g.degrees, out=indptr[1:])
    indices = np.fromiter(
        (v for mask in g.adj_bits for v in iter_bits(mask)),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
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


def _shortest_path_sweep(indptr, indices, deadline: _Deadline):
    """One breadth-first search per source, shared by four feature groups.

    Returns ``(girth, hist, dist_sums, betweenness)``: the shortest cycle
    length (0 when acyclic), the histogram of geodesic distances over
    unordered pairs, each node's distance sum, and Brandes betweenness
    normalized by C(n-1, 2).  A same-level edge at depth d closes an odd
    cycle of length 2d+1; a node reached from two depth-d parents closes
    an even one of length 2d+2; the minimum over all sources is the girth.
    """
    n = len(indptr) - 1
    girth = math.inf
    hist = np.zeros(n, dtype=np.int64)
    dist_sums = np.zeros(n)
    bc = np.zeros(n)
    for s in range(n):
        deadline.check()
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        sigma = np.zeros(n)
        sigma[s] = 1.0
        levels = [np.array([s], dtype=np.int64)]
        d = 0
        while True:
            srcs, nbrs = _gather(indptr, indices, levels[-1])
            nbr_dist = dist[nbrs]
            if 2 * d + 1 < girth and (nbr_dist == d).any():
                girth = 2 * d + 1
            into_next = nbr_dist == -1
            fresh = np.unique(nbrs[into_next])
            if fresh.size == 0:
                break
            dist[fresh] = d + 1
            if 2 * d + 2 < girth and into_next.sum() > fresh.size:
                girth = 2 * d + 2
            sigma += np.bincount(nbrs[into_next], weights=sigma[srcs[into_next]], minlength=n)
            levels.append(fresh)
            d += 1
        if (dist < 0).any():
            raise DisconnectedGraphError("shortest-path features need a connected graph")
        hist += np.bincount(dist[s + 1 :], minlength=n)
        dist_sums[s] = dist.sum()
        delta = np.zeros(n)
        for lev in range(len(levels) - 1, 0, -1):
            srcs, nbrs = _gather(indptr, indices, levels[lev - 1])
            sel = dist[nbrs] == lev
            if sel.any():
                contrib = sigma[srcs[sel]] / sigma[nbrs[sel]] * (1.0 + delta[nbrs[sel]])
                delta += np.bincount(srcs[sel], weights=contrib, minlength=n)
        delta[s] = 0.0
        bc += delta
    bc /= 2.0  # each unordered pair contributes from both endpoints
    if n > 2:
        bc /= (n - 1) * (n - 2) / 2.0
    return 0.0 if math.isinf(girth) else float(girth), hist, dist_sums, bc


def _eigenvector_centrality(indptr, indices, deadline: _Deadline) -> np.ndarray:
    """Dominant adjacency eigenvector by power iteration on A + I.

    The identity shift keeps the iteration convergent on bipartite graphs
    (where the raw adjacency spectrum is symmetric) without changing the
    eigenvector.  The result is normalized to unit Euclidean length.
    """
    n = len(indptr) - 1
    edge_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    x = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(_POWER_ITERATION_MAX_STEPS):
        deadline.check()
        y = x + np.bincount(indices, weights=x[edge_src], minlength=n)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return x  # edgeless graph: uniform vector is already the answer
        y /= norm
        if np.abs(y - x).max() < _POWER_ITERATION_TOL:
            return y
        x = y
    raise EigenConvergenceError(
        f"power iteration did not reach {_POWER_ITERATION_TOL} in "
        f"{_POWER_ITERATION_MAX_STEPS} steps"
    )


def _centrality_from(g: Graph, csr, dist_sums, bc, deadline: _Deadline) -> CentralityStats:
    n = g.node_count
    if n > 1:
        closeness = (n - 1) / dist_sums
        degree_centrality = np.asarray(g.degrees, dtype=float) / (n - 1)
    else:
        closeness = np.zeros(1)
        degree_centrality = np.zeros(1)
    eigen = _eigenvector_centrality(*csr, deadline)
    return CentralityStats(
        median_betweenness=float(np.median(bc)),
        std_betweenness=float(np.std(bc)),
        median_closeness=float(np.median(closeness)),
        std_closeness=float(np.std(closeness)),
        median_degree=float(np.median(degree_centrality)),
        std_degree=float(np.std(degree_centrality)),
        median_eigenvector=float(np.median(eigen)),
        std_eigenvector=float(np.std(eigen)),
    )


def centrality_stats(g: Graph, timeout: float | None = None) -> CentralityStats:
    """Medians and population standard deviations of four node centralities.

    Betweenness uses Brandes' shortest-path accumulation; closeness is
    (n-1) over the sum of distances; degree centrality is degree/(n-1);
    eigenvector centrality comes from power iteration.  Requires a
    connected graph so closeness and betweenness are well-defined.
    """
    if not validate_connected(g):
        raise DisconnectedGraphError("centrality statistics need a connected graph")
    deadline = _Deadline(timeout)
    csr = _csr(g)
    _, _, dist_sums, bc = _shortest_path_sweep(*csr, deadline)
    return _centrality_from(g, csr, dist_sums, bc, deadline)


def _distance_stats(hist: np.ndarray) -> tuple[float, float, float]:
    """(diameter, median, std) of geodesic distances from their histogram."""
    total = int(hist.sum())
    if total == 0:
        return 0.0, 0.0, 0.0
    n = hist.size
    diameter = float(np.max(np.nonzero(hist)[0]))
    values = np.arange(n, dtype=float)
    cum = np.cumsum(hist)
    lo = int(np.searchsorted(cum, (total - 1) // 2 + 1))
    hi = int(np.searchsorted(cum, total // 2 + 1))
    median = float(values[lo] + values[hi]) / 2.0
    mean = float(hist @ values) / total
    var = float(hist @ (values - mean) ** 2) / total
    return diameter, median, math.sqrt(var)


def _global_clustering(g: Graph) -> float:
    """Transitivity: 3 * triangles over the number of connected triples."""
    triangles3 = 0  # every triangle is counted once per incident edge
    for u, v in iter_edges(g):
        triangles3 += (g.adj_bits[u] & g.adj_bits[v]).bit_count()
    wedges = sum(d * (d - 1) // 2 for d in g.degrees)
    return triangles3 / wedges if wedges else 0.0


def graph_spectra(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the adjacency and Laplacian matrices."""
    n = g.node_count
    adj = np.zeros((n, n))
    for u, v in iter_edges(g):
        adj[u, v] = adj[v, u] = 1.0
    lap = np.diag(np.asarray(g.degrees, dtype=float)) - adj
    return np.linalg.eigvalsh(adj), np.linalg.eigvalsh(lap)


def spectral_features(g: Graph, timeout: float | None = None) -> SpectralStats:
    """Eigenvalue-derived features of the adjacency and Laplacian matrices.

    Uses one dense symmetric eigendecomposition per matrix.  Laplacian
    eigenvalues within ``1e-8 * max`` of zero count as zero when locating
    the smallest non-zero ones.  The even-closed-walk proportion is the
    factorially weighted ratio sum(cosh(lambda)) / sum(exp(lambda)) over
    adjacency eigenvalues, which is 1 exactly on bipartite graphs.
    """
    if g.node_count < 2:
        raise ValueError("spectral features need at least 2 nodes")
    _Deadline(timeout).check()
    eva, evl = graph_spectra(g)

    # overflow-safe cosh/exp ratio: factor out exp(max eigenvalue)
    shift = eva[-1]
    grown = np.exp(eva - shift)
    shrunk = np.exp(-eva - shift)
    even_proportion = float((0.5 * (grown + shrunk)).sum() / grown.sum())

    lap_max = float(evl[-1])
    zero_tol = _LAPLACIAN_ZERO_RTOL * lap_max
    nonzero = evl[evl > zero_tol]
    return SpectralStats(
        even_closed_walk_proportion=even_proportion,
        spectral_radius=float(eva[-1]),
        laplacian_spectral_radius=lap_max,
        energy=float(np.abs(eva).sum()),
        std_adjacency_eigenvalues=float(np.std(eva)),
        smallest_nonzero_laplacian=float(nonzero[0]) if nonzero.size else 0.0,
        second_smallest_nonzero_laplacian=float(nonzero[1]) if nonzero.size > 1 else 0.0,
        second_largest_laplacian=float(evl[-2]),
        smallest_adjacency=float(eva[0]),
        second_smallest_adjacency=float(eva[1]),
        second_largest_adjacency=float(eva[-2]),
        gap_largest_second_largest_adjacency=float(eva[-1] - eva[-2]),
        gap_largest_smallest_laplacian=float(evl[-1] - evl[0]),
    )


def _k_core_number(g: Graph) -> int:
    """Largest k with a non-empty subgraph of minimum degree k (peeling)."""
    n = g.node_count
    degree = list(g.degrees)
    max_deg = max(degree) if degree else 0
    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for v, d in enumerate(degree):
        buckets[d].append(v)
    removed = bytearray(n)
    core = 0
    for _ in range(n):
        d = 0
        while not buckets[d]:
            d += 1
        v = buckets[d].pop()
        if removed[v]:
            continue
        # stale entries are skipped above; d is v's current degree
        core = max(core, d)
        removed[v] = 1
        for w in iter_bits(g.adj_bits[v]):
            if not removed[w]:
                degree[w] -= 1
                buckets[degree[w]].append(w)
    return core


def _greedy_coloring_count(g: Graph) -> int:
    """Colors used by largest-degree-first sequential coloring."""
    order = sorted(range(g.node_count), key=lambda v: (-g.degrees[v], v))
    color = [-1] * g.node_count
    used_total = 0
    for v in order:
        taken = {color[w] for w in iter_bits(g.adj_bits[v]) if color[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
        used_total = max(used_total, c + 1)
    return used_total


def mcp_specific_features(g: Graph) -> tuple[int, int]:
    """(k-core number, greedy chromatic estimate minus greedy clique size)."""
    colors = _greedy_coloring_count(g)
    clique_size = len(greedy_clique(g))
    return _k_core_number(g), colors - clique_size


def _pop_median_std(values: np.ndarray) -> tuple[float, float]:
    return float(np.median(values)), float(np.std(values))


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
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    deadline = _Deadline(timeout)
    timings: dict[str, float] = {}
    n = g.node_count

    t0 = time.perf_counter()
    density = 2.0 * g.edge_count / (n * (n - 1))
    degrees = np.asarray(g.degrees, dtype=float)
    median_degree, std_degree = _pop_median_std(degrees)
    neighbor_medians = np.array([np.median(degrees[list(iter_bits(m))]) for m in g.adj_bits])
    med_nbr_med, std_nbr_med = _pop_median_std(neighbor_medians)
    timings["degree"] = time.perf_counter() - t0
    deadline.check()

    # the shared sweep also yields betweenness and closeness; its time
    # is booked to the distance group
    t0 = time.perf_counter()
    csr = _csr(g)
    girth, hist, dist_sums, bc = _shortest_path_sweep(*csr, deadline)
    diameter, median_geo, std_geo = _distance_stats(hist)
    timings["distance"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cent = _centrality_from(g, csr, dist_sums, bc, deadline)
    timings["centrality"] = time.perf_counter() - t0
    deadline.check()

    t0 = time.perf_counter()
    clustering = _global_clustering(g)
    timings["clustering"] = time.perf_counter() - t0
    deadline.check()

    t0 = time.perf_counter()
    spec = spectral_features(g)
    timings["spectral"] = time.perf_counter() - t0
    deadline.check()

    t0 = time.perf_counter()
    k_core, chrom_gap = mcp_specific_features(g)
    timings["clique"] = time.perf_counter() - t0
    deadline.check()

    return FeatureVector(
        node_count=float(n),
        edge_count=float(g.edge_count),
        density=density,
        girth=girth,
        diameter=diameter,
        median_betweenness_centrality=cent.median_betweenness,
        median_closeness_centrality=cent.median_closeness,
        median_degree_centrality=cent.median_degree,
        median_eigenvector_centrality=cent.median_eigenvector,
        std_betweenness_centrality=cent.std_betweenness,
        std_closeness_centrality=cent.std_closeness,
        std_degree_centrality=cent.std_degree,
        std_eigenvector_centrality=cent.std_eigenvector,
        median_degree=median_degree,
        std_degree=std_degree,
        median_median_neighbor_degree=med_nbr_med,
        std_median_neighbor_degree=std_nbr_med,
        median_geodesic_distance=median_geo,
        std_geodesic_distance=std_geo,
        global_clustering_coefficient=clustering,
        even_closed_walk_proportion=spec.even_closed_walk_proportion,
        spectral_radius=spec.spectral_radius,
        laplacian_spectral_radius=spec.laplacian_spectral_radius,
        energy=spec.energy,
        std_adjacency_eigenvalues=spec.std_adjacency_eigenvalues,
        smallest_nonzero_laplacian=spec.smallest_nonzero_laplacian,
        second_smallest_nonzero_laplacian=spec.second_smallest_nonzero_laplacian,
        second_largest_laplacian=spec.second_largest_laplacian,
        smallest_adjacency=spec.smallest_adjacency,
        second_smallest_adjacency=spec.second_smallest_adjacency,
        second_largest_adjacency=spec.second_largest_adjacency,
        gap_largest_second_largest_adjacency=spec.gap_largest_second_largest_adjacency,
        gap_largest_smallest_laplacian=spec.gap_largest_smallest_laplacian,
        k_core_number=float(k_core),
        chromatic_minus_greedy_clique_gap=float(chrom_gap),
        timings=timings,
    )


def write_features_csv(
    path: str | Path,
    rows: list[tuple[str, FeatureVector]],
    meta: dict[str, str] | None = None,
) -> None:
    """One row per instance: instance_id plus the 35 canonical columns."""
    write_table(
        path,
        ("instance_id",) + FEATURE_NAMES,
        ([iid] + [repr(float(getattr(fv, n))) for n in FEATURE_NAMES] for iid, fv in rows),
        meta,
    )


def read_features_csv(path: str | Path) -> tuple[list[str], np.ndarray, dict[str, str]]:
    """Returns (instance ids, matrix in canonical column order, meta)."""
    columns = ("instance_id",) + FEATURE_NAMES
    meta, rows = read_table(path, columns, ValueError, lambda f: (f[0], [float(x) for x in f[1:]]))
    ids = [iid for iid, _ in rows]
    data = np.array([values for _, values in rows], dtype=float)
    return ids, data.reshape(len(ids), len(FEATURE_NAMES)), meta
