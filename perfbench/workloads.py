"""Seeded corpus generation for the three campaign workloads.

The program under test only ever sees the `.clq` files and the INI
written here.  Graphs are generated with the benchmark's own code, so a
change to the package's generators cannot silently change the inputs.
G(n, p) follows the package's documented recipe (node pairs in
lexicographic order, one `random.Random(seed)` draw each), which makes
seed 0 reproduce the acceptance-criterion-9 smoke corpus byte for byte.

Another workload seed shifts every random graph's seed by
``seed * SEED_STRIDE``; families, sizes and file-name patterns stay.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

SEED_STRIDE = 1_000_003
DEFAULT_SEED = 0


@dataclass
class GraphSpec:
    """One generated instance: its file stem, tier and edge list."""

    stem: str
    tier: str
    node_count: int
    edges: list[tuple[int, int]]


@dataclass
class Workload:
    name: str
    stages: tuple[str, ...]
    portfolio: tuple[str, ...]
    solver_budget: float
    jobs: int
    graphs: list[GraphSpec] = field(default_factory=list)

    def tiers(self) -> dict[str, str]:
        return {g.stem: g.tier for g in self.graphs}


ALL_STAGES = (
    "ingest",
    "features",
    "bench",
    "isa-fit",
    "isa-project",
    "isa-footprint",
    "train",
    "report",
)


# ------------------------------------------------------------- generators


def _gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = bytearray(n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        for v in adj[queue.popleft()]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                queue.append(v)
    return count == n


def connected_gnp(n: int, p: float, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """First connected G(n, p) from ``seed`` onward: (seed used, edges)."""
    for s in range(seed, seed + 1000):
        edges = _gnp_edges(n, p, s)
        if _connected(n, edges):
            return s, edges
    raise RuntimeError(f"no connected G({n}, {p}) in 1000 seeds from {seed}")


def _complete(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _bipartite_trap(k: int, fringe: int) -> tuple[int, list[tuple[int, int]]]:
    """A k-clique hidden behind a complete bipartite fringe, bridged once."""
    edges = _complete(k)
    left = range(k, k + fringe)
    right = range(k + fringe, k + 2 * fringe)
    edges += [(x, y) for x in left for y in right]
    edges.append((0, k))
    return k + 2 * fringe, edges


def hamming_edges(bits: int, distance: int) -> tuple[int, list[tuple[int, int]]]:
    """hammingB-D: vertices are B-bit words, adjacent at Hamming distance >= D."""
    n = 1 << bits
    return n, [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u ^ v).bit_count() >= distance
    ]


def _gnp_stem(n: int, p: float, used_seed: int) -> str:
    return f"gnp_{n}_{p:g}_s{used_seed}".replace(".", "_")


# -------------------------------------------------------------- workloads


def smoke(seed: int) -> Workload:
    """The acceptance-criterion-9 corpus: 50 small graphs, 3 solvers."""
    shift = seed * SEED_STRIDE
    graphs: list[tuple[str, str, int, list]] = []
    graphs += [("complete", f"complete_{n}", n, _complete(n)) for n in range(8, 16)]
    graphs += [("cycle", f"cycle_{n}", n, _cycle(n)) for n in range(12, 28, 3)]
    for i in range(20):
        n, p = 14 + i % 11, (0.3, 0.4, 0.5, 0.6)[i % 4]
        used, edges = connected_gnp(n, p, 400 + i + shift)
        graphs.append(("gnp", f"gnp_{n}_{used}", n, edges))
    for i in range(8):
        n = 18 + 2 * (i % 5)
        used, edges = connected_gnp(n, 0.22, 450 + i + shift)
        graphs.append(("gnp", f"gnp_{n}_{used}", n, edges))
    for n in (90, 96, 102, 108):
        used, edges = connected_gnp(n, 0.75, 470 + n + shift)
        graphs.append(("gnp", f"gnp_{n}_{used}", n, edges))
    for k, f in ((5, 7), (6, 8), (6, 9), (7, 9)):
        n, edges = _bipartite_trap(k, f)
        graphs.append(("trap", f"trap_{k}_{f}", n, edges))
    specs = [
        GraphSpec(f"inst{i:02d}_{name}", tier, n, edges)
        for i, (tier, name, n, edges) in enumerate(graphs)
    ]
    return Workload("smoke", ALL_STAGES, ("exact", "greedy", "fastwclq-like"), 1.0, 1, specs)


def features_scale(seed: int) -> Workload:
    """A dense G(n, p) tier and a long-diameter tier of cycles and paths."""
    shift = seed * SEED_STRIDE
    specs = []
    dense = [(n, p) for n in (200, 400) for p in (0.05, 0.5, 0.9)] + [(1000, 0.006)]
    for i, (n, p) in enumerate(dense):
        used, edges = connected_gnp(n, p, 600 + 10 * i + shift)
        specs.append(GraphSpec("dense_" + _gnp_stem(n, p, used), "dense", n, edges))
    for kind, n, edges in (
        ("cycle", 200, _cycle(200)),
        ("cycle", 300, _cycle(300)),
        ("path", 100, _path(100)),
        ("path", 200, _path(200)),
    ):
        specs.append(GraphSpec(f"long_{kind}_{n}", "long", n, edges))
    # the config must name a portfolio even though no stage here runs one
    return Workload("features_scale", ("ingest", "features"), ("exact",), 1.0, 1, specs)


# Density falls as size grows, so that exact needs about a second on each.
SOLVE_GNP = ((115, 0.8), (118, 0.8)) + tuple(
    (121 + 3 * i, 0.75 if i < 5 else 0.7) for i in range(10)
)


def solve_scale(seed: int) -> Workload:
    """Exact-provable dense G(n, p) plus hamming10-2, solved on two threads."""
    shift = seed * SEED_STRIDE
    specs = []
    for i, (n, p) in enumerate(SOLVE_GNP):
        used, edges = connected_gnp(n, p, 700 + 10 * i + shift)
        specs.append(GraphSpec(_gnp_stem(n, p, used), "gnp", n, edges))
    n, edges = hamming_edges(10, 2)
    specs.append(GraphSpec("hamming10-2", "hamming", n, edges))
    return Workload("solve_scale", ("ingest", "bench"), ("exact", "greedy"), 60.0, 2, specs)


WORKLOADS = {"smoke": smoke, "features_scale": features_scale, "solve_scale": solve_scale}


# ------------------------------------------------------------------ files


def dimacs(node_count: int, edges) -> str:
    ordered = sorted((u, v) if u < v else (v, u) for u, v in edges)
    lines = [f"p edge {node_count} {len(ordered)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in ordered)
    return "\n".join(lines) + "\n"


def write_corpus(workload: Workload, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for g in workload.graphs:
        (directory / f"{g.stem}.clq").write_text(dimacs(g.node_count, g.edges))


def write_config(workload: Workload, path: Path, corpus_glob: str, output_dir: str) -> None:
    portfolio = "\n".join(f"{sid} = builtin" for sid in workload.portfolio)
    path.write_text(
        f"""[corpus]
paths = {corpus_glob}

[portfolio]
{portfolio}

[run]
solver_budget = {workload.solver_budget!r}
feature_budget = 60
seed = 0
output_dir = {output_dir}
"""
    )
