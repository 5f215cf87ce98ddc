"""Greedy construction and reduction-based local search for maximum clique."""

from __future__ import annotations

import math
import random
import time

from ..graph import Graph, greedy_clique, iter_bits, most_connected

# a local-search round after the first grows by the best of this many sampled candidates
_SAMPLES = 64


def solve_greedy(g: Graph):
    """Sequential clique growth: pick a vertex, keep only its neighbors, repeat.

    This is :func:`~cliquespace.graph.greedy_clique`, which picks the
    candidate with the most neighbors among the remaining candidates
    (ties to the lowest id); it is deterministic.
    """
    from . import finish

    start = time.perf_counter()
    best = greedy_clique(g)
    return finish(g, best, start, "greedy", proven=len(best) == g.node_count)


def solve_local_search(
    g: Graph,
    budget: float,
    seed: int = 0,
    on_incumbent=None,
):
    """Repeated clique construction with degree-based graph reduction.

    Every improvement of the best clique triggers a peel: any surviving
    vertex v with deg(v) + 1 <= best size cannot belong to a larger
    clique, so it is removed and degrees cascade.  If the whole graph
    peels away the incumbent is provably maximum.  Construction round 0
    is the deterministic max-connectivity greedy; later rounds start at
    a random vertex and grow by best-of-``_SAMPLES`` candidate
    sampling.  Anytime within ``budget`` wall seconds.
    """
    from . import finish

    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget!r}")
    start = time.perf_counter()
    deadline = start + budget
    rng = random.Random(seed)
    adj = g.adj_bits
    n = g.node_count

    alive = (1 << n) - 1
    degree = list(g.degrees)
    best: list[int] = []
    proven = False

    def construct(round_idx: int) -> list[int]:
        if round_idx == 0:
            return greedy_clique(g)  # nothing is peeled before the first round
        v = rng.choice(list(iter_bits(alive)))
        clique = [v]
        cand = adj[v] & alive
        while cand:
            cand_list = list(iter_bits(cand))
            if len(cand_list) <= _SAMPLES:
                pick = most_connected(cand, adj)
            else:
                sample = {rng.choice(cand_list) for _ in range(_SAMPLES)}
                pick = max(
                    sorted(sample),
                    key=lambda u: (adj[u] & cand).bit_count(),
                )
            clique.append(pick)
            cand &= adj[pick]
        return clique

    def reduce_below(threshold: int) -> None:
        # peel every vertex that cannot appear in a clique larger than threshold
        nonlocal alive
        stack = [v for v in iter_bits(alive) if degree[v] + 1 <= threshold]
        while stack:
            v = stack.pop()
            bit = 1 << v
            if not alive & bit:
                continue
            alive &= ~bit
            for w in iter_bits(adj[v] & alive):
                degree[w] -= 1
                if degree[w] + 1 <= threshold:
                    stack.append(w)

    round_idx = 0
    while alive:
        clique = construct(round_idx)
        round_idx += 1
        if len(clique) > len(best):
            best = clique
            if on_incumbent:
                on_incumbent(sorted(best), time.perf_counter() - start)
            reduce_below(len(best))
        if not alive:
            proven = True  # graph peeled away: nothing larger exists
            break
        if time.perf_counter() > deadline:
            break

    return finish(g, best, start, "fastwclq-like", proven, exhausted=not proven)
