"""Greedy construction and reduction-based local search for maximum clique."""

from __future__ import annotations

import random
import time

from ..graph import Graph, greedy_clique, iter_bits, most_connected

_GREEDY_VARIANTS = ("random_karp", "max_degree")


def solve_greedy(g: Graph, variant: str = "max_degree", seed: int = 0, restarts: int = 1):
    """Sequential clique growth: pick a vertex, keep only its neighbors, repeat.

    ``max_degree`` is :func:`~cliquespace.graph.greedy_clique`, which picks
    the candidate with the most neighbors among the remaining candidates
    (ties to the lowest id); it is deterministic, so ``seed`` and
    ``restarts`` do not change it.  ``random_karp`` picks uniformly from
    the candidate set and keeps the best clique over ``restarts`` rounds;
    deterministic for a fixed seed.
    """
    from . import finish

    if variant not in _GREEDY_VARIANTS:
        raise ValueError(f"variant must be one of {_GREEDY_VARIANTS}, got {variant!r}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    start = time.perf_counter()
    if variant == "max_degree":
        best = greedy_clique(g)
    else:
        rng = random.Random(seed)
        adj = g.adj_bits
        best = []
        for _ in range(restarts):
            clique: list[int] = []
            cand = (1 << g.node_count) - 1
            while cand:
                v = rng.choice(list(iter_bits(cand)))
                clique.append(v)
                cand &= adj[v]
            if len(clique) > len(best):
                best = clique
    return finish(g, best, start, "greedy", proven=len(best) == g.node_count)


def solve_local_search(
    g: Graph,
    budget: float,
    seed: int = 0,
    bms_samples: int = 64,
    on_incumbent=None,
):
    """Repeated clique construction with degree-based graph reduction.

    Every improvement of the best clique triggers a peel: any surviving
    vertex v with deg(v) + 1 <= best size cannot belong to a larger
    clique, so it is removed and degrees cascade.  If the whole graph
    peels away the incumbent is provably maximum.  Construction round 0
    is the deterministic max-connectivity greedy; later rounds start at
    a random vertex and grow by best-of-``bms_samples`` candidate
    sampling.  Anytime within ``budget`` wall seconds.
    """
    from . import finish

    if budget <= 0:
        raise ValueError("budget must be positive")
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
            if len(cand_list) <= bms_samples:
                pick = most_connected(cand, adj)
            else:
                sample = {rng.choice(cand_list) for _ in range(bms_samples)}
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
