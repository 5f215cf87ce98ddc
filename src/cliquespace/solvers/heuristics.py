"""Greedy construction and reduction-based local search for maximum clique."""

from __future__ import annotations

import random

from ..graph import Budget, Graph, greedy_clique, iter_bits, most_connected, peel_below
from . import finish

# a local-search round after the first grows by the best of this many sampled candidates
_SAMPLES = 64


def solve_greedy(g: Graph):
    """Sequential clique growth: pick a vertex, keep only its neighbors, repeat.

    This is :func:`~cliquespace.graph.greedy_clique`, which picks the
    candidate with the most neighbors among the remaining candidates
    (ties to the lowest id); it is deterministic.
    """
    budget = Budget(None, unlimited=True)
    best = greedy_clique(g)
    return finish(g, best, budget, "greedy", proven=len(best) == g.node_count)


def solve_local_search(
    g: Graph,
    budget: float,
    seed: int = 0,
    on_incumbent=None,
):
    """Repeated clique construction with vertex-and-edge graph reduction.

    Every improvement of the best clique triggers a peel on a private
    copy of the adjacency bitmasks.  A live vertex v with
    deg(v) + 1 <= best size cannot belong to a larger clique, and
    neither can a live edge (u, v) whose endpoints share fewer than
    best size - 1 live neighbors (the k-truss bound of FastWClq, Cai &
    Lin 2016).  Vertex and edge peels alternate until neither removes
    anything.  If the whole graph peels away the incumbent is provably
    maximum.  Every edge of a larger clique survives the peel, so later
    rounds construct on the peeled graph.  Construction round 0 is the
    deterministic max-connectivity greedy; later rounds start at a
    random live vertex and grow by best-of-``_SAMPLES`` candidate
    sampling.  Anytime within ``budget`` wall seconds: the edge peel
    checks the deadline once per vertex and stops there, leaving a
    partial (still sound) peel.
    """
    budget = Budget(budget)
    rng = random.Random(seed)
    adj = list(g.adj_bits)  # the edge peel clears bits of this copy
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
        # peel every vertex and edge that cannot appear in a clique larger than threshold
        nonlocal alive
        changed = True
        while changed:
            alive = peel_below(adj, alive, degree, threshold)
            changed = False
            for u in iter_bits(alive):
                if budget.expired():
                    return
                for v in iter_bits(adj[u] & (alive >> (u + 1) << (u + 1))):
                    if (adj[u] & adj[v] & alive).bit_count() + 2 <= threshold:
                        adj[u] ^= 1 << v
                        adj[v] ^= 1 << u
                        degree[u] -= 1
                        degree[v] -= 1
                        changed = True

    round_idx = 0
    while alive:
        clique = construct(round_idx)
        round_idx += 1
        if len(clique) > len(best):
            best = clique
            if on_incumbent:
                on_incumbent(sorted(best), budget.elapsed())
            reduce_below(len(best))
        if not alive:
            proven = True  # graph peeled away: nothing larger exists
            break
        if budget.expired():
            break

    return finish(g, best, budget, "fastwclq-like", proven, exhausted=not proven)
