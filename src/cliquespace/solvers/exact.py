"""Exact branch-and-bound maximum-clique solver with coloring bounds.

Candidate sets are integer bitmasks.  At every search node the candidate
set is greedily colored; the number of color classes bounds how much the
current clique can still grow, so a branch dies as soon as
|current| + color ≤ |best|.  Branching follows descending color, which
tends to keep the incumbent growing early.  The search is anytime: when
the wall-clock budget runs out it returns the best clique found so far
with ``proven_optimal`` false.
"""

from __future__ import annotations

from ..graph import Budget, Graph, greedy_clique
from . import finish


class _BudgetExhausted(Exception):
    pass


def solve_exact_bb(g: Graph, budget: float | None = None, on_incumbent=None):
    """Maximum clique by coloring-bounded branch and bound.

    ``budget`` is wall seconds, positive and finite (None means
    unlimited).  ``on_incumbent`` is called with (sorted clique, elapsed
    seconds) every time the best clique improves, including the greedy
    warm start.
    """
    budget = Budget(budget, unlimited=True)
    adj = g.adj_bits

    best = greedy_clique(g)
    if on_incumbent:
        on_incumbent(sorted(best), budget.elapsed())

    ticks = 0

    def expand(stack: list[int], cand: int) -> None:
        nonlocal best, ticks
        # greedy coloring: order holds cand's vertices in ascending color
        order: list[int] = []
        bound: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            q = uncolored
            while q:
                lsb = q & -q
                v = lsb.bit_length() - 1
                q ^= lsb
                q &= ~adj[v]
                uncolored ^= lsb
                order.append(v)
                bound.append(color)
        for i in range(len(order) - 1, -1, -1):
            ticks += 1
            if ticks & 1023 == 0 and budget.expired():
                raise _BudgetExhausted
            if len(stack) + bound[i] <= len(best):
                return  # every remaining vertex has an equal or lower color
            v = order[i]
            child = cand & adj[v]
            stack.append(v)
            if child:
                expand(stack, child)
            elif len(stack) > len(best):
                best = stack.copy()
                if on_incumbent:
                    on_incumbent(sorted(best), budget.elapsed())
            stack.pop()
            cand &= ~(1 << v)

    proven = True
    try:
        expand([], (1 << g.node_count) - 1)
    except _BudgetExhausted:
        proven = False

    return finish(g, best, budget, proven, exhausted=not proven)
