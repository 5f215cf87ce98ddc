"""Built-in maximum-clique solver portfolio and the external-binary adapter."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import CliqueValidityError
from ..graph import Budget, Graph

__all__ = [
    "SolveResult",
    "verify_clique",
    "BUILTIN_SOLVER_IDS",
    "make_builtin",
    "solve_exact_bb",
    "solve_greedy",
    "solve_local_search",
    "export_ilp",
    "run_external",
]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run on one graph.

    ``clique`` is empty when a solver reports only a size (external
    binaries often do); otherwise it holds the vertices and its length
    equals ``clique_size``.  ``proven_optimal`` is only set by runs that
    exhausted their search or reduced the graph away completely.  It names
    no solver: the id its caller resolved is the solver's one name.
    """

    clique: tuple[int, ...]
    clique_size: int
    proven_optimal: bool
    wall_seconds: float
    budget_exhausted: bool = False


def verify_clique(g: Graph, nodes) -> None:
    """Raise unless ``nodes`` is a set of distinct, pairwise-adjacent vertices."""
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise CliqueValidityError(f"repeated vertices in claimed clique: {nodes}")
    for v in nodes:
        if not 0 <= v < g.node_count:
            raise CliqueValidityError(f"vertex {v} outside graph of {g.node_count} nodes")
    for u, v in itertools.combinations(nodes, 2):
        if not g.has_edge(u, v):
            raise CliqueValidityError(f"claimed clique contains the non-edge ({u}, {v})")


def finish(g: Graph, clique, budget: Budget, proven: bool, exhausted: bool = False):
    """The result envelope of one builtin run: ``clique`` is sorted and
    verified, and the wall time is ``budget.elapsed()`` after that check.
    A builtin's one name is its ``_BUILTINS`` key."""
    clique = tuple(sorted(clique))
    verify_clique(g, clique)
    return SolveResult(
        clique=clique,
        clique_size=len(clique),
        proven_optimal=proven,
        wall_seconds=budget.elapsed(),
        budget_exhausted=exhausted,
    )


from .exact import solve_exact_bb  # noqa: E402
from .heuristics import solve_greedy, solve_local_search  # noqa: E402
from .ilp import export_ilp  # noqa: E402
from .external import run_external  # noqa: E402

# the builtin portfolio: solver id -> (graph, budget, seed) -> SolveResult
_BUILTINS = {
    "exact": lambda g, budget, seed: solve_exact_bb(g, budget=budget),
    "greedy": lambda g, budget, seed: solve_greedy(g),
    "fastwclq-like": lambda g, budget, seed: solve_local_search(g, budget=budget, seed=seed),
}
BUILTIN_SOLVER_IDS = tuple(_BUILTINS)


def make_builtin(solver_id: str, seed: int = 0):
    """Uniform (graph, budget_seconds) -> SolveResult callable for one builtin."""
    if solver_id not in _BUILTINS:
        raise KeyError(f"unknown builtin solver {solver_id!r}")
    solve = _BUILTINS[solver_id]
    return lambda g, budget: solve(g, budget, seed)
