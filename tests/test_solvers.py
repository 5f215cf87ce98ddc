import itertools
import shlex
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquespace.errors import (
    CliqueValidityError,
    FeatureTimeoutError,
    SolverOutputError,
    SolverSpawnError,
)
from cliquespace.features import compute_features
from cliquespace.graph import Budget, Graph, generate, greedy_clique
from cliquespace.solvers import (
    BUILTIN_SOLVER_IDS,
    SolveResult,
    export_ilp,
    make_builtin,
    run_external,
    solve_exact_bb,
    solve_greedy,
    solve_local_search,
    verify_clique,
)

from oracles import clique_number_exact, connected_gnp, is_clique
from test_acceptance import _bipartite_trap


def k10_minus_matching() -> Graph:
    # remove the perfect matching {(0,1), (2,3), ...}: omega drops to 5
    edges = [
        (u, v)
        for u in range(10)
        for v in range(u + 1, 10)
        if not (v == u + 1 and u % 2 == 0)
    ]
    return Graph(10, edges, name="k10-minus-matching")


class TestVerifyClique:
    def test_accepts_real_clique(self, k5):
        verify_clique(k5, [0, 2, 4])

    def test_rejects_non_edge(self, c5):
        with pytest.raises(CliqueValidityError):
            verify_clique(c5, [0, 2])

    def test_rejects_duplicates(self, k5):
        with pytest.raises(CliqueValidityError):
            verify_clique(k5, [1, 1])

    def test_rejects_out_of_range(self, k3):
        with pytest.raises(CliqueValidityError):
            verify_clique(k3, [0, 7])


class TestExactSolver:
    def test_complete_graph(self, k5):
        res = solve_exact_bb(k5)
        assert res.clique_size == 5
        assert res.proven_optimal
        assert not res.budget_exhausted
        assert res.clique == (0, 1, 2, 3, 4)

    def test_odd_cycle_has_no_triangle(self, c5):
        res = solve_exact_bb(c5)
        assert res.clique_size == 2
        assert res.proven_optimal

    def test_k10_minus_matching(self):
        res = solve_exact_bb(k10_minus_matching())
        assert res.clique_size == 5
        assert res.proven_optimal

    def test_edgeless_pair(self):
        res = solve_exact_bb(Graph(2, [(0, 1)]))
        assert res.clique_size == 2

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_enumeration_oracle(self, seed):
        g = generate("gnp", 20, p=0.5, seed=seed)
        res = solve_exact_bb(g)
        assert res.proven_optimal
        assert res.clique_size == clique_number_exact(g)
        assert is_clique(g, list(res.clique))

    def test_anytime_incumbents_monotone(self):
        g = connected_gnp(40, 0.6, seed=3)
        sizes = []
        solve_exact_bb(g, on_incumbent=lambda clique, t: sizes.append(len(clique)))
        assert sizes, "warm start must report an incumbent"
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_budget_exhaustion_returns_incumbent(self):
        g = generate("gnp", 120, p=0.9, seed=1, name="hard")
        res = solve_exact_bb(g, budget=0.05)
        assert res.budget_exhausted
        assert not res.proven_optimal
        assert res.clique_size >= 2
        assert is_clique(g, list(res.clique))

    def test_budget_must_be_positive(self, k3):
        with pytest.raises(ValueError):
            solve_exact_bb(k3, budget=0.0)


class TestGreedySolver:
    def test_complete_graph(self):
        res = solve_greedy(generate("complete", 8))
        assert res.clique_size == 8
        assert res.proven_optimal

    def test_star_finds_an_edge(self, star7):
        res = solve_greedy(star7)
        assert res.clique_size == 2


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), p=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_max_degree_greedy_is_the_shared_greedy_clique(n, p, seed):
    g = generate("gnp", n, p=p, seed=seed)
    assert solve_greedy(g).clique == tuple(greedy_clique(g))
    cliques = {make_builtin("greedy", seed=s)(g, 1.0).clique for s in range(5)}
    assert cliques == {tuple(greedy_clique(g))}


class TestLocalSearch:
    def test_k10_minus_matching(self):
        res = solve_local_search(k10_minus_matching(), budget=0.5, seed=0)
        assert res.clique_size == 5

    def test_even_cycle(self):
        res = solve_local_search(generate("cycle", 6), budget=0.2, seed=0)
        assert res.clique_size == 2

    def test_tree_peels_to_proven_optimum(self, star7):
        res = solve_local_search(star7, budget=5.0, seed=0)
        assert res.clique_size == 2
        assert res.proven_optimal
        assert not res.budget_exhausted
        assert res.wall_seconds < 1.0

    def test_edge_peel_proves_cycles(self):
        # every vertex has degree 2, so only the edge peel (no common
        # neighbor, 0 + 2 <= 2) empties the graph
        for n in range(4, 31):
            res = solve_local_search(generate("cycle", n), budget=5.0, seed=0)
            assert (n, res.clique_size, res.proven_optimal) == (n, 2, True)
            assert not res.budget_exhausted
            assert res.wall_seconds < 1.0

    @pytest.mark.parametrize("k, fringe", [(5, 7), (6, 8), (6, 9), (7, 9)])
    def test_edge_peel_proves_bipartite_traps(self, k, fringe):
        # round 0 stalls at 2 in the fringe; the edge peel then clears the
        # fringe, and the hidden clique is found and proven
        res = solve_local_search(_bipartite_trap(k, fringe), budget=5.0, seed=0)
        assert res.clique_size == k
        assert res.proven_optimal
        assert not res.budget_exhausted
        assert res.wall_seconds < 1.0

    @given(
        n=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_peeled_results_never_exceed_omega(self, n, p, seed):
        g = generate("gnp", n, p=p, seed=seed)
        res = solve_local_search(g, budget=0.1, seed=seed)
        omega = clique_number_exact(g)
        assert is_clique(g, list(res.clique))
        assert res.clique_size <= omega
        if res.proven_optimal:
            assert res.clique_size == omega

    def test_edge_peel_stops_at_the_deadline(self):
        # the incumbent callback sleeps past the deadline, so the edge pass
        # stops at its first vertex and the cycle stays unproven
        res = solve_local_search(
            generate("cycle", 30),
            budget=0.05,
            seed=0,
            on_incumbent=lambda clique, t: time.sleep(0.1),
        )
        assert res.clique_size == 2
        assert not res.proven_optimal
        assert res.budget_exhausted

    def test_edge_peel_keeps_the_deadline_on_hamming10_2(self):
        # nothing peels here (every edge has >= 1002 common neighbors), so the
        # run is budget-bound: edge passes and sampled rounds on 518,656
        # edges must still return within half a second of the deadline
        n = 1024
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if (u ^ v).bit_count() != 1
        ]
        g = Graph(n, edges, name="hamming10-2")
        res = solve_local_search(g, budget=2.0, seed=0)
        assert res.clique_size == 512
        assert res.wall_seconds < 2.5

    def test_anytime_incumbents_monotone(self):
        g = connected_gnp(60, 0.6, seed=5)
        sizes = []
        solve_local_search(g, budget=0.3, seed=1,
                           on_incumbent=lambda c, t: sizes.append(len(c)))
        assert sizes
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_budget_roughly_respected(self):
        g = connected_gnp(80, 0.5, seed=9)
        res = solve_local_search(g, budget=0.2, seed=2)
        assert res.wall_seconds < 2.0

    def test_beats_or_ties_greedy_on_suite(self):
        # suite-level expectation, not per-instance: equal seeds, 50 graphs
        wins = 0
        for seed in range(50):
            g = generate("gnp", 35, p=0.5, seed=1000 + seed)
            greedy = solve_greedy(g)
            local = solve_local_search(g, budget=0.05, seed=seed)
            wins += local.clique_size >= greedy.clique_size
        assert wins >= 45

    def test_budget_must_be_positive(self, k3):
        with pytest.raises(ValueError):
            solve_local_search(k3, budget=-1.0)


SOLVE_WITH_BUDGET = {
    "fastwclq-like": lambda g, budget: solve_local_search(g, budget=budget),
    "exact": lambda g, budget: solve_exact_bb(g, budget=budget),
    "external": lambda g, budget: run_external("echo clique 1 {instance}", g, budget=budget),
}


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("solver", sorted(SOLVE_WITH_BUDGET))
def test_non_finite_budget_rejected(k5, solver, budget):
    # a nan or inf deadline never passes, so a cycle would never return;
    # K5 peels in round 0, so a missing check returns here instead of hanging
    with pytest.raises(ValueError, match="positive and finite"):
        SOLVE_WITH_BUDGET[solver](k5, budget)


@pytest.mark.parametrize("solver", ["fastwclq-like", "external"])
def test_none_budget_rejected(k5, solver):
    # None means no limit only for the exact solver
    with pytest.raises(ValueError, match="positive and finite"):
        SOLVE_WITH_BUDGET[solver](k5, None)


def test_every_budget_stops_on_the_one_clock(monkeypatch):
    # each read of the replaced clock is one second later and real time
    # plays no part, so each run stops, and is timed, on this clock alone
    reads = itertools.count()
    monkeypatch.setattr(Budget, "clock", staticmethod(lambda: float(next(reads))))
    g = generate("gnp", 120, p=0.9, seed=3)  # neither solver proves it quickly
    for res in (solve_exact_bb(g, budget=5.0), solve_local_search(g, budget=5.0, seed=0)):
        assert res.budget_exhausted and not res.proven_optimal
        assert res.wall_seconds == int(res.wall_seconds) > 5
    with pytest.raises(FeatureTimeoutError):
        compute_features(connected_gnp(30, 0.5, seed=1), timeout=2.5)


def parse_lp(text: str):
    """Tiny LP-grammar reader returning (objective vars, constraints, binaries)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("\\")]
    section = None
    obj_tokens: list[str] = []
    constraints: list[tuple[str, list[str], str, int]] = []
    binaries: list[str] = []
    for ln in lines:
        stripped = ln.strip()
        lowered = stripped.lower()
        if lowered in ("maximize", "minimize"):
            section = "obj"
            continue
        if lowered == "subject to":
            section = "st"
            continue
        if lowered == "binary":
            section = "bin"
            continue
        if lowered == "end":
            section = None
            continue
        assert section is not None, f"content outside any section: {ln!r}"
        if section == "obj":
            body = stripped.split(":", 1)[1] if ":" in stripped else stripped
            obj_tokens += [t for t in body.replace("+", " ").split() if t]
        elif section == "st":
            name, body = stripped.split(":", 1)
            lhs, rhs = body.split("<=")
            terms = [t for t in lhs.replace("+", " ").split() if t]
            constraints.append((name.strip(), terms, "<=", int(rhs)))
        elif section == "bin":
            binaries += stripped.split()
    return obj_tokens, constraints, binaries


class TestIlpExport:
    def test_complete_graph_has_no_constraints(self):
        obj, cons, bins = parse_lp(export_ilp(generate("complete", 4)))
        assert obj == ["x0", "x1", "x2", "x3"]
        assert cons == []
        assert bins == ["x0", "x1", "x2", "x3"]

    def test_c4_has_two_diagonal_constraints(self, c4):
        _, cons, _ = parse_lp(export_ilp(c4))
        pairs = {tuple(terms) for _, terms, _, _ in cons}
        assert pairs == {("x0", "x2"), ("x1", "x3")}
        assert all(rhs == 1 and op == "<=" for _, _, op, rhs in cons)

    def test_p3_single_constraint(self, p3):
        _, cons, _ = parse_lp(export_ilp(p3))
        assert len(cons) == 1
        assert cons[0][1] == ["x0", "x2"]

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_constraint_count_complements_edges(self, seed):
        g = generate("gnp", 30, p=0.4, seed=seed)
        _, cons, bins = parse_lp(export_ilp(g))
        assert len(cons) == 30 * 29 // 2 - g.edge_count
        assert len(bins) == 30
        seen = {tuple(t) for _, t, _, _ in cons}
        assert len(seen) == len(cons), "duplicate constraint"
        for _, (a, b), _, _ in cons:
            assert not g.has_edge(int(a[1:]), int(b[1:]))

    def test_byte_stable(self, c5):
        assert export_ilp(c5) == export_ilp(c5)

    def test_golden_p3(self, p3):
        text = export_ilp(p3)
        assert " c0: x0 + x2 <= 1" in text.splitlines()
        assert text.endswith("End\n")


def _running(pid: int) -> bool:
    """``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def py_stub(code: str) -> str:
    return f"{sys.executable} -c {shlex.quote(code)} {{instance}}"


class TestExternalAdapter:
    def test_echo_stub_round_trip(self, k3):
        res = run_external(py_stub("print('clique 7 time 0.5')"), k3, budget=10.0)
        assert res.clique_size == 7
        assert res.wall_seconds == 0.5
        assert res.clique == ()
        assert not res.budget_exhausted

    def test_measured_wall_when_no_time_reported(self, k3):
        res = run_external(py_stub("print('clique 2')"), k3, budget=10.0)
        assert res.clique_size == 2
        assert 0.0 < res.wall_seconds < 10.0

    def test_budget_kill_flags_exhaustion(self, k3):
        res = run_external(
            py_stub("import time; time.sleep(30)"), k3, budget=0.4
        )
        assert res.budget_exhausted
        assert res.clique_size == 0

    def test_budget_kill_keeps_last_incumbent(self, k3):
        code = "import time; print('clique 2', flush=True); print('clique 3', flush=True); time.sleep(30)"
        res = run_external(py_stub(code), k3, budget=0.5)
        assert res.budget_exhausted
        assert res.clique_size == 3

    def test_ts_tr_tp_dialect_sums_components(self, k3):
        code = "print('ts=1.0'); print('tr=0.2'); print('tp=0.1'); print('clique 10')"
        res = run_external(py_stub(code), k3, budget=10.0)
        assert res.clique_size == 10
        assert res.wall_seconds == pytest.approx(1.3)

    def test_time_wins_over_ts_tr_tp(self, k3):
        code = "print('ts=1.0'); print('time 0.5'); print('tp=0.1'); print('clique 3')"
        res = run_external(py_stub(code), k3, budget=10.0)
        assert res.clique_size == 3
        assert res.wall_seconds == 0.5

    @pytest.mark.parametrize("line", ["time elapsed: 0.5", "ts=-"])
    def test_time_word_without_a_number_is_ignored(self, k3, line):
        # no float follows the key, so the measured wall time is used
        res = run_external(py_stub(f"print('clique 3'); print({line!r})"), k3, budget=10.0)
        assert res.clique_size == 3
        assert 0.0 < res.wall_seconds < 10.0

    def test_vertex_list_is_validated(self, k3):
        res = run_external(py_stub("print('clique 3'); print('v 1 2 3')"), k3, budget=10.0)
        assert res.clique == (0, 1, 2)
        assert res.clique_size == 3

    def test_invalid_vertex_list_rejected(self, p3):
        with pytest.raises(CliqueValidityError):
            run_external(py_stub("print('v 1 3')"), p3, budget=10.0)

    def test_size_vertex_mismatch_rejected(self, k3):
        with pytest.raises(SolverOutputError):
            run_external(py_stub("print('clique 2'); print('v 1 2 3')"), k3, budget=10.0)

    def test_instance_file_is_real_dimacs(self, c5):
        code = (
            "import sys\n"
            "text = open(sys.argv[1]).read()\n"
            "assert text.startswith('p edge 5 5'), text\n"
            "print('clique 2')\n"
        )
        res = run_external(py_stub(code), c5, budget=10.0)
        assert res.clique_size == 2

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    @pytest.mark.parametrize("killed", [True, False], ids=["budget_kill", "exit"])
    def test_no_process_it_started_outlives_it(self, k3, tmp_path, killed):
        # the stub starts a sleeper, with its own stdout so an exit is not
        # held up by it, then exits or waits for the budget kill
        pid_file = tmp_path / "sleeper.pid"
        code = (
            "import subprocess, sys, time\n"
            "sleeper = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(20)'],"
            " stdout=subprocess.DEVNULL)\n"
            f"open({str(pid_file)!r}, 'w').write(str(sleeper.pid))\n"
            "print('clique 2', flush=True)\n"
            + ("time.sleep(20)\n" if killed else "")
        )
        res = run_external(py_stub(code), k3, budget=3.0)
        assert res.budget_exhausted is killed and res.clique_size == 2
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)

    def test_exit_ends_the_wait_while_a_child_holds_its_stdout(self, k3):
        # the sleeper inherits the stub's stdout and outlives the stub's exit
        code = (
            "import subprocess, sys\n"
            "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(20)'])\n"
            "print('clique 2', flush=True)\n"
        )
        start = time.monotonic()
        res = run_external(py_stub(code), k3, budget=5.0)
        assert not res.budget_exhausted and res.clique_size == 2
        assert time.monotonic() - start < 4.0

    def test_missing_placeholder_rejected(self, k3):
        with pytest.raises(ValueError):
            run_external("echo clique 1", k3, budget=1.0)

    def test_spawn_failure(self, k3):
        with pytest.raises(SolverSpawnError):
            run_external("/nonexistent/solver-binary {instance}", k3, budget=1.0)

    def test_crash_is_an_error(self, k3):
        with pytest.raises(SolverOutputError):
            run_external(py_stub("import sys; sys.exit(3)"), k3, budget=10.0)

    def test_silent_success_is_parse_failure(self, k3):
        with pytest.raises(SolverOutputError):
            run_external(py_stub("print('all done')"), k3, budget=10.0)


class TestRegistry:
    def test_all_builtins_run(self, k5):
        for solver_id in BUILTIN_SOLVER_IDS:
            fn = make_builtin(solver_id, seed=0)
            res = fn(k5, 5.0)
            assert isinstance(res, SolveResult)
            assert res.clique_size == 5
            assert res.solver_id == solver_id

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            make_builtin("quantum")
