import math
import shlex
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquespace import artifacts, bench
from cliquespace.artifacts import cell
from cliquespace.bench import (
    DEFAULT_GOOD_TOLERANCE,
    PerformanceMatrix,
    RunRecord,
    map_jobs,
    read_journal,
    run_campaign,
    score_instance,
    write_journal,
)
from cliquespace.errors import ScoringError
from cliquespace.graph import generate, parse_path, serialize, GraphFormat
from cliquespace.solvers import SolveResult


def rec(instance, solver, size, seconds, status="ok", proven=False):
    return RunRecord(instance, solver, size, seconds, proven, status)


class TestScoreInstance:
    def test_published_fixture_is_exact(self):
        scores = score_instance([
            rec("i", "A", 80, 80.0),
            rec("i", "B", 100, 160.0),
        ])
        assert scores["A"] == 0.625
        assert scores["B"] == 1.0

    def test_single_solver_scores_one(self):
        assert score_instance([rec("i", "only", 17, 3.5)]) == {"only": 1.0}

    def test_identical_runs_tie_at_one(self):
        scores = score_instance([
            rec("i", "a", 10, 2.0),
            rec("i", "b", 10, 2.0),
        ])
        assert scores == {"a": 1.0, "b": 1.0}

    def test_slowest_largest_scores_exactly_one(self):
        scores = score_instance([
            rec("i", "big", 50, 9.0),
            rec("i", "small", 30, 1.0),
        ])
        assert scores["big"] == 1.0
        assert scores["small"] == pytest.approx((1.0 / 9.0) / (30.0 / 50.0))

    def test_subsecond_times_clamped(self):
        scores = score_instance([
            rec("i", "a", 5, 0.0),
            rec("i", "b", 5, 0.0005),
        ])
        assert scores == {"a": 1.0, "b": 1.0}

    def test_failed_run_gets_infinity_and_stays_out_of_denominators(self):
        scores = score_instance([
            rec("i", "ok", 5, 1.0),
            rec("i", "crashed", 0, 99.0, status="failed"),
        ])
        assert scores["ok"] == 1.0  # the crash's 99 s must not shrink ok's ratio
        assert math.isinf(scores["crashed"])

    def test_all_failed(self):
        scores = score_instance([rec("i", "a", 0, 1.0, status="failed")])
        assert math.isinf(scores["a"])

    def test_errors(self):
        with pytest.raises(ScoringError):
            score_instance([])
        with pytest.raises(ScoringError):
            score_instance([rec("i", "a", 5, 1.0), rec("j", "b", 5, 1.0)])
        with pytest.raises(ScoringError):
            score_instance([rec("i", "a", 5, 1.0), rec("i", "a", 5, 2.0)])
        with pytest.raises(ScoringError):
            score_instance([rec("i", "a", 5, -0.1)])
        with pytest.raises(ScoringError):
            score_instance([rec("i", "a", 0, 1.0)])


@pytest.mark.parametrize(
    "size, seconds, status",
    [
        (5, math.nan, "ok"),
        (5, math.inf, "ok"),
        (5, -1.0, "ok"),
        (0, 1.0, "ok"),
        (-1, 1.0, "ok"),
        (-1, 1.0, "failed"),
        (5, 1.0, "bogus"),
    ],
    ids=["wall-nan", "wall-inf", "wall-negative", "ok-size-0", "ok-size-negative",
         "failed-size-negative", "status-bogus"],
)
def test_run_record_refuses_a_run_no_solver_can_make(size, seconds, status):
    with pytest.raises(ScoringError):
        rec("i", "a", size, seconds, status=status)


class TestLabels:
    def make_matrix(self, y_rows, tolerance=0.05):
        y = np.array(y_rows, dtype=float)
        return PerformanceMatrix(
            instance_ids=tuple(f"i{i}" for i in range(y.shape[0])),
            solver_ids=tuple(f"s{j}" for j in range(y.shape[1])),
            y=y,
            tolerance=tolerance,
        )

    def test_clear_winner(self):
        m = self.make_matrix([[0.5, 1.0]])
        assert m.good.tolist() == [[True, False]]

    def test_near_tie_both_good(self):
        m = self.make_matrix([[0.50, 0.51]])
        assert m.good.tolist() == [[True, True]]

    def test_boundary_is_inclusive(self):
        m = self.make_matrix([[0.5, 0.525]])
        assert m.good.tolist() == [[True, True]]

    def test_failed_runs_never_good(self):
        m = self.make_matrix([[math.inf, math.inf]])
        assert m.good.tolist() == [[False, False]]

    def test_replace_relabels_at_the_new_tolerance(self):
        m = self.make_matrix([[0.5, 0.51]], tolerance=0.0)
        assert m.good.tolist() == [[True, False]]
        assert replace(m, tolerance=0.05).good.tolist() == [[True, True]]

    @pytest.mark.parametrize("tolerance", [-0.01, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ScoringError, match="tolerance"):
            self.make_matrix([[1.0, 0.4]], tolerance=tolerance)
        with pytest.raises(ScoringError, match="tolerance"):
            PerformanceMatrix.from_records([rec("i", "a", 1, 1.0)], tolerance)
        with pytest.raises(ScoringError, match="tolerance"):
            replace(self.make_matrix([[1.0, 0.4]]), tolerance=tolerance)


def _brute_labels(y, solver_ids, tolerance):
    """The good labels and winners by their definition, one row at a time."""
    good, best = [], []
    for row in y.tolist():
        finite = [v for v in row if v < math.inf]
        ymin = min(finite, default=math.inf)
        good.append([v < math.inf and v <= (1.0 + tolerance) * ymin for v in row])
        winner = min(range(len(row)), key=lambda j: (row[j], j))
        best.append(solver_ids[winner] if finite else None)
    return good, tuple(best)


_SCORES = st.one_of(st.sampled_from([0.5, 0.525, 1.0, math.inf]), st.floats(0.001, 10.0))


@settings(max_examples=100, deadline=None)
@given(
    y_rows=st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.one_of(
                st.lists(_SCORES, min_size=cols, max_size=cols),
                st.just([math.inf] * cols),
            ),
            min_size=1,
            max_size=6,
        )
    ),
    tolerance=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    data=st.data(),
)
def test_derived_labels_match_their_definition(y_rows, tolerance, data):
    y = np.array(y_rows, dtype=float)
    solver_ids = tuple(f"s{j}" for j in range(y.shape[1]))
    m = PerformanceMatrix(tuple(f"i{i}" for i in range(len(y))), solver_ids, y, tolerance)
    good, best = _brute_labels(y, solver_ids, tolerance)
    assert m.good.tolist() == good
    assert m.best_solver == best

    # restricting the rows, then deriving, equals deriving, then restricting
    rows = data.draw(st.permutations(range(len(y))))[: data.draw(st.integers(0, len(y)))]
    sub = replace(m, instance_ids=tuple(m.instance_ids[i] for i in rows), y=m.y[rows])
    assert sub.good.tolist() == m.good[rows].tolist()
    assert sub.best_solver == tuple(m.best_solver[i] for i in rows)


class TestPerformanceMatrix:
    def test_two_by_two(self):
        records = [
            rec("i1", "A", 10, 1.0),
            rec("i1", "B", 10, 2.0),
            rec("i2", "A", 4, 2.0),
            rec("i2", "B", 8, 2.0),
        ]
        m = PerformanceMatrix.from_records(records)
        assert m.instance_ids == ("i1", "i2")
        assert m.solver_ids == ("A", "B")
        assert m.best_solver == ("A", "B")
        assert m.y_of("i1", "A") == 0.5
        assert m.y_of("i1", "B") == 1.0
        assert m.good[0].tolist() == [True, False]
        # every instance keeps at least one good solver
        assert m.good.any(axis=1).all()

    def test_equal_scores_break_ties_lexicographically(self):
        records = [
            rec("i", "zeta", 10, 1.0),
            rec("i", "alpha", 10, 1.0),
        ]
        m = PerformanceMatrix.from_records(records)
        assert m.best_solver == ("alpha",)

    def test_instance_where_every_run_failed_has_no_winner(self):
        records = [
            rec("a", "exact", 10, 0.5),
            rec("a", "greedy", 9, 1.0),
            rec("b", "exact", 0, 1.0, status="failed"),
            rec("b", "greedy", 0, 0.5, status="failed"),
        ]
        m = PerformanceMatrix.from_records(records)
        assert m.best_solver == ("exact", None)
        assert m.good[1].tolist() == [False, False]

    def test_missing_pair_treated_as_failed(self):
        records = [
            rec("i1", "A", 10, 1.0),
            rec("i1", "B", 10, 2.0),
            rec("i2", "A", 4, 2.0),
        ]
        m = PerformanceMatrix.from_records(records)
        assert math.isinf(m.y_of("i2", "B"))
        assert not m.good[1, 1]

    def test_duplicate_records_first_wins(self):
        records = [
            rec("i", "A", 10, 1.0),
            rec("i", "A", 99, 0.5),
            rec("i", "B", 5, 1.0),
        ]
        m = PerformanceMatrix.from_records(records)
        # the first (10, 1.0) record wins, so A is slowest-and-largest: y = 1
        assert m.y_of("i", "A") == 1.0
        assert m.y_of("i", "B") == 2.0


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 100), min_size=2, max_size=6),
    times_ms=st.data(),
    scale=st.floats(0.5, 200.0),
)
def test_time_scale_invariance_of_ranking(sizes, times_ms, scale):
    times = [
        times_ms.draw(st.integers(10, 10_000)) / 1000.0 for _ in sizes
    ]
    base = [rec("i", f"s{j}", sizes[j], times[j]) for j in range(len(sizes))]
    scaled = [rec("i", f"s{j}", sizes[j], times[j] * scale) for j in range(len(sizes))]
    y0 = score_instance(base)
    y1 = score_instance(scaled)
    for solver in y0:
        assert y1[solver] == pytest.approx(y0[solver], rel=1e-9)
    m0 = PerformanceMatrix.from_records(base)
    m1 = PerformanceMatrix.from_records(scaled)
    ordered = sorted(y0.values())
    if len(ordered) < 2 or ordered[1] - ordered[0] > 1e-9 * max(ordered[0], 1e-300):
        assert m0.best_solver == m1.best_solver


class TestJournal:
    def test_round_trip_restores_matrix(self, tmp_path):
        records = [
            rec("i1", "A", 10, 1.0, proven=True),
            rec("i1", "B", 10, 2.0),
            rec("i2", "A", 4, 2.125),
            rec("i2", "B", 8, 2.0, status="failed"),
            # written through cell as repr(float(v)), not as 'np.float64(...)'
            rec("i3", "A", 3, np.float64(1 / 3)),
        ]
        path = tmp_path / "runs.csv"
        write_journal(path, records, meta={"config": "deadbeef"})
        loaded, meta = read_journal(path)
        assert loaded == records
        assert meta == {"config": "deadbeef"}
        assert PerformanceMatrix.from_records(loaded) == PerformanceMatrix.from_records(records)
        again = tmp_path / "again.csv"
        write_journal(again, loaded, meta)
        assert again.read_bytes() == path.read_bytes()
        assert float(cell(np.float64(1 / 3))) == 1 / 3 and cell(np.float64(0.5)) == "0.5"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("instance,solver\nx,y\n")
        with pytest.raises(ScoringError):
            read_journal(path)

    def test_torn_final_row_dropped(self, tmp_path):
        records = [rec("i1", "A", 10, 1.0), rec("i1", "B", 9, 2.0)]
        path = tmp_path / "runs.csv"
        write_journal(path, records, meta={"config": "deadbeef"})
        with path.open("a") as fh:
            fh.write("i2,A,4,2.1")  # killed mid-append: no line end
        loaded, meta = read_journal(path)
        assert loaded == records
        assert meta == {"config": "deadbeef"}

    def test_malformed_middle_row_names_its_line(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_journal(path, [rec("i1", "A", 10, 1.0)], meta={"config": "deadbeef"})
        text = path.read_text()
        path.write_text(text + "i1,B,9\r\n" + "i2,A,4,2.0,false,ok\r\n")
        # line 1 is the meta comment, 2 the header, 3 the good row
        with pytest.raises(ScoringError, match=r"runs\.csv:4"):
            read_journal(path)

    @pytest.mark.parametrize(
        "size, wall",
        [("5", "nan"), ("5", "inf"), ("5", "-1.0"), ("-1", "1.0"), ("0", "1.0")],
    )
    def test_impossible_row_names_its_line(self, tmp_path, size, wall):
        path = tmp_path / "runs.csv"
        write_journal(path, [rec("i1", "A", 10, 1.0)], meta={"config": "deadbeef"})
        path.write_text(path.read_text() + f"i1,B,{size},{wall},false,ok\r\n")
        with pytest.raises(ScoringError, match=r"runs\.csv:4"):
            read_journal(path)


def stub_solver(size, seconds, fail=False, counter=None):
    def run(g, budget):
        if counter is not None:
            counter.append(1)
        if fail:
            raise RuntimeError("synthetic crash")
        return SolveResult(
            clique=(),
            clique_size=size,
            proven_optimal=False,
            wall_seconds=seconds,
            solver_id="stub",
        )
    return run


class TestRunCampaign:
    def corpus(self, k=2):
        return [(f"g{i}", generate("gnp", 12, p=0.5, seed=i, name=f"g{i}")) for i in range(k)]

    def test_two_by_two_produces_four_records(self):
        matrix, records = run_campaign(
            self.corpus(2),
            [("fast", stub_solver(5, 0.5)), ("slow", stub_solver(5, 1.0))],
            budget=5.0,
        )
        assert len(records) == 4
        assert len(matrix.best_solver) == 2
        assert matrix.best_solver == ("fast", "fast")

    def test_resume_skips_completed_pairs(self, tmp_path):
        journal = tmp_path / "runs.csv"
        calls: list[int] = []
        portfolio = [("s", stub_solver(5, 0.5, counter=calls))]
        run_campaign(self.corpus(3), portfolio, budget=5.0, journal=journal)
        assert len(calls) == 3
        matrix, records = run_campaign(self.corpus(3), portfolio, budget=5.0, journal=journal)
        assert len(calls) == 3, "journal hit must prevent re-execution"
        assert len(records) == 3
        assert len(matrix.instance_ids) == 3

    def test_resume_parses_only_instances_with_pairs_left(self, tmp_path, monkeypatch):
        paths = {}
        for name, g in self.corpus(2):
            paths[name] = tmp_path / f"{name}.clq"
            paths[name].write_text(serialize(g, GraphFormat.DIMACS_CLQ))
        portfolio = [("a", stub_solver(5, 0.5)), ("b", stub_solver(4, 1.0))]
        journal = tmp_path / "runs.csv"
        run_campaign([("g0", paths["g0"])], portfolio, budget=5.0, journal=journal)
        parsed: list[str] = []

        def counting_parse(path):
            parsed.append(Path(path).stem)
            return parse_path(path)

        monkeypatch.setattr(bench, "parse_path", counting_parse)
        corpus = [("g0", paths["g0"]), ("g1", paths["g1"])]
        matrix, records = run_campaign(corpus, portfolio, budget=5.0, journal=journal)
        assert parsed == ["g1"], "every pair of g0 is journaled"
        fresh, fresh_records = run_campaign(corpus, portfolio, budget=5.0)
        assert matrix == fresh
        pair = lambda r: (r.instance_id, r.solver_id)
        assert sorted(records, key=pair) == sorted(fresh_records, key=pair)

    def test_every_new_record_is_fsynced(self, tmp_path, monkeypatch):
        synced: list[int] = []
        monkeypatch.setattr(artifacts.os, "fsync", synced.append)
        journal = tmp_path / "runs.csv"
        calls: list[int] = []
        portfolio = [("a", stub_solver(5, 0.5, counter=calls)), ("b", stub_solver(4, 0.5))]
        run_campaign(self.corpus(3), portfolio, budget=5.0, parallelism=2, journal=journal)
        assert len(synced) == 6, "one fsync per appended record"
        _, records = run_campaign(self.corpus(3), portfolio, budget=5.0, journal=journal)
        assert len(calls) == 3, "a resumed campaign re-runs nothing"
        assert len(synced) == 6
        assert len(records) == 6

    def test_resume_after_torn_final_row(self, tmp_path):
        journal = tmp_path / "runs.csv"
        calls: list[int] = []
        portfolio = [("s", stub_solver(5, 0.5, counter=calls))]
        run_campaign(self.corpus(3), portfolio, budget=5.0, journal=journal)
        data = journal.read_bytes()
        kept = data[: data.rstrip().rfind(b"\n") + 1]
        journal.write_bytes(kept + b"g2,s,5,0.")
        lines: list[str] = []
        matrix, records = run_campaign(
            self.corpus(3), portfolio, budget=5.0, journal=journal, log=lines.append
        )
        assert len(calls) == 4, "only the torn pair runs again"
        assert any("torn" in ln for ln in lines)
        assert len(records) == 3
        assert matrix.instance_ids == ("g0", "g1", "g2")
        reread, _ = read_journal(journal)
        assert sorted(r.instance_id for r in reread) == ["g0", "g1", "g2"]
        # the kept rows are written back byte for byte, then the re-run pair
        assert journal.read_bytes() == kept + b"g2,s,5,0.5,false,ok\r\n"

    def test_crash_recorded_as_failed_run(self):
        matrix, records = run_campaign(
            self.corpus(1),
            [("ok", stub_solver(5, 1.0)), ("boom", stub_solver(5, 1.0, fail=True))],
            budget=5.0,
        )
        failed = [r for r in records if r.solver_id == "boom"]
        assert failed[0].status == "failed"
        assert math.isinf(matrix.y_of("g0", "boom"))
        assert matrix.y_of("g0", "ok") == 1.0

    @pytest.mark.parametrize(
        "size, seconds",
        [(0, 0.5), ("n+1", 0.5), (5, -1.0), (5, math.inf), (5, math.nan)],
        ids=["size-0", "size-n+1", "wall-negative", "wall-inf", "wall-nan"],
    )
    def test_impossible_result_recorded_as_failed_run(self, tmp_path, size, seconds):
        corpus = self.corpus(1)
        if size == "n+1":
            size = corpus[0][1].node_count + 1
        journal = tmp_path / "runs.csv"
        calls: list[int] = []
        portfolio = [
            ("ok", stub_solver(5, 0.5)),
            ("odd", stub_solver(size, seconds, counter=calls)),
        ]
        lines: list[str] = []
        matrix, records = run_campaign(
            corpus, portfolio, budget=5.0, journal=journal, log=lines.append
        )
        odd = next(r for r in records if r.solver_id == "odd")
        assert odd.status == "failed"
        assert 0.0 <= odd.wall_seconds < math.inf  # measured, not the reported time
        assert any("odd failed on g0" in ln for ln in lines)
        assert not np.isnan(matrix.y).any()
        assert math.isinf(matrix.y_of("g0", "odd"))
        assert matrix.best_solver == ("ok",)
        resumed, _ = run_campaign(corpus, portfolio, budget=5.0, journal=journal)
        assert len(calls) == 1, "the journaled failure is not re-run"
        assert resumed == matrix

    def test_external_killed_before_any_clique_is_a_failed_run(self, tmp_path, k5):
        from cliquespace.solvers import make_builtin, run_external

        command = f"{sys.executable} -c {shlex.quote('import time; time.sleep(5)')} {{instance}}"
        portfolio = [
            ("exact", make_builtin("exact")),
            ("sleepy", lambda g, budget: run_external(command, g, budget)),
        ]
        journal = tmp_path / "runs.csv"
        matrix, records = run_campaign([("k5", k5)], portfolio, budget=0.5, journal=journal)
        status = {r.solver_id: r.status for r in records}
        assert status == {"exact": "ok", "sleepy": "failed"}
        assert matrix.best_solver == ("exact",)
        rows = journal.read_bytes()
        resumed, _ = run_campaign([("k5", k5)], portfolio, budget=0.5, journal=journal)
        assert journal.read_bytes() == rows, "nothing runs again on resume"
        assert resumed == matrix

    def test_unloadable_instance_skipped_with_log(self, tmp_path):
        bad = tmp_path / "broken.clq"
        bad.write_text("this is not dimacs\n")
        lines: list[str] = []
        matrix, records = run_campaign(
            [("good", generate("complete", 4)), ("broken", bad)],
            [("s", stub_solver(3, 1.0))],
            budget=5.0,
            log=lines.append,
        )
        assert matrix.instance_ids == ("good",)
        assert any("broken" in ln for ln in lines)

    def test_instances_loadable_from_disk(self, tmp_path):
        g = generate("gnp", 10, p=0.4, seed=3, name="disk0")
        path = tmp_path / "disk0.clq"
        path.write_text(serialize(g, GraphFormat.DIMACS_CLQ))
        matrix, _ = run_campaign(
            [("disk0", path)], [("s", stub_solver(2, 0.5))], budget=5.0
        )
        assert matrix.instance_ids == ("disk0",)

    def test_parallel_matches_serial(self, tmp_path):
        portfolio = [("a", stub_solver(5, 0.5)), ("b", stub_solver(7, 0.75))]
        serial, _ = run_campaign(self.corpus(6), portfolio, budget=5.0, parallelism=1)
        parallel, _ = run_campaign(self.corpus(6), portfolio, budget=5.0, parallelism=4)
        assert serial == parallel

    def test_real_solvers_on_k5(self, k5):
        from cliquespace.solvers import make_builtin

        matrix, records = run_campaign(
            [("k5", k5)],
            [("exact", make_builtin("exact")), ("greedy", make_builtin("greedy"))],
            budget=5.0,
        )
        assert all(r.clique_size == 5 for r in records)
        assert matrix.good.all()  # equal sizes at clamped equal times: both good

    def test_validation_errors(self):
        with pytest.raises(ScoringError):
            run_campaign([], [("s", stub_solver(1, 1.0))], budget=1.0)
        with pytest.raises(ScoringError):
            run_campaign(self.corpus(1), [("s", stub_solver(1, 1.0))], budget=0.0)
        with pytest.raises(ScoringError):
            run_campaign(
                self.corpus(1),
                [("s", stub_solver(1, 1.0)), ("s", stub_solver(2, 1.0))],
                budget=1.0,
            )

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_budget_rejected(self, budget):
        # a nan or inf budget would switch off every solver deadline
        with pytest.raises(ScoringError, match="positive and finite"):
            run_campaign(self.corpus(1), [("s", stub_solver(1, 1.0))], budget=budget)


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records ``max_workers`` and maps
    on the calling thread."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cpus, items, workers",
    [(8, 2, 5, 2), (3, 16, 5, 3), (8, 16, 4, 4), (4, None, 5, 1)],
)
def test_map_jobs_caps_its_pool(monkeypatch, jobs, cpus, items, workers):
    monkeypatch.setattr(bench, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    threads = []

    def square(x):
        threads.append(threading.get_ident())
        return x * x

    assert map_jobs(square, list(range(items)), jobs) == [x * x for x in range(items)]
    assert _SerialPool.sizes == [workers]
    assert set(threads) == {threading.get_ident()}
