"""Solver campaign orchestration and the composite performance measure.

For one instance, each solver's score is

    y(a) = (t_a / max_b t_b) / (s_a / max_b s_b)

with t the wall time and s the clique size; lower is better.  The solver
that is simultaneously slowest and best scores exactly 1.  Wall times
are clamped below at 1 ms before scoring because near-zero measurements
are clock noise, and crashed runs receive y = +inf while staying out of
the max-normalization denominators.

``run_campaign`` turns every finished run, or its failure, into one
:class:`RunRecord` and appends it to ``runs.csv`` by ``artifacts.append_rows``.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from functools import cached_property
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .artifacts import append_rows, read_table, write_table
from .errors import ScoringError
from .graph import Budget, Graph, parse_path

__all__ = [
    "MIN_WALL_SECONDS",
    "DEFAULT_GOOD_TOLERANCE",
    "RunRecord",
    "PerformanceMatrix",
    "score_instance",
    "run_campaign",
    "map_jobs",
    "write_journal",
    "read_journal",
]

MIN_WALL_SECONDS = 0.001
DEFAULT_GOOD_TOLERANCE = 0.05


@dataclass(frozen=True)
class RunRecord:
    """One solver execution on one instance, immutable once journaled; its
    typed fields are the journal's columns.  A run no solver can make raises
    ScoringError: a wall time outside ``[0, inf)``, a status other than
    ``ok`` or ``failed``, a clique of size 0 on an ``ok`` run, or below 0."""

    instance_id: str
    solver_id: str
    clique_size: int
    wall_seconds: float
    proven_optimal: bool
    status: str = "ok"  # "ok" or "failed"

    def __post_init__(self):
        # scores divide by the instance's largest wall time, so one nan or
        # inf run would skew every solver's score on its instance
        if not 0 <= self.wall_seconds < math.inf:
            raise ScoringError(f"impossible wall time {self.wall_seconds!r} on {self.solver_id}")
        if self.status not in ("ok", "failed"):
            raise ScoringError(f"unknown status {self.status!r} on {self.solver_id}")
        if self.clique_size < (1 if self.status == "ok" else 0):
            raise ScoringError(f"impossible clique size {self.clique_size} on {self.solver_id}")


JOURNAL_COLUMNS = get_type_hints(RunRecord)


def score_instance(records: list[RunRecord]) -> dict[str, float]:
    """Composite time/quality score per solver for one instance's records.

    Failed records score +inf and do not enter the max-time or max-size
    denominators.  Each record has already passed :class:`RunRecord`'s
    checks; this raises on empty input, mixed instances or duplicate
    solvers.
    """
    if not records:
        raise ScoringError("cannot score an instance with no records")
    instance_ids = {r.instance_id for r in records}
    if len(instance_ids) != 1:
        raise ScoringError(f"records mix instances: {sorted(instance_ids)}")
    solver_ids = [r.solver_id for r in records]
    if len(set(solver_ids)) != len(solver_ids):
        raise ScoringError("duplicate solver records for one instance")

    ok = [r for r in records if r.status == "ok"]
    if not ok:
        return {r.solver_id: math.inf for r in records}
    max_t = max(max(r.wall_seconds, MIN_WALL_SECONDS) for r in ok)
    max_s = max(r.clique_size for r in ok)
    scores: dict[str, float] = {}
    for r in records:
        if r.status != "ok":
            scores[r.solver_id] = math.inf
        else:
            t = max(r.wall_seconds, MIN_WALL_SECONDS)
            scores[r.solver_id] = (t / max_t) / (r.clique_size / max_s)
    return scores


@dataclass(frozen=True, eq=False)
class PerformanceMatrix:
    """Per-(instance, solver) scores; the good labels and the per-instance
    winners are derived from them.  A matrix at another tolerance is
    ``dataclasses.replace(matrix, tolerance=t)``."""

    instance_ids: tuple[str, ...]
    solver_ids: tuple[str, ...]  # lexicographic
    y: np.ndarray  # (instances, solvers); +inf marks failed/missing runs
    tolerance: float

    def __post_init__(self):
        if not 0.0 <= self.tolerance < math.inf:
            raise ScoringError(f"tolerance must be non-negative and finite: {self.tolerance!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PerformanceMatrix):
            return NotImplemented
        return (
            self.instance_ids == other.instance_ids
            and self.solver_ids == other.solver_ids
            and np.array_equal(self.y, other.y)
            and self.tolerance == other.tolerance
        )

    @cached_property
    def good(self) -> np.ndarray:
        """Boolean, shape of ``y``: finite and within ``1 + tolerance`` of
        the row's best score."""
        finite = np.isfinite(self.y)
        ymin = np.min(np.where(finite, self.y, np.inf), axis=1, initial=np.inf)
        return finite & (self.y <= (1.0 + self.tolerance) * ymin[:, None])

    @cached_property
    def best_solver(self) -> tuple[str | None, ...]:
        """Per instance, the solver of least score; ties go to the first id.
        None for an instance with no finite score (every run failed)."""
        scored = np.isfinite(self.y).any(axis=1)
        return tuple(
            self.solver_ids[j] if ok else None
            for j, ok in zip(np.argmin(self.y, axis=1), scored)
        )

    def y_of(self, instance_id: str, solver_id: str) -> float:
        i = self.instance_ids.index(instance_id)
        j = self.solver_ids.index(solver_id)
        return float(self.y[i, j])

    @classmethod
    def from_records(
        cls, records: list[RunRecord], tolerance: float = DEFAULT_GOOD_TOLERANCE
    ) -> "PerformanceMatrix":
        """Build the full matrix; (instance, solver) pairs never run score +inf."""
        if not records:
            raise ScoringError("no records to build a performance matrix from")
        seen: dict[tuple[str, str], RunRecord] = {}
        for r in records:
            seen.setdefault((r.instance_id, r.solver_id), r)  # first write wins
        instance_ids = tuple(sorted({r.instance_id for r in records}))
        solver_ids = tuple(sorted({r.solver_id for r in records}))
        y = np.full((len(instance_ids), len(solver_ids)), math.inf)
        for i, inst in enumerate(instance_ids):
            inst_records = [
                seen[(inst, s)] for s in solver_ids if (inst, s) in seen
            ]
            scores = score_instance(inst_records)
            for j, s in enumerate(solver_ids):
                if s in scores:
                    y[i, j] = scores[s]
        return cls(instance_ids, solver_ids, y, tolerance)


def write_journal(
    path: str | Path, records: list[RunRecord], meta: dict[str, str] | None = None
) -> None:
    write_table(path, JOURNAL_COLUMNS, map(astuple, records), meta)


def read_journal(path: str | Path) -> tuple[list[RunRecord], dict[str, str]]:
    """Records and metadata of a journal.

    A final line without a line end is an append torn by a kill; it is
    dropped, so its pair runs again on resume.  A malformed row anywhere
    else raises :class:`ScoringError` naming its line.
    """
    data = Path(path).read_bytes()
    text = data[: max(data.rfind(b"\n"), data.rfind(b"\r")) + 1].decode()
    meta, records = read_table(
        path, JOURNAL_COLUMNS, ScoringError, lambda values: RunRecord(*values), text
    )
    return records, meta


def _load_instance(source) -> Graph:
    if isinstance(source, Graph):
        return source
    return parse_path(source).graph


def map_jobs(fn, items, jobs: int) -> list:
    """``fn`` over ``items``, results in input order: serially when
    ``jobs <= 1`` or fewer than two items, else on one thread per job, CPU
    and item, whichever count is least."""
    if jobs <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1, len(items))) as pool:
        return list(pool.map(fn, items))


def run_campaign(
    corpus: list[tuple[str, object]],
    portfolio: list[tuple[str, object]],
    budget: float,
    parallelism: int = 1,
    journal: str | Path | None = None,
    meta: dict[str, str] | None = None,
    log=None,
) -> tuple[PerformanceMatrix, list[RunRecord]]:
    """Run every (instance, solver) pair, resumable through the CSV journal.

    ``corpus`` holds (instance_id, Graph-or-path) pairs; unloadable
    instances are skipped with a log line.  ``portfolio`` holds
    (solver_id, callable(graph, budget) -> SolveResult) pairs.  Pairs
    already present in the journal are not re-executed, an instance with
    none left to run is not loaded, and each new record is flushed and
    fsynced as it is appended; a journal whose final row a kill tore is
    first written again whole without it.  A solver exception, or a result
    no run can produce (one :class:`RunRecord` refuses, or a clique larger
    than the graph), becomes a failed record with the measured wall time,
    not a crash of the campaign.  The matrix is at ``DEFAULT_GOOD_TOLERANCE``;
    ``replace(matrix, tolerance=t)`` relabels it.
    """
    if not corpus:
        raise ScoringError("corpus is empty")
    try:
        Budget(budget)
    except ValueError as exc:
        raise ScoringError(str(exc)) from None
    solver_ids = [s for s, _ in portfolio]
    if len(set(solver_ids)) != len(solver_ids):
        raise ScoringError("duplicate solver ids in portfolio")
    emit = log or (lambda msg: None)

    done: dict[tuple[str, str], RunRecord] = {}
    journal_path = Path(journal) if journal is not None else None
    if journal_path is not None and journal_path.exists():
        kept, kept_meta = read_journal(journal_path)
        if not journal_path.read_bytes().endswith((b"\n", b"\r")):
            write_journal(journal_path, kept, kept_meta)  # appends start on a fresh line
            emit(f"{journal_path.name}: dropped a torn final row; its run repeats")
        for r in kept:
            done.setdefault((r.instance_id, r.solver_id), r)
    elif journal_path is not None:
        write_journal(journal_path, [], meta)

    graphs: dict[str, Graph] = {}
    for instance_id, source in corpus:
        if all((instance_id, solver_id) in done for solver_id in solver_ids):
            continue
        try:
            graphs[instance_id] = _load_instance(source)
        except Exception as exc:
            emit(f"skipping instance {instance_id}: {exc}")

    pending = [
        (instance_id, solver_id, fn)
        for instance_id in graphs
        for solver_id, fn in portfolio
        if (instance_id, solver_id) not in done
    ]

    journal_lock = threading.Lock()

    def execute(task) -> RunRecord:
        instance_id, solver_id, fn = task
        run = Budget(budget)
        try:
            graph = graphs[instance_id]
            result = fn(graph, budget)
            # RunRecord checks every other rule of a possible run
            if result.clique_size > graph.node_count:
                raise ScoringError(f"impossible clique size {result.clique_size}")
            record = RunRecord(
                instance_id=instance_id,
                solver_id=solver_id,
                clique_size=result.clique_size,
                # a Python float and bool: ``cell`` would write a numpy bool as True
                wall_seconds=float(result.wall_seconds),
                proven_optimal=bool(result.proven_optimal),
            )
        except Exception as exc:
            emit(f"solver {solver_id} failed on {instance_id}: {exc}")
            record = RunRecord(
                instance_id=instance_id,
                solver_id=solver_id,
                clique_size=0,
                wall_seconds=run.elapsed(),
                proven_optimal=False,
                status="failed",
            )
        if journal_path is not None:
            with journal_lock:
                append_rows(journal_path, [astuple(record)])
        return record

    records = list(done.values()) + map_jobs(execute, pending, parallelism)
    return PerformanceMatrix.from_records(records), records
