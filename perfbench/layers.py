"""Per-layer metrics from one traced campaign and the untraced ones.

Span-derived numbers (time inside a layer, call counts, self time) come
from the traced campaign.  Numbers read from artifacts or from stage
clocks (journaled solver walls, stage wall and CPU) come from the
untraced campaigns, as medians, so tracing cannot distort them.  A
metric of a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from checks import read_runs
from spans import covered, self_time
from workloads import Workload

SOLVER_IDS = ("exact", "greedy", "fastwclq-like")
FEATURE_GROUPS = ("degree", "distance", "centrality", "clustering", "spectral", "clique")
FAILURE_CLASSES = ("EigenConvergenceError", "FeatureTimeoutError")
TAIL_SAMPLES = 10  # a reported percentile keeps at least this many samples beyond it


def median(values) -> float:
    """Median of an iterable; 0 when it is empty."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def latency(values: list[float]) -> tuple[float, float]:
    """(p50, p80); p80 is 0 unless at least ten samples lie beyond it."""
    if not values:
        return 0.0, 0.0
    p50 = statistics.median(values)
    if len(values) * 0.2 < TAIL_SAMPLES:
        return p50, 0.0
    return p50, statistics.quantiles(values, n=10, method="inclusive")[7]


def _load_spans(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh]


def _sum(spans, name) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _report_meta(out: Path, key: str) -> float:
    path = out / "report.csv"
    if not path.exists():
        return 0.0
    for line in path.read_text().splitlines():
        if line.startswith(f"# {key}="):
            return float(line.split("=", 1)[1])
    return 0.0


def _wall_inflation(by_name: dict[str, list[dict]], runs: list[dict]) -> float:
    """Journaled solver walls over the CPU the solver phase used.

    The CPU is that of the traced ``run_campaign`` calls minus the
    instance parses they make before any solver starts, so only solver
    work is in the denominator.  Walls and CPU come from the same traced
    campaign.
    """
    campaigns = by_name.get("bench.run_campaign", [])
    ids = {s["id"] for s in campaigns}
    parse_cpu = sum(s["cpu"] for s in by_name.get("graph.parse", []) if s["parent"] in ids)
    solver_cpu = sum(s["cpu"] for s in campaigns) - parse_cpu
    return sum(float(r["wall_seconds"]) for r in runs) / solver_cpu


def per_layer(workload: Workload, campaigns: list[dict], traced: dict, spans_path: Path) -> dict:
    spans = _load_spans(spans_path)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    m: dict[str, float] = {}

    # graph
    parses = by_name.get("graph.parse", [])
    parse_s = _sum(spans, "graph.parse")
    m["graph.parse_s"] = parse_s
    m["graph.parse_calls"] = len(parses)
    m["graph.parse_edges_per_s"] = sum(s.get("edges", 0) for s in parses) / parse_s
    m["graph.graph_mb"] = traced["graph_mb"]

    # features
    computed = by_name.get("features.compute", [])
    m["features.compute_s"] = _sum(spans, "features.compute")
    for group in FEATURE_GROUPS:
        m[f"features.group.{group}_s"] = sum(s.get("timings", {}).get(group, 0.0) for s in computed)
    for tier in ("dense", "long"):
        m[f"features.{tier}_s"] = sum(
            s["end"] - s["start"] for s in computed if s.get("tier") == tier
        )
    errors = [s["error"] for s in computed if "error" in s]
    m["features.failed"] = len(errors)
    for cls in FAILURE_CLASSES:
        m[f"features.failed.{cls}"] = errors.count(cls)
    m["features.failed.other"] = sum(1 for e in errors if e not in FAILURE_CLASSES)
    p50, p80 = latency([s["end"] - s["start"] for s in computed])
    m["features.instance_p50_s"], m["features.instance_p80_s"] = p50, p80
    m["features.instances"] = len(computed)

    # solvers: walls and proofs from the journals, budget flags from spans
    journals = [read_runs(c["out"]) for c in campaigns if "bench" in c["walls"]]
    for sid in SOLVER_IDS:
        walls = [[float(r["wall_seconds"]) for r in runs if r["solver_id"] == sid] for runs in journals]
        m[f"solvers.{sid}.solve_s"] = median(sum(w) for w in walls)
        m[f"solvers.{sid}.proven"] = median(
            sum(1 for r in runs if r["solver_id"] == sid and r["proven_optimal"] == "true")
            for runs in journals
        )
        m[f"solvers.{sid}.budget_exhausted"] = sum(
            1 for s in by_name.get(f"solvers.{sid}", []) if s.get("budget_exhausted")
        )
        runs = walls[0] if walls else []
        m[f"solvers.{sid}.run_p50_s"], m[f"solvers.{sid}.run_p80_s"] = latency(runs)
        m[f"solvers.{sid}.runs"] = len(runs)

    # bench: executor overhead and CPU accounting
    stage_bench = by_name.get("stage.bench", [])
    if stage_bench:
        stage = stage_bench[0]
        solver_spans = [
            (s["start"], s["end"]) for s in spans if s["name"].startswith("solvers.")
        ]
        m["bench.overhead_s"] = stage["end"] - stage["start"] - covered(solver_spans)
        m["bench.busy_frac"] = median(
            c["cpu"]["bench"] / (workload.jobs * c["walls"]["bench"])
            for c in campaigns
            if "bench" in c["walls"]
        )
        m["bench.wall_inflation"] = _wall_inflation(by_name, read_runs(traced["out"]))
    else:
        m["bench.overhead_s"] = m["bench.busy_frac"] = m["bench.wall_inflation"] = 0.0

    # isa, selector, report
    m["isa.fit_s"] = _sum(spans, "isa.fit")
    m["isa.project_s"] = _sum(spans, "isa.project")
    m["isa.footprint_s"] = _sum(spans, "isa.footprint")
    m["selector.train_s"] = _sum(spans, "selector.train")
    m["selector.svm_fits"] = len(by_name.get("selector.svm_fit", []))
    m["selector.svm_fit_s"] = _sum(spans, "selector.svm_fit")
    m["selector.kernel_entries"] = traced["counters"].get("selector.kernel_entries", 0)
    m["selector.top1_in_sample"] = median(_report_meta(c["out"], "top1_accuracy") for c in campaigns)
    m["report.render_s"] = _sum(spans, "report.render")

    # pipeline: stage time outside every layer span, and the cached re-run
    stage_spans = [s for s in spans if s["name"].startswith("stage.")]
    m["pipeline.self_s"] = sum(self_time(s, spans) for s in stage_spans)
    m["pipeline.rerun_s"] = traced["rerun_s"]

    # stage walls and ratios the untraced campaigns saw
    for stage in ("ingest", "features", "bench", "train"):
        m[f"{stage}_s"] = median(c["walls"].get(stage, 0.0) for c in campaigns)
    m["proven_frac"] = median(
        c["proven_runs"] / c["solver_runs"] if c["solver_runs"] else 0.0 for c in campaigns
    )
    m["failed_frac"] = median(c["ops_failed"] / c["ops_attempted"] for c in campaigns)

    untraced_run_s = median(sum(c["walls"].values()) for c in campaigns)
    m["trace.overhead_frac"] = sum(traced["walls"].values()) / untraced_run_s - 1.0
    return m
