"""Config-driven pipeline: stage orchestration, artifacts, and caching.

A campaign is described by an INI config (corpus globs, portfolio,
budgets, thresholds, output directory, seed).  Each stage reads its
predecessors' artifacts from the output directory and writes its own.
The stage table (``_STAGES``) is the one list of the files and config
fields each stage reads; the files are the corpus for ``ingest`` and
artifacts for the others.  The selector stages (``train``, ``report``)
read one input space, the (z1, z2) coordinates in ``projections.csv``.
Every artifact embeds the tool version, a hash of the whole semantic
config (provenance only) and an inputs hash of the stage's own fields
and files (see ``artifacts``).  A stage whose outputs carry the current
tool and inputs hash is skipped, so a config edit re-runs the stages
that read the key, and, as each re-run writes a new inputs hash into
its outputs, the stages that read those; the benchmarking stage also
resumes from its journal.
"""

from __future__ import annotations

import glob
import hashlib
import importlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .artifacts import read_artifact_meta, read_model, read_table, write_table
from .errors import (
    CampaignFailureError,
    CliquespaceError,
    ConfigError,
    ModelFormatError,
    PipelineError,
)
from .graph import Budget, parse_path
from .solvers import BUILTIN_SOLVER_IDS, make_builtin
from .solvers.external import check_template, run_external

if TYPE_CHECKING:
    import numpy as np

    from .bench import PerformanceMatrix

# The stage code, and numpy with it, loads on first use, so that
# ``load_config``, ``cliquespace solve`` and ``--help`` start without it.
# Each name still becomes a module global looked up at call time, so a
# wrapper installed on this module (perfbench/spans.py times the layers
# this way) takes effect, whether it was set before or after the load.
_DEFERRED = {
    ".bench": ("PerformanceMatrix", "map_jobs", "read_journal", "run_campaign"),
    ".features": ("FEATURE_NAMES", "compute_features", "read_features_csv", "write_features_csv"),
    ".isa": (
        "apply_normalization",
        "cloister_boundary",
        "fit_normalization",
        "fit_projection",
        "footprint",
        "polygon_area",
        "project_many",
        "read_projection_model",
        "sifted_select",
        "write_projection_model",
    ),
    ".selector": ("evaluate_topk", "read_selector_model", "train", "write_selector_model"),
}


def _load_stages() -> None:
    """Import the stage modules and bind their names here, keeping any
    name already bound (a wrapper installed before the first load)."""
    for module, names in _DEFERRED.items():
        loaded = importlib.import_module(module, __package__)
        for name in names:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    if any(name in names for names in _DEFERRED.values()):
        _load_stages()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


TOOL_VERSION = f"cliquespace/{__version__}"

# each table's columns and their types; corpus.csv's path is where ingest found the file
_MANIFEST_COLUMNS = {
    "instance_id": str, "path": str, "format": str, "nodes": int, "edges": int,
    "connected": bool, "usable": bool, "note": str,
}
_SIFTED_COLUMNS = {
    "feature": str, "max_abs_correlation": float, "kept_stage1": bool, "selected": bool
}
_PROJECTION_COLUMNS = {"instance_id": str, "z1": float, "z2": float, "best_solver": str}
_FOOTPRINT_COLUMNS = {
    "solver_id": str, "good_count": int, "best_count": int,
    "area": float, "density": float, "purity": float,
}
# a failed run is journaled, so a re-run with the same portfolio and budget keeps it
_ALL_RUNS_FAILED = (
    "every solver run failed; check budgets and solver commands, "
    "then delete runs.csv to run them again"
)


def require_budget(key: str, value: float) -> None:
    """Raise ConfigError naming ``key`` unless ``value`` makes a
    :class:`~cliquespace.graph.Budget`; a ``nan`` one would never expire."""
    try:
        Budget(value)
    except ValueError:
        raise ConfigError(f"{key}: must be positive and finite") from None


def resolve_solver(solver_id: str, spec: str, seed: int):
    """The (graph, budget_seconds) -> SolveResult callable of one portfolio
    entry, whose ``spec`` is ``builtin`` or ``external <command template>``.

    Raises ValueError for any other spec, an unknown builtin id or a
    template without ``{instance}``.
    """
    if spec == "builtin":
        if solver_id not in BUILTIN_SOLVER_IDS:
            raise ValueError(f"not a builtin (choose from {', '.join(BUILTIN_SOLVER_IDS)})")
        # a module global looked up per call, so a wrapper installed on this
        # module (perfbench/spans.py times each builtin run) takes effect
        return make_builtin(solver_id, seed=seed)
    if spec.startswith("external "):
        template = check_template(spec[len("external ") :].strip())
        return lambda g, budget: run_external(template, g, budget, solver_id=solver_id)
    raise ValueError("value must be 'builtin' or 'external <command>'")


@dataclass(frozen=True)
class PipelineConfig:
    corpus: tuple[str, ...] = ()  # path globs, resolved against base_dir
    portfolio: tuple[tuple[str, str], ...] = ()  # (solver_id, spec), see resolve_solver
    solver_budget: float = 1800.0
    feature_budget: float = 120.0
    correlation_threshold: float = 0.8
    good_tolerance: float = 0.05
    seed: int = 0
    output_dir: Path = Path("out")
    base_dir: Path = Path(".")
    jobs: int = 1

    def validate(self) -> None:
        if not self.corpus:
            raise ConfigError("corpus.paths: at least one glob is required")
        if not self.portfolio:
            raise ConfigError("portfolio: at least one solver is required")
        seen = set()
        for solver_id, spec in self.portfolio:
            if solver_id in seen:
                raise ConfigError(f"portfolio.{solver_id}: duplicate solver id")
            seen.add(solver_id)
            try:
                resolve_solver(solver_id, spec, self.seed)
            except ValueError as exc:
                raise ConfigError(f"portfolio.{solver_id}: {exc}") from None
        require_budget("run.solver_budget", self.solver_budget)
        require_budget("run.feature_budget", self.feature_budget)
        if not 0.0 <= self.correlation_threshold < 1.0:
            raise ConfigError("thresholds.correlation: must lie in [0, 1)")
        if not 0.0 <= self.good_tolerance < math.inf:
            raise ConfigError("thresholds.good_tolerance: must be non-negative and finite")
        if self.jobs < 1:
            raise ConfigError("run.jobs: must be at least 1")

    def artifact(self, name: str) -> Path:
        return self.output_dir / name


# every INI key outside [portfolio]: section.key -> (PipelineConfig field, reader)
_KEYS = {
    "corpus.paths": ("corpus", lambda raw: tuple(raw.split())),
    "run.solver_budget": ("solver_budget", float),
    "run.feature_budget": ("feature_budget", float),
    "run.seed": ("seed", int),
    "run.output_dir": ("output_dir", Path),
    "run.jobs": ("jobs", int),
    "thresholds.correlation": ("correlation_threshold", float),
    "thresholds.good_tolerance": ("good_tolerance", float),
}


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate an INI campaign config.  A key that is neither a
    ``[portfolio]`` entry nor in ``_KEYS`` raises ConfigError naming it."""
    import configparser

    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    cfg = configparser.ConfigParser()
    cfg.optionxform = str  # solver ids are case-sensitive
    try:
        cfg.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    fields = {}
    # [DEFAULT] first: its keys would otherwise join every section, the portfolio too
    for section in (cfg.default_section, *cfg.sections()):
        if section == "portfolio":
            fields["portfolio"] = tuple(cfg.items(section))
            continue
        for key, raw in cfg.items(section):
            name = f"{section}.{key}"
            if name not in _KEYS:
                raise ConfigError(f"{name}: unknown key")
            field, read = _KEYS[name]
            try:
                fields[field] = read(raw)
            except ValueError:
                kind = "an integer" if read is int else "a number"
                raise ConfigError(f"{name}: {raw!r} is not {kind}") from None
    config = PipelineConfig(base_dir=path.parent, **fields)
    if not config.output_dir.is_absolute():
        config = replace(config, output_dir=path.parent / config.output_dir)
    config.validate()
    return config


# ------------------------------------------------------------ hash plumbing


def _digest(config: PipelineConfig, fields, paths=()) -> str:
    """Hash of the ``fields`` of ``config``, then of each file's name and bytes."""
    h = hashlib.sha256()
    for name in fields:
        h.update(f"{name}={getattr(config, name)!r}\n".encode())
    for p in sorted(paths, key=lambda p: p.name):
        h.update(p.name.encode())
        h.update(b"\0")
        with p.open("rb") as f:  # a block at a time: corpus files can be large
            while block := f.read(1 << 16):
                h.update(block)
    return h.hexdigest()[:12]


def config_hash(config: PipelineConfig) -> str:
    """Hash of every field some stage reads.  The output and base directories
    and the job count are not among them: moving the artifacts or changing
    --jobs must not invalidate completed work."""
    return _digest(config, dict.fromkeys(f for s in _STAGES.values() for f in s.fields))


# -------------------------------------------------------------- corpus I/O


def resolve_corpus(config: PipelineConfig) -> list[Path]:
    matches: set[Path] = set()
    for pattern in config.corpus:
        if not Path(pattern).is_absolute():
            pattern = str(config.base_dir / pattern)
        matches.update(
            Path(m) for m in glob.glob(pattern, recursive=True) if Path(m).is_file()
        )
    return sorted(matches)


def read_manifest(path: Path) -> tuple[list[dict], dict]:
    meta, rows = read_table(
        path, _MANIFEST_COLUMNS, PipelineError, lambda values: dict(zip(_MANIFEST_COLUMNS, values))
    )
    return rows, meta


def _usable_instances(config: PipelineConfig) -> list[tuple[str, Path]]:
    """Each usable instance and its file, found by stem through the corpus
    globs where a moved campaign now is, else where ingest found it."""
    files = {p.stem: p for p in resolve_corpus(config)}
    usable = [r for r in read_manifest(config.artifact("corpus.csv"))[0] if r["usable"]]
    return [(r["instance_id"], files.get(r["instance_id"], Path(r["path"]))) for r in usable]


def read_projections(path: Path) -> tuple[list[str], np.ndarray, list[str], dict]:
    """Returns (instance ids, N x 2 coordinates, best solver ids, meta)."""
    import numpy as np

    meta, rows = read_table(path, _PROJECTION_COLUMNS, PipelineError, list)
    ids = [row[0] for row in rows]
    coords = np.array([row[1:3] for row in rows]).reshape(len(ids), 2)
    return ids, coords, [row[3] for row in rows], meta


# ------------------------------------------------------- instance alignment


def _positions(ids, wanted, source: str) -> list[int]:
    """The position in ``ids`` of each item of ``wanted``, in that order."""
    position = {iid: i for i, iid in enumerate(ids)}
    missing = [iid for iid in wanted if iid not in position]
    if missing:
        raise PipelineError(f"{source} has no entry for {missing[:3]}")
    return [position[iid] for iid in wanted]


def _performance(config: PipelineConfig) -> PerformanceMatrix:
    records, _ = read_journal(config.artifact("runs.csv"))
    return PerformanceMatrix.from_records(records, config.good_tolerance)


def _aligned(matrix: PerformanceMatrix, ids: list[str]) -> PerformanceMatrix:
    """``matrix`` restricted to ``ids``, its rows in their order."""
    rows = _positions(matrix.instance_ids, ids, "runs.csv")
    return replace(matrix, instance_ids=tuple(ids), y=matrix.y[rows])


def _features_with_runs(
    config: PipelineConfig, log, stage: str
) -> tuple[list[str], np.ndarray, PerformanceMatrix]:
    """The instances with features and a best solver, sorted, with their
    feature rows and their performance rows in that order.  An instance
    where every run failed has no best solver, so it is left out; a
    journal where every run failed raises CampaignFailureError."""
    ids, X, _ = read_features_csv(config.artifact("features.csv"))
    matrix = _performance(config)
    scored = {
        iid for iid, best in zip(matrix.instance_ids, matrix.best_solver) if best is not None
    }
    if not scored:
        raise CampaignFailureError(_ALL_RUNS_FAILED)
    both = set(ids) & set(matrix.instance_ids)
    common = sorted(both & scored)
    if len(common) < len(both):
        log(f"{stage}: left out {len(both) - len(common)} instance(s) where every run failed")
    return common, X[_positions(ids, common, "features.csv")], _aligned(matrix, common)


# ------------------------------------------------------------------ stages


def _stage_ingest(config: PipelineConfig, meta: dict, log) -> None:
    files = resolve_corpus(config)
    if not files:
        raise PipelineError(
            "corpus is empty: no files match " + ", ".join(config.corpus)
        )
    seen: dict[str, Path] = {}
    rows: list[dict] = []
    usable = 0
    for p in files:
        if p.stem in seen:
            raise PipelineError(
                f"duplicate instance id {p.stem!r}: {seen[p.stem]} and {p}"
            )
        seen[p.stem] = p
        row = {
            "instance_id": p.stem,
            "path": str(p.resolve()),
            "format": "",
            "nodes": 0,
            "edges": 0,
            "connected": False,
            "usable": False,
            "note": "",
        }
        try:
            report = parse_path(p)
        except CliquespaceError as exc:
            row["note"] = str(exc)
            rows.append(row)
            log(f"ingest: skipping {p.name}: {exc}")
            continue
        for warning in report.warnings:
            log(f"ingest: {p.name}: {warning}")
        g = report.graph
        row.update(
            format=report.format.name.lower(),
            nodes=g.node_count,
            edges=g.edge_count,
            connected=report.connected,
        )
        if g.node_count < 2:
            row["note"] = "fewer than 2 nodes"
        elif not report.connected:
            row["note"] = "disconnected"
        else:
            row["usable"] = True
            usable += 1
        rows.append(row)
    if not usable:
        raise PipelineError("no usable instance in the corpus (connected, >= 2 nodes)")
    write_table(
        config.artifact("corpus.csv"),
        _MANIFEST_COLUMNS,
        ([row[c] for c in _MANIFEST_COLUMNS] for row in rows),
        meta,
    )
    log(f"ingest: {usable}/{len(rows)} usable instances")


def _stage_features(config: PipelineConfig, meta: dict, log) -> None:
    instances = _usable_instances(config)

    def one(item):
        instance_id, path = item
        try:
            return instance_id, compute_features(
                parse_path(path).graph, timeout=config.feature_budget
            )
        except CliquespaceError as exc:
            log(f"features: skipping {instance_id}: {exc}")
            return instance_id, None

    computed = map_jobs(one, instances, config.jobs)
    rows = [(iid, fv) for iid, fv in computed if fv is not None]
    if not rows:
        raise PipelineError("feature extraction produced no usable instance")
    write_features_csv(config.artifact("features.csv"), rows, meta)
    log(f"features: {len(rows)}/{len(instances)} instances")


def _stage_bench(config: PipelineConfig, meta: dict, log) -> None:
    instances = _usable_instances(config)
    journal = config.artifact("runs.csv")
    if journal.exists() and not _fresh(read_artifact_meta(journal), meta):
        log("bench: configuration changed; discarding stale journal")
        journal.unlink()
    matrix, records = run_campaign(
        corpus=instances,
        portfolio=[
            (sid, resolve_solver(sid, spec, config.seed)) for sid, spec in config.portfolio
        ],
        budget=config.solver_budget,
        parallelism=config.jobs,
        journal=journal,
        meta=meta,
        log=log,
    )
    if all(r.status == "failed" for r in records):
        raise CampaignFailureError(_ALL_RUNS_FAILED)
    log(f"bench: {len(records)} runs over {len(matrix.instance_ids)} instances")


def _bench_complete(config: PipelineConfig) -> bool:
    """Every usable instance has a journaled run of every solver."""
    records, _ = read_journal(config.artifact("runs.csv"))
    rows, _ = read_manifest(config.artifact("corpus.csv"))
    want = {(r["instance_id"], sid) for r in rows if r["usable"] for sid, _ in config.portfolio}
    return want <= {(r.instance_id, r.solver_id) for r in records}


def _stage_isa_fit(config: PipelineConfig, meta: dict, log) -> None:
    common, Xa, matrix = _features_with_runs(config, log, "isa-fit")
    if len(common) < 3:
        raise PipelineError(
            "projection needs at least 3 instances with features and a successful run"
        )

    params = fit_normalization(Xa, FEATURE_NAMES)
    Xn = apply_normalization(params, Xa, FEATURE_NAMES)
    sift = sifted_select(
        Xn, params.feature_names, matrix.y, threshold=config.correlation_threshold
    )
    selected = sift.selected
    fell_back = len(selected) < 2
    if fell_back:
        # under 2 features survived stage 1, so project from every feature
        log(
            f"isa-fit: selection kept {len(selected)} feature(s); "
            f"falling back to {len(params.feature_names)}"
        )
        selected = params.feature_names
    columns = _positions(params.feature_names, selected, "normalization")
    model = fit_projection(Xn[:, columns], selected, params)

    sift_meta = dict(
        meta,
        threshold=config.correlation_threshold,
        k=sift.k,
        silhouette=sift.silhouette,
        diagnostic=sift.diagnostic or "none",
        fallback=fell_back,
    )
    write_table(
        config.artifact("sifted.csv"),
        _SIFTED_COLUMNS,
        [
            (name, sift.correlations[name], name in sift.kept_stage1, name in selected)
            for name in params.feature_names
        ],
        sift_meta,
    )
    write_projection_model(model, config.artifact("projection.isa"), meta)
    log(f"isa-fit: projecting from {len(selected)} features: {', '.join(selected)}")


def _stage_isa_project(config: PipelineConfig, meta: dict, log) -> None:
    common, Xa, matrix = _features_with_runs(config, log, "isa-project")
    if not common:
        raise PipelineError("no instance has features and a successful run")
    model = read_projection_model(config.artifact("projection.isa"))
    Z = project_many(model, Xa, FEATURE_NAMES)
    write_table(
        config.artifact("projections.csv"),
        _PROJECTION_COLUMNS,
        [(iid, *Z[i], matrix.best_solver[i]) for i, iid in enumerate(common)],
        meta,
    )
    log(f"isa-project: {len(common)} instances mapped to the plane")


def _stage_isa_footprint(config: PipelineConfig, meta: dict, log) -> None:
    ids, Z, _, _ = read_projections(config.artifact("projections.csv"))
    matrix = _aligned(_performance(config), ids)
    boundary = cloister_boundary(Z)
    rows = []
    for j, solver_id in enumerate(matrix.solver_ids):
        fp = footprint(solver_id, Z, matrix.good[:, j])
        good, best = int(matrix.good[:, j].sum()), matrix.best_solver.count(solver_id)
        rows.append((solver_id, good, best, fp.area, fp.density, fp.purity))
    write_table(
        config.artifact("footprints.csv"),
        _FOOTPRINT_COLUMNS,
        rows,
        dict(meta, boundary_area=polygon_area(boundary)),
    )
    log(f"isa-footprint: {len(rows)} solver footprints")


def _stage_train(config: PipelineConfig, meta: dict, log) -> None:
    ids, Z, _, _ = read_projections(config.artifact("projections.csv"))
    matrix = _aligned(_performance(config), ids)
    model = train(Z, matrix.good, matrix.solver_ids, ("z1", "z2"), seed=config.seed)
    write_selector_model(model, config.artifact("selector.isa"), meta)
    priors = sum(1 for c in model.classifiers.values() if not hasattr(c, "gamma"))
    unconverged = model.unconverged_fits
    log(
        f"train: {len(model.solver_ids)} classifiers over {len(ids)} instances"
        + (f" ({priors} degenerate, using priors)" if priors else "")
        + (f"; {unconverged} SVM fit(s) stopped at the step limit" if unconverged else "")
    )


def _stage_report(config: PipelineConfig, meta: dict, log) -> None:
    from .report import render_scatter

    ids, Z, best, _ = read_projections(config.artifact("projections.csv"))
    footprints = config.artifact("footprints.csv")
    _, rows = read_table(footprints, _FOOTPRINT_COLUMNS, PipelineError, list)
    boundary = cloister_boundary(Z)
    model = read_selector_model(config.artifact("selector.isa"))
    k = min(2, len(model.solver_ids))
    evaluation = evaluate_topk(model, Z, best, k=k, instance_ids=ids)
    counts = {b: best.count(b) for b in set(best)}
    majority = max(counts.values()) / len(best)

    report_meta = dict(
        meta,
        instances=len(ids),
        boundary_area=polygon_area(boundary),
        top1_accuracy=evaluation.accuracies[1],
        topk_accuracy=evaluation.accuracies[k],
        majority_baseline=majority,
    )
    write_table(config.artifact("report.csv"), _FOOTPRINT_COLUMNS, rows, report_meta)
    render_scatter(Z, best, boundary, config.artifact("scatter.svg"), meta=meta)
    log(
        f"report: top-1 accuracy {evaluation.accuracies[1]:.3f}, "
        f"majority baseline {majority:.3f}"
    )


# ------------------------------------------------------------ orchestration


@dataclass(frozen=True)
class _Stage:
    name: str
    run: object  # callable(config, meta, log)
    inputs: object  # callable(config) -> paths of every file the stage reads
    outputs: tuple[str, ...]  # artifact names the stage writes
    fields: tuple[str, ...] = ()  # the PipelineConfig fields the stage reads
    complete: object = None  # callable(config), false when the output bodies are unusable


def _reads(*names: str):
    return lambda config: [config.artifact(n) for n in names]


_STAGES = {
    s.name: s
    for s in (
        _Stage("ingest", _stage_ingest, resolve_corpus, ("corpus.csv",), ("corpus",)),
        _Stage(
            "features",
            _stage_features,
            _reads("corpus.csv"),
            ("features.csv",),
            ("feature_budget",),
        ),
        _Stage(
            "bench",
            _stage_bench,
            _reads("corpus.csv"),
            ("runs.csv",),
            ("portfolio", "solver_budget", "seed"),
            _bench_complete,
        ),
        _Stage(
            "isa-fit",
            _stage_isa_fit,
            _reads("features.csv", "runs.csv"),
            ("sifted.csv", "projection.isa"),
            ("correlation_threshold",),
            lambda config: read_model(config.artifact("projection.isa"), "projection"),
        ),
        # no fields: best_solver is an argmin of the scores, whatever the tolerance
        _Stage(
            "isa-project",
            _stage_isa_project,
            _reads("features.csv", "runs.csv", "projection.isa"),
            ("projections.csv",),
        ),
        _Stage(
            "isa-footprint",
            _stage_isa_footprint,
            _reads("projections.csv", "runs.csv"),
            ("footprints.csv",),
            ("good_tolerance",),
        ),
        _Stage(
            "train",
            _stage_train,
            _reads("projections.csv", "runs.csv"),
            ("selector.isa",),
            ("good_tolerance", "seed"),
            lambda config: read_model(config.artifact("selector.isa"), "selector"),
        ),
        _Stage(
            "report",
            _stage_report,
            _reads("projections.csv", "footprints.csv", "selector.isa"),
            ("report.csv", "scatter.svg"),
        ),
    )
}
STAGE_ORDER = tuple(_STAGES)
_PRODUCER = {out: s.name for s in _STAGES.values() for out in s.outputs}


def _stage_meta(config: PipelineConfig, stage: _Stage) -> dict[str, str]:
    inputs = _digest(config, stage.fields, stage.inputs(config))
    return {"tool": TOOL_VERSION, "config": config_hash(config), "inputs": inputs}


def _fresh(got: dict, want: dict) -> bool:
    """The header test: same tool and inputs hash; ``config`` is provenance only."""
    return got.get("tool") == want["tool"] and got.get("inputs") == want["inputs"]


def _fault(config: PipelineConfig, stage: _Stage, meta: dict, before: str) -> str | None:
    """None when the outputs of ``stage`` are current; else why not, as the
    message that stops stage ``before`` from running after it."""
    outs = [config.artifact(name) for name in stage.outputs]
    missing = [out.name for out in outs if not out.exists()]
    if missing:
        return (
            f"stage '{before}' requires {missing[0]}, produced by stage '{stage.name}'; "
            "run it first"
        )
    if not all(_fresh(read_artifact_meta(out), meta) for out in outs):
        return (
            f"mixed config hashes: the outputs of stage '{stage.name}' do not match the "
            f"current config and inputs; re-run it before '{before}'"
        )
    try:
        if stage.complete is None or stage.complete(config):
            return None
    except ModelFormatError:  # such as a model file from before version 2
        pass
    return (
        f"stage '{stage.name}' did not finish: its outputs are incomplete or do not "
        f"read back; re-run it before '{before}'"
    )


def _upstream(config: PipelineConfig, name: str) -> list[str]:
    """The stages whose outputs ``name`` reads, directly or through others."""
    before = STAGE_ORDER[: STAGE_ORDER.index(name)]
    needed = {name}
    for stage in reversed(before + (name,)):
        if stage in needed:
            needed.update(_PRODUCER.get(p.name) for p in _STAGES[stage].inputs(config))
    return [s for s in before if s in needed]


def run_pipeline(
    config: PipelineConfig, stages=None, log=None
) -> list[tuple[str, str]]:
    """Run the requested stages in canonical order; returns (stage, status).

    A stage re-runs ("ran") when an output's ``tool`` or ``inputs`` hash
    differs from the current one, or when its body check fails (a ``bench``
    journal that lacks a run, a model file that does not read back);
    otherwise it is "skipped".  The ``inputs`` hash covers the bytes of
    every file the stage reads, so an upstream re-run that changes an
    artifact makes the stages reading it stale.  Raises
    :class:`PipelineError` naming any stage upstream of a requested one
    that is not current.
    """
    config.validate()
    _load_stages()
    emit = log or (lambda msg: None)
    if stages is None:
        requested = list(STAGE_ORDER)
    else:
        unknown = [s for s in stages if s not in _STAGES]
        if unknown:
            raise ConfigError(
                f"unknown stage {unknown[0]!r} (choose from {', '.join(STAGE_ORDER)})"
            )
        requested = [s for s in STAGE_ORDER if s in set(stages)]
    config.output_dir.mkdir(parents=True, exist_ok=True)

    statuses: dict[str, str] = {}
    for name in requested:
        # a stage this call ran or skipped is current and needs no second check
        for up in (_STAGES[s] for s in _upstream(config, name) if s not in statuses):
            fault = _fault(config, up, _stage_meta(config, up), name)
            if fault:
                raise PipelineError(fault)
        stage = _STAGES[name]
        meta = _stage_meta(config, stage)
        if not _fault(config, stage, meta, name):
            emit(f"{name}: up to date, skipped")
            statuses[name] = "skipped"
            continue
        stage.run(config, meta, emit)
        statuses[name] = "ran"
    return list(statuses.items())
