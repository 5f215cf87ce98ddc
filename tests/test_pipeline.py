"""Config parsing, stage orchestration, artifact caching, and the CLI."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cliquespace import features, pipeline
from cliquespace.artifacts import read_model, read_table, write_table
from cliquespace.bench import read_journal, write_journal
from cliquespace.cli import main
from cliquespace.errors import CampaignFailureError, ConfigError, PipelineError
from cliquespace.features import FEATURE_NAMES, read_features_csv
from cliquespace.graph import GraphFormat, generate, serialize
from cliquespace.selector import PriorClassifier, read_selector_model, svm
from cliquespace.pipeline import (
    STAGE_ORDER,
    PipelineConfig,
    config_hash,
    load_config,
    read_artifact_meta,
    read_manifest,
    read_projections,
    run_pipeline,
)

from oracles import connected_gnp


def write_corpus(directory: Path) -> int:
    """A small, varied, connected corpus: cliques, cycles, random graphs."""
    directory.mkdir(parents=True, exist_ok=True)
    graphs = [
        generate("complete", 8),
        generate("complete", 12),
        generate("complete", 16),
        generate("cycle", 15),
        generate("cycle", 20),
    ]
    for i, (n, p) in enumerate(
        [
            (14, 0.35),
            (16, 0.45),
            (18, 0.5),
            (20, 0.55),
            (22, 0.6),
            (24, 0.65),
            (15, 0.5),
            (17, 0.4),
            (19, 0.6),
        ]
    ):
        graphs.append(connected_gnp(n, p, seed=100 + i))
    for i, g in enumerate(graphs):
        path = directory / f"inst{i:02d}.clq"
        path.write_text(serialize(g, GraphFormat.DIMACS_CLQ))
    return len(graphs)


def write_config(
    tmp_path: Path,
    corpus_glob: str = "corpus/*.clq",
    solvers=("exact", "greedy"),
    budget: float = 3.0,
    extra: str = "",
) -> Path:
    portfolio = "\n".join(f"{sid} = builtin" for sid in solvers)
    path = tmp_path / "campaign.ini"
    path.write_text(
        f"""
[corpus]
paths = {corpus_glob}

[portfolio]
{portfolio}

[run]
solver_budget = {budget}
feature_budget = 60
seed = 0
output_dir = out
{extra}
"""
    )
    return path


@pytest.fixture(scope="module")
def completed_pipeline(tmp_path_factory):
    """One full pipeline run shared by the read-only assertions."""
    tmp_path = tmp_path_factory.mktemp("campaign")
    count = write_corpus(tmp_path / "corpus")
    config = load_config(write_config(tmp_path))
    statuses = run_pipeline(config)
    return tmp_path, config, statuses, count


# ------------------------------------------------------------------ config


def test_load_config_fields(tmp_path):
    (tmp_path / "corpus").mkdir()
    config = load_config(write_config(tmp_path))
    assert config.corpus == ("corpus/*.clq",)
    assert config.portfolio == (("exact", "builtin"), ("greedy", "builtin"))
    assert config.solver_budget == 3.0
    assert config.feature_budget == 60.0
    assert config.correlation_threshold == 0.8  # default
    assert config.good_tolerance == 0.05  # default
    assert config.seed == 0
    assert config.output_dir == tmp_path / "out"
    assert config.base_dir == tmp_path


def test_load_config_reads_jobs(tmp_path):
    assert load_config(write_config(tmp_path)).jobs == 1  # default
    assert load_config(write_config(tmp_path, extra="jobs = 2")).jobs == 2


def test_load_config_rejects_non_integer_jobs(tmp_path):
    with pytest.raises(ConfigError, match="run.jobs"):
        load_config(write_config(tmp_path, extra="jobs = two"))


@pytest.mark.parametrize(
    "text, key",
    [
        ("[run]\nsolver_budgte = 5\n", "run.solver_budgte"),  # would keep 1800 s
        ("[isa]\nprojection = pilot\n", "isa.projection"),
        ("[DEFAULT]\nwarp = builtin\n", "DEFAULT.warp"),  # would join the portfolio
        ("[selector]\ninput = z\n", "selector.input"),  # the selector reads (z1, z2) only
    ],
    ids=["misspelled", "unknown-section", "default-section", "removed-selector-input"],
)
def test_config_rejects_unknown_keys(tmp_path, text, key):
    bad = tmp_path / "bad.ini"
    bad.write_text("[corpus]\npaths = x/*.clq\n[portfolio]\nexact = builtin\n" + text)
    with pytest.raises(ConfigError, match=f"{key}.*unknown key"):
        load_config(bad)


def test_config_missing_file():
    with pytest.raises(ConfigError, match="does not exist"):
        load_config("/nonexistent/campaign.ini")


def test_config_validation_names_the_field(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[corpus]\npaths = x/*.clq\n[portfolio]\nwarp = builtin\n")
    with pytest.raises(ConfigError, match="portfolio.warp"):
        load_config(bad)
    bad.write_text(
        "[corpus]\npaths = x/*.clq\n[portfolio]\nexact = builtin\n"
        "[run]\nsolver_budget = fast\n"
    )
    with pytest.raises(ConfigError, match="run.solver_budget"):
        load_config(bad)
    bad.write_text(
        "[corpus]\npaths = x/*.clq\n[portfolio]\nexact = builtin\n"
        "[run]\nsolver_budget = -1\n"
    )
    with pytest.raises(ConfigError, match="solver_budget"):
        load_config(bad)
    bad.write_text("[corpus]\npaths =\n[portfolio]\nexact = builtin\n")
    with pytest.raises(ConfigError, match="corpus.paths"):
        load_config(bad)
    bad.write_text(
        "[corpus]\npaths = x/*.clq\n[portfolio]\nmine = external run-it\n"
    )
    with pytest.raises(ConfigError, match="instance"):
        load_config(bad)
    bad.write_text(
        "[corpus]\npaths = x/*.clq\n[portfolio]\nexact = builtin\n"
        "[thresholds]\ncorrelation = 1.5\n"
    )
    with pytest.raises(ConfigError, match="thresholds.correlation"):
        load_config(bad)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("run", "solver_budget", "nan"),  # would switch off every solver deadline
        ("run", "feature_budget", "inf"),  # would switch off every feature deadline
        ("run", "solver_budget", "0"),
        ("run", "feature_budget", "-1"),
        ("thresholds", "good_tolerance", "nan"),  # would label no solver good
    ],
)
def test_config_rejects_non_finite_numbers(tmp_path, section, key, value):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        f"[corpus]\npaths = x/*.clq\n[portfolio]\nexact = builtin\n[{section}]\n{key} = {value}\n"
    )
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(bad)


def test_config_hash_ignores_output_and_jobs(tmp_path):
    config = load_config(write_config(tmp_path))
    assert config_hash(replace(config, output_dir=Path("/elsewhere"))) == config_hash(
        config
    )
    assert config_hash(replace(config, jobs=8)) == config_hash(config)
    assert config_hash(replace(config, solver_budget=9.0)) != config_hash(config)
    assert config_hash(replace(config, seed=1)) != config_hash(config)


# ---------------------------------------------------------------- pipeline


def test_full_pipeline_produces_all_artifacts(completed_pipeline):
    tmp_path, config, statuses, count = completed_pipeline
    assert statuses == [(name, "ran") for name in STAGE_ORDER]
    for name in (
        "corpus.csv",
        "features.csv",
        "runs.csv",
        "sifted.csv",
        "projection.isa",
        "projections.csv",
        "footprints.csv",
        "selector.isa",
        "report.csv",
        "scatter.svg",
    ):
        assert config.artifact(name).exists(), name

    ids, X, meta = read_features_csv(config.artifact("features.csv"))
    assert len(ids) == count
    assert X.shape == (count, 35)
    assert meta["tool"].startswith("cliquespace/")
    assert meta["config"] == config_hash(config)

    records, _ = read_journal(config.artifact("runs.csv"))
    assert len(records) == count * 2
    assert all(r.status == "ok" for r in records)


def test_every_artifact_embeds_tool_and_config_hash(completed_pipeline):
    _, config, _, _ = completed_pipeline
    want = config_hash(config)
    for name in (
        "corpus.csv",
        "features.csv",
        "runs.csv",
        "sifted.csv",
        "projection.isa",
        "projections.csv",
        "footprints.csv",
        "selector.isa",
        "report.csv",
        "scatter.svg",
    ):
        meta = read_artifact_meta(config.artifact(name))
        assert meta.get("config") == want, name
        assert meta.get("tool", "").startswith("cliquespace/"), name
        assert "inputs" in meta, name


def test_projections_cover_benchmarked_instances(completed_pipeline):
    _, config, _, count = completed_pipeline
    ids, coords, best, _ = read_projections(config.artifact("projections.csv"))
    assert len(ids) == count
    assert coords.shape == (count, 2)
    assert np.isfinite(coords).all()
    assert set(best) <= {"exact", "greedy"}


def test_report_summarizes_selector_and_footprints(completed_pipeline):
    _, config, _, _ = completed_pipeline
    meta = read_artifact_meta(config.artifact("report.csv"))
    top1 = float(meta["top1_accuracy"])
    majority = float(meta["majority_baseline"])
    assert 0.0 <= top1 <= 1.0
    assert 0.0 < majority <= 1.0
    assert float(meta["boundary_area"]) > 0.0
    svg = config.artifact("scatter.svg").read_text()
    assert "<svg" in svg and "<circle" in svg and "<polygon" in svg
    assert "best solver" in svg  # legend title


def _body(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_report_table_is_the_footprint_table(completed_pipeline):
    _, config, _, _ = completed_pipeline
    body = _body(config.artifact("footprints.csv"))
    assert len(body) == 3  # the header and one row per solver
    assert _body(config.artifact("report.csv")) == body


def test_report_requires_the_footprint_table(completed_pipeline, tmp_path, capsys):
    ini = _copy_campaign(completed_pipeline, tmp_path)
    (ini.parent / "out" / "footprints.csv").unlink()
    assert main(["run", "--config", str(ini), "--stages", "report"]) == 3
    err = capsys.readouterr().err
    assert "requires footprints.csv, produced by stage 'isa-footprint'" in err


def test_rerun_skips_everything_and_reexecutes_nothing(completed_pipeline):
    tmp_path, config, _, _ = completed_pipeline
    journal_before = config.artifact("runs.csv").read_bytes()
    statuses = run_pipeline(config)
    assert statuses == [(name, "skipped") for name in STAGE_ORDER]
    assert config.artifact("runs.csv").read_bytes() == journal_before


def test_stage_subset_runs_only_requested(tmp_path):
    write_corpus(tmp_path / "corpus")
    config = load_config(write_config(tmp_path))
    statuses = run_pipeline(config, ["ingest", "features"])
    assert statuses == [("ingest", "ran"), ("features", "ran")]
    assert config.artifact("features.csv").exists()
    assert not config.artifact("runs.csv").exists()


def test_missing_predecessor_names_the_producing_stage(tmp_path):
    write_corpus(tmp_path / "corpus")
    config = load_config(write_config(tmp_path))
    with pytest.raises(PipelineError, match="'ingest'"):
        run_pipeline(config, ["features"])
    run_pipeline(config, ["ingest", "features"])
    with pytest.raises(PipelineError, match="runs.csv.*'bench'"):
        run_pipeline(config, ["isa-fit"])


def test_unknown_stage_rejected(tmp_path):
    config = load_config(write_config(tmp_path))
    with pytest.raises(ConfigError, match="unknown stage"):
        run_pipeline(config, ["ingest", "deploy"])


def test_empty_corpus_is_a_data_error(tmp_path):
    (tmp_path / "corpus").mkdir()
    config = load_config(write_config(tmp_path))
    with pytest.raises(PipelineError, match="corpus is empty"):
        run_pipeline(config, ["ingest"])


def test_ingest_marks_unusable_instances(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "good.clq").write_text(
        serialize(generate("complete", 5), GraphFormat.DIMACS_CLQ)
    )
    (corpus / "split.clq").write_text("p edge 6 2\ne 1 2\ne 3 4\n")  # disconnected
    (corpus / "broken.clq").write_text("p edge nonsense\n")
    config = load_config(write_config(tmp_path))
    run_pipeline(config, ["ingest"])
    rows, _ = read_manifest(config.artifact("corpus.csv"))
    by_id = {r["instance_id"]: r for r in rows}
    assert by_id["good"]["usable"] is True
    assert by_id["split"]["usable"] is False and by_id["split"]["note"] == "disconnected"
    assert by_id["broken"]["usable"] is False and by_id["broken"]["note"]


def test_hash_stem_instance_survives_every_reader(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "#k6.clq").write_text(serialize(generate("complete", 6), GraphFormat.DIMACS_CLQ))
    (corpus / "c7.clq").write_text(serialize(generate("cycle", 7), GraphFormat.DIMACS_CLQ))
    (corpus / "g.clq").write_text(
        serialize(connected_gnp(12, 0.5, seed=7), GraphFormat.DIMACS_CLQ)
    )
    config = load_config(write_config(tmp_path))
    stages = ["ingest", "features", "bench"]
    assert run_pipeline(config, stages) == [(s, "ran") for s in stages]
    want = {"#k6", "c7", "g"}
    rows, _ = read_manifest(config.artifact("corpus.csv"))
    assert {r["instance_id"] for r in rows if r["usable"]} == want
    ids, _, _ = read_features_csv(config.artifact("features.csv"))
    assert set(ids) == want
    records, _ = read_journal(config.artifact("runs.csv"))
    assert {r.instance_id for r in records} == want
    assert run_pipeline(config, stages) == [(s, "skipped") for s in stages]


def test_moved_campaign_reads_its_corpus_where_it_now_is(tmp_path):
    # corpus.csv records where ingest found each file; the stages find it
    # through the corpus globs, which resolve against the moved config
    first = tmp_path / "first"
    count = write_corpus(first / "corpus")
    run_pipeline(load_config(write_config(first)), ["ingest"])
    moved = tmp_path / "moved"
    first.rename(moved)
    config = load_config(moved / "campaign.ini")
    stages = ["ingest", "features", "bench"]
    assert run_pipeline(config, stages) == [
        ("ingest", "skipped"), ("features", "ran"), ("bench", "ran"),
    ]
    ids, _, _ = read_features_csv(config.artifact("features.csv"))
    assert len(ids) == count
    records, _ = read_journal(config.artifact("runs.csv"))
    assert len(records) == 2 * count and all(r.status == "ok" for r in records)


def test_ingest_logs_parse_warnings(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "dup.clq").write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 2\n")
    config_path = write_config(tmp_path)
    assert main(["ingest", "--config", str(config_path)]) == 0
    assert "ingest: dup.clq: dropped 1 duplicate edge(s)" in capsys.readouterr().err
    rows, _ = read_manifest(load_config(config_path).artifact("corpus.csv"))
    assert rows[0]["note"] == "" and rows[0]["usable"] is True


def test_duplicate_instance_ids_rejected(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "a").mkdir(parents=True)
    (corpus / "b").mkdir()
    k5 = serialize(generate("complete", 5), GraphFormat.DIMACS_CLQ)
    (corpus / "a" / "same.clq").write_text(k5)
    (corpus / "b" / "same.clq").write_text(k5)
    config = load_config(write_config(tmp_path, corpus_glob="corpus/*/*.clq"))
    with pytest.raises(PipelineError, match="duplicate instance id"):
        run_pipeline(config, ["ingest"])


def test_config_change_discards_stale_journal(tmp_path):
    write_corpus(tmp_path / "corpus")
    config = load_config(write_config(tmp_path))
    run_pipeline(config, ["ingest", "features", "bench"])
    old_meta = read_artifact_meta(config.artifact("runs.csv"))

    changed = load_config(write_config(tmp_path, budget=4.0))
    run_pipeline(changed, ["ingest", "features", "bench"])
    new_meta = read_artifact_meta(config.artifact("runs.csv"))
    assert new_meta["config"] != old_meta["config"]
    records, _ = read_journal(config.artifact("runs.csv"))
    assert len(records) == 14 * 2  # a complete fresh campaign, no stale rows


def test_corpus_edit_invalidates_downstream_stages(tmp_path):
    count = write_corpus(tmp_path / "corpus")
    config = load_config(write_config(tmp_path))
    run_pipeline(config, ["ingest", "features"])
    extra = tmp_path / "corpus" / "late.clq"
    extra.write_text(serialize(generate("complete", 9), GraphFormat.DIMACS_CLQ))
    statuses = run_pipeline(config, ["ingest", "features"])
    assert statuses == [("ingest", "ran"), ("features", "ran")]
    ids, _, _ = read_features_csv(config.artifact("features.csv"))
    assert len(ids) == count + 1


def test_inputs_hash_reads_a_large_file_in_bounded_memory(tmp_path):
    write_corpus(tmp_path / "corpus")
    (tmp_path / "corpus" / "big.clq").write_bytes(b"c padding line\n" * 200_000)  # 3 MB
    config = load_config(write_config(tmp_path))
    tracemalloc.start()
    try:
        pipeline._stage_meta(config, pipeline._STAGES["ingest"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class _Killed(Exception):
    pass


def _rows_then_kill(rows, count):
    for i, row in enumerate(rows):
        if i == count:
            raise _Killed
        yield row


def test_interrupted_write_table_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, (("a", str),), [["1"], ["2"]], {"inputs": "old"})
    before = path.read_bytes()
    with pytest.raises(_Killed):
        write_table(path, (("a", str),), _rows_then_kill([["3"], ["4"]], 1), {"inputs": "new"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_interrupted_features_write_reruns(tmp_path, monkeypatch):
    """A features.csv cut off after 3 rows must not be current: its
    header would otherwise carry the fresh inputs hash."""
    count = write_corpus(tmp_path / "corpus")
    config = load_config(write_config(tmp_path))
    run_pipeline(config, ["ingest"])
    write = features.write_table
    monkeypatch.setattr(
        features,
        "write_table",
        lambda path, columns, rows, meta: write(path, columns, _rows_then_kill(rows, 3), meta),
    )
    with pytest.raises(_Killed):
        run_pipeline(config, ["features"])
    monkeypatch.undo()
    assert run_pipeline(config, ["features"]) == [("features", "ran")]
    ids, _, _ = read_features_csv(config.artifact("features.csv"))
    assert len(ids) == count
    assert not list(config.artifact("features.csv").parent.glob("*.part"))


def test_report_refuses_mixed_config_hashes(tmp_path):
    write_corpus(tmp_path / "corpus")
    config = load_config(write_config(tmp_path))
    run_pipeline(config)
    # forge a projections artifact from some other campaign
    target = config.artifact("projections.csv")
    lines = target.read_text().splitlines()
    lines[2] = "# inputs=000000000000"
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(PipelineError, match="mixed config hashes"):
        run_pipeline(config, ["report"])


def test_train_refuses_mixed_config_hashes(tmp_path):
    write_corpus(tmp_path / "corpus")
    run_pipeline(load_config(write_config(tmp_path, budget=3.0)))
    # a changed budget re-runs bench only; projections.csv keeps the old hash
    changed = load_config(write_config(tmp_path, budget=4.0))
    run_pipeline(changed, ["bench"])
    with pytest.raises(PipelineError, match="mixed config hashes"):
        run_pipeline(changed, ["train"])


def _copy_campaign(completed_pipeline, tmp_path: Path, edit=None) -> Path:
    """A copy of the shared campaign, its config edited by one text replacement."""
    source, _, _, _ = completed_pipeline
    work = tmp_path / "campaign"
    shutil.copytree(source, work)
    ini = work / "campaign.ini"
    if edit:
        ini.write_text(ini.read_text().replace(*edit))
    return ini


_CORRELATION_EDIT = ("[run]", "[thresholds]\ncorrelation = 0.7\n\n[run]")


@pytest.mark.parametrize(
    "edit, ran, kept",
    [
        (
            _CORRELATION_EDIT,
            STAGE_ORDER[3:],
            ("corpus.csv", "features.csv", "runs.csv"),
        ),
        (
            ("solver_budget = 3.0", "solver_budget = 4.0"),
            STAGE_ORDER[2:],
            ("corpus.csv", "features.csv"),
        ),
        (
            ("feature_budget = 60", "feature_budget = 30"),
            ("features",) + STAGE_ORDER[3:],
            ("corpus.csv", "runs.csv"),
        ),
        (
            ("[run]", "[thresholds]\ngood_tolerance = 0.01\n\n[run]"),
            ("isa-footprint", "train", "report"),
            ("runs.csv", "sifted.csv", "projection.isa", "projections.csv"),
        ),
    ],
    ids=["correlation", "solver_budget", "feature_budget", "good_tolerance"],
)
def test_config_edit_reruns_only_the_stages_that_read_it(
    completed_pipeline, tmp_path, edit, ran, kept
):
    config = load_config(_copy_campaign(completed_pipeline, tmp_path, edit))
    before = {name: config.artifact(name).read_bytes() for name in kept}
    logs = []
    statuses = run_pipeline(config, log=logs.append)
    assert [stage for stage, status in statuses if status == "ran"] == list(ran)
    assert {name: config.artifact(name).read_bytes() for name in kept} == before
    if "runs.csv" in kept:
        assert not any("discarding stale journal" in line for line in logs)
    assert run_pipeline(config) == [(stage, "skipped") for stage in STAGE_ORDER]


def test_all_degenerate_labels_reach_the_report(completed_pipeline, tmp_path):
    # at this tolerance both solvers are good on every instance, so no
    # solver has labels an SVM can fit; the priors still rank the portfolio
    edit = ("[run]", "[thresholds]\ngood_tolerance = 0.5\n\n[run]")
    config = load_config(_copy_campaign(completed_pipeline, tmp_path, edit))
    statuses = run_pipeline(config)
    assert [stage for stage, status in statuses if status == "ran"] == [
        "isa-footprint", "train", "report",
    ]
    model = read_selector_model(config.artifact("selector.isa"))
    assert all(isinstance(clf, PriorClassifier) for clf in model.classifiers.values())
    assert config.artifact("report.csv").is_file()


def test_stale_upstream_stage_is_named(completed_pipeline, tmp_path, capsys):
    ini = _copy_campaign(completed_pipeline, tmp_path, _CORRELATION_EDIT)
    assert main(["run", "--config", str(ini), "--stages", "train"]) == 3
    err = capsys.readouterr().err
    assert "mixed config hashes" in err and "'isa-fit'" in err


def _drop_last_three_lines(lines):
    del lines[-3:]


def _model_body_not_json(lines):
    lines[-1] = "not json"


@pytest.mark.parametrize(
    "artifact, damage, upstream, stage",
    [
        ("runs.csv", _drop_last_three_lines, "bench", "isa-fit"),
        ("projection.isa", _model_body_not_json, "isa-fit", "isa-project"),
    ],
)
def test_unfinished_upstream_stage_is_named(
    completed_pipeline, tmp_path, capsys, artifact, damage, upstream, stage
):
    # the damaged file keeps its header, whose hashes are current
    ini = _copy_campaign(completed_pipeline, tmp_path)
    target = ini.parent / "out" / artifact
    lines = target.read_text().splitlines()
    damage(lines)
    target.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(ini), "--stages", stage]) == 3
    err = capsys.readouterr().err
    assert f"stage '{upstream}' did not finish" in err
    assert "mixed config hashes" not in err


# a value for every semantic config field, each unlike the shared campaign's
_CHANGED_FIELDS = {
    "corpus": ("elsewhere/*.clq",),
    "portfolio": (("fastwclq-like", "builtin"),),
    "solver_budget": 9.0,
    "feature_budget": 7.0,
    "correlation_threshold": 0.3,
    "good_tolerance": 0.5,
    "seed": 1,
}


def test_stages_read_no_config_field_they_do_not_declare(completed_pipeline, tmp_path):
    """Re-running a stage from the same inputs with one field it does not
    declare changed writes the same outputs.  Both runs get the same
    metadata, so whole files compare; bench compares its runs' outcomes,
    as wall times differ from run to run."""
    config = load_config(_copy_campaign(completed_pipeline, tmp_path))
    unhashed = {"output_dir", "base_dir", "jobs"}
    fields = {f.name for f in dataclasses.fields(PipelineConfig)} - unhashed
    assert set(_CHANGED_FIELDS) == fields
    for field, value in _CHANGED_FIELDS.items():
        assert config_hash(replace(config, **{field: value})) != config_hash(config), field

    def outputs(stage):
        if stage.name == "bench":
            records, _ = read_journal(config.artifact("runs.csv"))
            return {
                (r.instance_id, r.solver_id): (r.clique_size, r.proven_optimal, r.status)
                for r in records
            }
        return {name: config.artifact(name).read_bytes() for name in stage.outputs}

    def rerun(stage, changed, meta):
        if stage.name == "bench":
            config.artifact("runs.csv").unlink()  # or the journal resumes
        stage.run(changed, meta, lambda msg: None)
        return outputs(stage)

    for name in STAGE_ORDER:
        stage = pipeline._STAGES[name]
        meta = pipeline._stage_meta(config, stage)
        want = rerun(stage, config, meta)
        for field in sorted(fields - set(stage.fields)):
            changed = replace(config, **{field: _CHANGED_FIELDS[field]})
            assert rerun(stage, changed, meta) == want, (name, field)


def test_v1_model_body_reruns_its_stage(completed_pipeline, tmp_path):
    config = load_config(_copy_campaign(completed_pipeline, tmp_path))
    target = config.artifact("selector.isa")
    header = [line for line in target.read_text().splitlines() if line.startswith("# ")]
    v1_body = ["cliquespace-selector-model v1", "input_space z", "solvers 0", "end"]
    target.write_text("\n".join(header + v1_body) + "\n")
    report_before = config.artifact("report.csv").read_bytes()
    statuses = run_pipeline(config)
    # the retrained model is the file report was computed from, byte for byte
    assert [stage for stage, status in statuses if status == "ran"] == ["train"]
    assert read_model(target, "selector")["version"] == 2
    assert config.artifact("report.csv").read_bytes() == report_before


def test_train_logs_fits_that_stop_at_the_step_limit(completed_pipeline, tmp_path, monkeypatch):
    config = load_config(_copy_campaign(completed_pipeline, tmp_path))
    config.artifact("selector.isa").unlink()
    monkeypatch.setattr(svm, "_MAX_STEPS", 1)  # no fit meets the tolerance in one step
    logged = []
    run_pipeline(config, ["train"], log=logged.append)
    unconverged = read_selector_model(config.artifact("selector.isa")).unconverged_fits
    assert unconverged > 0
    assert logged[-1].endswith(f"; {unconverged} SVM fit(s) stopped at the step limit")


@pytest.mark.parametrize(
    "deleted, stage",
    [("sifted.csv", "isa-fit"), ("features.csv", "features"), ("selector.isa", "train")],
)
def test_deleted_artifact_reruns_only_its_stage(completed_pipeline, tmp_path, deleted, stage):
    """The re-run writes the same bytes, so the stages reading them stay current."""
    config = load_config(_copy_campaign(completed_pipeline, tmp_path))
    names = [out for s in pipeline._STAGES.values() for out in s.outputs]
    before = {name: config.artifact(name).read_bytes() for name in names}
    config.artifact(deleted).unlink()
    statuses = run_pipeline(config)
    assert [name for name, status in statuses if status == "ran"] == [stage]
    assert {name: config.artifact(name).read_bytes() for name in names} == before


def test_all_runs_failing_is_a_campaign_failure(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(corpus)
    config_path = tmp_path / "campaign.ini"
    config_path.write_text(
        """
[corpus]
paths = corpus/*.clq

[portfolio]
crasher = external /bin/false {instance}

[run]
solver_budget = 2
output_dir = out
"""
    )
    config = load_config(config_path)
    with pytest.raises(CampaignFailureError):
        run_pipeline(config, ["ingest", "bench"])


def test_all_failed_campaign_fails_on_every_run(tmp_path, capsys):
    # the failed runs are journaled, so the second run skips bench and the
    # check falls to the stages that read the journal
    write_corpus(tmp_path / "corpus")
    ini = write_config(tmp_path)
    ini.write_text(ini.read_text().replace(
        "exact = builtin\ngreedy = builtin", "crasher = external false {instance}"
    ))
    codes, errors = [], []
    for _ in range(2):
        codes.append(main(["run", "--config", str(ini)]))
        errors.append(capsys.readouterr().err)
    assert codes == [4, 4]
    assert all("delete runs.csv" in err for err in errors)


def test_parallel_bench_matches_serial(tmp_path):
    write_corpus(tmp_path / "corpus")
    serial = load_config(write_config(tmp_path))
    run_pipeline(serial, ["ingest", "features", "bench"])
    records_serial, _ = read_journal(serial.artifact("runs.csv"))

    par_dir = tmp_path / "par"
    par_dir.mkdir()
    shutil.copytree(tmp_path / "corpus", par_dir / "corpus")
    parallel = replace(
        load_config(write_config(par_dir)), jobs=4
    )
    run_pipeline(parallel, ["ingest", "features", "bench"])
    records_parallel, _ = read_journal(parallel.artifact("runs.csv"))
    serial_sizes = {(r.instance_id, r.solver_id): r.clique_size for r in records_serial}
    parallel_sizes = {
        (r.instance_id, r.solver_id): r.clique_size for r in records_parallel
    }
    assert serial_sizes == parallel_sizes
    ids_serial, X_serial, _ = read_features_csv(serial.artifact("features.csv"))
    ids_parallel, X_parallel, _ = read_features_csv(parallel.artifact("features.csv"))
    assert ids_serial == ids_parallel
    assert np.array_equal(X_serial, X_parallel)


# --------------------------------------------------------------------- cli


def test_cli_solve_exact(tmp_path, capsys):
    instance = tmp_path / "k5.clq"
    instance.write_text(serialize(generate("complete", 5), GraphFormat.DIMACS_CLQ))
    code = main(["solve", "--solver", "exact", "--instance", str(instance)])
    out = capsys.readouterr().out
    assert code == 0
    assert "clique=5" in out and "proven=true" in out
    assert "vertices=0 1 2 3 4" in out


def test_cli_solve_local_search(tmp_path, capsys):
    instance = tmp_path / "c6.clq"
    instance.write_text(serialize(generate("cycle", 6), GraphFormat.DIMACS_CLQ))
    code = main(
        ["solve", "--solver", "fastwclq-like", "--instance", str(instance), "--budget", "2"]
    )
    assert code == 0
    assert "clique=2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--budget", "nan"], "--budget"),
        (["--budget", "inf"], "--budget"),
        (["--budget", "-1"], "--budget"),
        (["--budget", "0"], "--budget"),
        (["--command", "echo clique 1"], "--command"),
    ],
    ids=["nan", "inf", "negative", "zero", "no-placeholder"],
)
def test_cli_solve_bad_flag_is_config_error(tmp_path, capsys, flags, named):
    instance = tmp_path / "k5.clq"
    instance.write_text(serialize(generate("complete", 5), GraphFormat.DIMACS_CLQ))
    argv = ["solve", "--solver", "fastwclq-like", "--instance", str(instance)]
    assert main(argv + flags) == 2
    assert f"config error: {named}: " in capsys.readouterr().err


# a stand-in external solver: the greedy clique from the lowest vertex id,
# reported with split search/reduction/preprocessing times and no total
_SPLIT_TIME_STUB = """
import sys
adj = {}
for line in open(sys.argv[1]):
    if line.startswith("e "):
        _, u, v = line.split()
        adj.setdefault(int(u), set()).add(int(v))
        adj.setdefault(int(v), set()).add(int(u))
clique, cand = [], set(adj)
while cand:
    clique.append(min(cand))
    cand &= adj[clique[-1]]
print("ts=0.5")
print("tr=0.25")
print("tp=0.125")
print("v", *clique)
"""


def test_external_split_times_reach_the_journal_and_solve(tmp_path, capsys):
    write_corpus(tmp_path / "corpus")
    stub = tmp_path / "stub.py"
    stub.write_text(_SPLIT_TIME_STUB)
    command = f"{sys.executable} {stub} {{instance}}"
    config_path = tmp_path / "campaign.ini"
    config_path.write_text(
        "[corpus]\npaths = corpus/*.clq\n"
        f"[portfolio]\nmine = external {command}\n"
        "[run]\nsolver_budget = 10\noutput_dir = out\n"
    )
    config = load_config(config_path)
    run_pipeline(config, ["ingest", "bench"])
    records, _ = read_journal(config.artifact("runs.csv"))
    assert len(records) == 14
    assert all(r.status == "ok" and r.wall_seconds == 0.875 for r in records)
    assert {r.instance_id: r.clique_size for r in records}["inst00"] == 8  # K8

    for r in records[:3]:
        argv = ["solve", "--solver", "mine", "--command", command]
        instance = tmp_path / "corpus" / f"{r.instance_id}.clq"
        assert main(argv + ["--instance", str(instance), "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert f"solver=mine clique={r.clique_size} " in out
        assert "wall=0.875 " in out


def test_cli_solve_missing_instance_is_data_error(tmp_path, capsys):
    code = main(["solve", "--solver", "exact", "--instance", str(tmp_path / "no.clq")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2

    (tmp_path / "corpus").mkdir()
    empty = write_config(tmp_path)
    assert main(["run", "--config", str(empty)]) == 3

    write_corpus(tmp_path / "corpus")
    crash_cfg = tmp_path / "crash.ini"
    crash_cfg.write_text(
        "[corpus]\npaths = corpus/*.clq\n\n"
        "[portfolio]\ncrasher = external /bin/false {instance}\n\n"
        "[run]\nsolver_budget = 2\noutput_dir = crash_out\n"
    )
    assert main(["run", "--config", str(crash_cfg), "--stages", "ingest,bench"]) == 4
    capsys.readouterr()


def _drop_usable_column(lines):
    header = lines.index("instance_id,path,format,nodes,edges,connected,usable,note")
    lines[header] = lines[header].replace(",usable", "")


def _cut_first_row(lines):
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    lines[first] = ",".join(lines[first].split(",")[:2])


def _set_first_cell(column, value):
    """Corrupt the first row's ``column`` cell to ``value``."""

    def corrupt(lines):
        header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        fields = lines[header + 1].split(",")
        fields[lines[header].split(",").index(column)] = value
        lines[header + 1] = ",".join(fields)

    return corrupt


@pytest.mark.parametrize(
    "artifact, corrupt, stage, line",
    [
        ("corpus.csv", _drop_usable_column, "features", 4),
        ("projections.csv", _cut_first_row, "isa-footprint", 5),
        ("features.csv", _cut_first_row, "isa-fit", 5),
        # a cell of another format is refused, not read as false or copied on
        ("corpus.csv", _set_first_cell("usable", "yes"), "features", 5),
        ("footprints.csv", _set_first_cell("area", "x"), "report", 6),
    ],
)
def test_cli_malformed_artifact_names_its_line(
    completed_pipeline, tmp_path, capsys, artifact, corrupt, stage, line
):
    source, _, _, _ = completed_pipeline
    work = tmp_path / "campaign"
    shutil.copytree(source, work)
    target = work / "out" / artifact
    lines = target.read_text().splitlines()
    corrupt(lines)
    target.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(work / "campaign.ini"), "--stages", stage]) == 3
    assert f"{artifact}:{line}:" in capsys.readouterr().err


def test_instance_where_every_run_failed_is_left_out(completed_pipeline, tmp_path):
    # such an instance has no best solver (best_solver is None), so no
    # stage may credit it to a solver
    source, _, _, count = completed_pipeline
    work = tmp_path / "campaign"
    shutil.copytree(source, work)
    config = load_config(work / "campaign.ini")
    journal = config.artifact("runs.csv")
    records, meta = read_journal(journal)
    victim = records[0].instance_id
    failed = dict(clique_size=0, proven_optimal=False, status="failed")
    write_journal(
        journal,
        [replace(r, **failed) if r.instance_id == victim else r for r in records],
        meta,
    )
    logs: list[str] = []
    run_pipeline(config, log=logs.append)
    assert "isa-fit: left out 1 instance(s) where every run failed" in logs
    assert "isa-project: left out 1 instance(s) where every run failed" in logs
    ids, _, _, _ = read_projections(config.artifact("projections.csv"))
    assert victim not in ids and len(ids) == count - 1
    _, rows = read_table(
        config.artifact("footprints.csv"), pipeline._FOOTPRINT_COLUMNS, PipelineError, list
    )
    assert sum(int(row[2]) for row in rows) == len(ids)


def test_cli_full_run_and_idempotent_rerun(tmp_path, capsys):
    write_corpus(tmp_path / "corpus")
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    first = capsys.readouterr().out
    assert "8 stage(s) ran" in first

    assert main(["run", "--config", str(config_path)]) == 0
    second = capsys.readouterr().out
    assert "0 stage(s) ran, 8 skipped" in second


def test_cli_predict_ranks_portfolio(tmp_path, capsys):
    write_corpus(tmp_path / "corpus")
    config_path = write_config(tmp_path)
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "out"
    code = main(
        [
            "predict",
            "--model",
            str(out_dir / "selector.isa"),
            "--features",
            str(out_dir / "features.csv"),
            "--top",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 14
    assert all("exact=" in ln or "greedy=" in ln for ln in lines)


@pytest.mark.parametrize("top", ["0", "-1"])
def test_cli_predict_rejects_top_below_one(tmp_path, capsys, top):
    argv = ["predict", "--model", str(tmp_path / "selector.isa"),
            "--features", str(tmp_path / "features.csv"), "--top", top]
    assert main(argv) == 2
    assert "--top" in capsys.readouterr().err


def test_cli_predict_clamps_top_to_the_portfolio(completed_pipeline, capsys):
    _, config, _, _ = completed_pipeline
    out_dir = config.output_dir
    argv = ["predict", "--model", str(out_dir / "selector.isa"),
            "--features", str(out_dir / "features.csv"), "--top", "5"]
    assert main(argv) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert lines and all(len(ln.split(": ", 1)[1].split()) == 2 for ln in lines)


def _predict_lines(capsys, model: Path, features: Path, *extra: str) -> list[str]:
    argv = ["predict", "--model", str(model), "--features", str(features), *extra]
    assert main(argv) == 0
    return [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]


def test_cli_predict_needs_the_projection_of_a_z_model(completed_pipeline, tmp_path, capsys):
    _, config, _, _ = completed_pipeline
    alone = tmp_path / "selector.isa"
    shutil.copy(config.artifact("selector.isa"), alone)
    argv = ["predict", "--model", str(alone), "--features", str(config.artifact("features.csv"))]
    assert main(argv) == 3
    assert "--projection" in capsys.readouterr().err


def test_cli_predict_reads_an_explicit_projection(completed_pipeline, tmp_path, capsys):
    _, config, _, count = completed_pipeline
    features = config.artifact("features.csv")
    default = _predict_lines(capsys, config.artifact("selector.isa"), features)
    alone = tmp_path / "selector.isa"
    shutil.copy(config.artifact("selector.isa"), alone)
    explicit = _predict_lines(
        capsys, alone, features, "--projection", str(config.artifact("projection.isa"))
    )
    assert len(default) == count
    assert explicit == default


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_stage_commands_reject_jobs_below_one(tmp_path, capsys, jobs):
    (tmp_path / "corpus").mkdir()
    config_path = write_config(tmp_path)
    for argv in (["ingest"], ["run"]):
        assert main([*argv, "--config", str(config_path), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "run.jobs" not in err
    assert not (tmp_path / "out").exists()


def test_cli_stage_subcommands_match_stage_names(tmp_path, capsys):
    write_corpus(tmp_path / "corpus")
    config_path = write_config(tmp_path)
    assert main(["ingest", "--config", str(config_path)]) == 0
    assert main(["features", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "features.csv").exists()
    assert not (tmp_path / "out" / "runs.csv").exists()


def test_console_script_is_installed():
    result = subprocess.run(
        [sys.executable, "-m", "cliquespace.cli", "--help"]
        if shutil.which("cliquespace") is None
        else ["cliquespace", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "ingest" in result.stdout and "predict" in result.stdout


# ------------------------------------------------------- deferred stage code

_STAGE_MODULES = (
    "numpy",
    "cliquespace.bench",
    "cliquespace.features",
    "cliquespace.isa",
    "cliquespace.selector",
    "cliquespace.report",
)


def _run_fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter on this package; returns its last
    stdout line."""
    src = str(Path(pipeline.__file__).parents[1])
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "action",
    [
        "import cliquespace\n"
        "from cliquespace.pipeline import load_config\n"
        "load_config(sys.argv[1])",
        "from cliquespace.cli import main\n"
        "assert main(['solve', '--solver', 'exact', '--instance', sys.argv[2]]) == 0",
        "from cliquespace.cli import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0",
    ],
    ids=["load_config", "solve", "help"],
)
def test_startup_loads_no_stage_code(tmp_path, action):
    (tmp_path / "corpus").mkdir()
    instance = tmp_path / "corpus" / "k5.clq"
    instance.write_text(serialize(generate("complete", 5), GraphFormat.DIMACS_CLQ))
    code = (
        f"import json, sys\n{action}\n"
        f"print(json.dumps([m for m in {_STAGE_MODULES!r} if m in sys.modules]))"
    )
    assert json.loads(_run_fresh(code, str(write_config(tmp_path)), str(instance))) == []


def test_read_projections_without_a_pipeline_run(completed_pipeline):
    _, config, _, count = completed_pipeline
    code = (
        "import json, sys\n"
        "from cliquespace.pipeline import read_projections\n"
        "ids, coords, best, _ = read_projections(sys.argv[1])\n"
        "print(json.dumps([len(ids), list(coords.shape), len(best)]))"
    )
    shape = _run_fresh(code, str(config.artifact("projections.csv")))
    assert json.loads(shape) == [count, [count, 2], count]


@pytest.mark.parametrize("how", ["setattr", "assign"])
def test_wrappers_on_pipeline_names_run(tmp_path, how):
    """perfbench/spans.py replaces stage names on the pipeline module; a
    wrapper set before the stage code loads, or after, must be the one called."""
    count = write_corpus(tmp_path / "corpus")
    code = """
import json, sys
from collections import Counter
from cliquespace import pipeline

calls = Counter()

def counting(name, original):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    return wrapper

if sys.argv[2] == "setattr":
    # as spans._wrap does: the getattr loads the stage code first
    for name in ("compute_features", "train", "make_builtin"):
        setattr(pipeline, name, counting(name, getattr(pipeline, name)))
else:
    assert "compute_features" not in vars(pipeline)
    from cliquespace.features import compute_features
    from cliquespace.selector import train
    from cliquespace.solvers import make_builtin
    pipeline.compute_features = counting("compute_features", compute_features)
    pipeline.train = counting("train", train)
    pipeline.make_builtin = counting("make_builtin", make_builtin)
pipeline.run_pipeline(pipeline.load_config(sys.argv[1]))
print(json.dumps(calls))
"""
    calls = json.loads(_run_fresh(code, str(write_config(tmp_path)), how))
    assert calls["compute_features"] == count
    assert calls["train"] == 1
    assert calls["make_builtin"] > 0
