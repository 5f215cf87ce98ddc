"""Release acceptance checks, one test per numbered criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (run pytest with
``-s`` to see the lines for passing tests).  Tolerances and time bounds are
pinned here on purpose; loosening them is a release decision, not a test fix.

The two DIMACS-style benchmark checks in criterion 4 differ in provenance:
hamming10-2 is constructed from its definition (binary 10-bit words, adjacent
when they differ in at least two positions), while brock200_1 cannot be
regenerated and is only checked when a copy is supplied under ``tests/data/``
or ``$CLIQUESPACE_DATA_DIR``.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cliquespace.bench import RunRecord, run_campaign, score_instance
from cliquespace.cli import main as cli_main
from cliquespace.features import (
    FEATURE_NAMES,
    compute_features,
    graph_spectra,
    spectral_features,
)
from cliquespace.graph import Graph, GraphFormat, generate, parse_path, serialize
from cliquespace.isa import (
    cloister_boundary,
    fit_normalization,
    apply_normalization,
    fit_projection,
    footprint,
    load_external_matrix,
    points_in_polygon,
    polygon_area,
    project,
    project_many,
    read_projection_model,
    sifted_select,
    write_projection_model,
)
from cliquespace.selector import evaluate_topk, train
from cliquespace.solvers import (
    BUILTIN_SOLVER_IDS,
    make_builtin,
    solve_exact_bb,
    solve_local_search,
)

from oracles import clique_number_exact, connected_gnp, point_in_polygon_bruteforce


def _report(criterion, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# --- criterion 1: exact solver equals an independent enumeration oracle ---


def test_criterion_01_exact_solver_matches_enumeration_oracle():
    start = time.perf_counter()
    graphs = []
    for i, (n, p) in enumerate((n, p) for n in (10, 15, 20) for p in (0.2, 0.5, 0.8)):
        graphs.extend(generate("gnp", n, p, seed=1000 * i + s) for s in range(33))
    # round the 9 x 33 grid out to an even 300 with extra hard-cell seeds
    graphs.extend(generate("gnp", 20, 0.8, seed=9900 + s) for s in range(3))
    assert len(graphs) == 300

    mismatches = []
    for g in graphs:
        got = solve_exact_bb(g, budget=None)
        want = clique_number_exact(g)
        if got.clique_size != want or not got.proven_optimal:
            mismatches.append((g.name, got.clique_size, want))
    elapsed = time.perf_counter() - start

    ok = not mismatches and elapsed < 120.0
    _report(1, ok, f"300 graphs, {len(mismatches)} mismatches, {elapsed:.1f}s (bound 120s)")
    assert not mismatches, mismatches[:5]
    assert elapsed < 120.0


# --- criterion 2: composite measure fixture -------------------------------


def test_criterion_02_composite_measure_fixture():
    scores = score_instance(
        [
            RunRecord("fixture", "a", 80, 80.0, False),
            RunRecord("fixture", "b", 100, 160.0, False),
        ]
    )
    ok = scores["a"] == 0.625 and scores["b"] == 1.0
    _report(2, ok, f"y(a)={scores['a']!r}, y(b)={scores['b']!r} (exact)")
    assert scores["a"] == 0.625
    assert scores["b"] == 1.0


# --- criterion 3: spectral fixtures and trace identities -------------------


def test_criterion_03_spectral_fixtures_and_trace_identities():
    k3 = spectral_features(generate("complete", 3))
    c4 = spectral_features(generate("cycle", 4))
    fixture_errors = {
        "k3 spectral radius": abs(k3.spectral_radius - 2.0),
        "k3 energy": abs(k3.energy - 4.0),
        "k3 laplacian spectral radius": abs(k3.laplacian_spectral_radius - 3.0),
        "c4 even closed walks": abs(c4.even_closed_walk_proportion - 1.0),
    }
    bad_fixtures = {k: v for k, v in fixture_errors.items() if v > 1e-9}

    worst = 0.0
    for i in range(100):
        n = 5 + (7 * i) % 36
        p = (0.2, 0.4, 0.6, 0.8)[i % 4]
        g = generate("gnp", n, p, seed=7000 + i)
        eva, evl = graph_spectra(g)
        adj_rel = abs(eva.sum()) / max(1.0, np.abs(eva).sum())
        lap_rel = abs(evl.sum() - 2.0 * g.edge_count) / max(1.0, 2.0 * g.edge_count)
        worst = max(worst, adj_rel, lap_rel)

    ok = not bad_fixtures and worst <= 1e-6
    _report(3, ok, f"fixtures within 1e-9, worst trace residual {worst:.2e} (bound 1e-6)")
    assert not bad_fixtures, bad_fixtures
    assert worst <= 1e-6


# --- criterion 4: benchmark-instance checks --------------------------------


def _benchmark_file(name: str) -> Path | None:
    candidates = []
    env_dir = os.environ.get("CLIQUESPACE_DATA_DIR")
    if env_dir:
        candidates.append(Path(env_dir) / name)
    candidates.append(Path(__file__).parent / "data" / name)
    for c in candidates:
        if c.is_file():
            return c
    return None


def test_criterion_04_brock200_1_parse_and_local_search():
    path = _benchmark_file("brock200_1.clq")
    if path is None:
        print(
            "criterion 4 (brock200_1): SKIP - put brock200_1.clq in tests/data/ "
            "or $CLIQUESPACE_DATA_DIR to enable this check"
        )
        pytest.skip("brock200_1.clq not available (cannot be synthesized)")
    g = parse_path(path).graph
    density = 2.0 * g.edge_count / (g.node_count * (g.node_count - 1))
    result = solve_local_search(g, budget=60.0, seed=0)
    ok = (
        g.node_count == 200
        and g.edge_count == 14834
        and abs(density - 0.7454) <= 5e-5
        and result.clique_size >= 19
    )
    _report(
        "4 (brock200_1)",
        ok,
        f"parsed ({g.node_count}, {g.edge_count}, density {density:.4f}), "
        f"clique {result.clique_size} in {result.wall_seconds:.0f}s (need >= 19 in 60s)",
    )
    assert g.node_count == 200
    assert g.edge_count == 14834
    assert abs(density - 0.7454) <= 5e-5
    assert result.clique_size >= 19


def test_criterion_04_hamming10_2_local_search():
    n = 1024
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u ^ v).bit_count() != 1
    ]
    g = Graph(n, edges, name="hamming10-2")
    assert g.edge_count == 518656  # all pairs minus the 5120 at Hamming distance 1
    result = solve_local_search(g, budget=5.0, seed=0)
    ok = result.clique_size == 512
    _report(
        "4 (hamming10-2)",
        ok,
        f"clique {result.clique_size} in {result.wall_seconds:.1f}s (need 512 within 60s)",
    )
    assert result.clique_size == 512


# --- criterion 5: published projection matrix fixture ----------------------

PUBLISHED_PROJECTION = np.array(
    [
        [-0.1653, 0.6747],
        [1.0134, 0.1196],
        [-0.1392, 0.5377],
        [-0.3048, -0.4641],
        [-0.2322, -0.4569],
    ]
)
PUBLISHED_PROJECTION_FEATURES = (
    "density",
    "gap_largest_smallest_laplacian",
    "median_closeness_centrality",
    "std_closeness_centrality",
    "std_eigenvector_centrality",
)


def test_criterion_05_projection_matrix_fixture(tmp_path):
    model = load_external_matrix(PUBLISHED_PROJECTION, PUBLISHED_PROJECTION_FEATURES)
    path = tmp_path / "projection.isa"
    write_projection_model(model, path)
    loaded = read_projection_model(path)

    z_ones = project(loaded, np.ones(5))
    z_zero = project(loaded, np.zeros(5))
    ok = (
        abs(z_ones[0] - 0.1719) <= 1e-4
        and abs(z_ones[1] - 0.4110) <= 1e-4
        and z_zero == (0.0, 0.0)
    )
    _report(5, ok, f"ones -> ({z_ones[0]:.4f}, {z_ones[1]:.4f}), zeros -> {z_zero}")
    assert abs(z_ones[0] - 0.1719) <= 1e-4
    assert abs(z_ones[1] - 0.4110) <= 1e-4
    assert z_zero == (0.0, 0.0)


# --- criterion 6: feature-selection properties ------------------------------


def test_criterion_06_feature_selection_properties():
    problems = []
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(400)
        shuffled = y[rng.permutation(400)]
        columns = np.column_stack([y, shuffled, rng.standard_normal((400, 6))])
        names = ("mirror", "shuffled") + tuple(f"noise_{i}" for i in range(6))
        result = sifted_select(columns, names, y[:, None], threshold=0.8)
        if "mirror" not in result.selected:
            problems.append(f"seed {seed}: mirror of y not selected")
        if "shuffled" in result.selected:
            problems.append(f"seed {seed}: shuffled copy of y selected")
        perm = rng.permutation(400)
        permuted = sifted_select(columns[perm], names, y[perm][:, None], threshold=0.8)
        if permuted.selected != result.selected:
            problems.append(f"seed {seed}: selection depends on instance order")

    rng = np.random.default_rng(21)
    y_big = rng.standard_normal((6138, 2))
    informative = [
        y_big[:, i % 2] + rng.standard_normal(6138) * (0.1 + 0.04 * i) for i in range(10)
    ]
    big = np.column_stack(informative + [rng.standard_normal((6138, 25))])
    big_names = tuple(f"f{i:02d}" for i in range(35))
    start = time.perf_counter()
    big_result = sifted_select(big, big_names, y_big, threshold=0.8)
    elapsed = time.perf_counter() - start
    if not big_result.selected:
        problems.append("nothing selected on the 6138x35 matrix")

    ok = not problems and elapsed < 10.0
    _report(6, ok, f"properties hold, 6138x35 selection in {elapsed:.2f}s (bound 10s)")
    assert not problems, problems
    assert elapsed < 10.0


# --- criterion 7: selector properties and the small-corpus protocol --------


def _blob_corpus(n_per_side: int, seed: int):
    """Two well-separated point clouds; solver ``alpha`` owns the left one."""
    rng = np.random.default_rng(seed)
    left = rng.normal(-3.0, 0.5, size=(n_per_side, 2))
    right = rng.normal(3.0, 0.5, size=(n_per_side, 2))
    inputs = np.vstack([left, right])
    good = np.zeros((2 * n_per_side, 2), dtype=bool)
    good[:n_per_side, 0] = True
    good[n_per_side:, 1] = True
    best = ("alpha",) * n_per_side + ("beta",) * n_per_side
    return inputs, good, best


def test_criterion_07_selector_statistical_properties():
    x_train, good, _ = _blob_corpus(20, seed=5)
    model = train(x_train, good, ("alpha", "beta"), ("z1", "z2"), input_space="z", seed=0)
    x_test, _, best = _blob_corpus(20, seed=6)
    held_out = evaluate_topk(model, x_test, best, k=2)

    shuffle_rng = np.random.default_rng(17)
    x_noise, good_noise, _ = _blob_corpus(20, seed=8)
    shuffled_good = good_noise[shuffle_rng.permutation(len(good_noise))]
    noise_model = train(
        x_noise, shuffled_good, ("alpha", "beta"), ("z1", "z2"), input_space="z", seed=0
    )
    x_eval, _, best_eval = _blob_corpus(20, seed=9)
    coin_best = tuple(shuffle_rng.choice(("alpha", "beta"), size=len(best_eval)))
    noise_report = evaluate_topk(noise_model, x_eval, coin_best, k=1)
    three_sigma = 3.0 * (0.25 / len(coin_best)) ** 0.5

    ok = (
        held_out.top1_accuracy == 1.0
        and held_out.accuracies[len(model.solver_ids)] == 1.0
        and abs(noise_report.top1_accuracy - 0.5) <= three_sigma
    )
    _report(
        "7 (properties)",
        ok,
        f"separable top-1 {held_out.top1_accuracy}, full-portfolio top-k "
        f"{held_out.accuracies[len(model.solver_ids)]}, shuffled top-1 {noise_report.top1_accuracy:.3f} "
        f"(chance 0.5 +- {three_sigma:.3f})",
    )
    assert held_out.top1_accuracy == 1.0
    assert held_out.accuracies[len(model.solver_ids)] == 1.0
    assert abs(noise_report.top1_accuracy - 0.5) <= three_sigma


def _bipartite_trap(k: int, fringe: int) -> Graph:
    """A k-clique hidden behind a complete bipartite fringe.

    The fringe vertices have the highest degrees but pairwise span at most
    an edge, so degree-greedy construction stalls at size 2 while branch
    and bound proves the hidden clique immediately.  Degree-based peeling
    never empties the fringe, which keeps budget-bound local search busy.
    """
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    left = range(k, k + fringe)
    right = range(k + fringe, k + 2 * fringe)
    edges.extend((x, y) for x in left for y in right)
    edges.append((0, k))  # single bridge keeps the graph connected
    return Graph(k + 2 * fringe, edges, name=f"trap_{k}_{fringe}")


def _protocol_corpus():
    train_graphs = [connected_gnp(90 + i, 0.75, seed=200 + i) for i in range(20)]
    train_graphs += [
        _bipartite_trap(k, f)
        for k, f in (
            (5, 7), (5, 8), (5, 9), (5, 10), (5, 11),
            (6, 8), (6, 9), (6, 10), (6, 11), (6, 12),
            (7, 9), (7, 10), (7, 11), (7, 12),
        )
    ]
    eval_graphs = [connected_gnp(120 + 3 * i, 0.75, seed=300 + i) for i in range(10)]
    eval_graphs += [
        _bipartite_trap(k, f)
        for k, f in ((8, 10), (8, 11), (8, 12), (8, 13), (9, 11), (9, 12), (9, 13), (9, 14))
    ]
    return train_graphs, eval_graphs


def _feature_matrix(graphs, order):
    by_name = {g.name: compute_features(g).as_array() for g in graphs}
    return np.array([by_name[name] for name in order])


def test_criterion_07_protocol_beats_majority_baseline():
    train_graphs, eval_graphs = _protocol_corpus()
    portfolio = [(sid, make_builtin(sid, seed=0)) for sid in BUILTIN_SOLVER_IDS]
    matrix_train, _ = run_campaign(
        [(g.name, g) for g in train_graphs], portfolio, budget=0.5
    )
    matrix_eval, _ = run_campaign(
        [(g.name, g) for g in eval_graphs], portfolio, budget=0.5
    )
    assert len(set(matrix_eval.best_solver)) >= 2, "evaluation labels degenerated"

    feats_train = _feature_matrix(train_graphs, matrix_train.instance_ids)
    feats_eval = _feature_matrix(eval_graphs, matrix_eval.instance_ids)

    # every stage is fitted on the training split only
    norm = fit_normalization(feats_train, FEATURE_NAMES)
    z_train = apply_normalization(norm, feats_train, FEATURE_NAMES)
    sifted = sifted_select(z_train, norm.feature_names, matrix_train.y, threshold=0.8)
    selected = sifted.selected if len(sifted.selected) >= 2 else norm.feature_names
    keep = [norm.feature_names.index(name) for name in selected]
    projection = fit_projection(z_train[:, keep], selected, norm.restrict(selected))

    coords_train = project_many(projection, feats_train, FEATURE_NAMES)
    coords_eval = project_many(projection, feats_eval, FEATURE_NAMES)
    model = train(
        coords_train,
        matrix_train.good,
        matrix_train.solver_ids,
        ("z1", "z2"),
        input_space="z",
        seed=0,
    )
    report = evaluate_topk(
        model, coords_eval, matrix_eval.best_solver, k=2, instance_ids=matrix_eval.instance_ids
    )
    baseline = max(Counter(matrix_eval.best_solver).values()) / len(matrix_eval.instance_ids)

    ok = (
        report.top1_accuracy > baseline
        and report.top2_accuracy > baseline
        and len(set(report.top1)) >= 2
    )
    _report(
        "7 (protocol)",
        ok,
        f"top-1 {report.top1_accuracy:.3f}, top-2 {report.top2_accuracy:.3f} vs "
        f"majority baseline {baseline:.3f} on {len(eval_graphs)} held-out instances",
    )
    assert report.top1_accuracy > baseline
    assert report.top2_accuracy > baseline
    assert len(set(report.top1)) >= 2


# --- criterion 8: boundary and footprint properties -------------------------


def test_criterion_08_boundary_and_footprint_properties():
    rng = np.random.default_rng(97)
    points = rng.standard_normal((1000, 2))
    boundary = cloister_boundary(points)
    all_inside = bool(points_in_polygon(points, boundary).all())

    good = rng.random(1000) < 0.4  # scattered labels so the footprint mixes classes
    fp = footprint("solver", points, good)
    area_ok = fp.area <= polygon_area(boundary) + 1e-12

    inside = np.array([point_in_polygon_bruteforce(p, fp.polygon) for p in points])
    expected_purity = int((inside & good).sum()) / int(inside.sum())
    purity_ok = fp.purity == expected_purity

    ok = all_inside and area_ok and purity_ok
    _report(
        8,
        ok,
        f"hull holds all 1000 points, footprint area {fp.area:.2f} <= boundary "
        f"{polygon_area(boundary):.2f}, purity {fp.purity:.4f} == brute force",
    )
    assert all_inside
    assert area_ok
    assert fp.purity == expected_purity


# --- criterion 9: end-to-end pipeline smoke ---------------------------------


def _smoke_corpus():
    graphs = [generate("complete", n) for n in range(8, 16)]
    graphs += [generate("cycle", n) for n in range(12, 28, 3)]
    for i in range(20):
        graphs.append(connected_gnp(14 + i % 11, (0.3, 0.4, 0.5, 0.6)[i % 4], seed=400 + i))
    for i in range(8):
        graphs.append(connected_gnp(18 + 2 * (i % 5), 0.22, seed=450 + i))
    graphs += [connected_gnp(n, 0.75, seed=470 + n) for n in (90, 96, 102, 108)]
    graphs += [_bipartite_trap(k, f) for k, f in ((5, 7), (6, 8), (6, 9), (7, 9))]
    return graphs


def test_criterion_09_end_to_end_pipeline_smoke(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    graphs = _smoke_corpus()
    assert len(graphs) == 50
    for i, g in enumerate(graphs):
        path = corpus_dir / f"inst{i:02d}_{g.name.replace('.', '_')}.clq"
        path.write_text(serialize(g, GraphFormat.DIMACS_CLQ))
    config = tmp_path / "campaign.ini"
    config.write_text(
        """
[corpus]
paths = corpus/*.clq

[portfolio]
exact = builtin
greedy = builtin
fastwclq-like = builtin

[run]
solver_budget = 1.0
feature_budget = 60
seed = 0
output_dir = out
"""
    )

    start = time.perf_counter()
    rc = cli_main(["run", "--config", str(config)])
    elapsed = time.perf_counter() - start
    assert rc == 0

    out = tmp_path / "out"
    features_lines = [
        ln
        for ln in (out / "features.csv").read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    header = features_lines[0].split(",")
    runs_before = (out / "runs.csv").read_bytes()
    ok_runs = sum(
        1
        for ln in runs_before.decode().splitlines()
        if ln.endswith(",ok")
    )
    svg = (out / "scatter.svg").read_text()

    rerun_rc = cli_main(["run", "--config", str(config)])
    runs_after = (out / "runs.csv").read_bytes()

    checks = {
        "runtime < 300s": elapsed < 300.0,
        "feature table is id + 35 columns x 50 rows": (
            header[0] == "instance_id" and len(header) == 36 and len(features_lines) == 51
        ),
        "150 solver runs succeeded": ok_runs == 150,
        "model files exist": (out / "projection.isa").is_file()
        and (out / "selector.isa").is_file(),
        "svg report rendered": svg.startswith("<?xml") and "<svg" in svg,
        "re-run executed no solver": rerun_rc == 0 and runs_after == runs_before,
    }
    failed = [name for name, passed in checks.items() if not passed]
    ok = not failed
    _report(9, ok, f"50 instances, 3 solvers in {elapsed:.0f}s; re-run byte-identical")
    assert not failed, failed
