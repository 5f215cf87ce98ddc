"""Normalization, feature selection, projection, and footprint geometry."""

import json
import re

import numpy as np
import pytest
import scipy.spatial
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliquespace.errors import (
    GeometryError,
    ModelFormatError,
    NormalizationError,
    ProjectionError,
)
from cliquespace.isa import (
    Footprint,
    NormalizationParams,
    ProjectionModel,
    apply_normalization,
    cloister_boundary,
    convex_hull,
    fit_normalization,
    fit_projection,
    footprint,
    identity_normalization,
    load_external_matrix,
    points_in_polygon,
    polygon_area,
    project,
    project_many,
    read_projection_model,
    sifted_select,
    write_projection_model,
)
from cliquespace.selector import train, write_selector_model

from oracles import point_in_polygon_bruteforce

# ---------------------------------------------------------------- normalize


def test_median_iqr_scaling_on_symmetric_column():
    matrix = np.array([[1.0], [2.0], [3.0]])
    params = fit_normalization(matrix, ["a"])
    assert params.feature_names == ("a",)
    assert params.log_flags == (False,)
    assert params.shifts == (2.0,)
    # IQR of {1,2,3} is 1.0, so the scale is 1/1.349
    assert params.scales[0] == pytest.approx(1.0 / 1.349)
    out = apply_normalization(params, matrix, ["a"])
    assert out[:, 0] == pytest.approx([-1.349, 0.0, 1.349])


def test_constant_feature_dropped_and_reported():
    matrix = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    params = fit_normalization(matrix, ["flat", "varies"])
    assert params.feature_names == ("varies",)
    out = apply_normalization(params, matrix, ["flat", "varies"])
    assert out.shape == (3, 1)


def test_all_constant_matrix_rejected():
    matrix = np.full((4, 2), 7.0)
    with pytest.raises(NormalizationError):
        fit_normalization(matrix, ["a", "b"])


def test_heavy_skew_triggers_log_transform():
    rng = np.random.default_rng(42)
    column = rng.lognormal(mean=0.0, sigma=2.0, size=400)
    skew = scipy.stats.skew(column, bias=True)
    assert abs(skew) > 2.0  # fixture sanity: the draw really is heavy-tailed
    params = fit_normalization(column[:, None], ["heavy"])
    assert params.log_flags == (True,)
    # shift/scale are computed on the transformed column
    transformed = np.sign(column) * np.log1p(np.abs(column))
    assert params.shifts[0] == pytest.approx(np.median(transformed))


def test_mild_skew_keeps_raw_scale():
    rng = np.random.default_rng(7)
    column = rng.normal(size=400)
    assert abs(scipy.stats.skew(column, bias=True)) < 2.0
    params = fit_normalization(column[:, None], ["mild"])
    assert params.log_flags == (False,)


def test_zero_iqr_falls_back_to_std():
    # spread lives entirely in the tails: IQR is 0 but the column varies
    column = np.array([-1.0] + [0.0] * 8 + [1.0])
    params = fit_normalization(column[:, None], ["tails"])
    assert params.scales[0] == pytest.approx(float(np.std(column)))
    assert params.scales[0] > 0.0


def test_restrict_reorders_and_validates():
    matrix = np.array([[1.0, 10.0, 100.0], [2.0, 20.0, 300.0], [3.0, 30.0, 200.0]])
    params = fit_normalization(matrix, ["a", "b", "c"])
    sub = params.restrict(["c", "a"])
    assert sub.feature_names == ("c", "a")
    assert sub.shifts == (params.shifts[2], params.shifts[0])
    assert sub.scales == (params.scales[2], params.scales[0])
    with pytest.raises(NormalizationError):
        params.restrict(["a", "missing"])


def test_apply_normalization_selects_named_columns():
    matrix = np.array([[1.0, 9.0], [2.0, 9.5], [3.0, 8.0]])
    params = fit_normalization(matrix, ["a", "b"])
    # input can carry extra columns in any order, lookup is by name
    widened = np.column_stack([matrix[:, 1], np.zeros(3), matrix[:, 0]])
    out = apply_normalization(params, widened, ["b", "junk", "a"])
    direct = apply_normalization(params, matrix, ["a", "b"])
    assert np.array_equal(out, direct)


def test_apply_normalization_vector_matches_matrix_row():
    matrix = np.array([[1.0, 4.0], [2.0, 6.0], [5.0, 5.0]])
    params = fit_normalization(matrix, ["a", "b"])
    rows = apply_normalization(params, matrix, ["a", "b"])
    vec = apply_normalization(params, matrix[1], ["a", "b"])
    assert vec.shape == (2,)
    assert np.array_equal(vec, rows[1])


def test_normalization_error_cases():
    with pytest.raises(NormalizationError):
        fit_normalization(np.array([[1.0, 2.0]]), ["a", "b"])  # one instance
    with pytest.raises(NormalizationError):
        fit_normalization(np.array([[1.0], [np.nan]]), ["a"])
    matrix = np.array([[1.0], [2.0], [3.0]])
    params = fit_normalization(matrix, ["a"])
    with pytest.raises(NormalizationError):
        apply_normalization(params, matrix, ["other"])
    with pytest.raises(NormalizationError):
        apply_normalization(params, np.array([[np.inf]]), ["a"])


# ------------------------------------------------------------------ sifted


def _noise(n, columns, seed):
    return np.random.default_rng(seed).normal(size=(n, columns))


def test_feature_identical_to_performance_is_selected():
    rng = np.random.default_rng(0)
    y = rng.normal(size=60)
    features = np.column_stack([y, _noise(60, 3, 1)])
    names = ["mirror", "n0", "n1", "n2"]
    result = sifted_select(features, names, y, threshold=0.8)
    assert result.correlations["mirror"] == pytest.approx(1.0)
    assert "mirror" in result.selected
    assert "mirror" in result.kept_stage1


def test_shuffled_performance_yields_empty_selection_diagnostic():
    rng = np.random.default_rng(3)
    features = _noise(80, 4, 5)
    y = rng.permutation(features[:, 0])  # breaks any alignment
    result = sifted_select(features, ["a", "b", "c", "d"], y, threshold=0.8)
    assert result.selected == ()
    assert result.kept_stage1 == ()
    assert result.k == 0
    assert "no feature reached" in result.diagnostic
    assert max(result.correlations.values()) < 0.8


def test_selection_invariant_under_instance_permutation():
    rng = np.random.default_rng(11)
    y = rng.normal(size=50)
    features = np.column_stack(
        [y + 0.1 * rng.normal(size=50), 2.0 * y, _noise(50, 2, 13)]
    )
    names = ["near", "scaled", "x0", "x1"]
    base = sifted_select(features, names, y, threshold=0.8)
    perm = rng.permutation(50)
    shuffled = sifted_select(features[perm], names, y[perm], threshold=0.8)
    assert base.selected == shuffled.selected
    assert base.kept_stage1 == shuffled.kept_stage1
    assert base.k == shuffled.k


def test_threshold_zero_keeps_every_feature_in_stage_one():
    rng = np.random.default_rng(17)
    y = rng.normal(size=40)
    features = _noise(40, 5, 19)
    names = ["f0", "f1", "f2", "f3", "f4"]
    result = sifted_select(features, names, y, threshold=0.0)
    assert result.kept_stage1 == tuple(names)
    assert result.selected  # clustering still narrows the set
    assert set(result.selected) <= set(names)


def test_duplicate_features_collapse_to_one_medoid():
    rng = np.random.default_rng(23)
    y = rng.normal(size=60)
    features = np.column_stack([y, 2.0 * y, y + 0.35 * rng.normal(size=60)])
    names = ["base", "doubled", "noisy"]
    result = sifted_select(features, names, y, threshold=0.8)
    assert result.kept_stage1 == ("base", "doubled", "noisy")
    assert result.k == 2
    assert len(result.selected) == 2
    assert "noisy" in result.selected
    # base and doubled are perfectly correlated: exactly one survives
    assert sum(name in result.selected for name in ("base", "doubled")) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=2, max_size=7),
            st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=1, max_size=3),
        )
    ),
    st.floats(0.0, 0.95),
)
# three identical columns: every pair is at distance 0
@example(data=([[0, 1, 1], [0, 1, 1], [0, 1, 1]], [[0, 0, 0]]), threshold=0.0)
def test_two_or_more_stage_one_survivors_give_two_or_more_selected(data, threshold):
    # isa-fit projects from every feature only when fewer than 2 are
    # selected, which therefore means fewer than 2 survived stage 1
    columns, scores = data
    features = np.array(columns, dtype=float).T
    y = np.array(scores, dtype=float).T
    names = [f"f{j}" for j in range(features.shape[1])]
    result = sifted_select(features, names, y, threshold=threshold)
    if len(result.kept_stage1) >= 2:
        assert len(result.selected) >= 2
        assert len(set(result.selected)) == len(result.selected)


def test_failed_runs_masked_pairwise():
    rng = np.random.default_rng(29)
    base = rng.normal(size=30)
    features = np.column_stack([base, _noise(30, 1, 31)])
    y = base.copy()
    y[20:] = np.inf  # failed runs must not poison the correlation
    result = sifted_select(features, ["aligned", "noise"], y, threshold=0.8)
    assert result.correlations["aligned"] == pytest.approx(1.0)
    assert "aligned" in result.selected


def test_sifted_threshold_validation():
    features = np.zeros((5, 2))
    y = np.zeros(5)
    with pytest.raises(ValueError):
        sifted_select(features, ["a", "b"], y, threshold=1.0)
    with pytest.raises(ValueError):
        sifted_select(features, ["a", "b"], y, threshold=-0.1)


def test_sifted_alignment_validation():
    with pytest.raises(ValueError):
        sifted_select(np.zeros((5, 2)), ["a"], np.zeros(5))
    with pytest.raises(ValueError):
        sifted_select(np.zeros((5, 2)), ["a", "b"], np.zeros(6))


# -------------------------------------------------------------- projection

EXTERNAL_MATRIX = np.array(
    [
        [-0.1653, 0.6747],
        [1.0134, 0.1196],
        [-0.1392, 0.5377],
        [-0.3048, -0.4641],
        [-0.2322, -0.4569],
    ]
)
EXTERNAL_FEATURES = (
    "density",
    "gap_largest_smallest_laplacian",
    "median_closeness_centrality",
    "std_closeness_centrality",
    "std_eigenvector_centrality",
)


def test_external_matrix_all_ones_projects_to_column_sums():
    model = load_external_matrix(EXTERNAL_MATRIX, EXTERNAL_FEATURES)
    assert model.source == "loaded_external"
    ones = {name: 1.0 for name in EXTERNAL_FEATURES}
    z1, z2 = project(model, ones)
    assert z1 == pytest.approx(0.1719, abs=1e-12)
    assert z2 == pytest.approx(0.4110, abs=1e-12)


def test_external_matrix_zero_vector_is_origin():
    model = load_external_matrix(EXTERNAL_MATRIX, EXTERNAL_FEATURES)
    zeros = {name: 0.0 for name in EXTERNAL_FEATURES}
    assert project(model, zeros) == (0.0, 0.0)


def test_identity_matrix_returns_raw_coordinates():
    model = load_external_matrix(np.eye(2), ("u", "v"))
    assert project(model, {"u": 3.5, "v": -1.25}) == (3.5, -1.25)


def test_project_accepts_aligned_array():
    model = load_external_matrix(EXTERNAL_MATRIX, EXTERNAL_FEATURES)
    by_name = project(model, {n: float(i) for i, n in enumerate(EXTERNAL_FEATURES)})
    by_pos = project(model, np.arange(5.0))
    assert by_name == by_pos


def test_fitted_pca_matches_direct_eigendecomposition():
    rng = np.random.default_rng(37)
    data = rng.normal(size=(80, 4)) @ rng.normal(size=(4, 4))
    names = ["a", "b", "c", "d"]
    params = fit_normalization(data, names)
    normalized = apply_normalization(params, data, names)
    model = fit_projection(normalized, names, params)
    assert model.source == "fitted_pca"

    centered = normalized - normalized.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered / (len(data) - 1))
    for col, idx in ((0, -1), (1, -2)):
        vec = evecs[:, idx]
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        assert model.matrix[:, col] == pytest.approx(vec, abs=1e-9)
    # first axis carries at least as much variance as the second
    projected = project_many(model, data, names)
    assert np.var(projected[:, 0]) >= np.var(projected[:, 1])
    assert np.var(projected[:, 0]) == pytest.approx(evals[-1] * (79 / 80), rel=1e-9)


def test_rank_deficient_input_rejected():
    rng = np.random.default_rng(41)
    base = rng.normal(size=30)
    data = np.column_stack([base, 2.0 * base + 1.0])
    names = ["a", "b"]
    params = fit_normalization(data, names)
    normalized = apply_normalization(params, data, names)
    with pytest.raises(ProjectionError, match="rank deficient"):
        fit_projection(normalized, names, params)


def test_projection_fit_preconditions():
    params = identity_normalization(["a", "b"])
    with pytest.raises(ProjectionError):
        fit_projection(np.zeros((2, 2)), ["a", "b"], params)  # too few rows
    with pytest.raises(ProjectionError):
        fit_projection(np.zeros((5, 1)), ["a"], identity_normalization(["a"]))
    bad = np.zeros((5, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ProjectionError):
        fit_projection(bad, ["a", "b"], params)


def test_project_error_cases():
    model = load_external_matrix(EXTERNAL_MATRIX, EXTERNAL_FEATURES)
    with pytest.raises(ProjectionError, match="lacks"):
        project(model, {"density": 1.0})
    with pytest.raises(ProjectionError):
        project(model, np.arange(4.0))
    bad = {name: 1.0 for name in EXTERNAL_FEATURES}
    bad["density"] = np.nan
    with pytest.raises(ProjectionError):
        project(model, bad)


def test_projection_model_shape_validation():
    with pytest.raises(ProjectionError):
        ProjectionModel(
            matrix=np.eye(2),
            normalization=identity_normalization(("a",)),
            source="loaded_external",
        )
    with pytest.raises(ProjectionError):
        load_external_matrix(np.array([[1.0, 0.0], [2.0, 0.0]]), ("a", "b"))


def test_selected_features_are_the_normalization_names(tmp_path):
    rng = np.random.default_rng(53)
    data = rng.normal(size=(20, 3))
    params = fit_normalization(data, ["a", "b", "c"])
    normalized = apply_normalization(params, data, ["a", "b", "c"])[:, [2, 0]]
    fitted = fit_projection(normalized, ["c", "a"], params)
    external = load_external_matrix(EXTERNAL_MATRIX, EXTERNAL_FEATURES)
    path = tmp_path / "projection.isa"
    write_projection_model(fitted, path)
    read_back = read_projection_model(path)
    assert fitted.selected_features == ("c", "a")
    assert external.selected_features == EXTERNAL_FEATURES
    assert read_back.selected_features == ("c", "a")
    for model in (fitted, external, read_back):
        assert model.selected_features == model.normalization.feature_names


def test_median_instance_projects_to_origin():
    rng = np.random.default_rng(43)
    data = rng.normal(size=(31, 3))  # odd count: medians are data values
    names = ["a", "b", "c"]
    params = fit_normalization(data, names)
    normalized = apply_normalization(params, data, names)
    model = fit_projection(normalized, names, params)
    medians = {n: float(np.median(data[:, j])) for j, n in enumerate(names)}
    assert project(model, medians) == (0.0, 0.0)


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-4, 4))
@settings(max_examples=60, deadline=None)
def test_projection_is_linear_in_the_normalized_space(u, v, alpha):
    model = load_external_matrix(np.array([[0.5, -1.0], [2.0, 0.25]]), ("u", "v"))
    zu = np.array(project(model, {"u": u, "v": 0.0}))
    zv = np.array(project(model, {"u": 0.0, "v": v}))
    both = np.array(project(model, {"u": alpha * u, "v": alpha * v}))
    assert both == pytest.approx(alpha * (zu + zv), rel=1e-9, abs=1e-9)


def test_projection_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(47)
    data = rng.lognormal(sigma=2.0, size=(40, 3))
    names = ["a", "b", "c"]
    params = fit_normalization(data, names)
    normalized = apply_normalization(params, data, names)
    model = fit_projection(normalized, names, params)
    path = tmp_path / "projection.isa"
    write_projection_model(model, path)
    loaded = read_projection_model(path)
    assert loaded.selected_features == model.selected_features
    assert loaded.source == model.source
    assert np.array_equal(loaded.matrix, model.matrix)  # .17g is lossless
    assert loaded.normalization.log_flags == model.normalization.log_flags
    assert loaded.normalization.shifts == model.normalization.shifts
    assert loaded.normalization.scales == model.normalization.scales
    sample = {n: float(data[5, j]) for j, n in enumerate(names)}
    assert project(loaded, sample) == project(model, sample)


def test_projection_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.isa"
    path.write_text("not a model\n")
    with pytest.raises(ModelFormatError):
        read_projection_model(path)
    good = load_external_matrix(np.eye(2), ("u", "v"))
    write_projection_model(good, path)
    truncated = path.read_text().splitlines()[:-2]
    path.write_text("\n".join(truncated) + "\n")
    with pytest.raises(ModelFormatError):
        read_projection_model(path)


V1_PROJECTION = """\
# tool=cliquespace/0.1.0
cliquespace-projection-model v1
source loaded_external
features 2
feature u log=0 shift=0 scale=1
feature v log=0 shift=0 scale=1
matrix
1 0
0 1
end
"""


def test_projection_v1_text_file_asks_for_refitting(tmp_path):
    path = tmp_path / "projection.isa"
    path.write_text(V1_PROJECTION)
    with pytest.raises(ModelFormatError) as info:
        read_projection_model(path)
    assert str(path) in str(info.value)
    assert "delete it" in str(info.value) and "isa-fit" in str(info.value)


def test_projection_file_rejects_a_bad_matrix(tmp_path):
    path = tmp_path / "projection.isa"
    write_projection_model(load_external_matrix(np.eye(2), ("u", "v")), path)
    good_body = json.loads(path.read_text())
    bad_matrices = (
        [[1.0, 0.0]],  # one row for two features
        [[1.0, 0.0], [0.0]],  # ragged
        [[1.0, 0.0], [0.0, 0.0]],  # an all-zero column
        [[1.0, float("nan")], [0.0, 1.0]],
        "eye",
    )
    for matrix in bad_matrices:
        path.write_text(json.dumps({**good_body, "matrix": matrix}) + "\n")
        with pytest.raises(ModelFormatError, match=re.escape(str(path))):
            read_projection_model(path)


def test_selector_file_is_not_a_projection(tmp_path):
    rng = np.random.default_rng(67)
    X = np.vstack([rng.normal(-3.0, 0.4, (20, 2)), rng.normal(3.0, 0.4, (20, 2))])
    good = np.repeat(np.eye(2, dtype=bool), 20, axis=0)
    path = tmp_path / "selector.isa"
    write_selector_model(train(X, good, ["left", "right"], ["z1", "z2"]), path)
    with pytest.raises(ModelFormatError, match="not a projection model"):
        read_projection_model(path)


def test_projection_file_bytes_survive_a_read_write_cycle(tmp_path):
    rng = np.random.default_rng(71)
    data = rng.lognormal(sigma=2.0, size=(40, 3))
    names = ["a", "b", "c"]
    params = fit_normalization(data, names)
    model = fit_projection(apply_normalization(params, data, names), names, params)
    first, second = tmp_path / "first.isa", tmp_path / "second.isa"
    write_projection_model(model, first, {"tool": "t", "config": "c"})
    write_projection_model(read_projection_model(first), second, {"tool": "t", "config": "c"})
    assert first.read_bytes() == second.read_bytes()


# -------------------------------------------------------------- geometry


def test_unit_square_hull_area_and_orientation():
    pts = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.25, 0.75]], dtype=float
    )
    hull = convex_hull(pts)
    assert hull.shape == (4, 2)
    assert polygon_area(hull) == pytest.approx(1.0)
    # counter-clockwise: the shoelace sum is positive
    assert polygon_area(hull) > 0
    assert set(map(tuple, hull)) == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_three_point_hull_is_the_triangle():
    pts = np.array([[0, 0], [4, 0], [0, 3]], dtype=float)
    hull = convex_hull(pts)
    assert set(map(tuple, hull)) == set(map(tuple, pts))
    assert polygon_area(hull) == pytest.approx(6.0)


def test_hull_area_matches_qhull_on_gaussian_cloud():
    rng = np.random.default_rng(53)
    pts = rng.normal(size=(1000, 2))
    hull = convex_hull(pts)
    reference = scipy.spatial.ConvexHull(pts)
    assert polygon_area(hull) == pytest.approx(reference.volume, abs=1e-9)
    assert hull.shape[0] == len(reference.vertices)


def test_hull_contains_every_input_point():
    rng = np.random.default_rng(59)
    pts = rng.normal(size=(300, 2))
    hull = convex_hull(pts)
    assert points_in_polygon(pts, hull).all()


def test_hull_degenerate_inputs_raise():
    with pytest.raises(GeometryError):
        convex_hull(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(GeometryError):
        convex_hull(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    with pytest.raises(GeometryError):
        convex_hull(np.array([[0.0, np.nan], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(GeometryError):
        convex_hull(np.zeros((4, 3)))


def test_boundary_points_count_as_inside():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    probes = np.array([[0.5, 0.0], [0.0, 0.0], [0.5, 0.5], [1.1, 0.5]])
    assert points_in_polygon(probes, square).tolist() == [True, True, True, False]


def test_footprint_over_all_good_points_covers_the_boundary():
    rng = np.random.default_rng(61)
    pts = rng.normal(size=(200, 2))
    good = np.ones(200, dtype=bool)
    fp = footprint("exact", pts, good)
    boundary = cloister_boundary(pts)
    assert fp.solver_id == "exact"
    assert fp.area == pytest.approx(polygon_area(boundary))
    assert fp.purity == 1.0
    assert fp.density == pytest.approx(200 / fp.area)
    assert not fp.empty


def test_footprint_with_too_few_good_points_is_empty():
    pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    good = np.array([True, True, False, False])
    fp = footprint("greedy", pts, good)
    assert fp.empty
    assert fp.polygon == ()
    assert (fp.area, fp.density, fp.purity) == (0.0, 0.0, 0.0)


def test_footprint_collinear_good_points_is_empty():
    pts = np.array([[0, 0], [1, 1], [2, 2], [5, 0]], dtype=float)
    good = np.array([True, True, True, False])
    fp = footprint("greedy", pts, good)
    assert fp.empty and fp.area == 0.0


def test_footprint_three_good_points_is_their_triangle():
    pts = np.array([[0, 0], [2, 0], [0, 2], [5, 5], [6, 6]], dtype=float)
    good = np.array([True, True, True, False, False])
    fp = footprint("exact", pts, good)
    assert set(fp.polygon) == {(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)}
    assert fp.area == pytest.approx(2.0)
    assert fp.purity == 1.0  # no bad instance falls inside the triangle


def test_footprint_purity_matches_bruteforce_oracle():
    rng = np.random.default_rng(67)
    pts = rng.uniform(-1, 1, size=(1000, 2))
    good = rng.random(1000) < 0.5
    fp = footprint("fastwclq-like", pts, good)
    inside = [point_in_polygon_bruteforce(p, fp.polygon) for p in pts]
    good_inside = sum(1 for i, flag in enumerate(inside) if flag and good[i])
    all_inside = sum(inside)
    assert fp.purity == good_inside / all_inside
    assert fp.density == pytest.approx(int(good.sum()) / fp.area)


def test_footprint_area_never_exceeds_boundary_area():
    rng = np.random.default_rng(71)
    pts = rng.normal(size=(150, 2))
    boundary_area = polygon_area(cloister_boundary(pts))
    for seed in range(5):
        good = np.random.default_rng(seed).random(150) < 0.4
        fp = footprint("s", pts, good)
        assert fp.area <= boundary_area + 1e-12


def test_footprint_polygon_vertices_are_good_points():
    rng = np.random.default_rng(73)
    pts = rng.normal(size=(60, 2))
    good = rng.random(60) < 0.5
    fp = footprint("exact", pts, good)
    good_set = {tuple(p) for p in pts[good]}
    assert set(fp.polygon) <= good_set
