"""Per-solver classifier training, ranking prediction, and top-k scoring."""

import json
import random
import re

import numpy as np
import pytest
from scipy.optimize import minimize

from cliquespace.errors import ModelFormatError, SelectorError
from cliquespace.isa import load_external_matrix, write_projection_model
from cliquespace.selector import (
    DEFAULT_GRID,
    PriorClassifier,
    SelectorModel,
    balanced_weights,
    evaluate_topk,
    predict,
    rbf_kernel,
    read_selector_model,
    svm,
    train,
    train_svm,
    write_selector_model,
)
from cliquespace.selector.model import _stratified_folds


def two_blobs(n_per_side=20, seed=0):
    """Two well-separated Gaussian clusters in the plane.

    Left instances are good for solver "left" only, right instances for
    solver "right" only, so the ground-truth best solver is the blob id.
    """
    rng = np.random.default_rng(seed)
    left = rng.normal(loc=(-3.0, 0.0), scale=0.4, size=(n_per_side, 2))
    right = rng.normal(loc=(3.0, 0.0), scale=0.4, size=(n_per_side, 2))
    X = np.vstack([left, right])
    good = np.zeros((2 * n_per_side, 2), dtype=bool)
    good[:n_per_side, 0] = True
    good[n_per_side:, 1] = True
    best = ("left",) * n_per_side + ("right",) * n_per_side
    return X, good, best


# ----------------------------------------------------------------- svm core


def test_rbf_kernel_values():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    k = rbf_kernel(a, a, gamma=0.5)
    assert k[0, 0] == pytest.approx(1.0)
    assert k[0, 1] == pytest.approx(np.exp(-0.5))
    assert np.array_equal(k, k.T)


def test_balanced_weights_inverse_to_class_size():
    y = np.array([1.0, 1.0, 1.0, -1.0])
    w = balanced_weights(y)
    assert w[:3] == pytest.approx(4 / (2 * 3))
    assert w[3] == pytest.approx(4 / (2 * 1))


def test_svm_separates_two_clusters():
    rng = np.random.default_rng(1)
    X = np.vstack(
        [rng.normal(-2, 0.3, size=(15, 2)), rng.normal(2, 0.3, size=(15, 2))]
    )
    y = np.array([-1.0] * 15 + [1.0] * 15)
    clf = train_svm(X, y, C=10.0, gamma=0.5)
    scores = clf.decision(X)
    assert ((scores > 0) == (y > 0)).all()
    assert clf.support_vectors.shape[0] >= 1


def test_svm_decision_is_one_value_per_row():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    clf = train_svm(X, y, C=1.0, gamma=1.0)
    assert clf.decision(np.array([2.5])).shape == (1,)
    assert PriorClassifier(0.5).decision(np.array([2.5])).shape == (1,)


def _dual_objective(alpha, Q):
    return 0.5 * alpha @ Q @ alpha - alpha.sum()


@pytest.mark.parametrize("C, gamma", [(1.0, 1.0), (10.0, 0.1), (0.1, 0.01)])
def test_svm_reaches_the_dual_optimum(C, gamma):
    # min 1/2 a'Qa - 1'a  s.t.  y'a = 0, 0 <= a <= C * w, with Q = K * y y'
    for seed in range(6):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 3))
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=30) > 0.3, 1.0, -1.0)
        clf = train_svm(X, y, C=C, gamma=gamma)
        box = C * balanced_weights(y)
        Q = rbf_kernel(X, X, gamma) * np.outer(y, y)
        alpha = np.zeros(30)
        for sv, coef in zip(clf.support_vectors, clf.dual_coef):
            alpha[np.flatnonzero((X == sv).all(axis=1))] = abs(coef)
        assert (alpha >= 0.0).all() and (alpha <= box).all()
        assert abs(alpha @ y) <= 1e-9

        # KKT: max over I_up of -y*grad minus min over I_low stays within tolerance
        score = -y * (Q @ alpha - 1.0)
        up = np.where(y > 0, alpha < box, alpha > 0.0)
        low = np.where(y > 0, alpha > 0.0, alpha < box)
        assert score[up].max() - score[low].min() <= 1e-3 + 1e-9

        reference = minimize(
            lambda a: _dual_objective(a, Q),
            np.zeros(30),
            jac=lambda a: Q @ a - 1.0,
            bounds=list(zip(np.zeros(30), box)),
            constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
            method="SLSQP",
            options={"maxiter": 1000, "ftol": 1e-12},
        )
        assert reference.success
        best = min(reference.fun, _dual_objective(alpha, Q))
        assert _dual_objective(alpha, Q) - best <= 1e-4 * abs(best)


def test_svm_records_a_fit_that_stops_at_the_step_limit():
    # a fifth of the labels flipped, at C = 100 and gamma = 1: the gap stays
    # above the tolerance after all 100,000 steps
    rng = np.random.default_rng(0)
    X = rng.normal(size=(800, 2))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    y[rng.random(800) < 0.2] *= -1
    assert not train_svm(X, y, C=100.0, gamma=1.0).converged
    # a small separable corpus converges
    X, good, _ = two_blobs(seed=3)
    assert train_svm(X, np.where(good[:, 0], 1.0, -1.0), C=10.0, gamma=0.5).converged


# ---------------------------------------------------------------- training


def test_separable_corpus_top1_is_perfect():
    X, good, best = two_blobs()
    model = train(X, good, ["left", "right"], ["z1", "z2"], seed=0)
    report = evaluate_topk(model, X, best, k=1)
    assert report.top1_accuracy == 1.0
    assert report.top1 == best


def test_full_portfolio_topk_is_always_one():
    X, good, best = two_blobs(seed=3)
    model = train(X, good, ["left", "right"], ["z1", "z2"], seed=1)
    report = evaluate_topk(model, X, best, k=2)
    assert report.accuracies[2] == 1.0


def test_topk_accuracy_is_monotone_in_k():
    X, good, best = two_blobs(seed=5)
    model = train(X, good, ["left", "right"], ["z1", "z2"], seed=2)
    report = evaluate_topk(model, X, best, k=1)
    ks = sorted(report.accuracies)
    assert all(
        report.accuracies[a] <= report.accuracies[b] for a, b in zip(ks, ks[1:])
    )


def test_shuffled_labels_score_near_chance():
    # labels carry no signal, so held-out top-1 can only hit by luck
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 2))
    good = np.zeros((80, 2), dtype=bool)
    coin = rng.random(80) < 0.5
    good[coin, 0] = True
    good[~coin, 1] = True
    model = train(X[:40], good[:40], ["a", "b"], ["z1", "z2"], seed=4)
    actual = tuple("a" if flag else "b" for flag in coin[40:])
    report = evaluate_topk(model, X[40:], actual, k=1)
    sigma = np.sqrt(0.25 / 40)
    assert abs(report.top1_accuracy - 0.5) <= 3 * sigma


def test_constant_rankings_hit_uniform_truth_at_chance():
    rng = np.random.default_rng(13)
    solver_ids = ("a", "b", "c", "d")
    model = SelectorModel(
        feature_names=("z1", "z2"),
        solver_ids=solver_ids,
        classifiers={
            "a": PriorClassifier(0.4),
            "b": PriorClassifier(0.3),
            "c": PriorClassifier(0.2),
            "d": PriorClassifier(0.1),
        },
    )
    n = 400
    X = rng.normal(size=(n, 2))
    actual = tuple(rng.choice(solver_ids) for _ in range(n))
    report = evaluate_topk(model, X, actual, k=1)
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(report.top1_accuracy - 0.25) <= 3 * sigma
    # every ranking is identical: priors ignore the input point
    assert len({r for r in report.rankings}) == 1


def test_cross_validation_folds_partition_and_stratify():
    _, good, _ = two_blobs(n_per_side=13, seed=17)
    for s, solver_id in enumerate(("left", "right")):
        labels = good[:, s]
        # the folds train() draws for this solver at seed 5
        folds = _stratified_folds(labels, 5, random.Random(f"5:{solver_id}"))
        assert len(folds) == 5
        flat = [i for fold in folds for i in fold]
        assert sorted(flat) == list(range(26))  # a partition: no repeats
        for fold in folds:
            held = labels[fold]
            assert held.any() and not held.all()  # both classes present


def test_training_is_deterministic(tmp_path):
    X, good, best = two_blobs(seed=19)
    once = train(X, good, ["left", "right"], ["z1", "z2"], seed=7)
    again = train(X, good, ["left", "right"], ["z1", "z2"], seed=7)
    p1, p2 = tmp_path / "m1.isa", tmp_path / "m2.isa"
    write_selector_model(once, p1)
    write_selector_model(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    probe = np.array([0.3, -0.7])
    assert predict(once, probe) == predict(again, probe)


def test_hyperparameters_recorded_per_solver():
    X, good, _ = two_blobs(seed=23)
    model = train(X, good, ["left", "right"], ["z1", "z2"], seed=0)
    for solver_id in ("left", "right"):
        line = model.metadata[f"hyper.{solver_id}"]
        assert "C=" in line and "gamma=" in line


def test_fits_stopped_at_the_step_limit_are_counted_per_solver(monkeypatch):
    X, good, _ = two_blobs(seed=23)
    plain = train(X, good, ["left", "right"], ["z1", "z2"], seed=0)
    assert not any("unconverged" in v for v in plain.metadata.values())
    assert plain.unconverged_fits == 0
    monkeypatch.setattr(svm, "_MAX_STEPS", 1)  # no fit meets the tolerance in one step
    model = train(X, good, ["left", "right"], ["z1", "z2"], seed=0)
    # 5 folds at each of the 12 grid points, then the refit
    for solver_id in ("left", "right"):
        assert model.metadata[f"hyper.{solver_id}"].endswith(" unconverged_fits=61")
    assert model.unconverged_fits == 122


def test_degenerate_solver_gets_prior_classifier():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(12, 2))
    good = np.zeros((12, 2), dtype=bool)
    good[:6, 0] = True  # trainable
    good[3, 1] = True  # single positive: degenerate
    model = train(X, good, ["svm", "rare"], ["z1", "z2"], seed=0)
    clf = model.classifiers["rare"]
    assert isinstance(clf, PriorClassifier)
    assert clf.rate == pytest.approx(1 / 12)
    ranking = predict(model, X[0])
    assert {sid for sid, _ in ranking} == {"svm", "rare"}
    scored = dict(ranking)
    assert scored["rare"] == pytest.approx(1 / 12)


def test_all_degenerate_portfolio_ranks_by_good_rate():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(12, 2))
    good = np.zeros((12, 3), dtype=bool)
    good[:, :2] = True  # no negatives for "zeta" or "alpha"
    good[4, 2] = True  # a single positive for "mid"
    model = train(X, good, ["zeta", "alpha", "mid"], ["z1", "z2"], seed=0)
    assert all(isinstance(clf, PriorClassifier) for clf in model.classifiers.values())
    for x in X:
        # equal good rates break toward the smaller id
        assert predict(model, x) == [("alpha", 1.0), ("zeta", 1.0), ("mid", 1 / 12)]


def test_training_preconditions():
    X, good, _ = two_blobs(n_per_side=4, seed=37)  # only 8 instances
    with pytest.raises(SelectorError, match="10"):
        train(X, good, ["a", "b"], ["z1", "z2"], seed=0)
    X, good, _ = two_blobs(seed=37)
    with pytest.raises(SelectorError):
        train(X, good, ["a", "b"], ["z1"], seed=0)  # names misaligned
    with pytest.raises(SelectorError):
        train(X, good[:, :1], ["a", "b"], ["z1", "z2"], seed=0)
    with pytest.raises(SelectorError):
        train(X, good, ["a", "b"], ["z1", "z2"], input_space="bogus", seed=0)
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(SelectorError):
        train(bad, good, ["a", "b"], ["z1", "z2"], seed=0)


def test_prediction_input_validation():
    X, good, _ = two_blobs(seed=41)
    model = train(X, good, ["a", "b"], ["z1", "z2"], seed=0)
    with pytest.raises(SelectorError):
        predict(model, np.array([1.0]))
    with pytest.raises(SelectorError):
        predict(model, np.array([np.nan, 0.0]))


def test_prediction_ties_break_lexicographically():
    model = SelectorModel(
        feature_names=("z1",),
        solver_ids=("zeta", "alpha", "mid"),
        classifiers={
            "zeta": PriorClassifier(0.5),
            "alpha": PriorClassifier(0.5),
            "mid": PriorClassifier(0.1),
        },
    )
    ranking = predict(model, np.array([0.0]))
    assert [sid for sid, _ in ranking] == ["alpha", "zeta", "mid"]


def test_evaluate_topk_validation():
    X, good, best = two_blobs(seed=43)
    model = train(X, good, ["left", "right"], ["z1", "z2"], seed=0)
    with pytest.raises(SelectorError):
        evaluate_topk(model, X, best, k=0)
    with pytest.raises(SelectorError):
        evaluate_topk(model, X, best, k=3)
    with pytest.raises(SelectorError):
        evaluate_topk(model, X, best[:-1], k=1)
    with pytest.raises(SelectorError):
        evaluate_topk(model, X[:0], (), k=1)


# --------------------------------------------------------------- model file


def test_selector_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(47)
    X, good, _ = two_blobs(seed=47)
    good = np.column_stack([good, np.zeros(40, dtype=bool)])
    good[5, 2] = True  # third solver is degenerate -> prior block
    model = train(X, good, ["left", "right", "rare"], ["z1", "z2"], seed=3)
    path = tmp_path / "selector.isa"
    write_selector_model(model, path)
    loaded = read_selector_model(path)
    assert loaded.feature_names == model.feature_names
    assert loaded.solver_ids == model.solver_ids
    assert loaded.metadata == {
        k: str(v) for k, v in model.metadata.items()
    }
    for probe in rng.normal(size=(10, 2)):
        assert predict(loaded, probe) == predict(model, probe)


def test_selector_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.isa"
    path.write_text("something else entirely\n")
    with pytest.raises(ModelFormatError):
        read_selector_model(path)
    X, good, _ = two_blobs(seed=53)
    model = train(X, good, ["left", "right"], ["z1", "z2"], seed=0)
    write_selector_model(model, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")  # drop sv rows and end marker
    with pytest.raises(ModelFormatError):
        read_selector_model(path)


V1_SELECTOR = """\
# tool=cliquespace/0.1.0
cliquespace-selector-model v1
input_space z
features 2
feature z1
feature z2
solvers 1
solver left prior rate=0.5
end
"""


def test_selector_v1_text_file_asks_for_retraining(tmp_path):
    path = tmp_path / "selector.isa"
    path.write_text(V1_SELECTOR)
    with pytest.raises(ModelFormatError) as info:
        read_selector_model(path)
    assert str(path) in str(info.value)
    assert "delete it" in str(info.value) and "train" in str(info.value)


def test_selector_file_rejects_misshapen_classifiers(tmp_path):
    X, good, _ = two_blobs(seed=59)
    model = train(X, good, ["left", "right"], ["z1", "z2"], seed=0)
    path = tmp_path / "selector.isa"
    write_selector_model(model, path)
    good_body = json.loads(path.read_text())
    assert good_body["solvers"][0]["kind"] == "svm"

    def edited(edit):
        body = json.loads(json.dumps(good_body))
        edit(body["solvers"][0])
        path.write_text(json.dumps(body) + "\n")
        return path

    for edit in (
        lambda clf: clf["support_vectors"][0].pop(),  # a row with too few values
        lambda clf: clf["support_vectors"][1].append(0.0),  # a row with too many
        lambda clf: clf["dual_coef"].pop(),  # one coefficient short
        lambda clf: clf.update(kind="tree"),
        lambda clf: clf.pop("bias"),
        lambda clf: clf.update(gamma="wide"),
    ):
        with pytest.raises(ModelFormatError, match=re.escape(str(path))):
            read_selector_model(edited(edit))


def test_selector_file_over_feature_space_asks_for_retraining(tmp_path):
    X, good, _ = two_blobs(seed=67)
    path = tmp_path / "selector.isa"
    write_selector_model(train(X, good, ["left", "right"], ["z1", "z2"], seed=0), path)
    body = json.loads(path.read_text())
    path.write_text(json.dumps(dict(body, input_space="features")) + "\n")
    with pytest.raises(ModelFormatError) as info:
        read_selector_model(path)
    assert str(path) in str(info.value)
    assert "delete it" in str(info.value) and "train" in str(info.value)


def test_selector_file_with_a_z_input_space_key_still_reads(tmp_path):
    # every file written before the single input space says "input_space": "z"
    X, good, _ = two_blobs(seed=71)
    without = tmp_path / "without.isa"
    write_selector_model(train(X, good, ["left", "right"], ["z1", "z2"], seed=0), without)
    body = json.loads(without.read_text())
    assert "input_space" not in body
    with_key = tmp_path / "with.isa"
    with_key.write_text(json.dumps(dict(body, input_space="z")) + "\n")
    old, new = read_selector_model(with_key), read_selector_model(without)
    assert old.feature_names == new.feature_names and old.metadata == new.metadata
    for probe in np.random.default_rng(71).normal(size=(10, 2)):
        assert predict(old, probe) == predict(new, probe)


def test_projection_file_is_not_a_selector(tmp_path):
    path = tmp_path / "projection.isa"
    write_projection_model(load_external_matrix(np.eye(2), ("z1", "z2")), path)
    with pytest.raises(ModelFormatError, match="not a selector model"):
        read_selector_model(path)


def test_selector_file_bytes_survive_a_read_write_cycle(tmp_path):
    X, good, _ = two_blobs(seed=61)
    good = np.column_stack([good, np.zeros(40, dtype=bool)])  # "rare" gets a prior
    model = train(X, good, ["left", "right", "rare"], ["z1", "z2"], seed=5)
    first, second = tmp_path / "first.isa", tmp_path / "second.isa"
    write_selector_model(model, first, {"tool": "t", "config": "c"})
    write_selector_model(read_selector_model(first), second, {"tool": "t", "config": "c"})
    assert first.read_bytes() == second.read_bytes()


def test_default_grid_contents():
    assert len(DEFAULT_GRID) == 12
    assert (0.1, 0.01) == DEFAULT_GRID[0]
    assert {c for c, _ in DEFAULT_GRID} == {0.1, 1.0, 10.0, 100.0}
    assert {g for _, g in DEFAULT_GRID} == {0.01, 0.1, 1.0}
