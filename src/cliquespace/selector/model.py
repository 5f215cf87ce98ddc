"""Per-solver classifier bank: training, ranking prediction, top-k scoring.

One binary RBF classifier per solver is trained on that solver's
good/bad labels (one-vs-rest over the portfolio), with hyperparameters
chosen by stratified cross-validation maximizing mean F1.  Solvers whose
labels are degenerate (fewer than two good or two bad instances) get a
constant-score classifier equal to their empirical good rate, which
keeps them present in rankings; when every solver's labels are
degenerate, the bank ranks the portfolio by good rate alone.
Prediction ranks solvers by descending decision value with
lexicographic tie-breaks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..artifacts import read_model, write_model
from ..errors import ModelFormatError, SelectorError
from .svm import SvmClassifier, train_svm

DEFAULT_GRID = tuple(
    (c, g) for c in (0.1, 1.0, 10.0, 100.0) for g in (0.01, 0.1, 1.0)
)


@dataclass(frozen=True)
class PriorClassifier:
    """Constant decision value: the solver's empirical good rate."""

    rate: float

    def decision(self, x) -> np.ndarray:
        """One decision value per row of ``x``."""
        return np.full(np.atleast_2d(np.asarray(x, dtype=float)).shape[0], self.rate)


@dataclass(frozen=True)
class SelectorModel:
    input_space: str  # "z" or "features"
    feature_names: tuple[str, ...]
    solver_ids: tuple[str, ...]
    classifiers: dict
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PredictionReport:
    instance_ids: tuple[str, ...]
    rankings: tuple[tuple[tuple[str, float], ...], ...]
    actual_best: tuple[str, ...]
    accuracies: dict  # k -> top-k accuracy over the corpus

    @property
    def top1(self) -> tuple[str, ...]:
        return tuple(r[0][0] for r in self.rankings)

    @property
    def top1_accuracy(self) -> float:
        return self.accuracies[1]

    @property
    def top2_accuracy(self) -> float:
        return self.accuracies.get(2, self.accuracies[max(self.accuracies)])


def _stratified_folds(labels: np.ndarray, n_folds: int, rng: random.Random):
    """Validation index lists, each holding >= 1 sample of both classes."""
    pos = [i for i, flag in enumerate(labels) if flag]
    neg = [i for i, flag in enumerate(labels) if not flag]
    rng.shuffle(pos)
    rng.shuffle(neg)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for pool in (pos, neg):
        for pos_idx, sample in enumerate(pool):
            folds[pos_idx % n_folds].append(sample)
    return [sorted(fold) for fold in folds]


def _f1(actual: np.ndarray, predicted: np.ndarray) -> float:
    tp = int((actual & predicted).sum())
    fp = int((~actual & predicted).sum())
    fn = int((actual & ~predicted).sum())
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def train(
    inputs: np.ndarray,
    good: np.ndarray,
    solver_ids,
    feature_names,
    input_space: str = "z",
    seed: int = 0,
) -> SelectorModel:
    """Fit the per-solver classifier bank.

    ``inputs`` is instances x dims; ``good`` is instances x solvers
    boolean.  Hyperparameters per solver are picked by stratified
    k-fold (k = min(5, #good, #bad)) cross-validation maximizing mean
    F1, then the classifier is refit on the full corpus.  Deterministic
    given ``seed``.
    """
    X = np.asarray(inputs, dtype=float)
    good = np.asarray(good, dtype=bool)
    solver_ids = tuple(solver_ids)
    feature_names = tuple(feature_names)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise SelectorError("input matrix does not match feature names")
    if X.shape[0] < 10:
        raise SelectorError("training needs at least 10 instances")
    if not np.isfinite(X).all():
        raise SelectorError("non-finite training inputs")
    if good.shape != (X.shape[0], len(solver_ids)):
        raise SelectorError("good-label matrix does not match corpus x portfolio")
    if input_space not in ("z", "features"):
        raise SelectorError(f"unknown input space {input_space!r}")

    classifiers: dict = {}
    metadata: dict = {}
    for s, solver_id in enumerate(solver_ids):
        labels = good[:, s]
        n_pos = int(labels.sum())
        n_neg = int((~labels).sum())
        if n_pos < 2 or n_neg < 2:
            classifiers[solver_id] = PriorClassifier(rate=n_pos / labels.shape[0])
            metadata[f"hyper.{solver_id}"] = "prior"
            continue
        rng = random.Random(f"{seed}:{solver_id}")
        n_folds = min(5, n_pos, n_neg)
        folds = _stratified_folds(labels, n_folds, rng)
        y_signed = np.where(labels, 1.0, -1.0)
        best_score, best_hyper = -1.0, DEFAULT_GRID[0]
        for c_val, gamma in DEFAULT_GRID:
            scores = []
            for fold in folds:
                val_mask = np.zeros(X.shape[0], dtype=bool)
                val_mask[fold] = True
                clf = train_svm(X[~val_mask], y_signed[~val_mask], C=c_val, gamma=gamma)
                predicted = clf.decision(X[val_mask]) > 0
                scores.append(_f1(labels[val_mask], predicted))
            mean_f1 = float(np.mean(scores))
            if mean_f1 > best_score + 1e-12:
                best_score, best_hyper = mean_f1, (c_val, gamma)
        c_val, gamma = best_hyper
        classifiers[solver_id] = train_svm(X, y_signed, C=c_val, gamma=gamma)
        metadata[f"hyper.{solver_id}"] = f"C={c_val:g} gamma={gamma:g} cv_f1={best_score:.4f}"
    return SelectorModel(
        input_space=input_space,
        feature_names=feature_names,
        solver_ids=solver_ids,
        classifiers=classifiers,
        metadata=metadata,
    )


def predict(model: SelectorModel, x) -> list[tuple[str, float]]:
    """Rank the portfolio for one instance, best first."""
    x = np.asarray(x, dtype=float)
    dims = len(model.feature_names)
    if x.shape != (dims,):
        raise SelectorError(f"expected {dims} input values, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise SelectorError("non-finite prediction input")
    scored = [
        (solver_id, float(model.classifiers[solver_id].decision(x)[0]))
        for solver_id in model.solver_ids
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def evaluate_topk(
    model: SelectorModel,
    inputs: np.ndarray,
    actual_best,
    k: int,
    instance_ids=None,
) -> PredictionReport:
    """Top-k accuracy of the model against ground-truth best solvers."""
    X = np.asarray(inputs, dtype=float)
    actual_best = tuple(actual_best)
    if X.shape[0] == 0:
        raise SelectorError("empty test corpus")
    if X.shape[0] != len(actual_best):
        raise SelectorError("inputs and actual_best are not aligned")
    if not 1 <= k <= len(model.solver_ids):
        raise SelectorError(f"k must be in [1, {len(model.solver_ids)}]")
    if instance_ids is None:
        instance_ids = tuple(f"instance{i}" for i in range(X.shape[0]))
    rankings = tuple(tuple(predict(model, X[i])) for i in range(X.shape[0]))
    accuracies = {}
    for kk in range(1, len(model.solver_ids) + 1):
        hits = sum(
            actual in {sid for sid, _ in ranking[:kk]}
            for ranking, actual in zip(rankings, actual_best)
        )
        accuracies[kk] = hits / len(actual_best)
    return PredictionReport(
        instance_ids=tuple(instance_ids),
        rankings=rankings,
        actual_best=actual_best,
        accuracies=accuracies,
    )


def _classifier_body(solver_id: str, clf) -> dict:
    if isinstance(clf, PriorClassifier):
        return {"id": solver_id, "kind": "prior", "rate": clf.rate}
    return {
        "id": solver_id,
        "kind": "svm",
        "C": clf.hyper_c,
        "gamma": clf.gamma,
        "bias": clf.bias,
        "dual_coef": clf.dual_coef.tolist(),
        "support_vectors": clf.support_vectors.tolist(),
    }


def _classifier_from_body(spec: dict, n_features: int):
    if spec["kind"] == "prior":
        return PriorClassifier(rate=float(spec["rate"]))
    if spec["kind"] != "svm":
        raise ValueError(f"unknown classifier kind {spec['kind']!r}")
    rows = spec["support_vectors"]
    if any(len(row) != n_features for row in rows):
        raise ValueError(f"{spec['id']}: a support vector does not have {n_features} values")
    return SvmClassifier(
        support_vectors=np.array(rows, dtype=float).reshape(len(rows), n_features),
        dual_coef=np.array(spec["dual_coef"], dtype=float).reshape(len(rows)),
        bias=float(spec["bias"]),
        gamma=float(spec["gamma"]),
        hyper_c=float(spec["C"]),
    )


def write_selector_model(
    model: SelectorModel, path: str | Path, file_meta: dict | None = None
) -> None:
    body = {
        "input_space": model.input_space,
        "metadata": {key: str(model.metadata[key]) for key in sorted(model.metadata)},
        "features": list(model.feature_names),
        "solvers": [_classifier_body(s, model.classifiers[s]) for s in model.solver_ids],
    }
    write_model(path, "selector", body, file_meta)


def read_selector_model(path: str | Path) -> SelectorModel:
    body = read_model(path, "selector")
    try:
        feature_names = tuple(body["features"])
        solvers = body["solvers"]
        return SelectorModel(
            input_space=body["input_space"],
            feature_names=feature_names,
            solver_ids=tuple(spec["id"] for spec in solvers),
            classifiers={
                spec["id"]: _classifier_from_body(spec, len(feature_names)) for spec in solvers
            },
            metadata=dict(body["metadata"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed selector model ({exc!r})") from exc
