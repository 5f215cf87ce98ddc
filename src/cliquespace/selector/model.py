"""Per-solver classifier bank: training, ranking prediction, top-k scoring.

One binary RBF classifier per solver is trained on that solver's
good/bad labels (one-vs-rest over the portfolio), with hyperparameters
chosen by stratified cross-validation maximizing mean F1.  Solvers whose
labels are degenerate (fewer than two good or two bad instances) get a
constant-score classifier equal to their empirical good rate, which
keeps them present in rankings.  Prediction ranks solvers by descending
decision value with lexicographic tie-breaks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..artifacts import read_lines, write_lines
from ..errors import ModelFormatError, SelectorError
from .svm import SvmClassifier, balanced_weights, train_svm

DEFAULT_GRID = tuple(
    (c, g) for c in (0.1, 1.0, 10.0, 100.0) for g in (0.01, 0.1, 1.0)
)

_MODEL_MAGIC = "cliquespace-selector-model"
_MODEL_VERSION = 1


@dataclass(frozen=True)
class PriorClassifier:
    """Constant decision value: the solver's empirical good rate."""

    rate: float

    def decision(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        values = np.full(x.shape[0], self.rate)
        return float(values[0]) if values.shape[0] == 1 else values


@dataclass(frozen=True)
class SelectorModel:
    input_space: str  # "z" or "features"
    feature_names: tuple[str, ...]
    solver_ids: tuple[str, ...]
    classifiers: dict
    metadata: dict = field(default_factory=dict)
    fold_log: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def dims(self) -> int:
        return len(self.feature_names)


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
    grid=DEFAULT_GRID,
    seed: int = 0,
    metadata: dict | None = None,
) -> SelectorModel:
    """Fit the per-solver classifier bank.

    ``inputs`` is instances x dims; ``good`` is instances x solvers
    boolean.  Hyperparameters per solver are picked by stratified
    k-fold (k = min(5, #good, #bad)) cross-validation maximizing mean
    F1, then the classifier is refit on the full corpus.  Deterministic
    given ``seed``; validation fold indices are kept in ``fold_log``.
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
    fold_log: dict = {}
    chosen: dict = {}
    any_svm = False
    for s, solver_id in enumerate(solver_ids):
        labels = good[:, s]
        n_pos = int(labels.sum())
        n_neg = int((~labels).sum())
        if n_pos < 2 or n_neg < 2:
            classifiers[solver_id] = PriorClassifier(rate=n_pos / labels.shape[0])
            chosen[solver_id] = "prior"
            continue
        any_svm = True
        rng = random.Random(f"{seed}:{solver_id}")
        n_folds = min(5, n_pos, n_neg)
        folds = _stratified_folds(labels, n_folds, rng)
        fold_log[solver_id] = folds
        y_signed = np.where(labels, 1.0, -1.0)
        best_score, best_hyper = -1.0, grid[0]
        for c_val, gamma in grid:
            scores = []
            for fold in folds:
                val_mask = np.zeros(X.shape[0], dtype=bool)
                val_mask[fold] = True
                y_train = y_signed[~val_mask]
                clf = train_svm(
                    X[~val_mask],
                    y_train,
                    C=c_val,
                    gamma=gamma,
                    sample_weight=balanced_weights(y_train),
                    seed=seed,
                )
                predicted = np.asarray(clf.decision(X[val_mask])) > 0
                scores.append(_f1(labels[val_mask], predicted))
            mean_f1 = float(np.mean(scores))
            if mean_f1 > best_score + 1e-12:
                best_score, best_hyper = mean_f1, (c_val, gamma)
        c_val, gamma = best_hyper
        classifiers[solver_id] = train_svm(
            X,
            y_signed,
            C=c_val,
            gamma=gamma,
            sample_weight=balanced_weights(y_signed),
            seed=seed,
        )
        chosen[solver_id] = f"C={c_val:g} gamma={gamma:g} cv_f1={best_score:.4f}"
    if not any_svm:
        raise SelectorError(
            "every solver has degenerate labels; nothing trainable in this corpus"
        )
    meta = dict(metadata or {})
    for solver_id, line in chosen.items():
        meta[f"hyper.{solver_id}"] = line
    return SelectorModel(
        input_space=input_space,
        feature_names=feature_names,
        solver_ids=solver_ids,
        classifiers=classifiers,
        metadata=meta,
        fold_log=fold_log,
    )


def predict(model: SelectorModel, x) -> list[tuple[str, float]]:
    """Rank the portfolio for one instance, best first."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dims,):
        raise SelectorError(f"expected {model.dims} input values, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise SelectorError("non-finite prediction input")
    scored = [
        (solver_id, float(model.classifiers[solver_id].decision(x)))
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


def write_selector_model(
    model: SelectorModel, path: str | Path, file_meta: dict | None = None
) -> None:
    lines = [f"{_MODEL_MAGIC} v{_MODEL_VERSION}", f"input_space {model.input_space}"]
    for key in sorted(model.metadata):
        lines.append(f"meta {key}={model.metadata[key]}")
    lines.append(f"features {len(model.feature_names)}")
    lines.extend(f"feature {name}" for name in model.feature_names)
    lines.append(f"solvers {len(model.solver_ids)}")
    for solver_id in model.solver_ids:
        clf = model.classifiers[solver_id]
        if isinstance(clf, PriorClassifier):
            lines.append(f"solver {solver_id} prior rate={clf.rate:.17g}")
            continue
        lines.append(
            "solver {sid} svm C={c:.17g} gamma={g:.17g} bias={b:.17g} supports={m}".format(
                sid=solver_id,
                c=clf.hyper_c,
                g=clf.gamma,
                b=clf.bias,
                m=clf.support_vectors.shape[0],
            )
        )
        for coef, row in zip(clf.dual_coef, clf.support_vectors):
            tokens = [f"{coef:.17g}"] + [f"{v:.17g}" for v in row]
            lines.append("sv " + " ".join(tokens))
    lines.append("end")
    write_lines(path, lines, file_meta)


def read_selector_model(path: str | Path) -> SelectorModel:
    _, body = read_lines(path)
    lines = [ln for ln in body if ln.strip()]
    try:
        header = lines[0].split()
        if header[0] != _MODEL_MAGIC:
            raise ModelFormatError(f"{path}: not a selector model file")
        if header[1] != f"v{_MODEL_VERSION}":
            raise ModelFormatError(f"{path}: unsupported version {header[1]}")
        input_space = lines[1].split()[1]
        cursor = 2
        metadata: dict = {}
        while lines[cursor].startswith("meta "):
            key, value = lines[cursor][5:].split("=", 1)
            metadata[key] = value
            cursor += 1
        n_features = int(lines[cursor].split()[1])
        cursor += 1
        feature_names = []
        for _ in range(n_features):
            feature_names.append(lines[cursor].split(None, 1)[1])
            cursor += 1
        n_solvers = int(lines[cursor].split()[1])
        cursor += 1
        solver_ids = []
        classifiers: dict = {}
        for _ in range(n_solvers):
            parts = lines[cursor].split()
            cursor += 1
            solver_id, kind = parts[1], parts[2]
            fields = dict(p.split("=", 1) for p in parts[3:])
            solver_ids.append(solver_id)
            if kind == "prior":
                classifiers[solver_id] = PriorClassifier(rate=float(fields["rate"]))
                continue
            if kind != "svm":
                raise ModelFormatError(f"{path}: unknown classifier kind {kind!r}")
            m = int(fields["supports"])
            coefs = np.empty(m)
            vecs = np.empty((m, n_features))
            for r in range(m):
                tokens = lines[cursor].split()
                cursor += 1
                if tokens[0] != "sv":
                    raise ModelFormatError(f"{path}: expected sv line")
                coefs[r] = float(tokens[1])
                vecs[r] = [float(t) for t in tokens[2:]]
            classifiers[solver_id] = SvmClassifier(
                support_vectors=vecs,
                dual_coef=coefs,
                bias=float(fields["bias"]),
                gamma=float(fields["gamma"]),
                hyper_c=float(fields["C"]),
            )
        if lines[cursor] != "end":
            raise ModelFormatError(f"{path}: missing end marker")
    except ModelFormatError:
        raise
    except (IndexError, ValueError, KeyError) as exc:
        raise ModelFormatError(f"{path}: malformed selector model ({exc})") from exc
    return SelectorModel(
        input_space=input_space,
        feature_names=tuple(feature_names),
        solver_ids=tuple(solver_ids),
        classifiers=classifiers,
        metadata=metadata,
    )
