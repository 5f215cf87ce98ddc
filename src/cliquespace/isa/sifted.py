"""Two-stage feature selection: performance correlation, then clustering.

Stage 1 keeps features whose absolute Pearson correlation with at least
one solver's performance measure reaches the threshold.  Stage 2 groups
the survivors by similarity (distance 1 - |corr| between feature
columns) with k-medoids, picking the cluster count in [2, 10] that
maximizes the mean silhouette, and returns one medoid per cluster.  The
procedure is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SiftedResult", "sifted_select"]

_K_RANGE_MAX = 10


@dataclass(frozen=True)
class SiftedResult:
    selected: tuple[str, ...]  # medoid features, input-column order
    kept_stage1: tuple[str, ...]
    correlations: dict[str, float]  # max-over-solvers |corr| per feature
    k: int  # chosen cluster count (0 when stage 2 was skipped)
    silhouette: float  # mean silhouette at the chosen k (nan when skipped)
    diagnostic: str = ""


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Correlation that treats constant columns as uncorrelated."""
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da**2).sum() * (db**2).sum())
    if denom == 0.0:
        return 0.0
    return float((da * db).sum() / denom)


def _feature_distance_matrix(columns: np.ndarray) -> np.ndarray:
    f = columns.shape[1]
    centered = columns - columns.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = centered / safe
    corr = unit.T @ unit
    corr[norms == 0.0, :] = 0.0
    corr[:, norms == 0.0] = 0.0
    np.fill_diagonal(corr, 1.0)
    return 1.0 - np.abs(np.clip(corr, -1.0, 1.0))


def _pam(dist: np.ndarray, k: int) -> tuple[list[int], np.ndarray]:
    """Deterministic k-medoids (BUILD + best-improvement SWAP)."""
    n = dist.shape[0]
    medoids = [int(np.argmin(dist.sum(axis=1)))]
    while len(medoids) < k:
        current = dist[:, medoids].min(axis=1)
        gains = np.maximum(current[:, None] - dist, 0.0).sum(axis=0)
        gains[medoids] = -np.inf
        medoids.append(int(np.argmax(gains)))
    medoids = sorted(medoids)

    def cost(meds: list[int]) -> float:
        return float(dist[:, meds].min(axis=1).sum())

    best_cost = cost(medoids)
    improved = True
    while improved:
        improved = False
        best_swap = None
        for mi, m in enumerate(medoids):
            for h in range(n):
                if h in medoids:
                    continue
                trial = medoids[:mi] + [h] + medoids[mi + 1 :]
                c = cost(trial)
                if c < best_cost - 1e-12:
                    best_cost = c
                    best_swap = (mi, h)
        if best_swap is not None:
            mi, h = best_swap
            medoids[mi] = h
            medoids.sort()
            improved = True
    assignment = np.argmin(dist[:, medoids], axis=1)
    # each medoid stays in its own cluster, even when tied at distance 0
    assignment[medoids] = np.arange(k)
    return medoids, assignment


def _mean_silhouette(dist: np.ndarray, assignment: np.ndarray, k: int) -> float:
    n = dist.shape[0]
    scores = np.zeros(n)
    for i in range(n):
        own = assignment == assignment[i]
        own_others = own.copy()
        own_others[i] = False
        if not own_others.any():
            scores[i] = 0.0  # singleton cluster convention
            continue
        a = dist[i, own_others].mean()
        b = np.inf
        for c in range(k):
            if c == assignment[i]:
                continue
            members = assignment == c
            if members.any():
                b = min(b, dist[i, members].mean())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def sifted_select(
    features: np.ndarray,
    feature_names,
    y: np.ndarray,
    threshold: float = 0.8,
) -> SiftedResult:
    """Select a small, de-correlated, performance-relevant feature subset.

    ``features`` is instances x features (normalized), ``y`` is
    instances x solvers.  Non-finite y entries (failed runs) are masked
    pairwise when computing correlations.  Returns an empty selection
    with a diagnostic when nothing reaches the threshold.
    """
    features = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float)
    feature_names = tuple(feature_names)
    if features.ndim != 2 or features.shape[1] != len(feature_names):
        raise ValueError("feature matrix does not match feature names")
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != features.shape[0]:
        raise ValueError("feature matrix and y are not aligned on instances")
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must lie in [0, 1)")

    correlations: dict[str, float] = {}
    for j, name in enumerate(feature_names):
        best = 0.0
        for s in range(y.shape[1]):
            mask = np.isfinite(y[:, s])
            if mask.sum() < 2:
                continue
            best = max(best, abs(_pearson(features[mask, j], y[mask, s])))
        correlations[name] = best

    kept_idx = [j for j, name in enumerate(feature_names) if correlations[name] >= threshold]
    kept = tuple(feature_names[j] for j in kept_idx)
    if len(kept) <= 2:
        # nothing to cluster: the survivors, if any, are already the selection
        return SiftedResult(
            selected=kept,
            kept_stage1=kept,
            correlations=correlations,
            k=0,
            silhouette=float("nan"),
            diagnostic=(
                "stage 2 skipped: 2 or fewer features survived stage 1"
                if kept
                else f"no feature reached |corr| >= {threshold}; "
                f"best was {max(correlations.values()):.4f}"
            ),
        )

    dist = _feature_distance_matrix(features[:, kept_idx])
    best_k, best_sil, best_medoids = 0, -np.inf, None
    for k in range(2, min(_K_RANGE_MAX, len(kept)) + 1):
        medoids, assignment = _pam(dist, k)
        sil = _mean_silhouette(dist, assignment, k)
        if sil > best_sil + 1e-12:
            best_k, best_sil, best_medoids = k, sil, medoids
    selected = tuple(kept[m] for m in sorted(best_medoids))
    return SiftedResult(
        selected=selected,
        kept_stage1=kept,
        correlations=correlations,
        k=best_k,
        silhouette=best_sil,
    )
