"""Robust feature normalization fitted on a training corpus.

Each feature column is handled independently: heavily skewed columns
(|skewness| > 2) first get a sign-preserving log transform
sign(x) * log(1 + |x|), then every column is centered at its median and
scaled by IQR / 1.349 (the robust estimate of one standard deviation).
Columns whose IQR is zero fall back to the standard deviation; columns
that are exactly constant carry no information and are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NormalizationError

_SKEW_THRESHOLD = 2.0
_IQR_TO_SIGMA = 1.349


@dataclass(frozen=True)
class NormalizationParams:
    feature_names: tuple[str, ...]  # retained features, input order
    log_flags: tuple[bool, ...]
    shifts: tuple[float, ...]
    scales: tuple[float, ...]

    def restrict(self, names) -> "NormalizationParams":
        """Parameters for a subset of the retained features, in ``names`` order."""
        index = {n: i for i, n in enumerate(self.feature_names)}
        missing = [n for n in names if n not in index]
        if missing:
            raise NormalizationError(f"features not in normalization: {missing}")
        rows = [index[n] for n in names]
        return NormalizationParams(
            feature_names=tuple(names),
            log_flags=tuple(self.log_flags[i] for i in rows),
            shifts=tuple(self.shifts[i] for i in rows),
            scales=tuple(self.scales[i] for i in rows),
        )


def identity_normalization(names) -> NormalizationParams:
    """Pass-through parameters (no transform); used with external matrices."""
    names = tuple(names)
    return NormalizationParams(
        feature_names=names,
        log_flags=(False,) * len(names),
        shifts=(0.0,) * len(names),
        scales=(1.0,) * len(names),
    )


def _skewness(column: np.ndarray) -> float:
    centered = column - column.mean()
    m2 = float((centered**2).mean())
    if m2 == 0.0:
        return 0.0
    m3 = float((centered**3).mean())
    return m3 / m2**1.5


def _signed_log(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.log1p(np.abs(x))


def fit_normalization(matrix: np.ndarray, feature_names) -> NormalizationParams:
    """Fit per-feature robust normalization on an instances x features matrix."""
    matrix = np.asarray(matrix, dtype=float)
    feature_names = tuple(feature_names)
    if matrix.ndim != 2 or matrix.shape[1] != len(feature_names):
        raise NormalizationError(
            f"matrix shape {matrix.shape} does not match {len(feature_names)} features"
        )
    if matrix.shape[0] < 2:
        raise NormalizationError("normalization needs at least 2 instances")
    if not np.isfinite(matrix).all():
        raise NormalizationError("non-finite feature values in training matrix")

    kept: list[str] = []
    log_flags: list[bool] = []
    shifts: list[float] = []
    scales: list[float] = []
    for j, name in enumerate(feature_names):
        column = matrix[:, j]
        if np.all(column == column[0]):
            continue
        use_log = abs(_skewness(column)) > _SKEW_THRESHOLD
        if use_log:
            column = _signed_log(column)
        q75, q25 = np.percentile(column, [75.0, 25.0])
        scale = (q75 - q25) / _IQR_TO_SIGMA
        if scale == 0.0:
            scale = float(np.std(column))  # spread lives in the tails only
        kept.append(name)
        log_flags.append(use_log)
        shifts.append(float(np.median(column)))
        scales.append(float(scale))
    if not kept:
        raise NormalizationError("every feature is constant; nothing to normalize")
    return NormalizationParams(
        feature_names=tuple(kept),
        log_flags=tuple(log_flags),
        shifts=tuple(shifts),
        scales=tuple(scales),
    )


def apply_normalization(
    params: NormalizationParams, matrix: np.ndarray, feature_names
) -> np.ndarray:
    """Normalize rows of ``matrix`` (columns named by ``feature_names``).

    Returns an array with one column per retained feature of ``params``,
    in params order.  Raises when a retained feature is missing from the
    input or a value is non-finite.
    """
    matrix = np.asarray(matrix, dtype=float)
    single = matrix.ndim == 1
    if single:
        matrix = matrix[None, :]
    feature_names = list(feature_names)
    if matrix.shape[1] != len(feature_names):
        raise NormalizationError(
            f"matrix has {matrix.shape[1]} columns but {len(feature_names)} names given"
        )
    index = {n: i for i, n in enumerate(feature_names)}
    missing = [n for n in params.feature_names if n not in index]
    if missing:
        raise NormalizationError(f"input lacks features: {missing}")
    cols = [index[n] for n in params.feature_names]
    data = matrix[:, cols]
    if not np.isfinite(data).all():
        raise NormalizationError("non-finite feature values")
    out = np.empty_like(data)
    for k in range(data.shape[1]):
        column = data[:, k]
        if params.log_flags[k]:
            column = _signed_log(column)
        out[:, k] = (column - params.shifts[k]) / params.scales[k]
    return out[0] if single else out
