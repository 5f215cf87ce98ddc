"""Linear 2-D projection of the selected-feature space.

Two ways to obtain the d x 2 matrix: fit the top two principal
directions of the (normalized) training data with a deterministic sign
convention, or load a published matrix verbatim.  Projection itself is
pure: normalize the raw features with the stored parameters, then
multiply.  The zero vector always lands on (0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ..artifacts import read_model, write_model
from ..errors import ModelFormatError, ProjectionError
from .normalize import NormalizationParams, apply_normalization, identity_normalization

_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ProjectionModel:
    matrix: np.ndarray  # d x 2
    normalization: NormalizationParams  # names the d features, in row order
    source: str  # "fitted_pca" or "loaded_external"

    @property
    def selected_features(self) -> tuple[str, ...]:
        return self.normalization.feature_names

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.selected_features), 2):
            raise ProjectionError(
                f"matrix shape {m.shape} does not fit {len(self.selected_features)} features"
            )
        if not np.isfinite(m).all():
            raise ProjectionError("projection matrix has non-finite entries")
        if (m == 0.0).all(axis=0).any():
            raise ProjectionError("projection matrix has an all-zero column")
        object.__setattr__(self, "matrix", m)


def fit_projection(
    normalized: np.ndarray, feature_names, normalization: NormalizationParams
) -> ProjectionModel:
    """Top-2 principal directions of the normalized selected-feature matrix.

    Sign convention: within each component the loading of largest
    magnitude is made positive (lowest index wins magnitude ties), so
    refits are reproducible.  Raises when fewer than two directions
    carry variance.
    """
    X = np.asarray(normalized, dtype=float)
    feature_names = tuple(feature_names)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise ProjectionError("matrix does not match feature names")
    if X.shape[0] < 3:
        raise ProjectionError("projection fit needs at least 3 instances")
    if len(feature_names) < 2:
        raise ProjectionError("projection fit needs at least 2 features")
    if not np.isfinite(X).all():
        raise ProjectionError("non-finite values in projection input")

    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    if eigenvalues[-2] <= _RANK_RTOL * max(eigenvalues[-1], 1.0):
        raise ProjectionError(
            "input is rank deficient: fewer than 2 non-degenerate directions"
        )
    components = []
    for idx in (-1, -2):
        vec = eigenvectors[:, idx]
        anchor = int(np.argmax(np.abs(vec)))
        if vec[anchor] < 0:
            vec = -vec
        components.append(vec)
    matrix = np.column_stack(components)
    return ProjectionModel(
        matrix=matrix,
        normalization=normalization.restrict(feature_names),
        source="fitted_pca",
    )


def load_external_matrix(matrix, feature_names) -> ProjectionModel:
    """Wrap a published d x 2 matrix that maps raw features (identity normalization)."""
    return ProjectionModel(
        matrix=np.asarray(matrix, dtype=float),
        normalization=identity_normalization(feature_names),
        source="loaded_external",
    )


def project(model: ProjectionModel, features) -> tuple[float, float]:
    """Map one instance's raw features to (Z1, Z2).

    ``features`` is a mapping from feature name to value (a FeatureVector
    works via its as_dict), or an ndarray already aligned with the
    model's selected features.
    """
    if hasattr(features, "as_dict"):
        features = features.as_dict()
    if isinstance(features, Mapping):
        missing = [n for n in model.selected_features if n not in features]
        if missing:
            raise ProjectionError(f"feature vector lacks {missing}")
        raw = np.array([float(features[n]) for n in model.selected_features])
    else:
        raw = np.asarray(features, dtype=float)
        if raw.shape != (len(model.selected_features),):
            raise ProjectionError(
                f"expected {len(model.selected_features)} values, got shape {raw.shape}"
            )
    if not np.isfinite(raw).all():
        raise ProjectionError("non-finite feature values")
    z = apply_normalization(model.normalization, raw, model.selected_features) @ model.matrix
    return float(z[0]), float(z[1])


def project_many(model: ProjectionModel, matrix: np.ndarray, feature_names) -> np.ndarray:
    """Vectorized projection of an instances x features matrix to N x 2."""
    normalized = apply_normalization(model.normalization, matrix, feature_names)
    return normalized @ model.matrix


def write_projection_model(
    model: ProjectionModel, path: str | Path, meta: dict | None = None
) -> None:
    norm = model.normalization
    features = [
        {"name": name, "log": bool(log), "shift": shift, "scale": scale}
        for name, log, shift, scale in zip(
            model.selected_features, norm.log_flags, norm.shifts, norm.scales
        )
    ]
    body = {"source": model.source, "features": features, "matrix": model.matrix.tolist()}
    write_model(path, "projection", body, meta)


def read_projection_model(path: str | Path) -> ProjectionModel:
    body = read_model(path, "projection")
    try:
        features = body["features"]
        normalization = NormalizationParams(
            feature_names=tuple(f["name"] for f in features),
            log_flags=tuple(bool(f["log"]) for f in features),
            shifts=tuple(float(f["shift"]) for f in features),
            scales=tuple(float(f["scale"]) for f in features),
        )
        return ProjectionModel(
            matrix=np.array(body["matrix"], dtype=float),
            normalization=normalization,
            source=body["source"],
        )
    except (KeyError, TypeError, ValueError, ProjectionError) as exc:
        raise ModelFormatError(f"{path}: malformed projection model ({exc!r})") from exc
