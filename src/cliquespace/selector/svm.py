"""Binary soft-margin SVM with an RBF kernel, trained from scratch.

The trainer solves the SVM dual with sequential minimal optimization on
the maximal violating pair (Keerthi et al., Neural Computation 2001; WSS1
in Fan, Chen & Lin, JMLR 2005).  It keeps the dual gradient and, at each
step, moves the pair of multipliers that violates the KKT conditions most,
until their gap falls below 1e-3 or ``_MAX_STEPS`` steps have run; a fit
records which (``converged``).  Class-balanced box constraints
C * w_i give each class half the weight.  No step draws a random number,
so a fit depends on its inputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-3
# reached by ill-conditioned fits (large C and gamma on noisy labels), which
# then stop short of the tolerance and record it
_MAX_STEPS = 100_000


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||x - x'||^2) for every row pair of a and b."""
    sq = (
        (a**2).sum(axis=1)[:, None]
        + (b**2).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass(frozen=True)
class SvmClassifier:
    support_vectors: np.ndarray  # m x d
    dual_coef: np.ndarray  # m entries alpha_i * y_i
    bias: float
    gamma: float
    hyper_c: float  # training C, kept for provenance
    converged: bool = True  # false when the fit stopped at _MAX_STEPS; not in model files

    def decision(self, x: np.ndarray) -> np.ndarray:
        """One decision value per row of ``x``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return rbf_kernel(x, self.support_vectors, self.gamma) @ self.dual_coef + self.bias


def _up_low(alpha: np.ndarray, box: np.ndarray, pos: np.ndarray):
    """Masks I_up and I_low: multipliers that can still move up or down along y."""
    below, above = alpha < box, alpha > 0.0
    return np.where(pos, below, above), np.where(pos, above, below)


def train_svm(X: np.ndarray, y: np.ndarray, C: float, gamma: float) -> SvmClassifier:
    """Fit one class-balanced binary classifier; y entries must be -1 or +1."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be -1/+1")
    if n < 2 or (y > 0).all() or (y < 0).all():
        raise ValueError("need at least one sample of each class")
    if not C > 0.0:
        raise ValueError("C must be positive")
    box = C * balanced_weights(y)
    pos = y > 0

    K = rbf_kernel(X, X, gamma)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # Q alpha - 1, with Q = K * y y^T
    converged = False
    for _ in range(_MAX_STEPS):
        score = -y * grad
        up, low = _up_low(alpha, box, pos)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        j = int(np.argmin(np.where(low, score, np.inf)))
        gap = score[i] - score[j]
        if gap < _TOL:
            converged = True
            break
        # move along y_i e_i - y_j e_j, clipped to the box of both multipliers
        room_i = box[i] - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else box[j] - alpha[j]
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step = min(gap / max(eta, 1e-12), room_i, room_j)
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        # a multiplier that reaches its bound lands on it exactly
        if step == room_i:
            alpha[i] = box[i] if pos[i] else 0.0
        if step == room_j:
            alpha[j] = 0.0 if pos[j] else box[j]
        # the two columns of Q: y_i * Q[:, i] = y * K[:, i]
        grad += step * y * (K[:, i] - K[:, j])

    score = -y * grad
    free = (alpha > 0.0) & (alpha < box)
    if free.any():
        b = score[free].mean()
    else:
        up, low = _up_low(alpha, box, pos)
        b = (score[up].max() + score[low].min()) / 2.0
    keep = alpha > 0.0
    return SvmClassifier(
        support_vectors=X[keep].copy(),
        dual_coef=(alpha * y)[keep].copy(),
        bias=float(b),
        gamma=float(gamma),
        hyper_c=float(C),
        converged=converged,
    )


def balanced_weights(y: np.ndarray) -> np.ndarray:
    """Inverse-frequency sample weights: each class contributes half the mass."""
    y = np.asarray(y)
    n = y.shape[0]
    n_pos = int((y > 0).sum())
    n_neg = n - n_pos
    w = np.empty(n)
    w[y > 0] = n / (2.0 * n_pos)
    w[y < 0] = n / (2.0 * n_neg)
    return w
