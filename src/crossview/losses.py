"""Training losses for the matching and camera-pose networks, as plain functions.

Everything here is a scalar- or vector-valued function of numpy inputs with a
hand-derived gradient next to it, so the math can be unit tested without any
autograd framework. ``gradient_self_test`` re-checks every gradient against
central finite differences and backs the ``crossview losses --self-test`` CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CELLS_PER_SIDE, wrap_angle

__all__ = [
    "NUM_CELLS",
    "CameraLossWeights",
    "camera_loss",
    "cell_cross_entropy",
    "cell_cross_entropy_grad",
    "contrastive_loss",
    "contrastive_loss_grad",
    "feature_distance",
    "gradient_self_test",
]

NUM_CELLS = CELLS_PER_SIDE * CELLS_PER_SIDE
CONTRASTIVE_MARGIN = 100.0


def feature_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean distance between two feature vectors of equal dimension."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError("feature vectors must be 1-D")
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("feature vectors must be finite")
    return float(np.linalg.norm(u - v))


def _check_pair_args(d: float, label: int, margin: float) -> None:
    if not math.isfinite(d) or d < 0.0:
        raise ValueError(f"distance must be finite and >= 0, got {d!r}")
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    if not math.isfinite(margin) or margin < 0.0:
        raise ValueError(f"margin must be finite and >= 0, got {margin!r}")


def contrastive_loss(d: float, label: int, margin: float = CONTRASTIVE_MARGIN) -> float:
    """Pairwise metric loss: pull matching pairs together, push others apart.

    For a matching pair (label 1) the loss is d^2; for a non-matching pair it
    is max(0, margin - d)^2, zero once the pair is separated by the margin.
    """
    _check_pair_args(d, label, margin)
    if label == 1:
        return float(d * d)
    gap = margin - d
    return float(gap * gap) if gap > 0.0 else 0.0


def contrastive_loss_grad(d: float, label: int, margin: float = CONTRASTIVE_MARGIN) -> float:
    """d(contrastive_loss)/dd. At the hinge point d == margin returns 0."""
    _check_pair_args(d, label, margin)
    if label == 1:
        return 2.0 * d
    gap = margin - d
    return -2.0 * gap if gap > 0.0 else 0.0


def _check_logits(logits: np.ndarray) -> np.ndarray:
    arr = np.asarray(logits, dtype=float)
    if arr.shape != (NUM_CELLS,):
        raise ValueError(f"expected {NUM_CELLS} cell logits, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cell logits must be finite")
    return arr


def _check_cell(cell: int) -> int:
    if not isinstance(cell, (int, np.integer)):
        raise ValueError(f"target cell must be an integer, got {cell!r}")
    if not 0 <= cell < NUM_CELLS:
        raise ValueError(f"target cell {cell} outside 0..{NUM_CELLS - 1}")
    return int(cell)


def cell_cross_entropy(logits: np.ndarray, target_cell: int) -> float:
    """Softmax cross-entropy of 64 ground-cell logits against the true cell.

    Uses the max-subtraction form so large logits cannot overflow.
    """
    return _cross_entropies(_check_logits(logits)[None], _check_cell(target_cell))[0]


def _cross_entropies(rows: np.ndarray, target: int) -> list[float]:
    """:func:`cell_cross_entropy` of each row of checked (m, 64) logits, the same bits for any m."""
    shifted = rows - rows.max(axis=1, keepdims=True)
    sums = np.exp(shifted).sum(axis=1).tolist()
    return [max(math.log(s) - t, 0.0) for s, t in zip(sums, shifted[:, target].tolist())]


def cell_cross_entropy_grad(logits: np.ndarray, target_cell: int) -> np.ndarray:
    """Gradient of :func:`cell_cross_entropy` w.r.t. the logits: softmax - onehot."""
    arr = _check_logits(logits)
    target = _check_cell(target_cell)
    shifted = arr - np.max(arr)
    exp = np.exp(shifted)
    grad = exp / np.sum(exp)
    grad[target] -= 1.0
    return grad


@dataclass(frozen=True)
class CameraLossWeights:
    """Weights of the combined camera-pose loss terms (all must be >= 0)."""

    alpha: float = 30.0
    beta: float = 1.0
    gamma: float = 0.5

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def camera_loss(
    logits: np.ndarray,
    target_cell: int,
    z_hat: float,
    z_true: float,
    psi_hat: float,
    psi_true: float,
    theta_hat: float,
    theta_true: float,
    weights: CameraLossWeights = CameraLossWeights(),
) -> float:
    """Combined camera localization loss.

    alpha * cell cross-entropy + |z error| + beta * |wrapped heading error|
    + gamma * |tilt error|. Heading error is wrapped so that estimates on the
    far side of the +/-180 seam are penalized by their short-way difference.
    """
    for name, value in (
        ("z_hat", z_hat),
        ("z_true", z_true),
        ("psi_hat", psi_hat),
        ("psi_true", psi_true),
        ("theta_hat", theta_hat),
        ("theta_true", theta_true),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    loss_xy = cell_cross_entropy(logits, target_cell)
    loss_z = abs(z_true - z_hat)
    loss_psi = abs(wrap_angle(psi_true - psi_hat))
    loss_theta = abs(theta_true - theta_hat)
    return float(
        weights.alpha * loss_xy + loss_z + weights.beta * loss_psi + weights.gamma * loss_theta
    )


def _central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def gradient_self_test(points: int = 100, seed: int = 0) -> list[dict]:
    """Check the analytic gradients against central finite differences.

    Draws ``points`` random evaluation points per loss, skips the hinge
    neighborhood of the contrastive loss (|margin - d| < 1e-3) where the
    derivative is not defined, and reports the worst relative error seen.
    Returns one record per check with keys name/points/max_rel_err/tol/passed.
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    rng = np.random.default_rng(seed)
    results = []
    h, tol = 1e-5, 1e-6  # finite-difference step, bound on the relative error

    worst = 0.0
    checked = 0
    margin = CONTRASTIVE_MARGIN
    while checked < points:
        d = float(rng.uniform(0.0, 200.0))
        if abs(margin - d) < 1e-3 or d < h:
            continue
        label = int(rng.integers(0, 2))
        numeric = _central_difference(
            lambda t: contrastive_loss(t, label, margin), d, h
        )
        analytic = contrastive_loss_grad(d, label, margin)
        scale = max(abs(numeric), abs(analytic), 1.0)
        worst = max(worst, abs(numeric - analytic) / scale)
        checked += 1
    results.append(
        {
            "name": "contrastive_loss_grad",
            "points": checked,
            "max_rel_err": worst,
            "tol": tol,
            "passed": worst < tol,
        }
    )

    worst = 0.0
    for _ in range(points):
        logits = rng.standard_normal(NUM_CELLS) * 2.0
        target = int(rng.integers(0, NUM_CELLS))
        analytic = cell_cross_entropy_grad(logits, target).tolist()
        # Probe a handful of coordinates per point; a full 64-wide sweep per
        # point adds nothing but runtime. Rows 2i and 2i + 1 hold x + h and
        # x - h at the i-th coordinate, so one call scores them all.
        coords = rng.choice(NUM_CELLS, size=8, replace=False).tolist()
        probes = np.repeat(logits[None], 16, axis=0)
        for i, j in enumerate(coords):
            probes[2 * i, j], probes[2 * i + 1, j] = logits[j] + h, logits[j] - h
        losses = _cross_entropies(probes, target)
        for j, up, down in zip(coords, losses[0::2], losses[1::2]):
            numeric = (up - down) / (2.0 * h)
            scale = max(abs(numeric), abs(analytic[j]), 1.0)
            worst = max(worst, abs(numeric - analytic[j]) / scale)
    results.append(
        {
            "name": "cell_cross_entropy_grad",
            "points": points,
            "max_rel_err": worst,
            "tol": tol,
            "passed": worst < tol,
        }
    )
    return results
