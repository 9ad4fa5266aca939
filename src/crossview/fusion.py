"""Fuse the k candidate matches of one frame into a single measurement.

The pose estimates are combined with inverse-distance weights, so candidates
the matcher scored as more alike count for more. The measurement covariance is
the unweighted sample scatter of the candidates: position as a full 3x3 block,
heading and tilt as independent variances, padded with a small ridge so the
matrix stays invertible even when every candidate agrees.

Headings are circular, so they are averaged through residuals wrapped about
the best-scoring candidate's heading; two candidates at 179 and -179 degrees
fuse to +/-180, not to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimConfig
from .geometry import _wrap_angle
from .matchers import D_MIN, match_variances

__all__ = [
    "COVARIANCE_RIDGE",
    "FusedMeasurement",
    "default_fallback_variances",
    "fuse",
]

COVARIANCE_RIDGE = 1e-6


@dataclass(frozen=True, eq=False)
class FusedMeasurement:
    """Single fused observation: position, heading, tilt, and 5x5 covariance."""

    p_bar: np.ndarray
    psi_bar: float
    theta_bar: float
    M: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p_bar, dtype=float)
        M = np.asarray(self.M, dtype=float)
        if p.shape != (3,) or not np.isfinite(p).all():
            raise ValueError(f"p_bar must be a finite 3-vector, got shape {p.shape}")
        if M.shape != (5, 5) or not np.isfinite(M).all():
            raise ValueError(f"M must be a finite 5x5 matrix, got shape {M.shape}")
        if not (math.isfinite(self.psi_bar) and math.isfinite(self.theta_bar)):
            raise ValueError("psi_bar and theta_bar must be finite")
        object.__setattr__(self, "p_bar", p)
        object.__setattr__(self, "M", M)

    def z_vector(self) -> np.ndarray:
        """Stacked measurement vector (x, y, z, psi, theta)."""
        return np.array(
            [self.p_bar[0], self.p_bar[1], self.p_bar[2], self.psi_bar, self.theta_bar]
        )


def default_fallback_variances() -> np.ndarray:
    """Prior variances (x, y, z, psi, theta) used when k < 2 leaves no scatter.

    The hybrid backend's variances at the default config: the smaller-variance
    of the two synthetic calibrations, so a lone candidate counts as a good one.
    """
    return match_variances(SimConfig(), "hybrid")


def fuse(results, fallback_variances: np.ndarray | None = None) -> FusedMeasurement:
    """Weighted pose plus scatter covariance for one frame's candidate list.

    The pose is the inverse-distance weighted mean, weights (1/d_i) / sum(1/d_j),
    with the heading averaged over residuals wrapped about the lowest-d
    candidate's heading. The covariance is block-diagonal: the positions'
    sample covariance (divisor k-1), then the sample variances of the heading
    residuals and of the tilts, plus COVARIANCE_RIDGE on the diagonal. A lone
    candidate has no scatter, so its variances are ``fallback_variances``
    (default: :func:`default_fallback_variances`). Candidates are reduced in
    (d, tile_id) order, so the result is exactly permutation invariant.
    """
    rs = sorted(results, key=lambda r: (r.d, r.tile_id))
    if not rs:
        raise ValueError("cannot fuse an empty candidate list")
    if rs[0].d < D_MIN:
        raise ValueError(f"candidate distance {rs[0].d} below the {D_MIN} floor")
    # Each MatchResult holds a heading in (-180, 180], so every residual is
    # finite; the pose and the covariance share them.
    inv = np.array([1.0 / r.d for r in rs])
    w = inv / np.add.reduce(inv)
    positions = np.array([r.p_hat for r in rs])
    thetas = np.array([r.theta_hat for r in rs])
    ref = rs[0].psi_hat
    residuals = np.array([_wrap_angle(r.psi_hat - ref) for r in rs])
    p_bar = w @ positions
    theta_bar = float(w @ thetas)
    psi_bar = _wrap_angle(ref + float(w @ residuals))

    M = np.zeros((5, 5))
    if len(rs) < 2:
        variances = (
            default_fallback_variances()
            if fallback_variances is None
            else np.asarray(fallback_variances, dtype=float)
        )
        if variances.shape != (5,) or np.any(variances < 0.0) or not np.all(
            np.isfinite(variances)
        ):
            raise ValueError("fallback_variances must be 5 finite non-negative values")
        M[np.diag_indices(5)] = variances
    else:
        M[:3, :3] = _sample_cov(positions)
        M[3, 3] = _sample_var(residuals)
        M[4, 4] = _sample_var(thetas)
    M.flat[::6] += COVARIANCE_RIDGE
    if not math.isfinite(psi_bar) or not np.all(np.isfinite(p_bar)):
        raise ValueError("fused measurement is not finite")
    return FusedMeasurement(p_bar, psi_bar, theta_bar, M)


# np.cov(rows, rowvar=False) and np.var(v, ddof=1) without their argument
# handling: the same numpy operations in the same order, so the same bits.


def _sample_cov(rows: np.ndarray) -> np.ndarray:
    X = np.array(rows).T
    n = X.shape[1]
    avg = np.add.reduce(X, axis=1)
    avg /= n
    X -= avg[:, None]
    c = np.dot(X, X.T)
    c *= np.true_divide(1, n - 1)
    return c


def _sample_var(v: np.ndarray) -> float:
    n = v.shape[0]
    mean = np.add.reduce(v, axis=None, keepdims=True)
    mean /= n
    x = np.square(v - mean)
    return float(np.add.reduce(x, axis=None) / (n - 1))
