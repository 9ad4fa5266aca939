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

from .geometry import wrap_angle
from .matchers import D_MIN, MatchResult, hybrid_noise_model

__all__ = [
    "COVARIANCE_RIDGE",
    "FusedMeasurement",
    "default_fallback_variances",
    "fuse",
    "fused_covariance",
    "weighted_pose",
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
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError(f"p_bar must be a finite 3-vector, got shape {p.shape}")
        if M.shape != (5, 5) or not np.all(np.isfinite(M)):
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

    Derived from the hybrid backend calibration, the most conservative row of
    the two synthetic models in regular use.
    """
    noise = hybrid_noise_model()
    return np.array(
        [
            noise.sigma_xy**2,
            noise.sigma_xy**2,
            noise.sigma_z**2,
            noise.sigma_psi**2,
            noise.sigma_theta**2,
        ]
    )


def _ordered(results) -> list[MatchResult]:
    rs = sorted(results, key=lambda r: (r.d, r.tile_id))
    if not rs:
        raise ValueError("cannot fuse an empty candidate list")
    if rs[0].d < D_MIN:
        raise ValueError(f"candidate distance {rs[0].d} below the {D_MIN} floor")
    return rs


def weighted_pose(results) -> tuple[np.ndarray, float, float]:
    """Inverse-distance weighted mean of the candidate pose estimates.

    Weights are (1/d_i) / sum(1/d_j). Candidates are reduced in (d, tile_id)
    order so the result is exactly permutation invariant. Heading is averaged
    over residuals wrapped about the lowest-d candidate's heading estimate.
    """
    return _weighted_pose(_ordered(results))


def _weighted_pose(rs: list[MatchResult]) -> tuple[np.ndarray, float, float]:
    inv = np.array([1.0 / r.d for r in rs])
    w = inv / np.sum(inv)
    positions = np.array([r.p_hat for r in rs])
    p_bar = w @ positions
    theta_bar = float(w @ np.array([r.theta_hat for r in rs]))
    ref = rs[0].psi_hat
    residuals = np.array([wrap_angle(r.psi_hat - ref) for r in rs])
    psi_bar = wrap_angle(ref + float(w @ residuals))
    return (p_bar, psi_bar, theta_bar)


def fused_covariance(results, fallback_variances: np.ndarray | None = None) -> np.ndarray:
    """Sample covariance of the candidates as a block-diagonal 5x5 matrix.

    Position occupies the upper 3x3 block (divisor k-1); heading variance is
    computed on residuals wrapped about the lowest-d candidate's heading; tilt
    variance is plain. A ridge of 1e-6 on the diagonal keeps the matrix
    positive definite when candidates coincide. With a single candidate there
    is no scatter to measure, so the configured prior variances are used.
    """
    return _fused_covariance(_ordered(results), fallback_variances)


def _fused_covariance(
    rs: list[MatchResult], fallback_variances: np.ndarray | None
) -> np.ndarray:
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
        positions = np.array([r.p_hat for r in rs])
        M[:3, :3] = np.cov(positions, rowvar=False, ddof=1)
        ref = rs[0].psi_hat
        residuals = np.array([wrap_angle(r.psi_hat - ref) for r in rs])
        M[3, 3] = float(np.var(residuals, ddof=1))
        M[4, 4] = float(np.var(np.array([r.theta_hat for r in rs]), ddof=1))
    M[np.diag_indices(5)] += COVARIANCE_RIDGE
    return M


def fuse(results, fallback_variances: np.ndarray | None = None) -> FusedMeasurement:
    """Weighted pose plus scatter covariance for one frame's candidate list."""
    rs = _ordered(results)
    p_bar, psi_bar, theta_bar = _weighted_pose(rs)
    M = _fused_covariance(rs, fallback_variances)
    if not math.isfinite(psi_bar) or not np.all(np.isfinite(p_bar)):
        raise ValueError("fused measurement is not finite")
    return FusedMeasurement(p_bar, psi_bar, theta_bar, M)
