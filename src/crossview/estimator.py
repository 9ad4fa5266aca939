"""Kalman filter over camera pose, driven by VO increments, corrected by fusion.

The state is (x, y, z, psi, theta, phi) with a 6x6 covariance. Prediction
composes the incoming visual-odometry increment onto the pose (position adds,
orientation left-multiplies through rotation matrices) and inflates P by the
process noise. Correction applies the standard update against a fused 5-vector
measurement (x, y, z, psi, theta); roll is never observed, so the observation
matrix's last column is zero. Angular innovations are wrapped before the
update and angular states are wrapped after it, which keeps the filter honest
across the +/-180 heading seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fusion import FusedMeasurement
from .geometry import _NOT_A_ROTATION, Pose6D, compose_increment, is_rotation_matrix, wrap_angle

__all__ = [
    "OBSERVATION_MATRIX",
    "FilterState",
    "ProcessNoise",
    "VoIncrement",
    "correct",
    "predict",
    "state_vector",
]

# Maps state (x, y, z, psi, theta, phi) to measurement (x, y, z, psi, theta).
OBSERVATION_MATRIX = np.hstack([np.eye(5), np.zeros((5, 1))])

_COND_LIMIT = 1e12
# How far P and M may be from symmetric, and M's least eigenvalue below 0.
_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class VoIncrement:
    """Relative motion between consecutive frames as seen by visual odometry."""

    dp: np.ndarray
    dR: np.ndarray

    def __post_init__(self) -> None:
        dp = np.asarray(self.dp, dtype=float)
        if dp.shape != (3,) or not all(map(math.isfinite, dp.tolist())):
            raise ValueError("dp must be a finite 3-vector")
        dR = np.asarray(self.dR, dtype=float)
        if not is_rotation_matrix(dR):
            raise ValueError(f"dR {_NOT_A_ROTATION}")
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "dR", dR)

    @classmethod
    def identity(cls) -> "VoIncrement":
        return cls(np.zeros(3), np.eye(3))


@dataclass(frozen=True)
class ProcessNoise:
    """Diagonal process noise added to P once per prediction step."""

    variances: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.variances, dtype=float)
        if v.shape != (6,) or np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("process noise needs 6 finite non-negative variances")
        object.__setattr__(self, "variances", v)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.variances)


@dataclass(frozen=True, eq=False)
class FilterState:
    """Pose estimate with its 6x6 covariance."""

    pose: Pose6D
    P: np.ndarray

    def __post_init__(self) -> None:
        P = np.asarray(self.P, dtype=float)
        if P.shape != (6, 6) or not np.isfinite(P).all():
            raise ValueError("P must be a finite 6x6 matrix")
        if np.abs(P - P.T).max() > _SYMMETRY_TOL:
            raise ValueError("P must be symmetric")
        object.__setattr__(self, "P", P)

    @classmethod
    def initial(cls, pose: Pose6D, variance: float) -> "FilterState":
        return cls(pose, np.eye(6) * float(variance))


def state_vector(state: FilterState) -> np.ndarray:
    """State as the 6-vector (x, y, z, psi, theta, phi)."""
    p = state.pose
    return np.array([p.x, p.y, p.z, p.psi, p.theta, p.phi])


def predict(state: FilterState, increment: VoIncrement, noise: ProcessNoise) -> FilterState:
    """Propagate the state through one VO increment, inflating P by Q."""
    pose = compose_increment(state.pose, increment.dp, increment.dR)
    return FilterState(pose, state.P + noise.matrix)


def correct(state: FilterState, measurement: FusedMeasurement) -> FilterState:
    """Fold one fused measurement into the state.

    Innovation y = z - H X with the heading and tilt components wrapped,
    gain K = P H^T (M + H P H^T)^-1, covariance P <- (I - K H) P symmetrized.
    Raises if the measurement covariance is not symmetric PSD or leaves the
    innovation covariance ill-conditioned.
    """
    M = np.asarray(measurement.M, dtype=float)
    if M.shape != (5, 5) or not np.isfinite(M).all():
        raise ValueError("measurement covariance must be a finite 5x5 matrix")
    if np.abs(M - M.T).max() > _SYMMETRY_TOL:
        raise ValueError("measurement covariance must be symmetric")
    pose, P = _correct(state.pose, state.P, measurement.z_vector(), M)
    return FilterState(pose, P)


def _correct(pose: Pose6D, P: np.ndarray, z, M: np.ndarray) -> tuple[Pose6D, np.ndarray]:
    """The kernel of :func:`correct`: the new pose and 6x6 covariance.

    P is a finite symmetric 6x6 array, z the 5 measured values and M a finite
    symmetric 5x5 array (a FilterState's and a fused measurement's, or
    :func:`fusion._fuse_rows`' output). Only the data-dependent checks are
    made here: M is PSD, S is well conditioned, and the new P is finite; it
    is symmetric by construction, and the pose is a checked Pose6D.

    H = [I5 | 0] only selects, so H P H^T is P[:5, :5], P H^T is P[:, :5],
    H X is X[:5] and I - K H is the identity less K in its first five
    columns: the same bits as the products, without them.
    """
    # eigvalsh sorts ascending, so [0] is the smallest eigenvalue.
    if np.linalg.eigvalsh(M)[0] < -_SYMMETRY_TOL:
        raise ValueError("measurement covariance must be positive semidefinite")
    X = np.array([pose.x, pose.y, pose.z, pose.psi, pose.theta, pose.phi])
    S = M + P[:5, :5]
    # np.linalg.cond(S): the ratio of the largest to the smallest singular
    # value, infinite when the smallest is 0 or the SVD gives nan.
    s_max, *_, s_min = np.linalg.svd(S, compute_uv=False).tolist()
    if not (s_min > 0.0 and s_max / s_min <= _COND_LIMIT):
        raise np.linalg.LinAlgError(
            f"innovation covariance condition number exceeds {_COND_LIMIT:g}"
        )
    innovation = np.array(z) - X[:5]
    innovation[3] = wrap_angle(innovation[3])
    innovation[4] = wrap_angle(innovation[4])
    K = np.linalg.solve(S.T, P[:, :5].T).T
    updated = (X + K @ innovation).tolist()
    I_KH = np.eye(6)
    I_KH[:, :5] -= K
    P_new = I_KH @ P
    P_new = 0.5 * (P_new + P_new.T)
    if not np.isfinite(P_new).all():
        raise ValueError("corrected covariance is not finite")
    return Pose6D(*updated[:3], *map(wrap_angle, updated[3:])), P_new
