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

from .fusion import FusedMeasurement, _block_entries, _block_matrix
from .geometry import _NOT_A_ROTATION, Pose6D, _frozen_copy, _wrap_angle, compose_increment
from .geometry import is_rotation_matrix, wrap_angle

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
# How far P and M may be from symmetric; see _psd_floor for M's least eigenvalue.
_SYMMETRY_TOL = 1e-9
_NOT_PSD = "measurement covariance must be positive semidefinite"
_ILL_CONDITIONED = f"innovation covariance condition number exceeds {_COND_LIMIT:g}"
_NOT_FINITE = "corrected covariance is not finite"
_EPS = 2.0**-52  # float64's machine epsilon


@dataclass(frozen=True, eq=False)
class VoIncrement:
    """Relative motion between consecutive frames as seen by visual odometry."""

    dp: np.ndarray
    dR: np.ndarray

    def __post_init__(self) -> None:
        dp = _frozen_copy(self.dp)
        if dp.shape != (3,) or not all(map(math.isfinite, dp.tolist())):
            raise ValueError("dp must be a finite 3-vector")
        dR = _frozen_copy(self.dR)
        if not is_rotation_matrix(dR):
            raise ValueError(f"dR {_NOT_A_ROTATION}")
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "dR", dR)

    @classmethod
    def identity(cls) -> "VoIncrement":
        return cls(np.zeros(3), np.eye(3))


@dataclass(frozen=True, eq=False)
class ProcessNoise:
    """Diagonal process noise added to P once per prediction step."""

    variances: np.ndarray

    def __post_init__(self) -> None:
        v = _frozen_copy(self.variances)
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
        P = _frozen_copy(self.P)
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
    innovation covariance ill-conditioned. Exactly symmetric P and M that are
    0.0 off their blocks take :func:`_correct_blocks`; others, LAPACK's form.
    """
    M = measurement.M
    if np.abs(M - M.T).max() > _SYMMETRY_TOL:
        raise ValueError("measurement covariance must be symmetric")
    pose, P, z = state.pose, state.P, measurement.z_vector()
    P9, M8 = _block_entries(P), _block_entries(M)
    if np.array_equal(P, _block_matrix(P9)) and np.array_equal(M, _block_matrix(M8)):
        pose, P9 = _correct_blocks(pose, P9, z.tolist(), M8)
        return FilterState(pose, _block_matrix(P9))
    # H = [I5 | 0] only selects, so H P H^T is P[:5, :5], P H^T is P[:, :5],
    # H X is X[:5] and I - K H is the identity less K in its first five
    # columns: the same bits as the products, without them.
    # eigvalsh sorts ascending, so [0] is the smallest eigenvalue.
    if np.linalg.eigvalsh(M)[0] < _psd_floor(M8):
        raise ValueError(_NOT_PSD)
    X = state_vector(state)
    S = M + P[:5, :5]
    # np.linalg.cond(S): the ratio of the largest to the smallest singular
    # value, infinite when the smallest is 0 or the SVD gives nan.
    s_max, *_, s_min = np.linalg.svd(S, compute_uv=False).tolist()
    if not (s_min > 0.0 and s_max / s_min <= _COND_LIMIT):
        raise np.linalg.LinAlgError(_ILL_CONDITIONED)
    innovation = z - X[:5]
    innovation[3] = wrap_angle(innovation[3])
    innovation[4] = wrap_angle(innovation[4])
    K = np.linalg.solve(S.T, P[:, :5].T).T
    updated = (X + K @ innovation).tolist()
    I_KH = np.eye(6)
    I_KH[:, :5] -= K
    P_new = I_KH @ P
    P_new = 0.5 * (P_new + P_new.T)
    if not np.isfinite(P_new).all():
        raise ValueError(_NOT_FINITE)
    return FilterState(Pose6D(*updated[:3], *map(wrap_angle, updated[3:])), P_new)


def _correct_blocks(pose: Pose6D, P9, z, M8) -> tuple[Pose6D, tuple[float, ...]]:
    """:func:`correct` on P's and M's blocks (``fusion._block_matrix``) in plain
    floats, with no BLAS or LAPACK: the new pose and P9. :func:`_eigvalsh3` of
    M_pos and S_pos runs correct's gates; an indefinite S_pos raises. Position:
    S = L L^T (Cholesky, Golub & Van Loan 4.2), K = P S^-1, x += K y and
    P <- (I - K) P, off-diagonals averaged; psi, theta: gain p / (p + m)."""
    pxx, pxy, pxz, pyy, pyz, pzz, pp, pt, pf = P9
    mxx, mxy, mxz, myy, myz, mzz, mp, mt = M8
    sxx, sxy, sxz, syy, syz, szz = pxx + mxx, pxy + mxy, pxz + mxz, pyy + myy, pyz + myz, pzz + mzz
    sp, st = pp + mp, pt + mt
    least = min(_eigvalsh3(mxx, myy, mzz, mxy, mxz, myz)[0], mp, mt)
    if least < -_SYMMETRY_TOL and least < _psd_floor(M8):  # the first test spares the sum
        raise ValueError(_NOT_PSD)
    s0, s1, s2 = _eigvalsh3(sxx, syy, szz, sxy, sxz, syz)
    # An S that overflowed has nan eigenvalues; s0 leads, so min and max keep it.
    s_abs = (abs(s0), abs(s1), abs(s2), abs(sp), abs(st))
    s_max, s_min = max(s_abs), min(s_abs)
    if not (s_min > 0.0 and s_max / s_min <= _COND_LIMIT):
        raise np.linalg.LinAlgError(_ILL_CONDITIONED)
    if s0 < 0.0:
        raise np.linalg.LinAlgError("innovation covariance must be positive definite")
    l11 = math.sqrt(sxx)
    l21, l31 = sxy / l11, sxz / l11
    l22 = math.sqrt(syy - l21 * l21)
    l32 = (syz - l31 * l21) / l22
    l33 = math.sqrt(szz - l31 * l31 - l32 * l32)
    # Row i of K = P S^-1 solves S k = P's column i (P, S symmetric): L, then L^T.
    x0, y0, z0, psi, theta, phi = pose
    e0, e1, e2 = z[0] - x0, z[1] - y0, z[2] - z0
    cols, X, A = ((pxx, pxy, pxz), (pxy, pyy, pyz), (pxz, pyz, pzz)), [], []
    for (b0, b1, b2), x in zip(cols, (x0, y0, z0)):
        w0 = b0 / l11
        w1 = (b1 - l21 * w0) / l22
        k2 = (b2 - l31 * w0 - l32 * w1) / l33 / l33
        k1 = (w1 - l32 * k2) / l22
        k0 = (w0 - l21 * k1 - l31 * k2) / l11
        X.append(x + (k0 * e0 + k1 * e1 + k2 * e2))
        A.append((b0 - (k0 * pxx + k1 * pxy + k2 * pxz),
                  b1 - (k0 * pxy + k1 * pyy + k2 * pyz),
                  b2 - (k0 * pxz + k1 * pyz + k2 * pzz)))
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = A
    kp, kt = pp / sp, pt / st
    P9 = (a00, 0.5 * (a01 + a10), 0.5 * (a02 + a20), a11, 0.5 * (a12 + a21), a22,
          (1.0 - kp) * pp, (1.0 - kt) * pt, pf)
    if not all(map(math.isfinite, P9)):
        raise ValueError(_NOT_FINITE)
    psi += kp * _wrap_angle(z[3] - psi)  # finite: z and the pose are, and kp with P9
    theta += kt * _wrap_angle(z[4] - theta)
    return Pose6D(*X, _wrap_angle(psi), _wrap_angle(theta), _wrap_angle(phi)), P9


def _psd_floor(M8) -> float:
    """The least eigenvalue M may read and pass as PSD: -(1e-9 + 64 eps s), s the sum of
    |entries| of M_pos's upper triangle, M8[:6]. Any eigenvalue method rounds by about
    eps s, which a fixed floor cannot absorb once a scatter's variance nears 1e9 m^2. s is
    added left to right by +, not by 3.12's builtin sum, which compensates its rounding."""
    a, b, c, d, e, f = M8[:6]
    return -(_SYMMETRY_TOL + 64 * _EPS * (abs(a) + abs(b) + abs(c) + abs(d) + abs(e) + abs(f)))


def _eigvalsh3(a, b, c, d, e, f) -> tuple[float, float, float]:
    """Ascending eigenvalues of the symmetric [[a, d, e], [d, b, f], [e, f, c]] (nan if an
    entry is), the least within a few eps of s = sum |entries| of LAPACK's, the others 1e-7 s:
    c and the xy pair if e = f = 0, else Smith's form (CACM 4(4):168) on B = (A / s - q I) / p,
    and :func:`_normal_pair` for a lower two that nearly meet, of which acos loses sqrt(eps)."""
    s = abs(a) + abs(b) + abs(c) + abs(d) + abs(e) + abs(f)
    if not 0.0 < s < math.inf:
        return (0.0 if s == 0.0 else math.nan,) * 3
    a, b, c, d, e, f = a / s, b / s, c / s, d / s, e / s, f / s
    if e == f == 0.0:
        m, h = 0.5 * (a + b), math.hypot(0.5 * (a - b), d)
        return tuple(v * s for v in sorted((c, m - h, m + h)))
    q = (a + b + c) / 3.0
    p = math.sqrt(((a - q) ** 2 + (b - q) ** 2 + (c - q) ** 2 + 2 * (d * d + e * e + f * f)) / 6)
    k = p or 1.0  # p = 0: A / s = q I, and B = 0 leaves every eigenvalue q
    a, b, c, d, e, f = (a - q) / k, (b - q) / k, (c - q) / k, d / k, e / k, f / k
    r = min(max(0.5 * (a * (b * c - f * f) - d * (d * c - e * f) + e * (d * f - b * e)), -1.0), 1.0)
    phi = math.acos(r) / 3.0
    lo, hi = 2.0 * math.cos(phi + math.tau / 3.0), 2.0 * math.cos(phi)
    mid = -lo - hi
    if r > 0.99:  # hi stands 3 or more clear of the lower two
        lo, mid = _normal_pair((a - hi, d, e), (d, b - hi, f), (e, f, c - hi), hi)
    return (q + p * lo) * s, (q + p * mid) * s, (q + p * hi) * s


def _normal_pair(x, y, z, end) -> tuple[float, float]:
    """B = C + end I's eigenvalues on the plane (u, w) normal to end's vector, v, given C's rows."""
    cross = lambda s, t: (s[1] * t[2] - s[2] * t[1], s[2] * t[0] - s[0] * t[2],
                          s[0] * t[1] - s[1] * t[0])
    dot = lambda s, t: s[0] * t[0] + s[1] * t[1] + s[2] * t[2]
    v = max(cross(x, y), cross(x, z), cross(y, z), key=lambda v: dot(v, v))
    u = cross(v, (1.0, 0.0, 0.0) if v[0] * v[0] < 0.36 * dot(v, v) else (0.0, 1.0, 0.0))
    w = cross(v, u)
    quad = lambda s, t: ((s[0] * dot(x, t) + s[1] * dot(y, t) + s[2] * dot(z, t))
                         / math.sqrt(dot(s, s) * dot(t, t)))
    cuu, cuw, cww = quad(u, u), quad(u, w), quad(w, w)
    h = math.hypot(0.5 * (cuu - cww), cuw)
    return end + 0.5 * (cuu + cww) - h, end + 0.5 * (cuu + cww) + h
