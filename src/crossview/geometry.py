"""Pose and grid geometry for cross-view localization in a flat local frame.

Axes are east-north-up: x east, y north, z up, all in meters. Headings follow
the compass convention (0 = north, clockwise positive) and every public angle
is in degrees. Orientation matrices compose heading, tilt, roll in that order
(z-y-x intrinsic). Tilt is measured from nadir, so a camera with zero tilt
looks straight down and ``ground_intersection`` reduces to the camera's own
(x, y).
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import isfinite

import numpy as np

__all__ = [
    "CELL_GRID_HALF_EXTENT",
    "CELL_SIZE",
    "CELLS_PER_SIDE",
    "Pose6D",
    "cell_center",
    "cell_index",
    "compose_increment",
    "euler_to_rotmat",
    "ground_intersection",
    "is_rotation_matrix",
    "rotmat_to_euler",
    "wrap_angle",
    "wrap_angles",
]

# Ground cell grid: 8 x 8 cells of 50 m covering [-200, 200]^2 around the
# local origin, ids row-major from the (-200, -200) corner.
CELL_GRID_HALF_EXTENT = 200.0
CELL_SIZE = 50.0
CELLS_PER_SIDE = 8

# The most any entry of R^T R - I may be off for R to count as a rotation.
_ROTATION_TOL = 1e-6
_NOT_A_ROTATION = f"is not a rotation matrix (orthonormal within {_ROTATION_TOL:g})"

# Below this value of hypot(R00, R10) the tilt is within ~1e-9 deg of +/-90
# and heading/roll are no longer separable.
_GIMBAL_EPS = 1e-10


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class Pose6D(namedtuple("Pose6D", "x y z psi theta phi", defaults=(0.0,))):
    """Camera pose: position in meters plus heading/tilt/roll in degrees.

    An immutable 6-tuple, so a pose unpacks, iterates and equals a plain
    tuple of its fields. Every field is coerced with float() and checked
    finite on each build, ``_make`` and ``_replace`` included. One build
    skips the check: the predict kernel, ``_compose``, makes its poses with
    ``tuple.__new__`` from finite floats, and ``compose_increment`` and
    ``sim._run_pipelines`` check what it returns.
    """

    __slots__ = ()

    def __new__(cls, x, y, z, psi, theta, phi=0.0):
        x, y, z, psi, theta, phi = (
            float(x), float(y), float(z), float(psi), float(theta), float(phi)
        )
        if not (
            isfinite(x) and isfinite(y) and isfinite(z)
            and isfinite(psi) and isfinite(theta) and isfinite(phi)
        ):
            for name, value in zip(cls._fields, (x, y, z, psi, theta, phi)):
                if not isfinite(value):
                    raise ValueError(f"Pose6D.{name} must be finite, got {value!r}")
        return tuple.__new__(cls, (x, y, z, psi, theta, phi))

    @classmethod
    def _make(cls, iterable) -> "Pose6D":
        return cls(*iterable)

    @property
    def position(self) -> np.ndarray:
        return np.array(self[:3], dtype=float)

    @property
    def angles(self) -> tuple[float, float, float]:
        return self[3:]


def wrap_angle(angle: float) -> float:
    """Wrap an angle in degrees to (-180, 180]; -180 maps to +180."""
    _require_finite(angle=angle)
    return _wrap_angle(angle)


def _wrap_angle(angle: float) -> float:
    # Unchecked kernel of wrap_angle, for angles already known finite. An
    # angle in range is returned as it is (+ 0.0 turns -0.0 into 0.0): a
    # negative x % 360.0 rounds at the scale of 360, which moves it.
    angle = float(angle)
    if -180.0 < angle <= 180.0:
        return angle + 0.0
    wrapped = angle % 360.0
    if wrapped > 180.0:
        wrapped -= 360.0
    return wrapped


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`wrap_angle` for arrays of degrees."""
    arr = np.asarray(angles, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("angles must be finite")
    wrapped = np.mod(arr, 360.0)
    wrapped = np.where(wrapped > 180.0, wrapped - 360.0, wrapped)
    return np.where((arr > -180.0) & (arr <= 180.0), arr + 0.0, wrapped)


def euler_to_rotmat(psi: float, theta: float, phi: float) -> np.ndarray:
    """Build the rotation matrix R = Rz(psi) @ Ry(theta) @ Rx(phi).

    Angles are degrees. The result is orthonormal to machine precision.
    """
    _require_finite(psi=psi, theta=theta, phi=phi)
    return _euler_to_rotmats(np.array([[psi, theta, phi]], dtype=float))[0]


def _euler_to_rotmats(angles: np.ndarray) -> np.ndarray:
    # Unchecked kernel of euler_to_rotmat: the (n, 3, 3) stack for an (n, 3)
    # array of finite (psi, theta, phi) rows. Every entry is the elementwise
    # form of _compose's scalar one, in the same order: float64 np.sin and
    # np.cos are libm's sin and cos, so the bits are math's.
    rad = np.radians(angles)
    (cz, cy, cx), (sz, sy, sx) = np.cos(rad).T, np.sin(rad).T
    return np.array([
        cz * cy, cz * sy * sx - sz * cx, cz * sy * cx + sz * sx,
        sz * cy, sz * sy * sx + cz * cx, sz * sy * cx - cz * sx,
        -sy, cy * sx, cy * cx,
    ]).T.reshape(-1, 3, 3)


def is_rotation_matrix(R: np.ndarray) -> bool:
    """True when R is 3x3, orthonormal within _ROTATION_TOL, and right-handed:
    the 3x3 case of the stacked check, ``_are_rotations``."""
    R = np.asarray(R, dtype=float)
    return R.shape == (3, 3) and _are_rotations(R[None])


def _are_rotations(R: np.ndarray) -> bool:
    """Whether every matrix of an (n, 3, 3) stack, n >= 1, is a rotation."""
    if not np.isfinite(R).all():
        return False
    # A finite matrix whose R^T R overflows is simply not a rotation.
    with np.errstate(over="ignore", invalid="ignore"):
        worst = np.abs(np.matmul(R.transpose(0, 2, 1), R) - np.eye(3)).max()
    if not worst <= _ROTATION_TOL:
        return False
    # Right-handed: det R = (r0 x r1) . r2 > 0, elementwise, with no LAPACK
    # call; on an orthonormal stack it is +1 or -1 within the tolerance.
    (a0, a1, a2), (b0, b1, b2), c = R[:, 0].T, R[:, 1].T, R[:, 2].T
    det = (a1 * b2 - a2 * b1) * c[0] + (a2 * b0 - a0 * b2) * c[1] + (a0 * b1 - a1 * b0) * c[2]
    return bool(det.min() > 0.0)


def rotmat_to_euler(R: np.ndarray) -> tuple[float, float, float]:
    """Extract (psi, theta, phi) in degrees from a z-y-x rotation matrix.

    psi and phi land in (-180, 180], theta in [-90, 90]. Within ~1e-9 deg of
    theta = +/-90 the heading and roll axes align; the canonical choice here
    is phi = 0 with the whole z-rotation folded into psi.
    """
    R = np.asarray(R, dtype=float)
    if not is_rotation_matrix(R):
        raise ValueError(f"R {_NOT_A_ROTATION}")
    return _rotmat_to_euler(R.ravel().tolist())


def _rotmat_to_euler(r) -> tuple[float, float, float]:
    # Unchecked kernel of rotmat_to_euler, on a matrix's nine entries in
    # row-major order (R.ravel().tolist()), already known to be a rotation
    # (validated, or a product of validated ones). r[2] and r[5] go unread.
    r00, r01, _, r10, r11, _, r20, r21, r22 = r
    sy = math.hypot(r00, r10)
    if sy < _GIMBAL_EPS:
        theta = math.copysign(90.0, -r20)
        psi = math.degrees(math.atan2(-r01, r11))
        phi = 0.0
    else:
        theta = math.degrees(math.atan2(-r20, sy))
        psi = math.degrees(math.atan2(r10, r00))
        phi = math.degrees(math.atan2(r21, r22))
    return (_wrap_angle(psi), theta, _wrap_angle(phi))


def ground_intersection(pose: Pose6D) -> tuple[float, float]:
    """Ground point the camera's optical axis hits, on the z = 0 plane.

    The axis leaves the camera tilted ``theta`` from nadir toward compass
    heading ``psi``, so the hit point is offset z*tan(theta) along
    (sin(psi), cos(psi)). Requires z > 0 and |theta| < 90 (at 90 degrees the
    axis is horizontal and never reaches the ground). Negative tilt mirrors
    the offset backward.
    """
    if pose.z <= 0.0:
        raise ValueError(f"camera must be above the ground plane, got z={pose.z}")
    if abs(pose.theta) >= 90.0:
        raise ValueError(
            f"optical axis does not intersect the ground for tilt {pose.theta} deg"
        )
    reach = pose.z * math.tan(math.radians(pose.theta))
    x = pose.x + reach * math.sin(math.radians(pose.psi))
    y = pose.y + reach * math.cos(math.radians(pose.psi))
    return (x, y)


def cell_index(x_rel: float, y_rel: float) -> int:
    """Map a ground offset (meters, relative to the query center) to a cell id.

    Cells tile [-200, 200]^2 in 50 m squares, id = row * 8 + col counted from
    the (-200, -200) corner; points on the far edges clamp into the last
    row/column. Offsets outside the grid raise ValueError.
    """
    _require_finite(x_rel=x_rel, y_rel=y_rel)
    half = CELL_GRID_HALF_EXTENT
    if not (-half <= x_rel <= half and -half <= y_rel <= half):
        raise ValueError(f"offset ({x_rel}, {y_rel}) outside the {half} m grid")
    col = min(int((x_rel + half) // CELL_SIZE), CELLS_PER_SIDE - 1)
    row = min(int((y_rel + half) // CELL_SIZE), CELLS_PER_SIDE - 1)
    return row * CELLS_PER_SIDE + col


def cell_center(cell: int) -> tuple[float, float]:
    """Center offset (meters) of a grid cell id, inverse of :func:`cell_index`."""
    if not isinstance(cell, (int, np.integer)):
        raise ValueError(f"cell id must be an integer, got {cell!r}")
    if not 0 <= cell < CELLS_PER_SIDE * CELLS_PER_SIDE:
        raise ValueError(f"cell id {cell} outside 0..{CELLS_PER_SIDE**2 - 1}")
    row, col = divmod(int(cell), CELLS_PER_SIDE)
    x = -CELL_GRID_HALF_EXTENT + CELL_SIZE * col + CELL_SIZE / 2.0
    y = -CELL_GRID_HALF_EXTENT + CELL_SIZE * row + CELL_SIZE / 2.0
    return (x, y)


def compose_increment(pose: Pose6D, dp: np.ndarray, dR: np.ndarray) -> Pose6D:
    """Apply a relative motion to a pose: p + dp and R_new = dR @ R.

    dp is a world-frame 3-vector in meters; dR must be a rotation matrix
    (caller's contract, validated by :func:`is_rotation_matrix`). Angles in
    the result are wrapped to (-180, 180].
    """
    dp = np.asarray(dp, dtype=float)
    if dp.shape != (3,):
        raise ValueError(f"dp must be a 3-vector, got shape {dp.shape}")
    if not all(map(math.isfinite, dp.tolist())):
        raise ValueError("dp must be finite")
    dR = np.asarray(dR, dtype=float)
    if not is_rotation_matrix(dR):
        raise ValueError(f"dR {_NOT_A_ROTATION}")
    return Pose6D(*_compose([pose], dp.tolist(), dR.ravel().tolist())[0])


# The constants CPython's math.radians and math.degrees multiply by.
_DEG = math.pi / 180.0
_RAD = 180.0 / math.pi


def _compose(poses: list[Pose6D], dp: list[float], dR: list[float]) -> list[Pose6D]:
    # Unchecked kernel of compose_increment: dp's 3 and a rotation dR's nine
    # row-major floats applied to each pose in plain floats. It inlines
    # euler_to_rotmat's entries, the entries of dR @ R that _rotmat_to_euler
    # reads on its branch, each summed left to right, and that extraction, so
    # the bits match on every machine; a product of rotations needs no check.
    # Poses are built unchecked: every angle is finite, and a position
    # overflows only past _check_distance_model's bound, so compose_increment
    # and sim._run_pipelines check what they keep.
    dx, dy, dz = dp
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = dR
    cos, sin, atan2, hypot = math.cos, math.sin, math.atan2, math.hypot
    deg, rad, new = _DEG, _RAD, tuple.__new__
    out = []
    for x, y, z, psi, theta, phi in poses:
        h, t, r = psi * deg, theta * deg, phi * deg
        cz, sz = cos(h), sin(h)
        cy, sy = cos(t), sin(t)
        cx, sx = cos(r), sin(r)
        b00, b01, b02 = cz * cy, cz * sy * sx - sz * cx, cz * sy * cx + sz * sx
        b10, b11, b12 = sz * cy, sz * sy * sx + cz * cx, sz * sy * cx - cz * sx
        b20, b21, b22 = -sy, cy * sx, cy * cx
        r00 = a00 * b00 + a01 * b10 + a02 * b20
        r10 = a10 * b00 + a11 * b10 + a12 * b20
        r20 = a20 * b00 + a21 * b10 + a22 * b20
        sy = hypot(r00, r10)
        if sy < _GIMBAL_EPS:
            r01 = a00 * b01 + a01 * b11 + a02 * b21
            r11 = a10 * b01 + a11 * b11 + a12 * b21
            theta = math.copysign(90.0, -r20)
            psi = atan2(-r01, r11) * rad
            phi = 0.0
        else:
            r21 = a20 * b01 + a21 * b11 + a22 * b21
            r22 = a20 * b02 + a21 * b12 + a22 * b22
            theta = atan2(-r20, sy) * rad
            psi = atan2(r10, r00) * rad
            phi = atan2(r21, r22) * rad
        psi = psi + 0.0 if -180.0 < psi <= 180.0 else _wrap_angle(psi)
        phi = phi + 0.0 if -180.0 < phi <= 180.0 else _wrap_angle(phi)
        out.append(new(Pose6D, (x + dx, y + dy, z + dz, psi, theta, phi)))
    return out
