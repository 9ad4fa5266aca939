"""Geometry unit tests: angle wrapping, Euler conversions, ground rays, cells."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossview.geometry import (
    _are_rotations,
    _compose,
    CELLS_PER_SIDE,
    CELL_SIZE,
    Pose6D,
    cell_center,
    cell_index,
    compose_increment,
    euler_to_rotmat,
    ground_intersection,
    is_rotation_matrix,
    rotmat_to_euler,
    wrap_angle,
    wrap_angles,
)


# --- wrap_angle -----------------------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        (190.0, -170.0),
        (-180.0, 180.0),
        (0.0, 0.0),
        (180.0, 180.0),
        (540.0, 180.0),
        (-190.0, 170.0),
        (720.0, 0.0),
        (-0.0, 0.0),
    ],
)
def test_wrap_angle_values(raw, expected):
    assert wrap_angle(raw) == pytest.approx(expected, abs=1e-12)


def test_wrap_angle_idempotent():
    rng = np.random.default_rng(11)
    for a in rng.uniform(-1000.0, 1000.0, size=500):
        w = wrap_angle(float(a))
        assert -180.0 < w <= 180.0
        assert wrap_angle(w) == w


@pytest.mark.parametrize("angle", [-0.1, -1e-10, -89.99999999999997])
def test_wrap_leaves_an_angle_in_range_unmoved(angle):
    # x % 360.0 rounds at the scale of 360 for negative x: -0.1 came back
    # as -0.10000000000002274 and -89.99999999999997 as -90.0.
    assert wrap_angle(angle) == angle
    assert wrap_angles(np.array([angle]))[0] == angle


@given(st.floats(-180.0, 180.0, exclude_min=True))
@example(-0.0)
def test_wrap_is_the_identity_on_its_range(angle):
    expected = 0.0 if angle == 0.0 else angle  # -0.0 wraps to 0.0
    for wrapped in (wrap_angle(angle), float(wrap_angles(np.array([angle]))[0])):
        assert math.copysign(1.0, wrapped) == math.copysign(1.0, expected)
        assert wrapped == expected


def test_wrap_angles_matches_scalar():
    rng = np.random.default_rng(12)
    a = rng.uniform(-720.0, 720.0, size=200)
    vec = wrap_angles(a)
    scal = np.array([wrap_angle(float(x)) for x in a])
    np.testing.assert_allclose(vec, scal, atol=1e-12)
    assert wrap_angles(np.array([-180.0]))[0] == 180.0
    with pytest.raises(ValueError, match="^angles must be finite$"):
        wrap_angles(np.array([10.0, math.nan]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: wrap_angle(math.nan), "angle must be finite, got nan"),
        (lambda: euler_to_rotmat(0.0, math.inf, 0.0), "theta must be finite, got inf"),
        (lambda: cell_index(0.0, math.nan), "y_rel must be finite, got nan"),
    ],
    ids=["wrap_angle", "euler_to_rotmat", "cell_index"],
)
def test_scalar_entries_name_their_non_finite_argument(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# --- euler_to_rotmat ------------------------------------------------------


def test_euler_identity():
    np.testing.assert_allclose(euler_to_rotmat(0.0, 0.0, 0.0), np.eye(3), atol=1e-15)


def test_euler_heading_180():
    R = euler_to_rotmat(180.0, 0.0, 0.0)
    expected = np.diag([-1.0, -1.0, 1.0])
    np.testing.assert_allclose(R, expected, atol=1e-12)


def test_rotmat_is_proper_rotation():
    rng = np.random.default_rng(13)
    for _ in range(300):
        psi, theta, phi = rng.uniform(-180.0, 180.0, size=3)
        R = euler_to_rotmat(psi, theta, phi)
        assert is_rotation_matrix(R)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)


def test_is_rotation_matrix_rejects_bad_input():
    assert not is_rotation_matrix(2.0 * np.eye(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    assert not is_rotation_matrix(reflection)
    assert not is_rotation_matrix(np.full((3, 3), np.nan))
    assert not is_rotation_matrix(np.full((3, 3), 1e200))  # R^T R overflows
    assert not is_rotation_matrix(np.eye(4))


# --- rotmat_to_euler ------------------------------------------------------


def test_rotmat_to_euler_identity():
    assert rotmat_to_euler(np.eye(3)) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_round_trip_single():
    angles = rotmat_to_euler(euler_to_rotmat(37.0, 12.0, 0.0))
    assert angles == pytest.approx((37.0, 12.0, 0.0), abs=1e-9)


def test_round_trip_random():
    # The acceptance suite runs the full 1e5-sample sweep; this is the
    # fast everyday version.
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(5000):
        psi = rng.uniform(-180.0, 180.0)
        theta = rng.uniform(-85.0, 85.0)
        phi = rng.uniform(-180.0, 180.0)
        R = euler_to_rotmat(psi, theta, phi)
        R2 = euler_to_rotmat(*rotmat_to_euler(R))
        worst = max(worst, float(np.abs(R2 - R).max()))
    assert worst < 1e-9


@pytest.mark.parametrize("theta", [90.0, -90.0])
def test_gimbal_lock_reconstructs_rotation(theta):
    """At |theta| = 90 the decomposition folds roll into heading (phi = 0)."""
    rng = np.random.default_rng(15)
    for _ in range(50):
        psi = float(rng.uniform(-180.0, 180.0))
        phi = float(rng.uniform(-180.0, 180.0))
        R = euler_to_rotmat(psi, theta, phi)
        got_psi, got_theta, got_phi = rotmat_to_euler(R)
        assert got_phi == 0.0
        assert got_theta == pytest.approx(theta, abs=1e-9)
        R2 = euler_to_rotmat(got_psi, got_theta, got_phi)
        np.testing.assert_allclose(R2, R, atol=1e-9)


def test_rotmat_to_euler_rejects_non_rotation():
    with pytest.raises(ValueError):
        rotmat_to_euler(1.5 * np.eye(3))


# --- properties -------------------------------------------------------------


def numpy_is_rotation_matrix(R, tol=1e-6):
    """The 2-D numpy form of the rotation check, the reference for the stacked one."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.all(np.isfinite(R)):
        return False
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol:
        return False
    return bool(np.linalg.det(R) > 0.0)


angles = st.floats(-180.0, 180.0)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rotation_candidates(draw):
    """Rotations, and rotations bent just inside or outside the 1e-6 check."""
    R = euler_to_rotmat(draw(angles), draw(angles), draw(angles))
    kinds = ["rotation", "scaled", "sheared", "perturbed", "reflection", "non_finite"]
    kind = draw(st.sampled_from(kinds))
    if kind == "scaled":  # R^T R = (1 + d)^2 I: rejected once |d| passes ~5e-7
        R = R * (1.0 + draw(st.floats(-1e-6, 1e-6)))
    elif kind == "sheared":  # moves one off-diagonal pair of R^T R by s alone
        j, k = draw(st.sampled_from([(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]))
        shear = np.eye(3)
        shear[j, k] = draw(st.floats(-2e-6, 2e-6))
        R = R @ shear
    elif kind == "perturbed":
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
        R = R + draw(st.floats(1e-8, 1e-5)) * np.reshape(noise, (3, 3))
    elif kind == "reflection":
        R = R @ np.diag([1.0, 1.0, -1.0])
    elif kind == "non_finite":
        R[draw(st.integers(0, 2)), draw(st.integers(0, 2))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
    return R


# (R^T R)[0, 1] a few 1e-18 from 1e-6, where the summation order decides the
# verdict: summed in plain floats it reads just above tol, through numpy's
# R.T @ R just below.
TIE = np.array([
    [0.9975639805033505, -0.0697564737441253, 0.0],
    [0.06975747130817556, 0.9975640502598242, 0.0],
    [0.0, 0.0, 1.0],
])


@settings(max_examples=500, deadline=None)
@given(R=rotation_candidates())
@example(R=-np.eye(3))
@example(R=np.eye(4))
@example(R=TIE)
def test_rotation_check_matches_numpy_form(R):
    assert is_rotation_matrix(R) == numpy_is_rotation_matrix(R)


# Sign flips of R's columns: the identity, then the reflections, det -1.
_FLIPS = [(1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (-1.0, -1.0, -1.0)]


@settings(max_examples=300, deadline=None)
@given(stack=st.lists(st.tuples(finite, finite, finite, st.sampled_from(_FLIPS)), min_size=1, max_size=6))
def test_stacked_check_refuses_orthonormal_reflections(stack):
    """Every matrix is orthonormal; the stack passes iff none is a reflection."""
    R = np.array([euler_to_rotmat(psi, theta, phi) * flip for psi, theta, phi, flip in stack])
    assert _are_rotations(R) is all(flip.count(-1.0) % 2 == 0 for *_, flip in stack)


@pytest.mark.parametrize("j, k", [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)])
def test_rotation_check_straddles_tolerance(j, k):
    # Entry (j, k) of R^T R - I alone, just inside and just outside 1e-6.
    R = euler_to_rotmat(30.0, 20.0, 10.0)
    for dev, expected in ((0.9e-6, True), (1.1e-6, False)):
        bend = np.eye(3)
        bend[j, k] = math.sqrt(1.0 + dev) if j == k else dev
        assert is_rotation_matrix(R @ bend) is expected
        assert numpy_is_rotation_matrix(R @ bend) is expected


@settings(max_examples=300, deadline=None)
@given(psi=finite, theta=finite, phi=finite)
def test_euler_to_rotmat_of_any_finite_angles_is_a_rotation(psi, theta, phi):
    assert is_rotation_matrix(euler_to_rotmat(psi, theta, phi))


@settings(max_examples=300, deadline=None)
@given(
    psi=angles,
    phi=angles,
    sign=st.sampled_from([1.0, -1.0]),
    gap=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
)
def test_euler_round_trip_near_vertical_tilt(psi, phi, sign, gap):
    theta = sign * (90.0 - gap)
    R = euler_to_rotmat(psi, theta, phi)
    got_psi, got_theta, got_phi = rotmat_to_euler(R)
    np.testing.assert_allclose(euler_to_rotmat(got_psi, got_theta, got_phi), R, atol=1e-9)
    assert abs(got_theta - theta) <= 1e-8
    if gap >= 1e-6:  # clear of the gimbal fold, the angles come back too
        assert abs(wrap_angle(got_psi - psi)) <= 1e-7
        assert abs(wrap_angle(got_phi - phi)) <= 1e-7


# --- ground_intersection --------------------------------------------------


def test_ground_intersection_nadir():
    pose = Pose6D(10.0, 20.0, 150.0, 123.0, 0.0)
    assert ground_intersection(pose) == pytest.approx((10.0, 20.0), abs=1e-12)


@pytest.mark.parametrize(
    "pose, expected",
    [
        (Pose6D(0.0, 0.0, 150.0, 0.0, 45.0), (0.0, 150.0)),
        (Pose6D(0.0, 0.0, 100.0, 90.0, 45.0), (100.0, 0.0)),
        (Pose6D(0.0, 0.0, 100.0, 180.0, 45.0), (0.0, -100.0)),
    ],
)
def test_ground_intersection_cardinal(pose, expected):
    got = ground_intersection(pose)
    assert got[0] == pytest.approx(expected[0], abs=1e-12)
    assert got[1] == pytest.approx(expected[1], abs=1e-12)


def test_ground_intersection_closed_form():
    rng = np.random.default_rng(16)
    for _ in range(500):
        pose = Pose6D(
            float(rng.uniform(-500, 500)),
            float(rng.uniform(-500, 500)),
            float(rng.uniform(100, 200)),
            float(rng.uniform(-180, 180)),
            float(rng.uniform(0, 45)),
        )
        xs, ys = ground_intersection(pose)
        offset = math.hypot(xs - pose.x, ys - pose.y)
        assert offset == pytest.approx(
            pose.z * math.tan(math.radians(pose.theta)), abs=1e-12
        )
        if offset > 1e-9:
            h = math.radians(pose.psi)
            assert (xs - pose.x) == pytest.approx(offset * math.sin(h), abs=1e-9)
            assert (ys - pose.y) == pytest.approx(offset * math.cos(h), abs=1e-9)


def test_ground_intersection_errors():
    with pytest.raises(ValueError):
        ground_intersection(Pose6D(0.0, 0.0, -5.0, 0.0, 10.0))
    with pytest.raises(ValueError):
        ground_intersection(Pose6D(0.0, 0.0, 150.0, 0.0, 90.0))


# --- cells ----------------------------------------------------------------


@pytest.mark.parametrize(
    "xy, idx",
    [
        ((-200.0, -200.0), 0),
        ((199.9, 199.9), 63),
        ((-180.0, 30.0), 32),
        ((200.0, 200.0), 63),  # clamped top edge
        ((0.0, 0.0), 36),
    ],
)
def test_cell_index_values(xy, idx):
    assert cell_index(*xy) == idx


def test_cell_index_out_of_range():
    with pytest.raises(ValueError):
        cell_index(-200.01, 0.0)
    with pytest.raises(ValueError):
        cell_index(0.0, 230.0)


def test_cell_center_corners():
    assert cell_center(0) == pytest.approx((-175.0, -175.0))
    assert cell_center(63) == pytest.approx((175.0, 175.0))


def test_cell_round_trip_all():
    for c in range(CELLS_PER_SIDE * CELLS_PER_SIDE):
        assert cell_index(*cell_center(c)) == c


def test_cell_preimage_partition():
    # every in-square point maps to the cell whose center is within half a
    # cell in both axes
    rng = np.random.default_rng(17)
    for _ in range(500):
        x = float(rng.uniform(-200.0, 200.0))
        y = float(rng.uniform(-200.0, 200.0))
        cx, cy = cell_center(cell_index(x, y))
        assert abs(cx - x) <= CELL_SIZE / 2.0 + 1e-9
        assert abs(cy - y) <= CELL_SIZE / 2.0 + 1e-9


def test_cell_center_rejects_bad_index():
    with pytest.raises(ValueError):
        cell_center(64)
    with pytest.raises(ValueError):
        cell_center(-1)
    with pytest.raises(ValueError, match="^cell id must be an integer, got 3.0$"):
        cell_center(3.0)


# --- Pose6D / compose_increment -------------------------------------------


def test_pose_rejects_non_finite():
    with pytest.raises(ValueError):
        Pose6D(float("nan"), 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Pose6D(0.0, 0.0, float("inf"), 0.0, 0.0)


@pytest.mark.parametrize("name", ["x", "y", "z", "psi", "theta", "phi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pose_names_each_non_finite_field(name, value):
    values = dict(x=1.0, y=2.0, z=3.0, psi=4.0, theta=5.0, phi=6.0)
    values[name] = value
    with pytest.raises(ValueError) as raised:
        Pose6D(**values)
    assert str(raised.value) == f"Pose6D.{name} must be finite, got {value!r}"


def test_pose_names_a_non_finite_numpy_field_as_a_float():
    with pytest.raises(ValueError) as raised:
        Pose6D(0.0, 0.0, 0.0, np.float64(np.nan), 0.0)
    assert str(raised.value) == "Pose6D.psi must be finite, got nan"


def test_pose_is_immutable():
    pose = Pose6D(1.0, 2.0, 3.0, 4.0, 5.0)
    with pytest.raises(AttributeError):
        pose.x = 0.0
    with pytest.raises(AttributeError):
        pose.extra = 0.0
    # _make and _replace build through the checked constructor
    with pytest.raises(ValueError, match="Pose6D.z must be finite"):
        pose._replace(z=math.inf)
    with pytest.raises(ValueError, match="Pose6D.x must be finite"):
        Pose6D._make([math.nan, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert pose._replace(phi=np.float64(6.0)) == Pose6D(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def test_pose_equality_is_by_value():
    pose = Pose6D(1.0, 2.0, 3.0, 4.0, 5.0, 0.0)
    assert pose == Pose6D(1, 2, 3, 4, 5) == (1.0, 2.0, 3.0, 4.0, 5.0, 0.0)
    assert hash(pose) == hash(Pose6D(1, 2, 3, 4, 5))
    assert pose != Pose6D(1.0, 2.0, 3.0, 4.0, 5.0, 1e-300)
    x, y, z, psi, theta, phi = pose
    assert (x, y, z, psi, theta, phi) == (pose.x, pose.y, pose.z, pose.psi, pose.theta, pose.phi)


def test_pose_pickles():
    pose = Pose6D(1.5, -0.0, 3e200, -179.5, 5e-324, 180.0)
    back = pickle.loads(pickle.dumps(pose))
    assert type(back) is Pose6D
    assert np.array(back).tobytes() == np.array(pose).tobytes()


def test_pose_repr_is_the_dataclass_format():
    assert repr(Pose6D(1.0, 2.0, 3.0, 4.0, 5.0)) == (
        "Pose6D(x=1.0, y=2.0, z=3.0, psi=4.0, theta=5.0, phi=0.0)"
    )


def test_pose_stores_numpy_and_int_inputs_as_float():
    for pose in (Pose6D(*np.arange(6.0)), Pose6D(*np.arange(6)), Pose6D(*np.arange(6, dtype=np.float32))):
        assert [type(v) for v in pose] == [float] * 6
        assert pose == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    assert repr(Pose6D(*np.zeros(6))) == "Pose6D(x=0.0, y=0.0, z=0.0, psi=0.0, theta=0.0, phi=0.0)"


def test_pose_accessors():
    pose = Pose6D(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    np.testing.assert_allclose(pose.position, [1.0, 2.0, 3.0])
    assert pose.angles == (4.0, 5.0, 6.0)


def test_compose_identity():
    pose = Pose6D(1.0, 2.0, 3.0, 40.0, 5.0, 0.0)
    out = compose_increment(pose, np.zeros(3), np.eye(3))
    assert out == pose


def test_compose_translation():
    out = compose_increment(
        Pose6D(0.0, 0.0, 0.0, 0.0, 0.0), np.array([1.0, 2.0, 3.0]), np.eye(3)
    )
    np.testing.assert_allclose(out.position, [1.0, 2.0, 3.0])


def test_compose_heading_rotation():
    pose = Pose6D(0.0, 0.0, 0.0, 10.0, 0.0, 0.0)
    out = compose_increment(pose, np.zeros(3), euler_to_rotmat(20.0, 0.0, 0.0))
    assert out.psi == pytest.approx(30.0, abs=1e-9)
    assert out.theta == pytest.approx(0.0, abs=1e-9)
    assert out.phi == pytest.approx(0.0, abs=1e-9)


def test_compose_rejects_bad_increment():
    pose = Pose6D(0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        compose_increment(pose, np.zeros(2), np.eye(3))
    with pytest.raises(ValueError):
        compose_increment(pose, np.zeros(3), 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        compose_increment(pose, np.array([1.0, np.nan, 0.0]), np.eye(3))


def test_compose_refuses_a_position_that_overflows():
    pose = Pose6D(1.7e308, 0.0, 150.0, 0.0, 10.0)
    with pytest.raises(ValueError, match="Pose6D.x must be finite"):
        compose_increment(pose, [1.7e308, 0.0, 0.0], np.eye(3))


_heading = st.floats(-180.0, 180.0)
# Tilts anywhere, and within a hair of the +/-90 gimbal lock.
_tilt = st.one_of(st.floats(-90.0, 90.0), st.floats(89.999999, 90.0), st.floats(-90.0, -89.999999))
_pose = st.builds(Pose6D, *[st.floats(-1e6, 1e6)] * 3, _heading, _tilt, _heading)


def _bits(pose):
    return np.array(tuple(pose)).tobytes()


def plain_matmul(A, B):
    """A @ B of two 3x3 matrices in plain floats, each entry a0*b0 + a1*b1 +
    a2*b2 summed left to right: the product the kernels promise, on any BLAS."""
    a, b = np.asarray(A).tolist(), np.asarray(B).tolist()
    return np.array(
        [[a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3)] for i in range(3)]
    )


def assert_compose_kernel_is_the_product(poses, dp, dR):
    """_compose gives each pose compose_increment's bits and those of the
    left-to-right product dR @ R, which lies within 1e-15 of BLAS's."""
    got = _compose(poses, dp, dR.ravel().tolist())
    assert len(got) == len(poses)
    for pose, out in zip(poses, got):
        assert _bits(out) == _bits(compose_increment(pose, np.array(dp), dR))
        p = [pose.x + dp[0], pose.y + dp[1], pose.z + dp[2]]
        R = euler_to_rotmat(*pose.angles)
        product = plain_matmul(dR, R)
        np.testing.assert_allclose(product, dR @ R, rtol=0.0, atol=1e-15)
        assert _bits(out) == _bits(Pose6D(*p, *rotmat_to_euler(product)))
    return got


@settings(max_examples=300, deadline=None)
@given(
    poses=st.lists(_pose, min_size=1, max_size=4),
    dp=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
    angles=st.tuples(_heading, _tilt, _heading),
)
def test_compose_kernel_equals_compose_increment_bitwise(poses, dp, angles):
    """The loop's predict kernel, on plain floats, is the matrix product."""
    assert_compose_kernel_is_the_product(poses, dp, euler_to_rotmat(*angles))


# Tilts within 1e-9 deg of +/-90: hypot(R00, R10) is below _GIMBAL_EPS.
_gimbal_tilt = st.one_of(st.floats(90.0 - 1e-9, 90.0), st.floats(-90.0, -90.0 + 1e-9))


@settings(max_examples=100, deadline=None)
@given(
    poses=st.lists(
        st.builds(Pose6D, *[st.floats(-1e6, 1e6)] * 3, _heading, _gimbal_tilt, _heading),
        min_size=1, max_size=4,
    ),
    dp=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
    heading=_heading,
)
def test_compose_kernel_through_the_gimbal_branch(poses, dp, heading):
    """A heading increment keeps a tilt at +/-90 there, so each pose takes
    the gimbal branch: phi folds into psi and is 0."""
    got = assert_compose_kernel_is_the_product(poses, dp, euler_to_rotmat(heading, 0.0, 0.0))
    for pose, out in zip(poses, got):
        assert out.phi == 0.0 and out.theta == math.copysign(90.0, pose.theta)
