"""Kalman filter tests: literal-algebra oracle, hand cases, consistency."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from crossview.config import MAX_TILT_DEG, SimConfig
from crossview.estimator import (
    OBSERVATION_MATRIX,
    FilterState,
    ProcessNoise,
    VoIncrement,
    _correct_blocks,
    _eigvalsh3,
    _psd_floor,
    correct,
    predict,
    state_vector,
)
from crossview.fusion import FusedMeasurement, _block_entries, _block_matrix, fuse
from crossview.geometry import Pose6D, euler_to_rotmat, wrap_angle
from crossview.matchers import MatchResult, match_variances


def literal_correct(X, P, z, M):
    """Textbook update written out directly, with explicit inverse.

    Returns (X', P') using the plain (I - K H) P form, no symmetrization,
    which is the algebra the production code must reproduce.
    """
    H = OBSERVATION_MATRIX
    S = M + H @ P @ H.T
    K = P @ H.T @ np.linalg.inv(S)
    y = z - H @ X
    y[3] = wrap_angle(y[3])
    y[4] = wrap_angle(y[4])
    X_new = X + K @ y
    P_new = (np.eye(6) - K @ H) @ P
    return X_new, P_new


def random_psd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return A @ A.T * scale + np.eye(n) * 1e-3


def measurement(z, M):
    return FusedMeasurement(np.asarray(z[:3], dtype=float), float(z[3]), float(z[4]), M)


# The default config's process noise and hybrid lone-candidate variances.
DEFAULT_Q = ProcessNoise(np.full(6, SimConfig().process_noise_var))
HYBRID = match_variances(SimConfig(), "hybrid")


def state_at(x=0.0, y=0.0, z=150.0, psi=0.0, theta=0.0, phi=0.0, P=None):
    P = np.eye(6) if P is None else P
    return FilterState(Pose6D(x, y, z, psi, theta, phi), P)


# --- value types ----------------------------------------------------------


def test_vo_increment_validation():
    with pytest.raises(ValueError):
        VoIncrement(np.zeros(2), np.eye(3))
    with pytest.raises(ValueError):
        VoIncrement(np.zeros(3), np.eye(3) * 1.1)
    ident = VoIncrement.identity()
    np.testing.assert_allclose(ident.dp, np.zeros(3))
    np.testing.assert_allclose(ident.dR, np.eye(3))


@pytest.mark.parametrize(
    "make", [VoIncrement.identity, lambda: ProcessNoise(np.full(6, 0.01))],
    ids=["vo_increment", "process_noise"],
)
def test_array_holders_compare_by_identity(make):
    # Field-wise == of two array-holding values raised "truth value of an array".
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True
    assert a == a
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_process_noise_default_and_validation():
    np.testing.assert_allclose(DEFAULT_Q.matrix, np.eye(6) * 0.01)
    with pytest.raises(TypeError):  # the caller's config sets Q, not a default
        ProcessNoise()
    with pytest.raises(ValueError):
        ProcessNoise(np.full(6, -0.1))
    with pytest.raises(ValueError):
        ProcessNoise(np.zeros(5))


def test_filter_state_validation():
    with pytest.raises(ValueError):
        FilterState(Pose6D(0, 0, 0, 0, 0), np.eye(5))
    asym = np.eye(6)
    asym[0, 1] = 1e-3
    with pytest.raises(ValueError):
        FilterState(Pose6D(0, 0, 0, 0, 0), asym)
    init = FilterState.initial(Pose6D(1, 2, 3, 4, 5), variance=2.5)
    np.testing.assert_allclose(init.P, np.eye(6) * 2.5)
    np.testing.assert_allclose(state_vector(init), [1, 2, 3, 4, 5, 0])


# --- predict --------------------------------------------------------------


def test_predict_identity_zero_noise():
    s = state_at(psi=12.0, theta=3.0)
    out = predict(s, VoIncrement.identity(), ProcessNoise(np.zeros(6)))
    np.testing.assert_allclose(state_vector(out), state_vector(s), atol=1e-12)
    np.testing.assert_allclose(out.P, s.P)


def test_predict_adds_default_q():
    s = state_at()
    out = predict(s, VoIncrement.identity(), DEFAULT_Q)
    np.testing.assert_allclose(out.P, np.eye(6) + np.eye(6) * 0.01)


def test_predict_accumulates_q_linearly():
    s = state_at()
    for _ in range(7):
        s = predict(s, VoIncrement.identity(), DEFAULT_Q)
    np.testing.assert_allclose(s.P, np.eye(6) * 1.07)


def test_predict_composes_pose():
    s = state_at(x=1.0, psi=10.0)
    inc = VoIncrement(np.array([1.0, 2.0, 3.0]), euler_to_rotmat(20.0, 0.0, 0.0))
    out = predict(s, inc, DEFAULT_Q)
    np.testing.assert_allclose(out.pose.position, [2.0, 2.0, 153.0])
    assert out.pose.psi == pytest.approx(30.0, abs=1e-9)


# --- correct: hand cases --------------------------------------------------


def test_zero_innovation_leaves_state():
    s = state_at(x=5.0, y=-3.0, psi=40.0, theta=10.0, P=random_psd(np.random.default_rng(0), 6))
    z = OBSERVATION_MATRIX @ state_vector(s)
    out = correct(s, measurement(z, np.eye(5)))
    np.testing.assert_allclose(state_vector(out), state_vector(s), atol=1e-12)
    assert np.trace(out.P) <= np.trace(s.P) + 1e-12


def test_uninformative_measurement_ignored():
    s = state_at(x=100.0, y=50.0, psi=30.0)
    z = OBSERVATION_MATRIX @ state_vector(s) + np.array([50.0, -20.0, 10.0, 5.0, 2.0])
    out = correct(s, measurement(z, np.eye(5) * 1e12))
    delta = np.linalg.norm(state_vector(out) - state_vector(s))
    assert delta / np.linalg.norm(state_vector(s)) < 1e-6


def test_scalar_sanity_per_axis():
    """P=1, M=1, innovation 2 gives K=0.5, a move of 1, and P -> 0.5."""
    s = state_at(x=0.0, y=0.0, z=0.0, psi=0.0, theta=0.0)
    z = np.full(5, 2.0)
    out = correct(s, measurement(z, np.eye(5)))
    np.testing.assert_allclose(state_vector(out)[:5], np.full(5, 1.0), atol=1e-12)
    assert out.pose.phi == 0.0
    np.testing.assert_allclose(np.diagonal(out.P)[:5], np.full(5, 0.5), atol=1e-12)
    assert out.P[5, 5] == pytest.approx(1.0, abs=1e-12)  # roll untouched


def test_roll_never_corrected():
    rng = np.random.default_rng(51)
    s = state_at(phi=25.0, P=np.diag(rng.uniform(0.5, 4.0, size=6)))
    for _ in range(20):
        z = rng.uniform(-50.0, 50.0, size=5)
        out = correct(s, measurement(z, random_psd(rng, 5)))
        assert out.pose.phi == 25.0
        s = FilterState(out.pose, np.diag(np.diagonal(out.P)))


def test_innovation_wraps_heading_seam():
    s = state_at(psi=-179.0)
    z = np.array([0.0, 0.0, 150.0, 179.0, 0.0])
    out = correct(s, measurement(z, np.eye(5)))
    # K = 0.5: moves 1 degree the short way across the seam, not +179
    assert out.pose.psi == pytest.approx(180.0, abs=1e-9)


# Headings within 30 degrees of the seam, on either side of it.
near_seam = st.floats(-30.0, 30.0).map(lambda d: wrap_angle(180.0 + d))


@settings(max_examples=300, deadline=None)
@given(
    psi=near_seam,
    z_psi=near_seam,
    delta=st.one_of(st.floats(-720.0, 720.0), st.sampled_from([180.0, -180.0, 360.0])),
    seed=st.integers(0, 2**32 - 1),
)
def test_correct_heading_shift_is_equivariant_across_seam(psi, z_psi, delta, seed):
    # Turning the whole problem by delta turns the corrected heading by
    # wrap(delta) and leaves every other state and the covariance alone.
    rng = np.random.default_rng(seed)
    x, y, z, theta, phi = rng.uniform(-50.0, 50.0, size=5)
    P, M = random_psd(rng, 6), random_psd(rng, 5)
    p_bar, theta_bar = rng.uniform(-50.0, 50.0, size=3), float(rng.uniform(-50.0, 50.0))

    def corrected(shift):
        state = FilterState(Pose6D(x, y, z, wrap_angle(psi + shift), theta, phi), P)
        return correct(state, FusedMeasurement(p_bar, wrap_angle(z_psi + shift), theta_bar, M))

    base, turned = corrected(0.0), corrected(delta)
    assert abs(wrap_angle(turned.pose.psi - base.pose.psi - wrap_angle(delta))) <= 1e-9
    for name in ("x", "y", "z", "theta", "phi"):
        assert getattr(turned.pose, name) == pytest.approx(getattr(base.pose, name), abs=1e-9)
    assert turned.P.tobytes() == base.P.tobytes()


def test_correct_rejects_bad_covariance():
    s = state_at()
    bad_shape = np.eye(4)
    with pytest.raises(ValueError):
        correct(s, FusedMeasurement(np.zeros(3), 0.0, 0.0, bad_shape))
    asym = np.eye(5)
    asym[0, 1] = 1e-3
    with pytest.raises(ValueError):
        correct(s, measurement(np.zeros(5), asym))
    indefinite = np.diag([1.0, 1.0, 1.0, 1.0, -0.5])
    with pytest.raises(ValueError):
        correct(s, measurement(np.zeros(5), indefinite))


def test_correct_rejects_ill_conditioned():
    s = state_at(P=np.eye(6) * 1e-14)
    singularish = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError):
        correct(s, measurement(np.zeros(5), singularish))
    # S_pos = diag(-1, 2, 2) is well conditioned but not positive definite.
    s = state_at(P=np.diag([-2.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError, match="^innovation covariance must be positive definite$"):
        correct(s, measurement(np.zeros(5), np.eye(5)))


def test_correct_rejects_singular_innovation_covariance_without_warning():
    # P = 0 and a singular M leave S exactly singular: its smallest singular
    # value is 0, so the condition number is infinite, with no division
    # warning on the way.
    s = state_at(P=np.zeros((6, 6)))
    for M in (np.diag([1.0, 1.0, 1.0, 1.0, 0.0]), np.zeros((5, 5))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(np.linalg.LinAlgError, match="condition number"):
                correct(s, measurement(np.zeros(5), M))
        assert caught == []


# --- correct: literal oracle ----------------------------------------------


def h_matrix_correct(state, measurement):
    """correct as written with the observation matrix H, before it used H's
    selection structure: the bit-exact reference of the current form."""
    M = np.asarray(measurement.M, dtype=float)
    H = OBSERVATION_MATRIX
    X = state_vector(state)
    P = state.P
    S = M + H @ P @ H.T
    if np.linalg.cond(S) > 1e12:
        raise np.linalg.LinAlgError("innovation covariance condition number exceeds 1e+12")
    innovation = measurement.z_vector() - H @ X
    innovation[3] = wrap_angle(innovation[3])
    innovation[4] = wrap_angle(innovation[4])
    K = np.linalg.solve(S.T, (P @ H.T).T).T
    updated = X + K @ innovation
    P_new = (np.eye(6) - K @ H) @ P
    P_new = 0.5 * (P_new + P_new.T)
    pose = Pose6D(
        float(updated[0]),
        float(updated[1]),
        float(updated[2]),
        wrap_angle(float(updated[3])),
        wrap_angle(float(updated[4])),
        wrap_angle(float(updated[5])),
    )
    return FilterState(pose, P_new)


def fused_candidates(rng, k):
    """A real fuse of k random candidates around a random pose."""
    center = rng.uniform(-500.0, 500.0, size=3)
    psi0 = float(rng.uniform(-180.0, 180.0))
    results = [
        MatchResult(
            float(rng.uniform(1.0, 80.0)),
            center + rng.normal(0.0, 40.0, size=3),
            wrap_angle(psi0 + float(rng.normal(0.0, 30.0))),
            float(rng.uniform(0.0, 45.0)),
            tid,
        )
        for tid in range(k)
    ]
    return fuse(results, HYBRID)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 16),
    scale=st.sampled_from([1e-6, 1e-2, 1.0, 1e2, 1e4]),
    skew=st.one_of(st.just(0.0), st.floats(-9e-10, 9e-10)),
)
def test_correct_is_bit_identical_to_h_matrix_form(seed, k, scale, skew):
    rng = np.random.default_rng(seed)
    P = random_psd(rng, 6, scale=scale)
    P = 0.5 * (P + P.T)
    i, j = rng.choice(6, size=2, replace=False)
    P[i, j] += skew  # exactly symmetric, or asymmetric within FilterState's 1e-9
    x, y, z, psi, theta, phi = rng.uniform(-170.0, 170.0, size=6).tolist()
    state = FilterState(Pose6D(x, y, 150.0 + z, psi, theta, phi), P)
    fused = fused_candidates(rng, k)
    got, want = correct(state, fused), h_matrix_correct(state, fused)
    assert got.P.tobytes() == want.P.tobytes()
    assert repr(got.pose) == repr(want.pose)




def test_correct_matches_literal_algebra():
    rng = np.random.default_rng(52)
    for _ in range(1000):
        P = random_psd(rng, 6, scale=float(rng.uniform(0.1, 10.0)))
        M = random_psd(rng, 5, scale=float(rng.uniform(0.1, 10.0)))
        s = state_at(
            x=float(rng.uniform(-100, 100)),
            y=float(rng.uniform(-100, 100)),
            z=float(rng.uniform(100, 200)),
            psi=float(rng.uniform(-170, 170)),
            theta=float(rng.uniform(-80, 80)),
            phi=float(rng.uniform(-170, 170)),
            P=P,
        )
        z = np.concatenate(
            [
                rng.uniform(-100, 100, size=2),
                rng.uniform(100, 200, size=1),
                rng.uniform(-170, 170, size=1),
                rng.uniform(-80, 80, size=1),
            ]
        )
        out = correct(s, measurement(z, M))
        X_ref, P_ref = literal_correct(state_vector(s), P, z.copy(), M)
        got = state_vector(out)
        # angles may differ by a full wrap
        for i in (3, 4, 5):
            assert abs(wrap_angle(got[i] - X_ref[i])) < 1e-9
            got[i] = X_ref[i]
        np.testing.assert_allclose(got, X_ref, atol=1e-9)
        np.testing.assert_allclose(out.P, 0.5 * (P_ref + P_ref.T), atol=1e-9)


# --- correct: the block form against the general form ---------------------


def general_form(state, fused):
    """correct's general LAPACK branch on the same values: one subnormal
    off-block entry in P, far below anything it can move, routes it there."""
    P = state.P.copy()
    P[0, 5] = P[5, 0] = 5e-324
    return correct(FilterState(state.pose, P), fused)


def random_spd3(rng, scale):
    """A 3x3 SPD block with eigenvalues in [0.5, 2] x scale, randomly turned."""
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return (Q * rng.uniform(0.5, 2.0, size=3)) @ Q.T * scale


def block_state(rng, psi, p_scale):
    P = np.zeros((6, 6))
    P[:3, :3] = random_spd3(rng, p_scale)
    P[3:, 3:] = np.diag(rng.uniform(0.5, 2.0, size=3) * p_scale)
    P = 0.5 * (P + P.T)
    x, y, z = rng.uniform(-500.0, 500.0, size=3)
    pose = Pose6D(x, y, 150.0 + z, psi, float(rng.uniform(0.0, 45.0)), float(rng.uniform(-10, 10)))
    return FilterState(pose, P)


scales = st.sampled_from([1e-6, 1e-2, 1.0, 1e2, 1e4])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p_scale=scales, m_scale=scales, lone=st.booleans(),
       psi=near_seam, z_psi=near_seam)
def test_block_form_agrees_with_general_form(seed, p_scale, m_scale, lone, psi, z_psi):
    """The loop's plain-float kernel and correct's LAPACK form, on block
    inputs: within 1e-12 of the inputs' scale, pose and P. That is the error
    scale of the (I - K) P form, whose cancellation both forms share."""
    rng = np.random.default_rng(seed)
    state = block_state(rng, psi, p_scale)
    p_bar = np.array([state.pose.x, state.pose.y, state.pose.z]) + rng.normal(0.0, 30.0, size=3)
    if lone:  # k = 1: the hybrid lone-candidate variances, plus the ridge
        M = fuse([MatchResult(5.0, p_bar, z_psi, 10.0, 0)], HYBRID).M
    else:
        M = np.zeros((5, 5))
        M[:3, :3] = random_spd3(rng, m_scale)
        M[3:, 3:] = np.diag(rng.uniform(0.5, 2.0, size=2) * m_scale)
        M = 0.5 * (M + M.T)
    fused = FusedMeasurement(p_bar, z_psi, float(rng.uniform(0.0, 45.0)), M)
    pose, P9 = _correct_blocks(state.pose, _block_entries(state.P), fused.z_vector().tolist(),
                               _block_entries(M))
    want = general_form(state, fused)
    scale = max(np.abs(state.P).max(), np.abs(M).max())
    np.testing.assert_allclose(_block_matrix(P9), want.P, rtol=0.0, atol=1e-12 * scale)
    reach = max(np.abs(p_bar).max(), np.abs(want.pose.position).max())
    np.testing.assert_allclose(pose.position, want.pose.position, rtol=0.0, atol=1e-12 * reach)
    for name in ("psi", "theta", "phi"):
        assert abs(wrap_angle(getattr(pose, name) - getattr(want.pose, name))) <= 1e-12 * 180.0
    assert correct(state, fused).P.tobytes() == _block_matrix(P9).tobytes()


@pytest.mark.parametrize(
    "P, M",
    [
        (np.eye(6), np.diag([1.0, 1.0, 1.0, 1.0, -0.5])),
        (np.eye(6), np.diag([1.0, -0.5, 1.0, 1.0, 1.0])),
        (np.eye(6) * 1e-14, np.diag([1.0, 1.0, 1.0, 1.0, 0.0])),
        (np.eye(6) * 1e-14, np.diag([0.0, 1.0, 1.0, 1.0, 1.0])),
        (np.zeros((6, 6)), np.diag([1.0, 1.0, 1.0, 1.0, 0.0])),
        (np.zeros((6, 6)), np.zeros((5, 5))),
    ],
    ids=["indefinite-theta", "indefinite-y", "ill-theta", "ill-x", "singular", "zero"],
)
def test_block_form_gates_as_general_form(P, M):
    state, fused = state_at(P=P), measurement(np.zeros(5), M)
    with pytest.raises((ValueError, np.linalg.LinAlgError)) as general:
        general_form(state, fused)
    with pytest.raises(general.type, match=f"^{re.escape(str(general.value))}$"):
        _correct_blocks(state.pose, _block_entries(P), [0.0] * 5, _block_entries(M))


# Eigenvalues a 3x3 block can have: spread over many scales, repeated (a
# rank-deficient scatter plus its ridge), zero, or a little negative.
_EIGENVALUE = st.one_of(st.floats(1e-12, 1e6), st.sampled_from([0.0, 1e-6, 1.0, -1e-8, -1e-3]))


def turned(seed, eigenvalues, scale=1.0):
    """The symmetric 3x3 with these eigenvalues (times scale), randomly turned."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    A = (Q * np.asarray(eigenvalues, dtype=float)) @ Q.T * scale
    return 0.5 * (A + A.T)


def upper(A):
    """A 3x3 block's (xx, yy, zz, xy, xz, yz), _eigvalsh3's argument order."""
    return A[0, 0], A[1, 1], A[2, 2], A[0, 1], A[0, 2], A[1, 2]


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), low=_EIGENVALUE, gap=st.sampled_from([0.0, 1e-12, 1e-6, 1.0]),
       high=_EIGENVALUE, scale=st.sampled_from([1e-300, 1e-6, 1.0, 1e6, 1e300]))
def test_closed_form_eigenvalues_agree_with_lapack(seed, low, gap, high, scale):
    """The least within a few eps of the largest entry of LAPACK's, the others
    within 1e-7 of it, also where a pair meets or nearly meets, at the bottom
    (a rank-one scatter plus its ridge) or at the top, and with z apart."""
    A = turned(seed, [low, low * (1.0 + gap), high], scale)
    if seed % 4 == 0:  # z apart, as in a scene scatter
        A[:2, 2] = A[2, :2] = 0.0
    got, want = _eigvalsh3(*upper(A)), np.linalg.eigvalsh(A).tolist()
    s = np.abs(A).max()
    assert got[0] == pytest.approx(want[0], rel=0.0, abs=64 * np.finfo(float).eps * s)
    assert got[1:] == pytest.approx(want[1:], rel=0.0, abs=1e-7 * s)
    assert _eigvalsh3(*upper(np.outer([3.0, -40.0, 7.0], [3.0, -40.0, 7.0]) + 1e-6 * np.eye(3)))[0] == (
        pytest.approx(1e-6, rel=1e-6))


def lapack_gates(P9, M8):
    """The message _correct_blocks raised when one eigvalsh of [M_pos, S_pos]
    ran its gates, or None."""
    S8 = [p + m for p, m in zip(P9, M8)]
    (m0, _, _), (s0, s1, s2) = np.linalg.eigvalsh(
        np.stack([_block_matrix(M8)[:3, :3], _block_matrix(S8)[:3, :3]])).tolist()
    if min(m0, M8[6], M8[7]) < _psd_floor(M8):
        return "measurement covariance must be positive semidefinite"
    s_abs = (abs(s0), abs(s1), abs(s2), abs(S8[6]), abs(S8[7]))
    if not (min(s_abs) > 0.0 and max(s_abs) / min(s_abs) <= 1e12):
        return "innovation covariance condition number exceeds 1e+12"
    return "innovation covariance must be positive definite" if s0 < 0.0 else None


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m_eigs=st.tuples(_EIGENVALUE, _EIGENVALUE, _EIGENVALUE),
       p_eigs=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-14, 1e4))] * 3),
       scalars=st.tuples(*[st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 1e3, -1e-6])] * 4))
def test_closed_form_gates_decide_as_lapack_did(seed, m_eigs, p_eigs, scalars):
    """Away from the thresholds (the PSD floor, the 1e12 condition
    limit, a sign within eps of S's scale), _correct_blocks raises exactly when
    and what LAPACK's eigenvalues made it raise."""
    M, P = turned(seed, m_eigs), turned(seed + 1, p_eigs)
    mp, mt, pp, pt = scalars
    M8 = (M[0, 0], M[0, 1], M[0, 2], M[1, 1], M[1, 2], M[2, 2], mp, mt)
    P9 = (P[0, 0], P[0, 1], P[0, 2], P[1, 1], P[1, 2], P[2, 2], abs(pp), abs(pt), 1.0)
    S = M + P
    m_min = min(np.linalg.eigvalsh(M)[0], mp, mt)
    assume(abs(m_min - _psd_floor(M8)) > 1e-12 * np.abs(M).max())
    s_eigs = np.linalg.eigvalsh(S).tolist()
    assume(abs(s_eigs[0]) > 1e-12 * np.abs(S).max())
    s_abs = [abs(v) for v in s_eigs + [abs(pp) + mp, abs(pt) + mt]]
    assume(min(s_abs) == 0.0 or abs(math.log10(max(s_abs) / min(s_abs)) - 12.0) > 0.01)
    want = lapack_gates(P9, M8)
    if want is None:
        _correct_blocks(Pose6D(0.0, 0.0, 150.0, 0.0, 10.0), P9, [1.0, 2.0, 150.0, 3.0, 12.0], M8)
    else:
        with pytest.raises((ValueError, np.linalg.LinAlgError), match=f"^{re.escape(want)}$"):
            _correct_blocks(Pose6D(0.0, 0.0, 150.0, 0.0, 10.0), P9, [1.0, 2.0, 150.0, 3.0, 12.0], M8)


def test_psd_floor_adds_its_entries_left_to_right():
    """Not by builtin sum, which compensates its rounding from Python 3.12:
    there 1e16 + 1 + 1 would read 1e16 + 2, and the floor would move."""
    eps = 2.0**-52
    want = -(1e-9 + 64 * eps * ((1e16 + 1.0) + 1.0))
    assert _psd_floor((-1e16, 1.0, -1.0, 0.0, 0.0, 0.0, 5.0, 5.0)) == want


@pytest.mark.parametrize("scale", [1.0, 1e10])
def test_an_indefinite_measurement_fails_the_psd_gate_at_any_scale(scale):
    """The floor scales with M_pos, but an M whose least eigenvalue is -1e-3 s
    (s the sum of its block's |entries|) is refused by both forms."""
    A = turned(3, [0.0, 1.0, 2.0], scale)
    A -= 1e-3 * sum(map(abs, upper(A))) * np.eye(3)
    M = np.eye(5) * scale
    M[:3, :3] = A
    state, fused = state_at(P=np.eye(6) * scale), measurement(np.zeros(5), M)
    for form in (correct, general_form):
        with pytest.raises(ValueError, match="^measurement covariance must be positive semidefinite$"):
            form(state, fused)


@pytest.mark.parametrize("entry, value", [(0, math.inf), (1, math.nan), (4, -math.inf), (5, math.nan),
                                          (3, 1.5e308), (6, math.inf)])
def test_an_innovation_covariance_that_is_not_finite_is_ill_conditioned(entry, value):
    """An S_pos entry that is inf or nan, or whose P + M sum overflows, and an
    infinite scalar S, all read as ill-conditioned: no math domain error, no pass."""
    P9 = [1.0, 0.1, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    M8 = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0]
    P9[entry] = value
    if value == 1.5e308:
        M8[entry] = value
    ill = "^innovation covariance condition number exceeds 1e\\+12$"
    with pytest.raises(np.linalg.LinAlgError, match=ill):
        _correct_blocks(Pose6D(0.0, 0.0, 150.0, 0.0, 10.0), tuple(P9), [0.0] * 5, tuple(M8))


def test_two_candidates_pass_the_psd_gate():
    """Two candidates scatter along one line: M_pos is rank one plus the
    ridge, whose two equal least eigenvalues the plain closed form misreads
    by up to 1e-8 of the largest. The block form corrects as the LAPACK form."""
    rng = np.random.default_rng(2)
    state = state_at(P=np.eye(6) * 4.0)
    for _ in range(100):
        offset = rng.normal(0.0, 60.0, size=3)
        results = [MatchResult(5.0, offset, 10.0, 10.0, 0), MatchResult(7.0, -offset, 12.0, 11.0, 1)]
        fused = fuse(results, HYBRID)
        pose, P9 = _correct_blocks(state.pose, _block_entries(state.P), fused.z_vector().tolist(),
                                   _block_entries(fused.M))
        assert correct(state, fused).P.tobytes() == _block_matrix(P9).tobytes()
        np.testing.assert_allclose(_block_matrix(P9), general_form(state, fused).P, rtol=0.0, atol=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    theta=st.floats(-90.0, 90.0, exclude_min=True, exclude_max=True),
    z_theta=st.floats(0.0, MAX_TILT_DEG),
    p=st.floats(1e-12, 1e12),
    m=st.floats(0.0, 1e12),
)
# Wrapping once moved this theta to -90.0, the gimbal point.
@example(theta=-89.99999999999997, z_theta=0.0, p=1e-12, m=12667.0)
def test_tilt_update_stays_inside_plus_minus_90(theta, z_theta, p, m):
    """The scalar theta update is a convex combination of theta and the
    matched tilt, up to rounding, so it never crosses +/-90, where the Euler
    round trip would flip the heading."""
    pose = Pose6D(0.0, 0.0, 150.0, 0.0, theta, 0.0)
    P9, M8 = (p, 0.0, 0.0, p, 0.0, p, p, p, p), (m, 0.0, 0.0, m, 0.0, m, m, m)
    out, _ = _correct_blocks(pose, P9, [0.0, 0.0, 150.0, 0.0, z_theta], M8)
    assert -90.0 < out.theta < 90.0
    assert min(theta, z_theta) - 1e-12 <= out.theta <= max(theta, z_theta) + 1e-12


# --- predict/correct loop -------------------------------------------------


def drifting_increments(n, dt=0.05, speed=12.5, scale=0.1):
    true_dp = np.array([0.0, speed * dt, 0.0])
    inc = VoIncrement(true_dp * (1.0 + scale), np.eye(3))
    return [inc] * n, true_dp


def filter_loop(increments, corrections=None):
    """One state per increment: predict, then the correction due at that step.

    corrections maps a 1-based step number to the measurement applied right
    after that step's prediction, the 20-to-1 schedule the pipeline runs.
    """
    corrections = corrections or {}
    state = state_at()
    states = []
    for step, inc in enumerate(increments, start=1):
        state = predict(state, inc, DEFAULT_Q)
        if step in corrections:
            state = correct(state, corrections[step])
        states.append(state)
    return states


def test_dead_reckoning_p_trace_monotone():
    incs, _ = drifting_increments(200)
    states = filter_loop(incs)
    traces = [np.trace(s.P) for s in states]
    assert all(b > a for a, b in zip(traces, traces[1:]))
    assert len(states) == 200


def test_perfect_corrections_pin_position():
    incs, true_dp = drifting_increments(100, scale=0.2)
    truth = [np.array([0.0, 0.0, 150.0]) + true_dp * i for i in range(1, 101)]
    cors = {}
    for i in range(20, 101, 20):
        z = np.array([truth[i - 1][0], truth[i - 1][1], truth[i - 1][2], 0.0, 0.0])
        cors[i] = measurement(z, np.eye(5) * 1e-9)
    states = filter_loop(incs, cors)
    for i in range(20, 101, 20):
        err = np.linalg.norm(states[i - 1].pose.position - truth[i - 1])
        assert err < 1e-3


def test_interleaving_20_to_1():
    incs, _ = drifting_increments(60)
    cors = {
        20: measurement(np.array([0, 12.5, 150, 0, 0]), np.eye(5)),
        40: measurement(np.array([0, 25.0, 150, 0, 0]), np.eye(5)),
        60: measurement(np.array([0, 37.5, 150, 0, 0]), np.eye(5)),
    }
    states = filter_loop(incs, cors)
    # P drops exactly at the correction frames (indices 19, 39, 59)
    traces = [np.trace(s.P) for s in states]
    for idx in (19, 39, 59):
        assert traces[idx] < traces[idx - 1]


def test_symmetric_psd_through_long_run():
    """P stays symmetric PSD through thousands of mixed steps."""
    rng = np.random.default_rng(53)
    s = state_at()
    q = DEFAULT_Q
    inc = VoIncrement(np.array([0.1, 0.6, 0.0]), euler_to_rotmat(0.05, 0.0, 0.0))
    for step in range(1, 2001):
        s = predict(s, inc, q)
        if step % 20 == 0:
            z = rng.uniform(-50, 50, size=5)
            s = correct(s, measurement(z, random_psd(rng, 5)))
        assert np.max(np.abs(s.P - s.P.T)) < 1e-9
    assert np.linalg.eigvalsh(s.P).min() >= -1e-9


def test_position_nees_consistent():
    """Monte-Carlo filter consistency on a linear scenario.

    Straight-line motion, additive Gaussian increment noise matched to Q,
    direct position measurements matched to M: the final-step NEES of the
    position block summed over 10 runs must fall inside the 95% chi-square
    band (dof = 3 per run).
    """
    q_var = 0.01
    m_var = 4.0
    nees_sum = 0.0
    runs = 10
    for seed in range(runs):
        rng = np.random.default_rng(1000 + seed)
        s = state_at(P=np.eye(6) * 1e-6)
        truth = np.array([0.0, 0.0, 150.0])
        dp_true = np.array([0.3, 0.6, 0.0])
        for step in range(1, 201):
            truth = truth + dp_true
            noisy = VoIncrement(
                dp_true + rng.standard_normal(3) * np.sqrt(q_var), np.eye(3)
            )
            s = predict(s, noisy, ProcessNoise(np.array([q_var] * 3 + [0.0] * 3)))
            if step % 20 == 0:
                z = np.concatenate(
                    [truth + rng.standard_normal(3) * np.sqrt(m_var), [0.0, 0.0]]
                )
                s = correct(
                    s,
                    measurement(
                        z, np.diag([m_var, m_var, m_var, 1e6, 1e6])
                    ),
                )
        err = s.pose.position - truth
        P_pos = s.P[:3, :3]
        nees_sum += float(err @ np.linalg.solve(P_pos, err))
    dof = 3 * runs
    lo, hi = stats.chi2.ppf([0.025, 0.975], dof)
    assert lo <= nees_sum <= hi, f"NEES sum {nees_sum:.1f} outside [{lo:.1f}, {hi:.1f}]"
