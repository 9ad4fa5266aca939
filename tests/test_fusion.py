"""Fusion tests against a literal inverse-distance-weighting oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview.fusion import (
    COVARIANCE_RIDGE,
    FusedMeasurement,
    _checked_fallback,
    _fuse_rows,
    fuse,
)
from crossview.config import SimConfig
from crossview.geometry import wrap_angle
from crossview.matchers import MatchResult, SyntheticMatcher, UavObservation, match_variances
from crossview.geometry import Pose6D
from crossview.tiles import TileRecord, generate_grid, k_nearest

# The lone-candidate variances these tests fuse with: the hybrid backend's at
# the default config.
HYBRID = match_variances(SimConfig(), "hybrid")


def literal_weighted(results):
    """Literal oracle: sum(v_i / d_i) / sum(1 / d_i), no shortcuts.

    Valid whenever the headings do not straddle the +/-180 seam, which is how
    the random inputs below are generated.
    """
    num_p = np.zeros(3)
    num_psi = 0.0
    num_theta = 0.0
    den = 0.0
    for r in results:
        num_p = num_p + np.array(r.p_hat) / r.d
        num_psi += r.psi_hat / r.d
        num_theta += r.theta_hat / r.d
        den += 1.0 / r.d
    return num_p / den, num_psi / den, num_theta / den


def fused_pose(results):
    fused = fuse(results, HYBRID)
    return fused.p_bar, fused.psi_bar, fused.theta_bar


def random_results(rng, k, psi_center=None):
    """k MatchResults with headings confined to a seam-free half circle."""
    if psi_center is None:
        psi_center = float(rng.uniform(-90.0, 90.0))
    out = []
    for i in range(k):
        out.append(
            MatchResult(
                float(rng.uniform(0.5, 150.0)),
                tuple(rng.uniform(-300.0, 300.0, size=3)),
                wrap_angle(psi_center + float(rng.uniform(-85.0, 85.0))),
                float(rng.uniform(0.0, 45.0)),
                i,
            )
        )
    return out


# --- the fused pose -------------------------------------------------------


def test_single_candidate_passthrough():
    r = MatchResult(3.0, (1.0, 2.0, 3.0), 40.0, 20.0, 0)
    p, psi, theta = fused_pose([r])
    np.testing.assert_allclose(p, [1.0, 2.0, 3.0])
    assert psi == 40.0 and theta == 20.0


def test_equal_distances_arithmetic_mean():
    rng = np.random.default_rng(41)
    results = [
        MatchResult(7.5, tuple(rng.uniform(-100, 100, 3)), float(rng.uniform(-80, 80)),
                    float(rng.uniform(0, 45)), i)
        for i in range(6)
    ]
    p, psi, theta = fused_pose(results)
    np.testing.assert_allclose(p, np.mean([r.p_hat for r in results], axis=0), atol=1e-12)
    assert psi == pytest.approx(np.mean([r.psi_hat for r in results]), abs=1e-12)
    assert theta == pytest.approx(np.mean([r.theta_hat for r in results]), abs=1e-12)


def test_two_candidate_hand_value():
    # weights 1/1 and 1/3: (0/1 + 4/3) / (1/1 + 1/3) = 1.0
    a = MatchResult(1.0, (0.0, 0.0, 0.0), 0.0, 0.0, 0)
    b = MatchResult(3.0, (4.0, 4.0, 4.0), 4.0, 4.0, 1)
    p, psi, theta = fused_pose([a, b])
    np.testing.assert_allclose(p, [1.0, 1.0, 1.0], atol=1e-12)
    assert psi == pytest.approx(1.0, abs=1e-12)
    assert theta == pytest.approx(1.0, abs=1e-12)


def test_fused_pose_matches_literal_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        results = random_results(rng, int(rng.integers(1, 12)))
        p, psi, theta = fused_pose(results)
        op, opsi, otheta = literal_weighted(results)
        np.testing.assert_allclose(p, op, atol=1e-12)
        assert abs(wrap_angle(psi - opsi)) < 1e-12
        assert theta == pytest.approx(otheta, abs=1e-12)


def test_weight_scale_invariance():
    rng = np.random.default_rng(43)
    results = random_results(rng, 9)
    scaled = [
        MatchResult(r.d * 7.3, r.p_hat, r.psi_hat, r.theta_hat, r.tile_id)
        for r in results
    ]
    pa, psia, thetaa = fused_pose(results)
    pb, psib, thetab = fused_pose(scaled)
    np.testing.assert_allclose(pa, pb, atol=1e-12)
    assert abs(wrap_angle(psia - psib)) < 1e-12
    assert thetaa == pytest.approx(thetab, abs=1e-12)


def test_heading_seam_average():
    a = MatchResult(2.0, (0.0, 0.0, 0.0), 179.0, 0.0, 0)
    b = MatchResult(2.0, (0.0, 0.0, 0.0), -179.0, 0.0, 1)
    _, psi, _ = fused_pose([a, b])
    assert abs(psi) == pytest.approx(180.0, abs=1e-9)  # not 0


def test_convexity_componentwise():
    rng = np.random.default_rng(44)
    for _ in range(200):
        results = random_results(rng, 5)
        p, _, theta = fused_pose(results)
        pts = np.array([r.p_hat for r in results])
        assert np.all(p >= pts.min(axis=0) - 1e-9)
        assert np.all(p <= pts.max(axis=0) + 1e-9)
        thetas = [r.theta_hat for r in results]
        assert min(thetas) - 1e-9 <= theta <= max(thetas) + 1e-9


def test_fuse_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        fuse([], HYBRID)


# --- the fused covariance -------------------------------------------------


def test_identical_estimates_epsilon_covariance():
    r = MatchResult(5.0, (10.0, 20.0, 150.0), 30.0, 15.0, 0)
    clones = [
        MatchResult(5.0, r.p_hat, r.psi_hat, r.theta_hat, i) for i in range(9)
    ]
    M = fuse(clones, HYBRID).M
    np.testing.assert_allclose(M, COVARIANCE_RIDGE * np.eye(5), atol=1e-15)


def test_two_sample_hand_covariance():
    a = MatchResult(1.0, (0.0, 0.0, 0.0), 0.0, 0.0, 0)
    b = MatchResult(1.0, (2.0, 0.0, 0.0), 0.0, 0.0, 1)
    M = fuse([a, b], HYBRID).M
    expected = COVARIANCE_RIDGE * np.eye(5)
    expected[0, 0] += 2.0  # sample variance with divisor k-1
    np.testing.assert_allclose(M, expected, atol=1e-15)


def test_heading_variance_wraps():
    a = MatchResult(1.0, (0.0, 0.0, 0.0), 179.0, 0.0, 0)
    b = MatchResult(1.0, (0.0, 0.0, 0.0), -179.0, 0.0, 1)
    M = fuse([a, b], HYBRID).M
    # residuals are 0 and 2 about the first candidate, sample variance 2
    assert M[3, 3] == pytest.approx(2.0 + COVARIANCE_RIDGE, abs=1e-12)


def test_covariance_symmetric_psd_random():
    rng = np.random.default_rng(45)
    for _ in range(1000):
        results = random_results(rng, int(rng.integers(2, 12)))
        M = fuse(results, HYBRID).M
        assert M.shape == (5, 5)
        np.testing.assert_allclose(M, M.T, atol=1e-12)
        # eigensolver round-off scales with the largest variance, so the
        # floor check allows -1e-9 rather than demanding the exact ridge
        assert np.linalg.eigvalsh(M).min() >= -1e-9
        assert np.diagonal(M).min() >= COVARIANCE_RIDGE - 1e-15


def test_single_candidate_fallback():
    r = MatchResult(2.0, (0.0, 0.0, 150.0), 0.0, 10.0, 0)
    fallback = (4.0, 4.0, 9.0, 100.0, 1.0)
    M = fuse([r], fallback).M
    np.testing.assert_allclose(
        M, np.diag(fallback) + COVARIANCE_RIDGE * np.eye(5), atol=1e-15
    )
    # no default stands in for the caller's own variances
    with pytest.raises(TypeError):
        fuse([r])


def test_fallback_validation():
    r = MatchResult(2.0, (0.0, 0.0, 150.0), 0.0, 10.0, 0)
    with pytest.raises(ValueError):
        fuse([r], (1.0, 2.0, 3.0))  # wrong length
    with pytest.raises(ValueError):
        fuse([r], (1.0, 1.0, 1.0, -1.0, 1.0))


# --- fuse -----------------------------------------------------------------


def test_fuse_permutation_invariant_bitwise():
    rng = np.random.default_rng(46)
    results = random_results(rng, 9)
    base = fuse(results, HYBRID)
    for _ in range(5):
        perm = list(results)
        rng.shuffle(perm)
        other = fuse(perm, HYBRID)
        assert np.array_equal(base.z_vector(), other.z_vector())
        assert np.array_equal(base.M, other.M)


_candidate = st.tuples(
    st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1e-3, 1e3)),  # ties on d too
    st.tuples(*[st.floats(-1e4, 1e4)] * 3),
    # headings straddling the +/-180 seam, or anywhere
    st.one_of(st.floats(179.0, 180.0), st.floats(-180.0, -179.0, exclude_min=True),
              st.floats(-180.0, 180.0, exclude_min=True)),
    st.floats(0.0, 45.0),
)


@settings(max_examples=300, deadline=None)
@given(candidates=st.lists(_candidate, min_size=1, max_size=20), data=st.data())
def test_fuse_is_permutation_invariant_bitwise(candidates, data):
    results = [MatchResult(d, p, psi, theta, i) for i, (d, p, psi, theta) in enumerate(candidates)]
    shuffled = data.draw(st.permutations(results))
    a, b = fuse(results, HYBRID), fuse(shuffled, HYBRID)
    assert a.z_vector().tobytes() == b.z_vector().tobytes()
    assert a.M.tobytes() == b.M.tobytes()


def left_to_right(results, fallback):
    """Fixed-order oracle of fuse: (z, M) by plain loops over the candidates in
    (d, tile_id) order, one float operation at a time, no numpy arithmetic."""
    rs = sorted(results, key=lambda r: (r.d, r.tile_id))
    k, ref = len(rs), rs[0].psi_hat
    columns = [
        [r.p_hat[0] for r in rs],
        [r.p_hat[1] for r in rs],
        [r.p_hat[2] for r in rs],
        [wrap_angle(r.psi_hat - ref) for r in rs],
        [r.theta_hat for r in rs],
    ]

    def total(values):
        acc = 0.0
        for v in values:
            acc += v
        return acc

    inverse_total = total(1.0 / r.d for r in rs)
    weights = [1.0 / r.d / inverse_total for r in rs]
    z = [total(w * v for w, v in zip(weights, column)) for column in columns]
    z[3] = wrap_angle(ref + z[3])
    deviations = [[v - total(column) / k for v in column] for column in columns]
    M = np.zeros((5, 5))
    for a in range(5):
        for b in range(5):
            if a == b and k == 1:
                M[a, b] = fallback[a]
            elif a == b or (a < 3 and b < 3 and k > 1):
                M[a, b] = total(u * v for u, v in zip(deviations[a], deviations[b])) / (k - 1)
        M[a, a] += COVARIANCE_RIDGE
    return z, M


@settings(max_examples=300, deadline=None)
@given(candidates=st.lists(_candidate, min_size=1, max_size=19))
def test_fuse_equals_a_fixed_order_oracle_bitwise(candidates):
    results = [MatchResult(d, p, psi, theta, i) for i, (d, p, psi, theta) in enumerate(candidates)]
    fallback = match_variances(SimConfig(), "regression")
    fused = fuse(results, fallback)
    z, M = left_to_right(results, fallback.tolist())
    assert fused.z_vector().tobytes() == np.array(z).tobytes()
    assert fused.M.tobytes() == M.tobytes()


GOOD_ROW = (2.0, 0, 10.0, 20.0, 150.0, 30.0, 10.0)


@pytest.mark.parametrize(
    "bad",
    [
        (math.inf, 1, 10.0, 20.0, 150.0, 30.0, 10.0),
        (3.0, 1, math.nan, 20.0, 150.0, 30.0, 10.0),
        (3.0, 1, 10.0, 20.0, math.inf, 30.0, 10.0),
        (3.0, 1, 10.0, 20.0, 150.0, 30.0, math.nan),
        (3.0, 1, 10.0, 20.0, 150.0, math.nan, 10.0),
    ],
    ids=["inf-d", "nan-x", "inf-z", "nan-theta", "nan-psi"],
)
@pytest.mark.parametrize("lone", [False, True], ids=["pair", "lone"])
def test_fuse_kernel_rejects_rows_that_overflowed(bad, lone):
    fallback = _checked_fallback(HYBRID)
    rows = [bad] if lone else [GOOD_ROW, bad]
    with pytest.raises(ValueError, match="not finite"):
        _fuse_rows(rows, fallback)


def test_fuse_rejects_distance_below_floor():
    r = MatchResult(1e-4, (0.0, 0.0, 0.0), 0.0, 0.0, 0)
    with pytest.raises(ValueError):
        fuse([r], HYBRID)


def test_fuse_z_vector_order():
    r = MatchResult(2.0, (1.0, 2.0, 3.0), 4.0, 5.0, 0)
    z = fuse([r], HYBRID).z_vector()
    np.testing.assert_allclose(z, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_noiseless_backend_fuses_to_truth():
    """Nine zero-noise candidates all estimate truth, so the fusion must too."""
    tiles = generate_grid(-500.0, 500.0, -500.0, 500.0, 50.0)
    truth = Pose6D(123.0, -47.0, 150.0, 20.0, 10.0, 0.0)
    noiseless = SimConfig(
        d_jitter=0.0,
        hybrid_horizontal_rms_m=0.0,
        hybrid_vertical_rms_m=0.0,
        hybrid_heading_rms_deg=0.0,
        hybrid_tilt_rms_deg=0.0,
    )
    matcher = SyntheticMatcher(noiseless, "hybrid", 0)
    obs = UavObservation(0, truth)
    results = [
        matcher.match_pair(obs, t) for t in k_nearest(tiles, (truth.x, truth.y), 9)
    ]
    fused = fuse(results, HYBRID)
    np.testing.assert_allclose(fused.p_bar, truth.position, atol=1e-9)
    assert fused.psi_bar == pytest.approx(truth.psi, abs=1e-9)
    assert fused.theta_bar == pytest.approx(truth.theta, abs=1e-9)


def test_fused_measurement_validation():
    with pytest.raises(ValueError):
        FusedMeasurement(np.array([0.0, 0.0]), 0.0, 0.0, np.eye(5))
    with pytest.raises(ValueError):
        FusedMeasurement(np.zeros(3), 0.0, 0.0, np.eye(4))
    with pytest.raises(ValueError, match="^psi_bar and theta_bar must be finite$"):
        FusedMeasurement(np.zeros(3), math.nan, 0.0, np.eye(5))
