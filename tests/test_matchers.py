"""Matching-backend tests: noise statistics, determinism, calibration."""

import math

import numpy as np
import pytest

from crossview.config import SimConfig
from crossview.geometry import Pose6D, ground_intersection
from crossview.matchers import (
    D_MIN,
    MatcherNoiseModel,
    MatchResult,
    SceneMatcher,
    SyntheticMatcher,
    UavObservation,
    noise_model,
)
from crossview.tiles import TileRecord

HYBRID = noise_model(SimConfig(), "hybrid")


def obs_at(frame, x=0.0, y=0.0, z=150.0, psi=0.0, theta=0.0):
    return UavObservation(frame, Pose6D(x, y, z, psi, theta, 0.0))


# --- value types ----------------------------------------------------------


def test_match_result_validation():
    good = MatchResult(5.0, (1.0, 2.0, 3.0), 10.0, 20.0, 7)
    assert good.p_hat == (1.0, 2.0, 3.0) and type(good.p_hat[0]) is float
    with pytest.raises(ValueError):
        MatchResult(0.0, (0.0, 0.0, 0.0), 0.0, 0.0, 0)  # d must be positive
    with pytest.raises(ValueError):
        MatchResult(1.0, (0.0, 0.0, 0.0), 181.0, 0.0, 0)
    with pytest.raises(ValueError):
        MatchResult(1.0, (0.0, 0.0, 0.0), 0.0, 46.0, 0)
    with pytest.raises(ValueError):
        MatchResult(1.0, (0.0, 0.0, 0.0), 0.0, 0.0, -1)
    with pytest.raises(ValueError):
        MatchResult(1.0, (0.0, np.nan, 0.0), 0.0, 0.0, 0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        MatcherNoiseModel(sigma_xy=-1.0)
    with pytest.raises(ValueError):
        MatcherNoiseModel(d0=0.0)  # below the distance floor
    with pytest.raises(ValueError):
        MatcherNoiseModel(common_frac=1.0)
    with pytest.raises(ValueError):
        MatcherNoiseModel(outlier_prob=1.5)
    with pytest.raises(ValueError):
        MatcherNoiseModel(outlier_factor=0.5)


def test_observation_validation():
    with pytest.raises(ValueError):
        UavObservation(-1, Pose6D(0.0, 0.0, 150.0, 0.0, 0.0))


# --- synthetic backend ----------------------------------------------------


def test_zero_noise_at_scene_center_tile():
    """Noiseless matcher on the exact scene-center tile: truth pose, d = d0."""
    noise = MatcherNoiseModel()  # all sigmas zero by default
    matcher = SyntheticMatcher(noise, seed=0)
    obs = obs_at(0, x=100.0, y=200.0, z=150.0, psi=30.0, theta=0.0)
    tile = TileRecord(12, 100.0, 200.0)  # nadir camera: scene center = (x, y)
    r = matcher.match_pair(obs, tile)
    assert r.p_hat == (100.0, 200.0, 150.0)
    assert r.psi_hat == 30.0
    assert r.theta_hat == 0.0
    assert r.d == noise.d0


def test_distance_linear_in_scene_offset():
    noise = MatcherNoiseModel(d0=5.0, d_slope=1.0)
    matcher = SyntheticMatcher(noise, seed=0)
    obs = obs_at(3, x=0.0, y=0.0, theta=0.0)
    near = matcher.match_pair(obs, TileRecord(0, 30.0, 0.0))
    far = matcher.match_pair(obs, TileRecord(1, 130.0, 0.0))
    assert far.d - near.d == pytest.approx(100.0 * noise.d_slope, abs=1e-12)


def test_distance_uses_ground_intersection_not_camera():
    noise = MatcherNoiseModel(d0=5.0, d_slope=1.0)
    matcher = SyntheticMatcher(noise, seed=0)
    obs = obs_at(4, x=0.0, y=0.0, z=150.0, psi=0.0, theta=45.0)
    scene = ground_intersection(obs.truth)
    assert scene == pytest.approx((0.0, 150.0))
    at_scene = matcher.match_pair(obs, TileRecord(0, 0.0, 150.0))
    at_camera = matcher.match_pair(obs, TileRecord(1, 0.0, 0.0))
    # tan(45 deg) carries ~1e-16 of round-off, so approx rather than exact
    assert at_scene.d == pytest.approx(noise.d0, abs=1e-9)
    assert at_camera.d == pytest.approx(noise.d0 + 150.0, abs=1e-9)


def test_noise_statistics_match_calibration():
    """Empirical RMS of 1e4 matches within 5% of the configured sigmas."""
    noise = HYBRID
    matcher = SyntheticMatcher(noise, seed=5)
    tile = TileRecord(0, 0.0, 0.0)
    errs = np.empty((10_000, 4))
    for frame in range(errs.shape[0]):
        obs = obs_at(frame, theta=22.5)
        r = matcher.match_pair(obs, tile)
        errs[frame] = (
            r.p_hat[0] - 0.0,
            r.p_hat[2] - 150.0,
            r.psi_hat - 0.0,
            r.theta_hat - 22.5,
        )
    rms = np.sqrt(np.mean(errs**2, axis=0))
    assert rms[0] == pytest.approx(noise.sigma_xy, rel=0.05)
    assert rms[1] == pytest.approx(noise.sigma_z, rel=0.05)
    assert rms[2] == pytest.approx(noise.sigma_psi, rel=0.05)
    assert rms[3] == pytest.approx(noise.sigma_theta, rel=0.05)


def test_common_fraction_correlates_same_frame_errors():
    noise = HYBRID
    matcher = SyntheticMatcher(noise, seed=6)
    tiles = (TileRecord(0, 0.0, 0.0), TileRecord(1, 50.0, 0.0))
    xa, xb = [], []
    for frame in range(3000):
        obs = obs_at(frame)
        xa.append(matcher.match_pair(obs, tiles[0]).p_hat[0])
        xb.append(matcher.match_pair(obs, tiles[1]).p_hat[0])
    corr = np.corrcoef(xa, xb)[0, 1]
    assert corr == pytest.approx(0.8, abs=0.05)


def test_outlier_inflation():
    noise = MatcherNoiseModel(sigma_xy=10.0, outlier_prob=1.0, outlier_factor=3.0)
    matcher = SyntheticMatcher(noise, seed=7)
    xs = [
        matcher.match_pair(obs_at(frame), TileRecord(0, 0.0, 0.0)).p_hat[0]
        for frame in range(4000)
    ]
    assert np.std(xs) == pytest.approx(30.0, rel=0.05)


def test_matcher_determinism_bitwise():
    noise = HYBRID
    a = SyntheticMatcher(noise, seed=9)
    b = SyntheticMatcher(noise, seed=9)
    obs = obs_at(17, x=3.0, y=4.0, theta=12.0)
    tile = TileRecord(5, 50.0, 100.0)
    ra = a.match_pair(obs, tile)
    rb = b.match_pair(obs, tile)
    assert ra == rb  # exact float equality via dataclass eq


@pytest.mark.parametrize(
    "matcher",
    [
        SyntheticMatcher(HYBRID, seed=3),
        SyntheticMatcher(noise_model(SimConfig(outlier_prob=0.3), "regression"), seed=3),
        SceneMatcher(HYBRID, seed=3),
    ],
    ids=["hybrid", "regression-outliers", "scene"],
)
@pytest.mark.parametrize("k", [1, 9])
def test_match_frame_equals_per_pair_calls(matcher, k):
    tiles = [TileRecord(tid, 50.0 * (tid % 3), 50.0 * (tid // 3)) for tid in range(k)]
    for frame in range(40):
        obs = obs_at(frame, x=10.0 * frame, y=-3.0, theta=15.0)
        batch = matcher.match_frame(obs, tiles)
        assert batch == [matcher.match_pair(obs, t) for t in tiles]


def test_shared_observation_keeps_seeds_apart():
    """Backends sharing one observation draw exactly what they draw alone."""
    regression = noise_model(SimConfig(outlier_prob=0.3), "regression")
    backends = [
        SyntheticMatcher(HYBRID, seed=5),
        SceneMatcher(HYBRID, seed=6),
        SyntheticMatcher(regression, seed=6),
        SceneMatcher(HYBRID, seed=5),
        SyntheticMatcher(HYBRID, seed=6),
    ]
    tiles = [TileRecord(tid, 50.0 * (tid % 4), 50.0 * (tid // 4)) for tid in range(16)]
    shared = obs_at(11, x=20.0, y=30.0, theta=15.0)
    for _ in range(2):  # a second pass reads every stream from the memo
        for matcher in backends:
            alone = matcher.match_frame(obs_at(11, x=20.0, y=30.0, theta=15.0), tiles)
            assert matcher.match_frame(shared, tiles) == alone
    tags = [()] + [(tid,) for tid in range(16)]  # [seed, frame], [seed, frame, tile]
    assert set(shared.streams) == {(seed, *tag) for seed in (5, 6) for tag in tags}
    assert backends[0].match_frame(shared, tiles) != backends[4].match_frame(shared, tiles)


def test_distance_always_positive():
    rng = np.random.default_rng(33)
    noise = MatcherNoiseModel(d0=D_MIN, d_slope=0.0, d_jitter=50.0)
    matcher = SyntheticMatcher(noise, seed=1)
    for frame in range(200):
        tile = TileRecord(
            int(rng.integers(0, 100)),
            float(rng.uniform(-500, 500)),
            float(rng.uniform(-500, 500)),
        )
        r = matcher.match_pair(obs_at(frame), tile)
        assert r.d >= D_MIN


def test_theta_estimate_stays_in_range():
    noise = MatcherNoiseModel(sigma_theta=30.0)
    matcher = SyntheticMatcher(noise, seed=2)
    thetas = [
        matcher.match_pair(obs_at(f, theta=1.0), TileRecord(0, 0.0, 0.0)).theta_hat
        for f in range(500)
    ]
    assert min(thetas) >= 0.0 and max(thetas) <= 45.0


# --- scene backend --------------------------------------------------------


def test_scene_match_reports_tile_position():
    matcher = SceneMatcher(MatcherNoiseModel(), seed=0)
    obs = obs_at(0, x=-321.0, y=77.0, z=180.0, psi=55.0, theta=10.0)
    r = matcher.match_pair(obs, TileRecord(9, 500.0, 700.0))
    assert r.p_hat == (500.0, 700.0, 150.0)
    assert r.psi_hat == 0.0
    assert r.theta_hat == 22.5


def test_scene_match_nearer_tile_scores_better():
    noise = MatcherNoiseModel(d0=5.0, d_slope=1.0)  # no jitter: deterministic d
    matcher = SceneMatcher(noise, seed=0)
    obs = obs_at(0, x=0.0, y=0.0, theta=0.0)
    near = matcher.match_pair(obs, TileRecord(0, 10.0, 0.0))
    far = matcher.match_pair(obs, TileRecord(1, 200.0, 0.0))
    assert near.d < far.d


def test_scene_prior_validation():
    with pytest.raises(ValueError):
        SceneMatcher(MatcherNoiseModel(), altitude=-5.0)
    with pytest.raises(ValueError):
        SceneMatcher(MatcherNoiseModel(), tilt_prior=50.0)


# --- calibrations ---------------------------------------------------------


def test_calibration_models():
    cfg = SimConfig()
    hyb = noise_model(cfg, "hybrid")
    reg = noise_model(cfg, "regression")
    assert hyb.sigma_xy == cfg.hybrid_horizontal_rms_m / math.sqrt(2.0)
    assert hyb.sigma_z == cfg.hybrid_vertical_rms_m
    assert hyb.sigma_psi == cfg.hybrid_heading_rms_deg
    assert hyb.sigma_theta == cfg.hybrid_tilt_rms_deg
    assert reg.sigma_xy == cfg.regression_horizontal_rms_m / math.sqrt(2.0)
    assert reg.sigma_psi == cfg.regression_heading_rms_deg
    assert hyb.common_frac == reg.common_frac == cfg.common_frac
    assert (hyb.d0, hyb.d_slope, hyb.d_jitter) == (cfg.d0, cfg.d_slope, cfg.d_jitter)
    # regression-grade is strictly noisier than hybrid-grade
    assert reg.sigma_xy > hyb.sigma_xy
    assert reg.sigma_z > hyb.sigma_z
    assert reg.sigma_psi > hyb.sigma_psi
    assert reg.sigma_theta > hyb.sigma_theta
    np.testing.assert_array_equal(
        hyb.variances(),
        [hyb.sigma_xy**2, hyb.sigma_xy**2, hyb.sigma_z**2, hyb.sigma_psi**2,
         hyb.sigma_theta**2],
    )


def test_noise_model_follows_config():
    cfg = SimConfig(hybrid_vertical_rms_m=8.0, outlier_prob=0.25, d_jitter=2.0)
    hyb = noise_model(cfg, "hybrid")
    assert hyb.sigma_z == 8.0 and hyb.outlier_prob == 0.25 and hyb.d_jitter == 2.0
    scene = noise_model(cfg, "scene")
    assert scene == MatcherNoiseModel(d0=cfg.d0, d_slope=cfg.d_slope, d_jitter=2.0)
    with pytest.raises(ValueError, match="unknown matcher kind"):
        noise_model(cfg, "retrieval")
