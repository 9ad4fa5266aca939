"""Matching-backend tests: noise statistics, determinism, calibration."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview.config import ConfigError, SimConfig
from crossview.geometry import Pose6D, ground_intersection, wrap_angle
from crossview.matchers import (
    D_MIN,
    MatchResult,
    SceneMatcher,
    SyntheticMatcher,
    UavObservation,
    match_variances,
)
from crossview.tiles import TileRecord

CFG = SimConfig()
FIGURES = ("horizontal_rms_m", "vertical_rms_m", "heading_rms_deg", "tilt_rms_deg")
RMS_KEYS = [f"{kind}_{figure}" for kind in ("hybrid", "regression") for figure in FIGURES]
# Zero pose noise and no distance jitter: every estimate is exact.
NOISELESS = SimConfig(d_jitter=0.0, **{key: 0.0 for key in RMS_KEYS})


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


def test_match_result_construction_and_coercion():
    by_position = MatchResult(5.0, (1.0, 2.0, 3.0), 10.0, 20.0, 7)
    by_keyword = MatchResult(tile_id=7, theta_hat=20.0, psi_hat=10.0, p_hat=(1.0, 2.0, 3.0), d=5.0)
    from_numpy = MatchResult(
        np.float64(5.0), np.array([1.0, 2.0, 3.0]), np.float32(10.0), np.int64(20), np.int32(7)
    )
    assert by_keyword == by_position == from_numpy
    assert hash(from_numpy) == hash(by_position)
    assert repr(from_numpy) == repr(by_position)
    assert [type(v) for v in dataclasses.astuple(from_numpy)] == [float, tuple, float, float, int]
    assert all(type(v) is float for v in from_numpy.p_hat)
    moved = dataclasses.replace(by_position, d=2.5, tile_id=np.int64(8))
    assert moved == MatchResult(2.5, (1.0, 2.0, 3.0), 10.0, 20.0, 8) and type(moved.tile_id) is int
    with pytest.raises(ValueError, match=r"^psi_hat must lie in \(-180, 180\], got 181.0$"):
        dataclasses.replace(by_position, psi_hat=181.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        by_position.d = 1.0


NOT_3_VECTOR = "p_hat must be a finite 3-vector, got "


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.0, (0.0, 0.0, 0.0), 0.0, 0.0, 0), "d must be finite and > 0, got 0.0"),
        ((math.inf, (0.0, 0.0, 0.0), 0.0, 0.0, 0), "d must be finite and > 0, got inf"),
        ((math.nan, (0.0, 0.0, 0.0), 0.0, 0.0, 0), "d must be finite and > 0, got nan"),
        ((1.0, (0.0, 0.0), 0.0, 0.0, 0), f"{NOT_3_VECTOR}(0.0, 0.0)"),
        ((1.0, (0.0,) * 4, 0.0, 0.0, 0), f"{NOT_3_VECTOR}(0.0, 0.0, 0.0, 0.0)"),
        ((1.0, (0.0, math.nan, 0.0), 0.0, 0.0, 0), f"{NOT_3_VECTOR}(0.0, nan, 0.0)"),
        ((1.0, (0.0, 0.0, -math.inf), 0.0, 0.0, 0), f"{NOT_3_VECTOR}(0.0, 0.0, -inf)"),
        ((1.0, (0.0, 0.0, 0.0), -180.0, 0.0, 0), "psi_hat must lie in (-180, 180], got -180.0"),
        ((1.0, (0.0, 0.0, 0.0), math.nan, 0.0, 0), "psi_hat must lie in (-180, 180], got nan"),
        ((1.0, (0.0, 0.0, 0.0), 0.0, -0.5, 0), "theta_hat must lie in [0, 45], got -0.5"),
        ((1.0, (0.0, 0.0, 0.0), 0.0, 46.0, 0), "theta_hat must lie in [0, 45], got 46.0"),
        ((1.0, (0.0, 0.0, 0.0), 0.0, 0.0, -1), "tile_id must be >= 0, got -1"),
    ],
)
def test_match_result_rejection_messages(args, message):
    with pytest.raises(ValueError) as exc:
        MatchResult(*args)
    assert str(exc.value) == message


def test_observation_validation():
    for frame in (-1, 2**64):  # a Philox counter word
        with pytest.raises(ValueError, match=r"frame index must lie in \[0, 2\*\*64\)"):
            UavObservation(frame, Pose6D(0.0, 0.0, 150.0, 0.0, 0.0))


def test_counter_words_at_their_limits():
    last = obs_at(2**64 - 1)
    tile = TileRecord(2**63 - 1, 0.0, 0.0)
    for matcher in (SyntheticMatcher(CFG, "hybrid", 1), SceneMatcher(CFG, 1)):
        assert matcher.match_pair(last, tile) == matcher.match_frame(last, [tile])[0]


# --- synthetic backend ----------------------------------------------------


def test_zero_noise_at_scene_center_tile():
    """Noiseless matcher on the exact scene-center tile: truth pose, d = d0."""
    matcher = SyntheticMatcher(NOISELESS, "hybrid", 0)
    obs = obs_at(0, x=100.0, y=200.0, z=150.0, psi=30.0, theta=0.0)
    tile = TileRecord(12, 100.0, 200.0)  # nadir camera: scene center = (x, y)
    r = matcher.match_pair(obs, tile)
    assert r.p_hat == (100.0, 200.0, 150.0)
    assert r.psi_hat == 30.0
    assert r.theta_hat == 0.0
    assert r.d == NOISELESS.d0


def test_distance_linear_in_scene_offset():
    matcher = SyntheticMatcher(NOISELESS, "hybrid", 0)
    obs = obs_at(3, x=0.0, y=0.0, theta=0.0)
    near = matcher.match_pair(obs, TileRecord(0, 30.0, 0.0))
    far = matcher.match_pair(obs, TileRecord(1, 130.0, 0.0))
    assert far.d - near.d == pytest.approx(100.0 * NOISELESS.d_slope, abs=1e-12)


def test_distance_uses_ground_intersection_not_camera():
    matcher = SyntheticMatcher(NOISELESS, "hybrid", 0)
    obs = obs_at(4, x=0.0, y=0.0, z=150.0, psi=0.0, theta=45.0)
    scene = ground_intersection(obs.truth)
    assert scene == pytest.approx((0.0, 150.0))
    at_scene = matcher.match_pair(obs, TileRecord(0, 0.0, 150.0))
    at_camera = matcher.match_pair(obs, TileRecord(1, 0.0, 0.0))
    # tan(45 deg) carries ~1e-16 of round-off, so approx rather than exact
    assert at_scene.d == pytest.approx(NOISELESS.d0, abs=1e-9)
    assert at_camera.d == pytest.approx(NOISELESS.d0 + 150.0, abs=1e-9)


def test_noise_statistics_match_calibration():
    """Empirical RMS of 1e4 matches within 5% of the configured figures."""
    matcher = SyntheticMatcher(CFG, "hybrid", 5)
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
    # The horizontal figure is split evenly over x and y.
    assert rms[0] == pytest.approx(CFG.hybrid_horizontal_rms_m / math.sqrt(2.0), rel=0.05)
    assert rms[1] == pytest.approx(CFG.hybrid_vertical_rms_m, rel=0.05)
    assert rms[2] == pytest.approx(CFG.hybrid_heading_rms_deg, rel=0.05)
    assert rms[3] == pytest.approx(CFG.hybrid_tilt_rms_deg, rel=0.05)


def test_common_fraction_correlates_same_frame_errors():
    matcher = SyntheticMatcher(CFG, "hybrid", 6)
    tiles = (TileRecord(0, 0.0, 0.0), TileRecord(1, 50.0, 0.0))
    xa, xb = [], []
    for frame in range(3000):
        obs = obs_at(frame)
        xa.append(matcher.match_pair(obs, tiles[0]).p_hat[0])
        xb.append(matcher.match_pair(obs, tiles[1]).p_hat[0])
    corr = np.corrcoef(xa, xb)[0, 1]
    assert corr == pytest.approx(CFG.common_frac, abs=0.05)


def test_outlier_inflation():
    xy = 10.0 * math.sqrt(2.0)  # 10 m on each axis
    cfg = SimConfig(hybrid_horizontal_rms_m=xy, outlier_prob=1.0, outlier_factor=3.0)
    matcher = SyntheticMatcher(cfg, "hybrid", 7)
    xs = [
        matcher.match_pair(obs_at(frame), TileRecord(0, 0.0, 0.0)).p_hat[0]
        for frame in range(4000)
    ]
    assert np.std(xs) == pytest.approx(30.0, rel=0.05)


def test_matcher_determinism_bitwise():
    a = SyntheticMatcher(CFG, "hybrid", 9)
    b = SyntheticMatcher(CFG, "hybrid", 9)
    obs = obs_at(17, x=3.0, y=4.0, theta=12.0)
    tile = TileRecord(5, 50.0, 100.0)
    ra = a.match_pair(obs, tile)
    rb = b.match_pair(obs, tile)
    assert ra == rb  # exact float equality via dataclass eq


@pytest.mark.parametrize(
    "matcher",
    [
        SyntheticMatcher(CFG, "hybrid", 3),
        SyntheticMatcher(SimConfig(outlier_prob=0.3), "regression", 3),
        SceneMatcher(CFG, 3),
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


def _backends():
    """Fresh backends: two seeds, every draw path (outlier gate, scene jitter)."""
    outliers = SimConfig(outlier_prob=0.3)
    return [
        SyntheticMatcher(CFG, "hybrid", 5),
        SceneMatcher(CFG, 6),
        SyntheticMatcher(outliers, "regression", 6),
        SceneMatcher(CFG, 5),
        SyntheticMatcher(CFG, "hybrid", 6),
    ]


def _tile(tid):
    return TileRecord(tid, 50.0 * (tid % 4), 50.0 * (tid // 4))


_REQUEST = st.tuples(
    st.integers(0, 4),  # which backend
    st.integers(0, 50),  # frame
    st.lists(st.integers(0, 15), min_size=1, max_size=4),  # tile ids
)


@given(history=st.lists(_REQUEST, max_size=8), last=_REQUEST)
@settings(max_examples=60, deadline=None)
def test_results_do_not_depend_on_earlier_requests(history, last):
    """A request's results equal a lone request's, whatever came before it."""
    backends = _backends()
    for b, frame, tids in history:
        backends[b].match_frame(obs_at(frame, x=20.0, y=30.0, theta=15.0), map(_tile, tids))
    b, frame, tids = last
    obs = obs_at(frame, x=20.0, y=30.0, theta=15.0)
    alone = _backends()[b].match_frame(obs, [_tile(t) for t in tids])
    assert backends[b].match_frame(obs, [_tile(t) for t in tids]) == alone
    assert [backends[b].match_pair(obs, _tile(t)) for t in tids] == alone


def test_shared_observation_keeps_seeds_apart():
    """Backends sharing one observation draw exactly what they draw alone."""
    backends = _backends()
    tiles = [_tile(tid) for tid in range(16)]
    shared = obs_at(11, x=20.0, y=30.0, theta=15.0)
    for _ in range(2):  # a second pass reads every counter block again
        for matcher in backends:
            alone = matcher.match_frame(obs_at(11, x=20.0, y=30.0, theta=15.0), tiles)
            assert matcher.match_frame(shared, tiles) == alone
    # The observation carries no state from one backend to the next.
    assert shared == obs_at(11, x=20.0, y=30.0, theta=15.0)
    assert set(vars(shared)) == {"frame", "truth"}
    assert backends[0].match_frame(shared, tiles) != backends[4].match_frame(shared, tiles)
    assert backends[3].match_frame(shared, tiles) != backends[1].match_frame(shared, tiles)


def count_reads(matcher):
    """Wrap a matcher's counter lookup; returns the list each (frame, slot) read lands in."""
    reads = []
    at = matcher._noise_at

    def counting_at(frame, slot):
        reads.append((frame, slot))
        return at(frame, slot)

    matcher._noise_at = counting_at
    return reads


def test_synthetic_matchers_on_one_seed_draw_each_stream_once():
    # Regression and hybrid share the run's seed: each reads the per-frame
    # block and each pair's block once per request, and nothing else.
    outliers = SimConfig(outlier_prob=0.3)
    backends = [SyntheticMatcher(outliers, kind, 4) for kind in ("regression", "hybrid")]
    reads = [count_reads(matcher) for matcher in backends]
    tiles = [_tile(tid) for tid in range(16)]
    shared = obs_at(9, x=20.0, y=30.0, theta=15.0)
    together = [matcher.match_frame(shared, tiles) for matcher in backends]
    for got in reads:
        assert sorted(got) == [(9, 0)] + [(9, tid + 1) for tid in range(16)]
    alone = [m.match_frame(obs_at(9, x=20.0, y=30.0, theta=15.0), tiles) for m in backends]
    assert together == alone and together[0] != together[1]


def test_seeds_frames_and_tiles_draw_apart():
    hybrid5, _, _, _, hybrid6 = _backends()
    obs = obs_at(11, x=20.0, y=30.0, theta=15.0)
    tiles = [_tile(tid) for tid in range(16)]
    assert hybrid5.match_frame(obs, tiles) != hybrid6.match_frame(obs, tiles)
    # Tiles at one center differ only in their pair's stream.
    twins = [TileRecord(tid, 0.0, 0.0) for tid in range(16)]
    results = hybrid5.match_frame(obs, twins)
    assert len({r.p_hat for r in results}) == len({r.d for r in results}) == 16
    later = hybrid5.match_frame(obs_at(12, x=20.0, y=30.0, theta=15.0), twins)
    assert {r.p_hat for r in results}.isdisjoint(r.p_hat for r in later)


def three_call_rows(matcher, obs, tiles):
    """Reference rows (d, tile_id, x, y, z, psi, theta), drawn as the matchers
    first drew them: per synthetic pair the gate, standard_normal(5) for the
    pose error, then standard_normal() for the jitter, in three calls."""
    at = matcher._noise_at
    sx, sy = ground_intersection(obs.truth)

    def distance(tile, jitter):
        gap = math.hypot(sx - tile.x, sy - tile.y)
        return max(matcher.d0 + matcher.d_slope * gap + matcher.d_jitter * abs(jitter), D_MIN)

    if isinstance(matcher, SceneMatcher):
        return [
            (distance(tile, at(obs.frame, tile.tile_id + 1).standard_normal()), tile.tile_id,
             tile.x, tile.y, matcher.altitude, matcher.heading_prior, matcher.tilt_prior)
            for tile in tiles
        ]
    t = obs.truth
    shared = [matcher.shared_scale * v for v in at(obs.frame, 0).standard_normal(5).tolist()]
    rows = []
    for tile in tiles:
        rng = at(obs.frame, tile.tile_id + 1)
        gate, own, jitter = rng.random(), rng.standard_normal(5).tolist(), rng.standard_normal()
        mixed = [a + matcher.own_scale * b for a, b in zip(shared, own)]
        if gate < matcher.outlier_prob:
            mixed = [v * matcher.outlier_factor for v in mixed]
        rows.append((
            distance(tile, jitter),
            tile.tile_id,
            t.x + matcher.sigma_xy * mixed[0],
            t.y + matcher.sigma_xy * mixed[1],
            t.z + matcher.sigma_z * mixed[2],
            wrap_angle(t.psi + matcher.sigma_psi * mixed[3]),
            min(max(t.theta + matcher.sigma_theta * mixed[4], 0.0), 45.0),
        ))
    return rows


@settings(max_examples=120, deadline=None)
@given(
    outlier_prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    common_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    noiseless=st.booleans(),
    backend=st.sampled_from(["hybrid", "regression", "scene"]),
    seed=st.integers(0, 2**32),
    frame=st.integers(1, 10**6),
    tile_ids=st.lists(st.integers(0, 10**4), min_size=1, max_size=16, unique=True),
    theta=st.floats(0.0, 45.0),
)
def test_row_kernel_equals_three_call_draws_and_match_frame(
    outlier_prob, common_frac, noiseless, backend, seed, frame, tile_ids, theta
):
    figures = {key: 0.0 for key in RMS_KEYS} if noiseless else {}
    cfg = SimConfig(outlier_prob=outlier_prob, common_frac=common_frac, **figures)
    matcher = SceneMatcher(cfg, seed) if backend == "scene" else SyntheticMatcher(cfg, backend, seed)
    obs = obs_at(frame, x=37.0, y=-12.0, psi=-170.0, theta=theta)
    tiles = [TileRecord(tid, 50.0 * (tid % 7) - 150.0, 50.0 * (tid // 7 % 7) - 150.0) for tid in tile_ids]
    rows = matcher._match_rows(obs, tiles)
    # repr tells every float apart, -0.0 from 0.0 included.
    assert repr(rows) == repr(three_call_rows(matcher, obs, tiles))
    fields = [(r.d, r.tile_id, *r.p_hat, r.psi_hat, r.theta_hat) for r in matcher.match_frame(obs, tiles)]
    assert repr(fields) == repr(rows)
    assert all(type(v) is float for row in rows for v in row[:1] + row[2:])


@settings(max_examples=100, deadline=None)
@given(
    outlier_prob=st.sampled_from([0.0, 0.3, 1.0]),
    common_frac=st.sampled_from([0.0, 0.8]),
    seed=st.integers(0, 2**32),
    frame=st.integers(1, 10**6),
    first=st.lists(st.integers(0, 48), min_size=1, max_size=16, unique=True),
    second=st.lists(st.integers(0, 48), min_size=1, max_size=16, unique=True),
    hybrid_first=st.booleans(),
)
def test_backends_of_one_key_share_a_frame_table(
    outlier_prob, common_frac, seed, frame, first, second, hybrid_first
):
    """Regression and hybrid on one seed fill and read one table for a frame,
    in either order, and score exactly what each scores without one; between
    them they read slot 0 once and each tile either asks for once."""
    cfg = SimConfig(outlier_prob=outlier_prob, common_frac=common_frac)
    calls = [("regression", first), ("hybrid", second)][:: -1 if hybrid_first else 1]
    matchers = [SyntheticMatcher(cfg, kind, seed) for kind, _ in calls]
    assert matchers[0]._key == matchers[1]._key
    obs = obs_at(frame, x=37.0, y=-12.0, psi=-170.0, theta=12.0)
    reads = [count_reads(matcher) for matcher in matchers]
    table = {}
    shared = [m._match_rows(obs, [_tile(t) for t in tids], table)
              for m, (_, tids) in zip(matchers, calls)]
    both = sorted({*first, *second})
    assert sorted(reads[0] + reads[1]) == [(frame, 0)] + [(frame, t + 1) for t in both]
    assert len(table) == 1 + len(both)
    fresh = [SyntheticMatcher(cfg, kind, seed)._match_rows(obs, [_tile(t) for t in tids])
             for kind, tids in calls]
    assert repr(shared) == repr(fresh)


def test_backend_keys_name_what_a_table_holds():
    """Only backends that would draw the same table share a key: the scene
    backend reads its pairs' streams differently, and the distance model and
    the seed set each table entry."""
    cfg = SimConfig()
    key = SyntheticMatcher(cfg, "hybrid", 7)._key
    assert SyntheticMatcher(SimConfig(outlier_prob=0.3, common_frac=0.1), "regression", 7)._key == key
    for other in (SceneMatcher(cfg, 7), SyntheticMatcher(cfg, "hybrid", 8),
                  SyntheticMatcher(SimConfig(d0=0.5), "hybrid", 7),
                  SyntheticMatcher(SimConfig(d_slope=0.02), "hybrid", 7),
                  SyntheticMatcher(SimConfig(d_jitter=0.2), "hybrid", 7)):
        assert other._key != key


def test_matchers_reject_seeds_a_philox_key_cannot_hold():
    for seed in (-1, 2**128, 1.0):
        for make in (lambda s: SyntheticMatcher(CFG, "hybrid", s), lambda s: SceneMatcher(CFG, s)):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
                make(seed)
    assert SyntheticMatcher(CFG, "hybrid", 2**128 - 1).match_pair(obs_at(1), _tile(0))


def test_distance_always_positive():
    rng = np.random.default_rng(33)
    matcher = SyntheticMatcher(SimConfig(d0=D_MIN, d_slope=0.0, d_jitter=50.0), "hybrid", 1)
    for frame in range(200):
        tile = TileRecord(
            int(rng.integers(0, 100)),
            float(rng.uniform(-500, 500)),
            float(rng.uniform(-500, 500)),
        )
        r = matcher.match_pair(obs_at(frame), tile)
        assert r.d >= D_MIN


def test_theta_estimate_stays_in_range():
    matcher = SyntheticMatcher(SimConfig(hybrid_tilt_rms_deg=30.0), "hybrid", 2)
    thetas = [
        matcher.match_pair(obs_at(f, theta=1.0), TileRecord(0, 0.0, 0.0)).theta_hat
        for f in range(500)
    ]
    assert min(thetas) >= 0.0 and max(thetas) <= 45.0


# --- scene backend --------------------------------------------------------


def test_scene_match_reports_tile_position():
    matcher = SceneMatcher(CFG, 0)
    obs = obs_at(0, x=-321.0, y=77.0, z=180.0, psi=55.0, theta=10.0)
    r = matcher.match_pair(obs, TileRecord(9, 500.0, 700.0))
    assert r.p_hat == (500.0, 700.0, CFG.scene_altitude_m)
    assert r.psi_hat == CFG.scene_heading_deg
    assert r.theta_hat == CFG.scene_tilt_deg


def test_scene_match_nearer_tile_scores_better():
    matcher = SceneMatcher(NOISELESS, 0)  # no jitter: deterministic d
    obs = obs_at(0, x=0.0, y=0.0, theta=0.0)
    near = matcher.match_pair(obs, TileRecord(0, 10.0, 0.0))
    far = matcher.match_pair(obs, TileRecord(1, 200.0, 0.0))
    assert near.d < far.d


def test_backends_validate_their_config():
    for make in (lambda c: SyntheticMatcher(c, "hybrid", 0), lambda c: SceneMatcher(c, 0)):
        with pytest.raises(ConfigError, match="^scene_altitude_m must be positive"):
            make(SimConfig(scene_altitude_m=-5.0))
        with pytest.raises(ConfigError, match="^hybrid_horizontal_rms_m must be >= 0"):
            make(SimConfig(hybrid_horizontal_rms_m=-1.0))
    with pytest.raises(ValueError, match="unknown matcher kind"):
        SyntheticMatcher(CFG, "retrieval", 0)
    with pytest.raises(ValueError, match="unknown matcher kind"):
        match_variances(CFG, "scene")


# --- calibrations ---------------------------------------------------------


def test_calibration_models():
    for kind in ("hybrid", "regression"):
        h, z, psi, theta = (getattr(CFG, f"{kind}_{figure}") for figure in FIGURES)
        # The horizontal figure is split evenly over x and y.
        want = [(h / math.sqrt(2.0)) ** 2] * 2 + [z**2, psi**2, theta**2]
        np.testing.assert_array_equal(match_variances(CFG, kind), want)
    # regression-grade is strictly noisier than hybrid-grade
    assert np.all(match_variances(CFG, "regression") > match_variances(CFG, "hybrid"))


# Every key a backend reads, a second valid value for it, and the backends
# that read it. BASE draws outliers, so outlier_factor shows.
BASE = SimConfig(outlier_prob=0.3)
SYNTHETIC = {"regression", "hybrid"}
EVERY = {"scene", *SYNTHETIC}
CALIBRATION = [
    ("d0", 7.0, EVERY),
    ("d_slope", 2.0, EVERY),
    ("d_jitter", 1.0, EVERY),
    ("outlier_prob", 0.6, SYNTHETIC),
    ("outlier_factor", 5.0, SYNTHETIC),
    ("common_frac", 0.2, SYNTHETIC),
    *[(key, 3.0, {key.split("_")[0]}) for key in RMS_KEYS],
    ("scene_altitude_m", 120.0, {"scene"}),
    ("scene_heading_deg", 45.0, {"scene"}),
    ("scene_tilt_deg", 10.0, {"scene"}),
]


def _build(cfg):
    return {
        "scene": SceneMatcher(cfg, 3),
        "regression": SyntheticMatcher(cfg, "regression", 3),
        "hybrid": SyntheticMatcher(cfg, "hybrid", 3),
    }


def _outputs(matchers):
    tiles = [_tile(tid) for tid in range(16)]
    return {
        name: [matcher.match_frame(obs_at(f, x=20.0, y=30.0, theta=15.0), tiles)
               for f in range(20)]
        for name, matcher in matchers.items()
    }


@pytest.mark.parametrize("key, value, readers", CALIBRATION, ids=[c[0] for c in CALIBRATION])
def test_each_calibration_key_reaches_exactly_its_backends(key, value, readers):
    before = _outputs(_build(BASE))
    after = _outputs(_build(dataclasses.replace(BASE, **{key: value})))
    assert {name for name in before if after[name] != before[name]} == readers
