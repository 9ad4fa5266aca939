"""Flight simulation, VO drift, metrics, and the end-to-end experiment."""

import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview import estimator, sim
from crossview.config import ConfigError, SimConfig
from crossview.estimator import FilterState, ProcessNoise, VoIncrement, correct, predict
from crossview.fusion import fuse
from crossview.geometry import Pose6D, euler_to_rotmat, wrap_angle
from crossview.matchers import UavObservation, match_variances
from crossview.sim import (
    _make_backends,
    _run_pipelines,
    METHODS,
    RmseSummary,
    TrajectoryFrame,
    gen_trajectory,
    load_trajectory,
    path_length,
    rmse,
    run_experiment,
    save_estimates,
    save_trajectory,
    simulate_vo,
    suggested_tile_bounds,
    write_summary,
)
from crossview.tiles import TileSet, generate_grid, k_nearest


NO_DRIFT = dict(vo_scale_error=0.0, vo_pos_noise_m=0.0, vo_rot_noise_deg=0.0, vo_bias_walk_m=0.0)


def small_config(**overrides):
    """A short flight that keeps tests fast: 50 s, 625 m."""
    base = dict(length_m=625.0, duration_s=50.0, turn_radius_m=40.0, straight_init_m=50.0)
    base.update(overrides)
    return SimConfig(**base).validate()


def dead_reckon(start, increments):
    poses = [start]
    for inc in increments[1:]:
        R = euler_to_rotmat(*poses[-1].angles)
        p = poses[-1].position + inc.dp
        R_new = inc.dR @ R
        from crossview.geometry import rotmat_to_euler

        psi, theta, phi = rotmat_to_euler(R_new)
        poses.append(Pose6D(p[0], p[1], p[2], psi, theta, phi))
    return poses


@pytest.fixture(scope="module")
def default_frames():
    return gen_trajectory(SimConfig(), seed=0)


# --- trajectory ------------------------------------------------------------


def test_frame_count_and_timestamps(default_frames):
    assert len(default_frames) == 4000
    ts = [f.t for f in default_frames]
    np.testing.assert_allclose(np.diff(ts), 0.05, atol=1e-12)
    assert ts[0] == 0.0


def test_path_length_close_to_config(default_frames):
    # 4000 chords under-sample the arcs slightly; the altitude profile adds
    # a little 3D length back. Stay within 2% either way.
    length = path_length([f.truth for f in default_frames])
    assert abs(length - 2500.0) / 2500.0 < 0.02


def test_altitude_and_tilt_envelopes(default_frames):
    zs = np.array([f.truth.z for f in default_frames])
    thetas = np.array([f.truth.theta for f in default_frames])
    assert zs.min() >= 100.0 and zs.max() <= 200.0
    assert thetas.min() >= 0.0 and thetas.max() <= 45.0
    assert np.all([f.truth.phi == 0.0 for f in default_frames])


def test_initial_leg_is_pure_translation(default_frames):
    # orientation must stay frozen for the first 100 m of flight
    cfg = SimConfig()
    n_hold = int(cfg.straight_init_m / cfg.speed / cfg.dt)
    psi0 = default_frames[0].truth.psi
    theta0 = default_frames[0].truth.theta
    for f in default_frames[: n_hold + 1]:
        assert f.truth.psi == pytest.approx(psi0, abs=1e-9)
        assert f.truth.theta == pytest.approx(theta0, abs=1e-9)
    # and it really does move
    moved = np.linalg.norm(default_frames[n_hold].truth.position[:2] - default_frames[0].truth.position[:2])
    assert moved == pytest.approx(cfg.straight_init_m, rel=0.02)


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(),
        small_config(),
        small_config(length_m=1000.0, duration_s=40.0, turn_radius_m=100.0),
    ],
    ids=["default", "small", "wide_turn"],
)
@pytest.mark.parametrize("seed", range(5))
def test_flight_flies_line_turn_orbit(cfg, seed):
    """Lead frames lie on the line from the origin along psi0, turn frames at
    turn_radius_m from the turn center, orbit frames at orbit_radius_m from
    the orbit center; both centers follow from the config, psi0 and the turn
    sense."""
    frames = gen_trajectory(cfg, seed)
    psi0 = frames[0].truth.psi
    turn_end = cfg.lead_m + 0.5 * math.pi * cfg.turn_radius_m
    first_orbit = next(i for i in range(len(frames)) if cfg.speed * i * cfg.dt > turn_end)
    sense = math.copysign(1.0, wrap_angle(frames[first_orbit].truth.psi - psi0))

    def ahead(h):
        return np.array([math.sin(math.radians(h)), math.cos(math.radians(h))])

    def right(h):
        return np.array([math.cos(math.radians(h)), -math.sin(math.radians(h))])

    turn_start = cfg.lead_m * ahead(psi0)
    turn_center = turn_start + sense * cfg.turn_radius_m * right(psi0)
    psi1 = psi0 + sense * 90.0
    orbit_start = turn_center - sense * cfg.turn_radius_m * right(psi1)
    orbit_center = orbit_start + sense * cfg.orbit_radius_m * right(psi1)

    legs = {"lead": [], "turn": [], "orbit": []}
    for i, f in enumerate(frames):
        s = cfg.speed * (i * cfg.dt)
        p = np.array([f.truth.x, f.truth.y])
        if s <= cfg.lead_m:
            u = ahead(psi0)
            assert p @ u >= 0.0
            legs["lead"].append(abs(u[0] * p[1] - u[1] * p[0]))
        elif s <= turn_end:
            legs["turn"].append(abs(np.linalg.norm(p - turn_center) - cfg.turn_radius_m))
        else:
            legs["orbit"].append(abs(np.linalg.norm(p - orbit_center) - cfg.orbit_radius_m))
    for leg, deviations in legs.items():
        assert deviations, leg
        assert max(deviations) < 1e-9, leg


def test_constant_ground_speed(default_frames):
    pts = np.array([[f.truth.x, f.truth.y] for f in default_frames])
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    np.testing.assert_allclose(steps, 12.5 * 0.05, rtol=5e-3)


def test_trajectory_deterministic_and_seed_sensitive():
    cfg = small_config()
    a = gen_trajectory(cfg, seed=7)
    b = gen_trajectory(cfg, seed=7)
    assert all(
        fa.t == fb.t and fa.truth == fb.truth and np.array_equal(fa.vo_increment.dp, fb.vo_increment.dp)
        for fa, fb in zip(a, b)
    )
    c = gen_trajectory(cfg, seed=8)
    assert a[500].truth != c[500].truth


def test_increments_reconstruct_truth(default_frames):
    poses = dead_reckon(
        default_frames[0].truth, [f.vo_increment for f in default_frames]
    )
    finals = poses[-1]
    assert np.linalg.norm(finals.position - default_frames[-1].truth.position) < 1e-6
    assert abs(finals.psi - default_frames[-1].truth.psi) < 1e-6


# --- trusted flight builders against per-frame checked references -----------


def reference_gen_trajectory(cfg, seed):
    """gen_trajectory frame by frame, through the checked constructors."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, sim._TRAJ_STREAM]))
    heading0 = wrap_angle(float(rng.uniform(-180.0, 180.0)))
    first_turn = 1 if rng.random() < 0.5 else -1
    alt_phase = float(rng.uniform(0.0, 2.0 * math.pi))
    path = sim._flight_path(cfg, heading0, first_turn)
    t0 = cfg.straight_init_m / cfg.speed
    frames = []
    for i in range(cfg.frame_count):
        t = i * cfg.dt
        x, y, heading = path(cfg.speed * t)
        z = cfg.alt_base_m + cfg.alt_amp_m * math.sin(
            2.0 * math.pi * t / cfg.alt_period_s + alt_phase
        )
        tilt_t = max(t - t0, 0.0)
        theta = cfg.tilt_base_deg + cfg.tilt_amp_deg * math.sin(
            2.0 * math.pi * tilt_t / cfg.tilt_period_s
        )
        pose = Pose6D(x, y, z, wrap_angle(heading), theta, 0.0)
        R = euler_to_rotmat(*pose.angles)
        if i == 0:
            inc = VoIncrement.identity()
        else:
            inc = VoIncrement(pose.position - frames[-1].truth.position, R @ R_prev.T)
        frames.append(TrajectoryFrame(t, pose, inc))
        R_prev = R
    return frames


def reference_simulate_vo(frames, cfg, seed):
    """simulate_vo step by step, three draws of 3 normals a step, checked increments."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, sim._VO_STREAM]))
    out = [VoIncrement.identity()]
    bias = np.zeros(3)
    for frame in frames[1:]:
        bias = bias + rng.standard_normal(3) * cfg.vo_bias_walk_m
        pos_noise = rng.standard_normal(3) * cfg.vo_pos_noise_m
        rot_noise = rng.standard_normal(3) * cfg.vo_rot_noise_deg
        true_inc = frame.vo_increment
        dp = (1.0 + cfg.vo_scale_error) * true_inc.dp + pos_noise + bias
        dR = euler_to_rotmat(rot_noise[0], rot_noise[1], rot_noise[2]) @ true_inc.dR
        out.append(VoIncrement(dp, dR))
    return out


def assert_same_increments(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dp.tobytes() == b.dp.tobytes() and a.dR.tobytes() == b.dR.tobytes()


def assert_same_flight(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array([a.t, *astuple(a.truth)]).tobytes() == np.array([b.t, *astuple(b.truth)]).tobytes()
    assert_same_increments([f.vo_increment for f in got], [f.vo_increment for f in want])


@st.composite
def flight_configs(draw):
    tilt_amp = draw(st.floats(0.0, 22.5))
    return small_config(
        # 2, 20 and 1000 frames; every frame corrected, so 2 frames are valid
        duration_s=draw(st.sampled_from([0.1, 1.0, 50.0])),
        correction_hz=20.0,
        # the tilt profile touching its 0 deg floor, its 45 deg ceiling, or neither
        tilt_base_deg=draw(st.sampled_from([tilt_amp, 45.0 - tilt_amp, 22.5])),
        tilt_amp_deg=tilt_amp,
        vo_scale_error=draw(st.floats(-0.5, 1.0)),
        vo_pos_noise_m=draw(st.floats(0.0, 10.0)),
        vo_rot_noise_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 180.0))),
        vo_bias_walk_m=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3))),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=flight_configs(), seed=st.integers(0, 2**63), block=st.sampled_from([1, 7, 512]))
def test_trusted_builders_equal_checked_references(cfg, seed, block):
    frames = gen_trajectory(cfg, seed)
    assert_same_flight(frames, reference_gen_trajectory(cfg, seed))
    with mock.patch.object(sim, "_VO_BLOCK", block):
        got = simulate_vo(frames, cfg, seed)
    assert_same_increments(got, reference_simulate_vo(frames, cfg, seed))


def test_default_flight_equals_checked_references(default_frames):
    cfg = SimConfig()
    assert_same_flight(default_frames, reference_gen_trajectory(cfg, 0))
    increments = simulate_vo(default_frames, cfg, 0)
    assert_same_increments(increments, reference_simulate_vo(default_frames, cfg, 0))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dR", 2.0 * np.eye(3), "dR is not a rotation"),
        ("dR", np.diag([1.0, 1.0, -1.0]), "dR is not a rotation"),  # a reflection
        ("dR", np.full((3, 3), np.nan), "dR is not a rotation"),
        ("dp", np.array([0.0, np.inf, 0.0]), "dp must be a finite"),
    ],
)
@pytest.mark.parametrize("frame", [1, 600, 999])
def test_simulate_vo_checks_the_increments_it_builds(field, value, message, frame):
    cfg = small_config(**NO_DRIFT)
    frames = gen_trajectory(cfg, seed=1)
    object.__setattr__(frames[frame].vo_increment, field, value)
    with pytest.raises(ValueError, match=message):
        simulate_vo(frames, cfg, seed=1)


def test_simulate_vo_rejects_an_empty_flight():
    with pytest.raises(ValueError, match="at least one frame"):
        simulate_vo([], small_config(), seed=0)


def test_simulate_vo_of_one_frame_is_the_identity():
    frames = gen_trajectory(small_config(), seed=0)[:1]
    assert_same_increments(simulate_vo(frames, small_config(), seed=0), [VoIncrement.identity()])


# --- VO drift ---------------------------------------------------------------


def test_zero_drift_passthrough():
    cfg = small_config(**NO_DRIFT)
    frames = gen_trajectory(cfg, seed=3)
    incs = simulate_vo(frames, cfg, seed=3)
    poses = dead_reckon(frames[0].truth, incs)
    err = np.linalg.norm(poses[-1].position - frames[-1].truth.position)
    assert err < 1e-9


def test_pure_scale_error_on_straight_line():
    # hand-built straight-line frames: 1% scale error alone gives a final
    # position error of exactly 1% of distance flown
    dp = np.array([0.0, 1.0, 0.0])
    frames = [TrajectoryFrame(0.0, Pose6D(0, 0, 150, 0, 0), VoIncrement.identity())]
    for i in range(1, 101):
        frames.append(
            TrajectoryFrame(
                i * 0.05, Pose6D(0, float(i), 150, 0, 0), VoIncrement(dp, np.eye(3))
            )
        )
    cfg = SimConfig(vo_scale_error=0.01, vo_pos_noise_m=0.0, vo_rot_noise_deg=0.0, vo_bias_walk_m=0.0)
    incs = simulate_vo(frames, cfg, seed=0)
    poses = dead_reckon(frames[0].truth, incs)
    err = np.linalg.norm(poses[-1].position - frames[-1].truth.position)
    assert err == pytest.approx(1.0, rel=1e-9)


def test_vo_deterministic_per_seed():
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=2)
    a = simulate_vo(frames, cfg, seed=2)
    b = simulate_vo(frames, cfg, seed=2)
    assert all(np.array_equal(x.dp, y.dp) and np.array_equal(x.dR, y.dR) for x, y in zip(a, b))
    c = simulate_vo(frames, cfg, seed=5)
    assert not np.array_equal(a[100].dp, c[100].dp)


def test_simulate_vo_validates_its_config():
    frames = gen_trajectory(small_config(), seed=0)
    with pytest.raises(ConfigError, match="vo_pos_noise_m"):
        simulate_vo(frames, SimConfig(vo_pos_noise_m=-0.1), seed=0)


def test_default_drift_band_one_seed():
    """The dead-reckoned error lands in the advertised few-percent band."""
    cfg = SimConfig()
    frames = gen_trajectory(cfg, seed=0)
    incs = simulate_vo(frames, cfg, seed=0)
    poses = dead_reckon(frames[0].truth, incs)
    summary = rmse(poses, [f.truth for f in frames])
    assert 4.5 <= summary.pos_pct <= 6.5


# --- metrics ----------------------------------------------------------------


def test_rmse_zero_for_identical():
    truth = [Pose6D(float(i), 0, 150, 10, 5) for i in range(10)]
    s = rmse(truth, truth)
    assert s.pos_rmse_m == 0.0 and s.psi_rmse_deg == 0.0 and s.theta_rmse_deg == 0.0


def test_rmse_constant_offset():
    truth = [Pose6D(float(i), 0.0, 150.0, 0.0, 0.0) for i in range(100)]
    est = [Pose6D(p.x, p.y + 3.0, p.z, p.psi, p.theta) for p in truth]
    s = rmse(est, truth)
    assert s.pos_rmse_m == pytest.approx(3.0, abs=1e-12)
    assert s.pos_pct == pytest.approx(100.0 * 3.0 / 99.0, rel=1e-12)


def test_rmse_wraps_heading():
    truth = [Pose6D(0, 0, 150, 179.0, 0.0)] * 2
    est = [Pose6D(0, 0, 150, -179.0, 0.0)] * 2
    s = rmse(est, truth)
    assert s.psi_rmse_deg == pytest.approx(2.0, abs=1e-12)


def test_rmse_length_mismatch():
    truth = [Pose6D(0, 0, 150, 0, 0)] * 3
    with pytest.raises(ValueError, match="mismatch"):
        rmse(truth[:2], truth)


def test_rmse_rejects_empty_trajectories():
    with pytest.raises(ValueError, match="trajectory is empty"):
        rmse([], [])


# --- end-to-end --------------------------------------------------------------


def tiles_for(frames):
    bounds = suggested_tile_bounds(frames)
    return generate_grid(*bounds, spacing=50.0)


def test_suggested_bounds_cover_flight(default_frames):
    x_min, x_max, y_min, y_max = suggested_tile_bounds(default_frames)
    xs = [f.truth.x for f in default_frames]
    ys = [f.truth.y for f in default_frames]
    assert x_min <= min(xs) - 250 and x_max >= max(xs) + 250
    assert y_min <= min(ys) - 250 and y_max >= max(ys) + 250
    tiles = generate_grid(x_min, x_max, y_min, y_max, 50.0)
    assert 500 <= len(tiles) <= 5000


def test_run_experiment_noise_free_recovers_truth():
    """With drift and matcher noise switched off, every method tracks truth."""
    cfg = small_config(
        **NO_DRIFT,
        d_jitter=0.0,
        hybrid_horizontal_rms_m=1e-6,
        hybrid_vertical_rms_m=1e-6,
        hybrid_heading_rms_deg=1e-6,
        hybrid_tilt_rms_deg=1e-6,
        regression_horizontal_rms_m=1e-6,
        regression_vertical_rms_m=1e-6,
        regression_heading_rms_deg=1e-6,
        regression_tilt_rms_deg=1e-6,
    )
    frames = gen_trajectory(cfg, seed=1)
    result = run_experiment(cfg, tiles_for(frames), seed=1)
    for method in ("vo_only", "vo_regression", "vo_hybrid"):
        assert result.summaries[method].pos_rmse_m < 0.1, method


def test_run_experiment_corrections_bound_drift():
    """Default drift with near-perfect hybrid fixes: the error at correction
    frames stays small even though VO alone would wander off."""
    cfg = small_config(
        d_jitter=0.0,
        hybrid_horizontal_rms_m=1e-6,
        hybrid_vertical_rms_m=1e-6,
        hybrid_heading_rms_deg=1e-6,
        hybrid_tilt_rms_deg=1e-6,
        common_frac=0.0,
    )
    frames = gen_trajectory(cfg, seed=4)
    result = run_experiment(cfg, tiles_for(frames), seed=4)
    stride = cfg.correction_stride
    hybrid = result.estimates["vo_hybrid"]
    truth = [f.truth for f in frames]
    for i in range(5 * stride, len(frames), stride):
        err = np.linalg.norm(hybrid[i].position - truth[i].position)
        assert err < 0.5, f"frame {i}: {err}"
    assert result.summaries["vo_only"].pos_rmse_m > 1.0


def test_run_experiment_paired_and_ordered():
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=0)
    result = run_experiment(cfg, tiles_for(frames), seed=0)
    assert set(result.estimates) == set(METHODS)
    assert set(result.summaries) == set(METHODS)
    for method in METHODS:
        assert len(result.estimates[method]) == len(frames)
    # corrected pipelines beat dead reckoning on this drift level
    assert result.summaries["vo_hybrid"].pos_rmse_m < result.summaries["vo_only"].pos_rmse_m


def test_run_experiment_deterministic():
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=6)
    tiles = tiles_for(frames)
    a = run_experiment(cfg, tiles, seed=6)
    b = run_experiment(cfg, tiles, seed=6)
    for method in METHODS:
        assert a.summaries[method] == b.summaries[method]
        assert all(pa == pb for pa, pb in zip(a.estimates[method], b.estimates[method]))


def test_run_experiment_rejects_small_tile_set():
    cfg = small_config(k_candidates=9)
    small = generate_grid(0.0, 50.0, 0.0, 50.0, 50.0)  # 4 tiles
    with pytest.raises(ValueError, match="k_candidates"):
        run_experiment(cfg, small, seed=0)


def test_longest_correction_stride_corrects_the_last_frame_alone():
    cfg = small_config(correction_hz=20.0 / 999)
    assert cfg.correction_stride == cfg.frame_count - 1
    frames = gen_trajectory(cfg, seed=2)
    result = run_experiment(cfg, tiles_for(frames), seed=2)
    vo_only = result.estimates["vo_only"]
    for method in METHODS[1:]:
        estimates = result.estimates[method]
        assert estimates[:-1] == vo_only[:-1] and estimates[-1] != vo_only[-1], method


def test_lower_matcher_noise_never_hurts():
    """Halving every matcher sigma can only improve the mean hybrid RMSE."""
    cfg = small_config()
    halved = small_config(
        hybrid_horizontal_rms_m=cfg.hybrid_horizontal_rms_m / 2,
        hybrid_vertical_rms_m=cfg.hybrid_vertical_rms_m / 2,
        hybrid_heading_rms_deg=cfg.hybrid_heading_rms_deg / 2,
        hybrid_tilt_rms_deg=cfg.hybrid_tilt_rms_deg / 2,
    )
    deltas = []
    for seed in range(10):
        frames = gen_trajectory(cfg, seed=seed)
        tiles = tiles_for(frames)
        base = run_experiment(cfg, tiles, seed=seed).summaries["vo_hybrid"].pos_rmse_m
        tight = run_experiment(halved, tiles, seed=seed).summaries["vo_hybrid"].pos_rmse_m
        deltas.append(base - tight)
    assert np.mean(deltas) > 0.0


# --- trusted pipeline loop against the public reference ----------------------


def reference_pipeline(frames, increments, backend, cfg, tile_set):
    """The filter loop built from the public, fully checked calls.

    A lone candidate has no scatter, so fusion falls back to the backend's
    own lone-candidate variances on this grid.
    """
    noise = ProcessNoise(np.full(6, cfg.process_noise_var))
    fallback = None if backend is None else backend._lone_variances(tile_set.spacing)
    state = FilterState.initial(frames[0].truth, cfg.init_cov_var)
    poses = [state.pose]
    for i in range(1, len(frames)):
        state = predict(state, increments[i], noise)
        if backend is not None and i % cfg.correction_stride == 0:
            obs = UavObservation(i, frames[i].truth)
            candidates = k_nearest(tile_set, (state.pose.x, state.pose.y), cfg.k_candidates)
            results = [backend.match_pair(obs, t) for t in candidates]
            state = correct(state, fuse(results, fallback))
        poses.append(state.pose)
    return poses, state.P


def _run_pipeline(frames, increments, backend, cfg, tile_set):
    """The lockstep loop with one backend: its poses and final P."""
    return _run_pipelines(frames, increments, [backend], cfg, tile_set)[0]


def assert_same_run(got, want):
    (poses, P), (ref_poses, ref_P) = got, want
    assert len(poses) == len(ref_poses)
    for a, b in zip(poses, ref_poses):
        assert (a.x, a.y, a.z, a.psi, a.theta, a.phi) == (b.x, b.y, b.z, b.psi, b.theta, b.phi)
    assert np.array_equal(P, ref_P)


def test_vo_only_pipeline_equals_chained_predict():
    cfg = SimConfig().validate()
    frames = gen_trajectory(cfg, seed=3)
    increments = simulate_vo(frames, cfg, seed=3)
    got = _run_pipeline(frames, increments, None, cfg, None)
    assert_same_run(got, reference_pipeline(frames, increments, None, cfg, None))


@pytest.mark.parametrize("method", ["vo_scene", "vo_regression", "vo_hybrid"])
def test_corrected_pipeline_equals_public_reference(method):
    cfg = small_config(correction_hz=4.0, outlier_prob=0.2)
    frames = gen_trajectory(cfg, seed=8)
    increments = simulate_vo(frames, cfg, seed=8)
    tiles = tiles_for(frames)
    backend = _make_backends(cfg, 8)[method]
    got = _run_pipeline(frames, increments, backend, cfg, tiles)
    assert_same_run(got, reference_pipeline(frames, increments, backend, cfg, tiles))


@pytest.mark.parametrize("method", ["vo_scene", "vo_regression", "vo_hybrid"])
def test_single_candidate_fallback_follows_config(method):
    """With k = 1, fusion falls back to each backend's own variances from the config."""
    base = SimConfig()
    cfg = small_config(
        k_candidates=1,
        hybrid_horizontal_rms_m=base.hybrid_horizontal_rms_m / 2,
        hybrid_vertical_rms_m=base.hybrid_vertical_rms_m / 2,
        hybrid_heading_rms_deg=base.hybrid_heading_rms_deg / 2,
        hybrid_tilt_rms_deg=base.hybrid_tilt_rms_deg / 2,
    )
    frames = gen_trajectory(cfg, seed=4)
    increments = simulate_vo(frames, cfg, seed=4)
    tiles = tiles_for(frames)
    backend = _make_backends(cfg, 4)[method]
    got = _run_pipeline(frames, increments, backend, cfg, tiles)
    assert_same_run(got, reference_pipeline(frames, increments, backend, cfg, tiles))


@pytest.mark.parametrize(
    "method, variances",
    [
        ("vo_scene", lambda cfg, s: [
            s * s / 12.0, s * s / 12.0,
            (cfg.alt_base_m - cfg.scene_altitude_m) ** 2 + cfg.alt_amp_m**2 / 2.0,
            180.0**2 / 3.0,
            (cfg.tilt_base_deg - cfg.scene_tilt_deg) ** 2 + cfg.tilt_amp_deg**2 / 2.0,
        ]),
        ("vo_regression", lambda cfg, s: match_variances(cfg, "regression")),
        ("vo_hybrid", lambda cfg, s: match_variances(cfg, "hybrid")),
    ],
    ids=["vo_scene", "vo_regression", "vo_hybrid"],
)
def test_each_backend_owns_its_lone_candidate_variances(method, variances):
    cfg = small_config(scene_altitude_m=120.0, scene_tilt_deg=30.0)
    got = _make_backends(cfg, 0)[method]._lone_variances(20.0)
    np.testing.assert_allclose(got, variances(cfg, 20.0), rtol=1e-15)


def test_single_candidate_scene_pipeline_is_not_held_to_hybrid_figures():
    """At k = 1 the scene backend weighs its lone tile by its own priors' errors.

    Held to the hybrid figures, a zero-noise hybrid calibration made the scene
    pipeline trust every lone tile centre exactly: 38.11 %path against 6.10
    for dead reckoning on this flight.
    """
    rms = {f"{m}_{fig}": 0.0 for m in ("hybrid", "regression")
           for fig in ("horizontal_rms_m", "vertical_rms_m", "heading_rms_deg", "tilt_rms_deg")}
    cfg = small_config(k_candidates=1, **rms)
    frames = gen_trajectory(cfg, seed=0)
    pct = run_experiment(cfg, tiles_for(frames), seed=0).summaries
    assert pct["vo_scene"].pos_pct == pytest.approx(pct["vo_only"].pos_pct, rel=0.05)


def test_single_candidate_refuses_an_infinite_lone_variance():
    """A one-tile grid whose spacing squares to inf fails before the flight."""
    cfg = small_config(k_candidates=1)
    frames = gen_trajectory(cfg, seed=0)
    increments = simulate_vo(frames, cfg, seed=0)
    backends = [_make_backends(cfg, 0)["vo_scene"]]
    tiles = generate_grid(0.0, 0.0, 0.0, 0.0, 1e200)
    ran = mock.Mock(side_effect=sim._compose)
    with mock.patch.object(sim, "_compose", ran), pytest.raises(ValueError, match="finite"):
        _run_pipelines(frames, increments, backends, cfg, tiles)
    assert not ran.called


def test_lockstep_pipelines_equal_public_reference():
    """All four backends stepped together, sharing each correction frame's observation."""
    cfg = small_config(correction_hz=4.0, outlier_prob=0.2, k_candidates=16)
    frames = gen_trajectory(cfg, seed=8)
    increments = simulate_vo(frames, cfg, seed=8)
    tiles = tiles_for(frames)
    backends = _make_backends(cfg, 8)
    runs = _run_pipelines(frames, increments, [backends[m] for m in METHODS], cfg, tiles)
    for method, got in zip(METHODS, runs):
        assert_same_run(got, reference_pipeline(frames, increments, backends[method], cfg, tiles))


def test_reference_takes_the_block_branch_of_correct():
    """Every P the public calls make on the dense-outlier flight stays
    block-diagonal, so each correction takes correct's plain-float block
    branch: the loop tests above tie the loop to that branch, not to LAPACK."""
    cfg = small_config(correction_hz=20.0, outlier_prob=0.2, k_candidates=16)
    frames = gen_trajectory(cfg, seed=8)
    increments = simulate_vo(frames, cfg, seed=8)
    tiles = tiles_for(frames)
    backend = _make_backends(cfg, 8)["vo_hybrid"]
    blocks = mock.Mock(side_effect=estimator._correct_blocks)
    with mock.patch.object(estimator, "_correct_blocks", blocks):
        _, P = reference_pipeline(frames, increments, backend, cfg, tiles)
    assert blocks.call_count == (len(frames) - 1) // cfg.correction_stride
    off_block = np.ones((6, 6), dtype=bool)
    off_block[:3, :3] = False
    off_block[range(6), range(6)] = False
    assert P[off_block].tolist() == [0.0] * 24


class AskedTiles:
    """Pass-through backend that notes every (frame, tile) it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def _match_rows(self, obs, tiles):
        self.asked += [(obs.frame, t.tile_id) for t in tiles]
        return self.inner._match_rows(obs, tiles)


def test_lockstep_seeds_each_stream_once(monkeypatch):
    cfg = small_config(correction_hz=4.0, k_candidates=16)
    frames = gen_trajectory(cfg, seed=3)
    increments = simulate_vo(frames, cfg, seed=3)
    tiles = tiles_for(frames)
    inner = [b for b in _make_backends(cfg, 3).values() if b is not None]
    reads = []
    for matcher in inner:
        at = matcher._noise_at
        got = []

        def counting_at(frame, slot, at=at, got=got):
            got.append((frame, slot))
            return at(frame, slot)

        matcher._noise_at = counting_at
        reads.append(got)
    backends = [AskedTiles(b) for b in inner]

    seeded = []
    seed_sequence = np.random.SeedSequence

    def counting(entropy):
        seeded.append(tuple(entropy))
        return seed_sequence(entropy)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    _run_pipelines(frames, increments, backends, cfg, tiles)

    assert seeded == []  # matchers read counter blocks; they seed no stream
    corrections = set(range(cfg.correction_stride, len(frames), cfg.correction_stride))
    for backend, got in zip(backends, reads):
        assert len(got) == len(set(got))  # no block read twice
        pairs = [(frame, slot - 1) for frame, slot in got if slot > 0]
        # one read per (frame, tile) the backend was asked for
        assert sorted(pairs) == sorted(backend.asked)
        assert {frame for frame, _ in got} == corrections
    frame_reads = [(frame, slot) for got in reads[1:] for frame, slot in got if slot == 0]
    assert sorted(frame_reads) == sorted(2 * [(f, 0) for f in corrections])
    assert len(backends[0].asked) == len(corrections) * cfg.k_candidates


def test_pipeline_rejects_mismatched_increments():
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=0)
    increments = simulate_vo(frames, cfg, seed=0)
    with pytest.raises(ValueError, match="increments"):
        _run_pipeline(frames, increments[:-1], None, cfg, None)


# --- text round trips --------------------------------------------------------


def test_trajectory_round_trip(tmp_path):
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=9)
    path = tmp_path / "flight.txt"
    save_trajectory(str(path), frames)
    loaded = load_trajectory(str(path))
    assert len(loaded) == len(frames)
    for orig, back in zip(frames, loaded):
        assert back.t == orig.t
        assert back.truth == orig.truth
        np.testing.assert_array_equal(back.vo_increment.dp, orig.vo_increment.dp)
        np.testing.assert_allclose(back.vo_increment.dR, orig.vo_increment.dR, atol=1e-12)
    # saving the same frames twice is byte-identical
    twin = tmp_path / "flight2.txt"
    save_trajectory(str(twin), frames)
    assert path.read_bytes() == twin.read_bytes()


def test_save_estimates_format(tmp_path):
    path = tmp_path / "est.txt"
    save_estimates(str(path), [0.0, 0.05], [Pose6D(0, 0, 150, 0, 0)] * 2)
    lines = path.read_text().splitlines()
    assert lines[0] == "#crossview-traj-v1"
    assert len(lines) == 3
    assert len(lines[1].split()) == 13


def test_load_trajectory_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("#wrong-header\n")
    with pytest.raises(ValueError, match=":1:"):
        load_trajectory(str(bad))
    bad.write_text("#crossview-traj-v1\n1.0 2.0\n")
    with pytest.raises(ValueError, match="13 columns"):
        load_trajectory(str(bad))
    bad.write_text("#crossview-traj-v1\n")
    with pytest.raises(ValueError, match="no frames"):
        load_trajectory(str(bad))


def test_write_summary_csv(tmp_path):
    path = tmp_path / "summary.csv"
    s = RmseSummary(1.5, 0.06, 2.0, 0.5)
    write_summary(str(path), {"vo_only": s, "vo_hybrid": s})
    lines = path.read_text().splitlines()
    assert lines[0] == "method,pos_rmse_m,pos_pct,psi_rmse_deg,theta_rmse_deg"
    assert lines[1].startswith("vo_only,1.5,")
    assert lines[2].startswith("vo_hybrid,")
    assert len(lines) == 3
