"""Flight simulation, drift model, metrics, and the end-to-end experiment."""

import math

import numpy as np
import pytest

from crossview.config import SimConfig
from crossview.estimator import FilterState, ProcessNoise, VoIncrement, correct, predict
from crossview.fusion import fuse
from crossview.geometry import Pose6D, euler_to_rotmat
from crossview.matchers import (
    RecordingMatcher,
    ReplayMatcher,
    SyntheticMatcher,
    UavObservation,
)
from crossview.sim import (
    _make_backends,
    _run_pipeline,
    METHODS,
    RmseSummary,
    TrajectoryFrame,
    VoDriftModel,
    drift_from_config,
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


# --- VO drift ---------------------------------------------------------------


def test_drift_model_validation():
    with pytest.raises(ValueError):
        VoDriftModel(scale_error=-1.0)
    with pytest.raises(ValueError):
        VoDriftModel(pos_noise_m=-0.1)
    with pytest.raises(ValueError):
        VoDriftModel(rot_noise_deg=float("nan"))


def test_zero_drift_passthrough():
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=3)
    incs = simulate_vo(frames, VoDriftModel(), seed=3)
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
    incs = simulate_vo(frames, VoDriftModel(scale_error=0.01), seed=0)
    poses = dead_reckon(frames[0].truth, incs)
    err = np.linalg.norm(poses[-1].position - frames[-1].truth.position)
    assert err == pytest.approx(1.0, rel=1e-9)


def test_vo_deterministic_per_seed():
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=2)
    drift = drift_from_config(cfg)
    a = simulate_vo(frames, drift, seed=2)
    b = simulate_vo(frames, drift, seed=2)
    assert all(np.array_equal(x.dp, y.dp) and np.array_equal(x.dR, y.dR) for x, y in zip(a, b))
    c = simulate_vo(frames, drift, seed=5)
    assert not np.array_equal(a[100].dp, c[100].dp)


def test_default_drift_band_one_seed():
    """The dead-reckoned error lands in the advertised few-percent band."""
    cfg = SimConfig()
    frames = gen_trajectory(cfg, seed=0)
    incs = simulate_vo(frames, drift_from_config(cfg), seed=0)
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
    """With drift and matcher noise zeroed, every method tracks truth."""
    cfg = small_config(
        vo_scale_error=0.0,
        vo_pos_noise_m=0.0,
        vo_rot_noise_deg=0.0,
        vo_bias_walk_m=0.0,
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
    """The filter loop built from the public, fully checked calls."""
    noise = ProcessNoise(np.full(6, cfg.process_noise_var))
    state = FilterState.initial(frames[0].truth, cfg.init_cov_var)
    poses = [state.pose]
    for i in range(1, len(frames)):
        state = predict(state, increments[i], noise)
        if backend is not None and i % cfg.correction_stride == 0:
            obs = UavObservation(i, frames[i].truth)
            candidates = k_nearest(tile_set, (state.pose.x, state.pose.y), cfg.k_candidates)
            state = correct(state, fuse([backend.match_pair(obs, t) for t in candidates]))
        poses.append(state.pose)
    return poses, state.P


def assert_same_run(got, want):
    (poses, P), (ref_poses, ref_P) = got, want
    assert len(poses) == len(ref_poses)
    for a, b in zip(poses, ref_poses):
        assert (a.x, a.y, a.z, a.psi, a.theta, a.phi) == (b.x, b.y, b.z, b.psi, b.theta, b.phi)
    assert np.array_equal(P, ref_P)


def test_vo_only_pipeline_equals_chained_predict():
    cfg = SimConfig().validate()
    frames = gen_trajectory(cfg, seed=3)
    increments = simulate_vo(frames, drift_from_config(cfg), seed=3)
    got = _run_pipeline(frames, increments, None, cfg, None)
    assert_same_run(got, reference_pipeline(frames, increments, None, cfg, None))


@pytest.mark.parametrize("method", ["vo_scene", "vo_regression", "vo_hybrid"])
def test_corrected_pipeline_equals_public_reference(method):
    cfg = small_config(correction_hz=4.0, outlier_prob=0.2)
    frames = gen_trajectory(cfg, seed=8)
    increments = simulate_vo(frames, drift_from_config(cfg), seed=8)
    tiles = tiles_for(frames)
    backend = _make_backends(cfg, 8)[method]
    got = _run_pipeline(frames, increments, backend, cfg, tiles)
    assert_same_run(got, reference_pipeline(frames, increments, backend, cfg, tiles))


def test_pipeline_rejects_mismatched_increments():
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=0)
    increments = simulate_vo(frames, drift_from_config(cfg), seed=0)
    with pytest.raises(ValueError, match="increments"):
        _run_pipeline(frames, increments[:-1], None, cfg, None)


def test_recording_and_replay_drive_the_pipeline(tmp_path):
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=2)
    increments = simulate_vo(frames, drift_from_config(cfg), seed=2)
    tiles = tiles_for(frames)
    backend = _make_backends(cfg, 2)["vo_hybrid"]
    assert isinstance(backend, SyntheticMatcher)
    plain = _run_pipeline(frames, increments, backend, cfg, tiles)

    recorder = RecordingMatcher(backend)
    assert_same_run(_run_pipeline(frames, increments, recorder, cfg, tiles), plain)
    corrections = (len(frames) - 1) // cfg.correction_stride
    assert len(recorder) == corrections * cfg.k_candidates

    path = tmp_path / "matches.txt"
    recorder.save(str(path))
    replay = ReplayMatcher.load(str(path))
    assert_same_run(_run_pipeline(frames, increments, replay, cfg, tiles), plain)


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
