"""Flight simulation, VO drift, metrics, and the end-to-end experiment."""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview import estimator, sim
from crossview.config import ConfigError, SimConfig
from crossview.estimator import FilterState, ProcessNoise, VoIncrement, correct, predict
from crossview.fusion import FusedMeasurement, fuse
from crossview.geometry import Pose6D, euler_to_rotmat, rotmat_to_euler, wrap_angle
from crossview.losses import gradient_self_test
from crossview.matchers import SceneMatcher, SyntheticMatcher, UavObservation, match_variances
from crossview.sim import (
    _make_backends,
    _run_pipelines,
    METHODS,
    Flight,
    RmseSummary,
    gen_trajectory,
    load_trajectory,
    rmse,
    run_experiment,
    save_estimates,
    save_trajectory,
    simulate_vo,
    suggested_tile_bounds,
    write_summary,
)
from crossview.tiles import TileSet, generate_grid, k_nearest
from test_geometry import plain_matmul


NO_DRIFT = dict(vo_scale_error=0.0, vo_pos_noise_m=0.0, vo_rot_noise_deg=0.0, vo_bias_walk_m=0.0)


def small_config(**overrides):
    """A short flight that keeps tests fast: 50 s, 625 m."""
    base = dict(length_m=625.0, duration_s=50.0, turn_radius_m=40.0, straight_init_m=50.0)
    base.update(overrides)
    return SimConfig(**base).validate()


def truth_poses(flight):
    return [Pose6D(*row) for row in flight.truth.tolist()]


def dead_reckon(flight):
    """The flight's increments chained from its first true pose."""
    poses = [Pose6D(*flight.truth[0].tolist())]
    for dp, dR in zip(flight.dp[1:], flight.dR[1:]):
        R = euler_to_rotmat(*poses[-1].angles)
        p = poses[-1].position + dp
        R_new = plain_matmul(dR, R)
        psi, theta, phi = rotmat_to_euler(R_new)
        poses.append(Pose6D(p[0], p[1], p[2], psi, theta, phi))
    return poses


@pytest.fixture(scope="module")
def default_frames():
    return gen_trajectory(SimConfig(), seed=0)


# --- trajectory ------------------------------------------------------------


def test_frame_count_and_timestamps(default_frames):
    assert len(default_frames) == 4000
    ts = default_frames.t
    np.testing.assert_allclose(np.diff(ts), 0.05, atol=1e-12)
    assert ts[0] == 0.0


def test_path_length_close_to_config(default_frames):
    # 4000 chords under-sample the arcs slightly; the altitude profile adds
    # a little 3D length back. Stay within 2% either way.
    length = sim._path_length(default_frames.truth)
    assert abs(length - 2500.0) / 2500.0 < 0.02


def test_altitude_and_tilt_envelopes(default_frames):
    zs, thetas, phis = default_frames.truth[:, [2, 4, 5]].T
    assert zs.min() >= 100.0 and zs.max() <= 200.0
    assert thetas.min() >= 0.0 and thetas.max() <= 45.0
    assert np.all(phis == 0.0)


def test_initial_leg_is_pure_translation(default_frames):
    # orientation must stay frozen for the first 100 m of flight
    cfg = SimConfig()
    n_hold = int(cfg.straight_init_m / cfg.speed / cfg.dt)
    truth = default_frames.truth
    psi0, theta0 = truth[0, 3], truth[0, 4]
    for psi, theta in truth[: n_hold + 1, 3:5].tolist():
        assert psi == pytest.approx(psi0, abs=1e-9)
        assert theta == pytest.approx(theta0, abs=1e-9)
    # and it really does move
    moved = np.linalg.norm(truth[n_hold, :2] - truth[0, :2])
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
    psi0 = frames.truth[0, 3]
    turn_end = cfg.lead_m + 0.5 * math.pi * cfg.turn_radius_m
    first_orbit = next(i for i in range(len(frames)) if cfg.speed * i * cfg.dt > turn_end)
    sense = math.copysign(1.0, wrap_angle(frames.truth[first_orbit, 3] - psi0))

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
    for i, p in enumerate(frames.truth[:, :2]):
        s = cfg.speed * (i * cfg.dt)
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
    pts = default_frames.truth[:, :2]
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    np.testing.assert_allclose(steps, 12.5 * 0.05, rtol=5e-3)


def test_trajectory_deterministic_and_seed_sensitive():
    cfg = small_config()
    a = gen_trajectory(cfg, seed=7)
    b = gen_trajectory(cfg, seed=7)
    assert all(np.array_equal(getattr(a, col), getattr(b, col)) for col in ("t", "truth", "dp"))
    c = gen_trajectory(cfg, seed=8)
    assert not np.array_equal(a.truth[500], c.truth[500])


def test_increments_reconstruct_truth(default_frames):
    finals = dead_reckon(default_frames)[-1]
    assert np.linalg.norm(finals.position - default_frames.truth[-1, :3]) < 1e-6
    assert abs(finals.psi - default_frames.truth[-1, 3]) < 1e-6


# --- trusted flight builders against per-frame checked references -----------


def reference_flight_path(cfg, heading0, turn):
    """The flight as a function of one arc length s, returning (x, y, heading)
    in scalar math: the lead-out line, the connecting turn, then the orbit."""
    lead = cfg.lead_m
    quarter = 0.5 * math.pi * cfg.turn_radius_m
    orbit_start = lead + quarter

    def arc(x, y, heading, radius):
        h = math.radians(heading)
        k = turn * radius
        cx, cy = x + k * math.cos(h), y - k * math.sin(h)

        def at(s):
            h_s = heading + turn * math.degrees(s / radius)
            h = math.radians(h_s)
            return cx - k * math.cos(h), cy + k * math.sin(h), h_s

        return at

    h0 = math.radians(heading0)
    bend = arc(0.0 + lead * math.sin(h0), 0.0 + lead * math.cos(h0), heading0, cfg.turn_radius_m)
    orbit = arc(*bend(quarter), cfg.orbit_radius_m)

    def at(s):
        if s < lead:
            return 0.0 + s * math.sin(h0), 0.0 + s * math.cos(h0), heading0
        if s < orbit_start:
            return bend(s - lead)
        return orbit(s - orbit_start)

    return at


def reference_gen_trajectory(cfg, seed):
    """gen_trajectory frame by frame in scalar math, through the checked
    constructors: a list of (t, Pose6D, VoIncrement) frames."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, sim._TRAJ_STREAM]))
    heading0 = wrap_angle(float(rng.uniform(-180.0, 180.0)))
    first_turn = 1 if rng.random() < 0.5 else -1
    alt_phase = float(rng.uniform(0.0, 2.0 * math.pi))
    path = reference_flight_path(cfg, heading0, first_turn)
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
            inc = VoIncrement(pose.position - frames[-1][1].position, plain_matmul(R, R_prev.T))
        frames.append((t, pose, inc))
        R_prev = R
    return frames


def reference_simulate_vo(frames, cfg, seed):
    """simulate_vo step by step over reference frames, three draws of 3
    normals a step, checked increments."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, sim._VO_STREAM]))
    (t0, pose0, _), *rest = frames
    out = [(t0, pose0, VoIncrement.identity())]
    bias = np.zeros(3)
    for t, pose, true_inc in rest:
        bias = bias + rng.standard_normal(3) * cfg.vo_bias_walk_m
        pos_noise = rng.standard_normal(3) * cfg.vo_pos_noise_m
        rot_noise = rng.standard_normal(3) * cfg.vo_rot_noise_deg
        dp = (1.0 + cfg.vo_scale_error) * true_inc.dp + pos_noise + bias
        dR = plain_matmul(euler_to_rotmat(rot_noise[0], rot_noise[1], rot_noise[2]), true_inc.dR)
        out.append((t, pose, VoIncrement(dp, dR)))
    return out


def assert_same_increments(flight, want):
    """The flight's dp and dR columns hold the increments' values, byte for byte."""
    assert len(flight) == len(want)
    for dp, dR, inc in zip(flight.dp, flight.dR, want):
        assert dp.tobytes() == inc.dp.tobytes() and dR.tobytes() == inc.dR.tobytes()


def assert_same_flight(got, want):
    """The Flight's columns hold the reference frames' values, byte for byte."""
    assert len(got) == len(want)
    for t, truth, (ref_t, pose, _) in zip(got.t, got.truth, want):
        assert np.array([t, *truth]).tobytes() == np.array([ref_t, *pose]).tobytes()
    assert_same_increments(got, [inc for _, _, inc in want])


@st.composite
def flight_configs(draw):
    tilt_amp = draw(st.floats(0.0, 22.5))
    # Paths from 1 m to 1000 km, so the trig arguments reach |x| of 1e6, with
    # turn radii and lead-ins up to the largest the config accepts.
    length = draw(st.floats(1.0, 1e6))
    turn = draw(st.floats(1e-3 * length, 0.64 * length / (0.5 * math.pi)))
    # That bound can round past the largest radius SimConfig.orbit_m accepts.
    while length - 0.36 * length - 0.5 * math.pi * turn < 0.0:
        turn = math.nextafter(turn, 0.0)
    return small_config(
        length_m=length,
        turn_radius_m=turn,
        straight_init_m=draw(st.floats(0.0, 0.36 * length)),
        alt_period_s=draw(st.floats(0.1, 1e4)),
        tilt_period_s=draw(st.floats(0.1, 1e4)),
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
    want = reference_gen_trajectory(cfg, seed)
    with mock.patch.object(sim, "_VO_BLOCK", block):
        frames = gen_trajectory(cfg, seed)
        got = simulate_vo(frames, cfg, seed)
    assert_same_flight(frames, want)
    assert_same_flight(got, reference_simulate_vo(want, cfg, seed))


def _trig_arguments():
    """The builders' ranges: radians of +/-720 deg, |x| up to 1e6, and the
    neighbourhoods of multiples of pi/2, where sin and cos are near 0 or 1."""
    rng = np.random.default_rng(0)
    quarters = np.arange(-4000, 4001)[:, None] * (0.5 * math.pi)
    return np.concatenate([
        np.radians(rng.uniform(-720.0, 720.0, 100_000)),
        rng.uniform(-1e6, 1e6, 100_000),
        (quarters + np.linspace(-1e-6, 1e-6, 9)).ravel(),
        np.nextafter(quarters.ravel(), np.inf),
    ])


@pytest.mark.parametrize("name", ["sin", "cos"])
def test_numpy_trig_is_bitwise_math_trig(name):
    """The columnar builders rest on float64 np.sin and np.cos returning
    libm's bits, those of math.sin and math.cos."""
    x = _trig_arguments()
    got = getattr(np, name)(x)
    want = np.array(list(map(getattr(math, name), x.tolist())))
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert not differ.size, (
        f"numpy {np.__version__}: float64 np.{name} differs from math.{name} at"
        f" {differ.size} of {x.size} arguments, first x = {x[differ[0]]!r}; the"
        " pinned digests assume numpy's float64 trig is libm's"
    )


def test_outputs_call_no_numpy_function_whose_bits_vary_by_cpu(tmp_path):
    """Float64 np.exp, log, tan, arctan2, arcsin, arccos and hypot may take
    SIMD kernels whose last bit depends on numpy's dispatch level. The run,
    the trajectory writers and reader and the gradient self test call none of
    them, so a new call fails here by name, not as a digest that moves on
    another CPU."""
    tiles = generate_grid(-1500.0, 1500.0, -1500.0, 1500.0, 50.0)
    with contextlib.ExitStack() as stack:
        for name in ("exp", "log", "tan", "arctan2", "arcsin", "arccos", "hypot"):
            refuse = mock.Mock(side_effect=AssertionError(f"np.{name} called"))
            stack.enter_context(mock.patch.object(np, name, refuse))
        result = run_experiment(SimConfig(), tiles, seed=0)
        path = str(tmp_path / "flight.txt")
        save_trajectory(path, result.frames)
        assert len(load_trajectory(path)) == len(result.frames)
        save_estimates(str(tmp_path / "est.txt"), result.frames.t, result.estimates["vo_hybrid"])
        assert all(entry["passed"] for entry in gradient_self_test())


def test_default_flight_equals_checked_references(default_frames):
    cfg = SimConfig()
    want = reference_gen_trajectory(cfg, 0)
    assert_same_flight(default_frames, want)
    drifted = simulate_vo(default_frames, cfg, 0)
    assert_same_flight(drifted, reference_simulate_vo(want, cfg, 0))


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
    column = getattr(frames, field).copy()
    column[frame] = value
    object.__setattr__(frames, field, column)  # past the Flight's own check
    with pytest.raises(ValueError, match=message):
        simulate_vo(frames, cfg, seed=1)


def head(flight, n):
    """The flight's first n frames, built from its column slices."""
    return Flight(flight.t[:n], flight.truth[:n], flight.dp[:n], flight.dR[:n])


def test_simulate_vo_rejects_an_empty_flight():
    with pytest.raises(ValueError, match="at least one frame"):
        simulate_vo(head(gen_trajectory(small_config(), seed=0), 0), small_config(), seed=0)


def test_simulate_vo_of_one_frame_is_the_identity():
    frames = head(gen_trajectory(small_config(), seed=0), 1)
    drifted = simulate_vo(frames, small_config(), seed=0)
    assert_same_increments(drifted, [VoIncrement.identity()])


# --- the Flight's columns ----------------------------------------------------


def test_flight_frames_equal_the_reference_builders():
    cfg = small_config()
    flight = simulate_vo(gen_trajectory(cfg, seed=5), cfg, seed=5)
    want = reference_simulate_vo(reference_gen_trajectory(cfg, 5), cfg, 5)
    assert len(flight) == len(want) == 1000
    assert_same_flight(flight, want)


def test_flight_columns_are_read_only():
    cfg = small_config()
    dp = np.zeros((3, 3))
    flight = Flight([0.0, 0.05, 0.1], [Pose6D(0, 0, 150, 0, 0)] * 3, dp, [np.eye(3)] * 3)
    for column in (flight.t, flight.truth, flight.dp, flight.dR):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0
    assert dp.flags.writeable  # the caller's own array is left as it was
    with pytest.raises(AttributeError):
        flight.t = np.zeros(3)
    assert not gen_trajectory(cfg, seed=0).dR.flags.writeable


HOLDERS = {
    "Flight": (lambda: gen_trajectory(small_config(duration_s=2.0), seed=0), ("t", "truth", "dp", "dR")),
    "VoIncrement": (lambda: VoIncrement(np.zeros(3), np.eye(3)), ("dp", "dR")),
    "ProcessNoise": (lambda: ProcessNoise(np.ones(6)), ("variances",)),
    "FilterState": (lambda: FilterState.initial(Pose6D(0, 0, 150, 0, 0), 1.0), ("P",)),
    "FusedMeasurement": (lambda: FusedMeasurement(np.zeros(3), 0.0, 0.0, np.eye(5)), ("p_bar", "M")),
}


@pytest.mark.parametrize("holder", HOLDERS)
def test_a_holders_arrays_cannot_be_made_writeable_again(holder):
    """Setting the flag back once let a nan into a checked holder."""
    build, names = HOLDERS[holder]
    held = build()
    for name in names:
        column = getattr(held, name)
        before = column.copy()
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            column.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            column.flat[0] = math.nan
        np.testing.assert_array_equal(column, before)
        assert column.dtype == np.float64 and column.flags.aligned and column.flags.c_contiguous


def test_a_flight_keeps_its_columns_when_the_callers_arrays_change():
    """A flight once held views of the caller's arrays: a reflection written
    into the caller's dR after the flight's one check was flown and saved."""
    cfg = small_config()
    built = simulate_vo(gen_trajectory(cfg, seed=0), cfg, seed=0)
    columns = {name: np.array(getattr(built, name)) for name in ("t", "truth", "dp", "dR")}
    flight = Flight(**columns)
    want = _run_pipelines(flight, [None], cfg, None)[0][0]
    columns["dR"][5] = np.diag([1.0, 1.0, -1.0])
    columns["truth"][5, 0] = 1e9
    for name in ("t", "truth", "dp", "dR"):
        assert getattr(flight, name).tobytes() == getattr(built, name).tobytes(), name
    assert _run_pipelines(flight, [None], cfg, None)[0][0] == want


def good_columns(n=4):
    return dict(
        t=np.arange(n) * 0.05,
        truth=np.tile([0.0, 0.0, 150.0, 10.0, 20.0, 0.0], (n, 1)),
        dp=np.zeros((n, 3)),
        dR=np.tile(np.eye(3), (n, 1, 1)),
    )


@pytest.mark.parametrize(
    "column, edit, message",
    [
        ("truth", lambda a: a[:-1], "3 poses for 4 frames"),
        ("dp", lambda a: a[:-1], "3 increments for 4 frames"),
        ("dR", lambda a: np.concatenate([a, a]), "8 increments for 4 frames"),
        ("t", lambda a: a[:, None], r"t must have shape \(n,\), got \(4, 1\)"),
        ("truth", lambda a: a[:, :5], r"truth must have shape \(n, 6\), got \(4, 5\)"),
        ("dR", lambda a: a[:, :2], r"dR must have shape \(n, 3, 3\), got \(4, 2, 3\)"),
        ("t", lambda a: np.where(a > 0.1, np.inf, a), "t must be finite, got inf"),
        ("truth", lambda a: np.where(a == 20.0, np.nan, a), "Pose6D.theta must be finite, got nan"),
        ("dp", lambda a: np.where(a == 0.0, -np.inf, a), "dp must be a finite 3-vector"),
        ("dR", lambda a: 2.0 * a, "dR is not a rotation"),
        ("dR", lambda a: a * [1.0, 1.0, -1.0], "dR is not a rotation"),  # reflections
        ("dR", lambda a: np.where(a == 1.0, np.nan, a), "dR is not a rotation"),
    ],
    ids=["short_truth", "short_dp", "long_dR", "t_2d", "truth_5_wide", "dR_2_rows",
         "inf_t", "nan_theta", "inf_dp", "scaled_dR", "reflected_dR", "nan_dR"],
)
def test_flight_refuses_bad_columns(column, edit, message):
    columns = good_columns()
    Flight(**columns)
    columns[column] = edit(columns[column])
    with pytest.raises(ValueError, match=message):
        Flight(**columns)


def test_empty_flight():
    flight = Flight([], np.zeros((0, 6)), np.zeros((0, 3)), np.zeros((0, 3, 3)))
    assert len(flight) == 0 and flight.t.shape == (0,) and flight.dR.shape == (0, 3, 3)


def test_a_flight_is_read_by_its_columns_alone():
    """A flight is no container: it has a length but no frames to index,
    iterate or search."""
    flight = Flight(**good_columns())
    assert len(flight) == 4
    with pytest.raises(TypeError):
        flight[0]
    with pytest.raises(TypeError):
        iter(flight)
    with pytest.raises(TypeError):
        flight.t[0] in flight


# --- VO drift ---------------------------------------------------------------


def test_zero_drift_passthrough():
    cfg = small_config(**NO_DRIFT)
    frames = gen_trajectory(cfg, seed=3)
    incs = simulate_vo(frames, cfg, seed=3)
    err = np.linalg.norm(dead_reckon(incs)[-1].position - frames.truth[-1, :3])
    assert err < 1e-9


def test_pure_scale_error_on_straight_line():
    # hand-built straight-line frames: 1% scale error alone gives a final
    # position error of exactly 1% of distance flown
    frames = Flight(
        t=[i * 0.05 for i in range(101)],
        truth=[Pose6D(0, float(i), 150, 0, 0) for i in range(101)],
        dp=[[0.0, 0.0, 0.0]] + [[0.0, 1.0, 0.0]] * 100,
        dR=[np.eye(3)] * 101,
    )
    cfg = SimConfig(vo_scale_error=0.01, vo_pos_noise_m=0.0, vo_rot_noise_deg=0.0, vo_bias_walk_m=0.0)
    incs = simulate_vo(frames, cfg, seed=0)
    err = np.linalg.norm(dead_reckon(incs)[-1].position - frames.truth[-1, :3])
    assert err == pytest.approx(1.0, rel=1e-9)


def test_vo_deterministic_per_seed():
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=2)
    a = simulate_vo(frames, cfg, seed=2)
    b = simulate_vo(frames, cfg, seed=2)
    assert np.array_equal(a.dp, b.dp) and np.array_equal(a.dR, b.dR)
    c = simulate_vo(frames, cfg, seed=5)
    assert not np.array_equal(a.dp[100], c.dp[100])


def test_simulate_vo_validates_its_config():
    frames = gen_trajectory(small_config(), seed=0)
    with pytest.raises(ConfigError, match="vo_pos_noise_m"):
        simulate_vo(frames, SimConfig(vo_pos_noise_m=-0.1), seed=0)


def test_default_drift_band_one_seed():
    """The dead-reckoned error lands in the advertised few-percent band."""
    cfg = SimConfig()
    frames = gen_trajectory(cfg, seed=0)
    incs = simulate_vo(frames, cfg, seed=0)
    summary = rmse(dead_reckon(incs), truth_poses(frames))
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
    # The truth moves 1 m: a path of zero length leaves pos_pct undefined.
    truth = [Pose6D(x, 0, 150, 179.0, 0.0) for x in (0.0, 1.0)]
    est = [Pose6D(x, 0, 150, -179.0, 0.0) for x in (0.0, 1.0)]
    s = rmse(est, truth)
    assert s.psi_rmse_deg == pytest.approx(2.0, abs=1e-12)


def test_rmse_length_mismatch():
    truth = [Pose6D(0, 0, 150, 0, 0)] * 3
    with pytest.raises(ValueError, match="mismatch"):
        rmse(truth[:2], truth)


def test_rmse_rejects_empty_trajectories():
    with pytest.raises(ValueError, match="trajectory is empty"):
        rmse([], [])


def test_rmse_refuses_a_truth_path_of_zero_length():
    """A truth that never moves once scored pos_pct = inf, where eval refuses it."""
    truth = [Pose6D(3.0, 4.0, 150, 10, 5)] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero = "^the truth path has zero length, so pos_pct is undefined$"
        with pytest.raises(ValueError, match=zero):
            rmse(truth, truth)


def test_rmse_refuses_a_truth_path_whose_length_overflows():
    """A 2e200 m step squares past the float range: its length once read as
    inf, pos_pct as 0.0, with a RuntimeWarning."""
    truth = [Pose6D(1e200, 0, 150, 0, 0), Pose6D(-1e200, 0, 150, 0, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the truth path length overflows"):
            rmse(truth, truth)


# --- end-to-end --------------------------------------------------------------


def tiles_for(frames):
    bounds = suggested_tile_bounds(frames)
    return generate_grid(*bounds, spacing=50.0)


def test_suggested_bounds_cover_flight(default_frames):
    x_min, x_max, y_min, y_max = suggested_tile_bounds(default_frames)
    xs, ys = default_frames.truth[:, 0], default_frames.truth[:, 1]
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
    for i in range(5 * stride, len(frames), stride):
        err = np.linalg.norm(hybrid[i].position - frames.truth[i, :3])
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


def reference_pipeline(flight, backend, cfg, tile_set):
    """The filter loop built from the public, fully checked calls.

    A lone candidate has no scatter, so fusion falls back to the backend's
    own lone-candidate variances on this grid.
    """
    noise = ProcessNoise(np.full(6, cfg.process_noise_var))
    fallback = None if backend is None else backend._lone_variances(tile_set.spacing)
    truth = truth_poses(flight)
    state = FilterState.initial(truth[0], cfg.init_cov_var)
    poses = [state.pose]
    for i in range(1, len(flight)):
        state = predict(state, VoIncrement(flight.dp[i], flight.dR[i]), noise)
        if backend is not None and i % cfg.correction_stride == 0:
            obs = UavObservation(i, truth[i])
            candidates = k_nearest(tile_set, (state.pose.x, state.pose.y), cfg.k_candidates)
            results = [backend.match_pair(obs, t) for t in candidates]
            state = correct(state, fuse(results, fallback))
        poses.append(state.pose)
    return poses, state.P


def _run_pipeline(flight, backend, cfg, tile_set):
    """The lockstep loop with one backend: its poses and final P."""
    return _run_pipelines(flight, [backend], cfg, tile_set)[0]


def assert_same_run(got, want):
    (poses, P), (ref_poses, ref_P) = got, want
    assert len(poses) == len(ref_poses)
    for a, b in zip(poses, ref_poses):
        assert (a.x, a.y, a.z, a.psi, a.theta, a.phi) == (b.x, b.y, b.z, b.psi, b.theta, b.phi)
    assert np.array_equal(P, ref_P)


def test_vo_only_pipeline_equals_chained_predict():
    cfg = SimConfig().validate()
    flight = simulate_vo(gen_trajectory(cfg, seed=3), cfg, seed=3)
    got = _run_pipeline(flight, None, cfg, None)
    assert_same_run(got, reference_pipeline(flight, None, cfg, None))


@pytest.mark.parametrize("method", ["vo_scene", "vo_regression", "vo_hybrid"])
def test_corrected_pipeline_equals_public_reference(method):
    cfg = small_config(correction_hz=4.0, outlier_prob=0.2)
    flight = simulate_vo(gen_trajectory(cfg, seed=8), cfg, seed=8)
    tiles = tiles_for(flight)
    backend = _make_backends(cfg, 8)[method]
    got = _run_pipeline(flight, backend, cfg, tiles)
    assert_same_run(got, reference_pipeline(flight, backend, cfg, tiles))


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
    flight = simulate_vo(gen_trajectory(cfg, seed=4), cfg, seed=4)
    tiles = tiles_for(flight)
    backend = _make_backends(cfg, 4)[method]
    got = _run_pipeline(flight, backend, cfg, tiles)
    assert_same_run(got, reference_pipeline(flight, backend, cfg, tiles))


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
    flight = simulate_vo(gen_trajectory(cfg, seed=0), cfg, seed=0)
    backends = [_make_backends(cfg, 0)["vo_scene"]]
    tiles = generate_grid(0.0, 0.0, 0.0, 0.0, 1e200)
    ran = mock.Mock(side_effect=sim._compose)
    with mock.patch.object(sim, "_compose", ran), pytest.raises(ValueError, match="finite"):
        _run_pipelines(flight, backends, cfg, tiles)
    assert not ran.called


def test_loop_refuses_a_track_that_overflows():
    """The predict kernel builds its poses unchecked; the loop names the
    first frame whose position left the floats."""
    dp = np.zeros((5, 3))
    dp[1:, 0] = 1e308  # x reads 1e308 at frame 1 and inf from frame 2
    flight = Flight(np.arange(5) * 0.05, [Pose6D(0.0, 0.0, 150.0, 0.0, 10.0)] * 5, dp, [np.eye(3)] * 5)
    with pytest.raises(ValueError, match=r"frame 2: Pose6D\.x must be finite, got inf"):
        _run_pipelines(flight, [None], small_config(), None)


def test_lockstep_pipelines_equal_public_reference():
    """All four backends stepped together, sharing each correction frame's observation."""
    cfg = small_config(correction_hz=4.0, outlier_prob=0.2, k_candidates=16)
    flight = simulate_vo(gen_trajectory(cfg, seed=8), cfg, seed=8)
    tiles = tiles_for(flight)
    backends = _make_backends(cfg, 8)
    runs = _run_pipelines(flight, [backends[m] for m in METHODS], cfg, tiles)
    for method, got in zip(METHODS, runs):
        assert_same_run(got, reference_pipeline(flight, backends[method], cfg, tiles))


def test_reference_takes_the_block_branch_of_correct():
    """Every P the public calls make on the dense-outlier flight stays
    block-diagonal, so each correction takes correct's plain-float block
    branch: the loop tests above tie the loop to that branch, not to LAPACK."""
    cfg = small_config(correction_hz=20.0, outlier_prob=0.2, k_candidates=16)
    flight = simulate_vo(gen_trajectory(cfg, seed=8), cfg, seed=8)
    tiles = tiles_for(flight)
    backend = _make_backends(cfg, 8)["vo_hybrid"]
    blocks = mock.Mock(side_effect=estimator._correct_blocks)
    with mock.patch.object(estimator, "_correct_blocks", blocks):
        _, P = reference_pipeline(flight, backend, cfg, tiles)
    assert blocks.call_count == (len(flight) - 1) // cfg.correction_stride
    off_block = np.ones((6, 6), dtype=bool)
    off_block[:3, :3] = False
    off_block[range(6), range(6)] = False
    assert P[off_block].tolist() == [0.0] * 24


class AskedTiles:
    """Pass-through backend that notes every (frame, tile) it is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self._key = inner._key
        self.asked = []

    def _match_rows(self, obs, tiles, table):
        self.asked += [(obs.frame, t.tile_id) for t in tiles]
        return self.inner._match_rows(obs, tiles, table)


def test_lockstep_seeds_each_stream_once(monkeypatch):
    cfg = small_config(correction_hz=4.0, k_candidates=16)
    flight = simulate_vo(gen_trajectory(cfg, seed=3), cfg, seed=3)
    tiles = tiles_for(flight)
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
    _run_pipelines(flight, backends, cfg, tiles)

    assert seeded == []  # matchers read counter blocks; they seed no stream
    corrections = set(range(cfg.correction_stride, len(flight), cfg.correction_stride))
    scene, regression, hybrid = backends
    for backend in backends:
        assert len(backend.asked) == len(set(backend.asked)) == len(corrections) * cfg.k_candidates
    # The scene backend reads each pair it is asked for once, and nothing else.
    assert sorted(reads[0]) == sorted((frame, tile + 1) for frame, tile in scene.asked)
    # Regression and hybrid share the run's key: between them they read slot 0
    # once per correction frame and each pair either was asked for once.
    pairs = set(regression.asked) | set(hybrid.asked)
    synthetic = sorted(reads[1] + reads[2])
    assert synthetic == sorted([(frame, 0) for frame in corrections]
                               + [(frame, tile + 1) for frame, tile in pairs])
    assert [slot for _, slot in synthetic].count(0) == len(corrections)
    assert len(synthetic) == len(corrections) + len(pairs) < 2 * len(corrections) * 17
    assert {frame for frame, _ in synthetic} == {frame for frame, _ in reads[0]} == corrections


def test_the_loop_shares_draws_only_within_a_key():
    """Each backend's run in company equals its run alone: the loop hands one
    frame's table only to backends of one type, seed and distance model."""
    cfg = small_config(correction_hz=4.0, k_candidates=9, outlier_prob=0.2)
    jittery = small_config(correction_hz=4.0, k_candidates=9, outlier_prob=0.2, d_jitter=2.5)
    flight = simulate_vo(gen_trajectory(cfg, seed=5), cfg, seed=5)
    tiles = tiles_for(flight)
    backends = [
        SyntheticMatcher(cfg, "hybrid", 5),
        SceneMatcher(cfg, 5),
        SyntheticMatcher(cfg, "regression", 6),
        SyntheticMatcher(jittery, "regression", 5),
        SyntheticMatcher(cfg, "regression", 5),
    ]
    assert len({b._key for b in backends}) == 4
    runs = _run_pipelines(flight, backends, cfg, tiles)
    for backend, got in zip(backends, runs):
        assert_same_run(got, _run_pipeline(flight, backend, cfg, tiles))


def test_the_filter_loop_calls_no_lapack():
    """A dense run with every np.linalg function raising inside the loop
    equals the run without: the gates take their eigenvalues in closed form."""
    cfg = small_config(correction_hz=20.0, k_candidates=16, outlier_prob=0.2, duration_s=20.0)
    tiles = generate_grid(-1500.0, 1500.0, -1500.0, 1500.0, 50.0)
    want = run_experiment(cfg, tiles, seed=4)
    names = [name for name, value in vars(np.linalg).items()
             if callable(value) and not isinstance(value, type) and not name.startswith("_")]
    assert {"eigvalsh", "svd", "solve", "det", "norm"} <= set(names)
    loop = sim._run_pipelines

    def without_lapack(*args):
        refuse = mock.Mock(side_effect=AssertionError("np.linalg called in the filter loop"))
        with contextlib.ExitStack() as stack:
            for name in names:
                stack.enter_context(mock.patch.object(np.linalg, name, refuse))
            return loop(*args)

    with mock.patch.object(sim, "_run_pipelines", without_lapack):
        got = run_experiment(cfg, tiles, seed=4)
    assert repr(got.estimates) == repr(want.estimates)
    assert got.summaries == want.summaries


def test_two_candidates_at_a_large_allowed_rms_pass_the_psd_gate():
    """At 7e4 m regression RMS (the bound is 1e5) a two-candidate scatter's
    variance nears 1e10 m^2, and rounding in its least eigenvalue, about eps
    of that, outgrows the 1e-6 ridge: the PSD floor scales with M to match."""
    cfg = SimConfig(k_candidates=2, regression_horizontal_rms_m=7e4, regression_vertical_rms_m=7e4)
    result = run_experiment(cfg, generate_grid(-1500.0, 1500.0, -1500.0, 1500.0, 50.0), seed=0)
    assert set(result.summaries) == set(METHODS)


@pytest.mark.parametrize("block", [1, 7, 999])
def test_writer_does_not_depend_on_its_block(block, tmp_path):
    cfg = small_config()
    flight = simulate_vo(gen_trajectory(cfg, seed=2), cfg, seed=2)
    save_trajectory(str(tmp_path / "want.txt"), flight)
    with mock.patch.object(sim, "_VO_BLOCK", block):
        save_trajectory(str(tmp_path / "got.txt"), flight)
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


def test_pipeline_rejects_mismatched_increments():
    """The loop's input is a Flight, which refuses a column of increments
    that does not match its frames."""
    cfg = small_config()
    flight = simulate_vo(gen_trajectory(cfg, seed=0), cfg, seed=0)
    with pytest.raises(ValueError, match="999 increments for 1000 frames"):
        _run_pipeline(Flight(flight.t, flight.truth, flight.dp[:-1], flight.dR), None, cfg, None)
    with pytest.raises(ValueError, match="999 increments for 1000 frames"):
        _run_pipeline(Flight(flight.t, flight.truth, flight.dp, flight.dR[1:]), None, cfg, None)


# --- text round trips --------------------------------------------------------


def test_trajectory_round_trip(tmp_path):
    cfg = small_config()
    frames = gen_trajectory(cfg, seed=9)
    path = tmp_path / "flight.txt"
    save_trajectory(str(path), frames)
    loaded = load_trajectory(str(path))
    assert len(loaded) == len(frames)
    for column in ("t", "truth", "dp"):
        np.testing.assert_array_equal(getattr(loaded, column), getattr(frames, column))
    np.testing.assert_allclose(loaded.dR, frames.dR, atol=1e-12)
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


def test_save_estimates_of_numpy_values_round_trips(tmp_path):
    # A pose or time built from numpy scalars writes plain float reprs.
    path = tmp_path / "est.txt"
    poses = [Pose6D(*np.zeros(6)), Pose6D(*np.arange(1.0, 7.0))]
    save_estimates(str(path), np.array([0.0, 0.05]), poses)
    assert "np." not in path.read_text()
    back = load_trajectory(str(path))
    assert back.t.tolist() == [0.0, 0.05]
    assert truth_poses(back) == poses


@pytest.mark.parametrize("n_times, n_poses", [(1, 3), (3, 1), (0, 1)])
def test_save_estimates_refuses_mismatched_counts(tmp_path, n_times, n_poses):
    path = tmp_path / "est.txt"
    with pytest.raises(ValueError, match=f"{n_poses} poses for {n_times} times"):
        save_estimates(str(path), [0.05 * i for i in range(n_times)], [Pose6D(0, 0, 150, 0, 0)] * n_poses)
    assert not path.exists()


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
