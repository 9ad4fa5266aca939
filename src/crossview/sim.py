"""Simulation harness: synthetic flights, drifting odometry, and end-to-end runs.

``gen_trajectory`` lays out a constant-speed flight (straight lead-out,
90-degree connecting turn, then a wide orbit around the start) with smoothly
varying altitude and tilt; the first 100 m are pure translation.
``simulate_vo`` corrupts the true frame-to-frame increments with the drift
the config's ``vo_*`` figures set. ``run_experiment``
then runs four estimation pipelines over the same flight and drift
realization: dead-reckoned VO only, and VO corrected at 1 Hz by each matching
backend (scene retrieval, pose regression, hybrid). Everything is a pure
function of (config, seed), which is what makes batch runs byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .config import SimConfig
# predict is the reference _run_pipelines' steps reproduce; it stays
# importable as sim.predict, the name perfbench/tracing.py wraps.
from .estimator import FilterState, ProcessNoise, VoIncrement, correct, predict  # noqa: F401
from .fusion import fuse
from .geometry import (
    Pose6D,
    _euler_to_rotmat,
    _rotmat_to_euler,
    euler_to_rotmat,
    rotmat_to_euler,
    wrap_angle,
    wrap_angles,
)
from .matchers import SceneMatcher, SyntheticMatcher, UavObservation, noise_model
from .textfile import read_rows, write_rows
from .tiles import TileSet, k_nearest

__all__ = [
    "METHODS",
    "ExperimentResult",
    "RmseSummary",
    "TrajectoryFrame",
    "gen_trajectory",
    "load_trajectory",
    "path_length",
    "rmse",
    "run_experiment",
    "save_estimates",
    "save_trajectory",
    "suggested_tile_bounds",
    "summary_table",
    "write_summary",
]

METHODS = ("vo_only", "vo_scene", "vo_regression", "vo_hybrid")

_TRAJ_HEADER = "#crossview-traj-v1"
# Stream tags keep the trajectory and drift generators off the matcher
# streams, which are seeded [seed, frame] and [seed, frame, tile].
_TRAJ_STREAM = 1_000_003
_VO_STREAM = 1_000_033


@dataclass(frozen=True)
class TrajectoryFrame:
    """One 20 Hz sample: timestamp, true pose, and the VO-reported increment."""

    t: float
    truth: Pose6D
    vo_increment: VoIncrement


# --- flight path ---------------------------------------------------------


def _flight_path(cfg: SimConfig, heading0: float, turn: int):
    """The flight as a function of arc length s, returning (x, y, heading).

    A lead-out line from the origin along heading0, a 90-degree connecting
    turn (turn = +1 turns clockwise, so heading increases), then an orbit
    whose radius equals lead + turn radius, which keeps the flight at a
    near-constant distance from the start point.
    """
    lead = cfg.lead_m
    quarter = 0.5 * math.pi * cfg.turn_radius_m
    orbit_start = lead + quarter

    def arc(x: float, y: float, heading: float, radius: float):
        h = math.radians(heading)
        k = turn * radius
        cx, cy = x + k * math.cos(h), y - k * math.sin(h)

        def at(s: float) -> tuple[float, float, float]:
            h_s = heading + turn * math.degrees(s / radius)
            h = math.radians(h_s)
            return cx - k * math.cos(h), cy + k * math.sin(h), h_s

        return at

    h0 = math.radians(heading0)
    # "0.0 +" keeps frame 0 at +0.0 where the sine or cosine is negative.
    bend = arc(0.0 + lead * math.sin(h0), 0.0 + lead * math.cos(h0), heading0, cfg.turn_radius_m)
    orbit = arc(*bend(quarter), cfg.orbit_radius_m)

    def at(s: float) -> tuple[float, float, float]:
        if s < lead:
            return 0.0 + s * math.sin(h0), 0.0 + s * math.cos(h0), heading0
        if s < orbit_start:
            return bend(s - lead)
        return orbit(s - orbit_start)

    return at


def gen_trajectory(cfg: SimConfig, seed: int) -> list[TrajectoryFrame]:
    """Deterministic synthetic flight for a config and seed.

    The seed picks the initial heading, the sense of the first turn, and the
    altitude phase; the geometry (leg lengths, speeds, profiles) comes from
    the config alone. Increments attached to the frames are the exact truth
    increments (a drift-free VO); see :func:`simulate_vo` for the noisy ones.
    """
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TRAJ_STREAM]))
    heading0 = wrap_angle(float(rng.uniform(-180.0, 180.0)))
    first_turn = 1 if rng.random() < 0.5 else -1
    alt_phase = float(rng.uniform(0.0, 2.0 * math.pi))

    path = _flight_path(cfg, heading0, first_turn)
    t0 = cfg.straight_init_m / cfg.speed  # orientation frozen until here
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


def simulate_vo(
    frames: list[TrajectoryFrame], cfg: SimConfig, seed: int
) -> list[VoIncrement]:
    """Corrupt the true increments with the config's VO drift, one per frame.

    Position increments are scaled by (1 + vo_scale_error), then perturbed by
    white noise of sigma vo_pos_noise_m per axis plus a bias that
    random-walks with sigma vo_bias_walk_m per step. Rotation increments are
    left-multiplied by a small random rotation with vo_rot_noise_deg per
    axis. Per step the draw order is fixed (bias walk, position noise,
    rotation noise, 3 values each) so runs are reproducible. Index 0 is the
    identity.
    """
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, _VO_STREAM]))
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


# --- metrics -------------------------------------------------------------


@dataclass(frozen=True)
class RmseSummary:
    """Whole-trajectory errors: 3D position RMSE (and as % of path length),
    heading RMSE, tilt RMSE."""

    pos_rmse_m: float
    pos_pct: float
    psi_rmse_deg: float
    theta_rmse_deg: float


def path_length(truth: list[Pose6D]) -> float:
    pts = np.array([[p.x, p.y, p.z] for p in truth])
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def rmse(estimates: list[Pose6D], truth: list[Pose6D]) -> RmseSummary:
    """Compare an estimated trajectory against truth, frame by frame.

    Angle residuals are wrapped, so an estimate at -179 deg against a truth
    of +179 deg counts as 2 degrees of error, not 358.
    """
    if len(estimates) != len(truth) or not truth:
        raise ValueError(
            f"trajectory length mismatch: {len(estimates)} vs {len(truth)}"
        )
    est = np.array([[p.x, p.y, p.z] for p in estimates])
    ref = np.array([[p.x, p.y, p.z] for p in truth])
    pos_rmse = float(np.sqrt(np.mean(np.sum((est - ref) ** 2, axis=1))))
    psi_err = wrap_angles(
        np.array([e.psi - t.psi for e, t in zip(estimates, truth)])
    )
    theta_err = wrap_angles(
        np.array([e.theta - t.theta for e, t in zip(estimates, truth)])
    )
    length = path_length(truth)
    pct = 100.0 * pos_rmse / length if length > 0.0 else math.inf
    return RmseSummary(
        pos_rmse_m=pos_rmse,
        pos_pct=pct,
        psi_rmse_deg=float(np.sqrt(np.mean(psi_err**2))),
        theta_rmse_deg=float(np.sqrt(np.mean(theta_err**2))),
    )


# --- end-to-end experiment -------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    """One seed's flight plus per-method estimated trajectories and errors."""

    seed: int
    frames: list[TrajectoryFrame]
    estimates: dict[str, list[Pose6D]]
    summaries: dict[str, RmseSummary]


def _make_backends(cfg: SimConfig, seed: int) -> dict[str, object]:
    return {
        "vo_only": None,
        "vo_scene": SceneMatcher(
            noise_model(cfg, "scene"),
            seed=seed,
            altitude=cfg.scene_altitude_m,
            heading_prior=cfg.scene_heading_deg,
            tilt_prior=cfg.scene_tilt_deg,
        ),
        "vo_regression": SyntheticMatcher(noise_model(cfg, "regression"), seed=seed),
        "vo_hybrid": SyntheticMatcher(noise_model(cfg, "hybrid"), seed=seed),
    }


def _run_pipelines(
    frames: list[TrajectoryFrame],
    increments: list[VoIncrement],
    backends: list,
    cfg: SimConfig,
    tile_set: TileSet | None,
) -> list[tuple[list[Pose6D], np.ndarray]]:
    """Filter one flight per backend (None: dead reckoning), in lockstep.

    Every pipeline takes frame i, predicting it and correcting it every stride
    frames, before any takes frame i + 1; at a correction frame all backends
    get the same UavObservation, whose memo seeds each matcher stream once and
    keeps the synthetic backends' draws, so regression and hybrid draw once.
    Returns one (pose per frame, final 6x6 covariance) per backend. This is a
    trusted loop: frames and increments were validated when they were built,
    so each 20 Hz step runs :func:`predict`'s arithmetic, in the same order,
    through the unchecked geometry kernels, and P stays a bare array between
    corrections. Each correction goes through a FilterState and the unchanged
    :func:`correct`, and every output pose is a checked Pose6D. When
    k_candidates = 1 leaves no scatter to measure, every backend's fused
    covariance falls back to the configured hybrid-grade variances.
    """
    if len(increments) != len(frames):
        raise ValueError(f"{len(increments)} increments for {len(frames)} frames")
    fallback = noise_model(cfg, "hybrid").variances()
    Q = ProcessNoise(np.full(6, cfg.process_noise_var)).matrix
    start = FilterState.initial(frames[0].truth, cfg.init_cov_var)
    poses = [start.pose] * len(backends)
    Ps = [start.P] * len(backends)
    tracks = [[start.pose] for _ in backends]
    stride = cfg.correction_stride
    for i in range(1, len(frames)):
        inc = increments[i]
        dx, dy, dz = inc.dp.tolist()
        obs = UavObservation(i, frames[i].truth) if i % stride == 0 else None
        for j, backend in enumerate(backends):
            pose = poses[j]
            psi, theta, phi = _rotmat_to_euler(inc.dR @ _euler_to_rotmat(*pose.angles))
            pose = Pose6D(pose.x + dx, pose.y + dy, pose.z + dz, psi, theta, phi)
            P = Ps[j] + Q
            if backend is not None and obs is not None:
                candidates = k_nearest(tile_set, (pose.x, pose.y), cfg.k_candidates)
                z = fuse(backend.match_frame(obs, candidates), fallback)
                state = correct(FilterState(pose, P), z)
                pose, P = state.pose, state.P
            poses[j], Ps[j] = pose, P
            tracks[j].append(pose)
    return list(zip(tracks, Ps))


def run_experiment(cfg: SimConfig, tile_set: TileSet, seed: int) -> ExperimentResult:
    """Run all four pipelines over one seeded flight and summarize errors.

    Every pipeline sees the same truth and the same drifting VO increments;
    only the correction backend differs, so per-seed comparisons between
    methods are paired.
    """
    cfg.validate()
    if cfg.k_candidates > len(tile_set):
        raise ValueError(
            f"k_candidates={cfg.k_candidates} exceeds tile count {len(tile_set)}"
        )
    frames = gen_trajectory(cfg, seed)
    increments = simulate_vo(frames, cfg, seed)
    truth = [f.truth for f in frames]
    backends = _make_backends(cfg, seed)
    runs = _run_pipelines(frames, increments, [backends[m] for m in METHODS], cfg, tile_set)
    estimates = {method: poses for method, (poses, _) in zip(METHODS, runs)}
    summaries = {method: rmse(poses, truth) for method, poses in estimates.items()}
    return ExperimentResult(seed, frames, estimates, summaries)


def suggested_tile_bounds(
    frames: list[TrajectoryFrame], margin: float = 300.0, spacing: float = 50.0
) -> tuple[float, float, float, float]:
    """Grid bounds covering the flight with margin, snapped to the spacing."""
    xs = [f.truth.x for f in frames]
    ys = [f.truth.y for f in frames]
    snap = lambda v, up: (math.ceil(v / spacing) if up else math.floor(v / spacing)) * spacing
    return (
        snap(min(xs) - margin, False),
        snap(max(xs) + margin, True),
        snap(min(ys) - margin, False),
        snap(max(ys) + margin, True),
    )


# --- text round trip -------------------------------------------------------


def _pose_columns(t: float, p: Pose6D) -> str:
    return f"{t!r} {p.x!r} {p.y!r} {p.z!r} {p.psi!r} {p.theta!r} {p.phi!r}"


def _increment_columns(inc: VoIncrement) -> str:
    return " ".join(map(repr, (*inc.dp.tolist(), *rotmat_to_euler(inc.dR))))


# Every estimate row ends with these columns: "0.0 0.0 0.0 0.0 -0.0 0.0".
_ZERO_INCREMENT = _increment_columns(VoIncrement.identity())


def save_trajectory(path: str, frames: list[TrajectoryFrame]) -> None:
    """Write frames as the versioned 13-column text format.

    Columns: t x y z psi theta phi dpx dpy dpz dpsi dtheta dphi. The rotation
    increment is stored as its z-y-x angles; on load it is rebuilt with
    :func:`euler_to_rotmat`, so those angles are the authoritative record.
    """
    rows = [f"{_pose_columns(f.t, f.truth)} {_increment_columns(f.vo_increment)}" for f in frames]
    write_rows(path, _TRAJ_HEADER, rows)


def save_estimates(path: str, times: list[float], poses: list[Pose6D]) -> None:
    """Write an estimated trajectory in the same format with zero increments."""
    rows = [f"{_pose_columns(t, p)} {_ZERO_INCREMENT}" for t, p in zip(times, poses)]
    write_rows(path, _TRAJ_HEADER, rows)


def load_trajectory(path: str) -> list[TrajectoryFrame]:
    """Parse a file written by :func:`save_trajectory`; errors carry path:line."""
    return read_rows(path, _TRAJ_HEADER, _parse_frames)


def _parse_frames(rows) -> list[TrajectoryFrame]:
    frames = []
    for tokens in rows:
        if len(tokens) != 13:
            raise ValueError(f"expected 13 columns, got {len(tokens)}")
        v = [float(tok) for tok in tokens]
        if not math.isfinite(v[0]):
            raise ValueError(f"t must be finite, got {v[0]!r}")
        inc = VoIncrement(np.array(v[7:10]), euler_to_rotmat(v[10], v[11], v[12]))
        frames.append(TrajectoryFrame(v[0], Pose6D(*v[1:7]), inc))
    if not frames:
        raise ValueError("file contains no frames")
    return frames


def summary_table(summaries: dict[str, RmseSummary], fmt) -> list[str]:
    """CSV lines: RmseSummary's field names, then per method ``fmt`` of each."""
    lines = [",".join(["method", *(f.name for f in fields(RmseSummary))])]
    for method in METHODS:
        if method in summaries:
            lines.append(",".join([method, *map(fmt, astuple(summaries[method]))]))
    return lines


def write_summary(path: str, summaries: dict[str, RmseSummary]) -> None:
    """Write per-method errors as a small CSV, values bit-exact."""
    header, *rows = summary_table(summaries, repr)
    write_rows(path, header, rows)
