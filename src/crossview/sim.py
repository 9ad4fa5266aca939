"""Simulation harness: synthetic flights, drifting odometry, and end-to-end runs.

``gen_trajectory`` lays out a constant-speed flight (straight lead-out,
90-degree connecting turn, then a wide orbit around the start) with smoothly
varying altitude and tilt; the first 100 m are pure translation. ``simulate_vo`` corrupts the true
frame-to-frame increments with a calibrated drift model. ``run_experiment``
then runs four estimation pipelines over the same flight and drift
realization: dead-reckoned VO only, and VO corrected at 1 Hz by each matching
backend (scene retrieval, pose regression, hybrid). Everything is a pure
function of (config, seed), which is what makes batch runs byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimConfig
# predict is the reference _run_pipeline's steps reproduce; it stays
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
from .matchers import (
    MatcherNoiseModel,
    SceneMatcher,
    SyntheticMatcher,
    UavObservation,
    hybrid_noise_model,
    regression_noise_model,
)
from .tiles import TileSet, k_nearest

__all__ = [
    "METHODS",
    "ExperimentResult",
    "RmseSummary",
    "TrajectoryFrame",
    "VoDriftModel",
    "drift_from_config",
    "gen_trajectory",
    "load_trajectory",
    "path_length",
    "rmse",
    "run_experiment",
    "save_estimates",
    "save_trajectory",
    "suggested_tile_bounds",
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


@dataclass(frozen=True)
class VoDriftModel:
    """Visual odometry error model, applied per prediction step.

    Position increments are scaled by (1 + scale_error), then perturbed by
    white noise of sigma pos_noise_m per axis plus a bias that random-walks
    with sigma bias_walk_m per step. Rotation increments are left-multiplied
    by a small random rotation with rot_noise_deg per axis.
    """

    scale_error: float = 0.0
    pos_noise_m: float = 0.0
    rot_noise_deg: float = 0.0
    bias_walk_m: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.scale_error) or self.scale_error <= -1.0:
            raise ValueError(f"scale_error must be > -1, got {self.scale_error!r}")
        for name in ("pos_noise_m", "rot_noise_deg", "bias_walk_m"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def drift_from_config(cfg: SimConfig) -> VoDriftModel:
    return VoDriftModel(
        scale_error=cfg.vo_scale_error,
        pos_noise_m=cfg.vo_pos_noise_m,
        rot_noise_deg=cfg.vo_rot_noise_deg,
        bias_walk_m=cfg.vo_bias_walk_m,
    )


def _scene_noise_from_config(cfg: SimConfig) -> MatcherNoiseModel:
    # Scene retrieval only produces distances; the pose part is deterministic.
    return MatcherNoiseModel(
        d0=cfg.d0, d_slope=cfg.d_slope, d_jitter=cfg.d_jitter
    )


def _hybrid_noise_from_config(cfg: SimConfig) -> MatcherNoiseModel:
    return MatcherNoiseModel(
        sigma_xy=cfg.hybrid_horizontal_rms_m / math.sqrt(2.0),
        sigma_z=cfg.hybrid_vertical_rms_m,
        sigma_psi=cfg.hybrid_heading_rms_deg,
        sigma_theta=cfg.hybrid_tilt_rms_deg,
        d0=cfg.d0,
        d_slope=cfg.d_slope,
        d_jitter=cfg.d_jitter,
        outlier_prob=cfg.outlier_prob,
        outlier_factor=cfg.outlier_factor,
        common_frac=cfg.common_frac,
    )


def _regression_noise_from_config(cfg: SimConfig) -> MatcherNoiseModel:
    return MatcherNoiseModel(
        sigma_xy=cfg.regression_horizontal_rms_m / math.sqrt(2.0),
        sigma_z=cfg.regression_vertical_rms_m,
        sigma_psi=cfg.regression_heading_rms_deg,
        sigma_theta=cfg.regression_tilt_rms_deg,
        d0=cfg.d0,
        d_slope=cfg.d_slope,
        d_jitter=cfg.d_jitter,
        outlier_prob=cfg.outlier_prob,
        outlier_factor=cfg.outlier_factor,
        common_frac=cfg.common_frac,
    )


# --- flight path ---------------------------------------------------------


class _Straight:
    def __init__(self, start: np.ndarray, heading: float, length: float):
        self.start = start
        self.heading = heading
        self.length = length

    def sample(self, s: float) -> tuple[np.ndarray, float]:
        h = math.radians(self.heading)
        return (self.start + s * np.array([math.sin(h), math.cos(h)]), self.heading)

    def end(self) -> tuple[np.ndarray, float]:
        return self.sample(self.length)


class _Arc:
    """Constant-radius turn; sign +1 turns clockwise (heading increases)."""

    def __init__(self, start: np.ndarray, heading: float, radius: float, sign: int, length: float):
        self.start = start
        self.heading0 = heading
        self.radius = radius
        self.sign = sign
        self.length = length
        h = math.radians(heading)
        self.center = start + sign * radius * np.array([math.cos(h), -math.sin(h)])

    def sample(self, s: float) -> tuple[np.ndarray, float]:
        heading = self.heading0 + self.sign * math.degrees(s / self.radius)
        h = math.radians(heading)
        point = self.center - self.sign * self.radius * np.array(
            [math.cos(h), -math.sin(h)]
        )
        return (point, heading)

    def end(self) -> tuple[np.ndarray, float]:
        return self.sample(self.length)


def _build_segments(cfg: SimConfig, heading0: float, turn: int) -> list:
    # Lead-out leg, 90-degree connecting turn, then an orbit whose radius
    # equals lead + turn radius, which keeps the flight at a near-constant
    # distance from the start point for the rest of the run.
    segments = []
    point = np.zeros(2)
    heading = heading0
    plan = [
        ("straight", cfg.lead_m, 0.0),
        ("arc", 0.5 * math.pi * cfg.turn_radius_m, cfg.turn_radius_m),
        ("arc", cfg.orbit_m, cfg.orbit_radius_m),
    ]
    for kind, length, radius in plan:
        if kind == "straight":
            seg = _Straight(point, heading, length)
        else:
            seg = _Arc(point, heading, radius, turn, length)
        segments.append(seg)
        point, heading = seg.end()
    return segments


def gen_trajectory(cfg: SimConfig, seed: int) -> list[TrajectoryFrame]:
    """Deterministic synthetic flight for a config and seed.

    The seed picks the initial heading, the sense of the first turn, and the
    altitude phase; the geometry (segment lengths, speeds, profiles) comes
    from the config alone. Increments attached to the frames are the exact
    truth increments (a drift-free VO); see :func:`simulate_vo` for the noisy
    ones.
    """
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TRAJ_STREAM]))
    heading0 = wrap_angle(float(rng.uniform(-180.0, 180.0)))
    first_turn = 1 if rng.random() < 0.5 else -1
    alt_phase = float(rng.uniform(0.0, 2.0 * math.pi))

    segments = _build_segments(cfg, heading0, first_turn)
    boundaries = np.cumsum([seg.length for seg in segments])
    t0 = cfg.straight_init_m / cfg.speed  # orientation frozen until here

    def sample_path(s: float) -> tuple[np.ndarray, float]:
        idx = int(np.searchsorted(boundaries, s, side="right"))
        idx = min(idx, len(segments) - 1)
        base = boundaries[idx - 1] if idx > 0 else 0.0
        return segments[idx].sample(s - base)

    poses = []
    n = cfg.frame_count
    for i in range(n):
        t = i * cfg.dt
        point, heading = sample_path(cfg.speed * t)
        z = cfg.alt_base_m + cfg.alt_amp_m * math.sin(
            2.0 * math.pi * t / cfg.alt_period_s + alt_phase
        )
        tilt_t = max(t - t0, 0.0)
        theta = cfg.tilt_base_deg + cfg.tilt_amp_deg * math.sin(
            2.0 * math.pi * tilt_t / cfg.tilt_period_s
        )
        poses.append(
            Pose6D(float(point[0]), float(point[1]), z, wrap_angle(heading), theta, 0.0)
        )

    frames = [TrajectoryFrame(0.0, poses[0], VoIncrement.identity())]
    R_prev = euler_to_rotmat(*poses[0].angles)
    for i in range(1, n):
        R = euler_to_rotmat(*poses[i].angles)
        dp = poses[i].position - poses[i - 1].position
        frames.append(TrajectoryFrame(i * cfg.dt, poses[i], VoIncrement(dp, R @ R_prev.T)))
        R_prev = R
    return frames


def simulate_vo(
    frames: list[TrajectoryFrame], drift: VoDriftModel, seed: int
) -> list[VoIncrement]:
    """Corrupt the true increments with the drift model, one entry per frame.

    Per step the draw order is fixed (bias walk, position noise, rotation
    noise, 3 values each) so runs are reproducible. Index 0 is the identity.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _VO_STREAM]))
    out = [VoIncrement.identity()]
    bias = np.zeros(3)
    for frame in frames[1:]:
        bias = bias + rng.standard_normal(3) * drift.bias_walk_m
        pos_noise = rng.standard_normal(3) * drift.pos_noise_m
        rot_noise = rng.standard_normal(3) * drift.rot_noise_deg
        true_inc = frame.vo_increment
        dp = (1.0 + drift.scale_error) * true_inc.dp + pos_noise + bias
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
            _scene_noise_from_config(cfg),
            seed=seed,
            altitude=cfg.scene_altitude_m,
            heading_prior=cfg.scene_heading_deg,
            tilt_prior=cfg.scene_tilt_deg,
        ),
        "vo_regression": SyntheticMatcher(_regression_noise_from_config(cfg), seed=seed),
        "vo_hybrid": SyntheticMatcher(_hybrid_noise_from_config(cfg), seed=seed),
    }


def _run_pipeline(
    frames: list[TrajectoryFrame],
    increments: list[VoIncrement],
    backend,
    cfg: SimConfig,
    tile_set: TileSet | None,
) -> tuple[list[Pose6D], np.ndarray]:
    """Filter one flight: predict every frame, correct every stride frames.

    Returns one pose per frame and the final 6x6 covariance. This is a
    trusted loop: frames and increments were validated when they were built,
    so each 20 Hz step runs :func:`predict`'s arithmetic, in the same order,
    through the unchecked geometry kernels, and P stays a bare array between
    corrections. Each correction goes through a FilterState and the unchanged
    :func:`correct`, and every output pose is a checked Pose6D.
    """
    if len(increments) != len(frames):
        raise ValueError(f"{len(increments)} increments for {len(frames)} frames")
    Q = ProcessNoise(np.full(6, cfg.process_noise_var)).matrix
    state = FilterState.initial(frames[0].truth, cfg.init_cov_var)
    pose, P = state.pose, state.P
    poses = [pose]
    stride = cfg.correction_stride
    for i in range(1, len(frames)):
        inc = increments[i]
        dx, dy, dz = inc.dp.tolist()
        psi, theta, phi = _rotmat_to_euler(inc.dR @ _euler_to_rotmat(*pose.angles))
        pose = Pose6D(pose.x + dx, pose.y + dy, pose.z + dz, psi, theta, phi)
        P = P + Q
        if backend is not None and i % stride == 0:
            obs = UavObservation(i, frames[i].truth)
            candidates = k_nearest(tile_set, (pose.x, pose.y), cfg.k_candidates)
            state = correct(FilterState(pose, P), fuse(backend.match_frame(obs, candidates)))
            pose, P = state.pose, state.P
        poses.append(pose)
    return poses, P


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
    increments = simulate_vo(frames, drift_from_config(cfg), seed)
    truth = [f.truth for f in frames]
    backends = _make_backends(cfg, seed)
    estimates = {}
    summaries = {}
    for method in METHODS:
        poses, _ = _run_pipeline(frames, increments, backends[method], cfg, tile_set)
        estimates[method] = poses
        summaries[method] = rmse(poses, truth)
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


def save_trajectory(path: str, frames: list[TrajectoryFrame]) -> None:
    """Write frames as the versioned 13-column text format.

    Columns: t x y z psi theta phi dpx dpy dpz dpsi dtheta dphi. The rotation
    increment is stored as its z-y-x angles; on load it is rebuilt with
    :func:`euler_to_rotmat`, so those angles are the authoritative record.
    """
    lines = [_TRAJ_HEADER]
    for f in frames:
        p = f.truth
        dpsi, dtheta, dphi = rotmat_to_euler(f.vo_increment.dR)
        # repr() of a numpy scalar is not a parseable float literal
        dpx, dpy, dpz = (float(v) for v in f.vo_increment.dp)
        lines.append(
            f"{f.t!r} {p.x!r} {p.y!r} {p.z!r} {p.psi!r} {p.theta!r} {p.phi!r}"
            f" {dpx!r} {dpy!r} {dpz!r} {dpsi!r} {dtheta!r} {dphi!r}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def save_estimates(path: str, times: list[float], poses: list[Pose6D]) -> None:
    """Write an estimated trajectory in the same format with zero increments."""
    frames = [
        TrajectoryFrame(t, pose, VoIncrement.identity())
        for t, pose in zip(times, poses)
    ]
    save_trajectory(path, frames)


def load_trajectory(path: str) -> list[TrajectoryFrame]:
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != _TRAJ_HEADER:
        raise ValueError(f"{path}:1: expected header {_TRAJ_HEADER!r}")
    frames = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 13:
            raise ValueError(f"{path}:{lineno}: expected 13 columns, got {len(tokens)}")
        try:
            vals = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        pose = Pose6D(vals[1], vals[2], vals[3], vals[4], vals[5], vals[6])
        inc = VoIncrement(
            np.array(vals[7:10]), euler_to_rotmat(vals[10], vals[11], vals[12])
        )
        frames.append(TrajectoryFrame(vals[0], pose, inc))
    if not frames:
        raise ValueError(f"{path}: file contains no frames")
    return frames


def write_summary(path: str, summaries: dict[str, RmseSummary]) -> None:
    """Write per-method errors as a small CSV, methods in canonical order."""
    lines = ["method,pos_rmse_m,pos_pct,psi_rmse_deg,theta_rmse_deg"]
    for method in METHODS:
        if method not in summaries:
            continue
        s = summaries[method]
        lines.append(
            f"{method},{s.pos_rmse_m!r},{s.pos_pct!r},{s.psi_rmse_deg!r},{s.theta_rmse_deg!r}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
