"""Simulation harness: synthetic flights, drifting odometry, and end-to-end runs.

``gen_trajectory`` lays out a constant-speed flight (straight lead-out,
90-degree connecting turn, then a wide orbit around the start) with smoothly
varying altitude and tilt; the first 100 m are pure translation.
``simulate_vo`` corrupts the true frame-to-frame increments with the drift
the config's ``vo_*`` figures set. ``run_experiment``
then runs four estimation pipelines over the same flight and drift
realization: dead-reckoned VO only, and VO corrected at 1 Hz by each matching
backend (scene retrieval, pose regression, hybrid), and scores each against
the truth. Everything is a pure function of (config, seed), which is what
makes batch runs byte-reproducible.

The 20 Hz work is trusted: a SimConfig is valid once built, and a flight is
one ``Flight`` of columns, checked once when built, from the builders to the
loop and the writer. The builders keep the bits of the per-frame form and
multiply rotations in one fixed order, ``_products``. The filter loop runs
the kernels of the public calls, which are those kernels plus their boundary
checks: ``geometry._compose`` predicts in plain floats, and the matcher,
fusion and correction kernels correct on plain rows.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from itertools import chain

import numpy as np

from .config import MAX_TILT_DEG, ConfigError, SimConfig
# predict, correct and fuse are the references _run_pipelines' kernels
# reproduce, euler_to_rotmat and rotmat_to_euler those of the trajectory
# reader and writer; perfbench/tracing.py wraps each of them as sim.<name>.
from .estimator import FilterState, _correct_blocks, correct, predict  # noqa: F401
from .fusion import _block_entries, _block_matrix, _checked_fallback, _fuse_rows, fuse  # noqa: F401
from .geometry import euler_to_rotmat, rotmat_to_euler  # noqa: F401
from .geometry import (
    _NOT_A_ROTATION,
    Pose6D,
    _are_rotations,
    _compose,
    _euler_to_rotmats,
    _rotmat_to_euler,
    wrap_angle,
    wrap_angles,
)
from .matchers import _MAX_JITTER, SceneMatcher, SyntheticMatcher, UavObservation, _check_seed
from .textfile import read_table, write_rows
from .tiles import DEFAULT_SPACING_M, TileSet, k_nearest

__all__ = [
    "METHODS",
    "ExperimentResult",
    "Flight",
    "RmseSummary",
    "gen_trajectory",
    "load_trajectory",
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
_TRAJ_COLUMNS = "t x y z psi theta phi dpx dpy dpz dpsi dtheta dphi".split()
# Stream tags keep the trajectory and drift generators apart.
_TRAJ_STREAM = 1_000_003
_VO_STREAM = 1_000_033
# The builders and the filter loop work through the flight this many steps at
# a time, which bounds their temporaries; the result does not depend on it.
_VO_BLOCK = 512


# Each Flight column: its name, the shape of one row, and the whole shape.
_FLIGHT_COLUMNS = (
    ("t", (), "(n,)"), ("truth", (6,), "(n, 6)"), ("dp", (3,), "(n, 3)"), ("dR", (3, 3), "(n, 3, 3)")
)


@dataclass(frozen=True, eq=False)
class Flight:
    """A flight as four columns, read-only copies checked once when built.

    ``t`` (n,) holds the timestamps, ``truth`` (n, 6) the true poses
    (x, y, z, psi, theta, phi), and ``dp`` (n, 3) and ``dR`` (n, 3, 3) the
    VO-reported increments; row i moves frame i - 1 to frame i. Row 0 has no
    frame before it: the builders make it the identity and the filter loop
    never reads it. Every value must be finite and every dR a rotation. A
    flight is read by its columns and its length; it has no per-frame view.
    """

    t: np.ndarray
    truth: np.ndarray
    dp: np.ndarray
    dR: np.ndarray

    def __post_init__(self) -> None:
        # Copies, so no caller can change a flight after its one check.
        columns = {name: np.array(getattr(self, name), dtype=float) for name, _, _ in _FLIGHT_COLUMNS}
        t, truth, dp, dR = columns.values()
        for (name, row, shape), column in zip(_FLIGHT_COLUMNS, columns.values()):
            if column.ndim != 1 + len(row) or column.shape[1:] != row:
                raise ValueError(f"{name} must have shape {shape}, got {column.shape}")
        n = len(t)
        for what, column in (("poses", truth), ("increments", dp), ("increments", dR)):
            if len(column) != n:
                raise ValueError(f"{len(column)} {what} for {n} frames")
        if not np.isfinite(t).all():
            raise ValueError(f"t must be finite, got {float(t[~np.isfinite(t)][0])!r}")
        if not np.isfinite(truth).all():
            # Pose6D's own check names the first bad field.
            Pose6D(*truth[~np.isfinite(truth).all(axis=1)][0].tolist())
        if not np.isfinite(dp).all():
            raise ValueError("dp must be a finite 3-vector")
        if n and not _are_rotations(dR):
            raise ValueError(f"dR {_NOT_A_ROTATION}")
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.t)


# --- flight path ---------------------------------------------------------


def _flight_path(cfg: SimConfig, heading0: float, turn: int):
    """The flight as a function of arc length, mapping an array of arc lengths
    s to its (x, y, heading) columns.

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

        def at(s: np.ndarray):
            h_s = heading + turn * np.degrees(s / radius)
            h = np.radians(h_s)
            return cx - k * np.cos(h), cy + k * np.sin(h), h_s

        return at

    h0 = math.radians(heading0)

    def line(s: np.ndarray):
        # "0.0 +" keeps frame 0 at +0.0 where the sine or cosine is negative.
        return 0.0 + s * math.sin(h0), 0.0 + s * math.cos(h0), np.full_like(s, heading0)

    bend = arc(0.0 + lead * math.sin(h0), 0.0 + lead * math.cos(h0), heading0, cfg.turn_radius_m)
    legs = ((line, 0.0), (bend, lead), (arc(*bend(quarter), cfg.orbit_radius_m), orbit_start))

    def at(s: np.ndarray) -> np.ndarray:
        leg = (s >= lead).astype(int) + (s >= orbit_start)
        out = np.empty((3, len(s)))
        for i, (path, start) in enumerate(legs):
            on = leg == i
            out[:, on] = path(s[on] - start)
        return out

    return at


def gen_trajectory(cfg: SimConfig, seed: int) -> Flight:
    """Deterministic synthetic flight for a config and seed.

    The seed picks the initial heading, the sense of the first turn, and the
    altitude phase; the geometry (leg lengths, speeds, profiles) comes from
    the config alone. Increments attached to the frames are the exact truth
    increments (a drift-free VO); see :func:`simulate_vo` for the noisy ones.
    """
    rng = np.random.default_rng(np.random.SeedSequence([_check_seed(seed), _TRAJ_STREAM]))
    heading0 = wrap_angle(float(rng.uniform(-180.0, 180.0)))
    first_turn = 1 if rng.random() < 0.5 else -1
    alt_phase = float(rng.uniform(0.0, 2.0 * math.pi))

    path = _flight_path(cfg, heading0, first_turn)
    t0 = cfg.straight_init_m / cfg.speed  # orientation frozen until here
    # Each frame's formulas as elementwise ufuncs, in the same order: float64
    # np.sin and np.cos are libm's sin and cos, bit-equal to math's on every
    # numpy dispatch level (tests/test_sim.py checks both claims).
    t = np.arange(cfg.frame_count) * cfg.dt
    truth, Rs = np.zeros((len(t), 6)), np.empty((len(t), 3, 3))
    for lo in range(0, len(t), _VO_BLOCK):
        block = slice(lo, lo + _VO_BLOCK)
        x, y, heading = path(cfg.speed * t[block])
        z = cfg.alt_base_m + cfg.alt_amp_m * np.sin(
            2.0 * math.pi * t[block] / cfg.alt_period_s + alt_phase
        )
        tilt_t = np.maximum(t[block] - t0, 0.0)
        theta = cfg.tilt_base_deg + cfg.tilt_amp_deg * np.sin(
            2.0 * math.pi * tilt_t / cfg.tilt_period_s
        )
        truth[block, :5] = np.stack([x, y, z, wrap_angles(heading), theta], axis=1)
        Rs[block] = _euler_to_rotmats(truth[block, 3:])
    dp, dR = np.zeros((len(truth), 3)), np.empty_like(Rs)
    dp[1:] = np.diff(truth[:, :3], axis=0)
    dR[0] = np.eye(3)
    dR[1:] = _products(Rs[1:], Rs[:-1].transpose(0, 2, 1))
    return Flight(t, truth, dp, dR)


def simulate_vo(flight: Flight, cfg: SimConfig, seed: int) -> Flight:
    """The flight with its true increments corrupted by the config's VO drift.

    Position increments are scaled by (1 + vo_scale_error), then perturbed by
    white noise of sigma vo_pos_noise_m per axis plus a bias that
    random-walks with sigma vo_bias_walk_m per step. Rotation increments are
    left-multiplied by a small random rotation with vo_rot_noise_deg per
    axis. Per step the draw order is fixed (bias walk, position noise,
    rotation noise, 3 values each) so runs are reproducible. Row 0 is the
    identity; the times and poses are the flight's own.
    """
    if not len(flight):
        raise ValueError("simulate_vo needs at least one frame")
    rng = np.random.default_rng(np.random.SeedSequence([_check_seed(seed), _VO_STREAM]))
    dp, dR = np.zeros_like(flight.dp), np.empty_like(flight.dR)
    dR[0] = np.eye(3)
    bias = np.zeros((1, 3))
    for lo in range(1, len(flight), _VO_BLOCK):
        block = slice(lo, lo + _VO_BLOCK)
        true_dp = flight.dp[block]
        # (m, 9) normals: the same stream as three standard_normal(3) per step.
        draws = rng.standard_normal((len(true_dp), 9))
        # The walk goes on from the last block's end (zeros before the first),
        # summed step by step as 0.0 + step_1 + ... + step_k.
        steps = draws[:, 0:3] * cfg.vo_bias_walk_m
        bias = np.cumsum(np.concatenate([bias[-1:], steps]), axis=0)[1:]
        dp[block] = (1.0 + cfg.vo_scale_error) * true_dp + draws[:, 3:6] * cfg.vo_pos_noise_m + bias
        noise_R = _euler_to_rotmats(draws[:, 6:9] * cfg.vo_rot_noise_deg)
        dR[block] = _products(noise_R, flight.dR[block])
    return Flight(flight.t, flight.truth, dp, dR)


def _products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[i] @ B[i] for two (n, 3, 3) stacks, each entry a0*b0 + a1*b1 + a2*b2
    summed left to right by elementwise ufuncs no BLAS kernel can fuse or
    reorder: the plain-float formula's bits on every machine."""
    out = A[:, :, 0, None] * B[:, None, 0, :]
    for k in (1, 2):
        out += A[:, :, k, None] * B[:, None, k, :]
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


def _columns(poses: list[Pose6D]) -> np.ndarray:
    # The (n, 6) columns of n poses, streamed in.
    return np.fromiter(chain.from_iterable(poses), float, 6 * len(poses)).reshape(-1, 6)


def _path_length(columns: np.ndarray) -> float:
    # inf, without a RuntimeWarning, where a step or the sum overflows.
    with np.errstate(over="ignore"):
        return float(np.sum(np.linalg.norm(np.diff(columns[:, :3], axis=0), axis=1)))


def _score(est: np.ndarray, truth: np.ndarray) -> RmseSummary:
    """The errors of est against truth, two equally long (n, >= 5) column
    arrays led by x, y, z, psi, theta: the one scorer of ``rmse``,
    ``run_experiment`` and ``crossview eval``. A truth path of zero or
    overflowing length (pos_pct divides by it) raises, as does a position
    error whose mean square overflows."""
    length = _path_length(truth)
    if not 0.0 < length < math.inf:
        why = "has zero length" if length == 0.0 else "length overflows"
        raise ValueError(f"the truth path {why}, so pos_pct is undefined")
    with np.errstate(over="ignore"):
        err = est[:, :5] - truth[:, :5]
        pos_rmse = float(np.sqrt(np.mean(np.sum(err[:, :3] ** 2, axis=1))))
    if not math.isfinite(pos_rmse):
        raise ValueError("position errors too large to score: their mean square overflows")
    psi_err = wrap_angles(err[:, 3])
    theta_err = wrap_angles(err[:, 4])
    return RmseSummary(
        pos_rmse_m=pos_rmse,
        pos_pct=100.0 * pos_rmse / length,
        psi_rmse_deg=float(np.sqrt(np.mean(psi_err**2))),
        theta_rmse_deg=float(np.sqrt(np.mean(theta_err**2))),
    )


def rmse(estimates: list[Pose6D], truth: list[Pose6D]) -> RmseSummary:
    """Compare an estimated trajectory against truth, frame by frame.

    Angle residuals are wrapped, so an estimate at -179 deg against a truth
    of +179 deg counts as 2 degrees of error, not 358. :func:`_score` scores
    the two, and raises on an overflow, in the errors or in the truth's path
    length, and on a zero path length.
    """
    if len(estimates) != len(truth):
        raise ValueError(
            f"trajectory length mismatch: {len(estimates)} vs {len(truth)}"
        )
    if not truth:
        raise ValueError("trajectory is empty")
    return _score(_columns(estimates), _columns(truth))


# --- end-to-end experiment -------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    """One seed's flight plus per-method estimated trajectories and errors."""

    seed: int
    frames: Flight
    estimates: dict[str, list[Pose6D]]
    summaries: dict[str, RmseSummary]


def _make_backends(cfg: SimConfig, seed: int) -> dict[str, object]:
    return {
        "vo_only": None,
        "vo_scene": SceneMatcher(cfg, seed),
        "vo_regression": SyntheticMatcher(cfg, "regression", seed),
        "vo_hybrid": SyntheticMatcher(cfg, "hybrid", seed),
    }


def _run_pipelines(
    flight: Flight,
    backends: list,
    cfg: SimConfig,
    tile_set: TileSet | None,
) -> list[tuple[list[Pose6D], np.ndarray]]:
    """Filter one flight per backend (None: dead reckoning), in lockstep.

    Every pipeline takes frame i, predicting it and correcting it every stride
    frames, before any takes frame i + 1; at a correction frame all backends
    get the same UavObservation. Returns one (pose per frame, final 6x6
    covariance) per backend. The flight was checked when built, so each step
    reads its increment from lists of ``_VO_BLOCK`` rows of the columns, runs
    :func:`predict`'s kernel, ``geometry._compose``, in plain floats on all
    poses at once, and adds q to the variances of each P, held as its nine
    block entries (``fusion._block_matrix``); a correction runs the kernels of
    ``match_frame``, :func:`fuse` and :func:`correct`'s block branch, which
    make the checks that depend on the data and call no LAPACK; backends of
    one ``_key`` (regression and hybrid) share the frame's table of draws. At
    k_candidates = 1, which leaves no scatter, each backend's
    ``_lone_variances`` on this grid stand in, checked once here.
    ``_compose`` builds its poses unchecked, so each finished track is
    checked once as columns: a position that overflowed raises a ValueError
    naming the pipeline and the first non-finite frame.
    """
    lone = [
        _checked_fallback(b._lone_variances(tile_set.spacing))
        if b is not None and cfg.k_candidates == 1 else None
        for b in backends
    ]
    q = float(cfg.process_noise_var)
    start = FilterState.initial(Pose6D(*flight.truth[0].tolist()), cfg.init_cov_var)
    poses = [start.pose] * len(backends)
    P9s = [_block_entries(start.P)] * len(backends)
    tracks = [[start.pose] for _ in backends]
    stride = cfg.correction_stride
    n = len(flight)
    for lo in range(1, n, _VO_BLOCK):
        dps = flight.dp[lo : lo + _VO_BLOCK].tolist()
        dRs = flight.dR[lo : lo + _VO_BLOCK].reshape(-1, 9).tolist()
        for i, dp, dR in zip(range(lo, n), dps, dRs):
            poses = _compose(poses, dp, dR)
            P9s = [(xx + q, xy, xz, yy + q, yz, zz + q, pp + q, pt + q, pf + q)
                   for xx, xy, xz, yy, yz, zz, pp, pt, pf in P9s]
            if i % stride == 0:
                obs = UavObservation(i, Pose6D(*flight.truth[i].tolist()))
                tables = {}  # this frame's draws, one table per backend key
                for j, backend in enumerate(backends):
                    if backend is not None:
                        pose = poses[j]
                        candidates = k_nearest(tile_set, pose[:2], cfg.k_candidates)
                        table = tables.setdefault(backend._key, {})
                        z, M8 = _fuse_rows(backend._match_rows(obs, candidates, table), lone[j])
                        poses[j], P9s[j] = _correct_blocks(pose, P9s[j], z, M8)
            for track, pose in zip(tracks, poses):
                track.append(pose)
    for j, (backend, track) in enumerate(zip(backends, tracks)):
        columns = _columns(track)
        if not np.isfinite(columns).all():
            i, k = np.argwhere(~np.isfinite(columns))[0]
            name = "dead reckoning" if backend is None else type(backend).__name__
            raise ValueError(
                f"pipeline {j} ({name}), frame {i}: Pose6D.{Pose6D._fields[k]} must be finite,"
                f" got {float(columns[i, k])!r}"
            )
    return [(track, _block_matrix(P9)) for track, P9 in zip(tracks, P9s)]


def run_experiment(cfg: SimConfig, tile_set: TileSet, seed: int) -> ExperimentResult:
    """Run all four pipelines over one seeded flight and summarize errors.

    Every pipeline sees the same truth and the same drifting VO increments;
    only the correction backend differs, so per-seed comparisons between
    methods are paired.
    """
    if cfg.k_candidates > len(tile_set):
        raise ValueError(
            f"k_candidates={cfg.k_candidates} exceeds tile count {len(tile_set)}"
        )
    _check_distance_model(cfg, tile_set)
    frames = gen_trajectory(cfg, seed)
    drifted = simulate_vo(frames, cfg, seed)
    backends = _make_backends(cfg, seed)
    runs = _run_pipelines(drifted, [backends[m] for m in METHODS], cfg, tile_set)
    estimates = {method: poses for method, (poses, _) in zip(METHODS, runs)}
    summaries = {method: _score(_columns(poses), frames.truth) for method, poses in estimates.items()}
    return ExperimentResult(seed, frames, estimates, summaries)


def _check_distance_model(cfg: SimConfig, tile_set: TileSet) -> None:
    """ValueError unless every squared gap between this flight's estimates
    and the grid, and the scored sum of their squared errors, is finite, and
    ConfigError unless every feature distance a matcher can draw on them is;
    a refusal names the grid or the dominant key.

    Every normal draw lies below _MAX_JITTER in magnitude. The camera's ground
    point lies within length_m + (alt_base_m + alt_amp_m) tan(MAX_TILT_DEG) of
    the start and every tile centre within the grid's farthest corner, so a
    match's gap is at most their sum. Over n frames a dead-reckoned estimate
    strays at most |1 + vo_scale_error| length_m + _MAX_JITTER sqrt(2)
    (n vo_pos_noise_m + n^2 vo_bias_walk_m); k_nearest's query, an estimate,
    lies within that reach plus the matches' gap. With the truth within
    length_m of the start and alt_base_m + alt_amp_m of the ground, n squared
    3-D errors sum to at most 3n (reach + length_m + alt_base_m + alt_amp_m)^2,
    which also bounds k_nearest's dx^2 + dy^2.
    """
    corner = math.hypot(
        max(abs(tile_set.x_min), abs(tile_set.x_max)), max(abs(tile_set.y_min), abs(tile_set.y_max))
    )
    tan_tilt = math.ceil(math.tan(math.radians(MAX_TILT_DEG)))  # 1 at 45 degrees
    gap = cfg.length_m + tan_tilt * cfg.alt_base_m + tan_tilt * cfg.alt_amp_m + corner
    n, per_step = cfg.frame_count, _MAX_JITTER * math.sqrt(2.0)
    drift = {
        "vo_scale_error": abs(1.0 + cfg.vo_scale_error) * cfg.length_m,
        "vo_pos_noise_m": per_step * n * cfg.vo_pos_noise_m,
        "vo_bias_walk_m": per_step * n * n * cfg.vo_bias_walk_m,
    }
    scale, noise, walk = drift.values()  # added by +: 3.12's builtin sum compensates
    reach = scale + noise + walk + gap
    err = reach + cfg.length_m + cfg.alt_base_m + cfg.alt_amp_m
    if not math.isfinite(3.0 * n * err * err):
        name = max(drift, key=drift.get)
        if drift[name] <= corner:
            x, y = (tile_set.x_min, tile_set.x_max), (tile_set.y_min, tile_set.y_max)
            raise ValueError(f"tile grid x {x}, y {y} lies too far from the flight to square its gaps")
        raise ConfigError(
            f"{name} lets the dead-reckoned track stray too far to square its gaps to the tile"
            f" grid and its errors against the truth: it can reach {reach:g} m from the start"
        )
    slope, jitter = cfg.d_slope * gap, cfg.d_jitter * _MAX_JITTER
    if not math.isfinite(cfg.d0 + slope + jitter):
        name = "d_slope" if slope >= jitter else "d_jitter"
        raise ConfigError(
            f"{name} lets a feature distance overflow on this tile grid: d0 + d_slope x"
            f" {gap:g} m + d_jitter x {_MAX_JITTER:g} must be finite"
        )


def suggested_tile_bounds(flight: Flight) -> tuple[float, float, float, float]:
    """Grid bounds covering the flight with a margin, snapped to the default
    tile spacing."""
    xs, ys = flight.truth[:, 0], flight.truth[:, 1]
    margin, spacing = 300.0, DEFAULT_SPACING_M
    snap = lambda v, up: (math.ceil(v / spacing) if up else math.floor(v / spacing)) * spacing
    return (
        snap(float(xs.min()) - margin, False),
        snap(float(xs.max()) + margin, True),
        snap(float(ys.min()) - margin, False),
        snap(float(ys.max()) + margin, True),
    )


# --- text round trip -------------------------------------------------------


def _text(*values: float) -> str:
    return " ".join(map(repr, values))


# Every estimate row ends with the identity's columns: "0.0 0.0 0.0 0.0 -0.0 0.0".
_ZERO_INCREMENT = _text(0.0, 0.0, 0.0, *_rotmat_to_euler(np.eye(3).ravel().tolist()))


def save_trajectory(path: str, flight: Flight) -> None:
    """Write a flight as the versioned 13-column text format.

    Columns: t x y z psi theta phi dpx dpy dpz dpsi dtheta dphi. The rotation
    increment is stored as its z-y-x angles; on load it is rebuilt with
    :func:`euler_to_rotmat`, so those angles are the authoritative record.
    The flight's dR were checked when it was built, so none is checked again.
    """
    rows = []
    for lo in range(0, len(flight), _VO_BLOCK):
        block = slice(lo, lo + _VO_BLOCK)
        angles = map(_rotmat_to_euler, flight.dR[block].reshape(-1, 9).tolist())
        columns = zip(flight.t[block].tolist(), flight.truth[block].tolist(),
                      flight.dp[block].tolist(), angles)
        rows += [_text(t, *pose, *dp, *a) for t, pose, dp, a in columns]
    write_rows(path, _TRAJ_HEADER, rows)


def save_estimates(path: str, times: list[float], poses: list[Pose6D]) -> None:
    """Write an estimated trajectory in the same format with zero increments."""
    if len(poses) != len(times):
        raise ValueError(f"{len(poses)} poses for {len(times)} times")
    rows = [f"{_text(float(t), *p)} {_ZERO_INCREMENT}" for t, p in zip(times, poses)]
    write_rows(path, _TRAJ_HEADER, rows)


def load_trajectory(path: str) -> Flight:
    """Parse a file written by :func:`save_trajectory`; errors carry path:line.

    The flight is :func:`_read_trajectory`'s checked columns, its dR rebuilt
    from their angles as the flight builders build theirs.
    """
    columns = _read_trajectory(path)
    dR = _euler_to_rotmats(columns[:, 10:13])
    return Flight(columns[:, 0], columns[:, 1:7], columns[:, 7:10], dR)


def _read_trajectory(path: str) -> np.ndarray:
    """The (n, 13) columns of a trajectory file, every row checked once.

    A row needs 13 values, each finite; a bad one is named by its column at
    ``path:line:``. A file without frames is refused. numpy's reader parses
    the file; :func:`_parse_columns` reads any file it cannot vouch for.
    """
    return read_table(path, _TRAJ_HEADER, len(_TRAJ_COLUMNS), _parse_columns)


def _parse_columns(rows) -> np.ndarray:
    values = []
    for tokens in rows:
        if len(tokens) != 13:
            raise ValueError(f"expected 13 columns, got {len(tokens)}")
        v = list(map(float, tokens))
        if not all(map(math.isfinite, v)):
            name, value = next((c, x) for c, x in zip(_TRAJ_COLUMNS, v) if not math.isfinite(x))
            raise ValueError(f"{name} must be finite, got {value!r}")
        values.append(v)
    if not values:
        raise ValueError("file contains no frames")
    return np.array(values)


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
