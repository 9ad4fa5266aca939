"""Cross-view matching backends that stand in for the trained networks.

A backend scores one UAV frame against one satellite tile and returns a
``MatchResult``: a feature-space distance d plus a camera pose estimate. Two
synthetic backends are provided (a truth-plus-noise surrogate for the hybrid
and regression-only networks, and a tile-center surrogate for scene-only
retrieval).

Noise is drawn from streams seeded per (master seed, frame) and per
(master seed, frame, tile), so results do not depend on call order. The
per-frame stream models the error the real networks share across candidates
scored on the same query image; the per-pair stream models the rest.
``common_frac`` splits the configured variance between the two, leaving each
match's total error variance unchanged. A ``UavObservation`` carries its
frame's memo of seeded streams, so backends handed the same observation seed
each stream once between them; every reader still draws from the stream's
freshly seeded state. A stream's memo entry also keeps what a
``SyntheticMatcher`` drew from it (the frame's 5 normals, or a pair's gate, 5
normals and jitter), so a second synthetic backend on the same seed, such as
regression beside hybrid in one run, reads those draws rather than resetting
the stream and drawing again. Threads matching concurrently should each
build their own observation.

Downstream consumers (fusion, filtering) only ever see MatchResults; the truth
pose inside ``UavObservation`` is for backends alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import D_MIN, SimConfig
from .geometry import Pose6D, _wrap_angle, ground_intersection, wrap_angle
from .tiles import TileRecord

__all__ = [
    "D_MIN",
    "MatchResult",
    "MatcherNoiseModel",
    "SceneMatcher",
    "SyntheticMatcher",
    "UavObservation",
    "noise_model",
]


@dataclass(frozen=True)
class UavObservation:
    """One UAV camera frame, identified by index, with its ground-truth pose.

    streams is the frame's memo of seeded noise streams and their synthetic
    draws (see :func:`_stream` and :func:`_synthetic_draws`); it lives as
    long as the observation and takes no part in equality.
    """

    frame: int
    truth: Pose6D
    streams: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValueError(f"frame index must be >= 0, got {self.frame}")


@dataclass(frozen=True, init=False)
class MatchResult:
    """Backend output for one (frame, tile) pair.

    d is the feature-space distance (always > 0, smaller means more alike).
    p_hat is the estimated camera position in meters, psi_hat/theta_hat the
    estimated heading and tilt in degrees (tilt already clamped to [0, 45]).
    """

    d: float
    p_hat: tuple[float, float, float]
    psi_hat: float
    theta_hat: float
    tile_id: int

    def __init__(self, d, p_hat, psi_hat, theta_hat, tile_id) -> None:
        # Coerce to builtin types, so a result built from numpy values (an
        # array p_hat, numpy scalars) compares, hashes and prints like one
        # built from plain floats. Written out rather than generated: the
        # matchers build one per (frame, tile) pair, and the dataclass
        # __init__ plus __post_init__ cost twice as much.
        d, psi, theta = float(d), float(psi_hat), float(theta_hat)
        p_hat, tile_id = tuple(map(float, p_hat)), int(tile_id)
        finite = math.isfinite
        if not 0.0 < d < math.inf:
            raise ValueError(f"d must be finite and > 0, got {d!r}")
        if len(p_hat) != 3 or not (finite(p_hat[0]) and finite(p_hat[1]) and finite(p_hat[2])):
            raise ValueError(f"p_hat must be a finite 3-vector, got {p_hat!r}")
        if not -180.0 < psi <= 180.0:
            raise ValueError(f"psi_hat must lie in (-180, 180], got {psi!r}")
        if not 0.0 <= theta <= 45.0:
            raise ValueError(f"theta_hat must lie in [0, 45], got {theta!r}")
        if tile_id < 0:
            raise ValueError(f"tile_id must be >= 0, got {tile_id}")
        values = self.__dict__
        values["d"], values["p_hat"], values["psi_hat"] = d, p_hat, psi
        values["theta_hat"], values["tile_id"] = theta, tile_id


@dataclass(frozen=True)
class MatcherNoiseModel:
    """Error calibration for the synthetic backends.

    sigma_* are standard deviations of the pose estimate errors (meters for
    position, degrees for angles). The feature distance follows
    d0 + d_slope * (scene-center distance to the tile) plus a half-normal
    jitter of scale d_jitter. With probability outlier_prob a pair's pose
    noise is inflated by outlier_factor. common_frac is the fraction of noise
    variance shared by all candidates of the same frame.
    """

    sigma_xy: float = 0.0
    sigma_z: float = 0.0
    sigma_psi: float = 0.0
    sigma_theta: float = 0.0
    d0: float = 5.0
    d_slope: float = 1.0
    d_jitter: float = 0.0
    outlier_prob: float = 0.0
    outlier_factor: float = 3.0
    common_frac: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma_xy", "sigma_z", "sigma_psi", "sigma_theta", "d_jitter"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not math.isfinite(self.d0) or self.d0 < D_MIN:
            raise ValueError(f"d0 must be >= {D_MIN}, got {self.d0!r}")
        if not math.isfinite(self.d_slope) or self.d_slope < 0.0:
            raise ValueError(f"d_slope must be >= 0, got {self.d_slope!r}")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError(f"outlier_prob must lie in [0, 1], got {self.outlier_prob!r}")
        if not math.isfinite(self.outlier_factor) or self.outlier_factor < 1.0:
            raise ValueError(f"outlier_factor must be >= 1, got {self.outlier_factor!r}")
        if not 0.0 <= self.common_frac < 1.0:
            raise ValueError(f"common_frac must lie in [0, 1), got {self.common_frac!r}")

    def variances(self) -> np.ndarray:
        """Per-match pose error variances in measurement order (x, y, z, psi, theta)."""
        sigmas = (self.sigma_xy, self.sigma_xy, self.sigma_z, self.sigma_psi, self.sigma_theta)
        return np.array([s**2 for s in sigmas])


def noise_model(cfg: SimConfig, kind: str) -> MatcherNoiseModel:
    """The configured error calibration of one backend kind.

    kind is "scene", "regression" or "hybrid". Every kind shares the
    config's distance model. Scene retrieval only produces distances, so its
    pose part stays zero; the other two take their per-match RMS errors from
    the config's ``<kind>_*_rms_*`` figures, the horizontal one split evenly
    over x and y.
    """
    distance = dict(d0=cfg.d0, d_slope=cfg.d_slope, d_jitter=cfg.d_jitter)
    if kind == "scene":
        return MatcherNoiseModel(**distance)
    if kind not in ("regression", "hybrid"):
        raise ValueError(f"unknown matcher kind {kind!r}")
    return MatcherNoiseModel(
        sigma_xy=getattr(cfg, f"{kind}_horizontal_rms_m") / math.sqrt(2.0),
        sigma_z=getattr(cfg, f"{kind}_vertical_rms_m"),
        sigma_psi=getattr(cfg, f"{kind}_heading_rms_deg"),
        sigma_theta=getattr(cfg, f"{kind}_tilt_rms_deg"),
        outlier_prob=cfg.outlier_prob,
        outlier_factor=cfg.outlier_factor,
        common_frac=cfg.common_frac,
        **distance,
    )


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _stream(obs: UavObservation, seed: int, *tags: int) -> np.random.Generator:
    """The stream seeded [seed, obs.frame, *tags], in its freshly seeded state.

    It is seeded once per observation and kept in ``obs.streams`` with that
    state; a later reader gets it reset to the state, so every reader draws
    what a newly seeded stream would give, whoever read it before.
    """
    key = (seed, *tags)
    entry = obs.streams.get(key)
    if entry is None:
        rng = np.random.default_rng(np.random.SeedSequence([seed, obs.frame, *tags]))
        obs.streams[key] = [rng, rng.bit_generator.state, None]
        return rng
    rng, state, _ = entry
    rng.bit_generator.state = state
    return rng


def _synthetic_draws(obs: UavObservation, seed: int, *tags: int):
    """SyntheticMatcher's draws from the stream [seed, obs.frame, *tags].

    Draw order on the per-frame stream (no tags): 5 standard normals (x, y,
    z, psi, theta). On a per-pair stream (tags is the tile id): outlier gate,
    5 standard normals, distance jitter normal. The draws are kept in the
    stream's memo entry, so another SyntheticMatcher on the same seed reads
    them instead of resetting the stream and drawing again.
    """
    entry = obs.streams.get((seed, *tags))
    if entry is not None and entry[2] is not None:
        return entry[2]
    rng = _stream(obs, seed, *tags)
    if tags:
        draws = rng.random(), rng.standard_normal(5).tolist(), rng.standard_normal()
    else:
        draws = rng.standard_normal(5).tolist()
    obs.streams[(seed, *tags)][2] = draws
    return draws


class SyntheticMatcher:
    """Truth-plus-noise surrogate for a trained cross-view network.

    The pose estimate is the true camera pose corrupted by the configured
    noise; the feature distance grows linearly with how far the tile sits
    from the ground point the camera actually looks at, so nearby tiles score
    better, as a real matching network would.
    """

    def __init__(self, noise: MatcherNoiseModel, seed: int = 0):
        self.noise = noise
        self._seed = _check_seed(seed)

    def match_pair(self, obs: UavObservation, tile: TileRecord) -> MatchResult:
        return self.match_frame(obs, [tile])[0]

    def match_frame(self, obs: UavObservation, tiles) -> list[MatchResult]:
        """Score one frame against each tile, in the order given.

        Equal to ``[match_pair(obs, t) for t in tiles]``, but the per-frame
        draw and the camera's ground point are computed once, not per tile.
        """
        noise, seed = self.noise, self._seed
        # Per-frame stream: the error component shared by every tile paired
        # with this frame.
        c = math.sqrt(noise.common_frac)
        shared = [c * v for v in _synthetic_draws(obs, seed)]
        i = math.sqrt(1.0 - noise.common_frac)
        truth = obs.truth
        scene = ground_intersection(truth)
        results = []
        for tile in tiles:
            # Per-pair stream: the rest of the pose error and the jitter.
            gate, own, jitter = _synthetic_draws(obs, seed, tile.tile_id)
            mixed = [a + i * b for a, b in zip(shared, own)]
            if gate < noise.outlier_prob:
                mixed = [v * noise.outlier_factor for v in mixed]
            p_hat = (
                truth.x + noise.sigma_xy * mixed[0],
                truth.y + noise.sigma_xy * mixed[1],
                truth.z + noise.sigma_z * mixed[2],
            )
            # Finite unless an extreme calibration overflows; the nan that
            # wrapping inf gives then fails MatchResult's range check.
            psi_hat = _wrap_angle(truth.psi + noise.sigma_psi * mixed[3])
            theta_hat = min(max(truth.theta + noise.sigma_theta * mixed[4], 0.0), 45.0)
            d = _distance_score(scene, tile, noise, jitter)
            results.append(MatchResult(d, p_hat, psi_hat, theta_hat, tile.tile_id))
        return results


class SceneMatcher:
    """Retrieval-only surrogate: the camera is assumed to sit over the tile.

    Scene retrieval knows which tile it matched but nothing else, so the
    position estimate is the tile center at a configured nominal altitude and
    the orientation estimate is a fixed prior. Only the feature distance
    carries information about which candidate is right.
    """

    def __init__(
        self,
        noise: MatcherNoiseModel,
        seed: int = 0,
        altitude: float = 150.0,
        heading_prior: float = 0.0,
        tilt_prior: float = 22.5,
    ):
        if not math.isfinite(altitude) or altitude <= 0.0:
            raise ValueError(f"altitude must be positive, got {altitude!r}")
        if not 0.0 <= tilt_prior <= 45.0:
            raise ValueError(f"tilt_prior must lie in [0, 45], got {tilt_prior!r}")
        self.noise = noise
        self._seed = _check_seed(seed)
        self.altitude = float(altitude)
        self.heading_prior = wrap_angle(heading_prior)
        self.tilt_prior = float(tilt_prior)

    def match_pair(self, obs: UavObservation, tile: TileRecord) -> MatchResult:
        return self.match_frame(obs, [tile])[0]

    def match_frame(self, obs: UavObservation, tiles) -> list[MatchResult]:
        """Score one frame against each tile, in the order given."""
        scene = ground_intersection(obs.truth)
        results = []
        for tile in tiles:
            # Per-pair stream, single draw: distance jitter normal.
            jitter = _stream(obs, self._seed, tile.tile_id).standard_normal()
            d = _distance_score(scene, tile, self.noise, jitter)
            p_hat = (tile.x, tile.y, self.altitude)
            results.append(
                MatchResult(d, p_hat, self.heading_prior, self.tilt_prior, tile.tile_id)
            )
        return results


def _distance_score(
    scene: tuple[float, float], tile: TileRecord, noise: MatcherNoiseModel, jitter: float
) -> float:
    """d0 + d_slope * |scene center - tile center| + half-normal jitter, floored.

    scene is the camera's ground point, from :func:`ground_intersection`.
    """
    sx, sy = scene
    gap = math.hypot(sx - tile.x, sy - tile.y)
    d = noise.d0 + noise.d_slope * gap + noise.d_jitter * abs(jitter)
    return max(d, D_MIN)
