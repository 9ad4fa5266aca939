"""Cross-view matching backends that stand in for the trained networks.

A backend scores one UAV frame against one satellite tile and returns a
``MatchResult``: a feature-space distance d plus a camera pose estimate. Two
synthetic backends are provided (a truth-plus-noise surrogate for the hybrid
and regression-only networks, and a tile-center surrogate for scene-only
retrieval). Each is built from a ``SimConfig``, the one calibration source:
every backend reads the distance model (``d0``, ``d_slope``, ``d_jitter``);
the hybrid and regression surrogates read their ``<kind>_*_rms_*`` figures
(:func:`match_variances` gives their squares), ``outlier_prob``,
``outlier_factor`` and ``common_frac``; the scene surrogate reads the
``scene_*`` priors, and the flight's altitude and tilt profiles for its
lone-candidate variances.

Each backend holds one Philox generator (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) keyed by its seed, and reads its noise
for a (frame, slot) pair by setting the counter to [0, 0, slot, frame]: slot 0
is the per-frame stream, slot tile_id + 1 the stream of a (frame, tile) pair.
Every pair has its own address, so results do not depend on call order or on
what any other backend drew. The per-frame stream models the error the real
networks share across candidates scored on the same query image; the per-pair
stream models the rest. ``common_frac`` splits the configured variance between
the two, leaving each match's total error variance unchanged. A backend keeps
its generator's state, so threads matching concurrently should each build
their own backend: one matcher per thread.

A backend's ``_match_rows`` is its one scoring kernel: it returns plain rows
that the filter loop fuses directly, and ``match_frame`` checks each row into
a MatchResult. Downstream consumers (fusion, filtering) see only those fields;
the truth pose inside ``UavObservation`` is for backends alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import D_MIN, MAX_TILT_DEG, SimConfig
from .geometry import Pose6D, _wrap_angle, ground_intersection, wrap_angle
from .tiles import TileRecord

__all__ = [
    "D_MIN",
    "MatchResult",
    "SceneMatcher",
    "SyntheticMatcher",
    "UavObservation",
    "match_variances",
]


@dataclass(frozen=True)
class UavObservation:
    """One UAV camera frame, identified by index, with its ground-truth pose."""

    frame: int
    truth: Pose6D

    def __post_init__(self) -> None:
        # The frame is a word of each matcher's Philox counter.
        if not 0 <= self.frame < 2**64:
            raise ValueError(f"frame index must lie in [0, 2**64), got {self.frame}")


@dataclass(frozen=True)
class MatchResult:
    """Backend output for one (frame, tile) pair, as ``match_frame`` checks a
    ``_match_rows`` row into it.

    d is the feature-space distance (always > 0, smaller means more alike).
    p_hat is the estimated camera position in meters, psi_hat/theta_hat the
    estimated heading and tilt in degrees (tilt already clamped to
    [0, MAX_TILT_DEG]). Values are coerced to builtin types, so a result built
    from numpy values (an array p_hat, numpy scalars) compares, hashes and
    prints like one built from plain floats.
    """

    d: float
    p_hat: tuple[float, float, float]
    psi_hat: float
    theta_hat: float
    tile_id: int

    def __post_init__(self) -> None:
        d, psi, theta = float(self.d), float(self.psi_hat), float(self.theta_hat)
        p_hat, tile_id = tuple(map(float, self.p_hat)), int(self.tile_id)
        if not 0.0 < d < math.inf:
            raise ValueError(f"d must be finite and > 0, got {d!r}")
        if len(p_hat) != 3 or not all(map(math.isfinite, p_hat)):
            raise ValueError(f"p_hat must be a finite 3-vector, got {p_hat!r}")
        if not -180.0 < psi <= 180.0:
            raise ValueError(f"psi_hat must lie in (-180, 180], got {psi!r}")
        if not 0.0 <= theta <= MAX_TILT_DEG:
            raise ValueError(f"theta_hat must lie in [0, {MAX_TILT_DEG:g}], got {theta!r}")
        if tile_id < 0:
            raise ValueError(f"tile_id must be >= 0, got {tile_id}")
        for name, value in zip(("d", "p_hat", "psi_hat", "theta_hat", "tile_id"),
                               (d, p_hat, psi, theta, tile_id)):
            object.__setattr__(self, name, value)


# Every |standard_normal()| numpy draws (a distance jitter, a VO drift step)
# lies below this: numpy's ziggurat sampler draws its tail as r + x, with
# r = 3.654 and x at most -log(2**-53) / r = 10.06.
_MAX_JITTER = 14.0


def _sigmas(cfg: SimConfig, kind: str) -> tuple[float, float, float, float, float]:
    """Per-match pose error sigmas (x, y, z, psi, theta) of a synthetic kind.

    kind is "regression" or "hybrid"; the sigmas are the config's
    ``<kind>_*_rms_*`` figures, the horizontal one split evenly over x and y.
    """
    if kind not in ("regression", "hybrid"):
        raise ValueError(f"unknown matcher kind {kind!r}")
    h = getattr(cfg, f"{kind}_horizontal_rms_m") / math.sqrt(2.0)
    return (
        h,
        h,
        getattr(cfg, f"{kind}_vertical_rms_m"),
        getattr(cfg, f"{kind}_heading_rms_deg"),
        getattr(cfg, f"{kind}_tilt_rms_deg"),
    )


def match_variances(cfg: SimConfig, kind: str) -> np.ndarray:
    """Per-match pose error variances of a synthetic kind, in measurement
    order (x, y, z, psi, theta): the squares of its configured sigmas."""
    return np.array([s**2 for s in _sigmas(cfg, kind)])


def _check_seed(seed: int) -> int:
    """The seed as an int, if it can key a Philox generator: [0, 2**128)."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    return int(seed)


def _philox_at(seed: int):
    """at(frame, slot): a Philox generator keyed by seed, set to counter [0, 0, slot, frame]."""
    rng = np.random.Generator(np.random.Philox(key=_check_seed(seed)))
    # A fresh state (empty buffer, counter zero) whose arrays, as int lists, load
    # fast; each call changes only the counter's top two words and loads it back.
    state = rng.bit_generator.state
    state["state"] = {k: v.tolist() for k, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    counter = state["state"]["counter"]

    def at(frame: int, slot: int) -> np.random.Generator:
        counter[2], counter[3] = slot, frame
        rng.bit_generator.state = state
        return rng

    return at


class _Backend:
    """What every backend reads from the config: the distance model, plus its
    keyed noise stream.

    Each backend owns its ``_lone_variances``: the (x, y, z, psi, theta)
    error variances of one match, fused when k = 1 leaves no scatter.
    """

    def __init__(self, cfg: SimConfig, seed: int):
        self.d0, self.d_slope, self.d_jitter = map(float, (cfg.d0, cfg.d_slope, cfg.d_jitter))
        self._noise_at = _philox_at(seed)

    def match_frame(self, obs: UavObservation, tiles) -> list[MatchResult]:
        """Score one frame against each tile, in the order given: a checked
        MatchResult per row of the backend's ``_match_rows``."""
        return [
            MatchResult(d, (x, y, z), psi, theta, tile_id)
            for d, tile_id, x, y, z, psi, theta in self._match_rows(obs, tiles)
        ]

    def _distance(self, scene: tuple[float, float], tile: TileRecord, jitter: float) -> float:
        """d0 + d_slope * |scene center - tile center| + half-normal jitter, floored.

        scene is the camera's ground point, from :func:`ground_intersection`.
        """
        sx, sy = scene
        gap = math.hypot(sx - tile.x, sy - tile.y)
        d = self.d0 + self.d_slope * gap + self.d_jitter * abs(jitter)
        return max(d, D_MIN)


class SyntheticMatcher(_Backend):
    """Truth-plus-noise surrogate for a trained cross-view network.

    kind is "regression" or "hybrid", the config figures it reads. The pose
    estimate is the true camera pose corrupted by that kind's configured
    noise; the feature distance grows linearly with how far the tile sits
    from the ground point the camera actually looks at, so nearby tiles score
    better, as a real matching network would.
    """

    def __init__(self, cfg: SimConfig, kind: str, seed: int):
        super().__init__(cfg, seed)
        self.sigma_xy, _, self.sigma_z, self.sigma_psi, self.sigma_theta = map(
            float, _sigmas(cfg, kind)
        )
        self.outlier_prob, self.outlier_factor = float(cfg.outlier_prob), float(cfg.outlier_factor)
        # common_frac of each error's variance is shared by the frame's tiles.
        self.shared_scale = math.sqrt(cfg.common_frac)
        self.own_scale = math.sqrt(1.0 - cfg.common_frac)
        self._variances = tuple(match_variances(cfg, kind).tolist())

    def _lone_variances(self, spacing: float) -> tuple[float, ...]:
        """Its kind's configured variances, :func:`match_variances`."""
        return self._variances

    def match_pair(self, obs: UavObservation, tile: TileRecord) -> MatchResult:
        return self.match_frame(obs, [tile])[0]

    def _match_rows(self, obs: UavObservation, tiles) -> list[tuple]:
        """Score one frame against each tile, in the order given, as plain rows.

        Each row is (d, tile_id, x, y, z, psi, theta), floats but tile_id,
        MatchResult's fields before its checks: d is floored at D_MIN, psi
        wrapped and theta clamped, but an extreme calibration can still
        overflow a value to inf or nan; :func:`fusion._fuse_rows` rejects it.
        The per-frame draw and the camera's ground point are computed once,
        not per tile.
        """
        at, frame = self._noise_at, obs.frame
        # Per-frame stream, 5 normals (x, y, z, psi, theta): the error
        # component shared by every tile paired with this frame.
        c, i = self.shared_scale, self.own_scale
        s0, s1, s2, s3, s4 = [c * v for v in at(frame, 0).standard_normal(5).tolist()]
        truth = obs.truth
        x, y, z, psi, theta = truth.x, truth.y, truth.z, truth.psi, truth.theta
        sxy, sz, spsi, stheta = self.sigma_xy, self.sigma_z, self.sigma_psi, self.sigma_theta
        outlier_prob, f = self.outlier_prob, self.outlier_factor
        distance, scene = self._distance, ground_intersection(truth)
        rows = []
        for tile in tiles:
            # Per-pair stream: outlier gate, then 6 normals, 5 for the rest
            # of the pose error and the distance jitter.
            rng = at(frame, tile.tile_id + 1)
            gate = rng.random()
            e0, e1, e2, e3, e4, jitter = rng.standard_normal(6).tolist()
            m0, m1, m2, m3, m4 = s0 + i * e0, s1 + i * e1, s2 + i * e2, s3 + i * e3, s4 + i * e4
            if gate < outlier_prob:
                m0, m1, m2, m3, m4 = m0 * f, m1 * f, m2 * f, m3 * f, m4 * f
            rows.append((
                distance(scene, tile, jitter),
                tile.tile_id,
                x + sxy * m0,
                y + sxy * m1,
                z + sz * m2,
                _wrap_angle(psi + spsi * m3),
                min(max(theta + stheta * m4, 0.0), MAX_TILT_DEG),
            ))
        return rows


class SceneMatcher(_Backend):
    """Retrieval-only surrogate: the camera is assumed to sit over the tile.

    Scene retrieval knows which tile it matched but nothing else, so the
    position estimate is the tile center at the configured nominal altitude
    (``scene_altitude_m``) and the orientation estimate is a fixed prior
    (``scene_heading_deg``, ``scene_tilt_deg``). Only the feature distance
    carries information about which candidate is right.
    """

    def __init__(self, cfg: SimConfig, seed: int):
        super().__init__(cfg, seed)
        self.altitude = float(cfg.scene_altitude_m)
        self.heading_prior = wrap_angle(cfg.scene_heading_deg)
        self.tilt_prior = float(cfg.scene_tilt_deg)
        # The priors' mean squared errors (z, psi, theta): a profile
        # base + amp sin(.) misses its prior by (base - prior)^2 + amp^2 / 2 on
        # average, and a fixed heading misses a uniform one by 180^2 / 3.
        dz, dt = cfg.alt_base_m - self.altitude, cfg.tilt_base_deg - self.tilt_prior
        self._mse = (dz * dz + cfg.alt_amp_m**2 / 2, 180.0**2 / 3, dt * dt + cfg.tilt_amp_deg**2 / 2)

    def _lone_variances(self, spacing: float) -> tuple[float, ...]:
        """The priors' mean squared errors: a tile centre is off by up to half
        a spacing on each axis, spacing^2 / 12 (inf if that overflows)."""
        xy = spacing * spacing / 12.0
        return (xy, xy, *self._mse)

    def match_pair(self, obs: UavObservation, tile: TileRecord) -> MatchResult:
        return self.match_frame(obs, [tile])[0]

    def _match_rows(self, obs: UavObservation, tiles) -> list[tuple]:
        """Score one frame against each tile, in the order given, as plain
        rows (d, tile_id, x, y, z, psi, theta); see SyntheticMatcher's."""
        scene = ground_intersection(obs.truth)
        at, altitude = self._noise_at, self.altitude
        psi, theta = self.heading_prior, self.tilt_prior
        # Per-pair stream, single draw: distance jitter normal.
        return [
            (
                self._distance(scene, tile, at(obs.frame, tile.tile_id + 1).standard_normal()),
                tile.tile_id, tile.x, tile.y, altitude, psi, theta,
            )
            for tile in tiles
        ]
