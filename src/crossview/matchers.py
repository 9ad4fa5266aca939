"""Cross-view matching backends that stand in for the trained networks.

A backend scores one UAV frame against one satellite tile and returns a
``MatchResult``: a feature-space distance d plus a camera pose estimate. Two
synthetic backends are provided (a truth-plus-noise surrogate for the hybrid
and regression-only networks, and a tile-center surrogate for scene-only
retrieval), along with record/replay wrappers so a run can be captured to a
text file and replayed bit-identically without the original backend.

Noise is drawn from streams seeded per (master seed, frame) and per
(master seed, frame, tile), so results do not depend on call order and
concurrent matching over tiles is safe. The per-frame stream models the error
the real networks share across candidates scored on the same query image; the
per-pair stream models the rest. ``common_frac`` splits the configured
variance between the two, leaving each match's total error variance unchanged.

Downstream consumers (fusion, filtering) only ever see MatchResults; the truth
pose inside ``UavObservation`` is for backends alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Pose6D, ground_intersection, wrap_angle
from .tiles import TileRecord

__all__ = [
    "D_MIN",
    "MatchFileError",
    "MatchResult",
    "MatcherNoiseModel",
    "RecordingMatcher",
    "ReplayMatcher",
    "ReplayMissError",
    "SceneMatcher",
    "SyntheticMatcher",
    "UavObservation",
    "hybrid_noise_model",
    "regression_noise_model",
]

# Feature distances are floored here; downstream inverse-distance weighting
# must never divide by zero.
D_MIN = 1e-3

_HEADER = "#crossview-match-v1"


class ReplayMissError(KeyError):
    """A replay was asked for a (frame, tile) pair that was never recorded."""

    def __init__(self, frame: int, tile_id: int):
        super().__init__(f"no recorded match for frame {frame}, tile {tile_id}")
        self.frame = frame
        self.tile_id = tile_id


class MatchFileError(ValueError):
    """Raised for malformed match record files."""


@dataclass(frozen=True)
class UavObservation:
    """One UAV camera frame, identified by index, with its ground-truth pose."""

    frame: int
    truth: Pose6D

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValueError(f"frame index must be >= 0, got {self.frame}")


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        # Coerce to builtin floats so repr() round-trips through record files.
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "p_hat", tuple(float(v) for v in self.p_hat))
        object.__setattr__(self, "psi_hat", float(self.psi_hat))
        object.__setattr__(self, "theta_hat", float(self.theta_hat))
        object.__setattr__(self, "tile_id", int(self.tile_id))
        if not math.isfinite(self.d) or self.d <= 0.0:
            raise ValueError(f"d must be finite and > 0, got {self.d!r}")
        if len(self.p_hat) != 3 or not all(math.isfinite(v) for v in self.p_hat):
            raise ValueError(f"p_hat must be a finite 3-vector, got {self.p_hat!r}")
        if not -180.0 < self.psi_hat <= 180.0:
            raise ValueError(f"psi_hat must lie in (-180, 180], got {self.psi_hat!r}")
        if not 0.0 <= self.theta_hat <= 45.0:
            raise ValueError(f"theta_hat must lie in [0, 45], got {self.theta_hat!r}")
        if self.tile_id < 0:
            raise ValueError(f"tile_id must be >= 0, got {self.tile_id}")

    @property
    def position(self) -> np.ndarray:
        return np.array(self.p_hat, dtype=float)


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

    def zeroed(self) -> "MatcherNoiseModel":
        """Copy with every random component disabled (exact pose, d = d0 + slope)."""
        return replace(
            self, sigma_xy=0.0, sigma_z=0.0, sigma_psi=0.0, sigma_theta=0.0,
            d_jitter=0.0, outlier_prob=0.0,
        )


def hybrid_noise_model(common_frac: float = 0.8, **overrides) -> MatcherNoiseModel:
    """Calibration matching the measured hybrid-network error statistics.

    RMS errors per match: 33.86 m horizontal (split evenly over x and y),
    16.05 m vertical, 31.68 deg heading, 6.28 deg tilt.
    """
    return MatcherNoiseModel(
        sigma_xy=33.86 / math.sqrt(2.0),
        sigma_z=16.05,
        sigma_psi=31.68,
        sigma_theta=6.28,
        d_jitter=5.0,
        common_frac=common_frac,
        **overrides,
    )


def regression_noise_model(common_frac: float = 0.8, **overrides) -> MatcherNoiseModel:
    """Calibration matching the measured regression-only error statistics.

    RMS errors per match: 68.06 m horizontal, 17.32 m vertical, 70.64 deg
    heading, 7.94 deg tilt.
    """
    return MatcherNoiseModel(
        sigma_xy=68.06 / math.sqrt(2.0),
        sigma_z=17.32,
        sigma_psi=70.64,
        sigma_theta=7.94,
        d_jitter=5.0,
        common_frac=common_frac,
        **overrides,
    )


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


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
        stream and the camera's ground point are computed once, not per tile.
        """
        noise = self.noise
        # Per-frame stream: the error component shared by every tile paired
        # with this frame. Draw order: 5 standard normals (x, y, z, psi, theta).
        frame_rng = np.random.default_rng(
            np.random.SeedSequence([self._seed, obs.frame])
        )
        shared = math.sqrt(noise.common_frac) * frame_rng.standard_normal(5)
        i = math.sqrt(1.0 - noise.common_frac)
        truth = obs.truth
        scene = ground_intersection(truth)
        results = []
        for tile in tiles:
            # Per-pair stream. Draw order: outlier gate, 5 standard normals,
            # distance jitter normal.
            pair_rng = np.random.default_rng(
                np.random.SeedSequence([self._seed, obs.frame, tile.tile_id])
            )
            gate = pair_rng.random()
            own = pair_rng.standard_normal(5)
            jitter = pair_rng.standard_normal()

            mixed = shared + i * own
            if gate < noise.outlier_prob:
                mixed = mixed * noise.outlier_factor
            p_hat = (
                truth.x + noise.sigma_xy * mixed[0],
                truth.y + noise.sigma_xy * mixed[1],
                truth.z + noise.sigma_z * mixed[2],
            )
            psi_hat = wrap_angle(truth.psi + noise.sigma_psi * mixed[3])
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
            pair_rng = np.random.default_rng(
                np.random.SeedSequence([self._seed, obs.frame, tile.tile_id])
            )
            jitter = pair_rng.standard_normal()
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


class RecordingMatcher:
    """Wrap any backend and capture every result for later replay."""

    def __init__(self, inner):
        self._inner = inner
        self._records: dict[tuple[int, int], MatchResult] = {}

    def match_pair(self, obs: UavObservation, tile: TileRecord) -> MatchResult:
        result = self._inner.match_pair(obs, tile)
        self._records[(obs.frame, tile.tile_id)] = result
        return result

    def match_frame(self, obs: UavObservation, tiles) -> list[MatchResult]:
        return [self.match_pair(obs, tile) for tile in tiles]

    def __len__(self) -> int:
        return len(self._records)

    def save(self, path: str) -> None:
        lines = [_HEADER]
        for (frame, tile_id), r in self._records.items():
            lines.append(
                f"{frame} {tile_id} {r.d!r} {r.p_hat[0]!r} {r.p_hat[1]!r}"
                f" {r.p_hat[2]!r} {r.psi_hat!r} {r.theta_hat!r}"
            )
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")


class ReplayMatcher:
    """Serve previously recorded MatchResults keyed by (frame, tile)."""

    def __init__(self, records: dict[tuple[int, int], MatchResult]):
        self._records = dict(records)

    @classmethod
    def load(cls, path: str) -> "ReplayMatcher":
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read().splitlines()
        if not raw or raw[0].strip() != _HEADER:
            raise MatchFileError(f"{path}:1: expected header {_HEADER!r}")
        records: dict[tuple[int, int], MatchResult] = {}
        for lineno, line in enumerate(raw[1:], start=2):
            if not line.strip():
                continue
            tokens = line.split()
            if len(tokens) != 8:
                raise MatchFileError(
                    f"{path}:{lineno}: expected 'frame tile d px py pz psi theta'"
                )
            try:
                frame, tile_id = int(tokens[0]), int(tokens[1])
                d, px, py, pz, psi, theta = (float(t) for t in tokens[2:])
                records[(frame, tile_id)] = MatchResult(
                    d, (px, py, pz), psi, theta, tile_id
                )
            except ValueError as exc:
                raise MatchFileError(f"{path}:{lineno}: {exc}") from exc
        return cls(records)

    def match_pair(self, obs: UavObservation, tile: TileRecord) -> MatchResult:
        try:
            return self._records[(obs.frame, tile.tile_id)]
        except KeyError:
            raise ReplayMissError(obs.frame, tile.tile_id) from None

    def match_frame(self, obs: UavObservation, tiles) -> list[MatchResult]:
        return [self.match_pair(obs, tile) for tile in tiles]

    def __len__(self) -> int:
        return len(self._records)
