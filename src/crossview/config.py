"""Plain-text experiment configuration: `key = value` lines, strict keys.

The file format is intentionally dumb: one assignment per line, `#` starts a
comment, every key must be a known field of :class:`SimConfig`, and unknown or
duplicate keys are errors rather than silent typo sinks. Defaults reproduce
the standard benchmark flight, so an empty config is a valid one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .textfile import read_ascii

__all__ = ["ConfigError", "SimConfig", "load_config", "parse_config"]


# Floor of every feature distance: the matchers clamp to it, and d0 and fusion
# are checked against it, so inverse-distance weighting never divides by zero.
D_MIN = 1e-3

# Ceiling on a matcher's worst position error: an RMS figure in metres, times
# outlier_factor when outliers are drawn, or the scene altitude prior. From a
# few 1e6 m on, the filter's innovation covariance can grow too ill-conditioned
# and `run` aborts; the ceiling keeps a config that `simulate` accepts one that
# `run` accepts. Its square caps the filter's variances the same way.
MAX_POSITION_ERROR_M = 1e5

# Ceiling on a flight's frame count, duration_s * rate_hz: 13.9 h at 20 Hz.
# Every frame is built and held in memory, and the product can overflow.
MAX_FRAMES = 10**6


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or infeasible configuration."""


@dataclass(frozen=True)
class SimConfig:
    """Every knob of the simulated flight, drift model, and fusion pipeline:
    frozen, and validated once, when built, so its readers never re-check it."""

    # Flight: a straight lead-out leg (36% of the path), a 90-degree
    # connecting turn, then a wide orbit around the start point, flown at
    # constant speed. turn_radius_m is the connecting turn only; the orbit
    # radius follows from the lead length.
    length_m: float = 2500.0
    duration_s: float = 200.0
    rate_hz: float = 20.0
    turn_radius_m: float = 60.0
    straight_init_m: float = 100.0
    alt_base_m: float = 150.0
    alt_amp_m: float = 30.0
    alt_period_s: float = 120.0
    tilt_base_deg: float = 10.0
    tilt_amp_deg: float = 6.0
    tilt_period_s: float = 80.0

    # Visual odometry drift, per prediction step. The scale error dominates
    # by design: it is deterministic given the path, which keeps the
    # dead-reckoned RMSE inside its calibration band seed after seed.
    vo_scale_error: float = 0.165
    vo_pos_noise_m: float = 0.02
    vo_rot_noise_deg: float = 0.04
    vo_bias_walk_m: float = 0.0001

    # Filter schedule and tuning.
    correction_hz: float = 1.0
    k_candidates: int = 9
    process_noise_var: float = 0.01
    init_cov_var: float = 1.0

    # Matching backends. A small d0 keeps the 1/d weight contrast between
    # near and far candidates strong, which is what lets the scene-only
    # pipeline pull the estimate back toward the true scene center.
    d0: float = 5.0
    d_slope: float = 1.0
    d_jitter: float = 5.0
    outlier_prob: float = 0.0
    outlier_factor: float = 3.0
    common_frac: float = 0.8
    scene_altitude_m: float = 150.0
    scene_heading_deg: float = 0.0
    scene_tilt_deg: float = 22.5
    hybrid_horizontal_rms_m: float = 33.86
    hybrid_vertical_rms_m: float = 16.05
    hybrid_heading_rms_deg: float = 31.68
    hybrid_tilt_rms_deg: float = 6.28
    regression_horizontal_rms_m: float = 68.06
    regression_vertical_rms_m: float = 17.32
    regression_heading_rms_deg: float = 70.64
    regression_tilt_rms_deg: float = 7.94

    def __post_init__(self) -> None:
        self.validate()

    # Derived quantities -------------------------------------------------

    @property
    def speed(self) -> float:
        return self.length_m / self.duration_s

    @property
    def dt(self) -> float:
        return 1.0 / self.rate_hz

    @property
    def frame_count(self) -> int:
        return int(round(self.duration_s * self.rate_hz))

    @property
    def correction_stride(self) -> int:
        return int(round(self.rate_hz / self.correction_hz))

    @property
    def lead_m(self) -> float:
        """Length of the straight lead-out leg."""
        return 0.36 * self.length_m

    @property
    def orbit_radius_m(self) -> float:
        """Radius of the orbit flown around the start point."""
        return self.lead_m + self.turn_radius_m

    @property
    def orbit_m(self) -> float:
        """Arc length left over for the orbit after the lead and the turn."""
        return self.length_m - self.lead_m - 0.5 * math.pi * self.turn_radius_m

    def validate(self) -> "SimConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")

        def positive(**named: float) -> None:
            for name, value in named.items():
                if value <= 0.0:
                    raise ConfigError(f"{name} must be positive, got {value}")

        def non_negative(**named: float) -> None:
            for name, value in named.items():
                if value < 0.0:
                    raise ConfigError(f"{name} must be >= 0, got {value}")

        positive(
            length_m=self.length_m,
            duration_s=self.duration_s,
            rate_hz=self.rate_hz,
            turn_radius_m=self.turn_radius_m,
            alt_period_s=self.alt_period_s,
            tilt_period_s=self.tilt_period_s,
            correction_hz=self.correction_hz,
            init_cov_var=self.init_cov_var,
        )
        non_negative(
            straight_init_m=self.straight_init_m,
            alt_amp_m=self.alt_amp_m,
            tilt_amp_deg=self.tilt_amp_deg,
            vo_pos_noise_m=self.vo_pos_noise_m,
            vo_rot_noise_deg=self.vo_rot_noise_deg,
            vo_bias_walk_m=self.vo_bias_walk_m,
            process_noise_var=self.process_noise_var,
        )
        if self.vo_scale_error <= -1.0:
            raise ConfigError(
                f"vo_scale_error must be > -1, got {self.vo_scale_error}"
            )
        frames = self.duration_s * self.rate_hz
        if frames > MAX_FRAMES:
            raise ConfigError(
                f"duration_s * rate_hz must give at most {MAX_FRAMES} frames, got {frames:g}"
            )
        if self.frame_count < 2:
            raise ConfigError("duration_s * rate_hz must give at least 2 frames")
        # P starts at init_cov_var and grows by process_noise_var a frame; past
        # the square of the position ceiling a variance first degrades the
        # corrections (1e20 already moves the result), then overflows P.
        ceiling = MAX_POSITION_ERROR_M**2
        largest = self.init_cov_var + (self.frame_count - 1) * self.process_noise_var
        if largest > ceiling:
            name = "init_cov_var" if self.init_cov_var > ceiling else "process_noise_var"
            raise ConfigError(
                f"{name} must keep the largest filter variance, init_cov_var +"
                f" (frame_count - 1) x process_noise_var, within {ceiling:g}, got {largest:g}"
            )
        if self.alt_base_m - self.alt_amp_m < 100.0 or self.alt_base_m + self.alt_amp_m > 200.0:
            raise ConfigError(
                "altitude profile must stay within [100, 200] m:"
                f" base {self.alt_base_m} +/- {self.alt_amp_m}"
            )
        if self.tilt_base_deg - self.tilt_amp_deg < 0.0 or self.tilt_base_deg + self.tilt_amp_deg > 45.0:
            raise ConfigError(
                "tilt profile must stay within [0, 45] deg:"
                f" base {self.tilt_base_deg} +/- {self.tilt_amp_deg}"
            )
        if self.orbit_m < 0.0:
            raise ConfigError(
                f"turn_radius_m={self.turn_radius_m} leaves no room for the"
                f" orbit (need pi*r/2 <= {0.64 * self.length_m:.1f} m); reduce it"
            )
        if self.straight_init_m > self.lead_m:
            raise ConfigError(
                f"straight_init_m={self.straight_init_m} exceeds the lead leg"
                f" ({self.lead_m:.1f} m)"
            )
        stride = self.rate_hz / self.correction_hz
        if not math.isfinite(stride) or abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise ConfigError(
                f"rate_hz/correction_hz must be a positive integer, got {stride}"
            )
        # Frame i is corrected when i % stride == 0, and frame 0 never is.
        if self.correction_stride >= self.frame_count:
            raise ConfigError(
                f"correction_hz must give a correction within the flight: rate_hz/correction_hz"
                f" = {self.correction_stride} must be below the {self.frame_count} frames"
            )
        k = self.k_candidates
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
            raise ConfigError(f"k_candidates must be an integer >= 1, got {k!r}")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ConfigError(f"outlier_prob must lie in [0, 1], got {self.outlier_prob}")
        if not 0.0 <= self.common_frac < 1.0:
            raise ConfigError(f"common_frac must lie in [0, 1), got {self.common_frac}")
        if self.outlier_factor < 1.0:
            raise ConfigError(f"outlier_factor must be >= 1, got {self.outlier_factor}")
        if self.d0 < D_MIN:
            raise ConfigError(f"d0 must be >= {D_MIN}, got {self.d0}")
        rms = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name.startswith(("hybrid_", "regression_"))
        }
        positive(scene_altitude_m=self.scene_altitude_m)
        if self.scene_altitude_m > MAX_POSITION_ERROR_M:
            raise ConfigError(
                f"scene_altitude_m must lie within {MAX_POSITION_ERROR_M:g} m,"
                f" got {self.scene_altitude_m:g} m"
            )
        non_negative(**rms)
        worst = self.outlier_factor if self.outlier_prob > 0.0 else 1.0
        for name, value in rms.items():
            if name.endswith("_m"):
                if value * worst > MAX_POSITION_ERROR_M:
                    raise ConfigError(
                        f"{name} must keep the worst position error within"
                        f" {MAX_POSITION_ERROR_M:g} m, got {value:g} m x outlier_factor {worst:g}"
                    )
            # The matchers square each RMS figure into a variance.
            elif not math.isfinite(value * value):
                raise ConfigError(f"{name} must square to a finite variance, got {value}")
        non_negative(d_slope=self.d_slope, d_jitter=self.d_jitter)
        if not 0.0 <= self.scene_tilt_deg <= 45.0:
            raise ConfigError(
                f"scene_tilt_deg must lie in [0, 45], got {self.scene_tilt_deg}"
            )
        return self


_INT_FIELDS = {"k_candidates"}
_FIELD_NAMES = {f.name for f in dataclasses.fields(SimConfig)}


def parse_config(text: str, source: str = "<config>") -> SimConfig:
    """Parse `key = value` lines into a validated SimConfig."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            if key in _INT_FIELDS:
                values[key] = int(value_text)
            else:
                values[key] = float(value_text)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    return SimConfig(**values)


def load_config(path: str) -> SimConfig:
    return parse_config(read_ascii(path, ConfigError), source=path)


def describe_defaults() -> str:
    """One `key = value` line per field, for --help output."""
    cfg = SimConfig()
    lines = []
    for f in dataclasses.fields(SimConfig):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    return "\n".join(lines)
