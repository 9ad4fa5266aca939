"""Config parsing and validation."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from crossview.config import (
    MAX_FRAMES,
    MAX_POSITION_ERROR_M,
    ConfigError,
    SimConfig,
    describe_defaults,
    load_config,
    parse_config,
)
from crossview.sim import gen_trajectory


def test_defaults_validate():
    cfg = SimConfig().validate()
    assert cfg.frame_count == 4000
    assert cfg.correction_stride == 20
    assert cfg.speed == pytest.approx(12.5)
    assert cfg.dt == pytest.approx(0.05)


def test_a_config_cannot_change():
    cfg = SimConfig()
    for key, value in [("k_candidates", 1), ("d0", 0.0), ("scene_altitude_m", 120.0)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, key, value)
    assert cfg == SimConfig()


def test_a_config_is_checked_when_built():
    with pytest.raises(ConfigError, match="^k_candidates must be an integer >= 1"):
        SimConfig(k_candidates=0)
    with pytest.raises(ConfigError, match="^d0 must be >="):
        dataclasses.replace(SimConfig(), d0=0.0)


def test_scene_altitude_ceiling_is_inclusive():
    SimConfig(scene_altitude_m=MAX_POSITION_ERROR_M)
    with pytest.raises(ConfigError, match="^scene_altitude_m must lie within"):
        SimConfig(scene_altitude_m=MAX_POSITION_ERROR_M * (1 + 1e-15))


def test_derived_flight_geometry():
    cfg = SimConfig()
    assert cfg.lead_m == pytest.approx(900.0)
    assert cfg.orbit_radius_m == pytest.approx(960.0)
    # lead + quarter turn + orbit account for the whole path
    assert cfg.lead_m + 0.5 * 3.141592653589793 * cfg.turn_radius_m + cfg.orbit_m == pytest.approx(
        cfg.length_m
    )


def test_parse_empty_gives_defaults():
    assert parse_config("") == SimConfig()


def test_parse_overrides_and_comments():
    text = """
    # benchmark, shortened
    length_m = 1250   # half length
    duration_s = 100
    k_candidates = 4
    """
    cfg = parse_config(text)
    assert cfg.length_m == 1250.0
    assert cfg.duration_s == 100.0
    assert cfg.k_candidates == 4
    assert isinstance(cfg.k_candidates, int)
    assert cfg.rate_hz == 20.0  # untouched default


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("length_m 1250", "expected 'key = value'"),
        ("lenght_m = 1250", "unknown key"),
        ("length_m = 1250\nlength_m = 900", "duplicate key"),
        ("length_m = fast", "bad value"),
        ("k_candidates = 3.5", "bad value"),
        # past the float range: once an OverflowError from math.isfinite
        ("k_candidates = 1" + "0" * 400, "^k_candidates must be finite, got an integer too large"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigError, match=r"flight\.cfg:3"):
        parse_config("\n\nbogus = 1\n", source="flight.cfg")


@pytest.mark.parametrize(
    "overrides",
    [
        {"length_m": -1.0},
        {"length_m": float("nan")},
        {"duration_s": 0.0},
        {"rate_hz": 0.0},
        {"alt_base_m": 90.0},                          # dips below 100 m
        {"alt_base_m": 180.0, "alt_amp_m": 30.0},      # peaks above 200 m
        {"tilt_base_deg": 40.0, "tilt_amp_deg": 10.0}, # exceeds 45 deg
        {"tilt_base_deg": 3.0, "tilt_amp_deg": 6.0},   # goes negative
        {"correction_hz": 3.0},                        # 20/3 not an integer
        {"correction_hz": 40.0},                       # stride < 1
        {"turn_radius_m": 1200.0},                     # no room left for orbit
        {"straight_init_m": 1000.0},                   # longer than the lead leg
        {"k_candidates": 0},
        {"outlier_prob": 1.5},
        {"common_frac": 1.0},
        {"vo_scale_error": -1.0},
        {"scene_tilt_deg": 50.0},
        {"d0": 0.0},
        {"d_slope": -0.1},
        {"hybrid_horizontal_rms_m": -1.0},             # 0 is a noiseless matcher
        {"outlier_factor": 0.5},                       # would shrink outliers
        {"outlier_factor": float("nan")},
        {"scene_heading_deg": float("nan")},
        {"d0": 1e-4},                                  # below the D_MIN floor
        {"alt_base_m": float("nan")},                  # passes both profile bounds
        {"vo_pos_noise_m": -0.1},
        {"vo_rot_noise_deg": float("nan")},
        {"hybrid_heading_rms_deg": 1e200},             # its variance overflows
        {"regression_horizontal_rms_m": 1e308},
        {"regression_vertical_rms_m": 1.000001e5},     # above the position ceiling
        {"outlier_prob": 0.2, "outlier_factor": 1e4},  # outliers above it
        {"correction_hz": 0.005},                      # stride 4000: no frame corrected
        {"k_candidates": 9.0},
        {"k_candidates": True},
        {"scene_altitude_m": -5.0},
        {"d_jitter": -1.0},
        {"length_m": 10**400},                         # an int past the float range
    ],
)
def test_validate_rejects(overrides):
    with pytest.raises(ConfigError):
        SimConfig(**overrides).validate()


def test_position_error_ceiling_counts_outliers_only_when_drawn():
    keys = [
        f"{m}_{axis}_rms_m" for m in ("hybrid", "regression") for axis in ("horizontal", "vertical")
    ]
    at_ceiling = {key: MAX_POSITION_ERROR_M / 10 for key in keys}
    SimConfig(outlier_prob=0.2, outlier_factor=10.0, **at_ceiling).validate()
    SimConfig(outlier_prob=0.0, outlier_factor=1e6, **at_ceiling).validate()
    with pytest.raises(ConfigError, match="^hybrid_horizontal_rms_m .*outlier_factor 11"):
        SimConfig(outlier_prob=0.2, outlier_factor=11.0, **at_ceiling).validate()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"init_cov_var": 1e308}, "init_cov_var"),          # overflowed P in run
        ({"init_cov_var": 1e20}, "init_cov_var"),           # silently moved the result
        ({"process_noise_var": 1e306}, "process_noise_var"),
        ({"init_cov_var": 1e10, "process_noise_var": 1e-3}, "process_noise_var"),
    ],
)
def test_validate_caps_the_filter_variances(overrides, key):
    with pytest.raises(ConfigError, match=f"^{key} must keep the largest filter variance"):
        SimConfig(**overrides).validate()


def test_filter_variance_ceiling_is_inclusive():
    ceiling = MAX_POSITION_ERROR_M**2
    SimConfig(init_cov_var=ceiling, process_noise_var=0.0).validate()
    cfg = SimConfig(init_cov_var=1.0, process_noise_var=(ceiling - 1.0) / 3999.0)
    assert cfg.frame_count == 4000
    assert cfg.init_cov_var + 3999 * cfg.process_noise_var <= ceiling
    cfg.validate()


def test_latest_correction_is_the_last_frame():
    # Frame i is corrected when i % stride == 0, and frame 0 never is: a
    # stride of frame_count - 1 corrects the last frame alone, one more none.
    cfg = SimConfig(correction_hz=20.0 / 3999).validate()
    assert cfg.correction_stride == cfg.frame_count - 1
    with pytest.raises(ConfigError, match="^correction_hz must give a correction"):
        SimConfig(correction_hz=20.0 / 4000).validate()


# The tilt profile's clock starts at straight_init_m / speed = 8 s.
@pytest.mark.parametrize("key, t0", [("alt_period_s", 0.0), ("tilt_period_s", 8.0)])
def test_a_period_is_refused_exactly_when_its_last_phase_overflows(key, t0):
    """gen_trajectory takes sin(2 pi t / period) at each frame; the least
    period that keeps it finite at the last frame flies, the one below it is
    refused by name: once it passed and ended in nan and a RuntimeWarning."""
    t = gen_trajectory(SimConfig(), seed=0).t[-1] - t0
    period = 2.0 * math.pi * t / sys.float_info.max
    while not math.isfinite(2.0 * math.pi * t / period):
        period = math.nextafter(period, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flight = gen_trajectory(SimConfig(**{key: period}), seed=0)
    assert np.isfinite(flight.truth).all()
    with pytest.raises(ConfigError, match=f"^{key} is too short for the flight"):
        SimConfig(**{key: math.nextafter(period, 0.0)})


def test_min_frames():
    with pytest.raises(ConfigError, match="at least 2 frames"):
        SimConfig(duration_s=0.05, rate_hz=20.0).validate()


@pytest.mark.parametrize(
    "overrides, message",
    [
        # The product overflows to inf: once an uncaught OverflowError.
        ({"duration_s": 1e200, "rate_hz": 1e200}, "duration_s * rate_hz must give at most"),
        # Finite, but asks for 2e10 frames.
        ({"duration_s": 1e9}, "duration_s * rate_hz must give at most"),
        # rate_hz / correction_hz overflows: once an uncaught OverflowError.
        ({"correction_hz": 1e-320}, "rate_hz/correction_hz must be a positive integer, got inf"),
    ],
)
def test_validate_rejects_overflowing_frame_counts(overrides, message):
    with pytest.raises(ConfigError, match=message.replace("*", r"\*")):
        SimConfig(**overrides).validate()


def test_frame_ceiling_is_inclusive():
    cfg = SimConfig(duration_s=MAX_FRAMES / 20.0, rate_hz=20.0).validate()
    assert cfg.frame_count == MAX_FRAMES
    with pytest.raises(ConfigError, match=f"at most {MAX_FRAMES} frames"):
        SimConfig(duration_s=MAX_FRAMES / 20.0 + 1.0, rate_hz=20.0).validate()


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("duration_s = 100\nlength_m = 1250\n")
    cfg = load_config(str(path))
    assert cfg.duration_s == 100.0
    with pytest.raises(ConfigError, match=str(path)):
        path.write_text("nope = 1\n")
        load_config(str(path))


def test_describe_defaults_covers_every_field():
    text = describe_defaults()
    for f in dataclasses.fields(SimConfig):
        assert f.name in text
    # and it round-trips through the parser
    parsed = parse_config(text)
    assert parsed.length_m == SimConfig.length_m
