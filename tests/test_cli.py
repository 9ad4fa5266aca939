"""CLI subcommands, exercised through cli.main with tmp_path outputs."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

from crossview import sim
from crossview.cli import main
from crossview.config import MAX_POSITION_ERROR_M
from crossview.sim import load_trajectory
from crossview.tiles import generate_grid, load_tiles

SMALL_CFG = """
length_m = 625
duration_s = 50
turn_radius_m = 40
straight_init_m = 50
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


@pytest.fixture()
def tile_file(tmp_path):
    out = tmp_path / "tiles.txt"
    rc = main(
        ["gen-tiles", "--bounds", "-1200", "1200", "-1200", "1200", "--out", str(out)]
    )
    assert rc == 0
    return str(out)


def test_gen_tiles(tmp_path, capsys):
    out = tmp_path / "tiles.txt"
    rc = main(["gen-tiles", "--bounds", "0", "2000", "0", "1000", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote 861 tiles to {out}\n"
    assert out.read_text() == "#crossview-tiles-v2\nbounds 0.0 2000.0 0.0 1000.0 50.0\n"
    assert load_tiles(str(out)) == generate_grid(0.0, 2000.0, 0.0, 1000.0, 50.0)


def test_gen_tiles_bad_bounds(tmp_path, capsys):
    out = tmp_path / "tiles.txt"
    rc = main(["gen-tiles", "--bounds", "10", "0", "0", "100", "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_gen_tiles_overflowing_tile_count(tmp_path, capsys):
    out = tmp_path / "tiles.txt"
    argv = ["gen-tiles", "--bounds", "0", "1e308", "0", "1", "--spacing", "1e-300"]
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_writes_frames(tmp_path, small_cfg, capsys):
    out = tmp_path / "flight.txt"
    rc = main(["simulate", "--config", small_cfg, "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "#crossview-traj-v1"
    assert len(lines) == 1001  # header + 50 s at 20 Hz
    frames = load_trajectory(str(out))
    # increments in the file carry the drift, not the truth deltas
    drifted = frames.dp[500]
    truth_step = frames.truth[500, :3] - frames.truth[499, :3]
    assert not np.allclose(drifted, truth_step, atol=1e-6)


def test_simulate_default_config_byte_identical(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["simulate", "--seed", "1", "--out", str(a)]) == 0
    assert main(["simulate", "--seed", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_outputs(tmp_path, small_cfg, tile_file, capsys):
    out_dir = tmp_path / "results"
    rc = main(
        [
            "run",
            "--config",
            small_cfg,
            "--tiles",
            tile_file,
            "--seed",
            "0",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    for name in ("truth", "vo_only", "vo_scene", "vo_regression", "vo_hybrid"):
        assert (out_dir / f"{name}.txt").exists(), name
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,pos_rmse_m,pos_pct,psi_rmse_deg,theta_rmse_deg"
    methods = [line.split(",")[0] for line in summary[1:]]
    assert methods == ["vo_only", "vo_scene", "vo_regression", "vo_hybrid"]
    stdout = capsys.readouterr().out
    assert "vo_hybrid," in stdout
    truth = load_trajectory(str(out_dir / "truth.txt"))
    hybrid = load_trajectory(str(out_dir / "vo_hybrid.txt"))
    assert len(truth) == len(hybrid) == 1000


def test_eval_identical_files(tmp_path, small_cfg, capsys):
    out = tmp_path / "flight.txt"
    main(["simulate", "--config", small_cfg, "--out", str(out)])
    rc = main(["eval", "--est", str(out), "--truth", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "pos_rmse_m 0.0" in text
    assert "psi_rmse_deg 0.0" in text


def test_eval_missing_file(tmp_path, capsys):
    rc = main(["eval", "--est", str(tmp_path / "no.txt"), "--truth", str(tmp_path / "no.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_eval_prints_the_summary_of_run_bit_for_bit(tmp_path, small_cfg, tile_file, capsys):
    out = tmp_path / "results"
    argv = ["run", "--config", small_cfg, "--tiles", tile_file, "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    header, *rows = (out / "summary.csv").read_text().splitlines()
    names = header.split(",")[1:]
    capsys.readouterr()
    for row in rows:
        method, *values = row.split(",")
        argv = ["eval", "--est", str(out / f"{method}.txt"), "--truth", str(out / "truth.txt")]
        assert main(argv) == 0
        printed = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert printed == [[name, value] for name, value in zip(names, values)], method


def test_eval_refuses_a_nan_increment_at_its_line(tmp_path, small_cfg, capsys):
    truth = tmp_path / "flight.txt"
    assert main(["simulate", "--config", small_cfg, "--out", str(truth)]) == 0
    lines = truth.read_text().splitlines()
    columns = lines[3].split()
    columns[11] = "nan"  # dtheta
    lines[3] = " ".join(columns)
    est = tmp_path / "est.txt"
    est.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--est", str(est), "--truth", str(truth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {est}:4: dtheta must be finite, got nan\n"


def test_eval_refuses_files_of_other_lengths_naming_both(tmp_path, small_cfg, capsys):
    """Once "trajectory length mismatch: 499 vs 1000", naming neither file."""
    truth = tmp_path / "flight.txt"
    assert main(["simulate", "--config", small_cfg, "--out", str(truth)]) == 0
    est = tmp_path / "est.txt"
    est.write_text("\n".join(truth.read_text().splitlines()[:500]) + "\n")
    capsys.readouterr()
    assert main(["eval", "--est", str(est), "--truth", str(truth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {est}: 499 frames but the truth {truth} has 1000\n"


def test_eval_refuses_a_truth_path_of_zero_length(tmp_path, small_cfg, capsys):
    """A one-frame flight scored against itself once printed pos_pct inf and exited 0."""
    flight = tmp_path / "flight.txt"
    assert main(["simulate", "--config", small_cfg, "--out", str(flight)]) == 0
    one = tmp_path / "one.txt"
    one.write_text("\n".join(flight.read_text().splitlines()[:2]) + "\n")
    capsys.readouterr()
    assert main(["eval", "--est", str(one), "--truth", str(one)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {one}: the truth path has zero length, so pos_pct is undefined\n"
    )


def test_eval_refuses_a_truth_path_whose_length_overflows(tmp_path, capsys):
    """Steps of 2e200 m square past the float range: eval printed pos_pct 0.0
    (and a RuntimeWarning) and exited 0."""
    far = tmp_path / "far.txt"
    rows = [f"{0.05 * i!r} {x} 0.0 150.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0" for i, x in
            enumerate(["1e200", "-1e200"])]
    far.write_text("\n".join(["#crossview-traj-v1", *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["eval", "--est", str(far), "--truth", str(far)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {far}: the truth path length overflows, so pos_pct is undefined\n"
    )


def test_eval_refuses_frames_at_other_times(tmp_path, small_cfg, capsys):
    """A 10 Hz flight against a 20 Hz truth of as many frames: eval exits 2
    naming the first frame whose time differs, where it scored the pair."""
    truth, est = tmp_path / "truth.txt", tmp_path / "est.txt"
    slow = tmp_path / "slow.cfg"
    slow.write_text(SMALL_CFG.replace("duration_s = 50", "duration_s = 100") + "rate_hz = 10\n")
    assert main(["simulate", "--config", small_cfg, "--out", str(truth)]) == 0
    assert main(["simulate", "--config", str(slow), "--out", str(est)]) == 0
    assert len(load_trajectory(str(est))) == len(load_trajectory(str(truth))) == 1000
    capsys.readouterr()
    assert main(["eval", "--est", str(est), "--truth", str(truth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {est}: frame 1 is at t=0.1 but the truth is at t=0.05\n"


def test_eval_refuses_errors_whose_square_overflows(tmp_path, small_cfg, capsys):
    """An estimate 1e200 m off squares past the float range: eval exits 2
    with an error line naming the truth, where it printed inf (and a
    RuntimeWarning) and exited 0."""
    truth = tmp_path / "flight.txt"
    assert main(["simulate", "--config", small_cfg, "--out", str(truth)]) == 0
    header, first, *rest = truth.read_text().splitlines()
    t, _, *columns = first.split()
    far = tmp_path / "far.txt"
    far.write_text("\n".join([header, " ".join([t, "1e200", *columns]), *rest]) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["eval", "--est", str(far), "--truth", str(truth)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {truth}: position errors too large to score: their mean square overflows\n"
    )


def test_losses_self_test(capsys):
    rc = main(["losses", "--self-test", "--points", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out


@pytest.mark.parametrize("points", ["0", "-3"])
def test_losses_self_test_needs_points(capsys, points):
    rc = main(["losses", "--self-test", "--points", points])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: points must be >= 1" in captured.err


def test_losses_without_flag(capsys):
    rc = main(["losses"])
    assert rc == 2
    assert "--self-test" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_knob = 5\n")
    out = tmp_path / "flight.txt"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and "bad.cfg:1" in err


# scene_altitude_m = 1e200 once passed simulate, then ended run mid-flight
# with "fused measurement is not finite".
@pytest.mark.parametrize(
    "key", ["hybrid_heading_rms_deg", "regression_tilt_rms_deg", "scene_altitude_m"]
)
def test_simulate_rejects_rms_whose_variance_overflows(tmp_path, capsys, key):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{key} = 1e200\n")
    out = tmp_path / "flight.txt"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ("hybrid_horizontal_rms_m = 1e7\n", "hybrid_horizontal_rms_m"),
        ("regression_horizontal_rms_m = 4e6\n", "regression_horizontal_rms_m"),
        ("hybrid_vertical_rms_m = 1e7\n", "hybrid_vertical_rms_m"),
        ("outlier_factor = 1e5\noutlier_prob = 0.2\n", "hybrid_horizontal_rms_m"),
    ],
    ids=["hybrid_horizontal", "regression_horizontal", "hybrid_vertical", "outlier_factor"],
)
def test_simulate_rejects_position_error_above_ceiling(tmp_path, capsys, overrides, key):
    # Each of these used to pass simulate, then abort run on an
    # ill-conditioned innovation covariance.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SMALL_CFG + overrides)
    out = tmp_path / "flight.txt"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "outlier_factor" in err
    assert not out.exists()


def test_run_accepts_position_error_at_ceiling(tmp_path, tile_file):
    # The acceptance-8 flight, a correction every frame, outliers drawn at
    # outlier_factor 10 from RMS figures of a tenth of the ceiling.
    keys = [
        f"{m}_{axis}_rms_m" for m in ("hybrid", "regression") for axis in ("horizontal", "vertical")
    ]
    cfg = tmp_path / "ceiling.cfg"
    cfg.write_text(
        "length_m = 500\nduration_s = 40\nturn_radius_m = 40\nstraight_init_m = 50\n"
        "correction_hz = 20\noutlier_prob = 0.2\noutlier_factor = 10\n"
        + "".join(f"{key} = {MAX_POSITION_ERROR_M / 10!r}\n" for key in keys)
    )
    argv = ["run", "--config", str(cfg), "--tiles", tile_file, "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("k", [1, 16])
def test_run_with_noiseless_matchers(tmp_path, tile_file, k):
    # Every RMS figure at 0: exact pose estimates, and at k = 1 a zero
    # fallback covariance, so only the ridge keeps the fused one invertible.
    keys = [
        f"{m}_{fig}"
        for m in ("hybrid", "regression")
        for fig in ("horizontal_rms_m", "vertical_rms_m", "heading_rms_deg", "tilt_rms_deg")
    ]
    cfg = tmp_path / "exact.cfg"
    cfg.write_text(SMALL_CFG + f"k_candidates = {k}\n" + "".join(f"{key} = 0\n" for key in keys))
    argv = ["run", "--config", str(cfg), "--tiles", tile_file, "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    values = [float(v) for row in rows for v in row.split(",")[1:]]
    assert len(values) == 16 and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("key", ["d_slope", "d_jitter"])
def test_run_rejects_a_distance_model_that_overflows(tmp_path, capsys, tile_file, key):
    # Both pass validate; each used to end run at its first correction with
    # "d must be finite and > 0, got inf".
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SMALL_CFG + f"{key} = 1e308\n")
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg), "--tiles", tile_file, "--seed", "0", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} lets a feature distance overflow")
    assert not out.exists()


def test_run_rejects_a_grid_too_far_to_square(tmp_path, capsys):
    # Once an uncaught OverflowError from k_nearest's squared distances.
    tiles = tmp_path / "far.txt"
    argv = ["gen-tiles", "--bounds", "0", "2e200", "0", "2e200", "--spacing", "1e200"]
    assert main(argv + ["--out", str(tiles)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--tiles", str(tiles), "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tile grid x (0.0, 2e+200), y (0.0, 2e+200) lies too far")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("vo_pos_noise_m", 1e306),
        ("vo_bias_walk_m", 1e305),
        ("vo_scale_error", 1e306),
        # run once scored this drift as inf: the squared gaps are finite, the
        # sum of 1000 squared errors is not
        ("vo_scale_error", 2e150),
    ],
)
def test_run_refuses_vo_drift_too_far_to_square_before_flying(tmp_path, capsys, tile_file, key, value):
    # simulate takes each; run once ended in an OverflowError from k_nearest.
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(SMALL_CFG + f"{key} = {value!r}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "flight.txt")]) == 0
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg), "--tiles", tile_file, "--seed", "0", "--out", str(out)]
    ran = mock.Mock(side_effect=sim._compose)
    with mock.patch.object(sim, "_compose", ran):
        assert main(argv) == 2
    assert not ran.called
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} lets the dead-reckoned track stray too far")
    assert not out.exists()


def test_run_accepts_a_huge_but_finite_distance_model(tmp_path, tile_file):
    # d near 1e303: every inverse-distance weight is still a normal float.
    cfg = tmp_path / "far.cfg"
    cfg.write_text(SMALL_CFG + "d_slope = 1e300\nd_jitter = 1e300\n")
    argv = ["run", "--config", str(cfg), "--tiles", tile_file, "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "overrides, key",
    [
        ("init_cov_var = 1e308\n", "init_cov_var"),
        ("process_noise_var = 1e306\n", "process_noise_var"),
    ],
)
def test_simulate_rejects_filter_variance_above_ceiling(tmp_path, capsys, overrides, key):
    # Both used to pass simulate, then overflow P and end run with exit 2.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SMALL_CFG + overrides)
    out = tmp_path / "flight.txt"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def test_run_accepts_filter_variance_at_ceiling(tmp_path, tile_file):
    # The acceptance-8 flight with its one variance held at the ceiling.
    cfg = tmp_path / "ceiling.cfg"
    cfg.write_text(
        "length_m = 500\nduration_s = 40\nturn_radius_m = 40\nstraight_init_m = 50\n"
        f"process_noise_var = 0\ninit_cov_var = {MAX_POSITION_ERROR_M**2!r}\n"
    )
    argv = ["run", "--config", str(cfg), "--tiles", tile_file, "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "overrides, keys",
    [
        ("duration_s = 1e200\nrate_hz = 1e200\n", ("duration_s", "rate_hz")),
        ("duration_s = 1e9\n", ("duration_s", "rate_hz")),
        ("correction_hz = 1e-320\n", ("rate_hz", "correction_hz")),
    ],
    ids=["frame_count_overflows", "frame_count_huge", "stride_overflows"],
)
def test_simulate_rejects_overflowing_frame_counts(tmp_path, capsys, overrides, keys):
    # The overflowing two once ended in an OverflowError traceback.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(overrides)
    out = tmp_path / "flight.txt"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(key in err for key in keys)
    assert not out.exists()


def test_simulate_rejects_a_schedule_without_corrections(tmp_path, capsys):
    # A stride of 2000 for 1000 frames: run once reported dead reckoning for
    # every corrected method.
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text(SMALL_CFG + "correction_hz = 0.01\n")
    out = tmp_path / "flight.txt"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: correction_hz must give a correction")
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_simulate_and_run_reject_the_same_seeds(tmp_path, capsys, small_cfg, tile_file, seed):
    # Philox keys lie in [0, 2**128); simulate once accepted 2**128, which
    # run then failed on with numpy's message.
    seed_args = ["--config", small_cfg, "--seed", str(seed), "--out"]
    errors = []
    for argv in (["simulate", *seed_args, str(tmp_path / "flight.txt")],
                 ["run", "--tiles", tile_file, *seed_args, str(tmp_path / "out")]):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: seed must be an integer in [0, 2**128), got {seed}\n"
    assert not (tmp_path / "flight.txt").exists() and not (tmp_path / "out").exists()


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "length_m = 2500.0" in out
    assert "vo_scale_error" in out
