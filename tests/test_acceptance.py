"""Acceptance gate: eight criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline; in a
plain run they appear in captured output. Tolerances here are the pinned
contract values, not adjustable knobs.
"""

import time

import numpy as np
import pytest

from crossview.config import SimConfig
from crossview.cli import main as cli_main
from crossview.estimator import (
    OBSERVATION_MATRIX,
    FilterState,
    ProcessNoise,
    VoIncrement,
    correct,
    predict,
    state_vector,
)
from crossview.fusion import FusedMeasurement, fuse
from crossview.geometry import (
    Pose6D,
    cell_center,
    cell_index,
    euler_to_rotmat,
    ground_intersection,
    rotmat_to_euler,
    wrap_angle,
)
from crossview.losses import gradient_self_test
from crossview.matchers import MatchResult, match_variances
from crossview.sim import gen_trajectory, run_experiment, suggested_tile_bounds
from crossview.tiles import generate_grid, k_nearest

# The lone-candidate variances fuse takes: the default config's hybrid ones.
HYBRID = match_variances(SimConfig(), "hybrid")


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def ten_seed_batch():
    """The full-length benchmark over seeds 0..9, shared by criteria 6 and 7."""
    cfg = SimConfig()
    results = []
    start = time.perf_counter()
    for seed in range(10):
        frames = gen_trajectory(cfg, seed)
        tiles = generate_grid(*suggested_tile_bounds(frames), spacing=50.0)
        results.append(run_experiment(cfg, tiles, seed))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_acceptance_1_gradients():
    start = time.perf_counter()
    checks = gradient_self_test(points=100, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(c["max_rel_err"] for c in checks)
    ok = all(c["passed"] for c in checks) and elapsed < 5.0
    report(
        1,
        ok,
        f"analytic vs central-difference gradients at 100 points per loss,"
        f" max rel err {worst:.2e} (tol 1e-6), {elapsed:.2f} s",
    )


def test_acceptance_2_geometry():
    rng = np.random.default_rng(20_000)
    n = 100_000
    psis = rng.uniform(-180.0, 180.0, n)
    thetas = rng.uniform(-85.0, 85.0, n)
    phis = rng.uniform(-180.0, 180.0, n)
    worst = 0.0
    for psi, theta, phi in zip(psis, thetas, phis):
        back = rotmat_to_euler(euler_to_rotmat(psi, theta, phi))
        err = max(
            abs(wrap_angle(back[0] - psi)),
            abs(back[1] - theta),
            abs(wrap_angle(back[2] - phi)),
        )
        if err > worst:
            worst = err
    round_trip_ok = worst < 1e-9

    bijection_ok = all(cell_index(*cell_center(i)) == i for i in range(64))

    ground_worst = 0.0
    for _ in range(2000):
        x, y = rng.uniform(-1000.0, 1000.0, 2)
        z = rng.uniform(100.0, 200.0)
        psi = rng.uniform(-180.0, 180.0)
        theta = rng.uniform(0.0, 45.0)
        gx, gy = ground_intersection(Pose6D(float(x), float(y), float(z), float(psi), float(theta)))
        r = z * np.tan(np.radians(theta))
        ex = x + r * np.sin(np.radians(psi))
        ey = y + r * np.cos(np.radians(psi))
        ground_worst = max(ground_worst, abs(gx - ex), abs(gy - ey))
    ground_ok = ground_worst < 1e-12

    ok = round_trip_ok and bijection_ok and ground_ok
    report(
        2,
        ok,
        f"euler round trip over 1e5 samples max err {worst:.2e} (<1e-9);"
        f" 64-cell bijection {'holds' if bijection_ok else 'BROKEN'};"
        f" ground intersection vs closed form max err {ground_worst:.2e} (<1e-12)",
    )


def test_acceptance_3_fusion_oracle():
    rng = np.random.default_rng(30_000)
    worst = 0.0

    def literal(results):
        inv = np.array([1.0 / r.d for r in results])
        w = inv / inv.sum()
        p = sum(wi * np.asarray(ri.p_hat) for wi, ri in zip(w, results))
        psi = float(np.dot(w, [r.psi_hat for r in results]))
        theta = float(np.dot(w, [r.theta_hat for r in results]))
        return np.concatenate([p, [psi, theta]])

    def sample(k):
        return [
            MatchResult(
                d=float(rng.uniform(0.5, 200.0)),
                p_hat=tuple(rng.uniform(-500.0, 500.0, 3)),
                psi_hat=float(rng.uniform(-89.0, 89.0)),  # half circle: no seam
                theta_hat=float(rng.uniform(0.0, 45.0)),
                tile_id=i,
            )
            for i in range(k)
        ]

    for _ in range(1000):
        results = sample(int(rng.integers(1, 10)))
        fused = fuse(results, HYBRID)
        got = np.concatenate([fused.p_bar, [fused.psi_bar, fused.theta_bar]])
        ref = literal(results)
        got[3] = ref[3] + wrap_angle(got[3] - ref[3])
        worst = max(worst, float(np.max(np.abs(got - ref))))
    oracle_ok = worst < 1e-12

    results = sample(6)
    base = fuse(results, HYBRID)
    scaled = fuse(
        [
            MatchResult(r.d * 7.3, r.p_hat, r.psi_hat, r.theta_hat, r.tile_id)
            for r in results
        ],
        HYBRID,
    )
    scale_err = max(
        float(np.max(np.abs(base.p_bar - scaled.p_bar))),
        abs(wrap_angle(base.psi_bar - scaled.psi_bar)),
        abs(base.theta_bar - scaled.theta_bar),
    )
    scale_ok = scale_err < 1e-12

    equal = [
        MatchResult(4.0, r.p_hat, r.psi_hat, r.theta_hat, r.tile_id)
        for r in sample(5)
    ]
    fused_eq = fuse(equal, HYBRID)
    mean_p = np.mean([np.asarray(r.p_hat) for r in equal], axis=0)
    mean_psi = float(np.mean([r.psi_hat for r in equal]))
    mean_theta = float(np.mean([r.theta_hat for r in equal]))
    eq_err = max(
        float(np.max(np.abs(fused_eq.p_bar - mean_p))),
        abs(wrap_angle(fused_eq.psi_bar - mean_psi)),
        abs(fused_eq.theta_bar - mean_theta),
    )
    eq_ok = eq_err < 1e-12

    ok = oracle_ok and scale_ok and eq_ok
    report(
        3,
        ok,
        f"inverse-distance fusion vs literal evaluation, 1e3 inputs max err"
        f" {worst:.2e}; scale invariance err {scale_err:.2e}; equal-distance"
        f" vs arithmetic mean err {eq_err:.2e} (all <1e-12)",
    )


def test_acceptance_4_tile_oracle():
    tiles = generate_grid(0.0, 2000.0, 0.0, 1000.0, 50.0)
    assert len(tiles) == 861
    records = list(tiles.tiles)
    rng = np.random.default_rng(40_000)
    mismatches = 0
    for i in range(1000):
        if i % 2 == 0:
            p = (float(rng.uniform(-100.0, 2100.0)), float(rng.uniform(-100.0, 1100.0)))
        else:
            # half-lattice points force exact distance ties
            p = (float(rng.integers(0, 80)) * 25.0, float(rng.integers(0, 40)) * 25.0)
        k = int(rng.integers(1, 21))
        got = [t.tile_id for t in k_nearest(tiles, p, k)]
        ref = sorted(
            records, key=lambda t: ((t.x - p[0]) ** 2 + (t.y - p[1]) ** 2, t.tile_id)
        )[:k]
        if got != [t.tile_id for t in ref]:
            mismatches += 1
    ok = mismatches == 0
    report(
        4,
        ok,
        f"k-nearest vs brute-force scan on 861-tile grid, 1e3 queries,"
        f" {mismatches} mismatches (tie-breaks included)",
    )


def test_acceptance_5_filter_algebra():
    rng = np.random.default_rng(50_000)
    H = OBSERVATION_MATRIX

    def literal_correct(X, P, z, M):
        S = M + H @ P @ H.T
        K = P @ H.T @ np.linalg.inv(S)
        y = z - H @ X
        y[3] = wrap_angle(y[3])
        y[4] = wrap_angle(y[4])
        return X + K @ y, (np.eye(6) - K @ H) @ P

    def psd(n, scale):
        A = rng.standard_normal((n, n))
        return A @ A.T * scale + np.eye(n) * 1e-3

    worst = 0.0
    for _ in range(1000):
        P = psd(6, float(rng.uniform(0.1, 5.0)))
        M = psd(5, float(rng.uniform(0.1, 5.0)))
        pose = Pose6D(
            *rng.uniform(-100, 100, 2),
            float(rng.uniform(100, 200)),
            float(rng.uniform(-170, 170)),
            float(rng.uniform(-80, 80)),
            float(rng.uniform(-170, 170)),
        )
        state = FilterState(pose, P)
        z = np.concatenate(
            [rng.uniform(-100, 100, 3), rng.uniform(-170, 170, 1), rng.uniform(-80, 80, 1)]
        )
        out = correct(state, FusedMeasurement(z[:3], z[3], z[4], M))
        X_ref, P_ref = literal_correct(state_vector(state), P, z.copy(), M)
        got = state_vector(out)
        err = 0.0
        for i in range(6):
            delta = wrap_angle(got[i] - X_ref[i]) if i >= 3 else got[i] - X_ref[i]
            err = max(err, abs(delta))
        err = max(err, float(np.max(np.abs(out.P - 0.5 * (P_ref + P_ref.T)))))
        worst = max(worst, err)
    oracle_ok = worst < 1e-9

    state = FilterState.initial(Pose6D(0, 0, 150, 0, 0), 1.0)
    inc = VoIncrement(np.array([0.1, 0.6, 0.01]), euler_to_rotmat(0.05, 0.01, 0.0))
    min_eig = np.inf
    max_asym = 0.0
    for step in range(1, 4001):
        state = predict(state, inc, ProcessNoise(np.full(6, 0.01)))
        if step % 20 == 0:
            z = rng.uniform(-50, 50, 5)
            state = correct(state, FusedMeasurement(z[:3], z[3], z[4], psd(5, 1.0)))
            max_asym = max(max_asym, float(np.max(np.abs(state.P - state.P.T))))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(state.P).min()))
    psd_ok = min_eig >= -1e-9 and max_asym < 1e-12

    s0 = FilterState(Pose6D(5, -3, 150, 40, 10), psd(6, 1.0))
    z0 = H @ state_vector(s0)
    out0 = correct(s0, FusedMeasurement(z0[:3], z0[3], z0[4], np.eye(5)))
    zero_ok = (
        float(np.max(np.abs(state_vector(out0) - state_vector(s0)))) < 1e-12
        and np.trace(out0.P) <= np.trace(s0.P) + 1e-12
    )

    ok = oracle_ok and psd_ok and zero_ok
    report(
        5,
        ok,
        f"correction vs literal gain algebra, 1e3 PSD instances max err"
        f" {worst:.2e} (<1e-9); 4000-step run min eig {min_eig:.2e} (>=-1e-9),"
        f" max asymmetry {max_asym:.2e}; zero-innovation leaves state"
        f" {'unchanged' if zero_ok else 'CHANGED'}",
    )


def test_acceptance_6_error_ordering(ten_seed_batch):
    results, elapsed = ten_seed_batch
    in_band = ordered = hybrid_small = 0
    rows = []
    for r in results:
        vo = r.summaries["vo_only"]
        scene = r.summaries["vo_scene"]
        hyb = r.summaries["vo_hybrid"]
        in_band += 4.5 <= vo.pos_pct <= 6.5
        ordered += vo.pos_pct > scene.pos_pct > hyb.pos_pct
        hybrid_small += hyb.pos_pct < 2.5
        rows.append(f"{vo.pos_pct:.2f}/{scene.pos_pct:.2f}/{hyb.pos_pct:.2f}")
    ok = in_band == 10 and ordered >= 9 and hybrid_small >= 8 and elapsed < 60.0
    report(
        6,
        ok,
        f"dead-reckoning band 4.5-6.5% in {in_band}/10 seeds; ordering"
        f" vo_only>vo_scene>vo_hybrid in {ordered}/10 (need >=9); hybrid <2.5%"
        f" in {hybrid_small}/10 (need >=8); batch {elapsed:.1f} s (<60)"
        f" [vo/scene/hybrid %: {', '.join(rows)}]",
    )


def test_acceptance_7_heading_degradation(ten_seed_batch):
    results, _ = ten_seed_batch
    degraded = sum(
        r.summaries["vo_hybrid"].psi_rmse_deg > r.summaries["vo_only"].psi_rmse_deg
        for r in results
    )
    ok = degraded >= 7
    report(
        7,
        ok,
        f"fused heading RMSE exceeds dead-reckoned heading RMSE in"
        f" {degraded}/10 seeds (need >=7)",
    )


def test_acceptance_8_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "length_m = 500\nduration_s = 40\nturn_radius_m = 40\nstraight_init_m = 50\n"
    )
    tiles_path = tmp_path / "tiles.txt"
    rc = cli_main(
        ["gen-tiles", "--bounds", "-800", "800", "-800", "800", "--out", str(tiles_path)]
    )
    assert rc == 0
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        rc = cli_main(
            [
                "run",
                "--config",
                str(cfg_path),
                "--tiles",
                str(tiles_path),
                "--seed",
                "5",
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        outputs.append(out_dir)
    files = [
        "summary.csv",
        "truth.txt",
        "vo_only.txt",
        "vo_scene.txt",
        "vo_regression.txt",
        "vo_hybrid.txt",
    ]
    diffs = [
        f
        for f in files
        if (outputs[0] / f).read_bytes() != (outputs[1] / f).read_bytes()
    ]
    ok = not diffs
    report(
        8,
        ok,
        "two identical `run` invocations byte-identical across summary.csv and"
        f" all trajectory files ({'no diffs' if ok else 'diffs: ' + ', '.join(diffs)})",
    )
