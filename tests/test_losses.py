"""Loss-function tests built around finite-difference oracles.

Every analytic gradient here is checked against a central finite difference
computed from the loss value alone, so the derivative code never gets to
grade its own homework.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossview.losses import (
    NUM_CELLS,
    _cross_entropies,
    CameraLossWeights,
    camera_loss,
    cell_cross_entropy,
    cell_cross_entropy_grad,
    contrastive_loss,
    contrastive_loss_grad,
    feature_distance,
    gradient_self_test,
)


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# --- feature_distance -----------------------------------------------------


def test_feature_distance_zero_for_equal():
    u = np.arange(10.0)
    assert feature_distance(u, u.copy()) == 0.0


def test_feature_distance_345():
    assert feature_distance(np.array([3.0, 0.0]), np.array([0.0, 4.0])) == 5.0


def test_feature_distance_symmetric():
    rng = np.random.default_rng(21)
    for _ in range(100):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        assert feature_distance(u, v) == feature_distance(v, u)
        assert feature_distance(u, v) >= 0.0


def test_feature_distance_errors():
    with pytest.raises(ValueError):
        feature_distance(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        feature_distance(np.array([np.nan]), np.array([0.0]))
    with pytest.raises(ValueError):
        feature_distance(np.zeros((2, 2)), np.zeros((2, 2)))


# --- contrastive loss -----------------------------------------------------


@pytest.mark.parametrize(
    "d, label, margin, expected",
    [
        (7.0, 1, 100.0, 49.0),
        (150.0, 0, 100.0, 0.0),
        (50.0, 0, 100.0, 2500.0),
        (0.0, 1, 100.0, 0.0),
        (100.0, 0, 100.0, 0.0),  # hinge exactly at the margin
    ],
)
def test_contrastive_loss_values(d, label, margin, expected):
    assert contrastive_loss(d, label, margin) == pytest.approx(expected, abs=1e-12)


def test_contrastive_loss_nonnegative_and_zero_set():
    rng = np.random.default_rng(22)
    for _ in range(300):
        d = float(rng.uniform(0.0, 200.0))
        label = int(rng.integers(0, 2))
        loss = contrastive_loss(d, label, 100.0)
        assert loss >= 0.0
        is_zero = (label == 1 and d == 0.0) or (label == 0 and d >= 100.0)
        assert (loss == 0.0) == is_zero


@pytest.mark.parametrize(
    "d, label, expected",
    [
        (7.0, 1, 14.0),
        (150.0, 0, 0.0),
        (50.0, 0, -100.0),
    ],
)
def test_contrastive_grad_values(d, label, expected):
    assert contrastive_loss_grad(d, label, 100.0) == pytest.approx(expected, abs=1e-12)


def test_contrastive_grad_finite_difference():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        d = float(rng.uniform(0.5, 200.0))
        label = int(rng.integers(0, 2))
        if label == 0 and abs(100.0 - d) < 1e-3:
            continue  # hinge kink: subgradient convention, skip
        grad = contrastive_loss_grad(d, label, 100.0)
        fd = central_diff(lambda x: contrastive_loss(x, label, 100.0), d)
        scale = max(abs(fd), 1.0)
        assert abs(grad - fd) / scale < 1e-6
        checked += 1


def test_contrastive_rejects_bad_args():
    with pytest.raises(ValueError):
        contrastive_loss(-1.0, 1, 100.0)
    with pytest.raises(ValueError):
        contrastive_loss(1.0, 2, 100.0)
    with pytest.raises(ValueError):
        contrastive_loss(1.0, 0, -5.0)
    with pytest.raises(ValueError):
        contrastive_loss_grad(float("nan"), 0, 100.0)


# --- cell cross entropy ---------------------------------------------------


def test_cross_entropy_uniform():
    assert cell_cross_entropy(np.zeros(NUM_CELLS), 17) == pytest.approx(
        math.log(NUM_CELLS), rel=1e-12
    )


def test_cross_entropy_saturated():
    logits = np.zeros(NUM_CELLS)
    logits[5] = 1000.0
    assert cell_cross_entropy(logits, 5) < 1e-10


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(24)
    logits = rng.standard_normal(NUM_CELLS) * 5.0
    base = cell_cross_entropy(logits, 9)
    shifted = cell_cross_entropy(logits + 1e5, 9)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_cross_entropy_argmax_is_best_target():
    rng = np.random.default_rng(25)
    for _ in range(20):
        logits = rng.standard_normal(NUM_CELLS) * 3.0
        losses = [cell_cross_entropy(logits, c) for c in range(NUM_CELLS)]
        assert int(np.argmin(losses)) == int(np.argmax(logits))


def test_cross_entropy_grad_uniform():
    grad = cell_cross_entropy_grad(np.zeros(NUM_CELLS), 0)
    expected = np.full(NUM_CELLS, 1.0 / NUM_CELLS)
    expected[0] -= 1.0
    np.testing.assert_allclose(grad, expected, atol=1e-12)


def test_cross_entropy_grad_sums_to_zero():
    rng = np.random.default_rng(26)
    for _ in range(50):
        logits = rng.standard_normal(NUM_CELLS) * 4.0
        grad = cell_cross_entropy_grad(logits, int(rng.integers(0, NUM_CELLS)))
        assert abs(grad.sum()) < 1e-12


def test_cross_entropy_grad_finite_difference():
    rng = np.random.default_rng(27)
    for _ in range(100):
        logits = rng.standard_normal(NUM_CELLS) * 3.0
        target = int(rng.integers(0, NUM_CELLS))
        grad = cell_cross_entropy_grad(logits, target)
        for j in rng.integers(0, NUM_CELLS, size=6):
            def f(v, j=int(j)):
                probe = logits.copy()
                probe[j] = v
                return cell_cross_entropy(probe, target)

            fd = central_diff(f, logits[int(j)])
            scale = max(abs(fd), 1e-3)
            assert abs(grad[int(j)] - fd) / scale < 1e-6


def reference_cross_entropy(logits, target):
    """The one-row form: shift by the max, log of the sum of libm exps, less the target's."""
    shifted = logits - np.max(logits)
    exps = np.array([math.exp(v) for v in shifted])
    return max(float(math.log(np.sum(exps)) - shifted[target]), 0.0)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 20).flatmap(lambda m: arrays(
           np.float64, (m, NUM_CELLS), elements=st.floats(-700.0, 700.0))),
       target=st.integers(0, NUM_CELLS - 1), scale=st.sampled_from([1e-3, 1.0, 2.0, 1e3]))
def test_cross_entropy_rows_equal_one_row_calls(rows, target, scale):
    """The batch kernel scores each row bit for bit as the one-row form does."""
    rows = rows * scale
    want = [reference_cross_entropy(row.copy(), target) for row in rows]
    assert [v.hex() for v in _cross_entropies(rows, target)] == [v.hex() for v in want]
    assert [cell_cross_entropy(row, target).hex() for row in rows] == [v.hex() for v in want]


def test_cross_entropy_rejects_bad_args():
    with pytest.raises(ValueError):
        cell_cross_entropy(np.zeros(63), 0)
    with pytest.raises(ValueError):
        cell_cross_entropy(np.zeros(NUM_CELLS), 64)
    bad = np.zeros(NUM_CELLS)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        cell_cross_entropy_grad(bad, 0)
    with pytest.raises(ValueError, match="^target cell must be an integer, got 2.0$"):
        cell_cross_entropy(np.zeros(NUM_CELLS), 2.0)


# --- combined camera loss -------------------------------------------------


def saturated_logits(target):
    logits = np.zeros(NUM_CELLS)
    logits[target] = 1000.0
    return logits


def test_camera_loss_perfect_prediction():
    w = CameraLossWeights()
    loss = camera_loss(saturated_logits(12), 12, 150.0, 150.0, 30.0, 30.0, 10.0, 10.0, w)
    assert loss < 1e-9


def test_camera_loss_altitude_term_unweighted():
    w = CameraLossWeights()
    loss = camera_loss(saturated_logits(3), 3, 153.0, 150.0, 0.0, 0.0, 0.0, 0.0, w)
    assert loss == pytest.approx(3.0, abs=1e-9)


def test_camera_loss_heading_wraps_seam():
    w = CameraLossWeights(beta=1.0)
    loss = camera_loss(saturated_logits(0), 0, 0.0, 0.0, -179.0, 179.0, 0.0, 0.0, w)
    assert loss == pytest.approx(2.0, abs=1e-9)


def test_camera_loss_cell_term_weighted_by_alpha():
    w = CameraLossWeights(alpha=30.0)
    loss = camera_loss(np.zeros(NUM_CELLS), 7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, w)
    assert loss == pytest.approx(30.0 * math.log(NUM_CELLS), rel=1e-12)


def test_camera_loss_monotone_in_each_residual():
    w = CameraLossWeights()
    base = camera_loss(saturated_logits(0), 0, 150.0, 150.0, 10.0, 10.0, 5.0, 5.0, w)
    grow_z = camera_loss(saturated_logits(0), 0, 154.0, 150.0, 10.0, 10.0, 5.0, 5.0, w)
    grow_psi = camera_loss(saturated_logits(0), 0, 150.0, 150.0, 14.0, 10.0, 5.0, 5.0, w)
    grow_theta = camera_loss(saturated_logits(0), 0, 150.0, 150.0, 10.0, 10.0, 9.0, 5.0, w)
    assert grow_z > base
    assert grow_psi > base
    assert grow_theta > base


_CAMERA_LOSS_SCALARS = ["z_hat", "z_true", "psi_hat", "psi_true", "theta_hat", "theta_true"]


@pytest.mark.parametrize("index, name", enumerate(_CAMERA_LOSS_SCALARS))
def test_camera_loss_names_its_first_non_finite_scalar(index, name):
    """The scalars are checked in signature order: a nan is named, and the
    infinite ones after it are not."""
    values = [150.0, 150.0, 10.0, 10.0, 5.0, 5.0]
    values[index:] = [math.nan] + [math.inf] * (5 - index)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got nan$"):
        camera_loss(saturated_logits(0), 0, *values)


def test_camera_loss_default_weights():
    w = CameraLossWeights()
    assert (w.alpha, w.beta, w.gamma) == (30.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        CameraLossWeights(alpha=-1.0)


# --- bundled self test ----------------------------------------------------


def test_gradient_self_test_passes():
    report = gradient_self_test(points=50, seed=3)
    assert report, "self test produced no entries"
    for entry in report:
        assert entry["passed"], f"{entry['name']}: rel err {entry['max_rel_err']}"
        assert entry["max_rel_err"] < entry["tol"]


def test_gradient_self_test_records_are_plain_json():
    """Both records hold plain floats and bools, so the report serialises."""
    for entry in gradient_self_test(points=3):
        assert type(entry["max_rel_err"]) is float and type(entry["passed"]) is bool
    json.dumps(gradient_self_test(points=3))


def test_gradient_self_test_keeps_its_figures():
    """Its draws and probes are those of the one-probe-at-a-time form: the
    worst errors at (100, 0) are that form's, to the bit, at any numpy SIMD
    dispatch level, as its exponentials are libm's."""
    report = gradient_self_test(points=100, seed=0)
    assert [(e["name"], e["points"], e["max_rel_err"]) for e in report] == [
        ("contrastive_loss_grad", 100, 8.669051630224944e-10),
        ("cell_cross_entropy_grad", 100, 8.38321600723016e-11),
    ]
