"""Fuse the k candidate matches of one frame into a single measurement.

The pose estimates are combined with inverse-distance weights, so candidates
the matcher scored as more alike count for more. The measurement covariance is
the unweighted sample scatter of the candidates: position as a full 3x3 block,
heading and tilt as independent variances, padded with a small ridge so the
matrix stays invertible even when every candidate agrees.

Headings are circular, so they are averaged through residuals wrapped about
the best-scoring candidate's heading; two candidates at 179 and -179 degrees
fuse to +/-180, not to 0.

Every sum runs left to right in plain floats, so the fused bits are the same
whatever BLAS kernel numpy runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import D_MIN
from .geometry import _wrap_angle

__all__ = ["COVARIANCE_RIDGE", "FusedMeasurement", "fuse"]

COVARIANCE_RIDGE = 1e-6


@dataclass(frozen=True, eq=False)
class FusedMeasurement:
    """Single fused observation: position, heading, tilt, and 5x5 covariance."""

    p_bar: np.ndarray
    psi_bar: float
    theta_bar: float
    M: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p_bar, dtype=float)
        M = np.asarray(self.M, dtype=float)
        if p.shape != (3,) or not np.isfinite(p).all():
            raise ValueError(f"p_bar must be a finite 3-vector, got shape {p.shape}")
        if M.shape != (5, 5) or not np.isfinite(M).all():
            raise ValueError(f"M must be a finite 5x5 matrix, got shape {M.shape}")
        if not (math.isfinite(self.psi_bar) and math.isfinite(self.theta_bar)):
            raise ValueError("psi_bar and theta_bar must be finite")
        object.__setattr__(self, "p_bar", p)
        object.__setattr__(self, "M", M)

    def z_vector(self) -> np.ndarray:
        """Stacked measurement vector (x, y, z, psi, theta)."""
        return np.array(
            [self.p_bar[0], self.p_bar[1], self.p_bar[2], self.psi_bar, self.theta_bar]
        )


def fuse(results, fallback_variances) -> FusedMeasurement:
    """Weighted pose plus scatter covariance for one frame's candidate list.

    The pose is the inverse-distance weighted mean, weights (1/d_i) / sum(1/d_j),
    with the heading averaged over residuals wrapped about the lowest-d
    candidate's heading. The covariance is block-diagonal: the positions'
    sample covariance (divisor k-1), then the sample variances of the heading
    residuals and of the tilts, plus COVARIANCE_RIDGE on the diagonal. A lone
    candidate has no scatter, so its variances (x, y, z, psi, theta) are
    ``fallback_variances``: the filter loop passes the backend's own
    ``_lone_variances``. Candidates are reduced in (d, tile_id) order, so the
    result is exactly permutation invariant.
    """
    rows = [(r.d, r.tile_id, *r.p_hat, r.psi_hat, r.theta_hat) for r in results]
    z, M = _fuse_rows(rows, _checked_fallback(fallback_variances))
    return FusedMeasurement(np.array(z[:3]), z[3], z[4], M)


def _checked_fallback(variances) -> tuple[float, ...]:
    """The k = 1 variances as 5 plain floats, if they are finite and >= 0."""
    v = np.asarray(variances, dtype=float)
    if v.shape != (5,) or np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise ValueError(f"lone-candidate variances must be 5 finite values >= 0, got {v.tolist()}")
    return tuple(v.tolist())


def _fuse_rows(rows, fallback: tuple[float, ...] | None) -> tuple[list[float], np.ndarray]:
    """The kernel of :func:`fuse`: (z, M) from a matcher's plain rows.

    rows are (d, tile_id, x, y, z, psi, theta) tuples with psi in (-180, 180]
    and theta clamped, as a backend's ``_match_rows`` builds them; fallback
    is :func:`_checked_fallback`'s, read for a lone row only. z is
    [x, y, z, psi, theta]. Rows sort by (d, tile_id) and every sum runs left
    to right over them in plain floats: no BLAS call, no numpy reduction and
    no builtin ``sum`` (compensated since Python 3.12), so the bits depend on
    neither the BLAS kernel nor the interpreter. A row that overflowed (an
    infinite d, a non-finite position or angle) raises ValueError rather than
    weigh in silently.
    """
    rows = sorted(rows)
    if not rows:
        raise ValueError("cannot fuse an empty candidate list")
    if not rows[0][0] >= D_MIN:
        raise ValueError(f"candidate distance {rows[0][0]} below the {D_MIN} floor")
    if not rows[-1][0] < math.inf:
        raise ValueError(f"candidate distance {rows[-1][0]} is not finite")
    k = len(rows)
    ref = rows[0][5]
    # Pass 1: the total weight, the plain sums, and the heading residuals.
    total = sx = sy = sz = sr = st = 0.0
    residuals = []
    for d, _, x, y, z, psi, theta in rows:
        r = _wrap_angle(psi - ref)
        residuals.append(r)
        total += 1.0 / d
        sx += x
        sy += y
        sz += z
        sr += r
        st += theta
    mx, my, mz, mr, mt = sx / k, sy / k, sz / k, sr / k, st / k
    # Pass 2: the weighted means and the scatter about the plain means.
    px = py = pz = pr = pt = 0.0
    cxx = cxy = cxz = cyy = cyz = czz = crr = ctt = 0.0
    for (d, _, x, y, z, _, theta), r in zip(rows, residuals):
        w = 1.0 / d / total
        px += w * x
        py += w * y
        pz += w * z
        pr += w * r
        pt += w * theta
        ex, ey, ez, er, et = x - mx, y - my, z - mz, r - mr, theta - mt
        cxx += ex * ex
        cxy += ex * ey
        cxz += ex * ez
        cyy += ey * ey
        cyz += ey * ez
        czz += ez * ez
        crr += er * er
        ctt += et * et
    if k < 2:
        cxx, cyy, czz, crr, ctt = fallback
    else:
        n = k - 1
        cxx, cxy, cxz, cyy, cyz = cxx / n, cxy / n, cxz / n, cyy / n, cyz / n
        czz, crr, ctt = czz / n, crr / n, ctt / n
    z = [px, py, pz, _wrap_angle(ref + pr), pt]
    if not all(map(math.isfinite, (*z, cxx, cxy, cxz, cyy, cyz, czz, crr, ctt))):
        raise ValueError("fused measurement is not finite")
    ridge = COVARIANCE_RIDGE
    M = np.array([
        [cxx + ridge, cxy, cxz, 0.0, 0.0],
        [cxy, cyy + ridge, cyz, 0.0, 0.0],
        [cxz, cyz, czz + ridge, 0.0, 0.0],
        [0.0, 0.0, 0.0, crr + ridge, 0.0],
        [0.0, 0.0, 0.0, 0.0, ctt + ridge],
    ])
    return z, M
