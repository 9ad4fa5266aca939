"""Satellite tile database: a regular ground grid with exact nearest-k queries.

Tiles are nadir satellite views rendered north-aligned at a fixed altitude, so
a record is just an id and a ground center. The set is a regular grid, which
lets ``k_nearest`` walk outward ring by ring from the query cell instead of
scanning every tile, while returning exactly what a brute-force scan sorted by
(distance, tile_id) would.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .textfile import read_rows, write_rows

__all__ = [
    "TileRecord",
    "TileSet",
    "generate_grid",
    "k_nearest",
    "load_tiles",
    "save_tiles",
]

_HEADER = "#crossview-tiles-v2"

# Tile spacing in meters when none is given: generate_grid, `gen-tiles`.
DEFAULT_SPACING_M = 50.0


@dataclass(frozen=True)
class TileRecord:
    """One satellite tile: its id and ground center (x, y)."""

    tile_id: int
    x: float
    y: float

    def __post_init__(self) -> None:
        # tile_id + 1 is a word of each matcher's Philox counter.
        if not 0 <= self.tile_id < 2**63:
            raise ValueError(f"tile_id must lie in [0, 2**63), got {self.tile_id}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("tile center must be finite")


@dataclass(frozen=True)
class TileSet(Sequence):
    """Regular grid of tiles, defined by its bounds and spacing alone.

    Ids run row-major from the (x_min, y_min) corner: tile ``iy * nx + ix``
    sits at (x_min + ix * spacing, y_min + iy * spacing). The set is the
    read-only sequence of its TileRecords, indexed by id, each built from
    that formula the first time it is asked for and then kept.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    spacing: float
    nx: int = field(init=False)
    ny: int = field(init=False)

    def __post_init__(self) -> None:
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max, self.spacing)
        if not all(map(math.isfinite, bounds)) or self.spacing <= 0.0:
            raise ValueError(f"bounds and spacing must be finite, spacing > 0: {bounds}")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("bounds must satisfy x_min <= x_max and y_min <= y_max")
        cols = (self.x_max - self.x_min) / self.spacing + 1e-9
        rows = (self.y_max - self.y_min) / self.spacing + 1e-9
        # len() and every tile id must fit an index-sized integer.
        if not (math.isfinite(cols) and math.isfinite(rows)) or (
            (int(cols) + 1) * (int(rows) + 1) > sys.maxsize
        ):
            raise ValueError(f"bounds span too many tiles at spacing {self.spacing!r}: {bounds}")
        nx, ny = int(cols) + 1, int(rows) + 1
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)
        object.__setattr__(self, "_built", {})  # tile id -> TileRecord

    def __len__(self) -> int:
        return self.nx * self.ny

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i, n = operator.index(index), len(self)
        if not -n <= i < n:
            raise IndexError(f"tile index {i} out of range for {n} tiles")
        return self._record(i % n)

    def _record(self, tile_id: int) -> TileRecord:
        record = self._built.get(tile_id)
        if record is None:
            iy, ix = divmod(tile_id, self.nx)
            x, y = self.x_min + ix * self.spacing, self.y_min + iy * self.spacing
            record = self._built[tile_id] = TileRecord(tile_id, x, y)
        return record

    @property
    def tiles(self) -> TileSet:
        """The set's TileRecords in id order: the set itself."""
        return self


def generate_grid(
    x_min: float, x_max: float, y_min: float, y_max: float, spacing: float = DEFAULT_SPACING_M
) -> TileSet:
    """Lay out tiles on a regular grid covering the bounds.

    Centers sit at x_min + i * spacing for every multiple that stays inside
    the bounds, same along y, so the count is (floor(dx/s)+1) * (floor(dy/s)+1).
    """
    return TileSet(x_min, x_max, y_min, y_max, spacing)


def k_nearest(tile_set: TileSet, point: tuple[float, float], k: int) -> list[TileRecord]:
    """The k tiles nearest to a ground point, by (euclidean distance, tile_id).

    Walks concentric index rings outward from the query's grid cell and stops
    once the next ring cannot beat the current k-th best distance, which gives
    the exact brute-force ordering including ties.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1 or k > len(tile_set):
        raise ValueError(f"k must be in 1..{len(tile_set)}, got {k}")
    px, py = float(point[0]), float(point[1])
    if not (math.isfinite(px) and math.isfinite(py)):
        raise ValueError("query point must be finite")
    # The squared gaps below raise OverflowError past the float range.
    dx = max(abs(px - tile_set.x_min), abs(px - tile_set.x_max))
    dy = max(abs(py - tile_set.y_min), abs(py - tile_set.y_max))
    if not math.isfinite(2.0 * (dx * dx + dy * dy)):
        raise ValueError(
            f"query point ({px!r}, {py!r}) lies too far from the tile grid to square its gaps"
        )

    nx, ny, s = tile_set.nx, tile_set.ny, tile_set.spacing
    x0, y0 = tile_set.x_min, tile_set.y_min
    # Clamped before rounding, which raises on an index past the float range.
    ix0 = round(min(max((px - x0) / s, 0.0), nx - 1))
    iy0 = round(min(max((py - y0) / s, 0.0), ny - 1))
    # Distance from the query to its anchor node; rings at index distance m
    # can contain nothing closer than m*s - anchor_gap. Distances are computed
    # in floats, so a tile on that bound can round below it: the slack, far
    # above the rounding of coordinates this size, keeps such a ring in.
    anchor_gap = max(abs(px - (x0 + ix0 * s)), abs(py - (y0 + iy0 * s)))
    slack = 1e-9 * (abs(x0) + abs(y0) + abs(px) + abs(py) + (nx + ny) * s)

    # The k best (d2, id) pairs so far, in order; a ring only has to be
    # merged into them, never into every tile seen.
    best: list[tuple[float, int]] = []
    for m in range(max(nx, ny) + 1):
        if len(best) == k:
            lower = m * s - anchor_gap - slack
            if lower > 0.0 and lower * lower > best[-1][0]:
                break
        for ix, iy in _ring_indices(ix0, iy0, m, nx, ny):
            d2 = (x0 + ix * s - px) ** 2 + (y0 + iy * s - py) ** 2
            best.append((d2, iy * nx + ix))
        best.sort()
        del best[k:]
    return [tile_set._record(tid) for _, tid in best]


def _ring_indices(ix0: int, iy0: int, m: int, nx: int, ny: int):
    """Grid indices at Chebyshev distance m from (ix0, iy0), clipped to bounds."""
    if m == 0:
        yield (ix0, iy0)
        return
    x_lo, x_hi = ix0 - m, ix0 + m
    y_lo, y_hi = iy0 - m, iy0 + m
    for ix in range(max(x_lo, 0), min(x_hi, nx - 1) + 1):
        if 0 <= y_lo < ny:
            yield (ix, y_lo)
        if 0 <= y_hi < ny:
            yield (ix, y_hi)
    for iy in range(max(y_lo + 1, 0), min(y_hi - 1, ny - 1) + 1):
        if 0 <= x_lo < nx:
            yield (x_lo, iy)
        if 0 <= x_hi < nx:
            yield (x_hi, iy)


def save_tiles(tile_set: TileSet, path: str) -> None:
    """Write a tile set as the versioned text format: the header and the bounds
    line, which define the whole grid (round-trip exact, any tile count).
    """
    t = tile_set
    bounds = f"bounds {t.x_min!r} {t.x_max!r} {t.y_min!r} {t.y_max!r} {t.spacing!r}"
    write_rows(path, _HEADER, [bounds])


def load_tiles(path: str) -> TileSet:
    """Parse a tile file written by :func:`save_tiles` into the grid its bounds
    line defines. Raises FileFormatError at ``path:line:`` for a bad bounds
    line or any line after it.
    """
    return read_rows(path, _HEADER, _parse_tiles)


def _parse_tiles(rows) -> TileSet:
    bounds = next(rows, [])
    if len(bounds) != 6 or bounds[0] != "bounds":
        raise ValueError("expected 'bounds x_min x_max y_min y_max spacing'")
    grid = TileSet(*(float(t) for t in bounds[1:]))
    extra = next(rows, None)
    if extra is not None:
        raise ValueError(f"expected nothing after the bounds line, got {' '.join(extra)!r}")
    return grid
