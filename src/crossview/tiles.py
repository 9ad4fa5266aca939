"""Satellite tile database: a regular ground grid with exact nearest-k queries.

Tiles are nadir satellite views rendered north-aligned at a fixed altitude, so
a record is just an id and a ground center. The set is a regular grid, which
lets ``k_nearest`` read one window of tiles about the query, grown until no
tile outside it can rank among the k best, instead of scanning every tile,
while returning exactly what a brute-force scan sorted by (distance, tile_id)
would.
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

    Reads a square window of tiles about the query's nearest node, clipped to
    the grid, and returns its k best once every tile beyond each of its inner
    sides is provably farther than the k-th; otherwise the window grows by one
    node on each side. This is exactly what a brute-force scan sorted by
    (distance, tile_id) returns, ties included.
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
    # Every tile's squared gap along x is at least ex2, along y at least ey2:
    # the query's gap to the grid's first or last column (row), 0 between.
    ex2 = _span_gap2(x0, x0 + (nx - 1) * s, px)
    ey2 = _span_gap2(y0, y0 + (ny - 1) * s, py)
    r = (math.isqrt(k - 1) + 2) // 2  # the least r with (2r)**2 >= k
    while True:
        x_lo = ix0 - r if ix0 > r else 0
        x_hi = ix0 + r if ix0 + r < nx else nx - 1
        y_lo = iy0 - r if iy0 > r else 0
        y_hi = iy0 + r if iy0 + r < ny else ny - 1
        w = x_hi - x_lo + 1
        if w * (y_hi - y_lo + 1) >= k:
            # Row-major, which is id order, so a stable sort by d2 breaks ties by id.
            dx2 = [(x0 + ix * s - px) ** 2 for ix in range(x_lo, x_hi + 1)]
            dy2 = [(y0 + iy * s - py) ** 2 for iy in range(y_lo, y_hi + 1)]
            d2 = [a + b for b in dy2 for a in dx2]
            order = sorted(range(len(d2)), key=d2.__getitem__)[:k]
            dk = d2[order[-1]]
            # A tile beyond an inner side is no nearer than that side's next
            # column (row) at the span's gap: its gaps are formed by the same
            # float steps, and rounding is monotone. Were that column on the
            # query's far side, the window's own tiles would be no nearer
            # either, so the test would fail and the window grow.
            if (
                (x_lo == 0 or (x0 + (x_lo - 1) * s - px) ** 2 + ey2 > dk)
                and (x_hi == nx - 1 or (x0 + (x_hi + 1) * s - px) ** 2 + ey2 > dk)
                and (y_lo == 0 or (y0 + (y_lo - 1) * s - py) ** 2 + ex2 > dk)
                and (y_hi == ny - 1 or (y0 + (y_hi + 1) * s - py) ** 2 + ex2 > dk)
            ):
                corner, built = y_lo * nx + x_lo, tile_set._built
                ids = [corner + n // w * nx + n % w for n in order]
                return [built.get(i) or tile_set._record(i) for i in ids]
        r += 1


def _span_gap2(first: float, last: float, p: float) -> float:
    """Squared gap from p to [first, last], formed as a tile's gap is; 0 inside."""
    if p < first:
        return (first - p) ** 2
    return (last - p) ** 2 if p > last else 0.0


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
