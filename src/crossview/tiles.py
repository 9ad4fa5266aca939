"""Satellite tile database: a regular ground grid with exact nearest-k queries.

Tiles are nadir satellite views rendered north-aligned at a fixed altitude, so
a record is just an id and a ground center. The set is a regular grid, which
lets ``k_nearest`` walk outward ring by ring from the query cell instead of
scanning every tile, while returning exactly what a brute-force scan sorted by
(distance, tile_id) would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .textfile import FileFormatError, read_rows, write_rows

__all__ = [
    "TILE_ALTITUDE",
    "TILE_HEADING",
    "TileFileError",
    "TileRecord",
    "TileSet",
    "generate_grid",
    "k_nearest",
    "load_tiles",
    "save_tiles",
]

TILE_ALTITUDE = 300.0
TILE_HEADING = 0.0

_HEADER = "#crossview-tiles-v1"


TileFileError = FileFormatError


@dataclass(frozen=True)
class TileRecord:
    """One satellite tile: ground center (x, y) plus the fixed render pose."""

    tile_id: int
    x: float
    y: float
    altitude: float = TILE_ALTITUDE
    heading: float = TILE_HEADING

    def __post_init__(self) -> None:
        if self.tile_id < 0:
            raise ValueError(f"tile_id must be >= 0, got {self.tile_id}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("tile center must be finite")

    @property
    def center(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class TileSet:
    """Regular grid of tiles with its bounds and spacing.

    Ids run row-major from the (x_min, y_min) corner; the constructor checks
    that the records actually sit on that grid in that order.
    """

    tiles: tuple[TileRecord, ...]
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    spacing: float
    nx: int = field(init=False)
    ny: int = field(init=False)

    def __post_init__(self) -> None:
        if self.spacing <= 0.0 or not math.isfinite(self.spacing):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("bounds must satisfy x_min <= x_max and y_min <= y_max")
        if not self.tiles:
            raise ValueError("tile set is empty")
        nx = int((self.x_max - self.x_min) / self.spacing + 1e-9) + 1
        ny = int((self.y_max - self.y_min) / self.spacing + 1e-9) + 1
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)
        if len(self.tiles) != nx * ny:
            raise ValueError(
                f"expected {nx * ny} tiles for these bounds, got {len(self.tiles)}"
            )
        for iy in range(ny):
            for ix in range(nx):
                tile = self.tiles[iy * nx + ix]
                expected_id = iy * nx + ix
                cx = self.x_min + ix * self.spacing
                cy = self.y_min + iy * self.spacing
                if tile.tile_id != expected_id:
                    raise ValueError(
                        f"tile at grid position ({ix}, {iy}) has id {tile.tile_id},"
                        f" expected {expected_id}"
                    )
                if abs(tile.x - cx) > 1e-9 or abs(tile.y - cy) > 1e-9:
                    raise ValueError(
                        f"tile {tile.tile_id} center ({tile.x}, {tile.y}) is off-grid,"
                        f" expected ({cx}, {cy})"
                    )

    def __len__(self) -> int:
        return len(self.tiles)


def generate_grid(
    x_min: float, x_max: float, y_min: float, y_max: float, spacing: float = 50.0
) -> TileSet:
    """Lay out tiles on a regular grid covering the bounds.

    Centers sit at x_min + i * spacing for every multiple that stays inside
    the bounds, same along y, so the count is (floor(dx/s)+1) * (floor(dy/s)+1).
    """
    if spacing <= 0.0 or not math.isfinite(spacing):
        raise ValueError(f"spacing must be positive, got {spacing}")
    if x_max < x_min or y_max < y_min:
        raise ValueError("bounds must satisfy x_min <= x_max and y_min <= y_max")
    nx = int((x_max - x_min) / spacing + 1e-9) + 1
    ny = int((y_max - y_min) / spacing + 1e-9) + 1
    tiles = []
    for iy in range(ny):
        cy = y_min + iy * spacing
        for ix in range(nx):
            cx = x_min + ix * spacing
            tiles.append(TileRecord(iy * nx + ix, cx, cy))
    return TileSet(tuple(tiles), x_min, x_max, y_min, y_max, spacing)


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

    nx, ny, s = tile_set.nx, tile_set.ny, tile_set.spacing
    ix0 = min(max(int(round((px - tile_set.x_min) / s)), 0), nx - 1)
    iy0 = min(max(int(round((py - tile_set.y_min) / s)), 0), ny - 1)
    # Distance from the query to its anchor node; rings at index distance m
    # can contain nothing closer than m*s - anchor_gap.
    anchor_gap = max(
        abs(px - (tile_set.x_min + ix0 * s)), abs(py - (tile_set.y_min + iy0 * s))
    )

    candidates: list[tuple[float, int]] = []
    kth_d2 = math.inf
    max_ring = max(nx, ny)
    for m in range(max_ring + 1):
        if len(candidates) >= k:
            lower = m * s - anchor_gap
            if lower > 0.0 and lower * lower > kth_d2:
                break
        for ix, iy in _ring_indices(ix0, iy0, m, nx, ny):
            tile = tile_set.tiles[iy * nx + ix]
            d2 = (tile.x - px) ** 2 + (tile.y - py) ** 2
            candidates.append((d2, tile.tile_id))
        if len(candidates) >= k:
            kth_d2 = sorted(candidates)[k - 1][0]
    candidates.sort()
    return [tile_set.tiles[tid] for _, tid in candidates[:k]]


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
    """Write a tile set as the versioned text format (round-trip exact)."""
    t = tile_set
    bounds = f"bounds {t.x_min!r} {t.x_max!r} {t.y_min!r} {t.y_max!r} {t.spacing!r}"
    rows = (f"{tile.tile_id} {tile.x!r} {tile.y!r}" for tile in t.tiles)
    write_rows(path, _HEADER, [bounds, *rows])


def load_tiles(path: str) -> TileSet:
    """Parse a tile file written by :func:`save_tiles`.

    Raises TileFileError with a line number for any malformed content.
    """
    return read_rows(path, _HEADER, _parse_tiles)


def _parse_tiles(rows) -> TileSet:
    bounds = next(rows, [])
    if len(bounds) != 6 or bounds[0] != "bounds":
        raise ValueError("expected 'bounds x_min x_max y_min y_max spacing'")
    x_min, x_max, y_min, y_max, spacing = (float(t) for t in bounds[1:])
    tiles = []
    for tokens in rows:
        if len(tokens) != 3:
            raise ValueError(f"expected 'id x y', got {' '.join(tokens)!r}")
        tiles.append(TileRecord(int(tokens[0]), float(tokens[1]), float(tokens[2])))
    if not tiles:
        raise ValueError("file contains no tiles")
    return TileSet(tuple(tiles), x_min, x_max, y_min, y_max, spacing)
