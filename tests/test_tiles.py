"""Tile grid and k-nearest query tests, anchored to a brute-force oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview.textfile import FileFormatError
from crossview.tiles import (
    TileRecord,
    generate_grid,
    k_nearest,
    load_tiles,
    save_tiles,
)


def brute_force_k_nearest(tile_set, point, k):
    """Reference implementation: full scan, sort by (squared distance, id)."""
    px, py = float(point[0]), float(point[1])
    scored = [
        ((t.x - px) ** 2 + (t.y - py) ** 2, t.tile_id, t) for t in tile_set.tiles
    ]
    scored.sort(key=lambda item: (item[0], item[1]))
    return [t for _, _, t in scored[:k]]


@pytest.fixture(scope="module")
def grid_861():
    return generate_grid(0.0, 2000.0, 0.0, 1000.0, 50.0)


# --- generation -----------------------------------------------------------


def test_generate_grid_counts():
    assert len(generate_grid(0.0, 100.0, 0.0, 100.0, 50.0).tiles) == 9


def test_generate_grid_861(grid_861):
    assert len(grid_861.tiles) == 861
    assert grid_861.nx == 41 and grid_861.ny == 21


def test_grid_row_major_ids_and_spacing(grid_861):
    tiles = grid_861.tiles
    for t in tiles[:100]:
        row, col = divmod(t.tile_id, grid_861.nx)
        assert t.x == pytest.approx(0.0 + 50.0 * col)
        assert t.y == pytest.approx(0.0 + 50.0 * row)
    xs = sorted({t.x for t in tiles})
    assert np.allclose(np.diff(xs), 50.0)


def test_generate_grid_rejects_bad_bounds():
    with pytest.raises(ValueError):
        generate_grid(100.0, 0.0, 0.0, 100.0, 50.0)
    with pytest.raises(ValueError):
        generate_grid(0.0, 100.0, 0.0, 100.0, -50.0)


@pytest.mark.parametrize(
    "bounds",
    [(0.0, 1e308, 0.0, 1.0, 1e-300), (0.0, 1.0, -1e308, 1e308, 1.0), (0.0, 1e300, 0.0, 1.0, 1.0)],
    ids=["ratio-overflows", "span-overflows", "count-exceeds-index"],
)
def test_generate_grid_rejects_overflowing_tile_count(bounds):
    with pytest.raises(ValueError, match="too many tiles"):
        generate_grid(*bounds)


def test_load_rejects_overflowing_bounds_at_its_line(tmp_path):
    path = tmp_path / "tiles.txt"
    path.write_text("#crossview-tiles-v2\nbounds 0.0 1e308 0.0 1.0 1e-300\n")
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}:2: .*too many tiles"):
        load_tiles(path)


def test_tile_record_validation():
    for tid in (-1, 2**63):  # tile_id + 1 must fit a Philox counter word
        with pytest.raises(ValueError, match=r"tile_id must lie in \[0, 2\*\*63\)"):
            TileRecord(tid, 0.0, 0.0)
    assert TileRecord(2**63 - 1, 0.0, 0.0).tile_id == 2**63 - 1
    with pytest.raises(ValueError):
        TileRecord(0, float("nan"), 0.0)
    t = TileRecord(3, 10.0, 20.0)
    assert (t.tile_id, t.x, t.y) == (3, 10.0, 20.0)


def test_tiles_sequence_builds_grid_records(grid_861):
    tiles = grid_861.tiles
    assert len(tiles) == 861
    assert tiles[-1] == tiles[860] == TileRecord(860, 2000.0, 1000.0)
    assert tiles[42] == TileRecord(42, 50.0, 50.0)
    assert tiles[40:43] == (tiles[40], tiles[41], tiles[42])
    assert [t.tile_id for t in tiles] == list(range(861))
    with pytest.raises(IndexError):
        tiles[861]
    with pytest.raises(IndexError):
        tiles[-862]


# --- k_nearest ------------------------------------------------------------


def test_k_nearest_on_node_interior(grid_861):
    got = k_nearest(grid_861, (500.0, 500.0), 9)
    ids = {t.tile_id for t in got}
    anchor = next(t for t in grid_861.tiles if t.x == 500.0 and t.y == 500.0)
    row, col = divmod(anchor.tile_id, grid_861.nx)
    expected = {
        (row + dr) * grid_861.nx + (col + dc)
        for dr in (-1, 0, 1)
        for dc in (-1, 0, 1)
    }
    assert ids == expected
    # nearest first: the anchor tile itself leads the list
    assert got[0].tile_id == anchor.tile_id


def test_k_nearest_tie_break_by_id(grid_861):
    # query point equidistant from four lattice nodes
    got = k_nearest(grid_861, (525.0, 525.0), 4)
    d2 = [(t.x - 525.0) ** 2 + (t.y - 525.0) ** 2 for t in got]
    assert np.allclose(d2, d2[0])
    ids = [t.tile_id for t in got]
    assert ids == sorted(ids)


def test_k_nearest_matches_brute_force(grid_861):
    rng = np.random.default_rng(31)
    for _ in range(300):
        point = (
            float(rng.uniform(-300.0, 2300.0)),
            float(rng.uniform(-300.0, 1300.0)),
        )
        k = int(rng.integers(1, 16))
        fast = k_nearest(grid_861, point, k)
        slow = brute_force_k_nearest(grid_861, point, k)
        assert [t.tile_id for t in fast] == [t.tile_id for t in slow]


@settings(max_examples=300, deadline=None)
@given(
    x_min=st.floats(-1e4, 1e4),
    y_min=st.floats(-1e4, 1e4),
    spacing=st.floats(0.5, 200.0),
    nx=st.integers(1, 25),
    ny=st.integers(1, 25),
    # query in grid units: half-lattice points force ties, the rest lands
    # anywhere from well outside the grid to inside it
    qx=st.one_of(st.integers(-10, 60).map(lambda i: i / 2.0), st.floats(-30.0, 60.0)),
    qy=st.one_of(st.integers(-10, 60).map(lambda i: i / 2.0), st.floats(-30.0, 60.0)),
    k=st.integers(1, 30),
)
def test_k_nearest_matches_brute_force_on_random_grids(x_min, y_min, spacing, nx, ny, qx, qy, k):
    grid = generate_grid(
        x_min, x_min + (nx - 1) * spacing, y_min, y_min + (ny - 1) * spacing, spacing
    )
    point = (x_min + qx * spacing, y_min + qy * spacing)
    k = min(k, len(grid))
    fast = k_nearest(grid, point, k)
    assert fast == brute_force_k_nearest(grid, point, k)


@settings(max_examples=300, deadline=None)
@given(
    x_min=st.floats(-1e12, 1e12),
    y_min=st.floats(-1e12, 1e12),
    spacing=st.floats(1e-9, 1e3),
    nx=st.integers(1, 25),
    ny=st.integers(1, 25),
    # query in grid units: half-lattice ties, or up to 1000 spacings outside
    qx=st.one_of(st.integers(-10, 60).map(lambda i: i / 2.0), st.floats(-1000.0, 1025.0)),
    qy=st.one_of(st.integers(-10, 60).map(lambda i: i / 2.0), st.floats(-1000.0, 1025.0)),
    k=st.integers(1, 80),
)
def test_k_nearest_matches_brute_force_on_wide_grids(x_min, y_min, spacing, nx, ny, qx, qy, k):
    """Corners whose rounding swamps the spacing, queries far outside and k
    past any window size: the growing window's bound still leaves out only
    tiles the brute-force scan ranks below the k-th."""
    grid = generate_grid(
        x_min, x_min + (nx - 1) * spacing, y_min, y_min + (ny - 1) * spacing, spacing
    )
    point = (x_min + qx * spacing, y_min + qy * spacing)
    k = min(k, len(grid))
    assert k_nearest(grid, point, k) == brute_force_k_nearest(grid, point, k)


def test_k_nearest_keeps_a_ring_whose_tie_rounds_below_its_bound():
    # From the corner tile, index offsets (4, 3) and (0, 5) tie at 5 spacings.
    # The (0, 5) tile's distance rounds below 5 * spacing, so ring 5 must be
    # scanned although its bound does not beat the k-th best of rings 0-4.
    s = 2.041568148624755
    grid = generate_grid(0.0, 4 * s, 54.0, 54.0 + 5 * s, s)
    fast = k_nearest(grid, (0.0, 54.0), 23)
    assert fast == brute_force_k_nearest(grid, (0.0, 54.0), 23)
    assert fast[-1].tile_id == 25


def test_k_nearest_full_set_sorted(grid_861):
    small = generate_grid(0.0, 100.0, 0.0, 100.0, 50.0)
    got = k_nearest(small, (12.0, 34.0), len(small.tiles))
    assert len(got) == 9
    d2 = [(t.x - 12.0) ** 2 + (t.y - 34.0) ** 2 for t in got]
    assert all(a <= b + 1e-12 for a, b in zip(d2, d2[1:]))


def test_k_nearest_rejects_bad_k(grid_861):
    with pytest.raises(ValueError):
        k_nearest(grid_861, (0.0, 0.0), 0)
    with pytest.raises(ValueError):
        k_nearest(grid_861, (0.0, 0.0), 862)
    with pytest.raises(ValueError):
        k_nearest(grid_861, (0.0, 0.0), 2.5)


def test_k_nearest_rejects_a_non_finite_query(grid_861):
    with pytest.raises(ValueError, match="^query point must be finite$"):
        k_nearest(grid_861, (0.0, math.nan), 1)


def test_k_nearest_far_outside_query(grid_861):
    got = k_nearest(grid_861, (-5000.0, -5000.0), 3)
    slow = brute_force_k_nearest(grid_861, (-5000.0, -5000.0), 3)
    assert [t.tile_id for t in got] == [t.tile_id for t in slow]
    assert got[0].tile_id == 0
    # 800 m west of a 10 m grid, with k from one tile to past the first window.
    grid = generate_grid(-1500.0, 1500.0, -1500.0, 1500.0, 10.0)
    for k in (1, 16, 40):
        assert k_nearest(grid, (-2300.0, 3.0), k) == brute_force_k_nearest(grid, (-2300.0, 3.0), k)


@pytest.mark.parametrize(
    "grid, point",
    [
        (generate_grid(0.0, 100.0, 0.0, 100.0, 10.0), (1e200, 0.0)),  # its squared gap overflows
        (generate_grid(0.0, 100.0, 0.0, 100.0, 10.0), (0.0, -1e200)),
        (generate_grid(-1e308, -1e308, 0.0, 0.0, 1.0), (1e308, 0.0)),  # its gap overflows
    ],
)
def test_k_nearest_rejects_a_finite_query_too_far_to_square(grid, point):
    # Once an uncaught OverflowError.
    with pytest.raises(ValueError, match="^" + re.escape(f"query point {point!r} lies too far")):
        k_nearest(grid, point, 1)


def test_k_nearest_clamps_an_anchor_index_past_the_float_range():
    # (1e10 - 0) / 1e-300 overflows: once an uncaught OverflowError from round.
    grid = generate_grid(0.0, 0.0, 0.0, 0.0, 1e-300)
    assert k_nearest(grid, (1e10, -1e10), 1) == [grid[0]]


# --- save / load ----------------------------------------------------------


def test_save_load_round_trip(tmp_path, grid_861):
    path = tmp_path / "tiles.txt"
    save_tiles(grid_861, path)
    loaded = load_tiles(path)
    assert loaded == grid_861


def test_huge_grid_round_trips_in_two_lines(tmp_path):
    # About 1e12 tiles: the file is the bounds line, whatever the tile count.
    grid = generate_grid(0.0, 1e6, 0.0, 1e6, 1.0)
    path = tmp_path / "tiles.txt"
    save_tiles(grid, path)
    assert path.read_text() == "#crossview-tiles-v2\nbounds 0.0 1000000.0 0.0 1000000.0 1.0\n"
    loaded = load_tiles(path)
    assert loaded == grid and len(loaded) == (10**6 + 1) ** 2


def test_save_is_byte_deterministic(tmp_path, grid_861):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    save_tiles(grid_861, a)
    save_tiles(grid_861, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#something-else\nbounds 0 100 0 100 50\n")
    with pytest.raises(FileFormatError, match="header"):
        load_tiles(path)


def test_load_rejects_empty_body(tmp_path):
    # A v1 file (bounds line, no tile rows) is refused at its header.
    path = tmp_path / "empty.txt"
    path.write_text("#crossview-tiles-v1\nbounds 0 100 0 100 50\n")
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}:1: expected header"):
        load_tiles(path)
    # A v2 header with nothing after it has no bounds line.
    path.write_text("#crossview-tiles-v2\n\n")
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}: expected 'bounds"):
        load_tiles(path)


def test_load_rejects_garbage_row(tmp_path):
    path = tmp_path / "tiles.txt"
    path.write_text("#crossview-tiles-v2\nbounds 0.0 not-a-number 0.0 100.0 50.0\n")
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}:2: "):
        load_tiles(path)


def test_load_rejects_a_line_after_the_bounds(tmp_path):
    path = tmp_path / "tiles.txt"
    save_tiles(generate_grid(0.0, 100.0, 0.0, 100.0, 50.0), path)
    with open(path, "a") as fh:
        fh.write("\n0 0.0 0.0\n")  # line 3 is blank, line 4 an old tile row
    with pytest.raises(FileFormatError) as err:
        load_tiles(path)
    assert str(err.value) == f"{path}:4: expected nothing after the bounds line, got '0 0.0 0.0'"


def test_load_rejects_missing_bounds(tmp_path):
    path = tmp_path / "tiles.txt"
    path.write_text("#crossview-tiles-v2\n0 0.0 0.0\n")
    with pytest.raises(FileFormatError, match=r":2: expected 'bounds"):
        load_tiles(path)
