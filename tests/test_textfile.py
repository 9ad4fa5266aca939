"""The shared versioned-text reader/writer and the two formats built on it."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview.config import ConfigError, SimConfig, load_config
from crossview.geometry import euler_to_rotmat
from crossview.sim import Flight, gen_trajectory, load_trajectory, save_trajectory
from crossview.textfile import FileFormatError, read_rows
from crossview.tiles import (
    TileSet,
    generate_grid,
    load_tiles,
    save_tiles,
)


def bits(value):
    """The exact 64-bit pattern of a float, so -0.0 and 0.0 differ."""
    return struct.pack("<d", value)


def test_error_classes_are_one():
    assert issubclass(FileFormatError, ValueError)


def test_blank_rows_are_skipped_but_counted(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("#demo-v1\n\n1\n   \nx\n")

    def parse(rows):
        return [int(tokens[0]) for tokens in rows]

    with pytest.raises(FileFormatError, match=r":5: invalid literal"):
        read_rows(path, "#demo-v1", parse)


def test_header_and_whole_file_errors(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("#other-v1\n1\n")
    with pytest.raises(FileFormatError, match=r":1: expected header '#demo-v1'"):
        read_rows(path, "#demo-v1", list)
    path.write_text("")
    with pytest.raises(FileFormatError, match=r":1: expected header"):
        read_rows(path, "#demo-v1", list)

    path.write_text("#demo-v1\n1\n")

    def parse(rows):
        list(rows)
        raise ValueError("whole-file check failed")

    with pytest.raises(FileFormatError) as err:
        read_rows(path, "#demo-v1", parse)
    assert str(err.value) == f"{path}: whole-file check failed"


# --- a bad value is reported at its own line, in every format -------------


def poisoned_tiles(path):
    save_tiles(generate_grid(0.0, 100.0, 0.0, 100.0, 50.0), path)
    return load_tiles, 2, 2  # line 2 is the bounds line; column 2 is x_max


def poisoned_trajectory(path):
    cfg = SimConfig(length_m=125.0, duration_s=10.0, turn_radius_m=10.0, straight_init_m=10.0)
    save_trajectory(path, gen_trajectory(cfg, seed=0)[:5])
    return load_trajectory, 5, 1  # line 5 is frame 3; column 1 is x


def poisoned_timestamp(path):
    load, lineno, _ = poisoned_trajectory(path)
    return load, lineno, 0  # column 0 is t


def poisoned_dp(path):
    load, lineno, _ = poisoned_trajectory(path)
    return load, lineno, 7  # column 7 is dpx


def poisoned_rotation(path):
    load, lineno, _ = poisoned_trajectory(path)
    return load, lineno, 10  # column 10 is dpsi


@pytest.mark.parametrize(
    "write, message",
    [
        (poisoned_tiles, "must be finite"),
        (poisoned_trajectory, "x must be finite"),
        (poisoned_timestamp, "t must be finite"),
        (poisoned_dp, "dpx must be finite"),
        (poisoned_rotation, "dpsi must be finite"),
    ],
    ids=["tiles", "trajectory", "trajectory_t", "trajectory_dp", "trajectory_dR"],
)
def test_nan_value_reports_its_line(tmp_path, write, message):
    path = str(tmp_path / "data.txt")
    load, lineno, column = write(path)
    load(path)  # the untouched file loads
    with open(path) as fh:
        lines = fh.read().splitlines()
    row = lines[lineno - 1].split()
    row[column] = "nan"
    lines[lineno - 1] = " ".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}:{lineno}: ")
    assert "nan" in str(err.value) or "finite" in str(err.value)
    assert message in str(err.value)  # the bad column names itself


@pytest.mark.parametrize("t", ["inf", "-inf"])
def test_infinite_timestamp_reports_its_line(tmp_path, t):
    path = str(tmp_path / "flight.txt")
    load, lineno, _ = poisoned_trajectory(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[lineno - 1] = " ".join([t, *lines[lineno - 1].split()[1:]])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}:{lineno}: t must be finite")


def written_config(path):
    with open(path, "w") as fh:
        fh.write("length_m = 625\nduration_s = 50\n# turn radius\nturn_radius_m = 40\n")
    return load_config, 3, None  # line 3 is the comment


@pytest.mark.parametrize(
    "write, error",
    [
        (written_config, ConfigError),
        (poisoned_tiles, FileFormatError),
        (poisoned_trajectory, FileFormatError),
    ],
    ids=["config", "tiles", "trajectory"],
)
def test_non_ascii_byte_reports_its_line(tmp_path, write, error):
    path = str(tmp_path / "data.txt")
    load, lineno, _ = write(path)
    load(path)  # the untouched file loads
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    lines[lineno - 1] += " # caf\u00e9".encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))
    with pytest.raises(error) as err:
        load(path)
    assert str(err.value) == f"{path}:{lineno}: non-ASCII byte 0xc3"


# --- bit-exact round trips of arbitrary finite floats -----------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308])
values = st.one_of(edge, finite)
positive = st.one_of(
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e308]),
    st.floats(min_value=5e-324, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(x=values, y=values, spacing=positive)
def test_tile_file_round_trips_floats_bit_exactly(tmp_path_factory, x, y, spacing):
    path = tmp_path_factory.getbasetemp() / "tiles.txt"
    tile_set = TileSet(x, x, y, y, spacing)
    save_tiles(tile_set, path)
    # the file is its header and bounds line, for any grid
    assert path.read_text().splitlines() == [
        "#crossview-tiles-v2", f"bounds {x!r} {x!r} {y!r} {y!r} {spacing!r}"
    ]
    back = load_tiles(path)

    def flat(t):
        values = (t.x_min, t.x_max, t.y_min, t.y_max, t.spacing, t.tiles[0].x, t.tiles[0].y)
        return [bits(v) for v in values]

    assert flat(back) == flat(tile_set)
    # the one tile sits where the grid formula puts it (-0.0 + 0 * s is 0.0)
    assert flat(back)[5:] == [bits(x + 0 * spacing), bits(y + 0 * spacing)]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(values, st.tuples(*[values] * 6), st.tuples(*[values] * 3), st.tuples(*[values] * 3)),
        min_size=1,
        max_size=4,
    )
)
def test_trajectory_file_round_trips_and_rebuilds_each_rotation(tmp_path_factory, rows):
    # The reader builds its increments in bulk; each must be the checked
    # per-row one: t, pose and dp bit-exact, dR euler_to_rotmat of the row's
    # angle columns, byte for byte.
    path = tmp_path_factory.getbasetemp() / "flight.txt"
    t, poses, dp, angles = zip(*rows)
    frames = Flight(t, poses, dp, [euler_to_rotmat(*a) for a in angles])
    save_trajectory(path, frames)
    back = load_trajectory(path)
    assert len(back) == len(frames)
    columns = [line.split() for line in path.read_text().splitlines()[1:]]

    def flat(f):
        return [bits(v) for v in (f.t, *tuple(f.truth), *f.vo_increment.dp)]

    for frame, loaded, row in zip(frames, back, columns):
        assert flat(loaded) == flat(frame)
        rebuilt = euler_to_rotmat(*map(float, row[10:13]))
        assert loaded.vo_increment.dR.tobytes() == rebuilt.tobytes()
