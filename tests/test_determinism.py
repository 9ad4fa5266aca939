"""Pinned sha256 digests of the files `crossview run` and `simulate` write.

The README promises byte-identical output, run to run and machine to machine.
These digests hold that promise against every later change: a refactor that
moves any output bit fails here. Re-pin only on purpose, and record why.
"""

import hashlib

import pytest

from crossview.cli import main as cli_main

RUN_FILES = (
    "summary.csv",
    "truth.txt",
    "vo_only.txt",
    "vo_scene.txt",
    "vo_regression.txt",
    "vo_hybrid.txt",
)

# The acceptance-8 flight; the second config adds a correction every frame
# from 16 candidates with outliers, so the matcher's outlier branch runs.
BASE_CONFIG = "length_m = 500\nduration_s = 40\nturn_radius_m = 40\nstraight_init_m = 50\n"
DENSE_OUTLIERS = "correction_hz = 20\nk_candidates = 16\noutlier_prob = 0.2\n"
CONFIGS = {"base": BASE_CONFIG, "dense_outliers": BASE_CONFIG + DENSE_OUTLIERS}

GOLDEN = {
    "base": {
        "summary.csv": "82ee7783827213d52dd290cbd4367841250bd3e2e3b266e34f72c3dfdb5d314d",
        "truth.txt": "0e182074181e69005599c9dd95fe2f899bebaeca935000f5ef1c0452fa6f4ec3",
        "vo_only.txt": "c740eae628b59270deb60f793e1a5195e61446021596659859f608cf3092cf0e",
        "vo_scene.txt": "9a9b799cd312f1b7a11c02457da1b0be8ff51fa5e2827281e66d221b835474cc",
        "vo_regression.txt": "f9f079c8e7a0327bbf42c6a2bf9e4c2cd448b4cd7100ce0c8c59e9e2a41a02f8",
        "vo_hybrid.txt": "91663216d52f58ab1ef1b6ca10d27018bfee0e97f6371fbff849c64bfcd20770",
    },
    "dense_outliers": {
        "summary.csv": "75d115235c8644fa22be4e8d7cd6f425d67c4e4c947336cff686bf507d121878",
        "truth.txt": "0e182074181e69005599c9dd95fe2f899bebaeca935000f5ef1c0452fa6f4ec3",
        "vo_only.txt": "c740eae628b59270deb60f793e1a5195e61446021596659859f608cf3092cf0e",
        "vo_scene.txt": "94432f0a94c874f3f2191d3f24ab8339de13c88f9b5df543e4dad43bb1764f84",
        "vo_regression.txt": "f865df0a850771d839370ef747cb119bca0d503ea118e0a124e7dadb9b8a2659",
        "vo_hybrid.txt": "95547e3bade3e13f64808baf0e93d24857c0c96362e4ddbac41d33edf5557aab",
    },
}


# `simulate` of the base config, seed 5: truth poses and drifting VO columns.
SIMULATE_GOLDEN = "3e86fd80c6e0f9832465a5941967ed8c90b609a3d3a5ed3f67bb1ae203224aec"


@pytest.fixture(scope="module")
def tiles_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiles") / "tiles.txt"
    rc = cli_main(["gen-tiles", "--bounds", "-800", "800", "-800", "800", "--out", str(path)])
    assert rc == 0
    return path


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_outputs_match_pinned_digests(tmp_path, tiles_path, name):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CONFIGS[name])
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg_path), "--tiles", str(tiles_path),
            "--seed", "5", "--out", str(out)]
    assert cli_main(argv) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in RUN_FILES}
    assert digests == GOLDEN[name]


def test_simulate_output_matches_pinned_digest(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(BASE_CONFIG)
    out = tmp_path / "flight.txt"
    assert cli_main(["simulate", "--config", str(cfg_path), "--seed", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_GOLDEN
