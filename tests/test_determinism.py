"""Pinned sha256 digests of the files `crossview run` writes.

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
        "summary.csv": "aa1a501d2daf97bb860c31e448726f92c99c929f30fbe09f9ccd1acdc5b4f82c",
        "truth.txt": "0e182074181e69005599c9dd95fe2f899bebaeca935000f5ef1c0452fa6f4ec3",
        "vo_only.txt": "c740eae628b59270deb60f793e1a5195e61446021596659859f608cf3092cf0e",
        "vo_scene.txt": "6b1d7f06b3ce31aa8e07bbb2a4d395a2f51d9a2152b42db39cc27caf0f921673",
        "vo_regression.txt": "45b7eecdf9954f54072856d051659df0141a611a05031be2439e15f9e17b4b91",
        "vo_hybrid.txt": "6822936cf5a6e335f053f6c9b744d3a382c71332e42892c4af79ac1ada6f345a",
    },
    "dense_outliers": {
        "summary.csv": "9b1cdbdcb8def61972c01588213b4a34020599821a9686a34498ca9353828a83",
        "truth.txt": "0e182074181e69005599c9dd95fe2f899bebaeca935000f5ef1c0452fa6f4ec3",
        "vo_only.txt": "c740eae628b59270deb60f793e1a5195e61446021596659859f608cf3092cf0e",
        "vo_scene.txt": "70d49dfbbcf5c1f08a04302cd9a067ea2467d52516b3c960c6ebf2f802e38e50",
        "vo_regression.txt": "07b92f5bd099539a8e5a3ad963f992362d59e830c2336603d32c44e4920a1223",
        "vo_hybrid.txt": "e0f3e9bb8b88a4f85d777a32250a6b786b6652ff5ac9a764c9631e0dc037c62c",
    },
}


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
