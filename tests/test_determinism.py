"""Pinned sha256 digests of the files `crossview run` and `simulate` write.

The README promises byte-identical output run to run on one BLAS kernel.
These digests hold that promise against every later change: a refactor that
moves any output bit fails here. Re-pin only on purpose, and record why.
`fuse` is held to more: the same bits under every OpenBLAS kernel.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import crossview
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
        "summary.csv": "d5698e2c6b2eb03e89645ca773816d3f013d5856825b6b0699e09e4e2391c881",
        "truth.txt": "0e182074181e69005599c9dd95fe2f899bebaeca935000f5ef1c0452fa6f4ec3",
        "vo_only.txt": "c740eae628b59270deb60f793e1a5195e61446021596659859f608cf3092cf0e",
        "vo_scene.txt": "48a9f50cd41764768d174d9f41c609b5ca81dc6a671b5d29b0cfa8e99fd3d625",
        "vo_regression.txt": "d94a0f77b7caa67ae98b3bbe1e82d77c8318931152ae73416e825180a85266c0",
        "vo_hybrid.txt": "3e4da277fb8a8f20d0bb92ff20da748023eda48437d0be448f63438e686afee8",
    },
    "dense_outliers": {
        "summary.csv": "db538b7ae6ca85bf1ed8412f3d5b8cb51027c3ab9fc5a615b851bef0d01ebd87",
        "truth.txt": "0e182074181e69005599c9dd95fe2f899bebaeca935000f5ef1c0452fa6f4ec3",
        "vo_only.txt": "c740eae628b59270deb60f793e1a5195e61446021596659859f608cf3092cf0e",
        "vo_scene.txt": "5ef0209c9aa715179878d64a59e0fc937d4158d17c5786a69af71ed33c05f539",
        "vo_regression.txt": "4f35c82b91c83df2e4a4adb49a43d5ce40f4c790d9e8faa8974134833a8c10b7",
        "vo_hybrid.txt": "02fd24ffcdfe806be5e3368e0b2291c0122859bca2370511451752423b556eff",
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


# Hashes fuse over fixed candidate lists, k = 1 to 19, in a child process.
FUSE_DIGEST = """
import hashlib
import numpy as np
from crossview.config import SimConfig
from crossview.fusion import fuse
from crossview.matchers import MatchResult, match_variances

lone = match_variances(SimConfig(), "hybrid")
rng = np.random.default_rng(2024)
h = hashlib.sha256()
for k in range(1, 20):
    for _ in range(20):
        results = [
            MatchResult(float(rng.uniform(1e-3, 1e3)), rng.uniform(-1e4, 1e4, 3),
                        float(rng.uniform(-179.9, 180.0)), float(rng.uniform(0.0, 45.0)), tid)
            for tid in range(k)
        ]
        fused = fuse(results, lone)
        h.update(fused.z_vector().tobytes() + fused.M.tobytes())
print(h.hexdigest())
"""


def _dynamic_arch_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return False
    return "DYNAMIC_ARCH" in config.get("openblas configuration", "")


@pytest.mark.skipif(
    not _dynamic_arch_openblas(),
    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE picks no kernel",
)
def test_fuse_is_the_same_under_every_openblas_kernel():
    src = os.path.dirname(os.path.dirname(os.path.abspath(crossview.__file__)))
    digests = {}
    for core in ("Prescott", "Haswell", "SkylakeX"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", FUSE_DIGEST], env=env, capture_output=True, text=True, check=True
        )
        digests[core] = child.stdout.strip()
    assert len(set(digests.values())) == 1, digests
