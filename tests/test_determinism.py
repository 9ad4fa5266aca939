"""Pinned sha256 digests of the files `crossview run` and `simulate` write.

The README promises byte-identical output run to run on one BLAS kernel.
These digests hold that promise against every later change: a refactor that
moves any output bit fails here. Re-pin only on purpose, and record why.
`fuse` is held to more: the same bits under every OpenBLAS kernel.
"""

import hashlib
import json
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
        "vo_scene.txt": "b40358fea8640278552625934b402aadece4c6ea59cd7d430db3b22a19e20e59",
        "vo_regression.txt": "757aa8832c4a832c1286a5ab57569e7b5c85d2f51b594252e2c59cdd7a89cb57",
        "vo_hybrid.txt": "8d98acaeed7fa6c4421b8e24c4f5e284bf7a26e59357f52e1484e527e5f13ef1",
    },
    "dense_outliers": {
        "summary.csv": "1c9d5ba8a66cef808cd944f001cc7343cf29cf61c9d731ea79cbb02bc223915e",
        "truth.txt": "0e182074181e69005599c9dd95fe2f899bebaeca935000f5ef1c0452fa6f4ec3",
        "vo_only.txt": "c740eae628b59270deb60f793e1a5195e61446021596659859f608cf3092cf0e",
        "vo_scene.txt": "2e3002f301c9cfa87cf84324fba5abe894d3fa62399074bbb2ceb6387ae5a3e2",
        "vo_regression.txt": "cf066f3ca1f5fc95aef8438a2fa9ded513cafc251fe3cec2b2177f81eb7b8e98",
        "vo_hybrid.txt": "f61ca1c185e0effa512a6da7988e5b6c8734c6d9bf71a43adf140a87d5a6efe9",
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


# Reruns both `run` digest configs in a child process and prints their digests.
RUN_DIGESTS = """
import contextlib, hashlib, io, json, pathlib, sys, tempfile
from crossview.cli import main

configs, files = json.loads(sys.argv[1]), json.loads(sys.argv[2])
digests = {}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    tmp = pathlib.Path(tmp)
    tiles = str(tmp / "tiles.txt")
    assert main(["gen-tiles", "--bounds", "-800", "800", "-800", "800", "--out", tiles]) == 0
    for name, text in configs.items():
        cfg, out = tmp / (name + ".cfg"), tmp / name
        cfg.write_text(text)
        argv = ["run", "--config", str(cfg), "--tiles", tiles, "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        digests[name] = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}
print(json.dumps(digests))
"""


@pytest.mark.skipif(
    not _dynamic_arch_openblas(),
    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE picks no kernel",
)
@pytest.mark.parametrize("core", ["Haswell", "SkylakeX"])
def test_run_outputs_are_the_same_under_fma_openblas_kernels(core):
    """The filter loop's correction runs in plain floats, so the `run` bytes
    are GOLDEN's under each FMA kernel. Prescott is left out: the builders'
    and predict's stacked 3x3 np.matmul still take its kernel's bits."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(crossview.__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = [json.dumps(CONFIGS), json.dumps(RUN_FILES)]
    child = subprocess.run(
        [sys.executable, "-c", RUN_DIGESTS, *args], env=env, capture_output=True, text=True,
        check=True,
    )
    assert json.loads(child.stdout) == GOLDEN
