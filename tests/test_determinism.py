"""Pinned sha256 digests of the files `crossview run` and `simulate` write.

The README promises byte-identical output run to run and machine to
machine. These digests hold that promise against every later change: a
refactor that moves any output bit fails here. Re-pin only on purpose, and
record why. Child processes check that `fuse`, `run` and `simulate` give the
same bits under three OpenBLAS kernels, one without FMA and two with it.
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
        "summary.csv": "c47392105ef713f39e37fea60a9687b6182663fdddff3c083e4882b974d43538",
        "truth.txt": "809a31d79fc8c20cef0bcee2e8f91e15c8f8f10ea73a2fdd0a8afcd96488f859",
        "vo_only.txt": "47d4615be8c85229518ce1dc763e6c805fdc34e01be0639af879195d3e29768d",
        "vo_scene.txt": "4a78d88c9dedae23cc69df72b07dac03a00fe78d18b6b49368b9651cd20a3130",
        "vo_regression.txt": "4c63d97bb8a3f95a4715a810480bcd0ca0f76549b6c07cd5448fd75e45278336",
        "vo_hybrid.txt": "32fa92845fe037485aa0f531b2447c4c075e89559967a9076c00c4891dd3c7c9",
    },
    "dense_outliers": {
        "summary.csv": "5f6ab9367b8a230304b18a819e5021705afa9d9dd6544f52d036bb67398ed0ba",
        "truth.txt": "809a31d79fc8c20cef0bcee2e8f91e15c8f8f10ea73a2fdd0a8afcd96488f859",
        "vo_only.txt": "47d4615be8c85229518ce1dc763e6c805fdc34e01be0639af879195d3e29768d",
        "vo_scene.txt": "93b5090c46697c2944daeeb2caf22512dfed03e2b9b7766c9f45ea7b26e40719",
        "vo_regression.txt": "233dcff6624c5f88a664dbac499ac396bb5f2e3fdc4d192d88e1176f818c8abc",
        "vo_hybrid.txt": "85a5b96b4a9e2eb38177ef8d8e673ccecde5b1d4fc58f1d4663325f19e12f058",
    },
}


# `simulate` of the base config, seed 5: truth poses and drifting VO columns.
SIMULATE_GOLDEN = "72fe4771f46944657a6b6d1f2d09248ad5dc42ee28a9e532448611c8d9c41b0d"


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


# Reruns both `run` digest configs and the `simulate` one in a child process
# and prints their digests.
OUTPUT_DIGESTS = """
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
    flight = tmp / "flight.txt"
    argv = ["simulate", "--config", str(tmp / "base.cfg"), "--seed", "5", "--out", str(flight)]
    assert main(argv) == 0
    digests["simulate"] = hashlib.sha256(flight.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


@pytest.mark.skipif(
    not _dynamic_arch_openblas(),
    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE picks no kernel",
)
@pytest.mark.parametrize("core", ["Prescott", "Haswell", "SkylakeX"])
def test_outputs_are_the_same_under_every_openblas_kernel(core):
    """Predict, the flight builders' rotation products and the correction all
    run in plain floats or fixed-order elementwise numpy, so the `run` bytes
    are GOLDEN's and the `simulate` bytes SIMULATE_GOLDEN's under each
    kernel: Prescott without FMA, Haswell and SkylakeX with it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(crossview.__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = [json.dumps(CONFIGS), json.dumps(RUN_FILES)]
    child = subprocess.run(
        [sys.executable, "-c", OUTPUT_DIGESTS, *args], env=env, capture_output=True, text=True,
        check=True,
    )
    assert json.loads(child.stdout) == {**GOLDEN, "simulate": SIMULATE_GOLDEN}
