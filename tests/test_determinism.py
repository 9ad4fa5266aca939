"""Pinned sha256 digests of the files `crossview run` and `simulate` write.

The README promises byte-identical output run to run and machine to
machine. These digests hold that promise against every later change: a
refactor that moves any output bit fails here. Re-pin only on purpose, and
record why. Child processes check that `fuse`, `run` and `simulate` give the
same bits under three OpenBLAS kernels, one without FMA and two with it, and
that `run` and `simulate` do under numpy's X86_V3 and X86_V2 dispatch levels.
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
        "summary.csv": "846eda09ee5e9c4ed86fca0ef36b01cb53b39667f86cb016c78288d137629044",
        "truth.txt": "2a016c9a1091c47479b6e4ee2c6b7155d66a9ae76b25020b981ab5b63a839ba4",
        "vo_only.txt": "2218d4ce40a710beb14e2c03fb36a2d5327d44ae9ea5466e9b21a6f43895231c",
        "vo_scene.txt": "481d01eb12adecdb9039703ef5d461cc3a77c0bce18a2f163833957200f1dabf",
        "vo_regression.txt": "3208cc6251dc51ec8f31149c0fb24a4d1306e19ee4639d5163ec5ed2736faf81",
        "vo_hybrid.txt": "6484c6a2fad503caaf950b2c2da96237dddc8963cbfd840623f76f3269822f4e",
    },
    "dense_outliers": {
        "summary.csv": "e13e7dcba31e50205e01cd27027c98046015e329a88bac6db8a4f3105260bfe0",
        "truth.txt": "2a016c9a1091c47479b6e4ee2c6b7155d66a9ae76b25020b981ab5b63a839ba4",
        "vo_only.txt": "2218d4ce40a710beb14e2c03fb36a2d5327d44ae9ea5466e9b21a6f43895231c",
        "vo_scene.txt": "43d93697fe79865825329dbd49bbc100bdc9d8104288e307ba5396635e26c5f2",
        "vo_regression.txt": "2ebcb4e70f9450f2af733428c9bb1f5d72e841ceb9c18282547b1db16024aa8d",
        "vo_hybrid.txt": "f57eb642ecaa2cfd6fa830954495f0a50a4b98ed3352bb0e418aeb3f9e76fa07",
    },
}


# `simulate` of the base config, seed 5: truth poses and drifting VO columns.
SIMULATE_GOLDEN = "5c0317a429a026f22fbd7113487c09f57436cfa4d89e5bed477305786860c849"


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
    child = _output_digests_child(OPENBLAS_CORETYPE=core)
    assert json.loads(child.stdout) == {**GOLDEN, "simulate": SIMULATE_GOLDEN}


# numpy picks each ufunc's SIMD loop from the CPU at import; a feature named
# here is not used. The first drops dispatch from X86_V4 to X86_V3, the second
# to the X86_V2 baseline. numpy ignores names the CPU lacks, so on a machine
# without AVX-512 the first changes nothing.
NUMPY_DISPATCH = {
    "x86_v3": "X86_V4 AVX512_ICL AVX512_SPR",
    "x86_v2": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}


@pytest.mark.parametrize("disabled", NUMPY_DISPATCH.values(), ids=NUMPY_DISPATCH.keys())
def test_outputs_are_the_same_under_every_numpy_dispatch_level(disabled):
    """The elementwise numpy the builders and scorer use gives GOLDEN's and
    SIMULATE_GOLDEN's bytes whichever SIMD loops numpy dispatches to."""
    child = _output_digests_child(NPY_DISABLE_CPU_FEATURES=disabled)
    assert json.loads(child.stdout) == {**GOLDEN, "simulate": SIMULATE_GOLDEN}


def _output_digests_child(**overrides) -> subprocess.CompletedProcess:
    """OUTPUT_DIGESTS run to completion in a child process with these
    environment variables set."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(crossview.__file__)))
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = [json.dumps(CONFIGS), json.dumps(RUN_FILES)]
    return subprocess.run(
        [sys.executable, "-c", OUTPUT_DIGESTS, *args], env=env, capture_output=True, text=True,
        check=True,
    )
