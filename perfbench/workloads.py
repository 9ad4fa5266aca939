"""The benchmark's workloads: inputs from a workload seed, one op, its checks.

Every workload's inputs are a pure function of its name and the workload
seed. An op is split in two: `run` is the timed call into crossview, and
`result` (untimed) turns its output into per-method errors and a sha256
digest that must repeat whenever the same flight seed is run again.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass

METHODS = ("vo_only", "vo_scene", "vo_regression", "vo_hybrid")
SUMMARY_FIELDS = ("pos_rmse_m", "pos_pct", "psi_rmse_deg", "theta_rmse_deg")
# One fixed grid over the flight area, the acceptance batch's tile layout.
GRID_BOUNDS = (-1500.0, 1500.0, -1500.0, 1500.0)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class OpResult:
    frames: int  # pipeline-frames: frame count x 4 methods
    summaries: dict[str, dict[str, float]]  # method -> SUMMARY_FIELDS
    digest: str


def flight_seeds(workload: str, seed: int, n: int) -> list[int]:
    """n distinct flight seeds, a pure function of (workload, seed)."""
    return random.Random(f"{workload}:{seed}").sample(range(1_000_000), n)


class Flights:
    """Flights through `sim.run_experiment` on the fixed 50 m tile grid."""

    def __init__(self, flights: int, **config):
        self.flights = flights  # distinct flight seeds per run
        self.config = config

    def setup(self, cv, workdir: str):
        cfg = cv.config.SimConfig(**self.config).validate()
        grid = cv.tiles.generate_grid(*GRID_BOUNDS, 50.0)
        return cfg, grid

    def run(self, cv, ctx, seed: int, workdir: str):
        cfg, grid = ctx
        return cv.sim.run_experiment(cfg, grid, seed)

    def result(self, ctx, res, workdir: str) -> OpResult:
        cfg, _ = ctx
        h = hashlib.sha256()
        for method in METHODS:
            for p in res.estimates[method]:
                h.update(f"{p.x!r} {p.y!r} {p.z!r} {p.psi!r} {p.theta!r} {p.phi!r}\n".encode())
        summaries = {
            m: {f: getattr(res.summaries[m], f) for f in SUMMARY_FIELDS} for m in METHODS
        }
        return OpResult(cfg.frame_count * len(METHODS), summaries, h.hexdigest())


class CliRoundTrip:
    """The file path a user runs: gen-tiles, run, eval x4, simulate, losses."""

    flights = 12
    config_text = "length_m = 1250\nduration_s = 100\n"
    spacing = 10.0

    def setup(self, cv, workdir: str):
        path = os.path.join(workdir, "flight.cfg")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.config_text)
        return cv.config.load_config(path), path

    def run(self, cv, ctx, seed: int, workdir: str):
        _, cfg_path = ctx
        tiles, out = os.path.join(workdir, "tiles.txt"), os.path.join(workdir, "run")
        bounds = [repr(b) for b in GRID_BOUNDS]
        argvs = [
            ["gen-tiles", "--bounds", *bounds, "--spacing", repr(self.spacing), "--out", tiles],
            ["run", "--config", cfg_path, "--tiles", tiles, "--seed", str(seed), "--out", out],
            *(
                ["eval", "--est", os.path.join(out, f"{m}.txt"),
                 "--truth", os.path.join(out, "truth.txt")]
                for m in METHODS
            ),
            ["simulate", "--config", cfg_path, "--seed", str(seed),
             "--out", os.path.join(workdir, "flight.txt")],
            ["losses", "--self-test"],
        ]
        outputs = []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cv.cli.main(argv)
            outputs.append((argv[0], code, buf.getvalue()))
        return outputs

    def result(self, ctx, outputs, workdir: str) -> OpResult:
        cfg, _ = ctx
        for command, code, _ in outputs:
            if code != 0:
                raise CheckFailed(f"crossview {command} exited with {code}")
        nx = int((GRID_BOUNDS[1] - GRID_BOUNDS[0]) / self.spacing) + 1
        ny = int((GRID_BOUNDS[3] - GRID_BOUNDS[2]) / self.spacing) + 1
        _expect(outputs[0][2].startswith(f"wrote {nx * ny} tiles"), outputs[0][2])
        _expect(outputs[-2][2].startswith(f"wrote {cfg.frame_count} frames"), outputs[-2][2])
        _expect(all(line.startswith("ok ") for line in outputs[-1][2].splitlines()),
                outputs[-1][2])

        out = os.path.join(workdir, "run")
        summaries = _read_summary(os.path.join(out, "summary.csv"))
        # eval re-reads both trajectory files; its figures must equal run's.
        for method, (_, _, text) in zip(METHODS, outputs[2:6]):
            scored = {k: float(v) for k, v in (line.split() for line in text.splitlines())}
            _expect(scored == summaries[method], f"eval {method}: {scored} != summary.csv")

        h = hashlib.sha256()
        files = ["tiles.txt", "flight.txt", "run/summary.csv", "run/truth.txt"]
        files += [f"run/{m}.txt" for m in METHODS]
        for name in files:
            with open(os.path.join(workdir, name), "rb") as fh:
                h.update(fh.read())
        for _, _, text in outputs[2:6] + outputs[-1:]:
            h.update(text.encode())
        return OpResult(cfg.frame_count * len(METHODS), summaries, h.hexdigest())


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(f"unexpected output: {what.strip()[:200]}")


def _read_summary(path: str) -> dict[str, dict[str, float]]:
    with open(path, encoding="ascii") as fh:
        header, *rows = fh.read().splitlines()
    _expect(header.split(",") == ["method", *SUMMARY_FIELDS], header)
    summaries = {}
    for row in rows:
        method, *values = row.split(",")
        summaries[method] = dict(zip(SUMMARY_FIELDS, map(float, values)))
    _expect(sorted(summaries) == sorted(METHODS), f"methods {sorted(summaries)}")
    return summaries


# Why each exists: see README.md in this directory.
WORKLOADS = {
    "batch_default": Flights(flights=12),
    "dense_fix": Flights(
        flights=4, length_m=1250.0, duration_s=100.0, correction_hz=20.0, k_candidates=16
    ),
    "cli_roundtrip": CliRoundTrip(),
}
