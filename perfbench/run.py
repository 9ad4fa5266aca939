"""Benchmark for crossview: closed-loop flights through its API and its CLI.

    python3 perfbench/run.py --workload batch_default --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

One process, one thread, one op at a time. Set-up (import crossview, validate
the config, build the tile grid) runs before every op, and its median is
reported. Ops run for --seconds, and never fewer than the workload's distinct
flight seeds, so the accuracy means always cover the same flights for the
same seed. With --trace 1 the run wraps crossview's module boundaries and
reports per-layer counts and self times instead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. A results file with the environment, every op's digest
and the raw timings is written under .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import os

# BLAS and OpenMP get one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy
from tracing import Tracer
from workloads import WORKLOADS, CheckFailed, flight_seeds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
    "pos_pct.vo_hybrid": "%path",
    "pos_pct.vo_regression": "%path",
    "pos_pct.vo_scene": "%path",
    "psi_rmse_deg.vo_hybrid": "deg",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_us", "us"), ("_pct", "%"),
                         ("_ratio", "ratio"), ("_per_frame", "1/frame"),
                         (".candidates", "count")):
        if name.endswith(suffix):
            return unit
    return "B"  # the byte counters


def fresh_import():
    """Import crossview from this checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "crossview" or n.startswith("crossview.")]:
        del sys.modules[name]
    cv = importlib.import_module("crossview")
    importlib.import_module("crossview.cli")
    if not os.path.abspath(cv.__file__).startswith(SRC + os.sep):
        raise ImportError(f"crossview imported from {cv.__file__}, not {SRC}")
    return cv


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config differs across numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "machine": platform.machine(),
    }


def error_structure(summaries: list[dict]) -> tuple[bool, dict]:
    """The paper's error ordering, on the means over the run's flights."""
    means = {
        key: {m: statistics.fmean(s[m][key] for s in summaries) for m in summaries[0]}
        for key in ("pos_pct", "psi_rmse_deg")
    }
    pos, psi = means["pos_pct"], means["psi_rmse_deg"]
    ok = (pos["vo_hybrid"] < pos["vo_regression"] < pos["vo_only"]
          and psi["vo_scene"] > psi["vo_only"])
    return ok, means


class Run:
    """One workload in this process: set-up, the op loop, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: str):
        self.workload = WORKLOADS[name]
        self.seeds = flight_seeds(name, seed, self.workload.flights)
        self.seconds = seconds
        self.workdir = workdir
        self.records: list[dict] = []
        self.setup_times: list[float] = []
        self.digests: dict[int, str] = {}
        self.summaries: dict[int, dict] = {}

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.cv = fresh_import()
        self.ctx = self.workload.setup(self.cv, self.workdir)
        self.setup_times.append(time.perf_counter() - t0)

    def op(self, seed: int, traced: bool = False) -> dict:
        """Run one op, time it, check it, record it."""
        record = {"seed": seed, "traced": traced, "ok": False}
        try:
            t0 = time.perf_counter()
            raw = self.workload.run(self.cv, self.ctx, seed, self.workdir)
            record["seconds"] = time.perf_counter() - t0
            res = self.workload.result(self.ctx, raw, self.workdir)
            values = [v for s in res.summaries.values() for v in s.values()]
            if not all(math.isfinite(v) for v in values):
                raise CheckFailed(f"non-finite summary {res.summaries}")
            first = self.digests.setdefault(seed, res.digest)
            if res.digest != first:
                raise CheckFailed(f"seed {seed}: digest {res.digest} != {first}")
            self.summaries.setdefault(seed, res.summaries)
            record.update(ok=True, frames=res.frames, digest=res.digest)
        except Exception:  # every failure is counted, reported and the loop goes on
            record["error"] = traceback.format_exc(limit=3)
            print(f"op failed: seed {seed}\n{record['error']}", file=sys.stderr)
        self.records.append(record)
        return record

    def repeat(self, unit, minimum: int) -> int:
        """Call unit(n) back to back, at least `minimum` times, then for as
        long as the next call, as long as the last, ends before --seconds."""
        deadline = time.perf_counter() + self.seconds
        n = 0
        while True:
            t0 = time.perf_counter()
            unit(n)
            n += 1
            now = time.perf_counter()
            if n >= minimum and now + (now - t0) > deadline:
                return n

    def measure(self) -> dict[str, float]:
        """Untraced: the timing and memory metrics."""
        n = len(self.seeds)

        def unit(i: int) -> None:
            # Set-up before every op, so its samples span the run.
            self.setup()
            self.op(self.seeds[i % n])

        self.repeat(unit, minimum=n)
        ok = [r for r in self.records if r["ok"]]
        spent = sum(r["seconds"] for r in ok)
        return {
            "setup_s": statistics.median(self.setup_times),
            "frames_per_s": sum(r["frames"] for r in ok) / spent if spent else 0.0,
            "op_s_p50": statistics.median(r["seconds"] for r in ok) if ok else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def trace(self, spans_path: str) -> dict[str, float]:
        """Traced: one untraced op, a traced set-up (op -1), then whole
        passes over the flight list; per-layer metrics per pass."""
        self.setup()
        base = self.op(self.seeds[0])
        self.tracer = Tracer()
        self.tracer.install(self.cv)
        try:
            self.ctx = self.workload.setup(self.cv, self.workdir)
            passes = self.repeat(self.traced_pass, minimum=1)
        finally:
            self.tracer.restore()
        traced = [r for r in self.records if r["traced"] and r["ok"]]
        metrics = self.tracer.layer_metrics(sum(r["frames"] for r in traced), passes)
        first = self.records[1]
        overhead = 0.0
        if base["ok"] and first["ok"]:
            overhead = 100.0 * (first["seconds"] / base["seconds"] - 1.0)
        metrics["trace.overhead_pct"] = overhead
        self.tracer.write(spans_path)
        wall = sum(r["seconds"] for r in traced) or math.inf
        for name, seconds in list(self.tracer.self_totals().items())[:8]:
            print(f"# self-time share {name:45s} {100 * seconds / wall:5.1f}%")
        return metrics

    def traced_pass(self, n: int) -> None:
        for i, seed in enumerate(self.seeds):
            self.tracer.op_id = n * len(self.seeds) + i
            self.op(seed, traced=True)
        self.tracer.op_id = -1


def run_workload(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    run = Run(args.workload, args.seed, args.seconds, workdir)
    try:
        if args.trace:
            metrics = run.trace(os.path.join(OUT, f"spans-{args.workload}.txt"))
        else:
            metrics = run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in run.records)
    structure_ok, means = (
        error_structure(list(run.summaries.values())) if run.summaries else (False, {})
    )
    correct = failed == 0 and structure_ok
    if means and not args.trace:
        for method in ("vo_hybrid", "vo_regression", "vo_scene"):
            metrics[f"pos_pct.{method}"] = means["pos_pct"][method]
        metrics["psi_rmse_deg.vo_hybrid"] = means["psi_rmse_deg"]["vo_hybrid"]
    units = {k: per_layer_unit(k) for k in metrics} if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    env = environment()
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="ascii") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "flight_seeds": run.seeds, "setup_s": run.setup_times,
                   "error_structure": {"ok": structure_ok, "means": means},
                   "ops": run.records, **result}, fh, indent=1)

    secs = [r["seconds"] for r in run.records if r["ok"]]
    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload}: {len(run.records) - failed}/{len(run.records)} ops ok, "
          f"{len(run.seeds)} distinct flights, error structure "
          f"{'ok' if structure_ok else 'VIOLATED'}, op_s over {len(secs)} samples")
    for name, entry in result["metrics"].items():
        print(f"# {name:45s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crossview", "__init__.py")):
        print(f"error: no crossview sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
