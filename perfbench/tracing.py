"""Span tracing of crossview from the outside, by wrapping module attributes.

Each boundary is wrapped in the namespace that makes the call: `predict` is
traced as `sim.predict`, because that is the name `sim._run_pipeline` looks
up. Spans live in flat arrays until the run ends; a span's parent is the
span that was open when it started, so self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

# (namespace that calls it, attribute, span name). A "Class.attr" owner is a
# class inside the module. One span name may be wrapped in several callers.
BOUNDARIES = [
    ("sim", "predict", "estimator.predict"),
    ("sim", "correct", "estimator.correct"),
    ("sim", "fuse", "fusion.fuse"),
    ("sim", "k_nearest", "tiles.k_nearest"),
    ("tiles", "generate_grid", "tiles.generate_grid"),
    ("cli", "generate_grid", "tiles.generate_grid"),
    ("cli", "save_tiles", "tiles.save_tiles"),
    ("cli", "load_tiles", "tiles.load_tiles"),
    ("matchers.SyntheticMatcher", "match_pair", "matchers.SyntheticMatcher.match_pair"),
    ("matchers.SceneMatcher", "match_pair", "matchers.SceneMatcher.match_pair"),
    ("estimator", "compose_increment", "geometry.compose_increment"),
    ("sim", "euler_to_rotmat", "geometry.euler_to_rotmat"),
    ("sim", "rotmat_to_euler", "geometry.rotmat_to_euler"),
    ("matchers", "ground_intersection", "geometry.ground_intersection"),
    ("sim", "gen_trajectory", "sim.gen_trajectory"),
    ("cli", "gen_trajectory", "sim.gen_trajectory"),
    ("sim", "simulate_vo", "sim.simulate_vo"),
    ("cli", "simulate_vo", "sim.simulate_vo"),
    ("sim", "rmse", "sim.rmse"),
    ("cli", "rmse", "sim.rmse"),
    ("sim", "run_experiment", "sim.run_experiment"),
    ("cli", "run_experiment", "sim.run_experiment"),
    ("sim", "save_trajectory", "sim.save_trajectory"),
    ("cli", "save_trajectory", "sim.save_trajectory"),
    ("cli", "load_trajectory", "sim.load_trajectory"),
    ("cli", "write_summary", "sim.write_summary"),
    ("config", "load_config", "config.load_config"),
    ("cli", "load_config", "config.load_config"),
    ("cli", "gradient_self_test", "losses.gradient_self_test"),
]
CLI_COMMANDS = ("gen-tiles", "simulate", "run", "eval", "losses")
# Counted, not timed: the validation a trusted inner loop would skip.
ROTATION_CHECKS = [("geometry", "is_rotation_matrix"), ("estimator", "is_rotation_matrix")]
# Span names that get p50/p99 of their whole duration, not only self time.
LATENCY_SPANS = ("estimator.predict", "estimator.correct")


def span_names() -> list[str]:
    names = dict.fromkeys(name for _, _, name in BOUNDARIES)
    names.update(dict.fromkeys(f"cli.{c}" for c in CLI_COMMANDS))
    return list(names)


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = ends - starts
    has_parent = parents >= 0
    covered = np.bincount(
        parents[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered.astype(np.int64)


def correction_steps(names, starts, ends, ops, k_name: int, c_name: int) -> list[int]:
    """From each k_nearest start to the end of the next correct, per op."""
    out = []
    pending = None
    for i in np.flatnonzero((names == k_name) | (names == c_name)):
        if names[i] == k_name:
            pending = (ops[i], starts[i])
        elif pending is not None and pending[0] == ops[i]:
            out.append(int(ends[i] - pending[1]))
            pending = None
    return out


class Tracer:
    """Wraps crossview's boundaries, records spans and counters, restores."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counters: Counter = Counter()
        self.shared_draws: set = set()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _patch(self, owner, attr: str, make) -> None:
        # A boundary a refactor removed is skipped and later reports 0 calls.
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name, pre=None, post=None) -> None:
        """Record a span around owner.attr; name may be a function of args."""
        def make(fn):
            fixed = None if callable(name) else self._id(name)

            def traced(*args, **kwargs):
                if pre is not None:
                    pre(args)
                idx = len(self.name_id)
                self.name_id.append(fixed if fixed is not None else self._id(name(args)))
                self.parent.append(self._stack[-1] if self._stack else -1)
                self.op.append(self.op_id)
                self.end.append(0)
                self._stack.append(idx)
                self.start.append(self.clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[idx] = self.clock()
                    self._stack.pop()
                if post is not None:
                    post(args)
                return result
            return traced
        self._patch(owner, attr, make)

    def count(self, owner, attr: str, counter: str) -> None:
        def make(fn):
            def counted(*args, **kwargs):
                self.counters[counter] += 1
                return fn(*args, **kwargs)
            return counted
        self._patch(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, cv) -> None:
        """Wrap every boundary of the imported crossview package `cv`."""
        def size_into(counter, arg):
            def hook(args):
                self.counters[counter] += os.path.getsize(args[arg])
            return hook

        hooks = {
            ("cli", "save_tiles"): {"post": size_into("tiles.bytes_written", 1)},
            ("cli", "load_tiles"): {"pre": size_into("tiles.bytes_read", 0)},
            ("sim", "save_trajectory"): {"post": size_into("sim.text_bytes_written", 0)},
            ("cli", "save_trajectory"): {"post": size_into("sim.text_bytes_written", 0)},
            ("cli", "write_summary"): {"post": size_into("sim.text_bytes_written", 0)},
            ("cli", "load_trajectory"): {"pre": size_into("sim.text_bytes_read", 0)},
            ("sim", "fuse"): {"pre": self._count_candidates},
            ("matchers.SyntheticMatcher", "match_pair"): {"pre": self._note_shared_draw},
        }
        for owner, attr, name in BOUNDARIES:
            self.wrap(_resolve(cv, owner), attr, name, **hooks.get((owner, attr), {}))
        self.wrap(_resolve(cv, "cli"), "main", lambda args: f"cli.{args[0][0]}")
        for owner, attr in ROTATION_CHECKS:
            self.count(_resolve(cv, owner), attr, "geometry.is_rotation_matrix")

    def _count_candidates(self, args) -> None:
        self.counters["fusion.fuse.candidates"] += len(args[0])

    def _note_shared_draw(self, args) -> None:
        # The [seed, frame] stream is the same for every tile of one frame.
        matcher, obs = args[0], args[1]
        self.shared_draws.add((self.op_id, id(matcher), obs.frame))

    def arrays(self):
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.start, dtype=np.int64),
            np.array(self.end, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.op, dtype=np.int64),
        )

    def write(self, path: str) -> None:
        """One span per line: name, start ns, end ns, parent index, op id."""
        rows = zip(self.name_id, self.start, self.end, self.parent, self.op)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("#perfbench-spans-v1 name start_ns end_ns parent op\n")
            for name, start, end, parent, op in rows:
                fh.write(f"{self.names[name]} {start} {end} {parent} {op}\n")

    def self_totals(self) -> dict[str, float]:
        """Total self seconds per span name over the traced ops, largest first."""
        names, starts, ends, parents, ops = self.arrays()
        traced = ops >= 0
        totals = np.bincount(
            names[traced], weights=self_times(starts, ends, parents)[traced],
            minlength=len(self.names),
        )
        return dict(sorted(zip(self.names, totals / 1e9), key=lambda kv: -kv[1]))

    def layer_metrics(self, pipeline_frames: int, passes: int = 1) -> dict[str, float]:
        """Per-layer figures. Calls and bytes are per traced set-up plus one
        pass over the flight list, so they repeat exactly for a workload."""
        names, starts, ends, parents, ops = self.arrays()
        selfs = self_times(starts, ends, parents)
        out: dict[str, float] = {}
        total: dict[str, int] = {}
        for name in span_names():
            sel = names == self._ids.get(name, -1)
            total[name] = int(np.count_nonzero(sel))
            in_setup = int(np.count_nonzero(sel & (ops < 0)))
            out[f"{name}.calls"] = in_setup + (total[name] - in_setup) / passes
            out[f"{name}.self_us"] = _mean(selfs[sel]) / 1e3
            if name in LATENCY_SPANS:
                dur = (ends[sel] - starts[sel]) / 1e3
                out[f"{name}.p50_us"] = _percentile(dur, 50)
                out[f"{name}.p99_us"] = _percentile(dur, 99)
        out["fusion.fuse.candidates"] = _ratio(
            self.counters["fusion.fuse.candidates"], total["fusion.fuse"]
        )
        for key in ("tiles.bytes_read", "tiles.bytes_written",
                    "sim.text_bytes_read", "sim.text_bytes_written"):
            out[key] = self.counters[key] / passes
        out["matchers.shared_draw_useful_ratio"] = _ratio(
            len(self.shared_draws), total["matchers.SyntheticMatcher.match_pair"]
        )
        out["geometry.rotation_checks_per_frame"] = _ratio(
            self.counters["geometry.is_rotation_matrix"], pipeline_frames
        )
        k_id = self._ids.get("tiles.k_nearest", -1)
        c_id = self._ids.get("estimator.correct", -1)
        steps = np.array(correction_steps(names, starts, ends, ops, k_id, c_id)) / 1e3
        out["sim.correction_step.p50_us"] = _percentile(steps, 50)
        out["sim.correction_step.p99_us"] = _percentile(steps, 99)
        return out


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _resolve(cv, owner: str):
    """The module or class named by owner, or None if a refactor removed it."""
    module, _, cls = owner.partition(".")
    try:
        obj = importlib.import_module(f"{cv.__name__}.{module}")
    except ModuleNotFoundError:
        return None
    return getattr(obj, cls, None) if cls else obj
