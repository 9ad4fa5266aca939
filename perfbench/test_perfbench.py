"""Tests of the benchmark itself: span arithmetic, wrapping, seeds, contract.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import crossview  # noqa: E402
import crossview.cli  # noqa: E402
from run import END_TO_END, per_layer_unit  # noqa: E402
from tracing import BOUNDARIES, ROTATION_CHECKS, Tracer, _resolve, correction_steps, self_times  # noqa: E402
from workloads import WORKLOADS, Flights, flight_seeds  # noqa: E402


def test_self_times_of_a_hand_built_tree():
    # root [0,100] holds a [10,40] (which holds b [15,25]) and c [50,90].
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents).tolist() == [30, 20, 10, 40]


def test_correction_step_spans_from_query_to_next_correct():
    k, c, other = 0, 1, 2
    names = np.array([k, other, c, k, c, k])
    starts = np.array([0, 5, 10, 100, 120, 200])
    ends = np.array([3, 8, 30, 104, 150, 210])
    ops = np.array([0, 0, 0, 0, 0, 1])
    assert correction_steps(names, starts, ends, ops, k, c) == [30, 50]


def _fake_module():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    return mod


def test_tracer_records_parents_and_self_time_with_a_fake_clock():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    mod = _fake_module()
    tracer.wrap(mod, "outer", "fake.outer")
    tracer.wrap(mod, "inner", "fake.inner")
    assert mod.outer(1) == 4
    names, starts, ends, parents, _ = tracer.arrays()
    assert [tracer.names[n] for n in names] == ["fake.outer", "fake.inner"]
    assert parents.tolist() == [-1, 0]
    # outer starts at 0, inner runs 10..20, outer ends at 30.
    assert self_times(starts, ends, parents).tolist() == [20, 10]


def test_restore_puts_back_every_original():
    owners = [(o, a) for o, a, _ in BOUNDARIES] + ROTATION_CHECKS + [("cli", "main")]
    before = {(o, a): vars(_resolve(crossview, o))[a] for o, a in owners}
    tracer = Tracer()
    tracer.install(crossview)
    assert crossview.sim.predict is not before[("sim", "predict")]
    tracer.restore()
    for (owner, attr), original in before.items():
        assert vars(_resolve(crossview, owner))[attr] is original, (owner, attr)


def test_a_boundary_that_is_gone_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(crossview.sim, "predict")
    tracer = Tracer()
    tracer.install(crossview)
    tracer.restore()
    metrics = tracer.layer_metrics(pipeline_frames=0)
    assert metrics["estimator.predict.calls"] == 0
    assert metrics["estimator.predict.self_us"] == 0.0


def test_traced_flight_counts_and_leaves_outputs_unchanged():
    workload = Flights(flights=1, length_m=1250.0, duration_s=10.0, k_candidates=4)
    ctx = workload.setup(crossview, workdir="")
    plain = workload.result(ctx, workload.run(crossview, ctx, 5, ""), "")
    tracer = Tracer()
    tracer.install(crossview)
    try:
        tracer.op_id = 0
        traced = workload.result(ctx, workload.run(crossview, ctx, 5, ""), "")
    finally:
        tracer.restore()
    assert traced.digest == plain.digest
    cfg = ctx[0]
    metrics = tracer.layer_metrics(traced.frames)
    steps = cfg.frame_count - 1
    corrections = steps // cfg.correction_stride
    assert metrics["estimator.predict.calls"] == 4 * steps
    assert metrics["estimator.correct.calls"] == 3 * corrections
    assert metrics["fusion.fuse.candidates"] == 4
    assert metrics["matchers.shared_draw_useful_ratio"] == pytest.approx(1 / 4)
    assert metrics["sim.run_experiment.calls"] == 1


def test_a_workload_seed_maps_to_the_same_inputs_every_time():
    for name, workload in WORKLOADS.items():
        seeds = flight_seeds(name, 3, workload.flights)
        assert seeds == flight_seeds(name, 3, workload.flights)
        assert len(set(seeds)) == workload.flights
        assert set(seeds).isdisjoint(flight_seeds(name, 4, workload.flights))


def test_printed_metrics_match_the_benchmark_contract():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == END_TO_END
    names = set(Tracer().layer_metrics(pipeline_frames=0)) | {"trace.overhead_pct"}
    assert {m["name"] for m in contract["per_layer"]} == names
    for metric in contract["per_layer"]:
        assert metric["unit"] == per_layer_unit(metric["name"])
    assert sorted(w["name"] for w in contract["workloads"]) == sorted(WORKLOADS)
