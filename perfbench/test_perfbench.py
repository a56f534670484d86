"""Tests for the benchmark itself, on tiny workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import benchenv

benchenv.prepare()

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name, out_dir):
    if name == "sweep-accept":
        return workloads.SweepAccept(out_dir, trials=10, alphas=(0.5,), kinds=("wiretap-gaussian", "gdof"))
    if name == "verify-cli":
        return workloads.VerifyCli(out_dir, alpha_grid="0:1:0.5", trials=10)
    return workloads.GeometryExact(out_dir, steps=4)


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request, tmp_path):
    return tiny(request.param, tmp_path / request.param)


def test_workload_runs_and_passes_its_gate(workload):
    plan = workload.plan(3)
    done = run.run_pass(workload, plan)
    assert done.errors == []
    check = workload.gate(plan, done.outputs)
    assert check.failures == []
    assert check.digests
    if workload.name == "geometry-exact":
        assert workload.invariants() == []
    else:
        assert check.stats["worst_slope_gap"] is not None


def test_same_seed_same_digests_other_seed_other_inputs(workload):
    first = workload.gate(workload.plan(5), run.run_pass(workload, workload.plan(5)).outputs)
    again = workload.gate(workload.plan(5), run.run_pass(workload, workload.plan(5)).outputs)
    assert first.digests == again.digests
    if workload.name == "geometry-exact":
        # Seed-free exact inputs; the seed only orders the calls.
        n = len(workloads.GeometryExact().plan(5))
        assert run.call_order(5, 0, n) != run.call_order(6, 0, n)
    else:
        assert repr(workload.plan(5)) != repr(workload.plan(6))


def test_spans_reconcile_with_traced_wall_and_match_untraced(workload):
    plan = workload.plan(1)
    plain = run.run_pass(workload, plan)
    recorder = spans.SpanRecorder()
    with recorder:
        traced = run.run_pass(workload, plan, recorder=recorder)
    self_ns = recorder.self_ns()
    assert len(self_ns) > 0
    assert all(ns >= 0 for ns in self_ns)
    other_ns = traced.cpu_ns - recorder.root_ns()
    assert other_ns >= 0
    assert sum(self_ns) + other_ns == traced.cpu_ns
    assert sum(ns for _, ns in recorder.totals().values()) == sum(self_ns)
    assert set(recorder.run) <= set(range(len(plan)))
    digest = workload.gate(plan, plain.outputs).digest
    assert workload.gate(plan, traced.outputs).digest == digest
    calls = recorder.totals()["gaussian_mi.conditional_mi"][0]
    assert (calls == 0) == (workload.name == "geometry-exact")


def _bindings():
    return {
        (id(container), key): spans._get(container, key)
        for sites in spans.layer_sites().values()
        for container, key in sites
    }


def test_wrappers_are_restored_even_after_an_error():
    before = _bindings()
    recorder = spans.SpanRecorder()
    with pytest.raises(ZeroDivisionError):
        with recorder:
            assert _bindings() != before
            import gsdof.regions

            gsdof.regions.sum_max(gsdof.regions.gdof_fixed(0.5))
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert recorder.totals()["regions.sum_max"][0] == 1


def test_call_order_keeps_outputs_in_plan_order(workload):
    plan = workload.plan(4)
    order = run.call_order(4, 1, len(plan))
    assert sorted(order) == list(range(len(plan)))
    assert order == run.call_order(4, 1, len(plan))
    shuffled = run.run_pass(workload, plan, order)
    straight = run.run_pass(workload, plan)
    assert workload.gate(plan, shuffled.outputs).digests == workload.gate(plan, straight.outputs).digests


def test_a_failing_call_is_counted_and_the_pass_goes_on(tmp_path):
    class Flaky(workloads.GeometryExact):
        def call(self, k):
            if k == 2:
                raise ValueError("boom")
            return super().call(k)

    workload = Flaky(tmp_path, steps=4)
    done = run.run_pass(workload, workload.plan(0))
    assert len(done.outputs) == 5 and len(done.latency_ns) == 4
    assert done.errors == ["call %d: ValueError: boom" % workload.plan(0).index(2)]


def test_tail_is_capped_at_p95_and_falls_back_to_median():
    assert run.tail(list(range(1, 51))) == (40, 80.0, 10)
    assert run.tail(list(range(1, 1001))) == (950, 95.0, 50)
    value, pct, beyond = run.tail([5.0] * 9 + [100.0])
    assert (value, pct, beyond) == (5.0, 50.0, 5)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_exactly_the_declared_metrics(tmp_path, trace):
    workload = tiny("geometry-exact", tmp_path)
    out = run.run(workload, seed=2, seconds=0.01, trace=bool(trace), setup_samples=1, out_dir=tmp_path)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert out["detail"]["manifest"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert result["metrics"]["gaussian_mi.conditional_mi.calls"]["value"] == 0
    else:
        detail = out["detail"]
        assert detail["probe_samples"] >= speed.REPEATS
        assert result["metrics"]["setup_s"]["value"] == pytest.approx(
            detail["unscaled"]["setup_s"] * detail["time_scale"]
        )


def test_sampler_probes_during_a_call_and_times_calls_without_it():
    def busy(ns):
        end = speed.clock() + ns
        while speed.clock() < end:
            pass

    sampler = speed.Sampler()
    with sampler:
        t0 = sampler.now()
        busy(3 * speed.EVERY_NS)
        elapsed = sampler.now() - t0
    assert len(sampler.samples) >= 2 * speed.REPEATS
    assert sampler.probing_ns > 0
    assert elapsed < 3 * speed.EVERY_NS + sampler.probing_ns / 2
    assert speed.factor([speed.NOMINAL_NS] * 3) == 1.0
    assert speed.factor([speed.NOMINAL_NS, 3 * speed.NOMINAL_NS]) == 0.5
