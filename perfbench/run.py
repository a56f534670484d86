"""gsdof benchmark: time workloads end to end, or trace them layer by layer.

    python3 perfbench/run.py --workload sweep-accept --seed 1 --seconds 30 --trace 0

Run from the repository root.  One single-threaded process per workload:
BLAS pinned to one thread and ``GSDOF_THREADS`` unset (see ``benchenv``).

A run warms this process up with one call per layer, then repeats passes
of the workload's plan.  Set-up (``setup_s``) is the median CPU time of
several fresh interpreters, started between passes, that import gsdof and
make the same warm-up calls.  The pass count is ``--seconds`` over the
workload's ``seconds_per_pass`` (see ``workloads``), so a faster program
measures the same work in less time.  Every pass makes the same calls, in
an order drawn from the seed and the pass index.

Times are CPU times of the benchmark process (``speed.clock``), so that
time the host steals from the virtual core does not count.  During untraced
passes a timer interrupts the calls every 0.1 s to time a fixed kernel
(``speed.Sampler``).  Each call's time is scaled to the kernel's nominal
speed by the mean kernel time inside the call, or, for a call too short to
hold two probes, inside its pass; set-up and per-layer times are scaled by
the run's.  So the host's speed drift cancels (see ``speed``).  Unscaled
times are in the detail record.

``--trace 0`` reports the end-to-end metrics of untraced passes: median
pass time (``pass_s``, time inside calls), and the median and tail of all
top-level call latencies.
``--trace 1`` alternates untraced and traced passes and reports per-layer
calls and self times per traced pass, taken by ``spans.SpanRecorder`` at
module boundaries, plus the tracing overhead; spans are written to
``perfbench/out/spans-<workload>.csv``.

Outputs are checked with the package's own tolerances; failed checks set
``correct`` to false, and exceptions count as failed calls without stopping
the run.  The second-to-last stdout line is a JSON detail record (run
manifest, output digests, check results, sample counts); the last line is
the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import benchenv
import speed

SETUP_SAMPLES = 9


@dataclass
class Pass:
    traced: bool
    cpu_ns: int = 0  # time inside calls, probes excluded
    wall_ns: int = 0  # elapsed real time of the pass, probes included
    latency_ns: list = field(default_factory=list)  # successful calls
    probe_ns: list = field(default_factory=list)  # kernel times (``speed``)
    scaled_ns: float = 0.0  # cpu_ns at nominal speed (untraced passes)
    scaled_latency_ns: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_pass(workload, plan, order=None, recorder=None, first_run_id: int = 0) -> Pass:
    """Call every plan item once, in ``order`` (default: plan order).

    Outputs are kept in plan order whatever the call order.  An untraced
    pass samples the machine's speed during its calls (``speed.Sampler``),
    and once more after them if no sample fell in the pass.  A call with at
    least ``speed.CALL_SAMPLES`` kernel times taken inside it is scaled by
    those, any other call by all of the pass's.  A traced pass does not
    sample, so that probes do not count in its spans.
    """
    result = Pass(traced=recorder is not None, outputs=[None] * len(plan))
    sampler = speed.Sampler()
    clock = speed.clock if result.traced else sampler.now
    calls = []  # (elapsed, succeeded, first and end index of its samples)
    start = time.perf_counter_ns()
    with contextlib.nullcontext() if result.traced else sampler:
        for i in range(len(plan)) if order is None else order:
            if recorder is not None:
                recorder.run_id = first_run_id + i
            first = len(sampler.samples)
            t0 = clock()
            try:
                result.outputs[i] = workload.call(plan[i])
            except Exception as exc:  # a failed call is counted, not fatal
                elapsed, ok = clock() - t0, False
                result.errors.append(f"call {i}: {type(exc).__name__}: {exc}")
            else:
                elapsed, ok = clock() - t0, True
                result.latency_ns.append(elapsed)
            result.cpu_ns += elapsed
            calls.append((elapsed, ok, first, len(sampler.samples)))
    result.wall_ns = time.perf_counter_ns() - start
    if not result.traced:
        result.probe_ns = sampler.samples or speed.probe()
        pass_factor = speed.factor(result.probe_ns)
        for elapsed, ok, a, b in calls:
            f = speed.factor(result.probe_ns[a:b]) if b - a >= speed.CALL_SAMPLES else pass_factor
            result.scaled_ns += elapsed * f
            if ok:
                result.scaled_latency_ns.append(elapsed * f)
    return result


def call_order(seed: int, pass_index: int, n: int) -> list[int]:
    """Seeded per-pass call order, so that no call is always timed at the
    same point of a pass (machine speed drifts over seconds)."""
    order = list(range(n))
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order


def measure_setup(samples: int = SETUP_SAMPLES) -> list[tuple[float, float]]:
    """(wall, CPU) seconds of fresh interpreters running the warm-up script."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "warmup.py")
    out = []
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, script], cwd=benchenv.ROOT, check=True)
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = c1.ru_utime + c1.ru_stime - c0.ru_utime - c0.ru_stime
        out.append(((time.perf_counter_ns() - t0) / 1e9, cpu))
    return out


def pass_count(workload, seconds: float, trace: bool) -> int:
    """Passes in a run, fixed by ``seconds`` and the workload, so parent and
    change measure the same work and their latency percentiles rest on the
    same sample count.  A traced run needs an untraced and a traced pass."""
    return max(2 if trace else 1, round(seconds / workload.seconds_per_pass))


def tail(samples):
    """(value, percentile, samples beyond): the highest percentile, up to the
    95th, with at least ten samples beyond it.  Below 20 samples no
    percentile above the median qualifies, and the median is reported."""
    s = sorted(samples)
    n = len(s)
    rank = max(min(n - 10, math.ceil(0.95 * n)), (n + 1) // 2)
    return s[rank - 1], 100.0 * rank / n, n - rank


def manifest(seed: int, gsdof_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (benchenv.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=benchenv.ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "seed": seed,
        "GSDOF_THREADS_found": gsdof_threads,
        "GSDOF_THREADS": os.environ.get("GSDOF_THREADS"),
        "blas_env": {k: os.environ.get(k) for k in benchenv.BLAS_ENV},
    }


def layer_metrics(recorder, traced, untraced, scale: float) -> dict:
    """Per traced pass; times are multiplied by ``scale`` (see ``speed``)."""
    n = len(traced)
    busy_ns = sum(p.cpu_ns for p in traced)
    totals = recorder.totals()
    metrics = {}
    for label, (calls, self_ns) in totals.items():
        metrics[f"{label}.calls"] = (calls / n, "count")
        metrics[f"{label}.self_s"] = (self_ns * scale / n / 1e9, "s")
    mi_calls, mi_ns = totals["gaussian_mi.conditional_mi"]
    metrics["gaussian_mi.conditional_mi.us_per_call"] = (
        mi_ns * scale / mi_calls / 1e3 if mi_calls else 0.0,
        "us",
    )
    metrics["gaussian_mi.conditional_mi.share"] = (mi_ns / busy_ns, "frac")
    rs_calls = totals["schemes.receiver_structure"][0]
    metrics["schemes.receiver_structure.hit_frac"] = (
        recorder.structure_hits / rs_calls if rs_calls else 0.0,
        "frac",
    )
    dc_calls = totals["schemes.noiseless_decode_check"][0]
    metrics["schemes.noiseless_decode_check.fail_frac"] = (
        recorder.decode_failures / dc_calls if dc_calls else 0.0,
        "frac",
    )
    metrics["other.self_s"] = ((busy_ns - recorder.root_ns()) * scale / n / 1e9, "s")
    traced_ns = statistics.median(p.cpu_ns for p in traced)
    plain_ns = statistics.median(p.cpu_ns for p in untraced)
    metrics["trace.pass_s"] = (traced_ns * scale / 1e9, "s")
    metrics["trace.overhead_frac"] = (traced_ns / plain_ns - 1.0, "frac")
    return metrics


def run(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    gsdof_threads=None,
    setup_samples: int = SETUP_SAMPLES,
    out_dir=benchenv.OUT,
) -> dict:
    """Run one benchmark on a workload instance; return {"detail", "result"}."""
    import spans
    import warmup

    warmup.warm_up()
    plan = workload.plan(seed)
    invariant_failures = workload.invariants() if hasattr(workload, "invariants") else []

    recorder = spans.SpanRecorder() if trace else None
    n_passes = pass_count(workload, seconds, trace)
    # Set-up samples are spread over the run, before each pass and after the
    # last, so that they see the same machine conditions as the passes.
    setup = []
    per_slot = 0 if trace else math.ceil(setup_samples / (n_passes + 1))
    passes = []
    for i in range(n_passes + 1):
        setup += measure_setup(min(per_slot, setup_samples - len(setup)))
        if i == n_passes:
            break
        order = call_order(seed, i, len(plan))
        if trace and i % 2 == 1:
            with recorder:
                passes.append(run_pass(workload, plan, order, recorder, i * len(plan)))
        else:
            passes.append(run_pass(workload, plan, order))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = [workload.gate(plan, p.outputs) for p in passes]
    digests = {c.digest for c in checks}
    failures = list(invariant_failures)
    for i, c in enumerate(checks):
        failures += [f"pass {i}: {f}" for f in c.failures]
    if len(digests) != 1:
        failures.append(f"output digests differ between passes: {sorted(digests)}")
    errors = [e for p in passes for e in p.errors]
    attempted = len(plan) * len(passes)

    untraced = [p for p in passes if not p.traced]
    scale = speed.factor([ns for p in untraced for ns in p.probe_ns])
    raw_latencies = [ns / 1e6 for p in untraced for ns in p.latency_ns]
    latencies = [ns / 1e6 for p in untraced for ns in p.scaled_latency_ns]
    tail_ms, tail_pct, beyond = tail(latencies) if latencies else (None, None, 0)
    stats = {}
    for key in ("worst_slope_gap", "worst_leak_slope"):
        values = [c.stats[key] for c in checks if c.stats.get(key) is not None]
        stats[key] = max(values) if values else None

    detail = {
        "workload": workload.name,
        "trace": int(trace),
        "manifest": manifest(seed, gsdof_threads),
        "passes": len(passes),
        "pass_cpu_s": [p.cpu_ns / 1e9 for p in passes],
        "pass_wall_s": [p.wall_ns / 1e9 for p in passes],
        "traced": [p.traced for p in passes],
        "probe_nominal_ms": speed.NOMINAL_NS / 1e6,
        "probe_mean_ms": speed.NOMINAL_NS / scale / 1e6,
        "probe_samples": sum(len(p.probe_ns) for p in passes),
        "pass_probe_mean_ms": [statistics.fmean(p.probe_ns) / 1e6 if p.probe_ns else None for p in passes],
        "time_scale": scale,
        "setup_samples_wall_cpu_s": setup,
        "unscaled": {
            "setup_s": statistics.median(cpu for _, cpu in setup) if setup else None,
            "pass_s": statistics.median(p.cpu_ns for p in untraced) / 1e9 if untraced else None,
            "call_p50_ms": statistics.median(raw_latencies) if raw_latencies else None,
            "call_tail_ms": tail(raw_latencies)[0] if raw_latencies else None,
        },
        "call_samples": len(latencies),
        "call_tail_percentile": tail_pct,
        "call_tail_samples_beyond": beyond,
        "fail_frac": len(errors) / attempted,
        "errors": errors[:20],
        "check_failures": failures[:50],
        **stats,
        "output_digest": checks[0].digest,
        "output_digests": checks[0].digests,
    }
    if trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        span_path = out_dir / f"spans-{workload.name}.csv"
        recorder.write(span_path)
        detail["spans_file"] = os.path.relpath(span_path, benchenv.ROOT)
        detail["span_count"] = len(recorder.label)
        metrics = layer_metrics(recorder, [p for p in passes if p.traced], untraced, scale)
    else:
        metrics = {
            "setup_s": (statistics.median(cpu for _, cpu in setup) * scale, "s"),
            "pass_s": (statistics.median(p.scaled_ns for p in untraced) / 1e9, "s"),
            "call_p50_ms": (statistics.median(latencies) if latencies else None, "ms"),
            "call_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    if not benchenv.source_present():
        print(f"error: gsdof source not found under {benchenv.SRC}", file=sys.stderr)
        return 2
    found = benchenv.prepare()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = workloads.WORKLOADS[args.workload](benchenv.OUT / args.workload)
    out = run(workload, args.seed, args.seconds, bool(args.trace), found)
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
