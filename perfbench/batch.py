"""Measurement shared by the two batch workloads, csa_sizing and
macro_mesh: a fixed batch of design jobs run one after another, each
followed by calibration samples.

A workload module supplies ``run_job(job, clock)``, which runs one job
(tracing it on ``clock`` when given), checks its output against the
committed reference and returns ``(seconds, design_cost, report)``.
"""

from __future__ import annotations

import json
from pathlib import Path

from common import RunResult, beyond, percentile

#: Per-layer metrics that only the serve workload produces.
SERVE_ONLY = ("serve.queue_wait_ms", "serve.execute_ms", "serve.ipc_ms",
              "serve.batch_size_mean", "serve.rejected", "serve.dedup_share")


def reference(workload: str) -> dict:
    """The committed per-job results of ``reference.json``."""
    path = Path(__file__).with_name("reference.json")
    return json.loads(path.read_text())[workload]


def run_batch(jobs, run_job, cal, cal_per_job: int, clock=None):
    """``(raw_seconds, cal_indices, costs, reports)`` of the batch."""
    raw, cal_idx, costs, reports = [], [], [], []
    for job in jobs:
        seconds, cost, report = run_job(job, clock)
        raw.append(seconds)
        cal_idx.append(cal.take(cal_per_job))
        costs.append(cost)
        reports.append(report)
    return raw, cal_idx, costs, reports


def _flat(cal_idx) -> list[int]:
    return [i for idx in cal_idx for i in idx]


def measure(name: str, jobs, run_job, cal, cal_per_job: int,
            slo_s: float) -> RunResult:
    """End-to-end metrics of one batch.

    ``solve_s`` is the batch's raw time rescaled by the calibration of
    the whole batch; each job's latency is rescaled by the samples taken
    after it and its two neighbours on either side.
    """
    cal.take(cal_per_job)
    raw, cal_idx, costs, _ = run_batch(jobs, run_job, cal, cal_per_job)
    factor = cal.factor(_flat(cal_idx))
    solve_s = sum(raw) * factor
    latencies = [seconds * cal.factor(_flat(cal_idx[max(0, k - 2):k + 3]))
                 for k, seconds in enumerate(raw)]
    p90 = percentile(latencies, 90)
    res = RunResult(workload=name, attempted=len(jobs), failed=0)
    res.metrics = {
        "solve_s": solve_s,
        "capacity_rps": len(jobs) / solve_s,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "slo_attainment": sum(1 for x in latencies if x <= slo_s)
        / len(latencies),
    }
    res.raw = {"solve_s": sum(raw), "capacity_rps": len(jobs) / sum(raw),
               "latency_p50_ms": percentile(raw, 50) * 1e3,
               "latency_p90_ms": percentile(raw, 90) * 1e3,
               "job_s": raw, "job_rescaled_s": latencies,
               "batch_factor": factor}
    res.info = {"jobs": jobs,
                "design_cost_median": sorted(costs)[len(costs) // 2],
                "slo_limit_s": slo_s, "samples": len(latencies),
                "samples_beyond_p90": beyond(latencies, p90)}
    return res


def measure_traced(name: str, jobs, run_job, cal, cal_per_job: int,
                   report_metrics) -> RunResult:
    """Per-layer metrics: the batch once untraced, then again with every
    layer boundary wrapped; the ratio of the two is the tracing overhead.
    ``report_metrics(reports)`` turns the jobs' engine reports into the
    engine and kernel counters."""
    from layers import ATTRIBUTED, LayerClock, install_program_layers, \
        layer_metrics
    cal.take(cal_per_job)
    plain_raw, plain_cal, _, _ = run_batch(jobs, run_job, cal, cal_per_job)
    clock = LayerClock()
    install_program_layers(clock)
    try:
        traced_raw, traced_cal, _, reports = run_batch(
            jobs, run_job, cal, cal_per_job, clock)
    finally:
        clock.restore()
    plain_s = sum(plain_raw) * cal.factor(_flat(plain_cal))
    factor = cal.factor(_flat(traced_cal))
    traced_s = sum(traced_raw) * factor
    metrics = layer_metrics(clock.snapshot(), factor)
    metrics.update(report_metrics(reports))
    metrics.update({key: 0.0 for key in SERVE_ONLY})
    metrics["traced_wall_s"] = traced_s
    metrics["unattributed_s"] = traced_s - sum(metrics[k] for k in ATTRIBUTED)
    metrics["trace_overhead"] = traced_s / plain_s - 1.0
    res = RunResult(workload=name, attempted=2 * len(jobs), failed=0,
                    metrics=metrics)
    res.raw = {"untraced_s": sum(plain_raw), "traced_s": sum(traced_raw),
               "traced_factor": factor}
    return res
