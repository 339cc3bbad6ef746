"""``csa_sizing``: simulation-in-the-loop sizing of the Table 1 CSA.

Each job is one :class:`SimulationBasedSizer` run over the
charge-sensitive amplifier testbench on the batched same-topology
kernel, with a fresh per-run cache, built from public pieces with the
program's tracer off (``synthesize_csa_batched`` always traces).
"""

from __future__ import annotations

import time
from functools import partial

import batch
import workloads
from common import CheckFailed

#: Tolerance of the per-job reference check, relative, on the cost and
#: on each size.  Runs are deterministic; the slack only absorbs a
#: last-bit difference between BLAS builds.
REL_TOL = 1e-9
#: Latency limit of slo_attainment: one interactive sizing run.
SLO_S = 1.0
#: Calibration samples after each job.
CAL_PER_JOB = 4


def make_sizer(seed: int, evaluations: int = workloads.CSA_EVALUATIONS):
    from repro.circuits.library import CSA_DEFAULTS
    from repro.engine.config import EngineConfig
    from repro.opt.anneal import AnnealSchedule
    from repro.synthesis.equation_based import DesignSpace
    from repro.synthesis.pulse_detector import (
        CSA_SIM_SPACE_VARIABLES,
        csa_sim_specs,
        csa_testbench,
    )
    from repro.synthesis.simulation_based import (
        SimulationBasedSizer,
        SimulationEvaluator,
    )
    space = DesignSpace(
        variables=dict(CSA_SIM_SPACE_VARIABLES),
        fixed={k: v for k, v in CSA_DEFAULTS.items()
               if k not in CSA_SIM_SPACE_VARIABLES})
    # stop_after_stale = budget: every job runs all its evaluations.
    schedule = AnnealSchedule(moves_per_temperature=12, cooling=0.8,
                              max_evaluations=evaluations,
                              stop_after_stale=evaluations)
    evaluator = SimulationEvaluator(builder=csa_testbench, input_bias=0.9,
                                    raise_failures=True)
    return SimulationBasedSizer(
        evaluator, space, csa_sim_specs(), schedule=schedule, seed=seed,
        batch_size=6, config=EngineConfig(cache=True, batch_kernel=True))


def summary(result) -> dict:
    return {"cost": float(result.cost),
            "sizes": {k: float(result.sizes[k])
                      for k in ("w_in", "i_bias", "r_fb")},
            "feasible": bool(result.feasible)}


def setup() -> None:
    """Imports plus one short sizing run (stamp plan, first simulation)."""
    make_sizer(0, evaluations=48).run()


def _check(anneal_seed: int, result, reference: dict) -> None:
    where = f"csa job (anneal seed {anneal_seed})"
    if result.failures:
        raise CheckFailed(f"{where}: {result.failures} failed evaluations")
    if result.evaluations != workloads.CSA_EVALUATIONS:
        raise CheckFailed(f"{where}: ran {result.evaluations} evaluations, "
                          f"expected {workloads.CSA_EVALUATIONS}")
    ref = reference[str(anneal_seed)]
    got = summary(result)
    pairs = [("cost", got["cost"], ref["cost"])] + [
        (k, got["sizes"][k], ref["sizes"][k]) for k in ref["sizes"]]
    for name, value, expected in pairs:
        if abs(value - expected) > REL_TOL * abs(expected):
            raise CheckFailed(f"{where}: {name} {value!r} != reference "
                              f"{expected!r}")
    if got["feasible"] != ref["feasible"]:
        raise CheckFailed(f"{where}: feasible {got['feasible']} != "
                          f"reference")


def run_job(anneal_seed: int, clock, reference: dict):
    sizer = make_sizer(anneal_seed)
    t0 = time.perf_counter()
    result = sizer.run()
    seconds = time.perf_counter() - t0
    _check(anneal_seed, result, reference)
    report = sizer.engine.report() if clock is not None else None
    return seconds, result.cost, report


def measure(_state, seed: int, seconds: float, cal):
    jobs = workloads.csa_jobs(
        seed, workloads.jobs_for(seconds, workloads.CSA_JOB_S, minimum=4))
    run = partial(run_job, reference=batch.reference("csa"))
    return batch.measure("csa_sizing", jobs, run, cal, CAL_PER_JOB, SLO_S)


def measure_traced(_state, seed: int, seconds: float, cal):
    jobs = workloads.csa_jobs(
        seed, workloads.jobs_for(seconds / 2, workloads.CSA_JOB_S,
                                 minimum=2))
    run = partial(run_job, reference=batch.reference("csa"))
    return batch.measure_traced("csa_sizing", jobs, run, cal, CAL_PER_JOB,
                                engine_metrics)


def engine_metrics(reports: list) -> dict[str, float]:
    """Cache and kernel counters summed over the jobs' engine reports."""
    def total(key: str) -> int:
        return sum(r["counters"].get(key, 0) for r in reports)

    hits, misses = total("engine.cache_hits"), total("engine.cache_misses")
    batched = total("kernel.batched_points")
    scalar = total("kernel.scalar_points")
    return {
        "engine.cache_hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
        "engine.evaluations": float(total("engine.evaluations")),
        "analysis.batched_share": batched / (batched + scalar)
        if batched + scalar else 0.0,
    }
