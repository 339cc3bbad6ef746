"""``macro_mesh``: RAIL-style supply-mesh synthesis over tiled macros.

Each job tiles one bitcell macro and runs :func:`repro.macro.optimize_mesh`
on it (anneal, repair, shrink).  The workload touches no MOS device,
Newton iteration, engine or serve code, so changes to those layers must
leave it unmoved.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from functools import partial

import batch
import workloads
from common import CheckFailed

#: Latency limit of slo_attainment: one mesh optimisation.
SLO_S = 3.0
CAL_PER_JOB = 8


def tile(rows: int, cols: int):
    from repro.macro import MacroSpec, tile_macro
    return tile_macro(MacroSpec(rows=rows, cols=cols, strap_every=8,
                                name=f"m{rows}x{cols}"))


def optimize(macro, anneal_seed: int,
             evaluations: int = workloads.MACRO_EVALUATIONS):
    from repro.macro import SignoffSpec, optimize_mesh
    from repro.opt.anneal import AnnealSchedule
    schedule = AnnealSchedule(moves_per_temperature=24, cooling=0.85,
                              max_evaluations=evaluations,
                              stop_after_stale=evaluations)
    return optimize_mesh(macro, SignoffSpec(), seed=anneal_seed,
                         schedule=schedule)


def design_cost(macro, result) -> float:
    """Rail metal area normalised as optimize_mesh normalises it, plus a
    unit penalty when the mesh fails signoff."""
    from repro.macro import SignoffSpec
    tracks = (len(macro.blockages.free_h_tracks)
              + len(macro.blockages.free_v_tracks))
    norm = ((macro.width_nm + macro.height_nm) * tracks
            * SignoffSpec().min_width_nm)
    return result.metal_area / norm + (0.0 if result.feasible else 1.0)


def summary(result) -> dict:
    return {"metal_area": int(result.metal_area),
            "mesh": result.mesh.spec.describe(),
            "feasible": bool(result.feasible)}


def setup() -> None:
    """Imports plus one tiled, routed and signed-off mesh per geometry."""
    from repro.macro import MeshSpec, route_mesh, signoff_mesh
    for rows, cols in workloads.MACRO_GEOMETRIES:
        macro = tile(rows, cols)
        signoff_mesh(macro, route_mesh(macro, MeshSpec(2, 2, 4000, 4000)))


def _check(job, result, reference: dict) -> None:
    rows, cols, anneal_seed = job
    ref = reference[f"{rows}x{cols}:{anneal_seed}"]
    mesh = result.mesh
    problems = []
    if not result.feasible:
        problems.append("mesh fails signoff")
    if not mesh.is_fully_stitched():
        problems.append("mesh is not fully stitched")
    if mesh.blockage_violations:
        problems.append(f"{mesh.blockage_violations} blockage violations")
    if result.metal_area != ref["metal_area"]:
        problems.append(f"metal area {result.metal_area} != reference "
                        f"{ref['metal_area']}")
    if problems:
        raise CheckFailed(f"macro job {job}: " + "; ".join(problems))


def run_job(job, clock, reference: dict):
    rows, cols, anneal_seed = job
    t0 = time.perf_counter()
    with clock.span("macro.tile") if clock is not None else nullcontext():
        macro = tile(rows, cols)
    result = optimize(macro, anneal_seed)
    seconds = time.perf_counter() - t0
    _check(job, result, reference)
    return seconds, design_cost(macro, result), None


def measure(_state, seed: int, seconds: float, cal):
    jobs = workloads.macro_jobs(
        seed, workloads.jobs_for(seconds, workloads.MACRO_JOB_S, minimum=4))
    run = partial(run_job, reference=batch.reference("macro"))
    return batch.measure("macro_mesh", jobs, run, cal, CAL_PER_JOB, SLO_S)


def measure_traced(_state, seed: int, seconds: float, cal):
    jobs = workloads.macro_jobs(
        seed, workloads.jobs_for(seconds / 2, workloads.MACRO_JOB_S,
                                 minimum=2))
    run = partial(run_job, reference=batch.reference("macro"))
    # No engine and no batched kernel on this path.
    return batch.measure_traced(
        "macro_mesh", jobs, run, cal, CAL_PER_JOB,
        lambda _reports: {"engine.cache_hit_rate": 0.0,
                          "engine.evaluations": 0.0,
                          "analysis.batched_share": 0.0})
