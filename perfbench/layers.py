"""Per-layer attribution for the traced run, from the benchmark's side.

:class:`LayerClock` wraps a layer's public functions where their callers
bind them (a module global the caller looks up at call time, or a method
on the class) and keeps, per layer, the call count and the *self* time:
the wrapped call's duration minus the part spent in other wrapped calls
nested inside it.  Self times therefore add up: their sum plus the
run's unattributed time is its wall time.

Nothing here changes what the program computes; the wrappers only read
the clock and count.  The untraced runs that give the end-to-end
metrics never install them.

Which end-to-end metric each layer should move, and where:

=========================================  ===================================
layer metrics                              should move
=========================================  ===================================
analysis.dc_s / dc_calls / newton_iters    solve_s on csa_sizing, capacity_rps
                                           on serve_mixed; nothing on
                                           macro_mesh
analysis.ac_s / batch_s / batched_share    solve_s on csa_sizing (batched
                                           path), latency_p50_ms on
                                           serve_mixed (scalar topogen points)
analysis.factorizations / solves           solve_s on csa_sizing and macro_mesh
circuits.build_s, engine.cache_key_s,      capacity_rps and latency_p50_ms on
engine.dispatch_s, engine.cache_hit_rate,  serve_mixed, solve_s on csa_sizing
engine.evaluations
opt.anneal_self_s                          solve_s on csa_sizing and macro_mesh
macro.tile_s / route_s / route_calls /     solve_s on macro_mesh,
rails_routed / signoff_s                   latency_p90_ms on serve_mixed
                                           (macro requests)
msystem.dc_solve_s / droop_s               solve_s on macro_mesh
serve.* (queue wait, execute, IPC, batch   latency_p50_ms, latency_p90_ms,
size, rejected, dedup share)               capacity_rps, slo_attainment on
                                           serve_mixed only
=========================================  ===================================

``unattributed_s`` is the traced wall time minus the layers' self times
(on serve_mixed the layers run in the shard processes, so it also holds
router, pipe and idle time); ``trace_overhead`` is the traced over the
untraced time of the same work, minus one.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class LayerClock:
    """Self time and calls per layer, plus named counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- timing ----------------------------------------------------------
    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, t0: float) -> None:
        elapsed = time.perf_counter() - t0
        nested = self._stack.pop()
        self.self_s[layer] += elapsed - nested
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1] += elapsed

    @contextmanager
    def span(self, layer: str):
        """Time a block of the benchmark's own code as ``layer``."""
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(layer, t0)

    def timed(self, layer: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, t0)
            if on_result is not None:
                on_result(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper_factory(original))
        self._undo.append((owner, attr, original))

    def time_attr(self, owner, attr: str, layer: str, on_result=None):
        self.patch(owner, attr,
                   lambda fn: self.timed(layer, fn, on_result))

    def count_attr(self, owner, attr: str, name: str):
        self.patch(owner, attr, lambda fn: self.counted(name, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


def install_program_layers(clock: LayerClock) -> None:
    """Wrap every layer boundary the three workloads cross."""
    import repro.analysis.batch as batch
    import repro.analysis.solver as solver
    import repro.engine.core as engine_core
    import repro.macro.signoff as macro_signoff
    import repro.macro.workload as macro_workload
    import repro.msystem.powergrid as powergrid
    import repro.synthesis.compose.workload as compose_workload
    import repro.synthesis.simulation_based as sim

    def newton(op) -> None:
        clock.counts["analysis.newton_iters"] += op.iterations

    # repro.analysis: the simulator entry points, where the synthesis
    # layer binds them (module globals looked up per call).
    clock.time_attr(sim, "dc_operating_point", "analysis.dc",
                    on_result=newton)
    clock.time_attr(sim, "ac_analysis", "analysis.ac")
    clock.time_attr(batch, "batched_ac", "analysis.batch")
    # repro.analysis.solver: counts only; its time is inside dc/ac/droop.
    clock.count_attr(solver, "factorize", "analysis.factorizations")
    for method in ("solve", "solve_transpose", "solve_adjoint"):
        clock.count_attr(solver.FactorizedOperator, method,
                         "analysis.solves")
    # repro.circuits (netlist construction, through the evaluator) and
    # repro.engine (cache keys and the map_evaluate dispatch itself).
    clock.time_attr(sim.SimulationEvaluator, "build_testbench",
                    "circuits.build")
    clock.time_attr(sim.SimulationEvaluator, "cache_key", "engine.cache_key")
    clock.time_attr(compose_workload.GeneratedSpaceEvaluator, "cache_key",
                    "engine.cache_key")
    clock.time_attr(macro_workload.MacroEvaluator, "cache_key",
                    "engine.cache_key")
    clock.time_attr(engine_core.EvaluationEngine, "map_evaluate",
                    "engine.dispatch")
    # repro.opt: the annealer, where both sizers bind it.
    clock.time_attr(sim, "anneal_continuous", "opt.anneal")
    clock.time_attr(macro_signoff, "anneal_continuous", "opt.anneal")

    # repro.macro and repro.msystem.
    def rails(mesh) -> None:
        clock.counts["macro.rails_routed"] += len(mesh.rails)

    for module in (macro_signoff, macro_workload):
        clock.time_attr(module, "route_mesh", "macro.route", on_result=rails)
        clock.time_attr(module, "signoff_mesh", "macro.signoff")
    clock.time_attr(macro_workload, "tile_macro", "macro.tile")
    clock.time_attr(powergrid.PowerGrid, "dc_solve", "msystem.dc_solve")
    clock.time_attr(powergrid.PowerGrid, "transient_droop", "msystem.droop")


def layer_metrics(snap: dict, scale: float) -> dict[str, float]:
    """Per-layer metrics from a clock snapshot; times rescaled by
    ``scale`` (the calibration factor of the traced segment)."""
    s, calls, counts = snap["self_s"], snap["calls"], snap["counts"]

    def t(layer: str) -> float:
        return s.get(layer, 0.0) * scale

    return {
        "analysis.dc_s": t("analysis.dc"),
        "analysis.dc_calls": float(calls.get("analysis.dc", 0)),
        "analysis.newton_iters": float(counts.get("analysis.newton_iters",
                                                  0)),
        "analysis.ac_s": t("analysis.ac"),
        "analysis.batch_s": t("analysis.batch"),
        "analysis.factorizations": float(
            counts.get("analysis.factorizations", 0)),
        "analysis.solves": float(counts.get("analysis.solves", 0)),
        "circuits.build_s": t("circuits.build"),
        "engine.cache_key_s": t("engine.cache_key"),
        "engine.dispatch_s": t("engine.dispatch"),
        "opt.anneal_self_s": t("opt.anneal"),
        "macro.tile_s": t("macro.tile"),
        "macro.route_s": t("macro.route"),
        "macro.route_calls": float(calls.get("macro.route", 0)),
        "macro.rails_routed": float(counts.get("macro.rails_routed", 0)),
        "macro.signoff_s": t("macro.signoff"),
        "msystem.dc_solve_s": t("msystem.dc_solve"),
        "msystem.droop_s": t("msystem.droop"),
    }


#: Layer-time metrics whose sum is the attributed time.
ATTRIBUTED = (
    "analysis.dc_s", "analysis.ac_s", "analysis.batch_s", "circuits.build_s",
    "engine.cache_key_s", "engine.dispatch_s", "opt.anneal_self_s",
    "macro.tile_s", "macro.route_s", "macro.signoff_s",
    "msystem.dc_solve_s", "msystem.droop_s",
)
