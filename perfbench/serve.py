"""``serve_mixed``: a sharded serve fleet under a mixed request stream.

A :class:`repro.serve.ShardRouter` of ``max(1, nproc - 1)`` shards (the
router and this generator keep one core) serves three workloads:

* ``csa``: CSA sizing points at interactive priority.  They share one
  topology, so micro-batches take the batched kernel.
* ``topogen``: points of a few generated op-amp structures at
  interactive priority, evaluated one by one on the scalar simulate path
  (mixed topologies; the workload is registered unbatched).
* ``macro``: macro route-and-signoff points at batch priority.

A share of requests repeats earlier points, so the cache and dedup do
real work.  One generator thread (the main thread) drives the fleet
through ``submit``: first a saturation phase that keeps a fixed window
of requests outstanding (closed loop), then an open-loop phase at a
fixed offered rate of about half the reference capacity, each request
timed from when it was due.  Both phases run in chunks of one or two
seconds with calibration samples between them, taken while the fleet
is idle; the open-loop rate of each chunk is scaled by the calibration
so that the fleet sees the same utilisation on a slow or a fast machine.

Chunks of one stream are alike, so each metric is the median over
chunks of that chunk's value: a chunk in which a neighbour on the host
took the CPU moves the median little.  ``solve_s`` is the saturation
batch's size over ``capacity_rps``.
"""

from __future__ import annotations

import statistics
import threading
import time

import workloads
from common import CheckFailed, RunResult, beyond, nproc, percentile

#: Completed requests per second of one shard at the reference speed.
SHARD_CAPACITY_RPS = 210.0
#: Offered open-loop load as a share of the reference capacity.
OPEN_LOAD = 0.3
#: Latency limit of slo_attainment (rescaled milliseconds).
SLO_MS = 50.0
#: Requests outstanding in the saturation phase, per shard.
WINDOW = 32
#: Share of the run spent in the saturation phase; the open-loop phase
#: gets the rest, because its latency percentiles spread more.
SATURATION_SHARE = 1 / 3
#: Reference-speed seconds per chunk of each phase, and calibration
#: samples between chunks.
SATURATION_CHUNK_S = 1.0
OPEN_CHUNK_S = 1.0
CAL_PER_CHUNK = 4
#: Completed requests re-evaluated by the serial replay check.
REPLAY_SAMPLE = 48
#: Generous per-chunk wait before a chunk is declared stuck.
CHUNK_TIMEOUT_S = 120.0


def shards() -> int:
    return max(1, nproc() - 1)


def _workloads():
    from repro.serve import Workload
    from repro.synthesis.compose.generator import generate_topologies
    from repro.synthesis.compose.workload import topogen_workload
    from repro.synthesis.pulse_detector import csa_testbench
    from repro.synthesis.simulation_based import (
        BatchEvaluator,
        SimulationEvaluator,
    )
    from repro.macro import macro_workload

    csa_eval = SimulationEvaluator(builder=csa_testbench, input_bias=0.9,
                                   raise_failures=True)
    topos = [t for t in generate_topologies()
             if t.structure_id in workloads.TOPOGEN_STRUCTURES]
    if len(topos) != len(workloads.TOPOGEN_STRUCTURES):
        raise CheckFailed("a served topogen structure no longer exists")
    return {
        "csa": Workload(name="csa", fn=csa_eval.simulate,
                        key_fn=csa_eval.cache_key,
                        batcher=BatchEvaluator(csa_eval)),
        "topogen": topogen_workload(topos, name="topogen", batched=False),
        "macro": macro_workload(name="macro"),
    }, topos


class Fleet:
    """The router, its registered workloads and the stream's spaces."""

    def __init__(self) -> None:
        from repro.engine import EngineConfig, ServeConfig
        from repro.macro import MacroSpec, tile_macro
        from repro.serve import ShardRouter
        from repro.synthesis.pulse_detector import CSA_SIM_SPACE_VARIABLES

        self.workloads, topos = _workloads()
        self.spaces = {
            "csa_variables": dict(CSA_SIM_SPACE_VARIABLES),
            "topogen_spaces": {t.structure_id: (t.default_sizes(),
                                                dict(t.space.variables))
                               for t in topos},
            "macro_tracks": {},
        }
        for rows, cols in workloads.SERVE_MACRO_GEOMETRIES:
            tiled = tile_macro(MacroSpec(rows=rows, cols=cols,
                                         strap_every=8))
            self.spaces["macro_tracks"][(rows, cols)] = (
                len(tiled.blockages.free_h_tracks),
                len(tiled.blockages.free_v_tracks))
        self.shards = shards()
        self.config = EngineConfig(cache=True, serve=ServeConfig(
            shards=self.shards, max_batch=16, max_wait_ms=2.0,
            max_queue_depth=256))
        self.router = ShardRouter(self.config)
        for wl in self.workloads.values():
            self.router.register(wl)
        self.router.start()
        try:
            self._warm(topos)
        except BaseException:
            self.router.close()
            raise

    def _warm(self, topos) -> None:
        """First simulation, tiling and signoff of every kind on the shard
        that will own it (fixed points the seeded stream never repeats)."""
        points = [("csa", {"w_in": 100e-6, "i_bias": 100e-6, "r_fb": 1e7},
                   "interactive")]
        points += [("topogen", {"structure": t.structure_id,
                                "sizes": t.default_sizes()}, "interactive")
                   for t in topos]
        points += [("macro", {"array": {"rows": r, "cols": c,
                                        "strap_every": 8},
                              "mesh": {"h_rails": 2, "v_rails": 2,
                                       "h_width_nm": 4000,
                                       "v_width_nm": 4000}}, "batch")
                   for r, c in workloads.SERVE_MACRO_GEOMETRIES]
        handles = [self.router.submit(k, p, priority=pr, client="warmup")
                   for k, p, pr in points]
        for h in handles:
            h.result(timeout=CHUNK_TIMEOUT_S)

    def stream(self, seed: int, n: int) -> list[dict]:
        return workloads.serve_stream(seed, n, **self.spaces)

    def close(self) -> None:
        self.router.close()


def setup() -> Fleet:
    return Fleet()


# -- load generation -----------------------------------------------------------

class _Chunk:
    """Outcome bookkeeping of one chunk of requests."""

    def __init__(self, n: int) -> None:
        self.sent = [0.0] * n
        self.due = [0.0] * n
        self.done = [None] * n
        self.ok = [False] * n
        self._left = n
        self._lock = threading.Lock()
        self._all = threading.Event()
        if n == 0:
            self._all.set()

    def settle(self, k: int, handle, release=None) -> None:
        t = time.perf_counter()
        ok = handle.outcome == "completed"
        if ok:
            value = handle.result(timeout=0)
            ok = isinstance(value, dict) and bool(value)
        with self._lock:
            self.done[k] = t
            self.ok[k] = ok
            self._left -= 1
            if self._left == 0:
                self._all.set()
        if release is not None:
            release.release()

    def refused(self, k: int) -> None:
        with self._lock:
            self._left -= 1
            if self._left == 0:
                self._all.set()

    def wait(self) -> None:
        if not self._all.wait(CHUNK_TIMEOUT_S):
            raise CheckFailed("serve chunk did not settle within "
                              f"{CHUNK_TIMEOUT_S} s")


def _submit(router, req, chunk: _Chunk, k: int, release=None) -> None:
    from repro.serve import RejectedError
    chunk.sent[k] = time.perf_counter()
    try:
        handle = router.submit(req["kind"], req["point"],
                               priority=req["priority"], client="bench")
    except RejectedError:
        chunk.refused(k)
        if release is not None:
            release.release()
        return
    handle.add_done_callback(
        lambda h, k=k: chunk.settle(k, h, release))


def closed_chunk(router, requests, window: int) -> tuple[float, _Chunk]:
    """Keep ``window`` requests outstanding until all are settled."""
    chunk = _Chunk(len(requests))
    slots = threading.Semaphore(window)
    t0 = time.perf_counter()
    for k, req in enumerate(requests):
        slots.acquire()
        _submit(router, req, chunk, k, release=slots)
    chunk.wait()
    return time.perf_counter() - t0, chunk


def open_chunk(router, requests, rate: float) -> tuple[float, _Chunk]:
    """Send request ``k`` at ``t0 + k / rate`` regardless of completions."""
    chunk = _Chunk(len(requests))
    t0 = time.perf_counter() + 0.002
    for k, req in enumerate(requests):
        due = t0 + k / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        chunk.due[k] = due
        _submit(router, req, chunk, k)
    chunk.wait()
    return time.perf_counter() - t0, chunk


def _chunks(requests, size: int):
    return [requests[i:i + size] for i in range(0, len(requests), size)]


def saturation(fleet: Fleet, requests, cal) -> dict:
    capacity = SHARD_CAPACITY_RPS * fleet.shards
    raw, scaled, rates, done, failed, router_lat = [], [], [], 0, 0, []
    for part in _chunks(requests, max(1, int(SATURATION_CHUNK_S * capacity))):
        before = cal.take(CAL_PER_CHUNK)
        seconds, chunk = closed_chunk(fleet.router, part,
                                      WINDOW * fleet.shards)
        factor = cal.factor(before + cal.take(CAL_PER_CHUNK))
        raw.append(seconds)
        scaled.append(seconds * factor)
        rates.append(sum(chunk.ok) / (seconds * factor))
        done += sum(chunk.ok)
        failed += len(part) - sum(chunk.ok)
        router_lat += [(d - s) * factor for d, s in zip(chunk.done,
                                                        chunk.sent)
                       if d is not None]
    return {"raw_s": raw, "scaled_s": scaled, "rates": rates,
            "completed": done, "failed": failed,
            "router_latency_s": router_lat}


def open_loop(fleet: Fleet, requests, cal) -> dict:
    """Per chunk: raw latencies from the due time (inf for a request that
    did not complete, which misses every latency limit) and the chunk's
    calibration factor."""
    rate_ref = OPEN_LOAD * SHARD_CAPACITY_RPS * fleet.shards
    raw_chunks, factors, rates, lags, failed, router_lat = \
        [], [], [], [], 0, []
    for part in _chunks(requests, max(1, int(OPEN_CHUNK_S * rate_ref))):
        before = cal.take(CAL_PER_CHUNK)
        rate = rate_ref * cal.factor(before)
        rates.append(rate)
        _, chunk = open_chunk(fleet.router, part, rate)
        factor = cal.factor(before + cal.take(CAL_PER_CHUNK))
        factors.append(factor)
        raw_chunks.append([chunk.done[k] - chunk.due[k] if chunk.ok[k]
                           else float("inf") for k in range(len(part))])
        failed += len(part) - sum(chunk.ok)
        lags += [(s - d) * factor for s, d in zip(chunk.sent, chunk.due)]
        router_lat += [(d - s) * factor for d, s, ok in zip(
            chunk.done, chunk.sent, chunk.ok) if ok]
    return {"raw_latency_s": raw_chunks, "factors": factors, "rates": rates,
            "lag_s": lags, "failed": failed, "router_latency_s": router_lat,
            "rate_ref": rate_ref}


# -- checks ------------------------------------------------------------------------

def check(fleet: Fleet) -> dict:
    """Fleet accounting identities and a serial replay of a sample."""
    from repro.serve import replay
    report = fleet.router.report()
    s = report["serve"]
    if s["requests"] != s["admitted"] + s["rejected"]:
        raise CheckFailed(f"requests != admitted + rejected: {s}")
    settled = s["completed"] + s["expired"] + s["cancelled"] + s["errored"]
    if s["admitted"] != settled:
        raise CheckFailed("admitted != completed + expired + cancelled + "
                          f"errored: {s}")
    completed = [r for r in fleet.router.request_log
                 if r["outcome"] == "completed"]
    step = max(1, len(completed) // REPLAY_SAMPLE)
    sample = completed[::step][:REPLAY_SAMPLE]
    outcome = replay(sample, fleet.workloads)
    if not outcome.ok or outcome.replayed != len(sample):
        raise CheckFailed(f"serial replay disagrees with the fleet: "
                          f"{outcome.as_dict()}")
    return report


# -- runs --------------------------------------------------------------------------

def _phase_sizes(fleet: Fleet, seconds: float) -> tuple[int, int]:
    capacity = SHARD_CAPACITY_RPS * fleet.shards
    n_sat = max(WINDOW, int(seconds * SATURATION_SHARE * capacity))
    n_open = max(20, int(seconds * (1 - SATURATION_SHARE) * OPEN_LOAD
                         * capacity))
    return n_sat, n_open


def measure(fleet: Fleet, seed: int, seconds: float, cal) -> RunResult:
    n_sat, n_open = _phase_sizes(fleet, seconds)
    requests = fleet.stream(seed, n_sat + n_open)
    sat = saturation(fleet, requests[:n_sat], cal)
    ol = open_loop(fleet, requests[n_sat:], cal)
    check(fleet)
    capacity = statistics.median(sat["rates"])
    chunks_ms = [[x * 1e3 * f for x in chunk]
                 for chunk, f in zip(ol["raw_latency_s"], ol["factors"])]
    pooled = [x for chunk in chunks_ms for x in chunk]
    p99 = percentile(pooled, 99)
    res = RunResult(workload="serve_mixed", attempted=n_sat + n_open,
                    failed=sat["failed"] + ol["failed"])
    res.metrics = {
        "solve_s": n_sat / capacity,
        "capacity_rps": capacity,
        "latency_p50_ms": statistics.median(
            percentile(c, 50) for c in chunks_ms),
        "latency_p90_ms": statistics.median(
            percentile(c, 90) for c in chunks_ms),
        "slo_attainment": statistics.median(
            sum(1 for x in c if x <= SLO_MS) / len(c) for c in chunks_ms),
    }
    raw_ms = [[x * 1e3 for x in chunk] for chunk in ol["raw_latency_s"]]
    raw_capacity = statistics.median(
        r * scaled / raw for r, scaled, raw in zip(
            sat["rates"], sat["scaled_s"], sat["raw_s"]))
    res.raw = {"solve_s": n_sat / raw_capacity, "capacity_rps": raw_capacity,
               "latency_p50_ms": statistics.median(
                   percentile(c, 50) for c in raw_ms),
               "latency_p90_ms": statistics.median(
                   percentile(c, 90) for c in raw_ms),
               "saturation_chunk_s":
               sat["raw_s"], "saturation_chunk_rps": sat["rates"],
               "open_rates_rps": ol["rates"], "open_factors": ol["factors"],
               "open_raw_latency_s": ol["raw_latency_s"]}
    res.info = {
        "shards": fleet.shards,
        "open_rate_ref_rps": ol["rate_ref"],
        "open_samples": len(pooled),
        "open_chunks": len(chunks_ms),
        "pooled_latency_p50_ms": percentile(pooled, 50),
        "pooled_latency_p90_ms": percentile(pooled, 90),
        "pooled_latency_p99_ms": p99,
        "samples_beyond_p99": beyond(pooled, p99),
        "generator_lag_p50_ms": percentile(ol["lag_s"], 50) * 1e3,
        "generator_lag_max_ms": max(ol["lag_s"]) * 1e3,
        "slo_limit_ms": SLO_MS,
        "failed_share": res.failed / res.attempted,
    }
    return res


def measure_traced(fleet: Fleet, seed: int, seconds: float, cal) -> RunResult:
    """Per-layer run.  The saturation batch runs on the untraced fleet set
    up by the caller, then on a second fleet forked after the layer
    wrappers are installed, followed by the open-loop phase; the layer
    times come from the shards through the fleet report."""
    from layers import ATTRIBUTED, LayerClock, install_program_layers, \
        layer_metrics
    n_sat, n_open = _phase_sizes(fleet, seconds / 2)
    requests = fleet.stream(seed, n_sat + n_open)
    plain = saturation(fleet, requests[:n_sat], cal)
    fleet.close()

    clock = LayerClock()
    install_program_layers(clock)
    _install_shard_reporting(clock)
    try:
        traced_fleet = Fleet()
        try:
            warm = traced_fleet.router.report()
            sat = saturation(traced_fleet, requests[:n_sat], cal)
            ol = open_loop(traced_fleet, requests[n_sat:], cal)
            report = check(traced_fleet)
        finally:
            traced_fleet.close()
    finally:
        clock.restore()
    # Differences against the report taken after the fleet's warm-up.
    before, after = _perfbench_timers(warm), _perfbench_timers(report)
    delta = {k: (after[k][0] - before.get(k, (0, 0.0))[0],
                 after[k][1] - before.get(k, (0, 0.0))[1]) for k in after}

    def counter(name: str) -> int:
        return (report["counters"].get(name, 0)
                - warm["counters"].get(name, 0))

    factor = statistics.fmean(
        s / r for s, r in zip(sat["scaled_s"], sat["raw_s"]))
    snap = {"self_s": {}, "calls": {}, "counts": {}}
    for key, (calls, total) in delta.items():
        kind, _, name = key.partition(":")
        if kind == "self":
            snap["self_s"][name] = total
            snap["calls"][name] = calls
        elif kind == "count":
            snap["counts"][name] = calls
    metrics = layer_metrics(snap, factor)
    requests_seen = sat["completed"] + len(ol["router_latency_s"])
    hits = counter("engine.cache_hits")
    misses = counter("engine.cache_misses")
    batched = counter("kernel.batched_points")
    scalar = counter("kernel.scalar_points")
    batches = counter("serve.batches")

    def mean_ms(key: str) -> float:
        calls, total = delta.get(key, (0, 0.0))
        return total / calls * 1e3 * factor if calls else 0.0

    router_ms = statistics.fmean(
        sat["router_latency_s"] + ol["router_latency_s"]) * 1e3
    metrics.update({
        "engine.cache_hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
        "engine.evaluations": float(counter("engine.evaluations")),
        "analysis.batched_share": batched / (batched + scalar)
        if batched + scalar else 0.0,
        "serve.queue_wait_ms": mean_ms("serve:queue_wait"),
        "serve.execute_ms": mean_ms("serve:execute"),
        "serve.ipc_ms": router_ms - mean_ms("serve:shard_latency"),
        "serve.batch_size_mean": counter("serve.batched") / batches
        if batches else 0.0,
        "serve.rejected": float(counter("serve.rejected")),
        "serve.dedup_share": hits / requests_seen if requests_seen else 0.0,
    })
    open_requests = sum(len(c) for c in ol["raw_latency_s"])
    traced_s = sum(sat["scaled_s"]) + open_requests / statistics.fmean(
        ol["rates"]) * factor
    attributed = sum(metrics[k] for k in ATTRIBUTED)
    metrics["traced_wall_s"] = traced_s
    metrics["unattributed_s"] = traced_s - attributed
    metrics["trace_overhead"] = sum(sat["scaled_s"]) / sum(
        plain["scaled_s"]) - 1.0
    res = RunResult(workload="serve_mixed", attempted=2 * n_sat + n_open,
                    failed=plain["failed"] + sat["failed"] + ol["failed"],
                    metrics=metrics)
    res.raw = {"untraced_saturation_s": sum(plain["raw_s"]),
               "traced_saturation_s": sum(sat["raw_s"]),
               "traced_factor": factor}
    return res


def _install_shard_reporting(clock) -> None:
    """Make each shard's broker publish the layer clock and the request
    phase times as ``perfbench`` timers in its report, which the router
    merges fleet-wide.  The wrappers are installed before the fleet
    forks, so every shard inherits them."""
    from repro.serve.broker import Broker

    def execute(original):
        def wrapper(self, batch, t_assembled):
            t0 = self.clock()
            try:
                return original(self, batch, t_assembled)
            finally:
                t1 = self.clock()
                tele = self.engine.telemetry
                for req in batch:
                    dequeued = req.t_dequeue if req.t_dequeue is not None \
                        else t_assembled
                    tele.record_time("perfbench.serve:queue_wait",
                                     dequeued - req.t_submit)
                    tele.record_time("perfbench.serve:execute", t1 - t0)
                    tele.record_time("perfbench.serve:shard_latency",
                                     t1 - req.t_submit)
        return wrapper

    def report(original):
        def wrapper(self):
            out = original(self)
            snap = clock.snapshot()
            for name, total in snap["self_s"].items():
                out["timers"][f"perfbench.self:{name}"] = {
                    "calls": snap["calls"][name], "total_s": total,
                    "mean_s": 0.0}
            for name, n in snap["counts"].items():
                out["timers"][f"perfbench.count:{name}"] = {
                    "calls": int(n), "total_s": 0.0, "mean_s": 0.0}
            return out
        return wrapper

    clock.patch(Broker, "_execute", execute)
    clock.patch(Broker, "report", report)


def _perfbench_timers(report: dict) -> dict[str, tuple[int, float]]:
    prefix = "perfbench."
    return {name[len(prefix):]: (stat["calls"], stat["total_s"])
            for name, stat in report["timers"].items()
            if name.startswith(prefix)}
