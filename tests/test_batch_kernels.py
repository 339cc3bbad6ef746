"""Differential conformance harness for the batched evaluation kernels.

The batched path (:mod:`repro.analysis.batch` + the engine's ``batcher``
hook) must be *indistinguishable* from the scalar path everywhere a user
can observe: results, cache keys, netlists, failure records, span-tree
shapes and manifest digests.  This file is the gate — every cell of the

    seed x topology x {scalar, batched} x {serial, parallel}
         x {fault, no-fault} x {surrogate on, off}

matrix runs both paths and cross-checks them, plus hypothesis properties
for the stamp kernels themselves.

Numerical contract (documented in ``repro.analysis.batch``):

* assembled stamps are bitwise identical to ``MnaSystem.linear_stamps``;
* a singleton batch delegates to the scalar dispatcher bit-identically;
* K >= 2 batched DC, AC and noise results are bitwise identical to the
  scalar ones (every member goes through the same ``getrf``/``getrs``
  calls as a scalar solve), transient trajectories match to rtol 1e-6
  (step-by-step accumulation);
* within one mode, reruns (and serial vs parallel executors) are
  bit-identical, and so are their manifest digests.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import api
from repro.analysis.ac import logspace_frequencies
from repro.analysis.api import AcSpec, DcSpec, NoiseSpec, TranSpec
from repro.analysis.batch import (
    BatchTopologyError,
    StampPlan,
    batched_dc,
    run_batch,
    topology_signature,
)
from repro.analysis.mna import (
    BatchSingularError,
    MnaSystem,
    SingularCircuitError,
    mos_capacitances,
)
from repro.analysis.solver import (
    DenseLU,
    factorize,
    factorize_stack,
    solve_once,
    solve_stack,
)
from repro.circuits.library import (
    common_source_amp,
    five_transistor_ota,
    rc_ladder,
    rlc_tank,
    voltage_divider,
)
from repro.circuits.netlist import Circuit
from repro.engine import (
    EngineConfig,
    EvalCache,
    EvaluationEngine,
    FaultInjector,
    ServeConfig,
    SurrogateConfig,
    Tracer,
    build_manifest,
    is_failure,
    manifest_digest,
    validate_manifest,
)
from repro.opt.anneal import AnnealSchedule
from repro.serve import Broker, Workload
from repro.core.specs import Spec, SpecSet
from repro.synthesis import DesignSpace
from repro.synthesis.simulation_based import (
    BatchEvaluator,
    SimulationBasedSizer,
    SimulationEvaluator,
)

RTOL = 1e-9
TRAN_RTOL = 1e-6


# ----------------------------------------------------------------------
# Topology families: same-topology variants parameterized by one factor
# ----------------------------------------------------------------------

def _rc(f: float) -> Circuit:
    return rc_ladder(4, r=1e3 * f, c=1e-12 * (0.5 + f))


def _tank(f: float) -> Circuit:
    return rlc_tank(r=50.0 * f, l=1e-9 * f, c=1e-12 / f)


def _divider(f: float) -> Circuit:
    return voltage_divider(r1=1e3 * f, r2=2e3 / f, vin=1.0 + f)


def _cs_amp(f: float) -> Circuit:
    return common_source_amp(w=20e-6 * f, r_load=10e3 * f)


LINEAR_FAMILIES = {"rc_ladder": _rc, "rlc_tank": _tank, "divider": _divider}

FACTORS = st.lists(st.floats(min_value=0.1, max_value=8.0,
                             allow_nan=False, allow_infinity=False),
                   min_size=2, max_size=6)


def _assert_op_equal(a, b):
    assert a.voltages == b.voltages
    assert a.branch_currents == b.branch_currents
    np.testing.assert_array_equal(a.x, b.x)


def _assert_ac_equal(a, b):
    assert np.array_equal(a.freqs, b.freqs)
    assert set(a.phasors) == set(b.phasors)
    for net in a.phasors:
        np.testing.assert_array_equal(a.phasors[net], b.phasors[net])


# ----------------------------------------------------------------------
# Hypothesis properties: the stamp kernels themselves
# ----------------------------------------------------------------------

class TestStampProperties:
    @settings(max_examples=20, deadline=None)
    @given(FACTORS)
    def test_assembled_stamps_bitwise_equal_linear_stamps(self, factors):
        """Property: every (n, n) slice of the stacked assembly equals the
        scalar ``MnaSystem.linear_stamps`` *bitwise* — not just rtol."""
        for make in LINEAR_FAMILIES.values():
            circuits = [make(f) for f in factors]
            plan = StampPlan(circuits[0])
            G, C, b_dc, b_ac = plan.assemble(plan.param_block(circuits))
            for k, circuit in enumerate(circuits):
                Gs, Cs, bs, bas = MnaSystem(circuit).linear_stamps()
                assert np.array_equal(G[k], Gs)
                assert np.array_equal(C[k], Cs)
                assert np.array_equal(b_dc[k], bs)
                assert np.array_equal(b_ac[k], bas)

    @settings(max_examples=15, deadline=None)
    @given(FACTORS)
    def test_batch_order_invariance(self, factors):
        """Property: member k's result does not depend on who its batch
        neighbours are or where it sits in the stack."""
        circuits = [_rc(f) for f in factors]
        spec = AcSpec(freqs=logspace_frequencies(1e3, 1e8, 3))
        forward = run_batch(circuits, spec)
        perm = list(reversed(range(len(circuits))))
        backward = run_batch([circuits[i] for i in perm], spec)
        for pos, k in enumerate(perm):
            a, b = forward[k], backward[pos]
            for net in a.phasors:
                assert np.array_equal(a.phasors[net], b.phasors[net])

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.1, max_value=8.0))
    def test_singleton_batch_is_bit_identical_to_scalar(self, f):
        """Property: K=1 delegates to ``api.run`` — bitwise, not rtol."""
        circuit = _rc(f)
        specs = [
            DcSpec(),
            AcSpec(freqs=logspace_frequencies(1e3, 1e8, 2)),
            TranSpec(t_stop=2e-8, dt=1e-9),
            NoiseSpec(out="n4", freqs=np.logspace(3, 7, 5)),
        ]
        for spec in specs:
            batched = run_batch([circuit], spec)[0]
            scalar = api.run(circuit, spec)
            if isinstance(spec, DcSpec):
                assert np.array_equal(batched.x, scalar.x)
            elif isinstance(spec, AcSpec):
                for net in scalar.phasors:
                    assert np.array_equal(batched.phasors[net],
                                          scalar.phasors[net])
            elif isinstance(spec, TranSpec):
                assert np.array_equal(batched.times, scalar.times)
                for net in scalar.voltages:
                    assert np.array_equal(batched.voltages[net],
                                          scalar.voltages[net])
            else:
                assert np.array_equal(batched.output_psd, scalar.output_psd)

    def test_topology_signature_stable_across_sizings(self):
        assert topology_signature(_rc(0.5)) == topology_signature(_rc(4.0))
        assert topology_signature(_rc(1.0)) != topology_signature(_tank(1.0))


# ----------------------------------------------------------------------
# run_batch: every spec kind, conformance + fallback accounting
# ----------------------------------------------------------------------

def _counted(fn):
    """Run ``fn`` under a fresh traced span; return (value, counters)."""
    tracer = Tracer()
    with tracer.span("kernels"):
        value = fn()
    return value, dict(tracer.telemetry.counters)


class TestRunBatchConformance:
    FACTORS = [0.4, 1.0, 2.5, 6.0]

    def circuits(self, make=_rc):
        return [make(f) for f in self.FACTORS]

    def test_dc_conformance(self):
        circuits = self.circuits()
        batched, counters = _counted(lambda: run_batch(circuits, DcSpec()))
        scalar = [api.run(c, DcSpec()) for c in circuits]
        for b, s in zip(batched, scalar):
            _assert_op_equal(b, s)
        assert counters["kernel.batched_solves"] == 1
        assert "kernel.fallback.dc" not in counters

    def test_ac_conformance(self):
        circuits = self.circuits(_tank)
        spec = AcSpec(freqs=logspace_frequencies(1e6, 1e10, 4))
        batched, counters = _counted(lambda: run_batch(circuits, spec))
        scalar = [api.run(c, spec) for c in circuits]
        for b, s in zip(batched, scalar):
            _assert_ac_equal(b, s)
        assert counters["kernel.batched_solves"] == len(spec.freqs)

    def test_transient_conformance(self):
        circuits = self.circuits()
        spec = TranSpec(t_stop=5e-8, dt=1e-9)
        batched, _ = _counted(lambda: run_batch(circuits, spec))
        scalar = [api.run(c, spec) for c in circuits]
        for b, s in zip(batched, scalar):
            assert np.array_equal(b.times, s.times)
            assert set(b.voltages) == set(s.voltages)
            for net in s.voltages:
                np.testing.assert_allclose(b.voltages[net],
                                           s.voltages[net],
                                           rtol=TRAN_RTOL, atol=1e-15)

    def test_noise_conformance(self):
        circuits = self.circuits()
        spec = NoiseSpec(out="n4", freqs=np.logspace(3, 7, 7))
        batched, _ = _counted(lambda: run_batch(circuits, spec))
        scalar = [api.run(c, spec) for c in circuits]
        for b, s in zip(batched, scalar):
            np.testing.assert_array_equal(b.output_psd, s.output_psd)
            by_key = {(c.device, c.kind): c.psd for c in s.contributions}
            assert ({(c.device, c.kind) for c in b.contributions}
                    == set(by_key))
            for c in b.contributions:
                np.testing.assert_array_equal(c.psd,
                                              by_key[(c.device, c.kind)])

    def test_nonlinear_topology_falls_back_bitwise(self):
        """Nonlinear DC/transient replay the scalar path per member — the
        results are the *same objects the scalar loop makes*, so bitwise."""
        circuits = self.circuits(_cs_amp)
        batched, counters = _counted(lambda: run_batch(circuits, DcSpec()))
        scalar = [api.run(c, DcSpec()) for c in circuits]
        for b, s in zip(batched, scalar):
            assert np.array_equal(b.x, s.x)
            assert b.iterations == s.iterations
        assert counters["kernel.fallback.dc"] == len(circuits)

    def test_nonlinear_ac_stays_batched(self):
        """AC on a MOS topology batches the sweep over per-member
        linearizations — no fallback, bitwise conformance."""
        circuits = self.circuits(_cs_amp)
        spec = AcSpec(freqs=logspace_frequencies(1e4, 1e9, 3))
        batched, counters = _counted(lambda: run_batch(circuits, spec))
        scalar = [api.run(c, spec) for c in circuits]
        for b, s in zip(batched, scalar):
            _assert_ac_equal(b, s)
        assert "kernel.fallback.ac" not in counters
        assert counters["kernel.batched_solves"] == len(spec.freqs)

    def test_warm_start_and_shared_op_fall_back(self):
        circuits = self.circuits()
        x0 = np.zeros(MnaSystem(circuits[0]).size)
        _, counters = _counted(
            lambda: run_batch(circuits, DcSpec(x0=x0)))
        assert counters["kernel.fallback.dc"] == len(circuits)
        op = api.run(circuits[0], DcSpec())
        spec = AcSpec(freqs=np.array([1e6]), op=op)
        _, counters = _counted(lambda: run_batch(circuits, spec))
        assert counters["kernel.fallback.ac"] == len(circuits)

    def test_singular_member_aborts_and_replays_scalar(self):
        """A value-induced bad member aborts the stacked solve with its
        index attributed; run_batch then replays the scalar loop, which
        raises the same SingularCircuitError a scalar sweep would, and
        ``kernel.batch_aborts`` records the abort."""
        from repro.analysis.batch import batched_ac
        circuits = [_rc(0.5), rc_ladder(4, r=1e3, c=np.inf), _rc(2.0)]
        spec = AcSpec(freqs=np.array([1e6]))
        with np.errstate(invalid="ignore"):
            with pytest.raises(BatchSingularError) as err:
                batched_ac(circuits, spec.freqs)
            assert err.value.members == (1,)

            def run():
                with pytest.raises(SingularCircuitError):
                    run_batch(circuits, spec)
            _, counters = _counted(run)
            assert counters["kernel.batch_aborts"] == 1
            assert counters["kernel.fallback.ac"] == len(circuits)
            # The scalar loop fails the same way at the same member.
            assert api.run(circuits[0], spec) is not None
            with pytest.raises(SingularCircuitError):
                api.run(circuits[1], spec)

    def test_mixed_topology_batch_is_rejected(self):
        # Checked before any fallback choice: the scalar-path specs and a
        # nonlinear first member are rejected too.
        x0 = np.zeros(MnaSystem(_rc(1.0)).size)
        for circuits, spec in (
                ([_rc(1.0), _tank(1.0)], DcSpec()),
                ([_rc(1.0), _tank(1.0)], DcSpec(x0=x0)),
                ([_rc(1.0), _tank(1.0)], AcSpec(freqs=np.array([1e6]))),
                ([_cs_amp(1.0), _rc(1.0)], DcSpec())):
            with pytest.raises(BatchTopologyError):
                run_batch(circuits, spec)

    def test_empty_batch(self):
        assert run_batch([], DcSpec()) == []


# ----------------------------------------------------------------------
# Satellite guards: mna dtype/shape checks and error normalization
# ----------------------------------------------------------------------

class TestMnaGuards:
    def test_stamp_nonlinear_rejects_batch_tensors(self):
        system = MnaSystem(_cs_amp(1.0))
        n = system.size
        x = np.zeros(n)
        G = np.zeros((n, n))
        rhs = np.zeros(n)
        with pytest.raises(ValueError, match="repro.analysis.batch"):
            system.stamp_nonlinear(np.zeros((3, n)), G, rhs)
        with pytest.raises(ValueError, match="length"):
            system.stamp_nonlinear(np.zeros(n + 1), G, rhs)
        with pytest.raises(TypeError, match="float"):
            system.stamp_nonlinear(np.zeros(n, dtype=complex), G, rhs)
        with pytest.raises(ValueError, match="Jacobian"):
            system.stamp_nonlinear(x, np.zeros((3, n, n)), rhs)
        system.stamp_nonlinear(x, G, rhs)  # the scalar shapes still work

    def test_mos_capacitances_guards(self):
        from types import SimpleNamespace
        dev = _cs_amp(1.0).mosfets[0]
        cgs, cgd, cgb = mos_capacitances(dev, "saturation")
        assert cgs > 0 and cgd > 0 and cgb >= 0
        batched = SimpleNamespace(name=dev.name, model=dev.model,
                                  w=np.array([1e-6, 2e-6]), l=dev.l,
                                  m=dev.m)
        with pytest.raises(TypeError, match="scalar W/L"):
            mos_capacitances(batched, "saturation")
        with pytest.raises(ValueError, match="unknown operating region"):
            mos_capacitances(dev, "weak-inversion")

    def test_scalar_solves_normalize_failures(self):
        """K=1 failures are plain SingularCircuitError, never the batch
        subclass, whichever check trips."""
        singular = np.zeros((2, 2))
        with pytest.raises(SingularCircuitError) as err:
            solve_once(singular, np.ones(2))
        assert not isinstance(err.value, BatchSingularError)
        with pytest.raises(SingularCircuitError, match="non-finite") as err:
            factorize(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        assert not isinstance(err.value, BatchSingularError)
        with pytest.raises(SingularCircuitError, match="non-finite") as err:
            solve_once(np.eye(2) * 1e-300, np.full(2, 1e300))
        assert not isinstance(err.value, BatchSingularError)
        with pytest.raises(ValueError, match="factorize_stack"):
            factorize(np.zeros((2, 3, 3)))

    def test_stack_names_singular_members(self):
        A = np.stack([np.eye(2), np.zeros((2, 2)), 2 * np.eye(2),
                      np.zeros((2, 2))])
        with pytest.raises(BatchSingularError) as err:
            factorize_stack(A)
        assert err.value.members == (1, 3)
        bad = np.stack([np.eye(2), np.array([[np.inf, 0], [0, 1]])])
        with pytest.raises(BatchSingularError) as err:
            factorize_stack(bad)
        assert err.value.members == (1,)
        # A finite factor can still overflow its solution.
        tiny = np.stack([np.eye(2), np.eye(2) * 1e-300])
        with pytest.raises(BatchSingularError) as err:
            solve_stack(factorize_stack(tiny), np.full(2, 1e300))
        assert err.value.members == (1,)
        with pytest.raises(ValueError, match="stack"):
            DenseLU(np.eye(2))
        with pytest.raises(ValueError, match="rhs shape"):
            factorize_stack(np.stack([np.eye(2)] * 2)).solve(np.ones((3, 2)))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_members_equal_scalar_solves_bitwise(self, dtype):
        rng = np.random.default_rng(7)
        A = (rng.normal(size=(5, 4, 4)) + 4 * np.eye(4)).astype(dtype)
        if dtype is complex:
            A += 1j * rng.normal(size=(5, 4, 4))
        b = rng.normal(size=(5, 4)) + 0j
        lu = factorize_stack(A)
        for trans, scalar_solve in (("N", "solve"), ("T", "solve_transpose"),
                                    ("H", "solve_adjoint")):
            X = solve_stack(lu, b, trans=trans)
            for k in range(5):
                op = factorize(A[k])
                np.testing.assert_array_equal(
                    X[k], getattr(op, scalar_solve)(b[k]))
        # ...and the primitive is a correct solver, checked against numpy.
        X = solve_stack(lu, b)
        for k in range(5):
            np.testing.assert_allclose(X[k], np.linalg.solve(A[k], b[k]),
                                       rtol=RTOL, atol=1e-15)


# ----------------------------------------------------------------------
# Satellite: cache enumeration under concurrent writers
# ----------------------------------------------------------------------

class TestCacheConcurrency:
    def test_items_under_concurrent_writers(self):
        cache = EvalCache(max_entries=512)
        stop = threading.Event()
        errors = []

        def writer(tag):
            i = 0
            try:
                while not stop.is_set():
                    cache.put(f"{tag}:{i}", i)
                    i += 1
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(300):
                snapshot = cache.items()
                assert isinstance(snapshot, list)
                for key, value in snapshot:
                    assert key.endswith(f":{value}")
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors

    def test_scan_disk_under_concurrent_writer(self, tmp_path):
        cache = EvalCache(max_entries=64, disk_dir=tmp_path)
        (tmp_path / "corrupt.pkl").write_bytes(b"\x00not-a-pickle")
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                cache.put(f"w{i:04d}", {"v": i})
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                for key, value in cache.scan_disk():
                    if key.startswith("w"):
                        assert value == {"v": int(key[1:])}
                    assert key != "corrupt"
        finally:
            stop.set()
            thread.join()
        # The corrupt entry is skipped, everything readable is yielded.
        keys = [k for k, _ in cache.scan_disk()]
        assert "corrupt" not in keys and keys == sorted(keys)


# ----------------------------------------------------------------------
# The differential matrix: engine-level scalar vs batched
# ----------------------------------------------------------------------

OTA_SPACE = DesignSpace(
    variables={"w_in": (5e-6, 500e-6), "w_load": (5e-6, 200e-6),
               "w_tail": (5e-6, 200e-6), "i_bias": (2e-6, 500e-6)},
    fixed={"l_in": 2e-6, "l_load": 2e-6, "l_tail": 2e-6,
           "c_load": 2e-12, "vdd": 3.3})

OTA_SPECS = SpecSet([
    Spec.at_least("gain_db", 40.0),
    Spec.at_least("gbw", 10e6),
    Spec.minimize("power", good=1e-4),
])

SCHEDULE = AnnealSchedule(moves_per_temperature=15, cooling=0.8,
                          max_evaluations=120, stop_after_stale=4)


def _ota_candidates(seed: int, n: int) -> list[dict[str, float]]:
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        draw = {name: lo + (hi - lo) * rng.random()
                for name, (lo, hi) in OTA_SPACE.variables.items()}
        points.append(OTA_SPACE.complete(draw))
    return points


# Injected fault rate for the faulted matrix cells; the CI `kernels` job
# pins REPRO_FAULT_RATE=0.1, locally the default keeps the cells hot.
FAULT_RATE = float(os.environ.get("REPRO_FAULT_RATE", "0.2"))


def _evaluator() -> SimulationEvaluator:
    return SimulationEvaluator(builder=five_transistor_ota,
                               raise_failures=True)


def _filter_kernel_counters(tree):
    """Span-tree copy with ``kernel.*`` counter keys removed — the only
    place the two modes may legitimately differ."""
    if isinstance(tree, list):
        return [_filter_kernel_counters(t) for t in tree]
    out = {}
    for key, value in tree.items():
        if key == "counters":
            out[key] = {k: v for k, v in value.items()
                        if not k.startswith("kernel.")}
        elif key == "children":
            out[key] = _filter_kernel_counters(value)
        else:
            out[key] = value
    return out


def _run_cell(seed: int, *, batched: bool, executor: str,
              fault_rate: float = 0.0, n_points: int = 10):
    """One matrix cell: fixed candidate stream through map_evaluate."""
    injector = FaultInjector(rate=fault_rate, seed=seed) \
        if fault_rate else None
    config = EngineConfig(executor=executor, workers=2, cache=True,
                          trace=True, fault_injector=injector,
                          batch_kernel=batched)
    engine = EvaluationEngine.from_config(config)
    evaluator = _evaluator()
    batcher = BatchEvaluator(evaluator) if batched else None
    points = _ota_candidates(seed, n_points)
    with engine.tracer.span("differential"):
        results = engine.map_evaluate(evaluator.simulate, points,
                                      key_fn=evaluator.cache_key,
                                      batcher=batcher)
    report = engine.report()
    manifest = build_manifest("differential", engine, seed=seed,
                              config=config)
    cache_keys = sorted(key for key, _ in engine.cache.items())
    structure = engine.tracer.structure()
    netlists = [repr(evaluator.build_testbench(p)) for p in points]
    engine.close()
    return {
        "results": results,
        "report": report,
        "manifest": manifest,
        "digest": manifest_digest(manifest),
        "cache_keys": cache_keys,
        "structure": structure,
        "netlists": netlists,
    }


def _assert_results_conform(scalar, batched):
    assert len(scalar) == len(batched)
    for s, b in zip(scalar, batched):
        if is_failure(s) or is_failure(b):
            assert is_failure(s) and is_failure(b)
            assert s.exception_type == b.exception_type
            continue
        assert b == s


class TestEngineDifferential:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("fault_rate", [0.0, FAULT_RATE])
    def test_matrix_cell(self, seed, fault_rate):
        # Faulted cells stretch the candidate stream so at least one
        # injection lands even at low REPRO_FAULT_RATE settings (the
        # injector is deterministic per token, so every cell sees the
        # exact same hits).
        n_points = max(10, int(np.ceil(3.0 / fault_rate))) \
            if fault_rate else 10
        cells = {
            (mode, executor): _run_cell(seed, batched=(mode == "batched"),
                                        executor=executor,
                                        fault_rate=fault_rate,
                                        n_points=n_points)
            for mode in ("scalar", "batched")
            for executor in ("serial", "parallel")
        }
        ss = cells[("scalar", "serial")]
        sp = cells[("scalar", "parallel")]
        bs = cells[("batched", "serial")]
        bp = cells[("batched", "parallel")]

        # Netlists and cache keys: identical across every cell.
        for cell in cells.values():
            assert cell["netlists"] == ss["netlists"]
            assert cell["cache_keys"] == ss["cache_keys"]

        # Within-mode, serial == parallel bit-identically.
        for a, b in ((ss, sp), (bs, bp)):
            assert len(a["results"]) == len(b["results"])
            for x, y in zip(a["results"], b["results"]):
                if is_failure(x):
                    assert is_failure(y)
                    assert x.exception_type == y.exception_type
                else:
                    assert x == y

        # Across modes, per-point results are bitwise equal.
        _assert_results_conform(ss["results"], bs["results"])

        # Failure records (injected faults) match across all four cells.
        records = [
            [{k: v for k, v in rec.items() if k != "elapsed_s"}
             for rec in cell["report"]["failures"]["records"]]
            for cell in cells.values()
        ]
        assert all(r == records[0] for r in records[1:])
        if fault_rate:
            assert ss["report"]["failures"]["total"] > 0
            assert bs["report"]["kernel"]["fault_exclusions"] \
                == ss["report"]["failures"]["total"]

        # Span-tree shapes agree across modes once kernel.* counters —
        # the batched path's only deliberate addition — are filtered.
        assert _filter_kernel_counters(bs["structure"]) \
            == _filter_kernel_counters(ss["structure"])

        # The batched cells actually batched something (all points share
        # the OTA topology, none are fault-scheduled in the clean run).
        kernel = bs["report"]["kernel"]
        assert kernel["groups"] >= 1
        if not fault_rate:
            assert kernel["batched_points"] == len(bs["results"])
            assert kernel["scalar_points"] == 0
        else:
            assert kernel["batched_points"] + kernel["scalar_points"] \
                == len(bs["results"])
        for cell in cells.values():
            validate_manifest(cell["manifest"])

    @pytest.mark.parametrize("batched", [False, True])
    def test_rerun_determinism_and_manifest_digest(self, batched):
        a = _run_cell(5, batched=batched, executor="serial")
        b = _run_cell(5, batched=batched, executor="serial")
        assert a["results"] == b["results"]
        assert a["digest"] == b["digest"]
        assert a["structure"] == b["structure"]

    @pytest.mark.parametrize("batched", [False, True])
    def test_sizing_with_surrogate_is_mode_deterministic(self, batched):
        def run():
            config = EngineConfig(
                cache=True, batch_kernel=batched,
                surrogate=SurrogateConfig(min_fit=16, refit_every=8))
            sizer = SimulationBasedSizer(
                _evaluator(), OTA_SPACE, OTA_SPECS, schedule=SCHEDULE,
                seed=7, batch_size=8, config=config)
            engine = sizer.engine
            result = sizer.run()
            return result, engine.report()

        (r1, rep1), (r2, rep2) = run(), run()
        assert r1.sizes == r2.sizes
        assert r1.cost == r2.cost
        assert r1.history == r2.history
        assert rep1["surrogate"]["predictions"] == \
            rep2["surrogate"]["predictions"]
        if batched:
            assert rep1["kernel"]["batches"] >= 1
        else:
            assert rep1["kernel"]["batches"] == 0

    def test_sizing_scalar_vs_batched_without_surrogate(self):
        """Unscreened sizing: the two modes walk the same annealing
        trajectory (per-point results are bitwise equal, so every
        acceptance decision is too)."""
        def run(batched):
            config = EngineConfig(cache=True, batch_kernel=batched)
            sizer = SimulationBasedSizer(
                _evaluator(), OTA_SPACE, OTA_SPECS, schedule=SCHEDULE,
                seed=11, batch_size=8, config=config)
            engine = sizer.engine
            result = sizer.run()
            return result, engine.report()

        (rs, _), (rb, rep_b) = run(False), run(True)
        assert rs.evaluations == rb.evaluations
        assert rb.cost == rs.cost
        assert rb.sizes == rs.sizes
        assert rb.history == rs.history
        assert rep_b["kernel"]["batched_points"] > 0


# ----------------------------------------------------------------------
# Serve layer: MicroBatcher batches ride the kernel path
# ----------------------------------------------------------------------

class TestServeBatched:
    def test_workload_batcher_reaches_kernel(self):
        evaluator = _evaluator()
        config = EngineConfig(
            cache=True,
            serve=ServeConfig(max_batch=8, max_wait_ms=100.0))
        engine = EvaluationEngine.from_config(config)
        broker = Broker(engine, config=config.serve, owns_engine=True)
        broker.register(Workload("ota", evaluator.simulate,
                                 key_fn=evaluator.cache_key,
                                 batcher=BatchEvaluator(evaluator)))
        points = _ota_candidates(21, 8)
        with broker:
            handles = [broker.submit("ota", p) for p in points]
            results = [h.result(timeout=60) for h in handles]
        report = engine.report()
        scalar = [_evaluator().simulate(p) for p in points]
        _assert_results_conform(scalar, results)
        kernel = report["kernel"]
        # Every evaluated point went through the batcher hook, whether it
        # was vectorized or (sub-min_batch micro-batches) fell back.
        assert kernel["groups"] >= 1
        assert kernel["batched_points"] + kernel["scalar_points"] \
            == report["counters"]["engine.evaluations"]
