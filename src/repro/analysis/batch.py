"""Batched multi-point evaluation kernels: stamp once, evaluate K sizings.

A sizing sweep evaluates many *same-topology* candidates — an annealer
population, a GA generation, a ``MicroBatcher`` same-workload batch.  The
scalar path re-runs Python MNA assembly and a fresh LU for every candidate.
This module replaces that inner loop with a symbolic-once/evaluate-many
kernel:

* :class:`StampPlan` — built once per topology.  It walks the flattened
  device list in the *exact* order :meth:`MnaSystem.linear_stamps` does and
  records, for every scalar stamp, the (row, col) target and a
  parameter-slot + value-op (``+p``, ``-p``, ``+1/p``, ``-1/p``, ``±1``).
  A batch of K sizings then assembles into stacked ``(K, n, n)`` G/C
  tensors with a single ``np.add.at`` per matrix — bit-identical per slice
  to K scalar stamping passes, because ``np.add.at`` accumulates
  duplicate indices sequentially and the entries are emitted k-major /
  stamp-order-minor.
* :func:`batched_dc` / :func:`batched_ac` / :func:`batched_transient` /
  :func:`batched_noise` — linear analyses as stacked dense LU over the
  batch axis (:func:`~repro.analysis.solver.factorize_stack`, the same
  ``getrf``/``getrs`` primitive every scalar dense solve uses).
  Nonlinear members keep their per-member Newton (``analysis.dcop``) and
  only the linear(ized) sweeps are stacked.
* :func:`run_batch` — the dispatch front door mirroring
  :func:`repro.analysis.api.run`: takes one spec and K circuits, checks
  their shared topology once through the plan, batches what it can, and
  falls back to the per-point scalar path for everything else
  (nonlinear DC/transient, warm starts, shared ``op``/``ss`` objects,
  singular members) with ``kernel.fallback.<kind>`` counters explaining
  every non-vectorized evaluation.

Numerical contract (enforced by ``tests/test_batch_kernels.py``):

* assembled stamps are **bitwise identical** to ``MnaSystem.linear_stamps``;
* a singleton batch delegates to the scalar path and is **bit-identical**;
* K >= 2 batched DC, AC and noise results are **bitwise identical** to
  the scalar ones: every stack member is factored and solved by its own
  call of the LAPACK routines the scalar path calls
  (:class:`~repro.analysis.solver.DenseLU`), so the equality holds on any
  BLAS build and at any thread count;
* K >= 2 transient trajectories match to rtol 1e-6 — the stacked
  integrator accumulates its history terms in a different order.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.analysis.ac import AcResult, small_signal_system
from repro.analysis.dcop import ConvergenceError, OperatingPoint, _converged
from repro.analysis.mna import GMIN_DEFAULT, BatchSingularError, MnaSystem
from repro.analysis.noise import (
    FOUR_KT,
    NoiseContribution,
    NoiseResult,
    _const_psd,
    _noise_injections,
)
from repro.analysis.solver import DenseLU, factorize_stack, solve_stack
from repro.analysis.transient import (
    TransientResult,
    _rhs_at_time,
    _source_at_time_zero,
)
from repro.circuits.devices import (
    Capacitor,
    Cccs,
    Ccvs,
    CurrentSource,
    Diode,
    Inductor,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuits.netlist import Circuit, NetlistError
from repro.engine.trace import current_tracer


class BatchTopologyError(NetlistError):
    """A circuit does not fit the batch: wrong topology or unbatchable spec."""


def _count(name: str, n: int = 1) -> None:
    tracer = current_tracer()
    if tracer is not None:
        tracer.count(name, n)


def _flat(circuit: Circuit) -> Circuit:
    return circuit.flattened() if circuit.subckts else circuit


def topology_signature(circuit: Circuit) -> str:
    """Structural fingerprint: device classes, names, nodes and models.

    Two circuits with the same signature differ only in element *values*
    (R/C/L, source levels, controlled-source gains, MOS W/L) and can share
    one :class:`StampPlan` / one batch.  Values are deliberately excluded.
    """
    parts = []
    for dev in _flat(circuit).devices:
        model = getattr(dev, "model", None)
        parts.append((
            type(dev).__name__,
            dev.name,
            tuple(dev.nodes),
            getattr(dev, "control", "") or "",
            getattr(model, "name", "") if model is not None else "",
        ))
    blob = repr(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# Value ops for one recorded stamp entry: how the stamped coefficient is
# derived from the device parameter in slot ``s`` of the parameter vector.
_ID = 0        # +p        (capacitor value, source level, gm, gain)
_NEG = 1       # -p        (inductor C[k,k], -gain, -transres)
_INV = 2       # +1/p      (resistor conductance)
_NEG_INV = 3   # -1/p
_ONE = 4       # +1.0      (branch incidence)
_NEG_ONE = 5   # -1.0

_NEGATED = {_ID: _NEG, _INV: _NEG_INV, _ONE: _NEG_ONE}

# Linear parameter attributes read per device class, in stamp order.
_PARAM_ATTRS = {
    Resistor: ("value",),
    Capacitor: ("value",),
    Inductor: ("value",),
    VoltageSource: ("dc", "ac"),
    CurrentSource: ("dc", "ac"),
    Vcvs: ("gain",),
    Vccs: ("gm",),
    Cccs: ("gain",),
    Ccvs: ("transres",),
    Mosfet: (),
    Diode: (),
}


class StampPlan:
    """Symbolic stamp recording for one topology.

    Built once from a template circuit; :meth:`extract_params` pulls the
    per-candidate parameter vector out of any same-topology circuit (and
    rejects everything else with :class:`BatchTopologyError`), and
    :meth:`assemble` turns a ``(K, P)`` parameter block into stacked
    ``(K, n, n)`` G/C tensors plus ``(K, n)`` source vectors.
    """

    def __init__(self, circuit: Circuit, gmin: float = GMIN_DEFAULT):
        system = MnaSystem(circuit, gmin=gmin)
        self.system = system
        self.size = system.size
        self.n_nodes = len(system.node_names)
        self.gmin = gmin
        self.nonlinear = bool(system.nonlinear)
        self._schema: list[tuple[str, str, tuple, str, tuple]] = []
        self.n_params = 0
        # Per-target entry lists; matrices carry (row, col), vectors (row,).
        self._entries = {"G": ([], [], [], []), "C": ([], [], [], []),
                         "b_dc": ([], [], []), "b_ac": ([], [], [])}
        for dev in system.circuit.devices:
            self._plan_device(dev, system)
        # (device index, attribute) of every parameter, in slot order.
        self._param_refs = [(i, attr) for i, entry in enumerate(self._schema)
                            for attr in entry[4]]
        # Freeze to index arrays for np.add.at.
        self._mat = {}
        for key in ("G", "C"):
            rows, cols, kinds, slots = self._entries[key]
            self._mat[key] = (np.asarray(rows, dtype=np.intp),
                              np.asarray(cols, dtype=np.intp),
                              tuple(kinds), tuple(slots))
        self._vec = {}
        for key in ("b_dc", "b_ac"):
            rows, kinds, slots = self._entries[key]
            self._vec[key] = (np.asarray(rows, dtype=np.intp),
                              tuple(kinds), tuple(slots))
        del self._entries
        _count("kernel.plan_builds")

    # -- construction --------------------------------------------------
    def _slot(self) -> int:
        s = self.n_params
        self.n_params += 1
        return s

    def _mat_entry(self, target: str, i: int, j: int, kind: int,
                   slot: int = -1) -> None:
        if i >= 0 and j >= 0:
            rows, cols, kinds, slots = self._entries[target]
            rows.append(i)
            cols.append(j)
            kinds.append(kind)
            slots.append(slot)

    def _vec_entry(self, target: str, i: int, kind: int, slot: int) -> None:
        if i >= 0:
            rows, kinds, slots = self._entries[target]
            rows.append(i)
            kinds.append(kind)
            slots.append(slot)

    def _quad(self, target: str, a: int, b: int, kind: int,
              slot: int) -> None:
        # Mirrors MnaSystem._stamp_conductance entry order exactly.
        self._mat_entry(target, a, a, kind, slot)
        self._mat_entry(target, b, b, kind, slot)
        self._mat_entry(target, a, b, _NEGATED[kind], slot)
        self._mat_entry(target, b, a, _NEGATED[kind], slot)

    def _branch_quad(self, a: int, b: int, k: int) -> None:
        self._mat_entry("G", a, k, _ONE)
        self._mat_entry("G", b, k, _NEG_ONE)
        self._mat_entry("G", k, a, _ONE)
        self._mat_entry("G", k, b, _NEG_ONE)

    def _plan_device(self, dev, system: MnaSystem) -> None:
        node = system.node
        attrs = _PARAM_ATTRS.get(type(dev))
        if attrs is None:
            raise NetlistError(
                f"cannot plan device type {type(dev).__name__}")
        self._schema.append((
            type(dev).__name__, dev.name, tuple(dev.nodes),
            getattr(dev, "control", "") or "", attrs))
        if isinstance(dev, Resistor):
            s = self._slot()
            a, b = node(dev.nodes[0]), node(dev.nodes[1])
            self._quad("G", a, b, _INV, s)
        elif isinstance(dev, Capacitor):
            s = self._slot()
            a, b = node(dev.nodes[0]), node(dev.nodes[1])
            self._quad("C", a, b, _ID, s)
        elif isinstance(dev, Inductor):
            s = self._slot()
            a, b = node(dev.nodes[0]), node(dev.nodes[1])
            k = system.branch_index[dev.name]
            self._branch_quad(a, b, k)
            self._mat_entry("C", k, k, _NEG, s)
        elif isinstance(dev, VoltageSource):
            s_dc, s_ac = self._slot(), self._slot()
            a, b = node(dev.nodes[0]), node(dev.nodes[1])
            k = system.branch_index[dev.name]
            self._branch_quad(a, b, k)
            self._vec_entry("b_dc", k, _ID, s_dc)
            self._vec_entry("b_ac", k, _ID, s_ac)
        elif isinstance(dev, CurrentSource):
            s_dc, s_ac = self._slot(), self._slot()
            a, b = node(dev.nodes[0]), node(dev.nodes[1])
            self._vec_entry("b_dc", a, _NEG, s_dc)
            self._vec_entry("b_dc", b, _ID, s_dc)
            # The scalar path guards this stamp with ``if dev.ac:`` —
            # always recording it is bit-identical (x + ±0.0 == x).
            self._vec_entry("b_ac", a, _NEG, s_ac)
            self._vec_entry("b_ac", b, _ID, s_ac)
        elif isinstance(dev, Vcvs):
            s = self._slot()
            op, om, cp, cm = (node(n) for n in dev.nodes)
            k = system.branch_index[dev.name]
            self._branch_quad(op, om, k)
            self._mat_entry("G", k, cp, _NEG, s)
            self._mat_entry("G", k, cm, _ID, s)
        elif isinstance(dev, Vccs):
            s = self._slot()
            op, om, cp, cm = (node(n) for n in dev.nodes)
            self._mat_entry("G", op, cp, _ID, s)
            self._mat_entry("G", op, cm, _NEG, s)
            self._mat_entry("G", om, cp, _NEG, s)
            self._mat_entry("G", om, cm, _ID, s)
        elif isinstance(dev, Cccs):
            s = self._slot()
            a, b = node(dev.nodes[0]), node(dev.nodes[1])
            kc = system.branch_index[dev.control]
            self._mat_entry("G", a, kc, _ID, s)
            self._mat_entry("G", b, kc, _NEG, s)
        elif isinstance(dev, Ccvs):
            s = self._slot()
            a, b = node(dev.nodes[0]), node(dev.nodes[1])
            k = system.branch_index[dev.name]
            kc = system.branch_index[dev.control]
            self._branch_quad(a, b, k)
            self._mat_entry("G", k, kc, _NEG, s)
        # Mosfet / Diode: no linear stamps — handled per Newton iteration.

    # -- per-candidate parameter extraction ----------------------------
    def extract_params(self, circuit: Circuit) -> np.ndarray:
        """Parameter vector of one candidate, validated against the plan."""
        devices = _flat(circuit).devices
        if len(devices) != len(self._schema):
            raise BatchTopologyError(
                f"candidate has {len(devices)} devices, plan topology has "
                f"{len(self._schema)}")
        for dev, (cls, name, nodes, control, _) in zip(devices,
                                                        self._schema):
            # Only controlled sources carry a control name; the class
            # check covers the rest.
            if (type(dev).__name__ != cls or dev.name != name
                    or tuple(dev.nodes) != nodes
                    or (control and dev.control != control)):
                raise BatchTopologyError(
                    f"device {dev.name!r} ({type(dev).__name__} on "
                    f"{dev.nodes}) does not match plan device {name!r} "
                    f"({cls} on {nodes})")
        return np.array([getattr(devices[i], attr)
                         for i, attr in self._param_refs], dtype=float)

    def param_block(self, circuits) -> np.ndarray:
        """Stacked ``(K, P)`` parameter block for a list of candidates."""
        return np.stack([self.extract_params(c) for c in circuits])

    # -- assembly ------------------------------------------------------
    def _entry_values(self, params: np.ndarray, kinds, slots) -> np.ndarray:
        K = params.shape[0]
        vals = np.empty((K, len(kinds)))
        for j, (kind, slot) in enumerate(zip(kinds, slots)):
            if kind == _ID:
                vals[:, j] = params[:, slot]
            elif kind == _NEG:
                vals[:, j] = -params[:, slot]
            elif kind == _INV:
                vals[:, j] = 1.0 / params[:, slot]
            elif kind == _NEG_INV:
                vals[:, j] = -(1.0 / params[:, slot])
            elif kind == _ONE:
                vals[:, j] = 1.0
            else:
                vals[:, j] = -1.0
        return vals

    def assemble(self, params: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(G, C, b_dc, b_ac)`` for a ``(K, P)`` parameter block.

        Each ``[k]`` slice is bitwise equal to
        ``MnaSystem(circuit_k, gmin).linear_stamps()``: the flattened
        ``np.add.at`` entry list is k-major / stamp-order-minor, and
        unbuffered ``add.at`` accumulates duplicates in exactly that
        order, so every slice repeats the scalar accumulation sequence.
        """
        params = np.asarray(params, dtype=float)
        if params.ndim != 2 or params.shape[1] != self.n_params:
            raise ValueError(
                f"assemble expects a (K, {self.n_params}) parameter "
                f"block, got shape {params.shape}")
        K, n = params.shape[0], self.size
        G = np.zeros((K, n, n))
        C = np.zeros((K, n, n))
        b_dc = np.zeros((K, n))
        b_ac = np.zeros((K, n), dtype=complex)
        for key, arr in (("G", G), ("C", C)):
            rows, cols, kinds, slots = self._mat[key]
            if rows.size:
                vals = self._entry_values(params, kinds, slots)
                k_idx = np.repeat(np.arange(K), rows.size)
                np.add.at(arr, (k_idx, np.tile(rows, K), np.tile(cols, K)),
                          vals.ravel())
        for key, arr in (("b_dc", b_dc), ("b_ac", b_ac)):
            rows, kinds, slots = self._vec[key]
            if rows.size:
                vals = self._entry_values(params, kinds, slots)
                k_idx = np.repeat(np.arange(K), rows.size)
                np.add.at(arr, (k_idx, np.tile(rows, K)), vals.ravel())
        # gmin shunt on every node diagonal, after all device stamps —
        # same ordering as MnaSystem.linear_stamps.
        diag = np.arange(self.n_nodes)
        G[:, diag, diag] += self.gmin
        _count("kernel.assemblies")
        return G, C, b_dc, b_ac

    # -- packaging -----------------------------------------------------
    def package_op(self, x: np.ndarray) -> OperatingPoint:
        system = self.system
        voltages = {n: float(x[i]) for n, i in system.node_index.items()}
        currents = {name: float(x[k])
                    for name, k in system.branch_index.items()}
        # Linear circuits only — no MOS records; ``iterations`` counts
        # stacked solves (one), not scalar Newton steps.
        return OperatingPoint(voltages, currents, {}, 1, x=x)


# ----------------------------------------------------------------------
# Batched analyses
# ----------------------------------------------------------------------

def _planned(circuits: list, plan: StampPlan | None,
             gmin: float = GMIN_DEFAULT) -> tuple[StampPlan, np.ndarray]:
    """The batch's plan (built from the first member unless given) and
    its ``(K, P)`` parameter block — extracting the parameters is what
    checks every member against the plan's topology."""
    if plan is None:
        plan = StampPlan(circuits[0], gmin=gmin)
    return plan, plan.param_block(circuits)


def _require_linear(plan: StampPlan, what: str) -> None:
    if plan.nonlinear:
        raise BatchTopologyError(
            f"{what} needs per-member Newton for nonlinear devices; "
            f"use run_batch for automatic scalar fallback")


def _solve_stack(lu: DenseLU, b: np.ndarray, trans: str = "N") -> np.ndarray:
    x = solve_stack(lu, b, trans)
    _count("kernel.batched_solves")
    return x


def batched_dc(circuits, gmin: float = GMIN_DEFAULT,
               plan: StampPlan | None = None) -> list[OperatingPoint]:
    """Stacked DC solve for K linear same-topology circuits.

    Linear DC is one direct solve per member (the scalar damped-Newton
    ramp converges onto exactly this solution), so the whole batch is a
    single stacked solve.  Nonlinear topologies raise
    :class:`BatchTopologyError` — :func:`run_batch` runs the scalar path
    per member for them instead.
    """
    return _dc(*_planned(list(circuits), plan, gmin))


def _dc(plan: StampPlan, params: np.ndarray) -> list[OperatingPoint]:
    _require_linear(plan, "batched_dc")
    G, _, b_dc, _ = plan.assemble(params)
    return [plan.package_op(x)
            for x in _solve_stack(factorize_stack(G), b_dc)]


def _stacked_linearization(circuits, ops, plan, params):
    """``(G, C, b_ac, system, sss)`` stacks for the small-signal analyses.

    Without supplied ``ops`` a linear topology is plan-assembled (the
    plan checking every member first unless ``params`` are given) and
    ``sss`` is None; otherwise every member is linearized by
    :func:`small_signal_system` — bitwise the scalar AC path's matrices
    — and ``sss`` lists those systems.
    """
    if ops is None:
        if params is None:
            plan, params = _planned(circuits, plan)
        if not plan.nonlinear:
            G, C, _, b_ac = plan.assemble(params)
            return G, C, b_ac, plan.system, None
        ops = [None] * len(circuits)
    sss = [small_signal_system(c, op) for c, op in zip(circuits, ops)]
    G = np.stack([ss.G for ss in sss])
    C = np.stack([ss.C for ss in sss])
    b_ac = np.stack([ss.b_ac for ss in sss])
    return G, C, b_ac, sss[0].system, sss


def batched_ac(circuits, freqs, ops=None,
               plan: StampPlan | None = None) -> list[AcResult]:
    """Stacked AC sweep: one ``(K, n, n)`` solve per frequency.

    ``ops`` (optional, one per member) supplies precomputed operating
    points for nonlinear circuits; without it each nonlinear member
    solves its own scalar DC first — the batching win is the sweep
    itself, which costs ``len(freqs)`` stacked solves instead of
    K·len(freqs) scalar ones.
    """
    return _ac(list(circuits), freqs, ops, plan, None)


def _ac(circuits, freqs, ops, plan, params) -> list[AcResult]:
    freqs = np.asarray(freqs, dtype=float)
    G, C, b_ac, system, _ = _stacked_linearization(circuits, ops, plan,
                                                   params)
    K, n_nodes = len(circuits), len(system.node_names)
    data = np.empty((K, len(freqs), n_nodes), dtype=complex)
    for j, f in enumerate(freqs):
        A = G + (2j * math.pi * float(f)) * C
        X = _solve_stack(factorize_stack(A), b_ac)
        data[:, j, :] = X[:, :n_nodes]
    return [
        AcResult(freqs, {net: data[k, :, i]
                         for net, i in system.node_index.items()})
        for k in range(K)
    ]


def batched_noise(circuits, out: str, freqs, ops=None,
                  plan: StampPlan | None = None) -> list[NoiseResult]:
    """Stacked noise sweep mirroring the scalar adjoint-transfer trick
    (:mod:`repro.analysis.noise`) across the batch axis: one stacked
    factorization of ``G + jωC`` per frequency serves the adjoint
    (``Aᴴ``) solve and the gain solve."""
    return _noise(list(circuits), out, freqs, ops, plan, None)


def _noise(circuits, out, freqs, ops, plan, params) -> list[NoiseResult]:
    freqs = np.asarray(freqs, dtype=float)
    G, C, b_ac, system, sss = _stacked_linearization(circuits, ops, plan,
                                                     params)
    if sss is not None:
        member_injections = [_noise_injections(ss) for ss in sss]
    else:
        # Linear topology: the only noisy elements are resistors, whose
        # injections depend on values alone — no DC solve needed.
        member_injections = []
        for circuit in circuits:
            injections = {}
            for dev in _flat(circuit).devices:
                if isinstance(dev, Resistor):
                    a, b = system.node(dev.nodes[0]), system.node(dev.nodes[1])
                    injections[(dev.name, "thermal")] = (
                        a, b, _const_psd(FOUR_KT / dev.value))
            member_injections.append(injections)

    iout = system.node(out)
    if iout < 0:
        raise ValueError("noise output cannot be the ground net")
    K = len(circuits)
    psd_per = [{key: np.zeros(len(freqs)) for key in inj}
               for inj in member_injections]
    gain = np.zeros((K, len(freqs)))
    has_input = [bool(np.any(np.abs(b_ac[k]) > 0)) for k in range(K)]
    any_input = any(has_input)

    e = np.zeros(system.size, dtype=complex)
    e[iout] = 1.0
    for j, f in enumerate(freqs):
        f = float(f)
        lu = factorize_stack(G + (2j * math.pi * f) * C)
        Z = _solve_stack(lu, e, trans="H")
        for k in range(K):
            zk = Z[k]
            for key, (a, b, psd_fn) in member_injections[k].items():
                za = zk[a] if a >= 0 else 0.0
                zb = zk[b] if b >= 0 else 0.0
                psd_per[k][key][j] = abs(np.conj(za - zb)) ** 2 * psd_fn(f)
        if any_input:
            X = _solve_stack(lu, b_ac)
            gain[:, j] = np.abs(X[:, iout])

    results = []
    for k in range(K):
        contributions = [
            NoiseContribution(device=key[0], kind=key[1], psd=psd_per[k][key])
            for key in member_injections[k]
        ]
        total = (np.sum([c.psd for c in contributions], axis=0)
                 if contributions else np.zeros(len(freqs)))
        results.append(NoiseResult(
            freqs, total, contributions,
            gain=gain[k] if has_input[k] else None))
    return results


def batched_transient(circuits, t_stop: float, dt: float,
                      use_ic_op: bool = True,
                      plan: StampPlan | None = None) -> list[TransientResult]:
    """Stacked theta-method integration for K linear circuits.

    Mirrors the scalar integrator step for step: backward Euler first,
    trapezoidal after, same damped update loop — but every timestep is
    one stacked solve instead of K.  Per-member step halving is a
    nonlinear-convergence remedy the linear path never needs; a singular
    member raises :class:`BatchSingularError` and :func:`run_batch`
    replays the whole batch through the scalar integrator instead.
    """
    circuits = list(circuits)
    return _transient(circuits, t_stop, dt, use_ic_op,
                      *_planned(circuits, plan))


def _transient(circuits, t_stop, dt, use_ic_op, plan,
               params) -> list[TransientResult]:
    if t_stop <= 0 or dt <= 0:
        raise ValueError("t_stop and dt must be positive")
    _require_linear(plan, "batched_transient")
    system = plan.system
    K, n = len(circuits), plan.size
    n_nodes = plan.n_nodes
    G, C, _, _ = plan.assemble(params)
    member_sources = [
        [d for d in _flat(c).devices
         if isinstance(d, (VoltageSource, CurrentSource))]
        for c in circuits
    ]

    if use_ic_op:
        ic_circuits = [c.map_devices(_source_at_time_zero) for c in circuits]
        ic_ops = _dc(plan, plan.param_block(ic_circuits))
        X = np.stack([op.x for op in ic_ops])
    else:
        X = np.zeros((K, n))

    def rhs_stack(t: float) -> np.ndarray:
        return np.stack([_rhs_at_time(system, sources, t)
                         for sources in member_sources])

    times = [0.0]
    states = [X.copy()]
    t = 0.0
    first_step = True
    while t < t_stop - 1e-15 * t_stop:
        h = min(dt, t_stop - t)
        B1 = rhs_stack(t + h)
        if first_step:
            const = B1 + _matvec(C, X) / h
            A = G + C / h
        else:
            B0 = rhs_stack(t)
            const = B1 + B0 - _matvec(G, X) + (2.0 / h) * _matvec(C, X)
            A = G + 2.0 * C / h
        X_target = _solve_stack(factorize_stack(A), const)
        # Same damped update as the scalar Newton loop; for a linear
        # step the target never moves, so this converges in a handful
        # of vector ops.
        for _ in range(60):
            delta = X_target - X
            if n_nodes:
                max_dv = np.max(np.abs(delta[:, :n_nodes]), axis=1)
            else:
                max_dv = np.zeros(K)
            scale = np.where(max_dv > 1.0,
                             1.0 / np.maximum(max_dv, 1e-300), 1.0)
            delta = delta * scale[:, None]
            X = X + delta
            if all(_converged(delta[k], X[k], n_nodes) for k in range(K)):
                break
        else:
            raise ConvergenceError(
                f"batched transient step at t={t:.4g}s did not settle")
        t += h
        times.append(t)
        states.append(X.copy())
        first_step = False

    data = np.array(states)  # (T, K, n)
    tvec = np.array(times)
    results = []
    for k in range(K):
        voltages = {net: data[:, k, i]
                    for net, i in system.node_index.items()}
        currents = {name: data[:, k, i]
                    for name, i in system.branch_index.items()}
        results.append(TransientResult(tvec, voltages, currents))
    return results


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector product: (K, n, n) @ (K, n) → (K, n)."""
    return np.matmul(A, x[..., None])[..., 0]


# ----------------------------------------------------------------------
# Dispatch front door
# ----------------------------------------------------------------------

def run_batch(circuits, spec, plan: StampPlan | None = None) -> list:
    """Evaluate one analysis spec against K same-topology circuits.

    The batched mirror of :func:`repro.analysis.api.run`: returns one
    result per circuit, in order, with the same result types the scalar
    dispatcher produces.  Batches everything it can; everything it cannot
    runs through the scalar path per member, counted as
    ``kernel.fallback.<kind>`` on the active tracer:

    * a singleton batch always delegates to the scalar path
      (bit-identical results by construction);
    * a batch whose members do not share the plan's topology raises
      :class:`BatchTopologyError` (checked once, through the plan);
    * nonlinear DC / transient need per-member Newton;
    * warm starts (``x0``) and shared ``op``/``ss`` objects are
      scalar-path concepts;
    * a singular member aborts the stacked solve
      (``kernel.batch_aborts``) and the whole batch replays through the
      scalar path so failure semantics — which member raises, and with
      what message — match the scalar loop exactly.
    """
    from repro.analysis import api

    circuits = list(circuits)
    if not circuits:
        return []
    if len(circuits) == 1:
        return [api.run(circuits[0], spec)]
    # The one topology check: a member that does not match the plan
    # raises BatchTopologyError here, before any fallback handling.
    plan, params = _planned(circuits, plan,
                            getattr(spec, "gmin", GMIN_DEFAULT))
    _count("kernel.run_batch")

    if (getattr(spec, "x0", None) is not None
            or getattr(spec, "op", None) is not None
            or getattr(spec, "ss", None) is not None
            or (plan.nonlinear
                and isinstance(spec, (api.DcSpec, api.TranSpec)))):
        return _scalar_loop(circuits, spec)
    try:
        if isinstance(spec, api.DcSpec):
            return _dc(plan, params)
        if isinstance(spec, api.AcSpec):
            return _ac(circuits, spec.freqs, None, plan, params)
        if isinstance(spec, api.TranSpec):
            return _transient(circuits, spec.t_stop, spec.dt,
                              spec.use_ic_op, plan, params)
        if isinstance(spec, api.NoiseSpec):
            return _noise(circuits, spec.out, spec.freqs, None, plan, params)
    except BatchSingularError:
        _count("kernel.batch_aborts")
        return _scalar_loop(circuits, spec)
    raise TypeError(f"not an analysis spec: {spec!r}")


def _scalar_loop(circuits, spec) -> list:
    from repro.analysis import api
    _count(f"kernel.fallback.{spec.kind}", len(circuits))
    return [api.run(c, spec) for c in circuits]


__all__ = [
    "BatchTopologyError",
    "StampPlan",
    "batched_ac",
    "batched_dc",
    "batched_noise",
    "batched_transient",
    "run_batch",
    "topology_signature",
]
