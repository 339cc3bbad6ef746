"""Shared factor-once/solve-many linear-solver layer.

Every frontend tool the tutorial surveys reduces to thousands of calls
into the circuit evaluator, and the backend RAIL claim hinges on solving
power grids far larger than cell-level MNA.  Both workloads share one
algebraic shape: the *same* matrix is solved against many right-hand
sides — an AC matrix ``G + jωC`` serves the response and every
noise-injection adjoint transfer at that frequency, a transient matrix
``G + C/h`` serves every Newton iteration and timestep of a linear
circuit, the AWE moment recursion reuses one factorization of ``G``, and
a power grid's conductance matrix serves the IR-drop, EM and droop-bound
metrics.  Re-factoring per solve (what the seed code did, a fresh
dense solve everywhere) pays the O(n³) cost each time; this module pays
it once.

Three pieces:

* :class:`DenseLU` — the one dense LU primitive: LAPACK ``getrf`` /
  ``getrs`` per member of a ``(K, n, n)`` stack.  Scalar solves are
  K=1 and the batch kernels stack K members, so batched ≡ scalar holds
  bitwise on any BLAS build and thread count.
* :class:`FactorizedOperator` — one LU factorization of ``A`` serving
  repeated forward (``A x = b``), transpose (``Aᵀ x = b``) and adjoint
  (``Aᴴ x = b``) solves.  Dense (:class:`DenseLU`) or sparse
  (``scipy.sparse.linalg.splu`` on CSC) storage is auto-selected by
  matrix size and density — cell-level MNA stays dense, power grids go
  sparse — or forced with ``prefer_sparse``.
* :class:`FactorizationCache` — a keyed LRU of operators with local
  hit/miss counters, so sweeps that revisit a matrix (AC then noise at
  the same frequencies, repeated timesteps at one ``h``) skip even the
  single factorization.

Telemetry: every factorization, solve and cache lookup is counted on the
active tracer (``solver.factorizations``, ``solver.factor_dense`` /
``solver.factor_sparse``, ``solver.solves``, ``solver.cache_hits`` /
``solver.cache_misses``), which is how the counters reach
``engine.report()['solver']`` and the run-manifest rollups.  Counting
goes through :func:`repro.engine.trace.current_tracer` exactly like the
``analysis.*`` counters, so it is suspended during executor dispatch and
serial and parallel runs attribute identically.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis.mna import BatchSingularError, SingularCircuitError
from repro.engine.trace import current_tracer

#: Matrices at least this large are candidates for sparse factorization.
SPARSE_SIZE_THRESHOLD = 128

#: ...provided their density (nonzeros / n²) is at most this.
SPARSE_DENSITY_THRESHOLD = 0.25

#: Default LRU capacity of a :class:`FactorizationCache`.
DEFAULT_CACHE_ENTRIES = 256


# getrf/getrs for the two dtypes MNA systems come in, looked up once.
_LAPACK = {np.dtype(t): sla.get_lapack_funcs(("getrf", "getrs"), dtype=t)
           for t in (np.float64, np.complex128)}

_TRANS = {"N": 0, "T": 1, "H": 2}


def _count(name: str, n: int = 1) -> None:
    tracer = current_tracer()
    if tracer is not None:
        tracer.count(name, n)


class DenseLU:
    """LAPACK ``getrf`` factors of a ``(K, n, n)`` stack: the one dense LU.

    Every member gets its own ``getrf`` call here and its own ``getrs``
    call in :meth:`solve`, so member ``k`` is bitwise equal to factoring
    ``A[k][None]`` alone; a scalar factorization is the K=1 stack.  Bad
    members are flagged, not raised: ``nonfinite`` (non-finite entries,
    never handed to LAPACK) and ``singular`` (those, a zero pivot on the
    ``U`` diagonal — ``getrf``'s ``info > 0`` — or a non-finite factor).
    """

    def __init__(self, A: np.ndarray):
        A = np.asarray(A)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ValueError(
                f"DenseLU expects a (K, n, n) stack, got shape {A.shape}; "
                f"factor a single (n, n) system as A[None]")
        dtype = np.result_type(A.dtype, np.float64)
        # Column-major members (lu[k] is buf[k].T): getrf works in place.
        buf = np.empty(A.shape, dtype=dtype)
        self.lu = buf.transpose(0, 2, 1)
        self.lu[...] = A
        self.nonfinite = ~_finite(buf)
        getrf = _LAPACK[dtype][0]
        skip = (None, np.zeros(A.shape[1], dtype=np.int32), 0)
        # Flags go positionally: keyword parsing is a measurable share
        # of a getrf call on cell-sized systems.
        factored = [getrf(a, True) if ok and a.size else skip
                    for a, ok in zip(self.lu, (~self.nonfinite).tolist())]
        self.piv = [f[1] for f in factored]
        info = np.array([f[2] for f in factored], dtype=int)
        self.singular = self.nonfinite | (info != 0) | ~_finite(buf)

    def solve(self, B: np.ndarray, trans: str = "N") -> np.ndarray:
        """``getrs`` per member: ``X[k]`` solves ``op(A[k]) X[k] = B[k]``,
        ``op`` chosen by ``trans`` (``"N"``, ``"T"`` or ``"H"``).  ``B`` is
        ``(K, n)``, ``(K, n, m)`` or one ``(n,)`` shared by every member;
        the solutions are returned unchecked."""
        K, n = self.lu.shape[:2]
        B = np.asarray(B)
        if B.ndim == 1:
            B = np.broadcast_to(B, (K, B.shape[0]))
        if B.shape[:2] != (K, n) or B.ndim > 3:
            raise ValueError(f"rhs shape {B.shape} does not match the "
                             f"({K}, {n}, {n}) factor stack")
        dtype = np.result_type(self.lu.dtype, B.dtype)
        # Column-major members again: getrs works in place.
        X = np.empty(B.shape[:1] + B.shape[:0:-1], dtype=dtype).transpose(
            0, *range(B.ndim - 1, 0, -1))
        X[...] = B
        getrs, code = _LAPACK[dtype][1], _TRANS[trans]
        if n:  # LAPACK rejects empty systems
            for a, piv, x in zip(self.lu, self.piv, X):
                getrs(a, piv, x, code, True)  # trans, overwrite_b
        return X


def _finite(stack: np.ndarray) -> np.ndarray:
    """Per-member finiteness of a ``(K, ...)`` stack (contiguous complex
    entries are tested as real pairs, which is faster)."""
    if np.iscomplexobj(stack) and stack.flags.c_contiguous:
        stack = stack.view(np.float64)
    return np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))


def _raise_members(bad: np.ndarray, problem: str) -> None:
    if bad.any():
        members = tuple(int(k) for k in np.flatnonzero(bad))
        raise BatchSingularError(f"batch members {list(members)} {problem}",
                                 members)


def factorize_stack(A: np.ndarray) -> DenseLU:
    """:class:`DenseLU` of a stack, raising
    :class:`~repro.analysis.mna.BatchSingularError` naming every singular
    or non-finite member, so a batched evaluator can drop exactly those
    to the scalar path."""
    lu = DenseLU(A)
    _raise_members(lu.singular, "are singular or non-finite — check for "
                   "floating nodes, voltage-source loops or zero-valued "
                   "resistors or capacitors")
    return lu


def solve_stack(lu: DenseLU, B: np.ndarray, trans: str = "N") -> np.ndarray:
    """``lu.solve(B, trans)``, raising
    :class:`~repro.analysis.mna.BatchSingularError` naming every member
    whose solution is non-finite."""
    X = lu.solve(B, trans)
    _raise_members(~_finite(X), "produced non-finite solutions")
    return X


class FactorizedOperator:
    """One LU factorization of ``A``, serving repeated solves.

    Build through :func:`factorize` (which picks the storage) rather
    than directly.  All three solve directions share the single
    factorization: ``solve`` for ``A x = b``, ``solve_transpose`` for
    ``Aᵀ x = b`` (the adjoint-network trick for real-arithmetic
    sensitivities) and ``solve_adjoint`` for ``Aᴴ x = b`` (the complex
    conjugate-transpose the noise analysis needs).
    """

    def __init__(self, factors: Any, mode: str, size: int, dtype: np.dtype):
        self._factors = factors
        self.mode = mode          # "dense" (a K=1 DenseLU) | "sparse"
        self.size = size
        self.dtype = dtype

    # -- solving -------------------------------------------------------
    def _solve(self, b: np.ndarray, trans: str) -> np.ndarray:
        _count("solver.solves")
        b = np.asarray(b)
        if self.mode == "dense":
            x = self._factors.solve(b[None], trans)[0]
        else:
            if np.iscomplexobj(b) and not np.issubdtype(
                    self.dtype, np.complexfloating):
                # SuperLU solves in the factorization's dtype only.
                x = (self._factors.solve(np.ascontiguousarray(b.real),
                                         trans=trans)
                     + 1j * self._factors.solve(
                         np.ascontiguousarray(b.imag), trans=trans))
            else:
                x = self._factors.solve(
                    np.ascontiguousarray(b, dtype=self.dtype), trans=trans)
        if not np.all(np.isfinite(x)):
            raise SingularCircuitError(
                "linear solve produced non-finite values — matrix is "
                "singular or badly scaled")
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b``."""
        return self._solve(b, "N")

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᵀ x = b`` (plain transpose, no conjugation)."""
        return self._solve(b, "T")

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᴴ x = b`` (conjugate transpose)."""
        return self._solve(b, "H")


def factorize(A: Any, prefer_sparse: bool | None = None) -> FactorizedOperator:
    """LU-factorize ``A`` once, auto-selecting dense or sparse storage.

    ``A`` may be a dense ndarray or any scipy sparse matrix.  Dense
    inputs switch to sparse when the matrix is both large
    (``SPARSE_SIZE_THRESHOLD``) and sparse enough
    (``SPARSE_DENSITY_THRESHOLD``); sparse inputs densify when tiny.
    ``prefer_sparse`` overrides the heuristic in either direction.
    Raises :class:`~repro.analysis.mna.SingularCircuitError` for a
    structurally or numerically singular matrix, or one with
    non-finite entries.
    """
    if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(
            f"factorize expects one square (n, n) matrix, got shape "
            f"{A.shape}; stacked (K, n, n) systems go through "
            f"factorize_stack")
    is_sparse_input = sp.issparse(A)
    n = A.shape[0]
    if prefer_sparse is None:
        if is_sparse_input:
            use_sparse = n >= SPARSE_SIZE_THRESHOLD or \
                A.nnz <= SPARSE_DENSITY_THRESHOLD * n * n
        elif n >= SPARSE_SIZE_THRESHOLD:
            density = np.count_nonzero(A) / (n * n)
            use_sparse = density <= SPARSE_DENSITY_THRESHOLD
        else:
            use_sparse = False
    else:
        use_sparse = prefer_sparse

    _count("solver.factorizations")
    if use_sparse:
        _count("solver.factor_sparse")
        M = sp.csc_matrix(A)
        try:
            factors = spla.splu(M)
        except (RuntimeError, ValueError) as exc:
            raise SingularCircuitError(
                "sparse LU failed — matrix is singular") from exc
        return FactorizedOperator(factors, "sparse", n, M.dtype)

    _count("solver.factor_dense")
    M = A.toarray() if is_sparse_input else np.asarray(A)
    lu = DenseLU(M[None])
    if lu.nonfinite[0]:
        raise SingularCircuitError(
            "MNA matrix contains non-finite entries — check for "
            "zero-valued resistors or capacitors")
    if lu.singular[0]:
        raise SingularCircuitError(
            "MNA matrix is singular — check for floating nodes or "
            "voltage-source loops")
    return FactorizedOperator(lu, "dense", n, lu.lu.dtype)


def solve_once(A: Any, b: np.ndarray,
               prefer_sparse: bool | None = None) -> np.ndarray:
    """One-shot ``factorize(A).solve(b)`` with the layer's counting."""
    return factorize(A, prefer_sparse=prefer_sparse).solve(b)


class FactorizationCache:
    """Keyed LRU of :class:`FactorizedOperator` instances.

    The key must capture everything the matrix depends on — the AC layer
    keys per frequency on a per-system cache, the transient layer per
    (step size, integration scheme).  Hits and misses are tracked both
    locally (``hits`` / ``misses``, for direct assertions) and on the
    active tracer (``solver.cache_hits`` / ``solver.cache_misses``, for
    the engine report and run manifest).
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, FactorizedOperator] = \
            OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def get_or_factorize(self, key: Hashable,
                         build: Callable[[], Any],
                         prefer_sparse: bool | None = None
                         ) -> FactorizedOperator:
        """The cached operator for ``key``, factorizing ``build()`` on miss."""
        op = self._entries.get(key)
        if op is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            _count("solver.cache_hits")
            return op
        self.misses += 1
        _count("solver.cache_misses")
        op = factorize(build(), prefer_sparse=prefer_sparse)
        self._entries[key] = op
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return op

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "hit_rate": self.hit_rate}


__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "DenseLU",
    "FactorizationCache",
    "FactorizedOperator",
    "SPARSE_DENSITY_THRESHOLD",
    "SPARSE_SIZE_THRESHOLD",
    "factorize",
    "factorize_stack",
    "solve_once",
    "solve_stack",
]
