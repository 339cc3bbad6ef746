"""Shared pieces of the three workload runners: results, statistics,
memory and environment records."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Metric name -> unit, for every metric a run can print.  The names and
#: units are the ones declared in BENCHMARK.json (a test keeps the two in
#: step).
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "capacity_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "slo_attainment": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "analysis.dc_s": "s",
    "analysis.dc_calls": "count",
    "analysis.newton_iters": "count",
    "analysis.ac_s": "s",
    "analysis.batch_s": "s",
    "analysis.batched_share": "ratio",
    "analysis.factorizations": "count",
    "analysis.solves": "count",
    "circuits.build_s": "s",
    "engine.cache_key_s": "s",
    "engine.dispatch_s": "s",
    "engine.cache_hit_rate": "ratio",
    "engine.evaluations": "count",
    "opt.anneal_self_s": "s",
    "macro.tile_s": "s",
    "macro.route_s": "s",
    "macro.route_calls": "count",
    "macro.rails_routed": "count",
    "macro.signoff_s": "s",
    "msystem.dc_solve_s": "s",
    "msystem.droop_s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.ipc_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.rejected": "count",
    "serve.dedup_share": "ratio",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
}


class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


@dataclass
class RunResult:
    """What one workload run measured, plus the evidence behind it."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def line(self, units: dict[str, str]) -> dict:
        """The final JSON line: exactly the four contract keys."""
        return {
            "correct": True,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name],
                               "unit": units[name]}
                        for name in units},
        }


def percentile(values, q: float) -> float:
    """Percentile (``q`` in [0, 100]) of a non-empty list, interpolated
    linearly between order statistics (numpy's default method)."""
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0 or ordered[lo + 1] == ordered[lo]:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


def beyond(values, threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its largest reaped
    child) in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_revision() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git (the
    benchmark reads nothing outside its checkout; a plain source tree has
    no ``.git`` and yields None)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content: identifies the
    program version even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the config API differs across numpy builds
        blas = {"error": repr(exc)}
    return {
        "git_revision": _git_revision(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup(workload: str, probes: int, cal) -> tuple[float, dict]:
    """Median rescaled set-up time over ``probes`` fresh processes.

    Each probe is ``run.py --setup-probe``: a new interpreter that
    imports, warms up and reports how long after its spawn it could have
    started the first timed unit (``perf_counter`` is system-wide
    monotonic, so the spawn instant taken here is comparable).  The
    probes run after the measured work, so bytecode caches are written
    and the page cache is warm, as for every later run of the checkout.
    """
    raw, scaled = [], []
    for _ in range(probes):
        before = cal.take(4)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--setup-probe", workload, "--t0", repr(t0)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CheckFailed(f"set-up probe for {workload} failed:\n"
                              f"{proc.stdout}\n{proc.stderr}")
        seconds = float(proc.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds * cal.factor(before + cal.take(4)))
    return statistics.median(scaled), {"setup_s": statistics.median(raw),
                                       "setup_raw_s": raw,
                                       "setup_rescaled_s": scaled}
