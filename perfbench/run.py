#!/usr/bin/env python3
"""Repository benchmark: three workloads, drift-normalised timings.

Run from the root of a checkout::

    python3 perfbench/run.py --workload csa_sizing --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

Workloads (see BENCHMARK.json for why each exists):

* ``csa_sizing``  simulation-in-the-loop sizing of the Table 1 CSA;
* ``macro_mesh``  supply-mesh optimisation over tiled memory macros;
* ``serve_mixed`` a sharded serve fleet under a mixed request stream.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every timing is rescaled to the
reference machine speed by the calibration kernel in ``calibration.py``;
the raw seconds, the calibration samples and the reference constant are
printed and written to ``perfbench/out/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A failed output check prints the failure and exits 1
without that line; a checkout without the program's sources exits 2.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()
# Pinned before numpy is first imported, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    ROOT,
    SRC,
    CheckFailed,
    environment,
    measure_setup,
    peak_rss_mb,
)

#: Workload -> runner module.  A runner's ``setup()`` returns the state
#: that its ``measure`` / ``measure_traced(state, seed, seconds, cal)``
#: take (None, or an object with ``close()``).
RUNNERS = {"csa_sizing": "csa", "macro_mesh": "macro",
           "serve_mixed": "serve"}
WORKLOADS = tuple(RUNNERS)
#: Fresh processes timed for setup_s.
SETUP_PROBES = 3
OUT_DIR = HERE / "out"


def _require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _module(workload: str):
    import importlib
    return importlib.import_module(RUNNERS[workload])


def setup_probe(workload: str, t0: float) -> int:
    """Child side of ``measure_setup``: set up, report, tear down."""
    state = _module(workload).setup()
    print(repr(time.perf_counter() - t0), flush=True)
    if state is not None:
        state.close()
    return 0


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    import calibration
    cal = calibration.Calibration()
    module = _module(workload)
    state = module.setup()
    ready_s = time.perf_counter() - T_START
    try:
        measure = module.measure_traced if trace else module.measure
        res = measure(state, seed, seconds, cal)
    finally:
        if state is not None:
            state.close()
    # Any serve shards are reaped by now and the set-up probes have not
    # run yet, so the children's peak is the fleet's.
    rss = max(peak_rss_mb(), peak_rss_mb(children=True))
    if trace:
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
        res.metrics["peak_rss_mb"] = rss
        setup_s, setup_raw = measure_setup(workload, SETUP_PROBES, cal)
        res.metrics["setup_s"] = setup_s
        res.raw.update(setup_raw)
    res.raw["in_process_setup_s"] = ready_s
    return {"result": res, "units": units, "calibration": cal.record()}


def _print_table(workload: str, res, units: dict, cal: dict) -> None:
    print(f"== {workload}: {res.attempted} attempted, {res.failed} failed; "
          f"calibration mean {cal['mean_s'] * 1e3:.2f} ms over "
          f"{len(cal['samples_s'])} samples (reference "
          f"{cal['reference_s'] * 1e3:.2f} ms)")
    for name, unit in units.items():
        raw = res.raw.get(name)
        extra = f"   raw {raw:.6g}" if isinstance(raw, float) else ""
        print(f"  {name:<26} {res.metrics[name]:>14.6g} {unit:<6}{extra}")
    for key, value in res.info.items():
        if not isinstance(value, list):
            print(f"  [info] {key} = {value}")


def _write_record(workload: str, seed: int, trace: bool, out: dict) -> None:
    res = out["result"]
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "metrics": {n: {"value": res.metrics[n], "unit": u}
                    for n, u in out["units"].items()},
        "raw": res.raw, "info": res.info,
        "calibration": out["calibration"],
        "environment": environment(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; prints every table."""
    import subprocess
    ok = True
    attempted = failed = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        line = json.loads(lines[-1])
        attempted += line["attempted"]
        failed += line["failed"]
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS)
    parser.add_argument("--t0", type=float)
    args = parser.parse_args(argv)
    _require_sources()
    if args.setup_probe:
        return setup_probe(args.setup_probe, args.t0)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except CheckFailed as exc:
        print(f"CHECK FAILED ({args.workload}): {exc}")
        return 1
    res = out["result"]
    _print_table(args.workload, res, out["units"], out["calibration"])
    _write_record(args.workload, args.seed, bool(args.trace), out)
    print(json.dumps(res.line(out["units"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
