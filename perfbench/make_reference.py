#!/usr/bin/env python3
"""Regenerate ``reference.json``: the committed per-job results that the
csa_sizing and macro_mesh output checks compare against.

    python3 perfbench/make_reference.py

Rerun it only when the program is *meant* to produce different designs;
a change that claims a speed-up must leave this file alone.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import csa  # noqa: E402
import macro  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out = {"csa": {}, "macro": {}}
    for seed in range(workloads.CSA_POOL):
        out["csa"][str(seed)] = csa.summary(csa.make_sizer(seed).run())
    for rows, cols in workloads.MACRO_GEOMETRIES:
        tiled = macro.tile(rows, cols)
        for seed in range(workloads.MACRO_SEED_POOL):
            result = macro.optimize(tiled, seed)
            entry = macro.summary(result)
            entry["design_cost"] = macro.design_cost(tiled, result)
            out["macro"][f"{rows}x{cols}:{seed}"] = entry
    path = HERE / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    feasible = sum(v["feasible"] for v in out["csa"].values())
    print(f"wrote {path}: csa {feasible}/{len(out['csa'])} feasible, "
          f"macro {sum(v['feasible'] for v in out['macro'].values())}/"
          f"{len(out['macro'])} feasible")
    return 0


if __name__ == "__main__":
    sys.exit(main())
