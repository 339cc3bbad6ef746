"""Seeded inputs of the three workloads.

Every function here is a pure function of the benchmark's ``--seed``
(and of the run length): the same seed gives identical inputs, another
seed gives other inputs.  The program only ever sees what these return.

* ``csa_sizing`` runs sizing jobs drawn from a pool of anneal seeds whose
  results are committed in ``reference.json``; the draw is the input.
* ``macro_mesh`` cycles through a fixed set of macro geometries (so every
  run has the same size mix) with anneal seeds drawn from a committed
  pool.
* ``serve_mixed`` is a stream of requests: CSA sizing points, points of a
  few generated op-amp structures, and macro signoff points, with a share
  of repeats of earlier points.
"""

from __future__ import annotations

import numpy as np

# -- csa_sizing --------------------------------------------------------------

#: Anneal seeds 0..CSA_POOL-1 have a committed reference result.
CSA_POOL = 64
#: Evaluations per sizing run.  The anneal never stops early, so every
#: job does the same amount of simulation; at this budget 14 of anneal
#: seeds 0-15 end feasible (60, the library default, leaves 8 infeasible).
CSA_EVALUATIONS = 140
#: Approximate reference-speed seconds per job, calibration included;
#: sets the batch size from the run length.
CSA_JOB_S = 0.52

# -- macro_mesh --------------------------------------------------------------

#: (rows, cols) of the tiled bitcell macros, strap corridor every 8 cells.
MACRO_GEOMETRIES = ((24, 24), (28, 28), (32, 32), (24, 32))
MACRO_SEED_POOL = 16
#: Anneal budget of one optimize_mesh run (repair and shrink follow).
MACRO_EVALUATIONS = 60
MACRO_JOB_S = 1.2

# -- serve_mixed -------------------------------------------------------------

#: Structures of the generated topology space served as scalar-path
#: simulation points (mixed topologies, no batching).
TOPOGEN_STRUCTURES = (
    "npair.cascode_mirror.cascodetail.none.none",
    "npair.mirror.cascodetail.class_a.miller_rz",
    "npair.mirror.resistortail.class_a.miller_rz",
    "npair.resistor.simpletail.none.none",
    "ppair.mirror.resistortail.class_ab.miller",
)
SERVE_MACRO_GEOMETRIES = ((16, 16), (16, 24), (24, 24))
#: Request mix: (kind, share).  CSA and topogen points are interactive,
#: macro signoffs are batch priority.
SERVE_MIX = (("csa", 0.6), ("topogen", 0.2), ("macro", 0.2))
#: Share of requests that repeat an earlier point of the stream.
SERVE_REPEAT_SHARE = 0.2
#: Repeats draw from this many most recent distinct points.
SERVE_REPEAT_WINDOW = 200


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def jobs_for(seconds: float, job_s: float, minimum: int) -> int:
    """Batch size for a run of ``seconds`` at the reference speed."""
    return max(minimum, int(round(seconds / job_s)))


def csa_jobs(seed: int, n: int) -> list[int]:
    """Anneal seeds of the ``n`` sizing runs of one csa_sizing batch."""
    return [int(s) for s in _rng(seed, 1).integers(0, CSA_POOL, size=n)]


def macro_jobs(seed: int, n: int) -> list[tuple[int, int, int]]:
    """``(rows, cols, anneal_seed)`` of the ``n`` mesh optimisations."""
    seeds = _rng(seed, 2).integers(0, MACRO_SEED_POOL, size=n)
    return [(*MACRO_GEOMETRIES[k % len(MACRO_GEOMETRIES)], int(s))
            for k, s in enumerate(seeds)]


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def serve_stream(seed: int, n: int, csa_variables: dict,
                 topogen_spaces: dict, macro_tracks: dict) -> list[dict]:
    """``n`` requests ``{"kind", "priority", "point"}``.

    ``csa_variables`` maps CSA design variables to their bounds;
    ``topogen_spaces`` maps each served structure id to its default
    sizes and variable bounds; ``macro_tracks`` maps each served macro
    geometry to its ``(free_h_tracks, free_v_tracks)`` counts.  Points
    stay within each space, in the region where every analysis converges
    (topogen sizes within 0.7x-1.4x of the structure defaults).
    """
    rng = _rng(seed, 3)
    kinds = [k for k, _ in SERVE_MIX]
    shares = np.array([s for _, s in SERVE_MIX])
    recent: dict[str, list[dict]] = {k: [] for k in kinds}
    stream = []
    for _ in range(n):
        kind = kinds[int(rng.choice(len(kinds), p=shares))]
        pool = recent[kind]
        if pool and rng.random() < SERVE_REPEAT_SHARE:
            point = pool[int(rng.integers(len(pool)))]
        else:
            point = _fresh_point(rng, kind, csa_variables, topogen_spaces,
                                 macro_tracks)
            pool.append(point)
            if len(pool) > SERVE_REPEAT_WINDOW:
                pool.pop(0)
        stream.append({"kind": kind,
                       "priority": "batch" if kind == "macro"
                       else "interactive",
                       "point": point})
    return stream


def _fresh_point(rng, kind, csa_variables, topogen_spaces, macro_tracks):
    if kind == "csa":
        return {name: _log_uniform(rng, lo, hi)
                for name, (lo, hi) in sorted(csa_variables.items())}
    if kind == "topogen":
        ids = sorted(topogen_spaces)
        sid = ids[int(rng.integers(len(ids)))]
        defaults, bounds = topogen_spaces[sid]
        sizes = dict(defaults)
        for name, (lo, hi) in sorted(bounds.items()):
            value = sizes[name] * _log_uniform(rng, 0.7, 1.4)
            sizes[name] = min(hi, max(lo, value))
        return {"structure": sid, "sizes": sizes}
    geometries = sorted(macro_tracks)
    rows, cols = geometries[int(rng.integers(len(geometries)))]
    h_free, v_free = macro_tracks[(rows, cols)]
    return {"array": {"rows": rows, "cols": cols, "strap_every": 8},
            "mesh": {"h_rails": int(rng.integers(2, h_free + 1)),
                     "v_rails": int(rng.integers(2, v_free + 1)),
                     "h_width_nm": int(rng.integers(1200, 8001)),
                     "v_width_nm": int(rng.integers(1200, 8001))}}
