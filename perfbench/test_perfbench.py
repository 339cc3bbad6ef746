"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/test_perfbench.py

The end-to-end smoke tests run each workload for one second and take
about a minute in total.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from common import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from layers import LayerClock  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

SPACES = {
    "csa_variables": {"w_in": (50e-6, 400e-6), "i_bias": (50e-6, 400e-6),
                      "r_fb": (5e6, 50e6)},
    "topogen_spaces": {"a": ({"x": 1.0, "y": 2.0},
                             {"x": (0.1, 10.0), "y": (0.1, 10.0)}),
                       "b": ({"x": 3.0}, {"x": (1.0, 5.0)})},
    "macro_tracks": {(16, 16): (3, 3), (24, 24): (4, 4)},
}


@pytest.mark.parametrize("make", [
    lambda s: workloads.csa_jobs(s, 40),
    lambda s: workloads.macro_jobs(s, 20),
    lambda s: workloads.serve_stream(s, 300, **SPACES),
], ids=["csa_sizing", "macro_mesh", "serve_mixed"])
def test_seed_determines_inputs(make):
    assert make(1) == make(1)
    assert make(1) != make(2)


def test_serve_stream_mix_and_repeats():
    stream = workloads.serve_stream(3, 2000, **SPACES)
    kinds = [r["kind"] for r in stream]
    for kind, share in workloads.SERVE_MIX:
        assert abs(kinds.count(kind) / len(kinds) - share) < 0.05
    keys = [json.dumps(r["point"], sort_keys=True) for r in stream]
    repeated = 1 - len(set(keys)) / len(keys)
    assert abs(repeated - workloads.SERVE_REPEAT_SHARE) < 0.05
    assert all((r["priority"] == "batch") == (r["kind"] == "macro")
               for r in stream)


def test_calibration_imports_nothing_from_repro():
    tree = ast.parse((HERE / "calibration.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    assert not any(n == "repro" or n.startswith("repro.") for n in names)
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'perfbench'); import calibration;"
         "calibration.Calibration().take(2);"
         "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']"],
        cwd=ROOT, capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr


def test_declared_metrics_match_the_code():
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert declared == END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert layers == PER_LAYER_UNITS
    assert [w["name"] for w in DECLARED["workloads"]] == [
        "csa_sizing", "macro_mesh", "serve_mixed"]


def test_layer_self_times_add_up_to_wall_time():
    clock = LayerClock()

    def leaf():
        time.sleep(0.01)

    timed_leaf = clock.timed("leaf", leaf)
    timed_middle = clock.timed("middle", lambda: (timed_leaf(),
                                                  time.sleep(0.01)))
    t0 = time.perf_counter()
    with clock.span("outer"):
        timed_middle()
        time.sleep(0.01)
    wall = time.perf_counter() - t0
    total = sum(clock.self_s.values())
    assert total == pytest.approx(wall, abs=2e-3)
    assert clock.calls == {"leaf": 1, "middle": 1, "outer": 1}
    assert clock.self_s["leaf"] >= 0.009
    assert clock.self_s["middle"] == pytest.approx(0.01, abs=5e-3)


def test_patches_are_restored():
    import types
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    clock = LayerClock()
    clock.time_attr(module, "f", "layer")
    assert module.f(1) == 2 and clock.calls["layer"] == 1
    clock.restore()
    assert module.f is original


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csa_sizing",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["csa_sizing", "macro_mesh",
                                      "serve_mixed"])
def test_run_prints_exactly_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[key]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload,key,field", [
    ("csa_sizing", "csa", "cost"), ("macro_mesh", "macro", "metal_area")])
def test_failed_check_exits_nonzero_without_a_result(tmp_path, workload,
                                                     key, field):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    for entry in reference[key].values():
        entry[field] *= 2
    path.write_text(json.dumps(reference))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert "CHECK FAILED" in proc.stdout
    assert '"correct"' not in proc.stdout
