"""Self-tests of the benchmark: python3 -m pytest bench/tests -q"""

import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import layers  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_slice_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--steps", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # two runs of the slice: the minimum untraced, or one plain and one traced
    assert result["attempted"] == 6
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def _history_from_reference(entry):
    """A full-length probe history that matches the reference checkpoints."""
    n = entry["n_steps"]
    h = entry["times"][-1] / entry["steps"][-1]
    times = [k * h for k in range(n + 1)]
    probes = {}
    for name, rows in entry["probes"].items():
        values = [[0.0, 0.0, 0.0] for _ in range(n + 1)]
        for k, row in zip(entry["steps"], rows):
            values[k] = list(row)
        probes[name] = values
    return times, probes


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_check_rejects_perturbed_history(workload):
    entry = check.load_reference()[workload]
    times, probes = _history_from_reference(entry)
    assert check.check_run(entry, times, probes, entry["t_end"]) == []

    name = next(iter(probes))
    scale = max(check._norm(r) for r in entry["probes"][name])
    k = entry["steps"][len(entry["steps"]) // 2]
    perturbed = {name: [list(r) for r in probes[name]]}
    perturbed[name][k][2] += 1e-3 * scale
    assert check.check_run(entry, times, perturbed, entry["t_end"])

    nonfinite = {name: [list(r) for r in probes[name]]}
    nonfinite[name][1][0] = float("nan")
    assert check.check_run(entry, times, nonfinite, entry["t_end"])

    short = {name: probes[name][:-1]}
    assert check.check_run(entry, times[:-1], short, entry["t_end"])


def test_every_wrap_target_resolves():
    for target in layers.WRAP_POINTS:
        layers.resolve(target)
    from gebvisc.assembly import Simulation
    from gebvisc.scenarios import build_scenario
    sim = Simulation(build_scenario("pendulum")[0])
    assert isinstance(sim.total_iterations, int)


def test_missing_entry_point_is_reported_not_zero():
    tracer = layers.Tracer()
    tracer.install(["gebvisc.assembly:Simulation._no_such_method"])
    assert list(tracer.missing) == ["gebvisc.assembly:Simulation._no_such_method"]
    tally = layers.Tally()
    context = {"setup": [tally], "run": tally, "iters": 1,
               "steps": 1, "march_s": 1.0}
    values, lacking = layers.layer_metrics(context, {layers.SOLVE: "gone"})
    assert "assembly.solve_ms" not in values
    assert lacking["assembly.solve_ms"] == [layers.SOLVE]
    assert "assembly.assemble_ms" in values
