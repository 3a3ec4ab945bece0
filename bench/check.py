"""Output check of a benchmark run against the stored probe reference.

The reference (``reference.json`` beside this file) holds, per workload, the
probe displacements at a few fixed step indices, recorded with the default
Newton tolerances.  A run passes when it reached its end time, every probe
value it produced is finite, and every checkpoint inside the run matches the
reference to ``TOLERANCE`` times the largest reference displacement of that
probe.

The tolerance sits between two scales.  Reordered floating-point arithmetic
moves a converged step by about the Newton increment tolerance (1e-8 of the
step increment), which stays below 1e-7 of the amplitude over a whole run.
A wrong residual or boundary row changes the discrete equations, so the
trajectory moves by a finite fraction of the amplitude within a few steps.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: allowed checkpoint error, as a share of the largest reference displacement
TOLERANCE = 1.0e-5


def checkpoint_steps(n_steps: int) -> list[int]:
    """Step indices compared against the reference for an ``n_steps`` run.

    The first three steps are always included so that a short slice of a
    workload is checked too.
    """
    picks = {1, 2, 3, n_steps // 4, n_steps // 2, (3 * n_steps) // 4, n_steps}
    return sorted(k for k in picks if 1 <= k <= n_steps)


def load_reference() -> dict:
    """Stored reference entries by workload; empty when none is stored."""
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def make_reference_entry(times, probes: dict) -> dict:
    """Reference record of one full run: ``times`` has one entry per state
    (initial state included) and ``probes`` maps a probe name to a list of
    3-vectors with the same length."""
    n_steps = len(times) - 1
    steps = checkpoint_steps(n_steps)
    return {
        "n_steps": n_steps,
        "t_end": float(times[-1]),
        "steps": steps,
        "times": [float(times[k]) for k in steps],
        "probes": {name: [[float(v) for v in values[k]] for k in steps]
                   for name, values in sorted(probes.items())},
    }


def check_run(entry: dict, times, probes: dict, t_end: float) -> list[str]:
    """Problems found in one run's probe history; empty when it passes.

    ``times`` and ``probes`` are laid out as in ``make_reference_entry``;
    ``t_end`` is the end time the run was asked to reach.
    """
    problems = []
    n_steps = len(times) - 1
    if not math.isclose(float(times[-1]), t_end, rel_tol=0.0, abs_tol=1e-9):
        problems.append(f"run ended at t={float(times[-1])!r}, "
                        f"expected t={t_end!r}")
    if set(probes) != set(entry["probes"]):
        problems.append(f"probes {sorted(probes)} differ from the reference "
                        f"probes {sorted(entry['probes'])}")
        return problems
    for name, values in probes.items():
        if len(values) != len(times):
            problems.append(f"probe {name}: {len(values)} samples for "
                            f"{len(times)} states")
            continue
        if not all(math.isfinite(float(v)) for row in values for v in row):
            problems.append(f"probe {name}: non-finite value in the history")
            continue
        ref_rows = entry["probes"][name]
        scale = max(_norm(r) for r in ref_rows)
        for k, t_ref, ref in zip(entry["steps"], entry["times"], ref_rows):
            if k > n_steps:
                continue
            if not math.isclose(float(times[k]), t_ref, rel_tol=0.0,
                                abs_tol=1e-12):
                problems.append(f"step {k} at t={float(times[k])!r}, "
                                f"reference t={t_ref!r}")
                continue
            err = _norm([float(a) - b for a, b in zip(values[k], ref)])
            if not err <= TOLERANCE * scale:
                problems.append(f"probe {name} at t={t_ref:.6g}: error "
                                f"{err:.3e} exceeds {TOLERANCE:.0e} x "
                                f"{scale:.3e}")
    return problems


def _norm(vec) -> float:
    return math.sqrt(sum(float(v) * float(v) for v in vec))
