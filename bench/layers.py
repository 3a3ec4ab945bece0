"""Outside-in layer trace: wrap the solver's entry points from the outside.

Each wrap point is a ``module:qualname`` attribute of the ``gebvisc``
package.  Functions are wrapped where the calling module looks them up, so a
kernel imported by ``gebvisc.assembly`` is replaced in that module's
namespace; methods are replaced on their class.  The library itself is not
modified, and nothing is wrapped unless ``install`` is called, which only the
traced worker does.

A span's self time is its duration minus the durations of the spans it
called.  Self times and call counts are summed per wrap point and per phase
(set-up, stepping, output), so the per-layer metrics below are sums of self
times over the wrap points of one layer.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

#: every wrap point, grouped by the layer it belongs to
SETUP = ("gebvisc.scenarios:build_scenario",
         "gebvisc.model:bishop_frames",
         "gebvisc.assembly:Simulation.__init__")
RESIDUAL = ("gebvisc.assembly:residual_force",
            "gebvisc.assembly:residual_moment")
TANGENT = ("gebvisc.assembly:tangent_blocks_force",
           "gebvisc.assembly:tangent_blocks_moment")
END_ROWS = ("gebvisc.assembly:neumann_force_row",
            "gebvisc.assembly:neumann_moment_row",
            "gebvisc.assembly:end_force_spatial",
            "gebvisc.assembly:end_moment_spatial")
ADVANCE = "gebvisc.assembly:Simulation.advance"
ATTEMPT = "gebvisc.assembly:Simulation._attempt"
NEWTON = "gebvisc.assembly:Simulation.newton"
ASSEMBLE = "gebvisc.assembly:Simulation.assemble"
BOUNDARY = "gebvisc.assembly:Simulation._boundary_rows"
SOLVE = "gebvisc.assembly:Simulation._solve"
PROBE = "gebvisc.assembly:Simulation.probe_displacement"
INCREMENT = ("gebvisc.assembly:apply_increment",
             "gebvisc.assembly:PatchRuntime.interp")
BEGIN_COMMIT = ("gebvisc.assembly:begin_step",
                "gebvisc.assembly:commit_step",
                "gebvisc.assembly:PatchRuntime.snapshot",
                "gebvisc.assembly:PatchRuntime.restore")
HISTORY = ("gebvisc.integrator:compute_beta",
           "gebvisc.integrator:update_viscous_state")
OUTPUT = ("gebvisc.output:write_history_csv",
          "gebvisc.output:write_run_metadata",
          "gebvisc.output:write_vtk_snapshot")
#: not a wrap point: the instance attribute the iteration counts come from
TOTAL_ITERATIONS = "gebvisc.assembly:Simulation.total_iterations"

STEP_SPANS = (RESIDUAL + TANGENT + END_ROWS + INCREMENT + BEGIN_COMMIT
              + HISTORY + (ADVANCE, ATTEMPT, NEWTON, ASSEMBLE, BOUNDARY,
                           SOLVE, PROBE))
WRAP_POINTS = SETUP + STEP_SPANS + OUTPUT


def resolve(target: str):
    """(owner, attribute name, current value) of a ``module:qualname``
    target; raises LookupError when it does not exist."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{target}: {exc}") from None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target}: no attribute {part!r}")
    value = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
        else getattr(owner, parts[-1], None)
    if value is None:
        raise LookupError(f"{target}: no attribute {parts[-1]!r}")
    return owner, parts[-1], value


class Tally:
    """Summed self time, inclusive time, calls and failed calls per span."""

    def __init__(self):
        self.self_s = {}
        self.incl_s = {}
        self.calls = {}
        self.raised = {}
        #: Newton iterations spent inside attempts that raised
        self.wasted_iterations = 0

    def add(self, name, self_s, incl_s, raised):
        self.self_s[name] = self.self_s.get(name, 0.0) + self_s
        self.incl_s[name] = self.incl_s.get(name, 0.0) + incl_s
        self.calls[name] = self.calls.get(name, 0) + 1
        if raised:
            self.raised[name] = self.raised.get(name, 0) + 1

    def self_total(self, names) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def calls_total(self, names) -> int:
        return sum(self.calls.get(n, 0) for n in names)


class Tracer:
    """Installs the wrappers and sums spans into the current ``Tally``."""

    def __init__(self):
        self.tally = Tally()
        self.missing = {}
        self._stack = []
        self._installed = []

    def phase(self) -> Tally:
        """Start a new phase; later spans are summed into the returned tally."""
        self.tally = Tally()
        return self.tally

    def install(self, targets=WRAP_POINTS) -> None:
        for target in targets:
            try:
                owner, attr, value = resolve(target)
            except LookupError as exc:
                self.missing[target] = str(exc)
                continue
            wrapper = self._wrap(target, value)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        count_wasted = name == ATTEMPT

        def traced(*args, **kwargs):
            stack.append(0.0)
            raised = True
            before = _iterations(args[0]) if count_wasted else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.tally.add(name, elapsed - children, elapsed, raised)
                if count_wasted and raised:
                    self.tally.wasted_iterations += \
                        _iterations(args[0]) - before

        return functools.wraps(fn)(traced)


def _iterations(sim) -> int:
    return getattr(sim, "total_iterations", 0)


def _setup_median(target):
    return lambda c: statistics.median(t.incl_s.get(target, 0.0)
                                       for t in c["setup"])


#: per-layer metric -> (unit, wrap points it needs, value from a context)
#: The context ``c`` holds one tally per set-up (``setup``), the tally of
#: the run (``run``: stepping and output), the run's Newton iterations
#: ``iters``, its committed steps ``steps`` and its ``time_march`` wall
#: time ``march_s``.  Set-up metrics are inclusive times, medians over the
#: set-ups; all other times are self times.
LAYER_METRICS = {
    "model.build_s": ("s", SETUP[:1], _setup_median(SETUP[0])),
    "initial_geometry.bishop_frames_s": (
        "s", SETUP[1:2], _setup_median(SETUP[1])),
    "assembly.sim_init_s": ("s", SETUP[2:3], _setup_median(SETUP[2])),
    "beam_residual.residual_ms": (
        "ms/iter", RESIDUAL + (TOTAL_ITERATIONS,),
        lambda c: 1e3 * c["run"].self_total(RESIDUAL) / c["iters"]),
    "beam_residual.tangent_ms": (
        "ms/iter", TANGENT + (TOTAL_ITERATIONS,),
        lambda c: 1e3 * c["run"].self_total(TANGENT) / c["iters"]),
    "beam_residual.end_rows_ms": (
        "ms/iter", END_ROWS + (TOTAL_ITERATIONS,),
        lambda c: 1e3 * c["run"].self_total(END_ROWS) / c["iters"]),
    "beam_residual.calls_per_iter": (
        "calls/iter", RESIDUAL + TANGENT + END_ROWS + (TOTAL_ITERATIONS,),
        lambda c: c["run"].calls_total(RESIDUAL + TANGENT + END_ROWS)
        / c["iters"]),
    "assembly.boundary_rows_ms": (
        "ms/iter", (BOUNDARY, TOTAL_ITERATIONS),
        lambda c: 1e3 * c["run"].self_total((BOUNDARY,)) / c["iters"]),
    "assembly.assemble_ms": (
        "ms/iter", (ASSEMBLE, TOTAL_ITERATIONS),
        lambda c: 1e3 * c["run"].self_total((ASSEMBLE,)) / c["iters"]),
    "assembly.solve_ms": (
        "ms/call", (SOLVE,),
        lambda c: 1e3 * c["run"].self_total((SOLVE,))
        / max(c["run"].calls_total((SOLVE,)), 1)),
    "assembly.newton_ms": (
        "ms/iter", (ADVANCE, ATTEMPT, NEWTON, TOTAL_ITERATIONS),
        lambda c: 1e3 * c["run"].self_total((ADVANCE, ATTEMPT, NEWTON))
        / c["iters"]),
    "assembly.newton_iters": (
        "count", (TOTAL_ITERATIONS,), lambda c: c["iters"]),
    "assembly.attempts": (
        "count", (ATTEMPT,), lambda c: c["run"].calls_total((ATTEMPT,))),
    "assembly.failed_attempts": (
        "count", (ATTEMPT,), lambda c: c["run"].raised.get(ATTEMPT, 0)),
    "assembly.halvings": (
        "count", (ADVANCE,),
        # every halving replaces one advance call by two
        lambda c: (c["run"].calls_total((ADVANCE,)) - c["steps"]) // 2),
    "assembly.wasted_iters": (
        "count", (ATTEMPT, TOTAL_ITERATIONS),
        lambda c: c["run"].wasted_iterations),
    "assembly.attempt_success_ratio": (
        "ratio", (ATTEMPT,),
        lambda c: 1.0 - c["run"].raised.get(ATTEMPT, 0)
        / max(c["run"].calls_total((ATTEMPT,)), 1)),
    "integrator.increment_ms": (
        "ms/iter", INCREMENT + (TOTAL_ITERATIONS,),
        lambda c: 1e3 * c["run"].self_total(INCREMENT) / c["iters"]),
    "integrator.begin_commit_ms": (
        "ms/step", BEGIN_COMMIT,
        lambda c: 1e3 * c["run"].self_total(BEGIN_COMMIT) / c["steps"]),
    "viscoelastic.history_ms": (
        "ms/step", HISTORY,
        lambda c: 1e3 * c["run"].self_total(HISTORY) / c["steps"]),
    "assembly.probe_ms": (
        "ms/step", (PROBE,),
        lambda c: 1e3 * c["run"].self_total((PROBE,)) / c["steps"]),
    "output.write_ms": (
        "ms", OUTPUT, lambda c: 1e3 * c["run"].self_total(OUTPUT)),
    "trace.unaccounted_share": (
        "ratio", STEP_SPANS,
        lambda c: 1.0 - c["run"].self_total(STEP_SPANS) / c["march_s"]),
}


def layer_metrics(context: dict, missing: dict) -> tuple[dict, dict]:
    """Per-layer metric values and, for each metric that cannot be measured,
    the wrap points it lacks."""
    values, lacking = {}, {}
    for name, (unit, needs, compute) in LAYER_METRICS.items():
        absent = [t for t in needs if t in missing]
        if absent:
            lacking[name] = absent
            continue
        values[name] = {"value": compute(context), "unit": unit}
    return values, lacking
