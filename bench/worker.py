"""Run one benchmark workload in this process and print its result as JSON.

The driver (``run.py``) starts one fresh process per measurement:

    python3 bench/worker.py --workload spiral --seconds 15
    python3 bench/worker.py --workload spiral --reps 1 --trace

A measurement sets the scenario up several times (``setup_s`` is their
median) and then runs the whole scenario through the calls ``gebvisc run``
makes: ``build_scenario``, ``Simulation``, ``time_march`` with an observer
that timestamps each committed step, and the three output writers.  Every
run's outputs are read back and checked against ``reference.json``.

Times are reported at a fixed reference speed of the host (see
``HostSpeed``); the wall times they come from are reported beside them.
Whole runs repeat while the next one still fits into ``--seconds``, and at
least ``MIN_RUNS`` run.  Runs are deterministic, so step k does the same
work in every run; a step's time is its best over the runs, and ``run_s`` is
the best run.

    python3 bench/worker.py --workload spiral --record

runs the workload once and stores its probe checkpoints as the reference.
"""

import os

if __name__ == "__main__":
    # one BLAS/OpenMP thread, set before numpy loads: the benchmark measures
    # the plain single-threaded solver
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import sys
import time

import numpy as np

import check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for the output files of a run, removed afterwards
OUT_ROOT = os.path.join(ROOT, ".bench_out")

#: workload -> (scenario, overrides); every other input is the scenario's
#: paper default, including h = 5e-3 and the default Newton tolerances
WORKLOADS = {
    "pendulum": ("pendulum", {"T": 2.0}),
    "spiral": ("spiral", {"T": 0.8}),
    "lattice3": ("lattice", {"cells": 3, "psi": 0.5236, "T": 0.5}),
}
#: set-ups per measurement before the first run; each run adds one more
SETUPS = 5
#: runs per untraced measurement, at least
MIN_RUNS = 2


class HostSpeed:
    """How slow the host runs right now, against a fixed reference.

    Other tenants of a shared host slow the processor down by up to 2x, in
    episodes that last from a fraction of a second to minutes.  A sample
    times a fixed kernel of small numpy operations, the kind the solver
    spends its time in, and divides by ``REFERENCE_S``: 1.0 is the reference
    speed, 1.5 means the host currently needs 1.5x as long.  Dividing a
    measured time by the slowdown sampled around it gives the time at the
    reference speed.  The kernel runs between steps, outside every timed
    interval.
    """

    #: kernel time that defines the reference speed
    REFERENCE_S = 1.0e-3
    #: samples on each side of a step that make up its local slowdown
    HALF_WINDOW = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec = rng.standard_normal((8, 3))
        self._mat = rng.standard_normal((8, 3, 3))

    def sample(self) -> float:
        vec, mat = self._vec, self._mat
        start = time.perf_counter()
        for _ in range(40):
            np.cross(vec, vec[::-1])
            np.einsum("nij,nj->ni", mat, vec)
            vec.max()
            vec @ vec.T
        return (time.perf_counter() - start) / self.REFERENCE_S

    def median(self, count: int) -> float:
        return float(np.median([self.sample() for _ in range(count)]))

    def local(self, samples) -> np.ndarray:
        """Slowdown around each position: the median of the samples within
        ``HALF_WINDOW`` of it."""
        w = self.HALF_WINDOW
        s = np.asarray(samples, dtype=float)
        return np.array([np.median(s[max(k - w, 0):k + w + 1])
                         for k in range(len(s))])


def import_gebvisc():
    """Import the solver from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import gebvisc
    where = os.path.dirname(os.path.abspath(gebvisc.__file__))
    if where != os.path.join(SRC, "gebvisc"):
        raise ImportError(f"gebvisc imported from {where}, not from {SRC}")
    from gebvisc import assembly, integrator, output, scenarios
    return assembly, integrator, output, scenarios


def versions() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


class Workload:
    """One scenario with its end time, run through the public calls."""

    def __init__(self, name: str, steps: int | None, modules, host):
        self.name = name
        self.assembly, self.integrator, self.output, self.scenarios = modules
        self.host = host
        scenario, overrides = WORKLOADS[name]
        self.scenario = scenario
        self.overrides = dict(overrides)
        if steps is not None:
            h = self.scenarios.SCENARIO_DEFAULTS[scenario]["h"]
            self.overrides["T"] = steps * h

    def setup(self):
        """(simulation, params, wall seconds, slowdown) of one set-up."""
        before = [self.host.sample() for _ in range(3)]
        start = time.perf_counter()
        model, params = self.scenarios.build_scenario(self.scenario,
                                                      self.overrides)
        sim = self.assembly.Simulation(model)
        wall = time.perf_counter() - start
        slowdown = float(np.median(before + [self.host.sample()
                                             for _ in range(3)]))
        return sim, params, wall, slowdown

    def run(self, sim, params, out_dir) -> dict:
        """March to the end time, write the outputs and check them.

        ``step_s`` are wall times per committed step; ``step_ref_s`` the
        same at the reference speed.  ``run_s`` is wall time from the first
        step to the last output file, without the host samples taken
        between steps; ``run_ref_s`` is it at the reference speed.
        """
        h, t_end = params["h"], params["T"]
        n_steps = int(round(t_end / h))
        commits, resumes, slowdowns = [], [], []

        def observer(_sim):
            commits.append(time.perf_counter())
            slowdowns.append(self.host.sample())
            resumes.append(time.perf_counter())

        start = time.perf_counter()
        failure = None
        try:
            traj = self.assembly.time_march(sim, t_end, h, observer=observer)
        except self.integrator.StepFailure as exc:
            failure = exc
        # time_march wall time without the host samples
        march_s = time.perf_counter() - start - float(
            np.sum(np.subtract(resumes, commits)))
        step_s = np.array(commits) - np.array([start] + resumes[:-1])
        step_ref_s = step_s / self.host.local(slowdowns)
        result = {"steps": n_steps, "step_s": step_s,
                  "step_ref_s": step_ref_s, "march_s": march_s,
                  "slowdown": float(np.median(slowdowns)) if slowdowns
                  else None}
        if failure is not None:
            result.update(failed=n_steps - len(commits),
                          problems=[f"solver failure: {failure}"])
            return result
        os.makedirs(out_dir)
        out_start = time.perf_counter()
        self.output.write_history_csv(os.path.join(out_dir, "history.csv"),
                                      traj)
        self.output.write_run_metadata(os.path.join(out_dir, "run.json"),
                                       self.scenario, params, traj)
        self.output.write_vtk_snapshot(os.path.join(out_dir, "final.vtk"),
                                       sim)
        out_s = time.perf_counter() - out_start
        out_ref_s = out_s / self.host.median(5)
        problems = self.check_outputs(out_dir, sim, n_steps, t_end)
        result.update(
            failed=n_steps if problems else 0, problems=problems, traj=traj,
            run_s=march_s + out_s,
            run_ref_s=float(np.sum(step_ref_s)) + out_ref_s,
            out_bytes=sum(os.path.getsize(os.path.join(out_dir, f))
                          for f in os.listdir(out_dir)))
        return result

    def check_outputs(self, out_dir, sim, n_steps, t_end) -> list[str]:
        """Problems in the files of one run, read back from disk."""
        data = np.loadtxt(os.path.join(out_dir, "history.csv"),
                          delimiter=",", skiprows=1, ndmin=2)
        with open(os.path.join(out_dir, "history.csv"),
                  encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        problems = []
        if len(data) != n_steps + 1:
            problems.append(f"history.csv has {len(data)} rows, expected "
                            f"{n_steps + 1}")
        probes = {}
        for j, col in enumerate(header[1:], start=1):
            name = col.rsplit(".", 1)[0]
            probes.setdefault(name, []).append(data[:, j])
        probes = {name: np.column_stack(cols) for name, cols in probes.items()}
        entry = check.load_reference().get(self.name)
        if entry is None:
            problems.append(f"no reference for workload {self.name}")
        else:
            problems += check.check_run(entry, data[:, 0], probes, t_end)
        with open(os.path.join(out_dir, "run.json"), encoding="utf-8") as fh:
            if json.load(fh).get("steps") != n_steps:
                problems.append("run.json does not record every step")
        points = 200 * len(sim.runtimes)
        with open(os.path.join(out_dir, "final.vtk"), encoding="utf-8") as fh:
            if f"POINTS {points} double\n" not in fh.read():
                problems.append(f"final.vtk does not hold {points} points")
        return problems


def measure(args) -> dict:
    modules = import_gebvisc()
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    host = HostSpeed()
    work = Workload(args.workload, args.steps, modules, host)
    setups, setup_tallies = [], []

    def setup():
        if tracer is not None:
            setup_tallies.append(tracer.phase())
        sim, params, wall, slowdown = work.setup()
        setups.append((wall, slowdown))
        return sim, params

    for _ in range(SETUPS - 1):
        setup()
    runs = []
    window_start = time.perf_counter()
    out_dir = os.path.join(OUT_ROOT, str(os.getpid()))
    try:
        while True:
            rep_start = time.perf_counter()
            sim, params = setup()
            run_tally = tracer.phase() if tracer is not None else None
            runs.append(work.run(sim, params,
                                 os.path.join(out_dir, str(len(runs)))))
            now = time.perf_counter()
            if args.reps is not None:
                if len(runs) >= args.reps:
                    break
            elif len(runs) >= MIN_RUNS and \
                    now - window_start + (now - rep_start) > args.seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass  # another worker's files are still there
    if tracer is not None:
        tracer.uninstall()

    iters = getattr(sim, "total_iterations", None)
    complete = [r for r in runs if "run_s" in r]
    result = {
        "attempted": sum(r["steps"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "runs": len(runs),
        "run_ref_s": [r["run_ref_s"] for r in complete],
        "versions": versions(),
    }
    if args.record:
        result["reference"] = check.make_reference_entry(
            runs[0]["traj"].times, runs[0]["traj"].probes)
    if tracer is None:
        result["metrics"], result["wall"] = end_to_end(runs, setups, iters)
        return result

    import layers
    last = runs[-1]
    missing = dict(tracer.missing)
    if iters is None:
        missing[layers.TOTAL_ITERATIONS] = "Simulation has no total_iterations"
    context = {"setup": setup_tallies, "run": run_tally,
               "iters": iters or 0, "steps": last["steps"],
               "march_s": last["march_s"]}
    values, lacking = layers.layer_metrics(context, missing)
    values.update(end_state_matrix(sim, params))
    values["output.bytes"] = {"value": last.get("out_bytes", 0),
                              "unit": "B"}
    result["metrics"] = values
    result["missing"] = lacking
    return result


def end_to_end(runs, setups, iters) -> tuple[dict, dict]:
    """End-to-end metrics at the reference speed, and the wall times and
    host slowdowns they come from.

    A step's time is its best over the runs that committed every step (or
    the longest partial run when none did); ``run_s`` is the best run.
    Every run does the same work, so the iteration count of the last run
    stands for all of them.
    """
    complete = [r for r in runs if "run_s" in r] or \
        [max(runs, key=lambda r: len(r["step_s"]))]
    step_ms = 1e3 * np.min([r["step_ref_s"] for r in complete], axis=0)
    metrics = {"setup_s": {"value": float(np.median(
        [wall / slowdown for wall, slowdown in setups])), "unit": "s"}}
    if "run_ref_s" in complete[0]:
        metrics["run_s"] = {"value": min(r["run_ref_s"] for r in complete),
                            "unit": "s"}
    metrics.update({
        "step_ms_p50": {"value": float(np.median(step_ms)), "unit": "ms"},
        "step_ms_p90": {"value": float(np.percentile(step_ms, 90)),
                        "unit": "ms"},
        "newton_per_step": {"value": iters / len(runs[-1]["step_s"]),
                            "unit": "iter/step"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    })
    wall_ms = 1e3 * np.min([r["step_s"] for r in complete], axis=0)
    wall = {"setup_s": float(np.median([w for w, _ in setups])),
            "run_s": min((r["run_s"] for r in complete), default=None),
            "step_ms_p50": float(np.median(wall_ms)),
            "step_ms_p90": float(np.percentile(wall_ms, 90)),
            "slowdown": [r["slowdown"] for r in runs]}
    return metrics, wall


def end_state_matrix(sim, params) -> dict:
    """nnz of the equilibrated system at the end state and the LU fill
    nnz(L+U)/nnz(A) of a sparse factorization of it, both computed."""
    import scipy.sparse.linalg as spla
    A, _ = sim.assemble(params["h"], sim.t + params["h"])
    lu = spla.splu(A.tocsc())
    fill = (lu.L.nnz + lu.U.nnz - A.shape[0]) / A.nnz
    return {"assembly.nnz": {"value": int(A.nnz), "unit": "count"},
            "assembly.lu_fill": {"value": fill, "unit": "ratio"}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring window: repeat whole runs while the "
                             "next one fits")
    parser.add_argument("--reps", type=int,
                        help="run exactly this many times instead")
    parser.add_argument("--steps", type=int,
                        help="run only this many steps (a slice)")
    parser.add_argument("--trace", action="store_true",
                        help="wrap the layer entry points and report "
                             "per-layer metrics")
    parser.add_argument("--record", action="store_true",
                        help="store this run's probe checkpoints in "
                             "reference.json")
    args = parser.parse_args(argv)
    if args.record:
        args.reps, args.steps, args.trace = 1, None, False
    result = measure(args)
    if args.record:
        ref = check.load_reference()
        ref[args.workload] = result["reference"]
        with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        del result["reference"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
