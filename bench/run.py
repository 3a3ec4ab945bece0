"""Benchmark driver: one workload, measured in fresh single-threaded workers.

    python3 bench/run.py --workload spiral --seed 1 --seconds 15 --trace 0

The solver is imported from the ``src`` directory beside ``bench``.  With
``--trace 0`` one untraced worker measures the end-to-end metrics over a
window of ``--seconds``.  With ``--trace 1`` an untraced and a traced worker
each make one run, and the per-layer metrics come from the traced one; the
ratio of their run times is the trace overhead.  Every metric is printed by
name with its unit, and the last line of standard output is the result as
one JSON object.

The inputs are the paper's fixed scenario parameters.  The seed is recorded
in the report and changes no input.  ``--steps`` cuts every run to a short
slice of its workload, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: a run must end within this many seconds of starting
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args, extra, deadline) -> dict:
    """Start one worker process, wait for it and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload] + extra
    if args.steps is not None:
        cmd += ["--steps", str(args.steps)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out: {' '.join(cmd)}") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}: "
                          f"{' '.join(cmd)}")
    return json.loads(lines[-1])


def commit_id() -> str:
    """Commit of the checkout, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def measure(args) -> tuple[dict, dict]:
    """(result, report) of one benchmark run."""
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        plain = run_worker(args, ["--reps", "1"], deadline)
        traced = run_worker(args, ["--reps", "1", "--trace"], deadline)
        metrics = dict(traced["metrics"])
        missing = dict(traced["missing"])
        if traced["run_ref_s"] and plain["run_ref_s"]:
            metrics["trace.overhead"] = {
                "value": traced["run_ref_s"][0] / plain["run_ref_s"][0] - 1.0,
                "unit": "ratio"}
        else:
            missing["trace.overhead"] = ["a completed untraced and traced run"]
        workers = [plain, traced]
    else:
        workers = [run_worker(args, ["--seconds", str(args.seconds)],
                              deadline)]
        metrics = workers[0]["metrics"]
        missing = {}
    failed = sum(w["failed"] for w in workers)
    result = {"correct": failed == 0 and not any(w["problems"]
                                                for w in workers),
              "attempted": sum(w["attempted"] for w in workers),
              "failed": failed,
              "metrics": metrics}
    report = {"workload": args.workload, "seed": args.seed,
              "trace": bool(args.trace), "steps": args.steps,
              "runs": [w["runs"] for w in workers],
              "problems": [p for w in workers for p in w["problems"]],
              "missing": missing, "versions": workers[0]["versions"],
              "wall": workers[0].get("wall")}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="pendulum, spiral or lattice3 (see worker.py)")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring window of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int,
                        help="run a slice of this many steps")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gebvisc",
                                       "__init__.py")):
        print(f"no gebvisc sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    try:
        result, report = measure(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report.update({"commit": commit_id(), "src_lines": src_lines(),
                   "nproc": os.cpu_count(),
                   "cpus_usable": len(os.sched_getaffinity(0)),
                   "loadavg_before": load_before,
                   "loadavg_after": os.getloadavg()})
    print("report " + json.dumps(report))
    for name, metric in result["metrics"].items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    for name, targets in report["missing"].items():
        print(f"metric {name} missing: needs {', '.join(targets)}")
    for problem in report["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
