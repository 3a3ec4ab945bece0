"""CSV histories and legacy-VTK polyline snapshots."""

from __future__ import annotations

import json
import os

import numpy as np

from .assembly import Simulation, Trajectory

FLOAT_FMT = "%.12g"


def write_history_csv(path, traj: Trajectory) -> None:
    """Probe time histories: header ``t,<probe>.u1,...``, one row per step."""
    names = sorted(traj.probes)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = ["t"] + [f"{n}.u{k}" for n in names for k in (1, 2, 3)]
        fh.write(",".join(cols) + "\r\n")
        for i, t in enumerate(traj.times):
            row = [FLOAT_FMT % t]
            for n in names:
                row.extend(FLOAT_FMT % v for v in traj.probes[n][i])
            fh.write(",".join(row) + "\r\n")


def write_vtk_snapshot(path, sim: Simulation,
                       samples_per_patch: int = 200) -> None:
    """Legacy ASCII VTK polydata: dense centroid polylines per patch with the
    displacement vector field attached to the points."""
    curves = [sim.sample_curve(k, samples_per_patch)
              for k in range(len(sim.runtimes))]
    pts = np.vstack([cur for cur, _ in curves])
    disp = np.vstack([cur - ini for cur, ini in curves])
    lines = np.arange(len(pts)).reshape(len(curves), samples_per_patch)
    # one formatting pass per patch: a whole section at once would hold every
    # value as a Python float and the section's text at the same time
    rows = (" ".join([FLOAT_FMT] * 3) + "\n") * samples_per_patch
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("beam snapshot\n")
        fh.write("ASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {len(pts)} double\n")
        fh.writelines(rows % tuple(b.tolist())
                      for b in pts.reshape(len(curves), -1))
        total = sum(1 + len(l) for l in lines)
        fh.write(f"LINES {len(lines)} {total}\n")
        for l in lines:
            fh.write(str(len(l)) + " " + " ".join(str(i) for i in l) + "\n")
        fh.write(f"POINT_DATA {len(pts)}\n")
        fh.write("VECTORS displacement double\n")
        fh.writelines(rows % tuple(b.tolist())
                      for b in disp.reshape(len(curves), -1))


def write_run_metadata(path, scenario: str, params: dict, traj: Trajectory,
                       extra: dict | None = None) -> None:
    meta = {
        "scenario": scenario,
        "parameters": {k: (list(v) if isinstance(v, (tuple, np.ndarray))
                           else v) for k, v in params.items()},
        "steps": len(traj.times) - 1,
        "newton_iterations_total": int(np.sum(traj.iterations)),
        "newton_iterations_max": int(max(traj.iterations, default=0)),
        "wall_time_s": traj.wall_time,
    }
    if extra:
        meta.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, default=str)
        fh.write("\n")


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
