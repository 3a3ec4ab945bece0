"""Command-line front end: scenario runs, convergence studies, validation.

    gebvisc run pendulum --out results/
    gebvisc run lattice --psi 0.5236 --cells 3 --T 2.25 --out results/
    gebvisc converge --config study.json --out results/
    gebvisc validate --config model.json
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .assembly import NewtonSettings, Simulation, time_march
from .integrator import StepFailure
from .model import load_config, model_from_config
from .output import (ensure_dir, write_history_csv, write_run_metadata,
                     write_vtk_snapshot)
from .scenarios import SCENARIO_NAMES, build_scenario

log = logging.getLogger(__name__)


def run_scenario(name: str, overrides: dict | None = None, out_dir=None,
                 snapshot_times=(), settings: NewtonSettings | None = None,
                 config: dict | None = None):
    """Run one scenario to its end time; returns (sim, trajectory, params).

    Without ``settings`` the scenario 'custom' takes its Newton settings
    from the configuration's ``newton`` section, every other scenario the
    defaults.

    On solver failure the history of the committed steps is written to the
    CSV and the exception is re-raised for the caller to turn into an exit
    code.
    """
    if name == "custom":
        if config is None:
            raise ValueError("scenario 'custom' needs a configuration file")
        model, extras = model_from_config(config)
        if settings is None:
            settings = NewtonSettings.from_config(extras["newton"])
        params = dict(extras["time"])
        params.setdefault("h", 1e-3)
        params.setdefault("T", 1.0)
        if overrides:
            params.update({k: v for k, v in overrides.items()
                           if v is not None and k in ("h", "T")})
    else:
        model, params = build_scenario(name, overrides)
    sim = Simulation(model, settings)
    h, T = params["h"], params["T"]
    snap = sorted(snapshot_times)

    def observer(s):
        while snap and s.t >= snap[0] - 0.5 * h:
            t_snap = snap.pop(0)
            if out_dir is not None:
                write_vtk_snapshot(os.path.join(
                    out_dir, f"snapshot_t{t_snap:.3f}.vtk"), s)

    try:
        traj = time_march(sim, T, h, observer=observer)
    except StepFailure as exc:
        if out_dir is not None:
            write_history_csv(os.path.join(out_dir, "history.csv"),
                              exc.trajectory)
        raise
    if out_dir is not None:
        write_history_csv(os.path.join(out_dir, "history.csv"), traj)
        write_run_metadata(os.path.join(out_dir, "run.json"), name, params,
                           traj)
    return sim, traj, params


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

def displacement_field(sim: Simulation, n_probe: int) -> np.ndarray:
    """Displacement sampled on a fixed parametric grid over all patches."""
    parts = []
    for k in range(len(sim.runtimes)):
        cur, ini = sim.sample_curve(k, n_probe)
        parts.append(cur - ini)
    return np.vstack(parts)


def run_convergence(study: dict, out_dir=None):
    """Spatial convergence of a scenario against a fine reference run.

    ``study`` keys: scenario, pairs ([[p, n], ...]), reference ([p, n]),
    t_eval, h, optionally probe_points and scenario overrides under
    "overrides".  Returns a result dict with per-pair errors and fitted
    pre-plateau slopes per degree.
    """
    name = study["scenario"]
    pairs = [tuple(pn) for pn in study["pairs"]]
    p_ref, n_ref = study["reference"]
    if any(n >= n_ref and p >= p_ref for p, n in pairs):
        raise ValueError("reference must be strictly finer than every study pair")
    t_eval = study["t_eval"]
    h = study["h"]
    n_probe = int(study.get("probe_points", 101))
    overrides = dict(study.get("overrides", {}))

    def field(p, n):
        model, params = build_scenario(name, {**overrides, "degree": p,
                                              "n": n, "h": h, "T": t_eval})
        sim = Simulation(model)
        time_march(sim, t_eval, h)
        return displacement_field(sim, n_probe)

    u_ref = field(p_ref, n_ref)
    ref_norm = np.linalg.norm(u_ref)
    rows = []
    for p, n in pairs:
        err = np.linalg.norm(field(p, n) - u_ref) / ref_norm
        rows.append({"degree": p, "n": n, "err_l2": float(err)})
        log.info("convergence p=%d n=%d err=%.3e", p, n, err)

    # the plateau is the floor of the whole sweep: a family whose own
    # minimum still sits on the spatial decay keeps its asymptotic points
    sweep_floor = min(r["err_l2"] for r in rows)
    slopes = {}
    for p in sorted({r["degree"] for r in rows}):
        pr = sorted((r for r in rows if r["degree"] == p), key=lambda r: r["n"])
        ns = np.array([r["n"] for r in pr], dtype=float)
        es = np.array([r["err_l2"] for r in pr])
        slopes[p] = {"slope": fit_preplateau_slope(ns, es, floor=sweep_floor),
                     "floor": float(es.min())}
    result = {"scenario": name, "reference": [p_ref, n_ref], "t_eval": t_eval,
              "h": h, "errors": rows, "per_degree": slopes}
    if out_dir is not None:
        with open(os.path.join(out_dir, "convergence.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("degree,n,err_l2\r\n")
            for r in rows:
                fh.write(f"{r['degree']},{r['n']},{r['err_l2']:.12e}\r\n")
        with open(os.path.join(out_dir, "convergence.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return result


def fit_preplateau_slope(ns: np.ndarray, errs: np.ndarray,
                         plateau_factor: float = 50.0,
                         floor: float | None = None) -> float:
    """Log-log slope of error vs n restricted to points above the plateau.

    The plateau floor is the smallest error in the sweep: ``floor`` when the
    caller fits one family of a multi-family sweep, else the smallest of
    ``errs``.  Points within ``plateau_factor`` of it are excluded from the
    fit (they sit on the time-error / solver-tolerance floor, not on the
    spatial decay)."""
    if floor is None:
        floor = errs.min()
    mask = errs > plateau_factor * floor
    if mask.sum() < 2:
        mask = np.ones_like(errs, dtype=bool)
    coeff = np.polyfit(np.log(ns[mask]), np.log(errs[mask]), 1)
    return float(-coeff[0])


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _add_override_args(sub):
    sub.add_argument("--h", type=float, help="time step override (s)")
    sub.add_argument("--T", type=float, help="end time override (s)")
    sub.add_argument("--p", type=int, dest="degree", help="basis degree")
    sub.add_argument("--n", type=int, help="collocation points per patch")
    sub.add_argument("--elastic", action="store_true",
                     help="rate-independent comparison material")
    sub.add_argument("--psi", type=float, help="cell curvature angle (rad)")
    sub.add_argument("--cells", type=int, help="lattice cells per side")
    sub.add_argument("--nx", type=int, help="cell grid dimension x")
    sub.add_argument("--ny", type=int, help="cell grid dimension y")
    sub.add_argument("--diameter", type=float, help="section diameter (m)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gebvisc",
        description="Dynamics of geometrically exact viscoelastic beams "
                    "and beam systems (isogeometric collocation)")
    parser.add_argument("-v", "--verbose", action="store_true")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run a scenario")
    run.add_argument("scenario", choices=SCENARIO_NAMES)
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--config", help="model config (scenario 'custom')")
    run.add_argument("--snapshots", default="",
                     help="comma-separated times for VTK snapshots")
    _add_override_args(run)

    conv = subs.add_parser("converge", help="spatial convergence study")
    conv.add_argument("--config", required=True, help="study configuration")
    conv.add_argument("--out", required=True, help="output directory")

    val = subs.add_parser("validate", help="validate a model configuration")
    val.add_argument("--config", required=True)
    return parser


def _overrides_from(args) -> dict:
    keys = ("h", "T", "degree", "n", "elastic", "psi", "cells", "nx", "ny",
            "diameter")
    out = {}
    for k in keys:
        v = getattr(args, k, None)
        if v not in (None, False):
            out[k] = v
    return out


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "run":
        out = ensure_dir(args.out)
        snaps = [float(t) for t in args.snapshots.split(",") if t]
        config = load_config(args.config) if args.config else None
        try:
            sim, traj, params = run_scenario(args.scenario, _overrides_from(args),
                                             out_dir=out, snapshot_times=snaps,
                                             config=config)
        except StepFailure as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 1
        print(f"{args.scenario}: {len(traj.times) - 1} steps, "
              f"{int(np.sum(traj.iterations))} Newton iterations, "
              f"{traj.wall_time:.2f} s wall time -> {out}")
        return 0
    if args.command == "converge":
        out = ensure_dir(args.out)
        study = load_config(args.config)
        result = run_convergence(study, out_dir=out)
        for p, info in result["per_degree"].items():
            print(f"degree {p}: pre-plateau slope {info['slope']:.2f}, "
                  f"floor {info['floor']:.2e}")
        return 0
    if args.command == "validate":
        try:
            model, extras = model_from_config(load_config(args.config))
            NewtonSettings.from_config(extras["newton"])
        except (ValueError, KeyError) as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 2
        print(f"ok: {len(model.patches)} patches, {model.n_dofs()} unknowns, "
              f"{len(model.supports)} supports, {len(model.joints)} joints")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
