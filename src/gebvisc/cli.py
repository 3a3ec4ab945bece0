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
import numbers
import os
import sys

import numpy as np

from .assembly import NewtonSettings, Simulation, step_count, time_march
from .integrator import StepFailure
from .model import check_keys, check_positive, load_config, model_from_config
from .output import (ensure_dir, write_history_csv, write_run_metadata,
                     write_vtk_snapshot)
from .scenarios import SCENARIO_NAMES, build_scenario

log = logging.getLogger(__name__)


def scenario_setup(name: str, overrides: dict | None = None,
                   settings: NewtonSettings | None = None,
                   config: dict | None = None):
    """Model, Newton settings and parameters (h, T, ...) of a scenario.

    Without ``settings`` the scenario 'custom' takes its Newton settings
    from the configuration's ``newton`` section, every other scenario the
    defaults.  Only 'custom' takes a configuration, and of the overrides
    only h and T.  An input that the run would ignore, an h or T that is
    not a finite number > 0, or a T that is not a whole number of steps h
    raises ``ValueError``.
    """
    if name != "custom":
        if config is not None:
            raise ValueError(f"scenario '{name}' takes no configuration file")
        model, params = build_scenario(name, overrides)
        _require_steps(params, "T", "h")
        return model, settings, params
    if config is None:
        raise ValueError("scenario 'custom' needs a configuration file")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    check_keys(overrides, ("h", "T"), "options of scenario 'custom', which "
               "takes its model from the configuration")
    model, extras = model_from_config(config)
    if settings is None:
        settings = NewtonSettings.from_config(extras["newton"])
    params = {"h": 1e-3, "T": 1.0, **extras["time"], **overrides}
    _require_steps(params, "T", "h")
    return model, settings, params


def _require_steps(params: dict, span: str, h: str):
    """Raise ``ValueError`` unless ``params[span]`` and ``params[h]`` are
    finite real numbers > 0 and the span a whole number of steps h."""
    for k in (span, h):
        check_positive(params[k], k)
    step_count(params[span], params[h])


def run_scenario(name: str, overrides: dict | None = None, out_dir=None,
                 snapshot_times=(), settings: NewtonSettings | None = None,
                 config: dict | None = None):
    """Run one scenario to its end time; returns (sim, trajectory, params)."""
    return run_model(name, *scenario_setup(name, overrides, settings, config),
                     out_dir, snapshot_times)


def snapshot_name(t: float) -> str:
    return f"snapshot_t{t:.3f}.vtk"


def check_snapshot_times(times, params: dict):
    """Raise ``ValueError`` unless every snapshot time lies in [0, T + h/2]
    of the scenario ``params`` and has a file name of its own."""
    if any(not 0 <= t <= params["T"] + params["h"] / 2 for t in times):
        raise ValueError(f"snapshot times must lie in [0, T]: {list(times)}")
    if len({snapshot_name(t) for t in times}) < len(times):
        raise ValueError(f"snapshot times share a file name: {list(times)}")


def run_model(name: str, model, settings, params: dict, out_dir=None,
              snapshot_times=()):
    """Run the ``scenario_setup`` of scenario ``name`` to its end time;
    returns (sim, trajectory, params).

    A snapshot is taken at the first state, the initial one included,
    within h/2 of its time; a time that no state lies within h/2 of
    raises ``ValueError`` before any step or file.

    On solver failure the history and the metadata of the committed steps
    are written, the metadata with the failure's message under "failure",
    and the exception is re-raised for the caller to turn into an exit
    code.
    """
    check_snapshot_times(snapshot_times, params)
    sim = Simulation(model, settings)
    h, T = params["h"], params["T"]
    snap = sorted(snapshot_times)

    def observer(s):
        while snap and s.t >= snap[0] - 0.5 * h:
            t_snap = snap.pop(0)
            if out_dir is not None:
                write_vtk_snapshot(os.path.join(out_dir,
                                                snapshot_name(t_snap)), s)

    def write(traj, extra=None):
        if out_dir is not None:
            write_history_csv(os.path.join(out_dir, "history.csv"), traj)
            write_run_metadata(os.path.join(out_dir, "run.json"), name,
                               params, traj, extra)

    observer(sim)
    try:
        traj = time_march(sim, T, h, observer=observer)
    except StepFailure as exc:
        write(exc.trajectory, {"failure": str(exc)})
        raise
    write(traj)
    return sim, traj, params


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

def displacement_field(sim: Simulation, n_probe: int) -> np.ndarray:
    """Displacement sampled on a fixed parametric grid over all patches."""
    return np.vstack([np.subtract(*sim.sample_curve(k, n_probe))
                      for k in range(len(sim.runtimes))])


def convergence_setup(study: dict):
    """(scenario, pairs, reference, t_eval, h, probe points, overrides) of a
    convergence study; a malformed study raises before any run.

    ``study`` keys: scenario, pairs ([[p, n], ...]), reference ([p, n]),
    t_eval, h, optionally probe_points (an integer >= 2) and scenario
    overrides under "overrides".
    """
    _require_steps(study, "t_eval", "h")
    n_probe = study.get("probe_points", 101)
    if not isinstance(n_probe, numbers.Integral) or n_probe < 2:
        raise ValueError(f"probe_points must be an integer >= 2: {n_probe!r}")
    pairs = [tuple(pn) for pn in study["pairs"]]
    p_ref, n_ref = study["reference"]
    if any(n >= n_ref and p >= p_ref for p, n in pairs):
        raise ValueError("reference must be strictly finer than every study pair")
    return (study["scenario"], pairs, (p_ref, n_ref), study["t_eval"],
            study["h"], n_probe, dict(study.get("overrides", {})))


def run_convergence(study: dict, out_dir=None):
    """Spatial convergence of a scenario against a fine reference run.

    ``study`` is described in ``convergence_setup``.  Returns a result dict
    with per-pair errors and fitted pre-plateau slopes per degree.
    """
    name, pairs, (p_ref, n_ref), t_eval, h, n_probe, overrides = \
        convergence_setup(study)

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
                         floor: float | None = None) -> float:
    """Log-log slope of error vs n restricted to points above the plateau.

    The plateau floor is the smallest error in the sweep: ``floor`` when the
    caller fits one family of a multi-family sweep, else the smallest of
    ``errs``.  Points within a factor of 50 of it are excluded from the
    fit (they sit on the time-error / solver-tolerance floor, not on the
    spatial decay)."""
    if floor is None:
        floor = errs.min()
    mask = errs > 50.0 * floor
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
    # a flag left off is None, like every other override left off
    sub.add_argument("--elastic", action="store_true", default=None,
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
    return {k: getattr(args, k) for k in keys
            if getattr(args, k, None) is not None}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    # a configuration error is reported before any output or step
    try:
        config = load_config(args.config) if args.config else None
        if args.command == "converge":
            convergence_setup(config)
        else:
            setup = scenario_setup(getattr(args, "scenario", "custom"),
                                   _overrides_from(args), config=config)
        snaps = [float(t) for t in getattr(args, "snapshots", "").split(",")
                 if t]
        if snaps:
            check_snapshot_times(snaps, setup[2])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        model = setup[0]
        print(f"ok: {len(model.patches)} patches, {model.n_dofs()} unknowns, "
              f"{len(model.supports)} supports, {len(model.joints)} joints")
        return 0
    out = ensure_dir(args.out)
    try:
        if args.command == "converge":
            result = run_convergence(config, out_dir=out)
            for p, info in result["per_degree"].items():
                print(f"degree {p}: pre-plateau slope {info['slope']:.2f}, "
                      f"floor {info['floor']:.2e}")
            return 0
        sim, traj, params = run_model(args.scenario, *setup, out, snaps)
    except StepFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    print(f"{args.scenario}: {len(traj.times) - 1} steps, "
          f"{int(np.sum(traj.iterations))} Newton iterations, "
          f"{traj.wall_time:.2f} s wall time -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
