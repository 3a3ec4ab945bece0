"""Benchmark scenario library.

Each scenario builds a ready-to-run model with the published benchmark
parameters as defaults; every number here is asserted against the constants
table in the test suite.  Overrides (time step, end time, discretization,
elastic comparison material, cell curvature angle, grid dims) come in through
a plain dict so the CLI can map flags straight onto them.
"""

from __future__ import annotations

import numpy as np

from .model import (BeamModel, DistributedLoad, EndLoad, LoadHistory, Probe,
                    Support, build_auxetic, build_lattice, build_patches,
                    check_keys, spiral_curve, spivak_curve)
from .splines import check_bool, check_integer, check_real, line_curve
from .viscoelastic import SectionGeometry, SectionLaw, build_section_law

GRAVITY = 9.81

#: 8-branch filament material (moduli in Pa, relaxation times in s)
PLA_ELEMENTS = ((1.577e8, 0.02), (3.610e7, 0.18), (4.095e8, 17.0),
                (7.580e8, 117.0), (1.200e6, 1000.0), (5.800e6, 1600.0),
                (5.500e5, 1.0e4), (1.600e5, 1.0e5))
PLA_E_INF = 2.80e5
PLA_NU = 0.4
PLA_RHO = 1250.0

#: scenario defaults; the CLI and the defaults test consume this table
SCENARIO_DEFAULTS = {
    "pendulum": dict(length=1.0, diameter=0.01, rho=1100.0, nu=0.5,
                     E_inf=5.0e5, elements=((4.5e6, 0.1),), q3=-0.8475,
                     T=2.0, h=5.0e-3, degree=4, n=40),
    "cantilever": dict(length=1.0, side=0.01, rho=7800.0, nu=0.2,
                       E_inf=2.1e10, elements=((1.89e11, 0.1),), F3=-100.0,
                       T=0.5, h=5.0e-4, degree=4, n=40),
    "spivak": dict(side=0.1, rho=700.0, nu=0.0, E_inf=5.614e8,
                   elements=((7.439e9, 0.1),), F3=500.0, t_off=0.5,
                   T=6.0, h=1.0e-3, degree=6, n=150),
    "spiral": dict(radius=0.25e-2, scale=0.01, F3=-1.0, t_ramp=0.5,
                   T=4.0, h=5.0e-3, degree=6, n=250),
    "lattice": dict(cells=5, cell_size=0.012, diameter=0.8e-3, q3=-100.0,
                    omega=4.0 * np.pi, t_load=2.0, psi=0.0,
                    T=4.0, h=5.0e-3, degree=3, n=8),
    "auxetic": dict(nx=5, ny=1, cell_size=0.012, diameter=0.25e-3, q3=-24.1,
                    omega=16.0 * np.pi, t_load=0.25, psi=0.0,
                    T=0.5, h=1.25e-3, degree=3, n=6),
}

SCENARIO_NAMES = tuple(SCENARIO_DEFAULTS) + ("custom",)


def pla_law(diameter: float) -> SectionLaw:
    return build_section_law(PLA_E_INF, PLA_NU, PLA_ELEMENTS,
                             SectionGeometry.circle(diameter), PLA_RHO)


def _merge(name: str, overrides: dict | None) -> dict:
    cfg = dict(SCENARIO_DEFAULTS[name])
    if overrides:
        check_keys(overrides, [*cfg, "elastic"], f"overrides for '{name}'")
        # an override is of the kind of its default; the one flag, elastic,
        # has none and is off unless given
        checks = {int: check_integer, float: check_real, bool: check_bool}
        for k, v in overrides.items():
            check = checks.get(type(cfg.get(k, False)))
            if check and v is not None:
                check(v, f"override '{k}' for '{name}'")
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def _maybe_elastic(law: SectionLaw, overrides) -> SectionLaw:
    if overrides and overrides.get("elastic"):
        return law.elastic_limit()
    return law


def build_pendulum(overrides: dict | None = None):
    """Flexible pendulum: hinged straight beam swinging under self-weight."""
    c = _merge("pendulum", overrides)
    law = _maybe_elastic(build_section_law(
        c["E_inf"], c["nu"], c["elements"],
        SectionGeometry.circle(c["diameter"]), c["rho"]), overrides)
    curve = line_curve([0, 0, 0], [0, c["length"], 0], c["degree"], c["n"])
    model = BeamModel(
        build_patches([curve], law),
        supports=[Support(0, "start", "hinge")],
        loads=[DistributedLoad(0, LoadHistory.constant([0, 0, c["q3"]]))],
        probes=[Probe(0, 1.0, "tip")])
    return model, c


def build_cantilever(overrides: dict | None = None):
    """Straight cantilever hit by a suddenly applied constant tip force."""
    c = _merge("cantilever", overrides)
    law = _maybe_elastic(build_section_law(
        c["E_inf"], c["nu"], c["elements"],
        SectionGeometry.square(c["side"]), c["rho"]), overrides)
    curve = line_curve([0, 0, 0], [0, c["length"], 0], c["degree"], c["n"])
    model = BeamModel(
        build_patches([curve], law),
        supports=[Support(0, "start", "clamp")],
        end_loads=[EndLoad(0, "end",
                           force=LoadHistory.constant([0, 0, c["F3"]]))],
        probes=[Probe(0, 1.0, "tip")])
    return model, c


def build_spivak(overrides: dict | None = None):
    """Clamped beam on the piecewise flat-point curve, tip force held then
    released."""
    c = _merge("spivak", overrides)
    law = _maybe_elastic(build_section_law(
        c["E_inf"], c["nu"], c["elements"],
        SectionGeometry.square(c["side"]), c["rho"]), overrides)
    curve = spivak_curve(c["degree"], c["n"])
    model = BeamModel(
        build_patches([curve], law),
        supports=[Support(0, "start", "clamp")],
        end_loads=[EndLoad(0, "end", force=LoadHistory.impulse_hold_release(
            [0, 0, c["F3"]], c["t_off"]))],
        probes=[Probe(0, 1.0, "tip")])
    return model, c


def build_spiral(overrides: dict | None = None):
    """Hinged planar spiral under self-weight plus a ramped vertical tip
    force; deforms into a fully three-dimensional motion."""
    c = _merge("spiral", overrides)
    law = _maybe_elastic(pla_law(2.0 * c["radius"]), overrides)
    curve = spiral_curve(c["degree"], c["n"], c["scale"])
    model = BeamModel(
        build_patches([curve], law),
        supports=[Support(0, "start", "hinge")],
        loads=[DistributedLoad(0, LoadHistory.constant(
            [0, 0, -law.mu * GRAVITY]))],
        end_loads=[EndLoad(0, "end", force=LoadHistory.sine_ramp_hold(
            [0, 0, c["F3"]], c["t_ramp"]))],
        probes=[Probe(0, 1.0, "tip")])
    return model, c


def build_lattice_scenario(overrides: dict | None = None):
    """Hinged planar lattice, out-of-plane pulse load on the central cell."""
    c = _merge("lattice", overrides)
    law = _maybe_elastic(pla_law(c["diameter"]), overrides)
    hist = LoadHistory.raised_sine_pulse([0, 0, c["q3"]], c["omega"],
                                         c["t_load"])
    model = build_lattice(c["psi"], law, cells=c["cells"],
                          cell_size=c["cell_size"], degree=c["degree"],
                          n_ctrl=c["n"], load=hist)
    return model, c


def build_auxetic_scenario(overrides: dict | None = None):
    """Re-entrant cell structure, vertical rollers below, pulsed top load."""
    c = _merge("auxetic", overrides)
    law = _maybe_elastic(pla_law(c["diameter"]), overrides)
    hist = LoadHistory.raised_sine_pulse([0, 0, c["q3"]], c["omega"],
                                         c["t_load"])
    model = build_auxetic(c["psi"], law, nx=c["nx"], ny=c["ny"],
                          cell_size=c["cell_size"], degree=c["degree"],
                          n_ctrl=c["n"], load=hist)
    return model, c


BUILDERS = {
    "pendulum": build_pendulum,
    "cantilever": build_cantilever,
    "spivak": build_spivak,
    "spiral": build_spiral,
    "lattice": build_lattice_scenario,
    "auxetic": build_auxetic_scenario,
}


def build_scenario(name: str, overrides: dict | None = None):
    """Model plus resolved parameter dict for a named scenario."""
    if name not in BUILDERS:
        raise ValueError(f"unknown scenario '{name}' "
                         f"(available: {', '.join(BUILDERS)})")
    return BUILDERS[name](overrides)
