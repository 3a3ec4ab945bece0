"""Multi-patch beam system description and parametric geometry generators.

A model is a list of patches (each an initial NURBS curve with a section law,
Bishop frame field and Greville collocation set) plus supports, rigid joints
and load histories.  ``build_patches`` sets the patches up from their curves,
in groups that share degree, knots and weights.  Joints tie patch ends
together rigidly: the spatial translation and rotation increments of all
incident ends are equated and a massless balance of the spatial end
resultants closes the row budget.

The generators of the straight/curved lattice and of the re-entrant cell
structure list their members and hand them to one network builder,
``_network``, which makes the patches, the joints at shared nodes, the
supports, the loads and the probe.  Member curvature is controlled by
rotating the control points adjacent to the member ends, which rigidly
rotates the end tangents.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .initial_geometry import InitialFrameField, bishop_frames
from .so3 import exp_so3
from .splines import (KnotVector, NurbsCurve, check_integer, check_positive,
                      check_real, greville, interpolate_curve, line_curve,
                      to_arclength)
from .viscoelastic import SectionGeometry, SectionLaw, build_section_law

#: joint ends must coincide within this distance at t = 0 (meters)
JOINT_TOL = 1.0e-9

START, END = "start", "end"


def _constant(value, t):
    return value


def _impulse_hold_release(value, t, t_off):
    return value if t <= t_off else 0.0 * value


def _sine_ramp_hold(value, t, t_ramp):
    return value * np.sin(0.5 * np.pi * t / t_ramp) if t <= t_ramp else value


def _raised_sine_pulse(value, t, omega, t_end):
    if t <= t_end:
        return value * 0.5 * (1.0 - np.sin(omega * t + 0.5 * np.pi))
    return 0.0 * value


def _table(value, t, times, values):
    return np.array([np.interp(t, times, values[:, k]) for k in range(3)])


#: per load history kind: its evaluator ``f(value, t, **params)`` and the
#: keys of its configuration entries, in the order of the arguments of the
#: ``LoadHistory`` constructor of the same name; the evaluators are module
#: functions, so that a history that holds one can be pickled
HISTORY_KINDS = {
    "constant": (_constant, ("value",)),
    "impulse_hold_release": (_impulse_hold_release, ("value", "t_off")),
    "sine_ramp_hold": (_sine_ramp_hold, ("value", "t_ramp")),
    "raised_sine_pulse": (_raised_sine_pulse, ("peak", "omega", "t_end")),
    "table": (_table, ("times", "values")),
}


def _history_kind(kind: str):
    """(evaluator, configuration keys) of a load history kind."""
    try:
        return HISTORY_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown load history kind '{kind}'") from None


class LoadHistory:
    """Piecewise-defined vector load history, evaluable at any t >= 0; its
    value is a finite 3-vector, its parameters are finite, t_ramp > 0."""

    def __init__(self, kind: str, value, **params):
        self.kind = kind
        self._evaluate = _history_kind(kind)[0]
        self.value = np.asarray(value, dtype=float)
        if kind == "table":
            times, values = (np.asarray(params.get(k, ()), dtype=float)
                             for k in ("times", "values"))
            if (times.ndim != 1 or not times.size or values.shape != (
                    times.size, 3) or np.any(np.diff(times) <= 0.0)):
                raise ValueError("a table needs strictly increasing times and "
                                 "values shaped (len(times), 3)")
            params.update(times=times, values=values)
        else:
            for key, x in params.items():
                check_real(x, key, positive=key == "t_ramp")
        self.params = params
        if self.value.shape != (3,) or not all(
                np.isfinite(x).all() for x in (self.value, *params.values())):
            raise ValueError(f"load history '{kind}' needs a 3-vector value "
                             "and finite numbers")

    def __call__(self, t: float) -> np.ndarray:
        return self._evaluate(self.value, t, **self.params)

    @classmethod
    def constant(cls, value):
        return cls("constant", value)

    @classmethod
    def impulse_hold_release(cls, value, t_off: float):
        """Value applied from t = 0, removed after ``t_off``."""
        return cls("impulse_hold_release", value, t_off=t_off)

    @classmethod
    def sine_ramp_hold(cls, value, t_ramp: float):
        """Quarter-sine ramp reaching ``value`` at ``t_ramp``, then held."""
        return cls("sine_ramp_hold", value, t_ramp=t_ramp)

    @classmethod
    def raised_sine_pulse(cls, peak, omega: float, t_end: float):
        """peak/2 * (1 - sin(omega t + pi/2)) for t <= t_end, zero after.

        Starts from zero and reaches ``peak`` where the sine bottoms out."""
        return cls("raised_sine_pulse", peak, omega=omega, t_end=t_end)

    @classmethod
    def table(cls, times, values):
        """Linear interpolation of ``values`` (one row of 3 per time) over
        strictly increasing ``times``, held constant outside them."""
        return cls("table", np.zeros(3), times=times, values=values)


class Patch:
    """One beam patch: initial curve, section law, initial frame field at
    the collocation points and the basis stencils there, ``stencils`` =
    (support_idx, phi0, phi1, phi2); ``build_patches`` makes them."""

    def __init__(self, curve: NurbsCurve, law: SectionLaw,
                 frames: InitialFrameField, stencils):
        self.curve = curve
        self.law = law
        self.frames = frames
        self.n = len(frames.u)
        self.support_idx, self.phi0, self.phi1, self.phi2 = stencils

    def end_index(self, end: str) -> int:
        return 0 if end == START else self.n - 1

    def end_position(self, end: str) -> np.ndarray:
        return self.frames.c0[self.end_index(end)]


def build_patches(curves, law: SectionLaw) -> list[Patch]:
    """One patch per curve, in order, each with the section law ``law``.

    Collocation is at the Greville points.  Curves that share degree, knots
    and weights share their collocation points, transport grid and basis,
    so each such group is set up together: one ``bishop_frames`` call, whose
    grid pass gives the basis at the collocation points too, and one
    ``to_arclength`` for all of its curves.  A patch gets
    the same bits alone as in any group and with any number of BLAS
    threads: row dots are ``np.vecdot`` or stacked ``@`` (one BLAS call of
    the one-curve shape per row or curve), each curvature fit is its own
    ``lstsq``, and the elementwise operations do not depend on a value's
    position in its batch (see ``initial_geometry``).  The stencils phi0
    and support_idx are shared by the group, read-only.
    """
    groups = {}
    for k, c in enumerate(curves):
        key = (c.kv.degree, c.kv.knots.tobytes(), c.weights.tobytes())
        groups.setdefault(key, []).append(k)
    patches = [None] * len(curves)
    for members in groups.values():
        group = [curves[k] for k in members]
        kv, n = group[0].kv, group[0].kv.n
        u = greville(kv)
        fields, (first, (phi0, phi_u, phi_uu)) = bishop_frames(
            group, u, min_total=max(10 * n, 100))
        phi1, phi2 = to_arclength(phi_u, phi_uu, *(
            np.stack([getattr(f, name) for f in fields])[..., None]
            for name in ("jac", "jac_u")))
        support_idx = first[:, None] + np.arange(kv.degree + 1)
        for a in (phi0, support_idx):
            a.setflags(write=False)
        for k, f, p1, p2 in zip(members, fields, phi1, phi2):
            patches[k] = Patch(curves[k], law, f,
                               (support_idx, phi0, p1, p2))
    return patches


#: what each support kind holds: the global translation components it fixes
#: and whether it fixes the rotation; every other component of the end keeps
#: its force or moment row
SupportKind = namedtuple("SupportKind", "translations rotation")
SUPPORT_KINDS = {"clamp": SupportKind((0, 1, 2), True),
                 "hinge": SupportKind((0, 1, 2), False),
                 "roller_x3": SupportKind((2,), False)}


@dataclass
class Support:
    """Boundary support of one patch end: ``kind`` is a key of
    ``SUPPORT_KINDS``, and ``motion`` optionally prescribes the translation
    history of the end."""
    patch: int
    end: str
    kind: str
    motion: LoadHistory | None = None

    def __post_init__(self):
        if self.kind not in SUPPORT_KINDS:
            raise ValueError(f"unknown support kind '{self.kind}'")


@dataclass
class Joint:
    """Rigid joint tying two or more patch ends together (massless)."""
    ends: list[tuple[int, str]]
    force: LoadHistory | None = None
    moment: LoadHistory | None = None


@dataclass
class DistributedLoad:
    """Uniform distributed load history on one patch (spatial frame, N/m)."""
    patch: int
    force: LoadHistory
    moment: LoadHistory | None = None


@dataclass
class EndLoad:
    """Concentrated load history on a free patch end (spatial frame)."""
    patch: int
    end: str
    force: LoadHistory | None = None
    moment: LoadHistory | None = None


@dataclass
class Probe:
    """Displacement probe at a parametric location of a patch."""
    patch: int
    u: float
    name: str


class BeamModel:
    """Assembled multi-patch system; immutable after validation."""

    def __init__(self, patches, supports=(), joints=(), loads=(),
                 end_loads=(), probes=()):
        self.patches: list[Patch] = list(patches)
        self.supports: list[Support] = list(supports)
        self.joints: list[Joint] = list(joints)
        self.loads: list[DistributedLoad] = list(loads)
        self.end_loads: list[EndLoad] = list(end_loads)
        self.probes: list[Probe] = list(probes)
        self.validate()

    # -- bookkeeping ---------------------------------------------------------

    def n_dofs(self) -> int:
        return 6 * sum(p.n for p in self.patches)

    def validate(self) -> None:
        """Structural sanity: valid references, coincident joints, no
        conflicting conditions."""
        n_patches = len(self.patches)
        if not n_patches:
            raise ValueError("model has no patches")

        def end_key(patch, end, what):
            check_integer(patch, f"{what} patch")
            if not 0 <= patch < n_patches or end not in (START, END):
                raise ValueError(f"{what} references invalid end "
                                 f"{(patch, end)}")
            return patch, end

        seen_support = set()
        for s in self.supports:
            key = end_key(s.patch, s.end, "support")
            if key in seen_support:
                raise ValueError(f"duplicate support at {key}")
            seen_support.add(key)
        seen_joint = set()
        for joint in self.joints:
            if len(joint.ends) < 2:
                raise ValueError("joint needs at least two patch ends")
            keys = [end_key(*e, "joint") for e in joint.ends]
            pos = [self.patches[p].end_position(e) for p, e in keys]
            for q in pos[1:]:
                if np.linalg.norm(q - pos[0]) > JOINT_TOL:
                    raise ValueError("joint ends are not coincident at t = 0")
            for key in keys:
                if key in seen_joint:
                    raise ValueError(f"end {key} appears in two joints")
                seen_joint.add(key)
            if sum(key in seen_support for key in keys) > 1:
                raise ValueError("a joint may carry at most one support")
        for el in self.end_loads:
            key = end_key(el.patch, el.end, "end load")
            if key in seen_joint:
                raise ValueError("end load on a jointed end; attach it to the "
                                 "joint instead")
            if key in seen_support:
                raise ValueError("end load on a supported end")
        for load in self.loads:
            check_integer(load.patch, "distributed load patch")
            if not 0 <= load.patch < n_patches:
                raise ValueError("distributed load references invalid patch")
        names = set()
        for probe in self.probes:
            check_integer(probe.patch, f"probe '{probe.name}' patch")
            check_real(probe.u, f"probe '{probe.name}' u")
            if not 0 <= probe.patch < n_patches or not 0.0 <= probe.u <= 1.0:
                raise ValueError(f"probe '{probe.name}' references invalid "
                                 f"point {(probe.patch, probe.u)}")
            if probe.name in names:
                raise ValueError(f"duplicate probe name '{probe.name}'")
            names.add(probe.name)


# ---------------------------------------------------------------------------
# Analytic scenario geometries
# ---------------------------------------------------------------------------

def spivak_point(s: float) -> np.ndarray:
    """Piecewise curve with an exactly flat (zero-curvature) point at s = 0."""
    if s == 0.0:
        return np.zeros(3)
    bump = np.exp(-1.0 / s ** 2)
    if s < 0.0:
        return np.array([s, 0.0, bump])
    return np.array([s, bump, 0.0])


def spiral_point(t: float, scale: float = 1.0) -> np.ndarray:
    """Planar spiral [t sin t, t cos t, 0] times ``scale``."""
    return scale * np.array([t * np.sin(t), t * np.cos(t), 0.0])


def spivak_curve(degree: int = 6, n: int = 150) -> NurbsCurve:
    kv = KnotVector.open_uniform(degree, n)
    g = greville(kv)
    pts = np.array([spivak_point(-2.0 + 5.0 * u) for u in g])
    return interpolate_curve(g, pts, kv)


def spiral_curve(degree: int = 6, n: int = 250,
                 scale: float = 0.01) -> NurbsCurve:
    check_real(scale, "scale")
    kv = KnotVector.open_uniform(degree, n)
    g = greville(kv)
    t0, t1 = 2.0 * np.pi, 6.0 * np.pi
    pts = np.array([spiral_point(t0 + (t1 - t0) * u, scale) for u in g])
    return interpolate_curve(g, pts, kv)


# ---------------------------------------------------------------------------
# Beam networks: the lattice and the re-entrant cell structure
# ---------------------------------------------------------------------------

def _rot_z(psi: float) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _member_curve(a: np.ndarray, b: np.ndarray, degree: int, n: int,
                  rot_a: np.ndarray | None, rot_b: np.ndarray | None) -> NurbsCurve:
    """Straight member a -> b with the control points adjacent to the ends
    rotated about the respective end node (rigid end-tangent rotation)."""
    c = line_curve(a, b, degree, n)
    pts = c.points.copy()
    if rot_a is not None:
        pts[1] = a + rot_a @ (pts[1] - a)
    if rot_b is not None:
        pts[-2] = b + rot_b @ (pts[-2] - b)
    return NurbsCurve(c.kv, pts, c.weights)


def _network(members, law: SectionLaw, cell_size: float, degree: int,
             n_ctrl: int, support: str, supported, loaded, load, probe: int
             ) -> BeamModel:
    """Beam network of ``members`` (a, b, rotation about a, rotation about
    b), one ``_member_curve`` patch each in list order.

    A node is keyed by its coordinates rounded to 1e-6 of ``cell_size``.
    Every node with two or more member ends is a rigid joint (nodes in key
    order, ends in patch order); a node whose key satisfies ``supported``
    gets a ``support`` on its first end.  ``load`` (if given) acts on the
    ``loaded`` patches, and the probe 'node' sits on the end of ``probe``.
    """
    ends_at = {}
    for p, (a, b, _, _) in enumerate(members):
        for x, end in ((a, START), (b, END)):
            key = tuple(np.round(x / cell_size * 1e6).astype(int))
            ends_at.setdefault(key, []).append((p, end))
    joints = [Joint(ends=ends_at[key]) for key in sorted(ends_at)
              if len(ends_at[key]) >= 2]
    supports = [Support(*ends_at[key][0], kind=support)
                for key in sorted(ends_at) if supported(key)]
    loads = [DistributedLoad(p, load) for p in loaded] if load is not None else []
    patches = build_patches([_member_curve(a, b, degree, n_ctrl, rot_a, rot_b)
                             for a, b, rot_a, rot_b in members], law)
    return BeamModel(patches, supports=supports, joints=joints, loads=loads,
                     probes=[Probe(probe, 1.0, "node")])


def build_lattice(psi: float, law: SectionLaw, cells: int = 5,
                  cell_size: float = 0.012, degree: int = 3, n_ctrl: int = 8,
                  load: LoadHistory | None = None) -> BeamModel:
    """Planar lattice of ``cells x cells`` square cells in the (x1, x2) plane.

    The four control points surrounding every grid vertex are rotated about
    the vertex by ``psi`` (in plane), so each cross of member ends rotates
    rigidly and the members curve; psi = 0 gives the straight grid.  External
    nodes are hinged; ``load`` (if given) acts on the four members of the
    central cell, orthogonal to the initial plane.
    """
    if not 0.0 <= psi < 0.5 * np.pi:
        raise ValueError("psi must lie in [0, pi/2)")
    check_integer(cells, "cells", 1)
    check_positive(cell_size, "cell_size")
    nv = cells + 1
    Rz = _rot_z(psi) if psi != 0.0 else None

    def vertex(i, j):
        return np.array([i * cell_size, j * cell_size, 0.0])

    # horizontal members (i, j) -> (i + 1, j) row by row, then vertical ones
    members = ([(vertex(i, j), vertex(i + 1, j), Rz, Rz)
                for j in range(nv) for i in range(cells)]
               + [(vertex(i, j), vertex(i, j + 1), Rz, Rz)
                  for i in range(nv) for j in range(cells)])
    c = cells // 2
    h = c * cells + c  # lower member of the central cell
    v = nv * cells + c * cells + c  # its left member
    rim = (0, cells * 10 ** 6)  # node keys count 1e-6 cells
    return _network(members, law, cell_size, degree, n_ctrl, "hinge",
                    lambda key: key[0] in rim or key[1] in rim,
                    [h, h + cells, v, v + cells], load, h + cells)


def build_auxetic(psi: float, law: SectionLaw, nx: int = 5, ny: int = 1,
                  cell_size: float = 0.012, degree: int = 3, n_ctrl: int = 6,
                  load: LoadHistory | None = None) -> BeamModel:
    """Single-layer arrangement of ``nx x ny`` re-entrant cells of side
    ``a = cell_size``.

    The geometry is a reconstruction (the source gives only a figure); it is
    this, with x3 vertical and the plan grid nodes at (i a, j a, 0) for
    0 <= i <= nx, 0 <= j <= ny:

    * Columns: one vertical member of height a on every plan grid node,
      split at mid height into two patches of length a/2, so every column
      has a hub node at x3 = a/2.
    * Faces: every plan edge between grid nodes P and Q carries a bowtie in
      the vertical plane through the edge.  With B the edge midpoint at
      x3 = 0 and T the edge midpoint at x3 = a, four diagonals (one patch
      each, length a/sqrt(2)) run B -> hub(P), B -> hub(Q), T -> hub(P) and
      T -> hub(Q).
    * Top beams: two patches of length a/2 per edge, top(P) -> T and
      T -> top(Q); they carry ``load`` as a distributed load.
    * Joints: every node shared by two or more patch ends is a rigid joint.
    * Supports: every node at x3 = 0 (column bases and bottom-center nodes
      B) gets a vertical roller (``roller_x3``: x3 held, x1, x2 and the
      rotations free).
    * Curvature: ``psi`` rotates the control points adjacent to both ends of
      every diagonal about the face normal (opposite senses for the lower
      and upper diagonals), curving the diagonals; psi = 0 leaves every
      member straight.
    * Probe ``node``: the top-center node T nearest the plan centroid (ties
      broken lexicographically).

    The patch count is 2 (nx+1)(ny+1) columns plus 6 per plan edge; the
    default 5 x 1 plan has 16 edges and yields 120 patches.
    """
    if not 0.0 <= psi <= 0.25 * np.pi:
        raise ValueError("psi must lie in [0, pi/4]")
    check_integer(nx, "nx", 1)
    check_integer(ny, "ny", 1)
    check_positive(cell_size, "cell_size")
    a = cell_size
    half = 0.5 * a
    members = []
    for i in range(nx + 1):  # corner columns, split at mid height
        for j in range(ny + 1):
            base = np.array([i * a, j * a, 0.0])
            members += [(base, base + [0, 0, half], None, None),
                        (base + [0, 0, half], base + [0, 0, a], None, None)]

    def diagonal(x0, x1, normal):
        rot = exp_so3(psi * normal) if psi != 0.0 else None
        return x0, x1, rot, None if rot is None else rot.T

    # faces on every plan edge
    edges = ([((i, j), (i + 1, j)) for j in range(ny + 1) for i in range(nx)]
             + [((i, j), (i, j + 1)) for i in range(nx + 1) for j in range(ny)])
    top = []
    for (ia, ja), (ib, jb) in edges:
        pa = np.array([ia * a, ja * a, 0.0])
        pb = np.array([ib * a, jb * a, 0.0])
        normal = np.cross((pb - pa) / np.linalg.norm(pb - pa), [0.0, 0.0, 1.0])
        B = 0.5 * (pa + pb)
        T = B + [0.0, 0.0, a]
        for x, n in ((B, normal), (T, -normal)):
            members += [diagonal(x, pa + [0, 0, half], n),
                        diagonal(x, pb + [0, 0, half], n)]
        top += [len(members), len(members) + 1]
        members += [(pa + [0, 0, a], T, None, None),
                    (T, pb + [0, 0, a], None, None)]

    # probe: top-center node nearest the plan centroid (ties: lexicographic)
    center = np.array([0.5 * nx * a, 0.5 * ny * a])
    mids = [0.5 * (np.array(P) + np.array(Q)) * a for P, Q in edges]
    near = min(range(len(edges)), key=lambda k: (
        round(np.linalg.norm(mids[k] - center) / a, 9), *mids[k]))
    return _network(members, law, cell_size, degree, n_ctrl, "roller_x3",
                    lambda key: key[2] == 0, top, load, top[2 * near])


# ---------------------------------------------------------------------------
# JSON model configuration
# ---------------------------------------------------------------------------

CONFIG_VERSION = 1


def check_keys(section: dict, allowed, what: str) -> None:
    """Raise ``ValueError`` naming the keys of ``section`` not in ``allowed``."""
    unknown = set(section) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")


#: the keys of a section configuration, by its type
SECTION_KEYS = {"circle": ("diameter",), "square": ("side",),
                "custom": ("A", "A2", "A3", "Jt", "J2", "J3")}
#: per patch generator: the keys of its parameters, which it takes by name
#: with the degree and n
GENERATORS = {"line": (("start", "end"), line_curve),
              "spivak": ((), spivak_curve), "spiral": (("scale",), spiral_curve)}


def _entries(section: dict, key: str, allowed):
    """The entries of the list ``section[key]``, if any, checked for keys."""
    for entry in section.get(key, []):
        check_keys(entry, allowed, f"keys of an entry of {key}")
        yield entry


def _section_from_config(cfg: dict) -> SectionGeometry:
    kind = cfg.get("type", "custom")
    if kind not in SECTION_KEYS:
        raise ValueError(f"unknown section type {kind!r}")
    check_keys(cfg, ("type",) + SECTION_KEYS[kind], f"keys of a {kind} section")
    if kind == "circle":
        return SectionGeometry.circle(cfg["diameter"])
    if kind == "square":
        return SectionGeometry.square(cfg["side"])
    return SectionGeometry(A=cfg["A"], A2=cfg.get("A2", cfg["A"]),
                           A3=cfg.get("A3", cfg["A"]), Jt=cfg["Jt"],
                           J2=cfg["J2"], J3=cfg["J3"])


def _law_from_config(cfg: dict) -> SectionLaw:
    mat = cfg["material"]
    check_keys(mat, ("E_inf", "nu", "rho", "elements"), "material keys")
    elements = [(e["E"], e["tau"])
                for e in _entries(mat, "elements", ("E", "tau"))]
    return build_section_law(mat["E_inf"], mat["nu"], elements,
                             _section_from_config(cfg["section"]), mat["rho"])


def _history_from_config(cfg: dict) -> LoadHistory:
    _, keys = _history_kind(cfg["kind"])
    check_keys(cfg, ("kind",) + keys, f"keys of a {cfg['kind']} history")
    return getattr(LoadHistory, cfg["kind"])(*(cfg[key] for key in keys))


def model_from_config(cfg: dict) -> tuple[BeamModel, dict]:
    """Build a model from a configuration dictionary.

    Its top-level sections are version, material, section (of type circle,
    square or custom, the default), patches, supports, joints, loads, time
    (the keys h and T), newton and output; any other key raises
    ``ValueError``.  Returns the model and the ``time`` and ``newton``
    sections (empty when left out) for the caller.
    """
    check_keys(cfg, ("version", "material", "section", "patches", "supports",
                     "joints", "loads", "time", "newton", "output"),
               "configuration sections")
    check_keys(cfg.get("time", {}), ("h", "T"), "time settings")
    version = cfg.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {version}")
    law = _law_from_config(cfg)
    curves = []
    for pc in cfg["patches"]:
        if "generator" in pc:
            check_keys(pc, ("generator", "params", "degree", "n"),
                       "keys of a generated patch")
            if pc["generator"] not in GENERATORS:
                raise ValueError(f"unknown patch generator '{pc['generator']}'")
            keys, make = GENERATORS[pc["generator"]]
            pars = pc.get("params", {})
            check_keys(pars, keys, "generator params")
            curve = make(degree=pc.get("degree", 3), n=pc.get("n", 8), **pars)
        else:
            check_keys(pc, ("degree", "knots", "control_points", "weights"),
                       "keys of a patch")
            kv = KnotVector(pc["degree"], pc["knots"])
            curve = NurbsCurve(kv, pc["control_points"], pc.get("weights"))
        curves.append(curve)
    supports = [Support(s["patch"], s["end"], s["type"],
                        motion=_history_from_config(s["motion"])
                        if "motion" in s else None)
                for s in _entries(cfg, "supports",
                                  ("patch", "end", "type", "motion"))]
    joints = [Joint(ends=[tuple(e) for e in j["ends"]],
                    force=_history_from_config(j["force"]) if "force" in j else None,
                    moment=_history_from_config(j["moment"]) if "moment" in j else None)
              for j in _entries(cfg, "joints", ("ends", "force", "moment"))]
    loads, end_loads = [], []
    for lc in _entries(cfg, "loads", ("target", "history")):
        target = lc["target"]
        hist = _history_from_config(lc["history"])
        check_keys(target, ("kind", "patch") + (
            ("end",) if target["kind"] == "end" else ()), "keys of a load target")
        if target["kind"] == "distributed":
            loads.append(DistributedLoad(target["patch"], hist))
        elif target["kind"] == "end":
            end_loads.append(EndLoad(target["patch"], target["end"], force=hist))
        else:
            raise ValueError(f"unknown load target '{target['kind']}'")
    probes = [Probe(p["patch"], p["u"], p.get("name", f"probe{k}"))
              for k, p in enumerate(_entries(cfg.get("output", {}), "probes",
                                             ("patch", "u", "name")))]
    model = BeamModel(build_patches(curves, law), supports=supports,
                      joints=joints, loads=loads, end_loads=end_loads,
                      probes=probes)
    return model, {key: cfg.get(key, {}) for key in ("time", "newton")}


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
