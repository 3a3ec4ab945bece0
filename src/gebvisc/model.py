"""Multi-patch beam system description and parametric geometry generators.

A model is a list of patches (each an initial NURBS curve with a section law,
Bishop frame field and Greville collocation set) plus supports, rigid joints
and load histories.  Joints tie patch ends together rigidly: the spatial
translation and rotation increments of all incident ends are equated and a
massless balance of the spatial end resultants closes the row budget.

Generators build the straight/curved lattice and the re-entrant cell
structure; member curvature is controlled by rotating the control points
adjacent to the member ends, which rigidly rotates the end tangents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .initial_geometry import bishop_frames
from .so3 import exp_so3
from .splines import (KnotVector, NurbsCurve, basis_eval, greville,
                      interpolate_curve, line_curve, to_arclength)
from .viscoelastic import SectionGeometry, SectionLaw, build_section_law

#: joint ends must coincide within this distance at t = 0 (meters)
JOINT_TOL = 1.0e-9

START, END = "start", "end"


def _sine_ramp_hold(value, t, t_ramp):
    return value * np.sin(0.5 * np.pi * t / t_ramp) if t <= t_ramp else value


def _raised_sine_pulse(value, t, omega, t_end):
    if t <= t_end:
        return value * 0.5 * (1.0 - np.sin(omega * t + 0.5 * np.pi))
    return 0.0 * value


def _table(value, t, times, values):
    out = np.empty(3)
    for k in range(3):
        out[k] = np.interp(t, times, np.asarray(values)[:, k])
    return out


#: per load history kind: its evaluator ``f(value, t, **params)`` and the
#: keys of its configuration entries, in the order of the arguments of the
#: ``LoadHistory`` constructor of the same name
HISTORY_KINDS = {
    "constant": (lambda value, t: value, ("value",)),
    "impulse_hold_release": (
        lambda value, t, t_off: value if t <= t_off else 0.0 * value,
        ("value", "t_off")),
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
    """Piecewise-defined vector load history, evaluable at any t >= 0."""

    def __init__(self, kind: str, value, **params):
        self.kind = kind
        self.value = np.asarray(value, dtype=float)
        self.params = params

    def __call__(self, t: float) -> np.ndarray:
        return _history_kind(self.kind)[0](self.value, t, **self.params)

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
        return cls("table", np.zeros(3), times=np.asarray(times, dtype=float),
                   values=np.asarray(values, dtype=float))


class Patch:
    """One beam patch: initial curve, section law and collocation data."""

    def __init__(self, curve: NurbsCurve, law: SectionLaw,
                 oversample: int = 10, min_transport: int | None = None):
        self.curve = curve
        self.law = law
        self.collocation = greville(curve.kv)
        n = len(self.collocation)
        if min_transport is None:
            min_transport = max(10 * n, 100)
        self.frames = bishop_frames(curve, self.collocation,
                                    oversample=oversample,
                                    min_total=min_transport)
        p = curve.kv.degree
        self.degree = p
        self.n = n
        # basis support and s-converted derivative stencils per point
        w = curve.weights if curve.is_rational else None
        self.support_first = np.empty(n, dtype=int)
        self.phi0 = np.empty((n, p + 1))
        self.phi1 = np.empty((n, p + 1))
        self.phi2 = np.empty((n, p + 1))
        for i, u in enumerate(self.collocation):
            first, ders = basis_eval(curve.kv, u, 2, w)
            self.support_first[i] = first
            J, J_u = self.frames.jac[i], self.frames.jac_u[i]
            d1, d2 = to_arclength(ders[1], ders[2], J, J_u)
            self.phi0[i] = ders[0]
            self.phi1[i] = d1
            self.phi2[i] = d2
        self.support_idx = self.support_first[:, None] + np.arange(p + 1)

    def end_index(self, end: str) -> int:
        return 0 if end == START else self.n - 1

    def end_sign(self, end: str) -> float:
        """Outward normal of the end: -1 at u = 0, +1 at u = 1."""
        return -1.0 if end == START else 1.0

    def end_position(self, end: str) -> np.ndarray:
        return self.frames.c0[self.end_index(end)]


@dataclass
class Support:
    """Boundary support of one patch end.

    ``kind``: 'clamp' (all six components fixed), 'hinge' (translations fixed,
    moment free) or 'roller_x3' (global x3 translation fixed, the rest free).
    ``motion`` optionally prescribes the translation history of the end.
    """
    patch: int
    end: str
    kind: str
    motion: LoadHistory | None = None

    def __post_init__(self):
        if self.kind not in ("clamp", "hinge", "roller_x3"):
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

    def supported_ends(self) -> dict[tuple[int, str], Support]:
        return {(s.patch, s.end): s for s in self.supports}

    def validate(self) -> None:
        """Structural sanity: coincident joints, no conflicting conditions."""
        n_patches = len(self.patches)
        seen_support = set()
        for s in self.supports:
            key = (s.patch, s.end)
            if not 0 <= s.patch < n_patches or s.end not in (START, END):
                raise ValueError(f"support references invalid end {key}")
            if key in seen_support:
                raise ValueError(f"duplicate support at {key}")
            seen_support.add(key)
        seen_joint = set()
        for joint in self.joints:
            if len(joint.ends) < 2:
                raise ValueError("joint needs at least two patch ends")
            pos = [self.patches[p].end_position(e) for p, e in joint.ends]
            for q in pos[1:]:
                if np.linalg.norm(q - pos[0]) > JOINT_TOL:
                    raise ValueError("joint ends are not coincident at t = 0")
            for e in joint.ends:
                key = tuple(e)
                if key in seen_joint:
                    raise ValueError(f"end {key} appears in two joints")
                seen_joint.add(key)
        jointed = set(seen_joint)
        for el in self.end_loads:
            key = (el.patch, el.end)
            if key in jointed:
                raise ValueError("end load on a jointed end; attach it to the "
                                 "joint instead")
            if key in seen_support:
                raise ValueError("end load on a supported end")
        for load in self.loads:
            if not 0 <= load.patch < n_patches:
                raise ValueError("distributed load references invalid patch")


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
    kv = KnotVector.open_uniform(degree, n)
    g = greville(kv)
    t0, t1 = 2.0 * np.pi, 6.0 * np.pi
    pts = np.array([spiral_point(t0 + (t1 - t0) * u, scale) for u in g])
    return interpolate_curve(g, pts, kv)


# ---------------------------------------------------------------------------
# Lattice generator: square grid with rigidly rotated crosses
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
    nv = cells + 1
    Rz = _rot_z(psi) if psi != 0.0 else None

    def vertex(i, j):
        return np.array([i * cell_size, j * cell_size, 0.0])

    patches = []
    members = {}  # (vi, vj) grid pairs -> patch index

    def add_member(va, vb):
        a, b = vertex(*va), vertex(*vb)
        curve = _member_curve(a, b, degree, n_ctrl, Rz, Rz)
        members[(va, vb)] = len(patches)
        patches.append(Patch(curve, law))

    for j in range(nv):
        for i in range(cells):
            add_member((i, j), (i + 1, j))
    for i in range(nv):
        for j in range(cells):
            add_member((i, j), (i, j + 1))

    # joints at every vertex; hinge supports at the boundary vertices
    incidences = {}
    for (va, vb), p in members.items():
        incidences.setdefault(va, []).append((p, START))
        incidences.setdefault(vb, []).append((p, END))
    joints = []
    supports = []
    for v in sorted(incidences):
        ends = incidences[v]
        joints.append(Joint(ends=ends))
        if v[0] in (0, cells) or v[1] in (0, cells):
            supports.append(Support(*ends[0], kind="hinge"))

    loads = []
    if load is not None:
        c = cells // 2
        targets = [members[((c, c), (c + 1, c))],
                   members[((c, c + 1), (c + 1, c + 1))],
                   members[((c, c), (c, c + 1))],
                   members[((c + 1, c), (c + 1, c + 1))]]
        loads = [DistributedLoad(p, load) for p in targets]

    c = cells // 2
    probe_vertex = (c + 1, c + 1)
    probe_patch = members[((c, c + 1), (c + 1, c + 1))]
    probes = [Probe(probe_patch, 1.0, "node")]
    return BeamModel(patches, supports=supports, joints=joints, loads=loads,
                     probes=probes)


# ---------------------------------------------------------------------------
# Re-entrant (auxetic) cell structure generator
# ---------------------------------------------------------------------------

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
    a = cell_size
    half = 0.5 * a
    patches = []
    ends_at = {}  # node (rounded tuple) -> [(patch, end)]

    def node_key(x):
        return tuple(np.round(np.asarray(x) / a * 1e6).astype(int))

    def add(curve):
        patches.append(Patch(curve, law))
        return len(patches) - 1

    def register(p, x_start, x_end):
        ends_at.setdefault(node_key(x_start), []).append((p, START))
        ends_at.setdefault(node_key(x_end), []).append((p, END))

    def add_line(x0, x1):
        p = add(line_curve(x0, x1, degree, n_ctrl))
        register(p, x0, x1)
        return p

    def add_diagonal(x0, x1, normal):
        rot = exp_so3(psi * np.asarray(normal)) if psi != 0.0 else None
        rot_b = None if rot is None else rot.T
        p = add(_member_curve(np.asarray(x0, dtype=float),
                              np.asarray(x1, dtype=float), degree, n_ctrl,
                              rot, rot_b))
        register(p, x0, x1)
        return p

    # corner columns, split at mid height
    for i in range(nx + 1):
        for j in range(ny + 1):
            base = np.array([i * a, j * a, 0.0])
            add_line(base, base + [0, 0, half])
            add_line(base + [0, 0, half], base + [0, 0, a])

    # faces on every plan edge
    top_beams = []
    edges = []
    for j in range(ny + 1):
        for i in range(nx):
            edges.append(((i, j), (i + 1, j)))
    for i in range(nx + 1):
        for j in range(ny):
            edges.append(((i, j), (i, j + 1)))
    for (ia, ja), (ib, jb) in edges:
        pa = np.array([ia * a, ja * a, 0.0])
        pb = np.array([ib * a, jb * a, 0.0])
        d = (pb - pa) / np.linalg.norm(pb - pa)
        normal = np.cross(d, [0.0, 0.0, 1.0])
        B = 0.5 * (pa + pb)
        T = B + [0.0, 0.0, a]
        hub_a = pa + [0, 0, half]
        hub_b = pb + [0, 0, half]
        add_diagonal(B, hub_a, normal)
        add_diagonal(B, hub_b, normal)
        add_diagonal(T, hub_a, -normal)
        add_diagonal(T, hub_b, -normal)
        top_beams.append(add_line(pa + [0, 0, a], T))
        top_beams.append(add_line(T, pb + [0, 0, a]))

    joints = []
    supports = []
    for key in sorted(ends_at):
        ends = ends_at[key]
        at_bottom = key[2] == 0
        if len(ends) >= 2:
            joints.append(Joint(ends=ends))
        if at_bottom:
            supports.append(Support(*ends[0], kind="roller_x3"))

    loads = []
    if load is not None:
        loads = [DistributedLoad(p, load) for p in top_beams]

    # probe: top-center node nearest the plan centroid (ties: lexicographic)
    center = np.array([0.5 * nx * a, 0.5 * ny * a])
    best = None
    for (ia, ja), (ib, jb) in edges:
        T = 0.5 * (np.array([ia, ja]) + np.array([ib, jb])) * a
        d = np.linalg.norm(T - center)
        cand = (round(d / a, 9), T[0], T[1])
        if best is None or cand < best[0]:
            best = (cand, T)
    probe_T = np.array([best[1][0], best[1][1], a])
    probe_patch = None
    for p in top_beams:
        if np.linalg.norm(patches[p].end_position(END) - probe_T) < JOINT_TOL:
            probe_patch = p
            break
    probes = [Probe(probe_patch, 1.0, "node")] if probe_patch is not None else []
    return BeamModel(patches, supports=supports, joints=joints, loads=loads,
                     probes=probes)


# ---------------------------------------------------------------------------
# JSON model configuration
# ---------------------------------------------------------------------------

CONFIG_VERSION = 1


def _section_from_config(cfg: dict) -> SectionGeometry:
    kind = cfg.get("type", "custom")
    if kind == "circle":
        return SectionGeometry.circle(cfg["diameter"])
    if kind == "square":
        return SectionGeometry.square(cfg["side"])
    return SectionGeometry(A=cfg["A"], A2=cfg.get("A2", cfg["A"]),
                           A3=cfg.get("A3", cfg["A"]), Jt=cfg["Jt"],
                           J2=cfg["J2"], J3=cfg["J3"])


def _law_from_config(cfg: dict) -> SectionLaw:
    mat = cfg["material"]
    elements = [(e["E"], e["tau"]) for e in mat.get("elements", [])]
    return build_section_law(mat["E_inf"], mat["nu"], elements,
                             _section_from_config(cfg["section"]), mat["rho"])


def _history_from_config(cfg: dict) -> LoadHistory:
    kind = cfg["kind"]
    _, keys = _history_kind(kind)
    return getattr(LoadHistory, kind)(*(cfg[key] for key in keys))


def model_from_config(cfg: dict) -> tuple[BeamModel, dict]:
    """Build a model from a configuration dictionary.

    Returns the model and the ``time`` and ``newton`` sections (empty when
    left out) for the caller.
    """
    version = cfg.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {version}")
    law = _law_from_config(cfg)
    patches = []
    for pc in cfg["patches"]:
        if "generator" in pc:
            gen = pc["generator"]
            pars = pc.get("params", {})
            degree = pc.get("degree", 3)
            n = pc.get("n", 8)
            if gen == "line":
                curve = line_curve(pars["start"], pars["end"], degree, n)
            elif gen == "spivak":
                curve = spivak_curve(degree, n)
            elif gen == "spiral":
                curve = spiral_curve(degree, n, pars.get("scale", 0.01))
            else:
                raise ValueError(f"unknown patch generator '{gen}'")
        else:
            kv = KnotVector(pc["degree"], pc["knots"])
            curve = NurbsCurve(kv, pc["control_points"], pc.get("weights"))
        patches.append(Patch(curve, law))
    supports = [Support(s["patch"], s["end"], s["type"],
                        motion=_history_from_config(s["motion"])
                        if "motion" in s else None)
                for s in cfg.get("supports", [])]
    joints = [Joint(ends=[tuple(e) for e in j["ends"]],
                    force=_history_from_config(j["force"]) if "force" in j else None,
                    moment=_history_from_config(j["moment"]) if "moment" in j else None)
              for j in cfg.get("joints", [])]
    loads = []
    end_loads = []
    for lc in cfg.get("loads", []):
        target = lc["target"]
        hist = _history_from_config(lc["history"])
        if target["kind"] == "distributed":
            loads.append(DistributedLoad(target["patch"], hist))
        elif target["kind"] == "end":
            end_loads.append(EndLoad(target["patch"], target["end"], force=hist))
        else:
            raise ValueError(f"unknown load target '{target['kind']}'")
    probes = [Probe(p["patch"], p["u"], p.get("name", f"probe{k}"))
              for k, p in enumerate(cfg.get("output", {}).get("probes", []))]
    model = BeamModel(patches, supports=supports, joints=joints, loads=loads,
                      end_loads=end_loads, probes=probes)
    extras = {key: cfg.get(key, {}) for key in ("time", "newton")}
    return model, extras


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
