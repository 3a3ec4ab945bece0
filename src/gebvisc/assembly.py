"""Global square system assembly, Newton iteration and time marching.

Unknowns are the incremental control translations and rotations, six per
control point, patch-major.  Field equations are collocated at the interior
Greville points; every patch end owns six boundary rows filled by a support,
a rigid joint or free-end force/couple conditions.  The system is square by
construction, its sparsity pattern is fixed when the simulation is built,
and after row equilibration it is solved by a sparse LU in a fill-reducing
order kept per nonzero structure.  Patches that share a section law are
stacked into one collocation state, so the residual and tangent kernels, the
increment update and the step commit run once per law per Newton iteration,
whatever the number of patches.  The boundary and joint rows are planned at
construction as index arrays over the patch ends: each end kernel runs at
most once per law stack, on all the ends that need it, and the rows are
written by index assignment, whatever the number of ends and joints.
"""

from __future__ import annotations

import hashlib
import logging
import time as _time
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import so3
from .beam_residual import (CollocationState, end_force_spatial,
                            end_moment_spatial, neumann_force_row,
                            neumann_moment_row, residual_force,
                            residual_moment, tangent_blocks_force,
                            tangent_blocks_moment)
from .initial_geometry import InitialFrameField
from .integrator import (StepFailure, apply_increment, begin_step, commit_step,
                         initialize_accelerations)
from .model import END, START, BeamModel
from .splines import basis_eval, basis_matrices
from .viscoelastic import effective_stiffness

log = logging.getLogger(__name__)

@dataclass
class NewtonSettings:
    """Newton-Raphson controls.

    Convergence is declared on the increment norm relative to the accumulated
    step increment (with an absolute floor of one), or immediately when the
    equilibrated residual is negligible.  A step fails on iteration
    exhaustion or when the residual grows three times in a row; the driver
    then retries with up to ``max_halvings`` step halvings.
    """
    max_iterations: int = 25
    tol_increment: float = 1.0e-8
    tol_residual: float = 1.0e-12
    max_halvings: int = 3
    #: cap on the increment inf-norm used only by the failure-retry path
    #: (None: no capped retry); the first attempt of every step is always
    #: plain (undamped) Newton
    retry_increment_cap: float | None = 0.3

    def __post_init__(self):
        if self.tol_increment <= 0 or self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.max_halvings < 0:
            raise ValueError("max_halvings must not be negative")
        if self.retry_increment_cap is not None and \
                self.retry_increment_cap <= 0:
            raise ValueError("retry_increment_cap must be positive or None")

    @classmethod
    def from_config(cls, section: dict) -> "NewtonSettings":
        """Settings from the ``newton`` section of a model configuration;
        keys left out keep their defaults."""
        unknown = set(section) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown newton settings: {sorted(unknown)}")
        return cls(**section)


@dataclass
class NewtonReport:
    converged: bool
    iterations: int
    residual_norms: list = field(default_factory=list)
    increment_norms: list = field(default_factory=list)


class PatchRuntime:
    """Mutable simulation data of the patches that share one section law: one
    collocation state over all their points and their stacked control nets.

    Patches are stacked in model order.  A patch has as many control points
    as collocation points, so ``pts[j]`` selects patch ``patches[j]`` in the
    state and in ``ctrl`` alike; ``points`` is the global index of every
    stacked point (six rows of the system) and control point (six unknowns).
    """

    def __init__(self, model: BeamModel, patches: list[int], first: np.ndarray):
        # ``first``: global index of the first point of every patch, then
        # the number of points
        members = [model.patches[k] for k in patches]
        self.law = members[0].law
        self.patches = patches
        self.state = CollocationState(InitialFrameField(*(
            np.concatenate([getattr(p.frames, name) for p in members])
            for name in ("u", "c0", "c0_s", "c0_ss", "R0", "K0", "K0_s",
                         "jac", "jac_u"))), self.law)
        self.ctrl = np.concatenate([p.curve.points for p in members])
        start = np.cumsum([0] + [p.n for p in members])
        self.pts = [slice(a, b) for a, b in zip(start[:-1], start[1:])]
        self.points = np.concatenate([first[k] + np.arange(p.n)
                                      for k, p in zip(patches, members)])
        self.patch_of_point = np.repeat(patches, np.diff(start))
        # per patch: stencils (point, value/,s/,ss, control point) and the
        # global control points they act on
        phi = [np.stack([p.phi0, p.phi1, p.phi2], axis=1) for p in members]
        cols = [first[k] + p.support_idx for k, p in zip(patches, members)]
        indptr = np.cumsum([0] + [c.shape[1] for c in cols for _ in c])
        self._interp = [sp.csr_matrix(
            (np.concatenate([f[:, d].ravel() for f in phi]),
             np.concatenate([c.ravel() for c in cols]), indptr),
            shape=(len(self.points), first[-1])) for d in range(3)]
        #: interior points by stencil width: (stacked points, global
        #: points, stencils, stencil control points)
        self.interior = []
        for width in sorted({c.shape[1] for c in cols}):
            js = [j for j, c in enumerate(cols) if c.shape[1] == width]
            sel = np.concatenate([np.arange(start[j] + 1, start[j + 1] - 1)
                                  for j in js])
            self.interior.append((sel, self.points[sel],
                                  np.concatenate([phi[j][1:-1] for j in js]),
                                  np.concatenate([cols[j][1:-1] for j in js])))

    def snapshot(self):
        return (self.state.copy(), self.ctrl.copy())

    def restore(self, snap):
        """Adopt a snapshot; it must not be restored a second time."""
        self.state, self.ctrl = snap

    def interp(self, dctrl: np.ndarray):
        """Increment fields (value, ,s, ,ss) at the stacked points from the
        global control increments ``dctrl`` (control points, 6)."""
        return tuple(m @ dctrl for m in self._interp)


#: where a patch lives: its law stack ``rt`` and its points ``rt.*[pts]``
PatchSlot = namedtuple("PatchSlot", "patch rt pts")


#: translation components each support kind fixes (None: no support); the
#: other components keep their force rows
FIXED = {None: [], "clamp": [0, 1, 2], "hinge": [0, 1, 2], "roller_x3": [2]}


#: ends of one law stack that one end kernel evaluates: their end ids (2 k
#: and 2 k + 1 for the start and the end of patch k), stacked points and
#: outward signs, and the term and point (six rows) of their own slots
EndGroup = namedtuple("EndGroup", "ends pts sign terms slots")


class Simulation:
    """Owns the runtime states of a model and advances them in time.

    Patches that share a section law share one ``PatchRuntime`` in
    ``stacks``; ``runtimes[k]`` tells where patch ``k`` lives in it.
    """

    def __init__(self, model: BeamModel, settings: NewtonSettings | None = None):
        self.model = model
        self.settings = settings or NewtonSettings()
        first = np.cumsum([0] + [p.n for p in model.patches])
        self.offsets = 6 * first[:-1]
        self.ndof = int(6 * first[-1])
        groups = {}
        for k, p in enumerate(model.patches):
            groups.setdefault(id(p.law), []).append(k)
        self.stacks = [PatchRuntime(model, ks, first) for ks in groups.values()]
        slots = {k: PatchSlot(model.patches[k], rt, pts)
                 for rt in self.stacks for k, pts in zip(rt.patches, rt.pts)}
        self.runtimes = [slots[k] for k in range(len(model.patches))]
        self.t = 0.0
        self.total_iterations = 0
        self._resume = None
        self._supported = model.supported_ends()
        self._plan_probes()
        self._plan_boundary()
        self._plan_pattern()
        #: fill-reducing order per nonzero structure of the solved systems
        self._lu_orders = {}
        self._lu_indptr = self._lu_indices = None
        self._init_conditions()

    # -- construction helpers ------------------------------------------------

    def _plan_probes(self):
        """Basis row and first control point of every probe in its stack."""
        self._probes = {}
        for probe in self.model.probes:
            patch, rt, pts = self.runtimes[probe.patch]
            c = patch.curve
            first, ders = basis_eval(c.kv, probe.u, 0,
                                     c.weights if c.is_rational else None)
            self._probes[probe.name] = (rt, pts.start + first, ders[0],
                                        c.points[first:first + len(ders[0])])

    def _plan_boundary(self):
        """End terms of the boundary and joint rows, and the index arrays
        that fill them in one pass.

        A term couples the six rows of one end's slot with the value and ,s
        stencils of one end: its own, or in a joint that of the joint's first
        end.  Joints list their supported end first; its slot holds the
        balance terms of every end, the other slots their continuity terms.
        End g is the start (g = 2 k) or the end (g = 2 k + 1) of patch k.
        """
        keys = [(k, end) for k in range(len(self.runtimes))
                for end in (START, END)]
        gid = {key: g for g, key in enumerate(keys)}
        n = len(keys)
        terms = []

        def term(slot_end, stencil_end):
            k, end = slot_end
            row = self.offsets[k] + 6 * self.runtimes[k].patch.end_index(end)
            k, end = stencil_end
            terms.append((row, k, self.runtimes[k].patch.end_index(end)))
            return len(terms) - 1

        # per end: the term of its own slot and stencil, the term that takes
        # its spatial force and couple blocks, and the first end of its joint
        # (itself off joints), whose support fixes translation rows
        own, force = np.empty(n, dtype=int), np.empty(n, dtype=int)
        lead = np.arange(n)
        joint_ends, continuity = [], []
        for joint in self.model.joints:
            ends = [tuple(e) for e in joint.ends]
            sup = [e for e in ends if e in self._supported]
            if len(sup) > 1:
                raise ValueError("a joint may carry at most one support")
            if sup:
                ends.remove(sup[0])
                ends.insert(0, sup[0])
            g = [gid[e] for e in ends]
            force[g] = [term(ends[0], e) for e in ends]
            own[g[0]] = force[g[0]]
            for e, gi in zip(ends[1:], g[1:]):
                own[gi] = term(e, e)
                continuity.append((own[gi], term(e, ends[0]), gi, g[0]))
            lead[g] = g[0]
            joint_ends.append(g)
        jointed = np.zeros(n, dtype=bool)
        jointed[[g for ends in joint_ends for g in ends]] = True
        for g in np.flatnonzero(~jointed):
            own[g] = force[g] = term(keys[g], keys[g])
        self._term_rows = np.array([row for row, _, _ in terms], dtype=int)
        # one entry per stencil point of every term
        term_of, phi, cols = [], [], []
        for t, (_, k, i) in enumerate(terms):
            p = self.runtimes[k].patch
            term_of += [t] * (p.degree + 1)
            phi.append(np.stack([p.phi0[i], p.phi1[i]], axis=-1))
            cols.append(self.offsets[k] + 6 * p.support_idx[i])
        self._stencil_term = np.array(term_of, dtype=int)
        self._stencil_phi = np.concatenate(phi)[:, :, None, None]
        self._stencil_col = np.concatenate(cols)

        slot = self._term_rows[own] // 6
        at = [(self.runtimes[k], end) for k, end in keys]
        of_stack = np.array([self.stacks.index(rt) for (_, rt, _), _ in at])
        pts = np.array([pts.start + patch.end_index(end)
                        for (patch, _, pts), end in at])
        sign = np.array([patch.end_sign(end) for (patch, _, _), end in at])
        self._end_c0 = np.array([patch.end_position(end)
                                 for (patch, _, _), end in at])
        self._end_R0 = np.array([patch.frames.R0[patch.end_index(end)]
                                 for (patch, _, _), end in at])
        kind = [getattr(self._supported.get(key), "kind", None) for key in keys]
        supported = np.array([k is not None for k in kind])
        clamped = np.array([k == "clamp" for k in kind])
        fixed = np.array([[a in FIXED[k] for a in range(3)] for k in kind])
        # translation rows that are spatial force rows: those of joint ends
        # and of supported ends that their support leaves free
        free = ~fixed[lead] & (jointed | supported)[:, None]

        def groups(mask):
            out = []
            for s in range(len(self.stacks)):
                g = np.flatnonzero(mask & (of_stack == s))
                out.append(EndGroup(g, pts[g], sign[g], own[g], slot[g])
                           if len(g) else None)
            return out

        #: per stack, the ends (None: none) of: every end; the Neumann force
        #: rows (free ends); the Neumann moment rows (free, hinged and roller
        #: ends); the spatial forces (ends with spatial force rows, and every
        #: joint end for the balance); the spatial couples (joint ends)
        self._end_groups = list(zip(
            groups(np.ones(n, dtype=bool)), groups(~jointed & ~supported),
            groups(~jointed & ~clamped), groups(jointed | free.any(axis=1)),
            groups(jointed)))
        #: end loads, resolved once: (force or couple, end, history)
        self._end_loads = [(ch, gid[el.patch, el.end], history)
                           for el in self.model.end_loads
                           for ch, history in enumerate((el.force, el.moment))
                           if history is not None]
        g, a = np.nonzero(free)
        #: (term, end, component) of every spatial force row, and (point,
        #: end, component) of those off joints
        self._force_rows = (force[g], g, a)
        g, a = g[~jointed[g]], a[~jointed[g]]
        self._support_force = (slot[g], g, a)

        # joint balance
        self._joint_loads = [(j, ch, history)
                             for j, joint in enumerate(self.model.joints)
                             for ch, history in enumerate((joint.force,
                                                           joint.moment))
                             if history is not None]
        arity = np.full((len(joint_ends), max(map(len, joint_ends), default=0)),
                        -1)
        for j, g in enumerate(joint_ends):
            arity[j, :len(g)] = g
        #: per arity position: the joints that have an end there, and it
        self._arity = [(np.flatnonzero(col >= 0), col[col >= 0])
                       for col in arity.T]
        first = np.array([g[0] for g in joint_ends], dtype=int)
        j, a = np.nonzero(free[first])
        #: (point, joint, component) of the force rows of the balance,
        #: (point, joint) of its moment rows and (term, end) of their blocks
        self._balance_force = (slot[first[j]], j, a)
        j = np.flatnonzero(~clamped[first])
        self._balance_moment = (slot[first[j]], j)
        g = np.flatnonzero(jointed & ~clamped[lead])
        self._couple_blocks = (force[g], g)
        #: (own term, term on the first end's stencil, point, end, first end)
        own_c, first_c, g, g0 = np.array(continuity, dtype=int).reshape(-1, 4).T
        self._continuity = (own_c, first_c, slot[g], g, g0)

        # supports
        self._motions = [(gid[s.patch, s.end], s.motion)
                         for s in self.model.supports if s.motion is not None]
        g, a = np.nonzero(fixed)
        #: (term, point, end, component) of every fixed translation and
        #: (term, end) of every clamp
        self._fixed = (own[g], slot[g], g, a)
        g = np.flatnonzero(clamped)
        self._clamped = (own[g], g)
        #: points of the rotation rows: joint continuity, then clamps
        self._rotation_slots = np.concatenate([self._continuity[2], slot[g]])

    def _plan_pattern(self):
        """CSC structure of the whole system and the slot of every value.

        Values come in the order ``assemble`` produces them: the interior
        blocks (point, 6, stencil point, 6) stack by stack and degree by
        degree, then the end blocks (stencil point, 6, 6).  Entries that are
        zero at a given state stay in the structure and are eliminated after
        equilibration, so the factorized pattern is the one of the nonzero
        values.
        """
        six = np.arange(6)
        rows, cols = [], []

        def add(r, c):
            r, c = np.broadcast_arrays(r, c)
            rows.append(r.reshape(-1))
            cols.append(c.reshape(-1))

        for rt in self.stacks:
            for _, points, _, ctrl in rt.interior:
                add(6 * points[:, None, None, None] + six[:, None, None],
                    6 * ctrl[:, None, :, None] + six)
        add(self._term_rows[self._stencil_term][:, None, None] + six[:, None],
            self._stencil_col[:, None, None] + six)
        keys, self._slot = np.unique(np.concatenate(cols) * self.ndof
                                     + np.concatenate(rows),
                                     return_inverse=True)
        self._nnz = len(keys)
        self._indices = (keys % self.ndof).astype(np.int32)
        self._indptr = np.searchsorted(keys // self.ndof,
                                       np.arange(self.ndof + 1)).astype(np.int32)
        row_nnz = np.bincount(self._indices, minlength=self.ndof)
        if not row_nnz.all():
            empty = np.flatnonzero(row_nnz == 0)
            raise RuntimeError(f"under-constrained system: empty rows {empty[:10]}")
        # slots in row order, for the row maxima of the equilibration
        self._row_order = np.argsort(self._indices, kind="stable")
        self._row_starts = np.concatenate([[0], np.cumsum(row_nnz)[:-1]])

    def _distributed(self, t: float) -> np.ndarray:
        """Distributed (force, moment) per unit length of every patch at
        time t, (2, patches, 3); each load is evaluated once."""
        fm = np.zeros((2, len(self.model.patches), 3))
        for load in self.model.loads:
            fm[0, load.patch] += load.force(t)
            if load.moment is not None:
                fm[1, load.patch] += load.moment(t)
        return fm

    def _init_conditions(self, v0=None, W0=None):
        fm = self._distributed(0.0)
        for rt in self.stacks:
            st = rt.state
            if v0 is not None:
                st.v = np.tile(np.asarray(v0, dtype=float), (st.n, 1))
            if W0 is not None:
                st.W = np.tile(np.asarray(W0, dtype=float), (st.n, 1))
            initialize_accelerations(st, rt.law, *fm[:, rt.patch_of_point])
        for (pk, end), sup in self._supported.items():
            patch, rt, pts = self.runtimes[pk]
            j = pts.start + patch.end_index(end)
            rt.state.a[j, FIXED[sup.kind]] = 0.0
            if sup.kind == "clamp":
                rt.state.A[j] = 0.0

    def set_initial_velocity(self, v0, W0=None):
        """Uniform initial velocities; re-derives consistent accelerations."""
        self._init_conditions(v0=v0, W0=W0)

    # -- assembly ------------------------------------------------------------

    def assemble(self, h: float, t_next: float):
        """Equilibrated sparse matrix and right-hand side at the current state."""
        values = []
        rhs = np.zeros(self.ndof)
        r = rhs.reshape(-1, 6)
        fm = self._distributed(t_next)
        for rt in self.stacks:
            law, st = rt.law, rt.state
            CN_bar, CM_bar = effective_stiffness(law, h)
            n_dist, m_dist = fm[:, rt.patch_of_point]
            F = residual_force(st, law, CN_bar, n_dist, h)
            V = residual_moment(st, law, CN_bar, CM_bar, m_dist, h)
            # (point, force/moment rows, displacement/rotation columns,
            # value/,s/,ss stencil, 3, 3)
            C = np.stack([tangent_blocks_force(st, law, CN_bar, n_dist, h),
                          tangent_blocks_moment(st, law, CN_bar, CM_bar,
                                                m_dist, h)], axis=1)
            for sel, points, phi, _ in rt.interior:
                values.append(np.einsum("nrcdab,ndk->nrakcb", C[sel],
                                        phi).reshape(-1))
                r[points] = -np.hstack([F[sel], V[sel]])

        B = self._boundary_rows(h, t_next, rhs)[self._stencil_term]
        phi = self._stencil_phi
        values.append((B[:, 0] * phi[:, 0] + B[:, 1] * phi[:, 1]).reshape(-1))
        data = np.bincount(self._slot, weights=np.concatenate(values),
                           minlength=self._nnz)
        # row equilibration: rows mix stiffness scales with unit Dirichlet rows
        scale = np.maximum.reduceat(np.abs(data[self._row_order]),
                                    self._row_starts)
        if not scale.all():
            zero = np.flatnonzero(scale == 0.0)
            raise RuntimeError(f"under-constrained system: zero rows {zero[:10]}")
        inv = 1.0 / scale
        data *= inv[self._indices]
        A = sp.csc_matrix((data, self._indices.copy(), self._indptr.copy()),
                          shape=(self.ndof, self.ndof))
        A.eliminate_zeros()
        return A, rhs * inv

    def _boundary_rows(self, h, t_next, rhs):
        """Coefficient blocks (terms, 2, 6, 6) of every end term; fills the
        boundary entries of ``rhs``.

        ``[term, 0]`` multiplies the value stencil and ``[term, 1]`` the ,s
        stencil of the term's end.  Rows 0:3 of a block are the force (or
        translation) rows of its slot and rows 3:6 the moment (or rotation)
        rows; columns 0:3 act on the displacement and 3:6 on the rotation
        increment of each control point.  The end kernels return their
        blocks (ends, 2, 3, 6) in this [stencil, row, column] layout, so
        they are written into ``B`` as they come.  Each end kernel runs at
        most once per law stack, on all the ends that need it.
        """
        B = np.zeros((len(self._term_rows), 2, 6, 6))
        r = rhs.reshape(-1, 6)
        n = len(self._end_c0)
        c, R = np.empty((n, 3)), np.empty((n, 3, 3))
        # spatial end force and couple (end, force/couple, 3) and their
        # blocks (end, force/couple, stencil, 3, 6)
        fm, dfm = np.empty((n, 2, 3)), np.empty((n, 2, 2, 3, 6))
        loads = np.zeros((2, n, 3))
        for ch, g, history in self._end_loads:
            loads[ch, g] += history(t_next)
        for rt, (every, nf, nm, fs, ms) in zip(self.stacks, self._end_groups):
            st, law = rt.state, rt.law
            CN_bar, CM_bar = effective_stiffness(law, h)
            c[every.ends] = st.c[every.pts]
            R[every.ends] = st.R[every.pts]
            if nf is not None:
                r[nf.slots, :3], B[nf.terms, :, :3] = neumann_force_row(
                    st, law, CN_bar, nf.pts, loads[0, nf.ends], nf.sign)
            if nm is not None:
                r[nm.slots, 3:], B[nm.terms, :, 3:] = neumann_moment_row(
                    st, law, CM_bar, nm.pts, loads[1, nm.ends], nm.sign)
            if fs is not None:
                fm[fs.ends, 0], dfm[fs.ends, 0] = end_force_spatial(
                    st, law, CN_bar, fs.pts, fs.sign)
            if ms is not None:
                fm[ms.ends, 1], dfm[ms.ends, 1] = end_moment_spatial(
                    st, law, CM_bar, ms.pts, ms.sign)

        # spatial force rows of the translation components left free
        T, g, a = self._force_rows
        if len(g):
            B[T, :, a] = dfm[g, 0, :, a]
            p, g, a = self._support_force
            r[p, a] = -fm[g, 0, a]

        own, first, p, g, g0 = self._continuity
        if self._arity:
            # balance in the slot of the first end: the applied load less
            # the end resultants, end by end
            S = np.zeros((len(self.model.joints), 2, 3))
            for j, ch, history in self._joint_loads:
                S[j, ch] = history(t_next)
            for js, gs in self._arity:
                S[js] -= fm[gs]
            q, j, a = self._balance_force
            r[q, a] = S[j, 0, a]
            q, j = self._balance_moment
            r[q, 3:] = S[j, 1]
            T, e = self._couple_blocks
            B[T, :, 3:] = dfm[e, 1]
            # continuity in the slots of the other ends: d_eta_i - d_eta_0 =
            # c_0 - c_i, R_i dTheta_i - R_0 dTheta_0 = log(Q_0 Q_i^T)
            B[own, 0, :3, :3] = np.eye(3)
            B[own, 0, 3:, 3:] = R[g]
            B[first, 0, :3, :3] = -np.eye(3)
            B[first, 0, 3:, 3:] = -R[g0]
            r[p, :3] = c[g0] - c[g]

        # supports: translations toward the (moving) support position, and a
        # clamp's rotation
        X = self._end_c0
        if self._motions:
            X = X.copy()
            for e, motion in self._motions:
                X[e] += motion(t_next)
        T, p, e, a = self._fixed
        B[T, 0, a, a] = 1.0
        r[p, a] = X[e, a] - c[e, a]
        T, e = self._clamped
        B[T, 0, 3:, 3:] = np.eye(3)
        if len(self._rotation_slots):
            R0 = self._end_R0
            Q = R @ np.swapaxes(R0, -1, -2)
            rot = np.concatenate([Q[g0] @ np.swapaxes(Q[g], -1, -2),
                                  np.swapaxes(R[e], -1, -2) @ R0[e]])
            r[self._rotation_slots, 3:] = so3.log_so3(rot)
        return B

    # -- solving ---------------------------------------------------------------

    def _solve(self, A, rhs):
        """Solve A x = rhs by one sparse LU path.

        The column order is a pure function of A's nonzero structure: the
        first system of each structure is ordered by minimum degree on the
        structure of AᵀA (``MMD_ATA``), and the order is kept per structure.
        Every system, the first of its structure included, is renumbered
        symmetrically in that order and factored with ``NATURAL``, so
        SuperLU skips its ordering phase and the solution does not depend on
        which systems were solved before.  Per solve of a settled structure
        (2 vCPUs, one BLAS thread, median of 50) this took 13.2 ms against
        21.8 ms for a COLAMD order per call on the auxetic network, 3.5
        against 5.2 ms on the 3x3 lattice, and 0.59 against 0.65 ms (0.95 ms
        for dense LAPACK) on the 240-unknown pendulum.
        """
        if not (np.array_equal(A.indptr, self._lu_indptr)
                and np.array_equal(A.indices, self._lu_indices)):
            self._renumber(A)
        pos = self._lu_pos
        P = sp.csc_matrix((A.data[self._lu_gather], *self._lu_pattern),
                          shape=A.shape)
        b = np.empty_like(rhs)
        b[pos] = rhs
        return spla.splu(P, permc_spec="NATURAL").solve(b)[pos]

    def _renumber(self, A):
        """Make A's structure the current one: its order (new position of
        every unknown), the gather of A's values into the renumbered CSC
        matrix and that matrix's ``indices`` and ``indptr``."""
        key = hashlib.blake2b(A.indptr.tobytes() + A.indices.tobytes(),
                              digest_size=16).digest()
        pos = self._lu_orders.get(key)
        if pos is None:
            pos = spla.splu(A, permc_spec="MMD_ATA").perm_c.astype(np.int32)
            self._lu_orders[key] = pos
        rows = pos[A.indices]
        cols = np.repeat(pos, np.diff(A.indptr))
        self._lu_gather = np.lexsort((rows, cols))
        self._lu_pattern = (rows[self._lu_gather], np.concatenate(
            [[0], np.cumsum(np.bincount(cols, minlength=self.ndof))]
        ).astype(np.int32))
        self._lu_indptr, self._lu_indices, self._lu_pos = \
            A.indptr, A.indices, pos

    def newton(self, h: float, t_next: float,
               increment_cap: float | None = None,
               resume: tuple | None = None) -> NewtonReport:
        """Newton-Raphson loop at the current predictor state.

        ``increment_cap`` scales down any update whose inf-norm exceeds it;
        it is None on the plain first attempt of every step and is only set
        by the failure-retry path.  The plain attempt keeps the iterate
        before its first update above ``settings.retry_increment_cap``
        (iteration index, residual history, divergence counter, update and
        snapshot); the retry, which would repeat it bit for bit up to there,
        goes on from it as ``resume``.
        """
        s = self.settings
        report = NewtonReport(converged=False, iterations=0)
        grow, start, delta = 0, 0, None
        if resume is not None:
            start, grow, report.residual_norms, report.increment_norms, \
                delta, snaps = resume
            report.iterations = start
            for rt, snap in zip(self.stacks, snaps):
                rt.restore(snap)
        elif increment_cap is None:
            self._resume = None
        for it in range(start, s.max_iterations + 1):
            if delta is None:
                A, rhs = self.assemble(h, t_next)
                res_norm = np.abs(rhs).max() if len(rhs) else 0.0
                report.residual_norms.append(res_norm)
                if res_norm <= s.tol_residual:
                    report.converged = True
                    break
                if len(report.residual_norms) >= 2 and \
                        res_norm > report.residual_norms[-2]:
                    grow += 1
                    if grow >= 3:
                        log.warning("newton diverging at t=%.6g (res %.3e)",
                                    t_next, res_norm)
                        break
                else:
                    grow = 0
                if it == s.max_iterations:
                    break
                delta = self._solve(A, rhs)
            inc_norm = np.abs(delta).max()
            if increment_cap is not None and inc_norm > increment_cap:
                delta = delta * (increment_cap / inc_norm)
                inc_norm = increment_cap
            elif (increment_cap is None and self._resume is None
                  and s.retry_increment_cap is not None
                  and inc_norm > s.retry_increment_cap):
                self._resume = (it, grow, report.residual_norms[:],
                                report.increment_norms[:], delta,
                                [rt.snapshot() for rt in self.stacks])
            report.increment_norms.append(inc_norm)
            acc = 1.0
            d = delta.reshape(-1, 6)
            for rt in self.stacks:
                f0, f1, f2 = rt.interp(d)
                apply_increment(rt.state, f0[:, :3], f1[:, :3], f2[:, :3],
                                f0[:, 3:], f1[:, 3:], f2[:, 3:], h)
                rt.ctrl += d[rt.points, :3]
                acc = max(acc, np.abs(rt.state.eta).max(),
                          np.abs(rt.state.Theta).max())
            delta = None
            report.iterations = it + 1
            log.debug("step t=%.6g iter=%d res=%.3e inc=%.3e", t_next, it + 1,
                      report.residual_norms[-1], inc_norm)
            if inc_norm <= s.tol_increment * acc:
                report.converged = True
                break
        self.total_iterations += report.iterations - start
        return report

    # -- time marching -----------------------------------------------------------

    def _attempt(self, h: float, increment_cap: float | None,
                 resume: tuple | None = None) -> None:
        snaps = [rt.snapshot() for rt in self.stacks]
        t0 = self.t
        try:
            if resume is None:
                for rt in self.stacks:
                    begin_step(rt.state, rt.law, h)
            report = self.newton(h, t0 + h, increment_cap, resume)
            if not report.converged:
                raise StepFailure(f"newton did not converge at t={t0 + h:.6g}")
            for rt in self.stacks:
                commit_step(rt.state, rt.law, h)
            self.t = t0 + h
        except StepFailure:
            for rt, snap in zip(self.stacks, snaps):
                rt.restore(snap)
            self.t = t0
            raise

    def advance(self, h: float, depth: int = 0) -> None:
        """One time step: plain Newton first, an increment-capped retry at the
        same size on failure, then step-halving retries (up to the limit).
        The capped retry is skipped if the plain attempt never exceeded the
        cap, since it would repeat it."""
        try:
            self._attempt(h, None)
            return
        except StepFailure:
            pass
        resume, self._resume = self._resume, None
        if resume is not None:
            cap = self.settings.retry_increment_cap
            log.info("retrying step at t=%.6g with increment cap %.2g from "
                     "iteration %d", self.t, cap, resume[0])
            try:
                self._attempt(h, cap, resume)
                return
            except StepFailure:
                pass
        if depth >= self.settings.max_halvings:
            raise StepFailure(f"step failed at t={self.t:.6g} after "
                              f"{depth} halvings")
        log.info("halving step at t=%.6g (h=%.3e)", self.t, h)
        self.advance(0.5 * h, depth + 1)
        self.advance(0.5 * h, depth + 1)

    def probe_displacement(self, probe) -> np.ndarray:
        rt, first, row, x0 = self._probes[probe.name]
        return row @ (rt.ctrl[first:first + len(row)] - x0)

    def sample_curve(self, k: int, n_samples: int = 200):
        """Dense current/initial positions of patch ``k`` for output."""
        patch, rt, pts = self.runtimes[k]
        us = np.linspace(0.0, 1.0, n_samples)
        w = patch.curve.weights if patch.curve.is_rational else None
        B = basis_matrices(patch.curve.kv, us, 0, w)[0]
        return B @ rt.ctrl[pts], B @ patch.curve.points


@dataclass
class Trajectory:
    times: np.ndarray
    probes: dict
    iterations: list
    wall_time: float


def time_march(sim: Simulation, t_end: float, h: float,
               observer=None) -> Trajectory:
    """March to ``t_end`` in steps of ``h``, sampling probes each step.

    A ``StepFailure`` propagates with the history of the committed steps
    attached as its ``trajectory``.
    """
    model = sim.model
    times = [sim.t]
    samples = {p.name: [sim.probe_displacement(p)] for p in model.probes}
    iters = []
    start = _time.perf_counter()

    def trajectory():
        wall = _time.perf_counter() - start
        return Trajectory(np.array(times),
                          {k: np.array(v) for k, v in samples.items()},
                          iters, wall)

    n_steps = int(round((t_end - sim.t) / h))
    for _ in range(n_steps):
        before = sim.total_iterations
        try:
            sim.advance(h)
        except StepFailure as exc:
            exc.trajectory = trajectory()
            raise
        iters.append(sim.total_iterations - before)
        times.append(sim.t)
        for p in model.probes:
            samples[p.name].append(sim.probe_displacement(p))
        if observer is not None:
            observer(sim)
    return trajectory()
