"""Global square system assembly, Newton iteration and time marching.

Unknowns are the incremental control translations and rotations, six per
control point, patch-major.  Field equations are collocated at the interior
Greville points; every patch end owns six boundary rows filled by a support,
a rigid joint or free-end force/couple conditions.  The system is square by
construction, its sparsity pattern is fixed when the simulation is built,
and it is solved with a sparse LU (dense for small problems) after row
equilibration.  Patches that share a section law are stacked into one
collocation state, so the residual and tangent kernels, the increment update
and the step commit run once per law per Newton iteration, whatever the
number of patches.
"""

from __future__ import annotations

import logging
import time as _time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import so3
from .beam_residual import (BoundaryRow, CollocationState, end_force_spatial,
                            end_moment_spatial, neumann_force_row,
                            neumann_moment_row, residual_force,
                            residual_moment, tangent_blocks_force,
                            tangent_blocks_moment)
from .initial_geometry import InitialFrameField
from .integrator import (StepFailure, apply_increment, begin_step, commit_step,
                         initialize_accelerations)
from .model import END, START, BeamModel, Support
from .splines import basis_eval, basis_matrices
from .viscoelastic import effective_stiffness

log = logging.getLogger(__name__)

#: below this many unknowns a dense factorization is used
DENSE_LIMIT = 400


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
    #: cap on the increment inf-norm used only by the failure-retry path;
    #: the first attempt of every step is always plain (undamped) Newton
    retry_increment_cap: float = 0.3

    def __post_init__(self):
        if self.tol_increment <= 0 or self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")


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


def _material_rows(blk, r, at: int, row: BoundaryRow) -> None:
    """Material force (``at`` = 0) or moment (``at`` = 3) rows of an end."""
    rows = slice(at, at + 3)
    blk[0, rows, 3:] = row.t
    blk[1, rows, 3:] = row.ts
    blk[1, rows, :3] = row.es
    r[rows] = row.residual


def _fixed_rows(blk, r, sup: Support, st: CollocationState, j: int,
                c0: np.ndarray, t_next: float) -> None:
    """Unit rows of what ``sup`` fixes at stacked point ``j`` (initially at
    ``c0``): translation components toward the (moving) support position,
    and a clamp's rotation."""
    fixed = FIXED[sup.kind]
    target = c0 if sup.motion is None else c0 + sup.motion(t_next)
    blk[0, fixed, fixed] = 1.0
    r[fixed] = target[fixed] - st.c[j][fixed]
    if sup.kind == "clamp":
        blk[0, 3:, 3:] = np.eye(3)
        r[3:] = so3.log_so3(st.R[j].T @ st.R0[j])


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
        #: (law stack, stacked point index, outward sign, initial position)
        #: of every patch end
        self._ends = {(k, end): (rt, pts.start + patch.end_index(end),
                                 patch.end_sign(end), patch.end_position(end))
                      for k, (patch, rt, pts) in enumerate(self.runtimes)
                      for end in (START, END)}
        self.t = 0.0
        self.total_iterations = 0
        self._resume = None
        self._supported = model.supported_ends()
        self._plan_probes()
        self._plan_boundary()
        self._plan_pattern()
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
        """End terms of the boundary and joint rows.

        A term couples the six rows of one end's slot with the value and ,s
        stencils of one end: its own, or in a joint that of the joint's first
        end.  Joints list their supported end first; its slot holds the
        balance terms of every end, the other slots their continuity terms.
        """
        terms = []

        def term(slot_end, stencil_end):
            k, end = slot_end
            row = self.offsets[k] + 6 * self.runtimes[k].patch.end_index(end)
            k, end = stencil_end
            terms.append((row, k, self.runtimes[k].patch.end_index(end)))
            return len(terms) - 1

        self._joint_plans = []
        for joint in self.model.joints:
            ends = [tuple(e) for e in joint.ends]
            sup = [e for e in ends if e in self._supported]
            if len(sup) > 1:
                raise ValueError("a joint may carry at most one support")
            if sup:
                ends.remove(sup[0])
                ends.insert(0, sup[0])
            balance = [term(ends[0], e) for e in ends]
            continuity = [(term(e, e), term(e, ends[0])) for e in ends[1:]]
            self._joint_plans.append((joint, ends, self._supported.get(ends[0]),
                                      balance, continuity))
        jointed = self.model.jointed_ends()
        self._end_plans = [(k, end, self._supported.get((k, end)),
                            term((k, end), (k, end)))
                           for k in range(len(self.runtimes))
                           for end in (START, END) if (k, end) not in jointed]
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
            rt, j, _, _ = self._ends[pk, end]
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
            bf = tangent_blocks_force(st, law, CN_bar, n_dist, h)
            bm = tangent_blocks_moment(st, law, CN_bar, CM_bar, m_dist, h)
            # (point, force/moment rows, displacement/rotation columns,
            # value/,s/,ss stencil, 3, 3)
            C = np.stack([bf.e, bf.es, bf.ess, bf.t, bf.ts, bf.tss, bm.e,
                          bm.es, bm.ess, bm.t, bm.ts, bm.tss],
                         axis=1).reshape(-1, 2, 2, 3, 3, 3)
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
        increment of each control point.
        """
        B = np.zeros((len(self._term_rows), 2, 6, 6))
        for plan in self._joint_plans:
            self._joint_rows(B, rhs, h, t_next, *plan)
        for k, end, sup, term in self._end_plans:
            row = self._term_rows[term]
            args = (B[term], rhs[row:row + 6], h, t_next, k, end)
            if sup is None:
                self._free_end_rows(*args)
            else:
                self._support_rows(*args, sup)
        return B

    def _free_end_rows(self, blk, r, h, t_next, k, end):
        rt, j, sign, _ = self._ends[k, end]
        CN_bar, CM_bar = effective_stiffness(rt.law, h)
        f_c, m_c = self.model.end_load_at(k, end, t_next)
        _material_rows(blk, r, 0, neumann_force_row(rt.state, rt.law, CN_bar,
                                                    j, f_c, sign))
        _material_rows(blk, r, 3, neumann_moment_row(rt.state, rt.law, CM_bar,
                                                     j, m_c, sign))

    def _support_rows(self, blk, r, h, t_next, k, end, sup: Support):
        rt, j, sign, c0 = self._ends[k, end]
        CN_bar, CM_bar = effective_stiffness(rt.law, h)
        free = [a for a in range(3) if a not in FIXED[sup.kind]]
        if free:
            # spatial-frame force rows for the components left free (a
            # supported end carries no end load)
            f, bt, bes = end_force_spatial(rt.state, rt.law, CN_bar, j, sign)
            blk[0, free, 3:] = bt[free]
            blk[1, free, :3] = bes[free]
            r[free] = -f[free]
        _fixed_rows(blk, r, sup, rt.state, j, c0, t_next)
        if sup.kind != "clamp":
            _material_rows(blk, r, 3, neumann_moment_row(
                rt.state, rt.law, CM_bar, j, np.zeros(3), sign))

    def _joint_rows(self, B, rhs, h, t_next, joint, ends, support, balance,
                    continuity):
        rt0, j0, _, c00 = self._ends[ends[0]]
        st0 = rt0.state
        Q0 = st0.R[j0] @ st0.R0[j0].T

        # continuity rows in the slots of ends 1..k-1:
        # d_eta_i - d_eta_0 = c_0 - c_i, R_i dTheta_i - R_0 dTheta_0 = log(Q_0 Q_i^T)
        for (k, end), (own, first) in zip(ends[1:], continuity):
            rt, j, _, _ = self._ends[k, end]
            st = rt.state
            B[own, 0, :3, :3] = np.eye(3)
            B[own, 0, 3:, 3:] = st.R[j]
            B[first, 0, :3, :3] = -np.eye(3)
            B[first, 0, 3:, 3:] = -st0.R[j0]
            row = self._term_rows[own]
            rhs[row:row + 3] = st0.c[j0] - st.c[j]
            Qi = st.R[j] @ st.R0[j].T
            rhs[row + 3:row + 6] = so3.log_so3(Q0 @ Qi.T)

        # balance rows in the slot of end 0, less the rows its support fixes
        kind = support.kind if support is not None else None
        free = [a for a in range(3) if a not in FIXED[kind]]
        moments = kind != "clamp"
        f_J = joint.force(t_next) if joint.force is not None else np.zeros(3)
        m_J = joint.moment(t_next) if joint.moment is not None else np.zeros(3)
        res_F = f_J.copy()
        res_M = m_J.copy()
        for (k, end), term in zip(ends, balance):
            rt, j, sign, _ = self._ends[k, end]
            CN_bar, CM_bar = effective_stiffness(rt.law, h)
            f, bt, bes = end_force_spatial(rt.state, rt.law, CN_bar, j, sign)
            m, mt, mts = end_moment_spatial(rt.state, rt.law, CM_bar, j, sign)
            res_F -= f
            res_M -= m
            B[term, 0, free, 3:] = bt[free]
            B[term, 1, free, :3] = bes[free]
            if moments:
                B[term, 0, 3:, 3:] = mt
                B[term, 1, 3:, 3:] = mts
        row = self._term_rows[balance[0]]
        r = rhs[row:row + 6]
        r[free] = res_F[free]
        if moments:
            r[3:] = res_M
        if support is not None:
            _fixed_rows(B[balance[0]], r, support, st0, j0, c00, t_next)

    # -- solving ---------------------------------------------------------------

    def _solve(self, A, rhs):
        if self.ndof <= DENSE_LIMIT:
            return np.linalg.solve(A.toarray(), rhs)
        return spla.splu(A).solve(rhs)

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
