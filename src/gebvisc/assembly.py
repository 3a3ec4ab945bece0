"""Global square system assembly, Newton iteration and time marching.

Unknowns are the incremental control translations and rotations, six per
control point, patch-major.  Field equations are collocated at the interior
Greville points; every patch end owns six boundary rows filled by a support,
a rigid joint or free-end force/couple conditions.  The system is square by
construction, its sparsity pattern is fixed when the simulation is built,
and it is solved with a sparse LU (dense for small problems) after row
equilibration.
"""

from __future__ import annotations

import logging
import time as _time
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
from .integrator import (StepFailure, apply_increment, begin_step, commit_step,
                         initialize_accelerations)
from .model import END, START, BeamModel, Patch, Support
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
    """Mutable per-patch simulation data: collocation state + control net."""

    def __init__(self, patch: Patch):
        self.patch = patch
        self.state = CollocationState(patch.frames, patch.law)
        self.ctrl = patch.curve.points.copy()

    def snapshot(self):
        return (self.state.copy(), self.ctrl.copy())

    def restore(self, snap):
        self.state, self.ctrl = snap[0].copy(), snap[1].copy()

    def interp(self, dctrl: np.ndarray):
        """Increment fields (value, ,s, ,ss) at the collocation points."""
        p = self.patch
        gathered = dctrl[p.support_idx]  # (n, p+1, 3)
        f0 = np.einsum("nk,nkj->nj", p.phi0, gathered)
        f1 = np.einsum("nk,nkj->nj", p.phi1, gathered)
        f2 = np.einsum("nk,nkj->nj", p.phi2, gathered)
        return f0, f1, f2


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


def _fixed_rows(blk, r, sup: Support, rt: PatchRuntime, i: int,
                t_next: float) -> None:
    """Unit rows of what ``sup`` fixes at point ``i``: translation
    components toward the (moving) support position, and a clamp's
    rotation."""
    fixed = FIXED[sup.kind]
    target = rt.patch.frames.c0[i]
    if sup.motion is not None:
        target = target + sup.motion(t_next)
    blk[0, fixed, fixed] = 1.0
    r[fixed] = target[fixed] - rt.state.c[i][fixed]
    if sup.kind == "clamp":
        blk[0, 3:, 3:] = np.eye(3)
        r[3:] = so3.log_so3(rt.state.R[i].T @ rt.patch.frames.R0[i])


class Simulation:
    """Owns the runtime states of a model and advances them in time."""

    def __init__(self, model: BeamModel, settings: NewtonSettings | None = None):
        self.model = model
        self.settings = settings or NewtonSettings()
        self.runtimes = [PatchRuntime(p) for p in model.patches]
        offsets = np.cumsum([0] + [6 * p.n for p in model.patches])
        self.offsets = offsets[:-1]
        self.ndof = int(offsets[-1])
        self.t = 0.0
        self.total_iterations = 0
        self._supported = model.supported_ends()
        self._plan_boundary()
        self._plan_pattern()
        self._init_conditions()

    # -- construction helpers ------------------------------------------------

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
        blocks (point, 6, stencil point, 6) patch by patch, then the end
        blocks (stencil point, 6, 6).  Entries that are zero at a given state
        stay in the structure and are eliminated after equilibration, so the
        factorized pattern is the one of the nonzero values.
        """
        six = np.arange(6)
        rows, cols = [], []

        def add(r, c):
            r, c = np.broadcast_arrays(r, c)
            rows.append(r.reshape(-1))
            cols.append(c.reshape(-1))

        for p, off in zip(self.model.patches, self.offsets):
            add(off + 6 * np.arange(1, p.n - 1)[:, None, None, None]
                + six[:, None, None],
                off + 6 * p.support_idx[1:-1, None, :, None] + six)
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

    def _init_conditions(self, v0=None, W0=None):
        for k, rt in enumerate(self.runtimes):
            if v0 is not None:
                rt.state.v = np.tile(np.asarray(v0, dtype=float), (rt.patch.n, 1))
            if W0 is not None:
                rt.state.W = np.tile(np.asarray(W0, dtype=float), (rt.patch.n, 1))
            f, m = self.model.distributed_at(k, 0.0)
            initialize_accelerations(rt.state, rt.patch.law,
                                     np.tile(f, (rt.patch.n, 1)),
                                     np.tile(m, (rt.patch.n, 1)))
        for (pk, end), sup in self._supported.items():
            rt = self.runtimes[pk]
            i = rt.patch.end_index(end)
            if sup.kind == "clamp":
                rt.state.a[i] = 0.0
                rt.state.A[i] = 0.0
            elif sup.kind == "hinge":
                rt.state.a[i] = 0.0
            elif sup.kind == "roller_x3":
                rt.state.a[i, 2] = 0.0

    def set_initial_velocity(self, v0, W0=None):
        """Uniform initial velocities; re-derives consistent accelerations."""
        self._init_conditions(v0=v0, W0=W0 if W0 is not None else None)

    # -- assembly ------------------------------------------------------------

    def _dof_slice(self, k: int):
        off = self.offsets[k]
        return off, off + 6 * self.runtimes[k].patch.n

    def assemble(self, h: float, t_next: float):
        """Equilibrated sparse matrix and right-hand side at the current state."""
        values = []
        rhs = np.zeros(self.ndof)
        per_patch = []
        for k, rt in enumerate(self.runtimes):
            law = rt.patch.law
            CN_bar, CM_bar = effective_stiffness(law, h)
            f, m = self.model.distributed_at(k, t_next)
            n_dist = np.tile(f, (rt.patch.n, 1))
            m_dist = np.tile(m, (rt.patch.n, 1))
            F = residual_force(rt.state, law, CN_bar, n_dist, h)
            V = residual_moment(rt.state, law, CN_bar, CM_bar, m_dist, h)
            bf = tangent_blocks_force(rt.state, law, CN_bar, n_dist, h)
            bm = tangent_blocks_moment(rt.state, law, CN_bar, CM_bar, m_dist, h)
            per_patch.append((CN_bar, CM_bar))

            # interior points 1..n-2
            p = rt.patch
            phi0 = p.phi0[1:-1]
            phi1 = p.phi1[1:-1]
            phi2 = p.phi2[1:-1]
            blk = np.zeros((p.n - 2, 6, p.degree + 1, 6))
            # force rows (0:3): eta blocks and theta blocks
            blk[:, 0:3, :, 0:3] = (
                np.einsum("nab,nk->nakb", bf.e[1:-1], phi0)
                + np.einsum("nab,nk->nakb", bf.es[1:-1], phi1)
                + np.einsum("nab,nk->nakb", bf.ess[1:-1], phi2))
            blk[:, 0:3, :, 3:6] = (
                np.einsum("nab,nk->nakb", bf.t[1:-1], phi0)
                + np.einsum("nab,nk->nakb", bf.ts[1:-1], phi1))
            # moment rows (3:6)
            blk[:, 3:6, :, 0:3] = np.einsum("nab,nk->nakb", bm.es[1:-1], phi1)
            blk[:, 3:6, :, 3:6] = (
                np.einsum("nab,nk->nakb", bm.t[1:-1], phi0)
                + np.einsum("nab,nk->nakb", bm.ts[1:-1], phi1)
                + np.einsum("nab,nk->nakb", bm.tss[1:-1], phi2))
            values.append(blk.reshape(-1))
            lo, hi = self._dof_slice(k)
            r = rhs[lo:hi].reshape(-1, 6)
            r[1:-1, :3] = -F[1:-1]
            r[1:-1, 3:] = -V[1:-1]

        B = self._boundary_rows(t_next, per_patch, rhs)[self._stencil_term]
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

    def _boundary_rows(self, t_next, per_patch, rhs):
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
            self._joint_rows(B, rhs, t_next, per_patch, *plan)
        for k, end, sup, term in self._end_plans:
            row = self._term_rows[term]
            args = (B[term], rhs[row:row + 6], t_next, per_patch, k, end)
            if sup is None:
                self._free_end_rows(*args)
            else:
                self._support_rows(*args, sup)
        return B

    def _free_end_rows(self, blk, r, t_next, per_patch, k, end):
        rt = self.runtimes[k]
        law = rt.patch.law
        CN_bar, CM_bar = per_patch[k]
        i = rt.patch.end_index(end)
        sign = rt.patch.end_sign(end)
        f_c, m_c = self.model.end_load_at(k, end, t_next)
        _material_rows(blk, r, 0, neumann_force_row(rt.state, law, CN_bar, i,
                                                    f_c, sign))
        _material_rows(blk, r, 3, neumann_moment_row(rt.state, law, CM_bar, i,
                                                     m_c, sign))

    def _support_rows(self, blk, r, t_next, per_patch, k, end, sup: Support):
        rt = self.runtimes[k]
        law = rt.patch.law
        CN_bar, CM_bar = per_patch[k]
        i = rt.patch.end_index(end)
        sign = rt.patch.end_sign(end)
        free = [a for a in range(3) if a not in FIXED[sup.kind]]
        if free:
            # spatial-frame force rows for the components left free (a
            # supported end carries no end load)
            f, bt, bes = end_force_spatial(rt.state, law, CN_bar, i, sign)
            blk[0, free, 3:] = bt[free]
            blk[1, free, :3] = bes[free]
            r[free] = -f[free]
        _fixed_rows(blk, r, sup, rt, i, t_next)
        if sup.kind != "clamp":
            _material_rows(blk, r, 3, neumann_moment_row(
                rt.state, law, CM_bar, i, np.zeros(3), sign))

    def _joint_rows(self, B, rhs, t_next, per_patch, joint, ends, support,
                    balance, continuity):
        k0, end0 = ends[0]
        rt0 = self.runtimes[k0]
        i0 = rt0.patch.end_index(end0)
        Q0 = rt0.state.R[i0] @ rt0.patch.frames.R0[i0].T

        # continuity rows in the slots of ends 1..k-1:
        # d_eta_i - d_eta_0 = c_0 - c_i, R_i dTheta_i - R_0 dTheta_0 = log(Q_0 Q_i^T)
        for (k, end), (own, first) in zip(ends[1:], continuity):
            rt = self.runtimes[k]
            i = rt.patch.end_index(end)
            B[own, 0, :3, :3] = np.eye(3)
            B[own, 0, 3:, 3:] = rt.state.R[i]
            B[first, 0, :3, :3] = -np.eye(3)
            B[first, 0, 3:, 3:] = -rt0.state.R[i0]
            row = self._term_rows[own]
            rhs[row:row + 3] = rt0.state.c[i0] - rt.state.c[i]
            Qi = rt.state.R[i] @ rt.patch.frames.R0[i].T
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
            rt = self.runtimes[k]
            CN_bar, CM_bar = per_patch[k]
            i = rt.patch.end_index(end)
            sign = rt.patch.end_sign(end)
            f, bt, bes = end_force_spatial(rt.state, rt.patch.law, CN_bar, i,
                                           sign)
            m, mt, mts = end_moment_spatial(rt.state, rt.patch.law, CM_bar, i,
                                            sign)
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
            _fixed_rows(B[balance[0]], r, support, rt0, i0, t_next)

    # -- solving ---------------------------------------------------------------

    def _solve(self, A, rhs):
        if self.ndof <= DENSE_LIMIT:
            return np.linalg.solve(A.toarray(), rhs)
        return spla.splu(A).solve(rhs)

    def newton(self, h: float, t_next: float,
               increment_cap: float | None = None) -> NewtonReport:
        """Newton-Raphson loop at the current predictor state.

        ``increment_cap`` scales down any update whose inf-norm exceeds it;
        it is None on the plain first attempt of every step and is only set
        by the failure-retry path.
        """
        s = self.settings
        report = NewtonReport(converged=False, iterations=0)
        grow = 0
        for it in range(s.max_iterations + 1):
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
            report.increment_norms.append(inc_norm)
            acc = 1.0
            for k, rt in enumerate(self.runtimes):
                lo, hi = self._dof_slice(k)
                d = delta[lo:hi].reshape(-1, 6)
                de = rt.interp(d[:, :3])
                dt = rt.interp(d[:, 3:])
                apply_increment(rt.state, de[0], de[1], de[2], dt[0], dt[1],
                                dt[2], h)
                rt.ctrl += d[:, :3]
                acc = max(acc, np.abs(rt.state.eta).max(),
                          np.abs(rt.state.Theta).max())
            report.iterations = it + 1
            log.debug("step t=%.6g iter=%d res=%.3e inc=%.3e", t_next, it + 1,
                      res_norm, inc_norm)
            if inc_norm <= s.tol_increment * acc:
                report.converged = True
                break
        self.total_iterations += report.iterations
        return report

    # -- time marching -----------------------------------------------------------

    def _attempt(self, h: float, increment_cap: float | None) -> None:
        snaps = [rt.snapshot() for rt in self.runtimes]
        t0 = self.t
        try:
            for rt in self.runtimes:
                begin_step(rt.state, rt.patch.law, h)
            report = self.newton(h, t0 + h, increment_cap)
            if not report.converged:
                raise StepFailure(f"newton did not converge at t={t0 + h:.6g}")
            for rt in self.runtimes:
                commit_step(rt.state, rt.patch.law, h)
            self.t = t0 + h
        except StepFailure:
            for rt, snap in zip(self.runtimes, snaps):
                rt.restore(snap)
            self.t = t0
            raise

    def advance(self, h: float, depth: int = 0) -> None:
        """One time step: plain Newton first, an increment-capped retry at the
        same size on failure, then step-halving retries (up to the limit)."""
        try:
            self._attempt(h, None)
            return
        except StepFailure:
            pass
        cap = self.settings.retry_increment_cap
        if cap is not None:
            log.info("retrying step at t=%.6g with increment cap %.2g", self.t,
                     cap)
            try:
                self._attempt(h, cap)
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
        rt = self.runtimes[probe.patch]
        kv = rt.patch.curve.kv
        from .splines import basis_eval
        w = rt.patch.curve.weights if rt.patch.curve.is_rational else None
        first, ders = basis_eval(kv, probe.u, 0, w)
        sl = slice(first, first + kv.degree + 1)
        return ders[0] @ (rt.ctrl[sl] - rt.patch.curve.points[sl])

    def sample_curve(self, k: int, n_samples: int = 200):
        """Dense current/initial positions of patch ``k`` for output."""
        rt = self.runtimes[k]
        us = np.linspace(0.0, 1.0, n_samples)
        from .splines import basis_matrices
        w = rt.patch.curve.weights if rt.patch.curve.is_rational else None
        B = basis_matrices(rt.patch.curve.kv, us, 0, w)[0]
        return B @ rt.ctrl, B @ rt.patch.curve.points


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
