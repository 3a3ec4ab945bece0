"""Global square system assembly, Newton iteration and time marching.

Unknowns are the incremental control translations and rotations, six per
control point, patch-major.  Field equations are collocated at the interior
Greville points; every patch end owns six boundary rows filled by a support,
a rigid joint or free-end force/couple conditions.  The system is square by
construction and its sparsity pattern is fixed when the simulation is built.
Its values are made in one layout, one value per entry, equilibrated there
row by row and handed to the solver as that value vector.  One LAPACK banded
LU over the patch blocks and a dense LAPACK LU on the Schur complement of
the joint leads solve it; a joint's other ends stay in their patch's band.
Every patch is stacked, in model order, into one collocation state whose
section laws are spelled out per point, so the residual and tangent kernels,
the increment update and the step commit run once per Newton iteration,
whatever the number of patches and laws.  The boundary and joint rows are
planned as index arrays over end ids, two per patch, so each end kernel runs
at most once per residual pass, on all its ends, and their values on the
sub-blocks that each row writes, in array passes linear in the ends and the
planned entries.  A joint, and a supported end off joints with a free
translation, form a balance group whose lead's slot equates the applied load
with the end resultants of its members.
"""

from __future__ import annotations

import logging
import time as _time
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from . import so3
from .beam_residual import (CollocationState, end_force_spatial,
                            end_moment_spatial, neumann_force_row,
                            neumann_moment_row, residual_force,
                            residual_moment, section_state,
                            tangent_blocks_force, tangent_blocks_moment)
from .initial_geometry import InitialFrameField
from .integrator import (StepFailure, apply_increment, begin_step, commit_step,
                         initialize_accelerations)
from .model import END, SUPPORT_KINDS, BeamModel, check_keys
from .splines import basis_eval, basis_matrices, check_integer, check_positive
from .viscoelastic import PointLaws

log = logging.getLogger(__name__)

@dataclass
class NewtonSettings:
    """Newton-Raphson controls.

    Every step is one plain Newton solve with full, undamped updates.
    Convergence is declared on the increment norm relative to the accumulated
    step increment (with an absolute floor of one), or immediately when the
    equilibrated residual is negligible.  A step fails on iteration
    exhaustion, when the residual grows three times in a row or when an
    update trips the pi guard; the driver then retries it as two half
    steps, up to ``max_halvings`` deep.
    """
    max_iterations: int = 25
    tol_increment: float = 1.0e-8
    tol_residual: float = 1.0e-12
    max_halvings: int = 3

    def __post_init__(self):
        check_positive(self.tol_increment, "tol_increment")
        check_positive(self.tol_residual, "tol_residual")
        check_integer(self.max_iterations, "max_iterations", 1)
        check_integer(self.max_halvings, "max_halvings", 0)

    @classmethod
    def from_config(cls, section: dict) -> "NewtonSettings":
        """Settings from the ``newton`` section of a model configuration;
        keys left out keep their defaults."""
        check_keys(section, [f.name for f in fields(cls)], "newton settings")
        return cls(**section)


@dataclass
class NewtonReport:
    converged: bool
    residual_norms: list = field(default_factory=list)


class PatchRuntime:
    """Mutable simulation data of every patch of a model, stacked in model
    order from the first points ``first`` of the patches and their number:
    one collocation state over all the points, whose section laws ``law``
    spells out, and the control nets.  A patch has as many control points
    as collocation points, so point i owns six rows of the system and
    control point i six unknowns; ``ends`` are the patches' end points.
    """

    def __init__(self, model: BeamModel, first: np.ndarray):
        members, n = model.patches, np.diff(first)
        laws = {}
        of_patch = [laws.setdefault(p.law, len(laws)) for p in members]
        self.law = PointLaws(laws, np.repeat(of_patch, n))
        self.state = CollocationState(InitialFrameField(*(
            np.concatenate([getattr(p.frames, name) for p in members])
            for name in ("u", "c0", "c0_s", "c0_ss", "R0", "K0", "K0_s",
                         "jac", "jac_u"))), self.law)
        self.ctrl = np.concatenate([p.curve.points for p in members])
        self.ends = np.stack([first[:-1], first[1:] - 1], axis=1).ravel()
        self.patch_of_point = np.repeat(np.arange(len(members)), n)
        # the value, ,s and ,ss stencils of every point, one below the
        # other, and the control points they act on
        width = np.array([p.support_idx.shape[1] for p in members])
        phi = np.concatenate([getattr(p, name) for name in
                              ("phi0", "phi1", "phi2") for p in members],
                             axis=None)
        cols = np.concatenate([p.support_idx for p in members], axis=None)
        cols += np.repeat(first[:-1], n * width)
        indptr = np.cumsum(np.append(0, np.tile(np.repeat(width, n), 3)))
        self._interp = sp.csr_matrix((phi, np.tile(cols, 3), indptr),
                                     shape=(3 * first[-1], first[-1]))
        #: interior points by stencil width: (points, stencils (value/,s/,ss,
        #: stencil point, point), stencil control points)
        self.interior = []
        of_width = np.repeat(width, n)
        of_width[self.ends] = 0
        for w in np.unique(width):
            sel = np.flatnonzero(of_width == w)
            at = indptr[sel] + np.arange(w)[:, None]
            self.interior.append((sel, phi[
                at + indptr[first[-1]] * np.arange(3)[:, None, None]],
                cols[at.T]))

    def snapshot(self):
        return (self.state.copy(), self.ctrl.copy())

    def restore(self, snap):
        """Adopt a snapshot; it must not be restored a second time."""
        self.state, self.ctrl = snap

    def interp(self, dctrl: np.ndarray):
        """Increment fields (value, ,s, ,ss) at the points from the control
        increments ``dctrl`` (control points, 6)."""
        return (self._interp @ dctrl).reshape(3, -1, 6)


#: one residual evaluation: the section state, the (ends, kernel, maker of
#: their blocks) of every end kernel call, the rotations of the ends, the
#: unequilibrated right-hand side and the inverse row scales that
#: ``_system`` fills in
ResidualPass = namedtuple("ResidualPass", "section blocks R rhs inv")


#: ends that one end kernel evaluates: their end ids (2 k and 2 k + 1 for
#: the start and the end of patch k; also the terms of their own slots),
#: points and outward signs
EndGroup = namedtuple("EndGroup", "ends pts sign")


def _flatten(blocks) -> np.ndarray:
    """The entries of ``blocks``, (rows, columns) that broadcast, one block
    after the other in one (2, entries) int32 array."""
    each = [np.broadcast(*b) for b in blocks]
    out, at = np.empty((2, sum(x.size for x in each)), np.int32), 0
    for (r, c), x in zip(blocks, each):
        o = out[:, at:at + x.size].reshape(2, *x.shape)
        o[0], o[1], at = r, c, at + x.size
    return out


class Simulation:
    """Owns the runtime state of a model and advances it in time;
    ``runtimes[k]`` slices the points of patch ``k`` out of ``runtime``."""

    def __init__(self, model: BeamModel, settings: NewtonSettings | None = None):
        self.model = model
        self.settings = settings or NewtonSettings()
        first = np.cumsum([0] + [p.n for p in model.patches])
        self.ndof = int(6 * first[-1])
        self.runtime = PatchRuntime(model, first)
        self.runtimes = [slice(a, b) for a, b in zip(first[:-1], first[1:])]
        self.t = 0.0
        self.total_iterations = 0
        self._plan_probes()
        self._plan_solve(self._plan_pattern(self._plan_boundary()))
        self._init_conditions()

    # -- construction helpers ------------------------------------------------

    def _plan_probes(self):
        """First control point, basis row and control points of each probe."""
        self._probes = {}
        for probe in self.model.probes:
            c = self.model.patches[probe.patch].curve
            first, ders = basis_eval(c.kv, probe.u, 0,
                                     c.weights if c.is_rational else None)
            self._probes[probe.name] = (
                self.runtimes[probe.patch].start + first, ders[0],
                c.points[first:first + len(ders[0])])

    def _plan_boundary(self):
        """Index arrays over the end ids that fill the boundary and joint
        rows in one pass; returns the (rows, columns) of the end entries.

        End g is the start (g = 2 k) or the end (g = 2 k + 1) of patch k,
        and owns the six rows of its slot, the point ``_slots[g]``.  An end
        value lies in the slot of one end, on a point of the value and ,s
        stencils of one end where either is nonzero: an end's rows on its
        own stencil, except for an end in a joint that it does not lead (a
        follower), whose spatial force and couple go to the lead's slot and
        whose continuity rows also lie on the lead's stencil.  The latter
        are nonzero on the lead's end control point alone, so a follower's
        slot couples its own patch only with the lead's point, the separator
        of ``_solve``.  A joint is led by its supported end, else by its
        first end.

        A balance group is a joint, or a supported end off joints whose
        support leaves a translation free.  In the slot of the group's lead,
        the force rows of the translations the lead's support leaves free
        equate the applied force with the spatial end forces of the members,
        and the moment rows of a joint that is not clamped do the same for
        couples.
        """
        n = 2 * len(self.runtimes)
        # per end: its slot, where it starts (the state is the initial one),
        # and its value and ,s stencils, padded with zeros to the widest
        rt = self.runtime
        self._slots = e = rt.ends
        A = rt._interp
        self._end_c0, self._end_R0 = rt.state.c[e], rt.state.R0[e]
        wide = max(p.support_idx.shape[1] for p in self.model.patches)
        phi, cols = np.zeros((n, wide, 2)), np.zeros((n, wide), dtype=int)
        k, q = np.nonzero(np.arange(wide) < np.diff(A.indptr)[e, None])
        at = A.indptr[e[k]] + q
        phi[k, q] = A.data[at[:, None] + (0, A.indptr[self.ndof // 6])]
        cols[k, q] = 6 * A.indices[at]
        # (end, its applied force, couple and motion histories)
        applied = [(2 * el.patch + (el.end == END), (el.force, el.moment))
                   for el in self.model.end_loads]
        # what the support of each end holds
        held = [(2 * s.patch + (s.end == END), SUPPORT_KINDS[s.kind], s.motion)
                for s in self.model.supports]
        g = np.array([g for g, _, _ in held], dtype=int)
        supported, clamped = np.zeros((2, n), dtype=bool)
        fixed = np.zeros((n, 3), dtype=bool)
        supported[g], clamped[g] = True, [k.rotation for _, k, _ in held]
        fixed[g] = np.reshape([a in k.translations for _, k, _ in held
                               for a in range(3)], (-1, 3))
        applied += [(g, (None, None, motion)) for g, _, motion in held]
        # the lead of every end's balance group (itself off joints) and the
        # end's position in its joint: the ends of each joint, supported
        # ones first
        joints = self.model.joints
        size = np.array([len(j.ends) for j in joints], dtype=int)
        jid = np.repeat(np.arange(len(joints)), size)
        head = size.cumsum() - size
        ends = np.array([2 * k + (end == END) for j in joints
                         for k, end in j.ends], dtype=int)
        ends = ends[np.lexsort((~supported[ends], jid))]
        lead, rank = np.arange(n), np.zeros(n, dtype=int)
        jointed = np.zeros(n, dtype=bool)
        lead[ends], rank[ends], jointed[ends] = (
            ends[head][jid], np.arange(len(ends)) - head[jid], True)
        applied += [(g, (j.force, j.moment))
                    for g, j in zip(ends[head], joints)]
        leading = lead == np.arange(n)
        follow = np.flatnonzero(~leading)
        m = len(follow)
        # translation rows that are spatial force rows: those of joint ends
        # and of supported ends that their support leaves free
        free = ~fixed[lead] & (jointed | supported)[:, None]
        member = jointed | free.any(axis=1)
        #: unknowns of the joint leads' points, end by end: the separator
        #: of ``_solve``
        self._separator = (6 * self._slots[jointed & leading, None]
                           + np.arange(6)).reshape(-1)

        #: the ends, maybe none, of: the Neumann force rows (free ends); the
        #: Neumann moment rows (free, hinged and roller ends); the spatial
        #: forces (balance group members); the spatial couples (joint ends)
        self._end_groups = tuple(
            EndGroup(g, self._slots[g], g % 2 * 2.0 - 1) for g in map(
                np.flatnonzero, (~jointed & ~supported, ~jointed & ~clamped,
                                 member, jointed)))
        #: (end, force/couple/motion, history) of every end load, joint load
        #: (on the joint's lead) and support motion
        self._histories = [(g, ch, history) for g, histories in applied
                           for ch, history in enumerate(histories)
                           if history is not None]

        #: per position in a group, lead first: (lead, member) of the groups
        #: that have a member there
        at_rank = (np.flatnonzero(member & (rank == r))
                   for r in range(rank.max() + 1))
        self._balance = [(lead[g], g) for g in at_rank if len(g)]
        #: (lead, component) of the balance force rows and the leads of its
        #: moment rows
        self._balance_force = np.nonzero(free & leading[:, None])
        self._balance_moment = np.flatnonzero(jointed & leading & ~clamped)
        #: (end, lead) of every continuity row
        self._continuity = (follow, lead[follow])
        #: (end, component) of every fixed translation and the clamped ends
        self._fixed = np.nonzero(fixed)
        self._clamped = np.flatnonzero(clamped)

        # The end values, planned on the sub-blocks that their sources write.
        # An end kernel writes rows (end, kernel, component) of its blocks:
        # the Neumann rows in their own slot, the spatial forces and couples
        # in their lead's; the force kernels force rows 0:3, the moment
        # kernels moment rows 3:6.  A continuity row writes R of its end on
        # its stencil and -R of its lead on the lead's, and unit diagonals
        # there, as do a support's fixed translations and a clamp; these
        # only where the value is nonzero.
        eye, rows = np.arange(3), 6 * self._slots
        each = np.ones(3, dtype=bool)

        def on_stencil(ends, on):
            # (source, (end, stencil point)) where ``on`` at the sources' ends
            i, q = np.nonzero(on[ends])
            return i, (ends[i], q)

        stencil, value = phi.any(axis=2), phi[..., 0] != 0
        kernel_rows = [np.nonzero(x & each) for x in (
            (~jointed & ~supported)[:, None], (~jointed & ~clamped)[:, None],
            free, (jointed & ~clamped[lead])[:, None])]
        kind = np.repeat(np.arange(4), [len(g) for g, _ in kernel_rows])
        g, a = (np.concatenate(x) for x in zip(*kernel_rows))
        i, p = on_stencil(g, stencil)
        g, kind, a = g[i], kind[i], a[i]
        #: per kernel row value: its blocks' row in ``_system`` and stencil
        self._end_rows = (g, kind, slice(None), a)
        self._end_phi = phi[p][:, :, None]
        slot = np.where(kind < 2, g, lead[g])
        planned = [((rows[slot] + a + 3 * (kind % 2))[:, None],
                    cols[p][:, None] + np.arange(6))]

        slot, g = np.tile(follow, 2), np.concatenate([follow, lead[follow]])
        unit = np.repeat([1.0, -1.0], m)
        i, p = on_stencil(g, value)
        #: per R block: its end and signed value stencil
        self._end_R = (g[i], (unit[i] * phi[p][:, 0])[:, None, None])
        planned.append((rows[slot[i], None, None] + 3 + eye[:, None],
                        cols[p][:, None, None] + 3 + eye))

        e, d = np.nonzero(clamped[:, None] & each)
        f, c = np.nonzero(~leading[:, None] & each)
        slot, d = (np.concatenate(x) for x in zip(
            self._fixed, (e, d + 3), (f, c), (f, c)))
        unit = np.repeat([1.0, -1.0], [len(d) - 3 * m, 3 * m])
        i, p = on_stencil(np.concatenate([self._fixed[0], e, f, lead[f]]),
                          value)
        #: the values of the unit diagonals
        self._end_unit = unit[i] * phi[p][:, 0]
        planned.append((rows[slot[i]] + d[i], cols[p] + d[i]))
        entries, self._end_of_value = np.unique(np.concatenate(
            [np.ravel(r * self.ndof + c) for r, c in planned]),
            return_inverse=True)
        return np.divmod(entries, self.ndof)

    def _plan_pattern(self, end):
        """Row and column of every value of the whole system.

        ``_system`` makes one value per entry: the interior values of each
        stencil width (force/moment rows, displacement/rotation
        columns, 3, 3, stencil point, point), then the end entries ``end``
        in row order, into which the end values are summed; these lie on no
        interior row.  Entries that are zero at a state are values too.
        Returns the blocks of entries as (rows, columns) that broadcast.
        """
        fm, dr, a, b, _, _ = np.indices((2, 2, 3, 3, 1, 1), sparse=True)
        inner = np.zeros(self.ndof // 6, dtype=bool)
        blocks = []
        for points, _, ctrl in self.runtime.interior:
            blocks.append((6 * points + 3 * fm + a, 6 * ctrl.T + 3 * dr + b))
            inner[points] = True
        if inner[end[0] // 6].any():
            raise RuntimeError("an end entry lies on an interior row")
        blocks.append(end)
        #: the rows of the end values (row, first value, length); ``end``
        #: is in row order
        first = np.flatnonzero(np.diff(end[0], prepend=-1))
        self._runs = (end[0][first], first, np.diff(first, append=len(end[0])))
        planned = _flatten(blocks)
        # every matrix shares them: an in-place edit of one would move the plan
        planned.flags.writeable = False
        self._rows, self._cols = planned
        filled = inner.repeat(6)
        filled[end[0]] = True
        empty = np.flatnonzero(~filled)
        if len(empty):
            raise RuntimeError(f"under-constrained system: empty rows {empty[:10]}")
        return blocks

    def _plan_solve(self, blocks):
        """Block elimination plan of ``_solve``.

        The separator is the six unknowns and the six slot rows of every
        joint's lead end.  Every other unknown is in the band, in natural
        order; so are a follower's unknowns and slot rows.  Off the
        separator columns a band row couples unknowns of its own patch only,
        so the band matrix D is block diagonal over patches and its
        bandwidths are those of the patch stencils.  Every planned entry has
        one place in the solve's buffer: in D's LAPACK band storage; in the
        packed right-hand sides of A_ds, where the separator unknowns that
        band rows of each patch reference (its own leads and its followers'
        leads, at most 12) lie side by side and the patches one below the
        other; for an A_ss entry, in the Schur complement S = A_ss -
        A_sd D⁻¹ A_ds, small (six unknowns per joint) and stored dense and
        column-major after them; or, for an A_sd entry, at the end of the
        buffer.  An A_sd entry on the band of patch k fills its row of S at
        every separator unknown packed for k; those places are planned too.
        The ``blocks`` of ``_plan_pattern`` are mapped to places before they
        broadcast; an end entry (the last block) on a band row that couples
        two patches raises ``RuntimeError``.
        """
        ndof, sep = self.ndof, self._separator
        ns = len(sep)
        in_sep = np.zeros(ndof, dtype=bool)
        in_sep[sep] = True
        band = np.flatnonzero(~in_sep)
        nb = len(band)
        # place of every unknown: in the band, or nb + its place in the
        # separator
        at = np.empty(ndof, dtype=np.int32)
        at[band], at[sep] = np.arange(nb), nb + np.arange(ns)
        patch = self.runtime.patch_of_point.astype(np.int32).repeat(6)
        r, c = blocks[-1]
        if np.any((patch[r] != patch[c]) & ~(in_sep[r] | in_sep[c])):
            raise RuntimeError("a band row couples two patches")
        i, j = ij = _flatten([(at[r], at[c]) for r, c in blocks])
        rs, cs = i >= nb, j >= nb
        dd = ~(rs | cs)
        ds, ss, sd = (np.flatnonzero(x) for x in (cs & ~rs, rs & cs, rs & ~cs))
        # packed columns: per patch, the separator unknowns that its band
        # rows reference, side by side
        pairs, pair = np.unique(patch.take(self._rows[ds]).astype(np.int64)
                                * ns + (j[ds] - nb), return_inverse=True)
        owner, unknown = np.divmod(pairs, ns)
        pack = np.arange(len(pairs)) - np.searchsorted(owner, owner)
        npack = pack.max(initial=-1) + 1
        packed = np.full((len(self.runtimes), npack), ns, dtype=np.int32)
        packed[owner, pack] = unknown
        #: band unknowns, and the separator unknown (ns: none) of every
        #: packed column at every band row
        self._band, self._packed = band, packed[patch[band]]

        # the entries off the band, before i becomes the band offset i - j
        i_ds = i[ds].astype(np.int64)
        (i_ss, j_ss), (i_sd, j_sd) = (ij[:, x].astype(np.int64) - nb
                                      for x in (ss, sd))
        d = np.subtract(i, j, out=i)
        on = d[dd]
        kl, ku = int(on.max(initial=0)), -int(on.min(initial=0))
        ldab = 2 * kl + ku + 1
        start = (ldab + npack + 1) * nb + ns * ns
        #: place in the solve's buffer of every value
        self._dest = np.multiply(j, ldab, dtype=np.int64)
        d += kl + ku
        self._dest += d
        del ij, i, j, d
        self._dest[ds] = ldab * nb + nb * pack[pair] + i_ds
        self._dest[ss] = start - ns * ns + i_ss + ns * j_ss
        self._dest[sd] = start + np.arange(len(sd))
        self._bands = (kl, ku, ldab, start + len(sd))
        #: row, band column and place in S (ns * ns: none) at every packed
        #: column of every A_sd entry, gathered from its patch's row of
        #: ns * packed, which is ns * ns or more where none is packed
        to_s = (ns * packed.astype(np.int64))[patch.take(self._cols[sd])]
        to_s += i_sd[:, None]
        self._fill = (i_sd, j_sd + nb, np.minimum(to_s, ns * ns, out=to_s))

    def _distributed(self, t: float) -> np.ndarray:
        """Distributed (force, moment) per unit length at every point at
        time t, (2, points, 3); each load is evaluated once."""
        fm = np.zeros((2, len(self.model.patches), 3))
        for load in self.model.loads:
            fm[0, load.patch] += load.force(t)
            if load.moment is not None:
                fm[1, load.patch] += load.moment(t)
        return fm[:, self.runtime.patch_of_point]

    def _init_conditions(self, v0=None, W0=None):
        st = self.runtime.state
        if v0 is not None:
            st.v = np.tile(np.asarray(v0, dtype=float), (st.n, 1))
        if W0 is not None:
            st.W = np.tile(np.asarray(W0, dtype=float), (st.n, 1))
        initialize_accelerations(st, self.runtime.law,
                                 *self._distributed(0.0))
        # supports hold their ends' accelerations
        (e, a), c = self._fixed, self._clamped
        st.a[self._slots[e], a] = 0.0
        st.A[self._slots[c]] = 0.0

    def set_initial_velocity(self, v0, W0=None):
        """Uniform initial velocities; re-derives consistent accelerations."""
        self._init_conditions(v0=v0, W0=W0)

    # -- assembly ------------------------------------------------------------

    def _residual(self, h: float, t_next: float) -> ResidualPass:
        """The residual pass at the current state: the section state, the
        residual kernels and the boundary and joint rows, which overwrite
        the end points' rows; nothing of the tangent."""
        rt = self.runtime
        sec = section_state(rt.state, rt.law, h, *self._distributed(t_next))
        rhs = -np.hstack([residual_force(rt.state, sec),
                          residual_moment(rt.state, rt.law, sec)]).reshape(-1)
        blocks, R = self._boundary_rows(sec, t_next, rhs)
        return ResidualPass(sec, blocks, R, rhs, np.empty(self.ndof))

    def _system(self, h: float, res: ResidualPass):
        """Equilibrated values of the system at the current state, one per
        planned entry in the order of ``_rows`` and ``_cols``, and its
        right-hand side, finished from the residual pass ``res``.  Interior
        values are contracted and scaled with the point index innermost."""
        # row equilibration: rows mix stiffness scales with unit Dirichlet rows
        blocks, scale = [], np.zeros(self.ndof)
        rt, sec = self.runtime, res.section
        # (force/moment rows, displacement/rotation columns, value/,s/,ss
        # stencil, 3, 3, point)
        C = np.concatenate((tangent_blocks_force(rt.state, rt.law, sec, h),
                            tangent_blocks_moment(rt.state, rt.law, sec, h)),
                           axis=1).reshape(rt.state.n, -1).T
        for points, phi, _ in rt.interior:
            V = np.einsum("rcdabn,dkn->rcabkn", C.take(points, axis=1)
                          .reshape(2, 2, 3, 3, 3, -1), phi)
            scale.reshape(-1, 6)[points] = np.abs(V).max(
                axis=(1, 3, 4)).reshape(6, -1).T
            blocks.append((points, V))
        # the blocks of every end kernel (end, kernel, stencil, 3, 6)
        blk = np.empty((len(self._slots), 4, 2, 3, 6))
        for ends, k, make in res.blocks:
            blk[ends, k] = make()
        B, phi = blk[self._end_rows], self._end_phi
        g, phi_R = self._end_R
        end = np.bincount(self._end_of_value, weights=np.concatenate((
            (B[:, 0] * phi[:, 0] + B[:, 1] * phi[:, 1]).reshape(-1),
            (res.R[g] * phi_R).reshape(-1), self._end_unit)))
        run_rows, runs, run_lengths = self._runs
        scale[run_rows] = np.maximum.reduceat(np.abs(end), runs)
        if not scale.all():
            zero = np.flatnonzero(scale == 0.0)
            raise RuntimeError(f"under-constrained system: zero rows {zero[:10]}")
        inv = np.divide(1.0, scale, out=res.inv)
        for points, V in blocks:
            V *= inv.reshape(-1, 6)[points].T.reshape(2, 1, 3, 1, 1, -1)
        end *= np.repeat(inv[run_rows], run_lengths)
        return (np.concatenate([V.reshape(-1) for _, V in blocks] + [end]),
                res.rhs * inv)

    def assemble(self, h: float, t_next: float):
        """The system of ``_system`` at a new residual pass as a COO matrix
        on the planned ``_rows`` and ``_cols``, zero entries included, and
        its right-hand side."""
        values, rhs = self._system(h, self._residual(h, t_next))
        return sp.coo_matrix((values, (self._rows, self._cols)),
                             shape=(self.ndof,) * 2), rhs

    def _boundary_rows(self, sec, t_next, rhs):
        """Fills the boundary entries of ``rhs`` from the section state
        ``sec``; returns what ``_system`` makes the end values from: the
        (ends, kernel, maker of their blocks) of every end kernel call and
        the rotation of every end.  Each end kernel runs at most once, on
        all the ends that need it.
        """
        n, st = len(self._slots), self.runtime.state
        c, R = st.c[self._slots], st.R[self._slots]
        ext = np.zeros((n, 3, 3))
        for g, ch, history in self._histories:
            ext[g, ch] += history(t_next)
        # the vector of every end kernel (end, kernel, 3); the couple of a
        # one-end group is never evaluated, and it subtracts a zero
        vec, blocks = np.zeros((n, 4, 3)), []
        for k, grp in enumerate(self._end_groups):
            if len(grp.ends):
                # the Neumann rows take their applied force or couple
                load = (ext[grp.ends, k],) if k < 2 else ()
                vec[grp.ends, k], make = (
                    neumann_force_row, neumann_moment_row, end_force_spatial,
                    end_moment_spatial)[k](st, sec, grp.pts, *load, grp.sign)
                blocks.append((grp.ends, k, make))
        # the Neumann rows, and the spatial end force and couple
        E, fm = vec[:, :2].reshape(n, 6), vec[:, 2:]
        if self._balance:
            # balance in the slot of each group's lead: the applied load
            # less the end resultants, member by member
            S = ext[:, :2]  # the end loads are read by now
            for q, g in self._balance:
                S[q] -= fm[g]
            q, a = self._balance_force
            E[q, a] = S[q, 0, a]
            q = self._balance_moment
            E[q, 3:] = S[q, 1]

        # continuity in the slots of the ends that do not lead their joint:
        # d_eta_i - d_eta_0 = c_0 - c_i, R_i dTheta_i - R_0 dTheta_0 =
        # log(Q_0 Q_i^T)
        g, g0 = self._continuity
        E[g, :3] = c[g0] - c[g]
        # supports: translations toward the (moving) support position, and a
        # clamp's rotation
        e, a = self._fixed
        E[e, a] = self._end_c0[e, a] + ext[e, 2, a] - c[e, a]
        e = self._clamped
        if len(g) or len(e):
            R0 = self._end_R0
            Q = R @ np.swapaxes(R0, -1, -2)
            rot = np.concatenate([Q[g0] @ np.swapaxes(Q[g], -1, -2),
                                  np.swapaxes(R[e], -1, -2) @ R0[e]])
            E[np.concatenate([g, e]), 3:] = so3.log_so3(rot)
        rhs.reshape(-1, 6)[self._slots] = E
        return blocks, R

    # -- solving ---------------------------------------------------------------

    def _solve(self, values, rhs):
        """Solve A x = rhs by block elimination onto the joint leads, for
        the system A whose planned entries hold ``values``.

        One LAPACK banded LU (``dgbsv``) factors the band matrix D, block
        diagonal over patches, and solves it for the band part of rhs and
        the packed separator columns A_ds at once.  The Schur complement S
        of the joint leads is formed as one dense column-major array and
        factored by one LAPACK LU (``dgesv``) with partial pivoting; only
        the A_sd entries that are nonzero at the state enter its update.  A
        model without joints has no separator, and its solve is the banded
        LU alone.  ``values`` holds one value per planned entry (else
        ``ValueError``); a singular D or S raises ``RuntimeError``.
        """
        if np.shape(values) != self._rows.shape:
            raise ValueError(f"{np.shape(values)} values for the "
                             f"{len(self._rows)} planned entries")
        kl, ku, ldab, size = self._bands
        band, packed = self._band, self._packed
        nb, npack = packed.shape
        buf = np.zeros(size)
        buf[self._dest] = values
        end = (ldab + npack + 1) * nb
        X = buf[ldab * nb:end].reshape(npack + 1, nb).T
        X[:, -1] = rhs[band]
        _, _, X, info = lapack.dgbsv(kl, ku, buf[:ldab * nb].reshape(nb, ldab).T,
                                     X, overwrite_ab=1, overwrite_b=1)
        if info:
            raise RuntimeError(f"singular band matrix (dgbsv info {info})")
        Y, xd = X[:, :-1], X[:, -1]
        x = np.empty_like(rhs)
        x[band] = xd
        sep, (r, c, to_s) = self._separator, self._fill
        ns = len(sep)
        if not ns:
            return x
        # S = A_ss - A_sd D⁻¹ A_ds, column-major after the packed columns,
        # and its right-hand side b_s - A_sd D⁻¹ b_d
        sd = buf[size - len(r):]
        live = np.flatnonzero(sd)
        r, c, sd = r[live], c[live], sd[live]
        S = buf[end:end + ns * ns]
        S -= np.bincount(to_s[live].ravel(), (sd[:, None] * Y[c]).ravel(),
                         minlength=ns * ns + 1)[:-1]
        b = rhs[sep] - np.bincount(r, sd * xd[c], minlength=ns)
        _, _, xs, info = lapack.dgesv(S.reshape(ns, ns).T, b, overwrite_a=1,
                                      overwrite_b=1)
        if info:
            raise RuntimeError(f"singular Schur complement (dgesv info {info})")
        x[sep] = xs
        x[band] -= np.einsum("ij,ij->i", Y, np.append(xs, 0.0)[packed])
        return x

    def newton(self, h: float, t_next: float) -> NewtonReport:
        """Newton-Raphson loop at the current predictor state, with full
        updates.  An iteration is counted before its update, so one that the
        pi guard of ``apply_increment`` stops with ``StepFailure`` counts.
        Each system goes from ``_system`` to ``_solve`` as its value vector.

        After an update the residual is first equilibrated with the row
        scales of the system just solved; within half the tolerance it has
        converged and no system is built.  The exact test on the new
        system's scales would agree unless a row scale halved.
        """
        s = self.settings
        report = NewtonReport(converged=False)
        grow = 0
        inv = None
        for it in range(s.max_iterations + 1):
            res = self._residual(h, t_next)
            if inv is not None:
                res_norm = np.abs(res.rhs * inv).max()
                if res_norm <= 0.5 * s.tol_residual:
                    report.residual_norms.append(res_norm)
                    report.converged = True
                    break
            values, rhs = self._system(h, res)
            inv = res.inv
            res_norm = np.abs(rhs).max()
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
            delta = self._solve(values, rhs)
            inc_norm = np.abs(delta).max()
            self.total_iterations += 1
            d, rt = delta.reshape(-1, 6), self.runtime
            f0, f1, f2 = rt.interp(d)
            apply_increment(rt.state, f0[:, :3], f1[:, :3], f2[:, :3],
                            f0[:, 3:], f1[:, 3:], f2[:, 3:], h)
            rt.ctrl += d[:, :3]
            acc = max(1.0, np.abs(rt.state.eta).max(),
                      np.abs(rt.state.Theta).max())
            log.debug("step t=%.6g iter=%d res=%.3e inc=%.3e", t_next, it + 1,
                      report.residual_norms[-1], inc_norm)
            if inc_norm <= s.tol_increment * acc:
                report.converged = True
                break
        return report

    # -- time marching -----------------------------------------------------------

    def _attempt(self, h: float) -> None:
        rt, t0 = self.runtime, self.t
        snap = rt.snapshot()
        try:
            begin_step(rt.state, rt.law, h)
            report = self.newton(h, t0 + h)
            if not report.converged:
                raise StepFailure(f"newton did not converge at t={t0 + h:.6g}")
            commit_step(rt.state, rt.law, h)
            self.t = t0 + h
        except StepFailure:
            rt.restore(snap)
            self.t = t0
            raise

    def advance(self, h: float, depth: int = 0) -> None:
        """One time step: one plain Newton attempt; a failed attempt is
        retried as two half steps, up to ``settings.max_halvings`` deep."""
        try:
            self._attempt(h)
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
        first, row, x0 = self._probes[probe.name]
        return row @ (self.runtime.ctrl[first:first + len(row)] - x0)

    def sample_curve(self, k: int, n_samples: int = 200):
        """Dense current/initial positions of patch ``k`` for output."""
        curve = self.model.patches[k].curve
        us = np.linspace(0.0, 1.0, n_samples)
        B = basis_matrices(curve.kv, us, 0,
                           curve.weights if curve.is_rational else None)[0]
        return B @ self.runtime.ctrl[self.runtimes[k]], B @ curve.points


@dataclass
class Trajectory:
    times: np.ndarray
    probes: dict
    iterations: list
    wall_time: float


def step_count(span: float, h: float) -> int:
    """Number of steps h in ``span``; ``ValueError`` unless it is a whole
    number, at least one, to a relative 1e-9."""
    ratio = span / h if h > 0 else np.nan
    n = int(round(ratio)) if np.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * n:
        raise ValueError(f"a time span of {span!r} is not a whole number "
                         f"of steps of {h!r}")
    return n


def time_march(sim: Simulation, t_end: float, h: float,
               observer=None) -> Trajectory:
    """March to ``t_end`` in steps of ``h``, sampling probes each step.

    ``t_end`` must lie a whole number of steps after the current time.  A
    ``StepFailure`` propagates with the history of the committed steps
    attached as its ``trajectory``.
    """
    n_steps = step_count(t_end - sim.t, h)
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
