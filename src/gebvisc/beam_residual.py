"""Strong-form residuals and consistent tangent blocks at collocation points.

Per collocation point the time-discretized force and moment balances are
evaluated together with the 3x3 coefficient blocks of their linearization with
respect to the incremental displacement and rotation fields and their first
and second arc-length derivatives.  All quantities are material (pulled back
by R^T); everything is vectorized over every collocation point of the model,
whose section laws are spelled out per point (``PointLaws``).

One section pass per residual pass, ``section_state``, evaluates
what all the kernels read: the kinematics of ``kin``, the Maxwell history
sums and the products of the step's effective stiffness with the strains,
both stacked (4, n, 3) over the channels, the effective stresses zF and zM,
the distributed loads pulled back to the material frame and, on first use
by a tangent kernel, the skew matrix of every vector a kernel crosses with,
made by one ``so3.skew`` call on the stack of those vectors.  The interior
kernels take it whole and the end kernels gather it at their points, so no
kernel recomputes strains, histories or skew matrices; only the Neumann
blocks skew their end loads.

The kernels return their blocks in the layout the system matrix is built
from, with the structural zeros as zeros of the array:

- an interior balance (force or moment) gives (n, 2, 3, 3, 3) blocks indexed
  [point, displacement/rotation columns, value/,s/,ss stencil, row, column];
- an end row gives (e, 2, 3, 6) blocks indexed [end, value/,s stencil, row,
  column], columns 0:3 acting on the displacement and 3:6 on the rotation
  increment.

The tangent blocks are the exact directional derivatives of the residuals
along the solver's own update rule (position channels incremented, rotations
right-multiplied by the exponential of the increment, strains recomputed,
accelerations re-extrapolated); a finite-difference oracle in the test suite
pins this down to 5e-6 relative.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from . import so3
from .initial_geometry import InitialFrameField
from .viscoelastic import PointLaws, ViscousState


class CollocationState:
    """Kinematic and viscous state at the collocation points of every patch
    of a model, stacked patch by patch in model order.

    Arrays are stacked over points: vectors (n, 3), rotations (n, 3, 3).
    ``eta``/``Theta`` accumulate the within-step increments (``qTheta`` is the
    same incremental rotation kept as a unit quaternion); the starred arrays
    are the step-start extrapolation constants of the trapezoidal rule.
    Initial-configuration data (``R0``, ``K0``, ...) is shared, not copied.
    """

    ARRAYS = ("c", "c_s", "c_ss", "K", "K_s", "v", "a", "W", "A",
              "eta", "Theta", "a_star", "v_star", "A_star", "W_star")

    def __init__(self, frames: InitialFrameField, law: PointLaws):
        n = len(frames.u)
        self.n = n
        self.c = frames.c0.copy()
        self.c_s = frames.c0_s.copy()
        self.c_ss = frames.c0_ss.copy()
        self.R = frames.R0.copy()
        self.K = frames.K0.copy()
        self.K_s = frames.K0_s.copy()
        for name in self.ARRAYS[5:]:
            setattr(self, name, np.zeros((n, 3)))
        self.qTheta = np.zeros((n, 4))
        self.qTheta[:, 0] = 1.0
        self.visc = ViscousState(law.m, n)
        # frozen initial-configuration channels
        self.R0 = frames.R0
        self.K0 = frames.K0
        self.K0_s = frames.K0_s
        self.Gref = np.einsum("nji,nj->ni", frames.R0, frames.c0_s)
        self.Gref_s = (-so3.cross(frames.K0, self.Gref)
                       + np.einsum("nji,nj->ni", frames.R0, frames.c0_ss))

    def copy(self) -> "CollocationState":
        out = object.__new__(CollocationState)
        out.n = self.n
        out.R = self.R.copy()
        out.qTheta = self.qTheta.copy()
        for name in self.ARRAYS:
            setattr(out, name, getattr(self, name).copy())
        out.visc = self.visc.copy()
        for name in ("R0", "K0", "K0_s", "Gref", "Gref_s"):
            setattr(out, name, getattr(self, name))
        return out


def kin(state: CollocationState):
    """Kinematic quantities at every point: R^T, y = R^T c,_s, the total
    strains stacked (4, n, 3) in the channel order of ``ViscousState``:
    Gam = y - R0^T c0,_s, Gam,_s, Kap = K - K0 and Kap,_s, then K x y and
    R^T c,_ss, read by the section pass and (the strains) by the step begin
    and commit."""
    RT = np.swapaxes(state.R, -1, -2)
    y = np.einsum("nij,nj->ni", RT, state.c_s)
    Ky = so3.cross(state.K, y)
    RTc_ss = np.einsum("nij,nj->ni", RT, state.c_ss)
    strains = np.array((y - state.Gref, -Ky + RTc_ss - state.Gref_s,
                        state.K - state.K0, state.K_s - state.K0_s))
    return RT, y, strains, Ky, RTc_ss


#: skew matrices (n, 3, 3) of the vectors the kernels cross with
Skews = namedtuple("Skews", "K y zF zM K_s W JW RTc_ss Ky rn rm Theta")

#: what every kernel reads of the section at a step size and loads: R^T and
#: y of ``kin``, CS = Cbar * strains and the Maxwell history sums Sb, both
#: stacked (4, n, 3), the effective stresses zF = CS[0] - Sb[0] and
#: zM = CS[2] - Sb[2], the rows CN_bar and CM_bar (n, 3) of Cbar, the material
#: loads rn = R^T (n_dist - mu a) and rm = R^T m_dist, J W and a function
#: that makes the ``Skews`` on its first call
SectionState = namedtuple(
    "SectionState", "RT y CS Sb zF zM CN_bar CM_bar rn rm JW skews")


def section_state(state: CollocationState, law: PointLaws, h: float,
                  n_dist: np.ndarray, m_dist: np.ndarray) -> SectionState:
    """The section pass of the state under the spatial distributed force
    and moment ``n_dist`` and ``m_dist`` (n, 3), evaluated once per
    residual pass; Cbar, CS and Sb are stacked (4, n, 3) like the strains."""
    RT, y, strains, Ky, RTc_ss = kin(state)
    Cbar = law.at_step(h)[0]
    CS = Cbar * strains
    Sb = state.visc.history(law)
    zF, zM = CS[::2] - Sb[::2]
    JW = law.inertia * state.W
    rn = np.einsum("nij,nj->ni", RT, n_dist - law.mu * state.a)
    rm = np.einsum("nij,nj->ni", RT, m_dist)
    vectors = (state.K, y, zF, zM, state.K_s, state.W, JW, RTc_ss, Ky, rn,
               rm, state.Theta)
    skews = functools.cache(lambda: Skews(*so3.skew(
        np.concatenate(vectors).reshape(len(vectors), -1, 3))))
    return SectionState(RT, y, CS, Sb, zF, zM, Cbar[0], Cbar[2], rn, rm, JW,
                        skews)


def residual_force(state: CollocationState,
                   sec: SectionState) -> np.ndarray:
    """Material force-balance residual (n, 3); zero at a converged solution.

    The acceleration channel of the state must already be the current
    trapezoidal extrapolation.
    """
    return so3.cross(state.K, sec.zF) + sec.CS[1] - sec.Sb[1] + sec.rn


def residual_moment(state: CollocationState, law: PointLaws,
                    sec: SectionState) -> np.ndarray:
    """Material moment-balance residual (n, 3); zero at a converged solution."""
    return (so3.cross(state.K, sec.zM) + sec.CS[3] - sec.Sb[3]
            + so3.cross(sec.y, sec.zF) + sec.rm
            - law.inertia * state.A - so3.cross(state.W, sec.JW))


def tangent_blocks_force(state: CollocationState, law: PointLaws,
                         sec: SectionState, h: float) -> np.ndarray:
    """Consistent tangent blocks (n, 2, 3, 3, 3) of the force balance; it has
    no block on the second derivative of the rotation increment."""
    RT, CN, sk = sec.RT, sec.CN_bar[..., None], sec.skews()
    Kt = sk.K
    CNyt, CNRT = CN * sk.y, CN * RT
    blk = np.zeros((state.n, 2, 3, 3, 3))
    blk[:, 0, 0] = (-(4.0 / h ** 2) * law.mu)[..., None] * RT
    blk[:, 0, 1] = Kt @ CNRT - CN * (Kt @ RT)
    blk[:, 0, 2] = CNRT
    blk[:, 1, 0] = (Kt @ CNyt - sk.zF @ Kt + CN * sk.RTc_ss - CN * sk.Ky
                    + sk.rn)
    blk[:, 1, 1] = CNyt - sk.zF
    return blk


def tangent_blocks_moment(state: CollocationState, law: PointLaws,
                          sec: SectionState, h: float) -> np.ndarray:
    """Consistent tangent blocks (n, 2, 3, 3, 3) of the moment balance; its
    only block on the displacement increment is the ,s one.

    The inertia block carries the inverse tangent map of the accumulated
    incremental rotation, which transports the solver increment from the
    step-end tangent space to the one the trapezoidal extrapolation lives in.
    """
    RT, CM, sk = sec.RT, sec.CM_bar[..., None], sec.skews()
    Kt, yt, J = sk.K, sk.y, law.inertia[:, None]
    CMKt = CM * Kt
    G_blk = yt * sec.CN_bar[:, None] - sk.zF
    Tinv = so3.tangent_map_inverse(state.Theta, sk.Theta)
    inertia_blk = ((4.0 / h ** 2) * (law.inertia[..., None] * np.eye(3))
                   + (2.0 / h) * (sk.W * J - sk.JW))
    blk = np.zeros((state.n, 2, 3, 3, 3))
    blk[:, 0, 1] = G_blk @ RT
    blk[:, 1, 0] = (Kt @ CMKt - sk.zM @ Kt + CM * sk.K_s
                    + G_blk @ yt + sk.rm - inertia_blk @ Tinv)
    blk[:, 1, 1] = CMKt + Kt * sec.CM_bar[:, None] - sk.zM
    blk[:, 1, 2] = CM * np.eye(3)
    return blk


# ---------------------------------------------------------------------------
# Boundary rows, stacked over a set of ends given as an index array ``pts`` of
# points.  ``sign`` (e,) is the outward normal of each end (+1 at u = 1, -1 at
# u = 0): an applied end load f satisfies sign * n(end) = f.  Each kernel
# returns its vector (e, 3) and a function that makes its (e, 2, 3, 6)
# blocks, so a pass that makes residuals alone makes no blocks and no skew
# matrices of the section.  The 3x3 products use
# ``@``, which gives the bits of the one-matrix product on each end of the
# stack.  A Neumann row writes Sb[0] - CS[0] as 0 - zF: the same bits as
# that difference, a zero included, where -zF would turn +0 into -0.
# ---------------------------------------------------------------------------

def _end_blocks(theta, theta_s=0.0, eta_s=0.0) -> np.ndarray:
    """(e, 2, 3, 6) blocks of an end row from its blocks on the rotation
    increment, on its ,s and on the ,s of the displacement increment; an end
    row has no block on the displacement increment itself."""
    blk = np.zeros((len(theta), 2, 3, 6))
    blk[:, 0, :, 3:] = theta
    blk[:, 1, :, 3:] = theta_s
    blk[:, 1, :, :3] = eta_s
    return blk


def neumann_force_row(state: CollocationState, sec: SectionState,
                      pts: np.ndarray, n_c: np.ndarray, sign: np.ndarray):
    """Material force boundary rows at the points ``pts`` with end loads
    ``n_c`` (e, 3): residuals and the maker of their blocks."""
    RT = np.swapaxes(state.R.take(pts, axis=0), -1, -2)
    rn = (RT @ n_c[:, :, None])[..., 0]
    CN = sec.CN_bar.take(pts, axis=0)[..., None]
    return 0.0 - sec.zF.take(pts, axis=0) + sign[:, None] * rn, lambda: (
        _end_blocks(CN * sec.skews().y.take(pts, axis=0)
                    - sign[:, None, None] * so3.skew(rn), eta_s=CN * RT))


def neumann_moment_row(state: CollocationState, sec: SectionState,
                       pts: np.ndarray, m_c: np.ndarray, sign: np.ndarray):
    """Material moment boundary rows at the points ``pts`` with end couples
    ``m_c`` (e, 3): residuals and the maker of their blocks."""
    RT = np.swapaxes(state.R.take(pts, axis=0), -1, -2)
    rm = (RT @ m_c[:, :, None])[..., 0]
    CM = sec.CM_bar.take(pts, axis=0)[..., None]
    return 0.0 - sec.zM.take(pts, axis=0) + sign[:, None] * rm, lambda: (
        _end_blocks(CM * sec.skews().K.take(pts, axis=0)
                    - sign[:, None, None] * so3.skew(rm),
                    theta_s=CM * np.eye(3)))


def end_force_spatial(state: CollocationState, sec: SectionState,
                      pts: np.ndarray, sign: np.ndarray):
    """Spatial end forces sign * R N at the points ``pts`` and the maker of
    their blocks; used for joint balance and component-wise mixed supports,
    where rows live in the fixed frame."""
    R = state.R.take(pts, axis=0)
    zF = sec.zF.take(pts, axis=0)
    CN, s = sec.CN_bar.take(pts, axis=0)[..., None], sign[:, None, None]
    return sign[:, None] * (R @ zF[:, :, None])[..., 0], lambda: _end_blocks(
        s * (R @ (CN * sec.skews().y.take(pts, axis=0)
                  - sec.skews().zF.take(pts, axis=0))),
        eta_s=s * (R @ (CN * np.swapaxes(R, -1, -2))))


def end_moment_spatial(state: CollocationState, sec: SectionState,
                       pts: np.ndarray, sign: np.ndarray):
    """Spatial end couples sign * R M at the points ``pts`` and the maker of
    their blocks."""
    R = state.R.take(pts, axis=0)
    zM = sec.zM.take(pts, axis=0)
    CM, s = sec.CM_bar.take(pts, axis=0)[..., None], sign[:, None, None]
    return sign[:, None] * (R @ zM[:, :, None])[..., 0], lambda: _end_blocks(
        s * (R @ (CM * sec.skews().K.take(pts, axis=0)
                  - sec.skews().zM.take(pts, axis=0))),
        theta_s=s * (R @ (CM * np.eye(3))))
