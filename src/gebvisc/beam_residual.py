"""Strong-form residuals and consistent tangent blocks at collocation points.

Per collocation point the time-discretized force and moment balances are
evaluated together with the 3x3 coefficient blocks of their linearization with
respect to the incremental displacement and rotation fields and their first
and second arc-length derivatives.  All quantities are material (pulled back
by R^T); everything is vectorized over the points of a law stack.

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

import numpy as np

from . import so3
from .initial_geometry import InitialFrameField
from .viscoelastic import SectionLaw, ViscousState


class CollocationState:
    """Kinematic and viscous state at the collocation points of the patches
    of one law stack (all points of every patch that shares a section law).

    Arrays are stacked over points: vectors (n, 3), rotations (n, 3, 3).
    ``eta``/``Theta`` accumulate the within-step increments (``qTheta`` is the
    same incremental rotation kept as a unit quaternion); the starred arrays
    are the step-start extrapolation constants of the trapezoidal rule.
    Initial-configuration data (``R0``, ``K0``, ...) is shared, not copied.
    """

    ARRAYS = ("c", "c_s", "c_ss", "K", "K_s", "v", "a", "W", "A",
              "eta", "Theta", "a_star", "v_star", "A_star", "W_star")

    def __init__(self, frames: InitialFrameField, law: SectionLaw):
        n = len(frames.u)
        self.n = n
        self.c = frames.c0.copy()
        self.c_s = frames.c0_s.copy()
        self.c_ss = frames.c0_ss.copy()
        self.R = frames.R0.copy()
        self.K = frames.K0.copy()
        self.K_s = frames.K0_s.copy()
        for name in ("v", "a", "W", "A", "eta", "Theta",
                     "a_star", "v_star", "A_star", "W_star"):
            setattr(self, name, np.zeros((n, 3)))
        self.qTheta = np.zeros((n, 4))
        self.qTheta[:, 0] = 1.0
        self.visc = ViscousState(law.n_elements, n)
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


def _rowscale(d: np.ndarray, M: np.ndarray) -> np.ndarray:
    """diag(d) @ M for a length-3 diagonal and (n, 3, 3) matrices."""
    return d[None, :, None] * M


def kin(state: CollocationState):
    """Kinematic quantities at every point: R^T, y = R^T c,_s, and the strain
    measures Gam = y - R0^T c0,_s, Gam,_s, Kap = K - K0 and Kap,_s, read by
    the interior kernels and by the step begin and commit."""
    RT = np.swapaxes(state.R, -1, -2)
    y = np.einsum("nij,nj->ni", RT, state.c_s)
    Gam_s = (-so3.cross(state.K, y)
             + np.einsum("nij,nj->ni", RT, state.c_ss) - state.Gref_s)
    return (RT, y, y - state.Gref, Gam_s, state.K - state.K0,
            state.K_s - state.K0_s)


def _end_kin(state: CollocationState, pts: np.ndarray):
    """(R, R^T, y, Gam) of ``kin`` at the points ``pts``."""
    R = state.R.take(pts, axis=0)
    RT = np.swapaxes(R, -1, -2)
    y = np.einsum("nij,nj->ni", RT, state.c_s.take(pts, axis=0))
    return R, RT, y, y - state.Gref.take(pts, axis=0)


def residual_force(state: CollocationState, law: SectionLaw, CN_bar: np.ndarray,
                   n_dist: np.ndarray, h: float) -> np.ndarray:
    """Material force-balance residual (n, 3); zero at a converged solution.

    ``n_dist`` is the spatial distributed force per unit length at the step
    end; the acceleration channel of the state must already be the current
    trapezoidal extrapolation.
    """
    RT, y, Gam, Gam_s, _, _ = kin(state)
    SbG, SbG_s = state.visc.force_history(law)
    zF = CN_bar * Gam - SbG
    return (so3.cross(state.K, zF) + CN_bar * Gam_s - SbG_s
            + np.einsum("nij,nj->ni", RT, n_dist - law.mu * state.a))


def residual_moment(state: CollocationState, law: SectionLaw, CN_bar: np.ndarray,
                    CM_bar: np.ndarray, m_dist: np.ndarray, h: float) -> np.ndarray:
    """Material moment-balance residual (n, 3); zero at a converged solution."""
    RT, y, Gam, Gam_s, Kap, Kap_s = kin(state)
    SbG, _ = state.visc.force_history(law)
    SbK, SbK_s = state.visc.couple_history(law)
    zF = CN_bar * Gam - SbG
    zM = CM_bar * Kap - SbK
    J = law.inertia
    return (so3.cross(state.K, zM) + CM_bar * Kap_s - SbK_s + so3.cross(y, zF)
            + np.einsum("nij,nj->ni", RT, m_dist)
            - J * state.A - so3.cross(state.W, J * state.W))


def tangent_blocks_force(state: CollocationState, law: SectionLaw,
                         CN_bar: np.ndarray, n_dist: np.ndarray,
                         h: float) -> np.ndarray:
    """Consistent tangent blocks (n, 2, 3, 3, 3) of the force balance; it has
    no block on the second derivative of the rotation increment."""
    RT, y, Gam, _, _, _ = kin(state)
    SbG, _ = state.visc.force_history(law)
    zF = CN_bar * Gam - SbG
    Kt = so3.skew(state.K)
    yt = so3.skew(y)
    CNyt = _rowscale(CN_bar, yt)
    CNRT = _rowscale(CN_bar, RT)
    blk = np.zeros((state.n, 2, 3, 3, 3))
    blk[:, 0, 0] = -(4.0 / h ** 2) * law.mu * RT
    blk[:, 0, 1] = Kt @ CNRT - _rowscale(CN_bar, Kt @ RT)
    blk[:, 0, 2] = CNRT
    blk[:, 1, 0] = (
        Kt @ CNyt - so3.skew(zF) @ Kt
        + _rowscale(CN_bar, so3.skew(np.einsum("nij,nj->ni", RT, state.c_ss)))
        - _rowscale(CN_bar, so3.skew(so3.cross(state.K, y)))
        + so3.skew(np.einsum("nij,nj->ni", RT, n_dist - law.mu * state.a)))
    blk[:, 1, 1] = CNyt - so3.skew(zF)
    return blk


def tangent_blocks_moment(state: CollocationState, law: SectionLaw,
                          CN_bar: np.ndarray, CM_bar: np.ndarray,
                          m_dist: np.ndarray, h: float) -> np.ndarray:
    """Consistent tangent blocks (n, 2, 3, 3, 3) of the moment balance; its
    only block on the displacement increment is the ,s one.

    The inertia block carries the inverse tangent map of the accumulated
    incremental rotation, which transports the solver increment from the
    step-end tangent space to the one the trapezoidal extrapolation lives in.
    """
    RT, y, Gam, _, Kap, _ = kin(state)
    SbG, _ = state.visc.force_history(law)
    SbK, _ = state.visc.couple_history(law)
    zF = CN_bar * Gam - SbG
    zM = CM_bar * Kap - SbK
    Kt = so3.skew(state.K)
    yt = so3.skew(y)
    J = law.inertia
    n = state.n
    CMKt = _rowscale(CM_bar, Kt)
    G_blk = yt * CN_bar[None, None, :] - so3.skew(zF)
    Tinv = so3.tangent_map_inverse(state.Theta)
    Wt = so3.skew(state.W)
    inertia_blk = ((4.0 / h ** 2) * np.broadcast_to(np.diag(J), (n, 3, 3))
                   + (2.0 / h) * (Wt * J[None, None, :]
                                  - so3.skew(J * state.W)))
    blk = np.zeros((n, 2, 3, 3, 3))
    blk[:, 0, 1] = G_blk @ RT
    blk[:, 1, 0] = (Kt @ CMKt - so3.skew(zM) @ Kt
                    + _rowscale(CM_bar, so3.skew(state.K_s))
                    + G_blk @ yt
                    + so3.skew(np.einsum("nij,nj->ni", RT, m_dist))
                    - inertia_blk @ Tinv)
    blk[:, 1, 1] = CMKt + Kt * CM_bar[None, None, :] - so3.skew(zM)
    blk[:, 1, 2] = np.diag(CM_bar)
    return blk


# ---------------------------------------------------------------------------
# Boundary rows, stacked over a set of ends given as an index array ``pts`` of
# points.  ``sign`` (e,) is the outward normal of each end (+1 at u = 1, -1 at
# u = 0): an applied end load f satisfies sign * n(end) = f.  Each kernel
# returns its vector (e, 3) and its (e, 2, 3, 6) blocks.  The 3x3 products use
# ``@``, which gives the bits of the one-matrix product on each end of the
# stack.
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


def neumann_force_row(state: CollocationState, law: SectionLaw,
                      CN_bar: np.ndarray, pts: np.ndarray, n_c: np.ndarray,
                      sign: np.ndarray):
    """Material force boundary rows at the points ``pts`` with end loads
    ``n_c`` (e, 3): residuals and blocks."""
    _, RT, y, Gam = _end_kin(state, pts)
    SbG, _ = state.visc.force_history(law, pts)
    rn = (RT @ n_c[:, :, None])[..., 0]
    return SbG - CN_bar * Gam + sign[:, None] * rn, _end_blocks(
        CN_bar[:, None] * so3.skew(y) - sign[:, None, None] * so3.skew(rn),
        eta_s=CN_bar[:, None] * RT)


def neumann_moment_row(state: CollocationState, law: SectionLaw,
                       CM_bar: np.ndarray, pts: np.ndarray, m_c: np.ndarray,
                       sign: np.ndarray):
    """Material moment boundary rows at the points ``pts`` with end couples
    ``m_c`` (e, 3): residuals and blocks."""
    K = state.K.take(pts, axis=0)
    Kap = K - state.K0.take(pts, axis=0)
    SbK, _ = state.visc.couple_history(law, pts)
    RT = np.swapaxes(state.R.take(pts, axis=0), -1, -2)
    rm = (RT @ m_c[:, :, None])[..., 0]
    return SbK - CM_bar * Kap + sign[:, None] * rm, _end_blocks(
        CM_bar[:, None] * so3.skew(K) - sign[:, None, None] * so3.skew(rm),
        theta_s=np.diag(CM_bar))


def end_force_spatial(state: CollocationState, law: SectionLaw,
                      CN_bar: np.ndarray, pts: np.ndarray, sign: np.ndarray):
    """Spatial end forces sign * R N at the points ``pts`` and their blocks;
    used for joint balance and component-wise mixed supports, where rows live
    in the fixed frame."""
    R, RT, y, Gam = _end_kin(state, pts)
    SbG, _ = state.visc.force_history(law, pts)
    zF = CN_bar * Gam - SbG
    s = sign[:, None, None]
    return sign[:, None] * (R @ zF[:, :, None])[..., 0], _end_blocks(
        s * (R @ (CN_bar[:, None] * so3.skew(y) - so3.skew(zF))),
        eta_s=s * (R @ (CN_bar[:, None] * RT)))


def end_moment_spatial(state: CollocationState, law: SectionLaw,
                       CM_bar: np.ndarray, pts: np.ndarray, sign: np.ndarray):
    """Spatial end couples sign * R M at the points ``pts`` and their
    blocks."""
    K = state.K.take(pts, axis=0)
    SbK, _ = state.visc.couple_history(law, pts)
    zM = CM_bar * (K - state.K0.take(pts, axis=0)) - SbK
    R = state.R.take(pts, axis=0)
    s = sign[:, None, None]
    return sign[:, None] * (R @ zM[:, :, None])[..., 0], _end_blocks(
        s * (R @ (CM_bar[:, None] * so3.skew(K) - so3.skew(zM))),
        theta_s=s * (R @ np.diag(CM_bar)))
