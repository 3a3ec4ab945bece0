"""Strong-form residuals and consistent tangent blocks at collocation points.

Per collocation point the time-discretized force and moment balances are
evaluated together with the 3x3 coefficient blocks of their linearization with
respect to the incremental displacement and rotation fields and their first
and second arc-length derivatives.  All quantities are material (pulled back
by R^T); everything is vectorized over the points of a law stack.

The tangent blocks are the exact directional derivatives of the residuals
along the solver's own update rule (position channels incremented, rotations
right-multiplied by the exponential of the increment, strains recomputed,
accelerations re-extrapolated); a finite-difference oracle in the test suite
pins this down to 5e-6 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    # -- strain measures, always recomputed from the kinematics ------------

    def gamma(self) -> np.ndarray:
        """Translational strain R^T c,_s - R0^T c0,_s (n, 3)."""
        return np.einsum("nji,nj->ni", self.R, self.c_s) - self.Gref

    def gamma_s(self) -> np.ndarray:
        y = np.einsum("nji,nj->ni", self.R, self.c_s)
        return (-so3.cross(self.K, y)
                + np.einsum("nji,nj->ni", self.R, self.c_ss) - self.Gref_s)

    def kappa(self) -> np.ndarray:
        """Curvature change K - K0 (n, 3)."""
        return self.K - self.K0

    def kappa_s(self) -> np.ndarray:
        return self.K_s - self.K0_s


@dataclass
class TangentBlocks:
    """3x3 coefficient blocks of one balance row, stacked over points.

    ``e*`` act on the displacement increment channels (value, ,s, ,ss) and
    ``t*`` on the rotation increment channels.  The force balance has no
    second-derivative rotation block and the moment balance no
    second-derivative displacement block; those stay zero arrays.
    """
    e: np.ndarray
    es: np.ndarray
    ess: np.ndarray
    t: np.ndarray
    ts: np.ndarray
    tss: np.ndarray

    def apply(self, de, de_s, de_ss, dt, dt_s, dt_ss) -> np.ndarray:
        """Contract the blocks with increment fields (n, 3) -> (n, 3)."""
        out = np.einsum("nij,nj->ni", self.e, de)
        out += np.einsum("nij,nj->ni", self.es, de_s)
        out += np.einsum("nij,nj->ni", self.ess, de_ss)
        out += np.einsum("nij,nj->ni", self.t, dt)
        out += np.einsum("nij,nj->ni", self.ts, dt_s)
        out += np.einsum("nij,nj->ni", self.tss, dt_ss)
        return out


def _rowscale(d: np.ndarray, M: np.ndarray) -> np.ndarray:
    """diag(d) @ M for a length-3 diagonal and (n, 3, 3) matrices."""
    return d[None, :, None] * M


def _kin(state: CollocationState):
    """Shared kinematic quantities (RT, y, Gam, Gam_s, Kap, Kap_s) at every
    point."""
    RT = np.swapaxes(state.R, -1, -2)
    y = np.einsum("nij,nj->ni", RT, state.c_s)
    Gam_s = (-so3.cross(state.K, y)
             + np.einsum("nij,nj->ni", RT, state.c_ss) - state.Gref_s)
    return (RT, y, y - state.Gref, Gam_s, state.K - state.K0,
            state.K_s - state.K0_s)


def _end_kin(state: CollocationState, pts: np.ndarray):
    """(R, R^T, y, Gam) of ``_kin`` at the points ``pts``."""
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
    RT, y, Gam, Gam_s, _, _ = _kin(state)
    SbG, SbG_s = state.visc.force_history(law)
    zF = CN_bar * Gam - SbG
    return (so3.cross(state.K, zF) + CN_bar * Gam_s - SbG_s
            + np.einsum("nij,nj->ni", RT, n_dist - law.mu * state.a))


def residual_moment(state: CollocationState, law: SectionLaw, CN_bar: np.ndarray,
                    CM_bar: np.ndarray, m_dist: np.ndarray, h: float) -> np.ndarray:
    """Material moment-balance residual (n, 3); zero at a converged solution."""
    RT, y, Gam, Gam_s, Kap, Kap_s = _kin(state)
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
                         h: float) -> TangentBlocks:
    """Consistent tangent blocks of the force balance."""
    RT, y, Gam, _, _, _ = _kin(state)
    SbG, _ = state.visc.force_history(law)
    zF = CN_bar * Gam - SbG
    Kt = so3.skew(state.K)
    yt = so3.skew(y)
    CNyt = _rowscale(CN_bar, yt)
    CNRT = _rowscale(CN_bar, RT)
    n = state.n
    zero = np.zeros((n, 3, 3))
    ts = CNyt - so3.skew(zF)
    t = (Kt @ CNyt - so3.skew(zF) @ Kt
         + _rowscale(CN_bar, so3.skew(np.einsum("nij,nj->ni", RT, state.c_ss)))
         - _rowscale(CN_bar, so3.skew(so3.cross(state.K, y)))
         + so3.skew(np.einsum("nij,nj->ni", RT, n_dist - law.mu * state.a)))
    es = Kt @ CNRT - _rowscale(CN_bar, Kt @ RT)
    e = -(4.0 / h ** 2) * law.mu * RT
    return TangentBlocks(e=e, es=es, ess=CNRT, t=t, ts=ts, tss=zero)


def tangent_blocks_moment(state: CollocationState, law: SectionLaw,
                          CN_bar: np.ndarray, CM_bar: np.ndarray,
                          m_dist: np.ndarray, h: float) -> TangentBlocks:
    """Consistent tangent blocks of the moment balance.

    The inertia block carries the inverse tangent map of the accumulated
    incremental rotation, which transports the solver increment from the
    step-end tangent space to the one the trapezoidal extrapolation lives in.
    """
    RT, y, Gam, _, Kap, _ = _kin(state)
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
    t = (Kt @ CMKt - so3.skew(zM) @ Kt
         + _rowscale(CM_bar, so3.skew(state.K_s))
         + G_blk @ yt
         + so3.skew(np.einsum("nij,nj->ni", RT, m_dist))
         - inertia_blk @ Tinv)
    ts = CMKt + Kt * CM_bar[None, None, :] - so3.skew(zM)
    tss = np.broadcast_to(np.diag(CM_bar), (n, 3, 3)).copy()
    zero = np.zeros((n, 3, 3))
    return TangentBlocks(e=zero, es=G_blk @ RT, ess=zero, t=t, ts=ts, tss=tss)


# ---------------------------------------------------------------------------
# Boundary rows, stacked over a set of ends given as an index array ``pts`` of
# points.  ``sign`` (e,) is the outward normal of each end (+1 at u = 1, -1 at
# u = 0): an applied end load f satisfies sign * n(end) = f.  The 3x3
# products use ``@``, which gives the bits of the one-matrix product on each
# end of the stack.
# ---------------------------------------------------------------------------

@dataclass
class BoundaryRow:
    """Residuals (e, 3) and tangent blocks (e, 3, 3) of one boundary
    condition row at e ends."""
    residual: np.ndarray
    t: np.ndarray        # block on the rotation increment
    ts: np.ndarray       # block on its first arc-length derivative
    es: np.ndarray       # block on the displacement increment derivative


def neumann_force_row(state: CollocationState, law: SectionLaw,
                      CN_bar: np.ndarray, pts: np.ndarray, n_c: np.ndarray,
                      sign: np.ndarray) -> BoundaryRow:
    """Material force boundary rows at the points ``pts`` with end loads
    ``n_c`` (e, 3)."""
    _, RT, y, Gam = _end_kin(state, pts)
    SbG, _ = state.visc.force_history(law, pts)
    rn = (RT @ n_c[:, :, None])[..., 0]
    res = SbG - CN_bar * Gam + sign[:, None] * rn
    t = CN_bar[:, None] * so3.skew(y) - sign[:, None, None] * so3.skew(rn)
    es = CN_bar[:, None] * RT
    return BoundaryRow(residual=res, t=t, ts=np.zeros(t.shape), es=es)


def neumann_moment_row(state: CollocationState, law: SectionLaw,
                       CM_bar: np.ndarray, pts: np.ndarray, m_c: np.ndarray,
                       sign: np.ndarray) -> BoundaryRow:
    """Material moment boundary rows at the points ``pts`` with end couples
    ``m_c`` (e, 3)."""
    K = state.K.take(pts, axis=0)
    Kap = K - state.K0.take(pts, axis=0)
    SbK, _ = state.visc.couple_history(law, pts)
    RT = np.swapaxes(state.R.take(pts, axis=0), -1, -2)
    rm = (RT @ m_c[:, :, None])[..., 0]
    res = SbK - CM_bar * Kap + sign[:, None] * rm
    t = CM_bar[:, None] * so3.skew(K) - sign[:, None, None] * so3.skew(rm)
    ts = np.empty(t.shape)
    ts[:] = np.diag(CM_bar)
    return BoundaryRow(residual=res, t=t, ts=ts, es=np.zeros(t.shape))


def end_force_spatial(state: CollocationState, law: SectionLaw,
                      CN_bar: np.ndarray, pts: np.ndarray, sign: np.ndarray):
    """Spatial end forces sign * R N at the points ``pts`` and their tangent
    blocks.

    Returns (forces (e, 3), blocks_theta, blocks_eta_s (e, 3, 3)); used for
    joint balance and component-wise mixed supports, where rows live in the
    fixed frame.
    """
    R, RT, y, Gam = _end_kin(state, pts)
    SbG, _ = state.visc.force_history(law, pts)
    zF = CN_bar * Gam - SbG
    f = sign[:, None] * (R @ zF[:, :, None])[..., 0]
    s = sign[:, None, None]
    blk_t = s * (R @ (CN_bar[:, None] * so3.skew(y) - so3.skew(zF)))
    blk_es = s * (R @ (CN_bar[:, None] * RT))
    return f, blk_t, blk_es


def end_moment_spatial(state: CollocationState, law: SectionLaw,
                       CM_bar: np.ndarray, pts: np.ndarray, sign: np.ndarray):
    """Spatial end couples sign * R M at the points ``pts`` and their tangent
    blocks (couples (e, 3), blocks_theta, blocks_theta_s (e, 3, 3))."""
    K = state.K.take(pts, axis=0)
    SbK, _ = state.visc.couple_history(law, pts)
    zM = CM_bar * (K - state.K0.take(pts, axis=0)) - SbK
    R = state.R.take(pts, axis=0)
    m = sign[:, None] * (R @ zM[:, :, None])[..., 0]
    s = sign[:, None, None]
    blk_t = s * (R @ (CM_bar[:, None] * so3.skew(K) - so3.skew(zM)))
    blk_ts = s * (R @ np.diag(CM_bar))
    return m, blk_t, blk_ts
