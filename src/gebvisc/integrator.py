"""Trapezoidal time stepping consistent with the rotation group.

Within a step the accumulated incremental displacement eta and incremental
rotation vector Theta are the only unknowns; accelerations and velocities at
the step end are affine in them:

    a = (4/h^2) eta   - a*,   v = (2/h) eta   - v*,
    A = (4/h^2) Theta - A*,   W = (2/h) Theta - W*,

with the starred extrapolation constants frozen at the step start
(a* = (4/h) v_n + a_n, v* = v_n, and likewise for the angular channels).
Rotations are updated by right multiplication with the exponential of the
increment; the incremental rotation vector is accumulated through unit
quaternions to stay clear of the pi singularity as long as possible.
"""

from __future__ import annotations

import numpy as np

from . import so3
from .beam_residual import CollocationState, kin
from .viscoelastic import SectionLaw, compute_beta, internal_forces, \
    update_viscous_state


class StepFailure(RuntimeError):
    """Raised when a step cannot be completed at the current step size."""


def begin_step(state: CollocationState, law: SectionLaw, h: float) -> None:
    """Freeze history terms and apply the zero-increment predictor.

    Must be called on a converged state at the step start; afterwards the
    state holds the predictor kinematics (eta = Theta = 0, accelerations
    re-extrapolated) against which Newton iterations run.
    """
    if h <= 0.0:
        raise ValueError("time step must be positive")
    compute_beta(law, state.visc, *kin(state)[2:], h)
    state.a_star = (4.0 / h) * state.v + state.a
    state.v_star = state.v.copy()
    state.A_star = (4.0 / h) * state.W + state.A
    state.W_star = state.W.copy()
    state.eta[:] = 0.0
    state.Theta[:] = 0.0
    state.qTheta[:] = 0.0
    state.qTheta[:, 0] = 1.0
    state.a = -state.a_star.copy()
    state.v = -state.v_star.copy()
    state.A = -state.A_star.copy()
    state.W = -state.W_star.copy()


def apply_increment(state: CollocationState, de: np.ndarray, de_s: np.ndarray,
                    de_ss: np.ndarray, dt: np.ndarray, dt_s: np.ndarray,
                    dt_ss: np.ndarray, h: float) -> None:
    """Advance the state by interpolated increment fields (all (n, 3)).

    Position channels add; the rotation is right-multiplied by exp(dt) and the
    curvature channels are pushed through the exact update

        K   <- E^T K + T(dt) dt,_s
        K,s <- E^T K,s + (E^T K) x (T dt,_s) + dT(dt)[dt,_s] dt,_s + T dt,_ss

    with E = exp(dt) and T the right tangent map.  Kinematic channels are
    re-extrapolated from the accumulated increments.

    Raises
    ------
    StepFailure
        If the accumulated incremental rotation reaches the pi singularity;
        the caller should retry with a smaller step.
    """
    state.c += de
    state.c_s += de_s
    state.c_ss += de_ss
    state.eta += de

    if np.any(dt) or np.any(dt_s) or np.any(dt_ss):
        E = so3.exp_so3(dt)
        ET = np.swapaxes(E, -1, -2)
        T = so3.tangent_map(dt)
        Tdts = np.einsum("nij,nj->ni", T, dt_s)
        EK = np.einsum("nij,nj->ni", ET, state.K)
        K_new = EK + Tdts
        K_s_new = (np.einsum("nij,nj->ni", ET, state.K_s)
                   + so3.cross(EK, Tdts)
                   + np.einsum("nij,nj->ni", so3.dtangent_map(dt, dt_s), dt_s)
                   + np.einsum("nij,nj->ni", T, dt_ss))
        state.R = state.R @ E
        state.K = K_new
        state.K_s = K_s_new

        # accumulate on the quaternion double cover: the angle stays
        # continuous past pi instead of wrapping, so the singularity is
        # detected rather than silently branch-switched
        state.qTheta = so3.quat_normalize(
            so3.quat_multiply(state.qTheta, so3.quat_from_rotvec(dt)))
        theta, angle = so3.rotvec_from_quat_continuous(state.qTheta)
        if np.any(angle >= np.pi - so3.PI_MARGIN):
            raise StepFailure("incremental rotation reached pi")
        state.Theta = theta

    state.a = (4.0 / h ** 2) * state.eta - state.a_star
    state.v = (2.0 / h) * state.eta - state.v_star
    state.A = (4.0 / h ** 2) * state.Theta - state.A_star
    state.W = (2.0 / h) * state.Theta - state.W_star


def commit_step(state: CollocationState, law: SectionLaw, h: float) -> None:
    """Finalize a converged step: advance branch strains, tidy rotations."""
    update_viscous_state(law, state.visc, *kin(state)[2:], h)
    # re-orthonormalize against float drift; a no-op up to rounding
    state.R = so3.quat_to_matrix(so3.quat_from_matrix(state.R))


def initialize_accelerations(state: CollocationState, law: SectionLaw,
                             n_dist: np.ndarray, m_dist: np.ndarray) -> None:
    """Consistent accelerations at t = 0 from the pointwise balance equations.

    Uses the continuous-time constitutive law (no step size involved); any
    support constraints are applied afterwards by the model layer.
    """
    RT, y, Gam, Gam_s, Kap, Kap_s = kin(state)
    N, M = internal_forces(law, Gam, Kap, state.visc)
    mC = law.CNv[:, None, :]
    mM = law.CMv[:, None, :]
    N_s = law.CN_inf * Gam_s
    M_s = law.CM_inf * Kap_s
    if law.n_elements:
        N_s = N_s + (mC * (Gam_s[None] - state.visc.Gam_s)).sum(axis=0)
        M_s = M_s + (mM * (Kap_s[None] - state.visc.Kap_s)).sum(axis=0)
    f = so3.cross(state.K, N) + N_s + np.einsum("nij,nj->ni", RT, n_dist)
    state.a = np.einsum("nij,nj->ni", state.R, f) / law.mu
    rhs_m = (so3.cross(state.K, M) + M_s + so3.cross(y, N)
             + np.einsum("nij,nj->ni", RT, m_dist)
             - so3.cross(state.W, law.inertia * state.W))
    state.A = rhs_m / law.inertia
