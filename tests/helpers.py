"""Shared test fixtures: synthetic states, laws and analytic frame fields."""

import numpy as np

from gebvisc import so3
from gebvisc.beam_residual import (CollocationState, residual_force,
                                   residual_moment, section_state)
from gebvisc.initial_geometry import InitialFrameField, bishop_frames
from gebvisc.integrator import apply_increment
from gebvisc.splines import (MIN_JACOBIAN, KnotVector, NurbsCurve, greville,
                             interpolate_curve)
from gebvisc.viscoelastic import (SectionGeometry, build_section_law,
                                  trapezoidal_coeffs)


def unit_law(elements=((2.0, 0.5), (1.0, 0.05)), nu=0.3):
    """Section law with O(1) entries for well-conditioned FD checks."""
    geo = SectionGeometry(A=1.0, A2=0.8, A3=0.9, Jt=0.5, J2=0.3, J3=0.4)
    return build_section_law(1.0, nu, elements, geo, rho=1.0)


def straight_frames(n, length=1.0, axis=1):
    """Frame field of a straight beam along a coordinate axis."""
    u = np.linspace(0.0, 1.0, n)
    t = np.zeros(3)
    t[axis] = 1.0
    c0 = np.outer(u * length, t)
    R0 = np.zeros((n, 3, 3))
    others = [k for k in range(3) if k != axis]
    R0[:, :, 0] = t
    R0[:, others[0], 1] = 1.0
    R0[:, others[1], 2] = 1.0
    # make it proper if needed
    if np.linalg.det(R0[0]) < 0:
        R0[:, :, 2] *= -1.0
    z = np.zeros((n, 3))
    return InitialFrameField(u, c0, np.tile(t, (n, 1)), z.copy(), R0,
                             z.copy(), z.copy(), np.full(n, length),
                             np.zeros(n))


def random_state(law, n, h, rng, theta_scale=0.5):
    """Fully populated random-but-plausible state for tangent checks."""
    st = CollocationState(straight_frames(n), law)
    st.c = rng.normal(size=(n, 3))
    st.c_s = rng.normal(size=(n, 3)) * 0.3 + st.c_s
    st.c_ss = rng.normal(size=(n, 3)) * 0.5
    th = rng.normal(size=(n, 3))
    th *= (rng.uniform(0.1, 1.2, size=(n, 1))
           / np.linalg.norm(th, axis=-1, keepdims=True))
    st.R = so3.exp_so3(th)
    st.K = rng.normal(size=(n, 3))
    st.K_s = rng.normal(size=(n, 3))
    # random viscous history
    for name in st.visc.FIELDS:
        setattr(st.visc, name, rng.normal(size=(law.n_elements, n, 3)) * 0.2)
    # accumulated increments and starred channels; kinematics follow from them
    st.eta = rng.normal(size=(n, 3)) * 0.1
    Th = rng.normal(size=(n, 3))
    Th *= (theta_scale * rng.uniform(0.05, 1.0, size=(n, 1))
           / np.linalg.norm(Th, axis=-1, keepdims=True))
    st.qTheta = so3.quat_from_rotvec(Th)
    st.Theta = Th
    for name in ("a_star", "v_star", "A_star", "W_star"):
        setattr(st, name, rng.normal(size=(n, 3)))
    st.a = (4.0 / h ** 2) * st.eta - st.a_star
    st.v = (2.0 / h) * st.eta - st.v_star
    st.A = (4.0 / h ** 2) * st.Theta - st.A_star
    st.W = (2.0 / h) * st.Theta - st.W_star
    return st


def relative_error(fd, an, floor=1e-8):
    """Per-point relative deviation between two (n, 3) fields."""
    num = np.linalg.norm(fd - an, axis=-1)
    den = np.maximum(np.maximum(np.linalg.norm(fd, axis=-1),
                                np.linalg.norm(an, axis=-1)), floor)
    return (num / den).max()


def fd_tangent(residual, state, *args, eps=1.0e-7):
    """Central-difference tangent blocks (n, 2, 3, 3, 3) of
    ``residual(state, *args)``.

    Each increment channel (displacement and rotation, value and first and
    second arc-length derivative) is perturbed by +-eps along the solver's
    own update rule; ``args`` end with the step size h.
    """
    n, h = state.n, args[-1]
    blocks = [np.zeros((n, 3, 3)) for _ in range(6)]
    for ch in range(6):
        for comp in range(3):
            inc = [np.zeros((n, 3)) for _ in range(6)]
            inc[ch][:, comp] = eps
            sp = state.copy()
            apply_increment(sp, *inc, h)
            sm = state.copy()
            apply_increment(sm, *(-d for d in inc), h)
            blocks[ch][:, :, comp] = (residual(sp, *args)
                                      - residual(sm, *args)) / (2 * eps)
    return np.stack(blocks, axis=1).reshape(n, 2, 3, 3, 3)


def apply_blocks(blocks, de, de_s, de_ss, dt, dt_s, dt_ss) -> np.ndarray:
    """Contract interior tangent blocks (n, 2, 3, 3, 3) with increment
    fields (n, 3) -> (n, 3)."""
    out = np.einsum("nij,nj->ni", blocks[:, 0, 0], de)
    out += np.einsum("nij,nj->ni", blocks[:, 0, 1], de_s)
    out += np.einsum("nij,nj->ni", blocks[:, 0, 2], de_ss)
    out += np.einsum("nij,nj->ni", blocks[:, 1, 0], dt)
    out += np.einsum("nij,nj->ni", blocks[:, 1, 1], dt_s)
    out += np.einsum("nij,nj->ni", blocks[:, 1, 2], dt_ss)
    return out


def apply_end_blocks(blocks, inc, i) -> np.ndarray:
    """Contract the (2, 3, 6) blocks of one end row with the value and ,s
    of the six increment fields ``inc`` (as ``apply_blocks`` takes them) at
    the point ``i``."""
    return (blocks[0] @ np.concatenate([inc[0][i], inc[3][i]])
            + blocks[1] @ np.concatenate([inc[1][i], inc[4][i]]))


def force_residual(state, law, n_dist, h):
    """``residual_force`` on the section state of ``state`` at step h."""
    return residual_force(state, law, section_state(state, law, h), n_dist)


def moment_residual(state, law, m_dist, h):
    """``residual_moment`` on the section state of ``state`` at step h."""
    return residual_moment(state, law, section_state(state, law, h), m_dist)


def fd_tangent_blocks_force(state, law, sec, n_dist, h):
    """Drop-in finite-difference oracle for ``tangent_blocks_force``."""
    return fd_tangent(force_residual, state, law, n_dist, h)


def fd_tangent_blocks_moment(state, law, sec, m_dist, h):
    """Drop-in finite-difference oracle for ``tangent_blocks_moment``."""
    return fd_tangent(moment_residual, state, law, m_dist, h)


def linearize_viscous(h: float, taus) -> np.ndarray:
    """Factor h/(2 tau_a + h) picked up by branch strains under linearization.

    This is exactly the amount by which the instantaneous stiffness is reduced
    to the effective one in the tangent."""
    return trapezoidal_coeffs(taus, h)[0]


def compose_rotvec(theta: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Rotation vector of exp(skew(theta)) @ exp(skew(delta)) via quaternions."""
    return so3.rotvec_from_quat(
        so3.quat_multiply(so3.quat_from_rotvec(theta),
                          so3.quat_from_rotvec(delta)))


def initial_curvature(curve: NurbsCurve, eval_points, **kwargs) -> np.ndarray:
    """Initial material curvature at the evaluation points (see bishop_frames)."""
    return bishop_frames(curve, eval_points, **kwargs).K0


def interpolate_function(fn, degree: int, n: int) -> NurbsCurve:
    """Interpolate an analytic curve ``fn: u in [0,1] -> R^3`` at Greville points."""
    kv = KnotVector.open_uniform(degree, n)
    g = greville(kv)
    return interpolate_curve(g, np.array([fn(u) for u in g]), kv)


def patch_end(sim, k: int, end: str):
    """(law-stack state, stacked point index) of the end ``end`` of patch
    ``k`` of a simulation."""
    patch, rt, pts = sim.runtimes[k]
    return rt.state, pts.start + patch.end_index(end)


def one_end(kernel, state, law, h, i, *args):
    """A stacked end kernel on the section state of ``state`` at step h at
    the one point ``i``, given the load and the outward sign of that end (a
    vector and a scalar) and returning its vector and blocks at that end."""
    out = kernel(state, section_state(state, law, h), np.array([i]),
                 *(np.asarray(x, dtype=float)[None] for x in args))
    return tuple(x[0] for x in out)


def dense_solve(A, rhs):
    """Reference solve of an assembled system: LAPACK on the dense
    matrix."""
    return np.linalg.solve(A.toarray(), rhs)


def mmd_solve(A, rhs):
    """Sparse LU of an assembled system renumbered symmetrically in the
    minimum-degree order of AᵀA: the library's solve up to commit 81acb00,
    bit for bit.  A march's last bits follow the rounding of its solves, so
    a system recorded after a march with this solve is rebuilt with it.
    That solve saw A without its zero entries, and the order depends on
    the pattern, so it works on a copy of A with them dropped."""
    import scipy.sparse.linalg as spla
    A = A.copy()
    A.eliminate_zeros()
    pos = spla.splu(A, permc_spec="MMD_ATA").perm_c
    inv = np.argsort(pos)
    P = A[inv][:, inv].tocsc()
    P.sort_indices()
    b = np.empty_like(rhs)
    b[pos] = rhs
    return spla.splu(P, permc_spec="NATURAL").solve(b)[pos]


def superpose_rotation(state: CollocationState, Q: np.ndarray) -> CollocationState:
    """Rigidly rotate a state (and its initial configuration) by ``Q``.

    Material quantities are untouched; used by the frame-indifference checks.
    """
    out = state.copy()
    out.R = Q @ state.R
    for name in ("c", "c_s", "c_ss", "v", "a", "eta"):
        setattr(out, name, getattr(state, name) @ Q.T)
    out.R0 = Q @ state.R0
    return out


def is_rotation(R: np.ndarray, tol: float = 1.0e-12) -> bool:
    """True if ``R`` is proper orthogonal within ``tol`` (all batch entries)."""
    R = np.asarray(R, dtype=float)
    ortho = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max()
    det = np.abs(np.linalg.det(R) - 1.0).max()
    return bool(ortho <= tol and det <= tol)


def arclength_derivatives(c0: NurbsCurve, u: float) -> tuple[float, float]:
    """Jacobian J(u) = ||c0,_u|| and its parametric derivative J,_u."""
    d = c0.eval(u, 2)
    J = float(np.linalg.norm(d[1]))
    if J <= MIN_JACOBIAN:
        raise ValueError(f"degenerate parameterization at u = {u}")
    J_u = float(np.dot(d[1], d[2]) / J)
    return J, J_u


def read_history_csv(path):
    """Header list and data array of a history file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(v) for v in line.strip().split(",")]
                         for line in fh if line.strip()])
    return header, data


def read_vtk_points(path):
    """Points and displacement vectors of a snapshot written by
    ``write_vtk_snapshot``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = next(k for k, l in enumerate(lines) if l.startswith("POINTS"))
    n = int(lines[i].split()[1])
    pts = np.array([[float(v) for v in lines[i + 1 + k].split()]
                    for k in range(n)])
    j = next(k for k, l in enumerate(lines) if l.startswith("VECTORS"))
    disp = np.array([[float(v) for v in lines[j + 1 + k].split()]
                     for k in range(n)])
    return pts, disp
