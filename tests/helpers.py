"""Shared test fixtures: synthetic states, laws and analytic frame fields."""

import hashlib
import types

import numpy as np
import scipy.sparse as sp

from gebvisc import so3
from gebvisc.assembly import EndGroup, PatchSlot
from gebvisc.beam_residual import (CollocationState, residual_force,
                                   residual_moment, section_state,
                                   tangent_blocks_force,
                                   tangent_blocks_moment)
from gebvisc.initial_geometry import (MIN_TANGENT, InitialFrameField,
                                      bishop_frames)
from gebvisc.integrator import apply_increment
from gebvisc.model import (END, START, SUPPORT_KINDS, BeamModel,
                           DistributedLoad, EndLoad, Joint, LoadHistory,
                           Support, build_patches)
from gebvisc.splines import (KnotVector, NurbsCurve, basis_eval_many,
                             basis_matrices, eval_many, greville,
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
    # random viscous history: the branch strains, then the history terms,
    # one strain channel at a time
    for stack in (st.visc.branch, st.visc.beta):
        for k in range(4):
            stack[:, k] = rng.normal(size=(law.n_elements, n, 3)) * 0.2
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


def unloaded_section(state, law, h):
    """``section_state`` of ``state`` at step h without distributed loads."""
    return section_state(state, law, h, *np.zeros((2, state.n, 3)))


def force_residual(state, law, n_dist, h):
    """``residual_force`` on the section state of ``state`` at step h under
    the distributed force ``n_dist``, which is all it reads of the loads."""
    return residual_force(state, section_state(
        state, law, h, n_dist, np.zeros_like(n_dist)))


def moment_residual(state, law, m_dist, h):
    """``residual_moment`` on the section state of ``state`` at step h under
    the distributed moment ``m_dist``, which is all it reads of the loads."""
    return residual_moment(state, law, section_state(
        state, law, h, np.zeros_like(m_dist), m_dist))


def fd_tangent_blocks_force(state, law, sec, h):
    """Drop-in finite-difference oracle for ``tangent_blocks_force``; the
    distributed force is recovered from the section's material load
    rn = R^T (n_dist - mu a)."""
    n_dist = np.einsum("nij,nj->ni", state.R, sec.rn) + law.mu * state.a
    return fd_tangent(force_residual, state, law, n_dist, h)


def fd_tangent_blocks_moment(state, law, sec, h):
    """Drop-in finite-difference oracle for ``tangent_blocks_moment``; the
    distributed moment is recovered from the material load rm = R^T m_dist."""
    m_dist = np.einsum("nij,nj->ni", state.R, sec.rm)
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
    return bishop_frames([curve], eval_points, **kwargs)[0][0].K0


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


def end_row(kernel, state, sec, pts, *args):
    """An end kernel's vector and its blocks at the points ``pts``."""
    vec, make = kernel(state, sec, pts, *args)
    return vec, make()


def one_end(kernel, state, law, h, i, *args):
    """A stacked end kernel on the section state of ``state`` at step h at
    the one point ``i``, given the load and the outward sign of that end (a
    vector and a scalar) and returning its vector and blocks at that end."""
    out = end_row(kernel, state, unloaded_section(state, law, h),
                  np.array([i]),
                  *(np.asarray(x, dtype=float)[None] for x in args))
    return tuple(x[0] for x in out)


def value_solve(sim, solve):
    """A stand-in for ``sim._solve`` that solves the system of a planned
    value vector by ``solve(A, rhs)``, with A the COO matrix on the plan
    that ``sim.assemble`` returns."""
    def solve_values(values, rhs):
        return solve(sp.coo_matrix((values, (sim._rows, sim._cols)),
                                   shape=(sim.ndof,) * 2), rhs)
    return solve_values


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
    the pattern, so it works on a CSC copy of A with them dropped."""
    import scipy.sparse.linalg as spla
    A = A.tocsc()
    A.eliminate_zeros()
    pos = spla.splu(A, permc_spec="MMD_ATA").perm_c
    inv = np.argsort(pos)
    P = A[inv][:, inv].tocsc()
    P.sort_indices()
    b = np.empty_like(rhs)
    b[pos] = rhs
    return spla.splu(P, permc_spec="NATURAL").solve(b)[pos]


def assembling_newton(sim):
    """``sim.newton`` as it was up to commit f9a9e76: every residual
    evaluation assembles the whole system and the exact equilibrated
    residual decides; install with ``sim.newton = assembling_newton(sim)``."""
    from gebvisc.assembly import NewtonReport

    def newton(h, t_next):
        s = sim.settings
        report = NewtonReport(converged=False)
        grow = 0
        for it in range(s.max_iterations + 1):
            A, rhs = sim.assemble(h, t_next)
            res_norm = np.abs(rhs).max() if len(rhs) else 0.0
            report.residual_norms.append(res_norm)
            if res_norm <= s.tol_residual:
                report.converged = True
                break
            if len(report.residual_norms) >= 2 and \
                    res_norm > report.residual_norms[-2]:
                grow += 1
                if grow >= 3:
                    break
            else:
                grow = 0
            if it == s.max_iterations:
                break
            delta = sim._solve(A.data, rhs)
            inc_norm = np.abs(delta).max()
            sim.total_iterations += 1
            acc = 1.0
            d = delta.reshape(-1, 6)
            for rt in sim.stacks:
                f0, f1, f2 = rt.interp(d)
                apply_increment(rt.state, f0[:, :3], f1[:, :3], f2[:, :3],
                                f0[:, 3:], f1[:, 3:], f2[:, 3:], h)
                rt.ctrl += d[rt.points, :3]
                acc = max(acc, np.abs(rt.state.eta).max(),
                          np.abs(rt.state.Theta).max())
            if inc_norm <= s.tol_increment * acc:
                report.converged = True
                break
        return report

    return newton


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


def rotated_model(model: BeamModel, Q: np.ndarray) -> BeamModel:
    """``model`` rigidly rotated by ``Q``: its control points, the values of
    its distributed, end and joint load histories and its support motions.

    The support kinds are kept, so the rotated model is the same physical
    system only where they are frame-indifferent (hinges and clamps; a
    ``roller_x3`` support only allows rotations about x3)."""
    def turn(history):
        if history is None:
            return None
        params = dict(history.params)
        if history.kind == "table":
            params["values"] = params["values"] @ Q.T
        return LoadHistory(history.kind, Q @ history.value, **params)

    # one set-up per section law, the patches of each in model order
    patches = [None] * len(model.patches)
    by_law = {}
    for k, p in enumerate(model.patches):
        by_law.setdefault(id(p.law), []).append(k)
    for ks in by_law.values():
        law = model.patches[ks[0]].law
        curves = [NurbsCurve(c.kv, c.points @ Q.T, c.weights)
                  for c in (model.patches[k].curve for k in ks)]
        for k, patch in zip(ks, build_patches(curves, law)):
            patches[k] = patch
    return BeamModel(
        patches,
        supports=[Support(s.patch, s.end, s.kind, turn(s.motion))
                  for s in model.supports],
        joints=[Joint(list(j.ends), turn(j.force), turn(j.moment))
                for j in model.joints],
        loads=[DistributedLoad(d.patch, turn(d.force), turn(d.moment))
               for d in model.loads],
        end_loads=[EndLoad(e.patch, e.end, turn(e.force), turn(e.moment))
                   for e in model.end_loads],
        probes=model.probes)


def joint_mismatch(sim) -> tuple[float, float]:
    """Largest distance between the end control points of a joint's ends,
    and largest entry of the difference of their R R0^T, over every joint
    of a simulation."""
    dx = dR = 0.0
    for joint in sim.model.joints:
        x, Q = [], []
        for k, end in joint.ends:
            patch, rt, pts = sim.runtimes[k]
            i = patch.end_index(end)
            x.append(rt.ctrl[pts.start + i])
            Q.append(rt.state.R[pts.start + i] @ patch.frames.R0[i].T)
        dx = max(dx, np.linalg.norm(np.array(x) - x[0], axis=-1).max())
        dR = max(dR, np.abs(np.array(Q) - Q[0]).max())
    return dx, dR


def is_rotation(R: np.ndarray, tol: float = 1.0e-12) -> bool:
    """True if ``R`` is proper orthogonal within ``tol`` (all batch entries)."""
    R = np.asarray(R, dtype=float)
    ortho = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max()
    det = np.abs(np.linalg.det(R) - 1.0).max()
    return bool(ortho <= tol and det <= tol)


def evaluate(curves, us, max_deriv: int = 0) -> list[np.ndarray]:
    """``eval_many`` of ``curves``, which share one basis, at the
    parameters ``us``."""
    c = curves[0]
    return eval_many(curves, *basis_eval_many(
        c.kv, us, max_deriv, c.weights if c.is_rational else None))


def curve_point(curve: NurbsCurve, u: float, max_deriv: int = 0) -> np.ndarray:
    """Position and parametric derivatives of ``curve`` at the one parameter
    ``u``, shape (max_deriv + 1, 3)."""
    return np.concatenate(evaluate([curve], [u], max_deriv), axis=1)[0]


def arclength_derivatives(c0: NurbsCurve, u: float) -> tuple[float, float]:
    """Jacobian J(u) = ||c0,_u|| and its parametric derivative J,_u."""
    d = curve_point(c0, u, 2)
    J = float(np.linalg.norm(d[1]))
    J_u = float(np.dot(d[1], d[2]) / J)
    return J, J_u


def arc_length(curve: NurbsCurve, gauss_order: int = 16) -> float:
    """Curve length by per-span Gauss quadrature of the Jacobian ``||c,_u||``."""
    xg, wg = np.polynomial.legendre.leggauss(gauss_order)
    spans = np.unique(curve.kv.knots)
    mid, half = 0.5 * (spans[1:] + spans[:-1]), 0.5 * np.diff(spans)
    us = (mid[:, None] + half[:, None] * xg).ravel()
    J = np.linalg.norm(evaluate([curve], us, 1)[1][0], axis=-1)
    return float(half @ (J.reshape(-1, gauss_order) @ wg))


def axial(A: np.ndarray, tol: float) -> np.ndarray:
    """Axial vector of a matrix that is skew-symmetric within ``tol``."""
    assert np.abs(A + np.swapaxes(A, -1, -2)).max() <= tol
    return np.stack([A[..., 2, 1] - A[..., 1, 2], A[..., 0, 2] - A[..., 2, 0],
                     A[..., 1, 0] - A[..., 0, 1]], axis=-1) * 0.5


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


def oracle_vtk_snapshot(path, sim, samples_per_patch: int = 200) -> None:
    """Oracle for ``write_vtk_snapshot``: every value formatted and every
    row written on its own."""
    curves = [sim.sample_curve(k, samples_per_patch)
              for k in range(len(sim.runtimes))]
    pts = np.vstack([cur for cur, _ in curves])
    disp = np.vstack([cur - ini for cur, ini in curves])
    lines = np.arange(len(pts)).reshape(len(curves), samples_per_patch)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\nbeam snapshot\n")
        fh.write("ASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {len(pts)} double\n")
        for p in pts:
            fh.write(" ".join("%.12g" % v for v in p) + "\n")
        total = sum(1 + len(l) for l in lines)
        fh.write(f"LINES {len(lines)} {total}\n")
        for l in lines:
            fh.write(str(len(l)) + " " + " ".join(str(i) for i in l) + "\n")
        fh.write(f"POINT_DATA {len(pts)}\n")
        fh.write("VECTORS displacement double\n")
        for d in disp:
            fh.write(" ".join("%.12g" % v for v in d) + "\n")


def find_span(kv: KnotVector, u: float) -> int:
    """Index i with knots[i] <= u < knots[i+1] (last nonempty span at
    u = u_max), for one parameter."""
    p = kv.degree
    U = kv.knots
    n = kv.n
    if u >= U[n]:
        return n - 1
    if u <= U[p]:
        return p
    return int(np.searchsorted(U, u, side="right") - 1)


def bspline_ders(kv: KnotVector, u: float,
                 max_deriv: int) -> tuple[int, np.ndarray]:
    """Oracle: nonzero B-spline basis functions and derivatives at one
    parameter ``u`` by the scalar Piegl-Tiller algorithm A2.3.

    Returns ``(first, ders)`` where ``ders[k, j]`` is the k-th derivative of
    basis function ``first + j`` (j = 0..p).
    """
    p = kv.degree
    U = kv.knots
    i = find_span(kv, u)
    nd = min(max_deriv, p)

    ndu = np.zeros((p + 1, p + 1))
    left = np.zeros(p + 1)
    right = np.zeros(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = u - U[i + 1 - j]
        right[j] = U[i + j] - u
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((max_deriv + 1, p + 1))
    ders[0, :] = ndu[:, p]
    a = np.zeros((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nd + 1):
            d = 0.0
            rk, pk = r - k, p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    fac = float(p)
    for k in range(1, nd + 1):
        ders[k, :] *= fac
        fac *= p - k
    return i - p, ders


def oracle_basis_eval(kv: KnotVector, u: float, max_deriv: int = 0,
                      weights=None) -> tuple[int, np.ndarray]:
    """Oracle for ``basis_eval``: ``bspline_ders`` at one parameter, then
    the rational quotient rule when ``weights`` are given."""
    first, N = bspline_ders(kv, u, max_deriv)
    if weights is None:
        return first, N
    w = np.asarray(weights, dtype=float)[first:first + kv.degree + 1]
    A = N * w
    W = A.sum(axis=1)
    R = np.zeros_like(A)
    R[0] = A[0] / W[0]
    if max_deriv >= 1:
        R[1] = (A[1] - R[0] * W[1]) / W[0]
    if max_deriv >= 2:
        R[2] = (A[2] - 2.0 * R[1] * W[1] - R[0] * W[2]) / W[0]
    return first, R


def oracle_basis_matrices(kv: KnotVector, us, max_deriv: int = 0,
                          weights=None) -> list[np.ndarray]:
    """Oracle for ``basis_matrices``: filled one parameter at a time."""
    us = np.atleast_1d(np.asarray(us, dtype=float))
    mats = [np.zeros((len(us), kv.n)) for _ in range(max_deriv + 1)]
    for i, u in enumerate(us):
        first, ders = oracle_basis_eval(kv, u, max_deriv, weights)
        for k in range(max_deriv + 1):
            mats[k][i, first:first + kv.degree + 1] = ders[k]
    return mats


def oracle_greville(kv: KnotVector) -> np.ndarray:
    """Oracle for ``greville``: one knot-window mean per basis function."""
    p = kv.degree
    U = kv.knots
    return np.array([U[i + 1:i + p + 1].mean() for i in range(kv.n)])


def oracle_transport(points, tangents, d0):
    """Oracle for the director transport of ``bishop_frames``: the double
    reflection one grid step at a time."""
    n = len(points)
    d = np.empty((n, 3))
    d[0] = d0
    for i in range(n - 1):
        r1 = points[i + 1] - points[i]
        c1 = r1 @ r1
        if c1 < MIN_TANGENT ** 2:
            d[i + 1] = d[i]
            continue
        dL = d[i] - (2.0 / c1) * (r1 @ d[i]) * r1
        tL = tangents[i] - (2.0 / c1) * (r1 @ tangents[i]) * r1
        r2 = tangents[i + 1] - tL
        c2 = r2 @ r2
        if c2 < MIN_TANGENT ** 2:
            d[i + 1] = dL
        else:
            d[i + 1] = dL - (2.0 / c2) * (r2 @ dL) * r2
    return d


def oracle_fine_grid(eval_points, oversample, min_total):
    """Oracle for the transport grid of ``bishop_frames``: one ``linspace``
    per gap between evaluation points."""
    g = np.asarray(eval_points, dtype=float)
    if np.any(np.diff(g) <= 0.0):
        raise ValueError("evaluation points must be strictly increasing")
    target = max(min_total, oversample * max(len(g) - 1, 1))
    du = (g[-1] - g[0]) / target
    grid = [g[0]]
    idx = [0]
    for a, b in zip(g[:-1], g[1:]):
        k = max(2, int(np.ceil((b - a) / du)))
        grid.extend(np.linspace(a, b, k + 1)[1:])
        idx.append(len(grid) - 1)
    return np.array(grid), np.array(idx)


def oracle_fit_curvature(s_eval, s_mid, k_mid):
    """Oracle for the curvature fits of ``bishop_frames``: one
    ``Polynomial.fit`` per point and component."""
    K0 = np.empty((len(s_eval), 3))
    K0_s = np.empty((len(s_eval), 3))
    for a, se in enumerate(s_eval):
        j0 = np.searchsorted(s_mid, se)
        lo = max(0, min(j0 - 2, len(s_mid) - 4))
        window = slice(lo, lo + 4)
        for comp in range(3):
            poly = np.polynomial.Polynomial.fit(s_mid[window],
                                                k_mid[window, comp], deg=3)
            K0[a, comp] = poly(se)
            K0_s[a, comp] = poly.deriv()(se)
    return K0, K0_s


def oracle_stencils(curve: NurbsCurve, frames: InitialFrameField):
    """Oracle for the stencils of ``Patch``: (support_first, phi0, phi1,
    phi2) at the Greville points, one point at a time with the oracle
    basis and the scalar Jacobians of ``frames``."""
    us = greville(curve.kv)
    w = curve.weights if curve.is_rational else None
    first = np.empty(len(us), dtype=int)
    phi = np.empty((3, len(us), curve.kv.degree + 1))
    for i, u in enumerate(us):
        first[i], ders = oracle_basis_eval(curve.kv, u, 2, w)
        J, J_u = frames.jac[i], frames.jac_u[i]
        phi[0, i] = ders[0]
        phi[1, i] = ders[1] / J
        phi[2, i] = ders[2] / J ** 2 - ders[1] * J_u / J ** 3
    return first, phi[0], phi[1], phi[2]


def oracle_bishop_frames(curve: NurbsCurve, eval_points, oversample=10,
                         min_total=2000) -> InitialFrameField:
    """Oracle for ``bishop_frames``: one curve set up alone, one control
    point product per basis order, and the oracle grid, transport and
    curvature fits."""
    grid, idx = oracle_fine_grid(eval_points, oversample, min_total)
    w = curve.weights if curve.is_rational else None
    x, x_u, x_uu = [B @ curve.points
                    for B in basis_matrices(curve.kv, grid, 2, w)]
    J = np.linalg.norm(x_u, axis=-1)
    t = x_u / J[:, None]
    k = int(np.argmin(np.abs(np.eye(3) @ t[0])))
    d0 = np.eye(3)[k] - t[0] * t[0, k]
    d1 = oracle_transport(x, t, d0 / np.linalg.norm(d0))
    d1 -= np.sum(d1 * t, axis=-1, keepdims=True) * t
    d1 /= np.linalg.norm(d1, axis=-1, keepdims=True)
    R = np.stack([t, d1, np.cross(t, d1)], axis=-1)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (J[1:] + J[:-1])
                                         * np.diff(grid))])
    k_mid = (so3.log_so3(np.swapaxes(R[:-1], -1, -2) @ R[1:])
             / np.diff(s)[:, None])
    K0, K0_s = oracle_fit_curvature(s[idx], 0.5 * (s[1:] + s[:-1]), k_mid)
    jac = J[idx]
    jac_u = np.sum(x_u[idx] * x_uu[idx], axis=-1) / jac
    c0_ss = x_uu[idx] / jac[:, None] ** 2 - x_u[idx] * (jac_u
                                                        / jac ** 3)[:, None]
    return InitialFrameField(np.asarray(eval_points, dtype=float), x[idx],
                             x_u[idx] / jac[:, None], c0_ss, R[idx], K0, K0_s,
                             jac, jac_u)


#: the arrays of an ``InitialFrameField``
FRAME_FIELDS = ("u", "c0", "c0_s", "c0_ss", "R0", "K0", "K0_s", "jac",
                "jac_u")


def setup_digest(model: BeamModel) -> str:
    """SHA-256 over the set-up arrays of every patch of ``model``, in patch
    order: its frame field, then its stencils."""
    h = hashlib.sha256()
    for p in model.patches:
        for a in ([getattr(p.frames, name) for name in FRAME_FIELDS]
                  + [p.support_idx, p.phi0, p.phi1, p.phi2]):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def assert_bitwise(actual, expected):
    """Same shape, dtype and bytes: equal bit for bit, signs of zeros
    included."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def oracle_system(sim, h, res):
    """(rows, columns, values, right-hand side) of ``sim._system(h, res)``
    made one interior point at a time: the (force/moment rows,
    displacement/rotation columns, 3, 3, stencil point) values of each point
    from its own einsum over the value, ,s and ,ss stencils of its patch,
    then the end values in the order of ``sim``'s plan, then each row scaled
    by the inverse of its largest magnitude, the runs of one row's values
    reduced first.  ``res`` is left as it is."""
    rows, cols, values = [], [], []
    _, fm, dr, a, b, _ = np.indices((1, 2, 2, 3, 3, 1), sparse=True)
    for rt, sec in zip(sim.stacks, res.sections):
        st, law = rt.state, rt.law
        C = np.concatenate((tangent_blocks_force(st, law, sec, h)[:, None],
                            tangent_blocks_moment(st, law, sec, h)[:, None]),
                           axis=1)
        for k, pts in zip(rt.patches, rt.pts):
            p, first = sim.model.patches[k], sim.offsets[k] // 6
            phi = np.stack([p.phi0, p.phi1, p.phi2], axis=1)
            for i in range(1, p.n - 1):
                values.append(np.einsum("rcdab,dk->rcabk", C[pts.start + i],
                                        phi[i]).reshape(-1))
                r, c = np.broadcast_arrays(
                    6 * (first + i) + 3 * fm + a,
                    6 * (first + p.support_idx[i]) + 3 * dr + b)
                rows.append(r.reshape(-1))
                cols.append(c.reshape(-1))
    blk = np.empty((len(sim._slots), 4, 2, 3, 6))
    for ends, k, make in res.blocks:
        blk[ends, k] = make()
    B, phi = blk[sim._end_rows], sim._end_phi
    g, phi_R = sim._end_R
    end = np.bincount(sim._end_of_value, weights=np.concatenate((
        (B[:, 0] * phi[:, 0] + B[:, 1] * phi[:, 1]).reshape(-1),
        (res.R[g] * phi_R).reshape(-1), sim._end_unit)))
    # the end entries are planned after every interior one
    values.append(end)
    rows.append(sim._rows[-len(end):])
    cols.append(sim._cols[-len(end):])
    rows, cols, values = (np.concatenate(x) for x in (rows, cols, values))
    runs = np.flatnonzero(np.diff(rows, prepend=-1))
    scale = np.zeros(sim.ndof)
    np.maximum.at(scale, rows[runs],
                  np.maximum.reduceat(np.abs(values), runs))
    inv = 1.0 / scale
    return rows, cols, values * inv[rows], res.rhs * inv


# ---------------------------------------------------------------------------
# Bitwise oracles of the rotation maps: the one-map-at-a-time evaluations
# that ``so3.increment_maps`` shares its angle, skew matrix and sine and
# cosine among, and ``so3.quat_from_matrix`` with masked gathers on every
# branch.
# ---------------------------------------------------------------------------

def _oracle_coeffs_exp(x: np.ndarray):
    """sin(x)/x and (1-cos(x))/x^2 with series branches."""
    small = x < so3.SERIES_ANGLE
    xs = np.where(small, 1.0, x)
    x2 = x * x
    c1 = np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(xs) / xs)
    c2 = np.where(small, 0.5 - x2 / 24.0 + x2 * x2 / 720.0,
                  (1.0 - np.cos(xs)) / (xs * xs))
    return c1, c2


def oracle_exp_so3(theta: np.ndarray) -> np.ndarray:
    """Exponential map, rotation vector (..., 3) -> matrix (..., 3, 3)."""
    theta = np.asarray(theta, dtype=float)
    x = np.linalg.norm(theta, axis=-1)
    c1, c2 = _oracle_coeffs_exp(x)
    th = so3.skew(theta)
    th2 = th @ th
    return np.eye(3) + c1[..., None, None] * th + c2[..., None, None] * th2


def oracle_tangent_map(theta: np.ndarray) -> np.ndarray:
    """Right tangent map T(theta), shape (..., 3, 3)."""
    theta = np.asarray(theta, dtype=float)
    x = np.linalg.norm(theta, axis=-1)
    small = x < so3.SERIES_ANGLE
    xs = np.where(small, 1.0, x)
    x2 = x * x
    # a = (1 - cos x)/x^2,  b = (x - sin x)/x^3
    a = np.where(small, 0.5 - x2 / 24.0 + x2 * x2 / 720.0,
                 (1.0 - np.cos(xs)) / (xs * xs))
    b = np.where(small, 1.0 / 6.0 - x2 / 120.0 + x2 * x2 / 5040.0,
                 (xs - np.sin(xs)) / (xs * xs * xs))
    th = so3.skew(theta)
    return np.eye(3) - a[..., None, None] * th + b[..., None, None] * (th @ th)


def oracle_dtangent_map(theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Directional derivative of the right tangent map, d/de T(theta + e*w)|_0."""
    theta = np.asarray(theta, dtype=float)
    w = np.asarray(w, dtype=float)
    x = np.linalg.norm(theta, axis=-1)
    small = x < so3._DSERIES_ANGLE
    xs = np.where(small, 1.0, x)
    x2 = x * x
    x4 = x2 * x2
    sx, cx = np.sin(xs), np.cos(xs)
    a = np.where(small, 0.5 - x2 / 24.0 + x4 / 720.0, (1.0 - cx) / (xs * xs))
    b = np.where(small, 1.0 / 6.0 - x2 / 120.0 + x4 / 5040.0,
                 (xs - sx) / (xs ** 3))
    # da/dx / x and db/dx / x (regular at x = 0)
    dax = np.where(small, -1.0 / 12.0 + x2 / 180.0 - x4 / 6720.0,
                   (xs * sx - 2.0 * (1.0 - cx)) / (xs ** 4))
    dbx = np.where(small, -1.0 / 60.0 + x2 / 1260.0 - x4 / 60480.0,
                   (xs * (1.0 - cx) - 3.0 * (xs - sx)) / (xs ** 5))
    tw = np.sum(theta * w, axis=-1)[..., None, None]
    th, wt = so3.skew(theta), so3.skew(w)
    th2 = th @ th
    return (-dax[..., None, None] * tw * th
            - a[..., None, None] * wt
            + dbx[..., None, None] * tw * th2
            + b[..., None, None] * (wt @ th + th @ wt))


def oracle_quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix, Shepperd's method."""
    R = np.asarray(R, dtype=float)
    batch = R.shape[:-2]
    Rf = R.reshape((-1, 3, 3))
    n = Rf.shape[0]
    q = np.empty((n, 4))
    tr = np.trace(Rf, axis1=-2, axis2=-1)
    # pick the numerically largest of the four square roots per matrix
    cand = np.stack([tr, Rf[:, 0, 0], Rf[:, 1, 1], Rf[:, 2, 2]], axis=-1)
    case = np.argmax(cand, axis=-1)

    m = case == 0
    if m.any():
        s = 2.0 * np.sqrt(1.0 + tr[m])
        q[m, 0] = 0.25 * s
        q[m, 1] = (Rf[m, 2, 1] - Rf[m, 1, 2]) / s
        q[m, 2] = (Rf[m, 0, 2] - Rf[m, 2, 0]) / s
        q[m, 3] = (Rf[m, 1, 0] - Rf[m, 0, 1]) / s
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        m = case == i + 1
        if not m.any():
            continue
        s = 2.0 * np.sqrt(1.0 + Rf[m, i, i] - Rf[m, j, j] - Rf[m, k, k])
        q[m, 0] = (Rf[m, k, j] - Rf[m, j, k]) / s
        q[m, 1 + i] = 0.25 * s
        q[m, 1 + j] = (Rf[m, j, i] + Rf[m, i, j]) / s
        q[m, 1 + k] = (Rf[m, k, i] + Rf[m, i, k]) / s
    # canonical sign: nonnegative scalar part
    q *= np.where(q[:, :1] < 0.0, -1.0, 1.0)
    return so3.quat_normalize(q).reshape(batch + (4,))


def oracle_tangent_map_inverse(theta: np.ndarray) -> np.ndarray:
    """Inverse right tangent map, both branches evaluated at every point."""
    theta = np.asarray(theta, dtype=float)
    x = np.linalg.norm(theta, axis=-1)
    small = x < so3.SERIES_ANGLE
    xs = np.where(small, 1.0, x)
    x2 = x * x
    gamma = 0.5 * xs / np.tan(0.5 * xs)
    e = np.where(small, 1.0 / 12.0 + x2 / 720.0 + x2 * x2 / 30240.0,
                 (1.0 - gamma) / (xs * xs))
    th = so3.skew(theta)
    return np.eye(3) + 0.5 * th + e[..., None, None] * (th @ th)


def oracle_quat_from_rotvec(theta: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation vector, both branches evaluated."""
    theta = np.asarray(theta, dtype=float)
    x = np.linalg.norm(theta, axis=-1)
    small = x < so3.SERIES_ANGLE
    xs = np.where(small, 1.0, x)
    x2 = x * x
    half_sinc = np.where(small, 0.5 - x2 / 48.0 + x2 * x2 / 3840.0,
                         np.sin(0.5 * xs) / xs)
    return np.concatenate([np.cos(0.5 * x)[..., None],
                           half_sinc[..., None] * theta], axis=-1)


def oracle_rotvec_from_quat_continuous(q: np.ndarray):
    """Rotation vector and angle of a unit quaternion without sign
    wrapping, both branches evaluated."""
    w, v = q[..., 0], q[..., 1:]
    s = np.linalg.norm(v, axis=-1)
    angle = 2.0 * np.arctan2(s, w)
    small = s < 1.0e-8
    ss = np.where(small, 1.0, s)
    ws = np.where(np.abs(w) < 1.0e-12, 1.0, w)
    f = np.where(small, 2.0 / ws * (1.0 - s * s / (3.0 * ws * ws)), angle / ss)
    return f[..., None] * v, angle


# ---------------------------------------------------------------------------
# Oracle for the construction-time plan of ``Simulation``
# ---------------------------------------------------------------------------

#: the plan arrays of a ``Simulation``, as nested tuples and lists of arrays
PLAN_ARRAYS = ("_rows", "_cols", "_dest", "_bands", "_band", "_packed",
               "_fill", "_separator", "_slots", "_end_rows", "_end_phi",
               "_end_R", "_end_unit", "_end_of_value", "_runs", "_balance",
               "_balance_force", "_balance_moment", "_continuity", "_fixed",
               "_clamped", "_end_groups", "_end_c0", "_end_R0")
#: the plan arrays of each of its stacks
STACK_PLAN_ARRAYS = ("points", "patch_of_point", "pts", "interior", "_interp")


def assert_plan_equal(actual, expected, where="plan"):
    """``actual`` and ``expected`` are the same nesting of tuples and lists
    (named tuples of one type) over arrays equal bit for bit with shapes and
    dtypes (``assert_bitwise``), CSR matrices with such arrays, and scalars,
    slices or ``None`` of one type and value."""
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), where
        assert actual.shape == expected.shape, where
        assert actual.dtype == expected.dtype, where
        assert actual.tobytes() == expected.tobytes(), where
    elif sp.issparse(expected):
        assert actual.format == expected.format, where
        assert actual.shape == expected.shape, where
        for name in ("data", "indices", "indptr"):
            assert_plan_equal(getattr(actual, name), getattr(expected, name),
                              f"{where}.{name}")
    elif isinstance(expected, (tuple, list)):
        assert type(actual) is type(expected), where
        assert len(actual) == len(expected), where
        for k, (a, e) in enumerate(zip(actual, expected)):
            assert_plan_equal(a, e, f"{where}[{k}]")
    else:
        assert type(actual) is type(expected), where
        assert actual == expected, where


def assert_plan_matches_oracle(sim):
    """Every plan array of ``sim`` and of each of its stacks equals that of
    ``oracle_plan`` on its model, and so do the end and component that each
    load and motion history acts on."""
    oracle = oracle_plan(sim.model)
    for name in PLAN_ARRAYS:
        assert_plan_equal(getattr(sim, name), getattr(oracle, name), name)
    assert ([(g, ch) for g, ch, _ in sim._histories]
            == [(g, ch) for g, ch, _ in oracle._histories])
    assert all(h is ref for (_, _, h), (_, _, ref) in zip(sim._histories,
                                                          oracle._histories))
    assert len(sim.stacks) == len(oracle.stacks)
    for s, (rt, ref) in enumerate(zip(sim.stacks, oracle.stacks)):
        assert rt.patches == ref.patches
        for name in STACK_PLAN_ARRAYS:
            assert_plan_equal(getattr(rt, name), getattr(ref, name),
                              f"stacks[{s}].{name}")


class _OracleStack:
    """The stencil plan of one law stack, one patch at a time."""

    def __init__(self, model, patches, first):
        members = [model.patches[k] for k in patches]
        self.patches = patches
        start = np.cumsum([0] + [p.n for p in members])
        self.pts = [slice(a, b) for a, b in zip(start[:-1], start[1:])]
        self.points = np.concatenate([first[k] + np.arange(p.n)
                                      for k, p in zip(patches, members)])
        self.patch_of_point = np.repeat(patches, np.diff(start))
        phi = [np.stack([p.phi0, p.phi1, p.phi2], axis=1) for p in members]
        cols = [first[k] + p.support_idx for k, p in zip(patches, members)]
        indptr = np.cumsum([0] + [c.shape[1] for c in cols for _ in c] * 3)
        self._interp = sp.csr_matrix(
            (np.concatenate([f[:, d].ravel() for d in range(3) for f in phi]),
             np.concatenate([c.ravel() for c in cols] * 3), indptr),
            shape=(3 * len(self.points), first[-1]))
        self.interior = []
        for width in sorted({c.shape[1] for c in cols}):
            js = [j for j, c in enumerate(cols) if c.shape[1] == width]
            sel = np.concatenate([np.arange(start[j] + 1, start[j + 1] - 1)
                                  for j in js])
            self.interior.append((sel, self.points[sel], np.ascontiguousarray(
                np.concatenate([phi[j][1:-1] for j in js]).transpose(1, 2, 0)),
                np.concatenate([cols[j][1:-1] for j in js])))


def oracle_plan(model: BeamModel):
    """Oracle for the plan of ``Simulation(model)``: the stacks' stencils
    gathered one patch at a time, the end stencils one end at a time, the
    end values of each source found by a (sources x stencil points) mask,
    and the solve's packed columns filled from a (values x packed columns)
    selection.  Returns a namespace with the plan attributes of a
    ``Simulation``."""
    plan = types.SimpleNamespace(model=model)
    first = np.cumsum([0] + [p.n for p in model.patches])
    plan.offsets = 6 * first[:-1]
    plan.ndof = int(6 * first[-1])
    groups = {}
    for k, p in enumerate(model.patches):
        groups.setdefault(id(p.law), []).append(k)
    plan.stacks = [_OracleStack(model, ks, first) for ks in groups.values()]
    slots = {k: PatchSlot(model.patches[k], rt, pts)
             for rt in plan.stacks for k, pts in zip(rt.patches, rt.pts)}
    plan.runtimes = [slots[k] for k in range(len(model.patches))]
    plan._supported = {(s.patch, s.end): s for s in model.supports}
    _oracle_plan_pattern(plan, _oracle_plan_boundary(plan))
    _oracle_plan_solve(plan)
    return plan


def _oracle_plan_boundary(self):
    keys = [(k, end) for k in range(len(self.runtimes))
            for end in (START, END)]
    gid = {key: g for g, key in enumerate(keys)}
    n = len(keys)
    at = [(self.runtimes[k], end) for k, end in keys]
    index = np.array([patch.end_index(end) for (patch, _, _), end in at])
    self._slots = self.offsets.repeat(2) // 6 + index
    applied = [(gid[el.patch, el.end], (el.force, el.moment))
               for el in self.model.end_loads]
    applied += [(gid[s.patch, s.end], (None, None, s.motion))
                for s in self.model.supports]
    lead, rank = np.arange(n), np.zeros(n, dtype=int)
    jointed = np.zeros(n, dtype=bool)
    for joint in self.model.joints:
        ends = sorted((gid[tuple(e)] for e in joint.ends),
                      key=lambda g: keys[g] not in self._supported)
        lead[ends], rank[ends] = ends[0], range(len(ends))
        jointed[ends] = True
        applied.append((ends[0], (joint.force, joint.moment)))
    leading = lead == np.arange(n)
    follow = np.flatnonzero(~leading)
    m = len(follow)
    end_of, phi, cols = [], [], []
    for g in range(n):
        p, i = self.runtimes[g // 2].patch, index[g]
        f = np.stack([p.phi0[i], p.phi1[i]], axis=-1)
        on = f.any(axis=1)
        end_of += [g] * on.sum()
        phi.append(f[on])
        cols.append(self.offsets[g // 2] + 6 * p.support_idx[i][on])

    of_stack = np.array([self.stacks.index(rt) for (_, rt, _), _ in at])
    pts = np.array([pts.start for (_, _, pts), _ in at]) + index
    sign = np.array([-1.0 if end == START else 1.0 for _, end in at])
    self._end_c0 = np.array([patch.end_position(end)
                             for (patch, _, _), end in at])
    self._end_R0 = np.array([patch.frames.R0[i]
                             for ((patch, _, _), _), i in zip(at, index)])
    held = [None if s is None else SUPPORT_KINDS[s.kind]
            for s in map(self._supported.get, keys)]
    supported = np.array([k is not None for k in held])
    clamped = np.array([k is not None and k.rotation for k in held])
    fixed = np.array([[k is not None and a in k.translations
                       for a in range(3)] for k in held])
    free = ~fixed[lead] & (jointed | supported)[:, None]
    member = jointed | free.any(axis=1)
    self._separator = (6 * self._slots[jointed & leading, None]
                       + np.arange(6)).reshape(-1)

    def groups(mask):
        out = []
        for s in range(len(self.stacks)):
            g = np.flatnonzero(mask & (of_stack == s))
            out.append(EndGroup(g, pts[g], sign[g]) if len(g) else None)
        return out

    self._end_groups = list(zip(
        groups(np.ones(n, dtype=bool)), groups(~jointed & ~supported),
        groups(~jointed & ~clamped), groups(member), groups(jointed)))
    self._histories = [(g, ch, history) for g, histories in applied
                       for ch, history in enumerate(histories)
                       if history is not None]
    at_rank = (np.flatnonzero(member & (rank == r))
               for r in range(rank.max() + 1))
    self._balance = [(lead[g], g) for g in at_rank if len(g)]
    self._balance_force = np.nonzero(free & leading[:, None])
    self._balance_moment = np.flatnonzero(jointed & leading & ~clamped)
    self._continuity = (follow, lead[follow])
    self._fixed = np.nonzero(fixed)
    self._clamped = np.flatnonzero(clamped)

    end_of, phi = np.array(end_of), np.concatenate(phi)
    cols, eye, rows = np.concatenate(cols), np.arange(3), 6 * self._slots
    each = np.ones(3, dtype=bool)

    def on_stencil(ends, value):
        return np.nonzero((ends[:, None] == end_of)
                          & ((phi[:, 0] != 0) | (not value)))

    kernel_rows = [np.nonzero(x & each) for x in (
        (~jointed & ~supported)[:, None], (~jointed & ~clamped)[:, None],
        free, (jointed & ~clamped[lead])[:, None])]
    kind = np.repeat(np.arange(4), [len(g) for g, _ in kernel_rows])
    g, a = (np.concatenate(x) for x in zip(*kernel_rows))
    i, p = on_stencil(g, False)
    g, kind, a = g[i], kind[i], a[i]
    self._end_rows = (g, kind, slice(None), a)
    self._end_phi = phi[p, :, None]
    slot = np.where(kind < 2, g, lead[g])
    planned = [((rows[slot] + a + 3 * (kind % 2))[:, None],
                cols[p, None] + np.arange(6))]

    slot, g = np.tile(follow, 2), np.concatenate([follow, lead[follow]])
    unit = np.repeat([1.0, -1.0], m)
    i, p = on_stencil(g, True)
    self._end_R = (g[i], (unit[i] * phi[p, 0])[:, None, None])
    planned.append((rows[slot[i], None, None] + 3 + eye[:, None],
                    cols[p, None, None] + 3 + eye))

    e, d = np.nonzero(clamped[:, None] & each)
    f, c = np.nonzero(~leading[:, None] & each)
    slot, d = (np.concatenate(x) for x in zip(
        self._fixed, (e, d + 3), (f, c), (f, c)))
    unit = np.repeat([1.0, -1.0], [len(d) - 3 * m, 3 * m])
    i, p = on_stencil(np.concatenate([self._fixed[0], e, f, lead[f]]), True)
    self._end_unit = unit[i] * phi[p, 0]
    planned.append((rows[slot[i]] + d[i], cols[p] + d[i]))
    r, c = (np.concatenate([x.reshape(-1) for x in y]) for y in zip(
        *(np.broadcast_arrays(*rc) for rc in planned)))
    entries, self._end_of_value = np.unique(r * self.ndof + c,
                                            return_inverse=True)
    return np.divmod(entries, self.ndof)


def _oracle_plan_pattern(self, end):
    fm, dr, a, b, _, _ = np.indices((2, 2, 3, 3, 1, 1), sparse=True)
    rows, cols = [], []

    def add(r, c):
        r, c = np.broadcast_arrays(r, c)
        rows.append(r.reshape(-1))
        cols.append(c.reshape(-1))

    for rt in self.stacks:
        for _, points, _, ctrl in rt.interior:
            add(6 * points + 3 * fm + a, 6 * ctrl.T + 3 * dr + b)
    if np.isin(end[0], np.concatenate(rows)).any():
        raise RuntimeError("an end entry lies on an interior row")
    add(*end)
    rows = np.concatenate(rows)
    self._runs = np.unique(end[0], return_index=True, return_counts=True)
    self._rows, self._cols = (x.astype(np.int32)
                              for x in (rows, np.concatenate(cols)))


def _oracle_plan_solve(self):
    ndof, sep = self.ndof, self._separator
    ns = len(sep)
    in_sep = np.zeros(ndof, dtype=bool)
    in_sep[sep] = True
    band = np.flatnonzero(~in_sep)
    nb = len(band)
    at = np.empty(ndof, dtype=np.int64)
    at[band], at[sep] = np.arange(nb), np.arange(ns)
    patch = np.repeat(np.arange(len(self.runtimes), dtype=np.int32),
                      np.diff(self.offsets, append=ndof))
    rows, cols = self._rows, self._cols
    rs, cs = in_sep[rows], in_sep[cols]
    dd = ~(rs | cs)
    i, j = at[rows], at[cols]
    d = i - j
    ds = cs & ~rs
    pairs, pair = np.unique(patch[rows[ds]].astype(np.int64) * ns + j[ds],
                            return_inverse=True)
    owner, unknown = np.divmod(pairs, ns)
    pack = np.arange(len(pairs)) - np.searchsorted(owner, owner)
    npack = pack.max(initial=-1) + 1
    packed = np.full((len(self.runtimes), npack), ns, dtype=np.int32)
    packed[owner, pack] = unknown
    self._band, self._packed = band, packed[patch[band]]
    kl = int(d.max(initial=0, where=dd))
    ku = -int(d.min(initial=0, where=dd))
    ldab = 2 * kl + ku + 1
    start = (ldab + npack + 1) * nb + ns * ns
    ss, sd = rs & cs, rs & ~cs
    self._dest = kl + ku + d + ldab * j
    self._dest[ds] = ldab * nb + nb * pack[pair] + i[ds]
    self._dest[ss] = start - ns * ns + i[ss] + ns * j[ss]
    self._dest[sd] = start + np.arange(np.count_nonzero(sd))
    self._bands = (kl, ku, ldab, start + np.count_nonzero(sd))
    fill = self._packed[j[sd]]
    self._fill = (i[sd], j[sd],
                  np.where(fill < ns, i[sd, None] + ns * fill, ns * ns))
