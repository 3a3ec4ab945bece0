"""Initial rotation field and curvature of an arbitrarily curved beam axis.

The cross-section frame of the undeformed beam is built with a relatively
parallel (Bishop) frame: the first director is the unit tangent and the other
two are transported along the curve with zero twist.  Unlike a Frenet frame it
stays well defined through points of vanishing curvature.

Transport uses the double-reflection method on a fine parameter grid that
contains the requested evaluation points, so frames at those points are exact
grid values.  The initial curvature is recovered from rotation logarithms of
consecutive fine frames and interpolated to the evaluation points.

The grid, the transport and the curvature fits run as array passes that keep
the IEEE operations of their one-point forms, bit for bit.  Every row dot
product goes through ``@``, one row pair each (stacked (n, 1, 3) @ (n, 3, 1)
gives the same BLAS ``ddot``): ``np.einsum``, ``(a * b).sum`` and Python
floats round differently on some hosts.  ``c0_ss`` keeps numpy's ``jac ** 2``
and ``** 3``, whose SIMD power can differ from the C ``pow``; the recorded
tests pin those bits.
"""

from __future__ import annotations

import numpy as np

from . import so3
from .splines import NurbsCurve

#: tolerance for a degenerate tangent
MIN_TANGENT = 1.0e-12


class InitialFrameField:
    """Initial configuration data at a set of evaluation points.

    Attributes
    ----------
    u : (n,) parameters of the evaluation points
    c0, c0_s, c0_ss : (n, 3) position and arc-length derivatives
    R0 : (n, 3, 3) cross-section rotations, first column = unit tangent
    K0, K0_s : (n, 3) initial curvature (material) and its arc-length derivative
    jac, jac_u : (n,) parametric Jacobian ||c0,_u|| and its u-derivative
    """

    def __init__(self, u, c0, c0_s, c0_ss, R0, K0, K0_s, jac, jac_u):
        self.u = u
        self.c0 = c0
        self.c0_s = c0_s
        self.c0_ss = c0_ss
        self.R0 = R0
        self.K0 = K0
        self.K0_s = K0_s
        self.jac = jac
        self.jac_u = jac_u


def default_director(tangent: np.ndarray) -> np.ndarray:
    """Starting director: the global axis most orthogonal to the tangent,
    projected onto the normal plane (ties broken by smallest axis index)."""
    t = np.asarray(tangent, dtype=float)
    dots = np.abs(np.eye(3) @ t)
    k = int(np.argmin(dots))
    d = np.eye(3)[k] - t * t[k]
    nd = np.linalg.norm(d)
    if nd < MIN_TANGENT:
        raise ValueError("could not build a director orthogonal to the tangent")
    return d / nd


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, each one ``@`` of a row pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _transport_double_reflection(points: np.ndarray, tangents: np.ndarray,
                                 d0: np.ndarray) -> np.ndarray:
    """Parallel-transport the director d0 along the sampled curve: every
    step at once but the two dots and updates that act on the director (a
    step with c1 or c2 below MIN_TANGENT**2 never reads its inf or NaN)."""
    r1 = points[1:] - points[:-1]
    c1 = _row_dots(r1, r1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = 2.0 / c1
        tL = tangents[:-1] - (w1 * _row_dots(r1, tangents[:-1]))[:, None] * r1
        r2 = tangents[1:] - tL
        c2 = _row_dots(r2, r2)
        w2 = 2.0 / c2
    skip1 = (c1 < MIN_TANGENT ** 2).tolist()
    skip2 = (c2 < MIN_TANGENT ** 2).tolist()
    d = np.empty((len(points), 3))
    d[0] = di = d0
    for i, (a, b) in enumerate(zip(r1, r2)):
        if not skip1[i]:
            di = di - (w1[i] * (a @ di)) * a
            if not skip2[i]:
                di = di - (w2[i] * (b @ di)) * b
        d[i + 1] = di
    return d


def _fine_grid(g: np.ndarray, oversample: int,
               min_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Refine each gap between the evaluation points ``g`` uniformly.

    Returns the grid and the indices of the evaluation points in it.  Making
    the evaluation points exact grid members avoids tiny transport intervals.
    Gap [a, b] in k steps holds ``linspace(a, b, k + 1)[1:]``: j * ((b - a)
    / k) + a for j < k, and b itself.
    """
    target = max(min_total, oversample * max(len(g) - 1, 1))
    du = (g[-1] - g[0]) / target
    gap = np.diff(g)
    k = np.maximum(2, np.ceil(gap / du).astype(int))
    idx = np.concatenate([[0], np.cumsum(k)])
    gaps = np.repeat(np.arange(len(gap)), k)
    j = np.arange(1, idx[-1] + 1) - idx[gaps]
    grid = np.concatenate([g[:1], j * (gap / k)[gaps] + g[gaps]])
    grid[idx[1:]] = g[1:]
    return grid, idx


def _fit_curvature(s_eval: np.ndarray, s_mid: np.ndarray,
                   k_mid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Curvature and its arc-length derivative at the arc lengths
    ``s_eval``, from the samples ``k_mid`` (n, 3) at ``s_mid``.

    Each point gets a cubic least-squares fit of the four samples around
    it, the three components as columns of one fit, in the scaled variable
    that maps the four sample positions onto [-1, 1].  All points at once but
    the ``lstsq``, in the steps of numpy's ``polyfit``, ``polyval`` and
    ``polyder``.
    """
    lo = np.clip(np.searchsorted(s_mid, s_eval) - 2, 0, len(s_mid) - 4)
    win = lo[:, None] + np.arange(4)
    x = s_mid[win]
    x0, x1 = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
    off, scl = (-x1 - x0) / (x1 - x0), 2.0 / (x1 - x0)
    xs = off + scl * x
    # polyfit's lhs, the transposed polyvander: powers by samples
    V = np.stack([xs * 0 + 1, xs, xs * xs, xs * xs * xs], axis=1)
    norm = np.sqrt(np.square(V).sum(axis=-1))
    A = np.swapaxes(V, 1, 2) / norm[:, None, :]
    coef = np.stack([np.linalg.lstsq(a, y, 4 * np.finfo(float).eps)[0]
                     for a, y in zip(A, k_mid[win])])
    coef /= norm[:, :, None]
    der = coef[:, 1:] * scl[:, :, None] * np.arange(1.0, 4.0)[:, None]
    xe = off + scl * s_eval[:, None]
    K0, K0_s = coef[:, 3] + xe * 0, der[:, 2] + xe * 0
    for j in (2, 1, 0):
        K0 = coef[:, j] + K0 * xe
    for j in (1, 0):
        K0_s = der[:, j] + K0_s * xe
    return K0, K0_s


def bishop_frames(curve: NurbsCurve, eval_points, initial_director=None,
                  oversample: int = 10, min_total: int = 2000) -> InitialFrameField:
    """Twist-free initial frames and curvature along ``curve``.

    Parameters
    ----------
    curve : NurbsCurve
        Regular initial centroid curve (positive Jacobian everywhere sampled).
    eval_points : array_like
        Strictly increasing parameters, usually the collocation points.
    initial_director : array_like, optional
        Unit vector orthogonal to the tangent at the first evaluation point.
        Defaults to the projected global axis most orthogonal to it.
    oversample, min_total : int
        Transport grid resolution: at least ``oversample`` subintervals per
        evaluation gap and ``min_total`` overall.
    """
    eval_points = np.asarray(eval_points, dtype=float)
    if not np.isfinite(eval_points).all() or np.any(np.diff(eval_points) <= 0):
        raise ValueError("eval_points must be finite and strictly increasing")
    if initial_director is not None and not np.isfinite(initial_director).all():
        raise ValueError("initial_director must be finite")
    grid, idx = _fine_grid(eval_points, oversample, min_total)

    x, x_u, x_uu = curve.eval_many(grid, 2)
    J = np.linalg.norm(x_u, axis=-1)
    if np.any(J < MIN_TANGENT):
        raise ValueError("degenerate tangent on the transport grid")
    t = x_u / J[:, None]

    if initial_director is None:
        d0 = default_director(t[0])
    else:
        d0 = np.asarray(initial_director, dtype=float)
        d0 = d0 - (d0 @ t[0]) * t[0]
        nd = np.linalg.norm(d0)
        if nd < MIN_TANGENT:
            raise ValueError("initial director is parallel to the tangent")
        d0 = d0 / nd

    d1 = _transport_double_reflection(x, t, d0)
    # re-orthonormalize against accumulated rounding
    d1 -= np.sum(d1 * t, axis=-1, keepdims=True) * t
    d1 /= np.linalg.norm(d1, axis=-1, keepdims=True)
    d2 = np.cross(t, d1)
    R = np.stack([t, d1, d2], axis=-1)

    # arc length along the fine grid (trapezoid on the Jacobian)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (J[1:] + J[:-1]) * np.diff(grid))])

    # curvature samples at interval midpoints: K = log(R_i^T R_{i+1}) / ds
    Rrel = np.swapaxes(R[:-1], -1, -2) @ R[1:]
    k_mid = so3.log_so3(Rrel) / np.diff(s)[:, None]
    s_mid = 0.5 * (s[1:] + s[:-1])

    K0, K0_s = _fit_curvature(s[idx], s_mid, k_mid)

    jac = J[idx]
    x_e, xu_e, xuu_e = x[idx], x_u[idx], x_uu[idx]
    jac_u = np.sum(xu_e * xuu_e, axis=-1) / jac
    c0_s = xu_e / jac[:, None]
    c0_ss = xuu_e / jac[:, None] ** 2 - xu_e * (jac_u / jac ** 3)[:, None]
    return InitialFrameField(eval_points, x_e, c0_s, c0_ss, R[idx], K0, K0_s,
                             jac, jac_u)
