"""Initial rotation field and curvature of an arbitrarily curved beam axis.

The cross-section frame of the undeformed beam is built with a relatively
parallel (Bishop) frame: the first director is the unit tangent and the other
two are transported along the curve with zero twist.  Unlike a Frenet frame it
stays well defined through points of vanishing curvature.

Transport uses the double-reflection method on a fine parameter grid that
contains the requested evaluation points, so frames at those points are exact
grid values.  The initial curvature is recovered from rotation logarithms of
consecutive fine frames and interpolated to the evaluation points.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial import polyutils

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


def _transport_double_reflection(points: np.ndarray, tangents: np.ndarray,
                                 d0: np.ndarray) -> np.ndarray:
    """Parallel-transport the director d0 along the sampled curve."""
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


def _fine_grid(eval_points: np.ndarray, oversample: int,
               min_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Refine each gap between evaluation points uniformly.

    Returns the grid and the indices of the evaluation points in it.  Making
    the evaluation points exact grid members avoids tiny transport intervals.
    """
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


def _fit_curvature(s_eval: np.ndarray, s_mid: np.ndarray,
                   k_mid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Curvature and its arc-length derivative at the arc lengths
    ``s_eval``, from the samples ``k_mid`` (n, 3) at ``s_mid``.

    Each point gets a cubic least-squares fit of the four samples around
    it, the three components as columns of one fit, in the scaled variable
    that maps the four sample positions onto [-1, 1].
    """
    K0 = np.empty((len(s_eval), 3))
    K0_s = np.empty((len(s_eval), 3))
    for a, se in enumerate(s_eval):
        j0 = np.searchsorted(s_mid, se)
        lo = max(0, min(j0 - 2, len(s_mid) - 4))
        x = s_mid[lo:lo + 4]
        off, scl = polyutils.mapparms(polyutils.getdomain(x), (-1.0, 1.0))
        coef = P.polyfit(off + scl * x, k_mid[lo:lo + 4], 3)
        xe = off + scl * se
        K0[a] = P.polyval(xe, coef)
        K0_s[a] = P.polyval(xe, P.polyder(coef, 1, scl))
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
    grid, idx = _fine_grid(eval_points, oversample, min_total)

    ders = curve.eval_many(grid, 2)
    x, x_u, x_uu = ders
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
    ds = np.diff(s)
    k_mid = so3.log_so3(Rrel) / ds[:, None]
    s_mid = 0.5 * (s[1:] + s[:-1])

    K0, K0_s = _fit_curvature(s[idx], s_mid, k_mid)

    jac = J[idx]
    x_e, xu_e, xuu_e = x[idx], x_u[idx], x_uu[idx]
    jac_u = np.sum(xu_e * xuu_e, axis=-1) / jac
    c0_s = xu_e / jac[:, None]
    c0_ss = xuu_e / jac[:, None] ** 2 - xu_e * (jac_u / jac ** 3)[:, None]
    return InitialFrameField(eval_points, x_e, c0_s, c0_ss, R[idx], K0, K0_s,
                             jac, jac_u)
