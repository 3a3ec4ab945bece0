"""Initial rotation field and curvature of arbitrarily curved beam axes.

The cross-section frame of the undeformed beam is built with a relatively
parallel (Bishop) frame: the first director is the unit tangent and the other
two are transported along the curve with zero twist.  Unlike a Frenet frame it
stays well defined through points of vanishing curvature.

Transport uses the double-reflection method on a fine parameter grid that
contains the requested evaluation points, so frames at those points are exact
grid values.  The initial curvature is recovered from rotation logarithms of
consecutive fine frames and interpolated to the evaluation points.

``bishop_frames`` sets up a stack of curves that share degree, knots and
weights, and so their evaluation points, transport grid and basis: one grid,
one basis pass per order, one transport loop over the steps with every curve
in each, one rotation logarithm and one curvature fit serve them all.  A
single curve shares all of this but the transport loop: its steps run on
Python floats, in less than half the time of a stack of one.  Every
array keeps the IEEE operations of the one-point form, bit for bit, so a
curve gets the same bits alone as in any stack and with one BLAS thread as
with several:

* every row dot product is one BLAS ``ddot`` of a row pair, through
  ``np.vecdot`` in a stack and ``ndarray.dot`` of two row views in the
  one-curve loop (both equal to the 1-D ``a @ b``); ``np.einsum``,
  ``(a * b).sum`` and a Python sum of products round differently on some
  hosts;
* a product or difference of two Python floats rounds as numpy's
  elementwise one does;
* control points meet the basis in one full-grid product per order and
  curve (a stacked ``@``, see ``splines.eval_many``);
* one xGELSD call per distinct curvature-fit matrix (columns round alone);
* the elementwise operations do not depend on the position of a value in
  its batch, also where numpy's SIMD loops differ from the C library
  (checked for ``** 3``, ``sin``, ``cos``, ``arctan2``, ``sqrt`` and
  ``exp``).  ``c0_ss`` keeps numpy's ``jac ** 2`` and ``** 3``, whose SIMD
  power can differ from the C ``pow``; the recorded tests pin those bits.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from . import so3
from .splines import basis_eval_many, eval_many

#: tolerance for a degenerate tangent
MIN_TANGENT = 1.0e-12
#: xGELSD rescales a right-hand side of max |b| in (0, _SAFE) or > 1 / _SAFE
_SAFE = np.finfo(float).tiny / np.finfo(float).eps


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


def default_director(tangents: np.ndarray) -> np.ndarray:
    """Starting directors of the unit tangents (m, 3): for each, the global
    axis most orthogonal to it (ties broken by smallest axis index),
    projected onto the normal plane."""
    t = np.asarray(tangents, dtype=float)
    k = np.argmin(np.abs(t), axis=-1)
    d = np.eye(3)[k] - t * np.take_along_axis(t, k[:, None], -1)
    nd = np.sqrt(np.vecdot(d, d))
    if np.any(nd < MIN_TANGENT):
        raise ValueError("could not build a director orthogonal to the tangent")
    return d / nd[:, None]


def _rows3(x: np.ndarray) -> np.ndarray:
    """Read-only view (..., 3, 3) of ``x`` (..., 3) with each row repeated
    three times."""
    return np.broadcast_to(x[..., None, :], x.shape + (3,))


def _transport_double_reflection(points: np.ndarray, tangents: np.ndarray,
                                 d0: np.ndarray) -> np.ndarray:
    """Parallel-transport the directors ``d0`` (m, 3) along m sampled curves
    (m, N, 3): every step of every curve at once but the two dots and
    updates that act on the directors, which take one step of all curves
    at a time.  A curve's step with c1 below MIN_TANGENT**2 keeps its
    director, one with c2 below it keeps the first reflection: the inf or
    NaN such a step makes is masked out.

    The updates multiply arrays of one shape, (m, 3), in place in one
    scratch block: the weights are spelled out to that shape, and each
    row's dot product comes out once per component (``np.vecdot`` over
    ``_rows3`` views, three equal ``ddot``).  On arrays this small a
    broadcast or a new array costs more than the arithmetic.  A stack of
    one curve without a degenerate step takes ``_transport_one`` instead.
    """
    # step-major, so that one step of every curve is one contiguous block
    x, t = (np.ascontiguousarray(np.swapaxes(a, 0, 1))
            for a in (points, tangents))
    r1 = x[1:] - x[:-1]
    c1 = np.vecdot(r1, r1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = 2.0 / c1
        tL = t[:-1] - (w1[..., None]
                       * np.vecdot(r1, t[:-1], keepdims=True)) * r1
        r2 = t[1:] - tL
        c2 = np.vecdot(r2, r2)
        w2 = 2.0 / c2
    skip1, skip2 = (c[..., None] < MIN_TANGENT ** 2 for c in (c1, c2))
    skipped = np.flatnonzero(np.any(skip1 | skip2, axis=(1, 2)))
    if len(d0) == 1 and not len(skipped):
        return _transport_one(r1[:, 0], r2[:, 0], w1[:, 0], w2[:, 0],
                              d0[0])[None]
    masks = [None] * len(r1)
    for i in skipped:
        masks[i] = skip1[i], skip2[i]
    w1, w2 = (np.repeat(w[..., None], 3, axis=-1) for w in (w1, w2))
    d = np.empty(x.shape)
    d[0] = dp = d0
    d3 = _rows3(d)
    dp3 = d3[0]
    c = np.empty(d0.shape)  # (w (r . d)) r, in place
    vecdot, multiply, subtract = np.vecdot, np.multiply, np.subtract
    with np.errstate(over="ignore", invalid="ignore"):
        for a, a3, b, b3, wa, wb, dn, dn3, mask in zip(
                r1, _rows3(r1), r2, _rows3(r2), w1, w2, d[1:], d3[1:], masks):
            vecdot(a3, dp3, c)
            multiply(wa, c, c)
            multiply(c, a, c)
            subtract(dp, c, dn)
            vecdot(b3, dn3, c)
            multiply(wb, c, c)
            multiply(c, b, c)
            if mask is None:
                subtract(dn, c, dn)
            else:
                dn[...] = np.where(mask[0], dp, np.where(mask[1], dn, dn - c))
            dp, dp3 = dn, dn3
    return np.swapaxes(d, 0, 1)


#: grid steps of the one-curve transport per conversion to Python floats
_CHUNK = 64


def _transport_one(r1: np.ndarray, r2: np.ndarray, w1: np.ndarray,
                   w2: np.ndarray, d0: np.ndarray) -> np.ndarray:
    """Directors (N, 3) of one curve from ``d0`` (3,), given the reflection
    vectors ``r1``, ``r2`` (N - 1, 3) and weights ``w1``, ``w2`` (N - 1,)
    of its steps, none degenerate: the double reflection a step at a time
    on Python floats.  Each dot is ``ndarray.dot`` of two contiguous rows,
    the ``ddot`` of ``np.vecdot``; rows become floats a chunk of steps at a
    time, never the whole grid at once.
    """
    d = np.empty((len(r1) + 1, 3))
    d[0] = d0
    dp = d[0]
    p0, p1, p2 = dp.tolist()
    m = np.empty(3)  # the first reflection
    for k in range(0, len(r1), _CHUNK):
        e = k + _CHUNK
        for a, b, dn, (a0, a1, a2), (b0, b1, b2), wa, wb in zip(
                r1[k:e], r2[k:e], d[k + 1:e + 1], r1[k:e].tolist(),
                r2[k:e].tolist(), w1[k:e].tolist(), w2[k:e].tolist()):
            s = wa * float(a.dot(dp))
            m[0] = q0 = p0 - s * a0
            m[1] = q1 = p1 - s * a1
            m[2] = q2 = p2 - s * a2
            s = wb * float(b.dot(m))
            dn[0] = p0 = q0 - s * b0
            dn[1] = p1 = q1 - s * b1
            dn[2] = p2 = q2 - s * b2
            dp = dn
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
    """Curvature and its arc-length derivative (m, n, 3) of m curves at the
    arc lengths ``s_eval`` (m, n), from the samples ``k_mid`` (m, N, 3) at
    ``s_mid`` (m, N).

    Each point gets a cubic least-squares fit of the four samples of its
    curve around it, the three components as columns of one fit, in the
    scaled variable that maps the four sample positions onto [-1, 1]: all
    points at once in the steps of numpy's ``polyfit``, ``polyval`` and
    ``polyder``, and one xGELSD call (``lstsq``'s driver) per distinct
    window matrix, whose columns round as alone; a point whose samples
    xGELSD would rescale as a whole (``_SAFE``) is fitted alone.
    """
    m, n = s_eval.shape
    lo = np.clip(np.stack([np.searchsorted(a, b)
                           for a, b in zip(s_mid, s_eval)]) - 2,
                 0, s_mid.shape[1] - 4)
    win = (lo[..., None] + np.arange(4)).reshape(-1, 4)
    row = np.repeat(np.arange(m), n)[:, None]
    x = s_mid[row, win]
    x0, x1 = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
    off, scl = (-x1 - x0) / (x1 - x0), 2.0 / (x1 - x0)
    xs = off + scl * x
    # polyfit's lhs, the transposed polyvander: powers by samples
    V = np.stack([xs * 0 + 1, xs, xs * xs, xs * xs * xs], axis=1)
    norm = np.sqrt(np.square(V).sum(axis=-1))
    A = np.swapaxes(V, 1, 2) / norm[:, None, :]
    y = k_mid[row, win]
    big = np.abs(y).max(axis=(1, 2))
    alone = ~((big == 0) | ((big >= _SAFE) & (big <= 1 / _SAFE)))
    key = np.c_[A.reshape(-1, 16), np.where(alone, np.arange(m * n), -1.0)]
    _, inv, counts = np.unique(key.view("V136").ravel(),  # a row's bytes
                               return_inverse=True, return_counts=True)
    rcond = 4 * np.finfo(float).eps
    lwork, liwork, _ = lapack.dgelsd_lwork(4, 4, 3 * counts.max(), rcond)
    order, end = np.argsort(inv), np.cumsum(counts)
    b = np.ascontiguousarray(np.swapaxes(y[order], 1, 2))  # points' columns
    for s, e in zip(end - counts, end):
        sol, *_, info = lapack.dgelsd(A[order[s]], b[s:e].reshape(-1, 4).T,
                                      int(lwork), liwork, rcond, overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError("SVD did not converge in lstsq")
        b[s:e] = sol.T.reshape(-1, 3, 4)  # a no-op where LAPACK wrote b
    coef = np.swapaxes(b, 1, 2)[np.argsort(order)]
    coef /= norm[:, :, None]
    der = coef[:, 1:] * scl[:, :, None] * np.arange(1.0, 4.0)[:, None]
    xe = off + scl * s_eval.reshape(-1, 1)
    K0, K0_s = coef[:, 3] + xe * 0, der[:, 2] + xe * 0
    for j in (2, 1, 0):
        K0 = coef[:, j] + K0 * xe
    for j in (1, 0):
        K0_s = der[:, j] + K0_s * xe
    return K0.reshape(m, n, 3), K0_s.reshape(m, n, 3)


def bishop_frames(curves, eval_points, initial_director=None,
                  oversample: int = 10, min_total: int = 2000
                  ) -> tuple[list[InitialFrameField], tuple]:
    """Twist-free initial frames and curvature along each of ``curves``.

    Parameters
    ----------
    curves : sequence of NurbsCurve
        Regular initial centroid curves (positive Jacobian everywhere
        sampled) that share degree, knots and weights; each gets the same
        bits as when it is set up alone.
    eval_points : array_like
        Strictly increasing parameters, usually the collocation points.
    initial_director : array_like, optional
        Unit vectors (one per curve, or one for all) orthogonal to the
        tangent at the first evaluation point.  Defaults to the projected
        global axis most orthogonal to it.
    oversample, min_total : int
        Transport grid resolution: at least ``oversample`` subintervals per
        evaluation gap and ``min_total`` overall.

    Returns one ``InitialFrameField`` per curve, in order, and the shared
    ``basis_eval_many`` (to order 2) at the evaluation points, whose values
    the grid pass holds exactly.
    """
    eval_points = np.asarray(eval_points, dtype=float)
    if not np.isfinite(eval_points).all() or np.any(np.diff(eval_points) <= 0):
        raise ValueError("eval_points must be finite and strictly increasing")
    if initial_director is not None and not np.isfinite(initial_director).all():
        raise ValueError("initial_director must be finite")
    grid, idx = _fine_grid(eval_points, oversample, min_total)
    c = curves[0]
    first, ders = basis_eval_many(c.kv, grid, 2, c.weights
                                  if c.is_rational else None)
    x, x_u, x_uu = eval_many(curves, first, ders)
    J = np.linalg.norm(x_u, axis=-1)
    if np.any(J < MIN_TANGENT):
        raise ValueError("degenerate tangent on the transport grid")
    t = x_u / J[..., None]

    if initial_director is None:
        d0 = default_director(t[:, 0])
    else:
        d0 = np.broadcast_to(np.asarray(initial_director, dtype=float),
                             t[:, 0].shape)
        d0 = d0 - np.vecdot(d0, t[:, 0], keepdims=True) * t[:, 0]
        nd = np.sqrt(np.vecdot(d0, d0, keepdims=True))
        if np.any(nd < MIN_TANGENT):
            raise ValueError("initial director is parallel to the tangent")
        d0 = d0 / nd

    d1 = _transport_double_reflection(x, t, d0)
    # re-orthonormalize against accumulated rounding
    d1 -= np.sum(d1 * t, axis=-1, keepdims=True) * t
    d1 /= np.linalg.norm(d1, axis=-1, keepdims=True)
    d2 = np.cross(t, d1)
    R = np.stack([t, d1, d2], axis=-1)

    # arc length along the fine grid (trapezoid on the Jacobian)
    s = np.zeros(J.shape)
    np.cumsum(0.5 * (J[:, 1:] + J[:, :-1]) * np.diff(grid), axis=-1,
              out=s[:, 1:])

    # curvature samples at interval midpoints: K = log(R_i^T R_{i+1}) / ds
    Rrel = np.swapaxes(R[:, :-1], -1, -2) @ R[:, 1:]
    k_mid = so3.log_so3(Rrel) / np.diff(s)[..., None]
    s_mid = 0.5 * (s[:, 1:] + s[:, :-1])

    K0, K0_s = _fit_curvature(s[:, idx], s_mid, k_mid)

    jac = J[:, idx]
    x_e, xu_e, xuu_e = x[:, idx], x_u[:, idx], x_uu[:, idx]
    jac_u = np.sum(xu_e * xuu_e, axis=-1) / jac
    c0_s = xu_e / jac[..., None]
    c0_ss = xuu_e / jac[..., None] ** 2 - xu_e * (jac_u / jac ** 3)[..., None]
    frames = [InitialFrameField(eval_points, *fields) for fields in zip(
        x_e, c0_s, c0_ss, R[:, idx], K0, K0_s, jac, jac_u)]
    return frames, (first[idx], ders[:, idx])
