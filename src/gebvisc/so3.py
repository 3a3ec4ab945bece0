"""Rotation-group algebra on SO(3).

All functions accept batched input: a rotation vector argument of shape
(..., 3) returns matrices of shape (..., 3, 3) and vice versa.  Rotations are
plain proper-orthogonal ndarrays, rotation vectors are ndarrays of radians.

The tangent map convention is the *right* one, fixed by the defining property

    d/de exp(skew(theta + e*v)) |_{e=0} = exp(skew(theta)) @ skew(T(theta) @ v)

which is verified against finite differences in the test suite.

Maps with a series branch evaluate only the branch that every point of a
uniform batch takes, and both, picked by ``np.where``, for a mixed batch;
every point gets the same bits either way.
"""

from __future__ import annotations

import numpy as np

# Rodrigues coefficients switch to their Taylor expansions below this angle;
# at the branch point both evaluations agree to machine precision in the
# assembled matrix entries.
SERIES_ANGLE = 1.0e-4

# The tangent-map directional derivative has stronger cancellation in its
# closed-form coefficients and needs a wider series region.
_DSERIES_ANGLE = 1.0e-2

#: log_so3 refuses angles this close to pi (caller must reduce the step).
PI_MARGIN = 1.0e-6

_EYE = np.eye(3)
#: the next and the previous axis of each axis, for ``cross``
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def skew(a: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of the axial vector ``a``: skew(a) @ h = a x h."""
    a = np.asarray(a, dtype=float)
    out = np.zeros(a.shape[:-1] + (3, 3))
    out[..., 0, 1] = -a[..., 2]
    out[..., 0, 2] = a[..., 1]
    out[..., 1, 0] = a[..., 2]
    out[..., 1, 2] = -a[..., 0]
    out[..., 2, 0] = -a[..., 1]
    out[..., 2, 1] = a[..., 0]
    return out


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of two arrays, broadcast like ``np.cross``.

    The same products and differences as ``np.cross``, so the same bits,
    without its fixed cost of some 20 us per call.
    """
    return (a.take(_NEXT, -1) * b.take(_PREV, -1)
            - a.take(_PREV, -1) * b.take(_NEXT, -1))


def _norm(v: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm over the last axis, with the bits of np.linalg.norm."""
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=keepdims))


def _sides(x: np.ndarray, small: np.ndarray):
    """Whether a batch of angles ``x`` has points in its series region
    ``small`` and points outside (an empty batch counts as outside), and
    ``x`` with the series points set to one, for the closed forms."""
    n = np.count_nonzero(small)
    return n > 0, n < small.size or not n, \
        np.where(small, 1.0, x) if 0 < n < small.size else x


def _pick(small, series, closed):
    """np.where(small, s, c) over the coefficients s of ``series`` and c
    of ``closed``; either is empty where no point of the batch takes it."""
    if not (series and closed):
        return series or closed
    return [np.where(small, s, c) for s, c in zip(series, closed)]


def increment_maps(theta: np.ndarray, w: np.ndarray):
    """exp(theta), the right tangent map T(theta) and its derivative
    dT(theta)[w] = d/de T(theta + e*w)|_0, each (..., 3, 3), from one angle,
    skew pass, theta~^2, sine and cosine.

    T relates a perturbation of the rotation vector to the body-frame
    increment:  exp(skew(theta + v)) ~ exp(skew(theta)) exp(skew(T v)).
    Series replace the closed forms below ``SERIES_ANGLE``, and for dT,
    whose closed form cancels more digits, below ``_DSERIES_ANGLE``.
    """
    theta, w = np.asarray(theta, dtype=float), np.asarray(w, dtype=float)
    x = _norm(theta)
    small, dsmall = x < SERIES_ANGLE, x < _DSERIES_ANGLE
    (below, above, xs), (dbelow, dabove, _) = (_sides(x, small),
                                               _sides(x, dsmall))
    # sin(x)/x, a = (1 - cos x)/x^2, b = (x - sin x)/x^3; dT's own a and b,
    # da/dx / x and db/dx / x: series and closed forms, where taken
    ser = dser = cf = dcf = ()
    if dbelow:
        x2 = x * x
        x4 = x2 * x2
        dser = (0.5 - x2 / 24.0 + x4 / 720.0,
                1.0 / 6.0 - x2 / 120.0 + x4 / 5040.0,
                -1.0 / 12.0 + x2 / 180.0 - x4 / 6720.0,
                -1.0 / 60.0 + x2 / 1260.0 - x4 / 60480.0)
        ser = (1.0 - x2 / 6.0 + x4 / 120.0, *dser[:2]) if below else ()
    if above:
        sx, omc = np.sin(xs), 1.0 - np.cos(xs)
        xms = xs - sx
        cf = (sx / xs, omc / (xs * xs), xms / (xs * xs * xs))
        dcf = (cf[1], xms / (xs ** 3), (xs * sx - 2.0 * omc) / (xs ** 4),
               (xs * omc - 3.0 * xms) / (xs ** 5)) if dabove else ()
    c, a, b, da, db, dax, dbx = (v[..., None, None] for v in (
        *_pick(small, ser, cf), *_pick(dsmall, dser, dcf)))
    th, wt = skew(np.concatenate((theta, w)).reshape((2,) + theta.shape))
    th2 = th @ th
    tw = np.add.reduce(theta * w, axis=-1)[..., None, None]
    return (_EYE + c * th + a * th2, _EYE - a * th + b * th2,
            -dax * tw * th - da * wt + dbx * tw * th2
            + db * (wt @ th + th @ wt))


def exp_so3(theta: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (..., 3) -> rotation matrix (..., 3, 3)."""
    return increment_maps(theta, np.zeros_like(theta, dtype=float))[0]


def log_so3(R: np.ndarray) -> np.ndarray:
    """Logarithm map: rotation matrix -> rotation vector with angle in [0, pi).

    Raises
    ------
    ValueError
        If the rotation angle is within ``PI_MARGIN`` of pi, where the
        logarithm becomes ill-conditioned.
    """
    # quat_from_matrix gives a scalar part >= 0, so the angle is in [0, pi]
    theta, angle = rotvec_from_quat_continuous(quat_from_matrix(R))
    if np.any(angle > np.pi - PI_MARGIN):
        raise ValueError("rotation angle too close to pi for a rotation vector")
    return theta


def tangent_map_inverse(theta: np.ndarray, th: np.ndarray | None = None
                        ) -> np.ndarray:
    """Inverse right tangent map T^{-1}(theta); requires ||theta|| < 2*pi.
    ``th`` is skew(theta), where the caller has it."""
    theta = np.asarray(theta, dtype=float)
    x = _norm(theta)
    if np.any(x >= 2.0 * np.pi - PI_MARGIN):
        raise ValueError("tangent_map_inverse is singular near ||theta|| = 2*pi")
    small = x < SERIES_ANGLE
    below, above, xs = _sides(x, small)
    x2 = x * x
    # e = (1 - (x/2) cot(x/2)) / x^2
    e, = _pick(small, below and (1.0 / 12.0 + x2 / 720.0 + x2 * x2 / 30240.0,),
               above and ((1.0 - 0.5 * xs / np.tan(0.5 * xs)) / (xs * xs),))
    if th is None:
        th = skew(theta)
    return _EYE + 0.5 * th + e[..., None, None] * (th @ th)


# ---------------------------------------------------------------------------
# Unit quaternions (scalar-first).  Used to accumulate incremental rotation
# vectors across Newton iterations without hitting the pi singularity early.
# ---------------------------------------------------------------------------

def quat_from_rotvec(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    x = _norm(theta)
    small = x < SERIES_ANGLE
    below, above, xs = _sides(x, small)
    x2 = x * x
    half_sinc, = _pick(small, below and (0.5 - x2 / 48.0 + x2 * x2 / 3840.0,),
                       above and (np.sin(0.5 * xs) / xs,))
    q = np.empty(theta.shape[:-1] + (4,))
    q[..., 0] = np.cos(0.5 * x)
    q[..., 1:] = half_sinc[..., None] * theta
    return q


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    w1, v1 = q1[..., :1], q1[..., 1:]
    w2, v2 = q2[..., :1], q2[..., 1:]
    w = w1 * w2 - np.add.reduce(v1 * v2, axis=-1, keepdims=True)
    v = w1 * v2 + w2 * v1 + cross(v1, v2)
    return np.concatenate([w, v], axis=-1)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return q / _norm(q, keepdims=True)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz, xy, xz, yz = x * x, y * y, z * z, x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    R[..., 0, 1] = 2.0 * (xy - wz)
    R[..., 0, 2] = 2.0 * (xz + wy)
    R[..., 1, 0] = 2.0 * (xy + wz)
    R[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    R[..., 1, 2] = 2.0 * (yz - wx)
    R[..., 2, 0] = 2.0 * (xz - wy)
    R[..., 2, 1] = 2.0 * (yz + wx)
    R[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return R


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion from rotation matrix (Shepperd's method, batched)."""
    R = np.asarray(R, dtype=float)
    batch = R.shape[:-2]
    Rf = R.reshape((-1, 3, 3))
    n = Rf.shape[0]
    q = np.empty((n, 4))
    diag = np.diagonal(Rf, axis1=1, axis2=2)
    tr = np.add.reduce(diag, axis=1)
    # pick the numerically largest of the four square roots per matrix
    case = np.argmax(np.concatenate((tr[:, None], diag), axis=1), axis=1)

    # each branch present on its own matrices: one gather, one scatter, or
    # plain slices when one branch takes every matrix
    for c, count in enumerate(np.bincount(case, minlength=4).tolist()):
        if not count:
            continue
        at = slice(None) if count == n else np.flatnonzero(case == c)
        M = Rf[at]
        qc = np.empty((len(M), 4))
        if c == 0:
            s = 2.0 * np.sqrt(1.0 + tr[at])
            qc[:, 0] = 0.25 * s
            qc[:, 1] = (M[:, 2, 1] - M[:, 1, 2]) / s
            qc[:, 2] = (M[:, 0, 2] - M[:, 2, 0]) / s
            qc[:, 3] = (M[:, 1, 0] - M[:, 0, 1]) / s
        else:
            i, j, k = c - 1, c % 3, (c + 1) % 3
            s = 2.0 * np.sqrt(1.0 + M[:, i, i] - M[:, j, j] - M[:, k, k])
            qc[:, 0] = (M[:, k, j] - M[:, j, k]) / s
            qc[:, 1 + i] = 0.25 * s
            qc[:, 1 + j] = (M[:, j, i] + M[:, i, j]) / s
            qc[:, 1 + k] = (M[:, k, i] + M[:, i, k]) / s
        q[at] = qc
    # canonical sign: nonnegative scalar part
    q *= np.where(q[:, :1] < 0.0, -1.0, 1.0)
    return quat_normalize(q).reshape(batch + (4,))


def rotvec_from_quat_continuous(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation vector and angle of a unit quaternion without sign wrapping.

    The scalar part is taken as-is, giving angles in [0, 2*pi) that stay
    continuous while a quaternion is accumulated by repeated multiplication.
    Used to track within-step incremental rotations, where wrapping an angle
    past pi to its complement would corrupt the step extrapolation.
    """
    q = np.asarray(q, dtype=float)
    w = q[..., 0]
    v = q[..., 1:]
    s = _norm(v)
    angle = 2.0 * np.arctan2(s, w)
    small = s < 1.0e-8
    below, above, ss = _sides(s, small)
    if below:
        ws = np.where(np.abs(w) < 1.0e-12, 1.0, w)
    f, = _pick(small, below and (2.0 / ws * (1.0 - s * s / (3.0 * ws * ws)),),
               above and (angle / ss,))
    return f[..., None] * v, angle
