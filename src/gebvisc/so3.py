"""Rotation-group algebra on SO(3).

All functions accept batched input: a rotation vector argument of shape
(..., 3) returns matrices of shape (..., 3, 3) and vice versa.  Rotations are
plain proper-orthogonal ndarrays, rotation vectors are ndarrays of radians.

The tangent map convention is the *right* one, fixed by the defining property

    d/de exp(skew(theta + e*v)) |_{e=0} = exp(skew(theta)) @ skew(T(theta) @ v)

which is verified against finite differences in the test suite.
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
    """a x b over the last axis, broadcast like ``np.cross``.

    The same products and differences as ``np.cross``, so the same bits,
    without its fixed cost of some 20 us per call.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def axial(A: np.ndarray, tol: float = 1.0e-10) -> np.ndarray:
    """Axial vector of a skew-symmetric matrix.

    Raises
    ------
    ValueError
        If ``A`` deviates from skew symmetry by more than ``tol``.
    """
    A = np.asarray(A, dtype=float)
    asym = np.abs(A + np.swapaxes(A, -1, -2)).max()
    if asym > tol:
        raise ValueError(f"matrix is not skew-symmetric (deviation {asym:.3e})")
    return np.stack(
        [A[..., 2, 1] - A[..., 1, 2],
         A[..., 0, 2] - A[..., 2, 0],
         A[..., 1, 0] - A[..., 0, 1]], axis=-1) * 0.5


def _angle(theta: np.ndarray) -> np.ndarray:
    return np.linalg.norm(theta, axis=-1)


def _coeffs_exp(x: np.ndarray):
    """sin(x)/x and (1-cos(x))/x^2 with series branches."""
    small = x < SERIES_ANGLE
    xs = np.where(small, 1.0, x)
    x2 = x * x
    c1 = np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(xs) / xs)
    c2 = np.where(small, 0.5 - x2 / 24.0 + x2 * x2 / 720.0,
                  (1.0 - np.cos(xs)) / (xs * xs))
    return c1, c2


def exp_so3(theta: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (..., 3) -> rotation matrix (..., 3, 3)."""
    theta = np.asarray(theta, dtype=float)
    x = _angle(theta)
    c1, c2 = _coeffs_exp(x)
    th = skew(theta)
    th2 = th @ th
    return np.eye(3) + c1[..., None, None] * th + c2[..., None, None] * th2


def log_so3(R: np.ndarray) -> np.ndarray:
    """Logarithm map: rotation matrix -> rotation vector with angle in [0, pi).

    Raises
    ------
    ValueError
        If the rotation angle is within ``PI_MARGIN`` of pi, where the
        logarithm becomes ill-conditioned.
    """
    return rotvec_from_quat(quat_from_matrix(R))


def tangent_map(theta: np.ndarray) -> np.ndarray:
    """Right tangent map T(theta), shape (..., 3, 3).

    T relates a perturbation of the rotation vector to the body-frame
    increment:  exp(skew(theta + v)) ~ exp(skew(theta)) exp(skew(T v)).
    """
    theta = np.asarray(theta, dtype=float)
    x = _angle(theta)
    small = x < SERIES_ANGLE
    xs = np.where(small, 1.0, x)
    x2 = x * x
    # a = (1 - cos x)/x^2,  b = (x - sin x)/x^3
    a = np.where(small, 0.5 - x2 / 24.0 + x2 * x2 / 720.0,
                 (1.0 - np.cos(xs)) / (xs * xs))
    b = np.where(small, 1.0 / 6.0 - x2 / 120.0 + x2 * x2 / 5040.0,
                 (xs - np.sin(xs)) / (xs * xs * xs))
    th = skew(theta)
    return np.eye(3) - a[..., None, None] * th + b[..., None, None] * (th @ th)


def tangent_map_inverse(theta: np.ndarray) -> np.ndarray:
    """Inverse right tangent map T^{-1}(theta); requires ||theta|| < 2*pi."""
    theta = np.asarray(theta, dtype=float)
    x = _angle(theta)
    if np.any(x >= 2.0 * np.pi - PI_MARGIN):
        raise ValueError("tangent_map_inverse is singular near ||theta|| = 2*pi")
    small = x < SERIES_ANGLE
    xs = np.where(small, 1.0, x)
    x2 = x * x
    # e = (1 - (x/2) cot(x/2)) / x^2
    gamma = 0.5 * xs / np.tan(0.5 * xs)
    e = np.where(small, 1.0 / 12.0 + x2 / 720.0 + x2 * x2 / 30240.0,
                 (1.0 - gamma) / (xs * xs))
    th = skew(theta)
    return np.eye(3) + 0.5 * th + e[..., None, None] * (th @ th)


def dtangent_map(theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Directional derivative of the right tangent map, d/de T(theta + e*w)|_0."""
    theta = np.asarray(theta, dtype=float)
    w = np.asarray(w, dtype=float)
    x = _angle(theta)
    small = x < _DSERIES_ANGLE
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
    th, wt = skew(theta), skew(w)
    th2 = th @ th
    return (-dax[..., None, None] * tw * th
            - a[..., None, None] * wt
            + dbx[..., None, None] * tw * th2
            + b[..., None, None] * (wt @ th + th @ wt))


# ---------------------------------------------------------------------------
# Unit quaternions (scalar-first).  Used to accumulate incremental rotation
# vectors across Newton iterations without hitting the pi singularity early.
# ---------------------------------------------------------------------------

def quat_from_rotvec(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    x = _angle(theta)
    small = x < SERIES_ANGLE
    xs = np.where(small, 1.0, x)
    x2 = x * x
    half_sinc = np.where(small, 0.5 - x2 / 48.0 + x2 * x2 / 3840.0,
                         np.sin(0.5 * xs) / xs)
    q = np.empty(theta.shape[:-1] + (4,))
    q[..., 0] = np.cos(0.5 * x)
    q[..., 1:] = half_sinc[..., None] * theta
    return q


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    w1, v1 = q1[..., :1], q1[..., 1:]
    w2, v2 = q2[..., :1], q2[..., 1:]
    w = w1 * w2 - np.sum(v1 * v2, axis=-1, keepdims=True)
    v = w1 * v2 + w2 * v1 + cross(v1, v2)
    return np.concatenate([w, v], axis=-1)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    R[..., 0, 1] = 2.0 * (x * y - w * z)
    R[..., 0, 2] = 2.0 * (x * z + w * y)
    R[..., 1, 0] = 2.0 * (x * y + w * z)
    R[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    R[..., 1, 2] = 2.0 * (y * z - w * x)
    R[..., 2, 0] = 2.0 * (x * z - w * y)
    R[..., 2, 1] = 2.0 * (y * z + w * x)
    R[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return R


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion from rotation matrix (Shepperd's method, batched)."""
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
    return quat_normalize(q).reshape(batch + (4,))


def rotvec_from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation vector of a unit quaternion, angle restricted to [0, pi)."""
    q = np.asarray(q, dtype=float)
    q = q * np.where(q[..., :1] < 0.0, -1.0, 1.0)
    w = q[..., 0]
    v = q[..., 1:]
    s = np.linalg.norm(v, axis=-1)
    angle = 2.0 * np.arctan2(s, w)
    if np.any(angle > np.pi - PI_MARGIN):
        raise ValueError("rotation angle too close to pi for a rotation vector")
    small = s < 1.0e-8
    ss = np.where(small, 1.0, s)
    ws = np.where(small, 1.0, w)
    f = np.where(small, 2.0 / ws * (1.0 - s * s / (3.0 * ws * ws)),
                 angle / ss)
    return f[..., None] * v


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
    s = np.linalg.norm(v, axis=-1)
    angle = 2.0 * np.arctan2(s, w)
    small = s < 1.0e-8
    ss = np.where(small, 1.0, s)
    ws = np.where(np.abs(w) < 1.0e-12, 1.0, w)
    f = np.where(small, 2.0 / ws * (1.0 - s * s / (3.0 * ws * ws)), angle / ss)
    return f[..., None] * v, angle
