"""B-spline / NURBS curves: basis evaluation with derivatives, Greville
abscissae, the parametric-to-arc-length chain rule and curve interpolation.

Only what a collocation discretization of a 1D strong form needs: basis values
and derivatives up to second order at arbitrary parameters in [0, 1], curves
evaluated at arrays of them, and the chain rule driven by the initial
geometry Jacobian.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def check_integer(value, name: str) -> int:
    """``value`` as an int; a bool or any other non-integer raises
    ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


class KnotVector:
    """Open (clamped) knot vector on [0, 1].

    Parameters
    ----------
    degree : int
        Polynomial degree p >= 1.
    knots : array_like
        Nondecreasing knots with the first and last value repeated p+1 times.
    """

    def __init__(self, degree: int, knots):
        self.degree = check_integer(degree, "degree")
        self.knots = np.asarray(knots, dtype=float)
        p = self.degree
        if p < 1:
            raise ValueError("degree must be >= 1")
        if not np.isfinite(self.knots).all():
            raise ValueError("knots must be finite")
        if np.any(np.diff(self.knots) < 0.0):
            raise ValueError("knots must be nondecreasing")
        if len(self.knots) < 2 * (p + 1):
            raise ValueError("knot vector too short for degree")
        if (np.any(self.knots[: p + 1] != self.knots[0])
                or np.any(self.knots[-(p + 1):] != self.knots[-1])):
            raise ValueError("knot vector must be clamped (open)")
        interior = self.knots[p + 1:-(p + 1)]
        if interior.size:
            _, counts = np.unique(interior, return_counts=True)
            if np.any(counts > p):
                raise ValueError("interior knot multiplicity exceeds degree")

    @property
    def n(self) -> int:
        """Number of basis functions / control points."""
        return len(self.knots) - self.degree - 1

    @property
    def u_min(self) -> float:
        return float(self.knots[0])

    @property
    def u_max(self) -> float:
        return float(self.knots[-1])

    @classmethod
    def open_uniform(cls, degree: int, n: int) -> "KnotVector":
        """Clamped knot vector with n basis functions and uniform interior knots."""
        if check_integer(n, "n") < check_integer(degree, "degree") + 1:
            raise ValueError("need at least degree+1 control points")
        interior = np.linspace(0.0, 1.0, n - degree + 1)[1:-1]
        knots = np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
        return cls(degree, knots)


def _bspline_ders(kv: KnotVector, us: np.ndarray,
                  max_deriv: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero B-spline basis functions and derivatives at every parameter.

    Returns ``(first, ders)`` where ``ders[k, m, j]`` is the k-th derivative
    of basis function ``first[m] + j`` (j = 0..p) at ``us[m]``.  Algorithm
    A2.3 of Piegl & Tiller, *The NURBS Book* (1997): the knot-difference
    recursion over the triangular table of divided differences, each step
    vectorized over the parameters.
    """
    p = kv.degree
    U = kv.knots
    # span i with U[i] <= u < U[i+1]; the last nonempty one at u = u_max
    i = np.searchsorted(U, us, side="right") - 1
    i = np.where(us <= U[p], p, i)
    i = np.where(us >= U[kv.n], kv.n - 1, i)
    nd = min(max_deriv, p)

    ndu = np.zeros((p + 1, p + 1, len(us)))
    left = np.zeros((p + 1, len(us)))
    right = np.zeros((p + 1, len(us)))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = us - U[i + 1 - j]
        right[j] = U[i + j] - us
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((max_deriv + 1, p + 1, len(us)))
    ders[0] = ndu[:, p]
    a = np.zeros((2, p + 1, len(us)))
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
        ders[k] *= fac
        fac *= p - k
    # point-major rows of p + 1 contiguous values: a sum over a row then
    # adds in the same order as for a single point
    return i - p, np.ascontiguousarray(ders.transpose(0, 2, 1))


def basis_eval_many(kv: KnotVector, us, max_deriv: int = 0,
                    weights: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero basis functions and u-derivatives up to ``max_deriv`` at
    every parameter of the 1-D array ``us``.

    With ``weights`` the rational basis is returned (quotient rule, derivatives
    up to order 2); otherwise the plain B-spline basis.

    Returns
    -------
    (first, ders)
        ``ders[k, m, j]`` is the k-th derivative of basis ``first[m] + j``
        at ``us[m]``.
    """
    us = np.atleast_1d(np.asarray(us, dtype=float))
    outside = ~((kv.u_min <= us) & (us <= kv.u_max))
    if np.any(outside):
        raise ValueError(f"parameter {us[outside][0]} outside "
                         f"[{kv.u_min}, {kv.u_max}]")
    if max_deriv > kv.degree:
        raise ValueError("derivative order exceeds degree")
    if weights is None:
        return _bspline_ders(kv, us, max_deriv)
    if max_deriv > 2:
        raise ValueError("rational derivatives implemented up to order 2")
    first, N = _bspline_ders(kv, us, max_deriv)
    w = np.asarray(weights, dtype=float)[first[:, None]
                                         + np.arange(kv.degree + 1)]
    A = N * w  # weighted numerators, same layout as N
    W = A.sum(axis=-1, keepdims=True)
    R = np.zeros_like(A)
    R[0] = A[0] / W[0]
    if max_deriv >= 1:
        R[1] = (A[1] - R[0] * W[1]) / W[0]
    if max_deriv >= 2:
        R[2] = (A[2] - 2.0 * R[1] * W[1] - R[0] * W[2]) / W[0]
    return first, R


def basis_eval(kv: KnotVector, u: float, max_deriv: int = 0,
               weights: np.ndarray | None = None) -> tuple[int, np.ndarray]:
    """``basis_eval_many`` at the one parameter ``u``: returns ``(first,
    ders)`` with ``ders[k, j]`` the k-th derivative of basis ``first + j``."""
    first, ders = basis_eval_many(kv, [u], max_deriv, weights)
    return int(first[0]), ders[:, 0]


def greville(kv: KnotVector) -> np.ndarray:
    """Greville abscissae (knot averages), one collocation point per basis:
    the sum of each window of p knots, divided by p."""
    p = kv.degree
    return sliding_window_view(kv.knots[1:kv.n + p], p).sum(axis=1) / p


def _basis_fills(kv: KnotVector, first: np.ndarray, ders: np.ndarray):
    """Yield ``B_k[i, j] = d^k R_j (us[i])`` for every order k of the
    ``basis_eval_many`` output ``(first, ders)`` at ``us``, in one dense
    (len(us), n) buffer refilled in place: every order has the same
    supported columns, so each fill overwrites the order before."""
    rows = np.arange(len(first))[:, None]
    cols = first[:, None] + np.arange(kv.degree + 1)
    B = np.zeros((len(first), kv.n))
    for d in ders:
        B[rows, cols] = d
        yield B


def basis_matrices(kv: KnotVector, us, max_deriv: int = 0,
                   weights: np.ndarray | None = None) -> list[np.ndarray]:
    """Dense collocation matrices ``B_k`` with ``B_k[i, j] = d^k R_j (us[i])``."""
    return [B.copy() for B in _basis_fills(
        kv, *basis_eval_many(kv, us, max_deriv, weights))]


class NurbsCurve:
    """Weighted spline curve in R^3 defined by a clamped knot vector."""

    def __init__(self, kv: KnotVector, points, weights=None):
        self.kv = kv
        self.points = np.asarray(points, dtype=float)
        if self.points.shape != (kv.n, 3) or not np.isfinite(self.points).all():
            raise ValueError(f"expected {kv.n} finite control points in 3D")
        if weights is None:
            self.weights = np.ones(kv.n)
        else:
            self.weights = np.asarray(weights, dtype=float)
            if self.weights.shape != (kv.n,):
                raise ValueError("one weight per control point required")
            if not np.all(np.isfinite(self.weights) & (self.weights > 0.0)):
                raise ValueError("weights must be finite and positive")

    @property
    def is_rational(self) -> bool:
        return bool(np.any(self.weights != 1.0))


def eval_many(curves, first: np.ndarray,
              ders: np.ndarray) -> list[np.ndarray]:
    """Evaluate curves that share one basis (degree, knots and weights) from
    ``(first, ders)``, the ``basis_eval_many`` of that basis at many
    parameters ``us``; returns [c, c_u, ...] arrays (len(curves), len(us),
    3), one per order of ``ders``.

    One dense (len(us), n) basis buffer is filled per derivative order and
    multiplied by the stacked control points once: a stacked ``@`` makes one
    BLAS product per curve in the shapes of a single curve, so a curve gets
    the same bits alone or in a stack.  The set-up holds one such matrix,
    not one per order (a third of the memory at order 2).  The bits rest on
    that one full-grid product per order. Of the 24,174 values on the
    spiral's 2,686 x 250 grid (one BLAS thread), products over row chunks of
    1,024 changed 12,610, and sums over the p + 1 supported basis functions
    6,220 (stacked matmul) or 11,116 (einsum).
    """
    kv, weights = curves[0].kv, curves[0].weights
    if any(c.kv.degree != kv.degree or not np.array_equal(c.kv.knots, kv.knots)
           or not np.array_equal(c.weights, weights) for c in curves[1:]):
        raise ValueError("curves evaluated together must share degree, "
                         "knots and weights")
    points = np.stack([c.points for c in curves])
    return [B @ points for B in _basis_fills(kv, first, ders)]


def to_arclength(f_u: np.ndarray, f_uu: np.ndarray, J,
                 J_u) -> tuple[np.ndarray, np.ndarray]:
    """Convert parametric derivatives of any field to arc-length derivatives.

    ``J`` and ``J_u`` are scalars or arrays that broadcast against the
    fields.  The powers of ``J`` are taken one value at a time by the C
    library's ``pow``, as for a scalar: numpy's vectorized power rounds
    differently on some hosts, and a point's result must not depend on how
    many points are converted together.
    """
    J = np.asarray(J, dtype=float)
    J2, J3 = (np.reshape([j ** k for j in J.ravel().tolist()], J.shape)
              for k in (2, 3))
    f_s = f_u / J
    f_ss = f_uu / J2 - f_u * J_u / J3
    return f_s, f_ss


def interpolate_curve(params, points, kv: KnotVector) -> NurbsCurve:
    """Interpolating B-spline curve through ``points`` at ``params``.

    The parameters must be the Greville abscissae of ``kv`` (one sample per
    basis function), which keeps the collocation matrix well conditioned.
    """
    params = np.asarray(params, dtype=float)
    points = np.asarray(points, dtype=float)
    if len(params) != kv.n:
        raise ValueError(f"need exactly {kv.n} samples, got {len(params)}")
    if not np.allclose(params, greville(kv), atol=1.0e-12):
        raise ValueError("sample parameters must be the Greville abscissae")
    B = basis_matrices(kv, params, 0)[0]
    try:
        ctrl = np.linalg.solve(B, points)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular interpolation matrix") from exc
    return NurbsCurve(kv, ctrl)


def line_curve(start, end, degree: int, n: int) -> NurbsCurve:
    """Straight segment with control points at the Greville abscissae."""
    kv = KnotVector.open_uniform(degree, n)
    g = greville(kv)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    return NurbsCurve(kv, start + g[:, None] * (end - start))
