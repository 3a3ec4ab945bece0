import numpy as np
import pytest

from gebvisc import so3
from gebvisc.initial_geometry import bishop_frames
from gebvisc.splines import KnotVector, NurbsCurve, greville, line_curve
from helpers import initial_curvature, interpolate_function, is_rotation


def circle_curve(radius, n=40, degree=5, turns=0.7):
    def fn(u):
        a = 2 * np.pi * turns * u
        return radius * np.array([np.cos(a), np.sin(a), 0.0])
    return interpolate_function(fn, degree=degree, n=n)


def spiral_curve(n=200, degree=6):
    t0, t1 = 2 * np.pi, 6 * np.pi
    def fn(u):
        t = t0 + (t1 - t0) * u
        return np.array([t * np.sin(t), t * np.cos(t), 0.0])
    return interpolate_function(fn, degree=degree, n=n)


def spivak_curve(n=150, degree=6):
    def fn(u):
        s = -2.0 + 5.0 * u
        if s == 0.0:
            return np.zeros(3)
        b = np.exp(-1.0 / s ** 2)
        return np.array([s, 0.0, b]) if s < 0 else np.array([s, b, 0.0])
    return interpolate_function(fn, degree=degree, n=n)


class TestStraightBeam:
    def test_constant_frames_zero_curvature(self):
        c = line_curve([0, 0, 0], [0, 1.0, 0], degree=4, n=12)
        pts = greville(KnotVector.open_uniform(4, 12))
        ff = bishop_frames(c, pts)
        assert np.abs(ff.R0 - ff.R0[0]).max() < 1e-12
        assert np.abs(ff.K0).max() < 1e-12
        assert np.abs(ff.K0_s).max() < 1e-12
        # first column aligned with the tangent
        np.testing.assert_allclose(ff.R0[:, :, 0], ff.c0_s, atol=1e-12)


class TestCircle:
    def test_curvature_magnitude_and_zero_twist(self):
        rho = 2.5
        c = circle_curve(rho)
        pts = np.linspace(0.0, 1.0, 25)
        ff = bishop_frames(c, pts, min_total=10000)
        mag = np.linalg.norm(ff.K0, axis=-1)
        assert np.abs(mag - 1.0 / rho).max() < 1e-6
        assert np.abs(ff.K0[:, 0]).max() < 1e-8  # Bishop: no twist component

    def test_frames_orthonormal_tangent_aligned(self):
        c = circle_curve(1.0)
        pts = np.linspace(0.0, 1.0, 11)
        ff = bishop_frames(c, pts)
        assert is_rotation(ff.R0, tol=1e-10)
        dots = np.einsum("ni,ni->n", ff.R0[:, :, 0], ff.c0_s)
        assert np.abs(dots - 1.0).max() < 1e-10

    def test_convergence_order_of_curvature(self):
        # needs varying curvature (a circle is differenced exactly), geometry
        # fine enough that the transport grid dominates the error
        c = spiral_curve(n=300, degree=8)
        pts = np.linspace(0.05, 0.95, 7)
        t = 2 * np.pi + 4 * np.pi * pts
        kappa = (t ** 2 + 2.0) / (t ** 2 + 1.0) ** 1.5
        errs = []
        for total in (100, 200, 400):
            ff = bishop_frames(c, pts, oversample=2, min_total=total)
            errs.append(np.abs(np.linalg.norm(ff.K0, axis=-1) - kappa).max())
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) > 1.7


class TestSpiral:
    def test_matches_analytic_planar_curvature(self):
        c = spiral_curve()
        pts = np.linspace(0.05, 0.95, 19)
        ff = bishop_frames(c, pts, min_total=20000)
        t = 2 * np.pi + 4 * np.pi * pts
        kappa = (t ** 2 + 2.0) / (t ** 2 + 1.0) ** 1.5
        mag = np.linalg.norm(ff.K0, axis=-1)
        assert np.abs(mag - kappa).max() < 1e-5


class TestSpivak:
    def test_well_defined_through_flat_point(self):
        c = spivak_curve()
        pts = np.linspace(0.0, 1.0, 201)  # includes the flat region around s=0
        ff = bishop_frames(c, pts)
        assert np.all(np.isfinite(ff.R0))
        assert np.all(np.isfinite(ff.K0))
        assert is_rotation(ff.R0, tol=1e-9)
        # directors vary continuously: per-gap change bounded by curvature * ds
        d = ff.R0[:, :, 1]
        gaps = np.linalg.norm(np.diff(d, axis=0), axis=-1)
        assert gaps.max() < 0.1


class TestInvariants:
    def test_rigid_rotation_equivariance(self):
        rng = np.random.default_rng(31)
        c = circle_curve(1.5, n=30, degree=4)
        pts = np.linspace(0.0, 1.0, 13)
        ff = bishop_frames(c, pts)
        Q = so3.exp_so3(rng.normal(size=3))
        rotated = NurbsCurve(c.kv, c.points @ Q.T, c.weights)
        d0_rot = Q @ ff.R0[0, :, 1]
        ff_rot = bishop_frames(rotated, pts, initial_director=d0_rot)
        assert np.abs(ff_rot.R0 - Q @ ff.R0).max() < 1e-10
        assert np.abs(ff_rot.K0 - ff.K0).max() < 1e-10

    def test_director_flip_preserves_curvature_norm(self):
        c = spiral_curve(n=80, degree=4)
        pts = np.linspace(0.0, 1.0, 9)
        ff = bishop_frames(c, pts)
        flipped = bishop_frames(c, pts, initial_director=-ff.R0[0, :, 1])
        np.testing.assert_allclose(np.linalg.norm(flipped.K0, axis=-1),
                                   np.linalg.norm(ff.K0, axis=-1), atol=1e-10)

    def test_degenerate_tangent_rejected(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        c = NurbsCurve(kv, [[0, 0, 0], [0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(ValueError):
            bishop_frames(c, np.linspace(0, 1, 5))

    def test_initial_curvature_helper(self):
        c = circle_curve(2.0)
        pts = np.linspace(0, 1, 7)
        K0 = initial_curvature(c, pts, min_total=5000)
        assert np.abs(np.linalg.norm(K0, axis=-1) - 0.5).max() < 1e-5
