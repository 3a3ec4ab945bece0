import numpy as np
import pytest

from gebvisc import initial_geometry, so3
from gebvisc.initial_geometry import (MIN_TANGENT, _fine_grid,
                                      _fit_curvature,
                                      _transport_double_reflection,
                                      bishop_frames, default_director)
from gebvisc.splines import KnotVector, NurbsCurve, greville, line_curve
from helpers import (assert_bitwise, initial_curvature, interpolate_function,
                     is_rotation, oracle_fine_grid, oracle_fit_curvature,
                     oracle_transport)


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
        ff = bishop_frames([c], pts)[0]
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
        ff = bishop_frames([c], pts, min_total=10000)[0]
        mag = np.linalg.norm(ff.K0, axis=-1)
        assert np.abs(mag - 1.0 / rho).max() < 1e-6
        assert np.abs(ff.K0[:, 0]).max() < 1e-8  # Bishop: no twist component

    def test_frames_orthonormal_tangent_aligned(self):
        c = circle_curve(1.0)
        pts = np.linspace(0.0, 1.0, 11)
        ff = bishop_frames([c], pts)[0]
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
            ff = bishop_frames([c], pts, oversample=2, min_total=total)[0]
            errs.append(np.abs(np.linalg.norm(ff.K0, axis=-1) - kappa).max())
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) > 1.7


class TestSpiral:
    def test_matches_analytic_planar_curvature(self):
        c = spiral_curve()
        pts = np.linspace(0.05, 0.95, 19)
        ff = bishop_frames([c], pts, min_total=20000)[0]
        t = 2 * np.pi + 4 * np.pi * pts
        kappa = (t ** 2 + 2.0) / (t ** 2 + 1.0) ** 1.5
        mag = np.linalg.norm(ff.K0, axis=-1)
        assert np.abs(mag - kappa).max() < 1e-5


class TestSpivak:
    def test_well_defined_through_flat_point(self):
        c = spivak_curve()
        pts = np.linspace(0.0, 1.0, 201)  # includes the flat region around s=0
        ff = bishop_frames([c], pts)[0]
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
        ff = bishop_frames([c], pts)[0]
        Q = so3.exp_so3(rng.normal(size=3))
        rotated = NurbsCurve(c.kv, c.points @ Q.T, c.weights)
        d0_rot = Q @ ff.R0[0, :, 1]
        ff_rot = bishop_frames([rotated], pts, initial_director=d0_rot)[0]
        assert np.abs(ff_rot.R0 - Q @ ff.R0).max() < 1e-10
        assert np.abs(ff_rot.K0 - ff.K0).max() < 1e-10

    def test_director_flip_preserves_curvature_norm(self):
        c = spiral_curve(n=80, degree=4)
        pts = np.linspace(0.0, 1.0, 9)
        ff = bishop_frames([c], pts)[0]
        flipped = bishop_frames([c], pts, initial_director=-ff.R0[0, :, 1])[0]
        np.testing.assert_allclose(np.linalg.norm(flipped.K0, axis=-1),
                                   np.linalg.norm(ff.K0, axis=-1), atol=1e-10)

    def test_degenerate_tangent_rejected(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        c = NurbsCurve(kv, [[0, 0, 0], [0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(ValueError):
            bishop_frames([c], np.linspace(0, 1, 5))

    def test_initial_curvature_helper(self):
        c = circle_curve(2.0)
        pts = np.linspace(0, 1, 7)
        K0 = initial_curvature(c, pts, min_total=5000)
        assert np.abs(np.linalg.norm(K0, axis=-1) - 0.5).max() < 1e-5


def random_walk(rng, n=60):
    """Sampled points and unit tangents of no particular curve."""
    tangents = rng.normal(size=(n, 3))
    tangents /= np.linalg.norm(tangents, axis=-1, keepdims=True)
    return np.cumsum(rng.normal(size=(n, 3)), axis=0), tangents


def transport(points, tangents, d0):
    """The stacked transport of the one curve sampled at ``points``."""
    return _transport_double_reflection(points[None], tangents[None],
                                        d0[None])[0]


class TestTransport:
    """The transport in array passes equals the step-by-step double
    reflection bit for bit, on both of its degenerate branches too, for
    one curve and for every row of a stack."""

    def test_coincident_points_keep_the_director(self):
        points, tangents = random_walk(np.random.default_rng(7))
        points[10] = points[9]                      # c1 = 0
        points[20] = points[19] + 1e-13             # c1 = 3e-26
        step = points[20] - points[19]
        assert 0.0 < step @ step < MIN_TANGENT ** 2
        d0 = default_director(tangents[:1])[0]
        d = transport(points, tangents, d0)
        assert_bitwise(d, oracle_transport(points, tangents, d0))
        assert_bitwise(d[10], d[9])
        assert_bitwise(d[20], d[19])

    def test_reflected_tangent_skips_the_second_reflection(self):
        points, tangents = random_walk(np.random.default_rng(8))
        for i, offset in ((10, 0.0), (20, 1e-13)):  # c2 = 0 and c2 = 1e-26
            r1 = points[i + 1] - points[i]
            tangents[i + 1] = (tangents[i] - (2.0 / (r1 @ r1))
                               * (r1 @ tangents[i]) * r1)
            tangents[i + 1, 0] += offset
        d0 = default_director(tangents[:1])[0]
        d = transport(points, tangents, d0)
        assert_bitwise(d, oracle_transport(points, tangents, d0))
        for i in (10, 20):
            r1 = points[i + 1] - points[i]
            assert_bitwise(d[i + 1],
                           d[i] - (2.0 / (r1 @ r1)) * (r1 @ d[i]) * r1)


    def test_degenerate_row_of_a_stack(self):
        # row 2 has a zero-length step and row 1 one of 1e-13: each keeps
        # its director over it, and every row equals the one-curve oracle
        rng = np.random.default_rng(10)
        points, tangents = np.stack([random_walk(rng) for _ in range(4)],
                                    axis=1)
        points[2, 30] = points[2, 29]
        points[1, 12] = points[1, 11] + [1e-13, 0.0, 0.0]
        for k, i in ((2, 29), (1, 11)):
            step = points[k, i + 1] - points[k, i]
            assert step @ step < MIN_TANGENT ** 2
        d0 = default_director(tangents[:, 0])
        d = _transport_double_reflection(points, tangents, d0)
        assert d.shape == points.shape
        assert_bitwise(d[2, 30], d[2, 29])
        assert_bitwise(d[1, 12], d[1, 11])
        for k in range(4):
            assert_bitwise(d[k], oracle_transport(points[k], tangents[k],
                                                  d0[k]))

    def test_default_director(self):
        # the global axis most orthogonal to the tangent, ties to the
        # smaller index, projected onto the normal plane
        t = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [1.0, 0.0, 0.0],
                      [0.6, 0.8, 0.0]])
        d = default_director(t)
        np.testing.assert_allclose(d, [[1, 0, 0], [0, 1, 0], [0, 1, 0],
                                       [0, 0, 1]], atol=1e-15)


class TestCurvatureFit:
    def test_matches_one_fit_per_point(self):
        # with -0.0 samples, which polyfit turns into +0.0 before its lstsq
        rng = np.random.default_rng(9)
        s_mid = np.cumsum(rng.exponential(size=40))
        k_mid = rng.normal(size=(40, 3))
        k_mid[:, 2] = -0.0
        k_mid[::3, 1] = -0.0
        s_eval = np.sort(rng.uniform(s_mid[0] - 1.0, s_mid[-1] + 1.0, 25))
        K0, K0_s = _fit_curvature(s_eval[None], s_mid[None], k_mid[None])
        expected = oracle_fit_curvature(s_eval, s_mid, k_mid)
        assert_bitwise(K0[0], expected[0])
        assert_bitwise(K0_s[0], expected[1])

    def test_stack_matches_one_fit_per_curve(self):
        rng = np.random.default_rng(11)
        s_mid = np.cumsum(rng.exponential(size=(3, 30)), axis=1)
        k_mid = rng.normal(size=(3, 30, 3))
        s_eval = np.sort(rng.uniform(0.0, s_mid[:, -1:], (3, 12)), axis=1)
        K0, K0_s = _fit_curvature(s_eval, s_mid, k_mid)
        for k in range(3):
            expected = oracle_fit_curvature(s_eval[k], s_mid[k], k_mid[k])
            assert_bitwise(K0[k], expected[0])
            assert_bitwise(K0_s[k], expected[1])


class TestFineGrid:
    """The grid in one pass equals one ``linspace`` per gap bit for bit."""

    RESOLUTIONS = [(10, 2000), (10, 100), (3, 7)]

    @pytest.mark.parametrize("p", range(1, 8))
    def test_greville_points(self, p):
        for n in (p + 1, 3 * p + 5, 150):
            g = greville(KnotVector.open_uniform(p, n))
            for oversample, min_total in self.RESOLUTIONS + [(10, 10 * n)]:
                grid, idx = _fine_grid(g, oversample, min_total)
                expected = oracle_fine_grid(g, oversample, min_total)
                assert_bitwise(grid, expected[0])
                assert_bitwise(idx, expected[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_increasing_points(self, seed):
        rng = np.random.default_rng(seed)
        g = np.cumsum(rng.exponential(size=rng.integers(2, 80)) ** 3) - 0.3
        for oversample, min_total in self.RESOLUTIONS:
            grid, idx = _fine_grid(g, oversample, min_total)
            expected = oracle_fine_grid(g, oversample, min_total)
            assert_bitwise(grid, expected[0])
            assert_bitwise(idx, expected[1])


class TestArguments:
    """Bad arguments are rejected by name before any work starts."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the transport grid was built")
        monkeypatch.setattr(initial_geometry, "_fine_grid", fail)

    @pytest.mark.parametrize("points", [
        [0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [-np.inf, 0.5, 1.0],
    ], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_eval_points(self, points, no_work):
        with pytest.raises(ValueError, match="eval_points"):
            bishop_frames([line_curve([0, 0, 0], [1, 0, 0], 2, 5)], points)

    @pytest.mark.parametrize("points", [
        [0.0, 0.5, 0.5, 1.0], [0.0, 0.7, 0.4, 1.0],
    ], ids=["repeated", "decreasing"])
    def test_eval_points_not_increasing(self, points, no_work):
        with pytest.raises(ValueError, match="eval_points"):
            bishop_frames([line_curve([0, 0, 0], [1, 0, 0], 2, 5)], points)

    @pytest.mark.parametrize("director", [
        [np.nan, 1.0, 0.0], [0.0, np.inf, 0.0], [0.0, 1.0, -np.inf],
    ], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_director(self, director, no_work):
        with pytest.raises(ValueError, match="initial_director"):
            bishop_frames([line_curve([0, 0, 0], [1, 0, 0], 2, 5)],
                          [0.0, 0.5, 1.0], initial_director=director)
