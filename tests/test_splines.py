import tracemalloc

import numpy as np
import pytest

from gebvisc.splines import (KnotVector, NurbsCurve, basis_eval,
                             basis_eval_many, basis_matrices, eval_many,
                             greville, interpolate_curve, line_curve,
                             to_arclength)
from helpers import (arclength_derivatives, assert_bitwise, curve_point,
                     interpolate_function, oracle_basis_eval,
                     oracle_basis_matrices, oracle_greville)


def spivak_point(s):
    """Piecewise-defined test curve with a flat (zero-curvature) point at s=0."""
    if s == 0.0:
        return np.zeros(3)
    bump = np.exp(-1.0 / s ** 2)
    if s < 0.0:
        return np.array([s, 0.0, bump])
    return np.array([s, bump, 0.0])


def spiral_point(t):
    return np.array([t * np.sin(t), t * np.cos(t), 0.0])


class TestKnotVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            KnotVector(2, [0, 0, 0, 0.5, 0.4, 1, 1, 1])  # decreasing
        with pytest.raises(ValueError):
            KnotVector(2, [0, 0, 0.5, 1, 1])  # not clamped
        with pytest.raises(ValueError):
            KnotVector(2, [0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1])  # multiplicity 3 > p

    @pytest.mark.parametrize("make,name", [
        (lambda: KnotVector(2.7, [0, 0, 0, 0.5, 1, 1, 1]), "degree"),
        (lambda: KnotVector(True, [0, 0, 1, 1]), "degree"),
        (lambda: KnotVector.open_uniform(2.0, 8), "degree"),
        (lambda: KnotVector.open_uniform(2, 8.5), "n")],
        ids=["degree_float", "degree_bool", "uniform_degree_float",
             "uniform_n_float"])
    def test_non_integer_sizes_rejected(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            make()

    def test_counts(self):
        kv = KnotVector.open_uniform(4, 13)
        assert kv.n == 13
        assert len(kv.knots) == 13 + 4 + 1


class TestBasis:
    def test_linear_hats(self):
        kv = KnotVector(1, [0.0, 0.0, 1.0, 1.0])
        first, ders = basis_eval(kv, 0.3)
        assert first == 0
        np.testing.assert_allclose(ders[0], [0.7, 0.3])

    def test_partition_of_unity_and_zero_sum_derivatives(self):
        rng = np.random.default_rng(21)
        for p, n in [(2, 5), (3, 9), (4, 7), (6, 20), (8, 25)]:
            kv = KnotVector.open_uniform(p, n)
            for u in rng.uniform(0.0, 1.0, size=1000):
                _, ders = basis_eval(kv, u, 2)
                assert abs(ders[0].sum() - 1.0) < 1e-14
                assert abs(ders[1].sum()) < 1e-9
                assert abs(ders[2].sum()) < 1e-6

    def test_first_derivative_vs_finite_difference(self):
        rng = np.random.default_rng(22)
        kv = KnotVector(2, [0, 0, 0, *np.sort(rng.uniform(0.1, 0.9, 3)), 1, 1, 1])
        h = 1e-6
        us = rng.uniform(0.01, 0.99, 50)
        B1 = basis_matrices(kv, us, 1)[1]
        Bp = basis_matrices(kv, us + h, 0)[0]
        Bm = basis_matrices(kv, us - h, 0)[0]
        assert np.abs((Bp - Bm) / (2 * h) - B1).max() < 1e-6

    def test_deriv_order_exceeding_degree_rejected(self):
        kv = KnotVector.open_uniform(2, 6)
        with pytest.raises(ValueError):
            basis_eval(kv, 0.5, 3)

    def test_outside_domain_rejected(self):
        kv = KnotVector.open_uniform(2, 6)
        with pytest.raises(ValueError):
            basis_eval(kv, 1.5)


def knot_vectors(p):
    """Clamped knot vectors of degree p: uniform, and nonuniform with an
    interior knot repeated p times and one repeated min(2, p) times."""
    rng = np.random.default_rng(100 + p)
    interior = np.sort(np.concatenate([rng.uniform(0.05, 0.95, 5),
                                       np.full(p, 0.4),
                                       np.full(min(2, p), 0.7)]))
    return [KnotVector.open_uniform(p, p + 6),
            KnotVector(p, np.concatenate([np.zeros(p + 1), interior,
                                          np.ones(p + 1)]))]


class TestBatchedBasis:
    """The batched basis is the scalar Piegl-Tiller routine bit for bit."""

    @pytest.mark.parametrize("p", range(1, 8))
    def test_matches_scalar_oracle(self, p):
        rng = np.random.default_rng(p)
        for kv in knot_vectors(p):
            # every knot (0, 1 and the repeated interior ones among them)
            # and random parameters
            us = np.concatenate([kv.knots, rng.uniform(0.0, 1.0, 40)])
            for weights in (None, rng.uniform(0.3, 3.0, kv.n)):
                for max_deriv in range(min(2, p) + 1):
                    first, ders = basis_eval_many(kv, us, max_deriv, weights)
                    for m, u in enumerate(us):
                        f, d = oracle_basis_eval(kv, u, max_deriv, weights)
                        assert first[m] == f
                        assert_bitwise(ders[:, m], d)
                        one = basis_eval(kv, u, max_deriv, weights)
                        assert one[0] == f
                        assert_bitwise(one[1], d)

    @pytest.mark.parametrize("p", [2, 6])
    def test_basis_matrices_match_oracle(self, p):
        rng = np.random.default_rng(30 + p)
        kv = knot_vectors(p)[1]
        us = np.concatenate([kv.knots, rng.uniform(0.0, 1.0, 60)])
        for weights in (None, rng.uniform(0.3, 3.0, kv.n)):
            for B, ref in zip(basis_matrices(kv, us, 2, weights),
                              oracle_basis_matrices(kv, us, 2, weights)):
                assert_bitwise(B, ref)

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, np.nan])
    def test_basis_matrices_reject_any_entry_outside(self, bad):
        kv = KnotVector.open_uniform(3, 9)
        us = np.linspace(0.0, 1.0, 11)
        us[4] = bad
        with pytest.raises(ValueError, match="outside"):
            basis_matrices(kv, us, 1)


class TestGreville:
    def test_reference_values(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        np.testing.assert_allclose(greville(kv), [0.0, 0.25, 0.75, 1.0])

    def test_linear(self):
        kv = KnotVector(1, [0, 0, 1, 1])
        np.testing.assert_allclose(greville(kv), [0.0, 1.0])

    def test_count_matches_basis_count(self):
        kv = KnotVector.open_uniform(4, 17)
        g = greville(kv)
        assert len(g) == kv.n == 17
        assert g[0] == 0.0 and g[-1] == 1.0
        assert np.all(np.diff(g) > 0)

    def test_abscissae_in_basis_support(self):
        kv = KnotVector.open_uniform(3, 11)
        for i, u in enumerate(greville(kv)):
            assert kv.knots[i] <= u <= kv.knots[i + kv.degree + 1]

    @pytest.mark.parametrize("p", range(1, 11))
    def test_matches_knot_window_means(self, p):
        rng = np.random.default_rng(p)
        kvs = [KnotVector.open_uniform(p, n) for n in (p + 1, p + 2, 40)]
        for n in (p + 2, 9 + p, 60):
            inner = np.sort(rng.random(n - p - 1))
            kvs.append(KnotVector(p, np.r_[np.zeros(p + 1), inner,
                                           np.ones(p + 1)]))
        for kv in kvs:
            assert_bitwise(greville(kv), oracle_greville(kv))


class TestCurve:
    def test_straight_segment_midpoint(self):
        c = NurbsCurve(KnotVector(1, [0, 0, 1, 1]),
                       [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        np.testing.assert_allclose(eval_many([c], [0.5])[0][0],
                                   [[1.0, 0.0, 0.0]])

    def test_rational_circle_arc(self):
        # quarter circle of radius 1 as a quadratic rational segment
        kv = KnotVector(2, [0, 0, 0, 1, 1, 1])
        c = NurbsCurve(kv, [[1, 0, 0], [1, 1, 0], [0, 1, 0]],
                       weights=[1.0, np.sqrt(0.5), 1.0])
        r = np.linalg.norm(eval_many([c], np.linspace(0.0, 1.0, 50))[0][0],
                           axis=1)
        assert np.abs(r - 1.0).max() < 1e-12

    def test_weights_near_one_are_rational(self):
        # a weight 5e-6 off one moves the curve by about 3e-6: the curve
        # must evaluate on the rational basis, not the plain one
        kv = KnotVector.open_uniform(3, 6)
        rng = np.random.default_rng(5)
        w = np.ones(6)
        w[2] += 5e-6
        c = NurbsCurve(kv, rng.normal(size=(6, 3)), weights=w)
        assert c.is_rational
        assert not NurbsCurve(kv, c.points).is_rational
        us = np.linspace(0.0, 1.0, 41)
        first, ders = basis_eval_many(kv, us, 0, w)
        expected = np.einsum("mj,mjd->md", ders[0], c.points[
            first[:, None] + np.arange(4)])
        np.testing.assert_allclose(eval_many([c], us)[0][0], expected, rtol=0,
                                   atol=1e-13)

    def test_derivatives_vs_finite_difference(self):
        rng = np.random.default_rng(23)
        kv = KnotVector.open_uniform(4, 9)
        c = NurbsCurve(kv, rng.normal(size=(9, 3)),
                       weights=rng.uniform(0.5, 2.0, size=9))
        h = 1e-6
        for u in rng.uniform(0.01, 0.99, 20):
            d = curve_point(c, u, 2)
            cp, cm = curve_point(c, u + h)[0], curve_point(c, u - h)[0]
            fd1 = (cp - cm) / (2 * h)
            fd2 = (cp - 2 * d[0] + cm) / h ** 2
            assert np.abs(d[1] - fd1).max() < 1e-6
            assert np.abs(d[2] - fd2).max() < 1e-3


class TestEvalMany:
    """``eval_many`` fills one basis buffer per derivative order and
    multiplies it by the stacked control points: for every curve of the
    stack the dense product of each order bit for bit, with one dense
    matrix in memory."""

    @pytest.mark.parametrize("p", range(1, 8))
    def test_matches_dense_products(self, p):
        rng = np.random.default_rng(50 + p)
        for kv in knot_vectors(p):
            # every knot, both ends among them, and random parameters
            us = np.concatenate([kv.knots, rng.uniform(0.0, 1.0, 40)])
            pts = rng.normal(size=(3, kv.n, 3))
            for weights in (None, rng.uniform(0.3, 3.0, kv.n)):
                curves = [NurbsCurve(kv, x, weights) for x in pts]
                assert curves[0].is_rational == (weights is not None)
                for max_deriv in range(min(2, p) + 1):
                    got = eval_many(curves, us, max_deriv)
                    mats = basis_matrices(kv, us, max_deriv, weights)
                    assert len(got) == max_deriv + 1
                    for c, B in zip(got, mats):
                        assert c.shape == (3, len(us), 3)
                        for ck, curve in zip(c, curves):
                            assert_bitwise(ck, B @ curve.points)

    @pytest.mark.parametrize("other", [
        lambda c: NurbsCurve(KnotVector.open_uniform(3, 6), c.points),
        lambda c: NurbsCurve(KnotVector(2, [0, 0, 0, 0.3, 0.5, 0.6, 1, 1, 1]),
                             c.points),
        lambda c: NurbsCurve(c.kv, c.points, np.linspace(1.0, 2.0, 6)),
    ], ids=["degree", "knots", "weights"])
    def test_curves_must_share_a_basis(self, other):
        curve = NurbsCurve(KnotVector.open_uniform(2, 6),
                           np.random.default_rng(3).normal(size=(6, 3)))
        with pytest.raises(ValueError, match="share degree, knots and"):
            eval_many([curve, other(curve)], [0.0, 0.5, 1.0])

    def test_one_dense_matrix_in_memory(self):
        # the spiral's transport grid: p = 6, 250 control points and 2,686
        # points; three dense matrices, one per order, would take about 3
        kv = KnotVector.open_uniform(6, 250)
        curve = NurbsCurve(kv, np.random.default_rng(7).normal(size=(250, 3)))
        grid = np.linspace(0.0, 1.0, 2686)
        tracemalloc.start()
        try:
            eval_many([curve], grid, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * grid.size * kv.n * 8


class TestArcLength:
    def test_straight_segment_jacobian(self):
        L = 3.5
        c = line_curve([0, 0, 0], [L, 0, 0], degree=3, n=8)
        for u in np.linspace(0, 1, 11):
            J, J_u = arclength_derivatives(c, u)
            assert abs(J - L) < 1e-12
            assert abs(J_u) < 1e-9

    def test_chain_rule_on_segment(self):
        L = 3.5
        c = line_curve([0, 0, 0], [L, 0, 0], degree=2, n=6)
        J, J_u = arclength_derivatives(c, 0.4)
        f_s, f_ss = to_arclength(np.array([1.0]), np.array([0.0]), J, J_u)
        np.testing.assert_allclose(f_s, [1.0 / L])
        np.testing.assert_allclose(f_ss, [0.0], atol=1e-12)

    def test_spiral_second_derivative_conversion(self):
        # c(t) = [t sin t, t cos t, 0]; analytic arc-length derivatives
        t0, t1 = 2 * np.pi, 6 * np.pi
        c = interpolate_function(lambda u: spiral_point(t0 + (t1 - t0) * u),
                                 degree=6, n=200)
        for u in np.linspace(0.05, 0.95, 40):
            t = t0 + (t1 - t0) * u
            d = curve_point(c, u, 2)
            J, J_u = arclength_derivatives(c, u)
            c_s, c_ss = to_arclength(d[1], d[2], J, J_u)
            sig = np.hypot(1.0, t)
            dc = np.array([np.sin(t) + t * np.cos(t),
                           np.cos(t) - t * np.sin(t), 0.0])
            d2c = np.array([2 * np.cos(t) - t * np.sin(t),
                            -2 * np.sin(t) - t * np.cos(t), 0.0])
            exact_s = dc / sig
            exact_ss = (d2c * sig - dc * (t / sig)) / sig ** 3
            assert np.abs(c_s - exact_s).max() < 1e-7
            assert np.abs(c_ss - exact_ss).max() < 1e-5


class TestInterpolation:
    def test_two_point_linear(self):
        kv = KnotVector(1, [0, 0, 1, 1])
        c = interpolate_curve([0.0, 1.0], [[0, 0, 0], [1, 2, 3]], kv)
        np.testing.assert_allclose(eval_many([c], [0.5])[0][0],
                                   [[0.5, 1.0, 1.5]])

    def test_cubic_polynomial_reproduction(self):
        def poly(u):
            return np.array([u ** 3 - u, 2 * u ** 2 + 0.5, 3 * u ** 3])
        c = interpolate_function(poly, degree=3, n=12)
        us = np.linspace(0, 1, 101)
        assert np.abs(eval_many([c], us)[0][0] - poly(us).T).max() < 1e-10

    def test_projector_property(self):
        rng = np.random.default_rng(24)
        kv = KnotVector.open_uniform(4, 10)
        orig = NurbsCurve(kv, rng.normal(size=(10, 3)))
        g = greville(kv)
        again = interpolate_curve(g, eval_many([orig], g)[0][0], kv)
        np.testing.assert_allclose(again.points, orig.points, atol=1e-10)

    def test_spivak_interpolation_error(self):
        # single global interpolant of the piecewise curve; the flat point at
        # s = 0 is inside the domain and must not degrade the fit beyond 1e-6
        def fn(u):
            return spivak_point(-2.0 + 5.0 * u)
        c = interpolate_function(fn, degree=6, n=150)
        us = np.linspace(0.0, 1.0, 3001)
        err = np.abs(eval_many([c], us)[0][0] - [fn(u) for u in us]).max()
        assert err < 1e-6

    def test_wrong_parameters_rejected(self):
        kv = KnotVector.open_uniform(2, 5)
        with pytest.raises(ValueError):
            interpolate_curve(np.linspace(0, 1, 5), np.zeros((5, 3)), kv)
