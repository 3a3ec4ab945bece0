import numpy as np
import pytest

from gebvisc import so3
from helpers import (assert_bitwise, axial, compose_rotvec, is_rotation,
                     oracle_dtangent_map, oracle_exp_so3,
                     oracle_quat_from_matrix, oracle_quat_from_rotvec,
                     oracle_rotvec_from_quat_continuous, oracle_tangent_map,
                     oracle_tangent_map_inverse)


def random_rotvecs(rng, n, max_angle=np.pi - 0.05):
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    angle = rng.uniform(0.0, max_angle, size=(n, 1))
    return axis * angle


def tangent_map(theta):
    """T(theta) of ``so3.increment_maps``."""
    theta = np.asarray(theta, dtype=float)
    return so3.increment_maps(theta, np.zeros_like(theta))[1]


def matrix_exp_series(theta, terms=20):
    A = so3.skew(theta)
    R = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms + 1):
        term = term @ A / k
        R = R + term
    return R


class TestSkewAxial:
    def test_zero(self):
        assert np.array_equal(so3.skew(np.zeros(3)), np.zeros((3, 3)))

    def test_cross_product_identity(self):
        out = so3.skew([1.0, 0.0, 0.0]) @ np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((250, 3), (3,)),
                                        ((3,), (4, 1, 3))])
    def test_cross_matches_numpy_bitwise(self, shapes):
        rng = np.random.default_rng(2)
        a, b = (rng.normal(size=s) for s in shapes)
        np.testing.assert_array_equal(so3.cross(a, b), np.cross(a, b))

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 3))
        np.testing.assert_allclose(axial(so3.skew(a), tol=0.0), a, rtol=0,
                                   atol=0)

    def test_adjoint_identity(self):
        # R K~ R^T = (R K)~
        rng = np.random.default_rng(1)
        for _ in range(20):
            R = so3.exp_so3(random_rotvecs(rng, 1)[0])
            k = rng.normal(size=3)
            np.testing.assert_allclose(R @ so3.skew(k) @ R.T, so3.skew(R @ k),
                                       atol=1e-12)


class TestExpLog:
    def test_exp_zero_is_identity(self):
        np.testing.assert_array_equal(so3.exp_so3(np.zeros(3)), np.eye(3))

    def test_quarter_turn(self):
        R = so3.exp_so3([0.0, 0.0, np.pi / 2])
        np.testing.assert_allclose(R @ np.array([1.0, 0.0, 0.0]),
                                   [0.0, 1.0, 0.0], atol=1e-15)

    def test_axis_is_fixed(self):
        rng = np.random.default_rng(2)
        th = random_rotvecs(rng, 30)
        np.testing.assert_allclose(
            np.einsum("nij,nj->ni", so3.exp_so3(th), th), th, atol=1e-13)

    def test_exp_matches_series(self):
        rng = np.random.default_rng(3)
        th = random_rotvecs(rng, 100, max_angle=np.pi)
        R = so3.exp_so3(th)
        for i in range(100):
            np.testing.assert_allclose(R[i], matrix_exp_series(th[i]),
                                       atol=1e-12)

    def test_exp_is_rotation(self):
        rng = np.random.default_rng(4)
        th = random_rotvecs(rng, 200, max_angle=np.pi)
        R = so3.exp_so3(th)
        assert is_rotation(R, tol=1e-12)

    def test_log_identity(self):
        np.testing.assert_array_equal(so3.log_so3(np.eye(3)), np.zeros(3))

    def test_log_round_trip(self):
        th = np.array([0.1, -0.2, 0.3])
        np.testing.assert_allclose(so3.log_so3(so3.exp_so3(th)), th, atol=1e-12)

    def test_log_recovers_angle_three(self):
        rng = np.random.default_rng(5)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        th = 3.0 * axis
        rec = so3.log_so3(so3.exp_so3(th))
        np.testing.assert_allclose(rec, th, atol=1e-10)

    def test_round_trips_batch(self):
        rng = np.random.default_rng(6)
        th = random_rotvecs(rng, 100, max_angle=np.pi - 0.01)
        np.testing.assert_allclose(so3.log_so3(so3.exp_so3(th)), th, atol=1e-10)

    def test_log_rejects_angle_near_pi(self):
        R = so3.exp_so3([np.pi - 1e-9, 0.0, 0.0])
        with pytest.raises(ValueError):
            so3.log_so3(R)

    def test_composition_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t1 = random_rotvecs(rng, 1, max_angle=1.2)[0]
            t2 = random_rotvecs(rng, 1, max_angle=1.2)[0]
            composed = compose_rotvec(t1, t2)
            np.testing.assert_allclose(so3.exp_so3(composed),
                                       so3.exp_so3(t1) @ so3.exp_so3(t2),
                                       atol=1e-10)


class TestTangentMap:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(tangent_map(np.zeros(3)), np.eye(3))
        np.testing.assert_array_equal(so3.tangent_map_inverse(np.zeros(3)),
                                      np.eye(3))

    def test_axis_invariance(self):
        rng = np.random.default_rng(8)
        th = random_rotvecs(rng, 30)
        np.testing.assert_allclose(
            np.einsum("nij,nj->ni", tangent_map(th), th), th, atol=1e-12)

    def test_inverse_property(self):
        rng = np.random.default_rng(9)
        th = random_rotvecs(rng, 100, max_angle=2 * np.pi - 0.1)
        prod = tangent_map(th) @ so3.tangent_map_inverse(th)
        np.testing.assert_allclose(prod, np.broadcast_to(np.eye(3), prod.shape),
                                   atol=1e-10)

    def test_inverse_rejects_near_two_pi(self):
        with pytest.raises(ValueError):
            so3.tangent_map_inverse([2 * np.pi - 1e-8, 0.0, 0.0])

    def test_defining_finite_difference_property(self):
        # d/de exp(theta + e v)|_0 = exp(theta~) skew(T(theta) v)
        rng = np.random.default_rng(10)
        eps = 1e-6
        th = random_rotvecs(rng, 100, max_angle=np.pi - 0.2)
        v = rng.normal(size=(100, 3))
        fd = (so3.exp_so3(th + eps * v) - so3.exp_so3(th - eps * v)) / (2 * eps)
        Tv = np.einsum("nij,nj->ni", tangent_map(th), v)
        exact = so3.exp_so3(th) @ so3.skew(Tv)
        assert np.abs(fd - exact).max() < 1e-7

    def test_series_branch_continuity(self):
        # both branches must agree where they hand over
        for x in (0.9e-4, 1.0e-4, 1.1e-4):
            th = np.array([x, 0.4 * x, -0.2 * x])
            th = th / np.linalg.norm(th) * x
            np.testing.assert_allclose(
                tangent_map(th) @ so3.tangent_map_inverse(th),
                np.eye(3), atol=1e-12)
            np.testing.assert_allclose(so3.exp_so3(th).T @ so3.exp_so3(th),
                                       np.eye(3), atol=1e-15)

    def test_dtangent_map_vs_fd(self):
        # angles in (1e-2, 2.5) exercise the closed form, tiny ones the series;
        # the band around the branch point is skipped because tangent_map itself
        # carries O(1e-12) cancellation noise there that the FD quotient amplifies
        rng = np.random.default_rng(11)
        eps = 1e-6
        axes = rng.normal(size=(60, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        angles = np.concatenate([rng.uniform(1.5e-2, 2.5, size=50),
                                 rng.uniform(0.0, 4e-5, size=10)])
        th = axes * angles[:, None]
        w = rng.normal(size=(60, 3))
        fd = (tangent_map(th + eps * w) - tangent_map(th - eps * w)) / (2 * eps)
        exact = so3.increment_maps(th, w)[2]
        assert np.abs(fd - exact).max() < 1e-7


class TestIncrementMaps:
    # on both sides of the series branch points, the points themselves and
    # one ulp either side of them included
    ANGLES = [0.0, 5e-5, np.nextafter(so3.SERIES_ANGLE, 0.0), so3.SERIES_ANGLE,
              np.nextafter(so3.SERIES_ANGLE, 1.0), 5e-3,
              np.nextafter(so3._DSERIES_ANGLE, 0.0), so3._DSERIES_ANGLE,
              np.nextafter(so3._DSERIES_ANGLE, 1.0), 0.5, 3.0]

    def test_bitwise_against_one_map_evaluations(self):
        # the shared angle, skew matrix and sine and cosine give each map
        # the bits of its own evaluation; along a coordinate axis the angle
        # is exactly the one listed
        rng = np.random.default_rng(15)
        angles = np.array(self.ANGLES)
        axes = rng.normal(size=(len(angles), 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        th = np.concatenate([np.eye(3)[k] * angles[:, None] for k in range(3)]
                            + [axes * angles[:, None]])
        w = rng.normal(size=th.shape)
        E, T, dT = so3.increment_maps(th, w)
        assert_bitwise(E, oracle_exp_so3(th))
        assert_bitwise(T, oracle_tangent_map(th))
        assert_bitwise(dT, oracle_dtangent_map(th, w))
        assert_bitwise(so3.exp_so3(th), oracle_exp_so3(th))

    def test_single_vector(self):
        th, w = np.array([0.3, -0.2, 0.1]), np.array([1.0, 2.0, -0.5])
        for got, want in zip(so3.increment_maps(th, w),
                             (oracle_exp_so3(th), oracle_tangent_map(th),
                              oracle_dtangent_map(th, w))):
            assert_bitwise(got, want)


class TestUniformBranches:
    # a batch whose points all lie on one side of a series threshold
    # evaluates that side alone; every point keeps the bits it has in a
    # batch that takes both sides (np.where), and those of the oracles
    ANGLES = np.array(TestIncrementMaps.ANGLES)
    SIDES = {"series": ANGLES < so3.SERIES_ANGLE,
             "between": (ANGLES >= so3.SERIES_ANGLE)
             & (ANGLES < so3._DSERIES_ANGLE),
             "closed": ANGLES >= so3._DSERIES_ANGLE,
             "mixed": np.ones(len(ANGLES), dtype=bool)}

    @staticmethod
    def rotvecs(angles):
        # along a coordinate axis the angle is exactly the one listed
        return np.concatenate([np.eye(3)[k] * angles[:, None]
                               for k in range(3)])

    @pytest.mark.parametrize("side", ["series", "between", "closed", "mixed"])
    def test_increment_maps(self, side):
        th_all = self.rotvecs(self.ANGLES)
        w_all = np.random.default_rng(18).normal(size=th_all.shape)
        mask = np.tile(self.SIDES[side], 3)
        got = so3.increment_maps(th_all[mask], w_all[mask])
        full = so3.increment_maps(th_all, w_all)
        want = (oracle_exp_so3(th_all[mask]),
                oracle_tangent_map(th_all[mask]),
                oracle_dtangent_map(th_all[mask], w_all[mask]))
        for g, f, o in zip(got, full, want):
            assert_bitwise(g, f[mask])
            assert_bitwise(g, o)

    @pytest.mark.parametrize("side", ["series", "between", "closed", "mixed"])
    @pytest.mark.parametrize("f, oracle", [
        (so3.tangent_map_inverse, oracle_tangent_map_inverse),
        (so3.quat_from_rotvec, oracle_quat_from_rotvec)],
        ids=["tangent_map_inverse", "quat_from_rotvec"])
    def test_rotvec_maps(self, f, oracle, side):
        th_all = self.rotvecs(self.ANGLES)
        mask = np.tile(self.SIDES[side], 3)
        assert_bitwise(f(th_all[mask]), f(th_all)[mask])
        assert_bitwise(f(th_all[mask]), oracle(th_all[mask]))

    @pytest.mark.parametrize("side", ["series", "closed", "mixed"])
    def test_rotvec_from_quat_continuous(self, side):
        # its series threshold is on the norm of the vector part
        s = np.array([0.0, 5e-9, np.nextafter(1e-8, 0.0), 1e-8,
                      np.nextafter(1e-8, 1.0), 1e-3, 0.5, 0.999])
        sides = {"series": s < 1e-8, "closed": s >= 1e-8,
                 "mixed": np.ones(len(s), dtype=bool)}
        v = np.concatenate([np.eye(3)[k] * s[:, None] for k in range(3)])
        # the scalar part of either sign, as Newton's accumulation makes it
        w = np.sqrt(1.0 - s * s) * np.where(np.arange(len(s)) % 2, -1.0, 1.0)
        q_all = np.concatenate([np.tile(w, 3)[:, None], v], axis=-1)
        mask = np.tile(sides[side], 3)
        got = so3.rotvec_from_quat_continuous(q_all[mask])
        full = so3.rotvec_from_quat_continuous(q_all)
        want = oracle_rotvec_from_quat_continuous(q_all[mask])
        for g, f, o in zip(got, full, want):
            assert_bitwise(g, f[mask])
            assert_bitwise(g, o)


class TestQuaternions:
    def test_trace_branch_batch_bitwise(self):
        # below pi/2 every matrix takes the trace branch, read through
        # plain slices; the masked gathers give the same bits, alone and
        # within a batch that also takes another branch
        rng = np.random.default_rng(16)
        R = so3.exp_so3(random_rotvecs(rng, 40, max_angle=0.5 * np.pi))
        q = so3.quat_from_matrix(R)
        assert_bitwise(q, oracle_quat_from_matrix(R))
        mixed = np.concatenate([R, so3.exp_so3([[3.0, 0.0, 0.0]])])
        qm = so3.quat_from_matrix(mixed)
        assert_bitwise(qm[:-1], q)
        assert_bitwise(qm, oracle_quat_from_matrix(mixed))

    def test_mixed_branch_batch_bitwise(self):
        rng = np.random.default_rng(17)
        R = so3.exp_so3(random_rotvecs(rng, 200, max_angle=np.pi - 0.01))
        cand = np.stack([np.trace(R, axis1=-2, axis2=-1), R[:, 0, 0],
                         R[:, 1, 1], R[:, 2, 2]], axis=-1)
        assert set(np.argmax(cand, axis=-1)) == {0, 1, 2, 3}
        assert_bitwise(so3.quat_from_matrix(R), oracle_quat_from_matrix(R))
        assert_bitwise(so3.quat_from_matrix(R.reshape(10, 20, 3, 3)),
                       oracle_quat_from_matrix(R).reshape(10, 20, 4))

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(12)
        th = random_rotvecs(rng, 200, max_angle=np.pi - 0.01)
        R = so3.exp_so3(th)
        np.testing.assert_allclose(so3.quat_to_matrix(so3.quat_from_matrix(R)),
                                   R, atol=1e-13)

    def test_rotvec_round_trip(self):
        rng = np.random.default_rng(13)
        th = random_rotvecs(rng, 200, max_angle=np.pi - 0.01)
        np.testing.assert_allclose(
            so3.rotvec_from_quat(so3.quat_from_rotvec(th)), th, atol=1e-12)

    def test_multiply_matches_matrix_product(self):
        rng = np.random.default_rng(14)
        t1 = random_rotvecs(rng, 50, max_angle=1.5)
        t2 = random_rotvecs(rng, 50, max_angle=1.5)
        q = so3.quat_multiply(so3.quat_from_rotvec(t1), so3.quat_from_rotvec(t2))
        np.testing.assert_allclose(so3.quat_to_matrix(q),
                                   so3.exp_so3(t1) @ so3.exp_so3(t2), atol=1e-13)
