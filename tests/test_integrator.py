import numpy as np
import pytest

from gebvisc import so3
from gebvisc.beam_residual import CollocationState, kin
from gebvisc.integrator import (StepFailure, apply_increment, begin_step,
                                commit_step, initialize_accelerations)
from gebvisc.viscoelastic import internal_forces, trapezoidal_coeffs

from helpers import (axial, force_residual, moment_residual,
                     oracle_tangent_map, point_laws, random_state,
                     straight_frames, unit_law)

H = 0.01


class TestBeginStep:
    def test_statics_limit_keeps_state(self):
        pl = point_laws(unit_law(), 4)
        st = CollocationState(straight_frames(4), pl)
        c0, R0 = st.c.copy(), st.R.copy()
        begin_step(st, pl, H)
        np.testing.assert_array_equal(st.c, c0)
        np.testing.assert_array_equal(st.R, R0)
        assert np.abs(st.a).max() == 0.0
        assert np.abs(st.A).max() == 0.0

    def test_rejects_nonpositive_step(self):
        pl = point_laws(unit_law(), 3)
        st = CollocationState(straight_frames(3), pl)
        with pytest.raises(ValueError):
            begin_step(st, pl, 0.0)

    def test_constant_velocity_translation(self):
        pl = point_laws(unit_law(), 4)
        st = CollocationState(straight_frames(4), pl)
        v0 = np.tile([0.1, -0.2, 0.3], (4, 1))
        st.v = v0.copy()
        begin_step(st, pl, H)
        z = np.zeros((4, 3))
        apply_increment(st, H * v0, z, z, z, z, z, H)
        np.testing.assert_allclose(st.a, 0.0, atol=1e-12)
        np.testing.assert_allclose(st.v, v0, atol=1e-13)

    def test_constant_spin_about_principal_axis(self):
        pl = point_laws(unit_law(), 4)
        st = CollocationState(straight_frames(4), pl)
        W0 = np.tile([2.5, 0.0, 0.0], (4, 1))
        st.W = W0.copy()
        begin_step(st, pl, H)
        z = np.zeros((4, 3))
        apply_increment(st, z, z, z, H * W0, z, z, H)
        np.testing.assert_allclose(st.A, 0.0, atol=1e-10)
        np.testing.assert_allclose(st.W, W0, atol=1e-11)
        # and the spun state satisfies both balances with no loads
        assert np.abs(force_residual(st, pl, z, H)).max() < 1e-10
        assert np.abs(moment_residual(st, pl, z, H)).max() < 1e-10

    def test_predictor_extrapolation(self):
        rng = np.random.default_rng(40)
        pl = point_laws(unit_law(), 3)
        st = CollocationState(straight_frames(3), pl)
        st.v = rng.normal(size=(3, 3))
        st.a = rng.normal(size=(3, 3))
        a_expected = -(4.0 / H) * st.v - st.a
        begin_step(st, pl, H)
        np.testing.assert_allclose(st.a, a_expected, atol=1e-12)


class TestApplyIncrement:
    def test_zero_increment_is_identity(self):
        rng = np.random.default_rng(41)
        pl = point_laws(unit_law(), 6)
        st = random_state(pl, 6, H, rng)
        before = st.copy()
        z = np.zeros((6, 3))
        apply_increment(st, z, z, z, z, z, z, H)
        for name in ("c", "c_s", "c_ss", "K", "K_s", "eta", "Theta",
                     "a", "v", "A", "W"):
            np.testing.assert_array_equal(getattr(st, name),
                                          getattr(before, name))
        np.testing.assert_array_equal(st.R, before.R)

    def test_pure_translation_leaves_rotation_channels(self):
        rng = np.random.default_rng(42)
        pl = point_laws(unit_law(), 6)
        st = random_state(pl, 6, H, rng)
        before = st.copy()
        de = rng.normal(size=(6, 3))
        de_s = rng.normal(size=(6, 3))
        z = np.zeros((6, 3))
        apply_increment(st, de, de_s, z, z, z, z, H)
        np.testing.assert_array_equal(st.R, before.R)
        np.testing.assert_array_equal(st.K, before.K)
        np.testing.assert_array_equal(kin(st)[2][2], kin(before)[2][2])
        # translational strain changes only through R^T de,_s
        dG = kin(st)[2][0] - kin(before)[2][0]
        expect = np.einsum("nji,nj->ni", before.R, de_s)
        np.testing.assert_allclose(dG, expect, atol=1e-14)

    def test_rotation_composition_failure(self):
        pl = point_laws(unit_law(), 3)
        st = CollocationState(straight_frames(3), pl)
        begin_step(st, pl, H)
        z = np.zeros((3, 3))
        big = np.tile([2.0, 0.0, 0.0], (3, 1))
        apply_increment(st, z, z, z, big, z, z, H)
        with pytest.raises(StepFailure):
            apply_increment(st, z, z, z, big, z, z, H)

    def test_curvature_update_against_dense_fd(self):
        # analytic base rotation field and analytic increment field; the dense
        # finite-difference of the updated rotation field is the oracle
        def phi(s):
            return np.array([0.3 * np.sin(s), 0.2 * s, 0.1 * np.cos(2 * s)])

        def dphi(s):
            return np.array([0.3 * np.cos(s), 0.2, -0.2 * np.sin(2 * s)])

        def dth(s):
            return np.array([0.05 * np.cos(3 * s), 0.12 * np.sin(s),
                             -0.08 * s ** 2])

        def ddth(s):
            return np.array([-0.15 * np.sin(3 * s), 0.12 * np.cos(s),
                             -0.16 * s])

        def dddth(s):
            return np.array([-0.45 * np.cos(3 * s), -0.12 * np.sin(s),
                             np.full((), -0.16) * 1.0])

        law = unit_law()
        s_pts = np.linspace(0.2, 1.8, 7)
        pl = point_laws(law, len(s_pts))
        st = CollocationState(straight_frames(len(s_pts)), pl)
        st.R = so3.exp_so3(np.array([phi(s) for s in s_pts]))
        K = np.array([oracle_tangent_map(phi(s)) @ dphi(s) for s in s_pts])
        st.K = K
        ds_fd = 1e-5
        Kf = lambda s: oracle_tangent_map(phi(s)) @ dphi(s)
        st.K_s = np.array([(Kf(s + ds_fd) - Kf(s - ds_fd)) / (2 * ds_fd)
                           for s in s_pts])
        begin_step(st, pl, H)
        de = np.zeros((len(s_pts), 3))
        apply_increment(st, de, de, de,
                        np.array([dth(s) for s in s_pts]),
                        np.array([ddth(s) for s in s_pts]),
                        np.array([dddth(s) for s in s_pts]), H)

        def R_new(s):
            return so3.exp_so3(phi(s)) @ so3.exp_so3(dth(s))

        for i, s in enumerate(s_pts):
            dR = (R_new(s + ds_fd) - R_new(s - ds_fd)) / (2 * ds_fd)
            K_oracle = axial(R_new(s).T @ dR, tol=1e-6)
            assert np.abs(st.K[i] - K_oracle).max() < 1e-8
            Kn = lambda t: axial(
                R_new(t).T @ (R_new(t + ds_fd) - R_new(t - ds_fd)) / (2 * ds_fd),
                tol=1e-5)
            Ks_oracle = (Kn(s + ds_fd) - Kn(s - ds_fd)) / (2 * ds_fd)
            assert np.abs(st.K_s[i] - Ks_oracle).max() < 1e-5


class TestCommit:
    def test_elastic_commit_is_archive(self):
        rng = np.random.default_rng(43)
        law = unit_law(elements=())
        pl = point_laws(law, 5)
        st = random_state(pl, 5, H, rng)
        # make R exactly orthonormal so the tidy-up is a no-op up to rounding
        st.R = so3.quat_to_matrix(so3.quat_from_matrix(st.R))
        before = st.copy()
        commit_step(st, pl, H)
        assert np.abs(st.R - before.R).max() < 1e-14
        np.testing.assert_array_equal(st.c, before.c)

    def test_held_strain_geometric_approach(self):
        law = unit_law(elements=((2.0, 0.5),))
        pl = point_laws(law, 2)
        tau = 0.5
        st = CollocationState(straight_frames(2), pl)
        st.c_s *= 1.01  # held stretch
        gam = kin(st)[2][0]
        c, d = trapezoidal_coeffs(law.taus, H)
        ratios = []
        prev = None
        for _ in range(6):
            begin_step(st, pl, H)
            commit_step(st, pl, H)
            dev = np.abs(st.visc.branch[0, 0] - gam).max()
            if prev is not None:
                ratios.append(dev / prev)
            prev = dev
        np.testing.assert_allclose(ratios, d[0], rtol=1e-10)

    def test_relaxation_with_frozen_kinematics(self):
        law = unit_law(elements=((2.0, 0.5),))
        pl = point_laws(law, 2)
        st = CollocationState(straight_frames(2), pl)
        st.c_s *= 1.02
        N_hist = []
        for _ in range(50):
            begin_step(st, pl, H)
            commit_step(st, pl, H)
            N_hist.append(internal_forces(pl, kin(st)[2], st.visc)[0, 0, 0])
        assert np.all(np.diff(N_hist) < 0.0)
        # approaches the long-term value from above
        assert N_hist[-1] > law.CN_inf[0] * kin(st)[2][0, 0, 0]


class TestInitialAccelerations:
    def test_gravity_start(self):
        law = unit_law()
        pl = point_laws(law, 5)
        st = CollocationState(straight_frames(5), pl)
        q = np.tile([0.0, 0.0, -9.81 * law.mu], (5, 1))
        initialize_accelerations(st, pl, q, np.zeros((5, 3)))
        np.testing.assert_allclose(st.a, q / law.mu, atol=1e-12)
        np.testing.assert_allclose(st.A, 0.0, atol=1e-12)

    def test_consistent_with_residual(self):
        # accelerations chosen so that both pointwise balances vanish
        rng = np.random.default_rng(44)
        law = unit_law()
        pl = point_laws(law, 6)
        st = random_state(pl, 6, H, rng)
        # consistent branch strains for the continuous law
        st.visc.branch[:, 1] = 0.3 * kin(st)[2][1][None]
        st.visc.branch[:, 3] = 0.3 * kin(st)[2][3][None]
        n_dist = rng.normal(size=(6, 3))
        m_dist = rng.normal(size=(6, 3))
        initialize_accelerations(st, pl, n_dist, m_dist)
        N = internal_forces(pl, kin(st)[2], st.visc)[0]
        RT = np.swapaxes(st.R, -1, -2)
        N_s = (law.CN_inf * kin(st)[2][1]
               + (law.CNv[:, None, :]
                  * (kin(st)[2][1][None] - st.visc.branch[:, 1])).sum(0))
        f = np.cross(st.K, N) + N_s + np.einsum("nij,nj->ni", RT, n_dist)
        lhs = law.mu * np.einsum("nij,nj->ni", RT, st.a)
        np.testing.assert_allclose(lhs, f, atol=1e-10)
