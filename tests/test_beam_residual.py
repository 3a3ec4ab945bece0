import numpy as np
import pytest

from gebvisc import so3
from gebvisc.assembly import Simulation, time_march
from gebvisc.beam_residual import (CollocationState, kin,
                                   neumann_force_row, neumann_moment_row,
                                   residual_force,
                                   residual_moment, tangent_blocks_force,
                                   tangent_blocks_moment,
                                   end_force_spatial, end_moment_spatial)
from gebvisc.integrator import apply_increment
from gebvisc.model import (BeamModel, EndLoad, Joint, LoadHistory, Patch,
                           Support)
from gebvisc.splines import line_curve
from gebvisc.viscoelastic import (SectionGeometry, build_section_law,
                                  effective_stiffness, internal_forces,
                                  trapezoidal_coeffs)

from helpers import (apply_blocks, apply_end_blocks, one_end, random_state,
                     relative_error, straight_frames, superpose_rotation,
                     unit_law)

H = 0.02


def bars(law, h=H):
    return effective_stiffness(law, h)


class TestResidualTrivial:
    def test_quiescent_state_zero_residual(self):
        law = unit_law()
        st = CollocationState(straight_frames(5), law)
        CN, CM = bars(law)
        z = np.zeros((5, 3))
        assert np.abs(residual_force(st, law, CN, z, H)).max() == 0.0
        assert np.abs(residual_moment(st, law, CN, CM, z, H)).max() == 0.0

    def test_uniform_axial_strain_no_forces(self):
        law = unit_law()
        st = CollocationState(straight_frames(5), law)
        st.c_s = st.c_s * 1.01  # homogeneous stretch, all s-derivatives zero
        CN, CM = bars(law)
        z = np.zeros((5, 3))
        assert np.abs(residual_force(st, law, CN, z, H)).max() < 1e-14

    def test_gravity_only(self):
        law = unit_law()
        st = CollocationState(straight_frames(4), law)
        q = np.tile([0.0, 0.0, -9.81], (4, 1))
        CN, _ = bars(law)
        expect = np.einsum("nji,nj->ni", st.R, q)
        np.testing.assert_allclose(residual_force(st, law, CN, q, H), expect,
                                   atol=1e-14)

    def test_pure_gyroscopic_term(self):
        law = unit_law()
        st = CollocationState(straight_frames(3), law)
        rng = np.random.default_rng(5)
        st.W = rng.normal(size=(3, 3))
        CN, CM = bars(law)
        z = np.zeros((3, 3))
        expect = -np.cross(st.W, law.inertia * st.W)
        np.testing.assert_allclose(residual_moment(st, law, CN, CM, z, H),
                                   expect, atol=1e-14)
        # spin about a principal axis produces no gyroscopic moment
        st.W = np.tile([0.0, 2.0, 0.0], (3, 1))
        assert np.abs(residual_moment(st, law, CN, CM, z, H)).max() < 1e-14


class TestTwoPathOracle:
    def test_residuals_match_internal_force_path(self):
        # state whose branch strains satisfy the trapezoidal update exactly,
        # so the history-term grouping must agree with forming N, M first
        rng = np.random.default_rng(6)
        law = unit_law()
        n = 12
        st = random_state(law, n, H, rng)
        c, _ = trapezoidal_coeffs(law.taus, H)
        _, _, Gam, Gam_s, Kap, Kap_s = kin(st)
        st.visc.Gam = c[:, None, None] * Gam[None] + st.visc.beta_G
        st.visc.Gam_s = c[:, None, None] * Gam_s[None] + st.visc.beta_G_s
        st.visc.Kap = c[:, None, None] * Kap[None] + st.visc.beta_K
        st.visc.Kap_s = c[:, None, None] * Kap_s[None] + st.visc.beta_K_s
        CN, CM = bars(law)
        n_dist = rng.normal(size=(n, 3))
        m_dist = rng.normal(size=(n, 3))

        N, M = internal_forces(law, Gam, Kap, st.visc)
        N_s = (law.CN_inf * Gam_s
               + (law.CNv[:, None, :] * (Gam_s[None] - st.visc.Gam_s)).sum(0))
        M_s = (law.CM_inf * Kap_s
               + (law.CMv[:, None, :] * (Kap_s[None] - st.visc.Kap_s)).sum(0))
        RT = np.swapaxes(st.R, -1, -2)
        y = np.einsum("nij,nj->ni", RT, st.c_s)
        F_oracle = (np.cross(st.K, N) + N_s
                    + np.einsum("nij,nj->ni", RT, n_dist - law.mu * st.a))
        V_oracle = (np.cross(st.K, M) + M_s + np.cross(y, N)
                    + np.einsum("nij,nj->ni", RT, m_dist)
                    - law.inertia * st.A
                    - np.cross(st.W, law.inertia * st.W))
        assert relative_error(residual_force(st, law, CN, n_dist, H),
                              F_oracle) < 1e-12
        assert relative_error(residual_moment(st, law, CN, CM, m_dist, H),
                              V_oracle) < 1e-12


class TestTangentFiniteDifference:
    """FD-vs-analytic agreement along the solver's own update rule."""

    def fd_vs_blocks(self, law, n_states, seed, eps=1e-6):
        rng = np.random.default_rng(seed)
        n = n_states
        st = random_state(law, n, H, rng)
        CN, CM = bars(law)
        n_dist = rng.normal(size=(n, 3))
        m_dist = rng.normal(size=(n, 3))
        inc = [rng.normal(size=(n, 3)) for _ in range(6)]

        def perturbed(sgn):
            sp = st.copy()
            apply_increment(sp, *(sgn * eps * d for d in inc), H)
            return sp

        sp, sm = perturbed(1.0), perturbed(-1.0)
        fd_F = (residual_force(sp, law, CN, n_dist, H)
                - residual_force(sm, law, CN, n_dist, H)) / (2 * eps)
        fd_V = (residual_moment(sp, law, CN, CM, m_dist, H)
                - residual_moment(sm, law, CN, CM, m_dist, H)) / (2 * eps)
        bf = tangent_blocks_force(st, law, CN, n_dist, H)
        bm = tangent_blocks_moment(st, law, CN, CM, m_dist, H)
        return (relative_error(fd_F, apply_blocks(bf, *inc)),
                relative_error(fd_V, apply_blocks(bm, *inc)), bf, bm)

    def test_force_and_moment_blocks(self):
        law = unit_law()
        err_F, err_V, _, _ = self.fd_vs_blocks(law, 100, seed=7)
        assert err_F < 5e-6
        assert err_V < 5e-6

    def test_elastic_material_blocks(self):
        law = unit_law(elements=())
        err_F, err_V, _, _ = self.fd_vs_blocks(law, 40, seed=8)
        assert err_F < 5e-6
        assert err_V < 5e-6

    def test_block_structure(self):
        law = unit_law()
        _, _, bf, bm = self.fd_vs_blocks(law, 10, seed=9)
        assert np.abs(bf[:, 1, 2]).max() == 0.0  # no dTheta,ss in the force rows
        assert np.abs(bm[:, 0, 2]).max() == 0.0  # no deta,ss in the moment rows
        assert np.abs(bm[:, 0, 0]).max() == 0.0
        # end rows (value/,s stencil, displacement/rotation columns): the
        # force rows couple to dTheta and deta,s, the moment rows to dTheta
        # and dTheta,s; every other block is exactly zero
        rng = np.random.default_rng(9)
        st = random_state(law, 10, H, rng)
        CN, CM = bars(law)
        pts = np.arange(10)
        sign = np.where(pts % 2, 1.0, -1.0)
        loads = rng.normal(size=(10, 3))
        force, moment = {(0, 1), (1, 0)}, {(0, 1), (1, 1)}
        for kernel, bar, args, coupled in (
                (neumann_force_row, CN, (loads, sign), force),
                (neumann_moment_row, CM, (loads, sign), moment),
                (end_force_spatial, CN, (sign,), force),
                (end_moment_spatial, CM, (sign,), moment)):
            _, blk = kernel(st, law, bar, pts, *args)
            assert blk.shape == (10, 2, 3, 6)
            for d in range(2):
                for c in range(2):
                    part = np.abs(blk[:, d, :, 3 * c:3 * c + 3]).max()
                    assert (part > 0.0) == ((d, c) in coupled), \
                        (kernel.__name__, d, c)

    def test_zero_state_blocks(self):
        law = unit_law()
        st = CollocationState(straight_frames(4), law)
        CN, CM = bars(law)
        z = np.zeros((4, 3))
        bf = tangent_blocks_force(st, law, CN, z, H)
        bm = tangent_blocks_moment(st, law, CN, CM, z, H)
        R0T = np.swapaxes(st.R0, -1, -2)
        np.testing.assert_allclose(bf[:, 0, 2], CN[None, :, None] * R0T, atol=1e-15)
        np.testing.assert_allclose(bf[:, 0, 0], -(4 / H ** 2) * law.mu * R0T,
                                   atol=1e-10)
        # inertia part plus the geometric coupling through the end tangent
        # y = R^T c,_s (nonzero even at the stress-free state)
        y = np.einsum("nij,nj->ni", R0T, st.c_s)
        geo = so3.skew(y) * CN[None, None, :] @ so3.skew(y)
        np.testing.assert_allclose(bm[:, 1, 0], geo - (4 / H ** 2)
                                   * np.broadcast_to(np.diag(law.inertia),
                                                     (4, 3, 3)), atol=1e-10)
        np.testing.assert_allclose(bm[:, 1, 2],
                                   np.broadcast_to(np.diag(CM), (4, 3, 3)),
                                   atol=1e-15)

    def test_history_enters_tangent_only_through_beta(self):
        # zeroing the betas must reproduce the elastic tangent blocks
        rng = np.random.default_rng(10)
        law = unit_law()
        st = random_state(law, 8, H, rng)
        CN, CM = bars(law)
        z = np.zeros((8, 3))
        bf = tangent_blocks_force(st, law, CN, z, H)
        st2 = st.copy()
        st2.visc.beta_G[:] = 0.0
        st2.visc.beta_K[:] = 0.0
        st2.visc.beta_G_s[:] = 0.0
        st2.visc.beta_K_s[:] = 0.0
        bf2 = tangent_blocks_force(st2, law, CN, z, H)
        # identical except for the beta-driven skew terms in t / ts
        np.testing.assert_array_equal(bf[:, 0, 0], bf2[:, 0, 0])
        np.testing.assert_array_equal(bf[:, 0, 1], bf2[:, 0, 1])
        np.testing.assert_array_equal(bf[:, 0, 2], bf2[:, 0, 2])
        SbG = (law.CNv[:, None, :] * st.visc.beta_G).sum(0)
        np.testing.assert_allclose(bf[:, 1, 1] - bf2[:, 1, 1], so3.skew(SbG),
                                   atol=1e-12)


class TestBoundaryRows:
    def test_free_end_relaxed_zero(self):
        law = unit_law()
        st = CollocationState(straight_frames(5), law)
        CN, CM = bars(law)
        res, _ = one_end(neumann_force_row, st, law, CN, 4, np.zeros(3), +1.0)
        assert np.abs(res).max() == 0.0
        res, _ = one_end(neumann_moment_row, st, law, CM, 0, np.zeros(3), -1.0)
        assert np.abs(res).max() == 0.0

    def test_elastic_tip_force_algebra(self):
        law = unit_law(elements=())
        st = CollocationState(straight_frames(5), law)
        f = np.array([0.1, -0.2, 0.05])
        i = 4
        Gam = (st.R[i].T @ f) / law.CN0
        st.c_s[i] = st.R[i] @ (st.Gref[i] + Gam)
        CN, _ = bars(law)
        res, _ = one_end(neumann_force_row, st, law, CN, i, f, +1.0)
        assert np.abs(res).max() < 1e-15

    def test_stacked_ends_match_one_end_calls(self):
        # the four ends of two patches of degrees 3 and 4 in one law stack,
        # after three steps under an end force and couple
        law = build_section_law(5e5, 0.3, [(4.5e6, 0.1), (1e6, 0.02)],
                                SectionGeometry.circle(0.01), 1100.0)
        model = BeamModel(
            [Patch(line_curve([0, 0, 0], [0, 0.5, 0], 3, 8), law),
             Patch(line_curve([0, 0.5, 0], [0.3, 0.9, 0.1], 4, 9), law)],
            supports=[Support(0, "start", "clamp")],
            joints=[Joint([(0, "end"), (1, "start")])],
            end_loads=[EndLoad(1, "end",
                               force=LoadHistory.constant([0, 0, -0.5]),
                               moment=LoadHistory.constant([0.01, 0, 0]))])
        sim = Simulation(model)
        h = 1e-3
        time_march(sim, 3 * h, h)
        (rt,) = sim.stacks
        st = rt.state
        pts = np.array([rt.pts[1].stop - 1, rt.pts[0].start,
                        rt.pts[1].start, rt.pts[0].stop - 1])
        sign = np.array([1.0, -1.0, -1.0, 1.0])
        loads = np.random.default_rng(14).normal(size=(2, 4, 3))
        CN, CM = effective_stiffness(law, h)
        for kernel, bar, args in ((neumann_force_row, CN, (loads[0], sign)),
                                  (neumann_moment_row, CM, (loads[1], sign)),
                                  (end_force_spatial, CN, (sign,)),
                                  (end_moment_spatial, CM, (sign,))):
            out = kernel(st, law, bar, pts, *args)
            for e, i in enumerate(pts):
                one = one_end(kernel, st, law, bar, i, *(x[e] for x in args))
                pairs = [(x[e], y) for x, y in zip(out, one)]
                for x, y in pairs:
                    np.testing.assert_array_equal(x, y)
                assert np.abs(pairs[0][0]).max() > 0.0

    def test_fd_consistency_of_rows(self):
        rng = np.random.default_rng(11)
        law = unit_law()
        eps = 1e-6
        worst_f = worst_m = 0.0
        for trial in range(100):
            st = random_state(law, 3, H, rng)
            CN, CM = bars(law)
            n_c = rng.normal(size=3)
            m_c = rng.normal(size=3)
            sign = 1.0 if trial % 2 == 0 else -1.0
            i = 0 if sign < 0 else 2
            inc = [rng.normal(size=(3, 3)) for _ in range(6)]

            def perturbed(sgn):
                sp = st.copy()
                apply_increment(sp, *(sgn * eps * d for d in inc), H)
                return sp

            sp, sm = perturbed(1.0), perturbed(-1.0)
            rf = one_end(neumann_force_row, st, law, CN, i, n_c, sign)
            rm = one_end(neumann_moment_row, st, law, CM, i, m_c, sign)
            fd_f = -(one_end(neumann_force_row, sp, law, CN, i, n_c, sign)[0]
                     - one_end(neumann_force_row, sm, law, CN, i, n_c, sign)[0]) / (2 * eps)
            fd_m = -(one_end(neumann_moment_row, sp, law, CM, i, m_c, sign)[0]
                     - one_end(neumann_moment_row, sm, law, CM, i, m_c, sign)[0]) / (2 * eps)
            an_f = apply_end_blocks(rf[1], inc, i)
            an_m = apply_end_blocks(rm[1], inc, i)
            worst_f = max(worst_f, relative_error(fd_f[None], an_f[None]))
            worst_m = max(worst_m, relative_error(fd_m[None], an_m[None]))
        assert worst_f < 5e-6
        assert worst_m < 5e-6

    def test_spatial_end_force_fd(self):
        rng = np.random.default_rng(12)
        law = unit_law()
        eps = 1e-6
        for _ in range(20):
            st = random_state(law, 3, H, rng)
            CN, CM = bars(law)
            inc = [rng.normal(size=(3, 3)) for _ in range(6)]

            def perturbed(sgn):
                sp = st.copy()
                apply_increment(sp, *(sgn * eps * d for d in inc), H)
                return sp

            sp, sm = perturbed(1.0), perturbed(-1.0)
            for i, sign in ((0, -1.0), (2, +1.0)):
                f0, blk = one_end(end_force_spatial, st, law, CN, i, sign)
                fd = (one_end(end_force_spatial, sp, law, CN, i, sign)[0]
                      - one_end(end_force_spatial, sm, law, CN, i, sign)[0]) / (2 * eps)
                an = apply_end_blocks(blk, inc, i)
                assert relative_error(fd[None], an[None]) < 5e-6
                m0, blk = one_end(end_moment_spatial, st, law, CM, i, sign)
                fd = (one_end(end_moment_spatial, sp, law, CM, i, sign)[0]
                      - one_end(end_moment_spatial, sm, law, CM, i, sign)[0]) / (2 * eps)
                an = apply_end_blocks(blk, inc, i)
                assert relative_error(fd[None], an[None]) < 5e-6


class TestFrameIndifference:
    def test_material_residuals_invariant(self):
        rng = np.random.default_rng(13)
        law = unit_law()
        st = random_state(law, 10, H, rng)
        CN, CM = bars(law)
        n_dist = rng.normal(size=(10, 3))
        m_dist = rng.normal(size=(10, 3))
        F = residual_force(st, law, CN, n_dist, H)
        V = residual_moment(st, law, CN, CM, m_dist, H)
        Q = so3.exp_so3(rng.normal(size=3))
        st_rot = superpose_rotation(st, Q)
        F_rot = residual_force(st_rot, law, CN, n_dist @ Q.T, H)
        V_rot = residual_moment(st_rot, law, CN, CM, m_dist @ Q.T, H)
        assert np.abs(F - F_rot).max() < 1e-12 * max(1, np.abs(F).max())
        assert np.abs(V - V_rot).max() < 1e-12 * max(1, np.abs(V).max())
        # strain measures themselves are material
        _, _, Gam, _, Kap, _ = kin(st)
        _, _, Gam_rot, _, Kap_rot, _ = kin(st_rot)
        assert np.abs(Gam - Gam_rot).max() < 1e-13
        assert np.abs(Kap - Kap_rot).max() == 0.0
