import numpy as np
import pytest

from gebvisc import so3
from gebvisc.assembly import Simulation, time_march
from gebvisc.beam_residual import (CollocationState, kin,
                                   neumann_force_row, neumann_moment_row,
                                   residual_force, residual_moment,
                                   section_state, tangent_blocks_force,
                                   tangent_blocks_moment,
                                   end_force_spatial, end_moment_spatial)
from gebvisc.integrator import (apply_increment, begin_step, commit_step,
                                initialize_accelerations)
from gebvisc.model import (BeamModel, EndLoad, Joint, LoadHistory, Support,
                           build_patches)
from gebvisc.scenarios import pla_law
from gebvisc.splines import line_curve
from gebvisc.viscoelastic import (PointLaws, SectionGeometry,
                                  build_section_law, internal_forces,
                                  trapezoidal_coeffs)

from helpers import (apply_blocks, apply_end_blocks, assert_bitwise, end_row,
                     force_residual, moment_residual, one_end, point_laws,
                     random_state, relative_error, straight_frames,
                     superpose_rotation, unit_law, unloaded_section)

H = 0.02


def bars(pl, h=H):
    C = pl.at_step(h)[0]
    return C[0, 0], C[2, 0]


class TestResidualTrivial:
    def test_quiescent_state_zero_residual(self):
        pl = point_laws(unit_law(), 5)
        st = CollocationState(straight_frames(5), pl)
        z = np.zeros((5, 3))
        assert np.abs(force_residual(st, pl, z, H)).max() == 0.0
        assert np.abs(moment_residual(st, pl, z, H)).max() == 0.0

    def test_uniform_axial_strain_no_forces(self):
        pl = point_laws(unit_law(), 5)
        st = CollocationState(straight_frames(5), pl)
        st.c_s = st.c_s * 1.01  # homogeneous stretch, all s-derivatives zero
        z = np.zeros((5, 3))
        assert np.abs(force_residual(st, pl, z, H)).max() < 1e-14

    def test_gravity_only(self):
        pl = point_laws(unit_law(), 4)
        st = CollocationState(straight_frames(4), pl)
        q = np.tile([0.0, 0.0, -9.81], (4, 1))
        expect = np.einsum("nji,nj->ni", st.R, q)
        np.testing.assert_allclose(force_residual(st, pl, q, H), expect,
                                   atol=1e-14)

    def test_pure_gyroscopic_term(self):
        law = unit_law()
        pl = point_laws(law, 3)
        st = CollocationState(straight_frames(3), pl)
        rng = np.random.default_rng(5)
        st.W = rng.normal(size=(3, 3))
        z = np.zeros((3, 3))
        expect = -np.cross(st.W, law.inertia * st.W)
        np.testing.assert_allclose(moment_residual(st, pl, z, H),
                                   expect, atol=1e-14)
        # spin about a principal axis produces no gyroscopic moment
        st.W = np.tile([0.0, 2.0, 0.0], (3, 1))
        assert np.abs(moment_residual(st, pl, z, H)).max() < 1e-14


class TestTwoPathOracle:
    def test_residuals_match_internal_force_path(self):
        # state whose branch strains satisfy the trapezoidal update exactly,
        # so the history-term grouping must agree with forming N, M first
        rng = np.random.default_rng(6)
        law = unit_law()
        n = 12
        pl = point_laws(law, n)
        st = random_state(pl, n, H, rng)
        c, _ = trapezoidal_coeffs(law.taus, H)
        strains = kin(st)[2]
        _, Gam_s, _, Kap_s = strains
        st.visc.branch[:] = c[:, None, None, None] * strains + st.visc.beta
        n_dist = rng.normal(size=(n, 3))
        m_dist = rng.normal(size=(n, 3))

        N, _, M, _ = internal_forces(pl, strains, st.visc)
        N_s = (law.CN_inf * Gam_s
               + (law.CNv[:, None, :]
                  * (Gam_s[None] - st.visc.branch[:, 1])).sum(0))
        M_s = (law.CM_inf * Kap_s
               + (law.CMv[:, None, :]
                  * (Kap_s[None] - st.visc.branch[:, 3])).sum(0))
        RT = np.swapaxes(st.R, -1, -2)
        y = np.einsum("nij,nj->ni", RT, st.c_s)
        F_oracle = (np.cross(st.K, N) + N_s
                    + np.einsum("nij,nj->ni", RT, n_dist - law.mu * st.a))
        V_oracle = (np.cross(st.K, M) + M_s + np.cross(y, N)
                    + np.einsum("nij,nj->ni", RT, m_dist)
                    - law.inertia * st.A
                    - np.cross(st.W, law.inertia * st.W))
        assert relative_error(force_residual(st, pl, n_dist, H),
                              F_oracle) < 1e-12
        assert relative_error(moment_residual(st, pl, m_dist, H),
                              V_oracle) < 1e-12


class TestTangentFiniteDifference:
    """FD-vs-analytic agreement along the solver's own update rule."""

    def fd_vs_blocks(self, law, n_states, seed, eps=1e-6):
        rng = np.random.default_rng(seed)
        n = n_states
        pl = point_laws(law, n)
        st = random_state(pl, n, H, rng)
        n_dist = rng.normal(size=(n, 3))
        m_dist = rng.normal(size=(n, 3))
        inc = [rng.normal(size=(n, 3)) for _ in range(6)]

        def perturbed(sgn):
            sp = st.copy()
            apply_increment(sp, *(sgn * eps * d for d in inc), H)
            return sp

        sp, sm = perturbed(1.0), perturbed(-1.0)
        fd_F = (force_residual(sp, pl, n_dist, H)
                - force_residual(sm, pl, n_dist, H)) / (2 * eps)
        fd_V = (moment_residual(sp, pl, m_dist, H)
                - moment_residual(sm, pl, m_dist, H)) / (2 * eps)
        sec = section_state(st, pl, H, n_dist, m_dist)
        bf = tangent_blocks_force(st, pl, sec, H)
        bm = tangent_blocks_moment(st, pl, sec, H)
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
        pl = point_laws(law, 10)
        rng = np.random.default_rng(9)
        st = random_state(pl, 10, H, rng)
        sec = unloaded_section(st, pl, H)
        pts = np.arange(10)
        sign = np.where(pts % 2, 1.0, -1.0)
        loads = rng.normal(size=(10, 3))
        force, moment = {(0, 1), (1, 0)}, {(0, 1), (1, 1)}
        for kernel, args, coupled in (
                (neumann_force_row, (loads, sign), force),
                (neumann_moment_row, (loads, sign), moment),
                (end_force_spatial, (sign,), force),
                (end_moment_spatial, (sign,), moment)):
            _, blk = end_row(kernel, st, sec, pts, *args)
            assert blk.shape == (10, 2, 3, 6)
            for d in range(2):
                for c in range(2):
                    part = np.abs(blk[:, d, :, 3 * c:3 * c + 3]).max()
                    assert (part > 0.0) == ((d, c) in coupled), \
                        (kernel.__name__, d, c)

    def test_zero_state_blocks(self):
        law = unit_law()
        pl = point_laws(law, 4)
        st = CollocationState(straight_frames(4), pl)
        CN, CM = bars(pl)
        sec = unloaded_section(st, pl, H)
        bf = tangent_blocks_force(st, pl, sec, H)
        bm = tangent_blocks_moment(st, pl, sec, H)
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
        pl = point_laws(law, 8)
        st = random_state(pl, 8, H, rng)
        bf = tangent_blocks_force(st, pl, unloaded_section(st, pl, H), H)
        st2 = st.copy()
        st2.visc.beta[:] = 0.0
        bf2 = tangent_blocks_force(st2, pl, unloaded_section(st2, pl, H), H)
        # identical except for the beta-driven skew terms in t / ts
        np.testing.assert_array_equal(bf[:, 0, 0], bf2[:, 0, 0])
        np.testing.assert_array_equal(bf[:, 0, 1], bf2[:, 0, 1])
        np.testing.assert_array_equal(bf[:, 0, 2], bf2[:, 0, 2])
        SbG = (law.CNv[:, None, :] * st.visc.beta[:, 0]).sum(0)
        np.testing.assert_allclose(bf[:, 1, 1] - bf2[:, 1, 1], so3.skew(SbG),
                                   atol=1e-12)


class TestBoundaryRows:
    def test_free_end_relaxed_zero(self):
        pl = point_laws(unit_law(), 5)
        st = CollocationState(straight_frames(5), pl)
        res, _ = one_end(neumann_force_row, st, pl, H, 4, np.zeros(3), +1.0)
        assert np.abs(res).max() == 0.0
        res, _ = one_end(neumann_moment_row, st, pl, H, 0, np.zeros(3), -1.0)
        assert np.abs(res).max() == 0.0

    def test_elastic_tip_force_algebra(self):
        law = unit_law(elements=())
        pl = point_laws(law, 5)
        st = CollocationState(straight_frames(5), pl)
        f = np.array([0.1, -0.2, 0.05])
        i = 4
        Gam = (st.R[i].T @ f) / law.CN0
        st.c_s[i] = st.R[i] @ (st.Gref[i] + Gam)
        res, _ = one_end(neumann_force_row, st, pl, H, i, f, +1.0)
        assert np.abs(res).max() < 1e-15

    def test_stacked_ends_match_one_end_calls(self):
        # the four ends of two patches of degrees 3 and 4 in one collocation
        # state, after three steps under an end force and couple
        law = build_section_law(5e5, 0.3, [(4.5e6, 0.1), (1e6, 0.02)],
                                SectionGeometry.circle(0.01), 1100.0)
        model = BeamModel(
            build_patches([line_curve([0, 0, 0], [0, 0.5, 0], 3, 8),
                           line_curve([0, 0.5, 0], [0.3, 0.9, 0.1], 4, 9)],
                          law),
            supports=[Support(0, "start", "clamp")],
            joints=[Joint([(0, "end"), (1, "start")])],
            end_loads=[EndLoad(1, "end",
                               force=LoadHistory.constant([0, 0, -0.5]),
                               moment=LoadHistory.constant([0.01, 0, 0]))])
        sim = Simulation(model)
        h = 1e-3
        time_march(sim, 3 * h, h)
        st, pl, pts = sim.runtime.state, sim.runtime.law, sim.runtimes
        pts = np.array([pts[1].stop - 1, pts[0].start, pts[1].start,
                        pts[0].stop - 1])
        sign = np.array([1.0, -1.0, -1.0, 1.0])
        loads = np.random.default_rng(14).normal(size=(2, 4, 3))
        sec = unloaded_section(st, pl, h)
        for kernel, args in ((neumann_force_row, (loads[0], sign)),
                             (neumann_moment_row, (loads[1], sign)),
                             (end_force_spatial, (sign,)),
                             (end_moment_spatial, (sign,))):
            out = end_row(kernel, st, sec, pts, *args)
            for e, i in enumerate(pts):
                one = one_end(kernel, st, pl, h, i, *(x[e] for x in args))
                pairs = [(x[e], y) for x, y in zip(out, one)]
                for x, y in pairs:
                    np.testing.assert_array_equal(x, y)
                assert np.abs(pairs[0][0]).max() > 0.0

    def test_fd_consistency_of_rows(self):
        rng = np.random.default_rng(11)
        pl = point_laws(unit_law(), 3)
        eps = 1e-6
        worst_f = worst_m = 0.0
        for trial in range(100):
            st = random_state(pl, 3, H, rng)
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
            rf = one_end(neumann_force_row, st, pl, H, i, n_c, sign)
            rm = one_end(neumann_moment_row, st, pl, H, i, m_c, sign)
            fd_f = -(one_end(neumann_force_row, sp, pl, H, i, n_c, sign)[0]
                     - one_end(neumann_force_row, sm, pl, H, i, n_c, sign)[0]) / (2 * eps)
            fd_m = -(one_end(neumann_moment_row, sp, pl, H, i, m_c, sign)[0]
                     - one_end(neumann_moment_row, sm, pl, H, i, m_c, sign)[0]) / (2 * eps)
            an_f = apply_end_blocks(rf[1], inc, i)
            an_m = apply_end_blocks(rm[1], inc, i)
            worst_f = max(worst_f, relative_error(fd_f[None], an_f[None]))
            worst_m = max(worst_m, relative_error(fd_m[None], an_m[None]))
        assert worst_f < 5e-6
        assert worst_m < 5e-6

    def test_spatial_end_force_fd(self):
        rng = np.random.default_rng(12)
        pl = point_laws(unit_law(), 3)
        eps = 1e-6
        for _ in range(20):
            st = random_state(pl, 3, H, rng)
            inc = [rng.normal(size=(3, 3)) for _ in range(6)]

            def perturbed(sgn):
                sp = st.copy()
                apply_increment(sp, *(sgn * eps * d for d in inc), H)
                return sp

            sp, sm = perturbed(1.0), perturbed(-1.0)
            for i, sign in ((0, -1.0), (2, +1.0)):
                f0, blk = one_end(end_force_spatial, st, pl, H, i, sign)
                fd = (one_end(end_force_spatial, sp, pl, H, i, sign)[0]
                      - one_end(end_force_spatial, sm, pl, H, i, sign)[0]) / (2 * eps)
                an = apply_end_blocks(blk, inc, i)
                assert relative_error(fd[None], an[None]) < 5e-6
                m0, blk = one_end(end_moment_spatial, st, pl, H, i, sign)
                fd = (one_end(end_moment_spatial, sp, pl, H, i, sign)[0]
                      - one_end(end_moment_spatial, sm, pl, H, i, sign)[0]) / (2 * eps)
                an = apply_end_blocks(blk, inc, i)
                assert relative_error(fd[None], an[None]) < 5e-6


class TestFrameIndifference:
    def test_material_residuals_invariant(self):
        rng = np.random.default_rng(13)
        pl = point_laws(unit_law(), 10)
        st = random_state(pl, 10, H, rng)
        n_dist = rng.normal(size=(10, 3))
        m_dist = rng.normal(size=(10, 3))
        F = force_residual(st, pl, n_dist, H)
        V = moment_residual(st, pl, m_dist, H)
        Q = so3.exp_so3(rng.normal(size=3))
        st_rot = superpose_rotation(st, Q)
        F_rot = force_residual(st_rot, pl, n_dist @ Q.T, H)
        V_rot = moment_residual(st_rot, pl, m_dist @ Q.T, H)
        assert np.abs(F - F_rot).max() < 1e-12 * max(1, np.abs(F).max())
        assert np.abs(V - V_rot).max() < 1e-12 * max(1, np.abs(V).max())
        # strain measures themselves are material
        Gam, _, Kap, _ = kin(st)[2]
        Gam_rot, _, Kap_rot, _ = kin(st_rot)[2]
        assert np.abs(Gam - Gam_rot).max() < 1e-13
        assert np.abs(Kap - Kap_rot).max() == 0.0


class TestMixedLaws:
    """One table of an elastic law (m = 0), a one-branch law and the
    eight-branch PLA law: every point gets the bits of its own law's points
    alone, since the zero moduli and coefficients that pad the shorter laws
    add exact zeros."""

    LAWS = (unit_law(elements=()), unit_law(elements=((2.0, 0.5),)),
            pla_law(0.005))
    INDEX = np.array([2, 0, 1, 1, 2, 0, 0, 2, 1, 2, 0, 1])

    @classmethod
    def states(cls, rng):
        """The mixed table and state, and per law its table and the state of
        its points alone, with the same values."""
        n = len(cls.INDEX)
        mixed = PointLaws(cls.LAWS, cls.INDEX)
        st = random_state(mixed, n, H, rng)
        alone = []
        for l, law in enumerate(cls.LAWS):
            sel, m = cls.INDEX == l, law.n_elements
            # the padded branches of a shorter law stay zero in a march
            for stack in (st.visc.branch, st.visc.beta):
                stack[m:, :, sel] = 0.0
            pl = point_laws(law, np.count_nonzero(sel))
            one = CollocationState(straight_frames(len(pl.index)), pl)
            for name in CollocationState.ARRAYS + (
                    "R", "qTheta", "R0", "K0", "K0_s", "Gref", "Gref_s"):
                setattr(one, name, getattr(st, name)[sel].copy())
            one.visc.branch[...] = st.visc.branch[:m, :, sel]
            one.visc.beta[...] = st.visc.beta[:m, :, sel]
            alone.append((sel, m, pl, one))
        return mixed, st, alone

    def test_table_matches_each_law_alone(self):
        mixed, st, alone = self.states(np.random.default_rng(15))
        Cbar, c, d = mixed.at_step(H)
        strains = kin(st)[2]
        for sel, m, pl, one in alone:
            C1, c1, d1 = pl.at_step(H)
            assert_bitwise(Cbar[:, sel], C1)
            for x, x1 in ((c, c1), (d, d1)):
                assert_bitwise(x[:m, :, sel], x1)
                assert not x[m:, :, sel].any()
            assert_bitwise(st.visc.history(mixed)[:, sel],
                           one.visc.history(pl))
            assert_bitwise(internal_forces(mixed, strains, st.visc)[:, sel],
                           internal_forces(pl, kin(one)[2], one.visc))
            assert_bitwise(mixed.CNM[:m, :, sel], pl.CNM[:-1])
            assert not mixed.CNM[m:-1, :, sel].any()
            assert_bitwise(mixed.CNM[-1][:, sel], pl.CNM[-1])
            assert_bitwise(mixed.mu[sel], pl.mu)
            assert_bitwise(mixed.inertia[sel], pl.inertia)

    def test_kernels_match_each_law_alone(self):
        rng = np.random.default_rng(16)
        mixed, st, alone = self.states(rng)
        n = len(self.INDEX)
        loads = rng.normal(size=(4, n, 3))
        sign = np.where(np.arange(n) % 2, 1.0, -1.0)
        sec = section_state(st, mixed, H, loads[0], loads[1])
        out = [residual_force(st, sec), residual_moment(st, mixed, sec),
               tangent_blocks_force(st, mixed, sec, H),
               tangent_blocks_moment(st, mixed, sec, H)]
        ends = np.arange(n)
        for kernel, args in ((neumann_force_row, (loads[2], sign)),
                             (neumann_moment_row, (loads[3], sign)),
                             (end_force_spatial, (sign,)),
                             (end_moment_spatial, (sign,))):
            out += end_row(kernel, st, sec, ends, *args)
        for sel, _, pl, one in alone:
            k = np.count_nonzero(sel)
            sec1 = section_state(one, pl, H, loads[0][sel], loads[1][sel])
            ref = [residual_force(one, sec1), residual_moment(one, pl, sec1),
                   tangent_blocks_force(one, pl, sec1, H),
                   tangent_blocks_moment(one, pl, sec1, H)]
            for kernel, args in ((neumann_force_row, (loads[2], sign)),
                                 (neumann_moment_row, (loads[3], sign)),
                                 (end_force_spatial, (sign,)),
                                 (end_moment_spatial, (sign,))):
                ref += end_row(kernel, one, sec1, np.arange(k),
                               *(x[sel] for x in args))
            for x, x1 in zip(out, ref):
                assert_bitwise(x[sel], x1)

    def test_step_matches_each_law_alone(self):
        # the history update of a step begin and commit, and the consistent
        # accelerations of the continuous law
        rng = np.random.default_rng(17)
        mixed, st, alone = self.states(rng)
        loads = rng.normal(size=(2, len(self.INDEX), 3))
        initialize_accelerations(st, mixed, *loads)
        begin_step(st, mixed, H)
        commit_step(st, mixed, H)
        for sel, m, pl, one in alone:
            initialize_accelerations(one, pl, *loads[:, sel])
            begin_step(one, pl, H)
            commit_step(one, pl, H)
            for name in ("a", "A", "v", "W"):
                assert_bitwise(getattr(st, name)[sel], getattr(one, name))
            assert_bitwise(st.visc.beta[:m, :, sel], one.visc.beta)
            assert_bitwise(st.visc.branch[:m, :, sel], one.visc.branch)
            assert not st.visc.beta[m:, :, sel].any()
            assert not st.visc.branch[m:, :, sel].any()
