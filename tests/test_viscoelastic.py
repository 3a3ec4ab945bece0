import numpy as np
import pytest

from gebvisc.viscoelastic import (MaxwellElement, SectionGeometry, ViscousState,
                                  build_section_law, compute_beta,
                                  internal_forces, trapezoidal_coeffs,
                                  update_viscous_state)
from helpers import assert_bitwise, linearize_viscous, point_laws

PLA_ELEMENTS = [
    (1.577e8, 0.02), (3.610e7, 0.18), (4.095e8, 17.0), (7.580e8, 117.0),
    (1.200e6, 1000.0), (5.800e6, 1600.0), (5.500e5, 1e4), (1.600e5, 1e5),
]
PLA_E_INF = 2.80e5


def pendulum_law():
    return build_section_law(5e5, 0.5, [(4.5e6, 0.1)],
                             SectionGeometry.circle(0.01), 1100.0)


def pla_law():
    return build_section_law(PLA_E_INF, 0.4, PLA_ELEMENTS,
                             SectionGeometry.circle(0.005), 1250.0)


def relax_steps(law, gamma, h, n_steps):
    """March a held strain with the scalar recursions; returns N(t) history."""
    st = ViscousState(law.n_elements, 1)
    pl = point_laws(law, st.n)
    S = np.zeros((4, 1, 3))
    S[0, 0, 0] = gamma
    Ns = []
    for _ in range(n_steps):
        compute_beta(pl, st, S, h)
        update_viscous_state(pl, st, S, h)
        Ns.append(internal_forces(pl, S, st)[0, 0, 0])
    return np.array(Ns)


class TestSectionLaw:
    def test_instantaneous_decomposition(self):
        law = pendulum_law()
        np.testing.assert_allclose(law.CN0, law.CN_inf + law.CNv.sum(axis=0),
                                   rtol=0, atol=0)
        np.testing.assert_allclose(law.CM0, law.CM_inf + law.CMv.sum(axis=0),
                                   rtol=0, atol=0)
        assert law.instantaneous_young() == pytest.approx(5e6)

    def test_cantilever_moduli(self):
        law = build_section_law(2.1e10, 0.2, [(1.89e11, 0.1)],
                                SectionGeometry.square(0.01), 7800.0)
        assert law.instantaneous_young() == pytest.approx(2.1e11)
        assert law.CN_inf[0] == pytest.approx(2.1e10 * 1e-4)

    def test_pla_table(self):
        law = pla_law()
        assert law.n_elements == 8
        assert law.taus[0] == 0.02
        A = np.pi * 0.005 ** 2 / 4
        assert law.CNv[0, 0] == pytest.approx(1.577e8 * A)
        assert law.instantaneous_young() == pytest.approx(
            PLA_E_INF + sum(E for E, _ in PLA_ELEMENTS))

    def test_compares_and_hashes_on_inputs(self):
        # the derived arrays take no part: equal inputs give equal laws with
        # equal hashes, and any changed input an unequal law
        law = pla_law()
        assert law == pla_law() and hash(law) == hash(pla_law())
        assert {law: 1}[pla_law()] == 1
        changed = [law.elastic_limit(), pendulum_law(),
                   build_section_law(PLA_E_INF, 0.3, PLA_ELEMENTS,
                                     SectionGeometry.circle(0.005), 1250.0),
                   build_section_law(PLA_E_INF, 0.4, PLA_ELEMENTS,
                                     SectionGeometry.circle(0.006), 1250.0),
                   build_section_law(PLA_E_INF, 0.4, PLA_ELEMENTS[1:],
                                     SectionGeometry.circle(0.005), 1250.0)]
        assert all(law != other for other in changed)

    def test_mass_and_inertia(self):
        law = pendulum_law()
        A = np.pi * 0.01 ** 2 / 4
        I = np.pi * 0.01 ** 4 / 64
        assert law.mu == pytest.approx(1100.0 * A)
        np.testing.assert_allclose(law.inertia, 1100.0 * np.array([2 * I, I, I]))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            build_section_law(-1.0, 0.3, [], SectionGeometry.circle(0.01), 1.0)
        with pytest.raises(ValueError):
            MaxwellElement(1e6, -0.1)
        with pytest.raises(ValueError):
            SectionGeometry(A=0.0, A2=1, A3=1, Jt=1, J2=1, J3=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, True])
    def test_finite_numbers_enforced(self, bad):
        geo = SectionGeometry.circle(0.01)
        for make in (lambda: build_section_law(bad, 0.3, [], geo, 1.0),
                     lambda: build_section_law(1e6, 0.3, [], geo, bad),
                     lambda: build_section_law(1e6, bad, [], geo, 1.0),
                     lambda: MaxwellElement(bad, 0.1),
                     lambda: MaxwellElement(1e6, bad),
                     lambda: SectionGeometry.circle(bad),
                     lambda: SectionGeometry(A=1, A2=1, A3=1, Jt=bad, J2=1,
                                             J3=1)):
            with pytest.raises(ValueError):
                make()

    @pytest.mark.parametrize("make", [SectionGeometry.circle,
                                      SectionGeometry.square],
                             ids=["circle", "square"])
    def test_negative_size_rejected(self, make):
        # its square and fourth power would give a valid section
        with pytest.raises(ValueError, match="section (diameter|side) must "
                           "be a finite number > 0"):
            make(-0.01)

    def test_elastic_limit(self):
        law = pla_law()
        el = law.elastic_limit()
        assert el.n_elements == 0
        np.testing.assert_allclose(el.CN0, law.CN0, rtol=1e-12)


def bars(law, h):
    """The rows (CN_bar, CM_bar) of the stacked effective diagonal."""
    C = point_laws(law, 1).at_step(h)[0]
    return C[0, 0], C[2, 0]


class TestEffectiveStiffness:
    def test_small_step_limit(self):
        law = pendulum_law()
        CN, CM = bars(law, 1e-12)
        np.testing.assert_allclose(CN, law.CN0, rtol=1e-10)
        np.testing.assert_allclose(CM, law.CM0, rtol=1e-10)

    def test_half_reduction_at_h_equal_two_tau(self):
        law = pendulum_law()
        CN, _ = bars(law, 2 * 0.1)
        np.testing.assert_allclose(CN, law.CN0 - 0.5 * law.CNv[0], rtol=1e-14)

    def test_reference_factor(self):
        c = linearize_viscous(5e-3, [0.1])
        assert c[0] == pytest.approx(0.005 / 0.205)
        assert c[0] == pytest.approx(0.0243902, abs=1e-7)

    def test_bracketing(self):
        law = pla_law()
        for h in (1e-4, 1e-2, 1.0, 100.0):
            CN, CM = bars(law, h)
            assert np.all(CN > law.CN_inf) and np.all(CN < law.CN0)
            assert np.all(CM > law.CM_inf) and np.all(CM < law.CM0)

    def test_linearize_limits(self):
        assert linearize_viscous(1e-15, [0.1])[0] == pytest.approx(0.0, abs=1e-13)
        assert linearize_viscous(1.0, [1e-12])[0] == pytest.approx(1.0, rel=1e-9)


class TestBeta:
    def test_zero_history(self):
        law = pendulum_law()
        st = ViscousState(1, 4)
        pl = point_laws(law, st.n)
        compute_beta(pl, st, np.zeros((4, 4, 3)), 1e-3)
        assert np.abs(st.beta[:, 0]).max() == 0.0
        assert np.abs(st.beta[:, 3]).max() == 0.0

    def test_relaxed_state_value(self):
        law = pendulum_law()
        tau, h, gamma = 0.1, 0.02, 0.3
        st = ViscousState(1, 1)
        pl = point_laws(law, st.n)
        S = np.zeros((4, 1, 3))
        S[0] = gamma
        st.branch[:, 0] = gamma
        compute_beta(pl, st, S, h)
        np.testing.assert_allclose(st.beta[0, 0, 0],
                                   gamma * 2 * tau / (2 * tau + h), rtol=1e-14)

    def test_coefficient_vanishes_at_h_two_tau(self):
        c, d = trapezoidal_coeffs(np.array([0.1]), 0.2)
        assert d[0] == 0.0
        assert c[0] == 0.5


class TestUpdate:
    def test_zero_stays_zero(self):
        law = pendulum_law()
        st = ViscousState(1, 3)
        pl = point_laws(law, st.n)
        Z = np.zeros((4, 3, 3))
        compute_beta(pl, st, Z, 1e-3)
        update_viscous_state(pl, st, Z, 1e-3)
        for stack in (st.branch, st.beta):
            assert np.abs(stack).max() == 0.0

    def test_relaxed_fixed_point_exact(self):
        law = pla_law()
        gamma = 0.123
        st = ViscousState(law.n_elements, 2)
        pl = point_laws(law, st.n)
        st.branch[:, 0] = gamma
        S = np.zeros((4, 2, 3))
        S[0] = gamma
        for _ in range(5):
            compute_beta(pl, st, S, 0.05)
            update_viscous_state(pl, st, S, 0.05)
        np.testing.assert_allclose(st.branch[:, 0], gamma, rtol=0, atol=1e-15)

    def test_step_strain_tracks_exponential(self):
        law = pendulum_law()
        tau, gamma = 0.1, 1.0
        h = tau / 100.0
        st = ViscousState(1, 1)
        pl = point_laws(law, st.n)
        S = np.zeros((4, 1, 3))
        S[0, 0, 0] = gamma
        t = 0.0
        max_err = 0.0
        for _ in range(500):
            compute_beta(pl, st, S, h)
            update_viscous_state(pl, st, S, h)
            t += h
            exact = gamma * (1.0 - np.exp(-t / tau))
            max_err = max(max_err, abs(st.branch[0, 0, 0, 0] - exact))
        assert max_err < 1e-4 * gamma


class TestInternalForces:
    def test_zero_state(self):
        law = pla_law()
        N, _, M, _ = internal_forces(point_laws(law, 2), np.zeros((4, 2, 3)),
                                     ViscousState(8, 2))
        assert np.abs(N).max() == 0.0 and np.abs(M).max() == 0.0

    def test_instantaneous_loading(self):
        law = pla_law()
        G = np.array([[1e-3, 2e-3, -1e-3]])
        K = np.array([[0.5, -0.2, 0.1]])
        Z = np.zeros((1, 3))
        N, _, M, _ = internal_forces(point_laws(law, 1),
                                     np.array((G, Z, K, Z)), ViscousState(8, 1))
        np.testing.assert_allclose(N, law.CN0 * G, rtol=1e-14)
        np.testing.assert_allclose(M, law.CM0 * K, rtol=1e-14)

    def test_elastic_limit_bitwise(self):
        # the law without branches takes the Maxwell path too, and it gives
        # the bits of the plain long-term spring; the branch sum starts from
        # +0.0, so a -0.0 strain gives a +0.0 resultant, as with branches
        law = pla_law().elastic_limit()
        rng = np.random.default_rng(5)
        G, K = rng.normal(size=(2, 7, 3))
        G[0], K[0] = 0.0, -0.0
        Z = np.zeros((7, 3))
        N, _, M, _ = internal_forces(point_laws(law, 7),
                                     np.array((G, Z, K, Z)), ViscousState(0, 7))
        assert_bitwise(N, 0.0 + law.CN_inf * G)
        assert_bitwise(M, 0.0 + law.CM_inf * K)
        for h in (1e-3, 0.5):
            CN, CM = bars(law, h)
            assert_bitwise(CN, law.CN0)
            assert_bitwise(CM, law.CM0)

    def test_relaxation_matches_prony_series(self):
        law = pla_law()
        h = law.taus.min() / 100.0
        T = min(5.0 * law.taus.max(), 10.0)
        n_steps = int(round(T / h))
        Ns = relax_steps(law, 1.0, h, n_steps)
        t = h * np.arange(1, n_steps + 1)
        exact = law.CN_inf[0] + (law.CNv[:, 0, None]
                                 * np.exp(-t[None] / law.taus[:, None])).sum(axis=0)
        rel = np.abs(Ns - exact) / np.abs(exact)
        assert rel.max() < 1e-4

    def test_relaxation_is_monotone(self):
        law = pendulum_law()
        Ns = relax_steps(law, 1.0, 1e-3, 2000)
        assert np.all(np.diff(Ns) < 0)
        assert Ns[-1] > law.CN_inf[0]


class TestConsistency:
    def test_temporal_order_two_on_smooth_input(self):
        # prescribed Gam(t) = sin(w t): branch response has a closed form
        tau, w, T = 0.25, 3.0, 2.0
        law = build_section_law(1e6, 0.3, [(9e6, tau)],
                                SectionGeometry.circle(0.01), 1000.0)
        def run(h):
            st = ViscousState(1, 1)
            pl = point_laws(law, st.n)
            n = int(round(T / h))
            g_old = np.zeros((4, 1, 3))
            for k in range(n):
                g_new = np.zeros((4, 1, 3))
                g_new[0, 0, 0] = np.sin(w * (k + 1) * h)
                compute_beta(pl, st, g_old, h)
                update_viscous_state(pl, st, g_new, h)
                g_old = g_new
            return st.branch[0, 0, 0, 0]
        exact = (np.sin(w * T) - w * tau * np.cos(w * T)
                 + w * tau * np.exp(-T / tau)) / (1 + (w * tau) ** 2)
        errs = [abs(run(h) - exact) for h in (0.01, 0.005, 0.0025)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(abs(o - 2.0) <= 0.2 for o in orders)

    def test_s_derivative_channel_consistent(self):
        # strain field Gam(s) prescribed analytically; the s-channel must equal
        # the s-derivative of the value channel at all times
        law = pendulum_law()
        s = np.linspace(0.0, 1.0, 41)
        ds = s[1] - s[0]
        st = ViscousState(1, len(s))
        pl = point_laws(law, st.n)
        h = 0.01
        for k in range(20):
            amp = np.sin(0.7 * (k + 1))
            S = np.zeros((4, len(s), 3))
            S[0, :, 0] = amp * np.sin(2 * np.pi * s)
            S[1, :, 0] = amp * 2 * np.pi * np.cos(2 * np.pi * s)
            compute_beta(pl, st, S, h)
            update_viscous_state(pl, st, S, h)
        fd = np.gradient(st.branch[0, 0, :, 0], ds)
        interior = slice(2, -2)
        assert np.abs(fd[interior] - st.branch[0, 1, interior, 0]).max() < 5e-3


class TestStackedLayout:
    """The stacked (m, 4, n, 3) history arrays and the stacked (4, n, 3)
    resultants against the per-channel recursions written out one channel
    at a time; the arithmetic is the same, so the results must agree bit
    for bit."""

    @staticmethod
    def reference_step(law, branch, beta, start, end, h):
        """The history terms and branch strains of one step, channel by
        channel, and the resultants N, N,s, M and M,s at its end, each as
        the long-term spring plus the sum of the branch elastic parts."""
        c, d = trapezoidal_coeffs(law.taus, h)
        c = c[:, None, None]
        d = d[:, None, None]
        beta_ref, branch_ref = np.empty_like(beta), np.empty_like(branch)
        for k in range(4):
            beta_ref[:, k] = c * start[k][None] + d * branch[:, k]
            branch_ref[:, k] = c * end[k][None] + beta_ref[:, k]
        moduli = [(law.CN_inf, law.CNv)] * 2 + [(law.CM_inf, law.CMv)] * 2
        forces = [C_inf * end[k] + (Cv[:, None, :]
                                    * (end[k][None] - branch_ref[:, k])).sum(0)
                  for k, (C_inf, Cv) in enumerate(moduli)]
        return beta_ref, branch_ref, forces

    @staticmethod
    def random_law(m, rng):
        return build_section_law(
            2.8e5, 0.4, [(10 ** rng.uniform(5, 9), 10 ** rng.uniform(-2, 3))
                         for _ in range(m)], SectionGeometry.circle(0.005),
            1250.0)

    @pytest.mark.parametrize("m,n", [(1, 1), (8, 1), (3, 7), (8, 40), (0, 5)])
    def test_matches_per_channel_reference(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        law = self.random_law(m, rng)
        st = ViscousState(m, n)
        pl = point_laws(law, st.n)
        for stack in (st.branch, st.beta):
            for k in range(4):
                stack[:, k] = rng.normal(size=(m, n, 3))
        branch, beta = st.branch.copy(), st.beta.copy()
        start = np.array([rng.normal(size=(n, 3)) for _ in range(4)])
        end = np.array([rng.normal(size=(n, 3)) for _ in range(4)])
        h = 2.5e-3
        beta_ref, branch_ref, forces = self.reference_step(
            law, branch, beta, start, end, h)
        compute_beta(pl, st, start, h)
        update_viscous_state(pl, st, end, h)
        NM = internal_forces(pl, end, st)
        assert np.array_equal(st.beta, beta_ref)
        assert np.array_equal(st.branch, branch_ref)
        assert np.array_equal(NM[0], forces[0])
        assert np.array_equal(NM[2], forces[2])
        # N,s and M,s as the s-derivative of the same sums
        assert_bitwise(NM[1], forces[1])
        assert_bitwise(NM[3], forces[3])
        SbG, SbG_s, SbK, SbK_s = st.history(pl)
        assert np.array_equal(SbG, (law.CNv[:, None, :] * beta_ref[:, 0]).sum(0))
        assert np.array_equal(SbG_s,
                              (law.CNv[:, None, :] * beta_ref[:, 1]).sum(0))
        assert np.array_equal(SbK, (law.CMv[:, None, :] * beta_ref[:, 2]).sum(0))
        assert np.array_equal(SbK_s,
                              (law.CMv[:, None, :] * beta_ref[:, 3]).sum(0))

    @staticmethod
    def two_channel_forces(law, strains, branch):
        """N and M formed the way they were while only the Gam and Kap
        channels carried moduli: the strains in every row of a zeroed
        (m + 1, 4, n, 3) scratch, the branch strains taken off the first m
        rows, times the moduli with zeros on the ,s channels, summed over
        the rows."""
        m, _, n, _ = branch.shape
        CNM = np.zeros((m + 1, 4, 1, 3))
        CNM[:, 0, 0] = np.vstack((law.CNv, law.CN_inf))
        CNM[:, 2, 0] = np.vstack((law.CMv, law.CM_inf))
        work = np.zeros((m + 1, 4, n, 3))
        work[:, 0] = strains[0]
        work[:, 2] = strains[2]
        np.subtract(work[:-1], branch, work[:-1])
        np.multiply(work, np.broadcast_to(CNM, work.shape), work)
        NM = np.add.reduce(work, axis=0)
        return NM[0], NM[2]

    @pytest.mark.parametrize("m,n", [(0, 3), (1, 1), (2, 6), (8, 25)])
    def test_force_and_couple_match_two_channel_form(self, m, n):
        rng = np.random.default_rng(100 + 10 * m + n)
        law = self.random_law(m, rng)
        st = ViscousState(m, n)
        pl = point_laws(law, st.n)
        st.branch[...] = rng.normal(size=st.branch.shape)
        strains = rng.normal(size=(4, n, 3))
        strains[:, 0] = 0.0, -0.0, 0.0
        N_ref, M_ref = self.two_channel_forces(law, strains, st.branch)
        NM = internal_forces(pl, strains, st)
        assert_bitwise(NM[0], N_ref)
        assert_bitwise(NM[2], M_ref)

    def test_copy_is_independent(self):
        law = pendulum_law()
        st = ViscousState(law.n_elements, 3)
        st.branch[:, 0] = np.ones((1, 3, 3))
        cp = st.copy()
        cp.branch[:, 0] = 2.0
        cp.beta[:, 3] = 5.0
        assert np.all(st.branch[:, 0] == 1.0)
        assert np.all(st.beta[:, 3] == 0.0)
        assert np.all(cp.branch[:, 0] == 2.0)
