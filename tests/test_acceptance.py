"""Acceptance suite: one test per acceptance criterion, with pinned
tolerances.  Each test prints a single PASS line on success (run with
``pytest -s tests/test_acceptance.py`` to see them); a failed assertion is the
FAIL line.

Criterion 6a is expected to fail: the printed pendulum material creep-
stretches enough that the bottom-of-swing peaks of the viscoelastic run
exceed the elastic ones, so the literal peak comparison is physically
unattainable.  The analysis lives in the project notes; the test states the
criterion faithfully and is left red on purpose.
"""

import time

import numpy as np
import pytest
from scipy.signal import argrelmax

from gebvisc import so3
from gebvisc.assembly import NewtonSettings, Simulation, time_march
from gebvisc.beam_residual import (kin, neumann_force_row, neumann_moment_row,
                                   section_state, tangent_blocks_force,
                                   tangent_blocks_moment)
from gebvisc.cli import fit_preplateau_slope, run_convergence, run_scenario
from gebvisc.integrator import apply_increment, begin_step
from gebvisc.model import (BeamModel, DistributedLoad, EndLoad, Joint,
                           LoadHistory, Probe, Support,
                           build_patches)
from gebvisc.scenarios import build_scenario, pla_law
from gebvisc.splines import line_curve
from gebvisc.viscoelastic import (SectionGeometry, ViscousState,
                                  build_section_law, compute_beta,
                                  internal_forces,
                                  trapezoidal_coeffs, update_viscous_state)

from helpers import (apply_blocks, apply_end_blocks, force_residual,
                     joint_mismatch, moment_residual, one_end, random_state,
                     relative_error, rotated_model, superpose_rotation,
                     unit_law)


def ok(criterion, detail):
    print(f"criterion {criterion}: PASS  ({detail})")


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pendulum_runs():
    _, visco, _ = run_scenario("pendulum", {})
    _, elastic, _ = run_scenario("pendulum", {"elastic": True})
    return visco, elastic


@pytest.fixture(scope="module")
def lattice3_run():
    """The bench's lattice3 march (cells 3, psi 0.5236, T = 0.5, 100
    steps): its model, parameters, trajectory and the joint mismatch after
    every committed step."""
    model, c = build_scenario("lattice", {"cells": 3, "psi": 0.5236,
                                          "T": 0.5})
    mismatch = []
    traj = time_march(Simulation(model), c["T"], c["h"],
                      observer=lambda sim: mismatch.append(joint_mismatch(sim)))
    return model, c, traj, np.array(mismatch)


@pytest.fixture(scope="module")
def spivak_run():
    _, traj, _ = run_scenario("spivak", {})
    return traj


class TestCriterion1:
    def test_prony_relaxation_oracle(self):
        start = time.perf_counter()
        law = pla_law(0.005)
        h = law.taus.min() / 100.0
        T = min(5.0 * law.taus.max(), 10.0)
        n_steps = int(round(T / h))
        st = ViscousState(law.n_elements, 1)
        # the stacked strains (Gam, Gam,s, Kap, Kap,s) of a held unit stretch
        S = np.zeros((4, 1, 3))
        S[0, 0, 0] = 1.0
        Ns = np.empty(n_steps)
        for k in range(n_steps):
            compute_beta(law, st, S, h)
            update_viscous_state(law, st, S, h)
            Ns[k] = internal_forces(law, S, st)[0, 0, 0]
        t = h * np.arange(1, n_steps + 1)
        exact = law.CN_inf[0] + (law.CNv[:, 0, None]
                                 * np.exp(-t[None] / law.taus[:, None])).sum(0)
        rel = (np.abs(Ns - exact) / np.abs(exact)).max()
        wall = time.perf_counter() - start
        assert rel < 1e-4
        assert wall < 1.0
        ok(1, f"relaxation error {rel:.2e}, {wall:.2f} s")


class TestCriterion2:
    def test_temporal_order(self):
        # pointwise tip values at these steps carry scrambled unresolved-mode
        # noise from the impulsive start; the time integral of the tip history
        # over [0, 0.25] is the damped functional (see project notes)
        start = time.perf_counter()

        def functional(h):
            _, traj, _ = run_scenario("pendulum", {"T": 0.25, "h": h,
                                                   "n": 24})
            return np.trapezoid(traj.probes["tip"][:, 2], traj.times)

        I = [functional(h) for h in (5e-3, 2.5e-3, 1.25e-3)]
        order = np.log2(abs((I[0] - I[1]) / (I[1] - I[2])))
        wall = time.perf_counter() - start
        assert abs(order - 2.0) <= 0.3
        assert wall < 30.0
        ok(2, f"observed order {order:.2f}, {wall:.1f} s")


class TestCriterion3:
    @pytest.mark.slow
    def test_spatial_convergence(self):
        start = time.perf_counter()
        study = {
            "scenario": "pendulum",
            "pairs": [[4, n] for n in (10, 14, 20, 28, 40, 56, 80)]
            + [[6, n] for n in (14, 20, 28, 40, 56, 80, 110)],
            "reference": [8, 200],
            "t_eval": 0.75,
            "h": 5e-3,
        }
        res = run_convergence(study)
        errs = {p: [r["err_l2"] for r in res["errors"] if r["degree"] == p]
                for p in (4, 6)}
        for p in (4, 6):
            assert all(np.diff(errs[p]) < 0.0), f"p={p} not monotone"
        slope4 = res["per_degree"][4]["slope"]
        slope6 = res["per_degree"][6]["slope"]
        floor = min(min(errs[4]), min(errs[6]))
        wall = time.perf_counter() - start
        assert slope4 >= 3.0
        assert slope6 >= 5.0
        assert floor <= 1e-6  # plateau level (reached by the p=6 family)
        assert wall < 600.0
        ok(3, f"slopes p4={slope4:.2f} p6={slope6:.2f}, "
              f"plateau {floor:.1e}, {wall:.0f} s")


class TestCriterion4:
    H = 0.02

    def test_tangent_fd_agreement(self):
        rng = np.random.default_rng(100)
        law = unit_law()
        eps = 1e-6
        n = 100
        st = random_state(law, n, self.H, rng)
        n_dist = rng.normal(size=(n, 3))
        m_dist = rng.normal(size=(n, 3))
        sec = section_state(st, law, self.H, n_dist, m_dist)
        inc = [rng.normal(size=(n, 3)) for _ in range(6)]

        def perturbed(sgn):
            sp = st.copy()
            apply_increment(sp, *(sgn * eps * d for d in inc), self.H)
            return sp

        sp, sm = perturbed(1.0), perturbed(-1.0)
        fd_F = (force_residual(sp, law, n_dist, self.H)
                - force_residual(sm, law, n_dist, self.H)) / (2 * eps)
        fd_V = (moment_residual(sp, law, m_dist, self.H)
                - moment_residual(sm, law, m_dist, self.H)) / (2 * eps)
        err_F = relative_error(fd_F, apply_blocks(
            tangent_blocks_force(st, law, sec, self.H), *inc))
        err_V = relative_error(fd_V, apply_blocks(
            tangent_blocks_moment(st, law, sec, self.H), *inc))
        # boundary rows on the same batch of states
        worst_bc = 0.0
        for i in (0, n - 1):
            sign = -1.0 if i == 0 else 1.0
            n_c = rng.normal(size=3)
            m_c = rng.normal(size=3)
            rf = one_end(neumann_force_row, st, law, self.H, i, n_c, sign)
            rm = one_end(neumann_moment_row, st, law, self.H, i, m_c, sign)
            fd_f = -(one_end(neumann_force_row, sp, law, self.H, i, n_c, sign)[0]
                     - one_end(neumann_force_row, sm, law, self.H, i, n_c, sign)[0]) / (2 * eps)
            fd_m = -(one_end(neumann_moment_row, sp, law, self.H, i, m_c, sign)[0]
                     - one_end(neumann_moment_row, sm, law, self.H, i, m_c, sign)[0]) / (2 * eps)
            an_f = apply_end_blocks(rf[1], inc, i)
            an_m = apply_end_blocks(rm[1], inc, i)
            worst_bc = max(worst_bc, relative_error(fd_f[None], an_f[None]),
                           relative_error(fd_m[None], an_m[None]))
        assert err_F < 5e-6
        assert err_V < 5e-6
        assert worst_bc < 5e-6
        ok("4a", f"FD agreement: force {err_F:.1e}, moment {err_V:.1e}, "
                 f"boundary {worst_bc:.1e} on 100 random states")

    def test_newton_quadratic_slope(self):
        from gebvisc.scenarios import build_scenario
        model, _ = build_scenario("pendulum", {"n": 40})
        sim = Simulation(model, NewtonSettings(tol_increment=1e-14,
                                               max_iterations=40))
        time_march(sim, 0.25, 5e-3)
        for rt in sim.stacks:
            begin_step(rt.state, rt.law, 5e-3)
        rep = sim.newton(5e-3, sim.t + 5e-3)
        r = np.array([x for x in rep.residual_norms if x > 0])
        assert len(r) >= 3
        lr = np.log(r[-3:])
        slope = (lr[2] - lr[1]) / (lr[1] - lr[0])
        assert 1.5 <= slope <= 3.5
        ok("4b", f"log-log residual slope {slope:.2f} on the final contraction")


class TestCriterion5:
    def test_longterm_creep(self):
        start = time.perf_counter()
        E_inf, E1, tau, nu, rho = 1e7, 1e7, 1.0, 0.3, 1000.0
        side, L, F = 0.02, 1.0, 1e-3
        law = build_section_law(E_inf, nu, [(E1, tau)],
                                SectionGeometry.square(side), rho)
        curve = line_curve([0, 0, 0], [0, L, 0], 4, 20)
        model = BeamModel(
            build_patches([curve], law),
            supports=[Support(0, "start", "clamp")],
            end_loads=[EndLoad(0, "end",
                               force=LoadHistory.constant([0, 0, -F]))],
            probes=[Probe(0, 1.0, "tip")])
        sim = Simulation(model)
        traj = time_march(sim, 20 * tau, 0.02)
        u3 = traj.probes["tip"][-1, 2]
        I = side ** 4 / 12
        A = side ** 2
        G_inf = E_inf / (2 * (1 + nu))
        exact = -(F * L ** 3 / (3 * E_inf * I) + F * L / (G_inf * A))
        # strain stays small as required
        kappa_max = max(np.abs(kin(rt.state)[2][2]).max() for rt in sim.stacks)
        assert kappa_max * side / 2 < 1e-4
        rel = abs(u3 - exact) / abs(exact)
        wall = time.perf_counter() - start
        assert rel < 0.05
        assert wall < 60.0
        ok(5, f"creep deflection error {rel:.2%} vs E_inf Timoshenko, "
              f"{wall:.0f} s")


class TestCriterion6:
    def test_a_pendulum_peak_damping(self, pendulum_runs):
        # literal criterion; fails because axial creep deepens the later
        # bottom-of-swing peaks of the viscoelastic run (see module docstring)
        visco, elastic = pendulum_runs

        def peak_after_first_swing(traj):
            au = np.abs(traj.probes["tip"][:, 2])
            first = argrelmax(au, order=3)[0][0]
            return au[first + 1:].max()

        pv = peak_after_first_swing(visco)
        pe = peak_after_first_swing(elastic)
        print(f"criterion 6a: viscoelastic peak {pv:.4f} vs elastic {pe:.4f} "
              "(documented physical failure: creep elongation)")
        assert pv < pe
        ok("6a", f"visco peak {pv:.4f} < elastic {pe:.4f}")

    @pytest.mark.slow
    def test_b_spivak_envelope(self, spivak_run):
        t = spivak_run.times
        u3 = spivak_run.probes["tip"][:, 2]
        mask = t > 0.5
        x = u3[mask]
        h = t[1] - t[0]
        w = int(round(0.4 / h)) | 1
        trend = np.convolve(x, np.ones(w) / w, mode="valid")
        resid = x[w // 2:-(w // 2)] - trend
        win = int(round(0.5 / h))
        env = np.array([np.abs(resid[i:i + win]).max()
                        for i in range(0, len(resid) - win + 1, win)])
        assert np.all(np.diff(env) <= 1e-12)
        ratio = env[-1] / env.max()
        assert ratio < 0.01
        ok("6b", f"oscillation envelope monotone, final {ratio:.2%} of max")


class TestCriterion7:
    def test_free_rigid_flight(self):
        law = unit_law()
        curve = line_curve([0, 0, 0], [0, 1.0, 0], 3, 8)
        model = BeamModel(build_patches([curve], law),
                          probes=[Probe(0, 0.5, "mid")])
        sim = Simulation(model)
        v0 = np.array([0.3, -0.1, 0.2])
        sim.set_initial_velocity(v0)
        traj = time_march(sim, 0.2, 1e-2)
        err = np.abs(traj.probes["mid"] - np.outer(traj.times, v0)).max()
        strain = max(max(np.abs(kin(rt.state)[2][0]).max(),
                         np.abs(kin(rt.state)[2][2]).max())
                     for rt in sim.stacks)
        assert err < 1e-12
        assert strain < 1e-12
        ok("7-flight", f"free flight error {err:.1e}, strain {strain:.1e}")

    def test_quiescent_persistence(self):
        law = unit_law()
        model = BeamModel(
            build_patches([line_curve([0, 0, 0], [0, 1.0, 0], 3, 8)], law),
            supports=[Support(0, "start", "clamp")],
            probes=[Probe(0, 1.0, "tip")])
        sim = Simulation(model)
        traj = time_march(sim, 0.5, 2.5e-2)
        assert np.abs(traj.probes["tip"]).max() == 0.0
        assert sum(traj.iterations) == 0
        ok("7-quiescent", "zero loads, relaxed history: state exactly constant")

    def test_frame_indifference(self):
        rng = np.random.default_rng(200)
        law = unit_law()
        h = 0.02
        st = random_state(law, 10, h, rng)
        n_dist = rng.normal(size=(10, 3))
        m_dist = rng.normal(size=(10, 3))
        F = force_residual(st, law, n_dist, h)
        V = moment_residual(st, law, m_dist, h)
        Q = so3.exp_so3(rng.normal(size=3))
        st_rot = superpose_rotation(st, Q)
        dF = np.abs(F - force_residual(st_rot, law, n_dist @ Q.T, h)).max()
        dV = np.abs(V - moment_residual(st_rot, law, m_dist @ Q.T, h)).max()
        scale = max(np.abs(F).max(), np.abs(V).max())
        assert dF <= 1e-12 * scale
        assert dV <= 1e-12 * scale
        ok("7-frame", f"material residual change {max(dF, dV):.1e} "
                      f"under rigid rotation (scale {scale:.1e})")

    @pytest.mark.slow
    def test_orthonormality_drift_10k_steps(self):
        law = build_section_law(5e5, 0.5, [(4.5e6, 0.1)],
                                SectionGeometry.circle(0.01), 1100.0)
        model = BeamModel(
            build_patches([line_curve([0, 0, 0], [0, 1.0, 0], 2, 6)], law),
            supports=[Support(0, "start", "hinge")],
            loads=[DistributedLoad(0, LoadHistory.constant([0, 0, -0.8475]))])
        sim = Simulation(model)
        time_march(sim, 10_000 * 2e-4, 2e-4)
        drift = max(np.abs(np.swapaxes(rt.state.R, -1, -2) @ rt.state.R
                           - np.eye(3)).max() for rt in sim.stacks)
        assert drift < 1e-10
        ok("7-drift", f"orthonormality drift {drift:.1e} after 10^4 steps")

    def test_collinear_joint_matches_single_patch(self):
        law = build_section_law(5e5, 0.5, [(4.5e6, 0.1)],
                                SectionGeometry.circle(0.01), 1100.0)
        hist = LoadHistory.constant([0, 0, -0.8475])
        single = BeamModel(
            build_patches([line_curve([0, 0, 0], [0, 1.0, 0], 6, 61)], law),
            supports=[Support(0, "start", "hinge")],
            loads=[DistributedLoad(0, hist)],
            probes=[Probe(0, 1.0, "tip")])
        split = BeamModel(
            build_patches([line_curve([0, 0, 0], [0, 0.5, 0], 6, 31),
                           line_curve([0, 0.5, 0], [0, 1.0, 0], 6, 31)], law),
            supports=[Support(0, "start", "hinge")],
            joints=[Joint(ends=[(0, "end"), (1, "start")])],
            loads=[DistributedLoad(0, hist), DistributedLoad(1, hist)],
            probes=[Probe(1, 1.0, "tip")])
        ua = time_march(Simulation(single), 0.2, 5e-3).probes["tip"]
        ub = time_march(Simulation(split), 0.2, 5e-3).probes["tip"]
        diff = np.abs(ua - ub).max()
        assert diff < 1e-6
        ok("7-joint", f"collinear pair vs single patch: {diff:.1e}")


class TestMarchInvariants:
    """Physics invariants of whole marches."""
    #: a generic rigid rotation; every support of the marched models is a
    #: hinge or a clamp, which any rotation maps onto itself
    Q = so3.exp_so3(np.array([0.3, -0.5, 0.7]))

    def test_joint_continuity_every_step(self, lattice3_run):
        _, _, traj, mismatch = lattice3_run
        assert len(mismatch) == len(traj.times) - 1 == 100
        dx, dR = mismatch.max(axis=0)
        # measured: positions exactly equal, R R0^T within 1.2e-15
        assert dx <= 1e-12 and dR <= 1e-12
        ok("7-joints", f"lattice3, 100 steps: end points {dx:.1e} m, "
           f"R R0^T {dR:.1e}")

    @pytest.mark.parametrize("name, bound", [
        # measured: 3.5e-10 and 2.7e-12 of max|u|; bounds about ten times
        # that.  The spivak beam's first 500 steps (T = 0.5): 4.4e-10 with
        # threaded BLAS and 1.1e-9 with one BLAS thread, 2.8e-9 in an
        # earlier measurement; the bound is about ten times the largest.
        # Newton totals are not compared: they may differ under rotation
        # (max-abs row scaling and the inf-norm increment test depend on
        # the frame).
        ("pendulum", 4e-9), ("lattice3", 3e-11),
        pytest.param("spivak", 3e-8, marks=pytest.mark.slow)])
    def test_rotated_march_rotates_probes(self, name, bound, request):
        if name == "pendulum":
            model, c = build_scenario("pendulum", {})
            traj = request.getfixturevalue("pendulum_runs")[0]
        elif name == "lattice3":
            model, c, traj, _ = request.getfixturevalue("lattice3_run")
        else:
            # the rotated march covers the first 500 of the fixture's steps
            model, c = build_scenario("spivak", {"T": 0.5})
            traj = request.getfixturevalue("spivak_run")
        rotated = time_march(Simulation(rotated_model(model, self.Q)),
                             c["T"], c["h"])
        for key, u in traj.probes.items():
            u = u[:len(rotated.times)]
            err = (np.abs(rotated.probes[key] - u @ self.Q.T).max()
                   / np.abs(u).max())
            assert err <= bound
        ok("7-frame-march", f"{name}: rotated probes within {err:.1e} of "
           f"max|u|")

    def test_rotated_auxetic_first_steps(self):
        # roller_x3 supports hold x3 only, so the auxetic is rotated about x3.
        # Its path turns unstable from step 15; over the first 12 steps the
        # probes measured 1.7e-8 of max|u| at this angle (7.5e-9 at 0.3 and
        # 2.1 rad; one BLAS thread and threaded alike), the end points of
        # every joint equal and their R R0^T within 1.7e-15.  The bound is
        # about ten times the probe measurement.
        Q = so3.exp_so3(np.array([0.0, 0.0, 0.9]))
        model, c = build_scenario("auxetic", {"T": 0.015})  # h = 1.25e-3
        probes, mismatch = [], []

        def observe(sim):
            mismatch.append(joint_mismatch(sim))

        for m in (model, rotated_model(model, Q)):
            traj = time_march(Simulation(m), c["T"], c["h"], observe)
            assert len(traj.times) - 1 == 12
            probes.append(traj.probes["node"])
        u, rotated = probes
        err = np.abs(rotated - u @ Q.T).max() / np.abs(u).max()
        assert err <= 2e-7
        dx, dR = np.max(mismatch, axis=0)
        assert len(mismatch) == 24 and dx <= 1e-12 and dR <= 1e-12
        ok("7-frame-auxetic", f"12 steps rotated about x3: probes within "
           f"{err:.1e} of max|u|; joints {dx:.1e} m, R R0^T {dR:.1e}")


@pytest.mark.slow
class TestCriterion8:
    def test_pendulum_completes(self, pendulum_runs):
        visco, _ = pendulum_runs
        assert len(visco.times) - 1 == 400
        assert visco.times[-1] == pytest.approx(2.0)
        ok("8-pendulum", "T=2 s at h=5e-3 (400 steps)")

    def test_cantilever_completes(self):
        _, traj, _ = run_scenario("cantilever", {})
        assert len(traj.times) - 1 == 1000
        u3 = traj.probes["tip"][:, 2]
        assert u3.min() < -0.1  # it actually deflects
        ok("8-cantilever", f"T=0.5 s at h=5e-4, min u3 {u3.min():.3f} m")

    def test_spivak_completes(self, spivak_run):
        assert len(spivak_run.times) - 1 == 6000
        assert spivak_run.times[-1] == pytest.approx(6.0)
        u3 = spivak_run.probes["tip"][:, 2]
        t_peak = spivak_run.times[np.argmax(np.abs(u3))]
        assert t_peak > 0.5  # inertia carries the peak past the unload time
        ok("8-spivak", f"T=6 s at h=1e-3, peak displacement at t={t_peak:.2f} s")

    def test_spiral_completes(self):
        _, traj, _ = run_scenario("spiral", {})
        assert len(traj.times) - 1 == 800
        disp = np.abs(traj.probes["tip"]).max()
        assert disp > 0.05  # large three-dimensional motion
        ok("8-spiral", f"T=4 s at h=5e-3, max tip excursion {disp:.2f} m")

    def test_lattice_completes_reduced_dims(self):
        _, traj, _ = run_scenario("lattice", {"cells": 3, "T": 2.25})
        assert traj.times[-1] == pytest.approx(2.25)
        u3 = traj.probes["node"][:, 2]
        assert np.abs(u3).max() > 0.0
        ok("8-lattice", "printed load history completed at reduced dims "
                        f"(3x3 cells), |u3|max {np.abs(u3).max():.2e} m")

    def test_auxetic_full_120_patches(self):
        from gebvisc.scenarios import build_scenario
        model, params = build_scenario("auxetic", {"T": 0.05})
        assert len(model.patches) == 120
        sim = Simulation(model)
        traj = time_march(sim, 0.05, params["h"])
        assert sim.t == pytest.approx(0.05)
        ok("8-auxetic", "full 120-patch model completed 0.05 s "
                        f"({int(np.sum(traj.iterations))} Newton iterations)")
