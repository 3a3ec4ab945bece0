import pathlib

import numpy as np
import pytest

from gebvisc import assembly
from gebvisc.assembly import NewtonSettings, Simulation, time_march
from gebvisc.beam_residual import kin
from gebvisc.integrator import StepFailure, begin_step
from gebvisc.model import (BeamModel, DistributedLoad, EndLoad, Joint,
                           LoadHistory, Patch, Probe, Support)
from gebvisc.splines import KnotVector, greville, interpolate_curve, line_curve
from gebvisc.viscoelastic import SectionGeometry, build_section_law
from helpers import (dense_solve, fd_tangent_blocks_force,
                     fd_tangent_blocks_moment, one_end, patch_end)


def pendulum_law():
    return build_section_law(5e5, 0.5, [(4.5e6, 0.1)],
                             SectionGeometry.circle(0.01), 1100.0)


def pendulum_model(n=40, degree=4, probes=True):
    curve = line_curve([0, 0, 0], [0, 1.0, 0], degree=degree, n=n)
    return BeamModel([Patch(curve, pendulum_law())],
                     supports=[Support(0, "start", "hinge")],
                     loads=[DistributedLoad(
                         0, LoadHistory.constant([0, 0, -0.8475]))],
                     probes=[Probe(0, 1.0, "tip")] if probes else [])


def row_kinds_model():
    """Six patches whose ends carry every kind of boundary and joint row.

    Non-joint ends: a moving clamp, a hinge, a roller_x3, a free end with an
    end force and couple, and an unloaded free end.  Joints: an unsupported
    two-end joint with a joint force, a three-end joint carrying a roller_x3
    support on an end listed last, and a two-end joint carrying a clamp.
    """
    law = pendulum_law()
    O, A = np.zeros(3), np.array([0.4, 0.0, 0.0])
    B = np.array([0.4, 0.4, 0.1])
    C, D = B + [0.3, 0.1, 0.0], B + [-0.1, 0.3, -0.1]
    E, F, G = [1.0, 0.0, 0.0], [1.0, 0.4, 0.0], [1.0, 0.7, 0.2]
    kv = KnotVector.open_uniform(3, 7)
    u = greville(kv)
    arc = interpolate_curve(
        u, A + np.outer(u, B - A) + np.outer(0.1 * np.sin(np.pi * u),
                                             [0.0, 0.0, 1.0]), kv)
    curves = [line_curve(O, A, 3, 7), arc, line_curve(B, C, 3, 7),
              line_curve(B, D, 3, 7), line_curve(E, F, 3, 7),
              line_curve(F, G, 3, 7)]
    weight = LoadHistory.constant([0, 0, -0.8475])
    return BeamModel(
        [Patch(c, law) for c in curves],
        supports=[Support(0, "start", "clamp",
                          LoadHistory.sine_ramp_hold([0, 0, 0.01], 0.1)),
                  Support(3, "end", "roller_x3"),
                  Support(4, "start", "hinge"),
                  Support(3, "start", "roller_x3"),
                  Support(4, "end", "clamp")],
        joints=[Joint([(0, "end"), (1, "start")],
                      force=LoadHistory.constant([0.01, 0.0, 0.0])),
                Joint([(1, "end"), (2, "start"), (3, "start")]),
                Joint([(4, "end"), (5, "start")])],
        loads=[DistributedLoad(k, weight) for k in range(len(curves))],
        end_loads=[EndLoad(2, "end", force=LoadHistory.constant([0, 0.02, 0]),
                           moment=LoadHistory.constant([0.001, 0, 0]))])


def row_kinds_system(h=1e-3):
    """Equilibrated (A, rhs) of ``row_kinds_model`` at the predictor of the
    third step."""
    sim = Simulation(row_kinds_model())
    # the recorded system pins the rounding of the march's solves, which
    # were dense LAPACK solves at 252 unknowns when it was recorded
    sim._solve = dense_solve
    return predictor_system(sim, 2, h)


def predictor_system(sim, steps, h):
    """March ``steps`` steps of h and return the equilibrated (A, rhs) at
    the predictor of the next one."""
    time_march(sim, steps * h, h)
    for rt in sim.stacks:
        begin_step(rt.state, rt.law, h)
    return sim.assemble(h, sim.t + h)


def two_law_model():
    """Four patches of two section laws and of degrees 3 and 4, each law
    holding one patch of either degree, with joints between the laws."""
    law_a = pendulum_law()
    law_b = build_section_law(2e6, 0.3, [(1e6, 0.05), (5e5, 0.5)],
                              SectionGeometry.circle(0.012), 1000.0)
    O, A = np.zeros(3), np.array([0.4, 0.0, 0.0])
    B = np.array([0.4, 0.4, 0.1])
    kv = KnotVector.open_uniform(4, 8)
    u = greville(kv)
    arc = interpolate_curve(
        u, A + np.outer(u, B - A) + np.outer(0.1 * np.sin(np.pi * u),
                                             [0.0, 0.0, 1.0]), kv)
    patches = [Patch(line_curve(O, A, 3, 7), law_a), Patch(arc, law_b),
               Patch(line_curve(B, B + [0.4, 0.0, 0.0], 4, 8), law_a),
               Patch(line_curve(B, B + [0.0, 0.4, -0.1], 3, 7), law_b)]
    weight = LoadHistory.constant([0, 0, -0.8475])
    return BeamModel(
        patches,
        supports=[Support(0, "start", "clamp"), Support(3, "end", "hinge")],
        joints=[Joint([(0, "end"), (1, "start")]),
                Joint([(1, "end"), (2, "start"), (3, "start")])],
        loads=[DistributedLoad(k, weight) for k in (0, 1, 2)]
        + [DistributedLoad(1, LoadHistory.constant([0.1, 0, 0]),
                           LoadHistory.constant([0, 0.01, 0]))],
        end_loads=[EndLoad(2, "end",
                           force=LoadHistory.constant([0, 0.02, 0]))],
        probes=[Probe(2, 1.0, "tip"), Probe(1, 0.5, "arc")])


class TestStacking:
    # recorded at commit 0eda50f, where every patch had its own runtime
    REFERENCE = pathlib.Path(__file__).parent / "data" / "two_law_run.npz"

    def test_two_laws_match_recorded(self):
        h = 1e-3
        sim = Simulation(two_law_model())
        assert [rt.patches for rt in sim.stacks] == [[0, 2], [1, 3]]
        traj = time_march(sim, 3 * h, h)
        for rt in sim.stacks:
            begin_step(rt.state, rt.law, h)
        A, rhs = sim.assemble(h, sim.t + h)
        ref = np.load(self.REFERENCE)
        np.testing.assert_array_equal(traj.iterations, ref["iterations"])
        for name in ("tip", "arc"):
            np.testing.assert_array_equal(traj.probes[name], ref[name])
        np.testing.assert_array_equal(A.indptr, ref["indptr"])
        np.testing.assert_array_equal(A.indices, ref["indices"])
        # the last bits of the 3x3 products in the kernels follow the BLAS
        # thread count; rows are equilibrated to a largest entry of 1, so
        # the absolute part of the tolerance is relative to the row
        np.testing.assert_allclose(A.data, ref["data"], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rhs, ref["rhs"], rtol=1e-12,
                                   atol=1e-12 * np.abs(ref["rhs"]).max())

    @pytest.mark.parametrize("model", ["lattice", "two_law"])
    def test_kernels_run_once_per_law_stack(self, model, monkeypatch):
        if model == "lattice":
            from gebvisc.scenarios import build_scenario
            sim = Simulation(build_scenario("lattice", {"cells": 3})[0])
            assert len(sim.runtimes) == 24
        else:
            sim = Simulation(two_law_model())
        calls = {}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counted(sim, "assemble")
        end_kernels = ("neumann_force_row", "neumann_moment_row",
                       "end_force_spatial", "end_moment_spatial")
        for name in ("residual_force", "residual_moment",
                     "tangent_blocks_force", "tangent_blocks_moment",
                     "apply_increment", "begin_step", "commit_step") \
                + end_kernels:
            counted(assembly, name)
        stacks = len({id(p.law) for p in sim.model.patches})
        assert len(sim.stacks) == stacks
        h = 5e-3
        sim.assemble(h, h)
        # both models have joint ends; each end kernel runs at most once
        # per stack
        end_calls = {name: calls.pop(name, 0) for name in end_kernels}
        assert 0 < end_calls["end_force_spatial"] <= stacks
        assert max(end_calls.values()) <= stacks
        assert calls == {"assemble": 1, **dict.fromkeys(
            ["residual_force", "residual_moment", "tangent_blocks_force",
             "tangent_blocks_moment"], stacks)}
        calls.clear()
        sim.advance(h)
        assert sim.total_iterations > 0
        assert calls["tangent_blocks_force"] == stacks * calls["assemble"]
        for name in end_kernels:
            assert calls.get(name, 0) <= stacks * calls["assemble"]
        assert calls["apply_increment"] == stacks * sim.total_iterations
        assert calls["begin_step"] == calls["commit_step"] == stacks


class TestRowKinds:
    # recorded with row_kinds_system() at commit 8eeffae, where every row was
    # written entry by entry and the system went through COO and CSR.  The
    # recorded pattern holds with threaded BLAS only: there the 3x3 products
    # leave a 1.17e-47 rounding entry at (172, 173) and (173, 172), the
    # rotation rows of the start of patch 4, which is exactly 0 with
    # OPENBLAS_NUM_THREADS=1 (nnz 4032 against 4030)
    REFERENCE = pathlib.Path(__file__).parent / "data" / "row_kinds_system.npz"

    def test_system_matches_recorded(self):
        A, rhs = row_kinds_system()
        ref = np.load(self.REFERENCE)
        np.testing.assert_array_equal(A.indptr, ref["indptr"])
        np.testing.assert_array_equal(A.indices, ref["indices"])
        np.testing.assert_allclose(A.data, ref["data"], rtol=1e-12, atol=0)
        np.testing.assert_allclose(rhs, ref["rhs"], rtol=1e-12, atol=0)


def structure(A):
    return A.indptr.tobytes() + A.indices.tobytes()


def solved_structures(sim):
    """List that receives the nonzero structure of every system ``sim``
    solves from now on."""
    solved, solve = [], sim._solve

    def recorded(A, rhs):
        solved.append(structure(A))
        return solve(A, rhs)
    sim._solve = recorded
    return solved


class TestSolve:
    @pytest.mark.parametrize("model", ["row_kinds", "two_law", "lattice3"])
    def test_matches_dense_reference(self, model):
        if model == "row_kinds":
            sim, (A, rhs) = Simulation(row_kinds_model()), row_kinds_system()
        elif model == "two_law":
            sim = Simulation(two_law_model())
            A, rhs = predictor_system(sim, 3, 1e-3)
        else:
            from gebvisc.scenarios import build_scenario
            sim = Simulation(build_scenario(
                "lattice", {"cells": 3, "psi": 0.5236})[0])
            A, rhs = predictor_system(sim, 3, 5e-3)
        ref = dense_solve(A, rhs)
        # both solves are backward stable, so they differ by at most about
        # cond(A) * eps times |x|: up to 3e-8 at the condition number 1.2e8
        # measured on the lattice.  1e-9 of the largest entry is 500 times
        # the largest error on these systems (lattice3, 2.1e-12) and 80
        # times that on the spiral at the fifth step (1.2e-11), while a
        # misnumbered row or column gives errors of order one.
        np.testing.assert_allclose(sim._solve(A, rhs), ref, rtol=0,
                                   atol=1e-9 * np.abs(ref).max())

    def test_order_once_per_structure(self, monkeypatch):
        import scipy.sparse.linalg as spla
        orders, natural = [], []
        original = spla.splu

        def splu(A, permc_spec=None, **kwargs):
            (orders if permc_spec == "MMD_ATA" else natural).append(
                (permc_spec, structure(A)))
            return original(A, permc_spec=permc_spec, **kwargs)

        monkeypatch.setattr(spla, "splu", splu)
        sim = Simulation(pendulum_model())
        solved = solved_structures(sim)
        time_march(sim, 20 * 5e-3, 5e-3)
        distinct = set(solved)
        # the pattern changes as entries turn exactly zero or nonzero
        assert len(distinct) > 1
        assert len(orders) == len(distinct)
        assert {s for _, s in orders} == distinct
        assert len(natural) == len(solved) == sim.total_iterations
        assert {spec for spec, _ in natural} == {"NATURAL"}

    def test_solution_independent_of_earlier_solves(self):
        h = 5e-3
        fresh = Simulation(pendulum_model())
        A, rhs = fresh.assemble(h, h)
        used = Simulation(pendulum_model())
        solved = solved_structures(used)
        time_march(used, 20 * h, h)
        assert len(set(solved)) > 1 and solved[-1] != structure(A)
        np.testing.assert_array_equal(Simulation._solve(used, A, rhs),
                                      fresh._solve(A, rhs))


class TestSystemStructure:
    def test_square_system_size_and_counts(self):
        law = pendulum_law()
        curve = line_curve([0, 0, 0], [1, 0, 0], degree=2, n=4)
        model = BeamModel([Patch(curve, law)],
                          supports=[Support(0, "start", "clamp")])
        sim = Simulation(model)
        A, rhs = sim.assemble(1e-3, 1e-3)
        assert A.shape == (24, 24)
        assert rhs.shape == (24,)
        assert sim.ndof == 24

    def test_bandwidth_of_single_patch(self):
        model = pendulum_model(n=20, degree=4)
        sim = Simulation(model)
        A, _ = sim.assemble(1e-3, 1e-3)
        coo = A.tocoo()
        # every row's support is one basis stencil: span <= 6(p+1)
        for r in range(A.shape[0]):
            cols = coo.col[coo.row == r]
            assert cols.max() - cols.min() < 6 * (4 + 1)

    def test_all_zero_row_raises(self, monkeypatch):
        monkeypatch.setattr(
            assembly, "neumann_force_row", lambda st, law, CN, pts, *a:
            (np.zeros((len(pts), 3)), np.zeros((len(pts), 2, 3, 6))))
        sim = Simulation(pendulum_model(n=10, degree=2))
        with pytest.raises(RuntimeError, match="under-constrained"):
            sim.assemble(1e-3, 1e-3)

    def test_timoshenko_tip_deflection(self):
        E, nu = 1e7, 0.3
        law = build_section_law(E, nu, [], SectionGeometry.circle(0.05), 1000.0)
        L, F = 1.0, 1e-3
        curve = line_curve([0, 0, 0], [0, L, 0], degree=4, n=40)
        model = BeamModel([Patch(curve, law)],
                          supports=[Support(0, "start", "clamp")],
                          end_loads=[EndLoad(0, "end",
                                             force=LoadHistory.constant(
                                                 [0, 0, F]))])
        sim = Simulation(model)
        h = 1e6  # statics limit: inertia terms negligible
        for rt in sim.stacks:
            begin_step(rt.state, rt.law, h)
        report = sim.newton(h, h)
        assert report.converged
        state, j = patch_end(sim, 0, "end")
        tip = state.c[j] - sim.runtimes[0].patch.frames.c0[-1]
        I = np.pi * 0.05 ** 4 / 64
        A_sec = np.pi * 0.05 ** 2 / 4
        G = E / (2 * (1 + nu))
        exact = F * L ** 3 / (3 * E * I) + F * L / (G * A_sec)
        assert abs(tip[2] - exact) / exact < 0.01


class TestNewton:
    @pytest.mark.parametrize("bad", [
        {"tol_increment": 0.0}, {"tol_residual": -1e-12},
        {"max_iterations": 0}, {"max_halvings": -1},
        {"retry_increment_cap": 0.0}, {"retry_increment_cap": -0.3}])
    def test_invalid_settings_rejected(self, bad):
        with pytest.raises(ValueError):
            NewtonSettings(**bad)

    def test_settings_at_their_limits_accepted(self):
        s = NewtonSettings(max_iterations=1, max_halvings=0,
                           retry_increment_cap=None)
        assert s.retry_increment_cap is None

    def test_zero_iterations_when_converged(self):
        model = pendulum_model(n=10, degree=2)
        model = BeamModel(model.patches, supports=model.supports, loads=[],
                          probes=[])  # no load: quiescent
        sim = Simulation(model)
        for rt in sim.stacks:
            begin_step(rt.state, rt.law, 1e-3)
        report = sim.newton(1e-3, 1e-3)
        assert report.converged
        assert report.iterations == 0

    def test_pendulum_step_iteration_budget(self):
        sim = Simulation(pendulum_model())
        traj = time_march(sim, 0.25, 5e-3)
        assert max(traj.iterations) <= 10  # regression bound

    def test_quadratic_convergence_slope(self):
        sim = Simulation(pendulum_model(),
                         NewtonSettings(tol_increment=1e-13,
                                        max_iterations=30))
        traj = time_march(sim, 0.05, 5e-3)
        for rt in sim.stacks:
            begin_step(rt.state, rt.law, 5e-3)
        report = sim.newton(5e-3, sim.t + 5e-3)
        r = np.array(report.residual_norms)
        r = r[r > 1e-14]
        logs = np.log(r)
        slopes = [(logs[i + 1] - logs[i]) / (logs[i] - logs[i - 1])
                  for i in range(1, len(logs) - 1) if logs[i] != logs[i - 1]]
        assert max(slopes) > 1.5  # superlinear contraction visible

    def test_fd_tangent_converges_to_same_state(self, monkeypatch):
        model_a = pendulum_model(n=8, degree=2)
        model_b = pendulum_model(n=8, degree=2)
        ta = time_march(Simulation(model_a), 0.02, 5e-3)
        monkeypatch.setattr(assembly, "tangent_blocks_force",
                            fd_tangent_blocks_force)
        monkeypatch.setattr(assembly, "tangent_blocks_moment",
                            fd_tangent_blocks_moment)
        tb = time_march(Simulation(model_b), 0.02, 5e-3)
        ua = ta.probes["tip"][-1]
        ub = tb.probes["tip"][-1]
        assert np.abs(ua - ub).max() < 1e-7

    def test_determinism(self):
        def run():
            sim = Simulation(pendulum_model(n=16, degree=3))
            traj = time_march(sim, 0.03, 5e-3)
            return traj.probes["tip"]
        np.testing.assert_array_equal(run(), run())


class TestExactness:
    def test_free_rigid_flight(self):
        law = pendulum_law()
        curve = line_curve([0, 0, 0], [0, 1.0, 0], degree=3, n=8)
        model = BeamModel([Patch(curve, law)], probes=[Probe(0, 0.5, "mid")])
        sim = Simulation(model)
        v0 = np.array([0.3, -0.1, 0.2])
        sim.set_initial_velocity(v0)
        n_steps = 20
        h = 1e-2
        traj = time_march(sim, n_steps * h, h)
        expect = np.outer(traj.times, v0)
        assert np.abs(traj.probes["mid"] - expect).max() < 1e-12
        for rt in sim.stacks:
            assert np.abs(kin(rt.state)[2]).max() < 1e-12
            assert np.abs(kin(rt.state)[4]).max() < 1e-12

    def test_quiescent_persistence(self):
        law = pendulum_law()
        curve = line_curve([0, 0, 0], [0, 1.0, 0], degree=3, n=8)
        model = BeamModel([Patch(curve, law)],
                          supports=[Support(0, "start", "clamp")],
                          probes=[Probe(0, 1.0, "tip")])
        sim = Simulation(model)
        traj = time_march(sim, 1.0, 0.05)
        assert np.abs(traj.probes["tip"]).max() == 0.0
        assert sum(traj.iterations) == 0

    def test_smooth_load_pointwise_temporal_order(self):
        # smooth ramp avoids impulsive wave content: pointwise Richardson
        # on the tip displacement shows the scheme's second order directly
        def run(h):
            law = pendulum_law()
            curve = line_curve([0, 0, 0], [0, 1.0, 0], degree=4, n=16)
            model = BeamModel(
                [Patch(curve, law)],
                supports=[Support(0, "start", "hinge")],
                loads=[DistributedLoad(0, LoadHistory.sine_ramp_hold(
                    [0, 0, -0.8475], 0.1))],
                probes=[Probe(0, 1.0, "tip")])
            sim = Simulation(model, NewtonSettings(tol_increment=1e-11,
                                                   max_iterations=40))
            return time_march(sim, 0.25, h).probes["tip"][-1, 2]

        u = [run(h) for h in (5e-3, 2.5e-3, 1.25e-3)]
        order = np.log2(abs((u[0] - u[1]) / (u[1] - u[2])))
        assert abs(order - 2.0) <= 0.3


class TestJoints:
    def test_collinear_patches_match_single_patch(self):
        law = pendulum_law()
        hist = LoadHistory.constant([0, 0, -0.8475])
        single = BeamModel(
            [Patch(line_curve([0, 0, 0], [0, 1.0, 0], 4, 21), law)],
            supports=[Support(0, "start", "hinge")],
            loads=[DistributedLoad(0, hist)],
            probes=[Probe(0, 1.0, "tip")])
        split = BeamModel(
            [Patch(line_curve([0, 0, 0], [0, 0.5, 0], 4, 11), law),
             Patch(line_curve([0, 0.5, 0], [0, 1.0, 0], 4, 11), law)],
            supports=[Support(0, "start", "hinge")],
            joints=[Joint(ends=[(0, "end"), (1, "start")])],
            loads=[DistributedLoad(0, hist), DistributedLoad(1, hist)],
            probes=[Probe(1, 1.0, "tip")])
        t_end, h = 0.2, 5e-3
        ua = time_march(Simulation(single), t_end, h).probes["tip"]
        ub = time_march(Simulation(split), t_end, h).probes["tip"]
        # the two discrete spaces differ, so agreement is at spatial truncation
        # level; the acceptance suite repeats this at finer resolution
        assert np.abs(ua - ub).max() < 2e-3
        assert abs(ua[-1, 2]) > 1e-2  # sanity: something actually moved

    def test_joint_forces_equal_and_opposite_static(self):
        # two collinear elastic patches under a tip force, statics limit
        law = build_section_law(1e7, 0.3, [], SectionGeometry.circle(0.05),
                                1000.0)
        model = BeamModel(
            [Patch(line_curve([0, 0, 0], [0, 0.5, 0], 3, 8), law),
             Patch(line_curve([0, 0.5, 0], [0, 1.0, 0], 3, 8), law)],
            supports=[Support(0, "start", "clamp")],
            joints=[Joint(ends=[(0, "end"), (1, "start")])],
            end_loads=[EndLoad(1, "end",
                               force=LoadHistory.constant([0, 0, 1e-3]))])
        sim = Simulation(model)
        h = 1e6
        for rt in sim.stacks:
            begin_step(rt.state, rt.law, h)
        report = sim.newton(h, h)
        assert report.converged
        from gebvisc.beam_residual import end_force_spatial
        from gebvisc.viscoelastic import effective_stiffness
        CN, _ = effective_stiffness(law, h)
        (sa, ja), (sb, jb) = patch_end(sim, 0, "end"), patch_end(sim, 1, "start")
        fa, _ = one_end(end_force_spatial, sa, law, CN, ja, +1.0)
        fb, _ = one_end(end_force_spatial, sb, law, CN, jb, -1.0)
        assert np.abs(fa + fb).max() < 1e-8
        # transmitted force equals the applied tip load up to the collocation
        # equilibrium error of the coarse patch
        np.testing.assert_allclose(-fb, [0, 0, 1e-3], atol=1e-6)

    def test_continuity_preserved_during_motion(self):
        law = pendulum_law()
        hist = LoadHistory.constant([0, 0, -0.8475])
        model = BeamModel(
            [Patch(line_curve([0, 0, 0], [0, 0.5, 0], 3, 8), law),
             Patch(line_curve([0, 0.5, 0], [0, 1.0, 0], 3, 8), law)],
            supports=[Support(0, "start", "hinge")],
            joints=[Joint(ends=[(0, "end"), (1, "start")])],
            loads=[DistributedLoad(0, hist), DistributedLoad(1, hist)])
        sim = Simulation(model)
        time_march(sim, 0.1, 5e-3)
        (sa, ja), (sb, jb) = patch_end(sim, 0, "end"), patch_end(sim, 1, "start")
        ca = sa.c[ja]
        cb = sb.c[jb]
        assert np.linalg.norm(ca - cb) < 1e-9
        Qa = sa.R[ja] @ sim.runtimes[0].patch.frames.R0[-1].T
        Qb = sb.R[jb] @ sim.runtimes[1].patch.frames.R0[0].T
        assert np.abs(Qa - Qb).max() < 1e-9


class TestStepControl:
    def test_step_halving_on_hard_step(self):
        # brutal impulsive load on a soft beam: first attempt may fail but the
        # halving retry must carry the march through
        law = build_section_law(1e5, 0.3, [(9e5, 0.05)],
                                SectionGeometry.circle(0.01), 1100.0)
        curve = line_curve([0, 0, 0], [0, 0.5, 0], degree=3, n=10)
        model = BeamModel([Patch(curve, law)],
                          supports=[Support(0, "start", "clamp")],
                          end_loads=[EndLoad(0, "end",
                                             force=LoadHistory.constant(
                                                 [0, 0, -5.0]))],
                          probes=[Probe(0, 1.0, "tip")])
        sim = Simulation(model, NewtonSettings(max_iterations=8))
        traj = time_march(sim, 0.05, 0.025)
        assert sim.t == pytest.approx(0.05)

    @staticmethod
    def hard_step(**settings):
        law = build_section_law(1e5, 0.3, [(9e5, 0.05)],
                                SectionGeometry.circle(0.01), 1100.0)
        curve = line_curve([0, 0, 0], [0, 0.5, 0], degree=3, n=10)
        model = BeamModel([Patch(curve, law)],
                          supports=[Support(0, "start", "clamp")],
                          end_loads=[EndLoad(0, "end",
                                             force=LoadHistory.constant(
                                                 [0, 0, -5.0]))])
        return Simulation(model, NewtonSettings(max_iterations=8, **settings))

    def test_capped_retry_goes_on_from_plain_attempt(self, monkeypatch):
        assembled = []
        original = Simulation.assemble

        def assemble(self, *args):
            assembled.append(self)
            return original(self, *args)

        monkeypatch.setattr(Simulation, "assemble", assemble)
        h = 0.025
        replay = self.hard_step()
        with pytest.raises(StepFailure):
            replay._attempt(h, None)
        # a retry from the step start, which repeats the plain attempt up to
        # its first update above the cap
        replay._attempt(h, replay.settings.retry_increment_cap)
        sim = self.hard_step()
        sim.advance(h)
        assert 0 < assembled.count(sim) < assembled.count(replay)
        assert sim.t == replay.t == h
        st, ref = sim.stacks[0].state, replay.stacks[0].state
        for name in st.ARRAYS + ("R", "qTheta"):
            np.testing.assert_array_equal(getattr(st, name), getattr(ref, name))
        np.testing.assert_array_equal(st.visc.branch, ref.visc.branch)
        np.testing.assert_array_equal(sim.stacks[0].ctrl, replay.stacks[0].ctrl)

    def test_capped_retry_skipped_without_capped_update(self, monkeypatch):
        sim = self.hard_step(retry_increment_cap=1e9)
        attempts = []
        original = Simulation._attempt
        monkeypatch.setattr(Simulation, "_attempt", lambda self, h, cap, *a: (
            attempts.append((h, cap)) or original(self, h, cap, *a)))
        sim.advance(0.025)
        # a capped retry could only repeat the plain attempt: halve at once
        assert attempts[:2] == [(0.025, None), (0.0125, None)]
