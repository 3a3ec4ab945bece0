import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from gebvisc import assembly
from gebvisc.assembly import (NewtonSettings, Simulation, step_count,
                              time_march)
from gebvisc.beam_residual import kin
from gebvisc.integrator import StepFailure, begin_step
from gebvisc.model import (BeamModel, DistributedLoad, EndLoad, Joint,
                           LoadHistory, Probe, Support,
                           build_patches)
from gebvisc.scenarios import build_scenario
from gebvisc.splines import KnotVector, greville, interpolate_curve, line_curve
from gebvisc.viscoelastic import SectionGeometry, build_section_law
from helpers import (PLAN_ARRAYS, STACK_PLAN_ARRAYS, assembling_newton,
                     assert_bitwise, assert_plan_matches_oracle, dense_solve,
                     fd_tangent_blocks_force, fd_tangent_blocks_moment,
                     mmd_solve, one_end, oracle_system, patch_end,
                     value_solve)


def pendulum_law():
    return build_section_law(5e5, 0.5, [(4.5e6, 0.1)],
                             SectionGeometry.circle(0.01), 1100.0)


def pendulum_model(n=40, degree=4, probes=True):
    curve = line_curve([0, 0, 0], [0, 1.0, 0], degree=degree, n=n)
    return BeamModel(build_patches([curve], pendulum_law()),
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
        build_patches(curves, law),
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
    sim._solve = value_solve(sim, dense_solve)
    return predictor_system(sim, 2, h)


def predictor_system(sim, steps, h):
    """March ``steps`` steps of h and return the equilibrated (A, rhs) at
    the predictor of the next one."""
    if steps:
        time_march(sim, steps * h, h)
    for rt in sim.stacks:
        begin_step(rt.state, rt.law, h)
    return sim.assemble(h, sim.t + h)


def ring_model():
    """One closed patch of degree 3 with 5 control points whose two ends
    meet in one joint, hinged at its start, under its weight.

    The joint's slots hold terms on the stencils of both ends, which share
    three control points, so end values are summed on shared entries: 18 of
    those entries get one nonzero value and zeros, which a plain gather of
    either value would drop.  (With a clamped start none would: its slot
    holds Dirichlet rows on the value stencil alone.)
    """
    kv = KnotVector.open_uniform(3, 5)
    u = greville(kv)
    a = 2 * np.pi * u
    ring = interpolate_curve(
        u, 0.1 * np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=1),
        kv)
    return BeamModel(build_patches([ring], pendulum_law()),
                     supports=[Support(0, "start", "hinge")],
                     joints=[Joint([(0, "start"), (0, "end")])],
                     loads=[DistributedLoad(
                         0, LoadHistory.constant([0, 0, -0.8475]))])


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
    a0, a2 = build_patches([line_curve(O, A, 3, 7),
                            line_curve(B, B + [0.4, 0.0, 0.0], 4, 8)], law_a)
    b1, b3 = build_patches([arc, line_curve(B, B + [0.0, 0.4, -0.1], 3, 7)],
                           law_b)
    patches = [a0, b1, a2, b3]
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
        # the recorded probes pin the rounding of the march's solves, which
        # were dense LAPACK solves at 180 unknowns when they were recorded
        sim._solve = value_solve(sim, dense_solve)
        traj = time_march(sim, 3 * h, h)
        for rt in sim.stacks:
            begin_step(rt.state, rt.law, h)
        A, rhs = sim.assemble(h, sim.t + h)
        A = recorded_form(sim, A)
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

    @staticmethod
    def stacked_sim(model):
        if model == "lattice":
            from gebvisc.scenarios import build_scenario
            sim = Simulation(build_scenario("lattice", {"cells": 3})[0])
            assert len(sim.runtimes) == 24
            return sim
        return Simulation(two_law_model())

    @staticmethod
    def counter(monkeypatch):
        """A dict of call counts and a function that counts the calls of
        ``owner.name`` into it."""
        calls = {}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            monkeypatch.setattr(owner, name, wrapper)

        return calls, counted

    @pytest.mark.parametrize("model", ["lattice", "two_law"])
    def test_kernels_run_once_per_law_stack(self, model, monkeypatch):
        sim = self.stacked_sim(model)
        calls, counted = self.counter(monkeypatch)
        counted(sim, "assemble")
        counted(sim, "_system")
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
        assert calls == {"assemble": 1, "_system": 1, **dict.fromkeys(
            ["residual_force", "residual_moment", "tangent_blocks_force",
             "tangent_blocks_moment"], stacks)}
        calls.clear()
        sim.advance(h)
        assert sim.total_iterations > 0
        # a converged check evaluates the residual and end kernels without
        # a system: those run at most once per stack per residual
        # evaluation, the tangent kernels once per stack per system
        evaluations, rest = divmod(calls["residual_force"], stacks)
        assert rest == 0 and calls["residual_moment"] == calls["residual_force"]
        assert calls["tangent_blocks_force"] == stacks * calls["_system"]
        assert calls["tangent_blocks_moment"] == stacks * calls["_system"]
        for name in end_kernels:
            assert calls.get(name, 0) <= stacks * evaluations
        assert calls["apply_increment"] == stacks * sim.total_iterations
        assert calls["begin_step"] == calls["commit_step"] == stacks

    @pytest.mark.parametrize("model", ["lattice", "two_law"])
    def test_section_evaluated_once_per_law_stack(self, model, monkeypatch):
        # the kinematics, the Maxwell history sums and the effective
        # stiffness of a stack are evaluated once per assembly, for its
        # interior and its end kernels alike
        from gebvisc import beam_residual
        from gebvisc.viscoelastic import ViscousState
        sim = self.stacked_sim(model)
        calls, counted = self.counter(monkeypatch)
        for name in ("kin", "effective_stiffness"):
            counted(beam_residual, name)
        counted(ViscousState, "history")
        sim.assemble(5e-3, 5e-3)
        assert calls == dict.fromkeys(
            ["kin", "effective_stiffness", "history"], len(sim.stacks))

    @pytest.mark.parametrize("model", ["lattice", "two_law"])
    def test_skew_calls_per_law_stack(self, model, monkeypatch):
        # the section pass makes every skew matrix the kernels read in one
        # call per stack; only the Neumann rows skew their end loads apart
        from gebvisc import so3
        sim = self.stacked_sim(model)
        calls, counted = self.counter(monkeypatch)
        counted(so3, "skew")
        sim.assemble(5e-3, 5e-3)
        assert len(sim.stacks) <= calls["skew"] <= 3 * len(sim.stacks)


class TestRowKinds:
    # recorded with row_kinds_system() at commit 8eeffae, where every row was
    # written entry by entry and the system went through COO and CSR.  That
    # pattern holds with threaded BLAS only: there the 3x3 products leave a
    # 1.17e-47 rounding entry at (172, 173) and (173, 172), the rotation rows
    # of the start of patch 4, which is exactly 0 with OPENBLAS_NUM_THREADS=1
    # (nnz 4032 against 4030).  The system of one BLAS thread was recorded
    # apart at commit 3e8e78f, with OPENBLAS_NUM_THREADS=1.
    DATA = pathlib.Path(__file__).parent / "data"

    def test_system_matches_recorded(self):
        one_thread = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
        assert_system_matches(*named_system("row_kinds"), self.DATA / (
            "row_kinds_system_1thread.npz" if one_thread
            else "row_kinds_system.npz"))


class TestRing:
    # recorded with named_system("ring") at commit 5ff6968, where one
    # np.bincount summed all values into their entries; the same with and
    # without OPENBLAS_NUM_THREADS=1
    REFERENCE = pathlib.Path(__file__).parent / "data" / "ring_system.npz"

    def test_system_matches_recorded(self):
        assert_system_matches(*named_system("ring"), self.REFERENCE)


def recorded_form(sim, A):
    """A in CSC form without its zero entries, the form the systems were
    recorded in, once A is checked to be COO on the pattern ``sim``
    planned."""
    assert A.format == "coo"
    np.testing.assert_array_equal(A.row, sim._rows)
    np.testing.assert_array_equal(A.col, sim._cols)
    A = A.tocsc()
    A.eliminate_zeros()
    return A


def assert_system_matches(sim, A, rhs, path):
    A = recorded_form(sim, A)
    ref = np.load(path)
    np.testing.assert_array_equal(A.indptr, ref["indptr"])
    np.testing.assert_array_equal(A.indices, ref["indices"])
    np.testing.assert_allclose(A.data, ref["data"], rtol=1e-12, atol=0)
    np.testing.assert_allclose(rhs, ref["rhs"], rtol=1e-12, atol=0)


def named_system(name):
    """(simulation, A, rhs) of one of the systems the solver is checked on:
    equilibrated at the predictor of an early step."""
    if name == "row_kinds":
        return (Simulation(row_kinds_model()), *row_kinds_system())
    if name == "ring":
        # marched with the solve its recorded system was made with
        sim = Simulation(ring_model())
        sim._solve = value_solve(sim, mmd_solve)
        return Simulation(ring_model()), *predictor_system(sim, 2, 1e-3)
    if name == "two_law":
        sim = Simulation(two_law_model())
        return sim, *predictor_system(sim, 3, 1e-3)
    if name == "pendulum":
        sim = Simulation(pendulum_model())
        return sim, *predictor_system(sim, 3, 5e-3)
    sim = Simulation(lattice3_model())
    return sim, *predictor_system(sim, 3, 5e-3)


def lattice3_model():
    return build_scenario("lattice", {"cells": 3, "psi": 0.5236})[0]


def solved_structures(sim):
    """List that receives the shape and type of the value vector of every
    system ``sim`` solves from now on."""
    solved, solve = [], sim._solve

    def recorded(values, rhs):
        solved.append((type(values), values.shape))
        return solve(values, rhs)
    sim._solve = recorded
    return solved


class TestSolve:
    # the pendulum has no separator (band only); the ring's one patch has
    # its start, the joint's lead, in the separator and its end in the band
    @pytest.mark.parametrize("model", ["row_kinds", "two_law", "lattice3",
                                       "pendulum", "ring"])
    def test_matches_dense_reference(self, model):
        sim, A, rhs = named_system(model)
        ref = dense_solve(A, rhs)
        # both solves are backward stable, so they differ by at most about
        # cond(A) * eps times |x|: up to 3e-8 at the condition number 1.2e8
        # measured on the lattice.  1e-9 of the largest entry is 500 times
        # the largest error on these systems (lattice3, 2.1e-12) and 80
        # times that on the spiral at the fifth step (1.2e-11), while a
        # misnumbered row or column gives errors of order one.
        np.testing.assert_allclose(sim._solve(A.data, rhs), ref, rtol=0,
                                   atol=1e-9 * np.abs(ref).max())

    def test_auxetic_matches_reference(self):
        # 56 joints, 16 of them led by a roller-supported end; 4,320
        # unknowns are too many for the dense reference, so the reference
        # is the whole-system sparse LU, backward stable as well
        from gebvisc.scenarios import build_scenario
        sim = Simulation(build_scenario("auxetic")[0])
        A, rhs = predictor_system(sim, 0, 1.25e-3)
        ref = mmd_solve(A, rhs)
        np.testing.assert_allclose(sim._solve(A.data, rhs), ref, rtol=0,
                                   atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("make", [row_kinds_model, two_law_model,
                                      ring_model, lattice3_model],
                             ids=["row_kinds", "two_law", "ring", "lattice3"])
    def test_separator_holds_joint_leads_only(self, make):
        # a joint is led by its first supported end, else by its first end;
        # the other ends' unknowns and slot rows stay in their patch's band
        model = make()
        sim = Simulation(model)
        supported = {(s.patch, s.end) for s in model.supports}
        leads = []
        for joint in model.joints:
            ends = [tuple(e) for e in joint.ends]
            k, end = next((e for e in ends if e in supported), ends[0])
            leads.append(sim.offsets[k] // 6
                         + model.patches[k].end_index(end))
        assert len(sim._separator) == 6 * len(model.joints)
        blocks = sim._separator.reshape(-1, 6)
        points = blocks[:, 0] // 6
        np.testing.assert_array_equal(blocks, 6 * points[:, None]
                                      + np.arange(6))
        assert sorted(points) == sorted(leads)

    @pytest.mark.parametrize("model, steps, schur", [("pendulum", 20, False),
                                                     ("lattice3", 3, True)],
                             ids=["pendulum", "lattice3"])
    def test_no_sparse_factorization(self, model, steps, schur, monkeypatch):
        # no sparse LU, neither at construction nor in the march: a model
        # with joints factors its Schur complement by one dense LU per
        # solve, one without none.  Every system of the run is solved as
        # its value vector on the planned pattern, zeros included
        import scipy.sparse.linalg as spla
        from scipy.linalg import lapack
        calls = []

        def counted(name, f):
            def call(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return call

        monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
        monkeypatch.setattr(lapack, "dgesv", counted("dgesv", lapack.dgesv))
        sim = Simulation(pendulum_model() if model == "pendulum"
                         else lattice3_model())
        assert calls == []
        solved = solved_structures(sim)
        time_march(sim, steps * 5e-3, 5e-3)
        assert len(solved) == sim.total_iterations > 0
        assert set(solved) == {(np.ndarray, sim._rows.shape)}
        assert calls == ["dgesv"] * len(solved) * schur

    @pytest.mark.parametrize("model, steps", [("pendulum", 20),
                                              ("lattice3", 3)])
    def test_no_sparse_matrix_per_iteration(self, model, steps, monkeypatch):
        # Newton hands the solver the planned value vector: a march builds
        # no scipy sparse matrix
        sim = Simulation(pendulum_model() if model == "pendulum"
                         else lattice3_model())
        built = []
        for name in ("coo_matrix", "csc_matrix", "csr_matrix"):
            def counted(*args, _make=getattr(assembly.sp, name), **kwargs):
                built.append(_make)
                return _make(*args, **kwargs)
            monkeypatch.setattr(assembly.sp, name, counted)
        time_march(sim, steps * 5e-3, 5e-3)
        assert sim.total_iterations > 0
        assert built == []

    def test_singular_schur_complement_raises(self):
        # zeroing the separator rows (A_ss and A_sd) leaves D and A_ds as
        # they are and makes S zero
        sim, A, rhs = named_system("lattice3")
        values = A.data.copy()
        rows = np.zeros(sim.ndof, dtype=bool)
        rows[sim._separator] = True
        values[rows[sim._rows]] = 0.0
        with pytest.raises(RuntimeError, match="singular"):
            sim._solve(values, rhs)

    def test_entry_outside_plan_raises(self):
        # a value vector with an extra entry or one too few, or the system
        # as a matrix
        sim, A, rhs = named_system("pendulum")
        for other in (np.append(A.data, 1.0), A.data[:-1], A, A.toarray()):
            with pytest.raises(ValueError, match="planned entries"):
                sim._solve(other, rhs)

    def test_solution_independent_of_earlier_solves(self):
        h = 5e-3
        fresh = Simulation(pendulum_model())
        A, rhs = fresh.assemble(h, h)
        used = Simulation(pendulum_model())
        time_march(used, 20 * h, h)
        np.testing.assert_array_equal(used._solve(A.data, rhs),
                                      fresh._solve(A.data, rhs))

    def test_plan_survives_in_place_edit(self):
        # every matrix shares the plan's index arrays, so writing to them
        # must fail, and an edit of a matrix's structure must leave the plan
        h = 5e-3
        sim = Simulation(lattice3_model())
        A, rhs = sim.assemble(h, h)
        assert (A.data == 0).any()
        x = sim._solve(A.data, rhs)
        expected = A.copy()
        rows = sim._rows.copy()
        with pytest.raises(ValueError):
            A.row[0] = 1
        A.eliminate_zeros()
        assert A.nnz < expected.nnz
        np.testing.assert_array_equal(sim._rows, rows)
        again, rhs_again = sim.assemble(h, h)
        for name in ("row", "col", "data"):
            np.testing.assert_array_equal(getattr(again, name),
                                          getattr(expected, name))
        np.testing.assert_array_equal(rhs_again, rhs)
        np.testing.assert_array_equal(sim._solve(again.data, rhs_again), x)


#: the models whose plans are checked against the oracle
PLAN_MODELS = {
    "pendulum": pendulum_model,
    "free": lambda: BeamModel(pendulum_model().patches),
    "spiral": lambda: build_scenario("spiral")[0],
    "row_kinds": row_kinds_model,
    "two_law": two_law_model,
    "ring": ring_model,
    "lattice3_psi0": lambda: build_scenario("lattice", {"cells": 3,
                                                        "psi": 0.0})[0],
    "lattice3": lattice3_model,
    "auxetic2x1": lambda: build_scenario("auxetic", {"nx": 2})[0],
    "auxetic5x1": lambda: build_scenario("auxetic")[0],
}


def plan_bytes(sim):
    """Bytes of the plan arrays of ``sim`` and of its stacks."""
    def nbytes(x):
        if isinstance(x, np.ndarray):
            return x.nbytes
        if isinstance(x, (tuple, list)):
            return sum(map(nbytes, x))
        if hasattr(x, "indptr"):
            return nbytes((x.data, x.indices, x.indptr))
        return 0
    return nbytes([getattr(sim, name) for name in PLAN_ARRAYS]
                  + [getattr(rt, name) for rt in sim.stacks
                     for name in STACK_PLAN_ARRAYS])


class TestPlan:
    @pytest.mark.parametrize("name", PLAN_MODELS)
    def test_matches_oracle(self, name):
        # every plan array, with its shape and dtype, equals that of the
        # planners that loop over patches and ends
        assert_plan_matches_oracle(Simulation(PLAN_MODELS[name]()))

    def test_memory_linear_in_plan(self, monkeypatch):
        # per planner, the traced peak above the memory at its start, over
        # the bytes of the whole plan, does not grow from the 2x1 to the
        # 10x1 auxetic (4.3 times the ends), as a temporary that grows with
        # the square of the ends would make it: here it falls
        # (_plan_boundary 0.461 -> 0.451, _plan_pattern 0.420 -> 0.416,
        # _plan_solve 0.880 -> 0.858), while (sources x stencil points)
        # masks raised _plan_boundary's from 0.548 to 0.722.  The whole
        # construction, runtime states included, peaks at 1.95 and 1.90
        # times the plan; planning with those masks and (values x packed
        # columns) temporaries peaked at 2.9 times it
        names = ("_plan_boundary", "_plan_pattern", "_plan_solve")
        peaks = {}

        def traced(name, method):
            def run(self, *args):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = method(self, *args)
                peaks[name] = tracemalloc.get_traced_memory()[1] - start
                return out
            return run

        ratios = []
        for nx in (2, 10):
            model = build_scenario("auxetic", {"nx": nx})[0]
            tracemalloc.start()
            try:
                sim = Simulation(model)
                peak = tracemalloc.get_traced_memory()[1]
                with monkeypatch.context() as m:
                    for name in names:
                        m.setattr(Simulation, name,
                                  traced(name, getattr(Simulation, name)))
                    Simulation(model)
            finally:
                tracemalloc.stop()
            plan = plan_bytes(sim)
            assert peak < 2.25 * plan
            ratios.append(np.array([peaks[name] for name in names]) / plan)
        assert (ratios[1] <= ratios[0]).all(), ratios


class TestSystemStructure:
    def test_square_system_size_and_counts(self):
        law = pendulum_law()
        curve = line_curve([0, 0, 0], [1, 0, 0], degree=2, n=4)
        model = BeamModel(build_patches([curve], law),
                          supports=[Support(0, "start", "clamp")])
        sim = Simulation(model)
        A, rhs = sim.assemble(1e-3, 1e-3)
        assert A.shape == (24, 24)
        assert rhs.shape == (24,)
        assert sim.ndof == 24

    @pytest.mark.parametrize("model", ["row_kinds", "two_law", "lattice3",
                                       "ring"])
    def test_rows_equilibrated(self, model):
        _, A, _ = named_system(model)
        largest = abs(A).max(axis=1).toarray().ravel()
        np.testing.assert_array_max_ulp(largest, np.ones_like(largest), 1)

    @pytest.mark.parametrize("make, h", [(pendulum_model, 5e-3),
                                         (lattice3_model, 5e-3),
                                         (two_law_model, 1e-3)],
                             ids=["pendulum", "lattice3", "two_law"])
    def test_values_match_oracle(self, make, h):
        # every planned entry gets the bits of the point-by-point contraction
        # and equilibration, at the predictor after three steps; the two
        # laws' stacks each mix the stencil widths of degrees 3 and 4
        sim = Simulation(make())
        time_march(sim, 3 * h, h)
        for rt in sim.stacks:
            begin_step(rt.state, rt.law, h)
        res = sim._residual(h, sim.t + h)
        rows, cols, expected, expected_rhs = oracle_system(sim, h, res)
        values, rhs = sim._system(h, res)
        key = sim._rows.astype(np.int64) * sim.ndof + sim._cols
        expected_key = rows.astype(np.int64) * sim.ndof + cols
        order, expected_order = np.argsort(key), np.argsort(expected_key)
        assert (np.diff(key[order]) > 0).all()
        assert_bitwise(key[order], expected_key[expected_order])
        assert_bitwise(values[order], expected[expected_order])
        assert_bitwise(rhs, expected_rhs)

    def test_end_entry_on_interior_row_raises(self):
        # an interior row's scale is the largest value of its block alone
        sim = Simulation(pendulum_model())
        with pytest.raises(RuntimeError, match="interior row"):
            sim._plan_pattern((np.array([6]), np.array([0])))

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
            assembly, "neumann_force_row", lambda st, sec, pts, *a:
            (np.zeros((len(pts), 3)),
             lambda: np.zeros((len(pts), 2, 3, 6))))
        sim = Simulation(pendulum_model(n=10, degree=2))
        with pytest.raises(RuntimeError, match="under-constrained"):
            sim.assemble(1e-3, 1e-3)

    def test_timoshenko_tip_deflection(self):
        E, nu = 1e7, 0.3
        law = build_section_law(E, nu, [], SectionGeometry.circle(0.05), 1000.0)
        L, F = 1.0, 1e-3
        curve = line_curve([0, 0, 0], [0, L, 0], degree=4, n=40)
        model = BeamModel(build_patches([curve], law),
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
        {"tol_residual": 0.0}, {"max_halvings": 3.0},
        {"max_iterations": 10.5}, {"max_halvings": 2.5},
        {"tol_residual": np.inf}, {"tol_increment": np.nan},
        {"tol_increment": np.inf}, {"tol_residual": np.nan},
        {"max_iterations": True}, {"max_halvings": False},
        {"tol_increment": True}, {"tol_residual": True},
        {"tol_increment": "1e-8"}])
    def test_invalid_settings_rejected(self, bad):
        with pytest.raises(ValueError):
            NewtonSettings(**bad)

    def test_settings_at_their_limits_accepted(self):
        s = NewtonSettings(max_iterations=1, max_halvings=0)
        assert (s.max_iterations, s.max_halvings) == (1, 0)

    def test_zero_iterations_when_converged(self):
        model = pendulum_model(n=10, degree=2)
        model = BeamModel(model.patches, supports=model.supports, loads=[],
                          probes=[])  # no load: quiescent
        sim = Simulation(model)
        for rt in sim.stacks:
            begin_step(rt.state, rt.law, 1e-3)
        report = sim.newton(1e-3, 1e-3)
        assert report.converged
        assert sim.total_iterations == 0

    def test_iteration_stopped_by_pi_guard_counted(self, monkeypatch):
        calls = []
        original = assembly.apply_increment

        def apply_increment(*args):
            calls.append(args)
            if len(calls) == 2:
                raise StepFailure("incremental rotation reached pi")
            return original(*args)

        monkeypatch.setattr(assembly, "apply_increment", apply_increment)
        sim = Simulation(pendulum_model(n=10, degree=2))
        with pytest.raises(StepFailure):
            sim._attempt(5e-3)
        assert sim.total_iterations == len(calls) == 2

    def test_converged_check_builds_no_system(self, monkeypatch):
        # after an update the residual is judged on the row scales of the
        # system just solved, so a converged check builds no system; the
        # march is bit for bit that of a loop that assembles every time
        h, steps = 5e-3, 20
        oracle = Simulation(pendulum_model())
        oracle.newton = assembling_newton(oracle)
        expected = time_march(oracle, steps * h, h)
        sim = Simulation(pendulum_model())
        calls, counted = TestStacking.counter(monkeypatch)
        counted(sim, "_system")
        for name in ("residual_force", "tangent_blocks_force"):
            counted(assembly, name)
        traj = time_march(sim, steps * h, h)
        assert calls["tangent_blocks_force"] == \
            len(sim.stacks) * calls["_system"]
        assert calls["tangent_blocks_force"] < calls["residual_force"]
        assert traj.iterations == expected.iterations
        assert_bitwise(traj.probes["tip"], expected.probes["tip"])

    def test_python_calls_per_step(self):
        # a deterministic guard of the fixed cost of a step on a small
        # model: the Python-level calls per step that cProfile counts on the
        # model of the 10^4-step drift test (p = 2, 36 unknowns), against
        # 1,192 measured when the guard was set, plus 10 %
        import cProfile
        import pstats
        law = pendulum_law()
        sim = Simulation(BeamModel(
            build_patches([line_curve([0, 0, 0], [0, 1.0, 0], 2, 6)], law),
            supports=[Support(0, "start", "hinge")],
            loads=[DistributedLoad(0, LoadHistory.constant([0, 0, -0.8475]))]))
        h = 2e-4
        time_march(sim, 200 * h, h)
        profile = cProfile.Profile()
        profile.enable()
        time_march(sim, sim.t + 200 * h, h)
        profile.disable()
        calls = pstats.Stats(profile).total_calls / 200
        assert calls <= 1.1 * 1192, calls

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
        model = BeamModel(build_patches([curve], law),
                          probes=[Probe(0, 0.5, "mid")])
        sim = Simulation(model)
        v0 = np.array([0.3, -0.1, 0.2])
        sim.set_initial_velocity(v0)
        n_steps = 20
        h = 1e-2
        traj = time_march(sim, n_steps * h, h)
        expect = np.outer(traj.times, v0)
        assert np.abs(traj.probes["mid"] - expect).max() < 1e-12
        for rt in sim.stacks:
            assert np.abs(kin(rt.state)[2][0]).max() < 1e-12
            assert np.abs(kin(rt.state)[2][2]).max() < 1e-12

    def test_quiescent_persistence(self):
        law = pendulum_law()
        curve = line_curve([0, 0, 0], [0, 1.0, 0], degree=3, n=8)
        model = BeamModel(build_patches([curve], law),
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
                build_patches([curve], law),
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
            build_patches([line_curve([0, 0, 0], [0, 1.0, 0], 4, 21)], law),
            supports=[Support(0, "start", "hinge")],
            loads=[DistributedLoad(0, hist)],
            probes=[Probe(0, 1.0, "tip")])
        split = BeamModel(
            build_patches([line_curve([0, 0, 0], [0, 0.5, 0], 4, 11),
                           line_curve([0, 0.5, 0], [0, 1.0, 0], 4, 11)], law),
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
            build_patches([line_curve([0, 0, 0], [0, 0.5, 0], 3, 8),
                           line_curve([0, 0.5, 0], [0, 1.0, 0], 3, 8)], law),
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
        (sa, ja), (sb, jb) = patch_end(sim, 0, "end"), patch_end(sim, 1, "start")
        fa, _ = one_end(end_force_spatial, sa, law, h, ja, +1.0)
        fb, _ = one_end(end_force_spatial, sb, law, h, jb, -1.0)
        assert np.abs(fa + fb).max() < 1e-8
        # transmitted force equals the applied tip load up to the collocation
        # equilibrium error of the coarse patch
        np.testing.assert_allclose(-fb, [0, 0, 1e-3], atol=1e-6)

    def test_continuity_preserved_during_motion(self):
        law = pendulum_law()
        hist = LoadHistory.constant([0, 0, -0.8475])
        model = BeamModel(
            build_patches([line_curve([0, 0, 0], [0, 0.5, 0], 3, 8),
                           line_curve([0, 0.5, 0], [0, 1.0, 0], 3, 8)], law),
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


class TestTimeMarch:
    @pytest.mark.parametrize("t_end", [0.0124, 0.002, 0.0, -0.01])
    def test_span_not_whole_steps_rejected(self, t_end):
        # an end time between steps, before the first step or at the start
        # is an error, not a march that ends at another time
        sim = Simulation(pendulum_model(n=8, degree=2, probes=False))
        with pytest.raises(ValueError, match="whole number of steps"):
            time_march(sim, t_end, 5e-3)
        assert sim.t == 0.0 and sim.total_iterations == 0

    def test_rounded_span_accepted(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        assert step_count(0.3, 0.1) == 3
        assert step_count(10_000 * 2e-4, 2e-4) == 10_000
        sim = Simulation(pendulum_model(n=8, degree=2, probes=False))
        time_march(sim, 0.01, 5e-3)
        assert len(time_march(sim, 0.02, 5e-3).times) == 3


class TestStepControl:
    def test_step_halving_on_hard_step(self, monkeypatch):
        # brutal impulsive load on a soft beam: the full step fails and the
        # halving retry must carry the march through
        law = build_section_law(1e5, 0.3, [(9e5, 0.05)],
                                SectionGeometry.circle(0.01), 1100.0)
        curve = line_curve([0, 0, 0], [0, 0.5, 0], degree=3, n=10)
        model = BeamModel(build_patches([curve], law),
                          supports=[Support(0, "start", "clamp")],
                          end_loads=[EndLoad(0, "end",
                                             force=LoadHistory.constant(
                                                 [0, 0, -5.0]))],
                          probes=[Probe(0, 1.0, "tip")])
        sim = Simulation(model, NewtonSettings(max_iterations=8))
        attempts = []
        original = Simulation._attempt
        monkeypatch.setattr(Simulation, "_attempt", lambda self, h: (
            attempts.append(h) or original(self, h)))
        time_march(sim, 0.05, 0.025)
        assert sim.t == pytest.approx(0.05)
        assert 0.0125 in attempts
