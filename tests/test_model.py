import json
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

from gebvisc import initial_geometry, so3, splines
from gebvisc import model as model_module
from gebvisc.model import (BeamModel, DistributedLoad, EndLoad, Joint,
                           LoadHistory, Probe, Support,
                           _history_from_config, _member_curve, _rot_z,
                           build_auxetic, build_lattice, build_patches,
                           model_from_config, spiral_curve, spivak_curve)
from gebvisc.splines import (KnotVector, NurbsCurve, eval_many, greville,
                             line_curve)
from gebvisc.viscoelastic import SectionGeometry, build_section_law
from helpers import (FRAME_FIELDS, arc_length, assert_bitwise,
                     oracle_basis_matrices, oracle_bishop_frames,
                     oracle_fine_grid, oracle_fit_curvature, oracle_stencils,
                     oracle_transport, unit_law)

PLA = [(1.577e8, 0.02), (3.610e7, 0.18), (4.095e8, 17.0), (7.580e8, 117.0),
       (1.200e6, 1000.0), (5.800e6, 1600.0), (5.500e5, 1e4), (1.600e5, 1e5)]


def pla_law(diameter=0.8e-3):
    return build_section_law(2.80e5, 0.4, PLA,
                             SectionGeometry.circle(diameter), 1250.0)


def small_law():
    return build_section_law(1e6, 0.3, [], SectionGeometry.circle(0.01),
                             1000.0)


class TestLoadHistory:
    def test_constant(self):
        h = LoadHistory.constant([1.0, 0, 0])
        np.testing.assert_array_equal(h(0.0), h(5.0))

    def test_impulse_hold_release(self):
        h = LoadHistory.impulse_hold_release([0, 0, 500.0], 0.5)
        assert h(0.0)[2] == 500.0
        assert h(0.5)[2] == 500.0
        assert h(0.5001)[2] == 0.0

    def test_sine_ramp_hold(self):
        h = LoadHistory.sine_ramp_hold([0, 0, -1.0], 0.5)
        assert h(0.0)[2] == 0.0
        assert h(0.25)[2] == pytest.approx(-np.sin(np.pi * 0.25))
        assert h(0.5)[2] == pytest.approx(-1.0)
        assert h(3.0)[2] == -1.0

    def test_raised_sine_pulse(self):
        # matches -0.05 (1 - sin(4 pi t + pi/2)) with peak -0.1
        h = LoadHistory.raised_sine_pulse([0, 0, -0.1], 4 * np.pi, 2.0)
        assert h(0.0)[2] == pytest.approx(0.0)
        assert h(0.25)[2] == pytest.approx(-0.1)
        assert h(2.5)[2] == 0.0
        t = 0.37
        assert h(t)[2] == pytest.approx(-0.05 * (1 - np.sin(4 * np.pi * t
                                                            + np.pi / 2)))

    def test_table(self):
        h = LoadHistory.table([0.0, 1.0, 2.0],
                              [[0, 0, 0], [0, 0, 2.0], [0, 0, 0]])
        assert h(0.5)[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("cfg, built", [
        ({"kind": "constant", "value": [1.0, 0, 2.0]},
         LoadHistory.constant([1.0, 0, 2.0])),
        ({"kind": "impulse_hold_release", "value": [0, 0, 500.0],
          "t_off": 0.5}, LoadHistory.impulse_hold_release([0, 0, 500.0], 0.5)),
        ({"kind": "sine_ramp_hold", "value": [0, 0, -1.0], "t_ramp": 0.5},
         LoadHistory.sine_ramp_hold([0, 0, -1.0], 0.5)),
        ({"kind": "raised_sine_pulse", "peak": [0, 0, -0.1],
          "omega": 4 * np.pi, "t_end": 2.0},
         LoadHistory.raised_sine_pulse([0, 0, -0.1], 4 * np.pi, 2.0)),
        ({"kind": "table", "times": [0.0, 1.0, 2.0],
          "values": [[0, 0, 0], [0, 0, 2.0], [0, 0, 0]]},
         LoadHistory.table([0.0, 1.0, 2.0],
                           [[0, 0, 0], [0, 0, 2.0], [0, 0, 0]])),
    ])
    def test_config_matches_constructor(self, cfg, built):
        hist = _history_from_config(cfg)
        assert hist.kind == cfg["kind"]
        copy = pickle.loads(pickle.dumps(hist))
        for t in (0.0, 0.25, 0.5, 0.75, 2.5):
            np.testing.assert_array_equal(hist(t), built(t))
            np.testing.assert_array_equal(copy(t), built(t))

    @pytest.mark.parametrize("make", [
        lambda: LoadHistory.constant([0, 0, np.nan]),
        lambda: LoadHistory.constant([0, -1.0]),
        lambda: LoadHistory.impulse_hold_release([0, 0, 1.0], np.inf),
        lambda: LoadHistory.raised_sine_pulse([0, 0, 1.0], np.nan, 1.0),
        lambda: LoadHistory.table([0.0, np.nan], [[0, 0, 0], [0, 0, 1.0]]),
        lambda: LoadHistory.table([0.0, 1.0], [[0, 0, 0]]),
        lambda: LoadHistory.table([0.0, 1.0], [[0, 0], [0, 1.0]]),
        lambda: LoadHistory.table([0.0, 0.0], [[0, 0, 0], [0, 0, 1.0]]),
        lambda: LoadHistory.table([], np.zeros((0, 3))),
        # built directly, a table passes the same checks
        lambda: LoadHistory("table", np.zeros(3), times=np.array([1.0, 0.0]),
                            values=np.zeros((2, 3))),
        lambda: LoadHistory("table", np.zeros(3), times=[0.0, 1.0],
                            values=np.zeros((2, 2))),
        lambda: LoadHistory("table", np.zeros(3))],
        ids=["value_nan", "value_short", "param_inf", "param_nan", "times_nan",
             "table_length", "table_columns", "times_repeated",
             "table_empty", "direct_times_decreasing", "direct_table_columns",
             "direct_table_missing"])
    def test_invalid_numbers_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown load history kind"):
            LoadHistory("step", [0, 0, 1.0])(0.0)
        with pytest.raises(ValueError, match="unknown load history kind"):
            _history_from_config({"kind": "step", "value": [0, 0, 1.0]})

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown load history kind"):
            LoadHistory("bogus", [0, 0, 1.0])


class TestValidation:
    def test_joint_requires_coincident_ends(self):
        law = small_law()
        with pytest.raises(ValueError):
            BeamModel(build_patches([line_curve([0, 0, 0], [1, 0, 0], 2, 4),
                                     line_curve([2, 0, 0], [3, 0, 0], 2, 4)],
                                    law),
                      joints=[Joint(ends=[(0, "end"), (1, "start")])])

    def test_duplicate_support_rejected(self):
        law = small_law()
        p = build_patches([line_curve([0, 0, 0], [1, 0, 0], 2, 4)], law)[0]
        with pytest.raises(ValueError):
            BeamModel([p], supports=[Support(0, "start", "clamp"),
                                     Support(0, "start", "hinge")])

    def test_end_load_on_supported_end_rejected(self):
        law = small_law()
        p = build_patches([line_curve([0, 0, 0], [1, 0, 0], 2, 4)], law)[0]
        with pytest.raises(ValueError):
            BeamModel([p], supports=[Support(0, "start", "clamp")],
                      end_loads=[EndLoad(0, "start",
                                         force=LoadHistory.constant([1, 0, 0]))])

    def test_unknown_support_kind(self):
        with pytest.raises(ValueError):
            Support(0, "start", "pinned")

    def test_joint_with_two_supports_rejected(self):
        law = small_law()
        ps = build_patches([line_curve([0, 0, 0], [1, 0, 0], 2, 4),
                            line_curve([1, 0, 0], [2, 0, 0], 2, 4)], law)
        with pytest.raises(ValueError, match="at most one support"):
            BeamModel(ps, supports=[Support(0, "end", "hinge"),
                                    Support(1, "start", "roller_x3")],
                      joints=[Joint(ends=[(0, "end"), (1, "start")])])


    PUSH = LoadHistory.constant([1, 0, 0])

    # every end reference and probe of a two-patch chain is checked at
    # construction and a bad one raises ValueError, not an error of the
    # solver later
    @pytest.mark.parametrize("change", [
        dict(patches=[], supports=[], joints=[], probes=[]),
        dict(end_loads=[EndLoad(7, "end", force=PUSH)]),
        dict(end_loads=[EndLoad(1, "tip", force=PUSH)]),
        dict(probes=[Probe(9, 1.0, "tip")]),
        dict(probes=[Probe(1, 1.5, "tip")]),
        dict(probes=[Probe(1, 1.0, "tip"), Probe(0, 0.5, "tip")]),
        dict(joints=[Joint(ends=[(0, "end"), (-1, "start")])]),
        dict(joints=[Joint(ends=[(0, "end"), (5, "start")])]),
        dict(supports=[Support(0.0, "start", "clamp")]),
        dict(supports=[Support(True, "start", "clamp")]),
        dict(joints=[Joint(ends=[(0, "end"), (1.0, "start")])]),
        dict(end_loads=[EndLoad(True, "end", force=PUSH)]),
        dict(loads=[DistributedLoad(0.0, PUSH)]),
        dict(probes=[Probe(np.float64(1.0), 1.0, "tip")]),
    ], ids=["no_patches", "end_load_patch", "end_load_end", "probe_patch",
            "probe_u", "probe_name", "joint_negative_patch",
            "joint_patch_out_of_range", "support_patch_float",
            "support_patch_bool", "joint_patch_float", "end_load_patch_bool",
            "load_patch_float", "probe_patch_float"])
    def test_invalid_reference_rejected(self, change):
        law = small_law()
        parts = dict(
            patches=build_patches([line_curve([0, 0, 0], [1, 0, 0], 2, 4),
                                   line_curve([1, 0, 0], [2, 0, 0], 2, 4)],
                                  law),
            supports=[Support(0, "start", "clamp")],
            joints=[Joint(ends=[(0, "end"), (1, "start")])],
            probes=[Probe(1, 1.0, "tip")])
        BeamModel(**parts)
        parts.update(change)
        with pytest.raises(ValueError):
            BeamModel(**parts)


class TestLattice:
    def test_straight_lattice_counts_and_curvature(self):
        model = build_lattice(0.0, pla_law(), cells=5)
        assert len(model.patches) == 60  # 2 * 6 rows * 5 segments
        for p in model.patches:
            assert np.abs(p.frames.K0).max() < 1e-8  # differencing noise only
        # joints at all 36 vertices, hinges on the 20 boundary vertices
        assert len(model.joints) == 36
        assert len(model.supports) == 20

    def test_curved_lattice_arc_length_increases(self):
        law = pla_law()
        lengths = []
        for psi in (0.0, np.pi / 6, np.pi / 3):
            model = build_lattice(psi, law, cells=3)
            lengths.append(arc_length(model.patches[0].curve))
        assert lengths[0] < lengths[1] < lengths[2]
        assert lengths[0] == pytest.approx(0.012, rel=1e-9)

    def test_generator_deterministic(self):
        law = pla_law()
        a = build_lattice(np.pi / 6, law, cells=3)
        b = build_lattice(np.pi / 6, law, cells=3)
        for pa, pb in zip(a.patches, b.patches):
            np.testing.assert_array_equal(pa.curve.points, pb.curve.points)

    def test_rigid_rotation_equivariance(self):
        # rotating all control points of the model equals building from
        # rotated vertices: check that member shapes are congruent
        law = pla_law()
        model = build_lattice(np.pi / 6, law, cells=3)
        Q = so3.exp_so3([0.0, 0.0, 0.3])
        for p in model.patches[:5]:
            pts = p.curve.points
            rotated = pts @ Q.T
            # chord/arc invariants survive the rotation
            assert np.linalg.norm(rotated[-1] - rotated[0]) == pytest.approx(
                np.linalg.norm(pts[-1] - pts[0]))

    def test_psi_mirror_symmetry(self):
        # psi -> -psi mirrors the geometry across the grid plane axis
        law = pla_law()
        a = build_lattice(np.pi / 8, law, cells=2)
        mirror = np.diag([1.0, -1.0, 1.0])
        shift = np.array([0.0, 2 * 0.012, 0.0])

        def mirrored(points):
            return (points - shift / 2 * 0) @ mirror + shift

        # the first horizontal member of row 0 maps onto the last of row 2
        pa = a.patches[0].curve.points

        class _B:  # build with negative psi via the internal rotation
            pass
        import gebvisc.model as M
        b_member = M._member_curve(np.array([0.0, 2 * 0.012, 0.0]),
                                   np.array([0.012, 2 * 0.012, 0.0]), 3, 8,
                                   M._rot_z(-np.pi / 8), M._rot_z(-np.pi / 8))
        np.testing.assert_allclose(mirrored(pa), b_member.points, atol=1e-15)

    def test_load_targets_central_cell(self):
        law = pla_law()
        hist = LoadHistory.raised_sine_pulse([0, 0, -100.0], 4 * np.pi, 2.0)
        model = build_lattice(0.0, law, cells=3, load=hist)
        assert len(model.loads) == 4
        assert len(model.probes) == 1

    def test_psi_range_checked(self):
        with pytest.raises(ValueError):
            build_lattice(np.pi / 2, pla_law(), cells=2)

    @pytest.mark.parametrize("cells", [0, -1, 2.0, True])
    def test_cells_checked(self, cells):
        with pytest.raises(ValueError, match="cells must be an integer"):
            build_lattice(0.0, pla_law(), cells=cells)

    @pytest.mark.parametrize("size", [-0.01, 0.0, np.nan, np.inf])
    def test_cell_size_checked(self, size):
        with pytest.raises(ValueError, match="cell_size must be a finite"):
            build_lattice(0.0, pla_law(), cells=2, cell_size=size)


class TestAuxetic:
    def test_patch_count_is_120_at_default_dims(self):
        model = build_auxetic(0.0, pla_law(0.25e-3))
        assert len(model.patches) == 120

    def test_counts_small(self):
        model = build_auxetic(np.pi / 6, pla_law(0.25e-3), nx=1, ny=1)
        # columns 4*2 + faces 4*(4 diag + 2 top) = 8 + 24 = 32
        assert len(model.patches) == 32

    def test_bottom_supports_restrain_x3_only(self):
        model = build_auxetic(0.0, pla_law(0.25e-3), nx=2, ny=1)
        assert model.supports
        for s in model.supports:
            assert s.kind == "roller_x3"
            z = model.patches[s.patch].end_position(s.end)[2]
            assert abs(z) < 1e-12

    def test_loads_on_top_beams(self):
        hist = LoadHistory.raised_sine_pulse([0, 0, -24.1], 16 * np.pi, 0.25)
        model = build_auxetic(np.pi / 6, pla_law(0.25e-3), load=hist)
        assert len(model.loads) == 32
        for load in model.loads:
            p = model.patches[load.patch]
            assert p.end_position("start")[2] == pytest.approx(0.012)
            assert p.end_position("end")[2] == pytest.approx(0.012)

    def test_straight_diagonals_at_zero_psi(self):
        model = build_auxetic(0.0, pla_law(0.25e-3), nx=1, ny=1)
        for p in model.patches:
            assert np.abs(p.frames.K0).max() < 1e-9

    def test_curved_diagonals_at_positive_psi(self):
        model = build_auxetic(np.pi / 6, pla_law(0.25e-3), nx=1, ny=1)
        curved = sum(np.abs(p.frames.K0).max() > 1.0 for p in model.patches)
        assert curved == 16  # exactly the diagonals curve

    def test_psi_range_checked(self):
        with pytest.raises(ValueError):
            build_auxetic(0.9, pla_law(0.25e-3))

    @pytest.mark.parametrize("dims", [(0, 1), (-1, 1), (1, 0), (1, -1),
                                      (1.0, 1)])
    def test_dims_checked(self, dims):
        name = "nx" if dims[0] != 1 or isinstance(dims[0], float) else "ny"
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            build_auxetic(0.0, pla_law(0.25e-3), nx=dims[0], ny=dims[1])

    @pytest.mark.parametrize("size", [-0.01, 0.0, np.nan, np.inf])
    def test_cell_size_checked(self, size):
        with pytest.raises(ValueError, match="cell_size must be a finite"):
            build_auxetic(0.0, pla_law(0.25e-3), nx=1, ny=1, cell_size=size)


class TestNetworkTopology:
    """Patch count, joints (ends in order), supports, loaded patches and
    probe of small generated networks, recorded from the generators."""
    RECORDED = json.loads((pathlib.Path(__file__).parent / "data"
                           / "generator_topology.json").read_text())

    @pytest.mark.parametrize("psi", [0.0, np.pi / 6],
                             ids=["straight", "curved"])
    @pytest.mark.parametrize("name, build, dims", [
        ("lattice 2", build_lattice, {"cells": 2}),
        ("auxetic 1x1", build_auxetic, {"nx": 1, "ny": 1}),
        ("auxetic 2x1", build_auxetic, {"nx": 2, "ny": 1})],
        ids=["lattice2", "auxetic1x1", "auxetic2x1"])
    def test_matches_recorded(self, name, build, dims, psi):
        model = build(psi, small_law(), **dims,
                      load=LoadHistory.constant([0, 0, -1.0]))
        topology = {
            "patches": len(model.patches),
            "joints": [[[p, end] for p, end in j.ends] for j in model.joints],
            "supports": [[s.patch, s.end, s.kind] for s in model.supports],
            "loads": [load.patch for load in model.loads],
            "probes": [[p.patch, p.u, p.name] for p in model.probes]}
        assert topology == self.RECORDED[name]


class TestConfig:
    def test_round_trip_minimal(self):
        cfg = {
            "version": 1,
            "material": {"E_inf": 5e5, "nu": 0.5, "rho": 1100.0,
                         "elements": [{"E": 4.5e6, "tau": 0.1}]},
            "section": {"type": "circle", "diameter": 0.01},
            "patches": [{"generator": "line",
                         "params": {"start": [0, 0, 0], "end": [0, 1, 0]},
                         "degree": 4, "n": 12}],
            "supports": [{"patch": 0, "end": "start", "type": "hinge"}],
            "loads": [{"target": {"kind": "distributed", "patch": 0},
                       "history": {"kind": "constant",
                                   "value": [0, 0, -0.8475]}}],
            "time": {"h": 5e-3, "T": 0.1},
            "output": {"probes": [{"patch": 0, "u": 1.0, "name": "tip"}]},
        }
        model, extras = model_from_config(cfg)
        assert len(model.patches) == 1
        assert model.patches[0].n == 12
        assert extras["time"]["h"] == 5e-3
        assert model.probes[0].name == "tip"

    def test_section_types(self):
        # a custom section may name its type or leave it out
        custom = {"A": 1e-4, "Jt": 2e-9, "J2": 1e-9, "J3": 1e-9}
        cfg = {"version": 1,
               "material": {"E_inf": 5e5, "nu": 0.5, "rho": 1100.0},
               "patches": [{"generator": "line", "degree": 2, "n": 6,
                            "params": {"start": [0, 0, 0],
                                       "end": [0, 1, 0]}}]}
        laws = [model_from_config(dict(cfg, section=section))[0]
                .patches[0].law for section in (custom,
                                                dict(custom, type="custom"))]
        assert laws[0] == laws[1]
        with pytest.raises(ValueError, match="'custom_'"):
            model_from_config(dict(cfg, section=dict(custom, type="custom_")))

    def test_unsupported_version(self):
        with pytest.raises(ValueError):
            model_from_config({"version": 99, "material": {}, "section": {},
                               "patches": []})


class TestAnalyticCurves:
    def test_spivak_endpoints(self):
        c = spivak_curve(degree=4, n=40)
        np.testing.assert_allclose(eval_many([c], [0.0, 1.0])[0][0],
                                   [[-2.0, 0.0, np.exp(-0.25)],
                                    [3.0, np.exp(-1.0 / 9.0), 0.0]], atol=1e-12)

    def test_spiral_length(self):
        c = spiral_curve(degree=6, n=250, scale=0.01)
        assert arc_length(c) == pytest.approx(1.5846, abs=2e-4)


def lattice_member(i, j, psi, cell_size=0.012):
    """Horizontal member (i, j) -> (i + 1, j) of ``build_lattice``."""
    Rz = _rot_z(psi)
    return _member_curve(np.array([i * cell_size, j * cell_size, 0.0]),
                         np.array([(i + 1) * cell_size, j * cell_size, 0.0]),
                         3, 8, Rz, Rz)


def rational_arc():
    """Rational quadratic semicircle of radius 1 with a double knot at 0.5."""
    kv = KnotVector(2, [0, 0, 0, 0.5, 0.5, 1, 1, 1])
    w = np.sqrt(0.5)
    return NurbsCurve(kv, [[1, 0, 0], [1, 1, 0], [0, 1, 0], [-1, 1, 0],
                           [-1, 0, 0]], weights=[1.0, w, 1.0, w, 1.0])


class TestPatchSetup:
    """Patches are set up in groups that share degree, knots and weights.
    A patch equals a point-by-point set-up of its curve alone, bit for bit,
    whatever group it was set up in."""

    # the spiral and the member (patch 18 of the 5x5 lattice at psi = 0.5236)
    # have Jacobians whose cubes numpy's vectorized power rounds differently;
    # the spivak curve passes through its flat point, and the auxetic
    # diagonal (patch 8 of the 1x1 auxetic) runs out of the x1-x2 plane
    @pytest.mark.parametrize("curve", [
        lambda: spiral_curve(degree=6, n=100, scale=0.01),
        lambda: lattice_member(3, 3, 0.5236),
        rational_arc,
        lambda: spivak_curve(degree=6, n=150),
        lambda: build_auxetic(0.0, unit_law(), nx=1, ny=1).patches[8].curve,
    ], ids=["spiral_p6", "lattice_member_p3", "rational_arc", "spivak_p6",
            "auxetic_member_p3"])
    def test_matches_pointwise_setup(self, curve, monkeypatch):
        curve = curve()
        patch = build_patches([curve], unit_law())[0]
        grids, stacks = [], []

        def oracle_fills(kv, us, max_deriv=0, weights=None):
            grids.append(len(us))
            return iter(oracle_basis_matrices(kv, us, max_deriv, weights))

        def oracle_rows(points, tangents, d0):
            stacks.append(len(points))
            return np.stack([oracle_transport(*row)
                             for row in zip(points, tangents, d0)])

        def oracle_fits(s_eval, s_mid, k_mid):
            fits = [oracle_fit_curvature(*row)
                    for row in zip(s_eval, s_mid, k_mid)]
            return tuple(np.stack(f) for f in zip(*fits))

        with monkeypatch.context() as m:
            m.setattr(splines, "_basis_fills", oracle_fills)
            m.setattr(initial_geometry, "_fine_grid", oracle_fine_grid)
            m.setattr(initial_geometry, "_transport_double_reflection",
                      oracle_rows)
            m.setattr(initial_geometry, "_fit_curvature", oracle_fits)
            frames = build_patches([curve], unit_law())[0].frames
        # the grouped set-up ran, as a group of one, on the oracles
        assert grids and stacks == [1]
        assert_same_setup(patch, frames, curve)

    @pytest.mark.parametrize("build, groups", [
        (lambda: build_lattice(0.0, unit_law(), cells=3), [24]),
        (lambda: build_lattice(0.5236, unit_law(), cells=3), [24]),
        (lambda: build_auxetic(0.0, unit_law(), nx=2, ny=1), [54]),
        (lambda: build_auxetic(np.pi / 6, unit_law(), nx=2, ny=1), [54]),
        (lambda: model_from_config(three_group_config())[0], [2, 1, 1]),
    ], ids=["lattice_psi0", "lattice_psi0.5236", "auxetic_psi0",
            "auxetic_psi_pi6", "config_three_groups"])
    def test_group_matches_alone_and_oracle(self, build, groups,
                                            monkeypatch):
        # the auxetic's straight columns and curved diagonals share a group;
        # the configuration has two knot vectors and one rational curve
        sizes = []

        def counted(curves, *args, **kwargs):
            sizes.append(len(curves))
            return initial_geometry.bishop_frames(curves, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(model_module, "bishop_frames", counted)
            model = build()
        assert sizes == groups
        for p in model.patches:
            alone = build_patches([p.curve], p.law)[0]
            assert_same_setup(p, alone.frames, p.curve)
            for name in ("support_idx", "phi0", "phi1", "phi2"):
                assert_bitwise(getattr(p, name), getattr(alone, name))
            n = p.curve.kv.n
            oracle = oracle_bishop_frames(p.curve, greville(p.curve.kv),
                                          min_total=max(10 * n, 100))
            assert_same_setup(p, oracle, p.curve)

    def test_setup_digest_independent_of_blas_threads(self):
        # lattice3 and the auxetic; the spiral and the spivak curve come
        # from a dense interpolation solve whose bits follow the threads
        code = ("from gebvisc.scenarios import build_scenario\n"
                "from helpers import setup_digest\n"
                "print(setup_digest(build_scenario('lattice', {'cells': 3,"
                " 'psi': 0.5236})[0]), setup_digest(build_scenario("
                "'auxetic', {})[0]))")
        tests = pathlib.Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(out.stdout.split())
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]


def three_group_config():
    """Configuration of four patches in three set-up groups: two cubic
    curves on one knot vector, a quartic line and a rational arc."""
    arc = rational_arc()
    return {
        "material": {"E_inf": 1e6, "nu": 0.3, "rho": 1000.0},
        "section": {"type": "circle", "diameter": 0.01},
        "patches": [
            {"generator": "line", "degree": 3, "n": 8,
             "params": {"start": [0, 0, 0], "end": [1, 0, 0]}},
            {"generator": "line", "degree": 4, "n": 9,
             "params": {"start": [1, 0, 0], "end": [1, 1, 0]}},
            {"degree": 2, "knots": arc.kv.knots.tolist(),
             "control_points": arc.points.tolist(),
             "weights": arc.weights.tolist()},
            {"degree": 3,
             "knots": KnotVector.open_uniform(3, 8).knots.tolist(),
             "control_points": lattice_member(0, 0, 0.5236).points.tolist()},
        ]}


def assert_same_setup(patch, frames, curve):
    """``patch`` has the frame field ``frames`` and the stencils of the
    oracle, bit for bit."""
    for name in FRAME_FIELDS:
        assert_bitwise(getattr(patch.frames, name), getattr(frames, name))
    first, phi0, phi1, phi2 = oracle_stencils(curve, frames)
    assert_bitwise(patch.support_idx[:, 0], first)
    assert_bitwise(patch.phi0, phi0)
    assert_bitwise(patch.phi1, phi1)
    assert_bitwise(patch.phi2, phi2)
