import json
import os

import numpy as np
import pytest

from gebvisc.assembly import NewtonSettings, Simulation, time_march
from gebvisc.cli import (fit_preplateau_slope, main, run_convergence,
                         run_scenario)
from gebvisc.integrator import StepFailure
from gebvisc.output import write_history_csv, write_vtk_snapshot
from gebvisc.scenarios import (PLA_ELEMENTS, PLA_E_INF, PLA_NU, PLA_RHO,
                               SCENARIO_DEFAULTS, build_scenario, pla_law)

from helpers import oracle_vtk_snapshot, read_history_csv, read_vtk_points

# published benchmark values the scenario defaults must reproduce
EXPECTED_DEFAULTS = {
    "pendulum": {"length": 1.0, "diameter": 0.01, "rho": 1100.0, "nu": 0.5,
                 "E_inf": 5.0e5, "elements": ((4.5e6, 0.1),),
                 "q3": -0.8475, "T": 2.0, "h": 5.0e-3},
    "cantilever": {"length": 1.0, "side": 0.01, "rho": 7800.0, "nu": 0.2,
                   "E_inf": 2.1e10, "elements": ((1.89e11, 0.1),),
                   "F3": -100.0, "T": 0.5, "h": 5.0e-4},
    "spivak": {"side": 0.1, "rho": 700.0, "nu": 0.0, "E_inf": 5.614e8,
               "elements": ((7.439e9, 0.1),), "F3": 500.0, "t_off": 0.5,
               "T": 6.0, "h": 1.0e-3, "degree": 6, "n": 150},
    "spiral": {"radius": 0.25e-2, "F3": -1.0, "t_ramp": 0.5, "T": 4.0,
               "h": 5.0e-3, "degree": 6, "n": 250},
    "lattice": {"cells": 5, "cell_size": 0.012, "omega": 4.0 * np.pi,
                "t_load": 2.0, "T": 4.0, "h": 5.0e-3},
    "auxetic": {"nx": 5, "ny": 1, "cell_size": 0.012, "diameter": 0.25e-3,
                "q3": -24.1, "omega": 16.0 * np.pi, "t_load": 0.25},
}

EXPECTED_PLA = ((1.577e8, 0.02), (3.610e7, 0.18), (4.095e8, 17.0),
                (7.580e8, 117.0), (1.200e6, 1000.0), (5.800e6, 1600.0),
                (5.500e5, 1.0e4), (1.600e5, 1.0e5))


class TestScenarioDefaults:
    @pytest.mark.parametrize("name", sorted(EXPECTED_DEFAULTS))
    def test_defaults_match_benchmark_table(self, name):
        defaults = SCENARIO_DEFAULTS[name]
        for key, val in EXPECTED_DEFAULTS[name].items():
            assert defaults[key] == val, f"{name}.{key}"

    def test_pla_table(self):
        assert PLA_ELEMENTS == EXPECTED_PLA
        assert PLA_E_INF == 2.80e5
        assert PLA_NU == 0.4
        assert PLA_RHO == 1250.0

    def test_pendulum_weight_consistent(self):
        # q3 equals -mu g for the printed density and diameter
        law = build_scenario("pendulum")[0].patches[0].law
        assert SCENARIO_DEFAULTS["pendulum"]["q3"] == pytest.approx(
            -law.mu * 9.81, rel=1e-3)

    def test_elastic_flag_uses_instantaneous_modulus(self):
        model, _ = build_scenario("spiral", {"elastic": True, "n": 30,
                                             "degree": 3})
        law = model.patches[0].law
        assert law.n_elements == 0
        E0 = PLA_E_INF + sum(E for E, _ in PLA_ELEMENTS)
        A = np.pi * 0.005 ** 2 / 4
        assert law.CN0[0] == pytest.approx(E0 * A)

    @pytest.mark.parametrize("name, overrides", [
        ("pendulum", {"cells": 3}), ("lattice", {"cells": 3.0}),
        ("pendulum", {"degree": 3.0}), ("pendulum", {"n": True}),
        ("pendulum", {"T": "2"}), ("pendulum", {"elastic": "yes"})],
        ids=["unknown", "float_cells", "float_degree", "bool_n", "str_T",
             "str_elastic"])
    def test_unknown_override_rejected(self, name, overrides):
        with pytest.raises(ValueError, match=next(iter(overrides))):
            build_scenario(name, overrides)


class TestOutputs:
    def test_history_csv_schema_and_rows(self, tmp_path):
        _, traj, _ = run_scenario("pendulum", {"T": 0.05, "n": 12,
                                               "degree": 3},
                                  out_dir=str(tmp_path))
        header, data = read_history_csv(tmp_path / "history.csv")
        assert header == ["t", "tip.u1", "tip.u2", "tip.u3"]
        assert data.shape == (11, 4)  # initial row plus one per step
        assert data[0, 0] == 0.0
        assert data[-1, 0] == pytest.approx(0.05)
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["steps"] == 10
        assert meta["newton_iterations_total"] > 0

    def test_failed_run_keeps_committed_history(self, tmp_path,
                                                 monkeypatch):
        h, k = 5e-3, 4
        advance = Simulation.advance

        def fail_at_step_k(sim, h_step, depth=0):
            if round(sim.t / h) == k:
                raise StepFailure("forced failure")
            advance(sim, h_step, depth)

        monkeypatch.setattr(Simulation, "advance", fail_at_step_k)
        with pytest.raises(StepFailure):
            run_scenario("pendulum", {"T": 0.05, "h": h, "n": 12,
                                      "degree": 3}, out_dir=str(tmp_path))
        _, data = read_history_csv(tmp_path / "history.csv")
        assert data.shape == (k + 1, 4)  # initial row plus committed steps
        np.testing.assert_allclose(data[:, 0], h * np.arange(k + 1))
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["steps"] == k
        assert meta["newton_iterations_total"] > 0
        assert meta["failure"] == "forced failure"

    def test_vtk_round_trip(self, tmp_path):
        sim, traj, _ = run_scenario("pendulum", {"T": 0.02, "n": 12,
                                                 "degree": 3})
        path = tmp_path / "snap.vtk"
        write_vtk_snapshot(path, sim, samples_per_patch=200)
        pts, disp = read_vtk_points(path)
        assert pts.shape == (200, 3)
        cur, ini = sim.sample_curve(0, 200)
        np.testing.assert_allclose(pts, cur, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(disp, cur - ini, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("name, overrides", [
        ("lattice", {"cells": 3, "psi": 0.5236, "T": 0.025}),
        ("pendulum", {"T": 0.025})], ids=["lattice3", "pendulum"])
    def test_vtk_matches_per_value_writer(self, tmp_path, name, overrides):
        # five steps, so the displacements are not all zero
        sim, _, _ = run_scenario(name, overrides)
        write_vtk_snapshot(tmp_path / "snap.vtk", sim)
        oracle_vtk_snapshot(tmp_path / "ref.vtk", sim)
        data = (tmp_path / "snap.vtk").read_bytes()
        assert data == (tmp_path / "ref.vtk").read_bytes()
        assert b"nan" not in data

    def test_initial_lattice_snapshot_matches_generator(self, tmp_path):
        from gebvisc.model import build_lattice
        model = build_lattice(np.pi / 6, pla_law(0.8e-3), cells=2, n_ctrl=6)
        sim = Simulation(model)
        path = tmp_path / "lattice.vtk"
        write_vtk_snapshot(path, sim, samples_per_patch=20)
        pts, disp = read_vtk_points(path)
        assert np.abs(disp).max() == 0.0
        cur, ini = sim.sample_curve(0, 20)
        np.testing.assert_allclose(pts[:20], ini, atol=1e-12)


class TestCliCommands:
    def test_run_and_snapshot(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["run", "pendulum", "--T", "0.05", "--n", "12", "--p", "3",
                   "--out", str(out), "--snapshots", "0.05"])
        assert rc == 0
        assert (out / "history.csv").exists()
        assert (out / "run.json").exists()
        assert (out / "snapshot_t0.050.vtk").exists()

    def test_initial_and_final_snapshots(self, tmp_path):
        # t = 0 is the initial state, before any step; a time within h/2
        # of T is the end state
        out = tmp_path / "run"
        assert main(["run", "pendulum", "--T", "0.02", "--n", "12", "--p",
                     "3", "--out", str(out), "--snapshots", "0,0.022"]) == 0
        sim = Simulation(build_scenario("pendulum", {"n": 12,
                                                     "degree": 3})[0])
        cur, ini = sim.sample_curve(0, 200)
        pts, disp = read_vtk_points(out / "snapshot_t0.000.vtk")
        assert np.abs(disp).max() == 0.0
        np.testing.assert_allclose(pts, ini, rtol=1e-9, atol=1e-12)
        _, disp = read_vtk_points(out / "snapshot_t0.022.vtk")
        assert np.abs(disp).max() > 0.0

    @pytest.mark.parametrize("times", ["0.005,abc", "nan", "0.01,inf", "-1",
                                       "-0.001", "0.0526", "5",
                                       "0.0005,0.001,0.0015"],
                             ids=["not_a_number", "nan", "inf", "negative",
                                  "just_below_zero", "beyond_end",
                                  "far_beyond_end", "same_file_name"])
    def test_invalid_snapshot_times_rejected(self, tmp_path, capsys, times):
        # a time that no state of the run lies within h/2 of is rejected, as
        # are times whose snapshots would be written to one file
        out = tmp_path / "run"
        assert main(["run", "pendulum", "--T", "0.05", "--out", str(out),
                     "--snapshots", times]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("times", [[5.0], [0.0, -1.0], [float("nan")],
                                       [0.01, 0.0104]],
                             ids=["beyond_end", "negative", "nan",
                                  "same_file_name"])
    def test_library_rejects_snapshot_times(self, tmp_path, times):
        # a library caller gets the check of the command line, before any
        # step or file
        out = tmp_path / "run"
        out.mkdir()
        with pytest.raises(ValueError, match="snapshot times"):
            run_scenario("pendulum", {"T": 0.02}, str(out),
                         snapshot_times=times)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, time", [
        (["pendulum", "--h", "0"], None),
        (["pendulum", "--h", "-0.005"], None),
        (["pendulum", "--T", "-1"], None), (["pendulum", "--T", "0"], None),
        (["pendulum", "--h", "nan"], None), (["pendulum", "--T", "inf"], None),
        (["custom", "--h", "0"], None), (["custom", "--T", "nan"], None),
        (["custom"], {"h": 0.0, "T": 5e-3}),
        (["custom"], {"h": 5e-3, "T": -1.0}),
        (["custom"], {"h": float("inf"), "T": 5e-3}),
        (["custom"], {"h": "5e-3", "T": 5e-3}),
        (["pendulum", "--T", "0.0124"], None),
        (["pendulum", "--T", "0.002"], None),
        (["pendulum", "--h", "0.003", "--T", "0.01"], None),
        (["custom", "--T", "0.0124"], None),
        (["custom"], {"h": 5e-3, "T": 0.0124})],
        ids=["h_zero", "h_negative", "T_negative", "T_zero", "h_nan", "T_inf",
             "custom_h_zero", "custom_T_nan", "config_h_zero",
             "config_T_negative", "config_h_inf", "config_h_text",
             "T_between_steps", "T_below_h", "h_not_dividing_T",
             "custom_T_between_steps", "config_T_between_steps"])
    def test_invalid_time_rejected(self, tmp_path, capsys, argv, time):
        # a time step or end time that is not a finite number > 0, or an
        # end time that is not a whole number of steps, is found before any
        # output, whether a flag or the configuration sets it
        if argv[0] == "custom":
            cfg = self.short_config({})
            cfg["time"] = time or cfg["time"]
            path = tmp_path / "model.json"
            path.write_text(json.dumps(cfg))
            argv = argv + ["--config", str(path)]
        out = tmp_path / "run"
        assert main(["run", *argv, "--out", str(out)]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change", [{"h": 0}, {"h": -5e-3},
                                        {"t_eval": float("nan")},
                                        {"t_eval": 0.0}, {"t_eval": 0.0124},
                                        {"h": 0.03}],
                             ids=["h_zero", "h_negative", "t_eval_nan",
                                  "t_eval_zero", "t_eval_between_steps",
                                  "h_not_dividing_t_eval"])
    def test_invalid_study_time_rejected(self, tmp_path, capsys, change):
        study = {"scenario": "pendulum", "pairs": [[2, 8]],
                 "reference": [4, 40], "t_eval": 0.05, "h": 5e-3, **change}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(study))
        out = tmp_path / "conv"
        assert main(["converge", "--config", str(path), "--out",
                     str(out)]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, names", [
        ({"scenario": "custom"}, "'custom'"),
        ({"scenario": "pendulm"}, "'pendulm'"),
        ({"overrides": {"cells": 3}}, "'cells'"),
        ({"overrides": {"diameter": "0.01"}}, "'diameter'"),
        ({"pairs": [[2, 8], [2, 12.5]]}, "'n'"),
        ({"pairs": [[2.0, 8], [2.0, 12]]}, "'degree'"),
        ({"reference": [4, 40.0]}, "'n'"),
        ({"probe_point": 11}, "'probe_point'"),
        ({"pairs": [[2, 2], [2, 8]]}, "n > degree"),
        ({"reference": [0, 40]}, "degree >= 1"),
        ({"pairs": [[2, 8]]}, "two distinct n"),
        ({"pairs": [[2, 8], [2, 8], [3, 8], [3, 12]]}, "two distinct n"),
        # each run sets its own degree, n, h and T
        ({"overrides": {"degree": 7}}, "'degree'"),
        ({"overrides": {"n": 5}}, "'n'"),
        ({"overrides": {"h": 1.0}}, "'h'"),
        ({"overrides": {"T": 9.0}}, "'T'"),
        # the elastic flag is true or false, not read by truthiness
        ({"overrides": {"elastic": "false"}}, "'elastic'"),
        ({"overrides": {"elastic": 1}}, "'elastic'"),
        ({"overrides": {"elastic": [1]}}, "'elastic'"),
    ], ids=["custom", "unknown_scenario", "unknown_override",
            "override_type", "pair_n_float", "pair_degree_float",
            "reference_n_float", "unknown_key", "n_not_above_degree",
            "degree_zero", "one_pair", "one_distinct_n", "override_degree",
            "override_n", "override_h", "override_T", "elastic_str",
            "elastic_int", "elastic_list"])
    def test_invalid_study_rejected(self, tmp_path, capsys, change, names):
        # every run's scenario and overrides, the study's keys and a slope
        # for every degree are checked before any run or output: a bad pair
        # is found before the reference run, not after it
        study = {"scenario": "pendulum", "pairs": [[2, 8], [2, 12]],
                 "reference": [4, 40], "t_eval": 0.05, "h": 5e-3, **change}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(study))
        out = tmp_path / "conv"
        assert main(["converge", "--config", str(path), "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and names in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["pendulum", "lattice"])
    def test_negative_diameter_rejected(self, tmp_path, capsys, scenario):
        out = tmp_path / "run"
        assert main(["run", scenario, "--diameter", "-0.01", "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "diameter" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["custom", "--elastic"], ["custom", "--psi", "0.3"],
        ["custom", "--p", "7"], ["custom", "--n", "0"],
        ["custom", "--elastic", "--psi", "0.3", "--p", "7"], ["pendulum"]],
        ids=["custom_elastic", "custom_psi", "custom_degree", "custom_n_zero",
             "custom_all", "named_with_config"])
    def test_ignored_option_rejected(self, tmp_path, capsys, argv):
        # 'custom' takes its model from the configuration and a named
        # scenario takes no configuration: an option the run would not
        # apply is an error, not a silent default
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.short_config({})))
        out = tmp_path / "run"
        assert main(["run", *argv, "--config", str(path), "--out",
                     str(out)]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_time_overrides_applied(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.short_config({})))
        out = tmp_path / "run"
        assert main(["run", "custom", "--config", str(path), "--h", "2.5e-3",
                     "--T", "1e-2", "--out", str(out)]) == 0
        _, data = read_history_csv(out / "history.csv")
        np.testing.assert_allclose(data[:, 0], 2.5e-3 * np.arange(5))

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = {
            "version": 1,
            "material": {"E_inf": 1e6, "nu": 0.3, "rho": 1000.0},
            "section": {"type": "circle", "diameter": 0.01},
            "patches": [{"generator": "line",
                         "params": {"start": [0, 0, 0], "end": [1, 0, 0]},
                         "degree": 2, "n": 5}],
            "supports": [{"patch": 0, "end": "start", "type": "clamp"}],
        }
        path = tmp_path / "good.json"
        path.write_text(json.dumps(good))
        assert main(["validate", "--config", str(path)]) == 0
        bad = dict(good)
        bad["supports"] = [{"patch": 5, "end": "start", "type": "clamp"}]
        path_bad = tmp_path / "bad.json"
        path_bad.write_text(json.dumps(bad))
        assert main(["validate", "--config", str(path_bad)]) == 2

    def test_run_custom_config(self, tmp_path):
        cfg = {
            "version": 1,
            "material": {"E_inf": 5e5, "nu": 0.5, "rho": 1100.0,
                         "elements": [{"E": 4.5e6, "tau": 0.1}]},
            "section": {"type": "circle", "diameter": 0.01},
            "patches": [{"generator": "line",
                         "params": {"start": [0, 0, 0], "end": [0, 1, 0]},
                         "degree": 3, "n": 10}],
            "supports": [{"patch": 0, "end": "start", "type": "hinge"}],
            "loads": [{"target": {"kind": "distributed", "patch": 0},
                       "history": {"kind": "constant",
                                   "value": [0, 0, -0.8475]}}],
            "time": {"h": 5e-3, "T": 0.02},
            "output": {"probes": [{"patch": 0, "u": 1.0, "name": "tip"}]},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["run", "custom", "--config", str(path), "--out", str(out)])
        assert rc == 0
        header, data = read_history_csv(out / "history.csv")
        assert data.shape[0] == 5

    @staticmethod
    def short_config(newton):
        return {
            "version": 1,
            "material": {"E_inf": 5e5, "nu": 0.5, "rho": 1100.0},
            "section": {"type": "circle", "diameter": 0.01},
            "patches": [{"generator": "line",
                         "params": {"start": [0, 0, 0], "end": [0, 1, 0]},
                         "degree": 2, "n": 6}],
            "supports": [{"patch": 0, "end": "start", "type": "hinge"}],
            "loads": [{"target": {"kind": "distributed", "patch": 0},
                       "history": {"kind": "constant",
                                   "value": [0, 0, -0.8475]}}],
            "time": {"h": 5e-3, "T": 5e-3},
            "newton": newton,
        }

    def test_custom_config_newton_section(self):
        section = {"max_iterations": 12, "tol_increment": 1e-9}
        sim, _, _ = run_scenario("custom", config=self.short_config(section))
        assert sim.settings == NewtonSettings(**section)
        # an explicit settings argument takes precedence over the section
        given = NewtonSettings(max_iterations=5)
        sim, _, _ = run_scenario("custom", config=self.short_config(section),
                                 settings=given)
        assert sim.settings is given

    @pytest.mark.parametrize("section", [{"max_iters": 12},
                                         {"max_iterations": 0},
                                         {"max_iterations": 10.5},
                                         {"max_halvings": 2.5},
                                         {"retry_increment_cap": 0.3},
                                         {"tol_residual": np.inf},
                                         {"tol_increment": np.nan},
                                         {"max_iterations": True}])
    def test_invalid_newton_section_rejected(self, tmp_path, capsys, section):
        cfg = self.short_config(section)
        with pytest.raises(ValueError):
            run_scenario("custom", config=cfg)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_validate_reports_mistyped_setting(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.short_config(
            {"max_iterations": "10"})))
        assert main(["validate", "--config", str(path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_run_custom_reports_invalid_configuration(self, tmp_path,
                                                      capsys):
        for k, section in enumerate([{"max_iters": 3},
                                     {"max_iterations": 10.5}]):
            path = tmp_path / f"model{k}.json"
            path.write_text(json.dumps(self.short_config(section)))
            out = tmp_path / f"out{k}"
            rc = main(["run", "custom", "--config", str(path), "--out",
                       str(out)])
            assert rc == 2
            assert "invalid configuration" in capsys.readouterr().err
            # found before any step: no history is written
            assert not (out / "history.csv").exists()

    TABLE = {"kind": "table", "times": [0.0, 1.0],
             "values": [[0, 0, 0], [0, 0, -1.0]]}
    #: a straight explicit patch of degree 2 along x2
    NURBS = {"degree": 2, "knots": [0, 0, 0, 0.5, 1, 1, 1],
             "control_points": [[0, 0, 0], [0, 0.25, 0], [0, 0.75, 0],
                                [0, 1, 0]]}

    @pytest.mark.parametrize("change", [
        {"material": {"E_inf": np.nan}}, {"material": {"rho": np.inf}},
        {"section": {"diameter": np.nan}},
        {"material": {"elements": [{"E": 4.5e6, "tau": np.nan}]}},
        {"history": dict(TABLE, values=[[0, 0, 0]])},
        {"history": dict(TABLE, values=[[0, 0], [0, -1.0]])},
        {"history": dict(TABLE, times=[1.0, 0.0])},
        {"history": dict(TABLE, values=[[0, 0, 0], [0, 0, np.inf]])},
        {"history": {"kind": "constant", "value": [0, -1.0]}},
        {"patch": {"generator": "line", "degree": 2, "n": 6,
                   "params": {"start": [0, 0, 0], "end": [0, np.nan, 0]}},
         "names": "finite control points"},
        {"patch": dict(NURBS, knots=[0, 0, 0, np.nan, 1, 1, 1]),
         "names": "knots must be finite"},
        {"patch": dict(NURBS, weights=[1, np.inf, 1, 1]),
         "names": "weights must be finite"},
        {"section": {"diameter": -0.01}, "names": "diameter"},
        {"section": {"type": "square", "side": -0.01}, "names": "side"},
        {"supports": [{"patch": 0.0, "end": "start", "type": "hinge"}],
         "names": "support patch must be an integer"},
        {"supports": [{"patch": False, "end": "start", "type": "hinge"}],
         "names": "support patch must be an integer"},
        {"loads": [{"target": {"kind": "distributed", "patch": 0.0},
                    "history": {"kind": "constant", "value": [0, 0, -1.0]}}],
         "names": "distributed load patch must be an integer"},
        {"output": {"probes": [{"patch": 0.0, "u": 1.0, "name": "tip"}]},
         "names": "probe 'tip' patch must be an integer"},
        {"patch": dict(NURBS, degree=2.7),
         "names": "degree must be an integer"},
        {"patch": {"generator": "line", "degree": 2, "n": 8.5,
                   "params": {"start": [0, 0, 0], "end": [0, 1, 0]}},
         "names": "n must be an integer"},
        {"section": {"type": "circel"}, "names": "unknown section type 'circel'"},
        {"output": {"probes": [{"patch": 0, "u": True, "name": "tip"}]},
         "names": "probe 'tip'"},
        {"output": {"probes": [{"patch": 0, "u": "1.0", "name": "tip"}]},
         "names": "probe 'tip'"},
        {"top": {"time": {"h": 5e-3, "t_end": 0.01}}, "names": "'t_end'"},
        {"top": {"outputs": {"probes": [{"patch": 0, "u": 1.0}]}},
         "names": "'outputs'"},
        {"top": {"time": {"h": True, "T": True}},
         "names": "T must be a finite number > 0, got True"},
        {"top": {"time": {"h": True, "T": 5e-3}},
         "names": "h must be a finite number > 0, got True"},
        {"top": {"newton": {"tol_increment": True}},
         "names": "tol_increment must be a finite number > 0, got True"},
        {"top": {"newton": {"tol_residual": False}},
         "names": "tol_residual must be a finite number > 0, got False"},
        {"argv": ["auxetic", "--nx", "0"],
         "names": "nx must be an integer >= 1, got 0"},
        {"argv": ["auxetic", "--nx", "-1"],
         "names": "nx must be an integer >= 1, got -1"},
        {"argv": ["auxetic", "--ny", "0"],
         "names": "ny must be an integer >= 1, got 0"},
        {"argv": ["auxetic", "--ny", "-1"],
         "names": "ny must be an integer >= 1, got -1"},
        {"argv": ["lattice", "--cells", "0"],
         "names": "cells must be an integer >= 1, got 0"},
        {"argv": ["lattice", "--cells", "-1"],
         "names": "cells must be an integer >= 1, got -1"},
        {"material": {"E_inf": True},
         "names": "E_inf must be a finite number > 0, got True"},
        {"material": {"rho": True},
         "names": "rho must be a finite number > 0, got True"},
        {"material": {"nu": False},
         "names": "nu must be a finite number, got False"},
        {"material": {"elements": [{"E": True, "tau": 0.1}]},
         "names": "Maxwell element E must be a finite number > 0, got True"},
        {"material": {"elements": [{"E": 4.5e6, "tau": True}]},
         "names": "Maxwell element tau must be a finite number > 0, got True"},
        {"section": {"diameter": True},
         "names": "section diameter must be a finite number > 0, got True"},
        {"section": {"type": "custom", "A": True, "Jt": 2e-10, "J2": 1e-10,
                     "J3": 1e-10},
         "names": "section A must be a finite number > 0, got True"},
        {"history": {"kind": "impulse_hold_release", "value": [0, 0, -1.0],
                     "t_off": True},
         "names": "t_off must be a finite number, got True"},
        {"history": {"kind": "sine_ramp_hold", "value": [0, 0, -1.0],
                     "t_ramp": True},
         "names": "t_ramp must be a finite number > 0, got True"},
        {"history": {"kind": "raised_sine_pulse", "peak": [0, 0, -1.0],
                     "omega": True, "t_end": 1.0},
         "names": "omega must be a finite number, got True"},
        {"history": {"kind": "raised_sine_pulse", "peak": [0, 0, -1.0],
                     "omega": 4.0, "t_end": True},
         "names": "t_end must be a finite number, got True"},
        {"history": {"kind": "sine_ramp_hold", "value": [0, 0, -1.0],
                     "t_ramp": 0},
         "names": "t_ramp must be a finite number > 0, got 0"},
        {"history": {"kind": "sine_ramp_hold", "value": [0, 0, -1.0],
                     "t_ramp": -0.5},
         "names": "t_ramp must be a finite number > 0, got -0.5"},
    ], ids=["E_inf_nan", "rho_inf", "diameter_nan", "tau_nan",
            "table_length", "table_columns", "table_times", "table_inf",
            "value_short", "end_nan", "knot_nan", "weight_inf",
            "diameter_negative", "side_negative", "support_patch_float",
            "support_patch_bool", "load_patch_float", "probe_patch_float",
            "degree_float", "n_float", "section_type_unknown", "probe_u_bool",
            "probe_u_text", "time_key_unknown", "top_level_key_unknown",
            "time_bool", "h_bool", "tol_increment_bool", "tol_residual_bool",
            "auxetic_nx_zero", "auxetic_nx_negative", "auxetic_ny_zero",
            "auxetic_ny_negative", "lattice_cells_zero",
            "lattice_cells_negative", "E_inf_bool", "rho_bool", "nu_bool",
            "element_E_bool", "element_tau_bool", "diameter_bool",
            "custom_A_bool", "t_off_bool", "t_ramp_bool", "omega_bool",
            "t_end_bool", "t_ramp_zero", "t_ramp_negative"])
    def test_invalid_numbers_reported(self, tmp_path, capfd, change):
        # found before any step: exit 2, one line on stderr that names the
        # input (no library prints its own) and no output directory; a
        # scenario flag is checked like a configuration entry
        cfg = self.short_config({})
        cfg["material"] = dict(cfg["material"], **change.get("material", {}))
        # a section that names its type replaces the circle
        section = change.get("section", {})
        cfg["section"] = section if "type" in section \
            else dict(cfg["section"], **section)
        if "history" in change:
            cfg["loads"][0]["history"] = change["history"]
        if "patch" in change:
            cfg["patches"][0] = change["patch"]
        for key in ("supports", "loads", "output"):
            if key in change:
                cfg[key] = change[key]
        cfg.update(change.get("top", {}))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        runs = [[*args, "--config", str(path)] for args in (
            ["validate"], ["run", "custom", "--out", str(out)])]
        if "argv" in change:
            # one step, should the flag pass
            runs = [["run", *change["argv"], "--T", "0.005", "--h", "0.005",
                     "--out", str(out)]]
        for args in runs:
            assert main(args) == 2
            err = capfd.readouterr().err
            assert err.startswith("invalid configuration: ")
            assert err.count("\n") == 1
            assert change.get("names", "") in err
        assert not out.exists()

    @staticmethod
    def chain_config():
        """Two jointed line patches, hinged at the start, with a tip
        probe; one step."""
        line = {"generator": "line", "degree": 2, "n": 5}
        return {
            "version": 1,
            "material": {"E_inf": 5e5, "nu": 0.5, "rho": 1100.0},
            "section": {"type": "circle", "diameter": 0.01},
            "patches": [dict(line, params={"start": [0, 0, 0],
                                           "end": [0, 0.5, 0]}),
                        dict(line, params={"start": [0, 0.5, 0],
                                           "end": [0, 1, 0]})],
            "supports": [{"patch": 0, "end": "start", "type": "hinge"}],
            "joints": [{"ends": [[0, "end"], [1, "start"]]}],
            "time": {"h": 5e-3, "T": 5e-3},
            "output": {"probes": [{"patch": 1, "u": 1.0, "name": "tip"}]},
        }

    PUSH = {"kind": "constant", "value": [1, 0, 0]}

    @pytest.mark.parametrize("change", [
        {"patches": [], "supports": [], "joints": [], "output": {}},
        {"loads": [{"target": {"kind": "end", "patch": 7, "end": "end"},
                    "history": PUSH}]},
        {"loads": [{"target": {"kind": "end", "patch": 1, "end": "tip"},
                    "history": PUSH}]},
        {"output": {"probes": [{"patch": 9, "u": 1.0, "name": "tip"}]}},
        {"output": {"probes": [{"patch": 1, "u": 1.5, "name": "tip"}]}},
        {"output": {"probes": [{"patch": 1, "u": 1.0, "name": "tip"},
                               {"patch": 0, "u": 0.5, "name": "tip"}]}},
        {"joints": [{"ends": [[0, "end"], [-1, "start"]]}]},
        {"joints": [{"ends": [[0, "end"], [5, "start"]]}]},
    ], ids=["no_patches", "end_load_patch", "end_load_end", "probe_patch",
            "probe_u", "probe_name", "joint_negative_patch",
            "joint_patch_out_of_range"])
    def test_invalid_reference_reported(self, tmp_path, capsys, change):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.chain_config()))
        assert main(["validate", "--config", str(path)]) == 0
        path.write_text(json.dumps(dict(self.chain_config(), **change)))
        self.assert_invalid_configuration(tmp_path, capsys, path)

    #: per configuration entry kind: where a misspelt key goes in
    #: ``chain_config`` (the keys down to it), its value, and the key that
    #: the report names
    MISSPELT = {
        "material": (("material", "element"), [{"E": 4.5e6, "tau": 0.1}],
                     "element"),
        "element": (("material", "elements"), [{"E": 4.5e6, "taus": 0.1}],
                    "taus"),
        "section": (("section", "diamter"), 0.01, "diamter"),
        "patch": (("patches", 0, "degre"), 3, "degre"),
        "params": (("patches", 0, "params", "strat"), [0, 0, 0], "strat"),
        "nurbs_patch": (("patches", 0), dict(NURBS, weigths=[1, 1, 1, 1]),
                        "weigths"),
        "support": (("supports", 0, "motoin"), PUSH, "motoin"),
        "joint": (("joints", 0, "forces"), PUSH, "forces"),
        "load": (("loads",), [{"target": {"kind": "end", "patch": 1,
                                          "end": "end"},
                               "history": PUSH, "histroy": PUSH}], "histroy"),
        "target": (("loads",), [{"target": {"kind": "distributed",
                                            "patch": 1, "end": "end"},
                                 "history": PUSH}], "end"),
        "history": (("loads",), [{"target": {"kind": "distributed",
                                             "patch": 1},
                                  "history": dict(PUSH, t_off=0.1)}],
                    "t_off"),
        "probe": (("output", "probes", 0, "nmae"), "tip", "nmae"),
    }

    @pytest.mark.parametrize("entry", MISSPELT)
    def test_misspelt_key_reported(self, tmp_path, capsys, entry):
        # a key that no entry of its kind takes is named, not ignored
        (*path, last), value, misspelt = self.MISSPELT[entry]
        cfg = self.chain_config()
        section = cfg
        for key in path:
            section = section[key]
        section[last] = value
        file = tmp_path / "model.json"
        file.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(file)]) == 2
        assert repr(misspelt) in capsys.readouterr().err
        self.assert_invalid_configuration(tmp_path, capsys, file)

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_config_reported(self, tmp_path, capsys, name):
        self.assert_invalid_configuration(tmp_path, capsys, tmp_path / name)

    @staticmethod
    def assert_invalid_configuration(tmp_path, capsys, path):
        """``validate``, ``run custom`` and ``converge`` all report the
        configuration at ``path`` as invalid; the run writes no history and
        the study makes no output directory."""
        assert main(["validate", "--config", str(path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", "custom", "--config", str(path), "--out",
                     str(out)]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not (out / "history.csv").exists()
        out = tmp_path / "study_out"
        assert main(["converge", "--config", str(path), "--out",
                     str(out)]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_probe", [0, 1, 2.5, "101"],
                             ids=["zero", "one", "fraction", "text"])
    def test_invalid_probe_points_rejected(self, tmp_path, capsys, n_probe):
        # fewer than two probe points make every error nan; found before
        # any run or output
        study = {"scenario": "pendulum", "pairs": [[2, 8]],
                 "reference": [4, 40], "t_eval": 0.05, "h": 5e-3,
                 "probe_points": n_probe}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(study))
        out = tmp_path / "conv"
        assert main(["converge", "--config", str(path), "--out",
                     str(out)]) == 2
        assert "probe_points" in capsys.readouterr().err
        assert not out.exists()

    def test_converge_command(self, tmp_path):
        study = {"scenario": "pendulum", "pairs": [[2, 8], [2, 12], [2, 16]],
                 "reference": [4, 40], "t_eval": 0.05, "h": 5e-3}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(study))
        out = tmp_path / "conv"
        rc = main(["converge", "--config", str(path), "--out", str(out)])
        assert rc == 0
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert lines[0].strip() == "degree,n,err_l2"
        assert len(lines) == 4

    def test_converge_reports_solver_failure(self, tmp_path, capsys,
                                             monkeypatch):
        def fail(sim, h, depth=0):
            raise StepFailure("forced failure")

        monkeypatch.setattr(Simulation, "advance", fail)
        study = {"scenario": "pendulum", "pairs": [[2, 8], [2, 12]],
                 "reference": [4, 40], "t_eval": 0.05, "h": 5e-3}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(study))
        out = tmp_path / "conv"
        assert main(["converge", "--config", str(path), "--out",
                     str(out)]) == 1
        assert "solver failure: forced failure" in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()


class TestConvergenceHelpers:
    def test_slope_fit_on_synthetic_data(self):
        ns = np.array([10.0, 20, 40, 80, 160])
        errs = 3.0 * ns ** -4.0 + 1e-9
        slope = fit_preplateau_slope(ns, errs)
        assert slope == pytest.approx(4.0, abs=0.15)

    def test_slope_fit_against_sweep_floor(self):
        # an n^-4 family (coarsest point still pre-asymptotic) whose own
        # minimum sits far above the floor a faster family sets for the
        # sweep; fitted against its own minimum it keeps only n <= 28
        ns = np.array([10.0, 14, 20, 28, 40, 56, 80])
        slow = 3.0 * ns ** -4.0 * (1.0 + 0.4 * (10.0 / ns) ** 8)
        fast = 3.0 * ns ** -8.0 + 1e-12
        floor = min(slow.min(), fast.min())
        slope = fit_preplateau_slope(ns, slow, floor=floor)
        assert slope == pytest.approx(4.0, abs=0.15)

    def test_reference_must_be_finer(self):
        with pytest.raises(ValueError):
            run_convergence({"scenario": "pendulum", "pairs": [[8, 300]],
                             "reference": [8, 200], "t_eval": 0.01,
                             "h": 5e-3})
