import json
import os

import numpy as np
import pytest

from gebvisc.assembly import NewtonSettings, Simulation, time_march
from gebvisc.cli import (fit_preplateau_slope, main, run_convergence,
                         run_scenario)
from gebvisc.integrator import StepFailure
from gebvisc.output import (read_history_csv, read_vtk_points,
                            write_history_csv, write_vtk_snapshot)
from gebvisc.scenarios import (PLA_ELEMENTS, PLA_E_INF, PLA_NU, PLA_RHO,
                               SCENARIO_DEFAULTS, build_scenario, pla_law)

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

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("pendulum", {"cells": 3})


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
        section = {"max_iterations": 12, "tol_increment": 1e-9,
                   "retry_increment_cap": None}
        sim, _, _ = run_scenario("custom", config=self.short_config(section))
        assert sim.settings == NewtonSettings(**section)
        # an explicit settings argument takes precedence over the section
        given = NewtonSettings(max_iterations=5)
        sim, _, _ = run_scenario("custom", config=self.short_config(section),
                                 settings=given)
        assert sim.settings is given

    @pytest.mark.parametrize("section", [{"max_iters": 12},
                                         {"max_iterations": 0}])
    def test_invalid_newton_section_rejected(self, tmp_path, capsys, section):
        cfg = self.short_config(section)
        with pytest.raises(ValueError):
            run_scenario("custom", config=cfg)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

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
