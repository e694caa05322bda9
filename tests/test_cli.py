import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import dftr
from dftr import (DiscreteGenerator, Profile, default_weight, energy, lambda_theoretical,
                  simulate)
from dftr.analysis import settings_hash
from dftr import analysis, operator, verify
from dftr.cli import (_KEYS, ResolvedConfig, _column_rows, _field_rows, _fmt, load_config,
                      main, write_csv)
from dftr.errors import ConfigError, SolverError
from dftr.integrator import closed_loop, simulate_stack
from dftr.verify import CHECKS
from conftest import child_env

HASH_LINE = re.compile(r"^# manifest_hash=[0-9a-f]{16}$")
SPECS = [spec for _, specs in CHECKS for spec in specs]  # verify.csv's rows in order
REPO = Path(__file__).resolve().parents[1]

BASE_INI = """\
[reactor]
v = 0.01
k = 0.001
n = 1
l = 1
peclet = 4
"""

SMALL_GRID = """\
[grid]
num_nodes = 101
"""


def write_ini(path, text):
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert HASH_LINE.match(lines[0]), lines[0]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


class TestLoadConfig:
    def test_defaults_materialized(self, tmp_path):
        cfg = load_config(write_ini(tmp_path / "c.ini", BASE_INI))
        assert cfg.d_ax == pytest.approx(0.0025, rel=1e-15)
        assert cfg.alpha == 0.0
        assert cfg.u_bar == 1.0
        assert cfg.num_nodes == 201
        assert cfg.t_final == 400.0
        assert cfg.horizon == 7000.0
        assert cfg.dt is None
        assert cfg.record_every == 1
        assert cfg.window_fraction == 0.5
        assert cfg.floor is None
        assert cfg.sat_m is None

    def test_key_table_is_the_resolved_fields_and_peclet(self):
        # one weight, e^{-v x/(2 d_ax)}: no key sets its scale or its rate
        keys = [key for section in _KEYS.values() for key in section]
        assert len(keys) == 16
        assert set(keys) == {f.name for f in fields(ResolvedConfig)} | {"peclet"}

    def test_explicit_dispersion(self, tmp_path):
        text = BASE_INI.replace("peclet = 4", "d_ax = 0.0025")
        cfg = load_config(write_ini(tmp_path / "c.ini", text))
        assert cfg.d_ax == 0.0025

    def test_both_dispersion_keys_rejected(self, tmp_path):
        text = BASE_INI + "d_ax = 0.0025\n"
        with pytest.raises(ConfigError, match="d_ax.*peclet|peclet.*d_ax"):
            load_config(write_ini(tmp_path / "c.ini", text))

    def test_neither_dispersion_key_rejected(self, tmp_path):
        text = BASE_INI.replace("peclet = 4\n", "")
        with pytest.raises(ConfigError):
            load_config(write_ini(tmp_path / "c.ini", text))

    def test_missing_required_key_is_named(self, tmp_path):
        text = BASE_INI.replace("v = 0.01\n", "")
        with pytest.raises(ConfigError, match=r"\bv\b"):
            load_config(write_ini(tmp_path / "c.ini", text))

    def test_unknown_key_is_named(self, tmp_path):
        text = BASE_INI + "frobnicate = 1\n"
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(write_ini(tmp_path / "c.ini", text))

    def test_unknown_section_rejected(self, tmp_path):
        text = BASE_INI + "[solver]\ntol = 1e-8\n"
        with pytest.raises(ConfigError, match="solver"):
            load_config(write_ini(tmp_path / "c.ini", text))

    def test_malformed_number_rejected(self, tmp_path):
        text = BASE_INI.replace("k = 0.001", "k = fast")
        with pytest.raises(ConfigError, match="k"):
            load_config(write_ini(tmp_path / "c.ini", text))

    def test_out_of_domain_value_rejected(self, tmp_path):
        text = BASE_INI.replace("v = 0.01", "v = -0.01")
        with pytest.raises(ConfigError):
            load_config(write_ini(tmp_path / "c.ini", text))

    @pytest.mark.parametrize("key,text", [
        ("num_nodes", BASE_INI + "[grid]\nnum_nodes = 20.5\n"),
        ("dt", BASE_INI + "[time]\ndt = inf\n"),
        ("k", BASE_INI.replace("k = 0.001", "k = nan")),
    ])
    def test_unparsable_value_is_named(self, tmp_path, key, text):
        with pytest.raises(ConfigError, match=rf"^\[\w+\] {key}: "):
            load_config(write_ini(tmp_path / "c.ini", text))

    def test_required_key_of_missing_section_is_named(self, tmp_path):
        text = SMALL_GRID + "[control]\nalpha = 0.25\n"
        with pytest.raises(ConfigError, match=r"'v'.*\[reactor\]"):
            load_config(write_ini(tmp_path / "c.ini", text))

    def test_integer_literal_reads_exactly(self, tmp_path):
        # through float, 2**53 + 1 would read as 2**53
        out = tmp_path / "out"
        text = BASE_INI + "[time]\nrecord_every = 9007199254740993\n"
        cfg = write_ini(tmp_path / "c.ini", text)
        assert load_config(cfg).record_every == 9007199254740993
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["record_every"] == 9007199254740993

    @pytest.mark.parametrize("raw", ["1e3", "1000.0", "1_000.0"])
    def test_other_integer_spellings_read_through_float(self, tmp_path, raw):
        text = BASE_INI + f"[time]\nrecord_every = {raw}\n"
        cfg = load_config(write_ini(tmp_path / "c.ini", text))
        assert cfg.record_every == 1000 and type(cfg.record_every) is int

    def test_zero_dispersion_is_a_config_error(self, tmp_path):
        text = BASE_INI.replace("peclet = 4", "d_ax = 0")
        with pytest.raises(ConfigError, match="d_ax"):
            load_config(write_ini(tmp_path / "c.ini", text))


class TestSteadyCommand:
    def test_outputs_and_analytic_cross_check(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", BASE_INI)
        out = tmp_path / "out"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0

        hash_line, header, rows = read_csv(out / "steady.csv")
        assert header == ["x", "c_bar"]
        assert len(rows) == 201
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 1.0

        manifest = json.loads((out / "manifest.json").read_text())
        assert hash_line == f"# manifest_hash={manifest['hash']}"

        assert (out / "steady_analytic.csv").exists()
        stdout = capsys.readouterr().out
        match = re.search(r"max relative discrepancy vs analytic: (\S+)", stdout)
        assert match and float(match.group(1)) <= 1e-6

    def test_no_analytic_file_for_other_orders(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", BASE_INI.replace("n = 1", "n = 2"))
        out = tmp_path / "out"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "steady_analytic.csv").exists()

    def test_no_reaction_is_a_constant_profile_at_an_overflowing_order(self, tmp_path, capsys):
        # k = 0 with n = 10 at u_bar = 1e40: the reaction is off, so C = u_bar exactly solves
        # the system, and no C**n (inf) times k (0) may reach the residual or its slope
        text = (BASE_INI.replace("k = 0.001", "k = 0").replace("n = 1", "n = 10")
                + "[control]\nu_bar = 1e40\n")
        out = tmp_path / "out"
        assert main(["steady", "--config", write_ini(tmp_path / "c.ini", text),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, _, rows = read_csv(out / "steady.csv")
        c_bar = np.array([float(r[1]) for r in rows])
        assert len(c_bar) == 201
        assert np.max(np.abs(c_bar - 1e40)) <= 1e-12 * 1e40

    def test_floats_round_trip_through_formatting(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", BASE_INI)
        out = tmp_path / "out"
        main(["steady", "--config", cfg, "--out", str(out)])

        grid = load_config(cfg).grid()
        params = load_config(cfg).reactor_params(t_final=400.0)
        exact = dftr.steady_state_numeric(params, 1.0, grid).profile.values
        _, _, rows = read_csv(out / "steady.csv")
        printed = np.array([float(r[1]) for r in rows])
        assert np.array_equal(printed, exact)  # 17 significant digits


class TestSimulateCommand:
    CFG = BASE_INI + SMALL_GRID + "[time]\nt_final = 50\nrecord_every = 10\n"

    def test_output_files(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", self.CFG)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out),
                     "--snapshots", "0,25,50"])
        assert code == 0

        _, header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "x", "w"]
        assert len(rows) == 51 * 101  # 500 steps recorded every 10, plus t=0

        _, header, rows = read_csv(out / "control.csv")
        assert header == ["t", "u_w"]
        assert len(rows) == 51

        _, header, rows = read_csv(out / "energy.csv")
        assert header == ["t", "energy", "norm_rho"]
        energies = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(energies) <= 1e-12 * energies[0])

        _, _, rows = read_csv(out / "profiles.csv")
        times = sorted({float(r[0]) for r in rows})
        assert times == [0.0, 25.0, 50.0]

    def test_phase_cpu_times_stay_out_of_the_hash(self, tmp_path):
        # steady, step and write CPU seconds land in manifest.json; reruns
        # keep the hash and every CSV byte although their timings differ
        cfg = write_ini(tmp_path / "c.ini", self.CFG)
        docs, csvs = [], []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            docs.append(json.loads((out / "manifest.json").read_text()))
            csvs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert list(csvs[0]) == ["control.csv", "energy.csv", "profiles.csv",
                                 "trajectory.csv"]
        assert csvs[0] == csvs[1]
        assert docs[0]["hash"] == docs[1]["hash"] == settings_hash(
            {"command": "simulate", "version": dftr.__version__,
             "settings": docs[0]["settings"]})
        for doc in docs:
            assert sorted(doc["timings"]) == ["load_s", "phases", "total_s"]
            phases = doc["timings"]["phases"]
            assert sorted(phases) == ["steady", "step", "write"]
            assert all(seconds >= 0.0 for seconds in phases.values())

    def test_zero_gain_means_zero_control(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", self.CFG)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        _, _, rows = read_csv(out / "control.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_feedback_control_decays(self, tmp_path):
        text = self.CFG + "[control]\nalpha = 0.5\n"
        cfg = write_ini(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        _, _, rows = read_csv(out / "control.csv")
        u = np.array([float(r[1]) for r in rows])
        assert u[0] > 0.0
        assert abs(u[-1]) < abs(u[0])
        # u_w is alpha * w(0, t), bit for bit against the trajectory's inlet node
        _, _, traj_rows = read_csv(out / "trajectory.csv")
        w_inlet = np.array([float(r[2]) for r in traj_rows if float(r[1]) == 0.0])
        assert np.array_equal(u, 0.5 * w_inlet)


class TestSweepCommand:
    CFG = (BASE_INI + SMALL_GRID
           + "[time]\nt_final = 400\nhorizon = 400\n")

    def test_table_and_csv(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", self.CFG)
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--out", str(out),
                     "--n-list", "1,2", "--alpha-list", "0,0.5"])
        assert code == 0

        _, header, rows = read_csv(out / "sweep.csv")
        assert header == ["n", "alpha", "lambda_n", "lambda_t", "fit_r2",
                          "floor_hit"]
        assert len(rows) == 4
        for row in rows:
            assert float(row[2]) > 0.0
            assert float(row[3]) == pytest.approx(0.0025, rel=1e-12)
        assert "n\\alpha" in capsys.readouterr().out

    def test_all_cells_failing_exits_five(self, tmp_path, capsys):
        text = self.CFG.replace("k = 0.001", "k = 1")
        cfg = write_ini(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--out", str(out),
                     "--n-list", "0.5", "--alpha-list", "0"])
        assert code == 5
        _, _, rows = read_csv(out / "sweep.csv")
        assert rows[0][2] == ""  # lambda_n column empty for the failed cell
        assert "failed" in capsys.readouterr().err

    def test_floor_limited_cells_have_not_failed(self, tmp_path, capsys):
        # floor = 1e10 lies above every cell's first norm: no cell has a rate, yet
        # none failed, so the sweep exits 0
        text = (BASE_INI + "[grid]\nnum_nodes = 51\n[time]\ndt = 1\nhorizon = 200\n"
                + "[analysis]\nfloor = 1e10\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--n-list", "1,2", "--alpha-list", "0,0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [f"{n:<7}" + f"{'-':>12}" * 2 for n in "12"]
        _, _, rows = read_csv(out / "sweep.csv")
        assert [(row[2], row[-1]) for row in rows] == [("", "true")] * 4
        cells = json.loads((out / "sweep_cells.json").read_text())
        assert [cell["error"] for cell in cells] == [None] * 4

    def test_cell_record_is_written_beside_the_table(self, tmp_path):
        # k = 1: both n = 0.5 cells fail their steady solve, the others fit
        from dataclasses import asdict
        from dftr.analysis import settings_hash

        cfg = write_ini(tmp_path / "c.ini", self.CFG.replace("k = 0.001", "k = 1"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--n-list", "0.5,1,2", "--alpha-list", "0,0.5"]) == 0
        cells = json.loads((out / "sweep_cells.json").read_text())
        hash_line, _, rows = read_csv(out / "sweep.csv")
        assert [(c["n"], c["alpha"]) for c in cells] == [
            (float(row[0]), float(row[1])) for row in rows]
        assert len({c["hash"] for c in cells}) == len(cells) == 6
        for cell, row in zip(cells, rows):
            assert set(cell) == {"hash", "n", "alpha", "newton_iterations", "inner_steps",
                                 "negativity_events", "fit_window", "fit_r2", "error"}
            if cell["n"] == 0.5:
                assert cell["error"].startswith("SolverError: Newton did not converge")
                assert cell["newton_iterations"] is cell["inner_steps"] is None
                assert cell["negativity_events"] is None and row[2] == ""
                assert cell["fit_window"] is cell["fit_r2"] is None
            else:
                assert cell["error"] is None and float(row[2]) > 0.0
                assert cell["newton_iterations"] >= 1 and cell["inner_steps"] >= 400  # horizon / dt
                assert cell["negativity_events"] >= 0
                assert 0.0 < cell["fit_window"][0] < cell["fit_window"][1] <= 400.0
                assert cell["fit_r2"] == float(row[4])  # the table's fit_r2, same bits

        # the side file is outside the manifest hash: it covers the command,
        # the version and the resolved settings only
        manifest = json.loads((out / "manifest.json").read_text())
        settings = {**asdict(load_config(cfg)), "n_list": [0.5, 1.0, 2.0],
                    "alpha_list": [0.0, 0.5]}
        assert manifest["settings"] == settings
        assert manifest["hash"] == settings_hash(
            {"command": "sweep", "version": dftr.__version__, "settings": settings})
        assert hash_line == f"# manifest_hash={manifest['hash']}"

    def test_cell_record_reads_the_stack_negativity_events(self, tmp_path):
        # each cell's events are those of its run alone through simulate to
        # the stack's stop: the first record by which every cell's norm has
        # been at or below its fit floor; k = 1 drives C_A below zero
        from dataclasses import replace
        from dftr import (FeedbackLaw, SimulationConfig, default_saturation_bound,
                          initial_profile, steady_state_numeric)

        cfg = write_ini(tmp_path / "c.ini", self.CFG.replace("k = 0.001", "k = 1"))
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--n-list", "1,2", "--alpha-list", "0,0.5"]) == 0
        resolved = load_config(cfg)
        grid = resolved.grid()
        weight = default_weight(grid, resolved.reactor_params(t_final=resolved.horizon))
        cells = json.loads((out / "sweep_cells.json").read_text())
        assert any(cell["negativity_events"] > 0 for cell in cells)
        runs, full, stop = [], [], 0
        for cell in cells:
            law = FeedbackLaw(alpha=cell["alpha"])
            params = resolved.reactor_params(t_final=resolved.horizon)
            sat = default_saturation_bound(params.d_ax, params.v, params.l, law.alpha)
            params = replace(params, n=cell["n"], sat_m=sat)
            runs.append((SimulationConfig(params=params, law=law, grid=grid, dt=1.0),
                         steady_state_numeric(params, 1.0, grid),
                         initial_profile(grid, params, law)))
            full.append(simulate(*runs[-1]))
            norms = np.sqrt(2.0 * energy(full[-1].states, weight))
            first = np.flatnonzero(norms <= 1e-12 * norms[0])
            stop = max(stop, int(first[0]))  # one record per step of 1 s
        assert 0 < stop < resolved.horizon  # the stack stopped early
        for cell, (config, steady, w0), traj in zip(cells, runs, full):
            cut = replace(config, params=replace(config.params, t_final=float(stop)))
            (alone,) = simulate_stack([(cut, steady, w0)], lambda j, w: None)
            assert (cell["inner_steps"], cell["negativity_events"]) == (
                alone.inner_steps, alone.negativity_events)
            assert cell["inner_steps"] < traj.inner_steps

    def test_phase_cpu_times_stay_out_of_the_hash(self, tmp_path):
        # steady, stack, fit and write CPU seconds land in manifest.json; reruns
        # keep the hash and every output byte although their timings differ
        cfg = write_ini(tmp_path / "c.ini", self.CFG)
        docs, outputs = [], []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sweep", "--config", cfg, "--out", str(out),
                         "--n-list", "1,10", "--alpha-list", "0,0.5"]) == 0
            docs.append(json.loads((out / "manifest.json").read_text()))
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                            if p.name != "manifest.json"})
        assert list(outputs[0]) == ["sweep.csv", "sweep_cells.json"]
        assert outputs[0] == outputs[1]
        assert docs[0]["hash"] == docs[1]["hash"] == settings_hash(
            {"command": "sweep", "version": dftr.__version__,
             "settings": docs[0]["settings"]})
        for doc in docs:
            assert sorted(doc["timings"]) == ["load_s", "phases", "total_s"]
            phases = doc["timings"]["phases"]
            assert sorted(phases) == ["fit", "stack", "steady", "write"]
            assert all(seconds >= 0.0 for seconds in phases.values())

    @pytest.mark.parametrize("n_list, alpha_list, message", [
        ("1,-1", "0.25", "n must be > 0, got -1.0"),
        ("1", "0,0.7", "alpha must lie in [0, 1/2], got 0.7"),
        ("-1", "0.7", "alpha must lie in [0, 1/2], got 0.7"),  # a cell's alpha comes first
        ("1", "1.5", "alpha must lie in [0, 1/2], got 1.5"),  # before its sat_m default
        ("-1,1", "0.25,0.7", "n must be > 0, got -1.0"),  # the first bad cell, n then alpha
    ], ids=["n", "alpha", "alpha-first", "alpha-1.5", "first-cell"])
    def test_list_values_are_checked_before_any_steady_solve(self, tmp_path, capsys, monkeypatch,
                                                             n_list, alpha_list, message):
        import dftr.integrator
        solve, calls = dftr.integrator.steady_state_numeric, []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(dftr.integrator, "steady_state_numeric", counted)
        cfg = write_ini(tmp_path / "c.ini", self.CFG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
                     f"--n-list={n_list}", f"--alpha-list={alpha_list}"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert calls == []

    def test_cell_hash_is_pinned(self, tmp_path):
        # the hash covers the cell's 14 settings: a dropped, extra or changed one moves it
        out, path = tmp_path / "out", REPO / "perfbench/configs/sweep-ref.ini"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--n-list", "2", "--alpha-list", "0.25"]) == 0
        cells = json.loads((out / "sweep_cells.json").read_text())
        assert [cell["hash"] for cell in cells] == ["d8d73ef3a42e77ee"]
        # the settings hashed before the weight's rate left them, d_ax and v fixing it
        cfg = load_config(path)
        run = replace(cfg, n=2.0, alpha=0.25).run(to_horizon=True)
        (cell,) = analysis.sweep([run], window_fraction=cfg.window_fraction,
                                 floor=cfg.floor).cells.values()
        effort = ("hash", "newton_iterations", "inner_steps", "negativity_events")
        settings = {key: value for key, value in cell.provenance.items() if key not in effort}
        assert len(settings) == 14 and settings_hash(settings) == "d8d73ef3a42e77ee"
        gamma = run.params.v / (2.0 * run.params.d_ax)
        assert settings_hash({**settings, "gamma": gamma}) == "e9e799e1c8251166"

    def test_fits_match_polyfit_and_need_no_dense_least_squares(self, tmp_path, monkeypatch):
        # every sweep-ref cell's closed-form fit agrees with np.polyfit on its window;
        # a child with np.polyfit and np.linalg.lstsq made to raise writes the same table
        fits, fit = [], analysis.fit_decay_rate

        def recorded(times, norms, **kwargs):
            fits.append((times, np.array(norms), fit(times, norms, **kwargs)))
            return fits[-1][2]

        monkeypatch.setattr(analysis, "fit_decay_rate", recorded)
        cfg = str(REPO / "perfbench/configs/sweep-ref.ini")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert len(fits) == 12
        for times, norms, est in fits:
            window = (times >= est.fit_window[0]) & (times <= est.fit_window[1])
            slope = np.polyfit(times[window], np.log(norms[window] / norms[0]), 1)[0]
            assert -est.lambda_n == pytest.approx(slope, rel=1e-14, abs=0.0)

        script = ("import sys, numpy\n"
                  "def refuse(*args, **kwargs):\n"
                  "    raise AssertionError('dense least squares')\n"
                  "numpy.polyfit = numpy.linalg.lstsq = refuse\n"
                  "from dftr.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", script, "sweep", "--config", cfg,
                               "--out", str(tmp_path / "b")],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert ((tmp_path / "b" / "sweep.csv").read_bytes()
                == (tmp_path / "a" / "sweep.csv").read_bytes())

    def test_invalid_list_arguments(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", self.CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--alpha-list", "0,0.7"]) == 2
        assert capsys.readouterr().err == "config error: alpha must lie in [0, 1/2], got 0.7\n"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--n-list", "1,zap"]) == 2
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--out", str(out), "--n-list", ","]) == 2
        assert capsys.readouterr().err == "config error: --n-list must be non-empty\n"


class TestVerifyCommand:
    def test_reference_configuration_passes(self, tmp_path, capsys):
        text = (BASE_INI + SMALL_GRID
                + "[time]\nt_final = 50\ndt = 0.5\nhorizon = 400\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0

        _, header, rows = read_csv(out / "verify.csv")
        assert header == ["check", "metric", "value", "threshold", "pass"]
        names = [r[0] for r in rows]
        assert names == ["dissipativity", "resolvent_error", "resolvent_order",
                         "duhamel_nonlinear", "duhamel_linear", "equilibrium",
                         "envelope"]
        assert all(r[-1] == "true" for r in rows)
        assert "pass" in capsys.readouterr().out

    def test_check_cpu_times_stay_out_of_the_hash(self, tmp_path):
        # each check's CPU seconds land in manifest.json; reruns keep the
        # hash and the verify.csv bytes although their timings differ
        text = (BASE_INI + "[grid]\nnum_nodes = 21\n"
                + "[time]\nt_final = 10\ndt = 0.5\nhorizon = 100\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        docs, csvs = [], []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
            docs.append(json.loads((out / "manifest.json").read_text()))
            csvs.append((out / "verify.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert docs[0]["hash"] == docs[1]["hash"] == settings_hash(
            {"command": "verify", "version": dftr.__version__,
             "settings": docs[0]["settings"]})
        _, _, rows = read_csv(tmp_path / "a" / "verify.csv")
        for doc in docs:
            assert sorted(doc["timings"]) == ["checks", "load_s", "total_s"]
            checks = doc["timings"]["checks"]
            names = [name for key in checks for name in key.split("+")]
            assert sorted(names) == sorted(r[0] for r in rows)
            assert all(seconds >= 0.0 for seconds in checks.values())

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        # --seed takes 0 to 2**64 - 1, though no check reads it; no check may run first
        cfg = write_ini(tmp_path / "c.ini", BASE_INI)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: --seed must be >= 0, got -1\n"
        assert captured.out == ""
        assert not (out / "verify.csv").exists() and not (out / "manifest.json").exists()

    def test_seed_past_64_bits_is_a_config_error(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", BASE_INI)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--seed", "18446744073709551616"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: --seed must be <= 2**64 - 1 = "
                                "18446744073709551615, got 18446744073709551616\n")
        assert captured.out == ""
        assert not (out / "verify.csv").exists() and not (out / "manifest.json").exists()

    def test_largest_seed_runs(self, tmp_path):
        text = (BASE_INI + "[grid]\nnum_nodes = 21\n"
                + "[time]\nt_final = 10\ndt = 0.5\nhorizon = 100\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out),
                     "--seed", "18446744073709551615"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["seed"] == 2 ** 64 - 1

    def test_seed_zero_runs(self, tmp_path):
        text = (BASE_INI + "[grid]\nnum_nodes = 21\n"
                + "[time]\nt_final = 10\ndt = 0.5\nhorizon = 100\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
        assert json.loads((out / "manifest.json").read_text())["settings"]["seed"] == 0

    def test_coarse_grid_skips_resolvent_refinement(self, tmp_path):
        # five nodes cannot host a three-level refinement study; those rows
        # must be marked skipped rather than silently passed
        text = (BASE_INI + "[grid]\nnum_nodes = 21\n"
                + "[time]\nt_final = 10\ndt = 0.5\nhorizon = 100\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "verify.csv")
        by_name = {r[0]: r for r in rows}
        assert by_name["resolvent_error"][1] == "skipped_insufficient_resolution"
        assert by_name["resolvent_error"][-1] == "skipped"

    @staticmethod
    def _resolvent_study(tmp_path, monkeypatch, dispersion, num_nodes):
        """verify's two resolvent rows at n = 2, and the grid sizes the study solved on."""
        sizes, solve = set(), verify.resolvent_discrete

        def spy(gen, eta, lam):
            sizes.add(gen.grid.num_nodes)
            return solve(gen, eta, lam)

        monkeypatch.setattr(verify, "resolvent_discrete", spy)
        text = (BASE_INI.replace("peclet = 4", dispersion).replace("n = 1", "n = 2")
                + f"[grid]\nnum_nodes = {num_nodes}\n[time]\nt_final = 10\n")
        values = verify.resolvent(load_config(write_ini(tmp_path / "c.ini", text)))
        rows = list(map(verify.row, dict(CHECKS)[verify.resolvent], values))
        assert [row[0] for row in rows] == ["resolvent_error", "resolvent_order"]
        return rows, sorted(sizes)

    def test_pe_300_passes_both_resolvent_rows(self, tmp_path, monkeypatch):
        # on 51, 101 and 201 nodes the rows read 0.0029 and 1.12, both FAIL: the
        # coarsest level's cell Peclet number is 6
        rows, sizes = self._resolvent_study(tmp_path, monkeypatch, "peclet = 300", 201)
        assert sizes == [201, 401, 801]
        assert rows[0][2] < 2e-4 and abs(rows[1][2] - 2.0) < 0.05
        assert rows[0][-1] is rows[1][-1] is True

    @pytest.mark.parametrize("dispersion, num_nodes, sizes", [
        ("d_ax = 0.0002", 201, [51, 101, 201]),  # h v / d_ax = 0.02 * 0.01 / 0.0002 = 1
        ("d_ax = 0.000199", 201, [201, 401, 801]),  # 1.005
        ("peclet = 300", 21, []),  # too coarse for the study, at any Peclet number
    ])
    def test_levels_follow_the_cell_peclet_number(self, tmp_path, monkeypatch, dispersion,
                                                  num_nodes, sizes):
        rows, got = self._resolvent_study(tmp_path, monkeypatch, dispersion, num_nodes)
        assert got == sizes
        assert [row[-1] == "skipped" for row in rows] == [not sizes] * 2

    def test_three_nodes_pass_with_the_table_thresholds(self, tmp_path):
        # at 3 nodes every row still reads a value or skipped, with its table threshold
        text = (BASE_INI + "[grid]\nnum_nodes = 3\n"
                + "[time]\nt_final = 10\ndt = 0.5\nhorizon = 100\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "verify.csv")
        assert [row[0] for row in rows] == [name for name, _, _ in SPECS]
        for (_, metric, _, threshold, _), spec in zip(rows, SPECS):
            assert threshold == _fmt(spec[2])
            assert metric in (spec[1], "skipped_insufficient_resolution")
        assert rows[0][1] == "max_form_over_norm2" and rows[0][-1] == "true"

    @pytest.mark.parametrize("spec", SPECS, ids=[name for name, _, _ in SPECS])
    def test_pass_rule_at_its_edges(self, spec):
        name, metric, threshold = spec
        if isinstance(threshold, str):
            assert threshold == "2.0+-0.3"
            edges = [(1.7, True), (2.3, True), (np.nextafter(1.7, -np.inf), False),
                     (np.nextafter(2.3, np.inf), False)]
        else:
            edges = [(threshold, True), (np.nextafter(threshold, np.inf), False)]
        for value, passed in edges:
            assert verify.row(spec, value) == (name, metric, value, threshold, passed)
        assert verify.row(spec, "error") == (name, "error", None, threshold, False)
        assert verify.row(spec, "skipped") == (
            name, "skipped_insufficient_resolution", None, threshold, "skipped")

    def test_nondissipative_discretization_fails(self, tmp_path, capsys):
        # convection-dominated mesh: h is far beyond 8*d_ax/v, the central
        # generator loses negativity and the suite must say so
        text = """\
[reactor]
v = 10
k = 0.001
n = 1
l = 1
d_ax = 0.001
[grid]
num_nodes = 5
[time]
t_final = 0
horizon = 0
"""
        cfg = write_ini(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 6
        _, _, rows = read_csv(out / "verify.csv")
        by_name = {r[0]: r for r in rows}
        assert by_name["dissipativity"][-1] == "false"
        capsys.readouterr()

    @staticmethod
    def _dissipativity_row(tmp_path, text):
        """dftr verify's exit code and dissipativity row on a short run of text's config."""
        cfg = write_ini(tmp_path / "c.ini", text + "[time]\nt_final = 10\nhorizon = 100\n")
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
        _, _, rows = read_csv(tmp_path / "out" / "verify.csv")
        return code, {r[0]: r for r in rows}["dissipativity"]

    def test_generator_past_the_gain_domain_fails(self, tmp_path, monkeypatch, capsys):
        # A_h at alpha + 1/2, 0.5 to 1, is not dissipative in the trapezoidal product: its
        # numerical abscissa is +0.00985 on 201 nodes
        monkeypatch.setattr(verify, "build_generator", lambda grid, params, alpha:
                            DiscreteGenerator(grid, params, alpha + 0.5))
        code, row = self._dissipativity_row(tmp_path, BASE_INI + "[grid]\nnum_nodes = 201\n")
        assert code == 6
        assert 0.0098 < float(row[2]) < 0.0099 and row[-1] == "false"
        capsys.readouterr()

    def test_central_stencil_at_pe_1000_on_51_nodes_fails(self, tmp_path, capsys):
        # cell Peclet number 20: even the unweighted abscissa is positive, +0.0937
        code, row = self._dissipativity_row(
            tmp_path, BASE_INI.replace("peclet = 4", "peclet = 1000")
            + "[grid]\nnum_nodes = 51\n")
        assert code == 6
        assert 0.093 < float(row[2]) < 0.094 and row[-1] == "false"
        capsys.readouterr()

    def test_failed_oracle_comparison_exits_six(self, tmp_path, monkeypatch, capsys):
        # the Duhamel errors are numpy floats; a wrong oracle must still
        # fail the run, not only print FAIL
        oracle = verify.duhamel_oracle

        def doubled(*args, **kwargs):
            prof = oracle(*args, **kwargs)
            return Profile(prof.grid, 2.0 * prof.values)

        monkeypatch.setattr(verify, "duhamel_oracle", doubled)
        text = (BASE_INI + SMALL_GRID
                + "[time]\nt_final = 50\ndt = 0.5\nhorizon = 400\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 6
        _, _, rows = read_csv(out / "verify.csv")
        by_name = {r[0]: r for r in rows}
        assert by_name["duhamel_nonlinear"][-1] == "false"
        assert by_name["duhamel_linear"][-1] == "false"
        assert "FAIL" in capsys.readouterr().out

    def test_an_errored_check_gives_error_rows_and_exits_six(self, tmp_path, monkeypatch,
                                                             capsys):
        # 81 nodes: every row passes, so only the errored rows can give exit 6
        text = (BASE_INI + "[grid]\nnum_nodes = 81\n"
                + "[time]\nt_final = 10\ndt = 0.5\nhorizon = 100\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0

        def singular(gen, eta, lam):
            raise SolverError("singular tridiagonal system")

        monkeypatch.setattr(verify, "resolvent_discrete", singular)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 6
        assert capsys.readouterr().err == (
            "check resolvent_error errored: singular tridiagonal system\n")
        _, _, ok = read_csv(tmp_path / "ok" / "verify.csv")
        _, _, rows = read_csv(out / "verify.csv")
        assert len(rows) == len(ok) == len(SPECS)
        for good, got in zip(ok, rows):
            if got[0].startswith("resolvent_"):
                assert got == [good[0], "error", "", good[3], "false"]
            else:
                assert got == good
        checks = json.loads((out / "manifest.json").read_text())["timings"]["checks"]
        assert sorted(checks) == sorted("+".join(name for name, _, _ in specs)
                                        for _, specs in CHECKS)

    def test_checks_keep_no_states(self, tmp_path):
        # equilibrium (dt 0.1 to t_final) and envelope (dt 1 to the horizon)
        # each take 2001 records of 401 nodes
        text = (BASE_INI + "[grid]\nnum_nodes = 401\n"
                + "[time]\nt_final = 200\nhorizon = 2000\n")
        cfg = load_config(write_ini(tmp_path / "c.ini", text))
        tracemalloc.start()
        try:
            rows = list(verify.run_checks(cfg, {}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2001 * 401 * 8 / 4
        by_name = {row[0]: row for row in rows}

        # the same values from runs that store their states
        zeros = Profile(cfg.grid(), np.zeros(401))
        traj = simulate(*closed_loop(cfg.run(), zeros))
        assert traj.states.shape == (2001, 401)
        max_w = float(np.max(np.abs(traj.states)))
        config, steady, w0 = closed_loop(cfg.run(to_horizon=True))
        traj = simulate(config, steady, w0)
        weight = default_weight(config.grid, config.params)
        norms = np.sqrt(2.0 * np.array([energy(w, weight) for w in traj.states]))
        bound = norms[0] * np.exp(-lambda_theoretical(config.params) * traj.times)
        ratio = float(np.max(norms[1:] / bound[1:]))  # records after t = 0
        assert by_name["equilibrium"][2].hex() == max_w.hex()
        assert by_name["envelope"][2].hex() == ratio.hex()
        assert by_name["equilibrium"][-1] is True and by_name["envelope"][-1] is True


class TestEquilibriumStop:
    """The equilibrium check stops once three records in a row are exactly zero."""

    # the reference point on 51 nodes: 4,000 steps of 0.1 s to t_final
    TEXT = (BASE_INI.replace("n = 1", "n = 2") + "[control]\nalpha = 0.25\n"
            + "[grid]\nnum_nodes = 51\n[time]\nt_final = 400\nhorizon = 100\n")

    @staticmethod
    def _run(monkeypatch, cfg):
        """The equilibrium row and the record indices its stack was given."""
        stack, seen = verify.simulate_stack, []

        def counted(runs, record):
            def each(j, w):
                seen.append(j)
                return record(j, w)
            return stack(runs, each)

        monkeypatch.setattr(verify, "simulate_stack", counted)
        (spec,) = dict(CHECKS)[verify.equilibrium]
        return verify.row(spec, verify.equilibrium(cfg)), seen

    @staticmethod
    def _full_max(cfg):
        """max|w| over every step of a stored run from w = 0 to t_final."""
        zeros = Profile(cfg.grid(), np.zeros(cfg.num_nodes))
        traj = simulate(*closed_loop(replace(cfg, record_every=1).run(), zeros))
        assert traj.states.shape[0] == cfg.run().num_steps + 1
        return float(np.max(np.abs(traj.states)))

    @staticmethod
    def _perturb_the_reaction(monkeypatch):
        # C_bar**n off by 1e-6 relative in the stepper only, so r(0) != 0
        import dftr.integrator

        reaction = dftr.integrator._reaction

        def perturbed(params, c_bar):
            k, n, lo, hi, base = reaction(params, c_bar)
            return k, n, lo, hi, base * (1.0 + 1e-6)

        monkeypatch.setattr(dftr.integrator, "_reaction", perturbed)

    @pytest.mark.parametrize("every", [1, 10])
    def test_reference_point_steps_three_records(self, tmp_path, monkeypatch, every):
        cfg = load_config(write_ini(tmp_path / "c.ini", self.TEXT
                                    + f"record_every = {every}\n"))
        row, seen = self._run(monkeypatch, cfg)
        assert seen == [0, 1, 2]
        assert row[2].hex() == self._full_max(cfg).hex() == (0.0).hex()
        assert row[-1] is True

    @pytest.mark.parametrize("every", [1, 10])
    def test_a_nonzero_reaction_at_zero_steps_to_t_final_and_fails(
            self, tmp_path, monkeypatch, capsys, every):
        # the check can fail through the stepper: once w leaves zero it never stops,
        # and it reads every step whatever record_every is
        self._perturb_the_reaction(monkeypatch)
        path = write_ini(tmp_path / "c.ini", self.TEXT + f"record_every = {every}\n")
        cfg = load_config(path)
        row, seen = self._run(monkeypatch, cfg)
        assert seen == list(range(cfg.run().num_steps + 1))
        assert row[2].hex() == self._full_max(cfg).hex()
        assert row[2] > row[3] and row[-1] is False

        out = tmp_path / "out"
        assert main(["verify", "--config", path, "--out", str(out)]) == 6
        _, _, rows = read_csv(out / "verify.csv")
        assert [r[0] for r in rows if r[-1] == "false"] == ["equilibrium"]
        assert re.search(r"^equilibrium .* FAIL$", capsys.readouterr().out, re.M)

    def test_substeps_at_zero_step_to_t_final(self, tmp_path, monkeypatch):
        # k = 1, n = 2, dt = 1 on 51 nodes: the guard gives two substeps at w = 0
        from dftr.integrator import substep_count

        text = (BASE_INI.replace("k = 0.001", "k = 1").replace("n = 1", "n = 2")
                + "[grid]\nnum_nodes = 51\n[time]\nt_final = 50\ndt = 1\nhorizon = 50\n")
        cfg = load_config(write_ini(tmp_path / "c.ini", text))
        config, steady, _ = closed_loop(cfg.run())
        assert substep_count(config, steady.profile.values, 0.0) == 2
        row, seen = self._run(monkeypatch, cfg)
        assert seen == list(range(51))
        assert row[2].hex() == self._full_max(cfg).hex()


class TestEnvelopeUnderflow:
    """The envelope row once the norm or the bound underflows to zero (n = 2, horizon
    7000 s), read with every RuntimeWarning an error."""

    @staticmethod
    def _cfg(tmp_path, peclet, num_nodes, extra=""):
        text = (BASE_INI.replace("peclet = 4", f"peclet = {peclet}").replace("n = 1", "n = 2")
                + f"[grid]\nnum_nodes = {num_nodes}\n[time]\nt_final = 10\n{extra}")
        return load_config(write_ini(tmp_path / "c.ini", text))

    @staticmethod
    def _envelope(cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = verify.envelope(cfg)
        (spec,) = dict(CHECKS)[verify.envelope]
        return verify.row(spec, value)

    @staticmethod
    def _norms_and_bound(cfg):
        """Each record's norm and bound after t = 0, from a run that stores its states."""
        config, steady, w0 = closed_loop(cfg.run(to_horizon=True))
        traj = simulate(config, steady, w0)
        weight = default_weight(config.grid, config.params)
        norms = np.sqrt(2.0 * np.array([energy(w, weight) for w in traj.states]))
        bound = norms[0] * np.exp(-lambda_theoretical(config.params) * traj.times)
        return norms[1:], bound[1:]

    def test_a_zero_norm_meets_the_bound(self, tmp_path):
        # Pe 300: the norm is exactly 0 from t = 936 s, the bound from t = 3,938 s
        cfg = self._cfg(tmp_path, 300, 201)
        row = self._envelope(cfg)
        norms, bound = self._norms_and_bound(cfg)
        live = norms > 0.0
        assert norms[-1] == bound[-1] == 0.0 and np.all(bound[live] > 0.0)
        assert row[2].hex() == float(np.max(norms[live] / bound[live])).hex()
        assert row[2] < 1.0 and row[-1] is True

    def test_a_positive_norm_over_an_underflowed_bound_is_inf_and_fails(self, tmp_path):
        # Pe 1000 on 51 nodes: the norm outlives the bound, at a log-ratio of 4,036
        cfg = self._cfg(tmp_path, 1000, 51)
        row = self._envelope(cfg)
        norms, bound = self._norms_and_bound(cfg)
        assert np.any((norms > 0.0) & (bound == 0.0))
        assert row[2] == np.inf and row[-1] is False

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_envelope_holds_at_pe_100_on_401_nodes_at_dt_1(self, tmp_path):
        # Crank-Nicolson damps A_h's most negative eigenvalue (-66.0) at 0.0606 per
        # second, below lambda_T = 0.0625: the ratio grows to 6.27 at t = 5,889 s,
        # where the energy is subnormal (at dt = 0.1 it reads 0.983)
        assert self._envelope(self._cfg(tmp_path, 100, 401, "dt = 1\n"))[-1] is True


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path, capsys):
        text = BASE_INI.replace("v = 0.01\n", "")
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["steady", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["rho0", "gamma"])
    def test_weight_keys_are_unknown(self, tmp_path, capsys, key):
        # the weight is e^{-v x/(2 d_ax)}, as lambda_T and verify's envelope take it
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + f"[analysis]\n{key} = 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: unknown key {key!r} in section [analysis]\n")
        assert not out.exists()

    def test_overflowing_weight_rate_names_d_ax_and_v(self, tmp_path, capsys):
        # the weight's gamma = v/(2 d_ax) overflows; it is no config key to name
        text = (REPO / "perfbench/configs/simulate-ref.ini").read_text()
        cfg = write_ini(tmp_path / "c.ini", text.replace("peclet = 4", "d_ax = 1e-320"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: v/(2 d_ax) is not finite (d_ax = 1e-320, v = 0.01)\n")
        assert not out.exists()

    def test_steady_failure_is_three(self, tmp_path, capsys):
        text = BASE_INI.replace("k = 0.001", "k = 1").replace("n = 1", "n = 0.5")
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["steady", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "steady-state failure" in capsys.readouterr().err

    def test_integration_failure_is_four(self, tmp_path, capsys):
        text = (BASE_INI.replace("n = 1", "n = 400") + SMALL_GRID
                + "[time]\nt_final = 1\ndt = 1\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "integration failure" in capsys.readouterr().err

    def test_order_beyond_the_substep_guard_is_four_or_five(self, tmp_path, capsys,
                                                            recwarn):
        # at n = 2000 the guard's power overflows; simulate refuses the run
        # and the sweep records the failed cell, and neither warns on the way
        text = (BASE_INI.replace("n = 1", "n = 2000") + SMALL_GRID
                + "[time]\nt_final = 1\ndt = 1\nhorizon = 400\n")
        cfg = write_ini(tmp_path / "c.ini", text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 4
        assert "stiffness estimate inf" in capsys.readouterr().err
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                     "--n-list", "2000", "--alpha-list", "0"]) == 5
        assert "stiffness estimate inf" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("text, message", [(None, "cannot read config file"),
                                               ("v = 0.01\n", "malformed config file")])
    def test_unreadable_or_malformed_config_is_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.ini"
        if text is not None:
            path.write_text(text)
        assert main(["steady", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message} {path}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape", ["file", "under_a_file"])
    def test_out_that_cannot_be_a_directory_is_two(self, tmp_path, capsys, shape):
        # --out naming an existing file, or a path below one, is a config error
        # that names the path, not an OSError traceback
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + SMALL_GRID)
        (tmp_path / "taken").write_text("not a directory\n")
        out = tmp_path / "taken" if shape == "file" else tmp_path / "taken" / "x"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out} is not a usable directory")
        assert (tmp_path / "taken").read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, name, blocker", [
        ("steady", "steady.csv", "directory"), ("steady", "manifest.json", "directory"),
        ("sweep", "sweep_cells.json", "directory"), ("steady", "steady.csv", "/dev/full")])
    def test_output_file_that_cannot_be_written_is_two(self, tmp_path, capsys, command, name,
                                                       blocker):
        # a directory in the file's place fails its open, and /dev/full its write, which
        # names no file; either is a config error that names the file, not a traceback
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + SMALL_GRID + "[time]\nhorizon = 100\n")
        out = tmp_path / "out"
        out.mkdir()
        if blocker == "directory":
            (out / name).mkdir()
        elif os.path.exists(blocker):
            (out / name).symlink_to(blocker)
        else:
            pytest.skip(f"no {blocker} here")
        lists = ["--n-list", "1", "--alpha-list", "0"] if command == "sweep" else []
        assert main([command, "--config", cfg, "--out", str(out), *lists]) == 2
        err = capsys.readouterr().err
        reason = "Is a directory" if blocker == "directory" else "No space left on device"
        assert err == f"config error: --out {out}: cannot write {name}: {reason}\n"

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("raw", ["0", "-0.5", "1.5"])
    def test_window_fraction_outside_the_unit_interval_is_two(self, tmp_path, capsys,
                                                              command, raw):
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + SMALL_GRID
                        + f"[analysis]\nwindow_fraction = {raw}\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: window_fraction must lie in (0, 1], got {float(raw)}" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["steady", "simulate", "sweep", "verify"])
    def test_negative_floor_is_two(self, tmp_path, capsys, command):
        # before the check, this sweep took log(0) of an underflowed norm and exited 5
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 21\n"
                        + "[time]\ndt = 2\nhorizon = 60000\n[analysis]\nfloor = -1\n")
        out = tmp_path / "out"
        args = ["--n-list", "10", "--alpha-list", "0"] if command == "sweep" else []
        assert main([command, "--config", cfg, "--out", str(out), *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: floor must be >= 0, got -1.0\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("flag,raw", [("--n-list", "2,2"), ("--alpha-list", "0,0.5,0.0")])
    def test_repeated_sweep_list_value_is_two(self, tmp_path, capsys, flag, raw):
        # a repeated value would print and write one computed cell twice
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + SMALL_GRID)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), flag, raw]) == 2
        err = capsys.readouterr().err
        assert f"config error: {flag} values must be distinct, got {raw!r}" in err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("command,flag,raw", [
        ("simulate", "--snapshots", "nan"),
        ("simulate", "--snapshots", "0,inf"),
        ("sweep", "--n-list", "inf"),
        ("sweep", "--alpha-list", "nan"),
    ])
    def test_non_finite_list_value_is_two(self, tmp_path, capsys, command, flag, raw):
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + SMALL_GRID)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), flag, raw]) == 2
        err = capsys.readouterr().err
        assert f"config error: {flag} values must be finite" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command,key,raw", [
        ("simulate", "dt", "1e-300"), ("verify", "dt", "1e-300"),
        ("simulate", "dt", "5e-324"), ("verify", "dt", "5e-324"),
        ("sweep", "horizon", "1e300"),
        ("simulate", "record_every", "1e19"), ("sweep", "record_every", "1e19"),
        ("verify", "record_every", "1e19"),
        # 2**63, one past the largest index
        ("simulate", "record_every", "9223372036854775808"),
    ])
    def test_step_count_no_array_can_index_is_two(self, tmp_path, capsys, command, key, raw):
        # t_final 1 at dt 1, then one setting past any array index or infinite
        time = {"t_final": "1", "dt": "1", key: raw}
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 21\n[time]\n"
                        + "".join(f"{k} = {v}\n" for k, v in time.items()))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"config error: (t_final / dt|record_every) = .*, more than numpy "
                            r"can index\n", err), err
        assert not (out / "manifest.json").exists()

    def test_index_error_names_the_integer_as_written(self, tmp_path, capsys):
        # through float, 2**63 + 1 would be named as 2**63
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 21\n[time]\n"
                        "t_final = 1\ndt = 1\nrecord_every = 9223372036854775809\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("config error: record_every = 9223372036854775809, "
                                           "more than numpy can index\n")

    def test_largest_index_is_a_record_every(self, tmp_path):
        # 2**63 - 1: step 0 and the last step, as any record_every past the steps
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 21\n[time]\n"
                        "t_final = 1\ndt = 1\nrecord_every = 9223372036854775807\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "control.csv")
        assert [float(row[0]) for row in rows] == [0.0, 1.0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"]["record_every"] == 2 ** 63 - 1

    def test_grid_numpy_cannot_address_is_two(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 9223372036854775807\n")
        out = tmp_path / "out"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"config error: num_nodes must be at most \d+, "
                            r"got 9223372036854775807\n", err), err
        assert not out.exists()

    def test_grid_past_memory_is_two(self, tmp_path):
        # 1e11 nodes need 745 GiB; capping the child's address space makes that
        # allocation fail at once, where overcommit could let it start
        resource = pytest.importorskip("resource")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 100000000000\n")
        proc = subprocess.run(
            [sys.executable, "-m", "dftr.cli", "steady", "--config", cfg,
             "--out", str(tmp_path / "out")], capture_output=True, text=True,
            env={**child_env(), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("config error: num_nodes = 100000000000: "
                               "no memory for the grid and its weight\n")

    def test_run_past_memory_is_two(self, tmp_path):
        # 1e6 nodes: the grid and its weight (about 3 arrays of 8 MB) fit in 96 MiB of
        # address space above what the child has mapped, the steady solve's (about 19)
        # do not; a MemoryError past load_config is a config error, not a traceback
        resource = pytest.importorskip("resource")
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("the child reads its mapped size from /proc/self/statm")
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 1000000\n")
        script = ("import os, resource, sys\nfrom dftr.cli import main\n"
                  "with open('/proc/self/statm') as fh:\n"
                  "    mapped = int(fh.read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
                  "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                  "cap = mapped + (96 << 20)\n"
                  "if hard != resource.RLIM_INFINITY and hard < cap:\n"
                  "    sys.exit(f'RLIMIT_AS hard limit {hard} is below {cap}')\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "steady", "--config", cfg,
             "--out", str(tmp_path / "out")], capture_output=True, text=True,
            env={**child_env(), "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "config error: num_nodes = 1000000: no memory for this run\n"

    @pytest.mark.parametrize("command, end", [("simulate", "t_final"), ("sweep", "horizon"),
                                              ("verify", "horizon")])
    def test_records_past_memory_name_the_time_keys(self, tmp_path, command, end):
        # 21 nodes fit anywhere; 1e11 + 1 records of them (simulate's trajectory, 16.8 TB)
        # or of one norm each (the sweep's and verify's envelope, 800 GB) do not: the error
        # names the keys that set the record count, not num_nodes, and verify gives it
        # before its first row
        resource = pytest.importorskip("resource")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
        cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 21\n"
                        + "[time]\ndt = 1\n" + "".join(
                            f"{key} = {value}\n"
                            for key, value in {"t_final": 10, end: 100000000000}.items()))
        args = ["--n-list", "1", "--alpha-list", "0"] if command == "sweep" else []
        proc = subprocess.run(
            [sys.executable, "-m", "dftr.cli", command, "--config", cfg,
             "--out", str(tmp_path / "out"), *args], capture_output=True, text=True,
            env={**child_env(), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"config error: {end} = 100000000000, dt = 1, record_every = 1: "
                               "no memory for the 100000000001 records of this run\n")
        assert proc.stdout == ""


class TestDeterminism:
    CFG = (BASE_INI + SMALL_GRID + "[time]\nt_final = 400\nhorizon = 400\n")

    def test_sweep_reruns_are_byte_identical(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", self.CFG)
        args = ["--n-list", "1,2", "--alpha-list", "0,0.5"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(out1)] + args) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)] + args) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_hash_excludes_output_directory(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", BASE_INI)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["steady", "--config", cfg, "--out", str(out1)])
        main(["steady", "--config", cfg, "--out", str(out2)])
        h1 = json.loads((out1 / "manifest.json").read_text())["hash"]
        h2 = json.loads((out2 / "manifest.json").read_text())["hash"]
        assert h1 == h2
        assert (out1 / "steady.csv").read_bytes() == (out2 / "steady.csv").read_bytes()


class TestWriter:
    def test_edge_values_match_reference_formatting(self, tmp_path):
        cells = [
            (-0.0, format(-0.0, ".17g")),
            (5e-324, format(5e-324, ".17g")),
            (2.2250738585072014e-308, format(2.2250738585072014e-308, ".17g")),
            (1.7976931348623157e308, format(1.7976931348623157e308, ".17g")),
            (0.1, format(0.1, ".17g")),
            (1 / 3, format(1 / 3, ".17g")),
            (np.float64(2 / 3), format(2 / 3, ".17g")),
            (np.float32(0.1), format(float(np.float32(0.1)), ".17g")),
            (7, str(7)),
            (np.int64(-3), str(-3)),
            (True, "true"),
            (np.bool_(False), "false"),
            (None, ""),
            ("skipped", "skipped"),
        ]
        values = [value for value, _ in cells]
        header = [f"c{i}" for i in range(len(cells))]
        path = tmp_path / "edge.csv"
        write_csv(path, "0123456789abcdef", header, [values, values[::-1]])

        texts = [text for _, text in cells]
        expected = ("# manifest_hash=0123456789abcdef\n" + ",".join(header) + "\n"
                    + ",".join(texts) + "\n" + ",".join(texts[::-1]) + "\n")
        assert path.read_bytes() == expected.encode()

    def test_field_rows_match_reference_formatting(self, tmp_path):
        edges = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 0.1, 1 / 3, 1e16, 123456789012345678.0]
        bits = np.random.default_rng(7).integers(0, 2**64, 11_000, dtype=np.uint64)
        finite = bits.view(np.float64)[np.isfinite(bits.view(np.float64))][:10_000]
        assert finite.size == 10_000
        # 10,008 cells of w in 139 records of 72 nodes; t and x hold the edges too
        states = np.concatenate([edges, finite]).reshape(139, 72)
        times = edges + finite[:131].tolist()
        x = np.concatenate([edges, finite[-64:]])
        path = tmp_path / "field.csv"
        write_csv(path, "0123456789abcdef", ("t", "x", "w"),
                  _field_rows(times, x, states))

        expected = "".join(
            f"{format(t, '.17g')},{format(xv, '.17g')},{format(wv, '.17g')}\n"
            for t, w in zip(times, states.tolist()) for xv, wv in zip(x.tolist(), w))
        header = "# manifest_hash=0123456789abcdef\nt,x,w\n"
        assert path.read_bytes() == (header + expected).encode()


    def test_column_rows_match_reference_formatting(self, tmp_path):
        # 3,000 rows of three columns: three blocks, the last one short; every
        # column holds the edges in its first ten rows
        edges = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 0.1, 1 / 3, 1e16, 123456789012345678.0, 0.0, -1e-5]
        bits = np.random.default_rng(11).integers(0, 2**64, 9_200, dtype=np.uint64)
        finite = bits.view(np.float64)[np.isfinite(bits.view(np.float64))][:9_000 - 30]
        columns = np.concatenate([edges * 3, finite]).reshape(3_000, 3).T
        path = tmp_path / "columns.csv"
        write_csv(path, "0123456789abcdef", ("a", "b", "c"), _column_rows(*columns))

        expected = "".join(",".join(format(v, ".17g") for v in row) + "\n"
                           for row in columns.T.tolist())
        header = "# manifest_hash=0123456789abcdef\na,b,c\n"
        assert path.read_bytes() == (header + expected).encode()


def test_every_export_resolves():
    # a name left in __all__ after its object is gone breaks `from dftr import *`
    namespace = {}
    exec("from dftr import *", namespace)
    assert all(namespace[name] is getattr(dftr, name) for name in dftr.__all__)


@pytest.mark.parametrize("argv", [
    pytest.param([sys.executable, "-m", "dftr.cli"], id="module"),
    pytest.param(["dftr"], id="script", marks=pytest.mark.skipif(
        shutil.which("dftr") is None, reason="console script not on PATH")),
])
def test_console_entry_point(tmp_path, argv):
    # the child's exit code is main()'s
    env = child_env()

    def run(text):
        cfg = write_ini(tmp_path / "c.ini", text)
        return subprocess.run(argv + ["steady", "--config", cfg,
                                      "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env)

    proc = run(BASE_INI)
    assert proc.returncode == 0, proc.stderr
    assert "steady state solved" in proc.stdout
    proc = run(BASE_INI.replace("v = 0.01\n", ""))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_manifest_records_lapack_and_numpy_outside_the_hash(tmp_path, monkeypatch, capsys):
    # the solves' LAPACK, numpy's version, the load phase, the peak RSS and the
    # printed solver effort land in manifest.json outside the hash; a run forced
    # onto scipy's cython_lapack keeps the hash and every CSV byte
    cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 21\n"
                    + "[time]\nt_final = 10\ndt = 0.5\n")

    def run(command, out):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert {"lapack", "numpy"} <= set(doc) and "load_s" in doc["timings"]
        assert doc["hash"] == settings_hash({"command": command, "version": dftr.__version__,
                                             "settings": doc["settings"]})
        if os.path.exists("/proc/self/status"):
            assert doc["peak_rss_mib"] > 0.0
        return doc, capsys.readouterr().out

    docs, csvs = [], []
    for name, lapack in (("chosen", operator._LAPACK), ("scipy", operator._scipy_lapack())):
        monkeypatch.setattr(operator, "_LAPACK", lapack)
        out = tmp_path / name
        doc, printed = run("simulate", out)
        docs.append(doc)
        csvs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert docs[-1]["lapack"] == lapack.name
        assert docs[-1]["numpy"] == np.__version__
        assert 0.0 < docs[-1]["timings"]["load_s"]
    assert docs[1]["lapack"] == "scipy.linalg.cython_lapack"
    assert csvs[0] == csvs[1] and len(csvs[0]) == 4
    assert docs[0]["hash"] == docs[1]["hash"]
    inner, events = map(int, re.search(r"inner steps (\d+), negativity events (\d+)",
                                       printed).groups())
    steady, printed = run("steady", tmp_path / "steady")
    iterations, residual = re.search(r"solved: (\d+) Newton iterations, residual (\S+)",
                                     printed).groups()
    newton = steady["solver"]
    assert sorted(newton) == ["newton_iterations", "newton_residual"]
    assert newton["newton_iterations"] == int(iterations) >= 1
    assert format(newton["newton_residual"], ".3e") == residual
    # simulate solves the same steady state before it steps; t_final / dt steps
    assert docs[0]["solver"] == docs[1]["solver"] == {**newton, "inner_steps": inner,
                                                      "negativity_events": events}
    assert inner == 20
    for command in ("sweep", "verify"):
        assert run(command, tmp_path / command)[0]["solver"] == {}


def test_peak_rss_is_null_without_proc(tmp_path, monkeypatch):
    import builtins
    from dftr import cli

    def no_proc(path, *args, **kwargs):
        if str(path).startswith("/proc/"):
            raise FileNotFoundError(path)
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    out = tmp_path / "out"
    assert main(["steady", "--config", write_ini(tmp_path / "c.ini", BASE_INI),
                 "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["peak_rss_mib"] is None


def test_commands_load_only_what_they_run(tmp_path):
    # every command hashes with the interpreter's SHA-256 and verify draws no random
    # numbers, so on numpy >= 2 none loads numpy.random or OpenSSL (_hashlib); only
    # simulate loads the '.17g' writer and only verify its suite; verify's hash is hashlib's
    import hashlib
    cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 21\n"
                    + "[time]\nt_final = 10\ndt = 0.5\nhorizon = 100\n")
    script = ("import json, sys\nimport numpy\n"
              "def loaded():\n"
              "    return [m in sys.modules\n"
              "            for m in ('numpy.random', '_hashlib', 'dftr._g17', 'dftr.verify')]\n"
              "seen = {'numpy': loaded()}\n"
              "from dftr.cli import main\n"
              "for command in sys.argv[2:]:\n"
              "    assert main([command, '--config', sys.argv[1], '--out', command]) == 0\n"
              "    seen[command] = loaded()\n"
              "print(json.dumps(seen))\n")
    commands = ["steady", "sweep", "simulate", "verify"]
    proc = subprocess.run([sys.executable, "-c", script, cfg, *commands],
                          capture_output=True, text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # sys.modules only grows, so each command's entry covers the commands before it
    assert [seen[command][2] for command in commands] == [False, False, True, True]
    assert [seen[command][3] for command in commands] == [False, False, False, True]
    if int(np.__version__.split(".")[0]) >= 2:  # numpy 1.x imports numpy.random at import
        assert [seen[command][:2] for command in ["numpy", *commands]] == [[False, False]] * 5
    doc = json.loads((tmp_path / "verify" / "manifest.json").read_text())
    canon = json.dumps({"command": "verify", "version": dftr.__version__,
                        "settings": doc["settings"]}, sort_keys=True)
    assert doc["hash"] == hashlib.sha256(canon.encode()).hexdigest()[:16]


def test_import_loads_no_scipy_where_numpy_has_the_lapack():
    # numpy's own OpenBLAS serves every solve, so no scipy module, and no second
    # OpenBLAS, is loaded; on a build without the pair the fallback's name shows
    script = ("import sys\nimport dftr.cli\nfrom dftr import operator\n"
              "print(operator._LAPACK.name)\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    name, loaded = proc.stdout.splitlines()
    if name == "scipy.linalg.cython_lapack":
        pytest.skip("this numpy exports no ILP64 dgttrf/dgttrs/dpttrf/dpttrs/dstebz")
    assert name in ("scipy_<name>_64_", "<name>_64_")
    assert loaded == "[]"


def test_runs_never_import_scipy_linalg(tmp_path):
    # dgttrf/dgttrs come from numpy's OpenBLAS or scipy's cython_lapack file and
    # the Duhamel oracle's matrix exponential is numpy's, so no command needs scipy.linalg
    cfg = write_ini(tmp_path / "c.ini", BASE_INI + "[grid]\nnum_nodes = 21\n"
                    + "[time]\nt_final = 10\ndt = 0.5\nhorizon = 100\n")
    commands = ("steady", "simulate", "sweep", "verify")
    script = ("import sys\nfrom dftr.cli import main\n"
              f"for command in {commands!r}:\n"
              f"    assert main([command, '--config', {cfg!r}, '--out', "
              f"{str(tmp_path / 'out')!r}]) == 0\n"
              "print('scipy.linalg' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[-1] == "False"
    duhamel = [line.split() for line in out if line.startswith("duhamel_")]
    assert [row[0] for row in duhamel] == ["duhamel_nonlinear", "duhamel_linear"]
    assert all(row[-1] == "pass" for row in duhamel)


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(REPO)) for pattern in ("configs/*.ini", "perfbench/configs/*.ini")
    for p in REPO.glob(pattern)))
def test_committed_configs_load(path):
    # a ConfigError here names the key a committed config gets wrong
    load_config(str(REPO / path))
