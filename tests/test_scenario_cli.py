import filecmp
from dataclasses import fields
from pathlib import Path

import pytest

import phevopt.cli as cli
import phevopt.powertrain as powertrain
from phevopt.cli import main, run_dp_hybrid
from phevopt.cycle import load_cycle
from phevopt.dpopt import DpConfig
from phevopt.dynamics import VehicleParams
from phevopt.ems import RuleConfig, simulate_rule_based
from phevopt.errors import ScenarioError
from phevopt.powertrain import BatteryParams, DrivetrainParams, PowertrainAssembly
from phevopt.scenario import load_scenario

CYCLE = "synthetic_cycle.csv"

#: The dataclass each section's numbers fill.
SECTION_FIELDS = {"vehicle": VehicleParams, "drivetrain": DrivetrainParams,
                  "maps": PowertrainAssembly, "battery": BatteryParams,
                  "rule": RuleConfig, "dp": DpConfig}


def float_fields(cls):
    return [f for f in fields(cls) if isinstance(f.default, float)]


#: Every key read from the field it fills; [dp] takes the battery capacity
#: from [battery] instead.
FIELD_KEYS = [(section, f.name) for section, cls in SECTION_FIELDS.items()
              for f in float_fields(cls) if (section, f.name) != ("dp", "c_batt_kwh")]


def write_scenario(tmp_path: Path, scenario_dir: Path, body: str) -> Path:
    text = f"[cycle]\npath = {scenario_dir / CYCLE}\n" + body
    p = tmp_path / "case.ini"
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadScenario:
    def test_three_lap_composition(self, scenario_dir):
        sc = load_scenario(scenario_dir / "three_lap.ini")
        assert sc.laps == 3
        lap = load_cycle(scenario_dir / CYCLE)
        assert sc.cycle.distance_km == pytest.approx(3 * lap.distance_km)
        assert sc.rule.initial_soc == 88.0
        assert sc.rule.cs_trigger == 14.0
        assert sc.uf == 0.80
        assert sc.charging_efficiency == 0.83

    def test_three_lap_calibration_from_metrics(self, scenario_dir):
        sc = load_scenario(scenario_dir / "three_lap.ini")
        assert sc.calibration.energy_scale == pytest.approx(1.1584804, abs=1e-6)
        assert sc.calibration.avg_power_ratio == pytest.approx(1.1659544, abs=1e-6)

    def test_dp_defaults_follow_rule(self, scenario_dir):
        sc = load_scenario(scenario_dir / "three_lap.ini")
        assert sc.dp.initial_soc == sc.rule.cs_trigger == 14.0
        assert sc.dp.soc_min == 12.0 and sc.dp.soc_max == 17.0
        assert sc.dp.grid_step == 0.01

    def test_auto_genset_point_sized_for_max_delta(self, scenario_dir):
        sc = load_scenario(scenario_dir / "single_lap.ini")
        assert sc.rule.genset_point.electrical_power_kw == pytest.approx(
            38.57868, abs=1e-4)
        assert sc.rule.genset_point.engine_speed_rpm == 2600.0

    def test_auto_decisions_share_the_operating_point(self, scenario_dir):
        sc = load_scenario(scenario_dir / "single_lap.ini")
        labels = [d.label for d in sc.dp.decisions]
        assert labels[0] == "null"
        assert labels[1:] == ["b0.051", "b0.294", "b0.567"]
        effs = {d.efficiency_pct for d in sc.dp.decisions[1:]}
        assert len(effs) == 1

    def test_obd_fixture_pins_initial_soc(self, scenario_dir):
        sc = load_scenario(scenario_dir / "obd_single_lap.ini")
        assert sc.dp.initial_soc == 14.0
        assert sc.rule.initial_soc == 14.0
        assert sc.dp.obd_energy_per_event_kwh == pytest.approx(0.00497)

    def test_missing_uf_rejected(self, tmp_path, scenario_dir):
        p = write_scenario(tmp_path, scenario_dir, "")
        with pytest.raises(ScenarioError, match="utility factor"):
            load_scenario(p)

    def test_uf_out_of_range_rejected(self, tmp_path, scenario_dir):
        p = write_scenario(tmp_path, scenario_dir, "[accounting]\nuf = 1.4\n")
        with pytest.raises(ScenarioError, match=r"\[0, 1\]"):
            load_scenario(p)

    def test_bad_number_rejected(self, tmp_path, scenario_dir):
        p = write_scenario(tmp_path, scenario_dir,
                           "[accounting]\nuf = 0.8\n[battery]\nc_batt_kwh = big\n")
        with pytest.raises(ScenarioError, match="not a number"):
            load_scenario(p)

    @pytest.mark.parametrize("eff", ["0", "1.5"])
    def test_charging_efficiency_out_of_range_rejected(self, tmp_path, scenario_dir,
                                                       eff):
        body = f"[accounting]\nuf = 0.8\ncharging_efficiency = {eff}\n"
        with pytest.raises(ScenarioError, match=r"\[accounting\] charging_efficiency"):
            load_scenario(write_scenario(tmp_path, scenario_dir, body))

    def test_bad_boolean_names_key(self, tmp_path, scenario_dir):
        body = "[accounting]\nuf = 0.8\n[dp]\nobd_enabled = maybe\n"
        with pytest.raises(ScenarioError, match=r"\[dp\] obd_enabled"):
            load_scenario(write_scenario(tmp_path, scenario_dir, body))

    @pytest.mark.parametrize("name", ["single_lap.ini", "three_lap.ini",
                                      "obd_single_lap.ini"])
    def test_genset_point_searched_once(self, scenario_dir, monkeypatch, name):
        calls = []
        real = powertrain.genset_point_at

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(powertrain, "genset_point_at", counted)
        load_scenario(scenario_dir / name)
        assert len(calls) == 1

    def test_explicit_genset_power_keeps_decisions_sized(self, tmp_path,
                                                         scenario_dir):
        body = "[accounting]\nuf = 0.8\n[rule]\ngenset_electrical_kw = 30\n"
        sc = load_scenario(write_scenario(tmp_path, scenario_dir, body))
        auto = load_scenario(write_scenario(tmp_path, scenario_dir,
                                            "[accounting]\nuf = 0.8\n"))
        assert sc.rule.genset_point.electrical_power_kw == 30.0
        assert sc.dp.decisions == auto.dp.decisions

    def test_missing_cycle_file(self, tmp_path):
        p = tmp_path / "case.ini"
        p.write_text("[cycle]\npath = nowhere.csv\n[accounting]\nuf = 0.8\n",
                     encoding="utf-8")
        with pytest.raises(FileNotFoundError):
            load_scenario(p)

    def test_missing_cycle_key(self, tmp_path):
        p = tmp_path / "case.ini"
        p.write_text("[accounting]\nuf = 0.8\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match="path"):
            load_scenario(p)

    def test_unknown_calibration_mode(self, tmp_path, scenario_dir):
        p = write_scenario(tmp_path, scenario_dir,
                           "[accounting]\nuf = 0.8\n[calibration]\nmode = guess\n")
        with pytest.raises(ScenarioError, match="unknown mode"):
            load_scenario(p)

    def test_metrics_mode_needs_both_sides(self, tmp_path, scenario_dir):
        body = ("[accounting]\nuf = 0.8\n[calibration]\nmode = metrics\n"
                "sim_positive_wh_per_km = 223.75\n")
        p = write_scenario(tmp_path, scenario_dir, body)
        with pytest.raises(ScenarioError, match="sim_.* and test_"):
            load_scenario(p)

    def test_explicit_scale(self, tmp_path, scenario_dir):
        body = ("[accounting]\nuf = 0.8\n[calibration]\nmode = explicit\n"
                "scale = 1.25\n")
        sc = load_scenario(write_scenario(tmp_path, scenario_dir, body))
        assert sc.calibration.energy_scale == 1.25
        assert sc.calibration.avg_power_ratio is None

    def test_default_calibration_is_unity(self, tmp_path, scenario_dir):
        sc = load_scenario(write_scenario(tmp_path, scenario_dir,
                                          "[accounting]\nuf = 0.8\n"))
        assert sc.calibration.energy_scale == 1.0

    def test_explicit_efficiencies(self, tmp_path, scenario_dir):
        body = ("[accounting]\nuf = 0.8\n[dp]\ndeltas = 0.1, 0.3\n"
                "efficiencies = 30, 32\n")
        sc = load_scenario(write_scenario(tmp_path, scenario_dir, body))
        assert [d.delta_soc for d in sc.dp.decisions] == [0.0, 0.1, 0.3]
        assert sc.dp.decisions[2].efficiency_pct == 32.0

    def test_efficiencies_length_mismatch(self, tmp_path, scenario_dir):
        body = ("[accounting]\nuf = 0.8\n[dp]\ndeltas = 0.1, 0.3\n"
                "efficiencies = 30\n")
        with pytest.raises(ScenarioError, match="match deltas"):
            load_scenario(write_scenario(tmp_path, scenario_dir, body))

    def test_terminal_variants(self, tmp_path, scenario_dir):
        for raw, kind in (("initial", "initial"), ("soc_min", "soc_min"),
                          ("14.5", "threshold")):
            body = f"[accounting]\nuf = 0.8\n[dp]\nterminal = {raw}\n"
            sc = load_scenario(write_scenario(tmp_path, scenario_dir, body))
            assert sc.dp.terminal_rule.kind == kind

    def test_non_integer_laps_rejected(self, tmp_path, scenario_dir):
        p = write_scenario(tmp_path, scenario_dir, "laps = 2.5\n[accounting]\nuf = 0.8\n")
        with pytest.raises(ScenarioError, match="laps"):
            load_scenario(p)

    def test_bad_terminal(self, tmp_path, scenario_dir):
        body = "[accounting]\nuf = 0.8\n[dp]\nterminal = sometimes\n"
        with pytest.raises(ScenarioError, match="terminal"):
            load_scenario(write_scenario(tmp_path, scenario_dir, body))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key,extra", [
        ("battery", "r_in_ohm", ""),
        ("rule", "regen_current_limit_a", ""),
        ("rule", "min_dwell_s", ""),
        ("rule", "genset_electrical_kw", ""),
        ("dp", "initial_soc", ""),
        ("dp", "terminal", ""),
        pytest.param("calibration", "scale", "mode = explicit\n",
                     id="calibration-scale"),
        ("calibration", "sim_positive_wh_per_km", ""),
    ])
    def test_non_finite_number_rejected(self, tmp_path, scenario_dir, section,
                                        key, extra, raw):
        body = f"[accounting]\nuf = 0.8\n[{section}]\n{extra}{key} = {raw}\n"
        with pytest.raises(ScenarioError,
                           match=rf"\[{section}\] {key} = '{raw}' is not a finite"):
            load_scenario(write_scenario(tmp_path, scenario_dir, body))

    @pytest.mark.parametrize("section,key", [
        ("rule", "genset_electrical_kw"),
        ("dp", "initial_soc"),
        ("dp", "terminal"),
        ("calibration", "test_positive_wh_per_km"),
        *FIELD_KEYS,
    ])
    def test_bad_number_names_key(self, tmp_path, scenario_dir, section, key):
        body = f"[accounting]\nuf = 0.8\n[{section}]\n{key} = abc\n"
        with pytest.raises(ScenarioError, match=rf"\[{section}\] {key} = 'abc'"):
            load_scenario(write_scenario(tmp_path, scenario_dir, body))

    @pytest.mark.parametrize("dp,key,bad", [
        ("deltas = nan, 0.2", "deltas", "nan"),
        ("deltas = 0.1, -inf", "deltas", "-inf"),
        ("deltas = 0.1, 0.3\nefficiencies = 30, nan", "efficiencies", "nan"),
        ("deltas = 0.1, 0.3\nefficiencies = inf, 32", "efficiencies", "inf"),
    ])
    def test_non_finite_list_entry_rejected(self, tmp_path, scenario_dir, dp, key,
                                            bad):
        body = f"[accounting]\nuf = 0.8\n[dp]\n{dp}\n"
        with pytest.raises(ScenarioError,
                           match=rf"\[dp\] {key} = '{bad}' is not a finite number"):
            load_scenario(write_scenario(tmp_path, scenario_dir, body))

    def test_terminal_at_window_top_accepted(self, tmp_path, scenario_dir):
        body = "[accounting]\nuf = 0.8\n[dp]\nsoc_max = 17\nterminal = 17\n"
        sc = load_scenario(write_scenario(tmp_path, scenario_dir, body))
        assert sc.dp.terminal_rule.resolve(sc.dp) == 17.0

    def test_minimal_scenario_takes_field_defaults(self, tmp_path, scenario_dir):
        sc = load_scenario(write_scenario(tmp_path, scenario_dir,
                                          "[accounting]\nuf = 0.8\n"))
        assert sc.vp == VehicleParams()
        assert sc.bp == BatteryParams()
        assert sc.assembly.drivetrain == DrivetrainParams()
        for cfg in (sc.assembly, sc.rule, sc.dp):
            for f in float_fields(type(cfg)):
                assert getattr(cfg, f.name) == f.default, f.name

    def test_unset_peak_defaults_to_average(self, tmp_path, scenario_dir):
        body = ("[accounting]\nuf = 0.8\n[calibration]\n"
                "test_positive_wh_per_km = 259.21\ntest_avg_positive_power_kw = 16.37\n")
        sc = load_scenario(write_scenario(tmp_path, scenario_dir, body))
        assert sc.test_metrics.peak_power_kw == 16.37

    @pytest.mark.parametrize("dt", ["0", "-10"])
    def test_non_positive_dt_rejected(self, tmp_path, scenario_dir, dt):
        body = f"[accounting]\nuf = 0.8\n[dp]\ndt_s = {dt}\n"
        with pytest.raises(ScenarioError, match=r"\[dp\] dt_s .* must be positive"):
            load_scenario(write_scenario(tmp_path, scenario_dir, body))


class TestHybridRun:
    def test_single_lap_enters_cs_and_optimizes(self, scenario_dir):
        sc = load_scenario(scenario_dir / "single_lap.ini")
        run = run_dp_hybrid(sc)
        assert run.entry_index is not None
        assert run.roll is not None
        assert run.roll.fuel_kwh > 0
        # the optimized remainder lands on the entry state within one node
        entry = float(run.trace.soc_pct[run.entry_index])
        assert run.final_soc >= entry - sc.dp.grid_step - 1e-9

    def test_cd_only_run_skips_optimization(self, tmp_path, scenario_dir):
        body = "[accounting]\nuf = 0.8\n[rule]\ninitial_soc = 70.0\n"
        sc = load_scenario(write_scenario(tmp_path, scenario_dir, body))
        run = run_dp_hybrid(sc)
        assert run.entry_index is None
        assert run.roll is None
        assert run.ec_cs_fuel_wh_per_km == run.rule_energy.ec_cs_fuel_wh_per_km


class TestCliExitCodes:
    def test_analyze_succeeds(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "out"
        rc = main(["analyze", "--scenario", str(scenario_dir / "single_lap.ini"),
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        vals = dict(line.split(" = ") for line in text.strip().splitlines())
        assert "positive_propulsion_wh_per_km" in vals
        # analyze recomputes the sim side from the cycle itself
        expect = (float(vals["test_positive_propulsion_wh_per_km"])
                  / float(vals["positive_propulsion_wh_per_km"]))
        assert float(vals["calibration_energy_scale"]) == pytest.approx(
            expect, rel=1e-5)
        assert (out / "metrics.csv").exists()
        assert (out / "wheel_power.csv").exists()
        assert (out / "run.log").exists()

    def test_broken_scenario_exits_2(self, tmp_path, scenario_dir, capsys):
        p = write_scenario(tmp_path, scenario_dir, "[accounting]\nuf = 2.0\n")
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_scenario_exits_4(self, tmp_path, capsys):
        rc = main(["analyze", "--scenario", str(tmp_path / "absent.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == 4
        assert "io error:" in capsys.readouterr().err

    def test_overloaded_vehicle_exits_3(self, tmp_path, scenario_dir, capsys):
        body = ("[accounting]\nuf = 0.8\n[rule]\ninitial_soc = 15.0\n"
                "[calibration]\nmode = explicit\nscale = 20.0\n")
        p = write_scenario(tmp_path, scenario_dir, body)
        rc = main(["simulate", "--strategy", "rule", "--scenario", str(p),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "infeasible:" in capsys.readouterr().err


    @pytest.mark.parametrize("body,named", [
        pytest.param("[battery]\nr_in_ohm = nan\n", "[battery] r_in_ohm",
                     id="nan-resistance"),
        pytest.param("[dp]\ndt_s = 0\n", "[dp] dt_s", id="zero-interval"),
        pytest.param("[dp]\ndeltas = nan, 0.2\n", "[dp] deltas", id="nan-delta"),
        pytest.param("[dp]\ndeltas = -0.1\n", "[dp] deltas", id="negative-delta"),
        pytest.param("[dp]\ndeltas = 0.2, 0, 0.3\n", "[dp] deltas", id="zero-delta"),
        pytest.param("[dp]\nterminal = 20\n", "[dp] terminal",
                     id="terminal-above-window"),
        pytest.param("charging_efficiency = 1.5\n", "[accounting] charging_efficiency",
                     id="charging-efficiency"),
        pytest.param("[dp]\ninitial_soc = 11\n", "[dp] initial_soc = 11 lies outside",
                     id="initial-soc-outside-window"),
        pytest.param("[dp]\nsoc_min = 15\n", "[rule] cs_trigger = 14, the default",
                     id="default-initial-soc-outside-window"),
    ])
    def test_unusable_scenario_number_exits_2(self, tmp_path, scenario_dir, capsys,
                                              body, named):
        p = write_scenario(tmp_path, scenario_dir, "[accounting]\nuf = 0.8\n" + body)
        rc = main(["simulate", "--strategy", "dp", "--scenario", str(p),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("body,named", [
        pytest.param("[rule]\nsoc_hihg = 16\n", "[rule] soc_hihg is never read",
                     id="unknown-key"),
        pytest.param("[vehicel]\nm = 1900\n", "[vehicel] m is never read",
                     id="unknown-section"),
        pytest.param("[DEFAULT]\nsoc_high = 16\n", "[DEFAULT] soc_high is never read",
                     id="default-section"),
        pytest.param("[calibration]\nscale = 1.2\n", "[calibration] scale is never read",
                     id="scale-without-explicit-mode"),
        pytest.param("[dp]\nc_batt_kwh = 20\n", "[dp] c_batt_kwh is never read",
                     id="field-taken-from-another-section"),
    ])
    def test_unread_scenario_entry_exits_2(self, tmp_path, scenario_dir, capsys,
                                           body, named):
        p = write_scenario(tmp_path, scenario_dir, "[accounting]\nuf = 0.8\n" + body)
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_peak_below_average_exits_2(self, tmp_path, scenario_dir, capsys):
        body = ("[accounting]\nuf = 0.8\n[calibration]\nsim_positive_wh_per_km = 223.75\n"
                "sim_peak_power_kw = 5\nsim_avg_positive_power_kw = 14.04\n")
        p = write_scenario(tmp_path, scenario_dir, body)
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "[calibration] sim_peak_power_kw = 5 lies below" in capsys.readouterr().err

    def test_grid_step_not_dividing_window_exits_2(self, tmp_path, scenario_dir,
                                                    capsys):
        rc = main(["simulate", "--strategy", "dp",
                   "--scenario", str(scenario_dir / "single_lap.ini"),
                   "--out", str(tmp_path / "o"), "--grid-step", "0.03"])
        assert rc == 2
        assert "does not divide" in capsys.readouterr().err


class TestCliSimulate:
    def test_rule_strategy_outputs(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "rule"
        rc = main(["simulate", "--strategy", "rule",
                   "--scenario", str(scenario_dir / "single_lap.ini"),
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "strategy = rule" in text
        assert "genset_transitions" in text
        for name in ("summary.csv", "trace.csv", "plot.csv", "run.log"):
            assert (out / name).exists()

    def test_dp_strategy_outputs(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "dp"
        rc = main(["simulate", "--strategy", "dp",
                   "--scenario", str(scenario_dir / "single_lap.ini"),
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "strategy = dp" in text
        assert "dp_fuel_kwh" in text
        for name in ("summary.csv", "trace.csv", "policy.csv",
                     "dp_schedule.csv", "plot.csv"):
            assert (out / name).exists()

    def test_grid_step_override(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "coarse"
        rc = main(["simulate", "--strategy", "dp",
                   "--scenario", str(scenario_dir / "single_lap.ini"),
                   "--out", str(out), "--grid-step", "0.05"])
        assert rc == 0
        capsys.readouterr()
        grid = {line.split(",")[1] for line
                in (out / "policy.csv").read_text().splitlines()[1:]}
        assert len(grid) == 101

    def test_compare_outputs(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--scenario", str(scenario_dir / "single_lap.ini"),
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("rule,")
        assert lines[2].startswith("dp,")

    def test_compare_simulates_once(self, tmp_path, scenario_dir, monkeypatch,
                                    capsys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return simulate_rule_based(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_rule_based", counted)
        rc = main(["compare", "--scenario", str(scenario_dir / "single_lap.ini"),
                   "--out", str(tmp_path / "cmp")])
        assert rc == 0
        assert len(calls) == 1

    def test_obd_outputs(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "obd"
        rc = main(["obd", "--scenario", str(scenario_dir / "obd_single_lap.ini"),
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "increase_pct" in text
        assert "drain_per_event_pct = 0.0262963" in text
        assert (out / "obd_summary.csv").exists()
        assert (out / "obd_trajectories.csv").exists()


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path, scenario_dir, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["simulate", "--strategy", "dp",
                       "--scenario", str(scenario_dir / "single_lap.ini"),
                       "--out", str(out)])
            assert rc == 0
            outs.append(out)
        capsys.readouterr()
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        data = [n for n in names if n != "run.log"]
        assert data
        match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], data,
                                                   shallow=False)
        assert mismatch == [] and errors == []

    def test_wall_clock_only_in_log(self, tmp_path, scenario_dir, capsys):
        out = tmp_path / "o"
        main(["simulate", "--strategy", "rule",
              "--scenario", str(scenario_dir / "single_lap.ini"),
              "--out", str(out)])
        capsys.readouterr()
        log = (out / "run.log").read_text()
        assert "elapsed_s=" in log
        for f in out.iterdir():
            if f.name != "run.log":
                assert "elapsed" not in f.read_text()
