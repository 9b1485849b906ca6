import configparser
import filecmp
import hashlib
import json
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

import phevopt.cli as cli
import phevopt.powertrain as powertrain
import phevopt.scenario as scenario
from phevopt.cli import build_parser, main, run_dp_hybrid
from phevopt.cycle import load_cycle
from phevopt.dpopt import DpConfig
from phevopt.dynamics import VehicleParams
from phevopt.ems import RuleConfig, simulate_rule_based
from phevopt.errors import ScenarioError
from phevopt.powertrain import BatteryParams, DrivetrainParams, PowertrainAssembly
from phevopt.scenario import SCHEMA, load_scenario

CYCLE = "synthetic_cycle.csv"

#: The dataclass each section's numbers fill.
SECTION_FIELDS = {"vehicle": VehicleParams, "drivetrain": DrivetrainParams,
                  "maps": PowertrainAssembly, "battery": BatteryParams,
                  "rule": RuleConfig, "dp": DpConfig}


def float_fields(cls):
    return [f for f in fields(cls) if isinstance(f.default, float)]


#: Every key read from the field it fills; [dp] takes the battery capacity
#: from [battery] and its SOC window from [rule] instead.
FIELD_KEYS = [(section, f.name) for section, cls in SECTION_FIELDS.items()
              for f in float_fields(cls)
              if section != "dp" or f.name not in ("c_batt_kwh", "soc_min", "soc_max")]


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

    @pytest.mark.parametrize("name", ["single_lap.ini", "three_lap.ini",
                                      "obd_single_lap.ini"])
    def test_dp_window_and_start_are_the_rules(self, scenario_dir, name):
        sc = load_scenario(scenario_dir / name)
        assert ((sc.dp.soc_min, sc.dp.soc_max, sc.dp.initial_soc)
                == (sc.rule.soc_low, sc.rule.soc_high, sc.rule.cs_trigger)
                == (12.0, 17.0, 14.0))

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

    @pytest.mark.parametrize("laps", [3, 4])
    def test_sample_limit_counts_the_shared_samples(self, tmp_path, scenario_dir,
                                                    monkeypatch, laps):
        # three laps of 1381 samples share two of them: 4141 samples
        monkeypatch.setattr(scenario, "MAX_SAMPLES", 4141)
        body = f"laps = {laps}\n[accounting]\nuf = 0.8\n"
        p = write_scenario(tmp_path, scenario_dir, body)
        if laps == 3:
            assert load_scenario(p).cycle.n_samples == 4141
        else:
            with pytest.raises(ScenarioError, match=r"^\[cycle\] laps = 4 gives a trip "
                                                    r"of more than 4141 samples"):
                load_scenario(p)

    def test_non_integer_laps_rejected(self, tmp_path, scenario_dir):
        p = write_scenario(tmp_path, scenario_dir, "laps = 2.5\n[accounting]\nuf = 0.8\n")
        with pytest.raises(ScenarioError, match="laps"):
            load_scenario(p)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key,extra", [
        ("battery", "r_in_ohm", ""),
        ("rule", "regen_current_limit_a", ""),
        ("rule", "min_dwell_s", ""),
        ("rule", "cs_trigger", ""),
        pytest.param("calibration", "sim_positive_wh_per_km", "mode = metrics\n",
                     id="calibration-sim_positive_wh_per_km-"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, scenario_dir, section,
                                        key, extra, raw):
        body = f"[accounting]\nuf = 0.8\n[{section}]\n{extra}{key} = {raw}\n"
        with pytest.raises(ScenarioError,
                           match=rf"\[{section}\] {key} = '{raw}' is not a finite"):
            load_scenario(write_scenario(tmp_path, scenario_dir, body))

    @pytest.mark.parametrize("section,key", [
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

    @pytest.mark.parametrize("body,named", [
        pytest.param("[battery]\nc_batt_kwh = 1_8.9\n[accounting]\nuf = 0.8\n",
                     "[battery] c_batt_kwh = '1_8.9'", id="underscore"),
        pytest.param("[dp]\ndeltas = 0.051, 0.2_94\n[accounting]\nuf = 0.8\n",
                     "[dp] deltas = '0.2_94'", id="underscore-in-list"),
        pytest.param("[accounting]\nuf = \u0660.8\n", "[accounting] uf = '\u0660.8'",
                     id="arabic-indic-zero"),
        pytest.param("[dp]\ndeltas = 0.1, 0.3\nefficiencies = 30, \xa032\n"
                     "[accounting]\nuf = 0.8\n", "[dp] efficiencies = '\\xa032'",
                     id="no-break-space-in-list"),
    ])
    def test_number_outside_ascii_grammar_rejected(self, tmp_path, scenario_dir, body,
                                                   named):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, scenario_dir, body))
        assert str(exc.value) == f"{named} is not a number"

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


README = Path(__file__).resolve().parents[1] / "README.md"


def keys_left_out(ini: Path) -> set[tuple[str, str]]:
    """The ``(section, key)`` pairs of the schema that a scenario does not set."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(ini, encoding="utf-8")
    return {(name, key) for name, keys in SCHEMA.items() for key in keys
            if not cp.has_option(name, key)}


class TestSchema:
    @pytest.mark.parametrize("section,key", sorted(
        (name, key) for name, keys in SCHEMA.items() for key in keys))
    def test_every_accepted_key_is_read(self, tmp_path, scenario_dir, section, key):
        entries = {"cycle": {"path": str(scenario_dir / CYCLE)},
                   "accounting": {"uf": "0.8"}}
        entries.setdefault(section, {})[key] = "abc"
        cp = configparser.ConfigParser()
        cp.read_dict(entries)
        p = tmp_path / "case.ini"
        with p.open("w", encoding="utf-8") as fh:
            cp.write(fh)
        with pytest.raises((ScenarioError, FileNotFoundError)) as exc:
            load_scenario(p)
        if isinstance(exc.value, FileNotFoundError):
            assert exc.value.filename == str(tmp_path / "abc")
        else:
            assert re.match(rf"\[{section}\] (.* )?{key}\b", str(exc.value))

    def test_readme_names_what_three_lap_leaves_out(self, scenario_dir):
        text = " ".join(README.read_text(encoding="utf-8").split())
        sentence = re.search(r"`scenarios/three_lap\.ini` writes out every key"
                             r"( except [^.]*)?\.", text)
        named = set(re.findall(r"`\[(\w+)\] (\w+)`", sentence.group(1) or ""))
        assert named == keys_left_out(scenario_dir / "three_lap.ini")


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
        # test and simulated wheel energy in a ratio of 20 scale the loads by 20
        body = ("[accounting]\nuf = 0.8\n[rule]\ninitial_soc = 15.0\n"
                "[calibration]\nmode = metrics\nsim_positive_wh_per_km = 10\n"
                "test_positive_wh_per_km = 200\n")
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
        pytest.param("[dp]\ndeltas = 0.1, 0.3\nefficiencies = 30, 101\n",
                     "error: [dp] efficiencies = 101 must lie in [1e-09, 100]",
                     id="efficiency-above-100"),
        pytest.param("charging_efficiency = 1.5\n",
                     "error: [accounting] charging_efficiency = 1.5 must lie in (0, 1]\n",
                     id="charging-efficiency"),
        pytest.param("[rule]\ncs_trigger = 11\n",
                     "error: [rule] cs_trigger = 11 must lie above soc_low = 12 and below "
                     "soc_high = 17\n", id="trigger-below-the-window"),
        pytest.param("[rule]\nsoc_low = 15\n",
                     "error: [rule] cs_trigger = 14 must lie above soc_low = 15 and below "
                     "soc_high = 17\n", id="window-floor-above-the-trigger"),
        pytest.param("[rule]\nsoc_high = 17%\n", "[rule] soc_high = '17%' is not a number",
                     id="percent-sign"),
        pytest.param("[rule]\nsoc_low = 12\nsoc_high = %(soc_low)s\n",
                     "[rule] soc_high = '%(soc_low)s' is not a number",
                     id="no-interpolation"),
        pytest.param("[maps]\nbelt_ratio = 0\n",
                     "error: [maps] belt_ratio = 0 must be positive",
                     id="zero-belt-ratio"),
        # SOC settings are percentages; each of these once ran to exit 0
        pytest.param("[rule]\nsoc_high = 150\n",
                     "error: [rule] soc_high = 150 lies outside [0, 100]", id="soc-high-150"),
        pytest.param("[rule]\nsoc_low = -5\n",
                     "error: [rule] soc_low = -5 lies outside [0, 100]", id="soc-low-negative"),
        pytest.param("[rule]\ncs_trigger = 150\n",
                     "error: [rule] cs_trigger = 150 lies outside [0, 100]",
                     id="trigger-150"),
        pytest.param("[rule]\ncs_trigger = -1\n",
                     "error: [rule] cs_trigger = -1 lies outside [0, 100]",
                     id="trigger-negative"),
        # a value one ulp past a bound prints in full, not as the bound
        pytest.param("[rule]\nsoc_high = 100.00000000000001\n",
                     "error: [rule] soc_high = 100.00000000000001 lies outside [0, 100]\n",
                     id="soc-high-one-ulp-above-100"),
        pytest.param("[rule]\ncs_trigger = 11.999999999999998\n",
                     "error: [rule] cs_trigger = 11.999999999999998 must lie above "
                     "soc_low = 12 and below soc_high = 17\n",
                     id="trigger-one-ulp-below-the-window"),
        pytest.param("[dp]\ngrid_step = 1e-9\n",
                     "error: [dp] grid_step = 1e-09 gives 5000000001 SOC states, above the "
                     "limit",
                     id="grid-beyond-the-state-limit"),
        # repeating the lap 1e9 times would take an 8 GB time axis alone
        pytest.param("[cycle]\nlaps = 1e9\n",
                     "error: [cycle] laps = 1e+09 gives a trip of more than 524288 "
                     "samples", id="laps-beyond-the-sample-limit"),
        pytest.param("[cycle]\nlaps = 0\n",
                     "error: [cycle] laps = 0 is not a positive whole number",
                     id="no-laps"),
        # each made a quotient or a product of settings overflow
        pytest.param("[battery]\nc_batt_kwh = 5e-324\n",
                     "error: [battery] c_batt_kwh = '5e-324' lies outside the magnitudes "
                     "[1e-09, 1e+09] of a nonzero number", id="denormal-capacity"),
        pytest.param("[vehicle]\nm_t = 1.7976931348623157e308\n",
                     "error: [vehicle] m_t = '1.7976931348623157e308' lies outside",
                     id="largest-float-mass"),
        # one refusing value for each other record rule that a key reaches,
        # named by the record as [section] key = value
        pytest.param("[vehicle]\nm_t = -5\n",
                     "error: [vehicle] m_t = -5 must be positive\n",
                     id="mass"),
        pytest.param("[vehicle]\ni = 0.5\n",
                     "error: [vehicle] i = 0.5 must be at least 1\n",
                     id="inertia"),
        pytest.param("[vehicle]\ncdaf = -1\n",
                     "error: [vehicle] cdaf = -1 must be nonnegative\n",
                     id="drag"),
        pytest.param("[vehicle]\ncrr = 0.1\n",
                     "error: [vehicle] crr = 0.1 must lie in [0, 0.1)\n",
                     id="rolling"),
        pytest.param("[vehicle]\nrho = 0\n",
                     "error: [vehicle] rho = 0 must be positive\n",
                     id="air-density"),
        pytest.param("[drivetrain]\ngear_ratio = 0\n",
                     "error: [drivetrain] gear_ratio = 0 must be positive\n",
                     id="gear-ratio"),
        pytest.param("[drivetrain]\nwheel_radius_m = -0.3\n",
                     "error: [drivetrain] wheel_radius_m = -0.3 must be positive\n",
                     id="wheel-radius"),
        pytest.param("[battery]\nc_batt_kwh = 0\n",
                     "error: [battery] c_batt_kwh = 0 must be positive\n",
                     id="capacity"),
        pytest.param("[battery]\nr_in_ohm = -0.1\n",
                     "error: [battery] r_in_ohm = -0.1 must be nonnegative\n",
                     id="resistance"),
        pytest.param("[battery]\nv_oc = -340\n",
                     "error: [battery] v_oc = -340 must be finite and positive\n",
                     id="voltage"),
        pytest.param("[rule]\ncs_trigger = 18\n",
                     "error: [rule] cs_trigger = 18 must lie above soc_low = 12 and below "
                     "soc_high = 17\n",
                     id="trigger-outside-the-window"),
        pytest.param("[rule]\nmin_dwell_s = -1\n",
                     "error: [rule] min_dwell_s = -1 must be nonnegative\n",
                     id="dwell"),
        pytest.param("[rule]\nwarmup_s = -1\n",
                     "error: [rule] warmup_s = -1 must be nonnegative\n",
                     id="warmup"),
        pytest.param("[rule]\ncrank_power_kw = -2\n",
                     "error: [rule] crank_power_kw = -2 must be nonnegative\n",
                     id="crank"),
        pytest.param("[rule]\nregen_current_limit_a = 0\n",
                     "error: [rule] regen_current_limit_a = 0 must be positive\n",
                     id="regen-limit"),
        pytest.param("[rule]\ninitial_soc = 0\n",
                     "error: [rule] initial_soc = 0 must lie in (0, 100]\n",
                     id="rule-initial-soc"),
        pytest.param("[rule]\ngenset_speed_rpm = 100\n",
                     "error: [rule] genset_speed_rpm = 100 through [maps] belt_ratio = 2.7: "
                     "speed 100 rpm outside map 'synthetic-engine'\n",
                     id="genset-speed"),
        pytest.param("[rule]\nsoc_low = 17\n",
                     "error: [rule] cs_trigger = 14 must lie above soc_low = 17 and below "
                     "soc_high = 17\n", id="empty-window"),
        pytest.param("[dp]\ngrid_step = 0.03\n",
                     "error: [dp] grid_step = 0.03 does not divide the SOC window [12, 17]\n",
                     id="grid-step"),
        pytest.param("[dp]\nobd_energy_per_event_kwh = -1\n",
                     "error: [dp] obd_energy_per_event_kwh = -1 must be finite and "
                     "nonnegative\n",
                     id="obd-energy"),
        pytest.param("uf = 1.5\n",
                     "error: [accounting] uf = 1.5 must lie in [0, 1]\n",
                     id="uf"),
        pytest.param("[calibration]\ntest_positive_wh_per_km = -1\n",
                     "error: [calibration] test_positive_wh_per_km = -1 must be nonnegative\n",
                     id="test-energy"),
        pytest.param("[calibration]\nmode = metrics\nsim_positive_wh_per_km = 0\n"
                     "test_positive_wh_per_km = 259.21\n",
                     "error: [calibration] sim_positive_wh_per_km = 0 must be positive\n",
                     id="zero-sim-energy"),
        pytest.param("[calibration]\nmode = metrics\nsim_positive_wh_per_km = 223.75\n"
                     "test_positive_wh_per_km = 0\n",
                     "error: [calibration] test_positive_wh_per_km = 0 must be positive\n",
                     id="zero-test-energy"),
    ])
    def test_unusable_scenario_number_exits_2(self, tmp_path, scenario_dir, capsys,
                                              body, named):
        # entries under [cycle] join the section write_scenario opens
        rest, _, cycle = body.partition("[cycle]\n")
        # a body that sets uf opens with it, in the [accounting] section opened here
        uf = "" if rest.startswith("uf = ") else "uf = 0.8\n"
        p = write_scenario(tmp_path, scenario_dir, f"{cycle}[accounting]\n{uf}{rest}")
        tracemalloc.start()
        try:
            rc = main(["simulate", "--strategy", "dp", "--scenario", str(p),
                       "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert named in capsys.readouterr().err
        # refused before any array of the run's size is built
        assert peak < 2**20

    @pytest.mark.parametrize("raw,named", [
        pytest.param("0.0_1", "'0.0_1' is not a number", id="underscore"),
        pytest.param("\u0660.\u0660\u0661", "'\u0660.\u0660\u0661' is not a number",
                     id="arabic-indic-digits"),
        pytest.param("nan", "'nan' is not a finite number", id="nan"),
        pytest.param("1e-10", "'1e-10' lies outside the magnitudes [1e-09, 1e+09]",
                     id="below-the-magnitudes"),
    ])
    def test_grid_step_outside_the_scenario_grammar_exits_2(self, tmp_path, scenario_dir,
                                                            capsys, raw, named):
        # --grid-step reads a number as [dp] grid_step does, before any run
        with pytest.raises(SystemExit) as stop:
            main(["simulate", "--strategy", "dp", "--grid-step", raw,
                  "--scenario", str(scenario_dir / "single_lap.ini"),
                  "--out", str(tmp_path / "o")])
        assert stop.value.code == 2
        assert f"argument --grid-step: {named}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw", ["0.02", "2e-2", " 0.002", "0.0025"])
    def test_grid_step_reads_as_float(self, raw):
        args = build_parser().parse_args(["obd", "--scenario", "s.ini", "--grid-step", raw])
        assert args.grid_step == float(raw)

    @pytest.mark.parametrize("body,named", [
        pytest.param("[rule]\nsoc_hihg = 16\n", "[rule] soc_hihg is never read",
                     id="unknown-key"),
        pytest.param("[vehicel]\nm = 1900\n", "[vehicel] m is never read",
                     id="unknown-section"),
        pytest.param("[DEFAULT]\nsoc_high = 16\n", "[DEFAULT] soc_high is never read",
                     id="default-section"),
        pytest.param("[calibration]\nsim_positive_wh_per_km = 223.75\n",
                     "[calibration] sim_positive_wh_per_km is never read",
                     id="sim-metric-without-mode"),
        pytest.param("[calibration]\nmode = none\nsim_percent_idle = 9\n",
                     "[calibration] sim_percent_idle is never read",
                     id="sim-metric-with-mode-none"),
        # settings no caller used; each restates what a run does without it
        *(pytest.param(f"[{section}]\n{entry}\n", f"[{section}] {entry.split()[0]} "
                       "is never read", id=f"removed-{section}-{entry.split()[0]}")
          for section, entry in (("vehicle", "g = 9.81"),
                                 ("maps", "belt_efficiency = 1.0"),
                                 ("calibration", "scale = 1.0"),
                                 ("rule", "genset_electrical_kw = auto"),
                                 ("dp", "terminal = initial"),
                                 ("dp", "obd_enabled = false"),
                                 # the DP's window and start are [rule]'s, and
                                 # its gen-set limit the maps'
                                 ("dp", "soc_min = 12"),
                                 ("dp", "soc_max = 17"),
                                 ("dp", "initial_soc = 14"),
                                 ("dp", "p_genset_max_kw = 40"))),
        pytest.param("[calibration]\nmode = explicit\n",
                     "[calibration] unknown mode 'explicit'", id="removed-explicit-mode"),
        pytest.param("[dp]\nc_batt_kwh = 20\n", "[dp] c_batt_kwh is never read",
                     id="field-taken-from-another-section"),
        pytest.param("[vehicle]\nm = 2100\n", "[vehicle] m is never read",
                     id="curb-mass"),
    ])
    def test_unread_scenario_entry_exits_2(self, tmp_path, scenario_dir, capsys,
                                           body, named):
        p = write_scenario(tmp_path, scenario_dir, "[accounting]\nuf = 0.8\n" + body)
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("dp", [
        pytest.param("deltas = 0.294, 0.2940001, 0.567", id="near-deltas"),
        pytest.param("deltas = 0.294, 0.294, 0.567\nefficiencies = 20, 35, 31",
                     id="repeated-delta"),
    ])
    def test_repeated_decision_label_exits_2(self, tmp_path, scenario_dir, capsys, dp):
        # labels print deltas with %g, so both tables hold two decisions b0.294
        p = write_scenario(tmp_path, scenario_dir, f"[accounting]\nuf = 0.8\n[dp]\n{dp}\n")
        rc = main(["simulate", "--strategy", "dp", "--scenario", str(p),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ("[dp] deltas give two decisions the label 'b0.294'"
                in capsys.readouterr().err)
        assert not (tmp_path / "o" / "dp_schedule.csv").exists()

    def test_increment_within_the_genset_capability_loads(self, tmp_path, scenario_dir):
        # 0.6 % of 18.9 kWh in 10 s takes 40.82 kW, within the maps' 42.38 kW
        # at 2600 rpm: the maps are the one statement of the gen-set's limit
        body = "[accounting]\nuf = 0.8\n[dp]\ndeltas = 0.051, 0.294, 0.6\n"
        sc = load_scenario(write_scenario(tmp_path, scenario_dir, body))
        assert sc.dp.max_positive_delta == 0.6
        assert sc.rule.genset_point.electrical_power_kw == pytest.approx(40.82, abs=0.01)

    def test_increment_beyond_the_genset_capability_exits_3(self, tmp_path, scenario_dir,
                                                             capsys):
        body = "[accounting]\nuf = 0.8\n[dp]\ndeltas = 0.051, 0.294, 0.65\n"
        p = write_scenario(tmp_path, scenario_dir, body)
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert ("infeasible: 44.23 kW exceeds the gen-set's 42.38 kW capability at 2600 rpm"
                in capsys.readouterr().err)

    def test_misspelt_key_named_before_the_default_it_leaves(self, tmp_path,
                                                             scenario_dir, capsys):
        # with soc_low = 15 the default cs_trigger (14) lies below the
        # window; the misspelling is what the message names
        text = (scenario_dir / "three_lap.ini").read_text(encoding="utf-8")
        text = text.replace("soc_low = 12.0\ncs_trigger = 14.0\n",
                            "soc_low = 15\ncs_triger = 16\n")
        p = tmp_path / "three_lap.ini"
        p.write_text(text.replace(CYCLE, str(scenario_dir / CYCLE)), encoding="utf-8")
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "[rule] cs_triger is never read" in capsys.readouterr().err

    def test_unread_key_named_before_a_missing_cycle_file(self, tmp_path, capsys):
        p = tmp_path / "case.ini"
        p.write_text("[cycle]\npath = nowhere.csv\n[accounting]\nuf = 0.8\n"
                     "[rule]\nsoc_hihg = 16\n", encoding="utf-8")
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "[rule] soc_hihg is never read" in capsys.readouterr().err

    def test_disjoint_genset_maps_exit_2(self, tmp_path, scenario_dir, capsys):
        # through the 2.7 belt the engine's 800-1000 rpm never reach the
        # generator's 5000-6000 rpm, so no gen-set point exists
        (tmp_path / "eng.csv").write_text(",10,20\n800,35,35\n1000,35,35\n",
                                          encoding="utf-8")
        (tmp_path / "gen.csv").write_text(",0,60\n5000,90,90\n6000,90,90\n",
                                          encoding="utf-8")
        body = "[accounting]\nuf = 0.8\n[maps]\nengine = eng.csv\ngenerator = gen.csv\n"
        p = write_scenario(tmp_path, scenario_dir, body)
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ("error: [rule] genset_speed_rpm = 2600 through [maps] belt_ratio = 2.7: "
                "speed 2600 rpm outside map 'eng'" in capsys.readouterr().err)

    def test_non_finite_map_cell_exits_2(self, tmp_path, scenario_dir, capsys):
        # an efficiency of inf is no number a map may hold
        (tmp_path / "gen.csv").write_text(",0,60\n0,90,inf\n9000,90,90\n",
                                          encoding="utf-8")
        body = "[accounting]\nuf = 0.8\n[maps]\ngenerator = gen.csv\n"
        p = write_scenario(tmp_path, scenario_dir, body)
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ("error: [maps] generator = gen.csv: line 2: 'inf' is not a finite number"
                in capsys.readouterr().err)

    def test_cycle_outside_the_grammar_exits_2(self, tmp_path, capsys):
        (tmp_path / "cycle.csv").write_text("t_s,v_mps\n0,0\n1,1_0\n", encoding="utf-8")
        p = tmp_path / "case.ini"
        p.write_text("[cycle]\npath = cycle.csv\n[accounting]\nuf = 0.8\n",
                     encoding="utf-8")
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 3: non-numeric value in '1,1_0'" in capsys.readouterr().err

    def test_peak_below_average_exits_2(self, tmp_path, scenario_dir, capsys):
        body = ("[accounting]\nuf = 0.8\n[calibration]\nmode = metrics\n"
                "sim_positive_wh_per_km = 223.75\n"
                "sim_peak_power_kw = 5\nsim_avg_positive_power_kw = 14.04\n")
        p = write_scenario(tmp_path, scenario_dir, body)
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "[calibration] sim_peak_power_kw = 5 lies below" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,named", [
        pytest.param("sim_avg_positive_power_kw = -1",
                     "[calibration] sim_avg_positive_power_kw = -1 is negative",
                     id="negative-average"),
        pytest.param("sim_percent_idle = 150",
                     "[calibration] sim_percent_idle = 150 lies outside [0, 100]",
                     id="idle-beyond-100"),
        # an unset average defaults to 0, which a peak of 1 does not lie below
        pytest.param("test_avg_positive_power_kw = 16.37\ntest_peak_power_kw = 1",
                     "[calibration] test_peak_power_kw = 1 lies below "
                     "test_avg_positive_power_kw = 16.37", id="test-peak-below-average"),
        pytest.param("test_avg_positive_power_kw = -1",
                     "[calibration] test_avg_positive_power_kw = -1 is negative",
                     id="test-negative-average"),
        pytest.param("test_percent_idle = 101",
                     "[calibration] test_percent_idle = 101 lies outside [0, 100]",
                     id="test-idle-beyond-100"),
        *(pytest.param(f"test_{key} = abc",
                       f"[calibration] test_{key} = 'abc' is not a number",
                       id=f"test-{key}-not-a-number")
          for key in ("peak_power_kw", "avg_positive_power_kw", "percent_idle")),
    ])
    def test_bad_calibration_metric_named(self, tmp_path, scenario_dir, capsys,
                                          entry, named):
        # test_* metrics are read under every mode, sim_* only under metrics
        prefix = entry.partition("_")[0]
        mode = "mode = metrics\n" if prefix == "sim" else ""
        body = (f"[accounting]\nuf = 0.8\n[calibration]\n{mode}"
                f"{prefix}_positive_wh_per_km = 223.75\n{entry}\n")
        p = write_scenario(tmp_path, scenario_dir, body)
        rc = main(["analyze", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_grid_step_not_dividing_window_exits_2(self, tmp_path, scenario_dir,
                                                    capsys):
        rc = main(["simulate", "--strategy", "dp",
                   "--scenario", str(scenario_dir / "single_lap.ini"),
                   "--out", str(tmp_path / "o"), "--grid-step", "0.03"])
        assert rc == 2
        # named as a scenario key is named, after the option that set it
        assert capsys.readouterr().err == ("error: --grid-step: grid_step = 0.03 does not "
                                           "divide the SOC window [12, 17]\n")

    def test_grid_step_beyond_the_state_limit_exits_2(self, tmp_path, scenario_dir,
                                                      capsys):
        # numpy once refused 37.3 GiB for this grid, in an uncaught MemoryError
        rc = main(["simulate", "--strategy", "dp",
                   "--scenario", str(scenario_dir / "single_lap.ini"),
                   "--out", str(tmp_path / "o"), "--grid-step", "1e-9"])
        assert rc == 2
        assert "gives 5000000001 SOC states, above the limit" in capsys.readouterr().err

    def test_sweep_beyond_the_byte_budget_exits_2(self, tmp_path, capsys):
        # one 10-s interval on 5000001 states: the two columns' table cells
        # pass the cell bound, but their workspace would take over 1 GB
        (tmp_path / "cycle.csv").write_text("t_s,v_mps\n0,0\n10,0\n", encoding="utf-8")
        p = tmp_path / "case.ini"
        p.write_text("[cycle]\npath = cycle.csv\n[accounting]\nuf = 0.8\n",
                     encoding="utf-8")
        tracemalloc.start()
        try:
            rc = main(["obd", "--scenario", str(p), "--out", str(tmp_path / "o"),
                       "--grid-step", "1e-6"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert ("error: a sweep of 2 x 1 x 5000001 (columns x intervals x states) needs "
                in capsys.readouterr().err)
        assert peak < 2**20


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

    @pytest.mark.parametrize("argv", [["compare"], ["simulate", "--strategy", "dp"]],
                             ids=lambda argv: argv[0])
    def test_only_simulate_keeps_every_cost_row(self, tmp_path, scenario_dir,
                                                monkeypatch, capsys, argv):
        # compare writes no policy.csv, and its rollout reads stage 0 alone
        policies, solve = [], cli.solve

        def recorded(*args, **kwargs):
            policies.append(solve(*args, **kwargs))
            return policies[-1]

        monkeypatch.setattr(cli, "solve", recorded)
        assert main(argv + ["--scenario", str(scenario_dir / "three_lap.ini"),
                            "--out", str(tmp_path / "out")]) == 0
        [policy] = policies
        n, m = policy.decision_idx.shape
        assert policy.cost_to_go.shape == (1 if argv[0] == "compare" else n + 1, m)

    @pytest.mark.parametrize("name", ["single_lap.ini", "obd_single_lap.ini",
                                      "three_lap.ini"])
    def test_compare_is_the_two_simulations(self, tmp_path, scenario_dir, capsys,
                                            name):
        scenario = str(scenario_dir / name)
        cmp = tmp_path / "cmp"
        assert main(["compare", "--scenario", scenario, "--out", str(cmp)]) == 0
        header, *lines = (cmp / "comparison.csv").read_text().splitlines()
        keys = header.split(",")
        rows = [dict(zip(keys, line.split(","), strict=True)) for line in lines]
        assert [row["strategy"] for row in rows] == ["rule", "dp"]
        for row in rows:
            sim = tmp_path / row["strategy"]
            assert main(["simulate", "--strategy", row["strategy"],
                         "--scenario", scenario, "--out", str(sim)]) == 0
            summary = dict(line.split(",") for line
                           in (sim / "summary.csv").read_text().splitlines()[1:])
            assert row == {key: summary[key] for key in keys}
            assert ((cmp / f"plot_{row['strategy']}.csv").read_bytes()
                    == (sim / "plot.csv").read_bytes())

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


#: The digests layerbench's gate checks: SHA-256 of every data file the five
#: commands write on the three shipped scenarios, keyed by command and scenario.
SHIPPED_DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "layerbench"
                              / "golden.json").read_text(encoding="utf-8"))["shipped"]


class TestDeterminism:
    @pytest.mark.parametrize("key", sorted(SHIPPED_DIGESTS))
    def test_shipped_outputs_match_golden_digests(self, tmp_path, scenario_dir, capsys,
                                                  key):
        *command, scenario = key.split()
        out = tmp_path / "o"
        rc = main([*command, "--scenario", str(scenario_dir / scenario), "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in out.iterdir() if p.name != "run.log"}
        assert found == SHIPPED_DIGESTS[key]

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

    @pytest.mark.parametrize("argv", [["analyze"], ["simulate", "--strategy", "dp"],
                                      ["compare"], ["obd"]], ids=lambda a: a[0])
    def test_every_command_writes_the_log(self, tmp_path, scenario_dir, capsys, argv):
        ini = scenario_dir / "single_lap.ini"
        rc = main(argv + ["--scenario", str(ini), "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        keys = [line.split("=", 1)[0]
                for line in (tmp_path / "run.log").read_text().splitlines()]
        assert keys == ["command", "scenario", "version", "elapsed_s"]

    def test_unwritable_log_exits_4(self, tmp_path, scenario_dir, capsys):
        (tmp_path / "run.log").mkdir()
        rc = main(["analyze", "--scenario", str(scenario_dir / "single_lap.ini"),
                   "--out", str(tmp_path)])
        assert rc == 4
        assert "io error" in capsys.readouterr().err
