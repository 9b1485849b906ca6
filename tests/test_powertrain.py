import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phevopt.powertrain as powertrain
from phevopt.errors import (
    EmptyMapError,
    EnvelopeError,
    MapDomainError,
    MapFormatError,
)
from phevopt.powertrain import (
    RAD_S_PER_RPM,
    BatteryParams,
    DrivetrainParams,
    EfficiencyMap,
    GenSetPoint,
    _bilinear,
    current_from_power,
    genset_electrical_kw,
    genset_point_at,
    integrate_soc,
    load_map,
    map_lookup,
    max_feasible_torque,
    merge_gen_set,
    motor_electrical_power,
    synthetic_engine_map,
    synthetic_generator_map,
    synthetic_motor_map,
    terminal_power_kw,
)

from helpers import flat_map


def square_map(values, label="unit"):
    """2x2 map on the unit box, handy for corner-level assertions."""
    return EfficiencyMap(np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]),
                         np.asarray(values, dtype=float), label)


class TestEfficiencyMapValidation:
    def test_axes_must_be_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            EfficiencyMap(np.asarray([1.0, 1.0]), np.asarray([0.0, 1.0]),
                          np.full((2, 2), 50.0))

    def test_axes_need_two_points(self):
        with pytest.raises(ValueError, match="two points"):
            EfficiencyMap(np.asarray([1.0]), np.asarray([0.0, 1.0]),
                          np.full((1, 2), 50.0))

    def test_shape_must_match_axes(self):
        with pytest.raises(ValueError, match="shape"):
            EfficiencyMap(np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]),
                          np.full((3, 2), 50.0))

    def test_values_bounded(self):
        with pytest.raises(ValueError):
            square_map([[50.0, 101.0], [50.0, 50.0]])
        with pytest.raises(ValueError):
            square_map([[50.0, -5.0], [50.0, 50.0]])
        with pytest.raises(ValueError):
            square_map([[50.0, 0.0], [50.0, 50.0]])

    def test_nan_marks_infeasible_not_invalid(self):
        m = square_map([[50.0, np.nan], [50.0, 50.0]])
        assert np.isfinite(m.values).sum() == 3

    def test_boundary_value_100_allowed(self):
        m = square_map([[100.0, 100.0], [100.0, 100.0]])
        assert np.isfinite(m.values).sum() == 4


class TestMapLookup:
    def test_exact_at_nodes(self):
        m = square_map([[10.0, 20.0], [30.0, 40.0]])
        assert map_lookup(m, 0.0, 0.0) == 10.0
        assert map_lookup(m, 0.0, 1.0) == 20.0
        assert map_lookup(m, 1.0, 0.0) == 30.0
        assert map_lookup(m, 1.0, 1.0) == 40.0

    def test_midpoint_average(self):
        m = square_map([[80.0, 90.0], [80.0, 90.0]])
        assert map_lookup(m, 0.5, 0.5) == pytest.approx(85.0, rel=1e-12)

    def test_matches_reference_bilinear(self):
        rng = np.random.default_rng(42)
        speed = np.sort(rng.uniform(0.0, 8000.0, 5))
        torque = np.sort(rng.uniform(0.0, 300.0, 4))
        vals = rng.uniform(20.0, 95.0, (5, 4))
        m = EfficiencyMap(speed, torque, vals)
        for _ in range(50):
            s = rng.uniform(speed[0], speed[-1])
            t = rng.uniform(torque[0], torque[-1])
            i = int(np.searchsorted(speed, s, side="right")) - 1
            i = min(max(i, 0), 3)
            j = int(np.searchsorted(torque, t, side="right")) - 1
            j = min(max(j, 0), 2)
            u = (s - speed[i]) / (speed[i + 1] - speed[i])
            w = (t - torque[j]) / (torque[j + 1] - torque[j])
            ref = (vals[i, j] * (1 - u) * (1 - w) + vals[i + 1, j] * u * (1 - w)
                   + vals[i, j + 1] * (1 - u) * w + vals[i + 1, j + 1] * u * w)
            assert map_lookup(m, s, t) == pytest.approx(ref, rel=1e-12)

    @given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_interpolation_stays_within_corner_range(self, s, t):
        m = square_map([[35.0, 55.0], [60.0, 90.0]])
        out = map_lookup(m, s, t)
        assert 35.0 - 1e-9 <= out <= 90.0 + 1e-9

    def test_outside_box_is_domain_error(self):
        m = square_map([[80.0, 90.0], [80.0, 90.0]])
        with pytest.raises(MapDomainError, match="speed"):
            map_lookup(m, -0.1, 0.5)
        with pytest.raises(MapDomainError, match="torque"):
            map_lookup(m, 0.5, 1.2)

    def test_nan_corner_with_weight_is_envelope_error(self):
        m = square_map([[90.0, np.nan], [90.0, np.nan]], label="half")
        with pytest.raises(EnvelopeError, match="half"):
            map_lookup(m, 0.5, 0.5)

    def test_zero_weight_nan_corner_is_usable(self):
        m = square_map([[90.0, np.nan], [90.0, np.nan]])
        assert map_lookup(m, 0.5, 0.0) == pytest.approx(90.0)

    def test_snap_makes_edges_continuous(self):
        m = square_map([[90.0, np.nan], [90.0, np.nan]])
        # 1e-13 into the cell still rounds onto the feasible edge
        assert map_lookup(m, 0.5, 1e-13) == pytest.approx(90.0)

    def test_upper_edge_exact(self):
        m = square_map([[10.0, 20.0], [30.0, 40.0]])
        assert map_lookup(m, 1.0, 1.0 - 1e-13) == pytest.approx(40.0)


class TestMaxFeasibleTorque:
    def test_fully_feasible_map_returns_axis_end(self):
        m = flat_map(90.0)
        assert max_feasible_torque(m, 1234.5) == m.torque_axis[-1]

    def test_power_envelope_limits_high_speed(self):
        m = synthetic_motor_map()
        # 120 kW at 10000 rpm allows 114.6 Nm; last clean node is 100
        assert max_feasible_torque(m, 10000.0) == 100.0
        assert max_feasible_torque(m, 0.0) == m.torque_axis[-1]

    def test_between_rows_uses_both(self):
        m = synthetic_motor_map()
        assert max_feasible_torque(m, 9750.0) == 100.0

    def test_stops_at_first_gap(self):
        m = EfficiencyMap(np.asarray([0.0, 1.0]), np.asarray([5.0, 10.0, 20.0]),
                          np.asarray([[88.0, np.nan, 90.0],
                                      [88.0, np.nan, 90.0]]))
        assert max_feasible_torque(m, 0.5) == 5.0

    def test_infeasible_row_gives_zero(self):
        m = EfficiencyMap(np.asarray([1000.0, 5000.0]), np.asarray([0.0, 1.0]),
                          np.asarray([[np.nan, np.nan], [90.0, 90.0]]))
        assert max_feasible_torque(m, 1000.0) == 0.0

    def test_out_of_range_speed_raises(self):
        m = flat_map(90.0)
        with pytest.raises(MapDomainError):
            max_feasible_torque(m, 30000.0)


class TestMergeGenSet:
    def test_flat_components_multiply(self):
        eng = EfficiencyMap(np.asarray([1000.0, 2000.0]), np.asarray([27.0, 54.0]),
                            np.full((2, 2), 35.0), "eng")
        gen = flat_map(90.0, "gen")
        merged = merge_gen_set(eng, gen, belt_ratio=2.7, belt_efficiency=1.0)
        assert np.allclose(merged.values, 31.5)
        assert merged.label == "eng+gen"

    def test_belt_transform_point(self):
        # generator efficiency varies linearly, so bilinear lookup is exact:
        # engine node (1800 rpm, 120 Nm) maps to (4860 rpm, 44.44 Nm)
        g_speed = np.asarray([2000.0, 6000.0])
        g_torque = np.asarray([0.0, 60.0])
        g_vals = 20.0 + g_speed[:, None] / 1000.0 + g_torque[None, :] / 6.0
        gen = EfficiencyMap(g_speed, g_torque, g_vals)
        eng = EfficiencyMap(np.asarray([1600.0, 1800.0, 2000.0]),
                            np.asarray([100.0, 120.0, 140.0]),
                            np.full((3, 3), 30.0))
        merged = merge_gen_set(eng, gen, belt_ratio=2.7, belt_efficiency=1.0)
        expect = 30.0 * (20.0 + 4.86 + (120.0 / 2.7) / 6.0) / 100.0
        assert merged.values[1, 1] == pytest.approx(expect, rel=1e-9)
        assert merged.values[1, 1] == pytest.approx(9.6802222, abs=1e-6)

    def test_merged_below_both_factors(self, assembly):
        merged = assembly.merged_map
        eng = assembly.engine_map
        for a in range(merged.speed_axis.size):
            for b in range(merged.torque_axis.size):
                v = merged.values[a, b]
                if not np.isfinite(v):
                    continue
                eta_gen = map_lookup(assembly.generator_map,
                                     merged.speed_axis[a] * assembly.belt_ratio,
                                     merged.torque_axis[b] / assembly.belt_ratio)
                assert v <= eng.values[a, b] + 1e-12
                assert v <= eta_gen + 1e-12

    def test_engine_infeasible_stays_infeasible(self):
        eng = EfficiencyMap(np.asarray([1000.0, 2000.0]), np.asarray([27.0, 54.0]),
                            np.asarray([[35.0, np.nan], [35.0, 35.0]]))
        merged = merge_gen_set(eng, flat_map(90.0), belt_ratio=2.7,
                               belt_efficiency=1.0)
        assert np.isnan(merged.values[0, 1])
        assert np.isfinite(merged.values).sum() == 3

    def test_generator_out_of_range_stays_infeasible(self):
        eng = EfficiencyMap(np.asarray([1000.0, 3000.0]), np.asarray([10.0, 20.0]),
                            np.full((2, 2), 35.0))
        gen = EfficiencyMap(np.asarray([2500.0, 6000.0]), np.asarray([0.0, 60.0]),
                            np.full((2, 2), 90.0))
        # 1000 rpm * 2.7 = 2700 in range, 3000 * 2.7 = 8100 out of range
        merged = merge_gen_set(eng, gen, belt_ratio=2.7, belt_efficiency=1.0)
        assert np.all(np.isfinite(merged.values[0]))
        assert np.all(np.isnan(merged.values[1]))

    def test_disjoint_envelopes_raise(self):
        eng = EfficiencyMap(np.asarray([800.0, 1000.0]), np.asarray([10.0, 20.0]),
                            np.full((2, 2), 35.0))
        gen = EfficiencyMap(np.asarray([5000.0, 6000.0]), np.asarray([0.0, 60.0]),
                            np.full((2, 2), 90.0))
        with pytest.raises(EmptyMapError):
            merge_gen_set(eng, gen, belt_ratio=2.7, belt_efficiency=1.0)

    def test_belt_parameters_validated(self):
        eng = flat_map(35.0)
        gen = flat_map(90.0)
        with pytest.raises(ValueError):
            merge_gen_set(eng, gen, belt_ratio=0.0, belt_efficiency=1.0)
        with pytest.raises(ValueError):
            merge_gen_set(eng, gen, belt_ratio=2.7, belt_efficiency=1.5)

    def test_belt_efficiency_scales(self):
        eng = EfficiencyMap(np.asarray([1000.0, 2000.0]), np.asarray([27.0, 54.0]),
                            np.full((2, 2), 35.0))
        merged = merge_gen_set(eng, flat_map(90.0), belt_ratio=2.7,
                               belt_efficiency=0.95)
        assert np.allclose(merged.values, 31.5 * 0.95)


class TestMapIO:
    def test_load_from_path(self, tmp_path):
        path = tmp_path / "engine.csv"
        path.write_text(",0,50,100\n1000,30.5,34,\n2000,31,35.25,36\n",
                        encoding="utf-8")
        m = load_map(path)
        assert m.label == "engine"
        assert m.speed_axis.tolist() == [1000.0, 2000.0]
        assert m.torque_axis.tolist() == [0.0, 50.0, 100.0]
        assert np.isnan(m.values[0, 2])
        assert np.array_equal(m.values, [[30.5, 34.0, np.nan], [31.0, 35.25, 36.0]],
                              equal_nan=True)

    def test_load_from_file_object(self):
        text = ",0,100\n1000,80,85\n2000,82,\n"
        m = load_map(io.StringIO(text))
        assert m.label == ""
        assert m.values[0, 1] == 85.0
        assert np.isnan(m.values[1, 1])

    def test_comments_and_blanks_skipped(self):
        text = "# header comment\n\n,0,100\n# row comment\n1000,80,85\n2000,82,88\n"
        m = load_map(io.StringIO(text))
        assert m.speed_axis.tolist() == [1000.0, 2000.0]

    def test_bad_torque_axis_reports_line(self):
        with pytest.raises(MapFormatError, match="line 1"):
            load_map(io.StringIO(",0,abc\n1000,80,85\n"))

    def test_field_count_reports_line(self):
        with pytest.raises(MapFormatError, match="line 3"):
            load_map(io.StringIO(",0,100\n1000,80,85\n2000,82\n"))

    def test_non_numeric_value_reports_line(self):
        with pytest.raises(MapFormatError, match="line 2"):
            load_map(io.StringIO(",0,100\n1000,80,oops\n"))

    def test_empty_body_rejected(self):
        with pytest.raises(MapFormatError):
            load_map(io.StringIO(",0,100\n"))
        with pytest.raises(MapFormatError):
            load_map(io.StringIO("# only comments\n"))

    def test_structural_errors_become_format_errors(self):
        # descending speed axis fails map validation, rewrapped for callers
        with pytest.raises(MapFormatError, match="ascending"):
            load_map(io.StringIO(",0,100\n2000,80,85\n1000,82,88\n"))


class TestBatteryPower:
    def battery(self, r=0.1, volts=350.0):
        return BatteryParams(c_batt_kwh=18.9, r_in_ohm=r, v_oc=volts)

    def test_discharge_example(self):
        # 350 V * 100 A less 0.1 ohm * (100 A)^2 reaches the bus
        assert terminal_power_kw(self.battery(), 100.0) == pytest.approx(
            34.0, abs=1e-12)

    def test_charge_example(self):
        assert terminal_power_kw(self.battery(), -100.0) == pytest.approx(
            -36.0, abs=1e-12)

    def test_zero_current(self):
        assert terminal_power_kw(self.battery(), 0.0) == 0.0

    def test_ohmic_term_is_always_a_loss(self):
        b = self.battery()
        rng = np.random.default_rng(7)
        for i in rng.uniform(-300.0, 300.0, 40):
            chem = b.v_oc * i / 1000.0
            term = terminal_power_kw(b, i)
            assert chem - term == pytest.approx(b.r_in_ohm * i * i / 1000.0,
                                                rel=1e-12, abs=1e-12)
            assert chem >= term - 1e-12

    def test_round_trip_terminal_loss(self):
        b = self.battery()
        rng = np.random.default_rng(11)
        for i in rng.uniform(1.0, 300.0, 100):
            net = terminal_power_kw(b, i) + terminal_power_kw(b, -i)
            assert net == pytest.approx(-2.0 * b.r_in_ohm * i * i / 1000.0,
                                        rel=1e-12)
            assert net <= 0.0


class TestCurrentFromPower:
    def test_inverts_terminal_relation(self, battery):
        for i in (-250.0, -50.0, 0.0, 80.0, 400.0):
            p = terminal_power_kw(battery, i)
            assert current_from_power(battery, p) == pytest.approx(
                i, abs=1e-9)

    @given(r=st.floats(0.01, 0.2), volts=st.floats(200.0, 420.0),
           frac=st.floats(-1.0, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_over_feasible_branch(self, r, volts, frac):
        b = BatteryParams(c_batt_kwh=18.9, r_in_ohm=r, v_oc=volts)
        i = frac * volts / (2.0 * r) if frac > 0 else frac * 400.0
        p = terminal_power_kw(b, i)
        assert current_from_power(b, p) == pytest.approx(i, rel=1e-7,
                                                               abs=1e-7)

    def test_over_limit_raises(self, battery):
        # flat 340 V, 0.08 ohm tops out at 361.25 kW
        limit = 340.0 * 340.0 / (4.0 * 0.08) / 1000.0
        assert current_from_power(battery, limit) == pytest.approx(
            340.0 / (2.0 * 0.08), rel=1e-9)
        with pytest.raises(EnvelopeError, match="361.25"):
            current_from_power(battery, limit + 0.01)

    def test_zero_resistance_is_linear(self):
        b = BatteryParams(c_batt_kwh=18.9, r_in_ohm=0.0, v_oc=350.0)
        assert current_from_power(b, 35.0) == pytest.approx(100.0, rel=1e-12)
        assert current_from_power(b, -35.0) == pytest.approx(-100.0, rel=1e-12)


class TestIntegrateSoc:
    def flat_battery(self, volts=350.0):
        return BatteryParams(c_batt_kwh=18.9, r_in_ohm=0.0, v_oc=volts)

    def test_charge_example(self):
        # -54 A at 350 V for 360 s moves 1.89 kWh into an 18.9 kWh pack
        b = self.flat_battery()
        out = integrate_soc(b, 50.0, [0.0, 360.0], [-54.0, -54.0])
        assert out.soc == pytest.approx(60.0, abs=1e-9)
        assert not out.clamped

    def test_zero_current_is_identity(self):
        b = self.flat_battery()
        t = np.linspace(0.0, 100.0, 11)
        out = integrate_soc(b, 37.5, t, np.zeros(11))
        assert out.soc == 37.5

    def test_antisymmetry(self):
        b = self.flat_battery()
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 600.0, 61)
        i = rng.uniform(-40.0, 40.0, 61)
        up = integrate_soc(b, 50.0, t, i).soc - 50.0
        down = integrate_soc(b, 50.0, t, -i).soc - 50.0
        assert up == pytest.approx(-down, abs=1e-9)

    def test_sequential_additivity(self):
        b = BatteryParams(c_batt_kwh=18.9, r_in_ohm=0.0, v_oc=350.0)
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 400.0, 41)
        i = rng.uniform(-30.0, 30.0, 41)
        whole = integrate_soc(b, 60.0, t, i).soc
        half = integrate_soc(b, 60.0, t[:21], i[:21]).soc
        rest = integrate_soc(b, half, t[20:], i[20:]).soc
        assert rest == pytest.approx(whole, rel=1e-12)

    def test_discharge_then_recharge_restores(self):
        b = self.flat_battery()
        t = np.linspace(0.0, 300.0, 31)
        i = np.full(31, 25.0)
        mid = integrate_soc(b, 50.0, t, i).soc
        back = integrate_soc(b, mid, t, -i).soc
        assert back == pytest.approx(50.0, abs=1e-9)
        assert mid < 50.0

    def test_clamp_flags(self):
        b = self.flat_battery()
        drained = integrate_soc(b, 5.0, [0.0, 3600.0], [500.0, 500.0])
        assert drained.soc == 0.0 and drained.clamped
        filled = integrate_soc(b, 95.0, [0.0, 3600.0], [-500.0, -500.0])
        assert filled.soc == 100.0 and filled.clamped

    def test_inputs_validated(self):
        b = self.flat_battery()
        with pytest.raises(ValueError):
            integrate_soc(b, 120.0, [0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            integrate_soc(b, 50.0, [0.0, 1.0, 2.0], [0.0, 0.0])


class TestBatteryParamsValidation:
    def test_defaults(self, battery):
        assert battery.c_batt_kwh == 18.9
        assert battery.r_in_ohm == 0.08
        assert battery.v_oc == 340.0

    @pytest.mark.parametrize("kwargs", [
        dict(c_batt_kwh=0.0),
        dict(c_batt_kwh=-1.0),
        dict(r_in_ohm=-0.01),
        dict(v_oc=math.nan),
        dict(v_oc=math.inf),
        dict(v_oc=0.0),
        dict(v_oc=-340.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatteryParams(**kwargs)


def reference_genset_torque(engine_map, gen_map, belt_ratio, speed_rpm,
                            electrical_kw, belt_efficiency=1.0):
    """The fixed 80-step bisection that the early stop replaced."""
    lo = 0.0
    hi = min(max_feasible_torque(engine_map, speed_rpm),
             max_feasible_torque(gen_map, speed_rpm * belt_ratio) * belt_ratio)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if genset_electrical_kw(engine_map, gen_map, belt_ratio, speed_rpm, mid,
                                belt_efficiency) < electrical_kw:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGenSetPointSearch:
    @pytest.mark.parametrize("speed", [1000.0, 1800.0, 2600.0, 3400.0])
    @pytest.mark.parametrize("belt_efficiency", [1.0, 0.97])
    def test_early_stop_matches_fixed_bisection(self, assembly, speed,
                                                belt_efficiency):
        args = (assembly.engine_map, assembly.generator_map, assembly.belt_ratio,
                speed)
        t_hi = min(max_feasible_torque(assembly.engine_map, speed),
                   max_feasible_torque(assembly.generator_map,
                                       speed * assembly.belt_ratio)
                   * assembly.belt_ratio)
        p_hi = genset_electrical_kw(*args, t_hi, belt_efficiency)
        targets = [0.0, 5e-324, 1e-300, 1e-9, p_hi, np.nextafter(p_hi, 0.0)]
        targets += list(np.linspace(0.0, p_hi, 41)[1:-1])
        for kw in targets:
            got = genset_point_at(*args, kw, belt_efficiency).engine_torque_nm
            assert got == reference_genset_torque(*args, kw, belt_efficiency), kw

    def test_early_stop_saves_lookups(self, assembly, monkeypatch):
        calls = []
        real = powertrain.genset_electrical_kw

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(powertrain, "genset_electrical_kw", counted)
        assembly.genset_point(2600.0, 38.57868)
        # one capability lookup plus fewer than the old 80 bisection steps
        assert len(calls) < 81

    def test_point_meets_requested_power(self, assembly, genset_point):
        p = genset_point
        assert p.electrical_power_kw == pytest.approx(38.57868)
        realized = genset_electrical_kw(assembly.engine_map,
                                        assembly.generator_map,
                                        assembly.belt_ratio,
                                        p.engine_speed_rpm, p.engine_torque_nm,
                                        assembly.belt_efficiency)
        assert realized == pytest.approx(38.57868, abs=1e-6)

    def test_combined_efficiency_consistent(self, assembly, genset_point):
        p = genset_point
        eta_eng = map_lookup(assembly.engine_map, p.engine_speed_rpm,
                             p.engine_torque_nm)
        eta_gen = map_lookup(assembly.generator_map,
                             p.engine_speed_rpm * assembly.belt_ratio,
                             p.engine_torque_nm / assembly.belt_ratio)
        assert p.combined_efficiency_pct == pytest.approx(
            eta_eng * eta_gen / 100.0, rel=1e-9)

    def test_flat_map_point_is_analytic(self):
        eng = flat_map(35.0)
        gen = flat_map(90.0)
        # request 10 kW at 2000 rpm: torque = P / (eta_gen * omega)
        p = genset_point_at(eng, gen, 2.7, 2000.0, 10.0, 1.0)
        expect = 10.0e3 / 0.90 / (2000.0 * RAD_S_PER_RPM)
        assert p.engine_torque_nm == pytest.approx(expect, rel=1e-9)
        assert p.combined_efficiency_pct == pytest.approx(31.5, rel=1e-12)

    def test_belt_efficiency_raises_torque(self):
        eng = flat_map(35.0)
        gen = flat_map(90.0)
        base = genset_point_at(eng, gen, 2.7, 2000.0, 10.0, 1.0)
        lossy = genset_point_at(eng, gen, 2.7, 2000.0, 10.0, belt_efficiency=0.9)
        assert lossy.engine_torque_nm == pytest.approx(
            base.engine_torque_nm / 0.9, rel=1e-9)
        assert lossy.combined_efficiency_pct == pytest.approx(31.5 * 0.9, rel=1e-9)

    def test_beyond_capability_raises(self, assembly):
        with pytest.raises(EnvelopeError, match="exceeds"):
            assembly.genset_point(2600.0, 500.0)

    def test_negative_request_rejected(self, assembly):
        with pytest.raises(ValueError):
            assembly.genset_point(2600.0, -1.0)

    def test_no_feasible_torque_raises(self):
        eng = EfficiencyMap(np.asarray([1000.0, 2000.0]), np.asarray([0.0, 50.0]),
                            np.asarray([[np.nan, np.nan], [35.0, 35.0]]))
        gen = flat_map(90.0)
        with pytest.raises(EnvelopeError, match="no feasible"):
            genset_point_at(eng, gen, 2.7, 1000.0, 5.0, 1.0)

    def test_genset_point_validation(self):
        with pytest.raises(ValueError):
            GenSetPoint(2600.0, 150.0, 0.0, 38.0)
        with pytest.raises(ValueError):
            GenSetPoint(2600.0, 150.0, 105.0, 38.0)
        with pytest.raises(ValueError):
            GenSetPoint(2600.0, 150.0, 32.0, -1.0)

    def test_electrical_output_formula(self):
        gen = flat_map(90.0)
        eng = flat_map(35.0)
        # 100 Nm at 2000 rpm is 20.944 kW mechanical
        out = genset_electrical_kw(eng, gen, 2.7, 2000.0, 100.0, 1.0)
        assert out == pytest.approx(20.94395102 * 0.90, rel=1e-8)
        lossy = genset_electrical_kw(eng, gen, 2.7, 2000.0, 100.0,
                                     belt_efficiency=0.9)
        assert lossy == pytest.approx(20.94395102 * 0.90 * 0.9, rel=1e-8)


class TestDrivetrainParams:
    def test_default_conversion(self):
        d = DrivetrainParams()
        assert d.rpm_per_mps == pytest.approx(223.04510, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            DrivetrainParams(gear_ratio=0.0)
        with pytest.raises(ValueError):
            DrivetrainParams(wheel_radius_m=-0.3)


class TestMotorElectricalPower:
    def drv(self):
        return DrivetrainParams()

    def test_below_v_min_is_off(self):
        assert motor_electrical_power(flat_map(90.0), self.drv(), 0.01, 5.0) == 0.0

    def test_zero_power_is_off(self):
        assert motor_electrical_power(flat_map(90.0), self.drv(), 10.0, 0.0) == 0.0

    def test_motoring_divides_by_efficiency(self):
        out = motor_electrical_power(flat_map(90.0), self.drv(), 10.0, 20.0)
        assert out == pytest.approx(20.0 / 0.9, rel=1e-12)

    def test_regen_multiplies_by_efficiency(self):
        out = motor_electrical_power(flat_map(90.0), self.drv(), 10.0, -20.0)
        assert out == pytest.approx(-20.0 * 0.9, rel=1e-12)

    def test_regen_clamped_to_envelope(self):
        m = EfficiencyMap(np.asarray([0.0, 5000.0]), np.asarray([0.0, 100.0]),
                          np.full((2, 2), 90.0))
        d = self.drv()
        v = 2000.0 / d.rpm_per_mps
        out = motor_electrical_power(m, d, v, -40.0)
        # braking torque capped at 100 Nm; remainder is friction
        expect = -100.0 * 2000.0 * RAD_S_PER_RPM / 1000.0 * 0.9
        assert out == pytest.approx(expect, rel=1e-9)
        assert abs(out) < 40.0 * 0.9

    def test_regen_with_no_feasible_torque_is_friction_only(self):
        m = EfficiencyMap(np.asarray([1000.0, 5000.0]), np.asarray([0.0, 100.0]),
                          np.asarray([[np.nan, np.nan], [90.0, 90.0]]))
        d = self.drv()
        v = 1100.0 / d.rpm_per_mps
        # the infeasible 1000 rpm row carries weight, so no regen capture
        assert motor_electrical_power(m, d, v, -40.0) == 0.0

    def test_positive_demand_outside_envelope_raises(self):
        m = synthetic_motor_map()
        d = self.drv()
        v = 6000.0 / d.rpm_per_mps
        p = 250.0 * 6000.0 * RAD_S_PER_RPM / 1000.0
        with pytest.raises(EnvelopeError):
            motor_electrical_power(m, d, v, p)

    def test_motoring_and_regen_bracket_wheel_power(self):
        m = flat_map(85.0)
        d = self.drv()
        for p in (5.0, 17.5, 42.0):
            drive = motor_electrical_power(m, d, 15.0, p)
            brake = motor_electrical_power(m, d, 15.0, -p)
            assert drive > p
            assert -brake < p


class TestSyntheticMaps:
    def test_motor_peak_node(self):
        m = synthetic_motor_map()
        assert map_lookup(m, 5000.0, 160.0) == pytest.approx(94.0, rel=1e-12)

    def test_engine_peak_node(self):
        m = synthetic_engine_map()
        assert map_lookup(m, 2200.0, 120.0) == pytest.approx(36.0, rel=1e-12)

    def test_generator_peak_node(self):
        m = synthetic_generator_map()
        assert map_lookup(m, 6000.0, 60.0) == pytest.approx(92.0, rel=1e-12)

    def test_axis_ranges(self):
        eng = synthetic_engine_map()
        assert eng.speed_axis[0] == 800.0 and eng.speed_axis[-1] == 3600.0
        assert eng.torque_axis[-1] == 180.0
        gen = synthetic_generator_map()
        assert gen.speed_axis[0] == 1000.0 and gen.speed_axis[-1] == 10000.0

    def test_assembly_builds_merged_map(self, assembly):
        assert assembly.merged_map.label == "synthetic-engine+synthetic-generator"
        assert np.isfinite(assembly.merged_map.values).sum() > 0
        peak = np.nanmax(assembly.merged_map.values)
        assert 25.0 < peak < 36.0  # engine 36% times generator < 100%

    def test_peak_efficiency_is_global_max(self):
        m = synthetic_motor_map()
        assert np.nanmax(m.values) == pytest.approx(94.0)


# ---------------------------------------------------------------------------
# Array models against the scalar loop versions they replaced
#
# The reference functions below are the per-point implementations the array
# code superseded, kept verbatim as the oracle: same node snapping, same
# envelope rule, same arithmetic order, so agreement is required bit for bit.

_REF_W_SNAP = 1e-12


def _ref_cell(axis, x):
    i = int(np.searchsorted(axis, x, side="right")) - 1
    i = min(max(i, 0), axis.size - 2)
    u = (x - axis[i]) / (axis[i + 1] - axis[i])
    if u < _REF_W_SNAP:
        u = 0.0
    elif u > 1.0 - _REF_W_SNAP:
        u = 1.0
    return i, u


def _ref_map_lookup(m, speed_rpm, torque_nm):
    if not (m.speed_axis[0] <= speed_rpm <= m.speed_axis[-1]):
        raise MapDomainError("speed")
    if not (m.torque_axis[0] <= torque_nm <= m.torque_axis[-1]):
        raise MapDomainError("torque")
    i, u = _ref_cell(m.speed_axis, speed_rpm)
    j, w = _ref_cell(m.torque_axis, torque_nm)
    v = m.values
    corners = ((v[i, j], (1 - u) * (1 - w)), (v[i + 1, j], u * (1 - w)),
               (v[i, j + 1], (1 - u) * w), (v[i + 1, j + 1], u * w))
    out = 0.0
    for val, weight in corners:
        if weight == 0.0:
            continue
        if not np.isfinite(val):
            raise EnvelopeError("corner")
        out += val * weight
    return out


def _ref_max_feasible_torque(m, speed_rpm):
    if not (m.speed_axis[0] <= speed_rpm <= m.speed_axis[-1]):
        raise MapDomainError("speed")
    i, u = _ref_cell(m.speed_axis, speed_rpm)
    rows = []
    if u < 1.0:
        rows.append(m.values[i])
    if u > 0.0:
        rows.append(m.values[i + 1])
    limit = 0.0
    for j in range(m.torque_axis.size):
        if all(np.isfinite(r[j]) for r in rows):
            limit = float(m.torque_axis[j])
        else:
            break
    return limit


def _ref_motor_electrical_power(motor_map, drv, v_mps, p_wheel_kw, v_min=0.05):
    if v_mps < v_min or p_wheel_kw == 0.0:
        return 0.0
    omega_rpm = v_mps * drv.rpm_per_mps
    torque = p_wheel_kw * 1000.0 / (omega_rpm * RAD_S_PER_RPM)
    if p_wheel_kw > 0:
        eta = _ref_map_lookup(motor_map, omega_rpm, torque)
        return p_wheel_kw / (eta / 100.0)
    t_max = _ref_max_feasible_torque(motor_map, omega_rpm)
    t_regen = min(-torque, t_max)
    if t_regen <= 0:
        return 0.0
    eta = _ref_map_lookup(motor_map, omega_rpm, t_regen)
    p_regen_kw = t_regen * omega_rpm * RAD_S_PER_RPM / 1000.0
    return -p_regen_kw * (eta / 100.0)


def _ref_or_nan(fn, *args):
    """Reference value, NaN where the reference raises, and the error type."""
    try:
        return fn(*args), None
    except (MapDomainError, EnvelopeError) as exc:
        return math.nan, type(exc)


_MAPS = {
    "motor": synthetic_motor_map(),
    "engine": synthetic_engine_map(),
    "generator": synthetic_generator_map(),
    "half": square_map([[90.0, np.nan], [80.0, np.nan]], label="half"),
    "stairs": EfficiencyMap(np.asarray([0.0, 1.0, 2.0]), np.asarray([0.0, 1.0, 2.0]),
                            np.asarray([[90.0, 85.0, np.nan], [88.0, np.nan, np.nan],
                                        [np.nan, np.nan, np.nan]]), "stairs"),
    # the torque limit grows with speed; an infinite node is infeasible too
    "ramp": EfficiencyMap(np.asarray([0.0, 1.0, 2.0]), np.asarray([0.5, 1.0, 2.0, 3.0]),
                          np.asarray([[90.0, 90.0, np.inf, np.nan],
                                      [88.0, 88.0, 86.0, np.nan],
                                      [85.0, 85.0, 84.0, 83.0]]), "ramp"),
}

# offsets in cell widths: inside and just outside the 1e-12 node snap
_NEAR_NODE = st.sampled_from([-1e-11, -1e-13, 0.0, 1e-13, 1e-11])


@st.composite
def axis_points(draw, axis):
    """A point on, next to, between or beyond the nodes of an axis."""
    width = float(axis[-1] - axis[0])
    if draw(st.booleans()):
        k = draw(st.integers(0, axis.size - 1))
        cell = float(axis[min(k + 1, axis.size - 1)] - axis[max(k - 1, 0)]) / 2.0
        return float(axis[k]) + draw(_NEAR_NODE) * cell
    return draw(st.floats(float(axis[0]) - 0.1 * width, float(axis[-1]) + 0.1 * width))


@st.composite
def map_queries(draw):
    name = draw(st.sampled_from(sorted(_MAPS)))
    m = _MAPS[name]
    n = draw(st.integers(1, 12))
    speeds = [draw(axis_points(m.speed_axis)) for _ in range(n)]
    torques = [draw(axis_points(m.torque_axis)) for _ in range(n)]
    return m, np.asarray(speeds), np.asarray(torques)


def _assert_face_matches(face, ref, args):
    expect, err = _ref_or_nan(ref, *args)
    if err is None:
        assert face(*args) == expect
    else:
        with pytest.raises(err):
            face(*args)


class TestArrayModelsMatchScalarReference:
    @given(q=map_queries())
    @settings(max_examples=200, deadline=None)
    def test_bilinear_lookup(self, q):
        m, speeds, torques = q
        ref = [_ref_or_nan(_ref_map_lookup, m, s, t)[0] for s, t in zip(speeds, torques)]
        assert np.array_equal(_bilinear(m, speeds, torques), np.asarray(ref),
                              equal_nan=True)
        for s, t in zip(speeds, torques):
            _assert_face_matches(map_lookup, _ref_map_lookup, (m, s, t))

    @given(q=map_queries())
    @settings(max_examples=200, deadline=None)
    def test_max_feasible_torque(self, q):
        m, speeds, _ = q
        ref = [_ref_or_nan(_ref_max_feasible_torque, m, s)[0] for s in speeds]
        assert np.array_equal(max_feasible_torque(m, speeds), np.asarray(ref),
                              equal_nan=True)
        for s in speeds:
            _assert_face_matches(max_feasible_torque, _ref_max_feasible_torque, (m, s))

    @given(data=st.data(),
           name=st.sampled_from(["motor", "half", "stairs", "ramp"]))
    @settings(max_examples=200, deadline=None)
    def test_motor_model(self, data, name):
        m = _MAPS[name]
        v_min = 0.05
        drv = DrivetrainParams(gear_ratio=1.0) if name != "motor" else DrivetrainParams()
        top = float(m.speed_axis[-1]) / drv.rpm_per_mps
        n = data.draw(st.integers(1, 12))
        # below v_min, across the map, and past its top speed
        v = np.asarray(data.draw(st.lists(
            st.one_of(st.floats(0.0, v_min), st.floats(0.0, 1.2 * top),
                      axis_points(m.speed_axis).map(lambda s: s / drv.rpm_per_mps)
                      .filter(lambda x: x >= 0)),
            min_size=n, max_size=n)))
        # zero, ordinary, and far beyond the envelope in both directions
        p = np.asarray(data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(-60.0, 60.0), st.floats(-600.0, 600.0)),
            min_size=n, max_size=n)))
        ref = [_ref_or_nan(_ref_motor_electrical_power, m, drv, a, b, v_min)[0]
               for a, b in zip(v, p)]
        out = motor_electrical_power(m, drv, v, p)
        assert np.array_equal(out, np.asarray(ref), equal_nan=True)
        for a, b in zip(v, p):
            _assert_face_matches(motor_electrical_power, _ref_motor_electrical_power,
                                 (m, drv, a, b))

    @given(p=st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=12),
           volts=st.floats(300.0, 400.0))
    @settings(max_examples=100, deadline=None)
    def test_battery_current(self, p, volts):
        b = BatteryParams(v_oc=volts)
        expect = []
        for x in p:
            try:
                expect.append(current_from_power(b, x))
            except EnvelopeError:
                expect.append(math.nan)
        assert np.array_equal(current_from_power(b, np.asarray(p)),
                              np.asarray(expect), equal_nan=True)

    def test_merge_matches_node_by_node_lookup(self):
        eng, gen = synthetic_engine_map(), synthetic_generator_map()
        merged = merge_gen_set(eng, gen, 2.7, 0.97)
        for a, speed in enumerate(eng.speed_axis):
            for b, torque in enumerate(eng.torque_axis):
                eta_gen, _ = _ref_or_nan(_ref_map_lookup, gen, speed * 2.7, torque / 2.7)
                expect = eng.values[a, b] * eta_gen / 100.0 * 0.97
                assert (merged.values[a, b] == expect
                        or (np.isnan(merged.values[a, b]) and np.isnan(expect)))
