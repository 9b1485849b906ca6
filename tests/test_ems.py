import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phevopt import ems
from phevopt.cycle import DriveCycle, repeat_cycle
from phevopt.dynamics import wheel_power_series
from phevopt.ems import (
    MODE_CD,
    MODE_CS,
    EnergyResult,
    RuleConfig,
    SimTrace,
    _energy_result,
    simulate_rule_based,
    thermostat_state,
    write_trace,
)
from phevopt.errors import EnvelopeError, InfeasibleVehicleError, MapDomainError
from phevopt.powertrain import (
    RAD_S_PER_RPM,
    BatteryParams,
    check_capability,
    current_from_power,
    map_lookup,
    max_feasible_torque,
    motor_electrical_power,
    soc_drop_pct,
    terminal_power_kw,
)
from phevopt.scenario import load_scenario

CAL = 1.1584804


@pytest.fixture(scope="module")
def cs_run(cycle, vp, assembly, battery, genset_point):
    """One lap started just above the CS trigger, so the run is mostly CS."""
    cfg = RuleConfig(genset_point, initial_soc=15.0)
    trace, energy = simulate_rule_based(cycle, vp, assembly.motor_map,
                                        assembly.drivetrain, battery, cfg, CAL)
    return trace, energy, cfg


@pytest.fixture(scope="module")
def cd_run(cycle, vp, assembly, battery, genset_point):
    """One lap started at high SOC: never reaches the trigger."""
    cfg = RuleConfig(genset_point, initial_soc=70.0)
    trace, energy = simulate_rule_based(cycle, vp, assembly.motor_map,
                                        assembly.drivetrain, battery, cfg, 1.0)
    return trace, energy, cfg


class TestRuleConfigValidation:
    def test_defaults(self, genset_point):
        cfg = RuleConfig(genset_point)
        assert cfg.soc_high == 17.0 and cfg.soc_low == 12.0
        assert cfg.cs_trigger == 14.0
        assert cfg.min_dwell_s == 10.0 and cfg.warmup_s == 20.0
        assert cfg.crank_power_kw == 2.0
        assert cfg.regen_current_limit_a == 150.0

    @pytest.mark.parametrize("kwargs", [
        dict(cs_trigger=18.0),
        dict(cs_trigger=11.0),
        dict(soc_low=17.5),
        dict(min_dwell_s=-1.0),
        dict(warmup_s=-1.0),
        dict(crank_power_kw=-0.5),
        dict(regen_current_limit_a=0.0),
        dict(initial_soc=0.0),
        dict(initial_soc=101.0),
    ])
    def test_invalid_rejected(self, genset_point, kwargs):
        with pytest.raises(ValueError):
            RuleConfig(genset_point, **kwargs)


class TestModeMachine:
    def test_cs_entry_is_a_latch(self, cs_run):
        trace, _, _ = cs_run
        k = trace.cs_entry_index()
        assert k is not None and k > 0
        assert np.all(trace.mode[:k] == MODE_CD)
        assert np.all(trace.mode[k:] == MODE_CS)

    def test_entry_at_first_trigger_crossing(self, cs_run, genset_point):
        trace, _, cfg = cs_run
        k = trace.cs_entry_index()
        assert trace.soc_pct[k] <= cfg.cs_trigger
        assert np.all(trace.soc_pct[:k] > cfg.cs_trigger)

    def test_cd_only_run_never_switches(self, cd_run):
        trace, energy, _ = cd_run
        assert trace.cs_entry_index() is None
        assert np.all(trace.mode == MODE_CD)
        assert not trace.genset_on.any()
        assert trace.fuel_step_kwh.sum() == 0.0
        assert energy.ec_cs_fuel_wh_per_km == 0.0
        assert energy.cs_distance_km == 0.0
        assert trace.genset_transition_times().size == 0

    def test_cd_run_depletes(self, cd_run):
        trace, energy, cfg = cd_run
        assert energy.final_soc < cfg.initial_soc
        assert energy.ec_cd_dc_wh_per_km > 0.0


class TestThermostat:
    def test_genset_only_in_cs(self, cs_run):
        trace, _, _ = cs_run
        assert not trace.genset_on[trace.mode == MODE_CD].any()

    def test_genset_cycles(self, cs_run):
        trace, _, _ = cs_run
        assert trace.genset_transition_times().size >= 2

    def test_dwell_respected(self, cs_run):
        trace, _, cfg = cs_run
        gaps = np.diff(trace.genset_transition_times())
        assert np.all(gaps >= cfg.min_dwell_s)

    def test_turn_on_at_or_below_trigger(self, cs_run):
        trace, _, cfg = cs_run
        on = trace.genset_on.astype(np.int8)
        starts = np.nonzero(np.diff(on) == 1)[0] + 1
        assert starts.size > 0
        assert np.all(trace.soc_pct[starts] <= cfg.cs_trigger)

    def test_turn_off_at_or_above_window_top(self, cs_run):
        trace, _, cfg = cs_run
        on = trace.genset_on.astype(np.int8)
        stops = np.nonzero(np.diff(on) == -1)[0] + 1
        assert stops.size > 0
        assert np.all(trace.soc_pct[stops] >= cfg.soc_high)

    def test_warmup_produces_no_charge(self, cs_run, genset_point):
        trace, _, cfg = cs_run
        on = trace.genset_on.astype(np.int8)
        starts = np.nonzero(np.diff(on) == 1)[0] + 1
        for k0 in starts:
            k = k0
            while k < trace.n_samples and trace.genset_on[k]:
                elapsed = trace.t_s[k] - trace.t_s[k0]
                if elapsed < cfg.warmup_s:
                    assert not trace.genset_warm[k]
                    assert trace.p_genset_elec_kw[k] == 0.0
                    assert trace.crank_kw[k] == cfg.crank_power_kw
                    assert trace.fuel_step_kwh[k] == 0.0
                else:
                    assert trace.genset_warm[k]
                    assert trace.p_genset_elec_kw[k] == pytest.approx(
                        genset_point.electrical_power_kw)
                    assert trace.crank_kw[k] == 0.0
                k += 1

    def test_warm_implies_on(self, cs_run):
        trace, _, _ = cs_run
        assert not (trace.genset_warm & ~trace.genset_on).any()

    def test_charge_only_when_warm(self, cs_run):
        trace, _, _ = cs_run
        producing = trace.p_genset_elec_kw > 0.0
        assert np.array_equal(producing, trace.genset_warm)

    @pytest.mark.parametrize("on,soc,trigger,high,expect", [
        (False, 14.0, 14.0, 17.0, True),    # on at the trigger
        (False, 14.5, 14.0, 17.0, False),   # off inside the band stays off
        (False, 17.0, 14.0, 17.0, False),
        (True, 17.0, 14.0, 17.0, False),    # off at the window top
        (True, 14.5, 14.0, 17.0, True),     # on inside the band stays on
        (True, 14.0, 14.0, 17.0, True),
        (False, 15.0, 15.0, 15.0, True),    # a zero-width band flips each call
        (True, 15.0, 15.0, 15.0, False),
    ])
    def test_hysteresis_truth_table(self, on, soc, trigger, high, expect):
        for x in (soc, np.float64(soc)):  # the SOC loop holds np.float64
            result = thermostat_state(on, x, trigger, high)
            assert type(result) is bool
            assert result is expect


def assert_soc_recurrence_exact(trace, bp):
    """Every step of the trace closes the SOC identity bit for bit."""
    soc = trace.soc_pct
    drop = soc_drop_pct(bp, trace.i_batt_a[:-1], np.diff(trace.t_s))
    assert np.array_equal(soc[1:], np.minimum(soc[:-1] - drop, 100.0))


class TestSocBehavior:
    def test_window_contained_within_step_quantum(self, cs_run):
        trace, _, cfg = cs_run
        cs = trace.mode == MODE_CS
        quantum = np.max(np.abs(np.diff(trace.soc_pct)))
        assert trace.soc_pct[cs].min() >= cfg.soc_low - quantum
        assert trace.soc_pct[cs].max() <= cfg.soc_high + quantum

    def test_soc_integrates_chemistry_power(self, cs_run, battery):
        trace, _, _ = cs_run
        dt = np.diff(trace.t_s)
        v_oc = battery.v_oc
        step = -v_oc * trace.i_batt_a[:-1] * dt / (3.6e6 * battery.c_batt_kwh) * 100.0
        assert np.allclose(np.diff(trace.soc_pct), step, atol=1e-12)

    def test_soc_recurrence_is_exact(self, cs_run, cd_run, battery):
        for trace, _, _ in (cs_run, cd_run):
            assert_soc_recurrence_exact(trace, battery)

    def test_cd_soc_monotone_outside_regen(self, cs_run):
        trace, _, _ = cs_run
        k = trace.cs_entry_index()
        rising = np.diff(trace.soc_pct[:k]) > 1e-12
        regen = trace.i_batt_a[: k - 1] < 0.0
        assert not (rising & ~regen).any()

    def test_battery_empty_raises(self, cycle, vp, assembly, genset_point):
        tiny = BatteryParams(c_batt_kwh=0.2)
        cfg = RuleConfig(genset_point, initial_soc=70.0)
        with pytest.raises(InfeasibleVehicleError, match="battery empty"):
            simulate_rule_based(cycle, vp, assembly.motor_map,
                                assembly.drivetrain, tiny, cfg, 1.0)


class TestRegenLimits:
    def test_bus_current_floor(self, cs_run):
        trace, _, cfg = cs_run
        assert trace.i_batt_a.min() >= -cfg.regen_current_limit_a - 1e-12

    def test_limit_actually_binds(self, cs_run):
        trace, _, cfg = cs_run
        assert np.isclose(trace.i_batt_a, -cfg.regen_current_limit_a).any()

    def test_clip_recomputes_motor_power(self, cs_run, battery):
        trace, _, cfg = cs_run
        clipped = np.isclose(trace.i_batt_a, -cfg.regen_current_limit_a)
        for k in np.nonzero(clipped)[0]:
            bus = (trace.p_motor_elec_kw[k] + trace.crank_kw[k]
                   - trace.p_genset_elec_kw[k])
            expect = terminal_power_kw(battery, -cfg.regen_current_limit_a)
            assert bus == pytest.approx(expect, abs=1e-9)

    def test_regen_locked_out_at_window_top(self, cs_run):
        trace, _, cfg = cs_run
        locked = ((trace.mode == MODE_CS) & (trace.soc_pct >= cfg.soc_high)
                  & (trace.p_wheel_kw < 0.0))
        assert locked.any()
        assert np.all(trace.p_motor_elec_kw[locked] == 0.0)

    def test_regen_active_inside_window(self, cs_run):
        trace, _, _ = cs_run
        assert (trace.p_motor_elec_kw < 0.0).any()


class TestEnergyAccounting:
    def test_per_step_power_identity(self, cs_run, battery):
        # chemistry power = bus power + ohmic loss, every sample
        trace, _, _ = cs_run
        v_oc = battery.v_oc
        chem = v_oc * trace.i_batt_a / 1000.0
        bus = (trace.p_motor_elec_kw + trace.crank_kw - trace.p_genset_elec_kw)
        ohmic = battery.r_in_ohm * trace.i_batt_a**2 / 1000.0
        assert np.allclose(chem, bus + ohmic, atol=1e-9)

    def test_cycle_energy_balance(self, cs_run, battery):
        trace, _, _ = cs_run
        dt = np.diff(trace.t_s)
        v_oc = battery.v_oc
        chem = np.sum(v_oc * trace.i_batt_a[:-1] / 1000.0 * dt)
        motor = np.sum(trace.p_motor_elec_kw[:-1] * dt)
        crank = np.sum(trace.crank_kw[:-1] * dt)
        gen = np.sum(trace.p_genset_elec_kw[:-1] * dt)
        ohmic = np.sum(battery.r_in_ohm * trace.i_batt_a[:-1]**2 / 1000.0 * dt)
        assert chem + gen == pytest.approx(motor + crank + ohmic, rel=1e-9)

    def test_fuel_step_formula(self, cs_run, genset_point):
        trace, _, _ = cs_run
        eff = genset_point.combined_efficiency_pct / 100.0
        dt = np.diff(trace.t_s)
        for k in np.nonzero(trace.fuel_step_kwh[:-1] > 0)[0]:
            expect = trace.p_genset_elec_kw[k] / eff * dt[k] / 3600.0
            assert trace.fuel_step_kwh[k] == pytest.approx(expect, rel=1e-12)

    def test_fuel_only_while_producing(self, cs_run):
        trace, _, _ = cs_run
        burning = trace.fuel_step_kwh > 0.0
        assert not (burning & (trace.p_genset_elec_kw == 0.0)).any()

    def test_distance_split(self, cs_run, cycle):
        _, energy, _ = cs_run
        assert energy.cd_distance_km + energy.cs_distance_km == pytest.approx(
            cycle.distance_km, rel=1e-12)
        assert energy.cd_distance_km > 0.0
        assert energy.cs_distance_km > energy.cd_distance_km

    def test_cs_entry_on_last_sample(self, cycle, vp, assembly, genset_point):
        # the cumulative distance to the last sample, 47.64705882352942 m,
        # passes the trapezoid total, 47.64705882352941 m: the CS distance
        # is 0, not an error
        part = DriveCycle(cycle.t_s[277:288] - cycle.t_s[277], cycle.v_mps[277:288],
                          cycle.grade_deg[277:288])
        cfg = RuleConfig(genset_point, cs_trigger=14.0, initial_soc=23.265)
        trace, energy = simulate_rule_based(
            part, vp, assembly.motor_map, assembly.drivetrain,
            BatteryParams(c_batt_kwh=0.5), cfg, 1.0)
        assert trace.cs_entry_index() == part.n_samples - 1
        assert energy.cd_distance_km > part.distance_km
        assert energy.cs_distance_km == 0.0
        assert energy.ec_cs_fuel_wh_per_km == 0.0

    def test_cs_fuel_rate_recomputable(self, cs_run):
        trace, energy, _ = cs_run
        k = trace.cs_entry_index()
        fuel = trace.fuel_step_kwh[k:-1].sum()
        assert energy.ec_cs_fuel_wh_per_km == pytest.approx(
            fuel * 1000.0 / energy.cs_distance_km, rel=1e-12)

    def test_cd_energy_recomputable(self, cs_run, battery):
        trace, energy, _ = cs_run
        k = trace.cs_entry_index()
        dt = np.diff(trace.t_s)[:k]
        v_oc = battery.v_oc
        kwh = np.sum(v_oc * trace.i_batt_a[:k] / 1000.0 * dt) / 3600.0
        assert energy.ec_cd_dc_wh_per_km == pytest.approx(
            kwh * 1000.0 / energy.cd_distance_km, rel=1e-12)


class TestErrorsAndValidation:
    def test_envelope_error_names_step(self, cycle, vp, assembly, battery,
                                       genset_point):
        cfg = RuleConfig(genset_point, initial_soc=70.0)
        with pytest.raises(EnvelopeError, match=r"step \d+ \(t = "):
            simulate_rule_based(cycle, vp, assembly.motor_map,
                                assembly.drivetrain, battery, cfg,
                                calibration=10.0)

    def test_calibration_validated(self, cycle, vp, assembly, battery,
                                   genset_point):
        cfg = RuleConfig(genset_point)
        with pytest.raises(ValueError):
            simulate_rule_based(cycle, vp, assembly.motor_map,
                                assembly.drivetrain, battery, cfg,
                                calibration=0.0)

    def test_energy_result_validated(self):
        with pytest.raises(ValueError):
            EnergyResult(100.0, 200.0, -1.0, 5.0, 15.0)

    def test_deterministic(self, cycle, vp, assembly, battery, genset_point):
        cfg = RuleConfig(genset_point, initial_soc=15.0)
        a, _ = simulate_rule_based(cycle, vp, assembly.motor_map,
                                   assembly.drivetrain, battery, cfg, CAL)
        b, _ = simulate_rule_based(cycle, vp, assembly.motor_map,
                                   assembly.drivetrain, battery, cfg, CAL)
        assert np.array_equal(a.soc_pct, b.soc_pct)
        assert np.array_equal(a.i_batt_a, b.i_batt_a)
        assert np.array_equal(a.fuel_step_kwh, b.fuel_step_kwh)


class TestTraceExport:
    def test_header_and_shape(self, cs_run, tmp_path):
        trace, _, _ = cs_run
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t_s,v_mps,mode,genset_on")
        assert len(lines) == trace.n_samples + 1

    def test_row_values_round_trip(self, cs_run, tmp_path):
        trace, _, _ = cs_run
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        lines = path.read_text().splitlines()
        k = trace.cs_entry_index()
        row = lines[k + 1].split(",")
        assert float(row[0]) == pytest.approx(trace.t_s[k], abs=1e-3)
        assert row[2] == "CS"
        assert float(row[10]) == pytest.approx(trace.soc_pct[k], abs=1e-6)
        first = lines[1].split(",")
        assert first[2] == "CD"


def reference_simulate_rule_based(cycle, vp, motor_map, drv, bp, cfg, calibration):
    """The thermostat loop as it stood before the per-regime current series:
    one terminal-power inversion per sample. A NaN motor power or current
    is explained by ``map_lookup`` at the motor's operating point, then by
    ``check_capability``."""
    if calibration <= 0:
        raise ValueError("calibration must be positive")
    n = cycle.n_samples
    t = cycle.t_s
    p_wheel = wheel_power_series(vp, cycle) * calibration
    p_motor_series = motor_electrical_power(motor_map, drv, cycle.v_mps, p_wheel)

    trace = SimTrace(
        t_s=t.copy(), v_mps=cycle.v_mps.copy(),
        mode=np.zeros(n, dtype=np.int8),
        genset_on=np.zeros(n, dtype=bool),
        genset_warm=np.zeros(n, dtype=bool),
        p_wheel_kw=p_wheel,
        p_motor_elec_kw=np.zeros(n),
        p_genset_elec_kw=np.zeros(n),
        crank_kw=np.zeros(n),
        i_batt_a=np.zeros(n),
        soc_pct=np.zeros(n),
        fuel_step_kwh=np.zeros(n),
    )

    soc = cfg.initial_soc
    cs_entered = False
    genset_on = False
    last_change_t = -np.inf
    genset_start_t = -np.inf

    for k in range(n):
        now = t[k]
        # thermostat update on the state at this sample
        if not cs_entered and soc <= cfg.cs_trigger:
            cs_entered = True
        if cs_entered and now - last_change_t >= cfg.min_dwell_s:
            on = thermostat_state(genset_on, soc, cfg.cs_trigger, cfg.soc_high)
            if on != genset_on:
                genset_on, last_change_t = on, now
                if on:
                    genset_start_t = now
        warm = genset_on and (now - genset_start_t >= cfg.warmup_s)
        p_gen = cfg.genset_point.electrical_power_kw if warm else 0.0
        crank = cfg.crank_power_kw if (genset_on and not warm) else 0.0

        p_motor = p_motor_series[k]
        if cs_entered and soc >= cfg.soc_high and p_motor < 0.0:
            p_motor = 0.0  # regen lockout at the window top: friction only
        try:
            if math.isnan(p_motor):  # outside the motor envelope: raise the reason
                omega = cycle.v_mps[k] * drv.rpm_per_mps
                torque = p_wheel[k] * 1000.0 / (omega * RAD_S_PER_RPM)
                if torque < 0:  # braking torque, clamped to the envelope
                    torque = min(-torque, max_feasible_torque(motor_map, omega))
                map_lookup(motor_map, omega, torque)
            check_capability(bp, p_motor + crank - p_gen)
            i_batt = current_from_power(bp, p_motor + crank - p_gen)
        except (EnvelopeError, MapDomainError) as exc:
            raise EnvelopeError(f"step {k} (t = {now:g} s): {exc}") from None
        if i_batt < -cfg.regen_current_limit_a:
            i_batt = -cfg.regen_current_limit_a
            p_motor = terminal_power_kw(bp, i_batt) + p_gen - crank

        trace.mode[k] = MODE_CS if cs_entered else MODE_CD
        trace.genset_on[k] = genset_on
        trace.genset_warm[k] = warm
        trace.p_motor_elec_kw[k] = p_motor
        trace.i_batt_a[k] = i_batt
        trace.soc_pct[k] = soc

        if k < n - 1:
            dt = t[k + 1] - now
            soc -= bp.v_oc * i_batt * dt / (3.6e6 * bp.c_batt_kwh) * 100.0
            if soc <= 0.0:
                raise InfeasibleVehicleError(
                    f"battery empty at t = {t[k + 1]:g} s "
                    f"({'CS' if cs_entered else 'CD'} mode); the vehicle cannot "
                    f"complete this cycle")
            soc = min(soc, 100.0)

    trace.p_genset_elec_kw[trace.genset_warm] = cfg.genset_point.electrical_power_kw
    trace.crank_kw[trace.genset_on & ~trace.genset_warm] = cfg.crank_power_kw
    eff = cfg.genset_point.combined_efficiency_pct / 100.0
    trace.fuel_step_kwh[:-1] = trace.p_genset_elec_kw[:-1] / eff * np.diff(t) / 3600.0
    return trace, _energy_result(trace, bp, cycle)


def outcome(simulate, *args):
    """The simulation's (trace, energy), or the class and text of its error."""
    try:
        return simulate(*args)
    except (EnvelopeError, InfeasibleVehicleError, ValueError) as exc:
        return type(exc), str(exc)


def assert_simulations_equal(*args):
    """Run both loops on the same arguments and require the same bits, or
    the same error; return the reference outcome."""
    expect = outcome(reference_simulate_rule_based, *args)
    got = outcome(simulate_rule_based, *args)
    if isinstance(expect[0], type):
        assert got == expect
        return expect
    assert not isinstance(got[0], type), got
    (trace, energy), (ref_trace, ref_energy) = got, expect
    for f in fields(SimTrace):
        a, b = getattr(trace, f.name), getattr(ref_trace, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name
    assert energy == ref_energy
    return expect


@st.composite
def rule_runs(draw, cycle, genset_point):
    """A short slice of ``cycle`` with a thermostat and battery that reach
    the loop's corners: a start in CD or CS, a narrow or wide window, a
    regen limit that binds in every gen-set regime and under lockout, a
    dwell and warm-up from none to longer than a cycle phase, a crank
    beyond the battery's capability, a battery small enough to run empty,
    and a calibration beyond the motor envelope."""
    start = draw(st.integers(0, cycle.n_samples - 2))
    stop = min(start + draw(st.one_of(st.integers(2, 20), st.integers(100, 240))),
               cycle.n_samples)
    part = DriveCycle(cycle.t_s[start:stop] - cycle.t_s[start],
                      cycle.v_mps[start:stop], cycle.grade_deg[start:stop])
    trigger = draw(st.floats(12.5, 16.5))
    high = trigger + draw(st.one_of(st.floats(0.01, 0.3), st.floats(0.3, 3.0)))
    beyond_battery = draw(st.integers(0, 7)) == 7
    cfg = RuleConfig(
        genset_point, soc_high=high, cs_trigger=trigger,
        min_dwell_s=draw(st.floats(0.0, 60.0)),
        warmup_s=draw(st.one_of(st.floats(0.0, 5.0), st.floats(5.0, 60.0))),
        crank_power_kw=400.0 if beyond_battery else draw(st.floats(0.0, 30.0)),
        regen_current_limit_a=draw(st.one_of(st.floats(1.0, 60.0),
                                             st.floats(60.0, 400.0))),
        initial_soc=draw(st.one_of(st.floats(11.0, trigger), st.floats(trigger, 100.0))))
    bp = BatteryParams(c_batt_kwh=draw(st.one_of(st.floats(0.01, 0.5),
                                                 st.floats(0.5, 20.0))))
    # two draws in three stay inside the motor envelope and reach the later corners
    calibration = draw(st.one_of(st.floats(0.5, 2.0), st.floats(0.5, 2.0),
                                 st.floats(2.0, 12.0)))
    return part, bp, cfg, calibration


@st.composite
def long_rule_runs(draw, cycle, genset_point):
    """A whole lap, up to three laps, or a long slice of them, with the
    loop's corners placed inside long runs of samples: a start at 100 % SOC
    on a braking sample (the clamp at 100 %), no dwell or warm-up, a start
    at or just below a narrow window (SOC rests at its top under regen
    lockout), a battery that empties part way, and a calibration that
    leaves the motor envelope part way."""
    laps = repeat_cycle(cycle, draw(st.integers(1, 3)))
    n = laps.n_samples
    full_charge = draw(st.booleans())
    if full_charge:
        braking = np.flatnonzero(np.diff(laps.v_mps) < -0.5)
        start = int(braking[draw(st.integers(0, braking.size - 1))])
    else:
        start = draw(st.sampled_from([0, draw(st.integers(0, n - 2))]))
    stop = draw(st.sampled_from([n, min(start + draw(st.integers(600, 3000)), n)]))
    part = DriveCycle(laps.t_s[start:stop] - laps.t_s[start], laps.v_mps[start:stop],
                      laps.grade_deg[start:stop])
    trigger = draw(st.floats(12.5, 16.5))
    high = trigger + draw(st.one_of(st.floats(0.01, 0.3), st.floats(0.3, 3.0)))
    if full_charge:
        initial_soc = 100.0
    else:
        initial_soc = draw(st.one_of(st.floats(11.0, trigger), st.just(high),
                                     st.floats(trigger, 100.0)))
    beyond_battery = draw(st.integers(0, 7)) == 7
    cfg = RuleConfig(
        genset_point, soc_high=high, cs_trigger=trigger,
        min_dwell_s=draw(st.one_of(st.just(0.0), st.floats(0.0, 60.0))),
        warmup_s=draw(st.one_of(st.just(0.0), st.floats(0.0, 60.0))),
        crank_power_kw=400.0 if beyond_battery else draw(st.floats(0.0, 30.0)),
        regen_current_limit_a=draw(st.floats(1.0, 400.0)),
        initial_soc=initial_soc)
    # one draw in four each empties the battery or leaves the motor envelope
    bp = BatteryParams(c_batt_kwh=draw(st.one_of(st.floats(0.05, 0.5),
                                                 *[st.floats(0.5, 20.0)] * 3)))
    calibration = draw(st.one_of(*[st.floats(0.5, 1.5)] * 3, st.floats(2.0, 12.0)))
    return part, bp, cfg, calibration


class TestLoopMatchesReference:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_slices(self, data, cycle, vp, assembly, genset_point):
        part, bp, cfg, calibration = data.draw(rule_runs(cycle, genset_point))
        assert_simulations_equal(part, vp, assembly.motor_map, assembly.drivetrain,
                                 bp, cfg, calibration)

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_long_runs(self, data, cycle, vp, assembly, genset_point):
        part, bp, cfg, calibration = data.draw(long_rule_runs(cycle, genset_point))
        out = assert_simulations_equal(part, vp, assembly.motor_map,
                                       assembly.drivetrain, bp, cfg, calibration)
        if not isinstance(out[0], type):
            assert_soc_recurrence_exact(out[0], bp)

    def test_clamp_at_full_charge(self, cycle, vp, assembly, battery, genset_point):
        braking = int(np.flatnonzero(np.diff(cycle.v_mps) < -0.5)[0])
        part = DriveCycle(cycle.t_s[braking:] - cycle.t_s[braking],
                          cycle.v_mps[braking:], cycle.grade_deg[braking:])
        cfg = RuleConfig(genset_point, initial_soc=100.0)
        trace, _ = assert_simulations_equal(part, vp, assembly.motor_map,
                                            assembly.drivetrain, battery, cfg, CAL)
        # the first step charges and is clamped; SOC leaves 100 % later on
        assert trace.i_batt_a[0] < 0.0 and trace.soc_pct[1] == 100.0
        assert trace.soc_pct[-1] < 100.0

    @pytest.mark.parametrize("dwell, warmup", [(0.0, 0.0), (0.0, 20.0), (45.0, 0.0),
                                               (10.0, 20.0), (35.0, 50.0)])
    def test_lockout_dwell_and_warmup(self, cycle, vp, assembly, genset_point, dwell,
                                      warmup):
        # an 8 kWh battery and a 1 % band from the trigger to the window top
        # cycle the gen-set every few dozen samples, and SOC rests at the top
        # under regen lockout
        cfg = RuleConfig(genset_point, soc_high=15.0, initial_soc=13.5,
                         min_dwell_s=dwell, warmup_s=warmup)
        bp = BatteryParams(c_batt_kwh=8.0)
        trace, _ = assert_simulations_equal(repeat_cycle(cycle, 2), vp,
                                            assembly.motor_map, assembly.drivetrain,
                                            bp, cfg, CAL)
        locked = ((trace.soc_pct >= cfg.soc_high) & (trace.p_motor_elec_kw == 0.0)
                  & (trace.p_wheel_kw < 0.0))
        assert locked.sum() > 10
        assert trace.genset_transition_times().size > 10
        assert_soc_recurrence_exact(trace, bp)

    @pytest.mark.parametrize("name", ["single_lap", "three_lap", "obd_single_lap"])
    @pytest.mark.parametrize("laps", [1, 2])
    def test_shipped_scenarios(self, scenario_dir, name, laps):
        sc = load_scenario(scenario_dir / f"{name}.ini")
        out = assert_simulations_equal(
            repeat_cycle(sc.cycle, laps), sc.vp, sc.assembly.motor_map,
            sc.assembly.drivetrain, sc.bp, sc.rule, sc.calibration.energy_scale)
        assert not isinstance(out[0], type), out
        assert_soc_recurrence_exact(out[0], sc.bp)

    @pytest.mark.parametrize("jump, expect, message", [
        # the battery empties at t = 26 s, long before the sample at 59 s
        (60, InfeasibleVehicleError,
         "battery empty at t = 26 s (CS mode); the vehicle cannot complete this cycle"),
        # the same cruise reaches a sample outside the envelope at 19 s first
        (20, EnvelopeError, "step 19 (t = 19 s): torque 1885 Nm outside [0, 320]"),
    ])
    def test_error_precedence(self, vp, assembly, genset_point, jump, expect, message):
        t = np.arange(61.0)
        v = np.minimum(t, 15.0)
        v[jump] = 45.0  # a speed jump no motor can drive
        args = (DriveCycle(t, v), vp, assembly.motor_map, assembly.drivetrain,
                BatteryParams(c_batt_kwh=0.2), RuleConfig(genset_point, initial_soc=70.0),
                1.0)
        assert assert_simulations_equal(*args) == (expect, message)


class TestCurrentSeries:
    def test_scalar_inversions_do_not_grow_with_samples(self, cycle, vp, assembly,
                                                        battery, genset_point,
                                                        monkeypatch):
        calls = []

        def counted(bp, p_terminal_kw):
            calls.append(np.ndim(p_terminal_kw))
            return current_from_power(bp, p_terminal_kw)

        monkeypatch.setattr(ems, "current_from_power", counted)
        cfg = RuleConfig(genset_point, initial_soc=15.0)
        counts = []
        for laps, samples in ((1, 1381), (6, 8281)):
            calls.clear()
            trace, _ = simulate_rule_based(repeat_cycle(cycle, laps), vp,
                                           assembly.motor_map, assembly.drivetrain,
                                           battery, cfg, CAL)
            assert trace.n_samples == samples
            # all three regimes and the regen lockout occur on these runs
            assert (trace.genset_on & ~trace.genset_warm).any()
            assert trace.genset_warm.any() and (~trace.genset_on).any()
            assert ((trace.soc_pct >= cfg.soc_high) & (trace.p_motor_elec_kw == 0.0)
                    & (trace.p_wheel_kw < 0.0)).any()
            scalar = calls.count(0)
            counts.append(scalar)
            # one array inversion per regime, at most one lockout call each
            assert len(calls) - scalar <= 3 and scalar <= 3
        assert counts[0] == counts[1]

    def test_scalar_steps_are_few(self, cycle, vp, assembly, battery, genset_point,
                                  monkeypatch):
        spans = []
        real = ems._run_length

        def counted(path, *args):
            spans.append(path.size - 1)
            return real(path, *args)

        monkeypatch.setattr(ems, "_run_length", counted)
        cfg = RuleConfig(genset_point, initial_soc=70.0)
        trace, _ = simulate_rule_based(repeat_cycle(cycle, 6), vp, assembly.motor_map,
                                       assembly.drivetrain, battery, cfg, CAL)
        assert trace.n_samples == 8281 and trace.genset_transition_times().size > 10
        # one scalar step ends each run: 81 of 8281 samples when measured
        assert len(spans) <= 0.015 * trace.n_samples
        assert max(spans) <= ems.RUN_SAMPLES
