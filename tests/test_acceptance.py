"""End-to-end acceptance checks.

Each check prints exactly one PASS/FAIL line on the real terminal
(bypassing pytest's capture) so a full run shows the verdicts inline, and
asserts the same condition so pytest records it. Randomized checks use
the fixed base seed 20240815; instances are drawn from one deterministic
stream per check, so reruns see identical cases.
"""

import filecmp
import functools
import time
from dataclasses import replace

import numpy as np
import pytest

from phevopt.accounting import ac_from_dc, build_uf_report, calibration_factor
from phevopt.cli import main, run_dp_hybrid
from phevopt.cycle import CycleMetrics, DriveCycle
from phevopt.dpopt import (
    DemandProfile,
    DpConfig,
    build_demand,
    evaluate_rule_on_demand,
    obd_study,
    rollout,
    solve,
)
from phevopt.dynamics import VehicleParams, wheel_power_series
from phevopt.errors import EnvelopeError, InfeasibleProblemError
from phevopt.powertrain import map_lookup, soc_drop_pct, terminal_power_kw
from phevopt.scenario import load_scenario

from helpers import grid_aligned_instance
from oracle import brute_force

SEED = 20240815

SIM_METRICS = CycleMetrics(positive_propulsion_wh_per_km=223.75,
                           peak_power_kw=112.50, avg_positive_power_kw=14.04,
                           percent_idle=10.55)
TEST_METRICS = CycleMetrics(positive_propulsion_wh_per_km=259.21,
                            peak_power_kw=96.96, avg_positive_power_kw=16.37,
                            percent_idle=10.55)

_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_terminal(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line: str) -> None:
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def criterion(num, title, budget_s=None):
    """Print one live PASS/FAIL line per check, including the runtime."""
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                _emit(f"FAIL criterion {num:2d}: {title} [{exc}]")
                raise
            elapsed = time.perf_counter() - t0
            line = (f"PASS criterion {num:2d}: {title}"
                    f" [{detail}; {elapsed:.2f} s]")
            if budget_s is not None and elapsed > budget_s:
                _emit(line.replace("PASS", "FAIL", 1))
                raise AssertionError(
                    f"criterion {num} took {elapsed:.2f} s > {budget_s} s")
            _emit(line)
        return run
    return deco


@criterion(1, "utility-factor blend totals", budget_s=1.0)
def test_criterion_01_blend_totals():
    totals = []
    for cs, want in ((194.30, 469.20), (160.59, 435.49)):
        rep = build_uf_report(2 * 274.90 * 0.83, 2 * cs, uf=0.5,
                              charging_efficiency=0.83)
        assert rep.ec_uf_weighted_electric == pytest.approx(274.90, abs=0.01)
        assert rep.ec_uf_weighted_fuel == pytest.approx(cs, abs=0.01)
        assert rep.ec_uf_weighted_total == pytest.approx(want, abs=0.01)
        totals.append(rep.ec_uf_weighted_total)
    return f"totals {totals[0]:.2f} and {totals[1]:.2f} Wh/km"


@criterion(2, "wheel-energy calibration deltas", budget_s=1.0)
def test_criterion_02_calibration_deltas():
    cal = calibration_factor(SIM_METRICS, TEST_METRICS)
    assert cal.energy_delta_pct == pytest.approx(15.85, abs=0.01)
    assert cal.avg_power_delta_pct == pytest.approx(16.60, abs=0.01)
    return (f"energy +{cal.energy_delta_pct:.2f}%, "
            f"avg power +{cal.avg_power_delta_pct:.2f}%")


@criterion(3, "charging-efficiency conversion", budget_s=1.0)
def test_criterion_03_charging_conversion():
    round_trip = ac_from_dc(83.0, 0.83)
    assert round_trip == pytest.approx(100.0, abs=1e-9)
    cs_ac = ac_from_dc(161.27, 0.83)
    assert cs_ac == pytest.approx(194.30, abs=0.01)
    return f"83 -> {round_trip:.0f}, 161.27 -> {cs_ac:.2f} Wh/km"


@criterion(4, "diagnostics drain constants and study", budget_s=10.0)
def test_criterion_04_obd_study(scenario_dir):
    sc = load_scenario(scenario_dir / "obd_single_lap.ini")
    drain = sc.dp.obd_drain_pct
    assert drain == pytest.approx(0.0263, abs=1e-4)

    common = dict(calibration=sc.calibration.energy_scale,
                  regen_current_limit_a=sc.rule.regen_current_limit_a)
    zero = obd_study(sc.cycle, sc.vp, sc.assembly, sc.bp,
                     replace(sc.dp, obd_energy_per_event_kwh=0.0), **common)
    assert zero.increase_wh_per_km == 0.0
    assert zero.increase_pct == 0.0

    study = obd_study(sc.cycle, sc.vp, sc.assembly, sc.bp, sc.dp, **common)
    assert 0.0 < study.increase_pct < 5.0
    return (f"drain {drain:.5f}%/event, zero-penalty delta 0, "
            f"increase +{study.increase_pct:.4f}%")


@criterion(5, "optimizer matches exhaustive enumeration", budget_s=60.0)
def test_criterion_05_oracle_agreement():
    rng = np.random.default_rng(SEED)
    compared, worst = 0, 0.0
    while compared < 50:
        d, cfg = grid_aligned_instance(rng)
        try:
            expect = brute_force(d, cfg, 14.0)
        except InfeasibleProblemError:
            continue
        out = rollout(solve(d, cfg), 14.0)
        rel = (abs(out.fuel_kwh - expect) / expect if expect > 0
               else abs(out.fuel_kwh))
        worst = max(worst, rel)
        assert rel < 0.005
        compared += 1
    return f"50 instances (seed {SEED}), worst relative gap {worst:.2e}"


@criterion(6, "optimizer never burns more than the thermostat", budget_s=60.0)
def test_criterion_06_dominance(decisions):
    # every charging decision runs the same single operating point the
    # thermostat uses, so fuel totals are directly comparable
    effs = {dd.efficiency_pct for dd in decisions if dd.delta_soc > 0}
    assert len(effs) == 1

    rng = np.random.default_rng(SEED + 1)
    checked, worst = 0, 0.0
    while checked < 10:
        n = int(rng.integers(20, 41))
        d = DemandProfile(rng.integers(0, 41, n) * 0.01, 10.0, n * 0.15)
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        rule = evaluate_rule_on_demand(d, cfg, 14.0, 14.0, 17.0)
        if not rule.feasible:
            continue
        try:
            roll = rollout(solve(d, cfg), 14.0)
        except InfeasibleProblemError:
            continue
        assert roll.fuel_kwh <= rule.fuel_kwh * 1.005 + 1e-12
        if rule.fuel_kwh > 0:
            worst = max(worst, roll.fuel_kwh / rule.fuel_kwh)
        checked += 1
    return f"10 scenarios (seed {SEED + 1}), worst fuel ratio {worst:.4f}"


@criterion(7, "thermostat and optimizer endings, three laps", budget_s=30.0)
def test_criterion_07_three_lap_endings(scenario_dir):
    sc = load_scenario(scenario_dir / "three_lap.ini")
    run = run_dp_hybrid(sc)
    trace = run.trace

    assert int(np.count_nonzero(np.diff(trace.mode))) == 1
    gaps = np.diff(trace.genset_transition_times())
    assert gaps.size > 0
    assert float(gaps.min()) >= sc.rule.min_dwell_s - 1e-9

    entry = trace.cs_entry_index()
    step_quantum = float(np.max(np.abs(np.diff(trace.soc_pct))))
    cs_soc = trace.soc_pct[entry:]
    assert float(cs_soc.min()) >= sc.rule.soc_low - step_quantum - 1e-9
    assert float(cs_soc.max()) <= sc.rule.soc_high + step_quantum + 1e-9

    rule_final = run.rule_energy.final_soc
    assert 14.0 < rule_final <= 17.0

    assert run.roll is not None
    dp_final = run.roll.final_soc
    assert abs(dp_final - 14.0) <= sc.dp.max_positive_delta + 1e-9
    return (f"one CD->CS switch, min dwell gap {gaps.min():.0f} s, "
            f"rule final {rule_final:.3f}%, optimized final {dp_final:.3f}%")


@criterion(8, "physics identities", budget_s=30.0)
def test_criterion_08_physics(assembly, battery):
    # energy audit: lossless road load integrates to the kinetic change
    p = VehicleParams(i=1.0, cdaf=0.0, crr=0.0)
    t = np.arange(0.0, 101.0)
    v = 12.5 * (1.0 - np.cos(2.0 * np.pi * t / 200.0))
    c = DriveCycle(t_s=t, v_mps=v)
    energy_j = float(np.trapezoid(wheel_power_series(p, c), t)) * 1e3
    dke_j = 0.5 * p.m_t * (v[-1] ** 2 - v[0] ** 2)
    ke_err = abs(energy_j - dke_j) / dke_j
    assert ke_err < 1e-3

    # closed SOC loops can only lose energy at the terminals
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        amps = rng.normal(0.0, 60.0, 120)
        amps -= amps.mean()
        net_kwh = sum(terminal_power_kw(battery, float(a))
                      for a in amps) / 3600.0
        assert net_kwh <= 1e-12

    # reversing the current reverses the SOC move exactly, stepped the way
    # the thermostat steps a run of samples
    t_s = np.arange(0.0, 361.0)
    amps = 40.0 * np.sin(2.0 * np.pi * t_s / 360.0) + 25.0

    def soc_move(i_amps):
        path = np.empty(t_s.size)
        path[0] = 50.0
        path[1:] = soc_drop_pct(battery, i_amps[:-1], np.diff(t_s))
        return np.subtract.accumulate(path)[-1] - 50.0

    assert abs(soc_move(amps) + soc_move(-amps)) <= 1e-9

    # chaining converters can never beat either stage
    eng, gen = assembly.engine_map, assembly.generator_map
    checked = 0
    for s in eng.speed_axis:
        for kw in np.linspace(1.0, 50.0, 8):
            try:
                pt = assembly.genset_point(float(s), float(kw))
            except EnvelopeError:
                continue  # beyond the gen-set's envelope at this speed
            eta_eng = map_lookup(eng, s, pt.engine_torque_nm)
            eta_gen = map_lookup(gen, s * assembly.belt_ratio,
                                 pt.engine_torque_nm / assembly.belt_ratio)
            assert pt.combined_efficiency_pct <= min(eta_eng, eta_gen) + 1e-9
            checked += 1
    assert checked > 50

    # interpolation is exact on the measured nodes
    mm = assembly.motor_map
    nodes = 0
    for i, s in enumerate(mm.speed_axis):
        for j, trq in enumerate(mm.torque_axis):
            if not np.isfinite(mm.values[i, j]):
                continue
            got = map_lookup(mm, float(s), float(trq))
            assert got == pytest.approx(mm.values[i, j], rel=1e-12)
            nodes += 1
    assert nodes > 100
    return (f"energy audit {ke_err:.2e} rel, 100 loss-positive loops, "
            f"{checked} chained gen-set points, {nodes} exact lookups")


@criterion(9, "cost converges under grid refinement", budget_s=60.0)
def test_criterion_09_grid_convergence(scenario_dir):
    sc = load_scenario(scenario_dir / "obd_single_lap.ini")
    d = build_demand(sc.cycle, sc.vp, sc.assembly.motor_map,
                     sc.assembly.drivetrain, sc.bp,
                     calibration=sc.calibration.energy_scale,
                     dt_s=sc.dp.dt_s,
                     regen_current_limit_a=sc.rule.regen_current_limit_a)
    costs = [solve(d, replace(sc.dp, grid_step=h)).optimal_cost(14.0)
             for h in (0.02, 0.01, 0.005)]
    d1 = abs(costs[1] - costs[0])
    d2 = abs(costs[2] - costs[1])
    assert d2 <= d1 + 1e-12
    return (f"J = {costs[0]:.5f} / {costs[1]:.5f} / {costs[2]:.5f} kWh, "
            f"deltas {d1:.2e} -> {d2:.2e}")


@criterion(10, "repeated command runs are byte-identical")
def test_criterion_10_determinism(tmp_path, scenario_dir):
    single = str(scenario_dir / "single_lap.ini")
    obd_ini = str(scenario_dir / "obd_single_lap.ini")
    cases = [
        ("analyze", ["analyze", "--scenario", single]),
        ("rule", ["simulate", "--strategy", "rule", "--scenario", single]),
        ("dp", ["simulate", "--strategy", "dp", "--scenario", single]),
        ("compare", ["compare", "--scenario", single]),
        ("obd", ["obd", "--scenario", obd_ini]),
    ]
    total = 0
    for name, argv in cases:
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}-{rep}"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out)
        names = sorted(q.name for q in outs[0].iterdir())
        assert names == sorted(q.name for q in outs[1].iterdir())
        data = [nm for nm in names if nm != "run.log"]
        assert data
        _, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], data,
                                               shallow=False)
        assert mismatch == [] and errors == []
        total += len(data)
    return f"5 commands, {total} data files compared"
