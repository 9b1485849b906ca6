from dataclasses import replace

import numpy as np
import pytest

from phevopt import BatteryParams, DriveCycle, VehicleParams, build_demand
from phevopt.dpopt import (
    Decision,
    DemandProfile,
    DpConfig,
    TerminalRule,
    brute_force,
    delta_to_electrical_kw,
    evaluate_rule_on_demand,
    max_delta_bound,
    null_decision,
    obd_study,
    rollout,
    solve,
    write_policy,
)
from phevopt.errors import (
    EnvelopeError,
    InfeasibleProblemError,
    InstanceTooLargeError,
    ToleranceBreachError,
)
from phevopt.powertrain import DrivetrainParams

from helpers import flat_map, grid_aligned_instance


@pytest.fixture(scope="module")
def demand(cycle, vp, assembly, battery):
    """Charge-sustaining demand of the bundled cycle at test-data scale."""
    return build_demand(cycle, vp, assembly.motor_map, assembly.drivetrain,
                        battery, calibration=1.1584804,
                        regen_current_limit_a=150.0)


@pytest.fixture(scope="module")
def solved(demand, dp_config):
    return solve(demand, dp_config)


def one_interval(d0, km=1.0):
    return DemandProfile(np.asarray([float(d0)]), 10.0, km)


class TestDecisionValidation:
    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            Decision(-0.1, 30.0, "bad")

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            Decision(0.1, 0.0, "bad")
        with pytest.raises(ValueError):
            Decision(0.1, 120.0, "bad")

    def test_null_decision(self):
        d = null_decision()
        assert d.delta_soc == 0.0 and d.label == "null"


class TestDpConfigValidation:
    def test_defaults_give_501_states(self, decisions):
        cfg = DpConfig(decisions=decisions)
        assert cfg.n_states == 501
        grid = cfg.grid()
        assert grid[0] == 12.0 and grid[-1] == 17.0
        assert grid.size == 501
        assert np.allclose(np.diff(grid), 0.01)

    def test_max_positive_delta(self, decisions):
        cfg = DpConfig(decisions=decisions)
        assert cfg.max_positive_delta == 0.567

    def test_obd_drain_value(self, decisions):
        cfg = DpConfig(decisions=decisions)
        # 0.00497 kWh per event on an 18.9 kWh pack
        assert cfg.obd_drain_pct == pytest.approx(0.0262963, abs=1e-7)

    def test_fuel_array_formula(self, decisions):
        cfg = DpConfig(decisions=decisions)
        fuel = cfg.fuel_array()
        assert fuel[0] == 0.0
        for dec, f in zip(decisions[1:], fuel[1:]):
            expect = dec.delta_soc / 100.0 * 18.9 / (dec.efficiency_pct / 100.0)
            assert f == pytest.approx(expect, rel=1e-12)

    def test_null_decision_required(self):
        with pytest.raises(ValueError, match="null"):
            DpConfig(decisions=(Decision(0.1, 30.0, "only"),))

    def test_empty_decisions_rejected(self):
        with pytest.raises(ValueError):
            DpConfig(decisions=())

    def test_delta_beyond_genset_bound_rejected(self):
        decs = (null_decision(), Decision(0.60, 30.0, "big"))
        with pytest.raises(ValueError, match="beyond the gen-set peak"):
            DpConfig(decisions=decs, p_genset_max_kw=40.0)

    def test_initial_soc_must_be_in_window(self, decisions):
        with pytest.raises(ValueError):
            DpConfig(decisions=decisions, initial_soc=11.0)

    @pytest.mark.parametrize("kwargs", [
        dict(dt_s=0.0),
        dict(soc_min=17.0, soc_max=17.0),
        dict(grid_step=0.0),
        dict(grid_step=6.0),
        dict(obd_energy_per_event_kwh=-0.1),
        dict(c_batt_kwh=0.0),
    ])
    def test_invalid_rejected(self, decisions, kwargs):
        with pytest.raises(ValueError):
            DpConfig(decisions=decisions, **kwargs)

    def test_grid_step_must_divide_window(self, decisions):
        for step in (0.03, 1e-320):
            with pytest.raises(ValueError, match="does not divide"):
                DpConfig(decisions=decisions, grid_step=step)
        for step in (0.5, 0.05, 0.02, 0.01, 0.005, 0.002):
            assert DpConfig(decisions=decisions, grid_step=step).grid_step == step


class TestTerminalRule:
    def test_threshold(self, decisions):
        cfg = DpConfig(decisions=decisions)
        assert TerminalRule.at(15.5).resolve(cfg) == 15.5

    def test_initial(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        assert TerminalRule.initial().resolve(cfg) == 14.0

    def test_initial_requires_initial_soc(self, decisions):
        cfg = DpConfig(decisions=decisions)
        with pytest.raises(ValueError, match="initial_soc"):
            TerminalRule.initial().resolve(cfg)

    def test_soc_min(self, decisions):
        cfg = DpConfig(decisions=decisions)
        assert TerminalRule.at_soc_min().resolve(cfg) == 12.0

    def test_unknown_kind(self, decisions):
        cfg = DpConfig(decisions=decisions)
        with pytest.raises(ValueError, match="unknown"):
            TerminalRule("whenever").resolve(cfg)


class TestDeltaConversions:
    def test_gen_set_peak_bound(self):
        # 40 kW for 10 s into 18.9 kWh
        assert max_delta_bound(40.0, 10.0, 18.9) == pytest.approx(
            0.58788948, abs=1e-7)

    def test_largest_decision_power(self):
        assert delta_to_electrical_kw(0.567, 10.0, 18.9) == pytest.approx(
            38.57868, abs=1e-6)

    def test_conversions_invert(self):
        for p in (5.0, 17.3, 40.0):
            delta = max_delta_bound(p, 10.0, 18.9)
            assert delta_to_electrical_kw(delta, 10.0, 18.9) == pytest.approx(
                p, rel=1e-12)


class TestDefaultDecisions:
    def test_structure(self, decisions):
        assert len(decisions) == 4
        assert decisions[0].label == "null"
        assert [d.delta_soc for d in decisions] == [0.0, 0.051, 0.294, 0.567]
        assert [d.label for d in decisions[1:]] == ["b0.051", "b0.294", "b0.567"]

    def test_single_operating_point_efficiency(self, decisions):
        # smaller increments duty-cycle the same gen-set point
        effs = {d.efficiency_pct for d in decisions[1:]}
        assert len(effs) == 1

    def test_fuel_proportional_to_charge(self, decisions):
        cfg = DpConfig(decisions=decisions)
        fuel = cfg.fuel_array()
        assert fuel[3] / fuel[1] == pytest.approx(0.567 / 0.051, rel=1e-12)


class TestDemandProfileValidation:
    def test_needs_an_interval(self):
        with pytest.raises(ValueError):
            DemandProfile(np.asarray([]), 10.0, 1.0)

    def test_entries_finite(self):
        with pytest.raises(ValueError):
            DemandProfile(np.asarray([0.1, np.nan]), 10.0, 1.0)

    def test_dt_and_distance(self):
        with pytest.raises(ValueError):
            DemandProfile(np.asarray([0.1]), 0.0, 1.0)
        with pytest.raises(ValueError):
            DemandProfile(np.asarray([0.1]), 10.0, -1.0)


class TestBuildDemand:
    def flat_setup(self):
        bp = BatteryParams(c_batt_kwh=18.9, r_in_ohm=0.0, v_oc=350.0)
        return flat_map(90.0), DrivetrainParams(), bp

    def const_cycle(self, duration=100.0, v=20.0):
        t = np.arange(0.0, duration + 0.5)
        return DriveCycle(t_s=t, v_mps=np.full(t.size, v))

    def test_stationary_cycle_draws_nothing(self, vp):
        m, drv, bp = self.flat_setup()
        t = np.arange(0.0, 101.0)
        d = build_demand(DriveCycle(t_s=t, v_mps=np.zeros(101)), vp, m, drv, bp)
        assert np.all(d.d_pct == 0.0)
        assert d.distance_km == 0.0

    def test_constant_speed_drain(self, vp):
        # 8.54424 kW wheel / 0.9 map for 10 s against 18.9 kWh
        m, drv, bp = self.flat_setup()
        d = build_demand(self.const_cycle(), vp, m, drv, bp)
        assert d.n_intervals == 10
        assert d.distance_km == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(d.d_pct, 0.13952969, atol=1e-8)

    def test_calibration_scales_motoring_drain(self, vp):
        m, drv, bp = self.flat_setup()
        base = build_demand(self.const_cycle(), vp, m, drv, bp)
        scaled = build_demand(self.const_cycle(), vp, m, drv, bp,
                              calibration=1.1584804)
        assert np.allclose(scaled.d_pct, base.d_pct * 1.1584804, rtol=1e-12)

    def test_partial_trailing_interval_folds(self, vp):
        m, drv, bp = self.flat_setup()
        d = build_demand(self.const_cycle(duration=105.0), vp, m, drv, bp)
        assert d.n_intervals == 10
        # the last interval absorbs 15 s instead of 10
        assert d.d_pct[-1] == pytest.approx(1.5 * d.d_pct[0], rel=1e-9)
        total_kwh = d.d_pct.sum() / 100.0 * 18.9
        assert total_kwh == pytest.approx(8.54424 / 0.9 * 105.0 / 3600.0,
                                          rel=1e-9)

    def test_regen_current_limit_reduces_capture(self, vp, battery):
        m, drv, _ = self.flat_setup()
        up = np.linspace(0.0, 25.0, 51)
        hold = np.full(20, 25.0)
        down = np.linspace(25.0, 0.0, 13)[1:]
        v = np.concatenate([up, hold, down])
        c = DriveCycle(t_s=np.arange(0.0, v.size, dtype=float), v_mps=v)
        free = build_demand(c, vp, m, drv, battery)
        capped = build_demand(c, vp, m, drv, battery,
                              regen_current_limit_a=150.0)
        assert np.all(capped.d_pct >= free.d_pct - 1e-12)
        assert capped.d_pct.sum() > free.d_pct.sum()

    def test_inputs_validated(self, vp):
        m, drv, bp = self.flat_setup()
        with pytest.raises(ValueError):
            build_demand(self.const_cycle(), vp, m, drv, bp, calibration=0.0)
        short = DriveCycle(t_s=np.asarray([0.0, 5.0]),
                           v_mps=np.asarray([10.0, 10.0]))
        with pytest.raises(ValueError, match="interval"):
            build_demand(short, vp, m, drv, bp)

    def test_envelope_error_names_step(self, cycle, vp, assembly, battery):
        with pytest.raises(EnvelopeError, match=r"step \d+ \(t = "):
            build_demand(cycle, vp, assembly.motor_map, assembly.drivetrain,
                         battery, calibration=10.0)


class TestSolveExamples:
    def test_no_demand_needs_no_fuel(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        d = DemandProfile(np.zeros(3), 10.0, 1.0)
        policy = solve(d, cfg)
        assert policy.optimal_cost(14.0) == 0.0
        out = rollout(policy, d, cfg, 14.0)
        assert out.fuel_kwh == 0.0
        assert out.null_intervals == 3
        assert np.all(out.soc_trajectory == 14.0)

    def test_single_interval_picks_exact_cover(self, decisions):
        # d = 0.294 with terminal back at the initial SOC: only the matching
        # increment reaches it at minimum fuel
        cfg = DpConfig(decisions=decisions, initial_soc=14.0, grid_step=0.005)
        d = one_interval(0.294)
        policy = solve(d, cfg)
        out = rollout(policy, d, cfg, 14.0)
        assert decisions[out.decision_indices[0]].label == "b0.294"
        fuel = cfg.fuel_array()
        assert out.fuel_kwh == pytest.approx(fuel[2], rel=1e-12)
        expect = 0.00294 * 18.9 / (decisions[2].efficiency_pct / 100.0)
        assert out.fuel_kwh == pytest.approx(expect, rel=1e-12)
        assert out.final_soc == pytest.approx(14.0, abs=1e-12)

    def test_ec_normalizes_by_distance(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        d = one_interval(0.294, km=2.0)
        out = rollout(solve(d, cfg), d, cfg, 14.0)
        assert out.cs_ec_wh_per_km == pytest.approx(
            out.fuel_kwh * 1000.0 / 2.0, rel=1e-12)


class TestChargeGateAndCurtailment:
    def test_gate_blocks_charging_near_window_top(self, decisions):
        # reaching 16.5 after a 0.6 drain needs a charge, but the gate turns
        # all charging off above soc_max - max_delta
        cfg = DpConfig(decisions=decisions, initial_soc=16.9,
                       terminal_rule=TerminalRule.at(16.5))
        with pytest.raises(InfeasibleProblemError):
            solve(one_interval(0.6), cfg)

    def test_charging_allowed_lower_in_window(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=16.0,
                       terminal_rule=TerminalRule.at(15.9))
        d = one_interval(0.6)
        out = rollout(solve(d, cfg), d, cfg, 16.0)
        assert decisions[out.decision_indices[0]].label == "b0.567"
        assert out.final_soc == pytest.approx(15.967, abs=1e-9)

    def test_regeneration_curtailed_at_window_top(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=16.8,
                       terminal_rule=TerminalRule.at(17.0))
        d = one_interval(-0.5)
        out = rollout(solve(d, cfg), d, cfg, 16.8)
        assert out.final_soc == 17.0
        assert out.fuel_kwh == 0.0

    def test_positive_drain_not_curtailed(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=16.8,
                       terminal_rule=TerminalRule.at_soc_min())
        d = one_interval(0.5)
        out = rollout(solve(d, cfg), d, cfg, 16.8)
        assert out.final_soc == pytest.approx(16.3, abs=1e-9)
        assert out.null_intervals == 1  # gate leaves only the null decision


class TestInfeasibility:
    def test_blocking_interval_reported(self, decisions):
        cfg = DpConfig(decisions=decisions,
                       terminal_rule=TerminalRule.at_soc_min())
        d = DemandProfile(np.asarray([0.1, 6.0]), 10.0, 1.0)
        with pytest.raises(InfeasibleProblemError) as exc:
            solve(d, cfg)
        assert exc.value.stage == 1
        assert "interval 1" in str(exc.value)

    def test_initial_state_unreachable(self, decisions):
        # a 0.8 drain cannot be recovered from 14.0, though higher grid
        # states stay feasible
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        with pytest.raises(InfeasibleProblemError) as exc:
            solve(one_interval(0.8), cfg)
        assert exc.value.stage is None
        assert "initial state" in str(exc.value)

    def test_same_instance_solvable_grid_wide(self, decisions):
        cfg = DpConfig(decisions=decisions,
                       terminal_rule=TerminalRule.at(14.0))
        policy = solve(one_interval(0.8), cfg)
        assert np.isfinite(policy.cost_to_go[0]).any()

    def test_rollout_from_unreachable_state(self, decisions):
        cfg = DpConfig(decisions=decisions,
                       terminal_rule=TerminalRule.at(14.0))
        d = one_interval(0.8)
        policy = solve(d, cfg)
        with pytest.raises(InfeasibleProblemError):
            rollout(policy, d, cfg, 14.0)

    def test_demand_interval_must_match_config(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        coarse = DemandProfile(np.zeros(2), 5.0, 1.0)
        with pytest.raises(ValueError, match="dt_s"):
            solve(coarse, cfg)
        policy = solve(DemandProfile(np.zeros(2), 10.0, 1.0), cfg)
        with pytest.raises(ValueError, match="dt_s"):
            rollout(policy, coarse, cfg, 14.0)

    def test_rollout_breach_guard(self, decisions):
        # replaying a policy on a much heavier demand trips the window guard
        cfg = DpConfig(decisions=decisions,
                       terminal_rule=TerminalRule.at_soc_min())
        policy = solve(one_interval(0.0), cfg)
        with pytest.raises(ToleranceBreachError, match="leaves"):
            rollout(policy, one_interval(2.0), cfg, 12.5)


class TestTieBreaking:
    def test_null_preferred_when_free(self, decisions):
        cfg = DpConfig(decisions=decisions,
                       terminal_rule=TerminalRule.at_soc_min())
        policy = solve(DemandProfile(np.zeros(2), 10.0, 1.0), cfg)
        assert np.all(policy.decision_idx == 0)

    def test_equal_cost_keeps_lowest_index(self):
        decs = (null_decision(),
                Decision(0.294, 31.0, "first"),
                Decision(0.294, 31.0, "second"),
                Decision(0.567, 31.0, "big"))
        cfg = DpConfig(decisions=decs, initial_soc=14.0)
        d = one_interval(0.294)
        out = rollout(solve(d, cfg), d, cfg, 14.0)
        assert out.decision_indices[0] == 1


class TestPolicyCostSurface:
    @pytest.fixture()
    def staircase(self, decisions):
        # terminal at 16.0 with a single idle interval: J0 steps from inf
        # through the 0.567 and 0.294 plateaus down to 0
        cfg = DpConfig(decisions=decisions, terminal_rule=TerminalRule.at(16.0))
        return solve(one_interval(0.0), cfg), cfg

    def test_plateau_values(self, staircase, decisions):
        policy, cfg = staircase
        fuel = cfg.fuel_array()
        assert policy.optimal_cost(16.5) == 0.0
        assert policy.optimal_cost(15.8) == pytest.approx(fuel[2], rel=1e-12)
        assert policy.optimal_cost(15.5) == pytest.approx(fuel[3], rel=1e-12)

    def test_unreachable_region_is_inf(self, staircase):
        policy, _ = staircase
        assert policy.optimal_cost(15.0) == np.inf
        assert policy.optimal_cost(12.0) == np.inf

    def test_inf_boundary_not_smeared(self, staircase):
        policy, _ = staircase
        # midway between an inf node and a finite node stays inf
        grid = policy.grid
        row = policy.cost_to_go[0]
        edge = int(np.argmax(np.isfinite(row)))
        assert not np.isfinite(row[edge - 1])
        mid = 0.5 * (grid[edge - 1] + grid[edge])
        assert policy.optimal_cost(mid) == np.inf

    def test_snap_onto_node(self, staircase):
        policy, _ = staircase
        grid = policy.grid
        row = policy.cost_to_go[0]
        edge = int(np.argmax(np.isfinite(row)))
        assert policy.optimal_cost(grid[edge] + 1e-10) == row[edge]

    def test_between_plateaus_interpolates(self, staircase, decisions):
        policy, cfg = staircase
        fuel = cfg.fuel_array()
        # fish out the boundary between the two finite plateaus
        row = policy.cost_to_go[0]
        hi = np.where(np.isclose(row, fuel[3]))[0][-1]
        mid = 0.5 * (policy.grid[hi] + policy.grid[hi + 1])
        out = policy.optimal_cost(mid)
        assert fuel[2] < out < fuel[3]

    def test_outside_grid_clamps(self, staircase):
        policy, _ = staircase
        assert policy.optimal_cost(11.0) == policy.cost_to_go[0, 0]
        assert policy.optimal_cost(18.0) == policy.cost_to_go[0, -1]


class TestCycleDemandSolution:
    def test_rollout_consistent_with_cost_to_go(self, solved, demand, dp_config):
        out = rollout(solved, demand, dp_config, 14.0)
        j0 = solved.optimal_cost(14.0)
        assert abs(out.fuel_kwh - j0) / j0 < 0.005

    def test_trajectory_respects_window(self, solved, demand, dp_config):
        out = rollout(solved, demand, dp_config, 14.0)
        assert out.soc_trajectory.size == demand.n_intervals + 1
        assert np.all(out.soc_trajectory >= 12.0 - dp_config.grid_step - 1e-12)
        assert np.all(out.soc_trajectory <= 17.0 + dp_config.grid_step + 1e-12)

    def test_terminal_rule_met_within_quantum(self, solved, demand, dp_config):
        out = rollout(solved, demand, dp_config, 14.0)
        quantum = dp_config.max_positive_delta + dp_config.grid_step
        assert out.final_soc >= 14.0 - quantum
        assert out.fuel_kwh > 0.0

    def test_cost_to_go_monotone_in_soc(self, solved):
        # more charge in the pack never costs more fuel
        j = solved.cost_to_go
        for k in range(j.shape[0]):
            row = j[k][np.isfinite(j[k])]
            assert not np.any(np.diff(row) > 1e-9)

    def test_unreachable_states_form_bottom_band(self, solved):
        j = solved.cost_to_go
        for k in range(j.shape[0]):
            finite = np.isfinite(j[k])
            if finite.any():
                first = int(np.argmax(finite))
                assert finite[first:].all()
        assert not np.isnan(j).any()

    def test_obd_disabled_recovers_baseline_exactly(self, demand, dp_config):
        base = solve(demand, replace(dp_config, obd_enabled=False))
        zeroed = solve(demand, replace(dp_config, obd_enabled=True,
                                       obd_energy_per_event_kwh=0.0))
        assert np.array_equal(base.cost_to_go, zeroed.cost_to_go)
        assert np.array_equal(base.decision_idx, zeroed.decision_idx)

    def test_obd_never_cheapens(self, demand, dp_config):
        base = solve(demand, replace(dp_config, obd_enabled=False))
        with_obd = solve(demand, replace(dp_config, obd_enabled=True))
        assert with_obd.optimal_cost(14.0) >= base.optimal_cost(14.0) - 1e-12

    def test_grid_refinement_converges(self, demand, dp_config):
        costs = []
        for step in (0.02, 0.01, 0.005):
            cfg = replace(dp_config, grid_step=step)
            costs.append(solve(demand, cfg).optimal_cost(14.0))
        d1 = abs(costs[0] - costs[1])
        d2 = abs(costs[1] - costs[2])
        assert d2 <= d1 + 1e-12


class TestBruteForce:
    def test_single_feasible_decision(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        # only the largest increment covers a 0.5 drain back to 14.0
        cost = brute_force(one_interval(0.5), cfg, 14.0)
        assert cost == pytest.approx(cfg.fuel_array()[3], rel=1e-12)

    def test_zero_demand_costs_nothing(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        d = DemandProfile(np.zeros(3), 10.0, 1.0)
        assert brute_force(d, cfg, 14.0) == 0.0

    def test_two_interval_optimum(self, decisions):
        # net drain 0.2: the cheapest single increment covering it is 0.294
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        d = DemandProfile(np.asarray([0.3, -0.1]), 10.0, 1.0)
        assert brute_force(d, cfg, 14.0) == pytest.approx(
            cfg.fuel_array()[2], rel=1e-12)

    def test_enumeration_cap(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        with pytest.raises(InstanceTooLargeError):
            brute_force(DemandProfile(np.zeros(13), 10.0, 1.0), cfg, 14.0)

    def test_infeasible_terminal(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0,
                       terminal_rule=TerminalRule.at(16.8))
        with pytest.raises(InfeasibleProblemError):
            brute_force(one_interval(0.0), cfg, 14.0)


def check_against_oracle(rng, count: int, obd: bool) -> None:
    compared = 0
    while compared < count:
        d, cfg = grid_aligned_instance(rng, obd=obd)
        try:
            expect = brute_force(d, cfg, 14.0)
        except InfeasibleProblemError:
            continue
        out = rollout(solve(d, cfg), d, cfg, 14.0)
        if expect > 0:
            assert abs(out.fuel_kwh - expect) / expect < 0.005
        else:
            assert out.fuel_kwh == pytest.approx(0.0, abs=1e-12)
        compared += 1


class TestOptimalityAgainstOracle:
    def test_dp_matches_oracle_on_grid_aligned_instances(self):
        check_against_oracle(np.random.default_rng(20240815), 25, obd=False)

    def test_dp_matches_oracle_with_obd_drain(self):
        check_against_oracle(np.random.default_rng(20240816), 25, obd=True)

    def test_rollout_never_beats_oracle_without_terminal_slip(self, decisions):
        # the rollout applies real decisions, so it can undercut the oracle
        # only by slipping the terminal inside one grid quantum
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            n = int(rng.integers(3, 9))
            d = DemandProfile(rng.uniform(-0.25, 0.42, n), 10.0, n * 0.15)
            cfg = DpConfig(decisions=decisions, initial_soc=14.0,
                           grid_step=0.005)
            try:
                expect = brute_force(d, cfg, 14.0)
                out = rollout(solve(d, cfg), d, cfg, 14.0)
            except InfeasibleProblemError:
                continue
            checked += 1
            if out.fuel_kwh < expect - 1e-9:
                assert out.final_soc < 14.0
                assert 14.0 - out.final_soc <= cfg.grid_step + 1e-12


class TestObdStudy:
    def test_requires_initial_soc(self, cycle, vp, assembly, battery, decisions):
        cfg = DpConfig(decisions=decisions)
        with pytest.raises(ValueError, match="initial_soc"):
            obd_study(cycle, vp, assembly, battery, cfg)

    def test_zero_penalty_branches_identical(self, cycle, vp, assembly,
                                             battery, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0,
                       obd_energy_per_event_kwh=0.0)
        study = obd_study(cycle, vp, assembly, battery, cfg,
                          calibration=1.1584804, regen_current_limit_a=150.0)
        assert study.ec_with_wh_per_km == study.ec_without_wh_per_km
        assert study.increase_wh_per_km == 0.0
        assert study.increase_pct == 0.0

    def test_study_fields(self, cycle, vp, assembly, battery, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        study = obd_study(cycle, vp, assembly, battery, cfg,
                          calibration=1.1584804, regen_current_limit_a=150.0)
        assert study.increase_wh_per_km == pytest.approx(
            study.ec_with_wh_per_km - study.ec_without_wh_per_km, rel=1e-12)
        assert study.ec_with_wh_per_km >= study.ec_without_wh_per_km - 1e-9
        assert study.drain_per_event_pct == pytest.approx(0.0262963, abs=1e-7)
        assert study.event_count >= 0
        n = study.trajectory_with.size
        assert study.trajectory_without.size == n


class TestRuleOnDemand:
    def test_rule_is_admissible_and_within_window(self, demand, dp_config):
        out = evaluate_rule_on_demand(demand, dp_config, 14.0,
                                      trigger_soc=14.0, high_soc=17.0)
        assert out.feasible
        assert np.all(out.soc_trajectory <= 17.0 + 1e-9)
        assert np.all(out.soc_trajectory >= 12.0 - 1e-9)

    def test_fuel_counts_on_intervals(self, demand, dp_config):
        out = evaluate_rule_on_demand(demand, dp_config, 14.0,
                                      trigger_soc=14.0, high_soc=17.0)
        fuel = dp_config.fuel_array()
        assert out.fuel_kwh == pytest.approx(out.on_intervals * fuel[3],
                                             rel=1e-12)

    def test_dp_dominates_rule(self, solved, demand, dp_config):
        # optimal control can only improve on the thermostat heuristic
        rule = evaluate_rule_on_demand(demand, dp_config, 14.0,
                                       trigger_soc=14.0, high_soc=17.0)
        dp = rollout(solved, demand, dp_config, 14.0)
        assert dp.fuel_kwh <= rule.fuel_kwh * 1.005

    def test_noncharging_decision_rejected(self, demand):
        cfg = DpConfig(decisions=(null_decision(),), initial_soc=14.0)
        with pytest.raises(ValueError, match="must charge"):
            evaluate_rule_on_demand(demand, cfg, 14.0, 14.0, 17.0)


class TestWritePolicy:
    def test_file_shape_and_format(self, tmp_path, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0, soc_min=13.0,
                       soc_max=15.0, grid_step=0.5)
        d = DemandProfile(np.asarray([0.1, 0.05]), 10.0, 1.0)
        policy = solve(d, cfg)
        path = tmp_path / "policy.csv"
        write_policy(policy, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,soc_grid,decision_label,cost_to_go_kwh"
        assert len(lines) == 1 + 2 * cfg.n_states
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 13.0
        assert first[2] in [dec.label for dec in decisions]

    def test_inf_cells_written_as_inf(self, tmp_path, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        policy = solve(one_interval(0.4), cfg)
        path = tmp_path / "policy.csv"
        write_policy(policy, path)
        assert ",inf" in path.read_text()
