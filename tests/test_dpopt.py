import math
import tracemalloc
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phevopt.dpopt.solver as solver
from phevopt import BatteryParams, DriveCycle, VehicleParams, build_demand, repeat_cycle
from phevopt.cli import run_dp_hybrid
from phevopt.dpopt import (
    Decision,
    DemandProfile,
    DpConfig,
    DpPolicy,
    TerminalRule,
    decision_table,
    delta_to_electrical_kw,
    evaluate_rule_on_demand,
    obd_study,
    rollout,
    solve,
    write_policy,
)
from phevopt.errors import (
    EnvelopeError,
    InfeasibleProblemError,
    ToleranceBreachError,
)
from phevopt.dpopt.problem import (
    MAX_CELLS,
    SOC_EPS,
    cs_drain,
    cs_moves,
    cs_step,
    interp_apply,
    interp_index,
    interp_inf,
)
from phevopt.dpopt.solver import BLOCK_CELLS, reachable, sweep_columns
from phevopt.powertrain import DrivetrainParams
from phevopt.scenario import load_scenario

from helpers import flat_map, grid_aligned_instance
from oracle import InstanceTooLargeError, brute_force


@pytest.fixture(scope="module")
def demand(cycle, vp, assembly, battery):
    """Charge-sustaining demand of the bundled cycle at test-data scale."""
    return build_demand(cycle, vp, assembly.motor_map, assembly.drivetrain,
                        battery, 1.1584804, 10.0, 150.0)


@pytest.fixture(scope="module")
def solved(demand, dp_config):
    return solve(demand, dp_config)


def one_interval(d0, km=1.0):
    return DemandProfile(np.asarray([float(d0)]), 10.0, km)


class TestDecisionValidation:
    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            Decision(-0.1, 30.0)

    def test_nan_delta_rejected(self):
        # a NaN increment would give NaN successors, whose interpolation
        # indices the sweep cannot read
        with pytest.raises(ValueError, match="nonnegative"):
            Decision(math.nan, 30.0)

    def test_efficiency_bounds(self):
        with pytest.raises(ValueError):
            Decision(0.1, 0.0)
        with pytest.raises(ValueError):
            Decision(0.1, 120.0)

    def test_efficiency_below_the_number_floor_rejected(self):
        # 5e-324 / 100 is 0.0, and fuel_array once divided by it, in a
        # ZeroDivisionError that the command line did not catch
        with pytest.raises(ValueError, match=r"^efficiency_pct = 5e-324 must lie "
                                             r"in \[1e-09, 100\]$"):
            DpConfig(decisions=decision_table((0.294,), (5e-324,))).fuel_array()
        floor = DpConfig(decisions=decision_table((0.294,), (1e-9,))).fuel_array()
        assert np.isfinite(floor).all()

    def test_label_prints_the_increment(self):
        assert Decision(0.0, 100.0).label == "null"
        assert Decision(0.294, 31.0).label == "b0.294"
        assert Decision(0.1 + 0.2, 31.0).label == "b0.3"  # %g: six significant digits

    def test_label_is_not_a_field(self):
        assert [f.name for f in fields(Decision)] == ["delta_soc", "efficiency_pct"]
        with pytest.raises(FrozenInstanceError):
            Decision(0.294, 31.0).label = "b0.567"


class TestDecisionTable:
    def test_null_first_then_ascending_increments(self):
        table = decision_table([0.567, 0.051], [31.0, 24.0])
        assert [d.label for d in table] == ["null", "b0.051", "b0.567"]
        assert table == (Decision(0.0, 100.0), Decision(0.051, 24.0),
                         Decision(0.567, 31.0))

    @pytest.mark.parametrize("deltas", [(0.294, 0.2940001), (0.294, 0.294)])
    def test_repeated_label_rejected(self, deltas):
        with pytest.raises(ValueError,
                           match="deltas give two decisions the label 'b0.294'"):
            decision_table([*deltas, 0.567], [31.0, 35.0, 31.0])

    def test_zero_increment_repeats_the_null_label(self):
        with pytest.raises(ValueError, match="label 'null'"):
            decision_table([0.0, 0.294], [31.0, 31.0])

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            decision_table([0.051, 0.294], [31.0])


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

    def test_frozen_so_the_cached_gate_cannot_go_stale(self, decisions):
        cfg = DpConfig(decisions=decisions)
        assert cfg.max_positive_delta == 0.567
        with pytest.raises(FrozenInstanceError):
            cfg.decisions = decisions[:2]
        assert replace(cfg, decisions=decisions[:2]).max_positive_delta == 0.051

    def test_obd_drain_value(self, decisions):
        cfg = DpConfig(decisions=decisions)
        # 0.00497 kWh per event on an 18.9 kWh pack
        assert cfg.obd_drain_pct == pytest.approx(0.0262963, abs=1e-7)

    def test_fuel_array_formula(self, decisions):
        cfg = DpConfig(decisions=decisions)
        fuel = cfg.fuel_array()
        assert fuel[0] == 0.0 and math.copysign(1.0, fuel[0]) == 1.0  # +0.0
        for dec, f in zip(decisions[1:], fuel[1:]):
            expect = dec.delta_soc / 100.0 * 18.9 / (dec.efficiency_pct / 100.0)
            assert f == pytest.approx(expect, rel=1e-12)

    def test_null_only_table_has_no_positive_delta(self):
        cfg = DpConfig(decisions=decision_table([], []))
        assert cfg.max_positive_delta == 0.0
        assert cfg.fuel_array().tolist() == [0.0]

    def test_null_decision_required(self):
        with pytest.raises(ValueError, match="null"):
            DpConfig(decisions=(Decision(0.1, 30.0),))

    def test_empty_decisions_rejected(self):
        with pytest.raises(ValueError):
            DpConfig(decisions=())

    def test_initial_soc_must_be_in_window(self, decisions):
        with pytest.raises(ValueError):
            DpConfig(decisions=decisions, initial_soc=11.0)

    @pytest.mark.parametrize("kwargs", [
        dict(dt_s=0.0),
        dict(soc_min=17.0, soc_max=17.0),
        dict(grid_step=0.0),
        dict(grid_step=6.0),
        dict(obd_energy_per_event_kwh=-0.1),
        dict(obd_energy_per_event_kwh=math.inf),
        dict(obd_energy_per_event_kwh=math.nan),
        dict(c_batt_kwh=0.0),
        dict(c_batt_kwh=math.nan),
        dict(dt_s=math.nan),
    ])
    def test_invalid_rejected(self, decisions, kwargs):
        with pytest.raises(ValueError):
            DpConfig(decisions=decisions, **kwargs)

    @pytest.mark.parametrize("bound", ["soc_min", "soc_max"])
    def test_nan_window_has_its_own_message(self, decisions, bound):
        with pytest.raises(ValueError, match=rf"^{bound} = nan lies outside \[0, 100\]$"):
            DpConfig(decisions=decisions, **{bound: math.nan})
        with pytest.raises(ValueError, match="^soc_min = .* must lie below soc_max = "):
            DpConfig(decisions=decisions, **{bound: 17.0 if bound == "soc_min" else 12.0})

    def test_grid_step_must_divide_window(self, decisions):
        for step in (0.03, 1e-320):
            with pytest.raises(ValueError, match="does not divide"):
                DpConfig(decisions=decisions, grid_step=step)
        for step in (0.5, 0.05, 0.02, 0.01, 0.005, 0.002):
            assert DpConfig(decisions=decisions, grid_step=step).grid_step == step

    def test_state_count_is_bounded(self, decisions):
        # a grid of 5e9 states once ended in a MemoryError, not a ValueError
        with pytest.raises(ValueError, match=f"grid_step = 1e-09 gives 5000000001 SOC "
                                             f"states, above the limit of {MAX_CELLS}"):
            DpConfig(decisions=decisions, grid_step=1e-9)
        edge = dict(decisions=decisions, soc_min=0.0, soc_max=100.0)
        assert DpConfig(**edge, grid_step=100.0 / (MAX_CELLS - 1)).n_states == MAX_CELLS
        with pytest.raises(ValueError, match=f"gives {MAX_CELLS + 1} SOC states"):
            DpConfig(**edge, grid_step=100.0 / MAX_CELLS)


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

    def test_nan_threshold_rejected(self):
        # solve would sweep an all-infinite terminal row and report the
        # problem infeasible for SOC >= nan%
        for build in (lambda: TerminalRule.at(math.nan),
                      lambda: TerminalRule("threshold", math.nan)):
            with pytest.raises(ValueError, match="^value = nan must not be NaN$"):
                build()

    def test_unknown_kind(self, decisions):
        cfg = DpConfig(decisions=decisions)
        with pytest.raises(ValueError, match="unknown"):
            TerminalRule("whenever").resolve(cfg)

    def test_unknown_kind_refused_where_built(self):
        with pytest.raises(ValueError, match="unknown terminal rule kind 'whenever'"):
            TerminalRule("whenever")

    def test_soc_min_kind_refused(self):
        # a terminal at the window's bottom is TerminalRule.at(soc_min)
        with pytest.raises(ValueError, match="unknown terminal rule kind 'soc_min'"):
            TerminalRule("soc_min")

    def test_threshold_needs_a_value(self):
        # it failed inside solve, on an assert (a TypeError under python -O)
        with pytest.raises(ValueError, match="'threshold' needs a value"):
            TerminalRule("threshold")

    def test_value_refused_where_unread(self):
        with pytest.raises(ValueError, match="'initial' takes no value"):
            TerminalRule("initial", 99.0)


class TestDeltaConversions:
    def test_largest_decision_power(self):
        assert delta_to_electrical_kw(0.567, 10.0, 18.9) == pytest.approx(
            38.57868, abs=1e-6)


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

    def test_holds_its_own_read_only_copy(self):
        # the policies solved on a demand read its drains: neither the
        # caller's array nor the profile's may move them
        drains = np.asarray([0.1, 0.2])
        d = DemandProfile(drains, 10.0, 1.0)
        drains[0] = 9.0
        assert d.d_pct.tolist() == [0.1, 0.2]
        with pytest.raises(ValueError, match="read-only"):
            d.d_pct[:] *= 0.5
        with pytest.raises(FrozenInstanceError):
            d.d_pct = drains


def demand_of(cycle, vp, m, drv, bp, calibration=1.0):
    """The demand at 10-s intervals without a regeneration clip."""
    return build_demand(cycle, vp, m, drv, bp, calibration, 10.0, math.inf)


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
        d = demand_of(DriveCycle(t_s=t, v_mps=np.zeros(101)), vp, m, drv, bp)
        assert np.all(d.d_pct == 0.0)
        assert d.distance_km == 0.0

    def test_constant_speed_drain(self, vp):
        # 8.54424 kW wheel / 0.9 map for 10 s against 18.9 kWh
        m, drv, bp = self.flat_setup()
        d = demand_of(self.const_cycle(), vp, m, drv, bp)
        assert d.n_intervals == 10
        assert d.distance_km == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(d.d_pct, 0.13952969, atol=1e-8)

    def test_calibration_scales_motoring_drain(self, vp):
        m, drv, bp = self.flat_setup()
        base = demand_of(self.const_cycle(), vp, m, drv, bp)
        scaled = demand_of(self.const_cycle(), vp, m, drv, bp, 1.1584804)
        assert np.allclose(scaled.d_pct, base.d_pct * 1.1584804, rtol=1e-12)

    def test_partial_trailing_interval_folds(self, vp):
        m, drv, bp = self.flat_setup()
        d = demand_of(self.const_cycle(duration=105.0), vp, m, drv, bp)
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
        free = demand_of(c, vp, m, drv, battery)
        capped = build_demand(c, vp, m, drv, battery, 1.0, 10.0, 150.0)
        assert np.all(capped.d_pct >= free.d_pct - 1e-12)
        assert capped.d_pct.sum() > free.d_pct.sum()

    def test_inputs_validated(self, vp):
        m, drv, bp = self.flat_setup()
        with pytest.raises(ValueError):
            demand_of(self.const_cycle(), vp, m, drv, bp, 0.0)
        short = DriveCycle(t_s=np.asarray([0.0, 5.0]),
                           v_mps=np.asarray([10.0, 10.0]))
        with pytest.raises(ValueError, match="interval"):
            demand_of(short, vp, m, drv, bp)

    def test_envelope_error_names_step(self, cycle, vp, assembly, battery):
        with pytest.raises(EnvelopeError, match=r"step \d+ \(t = "):
            demand_of(cycle, vp, assembly.motor_map, assembly.drivetrain,
                      battery, 10.0)


class TestSolveExamples:
    def test_no_demand_needs_no_fuel(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        d = DemandProfile(np.zeros(3), 10.0, 1.0)
        policy = solve(d, cfg)
        assert policy.optimal_cost(14.0) == 0.0
        out = rollout(policy, 14.0)
        assert out.fuel_kwh == 0.0
        assert out.null_intervals == 3
        assert np.all(out.soc_trajectory == 14.0)

    def test_single_interval_picks_exact_cover(self, decisions):
        # d = 0.294 with terminal back at the initial SOC: only the matching
        # increment reaches it at minimum fuel
        cfg = DpConfig(decisions=decisions, initial_soc=14.0, grid_step=0.005)
        d = one_interval(0.294)
        policy = solve(d, cfg)
        out = rollout(policy, 14.0)
        assert decisions[out.decision_indices[0]].label == "b0.294"
        fuel = cfg.fuel_array()
        assert out.fuel_kwh == pytest.approx(fuel[2], rel=1e-12)
        expect = 0.00294 * 18.9 / (decisions[2].efficiency_pct / 100.0)
        assert out.fuel_kwh == pytest.approx(expect, rel=1e-12)
        assert out.final_soc == pytest.approx(14.0, abs=1e-12)

    def test_ec_normalizes_by_distance(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        d = one_interval(0.294, km=2.0)
        out = rollout(solve(d, cfg), 14.0)
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
        out = rollout(solve(d, cfg), 16.0)
        assert decisions[out.decision_indices[0]].label == "b0.567"
        assert out.final_soc == pytest.approx(15.967, abs=1e-9)

    def test_regeneration_curtailed_at_window_top(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=16.8,
                       terminal_rule=TerminalRule.at(17.0))
        d = one_interval(-0.5)
        out = rollout(solve(d, cfg), 16.8)
        assert out.final_soc == 17.0
        assert out.fuel_kwh == 0.0

    def test_positive_drain_not_curtailed(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=16.8,
                       terminal_rule=TerminalRule.at(12.0))
        d = one_interval(0.5)
        out = rollout(solve(d, cfg), 16.8)
        assert out.final_soc == pytest.approx(16.3, abs=1e-9)
        assert out.null_intervals == 1  # gate leaves only the null decision


class TestInfeasibility:
    def test_blocking_interval_reported(self, decisions):
        cfg = DpConfig(decisions=decisions,
                       terminal_rule=TerminalRule.at(12.0))
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
            rollout(policy, 14.0)

    def test_demand_interval_must_match_config(self, decisions):
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        coarse = DemandProfile(np.zeros(2), 5.0, 1.0)
        with pytest.raises(ValueError, match="dt_s"):
            solve(coarse, cfg)

    def test_policy_refuses_demand_of_other_length(self, decisions):
        cfg = DpConfig(decisions=decisions, terminal_rule=TerminalRule.at(12.0))
        policy = solve(DemandProfile(np.zeros(3), 10.0, 1.0), cfg)
        with pytest.raises(ValueError, match=r"decision_idx has shape \(3, 501\), but "
                           r"a demand of 4 intervals .* needs \(4, 501\)"):
            replace(policy, demand=DemandProfile(np.zeros(4), 10.0, 1.0))
        with pytest.raises(ValueError, match=r"cost_to_go has shape \(3, 501\)"):
            replace(policy, cost_to_go=policy.cost_to_go[:-1])
        # stage 0 alone is the one other shape
        with pytest.raises(ValueError, match=r"cost_to_go has shape \(2, 501\), .* "
                           r"needs \(4, 501\), or \(1, 501\) for stage 0 alone"):
            replace(policy, cost_to_go=policy.cost_to_go[:2])
        row = replace(policy, cost_to_go=policy.cost_to_go[:1])
        assert row.optimal_cost(14.3) == policy.optimal_cost(14.3)

    @pytest.mark.parametrize("keep_costs", [True, False])
    def test_policy_is_frozen_and_its_tables_read_only(self, decisions, keep_costs):
        # no field can be swapped past the shape checks, and no cell of
        # solve's tables written
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        policy = solve(DemandProfile(np.asarray([0.1, 0.05]), 10.0, 1.0), cfg,
                       keep_costs=keep_costs)
        with pytest.raises(FrozenInstanceError):
            policy.cost_to_go = policy.cost_to_go[:1]
        with pytest.raises(FrozenInstanceError):
            policy.demand = one_interval(0.1)
        with pytest.raises(ValueError, match="read-only"):
            policy.cost_to_go[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            policy.decision_idx[0, 0] = 1

    def test_policy_refuses_a_signed_table(self, decisions):
        # a -1 would read as the last label in write_policy and the last
        # decision in rollout
        cfg = DpConfig(decisions=decisions, terminal_rule=TerminalRule.at(12.0))
        policy = solve(DemandProfile(np.zeros(3), 10.0, 1.0), cfg)
        signed = policy.decision_idx.astype(np.int32)
        signed[1, 7] = -1
        for table in (signed, policy.decision_idx.astype(np.int8)):
            with pytest.raises(ValueError, match=r"decision_idx has dtype int\d+, "
                               r"but indices .* are unsigned integers"):
                replace(policy, decision_idx=table)

    def test_policy_refuses_an_index_past_the_decisions(self, decisions):
        cfg = DpConfig(decisions=decisions, terminal_rule=TerminalRule.at(12.0))
        policy = solve(DemandProfile(np.zeros(3), 10.0, 1.0), cfg)
        table = policy.decision_idx.copy()
        table[2, -1] = len(decisions)
        with pytest.raises(ValueError, match=rf"decision_idx holds index "
                           rf"{len(decisions)}, but cfg has {len(decisions)} decisions"):
            replace(policy, decision_idx=table)
        table[2, -1] = len(decisions) - 1
        assert replace(policy, decision_idx=table).decision_idx.dtype == np.uint8

    def test_terminal_above_the_grid_is_named(self, decisions):
        # no scenario sets a terminal; the API reaches this one
        cfg = DpConfig(decisions=decisions, terminal_rule=TerminalRule.at(17.5))
        with pytest.raises(InfeasibleProblemError) as exc:
            solve(DemandProfile(np.zeros(5), 10.0, 1.0), cfg)
        assert exc.value.stage == 5
        assert "no grid state meets the terminal SOC" in str(exc.value)
        assert "interval" not in str(exc.value)

    def test_policy_refuses_demand_of_other_interval(self, decisions):
        cfg = DpConfig(decisions=decisions, terminal_rule=TerminalRule.at(12.0))
        policy = solve(DemandProfile(np.zeros(3), 10.0, 1.0), cfg)
        coarse = DemandProfile(np.zeros(3), 5.0, 1.0)
        with pytest.raises(ValueError) as from_solve:
            solve(coarse, cfg)
        with pytest.raises(ValueError) as from_policy:
            replace(policy, demand=coarse)
        assert str(from_policy.value) == str(from_solve.value)
        assert "dt_s=10 s" in str(from_policy.value)

    def test_rollout_breach_guard(self, decisions):
        # replaying a policy on a much heavier demand trips the window guard
        cfg = DpConfig(decisions=decisions,
                       terminal_rule=TerminalRule.at(12.0))
        policy = replace(solve(one_interval(0.0), cfg), demand=one_interval(2.0))
        with pytest.raises(ToleranceBreachError, match="leaves"):
            rollout(policy, 12.5)


class TestTieBreaking:
    def test_null_preferred_when_free(self, decisions):
        cfg = DpConfig(decisions=decisions,
                       terminal_rule=TerminalRule.at(12.0))
        policy = solve(DemandProfile(np.zeros(2), 10.0, 1.0), cfg)
        assert np.all(policy.decision_idx == 0)

    def test_equal_cost_keeps_lowest_index(self):
        decs = (Decision(0.0, 100.0),
                Decision(0.294, 31.0),
                Decision(0.294, 31.0),
                Decision(0.567, 31.0))
        cfg = DpConfig(decisions=decs, initial_soc=14.0)
        d = one_interval(0.294)
        out = rollout(solve(d, cfg), 14.0)
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

    def test_nan_soc_rejected(self, staircase):
        # NaN cast to the node index -2**63, on which interp_apply spun
        policy, _ = staircase
        with pytest.raises(ValueError, match="initial SOC must not be NaN"):
            policy.optimal_cost(math.nan)


class TestCycleDemandSolution:
    def test_rollout_consistent_with_cost_to_go(self, solved, demand, dp_config):
        out = rollout(solved, 14.0)
        j0 = solved.optimal_cost(14.0)
        assert abs(out.fuel_kwh - j0) / j0 < 0.005

    def test_rollout_refuses_a_nan_soc(self, solved):
        with pytest.raises(ValueError, match="initial SOC must not be NaN"):
            rollout(solved, math.nan)

    def test_trajectory_respects_window(self, solved, demand, dp_config):
        out = rollout(solved, 14.0)
        assert out.soc_trajectory.size == demand.n_intervals + 1
        assert np.all(out.soc_trajectory >= 12.0 - dp_config.grid_step - 1e-12)
        assert np.all(out.soc_trajectory <= 17.0 + dp_config.grid_step + 1e-12)

    def test_terminal_rule_met_within_quantum(self, solved, demand, dp_config):
        out = rollout(solved, 14.0)
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
        out = rollout(solve(d, cfg), 14.0)
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
                out = rollout(solve(d, cfg), 14.0)
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
            obd_study(cycle, vp, assembly, battery, cfg, 1.0, math.inf)

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


def reachable_arrays(obj):
    """Every numpy array among the fields of a dataclass instance, of the
    dataclasses and tuples it holds, and so on down."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from reachable_arrays(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from reachable_arrays(item)


class TestResultsAreReadOnly:
    @pytest.mark.parametrize("keep_costs", [True, False])
    def test_every_reachable_array_refuses_writes(self, cycle, vp, assembly, battery,
                                                  demand, dp_config, keep_costs):
        policy = solve(demand, dp_config, keep_costs=keep_costs)
        roll = rollout(policy, 14.0)
        replay = evaluate_rule_on_demand(demand, dp_config, 14.0, 13.0, 17.0)
        study = obd_study(cycle, vp, assembly, battery, dp_config,
                          calibration=1.1584804, regen_current_limit_a=150.0)
        columns = tuple(sweep_columns(demand, [dp_config, replace(
            dp_config, obd_enabled=True)], keep_costs=keep_costs))
        found = {name: list(reachable_arrays(result)) for name, result in
                 (("policy", policy), ("rollout", roll), ("replay", replay),
                  ("study", study), ("columns", columns))}
        # the cost and decision tables and the drains; a trajectory and its
        # decisions; both branches' trajectories; each column's policy
        assert {k: len(v) for k, v in found.items()} == {
            "policy": 3, "rollout": 2, "replay": 2, "study": 2, "columns": 6}
        for arrays in found.values():
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = a.flat[0]
        for result, name in ((roll, "soc_trajectory"), (study, "trajectory_with")):
            with pytest.raises(FrozenInstanceError):
                setattr(result, name, np.zeros(3))


class TestRuleOnDemand:
    def test_nan_soc_rejected(self, demand, dp_config):
        # the replay ended at SOC NaN, infeasible, without an error
        with pytest.raises(ValueError, match="initial SOC must not be NaN"):
            evaluate_rule_on_demand(demand, dp_config, math.nan, 14.0, 17.0)

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
        on = demand.n_intervals - out.null_intervals
        assert out.fuel_kwh == pytest.approx(on * fuel[3], rel=1e-12)

    def test_dp_dominates_rule(self, solved, demand, dp_config):
        # optimal control can only improve on the thermostat heuristic
        rule = evaluate_rule_on_demand(demand, dp_config, 14.0,
                                       trigger_soc=14.0, high_soc=17.0)
        dp = rollout(solved, 14.0)
        assert dp.fuel_kwh <= rule.fuel_kwh * 1.005

    def test_noncharging_decision_rejected(self, demand):
        cfg = DpConfig(decisions=(Decision(0.0, 100.0),), initial_soc=14.0)
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

    def test_refuses_a_policy_without_its_cost_table(self, tmp_path, decisions):
        # the stage-0 row alone cannot fill the cost column
        cfg = DpConfig(decisions=decisions, initial_soc=14.0)
        policy = solve(DemandProfile(np.asarray([0.1, 0.05]), 10.0, 1.0), cfg,
                       keep_costs=False)
        path = tmp_path / "policy.csv"
        with pytest.raises(ValueError, match="cost-to-go table was not kept"):
            write_policy(policy, path)
        assert not path.exists()


# References: the CS transition rule and one backward-sweep stage as first
# written, with a fresh array per step, both interpolation corners gathered,
# np.where for every fix-up, and argmin over decisions plus a fancy take.
# The library's versions compute the same operations with fewer array
# passes, so they must agree bit for bit.

def reference_cs_step(cfg, soc, d_k, delta):
    delta = np.asarray(delta, dtype=float)
    null = delta == 0.0
    drain = np.where(null, cfg.obd_drain_pct if cfg.obd_enabled else 0.0, 0.0)
    succ = soc + delta - d_k - drain
    if d_k < 0.0:
        succ = np.minimum(succ, cfg.soc_max)
    gate_ok = null | (soc + cfg.max_positive_delta <= cfg.soc_max + SOC_EPS)
    ok = gate_ok & (succ >= cfg.soc_min - SOC_EPS) & (succ <= cfg.soc_max + SOC_EPS)
    return succ, gate_ok, ok


def reference_interp_inf(values, x, lo, step):
    m = values.size
    p = np.clip((x - lo) / step, 0.0, float(m - 1))
    j = np.minimum(p.astype(np.int64), m - 2)
    w = p - j
    left = values[j]
    right = values[j + 1]
    with np.errstate(invalid="ignore"):
        out = left + w * (right - left)
    out = np.where(np.isnan(out), np.inf, out)
    out = np.where(w < SOC_EPS, left, out)
    return np.where(w > 1.0 - SOC_EPS, right, out)


def reference_sweep(d, cfg):
    grid = cfg.grid()
    n, m = d.n_intervals, grid.size
    step = (cfg.soc_max - cfg.soc_min) / (m - 1)
    deltas = cfg.delta_array()[:, None]
    fuel = cfg.fuel_array()[:, None]
    states = np.arange(m)
    cost_to_go = np.full((n + 1, m), np.inf)
    decision_idx = np.empty((n, m), dtype=np.min_scalar_type(len(cfg.decisions) - 1))
    cost_to_go[n, grid >= cfg.terminal_rule.resolve(cfg) - 1e-12] = 0.0
    for k in range(n - 1, -1, -1):
        succ, _, ok = reference_cs_step(cfg, grid, d.d_pct[k], deltas)
        cost = np.where(
            ok, fuel + reference_interp_inf(cost_to_go[k + 1], succ, cfg.soc_min, step),
            np.inf)
        best = np.argmin(cost, axis=0)
        decision_idx[k] = best
        cost_to_go[k] = cost[best, states]
    return cost_to_go, decision_idx


def assert_sweeps_equal(d, cfg):
    expect_cost, expect_idx = reference_sweep(d, cfg)
    policy = sweep_columns(d, [cfg])[0]
    cost, idx = policy.cost_to_go, policy.decision_idx
    assert cost.dtype == expect_cost.dtype and idx.dtype == expect_idx.dtype
    assert np.array_equal(cost, expect_cost)
    assert np.array_equal(idx, expect_idx)


#: Grid steps that divide the default 12-17% window, 0.002 to 0.1.
GRID_STEPS = (0.002, 0.0025, 0.004, 0.005, 0.01, 0.02, 0.025, 0.05, 0.1)


@st.composite
def sweep_instances(draw):
    """A small CS problem that reaches the sweep's corner cases: drains on
    whole and half grid steps (both snaps), net regeneration (curtailment
    at soc_max), drains that carry successors past either window edge,
    duplicate decisions (ties), a null-only decision set, OBD on and off,
    and terminals up to and beyond soc_max (all-infinite stages)."""
    g = draw(st.sampled_from(GRID_STEPS))
    on_grid = st.integers(-140, 180).map(lambda i: i * g / 2.0)
    drains = draw(st.lists(st.one_of(on_grid, st.floats(-0.7, 0.9)),
                           min_size=1, max_size=25))
    bound = 0.58  # below the 40 kW gen-set bound of 0.5879 %/interval
    on_grid_delta = st.integers(1, int(bound / g * 2)).map(lambda i: i * g / 2.0)
    positives = draw(st.lists(st.one_of(on_grid_delta, st.floats(0.001, bound)),
                              max_size=4))
    decs = [Decision(0.0, 100.0)] + [
        Decision(dl, draw(st.sampled_from([25.0, 31.0, 38.5]))) for dl in positives]
    for i in draw(st.lists(st.integers(0, len(decs) - 1), max_size=2)):
        decs.insert(draw(st.integers(i + 1, len(decs))), decs[i])
    obd_pct = draw(st.one_of(st.integers(1, 8).map(lambda i: i * g / 2.0),
                             st.floats(0.0, 0.05)))
    threshold = draw(st.one_of(st.sampled_from([12.0, 17.0, 17.5]),
                               st.floats(12.0, 17.0), on_grid.map(lambda x: 14.0 + x)))
    cfg = DpConfig(decisions=tuple(decs), grid_step=g,
                   terminal_rule=TerminalRule.at(threshold),
                   obd_enabled=draw(st.booleans()),
                   obd_energy_per_event_kwh=obd_pct / 100.0 * 18.9)
    return DemandProfile(np.asarray(drains), 10.0, 1.0), cfg


class TestSweepMatchesReference:
    @given(inst=sweep_instances())
    @settings(max_examples=200, deadline=None)
    def test_random_instances(self, inst):
        assert_sweeps_equal(*inst)

    @given(inst=sweep_instances(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_stage_zero_row_without_the_table(self, inst, data):
        # a ring of one block's rows gives the table's stage-0 row and the
        # same decisions, bit for bit; at 2501 states a block holds 1-2
        # stages, so the ring hands a row over between many blocks
        d, cfg = inst
        kept = sweep_columns(d, [cfg])[0]
        row = sweep_columns(d, [cfg], keep_costs=False)[0]
        assert same_bits(row.cost_to_go, kept.cost_to_go[:1])
        assert same_bits(row.decision_idx, kept.decision_idx)
        # solve names the same stage in both modes, from every grid state
        # and from one designated initial state
        initial = data.draw(st.one_of(st.none(), st.floats(cfg.soc_min, cfg.soc_max)))
        cfg = replace(cfg, initial_soc=initial)
        try:
            full = solve(d, cfg)
        except InfeasibleProblemError as exc:
            with pytest.raises(InfeasibleProblemError) as ring:
                solve(d, cfg, keep_costs=False)
            assert (str(ring.value), ring.value.stage) == (str(exc), exc.stage)
        else:
            ring = solve(d, cfg, keep_costs=False)
            assert same_bits(ring.cost_to_go, full.cost_to_go[:1])
            assert same_bits(ring.decision_idx, full.decision_idx)

    @given(inst=sweep_instances(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_two_columns_match_two_sweeps(self, inst, data):
        # OBD off and on in one sweep give each problem's own sweep, bit for
        # bit, with and without the cost tables; the paired rows reorder the
        # decisions (duplicate nulls included), a lone column does not
        d, cfg = inst
        cfgs = [replace(cfg, obd_enabled=obd) for obd in (False, True)]
        for keep_costs in (True, False):
            pair = sweep_columns(d, cfgs, keep_costs=keep_costs)
            assert [p.cfg for p in pair] == cfgs
            for column, c in zip(pair, cfgs):
                alone = sweep_columns(d, [c], keep_costs=keep_costs)[0]
                assert same_bits(column.cost_to_go, alone.cost_to_go)
                assert same_bits(column.decision_idx, alone.decision_idx)
        # checking the swept columns raises what the separate solves raise,
        # from every grid state and from one designated initial state
        initial = data.draw(st.one_of(st.none(), st.floats(cfg.soc_min, cfg.soc_max)))
        cfgs = [replace(c, initial_soc=initial) for c in cfgs]
        keep_costs = data.draw(st.booleans())
        pair = sweep_columns(d, cfgs, keep_costs=keep_costs)
        for c, swept in zip(cfgs, pair):
            try:
                alone = solve(d, c, keep_costs=keep_costs)
            except InfeasibleProblemError as exc:
                with pytest.raises(InfeasibleProblemError) as paired:
                    solve(d, c, swept=pair)
                assert (str(paired.value), paired.value.stage) == (str(exc), exc.stage)
                continue
            policy = solve(d, c, swept=pair)
            assert policy is swept
            assert same_bits(policy.cost_to_go, alone.cost_to_go)
            assert same_bits(policy.decision_idx, alone.decision_idx)

    def test_columns_differ_only_in_obd(self, decisions):
        cfg = DpConfig(decisions=decisions)
        with pytest.raises(ValueError, match="differ only in obd_enabled"):
            sweep_columns(one_interval(0.1), [cfg, replace(cfg, grid_step=0.02)])
        # the sweep reads one terminal from its columns' configs
        with pytest.raises(ValueError, match="differ only in obd_enabled"):
            sweep_columns(one_interval(0.1), [cfg, replace(
                cfg, obd_enabled=True, terminal_rule=TerminalRule.at(16.0))])

    @given(inst=sweep_instances(), soc=st.floats(11.0, 18.0))
    @settings(max_examples=200, deadline=None)
    def test_cs_step(self, inst, soc):
        d, cfg = inst
        deltas = cfg.delta_array()
        for d_k in d.d_pct[:3]:
            for args in ((soc, d_k, 0.0), (soc, d_k, deltas[-1]), (soc, d_k, deltas),
                         (cfg.grid(), d_k, deltas[:, None])):
                for out, expect in zip(cs_step(cfg, *args), reference_cs_step(cfg, *args)):
                    assert np.shape(out) == np.shape(expect)
                    assert np.array_equal(out, expect)

    @given(inst=sweep_instances(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cs_step_on_floats(self, inst, data):
        # the forward pass steps on Python floats: each call returns a float
        # and two bools with the bits of its element of the array call
        d, cfg = inst
        deltas = cfg.delta_array()
        gate = cfg.soc_max + SOC_EPS - cfg.max_positive_delta
        edges = [gate, math.nextafter(gate, 0.0), math.nextafter(gate, 99.0),
                 cfg.soc_min, cfg.soc_max, cfg.soc_max + SOC_EPS]
        socs = data.draw(st.lists(st.one_of(st.floats(11.0, 18.0), st.sampled_from(edges)),
                                  min_size=1, max_size=4))
        # net regeneration (curtailment at soc_max) on every instance
        drains = np.append(d.d_pct[:4], data.draw(st.floats(-0.7, -1e-9)))
        block = cs_step(cfg, np.asarray(socs), drains[:, None, None], deltas[:, None])
        block = [np.broadcast_to(x, block[2].shape) for x in block]
        for k, d_k in enumerate(drains.tolist()):
            for a, delta in enumerate(deltas.tolist()):
                for j, soc in enumerate(socs):
                    succ, gate_ok, ok = cs_step(cfg, soc, d_k, delta)
                    assert (type(succ), type(gate_ok), type(ok)) == (float, bool, bool)
                    assert same_bits(succ, block[0][k, a, j])
                    assert (gate_ok, ok) == (block[1][k, a, j], block[2][k, a, j])

    @given(inst=sweep_instances())
    @settings(max_examples=100, deadline=None)
    def test_cs_step_on_a_drain_column(self, inst):
        # B intervals at once give each interval's (decisions x states) move
        d, cfg = inst
        grid, deltas = cfg.grid(), cfg.delta_array()[:, None]
        block = cs_step(cfg, grid, d.d_pct[:, None, None], deltas)
        for k, d_k in enumerate(d.d_pct):
            for out, expect in zip(block, cs_step(cfg, grid, float(d_k), deltas)):
                assert np.array_equal(np.broadcast_to(out, block[2].shape)[k], expect)

    @given(inst=sweep_instances(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_halves_compose_to_the_reference(self, inst, data):
        # cs_drain after cs_moves is the rule as first written, bit for bit:
        # on floats, on (decisions x states) and on a (B, 1, 1) column of
        # drains, with net regeneration on every instance and states on the
        # gate's edges
        d, cfg = inst
        deltas = cfg.delta_array()
        gate = cfg.soc_max + SOC_EPS - cfg.max_positive_delta
        edges = [gate, math.nextafter(gate, 0.0), math.nextafter(gate, 99.0),
                 cfg.soc_min, cfg.soc_max, cfg.soc_max + SOC_EPS]
        socs = data.draw(st.lists(st.one_of(st.floats(11.0, 18.0), st.sampled_from(edges)),
                                  min_size=1, max_size=4))
        drains = np.append(d.d_pct[:4], data.draw(st.floats(-0.7, -1e-9)))
        for states in (np.asarray(socs), cfg.grid()):
            moves = cs_moves(cfg, states, deltas[:, None])
            block = cs_drain(cfg, *moves, drains[:, None, None])
            for k, d_k in enumerate(drains.tolist()):
                succ, gate_ok, ok = reference_cs_step(cfg, states, d_k, deltas[:, None])
                assert same_bits(moves[1], gate_ok)
                for got in (cs_drain(cfg, *moves, d_k), [x[k] for x in block]):
                    assert same_bits(got[0], succ) and same_bits(got[1], ok)
        for d_k in drains.tolist():
            for delta in deltas.tolist():
                for soc in socs:
                    moves = cs_moves(cfg, soc, delta)
                    succ, ok = cs_drain(cfg, *moves, d_k)
                    assert (type(succ), type(moves[1]), type(ok)) == (float, bool, bool)
                    expect = reference_cs_step(cfg, soc, d_k, delta)
                    assert same_bits(succ, expect[0])
                    assert (moves[1], ok) == (expect[1], expect[2])

    @given(inst=sweep_instances())
    @settings(max_examples=100, deadline=None)
    def test_out_matches_the_allocating_calls(self, inst):
        # the sweep's call: each result written into the array passed for
        # it, with the bits and shape of the allocating call; the out arrays
        # start as the negation (or NaN) of the result, so every cell is
        # written. The moves are left as they were, as every block reads them.
        d, cfg = inst
        grid, m = cfg.grid(), cfg.n_states
        moves = cs_moves(cfg, grid, cfg.delta_array()[:, None])
        before = [x.copy() for x in moves]
        fresh = cs_drain(cfg, *moves, d.d_pct[:, None, None])
        out = (np.full(fresh[0].shape, np.nan), ~fresh[1])
        got = cs_drain(cfg, *moves, d.d_pct[:, None, None], out=out)
        for g, o, f in zip(got, out, fresh):
            assert g is o and same_bits(o, f)
        assert all(same_bits(x, y) for x, y in zip(moves, before))

        x = fresh[0]
        fresh = interp_index(x, cfg.soc_min, cfg.grid_spacing, m)
        # into arrays of their own, and with the weights over the points as
        # the sweep writes them
        for w, points in ((np.full(x.shape, np.nan), x), (x.copy(),) * 2):
            out = (np.full(x.shape, -1, np.int64), np.full(x.shape, -1, np.int64), w)
            got = interp_index(points, cfg.soc_min, cfg.grid_spacing, m, out=out)
            for g, o, f in zip(got, out, fresh):
                assert g is o and same_bits(o, f)

    @pytest.mark.parametrize("grid_step", [0.01, 0.002])
    @pytest.mark.parametrize("obd", [False, True])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["1", "B-1", "B", "B+1", "2B+1"])
    def test_block_edges(self, decisions, grid_step, obd, blocks, extra):
        # demands of 1 interval and around one and two blocks of B stages
        cfg = DpConfig(decisions=decisions, grid_step=grid_step, obd_enabled=obd)
        per_block = BLOCK_CELLS // len(decisions) // cfg.n_states
        assert per_block > 1  # 10 stages at 501 states, 2 at 2501
        n = blocks * per_block + extra
        rng = np.random.default_rng(n)
        # regeneration, drains on whole and half grid steps, and heavy drains
        drains = np.where(rng.random(n) < 0.3, rng.integers(-60, 120, n) * grid_step / 2,
                          rng.uniform(-0.4, 0.8, n))
        d = DemandProfile(drains, 10.0, 1.0)
        for threshold in (12.0, 14.0, 16.9):
            assert_sweeps_equal(d, replace(cfg, terminal_rule=TerminalRule.at(threshold)))

    @pytest.mark.parametrize("obd", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stage_wider_than_a_block(self, decisions, obd, n):
        # 10001 states x 4 decisions = 40004 cells, more than BLOCK_CELLS,
        # so every block holds one stage: regeneration (curtailment at
        # soc_max), a drain on a whole grid step and one on a half step
        cfg = DpConfig(decisions=decisions, grid_step=0.0005, obd_enabled=obd)
        assert len(decisions) * cfg.n_states > BLOCK_CELLS
        d = DemandProfile(np.array([-0.3, 0.45, 0.20025])[:n], 10.0, 1.0)
        for threshold in (12.0, 14.0, 16.9):
            assert_sweeps_equal(d, replace(cfg, terminal_rule=TerminalRule.at(threshold)))

    @pytest.mark.parametrize("obd", [False, True])
    def test_more_decisions_than_a_byte_holds(self, obd):
        # 300 decisions take a uint16 table. The efficient ones, each
        # charge level listed four times, sit past index 255, so the lowest
        # tied index is picked above the range of one byte.
        rng = np.random.default_rng(300)
        slow = [Decision(round(x, 1), 25.0)
                for x in rng.choice([0.1, 0.2, 0.3, 0.4, 0.5], 279)]
        fast = [Decision(0.1 * (i % 10 // 2 + 1), 38.5) for i in range(20)]
        cfg = DpConfig(decisions=(Decision(0.0, 100.0), *slow, *fast), grid_step=0.1,
                       obd_enabled=obd)
        d = DemandProfile(rng.uniform(-0.2, 0.6, 6), 10.0, 1.0)
        for threshold in (12.0, 14.0, 16.9):
            at = replace(cfg, terminal_rule=TerminalRule.at(threshold))
            assert sweep_columns(d, [at])[0].decision_idx.dtype == np.uint16
            assert_sweeps_equal(d, at)

    @pytest.mark.parametrize("name", ["single_lap.ini", "three_lap.ini",
                                      "obd_single_lap.ini"])
    @pytest.mark.parametrize("grid_step", [None, 0.002])
    @pytest.mark.parametrize("obd", [False, True])
    def test_shipped_fixtures(self, scenario_dir, name, grid_step, obd):
        # the demand the CLI solves: the trip's charge-sustaining remainder,
        # which is the whole lap for obd_single_lap (it starts at the trigger)
        run = run_dp_hybrid(load_scenario(scenario_dir / name))
        cfg = replace(run.policy.cfg, grid_step=grid_step or run.policy.cfg.grid_step,
                      obd_enabled=obd)
        assert_sweeps_equal(run.policy.demand, cfg)


#: Bytes of working memory the backward sweep may hold per cell of its block
#: budget. Its workspace holds a weight, two int64 indices and a stage cost
#: per cell (32 bytes) and one byte for the admissible moves, which then
#: holds the tie table; the moves of ``cs_moves`` (a float and a gate byte
#: per decision and state) live for the whole sweep, each block's calls add
#: a few one-byte temporaries and each stage a few (decisions x states)
#: ones. 414 x 2501 x 4 measures 47.93 with and without OBD. The first sweep
#: of a process measures 48.09, as numpy fills its caches on its first calls,
#: and a first sweep of a few stages leaves some unfilled: after 2 stages the
#: next reads 48.02, after 20 47.97, after 40 or more 47.93. So the test
#: sweeps 64 stages before it measures.
SWEEP_BYTES_PER_CELL = 48


@pytest.mark.parametrize("obd", [False, True])
def test_sweep_memory_is_bounded_by_the_block_budget(decisions, obd):
    cfg = DpConfig(decisions=decisions, grid_step=0.002, obd_enabled=obd,
                   terminal_rule=TerminalRule.at(14.0))
    d = DemandProfile(np.random.default_rng(0).uniform(-0.3, 0.5, 414), 10.0, 1.0)
    sweep_columns(DemandProfile(d.d_pct[:64], 10.0, 1.0), [cfg])  # numpy's first calls
    tracemalloc.start()
    try:
        policy = sweep_columns(d, [cfg])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(policy.cost_to_go[0]).any()
    working = peak - policy.cost_to_go.nbytes - policy.decision_idx.nbytes
    assert working < BLOCK_CELLS * SWEEP_BYTES_PER_CELL


@pytest.mark.parametrize("columns", [1, 2])
def test_sweep_refuses_tables_past_the_cell_bound(dp_config, columns):
    # a zero demand one interval longer than the bound allows on 501 states
    cfgs = [dp_config, replace(dp_config, obd_enabled=True)][:columns]
    n = MAX_CELLS // (columns * dp_config.n_states) + 1
    d = DemandProfile(np.zeros(n), 10.0, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"a sweep of {columns} x {n} x 501 "):
            sweep_columns(d, cfgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # its tables would take 128 MiB; the refusal takes a few kB of checks
    assert peak < 2**16


@pytest.mark.parametrize("columns,n,keep_costs", [
    (1, 1, True), (2, 1, False), (2, 3, True), (1, 400, True), (2, 400, False)])
def test_sweep_admitted_by_the_byte_budget_stays_within_it(decisions, monkeypatch,
                                                           columns, n, keep_costs):
    # on a budget of 4 MiB, the grid one state short of the first refused
    # one sweeps within the budget: one stage per block for the short
    # demands, where the workspace outweighs the tables, and 5 to 10 for
    # the long ones
    budget = 2**22
    monkeypatch.setattr(solver, "SWEEP_BYTES", budget)
    d = DemandProfile(np.full(n, 0.05), 10.0, 1.0)

    def sweep(m):
        # a window in [0, 100] holds the 466033 states of the budget at this step
        cfg = DpConfig(decisions=decisions, soc_min=0.0, soc_max=(m - 1) * 1e-4,
                       grid_step=1e-4, terminal_rule=TerminalRule.at(0.0))
        assert cfg.n_states == m
        return sweep_columns(d, [cfg, replace(cfg, obd_enabled=True)][:columns],
                             keep_costs=keep_costs)

    lo, hi = 2, budget // 9  # admitted, refused
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            sweep(mid)
            lo = mid
        except ValueError as exc:
            assert f"x {n} x {mid} (columns x intervals x states) needs" in str(exc)
            hi = mid
    tracemalloc.start()
    try:
        sweep(lo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


#: Bytes of working memory a paired OBD-off/on sweep without cost tables may
#: hold per cell of the block budget. The stages per block stay those of one
#: column, but the workspace holds 5 rows per stage for 4 decisions (the
#: null decision's twice), the first column adds its stage costs (8 bytes
#: per cell of its 4 rows) and each column has its ring of cost rows.
#: 414 x 2501 x 4 measures 68.9, against 49.9 for one column.
PAIRED_BYTES_PER_CELL = 70
#: Bytes ``obd_study`` holds at its peak beyond its two decision tables and
#: the paired sweep's working memory: the stage-0 rows, the demand and the
#: first branch's rollout. 414 x 2501 x 4 measures 45 to 52 kB; a whole
#: cost table is 8.3 MB.
OBD_STUDY_MARGIN = 60_000


def test_obd_study_keeps_no_cost_table(scenario_dir):
    # the cs_sweep size: three laps of obd_single_lap at a 0.002 grid step,
    # both branches in one sweep, whose rollouts both read a decision table
    sc = load_scenario(scenario_dir / "obd_single_lap.ini")
    cycle = repeat_cycle(sc.cycle, 3)
    cfg = replace(sc.dp, grid_step=0.002)
    tracemalloc.start()
    try:
        study = obd_study(cycle, sc.vp, sc.assembly, sc.bp, cfg,
                          sc.calibration.energy_scale, sc.rule.regen_current_limit_a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, m = study.trajectory_with.size - 1, cfg.n_states
    assert (n, m, len(cfg.decisions)) == (414, 2501, 4)
    assert peak < 2 * n * m + BLOCK_CELLS * PAIRED_BYTES_PER_CELL + OBD_STUDY_MARGIN


def test_solve_takes_only_its_own_column(scenario_dir):
    # handed the OBD-on column, or its own config's column on another
    # demand, solve sweeps the OBD-off problem itself and returns its policy
    sc = load_scenario(scenario_dir / "obd_single_lap.ini")
    d = build_demand(sc.cycle, sc.vp, sc.assembly.motor_map, sc.assembly.drivetrain,
                     sc.bp, sc.calibration.energy_scale, sc.dp.dt_s,
                     sc.rule.regen_current_limit_a)
    off, on = (replace(sc.dp, obd_enabled=obd) for obd in (False, True))
    twin = DemandProfile(d.d_pct, d.dt_s, d.distance_km)
    others = [sweep_columns(d, [off, on], keep_costs=False)[1], sweep_columns(twin, [off])[0]]
    policy = solve(d, off, swept=others)
    assert policy.cfg == off and policy.demand is d
    assert all(policy is not p for p in others)
    alone = reachable(sweep_columns(d, [off])[0])
    assert same_bits(policy.cost_to_go, alone.cost_to_go)
    assert same_bits(policy.decision_idx, alone.decision_idx)
    assert round(policy.optimal_cost(14.0), 6) == 21.329727
    assert round(others[0].optimal_cost(14.0), 6) == 21.340501


@pytest.mark.parametrize("keep_costs", [True, False])
def test_consecutive_solves_share_no_memory(decisions, keep_costs):
    # two solves in turn, and the two columns of one sweep (OBD off and on):
    # no table of one shares memory with a table of the other
    d = DemandProfile(np.random.default_rng(1).uniform(-0.3, 0.5, 21), 10.0, 1.0)
    cfgs = [DpConfig(decisions=decisions, grid_step=0.002, obd_enabled=obd,
                     terminal_rule=TerminalRule.at(14.0)) for obd in (False, True)]
    for sweeps in ([sweep_columns(d, [cfg], keep_costs=keep_costs)[0] for cfg in cfgs],
                   sweep_columns(d, cfgs, keep_costs=keep_costs)):
        tables = [(p.cost_to_go, p.decision_idx) for p in sweeps]
        for a in tables[0]:
            for b in tables[1]:
                assert not np.shares_memory(a, b)
        for (cost, idx), cfg in zip(tables, cfgs):
            expect_cost, expect_idx = reference_sweep(d, cfg)
            if not keep_costs:
                expect_cost = expect_cost[:1]
            assert np.array_equal(cost, expect_cost) and np.array_equal(idx, expect_idx)


@pytest.mark.parametrize("keep_costs", [True, False])
def test_policy_tables_take_nine_bytes_per_cell(decisions, keep_costs):
    # a float64 cost-to-go and one byte per decision cell for four decisions;
    # without the cost table, the stage-0 row alone
    cfg = DpConfig(decisions=decisions, grid_step=0.002)
    n, m = 7, cfg.n_states
    policy = solve(DemandProfile(np.full(n, 0.1), 10.0, 1.0),
                   replace(cfg, terminal_rule=TerminalRule.at(12.0)),
                   keep_costs=keep_costs)
    assert len(decisions) == 4
    assert policy.decision_idx.dtype == np.uint8
    rows = n + 1 if keep_costs else 1
    assert policy.cost_to_go.nbytes + policy.decision_idx.nbytes == rows * m * 8 + n * m


class TestInterpShapes:
    @pytest.fixture()
    def values(self):
        # an infinite band at the bottom, one infinite node inside, and a
        # finite slope elsewhere, on the 0.5-step grid 12..17
        v = np.linspace(3.0, 0.0, 11)
        v[:3] = np.inf
        v[6] = np.inf
        return v

    @staticmethod
    def points(values):
        nodes = 12.0 + 0.5 * np.arange(values.size)
        return np.concatenate([nodes, nodes - 1e-10, nodes + 1e-10,
                               nodes[:-1] + 0.25, [10.0, 11.0, 11.9, 17.1, 18.0]])

    def test_scalar_gives_0d(self, values):
        for x in self.points(values):
            out = interp_inf(values, float(x), 12.0, 0.5)
            assert isinstance(out, np.ndarray) and out.shape == ()
            assert float(out) == float(reference_interp_inf(values, float(x), 12.0, 0.5))

    @pytest.mark.parametrize("shape", [(-1,), (2, -1), (-1, 1)])
    def test_arrays_keep_shape_and_values(self, values, shape):
        x = self.points(values).reshape(shape)
        out = interp_inf(values, x, 12.0, 0.5)
        assert out.shape == x.shape
        assert np.array_equal(out, reference_interp_inf(values, x, 12.0, 0.5))

    def test_split_on_a_block(self, values):
        # the (stages x decisions x states) block the backward sweep indexes
        x = self.points(values).reshape(2, 4, -1)
        index = interp_index(x, 12.0, 0.5, values.size)
        assert all(a.shape == x.shape for a in index)
        out = interp_apply(values, *index)
        assert out.shape == x.shape
        assert np.array_equal(out, reference_interp_inf(values, x, 12.0, 0.5))

    def test_split_on_a_scalar(self, values):
        for x in self.points(values):
            index = interp_index(float(x), 12.0, 0.5, values.size)
            assert all(a.shape == () for a in index)
            out = interp_apply(values, *index)
            assert float(out) == float(reference_interp_inf(values, float(x), 12.0, 0.5))

    def test_input_untouched(self, values):
        x = self.points(values)
        before = x.copy()
        interp_inf(values, x, 12.0, 0.5)
        assert np.array_equal(x, before)


@st.composite
def rows_with_infinite_runs(draw):
    """A cost row in [0, inf] with infinite runs: a prefix, a suffix,
    single interior nodes, all nodes, all nodes but one, or any nodes."""
    m = draw(st.integers(2, 12))
    finite = st.floats(min_value=0.0, allow_infinity=False)
    values = np.array(draw(st.lists(finite, min_size=m, max_size=m)))
    nodes = np.arange(m)
    run = draw(st.integers(1, m))
    kind = draw(st.sampled_from(["prefix", "suffix", "interior", "all", "one finite", "any"]))
    if kind == "prefix":
        values[nodes < run] = np.inf
    elif kind == "suffix":
        values[nodes >= m - run] = np.inf
    elif kind == "interior":
        picked = draw(st.lists(st.integers(0, m - 1), max_size=3))
        values[[i for i in picked if 0 < i < m - 1]] = np.inf
    elif kind == "all":
        values[:] = np.inf
    elif kind == "one finite":
        values[nodes != run - 1] = np.inf
    else:
        values[draw(st.lists(st.booleans(), min_size=m, max_size=m))] = np.inf
    return values


class TestInterpMatchesReference:
    @given(values=rows_with_infinite_runs(), step=st.sampled_from([0.002, 0.01, 0.5]),
           fractions=st.lists(st.floats(-0.5, 1.5), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit_and_never_nan(self, values, step, fractions):
        # points on nodes, 1e-10 either side of them (a snap at step 0.5, an
        # unsnapped point at 0.002), at cell midpoints, outside the grid, and
        # anywhere from half a grid below it to half a grid above it
        lo, m = 12.0, values.size
        nodes = lo + step * np.arange(m)
        x = np.concatenate([nodes, nodes - 1e-10, nodes + 1e-10, nodes[:-1] + step / 2,
                            [lo - step, nodes[-1] + step / 3],
                            lo + (m - 1) * step * np.asarray(fractions)])
        expect = reference_interp_inf(values, x, lo, step)
        for out in (interp_inf(values, x, lo, step),
                    interp_apply(values, *interp_index(x, lo, step, m))):
            assert out.dtype == expect.dtype and out.tobytes() == expect.tobytes()
            assert not np.isnan(out).any()


# References: the policy rollout and the thermostat replay as first written,
# two separate per-interval loops, each with its own trajectory, fuel and
# count bookkeeping, and the replay over a two-entry (null, charge) table.
# Both now run through one forward pass, which must agree bit for bit.

def reference_rollout(policy, d, cfg, initial_soc):
    if d.dt_s != cfg.dt_s:
        raise ValueError(
            f"demand intervals of {d.dt_s:g} s do not match the decision "
            f"interval dt_s={cfg.dt_s:g} s")
    if not np.isfinite(policy.optimal_cost(initial_soc)):
        raise InfeasibleProblemError(
            f"initial SOC {initial_soc:.4f}% has no feasible path")
    grid = policy.grid
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    n = d.n_intervals
    traj = np.empty(n + 1)
    chosen = np.empty(n, dtype=np.int32)
    soc = float(initial_soc)
    traj[0] = soc
    fuel_arr = cfg.fuel_array()
    fuel = 0.0
    nulls = 0
    for k in range(n):
        i = int(round((soc - grid[0]) / step))
        i = min(max(i, 0), grid.size - 1)
        a = int(policy.decision_idx[k, i])
        chosen[k] = a
        delta = cfg.decisions[a].delta_soc
        if delta == 0.0:
            nulls += 1
        else:
            fuel += fuel_arr[a]
        soc = float(cs_step(cfg, soc, d.d_pct[k], delta)[0])
        breach = max(cfg.soc_min - soc, soc - cfg.soc_max)
        if breach > cfg.grid_step + 1e-12:
            raise ToleranceBreachError(
                f"interval {k}: SOC {soc:.4f}% leaves [{cfg.soc_min:g}, "
                f"{cfg.soc_max:g}] by {breach:.4f}% (> grid step {cfg.grid_step:g})")
        traj[k + 1] = soc
    ec = fuel * 1000.0 / d.distance_km if d.distance_km > 0 else 0.0
    return dict(soc_trajectory=traj, fuel_kwh=fuel, cs_ec_wh_per_km=ec,
                decision_indices=chosen, null_intervals=nulls)


def reference_replay(d, cfg, initial_soc, trigger_soc, high_soc):
    deltas = cfg.delta_array()
    fuels = cfg.fuel_array()
    decision_idx = int(np.argmax(deltas))
    if deltas[decision_idx] <= 0:
        raise ValueError("the rule decision must charge")
    delta = float(deltas[decision_idx])
    fuel_per_interval = float(fuels[decision_idx])
    null_or_charge = np.asarray([0.0, delta])
    soc = float(initial_soc)
    traj = np.empty(d.n_intervals + 1)
    traj[0] = soc
    charging = np.zeros(d.n_intervals, dtype=bool)
    on = False
    fuel = 0.0
    n_on = 0
    feasible = True
    for k in range(d.n_intervals):
        if on and soc >= high_soc:
            on = False
        elif not on and soc <= trigger_soc:
            on = True
        succ, gate_ok, ok = cs_step(cfg, soc, d.d_pct[k], null_or_charge)
        a = 1 if on and gate_ok[1] else 0
        if a:
            fuel += fuel_per_interval
            n_on += 1
        charging[k] = a
        soc = float(succ[a])
        feasible = feasible and bool(ok[a])
        traj[k + 1] = soc
    ec = fuel * 1000.0 / d.distance_km if d.distance_km > 0 else 0.0
    return dict(fuel_kwh=fuel, cs_ec_wh_per_km=ec, soc_trajectory=traj,
                on_intervals=n_on, feasible=feasible, final_soc=soc,
                charging=charging)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, InfeasibleProblemError, ToleranceBreachError) as exc:
        return (type(exc), str(exc))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_rollouts_equal(policy, initial_soc):
    d, cfg = policy.demand, policy.cfg
    expect = outcome(reference_rollout, policy, d, cfg, initial_soc)
    out = outcome(rollout, policy, initial_soc)
    if isinstance(expect, tuple):
        assert out == expect
        return
    assert not isinstance(out, tuple), out
    for key in ("soc_trajectory", "decision_indices", "fuel_kwh", "cs_ec_wh_per_km"):
        assert same_bits(getattr(out, key), expect[key]), key
    assert out.null_intervals == expect["null_intervals"]
    traj, chosen = expect["soc_trajectory"], expect["decision_indices"]
    assert out.feasible is all(
        bool(cs_step(cfg, traj[k], d.d_pct[k], cfg.decisions[a].delta_soc)[2])
        for k, a in enumerate(chosen))


def assert_replays_equal(d, cfg, initial_soc, trigger_soc, high_soc):
    args = (d, cfg, initial_soc, trigger_soc, high_soc)
    expect = outcome(reference_replay, *args)
    out = outcome(evaluate_rule_on_demand, *args)
    if isinstance(expect, tuple):
        assert out == expect
        return
    assert not isinstance(out, tuple), out
    for key in ("soc_trajectory", "fuel_kwh", "cs_ec_wh_per_km", "final_soc"):
        assert same_bits(getattr(out, key), expect[key]), key
    assert d.n_intervals - out.null_intervals == expect["on_intervals"]
    assert out.feasible is expect["feasible"]
    deltas = cfg.delta_array()
    charge = int(np.argmax(deltas))
    null = int(np.flatnonzero(deltas == 0.0)[0])
    assert same_bits(out.decision_indices,
                     np.where(expect["charging"], charge, null).astype(np.int32))


@st.composite
def forward_instances(draw):
    """A sweep instance with its policy, a demand to roll it out on (the
    solved one, or a heavier one that breaches the window), an off-grid
    initial SOC inside or outside the window, and thermostat thresholds."""
    d, cfg = draw(sweep_instances())
    swept = sweep_columns(d, [cfg])[0]
    scale = draw(st.sampled_from([1.0, 1.0, 3.0, -2.0]))
    replay = DemandProfile(d.d_pct * scale, d.dt_s, draw(st.sampled_from([0.0, 1.0, 2.7])))
    policy = DpPolicy(cfg, replay, swept.cost_to_go, swept.decision_idx)
    finite = np.flatnonzero(np.isfinite(policy.cost_to_go[0])).tolist()
    if finite and draw(st.integers(0, 3)):  # mostly near a node the policy can start from
        soc = float(policy.grid[draw(st.sampled_from(finite))])
        soc += draw(st.floats(-0.49, 0.49)) * cfg.grid_step
    else:
        soc = draw(st.one_of(st.floats(11.5, 17.5), st.sampled_from([12.0, 14.0, 17.0])))
    trigger = draw(st.floats(12.0, 17.0))
    high = draw(st.one_of(st.floats(trigger, 17.5), st.just(17.0)))
    return policy, soc, trigger, high


class TestForwardMatchesReference:
    @given(inst=forward_instances())
    @settings(max_examples=200, deadline=None)
    def test_rollout_random_instances(self, inst):
        policy, soc, _, _ = inst
        assert_rollouts_equal(policy, soc)

    @given(inst=forward_instances())
    @settings(max_examples=200, deadline=None)
    def test_replay_random_instances(self, inst):
        policy, soc, trigger, high = inst
        assert_replays_equal(policy.demand, policy.cfg, soc, trigger, high)

    def test_rollout_breach_and_interval_errors(self, decisions):
        cfg = DpConfig(decisions=decisions, terminal_rule=TerminalRule.at(12.0))
        policy = solve(one_interval(0.0), cfg)
        for d, soc in ((one_interval(2.0), 12.5), (one_interval(-3.0), 16.9)):
            assert_rollouts_equal(replace(policy, demand=d), soc)
        # on a 0.5 grid a 1.0 drain from 12.5 leaves the window by exactly one step
        coarse = solve(one_interval(0.0), replace(cfg, grid_step=0.5))
        for drain in (1.0, 1.0 + 1e-13, 1.01):
            assert_rollouts_equal(replace(coarse, demand=one_interval(drain)), 12.5)
        unreachable = DpConfig(decisions=decisions, terminal_rule=TerminalRule.at(14.0))
        assert_rollouts_equal(solve(one_interval(0.8), unreachable), 14.0)

    @pytest.mark.parametrize("name", ["single_lap.ini", "three_lap.ini",
                                      "obd_single_lap.ini"])
    @pytest.mark.parametrize("grid_step", [None, 0.002])
    @pytest.mark.parametrize("obd", [False, True])
    def test_shipped_fixtures(self, scenario_dir, name, grid_step, obd):
        sc = load_scenario(scenario_dir / name)
        run = run_dp_hybrid(sc)
        cfg = replace(run.policy.cfg, grid_step=grid_step or run.policy.cfg.grid_step,
                      obd_enabled=obd)
        start = cfg.initial_soc
        assert_rollouts_equal(solve(run.policy.demand, cfg), start)
        assert_replays_equal(run.policy.demand, cfg, start, sc.rule.cs_trigger,
                             sc.rule.soc_high)
