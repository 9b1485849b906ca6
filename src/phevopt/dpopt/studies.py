"""Comparison studies built on the CS solver.

``obd_study`` quantifies the energy cost of on-board-diagnostics events
(the gen-set spinning without producing charge in every non-generating
interval). ``evaluate_rule_on_demand`` replays the thermostat rule on a
demand profile under the DP's own admissibility rules, which makes the
rule trajectory a valid decision sequence and the DP cost its lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cycle import DriveCycle
from ..dynamics import VehicleParams
from ..errors import InfeasibleProblemError
from ..powertrain import BatteryParams, PowertrainAssembly
from .problem import DemandProfile, DpConfig, build_demand, cs_step
from .solver import rollout, solve


@dataclass
class ObdStudy:
    """CS energy consumption with and without OBD events."""

    ec_without_wh_per_km: float
    ec_with_wh_per_km: float
    increase_wh_per_km: float
    increase_pct: float
    event_count: int
    drain_per_event_pct: float
    trajectory_without: np.ndarray
    trajectory_with: np.ndarray


def obd_study(cycle: DriveCycle, vp: VehicleParams, assembly: PowertrainAssembly,
              bp: BatteryParams, cfg: DpConfig, calibration: float = 1.0,
              regen_current_limit_a: float | None = None) -> ObdStudy:
    """Solve and roll out the CS problem twice over one cycle, with OBD
    penalties disabled and enabled, from ``cfg.initial_soc``."""
    if cfg.initial_soc is None:
        raise ValueError("obd_study needs cfg.initial_soc")
    demand = build_demand(cycle, vp, assembly.motor_map, assembly.drivetrain, bp,
                          calibration, cfg.dt_s, regen_current_limit_a)
    results = {}
    for enabled in (False, True):
        branch_cfg = replace(cfg, obd_enabled=enabled)
        policy = solve(demand, branch_cfg)
        results[enabled] = rollout(policy, demand, branch_cfg, cfg.initial_soc)
    off, on = results[False], results[True]
    increase = on.cs_ec_wh_per_km - off.cs_ec_wh_per_km
    pct = increase / off.cs_ec_wh_per_km * 100.0 if off.cs_ec_wh_per_km > 0 else 0.0
    return ObdStudy(
        ec_without_wh_per_km=off.cs_ec_wh_per_km,
        ec_with_wh_per_km=on.cs_ec_wh_per_km,
        increase_wh_per_km=increase,
        increase_pct=pct,
        event_count=on.null_intervals,
        drain_per_event_pct=cfg.obd_drain_pct,
        trajectory_without=off.soc_trajectory,
        trajectory_with=on.soc_trajectory,
    )


@dataclass
class RuleOnDemandResult:
    """Thermostat rule replayed on a demand profile."""

    fuel_kwh: float
    cs_ec_wh_per_km: float
    soc_trajectory: np.ndarray
    on_intervals: int
    feasible: bool  # False when a move left the SOC window
    final_soc: float


def evaluate_rule_on_demand(d: DemandProfile, cfg: DpConfig, initial_soc: float,
                            trigger_soc: float, high_soc: float,
                            decision_idx: int | None = None,
                            min_dwell_intervals: int = 1) -> RuleOnDemandResult:
    """Replay the CS thermostat rule interval-by-interval on a demand
    profile: gen-set on at or below the trigger, off at or above the window
    top, holding each state for the dwell. Charging uses one fixed decision
    from the table (the largest by default). The same gating and
    curtailment as the DP apply, so the resulting sequence is admissible
    and directly comparable with a DP rollout.
    """
    deltas = cfg.delta_array()
    fuels = cfg.fuel_array()
    if decision_idx is None:
        decision_idx = int(np.argmax(deltas))
    if deltas[decision_idx] <= 0:
        raise ValueError("the rule decision must charge")
    delta = float(deltas[decision_idx])
    fuel_per_interval = float(fuels[decision_idx])
    null_or_charge = np.asarray([0.0, delta])

    soc = float(initial_soc)
    traj = np.empty(d.n_intervals + 1)
    traj[0] = soc
    on = False
    since_change = min_dwell_intervals  # the first transition is free
    fuel = 0.0
    n_on = 0
    feasible = True
    for k in range(d.n_intervals):
        want_on = on
        if on and soc >= high_soc:
            want_on = False
        elif not on and soc <= trigger_soc:
            want_on = True
        if want_on != on and since_change >= min_dwell_intervals:
            on = want_on
            since_change = 0
        since_change += 1

        succ, gate_ok, ok = cs_step(cfg, soc, d.d_pct[k], null_or_charge)
        a = 1 if on and gate_ok[1] else 0  # the DP gate forbids charging near the top
        if a:
            fuel += fuel_per_interval
            n_on += 1
        soc = float(succ[a])
        feasible = feasible and bool(ok[a])
        traj[k + 1] = soc
    ec = fuel * 1000.0 / d.distance_km if d.distance_km > 0 else 0.0
    return RuleOnDemandResult(fuel_kwh=fuel, cs_ec_wh_per_km=ec,
                              soc_trajectory=traj, on_intervals=n_on,
                              feasible=feasible, final_soc=soc)
