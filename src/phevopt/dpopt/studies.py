"""Comparison studies built on the CS solver.

``obd_study`` quantifies the energy cost of on-board-diagnostics events
(the gen-set spinning without producing charge in every non-generating
interval). Its OBD-off and OBD-on problems differ only in the null
decision's successors, so one backward sweep solves both, as two columns
that share every charging transition and the config's terminal rule, and
``solve`` checks each column's policy in turn. ``evaluate_rule_on_demand``
replays the thermostat rule on a demand profile through the rollout's own
forward pass, as one more decision rule over the DP's decision table, so
the rule trajectory is a valid decision sequence and the DP cost its lower
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cycle import DriveCycle
from ..dynamics import VehicleParams
from ..ems import thermostat_state
from ..powertrain import BatteryParams, PowertrainAssembly
from .problem import DemandProfile, DpConfig, build_demand, cs_moves
from .solver import RolloutResult, forward, rollout, solve, sweep_columns


@dataclass(frozen=True)
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
              bp: BatteryParams, cfg: DpConfig, calibration: float,
              regen_current_limit_a: float) -> ObdStudy:
    """Solve the CS problem over one cycle with OBD penalties disabled and
    enabled, in one sweep of two columns, and roll out both policies from
    ``cfg.initial_soc``."""
    if cfg.initial_soc is None:
        raise ValueError("obd_study needs cfg.initial_soc")
    demand = build_demand(cycle, vp, assembly.motor_map, assembly.drivetrain, bp,
                          calibration, cfg.dt_s, regen_current_limit_a)
    cfgs = [replace(cfg, obd_enabled=enabled) for enabled in (False, True)]
    swept = sweep_columns(demand, cfgs, keep_costs=False)
    # each branch is checked and rolled out before the next one is checked,
    # as in two separate solves
    off, on = (rollout(solve(demand, c, swept=swept), cfg.initial_soc) for c in cfgs)
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


def evaluate_rule_on_demand(d: DemandProfile, cfg: DpConfig, initial_soc: float,
                            trigger_soc: float, high_soc: float) -> RolloutResult:
    """Replay the CS thermostat rule interval-by-interval on a demand
    profile: gen-set on at or below the trigger, off at or above the window
    top, with a dwell of one interval. Charging uses the largest decision
    of the table. The same gating and curtailment as the DP apply, so the
    resulting sequence is admissible and directly comparable with a DP
    rollout.
    """
    deltas = cfg.delta_array()
    charge = int(np.argmax(deltas))
    if deltas[charge] <= 0:
        raise ValueError("the rule decision must charge")
    null = int(np.flatnonzero(deltas == 0.0)[0])
    delta = float(deltas[charge])  # a Python float, as forward steps on them
    on = False

    def thermostat(k: int, soc: float) -> int:
        nonlocal on
        on = thermostat_state(on, soc, trigger_soc, high_soc)
        # the DP gate forbids charging near the top; it reads no drain
        if on and cs_moves(cfg, soc, delta)[1]:
            return charge
        return null

    return forward(d, cfg, initial_soc, thermostat)
