"""Series plug-in hybrid energy management toolkit.

Drive-cycle handling, road-load dynamics, efficiency-map powertrain
models, a thermostat charge-depleting/charge-sustaining controller, a
dynamic-programming charge-sustaining optimizer, and utility-factor
energy accounting.
"""

__version__ = "0.1.0"

from . import errors
from .accounting import (
    Calibration,
    UfReport,
    ac_from_dc,
    build_uf_report,
    calibration_factor,
    uf_weighted,
)
from .cycle import (
    CycleMetrics,
    DriveCycle,
    compute_metrics,
    load_cycle,
    repeat_cycle,
)
from .dpopt import (
    Decision,
    DemandProfile,
    DpConfig,
    DpPolicy,
    RolloutResult,
    TerminalRule,
    build_demand,
    decision_table,
    evaluate_rule_on_demand,
    obd_study,
    rollout,
    solve,
)
from .dynamics import VehicleParams, accel_series, tractive_force, wheel_power_series
from .ems import (
    EnergyResult,
    RuleConfig,
    SimTrace,
    simulate_rule_based,
    write_trace,
)
from .powertrain import (
    BatteryParams,
    DrivetrainParams,
    EfficiencyMap,
    GenSetPoint,
    PowertrainAssembly,
    check_capability,
    current_from_power,
    load_map,
    map_lookup,
    motor_electrical_power,
    motor_operating_point,
    synthetic_engine_map,
    synthetic_generator_map,
    synthetic_motor_map,
)
from .scenario import Scenario, load_scenario

__all__ = [
    "__version__",
    "errors",
    "Calibration", "UfReport", "ac_from_dc", "build_uf_report",
    "calibration_factor", "uf_weighted",
    "CycleMetrics", "DriveCycle", "compute_metrics", "load_cycle",
    "repeat_cycle",
    "Decision", "DemandProfile", "DpConfig", "DpPolicy", "RolloutResult",
    "TerminalRule", "build_demand", "decision_table",
    "evaluate_rule_on_demand", "obd_study", "rollout", "solve",
    "VehicleParams", "accel_series", "tractive_force", "wheel_power_series",
    "EnergyResult", "RuleConfig", "SimTrace", "simulate_rule_based",
    "write_trace",
    "BatteryParams", "DrivetrainParams", "EfficiencyMap", "GenSetPoint",
    "PowertrainAssembly", "check_capability", "current_from_power", "load_map",
    "map_lookup", "motor_electrical_power", "motor_operating_point",
    "synthetic_engine_map", "synthetic_generator_map", "synthetic_motor_map",
    "Scenario", "load_scenario",
]
