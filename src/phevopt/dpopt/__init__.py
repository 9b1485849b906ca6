"""Charge-sustaining optimization: a backward-DP policy that carries its own
problem, its rollout, and OBD-cost studies."""

from .problem import (
    DEFAULT_DELTAS,
    Decision,
    DemandProfile,
    DpConfig,
    DpPolicy,
    TerminalRule,
    build_demand,
    decision_table,
    delta_to_electrical_kw,
    max_delta_bound,
)
from .solver import (
    RolloutResult,
    rollout,
    solve,
    write_policy,
)
from .studies import ObdStudy, evaluate_rule_on_demand, obd_study

__all__ = [
    "DEFAULT_DELTAS",
    "Decision",
    "DemandProfile",
    "DpConfig",
    "DpPolicy",
    "ObdStudy",
    "RolloutResult",
    "TerminalRule",
    "build_demand",
    "decision_table",
    "delta_to_electrical_kw",
    "evaluate_rule_on_demand",
    "max_delta_bound",
    "obd_study",
    "rollout",
    "solve",
    "write_policy",
]
