"""Backward-DP solver and forward rollout for the CS problem.

Each stage of the backward sweep evaluates every decision from every grid
state at once, as one (decisions x states) array, and keeps the cheapest
decision per state.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import InfeasibleProblemError, ToleranceBreachError
from .problem import DemandProfile, DpConfig, DpPolicy, cs_step, interp_inf


def _check_interval(d: DemandProfile, cfg: DpConfig) -> None:
    if d.dt_s != cfg.dt_s:
        raise ValueError(
            f"demand intervals of {d.dt_s:g} s do not match the decision "
            f"interval dt_s={cfg.dt_s:g} s")


def backward_sweep(d: DemandProfile, cfg: DpConfig,
                   terminal_threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Backward induction over the SOC grid under the ``cs_step`` rule.

    The terminal cost is 0 at or above the threshold and infinite below;
    inadmissible moves cost infinity. Ties keep the lowest decision index.

    Returns (cost_to_go (N+1, M), decision_idx (N, M)).
    """
    grid = cfg.grid()
    n, m = d.n_intervals, grid.size
    step = (cfg.soc_max - cfg.soc_min) / (m - 1)
    deltas = cfg.delta_array()[:, None]
    fuel = cfg.fuel_array()[:, None]
    states = np.arange(m)
    cost_to_go = np.full((n + 1, m), np.inf)
    decision_idx = np.empty((n, m), dtype=np.int32)
    cost_to_go[n, grid >= terminal_threshold - 1e-12] = 0.0

    for k in range(n - 1, -1, -1):
        succ, _, ok = cs_step(cfg, grid, d.d_pct[k], deltas)
        cost = np.where(
            ok, fuel + interp_inf(cost_to_go[k + 1], succ, cfg.soc_min, step),
            np.inf)
        best = np.argmin(cost, axis=0)
        decision_idx[k] = best
        cost_to_go[k] = cost[best, states]
    return cost_to_go, decision_idx


def solve(d: DemandProfile, cfg: DpConfig) -> DpPolicy:
    """Backward induction over the quantized SOC grid.

    Raises
    ------
    ValueError
        When the demand's interval differs from ``cfg.dt_s``.
    InfeasibleProblemError
        When no admissible decision sequence reaches the terminal set: from
        every grid state when ``cfg.initial_soc`` is unset, or from that
        initial state when it is set. The error names the first interval at
        which the whole grid is unreachable, when one exists.
    """
    _check_interval(d, cfg)
    threshold = cfg.terminal_rule.resolve(cfg)
    cost_to_go, decision_idx = backward_sweep(d, cfg, threshold)
    policy = DpPolicy(cost_to_go=cost_to_go, decision_idx=decision_idx,
                      grid=cfg.grid(), decisions=cfg.decisions,
                      terminal_soc=threshold)

    if cfg.initial_soc is not None:
        unreachable = not np.isfinite(policy.optimal_cost(cfg.initial_soc))
    else:
        unreachable = not np.isfinite(cost_to_go[0]).any()
    if unreachable:
        stage = None
        for k in range(d.n_intervals, -1, -1):
            if not np.isfinite(cost_to_go[k]).any():
                stage = k
                break
        where = (f"interval {stage} blocks every state"
                 if stage is not None else "the designated initial state")
        raise InfeasibleProblemError(
            f"no admissible decision sequence reaches SOC >= {threshold:.4f}%: "
            f"{where}", stage=stage)
    return policy


@dataclass
class RolloutResult:
    """Forward pass of a solved policy from a concrete initial SOC."""

    soc_trajectory: np.ndarray   # (N+1,) interval-boundary SOC %
    fuel_kwh: float
    cs_ec_wh_per_km: float
    decision_indices: np.ndarray  # (N,)
    null_intervals: int           # intervals with the gen-set off

    @property
    def final_soc(self) -> float:
        return float(self.soc_trajectory[-1])


def rollout(policy: DpPolicy, d: DemandProfile, cfg: DpConfig,
            initial_soc: float) -> RolloutResult:
    """Apply the stored policy forward from ``initial_soc`` with exact
    continuous-SOC transitions (nearest-grid decisions at off-grid states).

    Raises
    ------
    ValueError
        When the demand's interval differs from ``cfg.dt_s``.
    InfeasibleProblemError
        If the initial state has no finite cost-to-go.
    ToleranceBreachError
        If any boundary SOC leaves the window by more than one grid step.
    """
    _check_interval(d, cfg)
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
        delta = policy.decisions[a].delta_soc
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
    return RolloutResult(soc_trajectory=traj, fuel_kwh=fuel,
                         cs_ec_wh_per_km=ec, decision_indices=chosen,
                         null_intervals=nulls)


def write_policy(policy: DpPolicy, path) -> None:
    """Export a policy as CSV rows ``k,soc_grid,decision_label,cost_to_go_kwh``."""
    # row loop kept until layerbench/test_bench.py stops mutating its f-string
    buf = io.StringIO()
    buf.write("k,soc_grid,decision_label,cost_to_go_kwh\n")
    for k in range(policy.n_intervals):
        row_cost = policy.cost_to_go[k]
        row_idx = policy.decision_idx[k]
        for i, soc in enumerate(policy.grid):
            cost = row_cost[i]
            cost_txt = f"{cost:.9f}" if np.isfinite(cost) else "inf"
            buf.write(f"{k},{soc:.6f},{policy.decisions[int(row_idx[i])].label},"
                      f"{cost_txt}\n")
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="")
