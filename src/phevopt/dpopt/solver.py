"""Backward-DP solver and the forward pass for the CS problem.

Each stage of the backward sweep evaluates every decision from every grid
state at once, as one (decisions x states) array, and keeps the cheapest
decision per state. The sweep carries columns: problems on one demand,
grid, decision table and terminal rule that differ at most in
``obd_enabled``; the sweep reads the terminal threshold from their configs.
Their decisions are rows of one shared set. Columns of one OBD flag read the
decisions' own rows; an OBD-off and an OBD-on column share rows laid out as
``[null rows, OBD off | charging rows | null rows, OBD on]``, so each reads
one contiguous slice of them and the charging rows serve both. What reads
no drain (``cs_moves``: the moved SOC, the charge gate and the null mask,
each (rows x states)) is computed once per solve. What reads the drain but
not the next stage's cost-to-go (the transitions, their interpolation
indices and the stage costs) is computed once per block of stages over the
shared rows, sized by a fixed cell budget, ``BLOCK_CELLS``. Each column
then runs its own stage loop and tie pick over its slice. A stage only
reads its indices against the column's next cost-to-go row, adds its stage
cost and takes the minimum. The tie pick, once the block's cost-to-go is
known, is one comparison of the block's costs with it, then byte
arithmetic per decision, read at its row of the slice, into a table of the
narrowest unsigned type (``uint8`` up to 256 decisions). The blocks share
one workspace, allocated once per sweep: each block writes its
transitions, indices, weights, stage costs and tie tables into the
workspace's leading slices, so that a block allocates only small
temporaries and a cold process does not map and fault in fresh block
arrays again and again. A column's stages write their cost-to-go rows into
its (N+1) x M table, or, in a solve whose policy is never exported
(``keep_costs=False``), into a ring of one block's rows plus one, which
returns the stage-0 row, the only one a rollout reads. ``solve`` checks
with ``reachable`` the policy swept for its problem: one column of a sweep
already run, or its problem swept as a lone column.
``forward`` is the one per-interval loop over a demand: the policy rollout
and the thermostat replay are two decision rules passed to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .._csv import write_csv
from ..errors import InfeasibleProblemError, ToleranceBreachError
from .problem import (
    MAX_CELLS,
    DemandProfile,
    DpConfig,
    DpPolicy,
    cs_drain,
    cs_moves,
    cs_step,
    interp_apply,
    interp_index,
)

#: Cells (stages x decisions x states) of one block of the backward sweep:
#: 10 stages at 501 states and 4 decisions, 2 at 2501. The sweep's workspace
#: holds, per cell, the successor (which then becomes the weight), two int64
#: indices and a stage cost (32 bytes), and one byte for the admissible
#: moves (which then marks the inadmissible ones and at last holds the tie
#: table). The moves of ``cs_moves`` (9 bytes per decision and state) live
#: for the whole sweep. With them, the one-byte temporaries of each block's
#: calls and the (decisions x states) ones of each stage, the sweep's
#: working memory measures 47.9 bytes per cell at 2501 states, with or
#: without OBD; a process's first sweep adds about 3 kB (48.1), the caches
#: numpy fills on its first calls. Without the cost table, the ring of B + 1
#: cost rows for a block of B stages is working memory too:
#: 8 (B + 1) / (B x decisions) bytes per cell, 3 at 2501 states and 4
#: decisions. A sweep of an OBD-off and an OBD-on column keeps the stages
#: per block, so its workspace holds one more row per null decision (5 rows
#: for 4 decisions); the first column adds a copy of its stage costs (8
#: bytes per cell) and each column its table or ring. Without the cost
#: tables its working memory measures 68.9 bytes per cell at 2501 states,
#: against 49.9 for one column.
#: Blocks of 2 ** 15 and 40960 cells swept 1-2% and 1-4% faster (in process,
#: 2-vCPU VM), but moved a whole CLI run by -2.3% to +1.9% and raised its
#: peak RSS by up to 0.6 MB (1.4%).
BLOCK_CELLS = 20_480


def sweep_columns(d: DemandProfile, cfgs: Sequence[DpConfig], *,
                  keep_costs: bool = True) -> list[DpPolicy]:
    """Backward induction over the SOC grid under the ``cs_moves`` and
    ``cs_drain`` rule, for columns of problems that share one demand, one
    grid, one decision table and one terminal rule and differ at most in
    ``obd_enabled``.

    The terminal cost is 0 at or above the threshold the columns' terminal
    rule resolves to and infinite below; inadmissible moves cost infinity.
    Each state keeps the lowest decision index whose cost equals the stage
    minimum, and index 0 where every decision is inadmissible. A block picks
    it from one ``uint8`` table of ties: counting down from the last
    decision, each decision before the first tie takes one off.

    The columns share one set of rows, and each reads one contiguous slice
    of it, a row per decision. Columns of one OBD flag read the decisions'
    own rows in their order. An OBD-off and an OBD-on column share rows
    laid out as ``[null rows, OBD off | charging rows | null rows, OBD
    on]``, and only the OBD-on null rows pay the OBD drain. The transitions,
    their indices and the stage costs are computed once per block over the
    whole set. Each column runs its own stage loop and tie pick, which reads
    each decision at its row of the column's slice. The column swept last
    adds into the shared stage costs in place; the others add into a copy
    of them.

    Returns, per column, its config's ``DpPolicy`` on ``d``, with read-only
    tables: ``decision_idx`` (N, M) in ``np.min_scalar_type`` of the last
    decision index, and the float64 ``cost_to_go`` of every stage, (N+1, M),
    or with ``keep_costs=False`` of stage 0 alone, (1, M). Both modes, and a
    column swept alone or beside another, give the same bits. Raises
    ``ValueError``, before any table is built, when the columns' tables
    would hold more than ``MAX_CELLS`` cells.
    """
    rule = max(cfgs, key=lambda c: c.obd_enabled)  # the OBD drain, if a column pays it
    if any(replace(c, obd_enabled=rule.obd_enabled) != rule for c in cfgs if c is not rule):
        raise ValueError("sweep columns may differ only in obd_enabled")
    n, m = d.n_intervals, rule.n_states
    if len(cfgs) * n * m > MAX_CELLS:  # before any table is built
        raise ValueError(f"a sweep of {len(cfgs)} x {n} x {m} (columns x intervals x "
                         f"states) table cells exceeds the limit of {MAX_CELLS}")
    grid = rule.grid()
    deltas, fuel = rule.delta_array(), rule.fuel_array()
    width = deltas.size  # a column reads one row per decision
    last = width - 1
    null = deltas == 0.0
    order = np.arange(width)  # columns of one OBD flag read every row
    if len({c.obd_enabled for c in cfgs}) == 2:
        nulls = np.flatnonzero(null)
        order = np.concatenate([nulls, np.flatnonzero(~null), nulls])
    # each column's first row, the OBD-on column's being the last width rows,
    # and the row of each decision from there
    firsts = [order.size - width if c.obd_enabled else 0 for c in cfgs]
    positions = [np.argsort(order[s:s + width]).tolist() for s in firsts]
    drained = null[order, None]  # the null rows that pay the OBD drain
    drained[:order.size - width] = False

    per_block = max(1, BLOCK_CELLS // width // m)
    threshold = rule.terminal_rule.resolve(rule)
    terminal = np.where(grid >= threshold - 1e-12, 0.0, np.inf)
    tables = [np.empty((n, m), dtype=np.min_scalar_type(last)) for _ in cfgs]
    # with the table, the stages fill rows 0..n-1 below the terminal row n;
    # without it, a ring of one block's rows: between blocks, row 0 holds the
    # cost-to-go of the stage that ends the next block, whose row nb it becomes
    stores = [np.empty((n + 1 if keep_costs else min(per_block, n) + 1, m)) for _ in cfgs]
    for store in stores:
        store[n if keep_costs else 0] = terminal

    moved, gate, _ = cs_moves(rule, grid, deltas[order, None])  # the same in every block
    fuel = fuel[order, None]
    # the workspace (see BLOCK_CELLS): w holds the successors, then the
    # weights; ok the admissible moves, then the inadmissible ones, then the
    # tie tables; spare the stage costs of every column but the last
    shape = (min(per_block, n), order.size, m)
    workspace = (np.empty(shape), np.empty(shape, np.int64), np.empty(shape, np.int64),
                 np.empty(shape), np.empty(shape, bool),
                 np.empty((shape[0] if len(cfgs) > 1 else 0, width, m)))
    w, js, jds, costs, ok, spare = workspace
    # each column's slice of the stage costs, indices, weights and tie table
    views = [tuple(a[:, s:s + width] for a in (costs, js, jds, w, ok)) for s in firsts]
    for stop in range(n, 0, -per_block):
        start = max(stop - per_block, 0)
        nb = stop - start
        if nb < len(w):  # the last block, at the start of the demand
            w, js, jds, costs, ok, spare = (a[:nb] for a in workspace)
            views = [tuple(a[:nb] for a in view) for view in views]
        cs_drain(rule, moved, gate, drained, d.d_pct[start:stop, None, None], out=(w, ok))
        interp_index(w, rule.soc_min, rule.grid_spacing, m, out=(js, jds, w))
        # inadmissible moves cost inf, and x + inf == inf for every x in [0, inf]
        np.copyto(costs, fuel)
        np.copyto(costs, np.inf, where=np.logical_not(ok, out=ok))
        for c, ((cc, jc, jdc, wc, tie), position, store, table) in enumerate(
                zip(views, positions, stores, tables)):
            # the column swept last adds into the shared stage costs in
            # place; the others into a copy of their own
            sums = cc
            if c < len(cfgs) - 1:
                sums = spare
                np.copyto(sums, cc)
            # rows[b] is the cost-to-go of stage start + b, for b in 0..nb
            if keep_costs:
                rows = store[start:stop + 1]
            else:
                rows = store[:nb + 1]
                rows[nb] = rows[0]
            for b in range(nb - 1, -1, -1):
                cost = sums[b]
                cost += interp_apply(rows[b + 1], jc[b], jdc[b], wc[b])
                np.minimum.reduce(cost, axis=0, out=rows[b])
            # all-inf states tie at 0, as inf == inf
            tied = np.equal(sums, rows[:nb, None], out=tie).view(np.uint8)
            best = table[start:stop]
            best[:] = last
            seen = np.zeros(best.shape, np.uint8)
            for a in range(last):
                seen |= tied[:, position[a]]
                best -= seen
    if not keep_costs:  # the stage-0 rows, which free the rings
        stores = [store[:1].copy() for store in stores]
    for a in (*stores, *tables):
        a.setflags(write=False)
    return [DpPolicy(c, d, store, table) for c, store, table in zip(cfgs, stores, tables)]


def reachable(policy: DpPolicy) -> DpPolicy:
    """Return ``policy`` when an admissible decision sequence reaches its
    terminal set: from some grid state when ``cfg.initial_soc`` is unset,
    or from that initial state when it is set.

    Raises
    ------
    InfeasibleProblemError
        When none does. The error names the first interval at which the
        whole grid is unreachable, when one exists, or says that no grid
        state meets the terminal SOC. A policy that holds the stage-0 row
        alone is swept again to name it.
    """
    cfg, d, cost_to_go = policy.cfg, policy.demand, policy.cost_to_go
    if cfg.initial_soc is not None:
        unreachable = not np.isfinite(policy.optimal_cost(cfg.initial_soc))
    else:
        unreachable = not np.isfinite(cost_to_go[0]).any()
    if unreachable:
        if len(cost_to_go) == 1:  # naming the stage reads every row: sweep again
            cost_to_go = sweep_columns(d, (cfg,))[0].cost_to_go
        stage = None
        for k in range(d.n_intervals, -1, -1):
            if not np.isfinite(cost_to_go[k]).any():
                stage = k
                break
        if stage == d.n_intervals:
            where = (f"no grid state meets the terminal SOC (the grid ends "
                     f"at {cfg.soc_max:g}%)")
        elif stage is not None:
            where = f"interval {stage} blocks every state"
        else:
            where = "the designated initial state"
        threshold = cfg.terminal_rule.resolve(cfg)
        raise InfeasibleProblemError(
            f"no admissible decision sequence reaches SOC >= {threshold:.4f}%: "
            f"{where}", stage=stage)
    return policy


def solve(d: DemandProfile, cfg: DpConfig, *, keep_costs: bool = True,
          swept: Sequence[DpPolicy] = ()) -> DpPolicy:
    """Backward induction over the quantized SOC grid, checked by
    ``reachable``. The policy checked is the one in ``swept``, the policies
    of a ``sweep_columns`` already run, that was swept for ``d`` and
    ``cfg``; without one, ``cfg`` is swept as a lone column. The policy's
    tables are read-only. With ``keep_costs=False`` a lone column's
    cost-to-go holds the stage-0 row alone: enough for ``rollout`` and
    ``optimal_cost``, not for ``write_policy``. Raises ``ValueError`` when
    the demand's interval differs from ``cfg.dt_s``, and
    ``InfeasibleProblemError`` as ``reachable`` does."""
    for policy in swept:
        if policy.demand is d and policy.cfg == cfg:
            return reachable(policy)
    return reachable(sweep_columns(d, (cfg,), keep_costs=keep_costs)[0])


@dataclass(frozen=True)
class RolloutResult:
    """One forward pass over a demand from a concrete initial SOC. Its
    arrays are read-only."""

    soc_trajectory: np.ndarray   # (N+1,) interval-boundary SOC %
    fuel_kwh: float
    cs_ec_wh_per_km: float
    decision_indices: np.ndarray  # (N,) index into the config's decisions
    null_intervals: int           # intervals with the gen-set off
    feasible: bool                # False when a move was inadmissible

    @property
    def final_soc(self) -> float:
        return float(self.soc_trajectory[-1])


def forward(d: DemandProfile, cfg: DpConfig, initial_soc: float,
            pick: Callable[[int, float], int]) -> RolloutResult:
    """Run a decision rule forward over a demand with exact continuous-SOC
    ``cs_step`` transitions, stepped on Python floats. ``pick(k, soc)``
    returns the index into ``cfg.decisions`` taken in interval ``k`` from
    boundary SOC ``soc``. Raises ``ValueError`` for a NaN initial SOC."""
    soc = float(initial_soc)
    if math.isnan(soc):
        raise ValueError("initial SOC must not be NaN")
    deltas = cfg.delta_array().tolist()
    fuels = cfg.fuel_array().tolist()
    traj = [soc]
    chosen = []
    fuel = 0.0
    feasible = True
    for k, d_k in enumerate(d.d_pct.tolist()):
        a = pick(k, soc)
        soc, _, ok = cs_step(cfg, soc, d_k, deltas[a])
        fuel += fuels[a]  # the null decision adds 0.0, which moves no bit
        feasible = feasible and ok
        chosen.append(a)
        traj.append(soc)
    ec = fuel * 1000.0 / d.distance_km if d.distance_km > 0 else 0.0
    chosen = np.array(chosen, dtype=np.int32)
    nulls = int(np.count_nonzero(cfg.delta_array()[chosen] == 0.0))
    traj = np.array(traj)
    traj.setflags(write=False)
    chosen.setflags(write=False)
    return RolloutResult(soc_trajectory=traj, fuel_kwh=fuel,
                         cs_ec_wh_per_km=ec, decision_indices=chosen,
                         null_intervals=nulls, feasible=feasible)


def rollout(policy: DpPolicy, initial_soc: float) -> RolloutResult:
    """Apply the stored policy over its own demand from ``initial_soc`` with
    exact continuous-SOC transitions (nearest-grid decisions off the grid).

    Raises
    ------
    ValueError
        If the initial SOC is NaN.
    InfeasibleProblemError
        If the initial state has no finite cost-to-go.
    ToleranceBreachError
        If any boundary SOC leaves the window by more than one grid step.
    """
    if not np.isfinite(policy.optimal_cost(initial_soc)):
        raise InfeasibleProblemError(
            f"initial SOC {initial_soc:.4f}% has no feasible path")
    cfg, table = policy.cfg, policy.decision_idx
    lo, top, step = cfg.soc_min, cfg.n_states - 1, cfg.grid_spacing

    def nearest_node(k: int, soc: float) -> int:
        return table.item(k, min(max(round((soc - lo) / step), 0), top))

    out = forward(policy.demand, cfg, initial_soc, nearest_node)
    soc = out.soc_trajectory[1:]
    breach = np.maximum(cfg.soc_min - soc, soc - cfg.soc_max)
    over = np.flatnonzero(breach > cfg.grid_step + 1e-12)
    if over.size:
        k = int(over[0])
        raise ToleranceBreachError(
            f"interval {k}: SOC {soc[k]:.4f}% leaves [{cfg.soc_min:g}, "
            f"{cfg.soc_max:g}] by {breach[k]:.4f}% (> grid step {cfg.grid_step:g})")
    return out


def write_policy(policy: DpPolicy, path) -> None:
    """Export a policy as CSV rows ``k,soc_grid,decision_label,cost_to_go_kwh``.

    Raises ``ValueError``, and writes no file, when the policy holds only the
    stage-0 cost-to-go row (``solve(..., keep_costs=False)``)."""
    n, m = policy.decision_idx.shape
    if len(policy.cost_to_go) != n + 1:
        raise ValueError("the policy's cost-to-go table was not kept (solved with "
                         "keep_costs=False); policy.csv needs every stage's row")
    labels = np.array([d.label for d in policy.cfg.decisions], dtype=object)
    # the narrowest index type: these two indices live for the whole write
    k = np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)), m)
    j = np.tile(np.arange(m, dtype=np.min_scalar_type(m - 1)), n)
    write_csv(path, ("k", "%d", np.arange(n), k),
              ("soc_grid", "%.6f", policy.grid, j),
              ("decision_label", "%s", labels, policy.decision_idx.ravel()),
              ("cost_to_go_kwh", "%.9f", policy.cost_to_go[:n].ravel()))
