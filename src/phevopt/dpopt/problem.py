"""Problem types for the charge-sustaining optimization.

The CS phase is a finite-horizon problem: the state is SOC, one decision is
taken per interval (default 10 s) from a quantized set of gen-set charge
increments, and the exogenous drain per interval comes from the driving
load. Costs are kWh of fuel.

The transition rule is stated once, in two halves, for one interval or
for a column of intervals at a time: ``cs_moves`` computes what does not
read the drain (the moved SOC ``soc + delta``, the charge gate and the null
mask), and ``cs_drain`` applies one interval's drain to it. ``cs_step`` is
the two composed. The inf-aware interpolation of a cost-to-go comes in two
halves too: ``interp_index`` turns points into node indices and weights,
which depend only on the points, and ``interp_apply`` reads them against
one table of node values. ``interp_inf`` is the two composed. So the
backward sweep calls ``cs_moves`` once per solve, and ``cs_drain`` and
``interp_index`` once per block, with ``out=`` arrays in its workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ..cycle import DriveCycle
from ..dynamics import VehicleParams, wheel_power_series
from ..ems import RuleConfig, raise_step_error
from ..errors import exact, require
from ..powertrain import (
    NUMBER_RANGE,
    BatteryParams,
    DrivetrainParams,
    EfficiencyMap,
    current_from_power,
    motor_electrical_power,
)

SOC_EPS = 1e-9  # admissibility slack on SOC-window comparisons
_MAX = np.finfo(float).max  # interp_apply's cap on a left node
#: Most bytes one backward sweep may allocate: its tables and its
#: workspace, counted before any of them is built (``sweep_columns``).
SWEEP_BYTES = 2**27
#: Most states a grid may have: the cells (columns x intervals x states)
#: whose tables fill ``SWEEP_BYTES``. A kept cell holds a float64 cost-to-go
#: and a one-byte decision, 9 bytes, so 128 MiB hold 14.9 M cells: 7 times
#: the two 414 x 2501 columns of an OBD study on three laps at grid step
#: 0.002.
MAX_CELLS = SWEEP_BYTES // 9

#: Quantized charge increments of the default decision set, % SOC per
#: 10-s interval.
DEFAULT_DELTAS = (0.051, 0.294, 0.567)


@dataclass(frozen=True)
class Decision:
    """One gen-set decision: SOC charged per interval at a fuel-to-
    electricity efficiency. ``delta_soc == 0`` is the null (engine off)
    decision; its efficiency is unused."""

    delta_soc: float        # % per interval
    efficiency_pct: float

    def __post_init__(self) -> None:
        require(self.delta_soc >= 0, self, "delta_soc", "must be nonnegative")
        # the fuel is the charge over the efficiency: finite above this floor
        lo = NUMBER_RANGE[0]
        require(lo <= self.efficiency_pct <= 100.0, self, "efficiency_pct",
                f"must lie in [{lo:g}, 100]")

    @property
    def label(self) -> str:
        """The name the CSV files give the decision: ``null`` for the zero
        increment, else ``b`` and the increment printed with ``%g``."""
        return f"b{self.delta_soc:g}" if self.delta_soc else "null"


def decision_table(deltas: Sequence[float],
                   efficiencies: Sequence[float]) -> tuple[Decision, ...]:
    """The null decision, then each charge increment at its efficiency in
    ascending order. Raises ``ValueError`` when two decisions print the same
    label (``0.294`` and ``0.2940001``) or the sequences differ in length."""
    table = (Decision(0.0, 100.0), *(
        Decision(d, e) for d, e in sorted(zip(deltas, efficiencies, strict=True))))
    labels = [dec.label for dec in table]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"deltas give two decisions the label {label!r}")
    return table


@dataclass(frozen=True)
class TerminalRule:
    """Final-SOC requirement: the terminal cost is 0 at or above the
    resolved threshold and infinite below it."""

    kind: str  # "threshold" | "initial"
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("threshold", "initial"):
            raise ValueError(f"unknown terminal rule kind {self.kind!r}")
        if self.kind == "threshold" and self.value is None:
            raise ValueError("terminal rule 'threshold' needs a value")
        if self.kind != "threshold" and self.value is not None:
            raise ValueError(f"terminal rule {self.kind!r} takes no value")
        if self.value is not None:
            require(not math.isnan(self.value), self, "value", "must not be NaN")

    @classmethod
    def at(cls, soc: float) -> "TerminalRule":
        return cls("threshold", float(soc))

    @classmethod
    def initial(cls) -> "TerminalRule":
        """Charge-sustaining neutrality: end at or above the starting SOC."""
        return cls("initial")

    def resolve(self, cfg: "DpConfig") -> float:
        if self.kind == "threshold":
            return self.value
        if cfg.initial_soc is None:
            raise ValueError("terminal rule 'initial' needs cfg.initial_soc to be set")
        return cfg.initial_soc


def delta_to_electrical_kw(delta_soc: float, dt_s: float, c_batt_kwh: float) -> float:
    """Electrical power that sustains a charge increment over one interval."""
    return delta_soc / 100.0 * c_batt_kwh * 3600.0 / dt_s


@dataclass(frozen=True)
class DpConfig:
    """Configuration of the CS optimization. Frozen, so that a derived value
    cached on first read stays true: ``dataclasses.replace`` makes a new one."""

    dt_s: float = 10.0
    soc_min: float = RuleConfig.soc_low
    soc_max: float = RuleConfig.soc_high
    grid_step: float = 0.01
    decisions: tuple[Decision, ...] = ()
    terminal_rule: TerminalRule = field(default_factory=TerminalRule.initial)
    obd_enabled: bool = False
    obd_energy_per_event_kwh: float = 0.00497
    c_batt_kwh: float = BatteryParams.c_batt_kwh
    initial_soc: float | None = None

    def __post_init__(self) -> None:
        require(self.dt_s > 0, self, "dt_s", "must be positive")
        for name in ("soc_min", "soc_max"):
            require(0.0 <= getattr(self, name) <= 100.0, self, name,
                    "lies outside [0, 100]")
        require(self.soc_min < self.soc_max, self, "soc_min",
                f"must lie below soc_max = {exact(self.soc_max)}")
        window = f"the SOC window [{exact(self.soc_min)}, {exact(self.soc_max)}]"
        n = (self.soc_max - self.soc_min) / self.grid_step if self.grid_step > 0 else 0
        require(1 <= n < math.inf and math.isclose(n, round(n), rel_tol=1e-9), self,
                "grid_step", f"does not divide {window}")
        require(n + 1 <= MAX_CELLS, self, "grid_step",
                f"gives {round(n) + 1} SOC states, above the limit of {MAX_CELLS}")
        # so the OBD drain is finite: cs_drain multiplies it by the null mask
        require(0.0 <= self.obd_energy_per_event_kwh < math.inf, self,
                "obd_energy_per_event_kwh", "must be finite and nonnegative")
        require(self.c_batt_kwh > 0, self, "c_batt_kwh", "must be positive")
        if not any(dec.delta_soc == 0.0 for dec in self.decisions):
            raise ValueError("decisions must include the null decision")
        if self.initial_soc is not None:
            require(self.soc_min <= self.initial_soc <= self.soc_max, self,
                    "initial_soc", f"lies outside {window}")

    @property
    def n_states(self) -> int:
        return int(round((self.soc_max - self.soc_min) / self.grid_step)) + 1

    def grid(self) -> np.ndarray:
        return np.linspace(self.soc_min, self.soc_max, self.n_states)

    @property
    def grid_spacing(self) -> float:
        """Exact distance between grid nodes (``grid_step`` up to rounding)."""
        return (self.soc_max - self.soc_min) / (self.n_states - 1)

    @cached_property  # the forward pass reads it once per interval
    def max_positive_delta(self) -> float:
        return max(dec.delta_soc for dec in self.decisions)  # the null's 0.0 at least

    @property
    def obd_drain_pct(self) -> float:
        """SOC drawn by one OBD event, % of capacity."""
        return self.obd_energy_per_event_kwh / self.c_batt_kwh * 100.0

    def delta_array(self) -> np.ndarray:
        return np.asarray([dec.delta_soc for dec in self.decisions], dtype=float)

    def fuel_array(self) -> np.ndarray:
        """Stage cost of each decision in kWh fuel: charged energy divided
        by the decision's fuel-to-electricity efficiency, so 0.0 for null."""
        return np.asarray([(dec.delta_soc / 100.0 * self.c_batt_kwh)
                           / (dec.efficiency_pct / 100.0) for dec in self.decisions])


def cs_moves(cfg: DpConfig, soc, delta):
    """Drain-free half of ``cs_step``: what an interval's move does before
    its drain, for states ``soc`` (% SOC) and decision charge increments
    ``delta`` (% per interval) that broadcast against each other.

    Returns ``(moved, gate, null)``: ``soc + delta``, whether the gate lets
    the decision run (the null decision always runs; charging is gated off
    wherever the largest increment could overshoot ``soc_max`` by more than
    ``SOC_EPS``), and whether the decision is the null one (``delta == 0``).
    None of them reads the drain, so the backward sweep computes them once
    per solve. Python floats in give a Python float and two bools out.
    """
    null = delta == 0.0
    gate = null | (soc + cfg.max_positive_delta <= cfg.soc_max + SOC_EPS)
    return soc + delta, gate, null


def cs_drain(cfg: DpConfig, moved, gate, null, d_k, out=None):
    """Drain half of ``cs_step``: applies the interval's drain ``d_k`` to
    the ``(moved, gate, null)`` of ``cs_moves``.

    ``d_k`` broadcasts against them, e.g. a ``(B, 1, 1)`` column of drains
    against (decisions x states) moves for ``B`` intervals at once. The
    null decision also pays the OBD drain when it is enabled. On a
    net-regeneration interval the successor is curtailed at ``soc_max``. A
    move is admissible when it passes the gate and its successor lies in
    the window, both up to ``SOC_EPS``.

    Returns ``(succ, ok)``: the successor SOC and whether the move is
    admissible. An array call may pass ``out``, two arrays of the shapes
    and dtypes it returns (float64, bool), to have the results written
    there.
    """
    if out is None:
        succ = moved - d_k  # a fresh array (or scalar), so -= touches no caller's data
    else:
        succ, ok = out
        np.subtract(moved, d_k, out=succ)
    if cfg.obd_enabled:  # without OBD the drain is 0.0, and x - 0.0 == x
        if isinstance(succ, np.ndarray):  # only the null decision's cells move
            np.subtract(succ, cfg.obd_drain_pct, out=succ, where=null)
        else:
            succ -= cfg.obd_drain_pct * null  # drain * 1 is the drain, drain * 0 is 0.0
    if isinstance(d_k, np.ndarray):
        regen = d_k < 0.0
        if regen.any():  # min(x, inf) == x on the other intervals
            np.minimum(succ, np.where(regen, cfg.soc_max, np.inf), out=succ)
    elif d_k < 0.0:
        succ = min(succ, cfg.soc_max) if isinstance(succ, float) else \
            np.minimum(succ, cfg.soc_max, out=succ)
    if out is None:
        ok = succ >= cfg.soc_min - SOC_EPS
    else:
        np.greater_equal(succ, cfg.soc_min - SOC_EPS, out=ok)
    ok &= succ <= cfg.soc_max + SOC_EPS
    ok &= gate
    return succ, ok


def cs_step(cfg: DpConfig, soc, d_k, delta):
    """One interval of the charge-sustaining dynamics, ``cs_moves`` and
    ``cs_drain`` composed: the rule the forward pass steps on.

    ``soc`` (% SOC), ``delta`` (decision charge increments, % per interval)
    and ``d_k`` (the interval's drain) broadcast against each other.
    Returns ``(succ, gate_ok, ok)``: the successor SOC, whether the gate
    lets the decision run, and whether the move is admissible. Python
    floats in give a Python float and two bools out, with the bits of the
    matching element of the array call, so a forward pass steps on floats.
    """
    moved, gate, null = cs_moves(cfg, soc, delta)
    succ, ok = cs_drain(cfg, moved, gate, null, d_k)
    return succ, gate, ok


@dataclass(frozen=True)
class DemandProfile:
    """Per-interval SOC drain from the driving load, % per interval.
    Negative entries are net-regeneration intervals. The profile holds its
    own read-only copy of the drains, so the policies solved on it cannot
    be moved under them."""

    d_pct: np.ndarray
    dt_s: float
    distance_km: float

    def __post_init__(self) -> None:
        d_pct = np.array(self.d_pct, dtype=float)
        if d_pct.ndim != 1 or d_pct.size < 1:
            raise ValueError("demand profile needs at least one interval")
        if not np.all(np.isfinite(d_pct)):
            raise ValueError("demand entries must be finite")
        require(self.dt_s > 0, self, "dt_s", "must be positive")
        require(self.distance_km >= 0, self, "distance_km", "must be nonnegative")
        d_pct.setflags(write=False)
        object.__setattr__(self, "d_pct", d_pct)

    @property
    def n_intervals(self) -> int:
        return self.d_pct.size


def build_demand(cycle: DriveCycle, vp: VehicleParams, motor_map: EfficiencyMap,
                 drv: DrivetrainParams, bp: BatteryParams,
                 calibration: float, dt_s: float,
                 regen_current_limit_a: float) -> DemandProfile:
    """Convert a drive cycle into the per-interval battery drain the CS
    optimization consumes.

    Each sample's wheel power (scaled by the calibration factor) passes
    through the motor map to electrical power and through the terminal-power
    inversion to current; the chemistry power V_oc*I is integrated per
    interval. A partial trailing interval is folded into the last full one.
    Regeneration current is clipped at ``regen_current_limit_a`` (``math.inf``
    for no clip).
    The open-circuit voltage is constant, so the drain profile does not
    depend on SOC. An ``EnvelopeError`` names the first sample outside the
    motor or battery envelope.
    """
    if calibration <= 0:
        raise ValueError("calibration must be positive")
    if cycle.duration_s < dt_s:
        raise ValueError("cycle must span at least one decision interval")
    t = cycle.t_s
    p_wheel = wheel_power_series(vp, cycle) * calibration
    p_motor = motor_electrical_power(motor_map, drv, cycle.v_mps, p_wheel)
    i_amps = current_from_power(bp, p_motor)
    if np.isnan(i_amps).any():  # name the first bad sample
        k = np.flatnonzero(np.isnan(i_amps))[0]
        raise_step_error(k, t[k], motor_map, drv, bp, cycle.v_mps[k], p_wheel[k],
                         p_motor[k], 0.0, 0.0)
    i_amps = np.maximum(i_amps, -regen_current_limit_a)
    p_chem = bp.v_oc * i_amps / 1000.0

    cum_kws = np.concatenate(
        [[0.0], np.cumsum(0.5 * (p_chem[1:] + p_chem[:-1]) * np.diff(t))])
    n = int(math.floor(cycle.duration_s / dt_s + 1e-9))
    bounds = t[0] + dt_s * np.arange(n + 1)
    bounds[-1] = t[-1]  # fold the partial trailing interval into the last one
    cum_at = np.interp(bounds, t, cum_kws)
    energy_kwh = np.diff(cum_at) / 3600.0
    return DemandProfile(d_pct=energy_kwh / bp.c_batt_kwh * 100.0,
                         dt_s=dt_s, distance_km=cycle.distance_km)


def interp_index(x, lo: float, step: float, m: int, out=None):
    """Index half of ``interp_inf``: where points ``x`` (any shape) fall on
    the uniform grid ``lo + i*step`` of ``m`` nodes.

    Returns ``(j, jd, w)``, each shaped like ``x``: the node whose value a
    point reads, the slot of the step it reads (see ``interp_apply``), and
    its weight. Points outside the grid are clipped onto the end node. A
    weight within ``SOC_EPS`` of 0 snaps the point onto node ``j``, and one
    within ``SOC_EPS`` of 1 onto node ``j + 1``; a snapped point reads step
    slot ``m``, which holds a zero step. So ``j`` lies in [0, m-1] and
    ``jd`` in [0, m]. An array ``x`` may pass ``out``, arrays shaped like it
    (int64, int64, float64), to have the results written there; the weights
    may overwrite ``x`` itself.
    """
    if out is None:
        p = np.subtract(x, lo).reshape(-1)  # a fresh 1-d array, even for a scalar
        j, jd = np.empty(p.shape, np.int64), np.empty(p.shape, np.int64)
    else:
        j, jd, p = out
        np.subtract(x, lo, out=p)
    p /= step
    np.clip(p, 0.0, float(m - 1), out=p)
    # the float node index lives in jd's bytes (both are 8 wide) until jd is set
    node = np.floor(p, out=jd.view(np.float64))
    w = np.subtract(p, node, out=p)
    np.copyto(j, node, casting="unsafe")
    snap = w > 1.0 - SOC_EPS
    np.add(j, 1, out=j, where=snap)
    np.copyto(jd, j)
    np.copyto(jd, m, where=snap)
    np.less(w, SOC_EPS, out=snap)
    np.copyto(jd, m, where=snap)
    if out is not None:
        return out
    shape = np.shape(x)
    return j.reshape(shape), jd.reshape(shape), w.reshape(shape)


def interp_apply(values: np.ndarray, j, jd, w):
    """Value half of ``interp_inf``: ``steps[jd] * w + values[j]`` for the
    ``(j, jd, w)`` of ``interp_index`` on a grid of ``values.size`` nodes.

    ``steps`` holds ``values[i+1] - min(values[i], MAX)`` at slot ``i``
    (``MAX`` the largest finite float) and a zero step in the last two
    slots. Out of an infinite node the step is finite or inf, never -inf or
    NaN, and only an unsnapped point on that node reads it, as ``step * w +
    inf``, which is inf. So a point inside a cell that touches an infinite
    node is infinite (the weight of an unsnapped point is at least
    ``SOC_EPS``), and never NaN. A snapped point gives ``values[j] + 0.0``,
    which is its node value bit for bit because ``values`` holds no -0.0
    (costs lie in [0, inf]). Returns an array shaped like the indices (a
    numpy scalar for 0-d ones).
    """
    m = values.size
    steps = np.zeros(m + 1)
    np.subtract(values[1:], np.minimum(values[:-1], _MAX), out=steps[:m - 1])
    # j and jd lie in range, so "wrap" never wraps; it spares take's range error
    out = steps.take(jd, mode="wrap")
    out *= w
    out += values.take(j, mode="wrap")
    return out


def interp_inf(values: np.ndarray, x, lo: float, step: float) -> np.ndarray:
    """Linear interpolation of node ``values`` on the uniform grid
    ``lo + i*step`` at points ``x`` (any shape), treating infinity as
    infeasible: a point inside a cell that touches an infinite node is
    infinite. Weights within ``SOC_EPS`` of a node snap onto it, and points
    outside the grid take the end node's value. Returns an array shaped
    like ``x``."""
    return np.asarray(interp_apply(values, *interp_index(x, lo, step, values.size)))


@dataclass(frozen=True)
class DpPolicy:
    """Backward-induction output with the problem it solves: on ``cfg``'s grid,
    the minimizing decision for each ``demand`` interval and the optimal
    cost-to-go, either of every stage or of stage 0 alone (all a rollout
    reads; ``keep_costs=False``). ``sweep_columns`` builds one per column,
    from that column's config, with read-only tables.

    Raises ``ValueError`` when the tables' shapes or the demand's interval
    disagree with ``demand`` and ``cfg``, or when ``decision_idx`` holds
    anything but unsigned indices into ``cfg.decisions``."""

    cfg: DpConfig
    demand: DemandProfile
    cost_to_go: np.ndarray      # (N+1, M) or stage 0's (1, M), kWh fuel
    decision_idx: np.ndarray    # (N, M) unsigned index into `cfg.decisions`

    def __post_init__(self) -> None:
        if self.demand.dt_s != self.cfg.dt_s:
            raise ValueError(
                f"demand intervals of {self.demand.dt_s:g} s do not match the decision "
                f"interval dt_s={self.cfg.dt_s:g} s")
        n, m = self.demand.n_intervals, self.cfg.n_states
        if self.decision_idx.shape != (n, m):
            raise ValueError(
                f"decision_idx has shape {self.decision_idx.shape}, but a demand of "
                f"{n} intervals on a grid of {m} states needs {(n, m)}")
        if self.cost_to_go.shape not in ((n + 1, m), (1, m)):
            raise ValueError(
                f"cost_to_go has shape {self.cost_to_go.shape}, but a demand of "
                f"{n} intervals on a grid of {m} states needs {(n + 1, m)}, or "
                f"{(1, m)} for stage 0 alone")
        if self.decision_idx.dtype.kind != "u":
            raise ValueError(f"decision_idx has dtype {self.decision_idx.dtype}, "
                             f"but indices into cfg.decisions are unsigned integers")
        top = int(self.decision_idx.max(initial=0))
        if top >= len(self.cfg.decisions):
            raise ValueError(f"decision_idx holds index {top}, but cfg has "
                             f"{len(self.cfg.decisions)} decisions")

    @property
    def grid(self) -> np.ndarray:
        return self.cfg.grid()

    def optimal_cost(self, initial_soc: float) -> float:
        """Cost-to-go at stage 0 and an off-grid SOC (inf-aware linear
        interpolation); a SOC outside the grid reads its end node.

        Raises ``ValueError`` for a NaN SOC, which has no node to read."""
        if math.isnan(initial_soc):
            raise ValueError("initial SOC must not be NaN")
        return float(interp_inf(self.cost_to_go[0], initial_soc, self.cfg.soc_min,
                                self.cfg.grid_spacing))
