"""Problem types for the charge-sustaining optimization.

The CS phase is a finite-horizon problem: the state is SOC, one decision is
taken per interval (default 10 s) from a quantized set of gen-set charge
increments, and the exogenous drain per interval comes from the driving
load. Costs are kWh of fuel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cycle import DriveCycle
from ..dynamics import VehicleParams, wheel_power_series
from ..errors import EnvelopeError, MapDomainError
from ..powertrain import (
    BatteryParams,
    DrivetrainParams,
    EfficiencyMap,
    GenSetPoint,
    current_from_power,
    motor_electrical_power,
)

SOC_EPS = 1e-9  # admissibility slack on SOC-window comparisons

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
    label: str

    def __post_init__(self) -> None:
        if self.delta_soc < 0:
            raise ValueError("decision delta must be nonnegative")
        if not (0.0 < self.efficiency_pct <= 100.0):
            raise ValueError("decision efficiency must lie in (0, 100]")


def null_decision() -> Decision:
    return Decision(0.0, 100.0, "null")


@dataclass(frozen=True)
class TerminalRule:
    """Final-SOC requirement: the terminal cost is 0 at or above the
    resolved threshold and infinite below it."""

    kind: str  # "threshold" | "initial" | "soc_min"
    value: float | None = None

    @classmethod
    def at(cls, soc: float) -> "TerminalRule":
        return cls("threshold", float(soc))

    @classmethod
    def initial(cls) -> "TerminalRule":
        """Charge-sustaining neutrality: end at or above the starting SOC."""
        return cls("initial")

    @classmethod
    def at_soc_min(cls) -> "TerminalRule":
        return cls("soc_min")

    def resolve(self, cfg: "DpConfig") -> float:
        if self.kind == "threshold":
            assert self.value is not None
            return self.value
        if self.kind == "initial":
            if cfg.initial_soc is None:
                raise ValueError(
                    "terminal rule 'initial' needs cfg.initial_soc to be set")
            return cfg.initial_soc
        if self.kind == "soc_min":
            return cfg.soc_min
        raise ValueError(f"unknown terminal rule kind {self.kind!r}")


def max_delta_bound(p_genset_max_kw: float, dt_s: float, c_batt_kwh: float) -> float:
    """Largest admissible charge increment, % SOC per interval, for a
    gen-set electrical peak: P*dt converted to a fraction of capacity."""
    return p_genset_max_kw * dt_s / (3600.0 * c_batt_kwh) * 100.0


def delta_to_electrical_kw(delta_soc: float, dt_s: float, c_batt_kwh: float) -> float:
    """Electrical power that sustains a charge increment over one interval."""
    return delta_soc / 100.0 * c_batt_kwh * 3600.0 / dt_s


@dataclass
class DpConfig:
    """Configuration of the CS optimization."""

    dt_s: float = 10.0
    soc_min: float = 12.0
    soc_max: float = 17.0
    grid_step: float = 0.01
    decisions: tuple[Decision, ...] = ()
    terminal_rule: TerminalRule = field(default_factory=TerminalRule.initial)
    obd_enabled: bool = False
    obd_energy_per_event_kwh: float = 0.00497
    c_batt_kwh: float = 18.9
    p_genset_max_kw: float = 40.0
    initial_soc: float | None = None

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise ValueError("dt must be positive")
        if self.soc_min >= self.soc_max:
            raise ValueError("soc_min must be below soc_max")
        n = (self.soc_max - self.soc_min) / self.grid_step if self.grid_step > 0 else 0
        if not (1 <= n < math.inf and math.isclose(n, round(n), rel_tol=1e-9)):
            raise ValueError(f"grid_step {self.grid_step:g} does not divide the window")
        if self.obd_energy_per_event_kwh < 0:
            raise ValueError("OBD energy per event must be nonnegative")
        if self.c_batt_kwh <= 0:
            raise ValueError("battery capacity must be positive")
        if not self.decisions:
            raise ValueError("decision set must not be empty")
        if not any(dec.delta_soc == 0.0 for dec in self.decisions):
            raise ValueError("decision set must include the null decision")
        bound = max_delta_bound(self.p_genset_max_kw, self.dt_s, self.c_batt_kwh)
        for dec in self.decisions:
            if dec.delta_soc > bound + SOC_EPS:
                raise ValueError(
                    f"decision {dec.label!r} charges {dec.delta_soc:.4f}%/interval, "
                    f"beyond the gen-set peak bound {bound:.4f}%")
        if self.initial_soc is not None and not (
                self.soc_min <= self.initial_soc <= self.soc_max):
            raise ValueError("initial_soc must lie inside the SOC window")

    @property
    def n_states(self) -> int:
        return int(round((self.soc_max - self.soc_min) / self.grid_step)) + 1

    def grid(self) -> np.ndarray:
        return np.linspace(self.soc_min, self.soc_max, self.n_states)

    @property
    def max_positive_delta(self) -> float:
        positives = [dec.delta_soc for dec in self.decisions if dec.delta_soc > 0]
        return max(positives) if positives else 0.0

    @property
    def obd_drain_pct(self) -> float:
        """SOC drawn by one OBD event, % of capacity."""
        return self.obd_energy_per_event_kwh / self.c_batt_kwh * 100.0

    def delta_array(self) -> np.ndarray:
        return np.asarray([dec.delta_soc for dec in self.decisions], dtype=float)

    def fuel_array(self) -> np.ndarray:
        """Stage cost of each decision in kWh fuel: charged energy divided
        by the decision's fuel-to-electricity efficiency; 0 for null."""
        out = []
        for dec in self.decisions:
            if dec.delta_soc == 0.0:
                out.append(0.0)
            else:
                out.append((dec.delta_soc / 100.0 * self.c_batt_kwh)
                           / (dec.efficiency_pct / 100.0))
        return np.asarray(out, dtype=float)


def cs_step(cfg: DpConfig, soc, d_k: float, delta):
    """One interval of the charge-sustaining dynamics: the transition rule
    that the backward sweep, the rollout and the thermostat replay share.

    ``soc`` (% SOC) and ``delta`` (decision charge increments, % per
    interval) broadcast against each other, e.g. a column of decisions
    against a row of grid states; ``d_k`` is the interval's drain. The null
    decision (``delta == 0``) also pays the OBD drain when it is enabled.
    On a net-regeneration interval the successor is curtailed at
    ``soc_max``. Charging is gated off wherever the largest increment could
    overshoot ``soc_max``. A move is admissible when it passes the gate and
    its successor lies in the window, both up to ``SOC_EPS``.

    Returns ``(succ, gate_ok, ok)``: the successor SOC, whether the gate
    lets the decision run, and whether the move is admissible.
    """
    delta = np.asarray(delta, dtype=float)
    null = delta == 0.0
    drain = np.where(null, cfg.obd_drain_pct if cfg.obd_enabled else 0.0, 0.0)
    succ = soc + delta - d_k - drain
    if d_k < 0.0:
        succ = np.minimum(succ, cfg.soc_max)
    gate_ok = null | (soc + cfg.max_positive_delta <= cfg.soc_max + SOC_EPS)
    ok = gate_ok & (succ >= cfg.soc_min - SOC_EPS) & (succ <= cfg.soc_max + SOC_EPS)
    return succ, gate_ok, ok


def default_decisions(point: GenSetPoint,
                      deltas: Sequence[float] = DEFAULT_DELTAS) -> tuple[Decision, ...]:
    """Default decision table: the null decision plus the quantized charge
    increments, all at the efficiency of ``point``, the single gen-set
    operating point sized for the largest increment (smaller increments
    duty-cycle that same point within the interval)."""
    decs = [null_decision()]
    for delta in sorted(deltas):
        decs.append(Decision(delta, point.combined_efficiency_pct, f"b{delta:g}"))
    return tuple(decs)


@dataclass
class DemandProfile:
    """Per-interval SOC drain from the driving load, % per interval.
    Negative entries are net-regeneration intervals."""

    d_pct: np.ndarray
    dt_s: float
    distance_km: float

    def __post_init__(self) -> None:
        self.d_pct = np.asarray(self.d_pct, dtype=float)
        if self.d_pct.ndim != 1 or self.d_pct.size < 1:
            raise ValueError("demand profile needs at least one interval")
        if not np.all(np.isfinite(self.d_pct)):
            raise ValueError("demand entries must be finite")
        if self.dt_s <= 0 or self.distance_km < 0:
            raise ValueError("dt must be positive and distance nonnegative")

    @property
    def n_intervals(self) -> int:
        return self.d_pct.size


def build_demand(cycle: DriveCycle, vp: VehicleParams, motor_map: EfficiencyMap,
                 drv: DrivetrainParams, bp: BatteryParams,
                 calibration: float = 1.0, dt_s: float = 10.0,
                 regen_current_limit_a: float | None = None) -> DemandProfile:
    """Convert a drive cycle into the per-interval battery drain the CS
    optimization consumes.

    Each sample's wheel power (scaled by the calibration factor) passes
    through the motor map to electrical power and through the terminal-power
    inversion to current; the chemistry power V_oc*I is integrated per
    interval. A partial trailing interval is folded into the last full one.
    Regeneration current is clipped at ``regen_current_limit_a`` when given.
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
    i_amps = current_from_power(
        bp, motor_electrical_power(motor_map, drv, cycle.v_mps, p_wheel))
    if np.isnan(i_amps).any():  # the scalar calls name the first bad sample
        k = np.flatnonzero(np.isnan(i_amps))[0]
        try:
            current_from_power(bp, motor_electrical_power(
                motor_map, drv, cycle.v_mps[k], p_wheel[k]))
        except (EnvelopeError, MapDomainError) as exc:
            raise EnvelopeError(f"step {k} (t = {t[k]:g} s): {exc}") from None
    if regen_current_limit_a is not None:
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


def interp_inf(values: np.ndarray, x, lo: float, step: float) -> np.ndarray:
    """Linear interpolation of node ``values`` on the uniform grid
    ``lo + i*step`` at points ``x`` (any shape), treating infinity as
    infeasible: a point inside a cell that touches an infinite node is
    infinite. Weights within ``SOC_EPS`` of a node snap onto it, and points
    outside the grid take the end node's value."""
    m = values.size
    p = np.clip((x - lo) / step, 0.0, float(m - 1))
    j = np.minimum(p.astype(np.int64), m - 2)
    w = p - j
    left = values[j]
    right = values[j + 1]
    with np.errstate(invalid="ignore"):
        out = left + w * (right - left)
    # inf - inf is NaN, and argmin over decisions would pick a NaN
    out = np.where(np.isnan(out), np.inf, out)
    out = np.where(w < SOC_EPS, left, out)
    return np.where(w > 1.0 - SOC_EPS, right, out)


@dataclass
class DpPolicy:
    """Backward-induction output: optimal cost-to-go and the minimizing
    decision index on the SOC grid for every interval."""

    cost_to_go: np.ndarray      # (N+1, M) kWh fuel
    decision_idx: np.ndarray    # (N, M) index into `decisions`
    grid: np.ndarray            # (M,) SOC %
    decisions: tuple[Decision, ...]

    @property
    def n_intervals(self) -> int:
        return self.decision_idx.shape[0]

    def optimal_cost(self, initial_soc: float) -> float:
        """Cost-to-go at stage 0 and an off-grid SOC (inf-aware linear
        interpolation)."""
        grid = self.grid
        step = (grid[-1] - grid[0]) / (grid.size - 1)
        return float(interp_inf(self.cost_to_go[0], initial_soc, grid[0], step))
