"""Rule-based energy management: CD/CS state machine over a drive cycle.

The vehicle drives electrically (charge depleting) until SOC first falls
to the CS trigger; from then on it is charge sustaining permanently. In CS
a thermostat runs the gen-set at one fixed operating point: on at or below
the trigger, off once the window top is reached, holding each state for a
minimum dwell. A fresh gen-set start spends a warm-up period cranking the
engine from the battery before any charge is produced. Regenerative
braking is limited by a bus-current ceiling and is locked out above the
window top once in CS.

Actuation is held constant between samples (zero-order hold), so every
per-step energy identity closes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .cycle import DriveCycle
from .dynamics import VehicleParams, wheel_power_series
from .errors import EnvelopeError, InfeasibleVehicleError, MapDomainError
from .powertrain import (
    BatteryParams,
    DrivetrainParams,
    EfficiencyMap,
    GenSetPoint,
    current_from_power,
    motor_electrical_power,
    terminal_power_kw,
)

MODE_CD = 0
MODE_CS = 1


@dataclass
class RuleConfig:
    """Thermostat parameters of the rule-based strategy."""

    genset_point: GenSetPoint
    soc_high: float = 17.0        # %, CS window top / gen-set off level
    soc_low: float = 12.0         # %, CS window floor
    cs_trigger: float = 14.0      # %, CD->CS switch and gen-set on level
    min_dwell_s: float = 10.0     # s between gen-set state changes
    warmup_s: float = 20.0        # s of cranking after each gen-set start
    crank_power_kw: float = 2.0   # battery draw while cranking
    regen_current_limit_a: float = 150.0
    initial_soc: float = 70.0     # %

    def __post_init__(self) -> None:
        if not (self.soc_low < self.cs_trigger < self.soc_high):
            raise ValueError("need soc_low < cs_trigger < soc_high")
        if self.min_dwell_s < 0 or self.warmup_s < 0 or self.crank_power_kw < 0:
            raise ValueError("dwell, warmup, and crank power must be nonnegative")
        if self.regen_current_limit_a <= 0:
            raise ValueError("regen current limit must be positive")
        if not (0.0 < self.initial_soc <= 100.0):
            raise ValueError("initial_soc must lie in (0, 100]")


@dataclass
class SimTrace:
    """Per-sample record of one rule-based simulation. State columns hold
    the value at the sample time; power columns hold the actuation over the
    following segment."""

    t_s: np.ndarray
    v_mps: np.ndarray
    mode: np.ndarray              # MODE_CD / MODE_CS
    genset_on: np.ndarray         # bool
    genset_warm: np.ndarray       # bool: past warm-up, producing charge
    p_wheel_kw: np.ndarray
    p_motor_elec_kw: np.ndarray
    p_genset_elec_kw: np.ndarray
    crank_kw: np.ndarray
    i_batt_a: np.ndarray
    soc_pct: np.ndarray
    fuel_step_kwh: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.t_s.size

    def cs_entry_index(self) -> int | None:
        """First sample in CS mode, or None for a CD-only run."""
        idx = np.nonzero(self.mode == MODE_CS)[0]
        return int(idx[0]) if idx.size else None

    def genset_transition_times(self) -> np.ndarray:
        """Times at which the gen-set changed state."""
        flips = np.nonzero(np.diff(self.genset_on.astype(np.int8)) != 0)[0] + 1
        return self.t_s[flips]


@dataclass
class EnergyResult:
    """CD/CS energy split of one simulation."""

    ec_cd_dc_wh_per_km: float     # DC (chemistry) electric energy, CD portion
    ec_cs_fuel_wh_per_km: float   # fuel energy, CS portion
    cd_distance_km: float
    cs_distance_km: float
    final_soc: float

    def __post_init__(self) -> None:
        if self.cd_distance_km < 0 or self.cs_distance_km < 0:
            raise ValueError("distances must be nonnegative")


def simulate_rule_based(cycle: DriveCycle, vp: VehicleParams,
                        motor_map: EfficiencyMap, drv: DrivetrainParams,
                        bp: BatteryParams, cfg: RuleConfig,
                        calibration: float = 1.0
                        ) -> tuple[SimTrace, EnergyResult]:
    """Run the rule-based strategy over a cycle.

    Wheel power (scaled by ``calibration``) converts through the motor map
    to electrical demand once for the whole cycle. Per step the gen-set
    contributes per the thermostat state, the battery current follows from
    the terminal-power inversion (with the regeneration clip), and SOC
    integrates the chemistry power.

    Raises
    ------
    InfeasibleVehicleError
        When SOC reaches 0 (battery empty).
    EnvelopeError
        When a demand exceeds the motor map or battery capability; the
        message carries the step index.
    """
    if calibration <= 0:
        raise ValueError("calibration must be positive")
    n = cycle.n_samples
    t = cycle.t_s
    p_wheel = wheel_power_series(vp, cycle) * calibration
    p_motor_series = motor_electrical_power(motor_map, drv, cycle.v_mps, p_wheel)

    trace = SimTrace(
        t_s=t.copy(), v_mps=cycle.v_mps.copy(),
        mode=np.zeros(n, dtype=np.int8),
        genset_on=np.zeros(n, dtype=bool),
        genset_warm=np.zeros(n, dtype=bool),
        p_wheel_kw=p_wheel,
        p_motor_elec_kw=np.zeros(n),
        p_genset_elec_kw=np.zeros(n),
        crank_kw=np.zeros(n),
        i_batt_a=np.zeros(n),
        soc_pct=np.zeros(n),
        fuel_step_kwh=np.zeros(n),
    )

    soc = cfg.initial_soc
    cs_entered = False
    genset_on = False
    last_change_t = -np.inf
    genset_start_t = -np.inf

    for k in range(n):
        now = t[k]
        # thermostat update on the state at this sample
        if not cs_entered and soc <= cfg.cs_trigger:
            cs_entered = True
        if cs_entered:
            dwell_ok = now - last_change_t >= cfg.min_dwell_s
            if not genset_on and soc <= cfg.cs_trigger and dwell_ok:
                genset_on = True
                last_change_t = now
                genset_start_t = now
            elif genset_on and soc >= cfg.soc_high and dwell_ok:
                genset_on = False
                last_change_t = now
        warm = genset_on and (now - genset_start_t >= cfg.warmup_s)
        p_gen = cfg.genset_point.electrical_power_kw if warm else 0.0
        crank = cfg.crank_power_kw if (genset_on and not warm) else 0.0

        p_motor = p_motor_series[k]
        if cs_entered and soc >= cfg.soc_high and p_motor < 0.0:
            p_motor = 0.0  # regen lockout at the window top: friction only
        try:
            if math.isnan(p_motor):  # outside the motor envelope: raise the reason
                motor_electrical_power(motor_map, drv, cycle.v_mps[k], p_wheel[k])
            i_batt = current_from_power(bp, soc, p_motor + crank - p_gen)
        except (EnvelopeError, MapDomainError) as exc:
            raise EnvelopeError(f"step {k} (t = {now:g} s): {exc}") from None
        if i_batt < -cfg.regen_current_limit_a:
            i_batt = -cfg.regen_current_limit_a
            p_motor = terminal_power_kw(bp, soc, i_batt) + p_gen - crank

        trace.mode[k] = MODE_CS if cs_entered else MODE_CD
        trace.genset_on[k] = genset_on
        trace.genset_warm[k] = warm
        trace.p_motor_elec_kw[k] = p_motor
        trace.i_batt_a[k] = i_batt
        trace.soc_pct[k] = soc

        if k < n - 1:
            dt = t[k + 1] - now
            soc -= bp.v_oc(soc) * i_batt * dt / (3.6e6 * bp.c_batt_kwh) * 100.0
            if soc <= 0.0:
                raise InfeasibleVehicleError(
                    f"battery empty at t = {t[k + 1]:g} s "
                    f"({'CS' if cs_entered else 'CD'} mode); the vehicle cannot "
                    f"complete this cycle")
            soc = min(soc, 100.0)

    trace.p_genset_elec_kw[trace.genset_warm] = cfg.genset_point.electrical_power_kw
    trace.crank_kw[trace.genset_on & ~trace.genset_warm] = cfg.crank_power_kw
    eff = cfg.genset_point.combined_efficiency_pct / 100.0
    trace.fuel_step_kwh[:-1] = trace.p_genset_elec_kw[:-1] / eff * np.diff(t) / 3600.0
    return trace, _energy_result(trace, bp, cycle)


def _energy_result(trace: SimTrace, bp: BatteryParams, cycle: DriveCycle) -> EnergyResult:
    t = trace.t_s
    dt = np.diff(t)
    cum_dist_m = np.concatenate(
        [[0.0], np.cumsum(0.5 * (trace.v_mps[1:] + trace.v_mps[:-1]) * dt)])
    total_km = cycle.distance_km
    k_cs = trace.cs_entry_index()
    if k_cs is None:
        cd_km, cs_km = total_km, 0.0
        cd_seg = slice(0, trace.n_samples - 1)
        cs_seg = slice(0, 0)
    else:
        cd_km = cum_dist_m[k_cs] / 1000.0
        cs_km = total_km - cd_km
        cd_seg = slice(0, k_cs)
        cs_seg = slice(k_cs, trace.n_samples - 1)

    p_chem_kw = bp.v_oc(trace.soc_pct) * trace.i_batt_a / 1000.0
    e_cd_kwh = float(np.sum(p_chem_kw[cd_seg] * dt[cd_seg])) / 3600.0
    fuel_cs_kwh = float(np.sum(trace.fuel_step_kwh[cs_seg]))
    return EnergyResult(
        ec_cd_dc_wh_per_km=e_cd_kwh * 1000.0 / cd_km if cd_km > 0 else 0.0,
        ec_cs_fuel_wh_per_km=fuel_cs_kwh * 1000.0 / cs_km if cs_km > 0 else 0.0,
        cd_distance_km=cd_km,
        cs_distance_km=cs_km,
        final_soc=float(trace.soc_pct[-1]),
    )


def write_trace(trace: SimTrace, path) -> None:
    """Export a simulation trace as CSV, one row per step, deterministic
    column order and formatting."""
    write_csv(path, ("t_s", "%.3f", trace.t_s), ("v_mps", "%.4f", trace.v_mps),
              ("mode", "%s", np.where(trace.mode == MODE_CS, "CS", "CD")),
              ("genset_on", "%d", trace.genset_on),
              ("genset_warm", "%d", trace.genset_warm),
              ("p_wheel_kw", "%.6f", trace.p_wheel_kw),
              ("p_motor_elec_kw", "%.6f", trace.p_motor_elec_kw),
              ("p_genset_elec_kw", "%.6f", trace.p_genset_elec_kw),
              ("crank_kw", "%.6f", trace.crank_kw), ("i_batt_a", "%.6f", trace.i_batt_a),
              ("soc_pct", "%.6f", trace.soc_pct),
              ("fuel_step_kwh", "%.9f", trace.fuel_step_kwh))
