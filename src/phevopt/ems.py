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
from .errors import (EnvelopeError, InfeasibleVehicleError, MapDomainError, exact,
                     require)
from .powertrain import (
    BatteryParams,
    DrivetrainParams,
    EfficiencyMap,
    GenSetPoint,
    check_capability,
    current_from_power,
    map_lookup,
    motor_electrical_power,
    motor_operating_point,
    soc_drop_pct,
    terminal_power_kw,
)

MODE_CD = 0
MODE_CS = 1
_MODE_NAMES = ("CD", "CS")  # indexed by mode
# longest run of samples the thermostat loop advances at once; over 6 laps
# (8281 samples) simulate_rule_based took, best of 15, 5.2-5.7 / 5.0-5.3 /
# 5.3 / 5.5-6.0 ms at 256 / 512 / 1024 / 2048 (12.0 ms one sample at a time)
RUN_SAMPLES = 512


@dataclass
class RuleConfig:
    """Thermostat parameters of the rule-based strategy."""

    genset_point: GenSetPoint
    soc_high: float = 17.0        # %, CS window top / gen-set off level
    soc_low: float = 12.0         # %, CS window floor: the DP's soc_min
    cs_trigger: float = 14.0      # %, CD->CS switch and gen-set on level
    min_dwell_s: float = 10.0     # s between gen-set state changes
    warmup_s: float = 20.0        # s of cranking after each gen-set start
    crank_power_kw: float = 2.0   # battery draw while cranking
    regen_current_limit_a: float = 150.0
    initial_soc: float = 70.0     # %

    def __post_init__(self) -> None:
        for name in ("soc_low", "cs_trigger", "soc_high"):
            require(0.0 <= getattr(self, name) <= 100.0, self, name,
                    "lies outside [0, 100]")
        require(self.soc_low < self.cs_trigger < self.soc_high, self, "cs_trigger",
                f"must lie above soc_low = {exact(self.soc_low)} and below "
                f"soc_high = {exact(self.soc_high)}")
        for name in ("min_dwell_s", "warmup_s", "crank_power_kw"):
            require(getattr(self, name) >= 0, self, name, "must be nonnegative")
        require(self.regen_current_limit_a > 0, self, "regen_current_limit_a",
                "must be positive")
        require(0.0 < self.initial_soc <= 100.0, self, "initial_soc",
                "must lie in (0, 100]")


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
        for name in ("ec_cs_fuel_wh_per_km", "cd_distance_km", "cs_distance_km"):
            require(getattr(self, name) >= 0, self, name, "must be nonnegative")
        # regeneration may outweigh a CD portion's draw
        require(math.isfinite(self.ec_cd_dc_wh_per_km), self, "ec_cd_dc_wh_per_km",
                "must be finite")
        require(0.0 <= self.final_soc <= 100.0, self, "final_soc",
                "lies outside [0, 100]")


def thermostat_state(on: bool, soc, trigger: float, high: float):
    """The thermostat switch: on at or below ``trigger``, off at or above
    ``high``. ``soc`` may be an array; the result is then one state per
    value."""
    state = (soc >= high) ^ True if on else soc <= trigger  # ^ True negates either
    return state if isinstance(state, np.ndarray) else bool(state)


def _run_length(path: np.ndarray, cs_entered: bool, consulted: bool, genset_on: bool,
                locked_side: bool, trigger: float, high: float) -> int:
    """The number of leading samples of a run that move nothing but SOC.

    ``path`` holds the SOC at each sample of the run and after its last. A
    sample ends the run when the CS latch, the thermostat (when
    ``consulted``) or the lockout side (``soc >= high`` in CS) would change
    there, or when the step after it would empty the battery, clamp SOC at
    100 % or hit an envelope (NaN)."""
    soc, after = path[:-1], path[1:]
    ok = (after > 0.0) & (after <= 100.0)
    if not cs_entered:
        ok &= np.logical_not(soc <= trigger)
    else:
        ok &= (soc >= high) == locked_side
        if consulted:
            ok &= thermostat_state(genset_on, soc, trigger, high) == genset_on
    return ok.size if ok.all() else int(ok.argmin())


def simulate_rule_based(cycle: DriveCycle, vp: VehicleParams,
                        motor_map: EfficiencyMap, drv: DrivetrainParams,
                        bp: BatteryParams, cfg: RuleConfig, calibration: float
                        ) -> tuple[SimTrace, EnergyResult]:
    """Run the rule-based strategy over a cycle.

    Wheel power (scaled by ``calibration``) converts through the motor map
    to electrical demand once for the whole cycle. The gen-set has three
    regimes (off, cranking, warm); for each, the battery current follows
    from the terminal-power inversion (with the regeneration clip) once for
    the whole cycle, plus one regen-lockout value.

    The loop then advances in runs: from each sample, as many samples as
    move nothing but SOC go in one array step, up to ``RUN_SAMPLES`` and
    never past the end of a dwell or a warm-up. Their SOC is
    ``np.subtract.accumulate`` over the SOC and each step's drop, the same
    left-to-right subtractions as one step at a time. The sample that ends
    a run (a CS latch, a thermostat switch, a change of lockout side, a
    clamp at 100 %, an empty battery or an envelope error) takes one scalar
    step, which decides and raises exactly as a sample-by-sample loop does.

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

    # (crank, p_gen) of the regimes off / cranking / warm, and per regime the
    # current and motor power of every sample; entry n has the motor term at
    # 0, for regen lockout at the window top (friction braking only)
    regimes = ((0.0, 0.0), (cfg.crank_power_kw, 0.0),
               (0.0, cfg.genset_point.electrical_power_kw))
    p_motor_ext = np.append(p_motor_series, 0.0)
    limit = cfg.regen_current_limit_a
    currents = np.empty((3, n + 1))
    motors = np.empty((3, n + 1))
    for r, (crank, p_gen) in enumerate(regimes):
        i_r = current_from_power(bp, p_motor_ext + crank - p_gen)
        clip = i_r < -limit  # NaN (outside an envelope) is never clipped
        currents[r] = np.where(clip, -limit, i_r)
        motors[r] = np.where(clip, terminal_power_kw(bp, -limit) + p_gen - crank,
                             p_motor_ext)
    regen = p_motor_series < 0.0
    dt = np.diff(t)

    trigger, high = cfg.cs_trigger, cfg.soc_high
    dwell, warmup = cfg.min_dwell_s, cfg.warmup_s
    regime = np.zeros(n, dtype=np.intp)
    lockout = np.zeros(n, dtype=bool)
    soc_pct = np.empty(n)
    soc = cfg.initial_soc
    cs_entered = False
    k_cs = n
    genset_on = False
    last_change_t = -np.inf
    genset_start_t = -np.inf

    k = 0
    while k < n:
        # a run from k under the state at k; it ends before the warm-up or
        # the dwell runs out, so the regime and whether the thermostat is
        # consulted hold throughout
        now = t.item(k)
        r = (2 if now - genset_start_t >= warmup else 1) if genset_on else 0
        consulted = cs_entered and now - last_change_t >= dwell
        stop = min(k + RUN_SAMPLES, n - 1)
        if r == 1:
            warm = t[k:stop] - genset_start_t >= warmup
            stop -= np.count_nonzero(warm)
        if cs_entered and not consulted:
            passed = t[k:stop] - last_change_t >= dwell
            stop -= np.count_nonzero(passed)
        locked_side = cs_entered and soc >= high
        if locked_side:
            i_run = currents[r, np.where(regen[k:stop], n, np.arange(k, stop))]
        else:
            i_run = currents[r, k:stop]
        path = np.empty(i_run.size + 1)
        path[0] = soc
        path[1:] = soc_drop_pct(bp, i_run, dt[k:stop])
        np.subtract.accumulate(path, out=path)
        m = _run_length(path, cs_entered, consulted, genset_on, locked_side,
                        trigger, high)
        regime[k:k + m] = r
        if locked_side:
            lockout[k:k + m] = regen[k:k + m]
        soc_pct[k:k + m] = path[:m]
        soc = path.item(m)
        k += m

        # the sample that ends the run, one step at a time
        now = t.item(k)
        if not cs_entered and soc <= trigger:
            cs_entered, k_cs = True, k
        if cs_entered and now - last_change_t >= dwell:
            on = thermostat_state(genset_on, soc, trigger, high)
            if on != genset_on:
                genset_on, last_change_t = on, now
                if on:
                    genset_start_t = now
        r = (2 if now - genset_start_t >= warmup else 1) if genset_on else 0
        locked = cs_entered and soc >= high and regen[k]
        j = n if locked else k
        i_batt = currents.item(r, j)
        if math.isnan(i_batt):
            raise_step_error(k, now, motor_map, drv, bp, cycle.v_mps[k], p_wheel[k],
                             motors[r, j], *regimes[r])
        regime[k], lockout[k], soc_pct[k] = r, locked, soc

        if k < n - 1:
            soc -= soc_drop_pct(bp, i_batt, dt.item(k))
            if soc <= 0.0:
                raise InfeasibleVehicleError(
                    f"battery empty at t = {t.item(k + 1):g} s "
                    f"({'CS' if cs_entered else 'CD'} mode); the vehicle cannot "
                    f"complete this cycle")
            soc = min(soc, 100.0)
        k += 1

    column = np.where(lockout, n, np.arange(n))
    mode = np.full(n, MODE_CD, dtype=np.int8)
    mode[k_cs:] = MODE_CS
    warm = regime == 2
    on = regime > 0
    eff = cfg.genset_point.combined_efficiency_pct / 100.0
    p_genset = np.where(warm, cfg.genset_point.electrical_power_kw, 0.0)
    fuel = np.zeros(n)
    fuel[:-1] = p_genset[:-1] / eff * dt / 3600.0
    trace = SimTrace(
        t_s=t.copy(), v_mps=cycle.v_mps.copy(), mode=mode,
        genset_on=on, genset_warm=warm, p_wheel_kw=p_wheel,
        p_motor_elec_kw=motors[regime, column],
        p_genset_elec_kw=p_genset,
        crank_kw=np.where(on & ~warm, cfg.crank_power_kw, 0.0),
        i_batt_a=currents[regime, column],
        soc_pct=soc_pct,
        fuel_step_kwh=fuel,
    )
    return trace, _energy_result(trace, bp, cycle)


def raise_step_error(k, t_k, motor_map, drv, bp, v_k, p_wheel_k, p_motor, crank, p_gen):
    """Explain sample ``k``'s NaN battery current: ``map_lookup`` at the
    motor's operating point (when ``p_motor`` is NaN), then
    ``check_capability``, raise the reason, as an ``EnvelopeError`` naming
    the step. The bus power is ``p_motor + crank - p_gen``."""
    try:
        if math.isnan(p_motor):
            map_lookup(motor_map, *motor_operating_point(motor_map, drv, v_k, p_wheel_k))
        check_capability(bp, p_motor + crank - p_gen)
    except (EnvelopeError, MapDomainError) as exc:
        raise EnvelopeError(f"step {k} (t = {t_k:g} s): {exc}") from None


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
        # the cumulative sum can pass the trapezoid total by an ulp when CS
        # is entered on the last sample
        cs_km = max(total_km - cd_km, 0.0)
        cd_seg = slice(0, k_cs)
        cs_seg = slice(k_cs, trace.n_samples - 1)

    p_chem_kw = bp.v_oc * trace.i_batt_a / 1000.0
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
              ("mode", "%s", _MODE_NAMES, trace.mode),
              ("genset_on", "%d", trace.genset_on),
              ("genset_warm", "%d", trace.genset_warm),
              ("p_wheel_kw", "%.6f", trace.p_wheel_kw),
              ("p_motor_elec_kw", "%.6f", trace.p_motor_elec_kw),
              ("p_genset_elec_kw", "%.6f", trace.p_genset_elec_kw),
              ("crank_kw", "%.6f", trace.crank_kw),
              ("i_batt_a", "%.6f", trace.i_batt_a),
              ("soc_pct", "%.6f", trace.soc_pct),
              ("fuel_step_kwh", "%.9f", trace.fuel_step_kwh))
