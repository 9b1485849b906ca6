"""Scenario files: one structured-text document fully determines a run.

The format is INI-style ``key = value`` sections parsed with the standard
library. Paths are resolved relative to the scenario file. Map entries
accept either a CSV path or the keyword ``synthetic``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .accounting import Calibration, calibration_factor
from .cycle import CycleMetrics, DriveCycle, load_cycle, repeat_cycle
from .dpopt import Decision, DpConfig, TerminalRule, default_decisions, null_decision
from .dpopt.problem import delta_to_electrical_kw
from .dynamics import VehicleParams
from .ems import RuleConfig
from .errors import ScenarioError
from .powertrain import (
    BatteryParams,
    DrivetrainParams,
    PowertrainAssembly,
    load_map,
    synthetic_engine_map,
    synthetic_generator_map,
    synthetic_motor_map,
)


@dataclass
class Scenario:
    """Everything one command needs, already validated and composed."""

    laps: int
    cycle: DriveCycle
    vp: VehicleParams
    assembly: PowertrainAssembly
    bp: BatteryParams
    rule: RuleConfig
    dp: DpConfig
    uf: float
    charging_efficiency: float
    calibration: Calibration
    test_metrics: CycleMetrics | None


def _section(cp: configparser.ConfigParser, name: str) -> configparser.SectionProxy:
    if not cp.has_section(name):
        cp.add_section(name)
    return cp[name]


def _get_float(sec, key: str, default: float | None = None) -> float:
    raw = sec.get(key, None)
    if raw is None or raw.strip() == "":
        if default is None:
            raise ScenarioError(f"[{sec.name}] is missing required key {key!r}")
        return default
    return _to_float(sec, key, raw)


def _to_float(sec, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"[{sec.name}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ScenarioError(f"[{sec.name}] {key} = {raw!r} is not a finite number")
    return value


def _get_floats(sec, key: str, default: str) -> tuple[float, ...]:
    raw = sec.get(key, default)
    return tuple(_to_float(sec, key, x.strip()) for x in raw.split(",") if x.strip())


def _load_map_entry(sec, key: str, base: Path, synth_factory):
    raw = sec.get(key, "synthetic").strip()
    if raw == "synthetic":
        return synth_factory()
    return load_map(base / raw)


def _metrics_from(sec, prefix: str) -> CycleMetrics | None:
    if not sec.get(f"{prefix}_positive_wh_per_km", "").strip():
        return None
    avg = _get_float(sec, f"{prefix}_avg_positive_power_kw", 0.0)
    peak = _get_float(sec, f"{prefix}_peak_power_kw", avg)
    return CycleMetrics(
        positive_propulsion_wh_per_km=_get_float(sec, f"{prefix}_positive_wh_per_km"),
        peak_power_kw=max(peak, avg),
        avg_positive_power_kw=avg,
        percent_idle=_get_float(sec, f"{prefix}_percent_idle", 0.0),
    )


def load_scenario(path) -> Scenario:
    """Parse and compose a scenario file.

    Raises
    ------
    FileNotFoundError
        When the scenario or a referenced file does not exist.
    ScenarioError
        When a required key is missing or malformed.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    base = path.parent

    sec = _section(cp, "cycle")
    cycle_path = sec.get("path", "").strip()
    if not cycle_path:
        raise ScenarioError("[cycle] is missing required key 'path'")
    laps = _get_float(sec, "laps", 1.0)
    if not laps.is_integer():
        raise ScenarioError(f"[cycle] laps = {laps:g} is not a whole number")
    cycle = repeat_cycle(load_cycle(base / cycle_path), int(laps))

    sec = _section(cp, "vehicle")
    vp = VehicleParams(
        m=_get_float(sec, "m", 2100.0),
        m_t=_get_float(sec, "m_t", 2800.0),
        i=_get_float(sec, "i", 1.04),
        cdaf=_get_float(sec, "cdaf", 0.75),
        crr=_get_float(sec, "crr", 0.009),
        rho=_get_float(sec, "rho", 1.20),
        g=_get_float(sec, "g", 9.81),
    )

    sec = _section(cp, "drivetrain")
    drv = DrivetrainParams(
        gear_ratio=_get_float(sec, "gear_ratio", 7.82),
        wheel_radius_m=_get_float(sec, "wheel_radius_m", 0.3348),
    )

    sec = _section(cp, "maps")
    assembly = PowertrainAssembly(
        motor_map=_load_map_entry(sec, "motor", base, synthetic_motor_map),
        engine_map=_load_map_entry(sec, "engine", base, synthetic_engine_map),
        generator_map=_load_map_entry(sec, "generator", base, synthetic_generator_map),
        belt_ratio=_get_float(sec, "belt_ratio", 2.7),
        belt_efficiency=_get_float(sec, "belt_efficiency", 1.0),
        drivetrain=drv,
    )

    sec = _section(cp, "battery")
    bp = BatteryParams(
        c_batt_kwh=_get_float(sec, "c_batt_kwh", 18.9),
        r_in_ohm=_get_float(sec, "r_in_ohm", 0.08),
        v_oc=_get_float(sec, "v_oc", 340.0),
    )

    sec = _section(cp, "dp")
    dt_s = _get_float(sec, "dt_s", 10.0)
    if dt_s <= 0:
        raise ScenarioError(f"[dp] dt_s = {dt_s:g} must be positive")
    deltas = _get_floats(sec, "deltas", "0.051, 0.294, 0.567")
    if not deltas:
        raise ScenarioError("[dp] deltas must list at least one charge increment")
    if min(deltas) <= 0:
        raise ScenarioError(f"[dp] deltas entry {min(deltas):g} must be positive")
    c_batt = bp.c_batt_kwh

    sec_rule = _section(cp, "rule")
    genset_speed = _get_float(sec_rule, "genset_speed_rpm", 2600.0)
    sized_kw = delta_to_electrical_kw(max(deltas), dt_s, c_batt)
    if sec_rule.get("genset_electrical_kw", "auto").strip() == "auto":
        genset_kw = sized_kw
    else:
        genset_kw = _get_float(sec_rule, "genset_electrical_kw")
    genset_point = assembly.genset_point(genset_speed, genset_kw)
    rule = RuleConfig(
        genset_point=genset_point,
        soc_high=_get_float(sec_rule, "soc_high", 17.0),
        soc_low=_get_float(sec_rule, "soc_low", 12.0),
        cs_trigger=_get_float(sec_rule, "cs_trigger", 14.0),
        min_dwell_s=_get_float(sec_rule, "min_dwell_s", 10.0),
        warmup_s=_get_float(sec_rule, "warmup_s", 20.0),
        crank_power_kw=_get_float(sec_rule, "crank_power_kw", 2.0),
        regen_current_limit_a=_get_float(sec_rule, "regen_current_limit_a", 150.0),
        initial_soc=_get_float(sec_rule, "initial_soc", 70.0),
    )

    if sec.get("efficiencies", "auto").strip() == "auto":
        # the decisions run the point sized for the largest increment
        sized = (genset_point if genset_kw == sized_kw
                 else assembly.genset_point(genset_speed, sized_kw))
        decisions = default_decisions(sized, deltas)
    else:
        effs = _get_floats(sec, "efficiencies", "")
        if len(effs) != len(deltas):
            raise ScenarioError("[dp] efficiencies must match deltas in length")
        decisions = (null_decision(),) + tuple(
            Decision(d, e, f"b{d:g}") for d, e in sorted(zip(deltas, effs)))

    try:
        obd_enabled = sec.getboolean("obd_enabled", fallback=False)
    except ValueError:
        raise ScenarioError(f"[dp] obd_enabled = {sec['obd_enabled']!r} "
                            "is not a boolean") from None

    terminal_raw = sec.get("terminal", "initial").strip()
    if terminal_raw == "initial":
        terminal = TerminalRule.initial()
    elif terminal_raw == "soc_min":
        terminal = TerminalRule.at_soc_min()
    else:
        terminal = TerminalRule.at(_get_float(sec, "terminal"))

    soc_min = _get_float(sec, "soc_min", rule.soc_low)
    soc_max = _get_float(sec, "soc_max", rule.soc_high)
    initial_soc = _get_float(sec, "initial_soc", rule.cs_trigger)
    if not soc_min <= initial_soc <= soc_max:
        named = (f"[dp] initial_soc = {initial_soc:g}"
                 if sec.get("initial_soc", "").strip() else
                 f"[rule] cs_trigger = {initial_soc:g}, the default [dp] initial_soc,")
        raise ScenarioError(f"{named} lies outside the SOC window "
                            f"[{soc_min:g}, {soc_max:g}]")

    dp = DpConfig(
        dt_s=dt_s,
        soc_min=soc_min,
        soc_max=soc_max,
        grid_step=_get_float(sec, "grid_step", 0.01),
        decisions=decisions,
        terminal_rule=terminal,
        obd_enabled=obd_enabled,
        obd_energy_per_event_kwh=_get_float(sec, "obd_energy_per_event_kwh", 0.00497),
        c_batt_kwh=c_batt,
        p_genset_max_kw=_get_float(sec, "p_genset_max_kw", 40.0),
        initial_soc=initial_soc,
    )
    if terminal.kind == "threshold" and terminal.value > dp.soc_max:
        raise ScenarioError(f"[dp] terminal = {terminal.value:g} lies above "
                            f"soc_max = {dp.soc_max:g} and can never be met")

    sec = _section(cp, "accounting")
    if "uf" not in sec or not sec.get("uf", "").strip():
        raise ScenarioError(
            "[accounting] must set 'uf': the utility factor has no default")
    uf = _get_float(sec, "uf")
    if not (0.0 <= uf <= 1.0):
        raise ScenarioError("[accounting] uf must lie in [0, 1]")
    charging_eff = _get_float(sec, "charging_efficiency", 0.83)
    if not (0.0 < charging_eff <= 1.0):
        raise ScenarioError(
            f"[accounting] charging_efficiency = {charging_eff:g} must lie in (0, 1]")

    sec = _section(cp, "calibration")
    mode = sec.get("mode", "none").strip()
    sim = _metrics_from(sec, "sim")
    test_metrics = _metrics_from(sec, "test")
    if mode == "none":
        calibration = Calibration(energy_scale=1.0)
    elif mode == "explicit":
        calibration = Calibration(energy_scale=_get_float(sec, "scale"))
    elif mode == "metrics":
        if sim is None or test_metrics is None:
            raise ScenarioError(
                "[calibration] mode = metrics needs sim_* and test_* entries")
        calibration = calibration_factor(sim, test_metrics)
    else:
        raise ScenarioError(f"[calibration] unknown mode {mode!r}")

    return Scenario(
        laps=int(laps), cycle=cycle, vp=vp, assembly=assembly, bp=bp, rule=rule,
        dp=dp, uf=uf, charging_efficiency=charging_eff, calibration=calibration,
        test_metrics=test_metrics,
    )
