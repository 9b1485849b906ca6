"""Scenario files: one structured-text document fully determines a run.

The format is INI-style ``key = value`` sections parsed with the standard
library. Paths are resolved relative to the scenario file. Map entries
accept either a CSV path or the keyword ``synthetic``.

Each number in ``[vehicle]``, ``[drivetrain]``, ``[maps]``, ``[battery]``,
``[rule]`` and ``[dp]`` is read from the key named after the dataclass
field it fills and defaults to that field's default, so every default is
stated once, on its dataclass; only the ``[dp]`` SOC window and initial
SOC default to ``[rule]`` values instead. A section or key that loading
does not read is rejected, so a misspelled key cannot leave its default in
place unseen.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .accounting import Calibration, calibration_factor
from .cycle import CycleMetrics, DriveCycle, load_cycle, repeat_cycle
from .dpopt import Decision, DpConfig, TerminalRule, default_decisions, null_decision
from .dpopt.problem import DEFAULT_DELTAS, delta_to_electrical_kw
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


class _Parser(configparser.ConfigParser):
    """An INI parser that records every ``(section, key)`` looked up."""

    def __init__(self) -> None:
        super().__init__(inline_comment_prefixes=("#",))
        self.read_keys: set[tuple[str, str]] = set()

    def get(self, section, option, **kwargs):
        self.read_keys.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)


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


def _get_floats(sec, key: str) -> tuple[float, ...]:
    return tuple(_to_float(sec, key, x.strip()) for x in sec[key].split(",") if x.strip())


def _fill(cls, sec, **given):
    """``cls(**given)``, where every field with a float default that is not
    given is read from the key named after it, defaulting to that default."""
    for f in fields(cls):
        if f.name not in given and isinstance(f.default, float):
            given[f.name] = _get_float(sec, f.name, f.default)
    return cls(**given)


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
    if peak < avg:
        raise ScenarioError(f"[calibration] {prefix}_peak_power_kw = {peak:g} lies "
                            f"below {prefix}_avg_positive_power_kw = {avg:g}")
    return CycleMetrics(
        positive_propulsion_wh_per_km=_get_float(sec, f"{prefix}_positive_wh_per_km"),
        peak_power_kw=peak,
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
        When a required key is missing or malformed, or a section or key
        is never read.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    cp = _Parser()
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

    vp = _fill(VehicleParams, _section(cp, "vehicle"))
    drv = _fill(DrivetrainParams, _section(cp, "drivetrain"))
    sec = _section(cp, "maps")
    assembly = _fill(
        PowertrainAssembly, sec,
        motor_map=_load_map_entry(sec, "motor", base, synthetic_motor_map),
        engine_map=_load_map_entry(sec, "engine", base, synthetic_engine_map),
        generator_map=_load_map_entry(sec, "generator", base, synthetic_generator_map),
        drivetrain=drv)
    bp = _fill(BatteryParams, _section(cp, "battery"))

    sec = _section(cp, "dp")
    dt_s = _get_float(sec, "dt_s", DpConfig.dt_s)
    if dt_s <= 0:
        raise ScenarioError(f"[dp] dt_s = {dt_s:g} must be positive")
    deltas = _get_floats(sec, "deltas") if "deltas" in sec else DEFAULT_DELTAS
    if not deltas:
        raise ScenarioError("[dp] deltas must list at least one charge increment")
    if min(deltas) <= 0:
        raise ScenarioError(f"[dp] deltas entry {min(deltas):g} must be positive")

    sec_rule = _section(cp, "rule")
    genset_speed = _get_float(sec_rule, "genset_speed_rpm", 2600.0)
    sized_kw = delta_to_electrical_kw(max(deltas), dt_s, bp.c_batt_kwh)
    if sec_rule.get("genset_electrical_kw", "auto").strip() == "auto":
        genset_kw = sized_kw
    else:
        genset_kw = _get_float(sec_rule, "genset_electrical_kw")
    genset_point = assembly.genset_point(genset_speed, genset_kw)
    rule = _fill(RuleConfig, sec_rule, genset_point=genset_point)

    if sec.get("efficiencies", "auto").strip() == "auto":
        # the decisions run the point sized for the largest increment
        sized = (genset_point if genset_kw == sized_kw
                 else assembly.genset_point(genset_speed, sized_kw))
        decisions = default_decisions(sized, deltas)
    else:
        effs = _get_floats(sec, "efficiencies")
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

    dp = _fill(DpConfig, sec, dt_s=dt_s, soc_min=soc_min, soc_max=soc_max,
               decisions=decisions, terminal_rule=terminal, obd_enabled=obd_enabled,
               c_batt_kwh=bp.c_batt_kwh, initial_soc=initial_soc)
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

    # a [DEFAULT] key shows in every section, so it is reported first
    for name in (cp.default_section, *cp.sections()):
        for key in cp[name]:
            if (name, key) not in cp.read_keys:
                raise ScenarioError(f"[{name}] {key} is never read (unknown key or "
                                    "section, or unused with these settings)")
    return Scenario(
        laps=int(laps), cycle=cycle, vp=vp, assembly=assembly, bp=bp, rule=rule,
        dp=dp, uf=uf, charging_efficiency=charging_eff, calibration=calibration,
        test_metrics=test_metrics,
    )
