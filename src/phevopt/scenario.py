"""Scenario files: one structured-text document fully determines a run.

The format is INI-style ``key = value`` sections parsed with the standard
library, without interpolation, so ``%`` is a plain character. Paths are
resolved relative to the scenario file. Map entries accept either a CSV
path or the keyword ``synthetic``.

Each number in ``[vehicle]``, ``[drivetrain]``, ``[maps]``, ``[battery]``,
``[rule]`` and ``[dp]`` is read from the key named after the dataclass
field it fills and defaults to that field's default, so every default is
stated once, on its dataclass; only the ``[dp]`` SOC window and initial
SOC default to ``[rule]`` values instead. Numbers are read with Python's
``float`` but must be ASCII without ``_``.

``SCHEMA`` below lists every key each section accepts. ``load_scenario``
checks the file against it before it reads any value or file, so a
misspelled key cannot leave its default in place unseen, and is named even
where that default would fail another check. A key that depends on another
setting (``[calibration] scale`` without ``mode = explicit``, a ``sim_*``
metric without ``mode = metrics``, a ``<prefix>_*`` metric without its
``<prefix>_positive_wh_per_km``) is refused once that setting is read.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

from .accounting import Calibration, calibration_factor
from .cycle import CycleMetrics, DriveCycle, load_cycle, repeat_cycle
from .dpopt import DpConfig, TerminalRule, decision_table
from .dpopt.problem import DEFAULT_DELTAS, delta_to_electrical_kw
from .dynamics import VehicleParams
from .ems import RuleConfig
from .errors import ScenarioError
from .powertrain import (
    BatteryParams,
    DrivetrainParams,
    PowertrainAssembly,
    load_map,
    parse_number,
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

    def __post_init__(self) -> None:
        # written so that NaN is refused too; load_scenario names the keys first
        if not 0.0 <= self.uf <= 1.0:
            raise ValueError("utility factor must lie in [0, 1]")
        if not 0.0 < self.charging_efficiency <= 1.0:
            raise ValueError("charging efficiency must lie in (0, 1]")


def _float_defaults(cls) -> dict[str, float]:
    """The fields of ``cls`` that a scenario key named after them fills,
    with their defaults."""
    return {f.name: f.default for f in fields(cls) if isinstance(f.default, float)}


# read only where <prefix>_positive_wh_per_km is set
_OPTIONAL_METRICS = ("peak_power_kw", "avg_positive_power_kw", "percent_idle")

#: Every key each section accepts. ``load_scenario`` refuses any other
#: section or key before it reads a value or a file.
SCHEMA: dict[str, set[str]] = {
    "cycle": {"path", "laps"},
    "vehicle": {*_float_defaults(VehicleParams)},
    "drivetrain": {*_float_defaults(DrivetrainParams)},
    "maps": {*_float_defaults(PowertrainAssembly), "motor", "engine", "generator"},
    "battery": {*_float_defaults(BatteryParams)},
    "rule": {*_float_defaults(RuleConfig), "genset_speed_rpm", "genset_electrical_kw"},
    "dp": {*_float_defaults(DpConfig), "initial_soc", "deltas", "efficiencies",
           "obd_enabled", "terminal"} - {"c_batt_kwh"},
    "accounting": {"uf", "charging_efficiency"},
    "calibration": {"mode", "scale", *(
        f"{prefix}_{m}" for prefix in ("sim", "test")
        for m in ("positive_wh_per_km", *_OPTIONAL_METRICS))},
}


def _never_read(section: str, key: str) -> ScenarioError:
    return ScenarioError(f"[{section}] {key} is never read (unknown key or "
                         "section, or unused with these settings)")


def _get_float(sec, key: str, default: float | None = None) -> float:
    raw = sec.get(key, None)
    if raw is None or raw.strip() == "":
        if default is None:
            raise ScenarioError(f"[{sec.name}] is missing required key {key!r}")
        return default
    return _to_float(sec, key, raw)


def _to_float(sec, key: str, raw: str) -> float:
    try:
        return parse_number(raw)
    except ValueError as exc:
        raise ScenarioError(f"[{sec.name}] {key} = {raw!r} {exc}") from None


def _percent(sec, key: str, value: float) -> float:
    """An SOC setting, refused unless it lies in [0, 100]."""
    if not 0.0 <= value <= 100.0:
        raise ScenarioError(f"[{sec.name}] {key} = {value:g} lies outside [0, 100]")
    return value


def _get_floats(sec, key: str) -> tuple[float, ...]:
    # only ASCII blanks are stripped, so a no-break space stays in its entry
    entries = (x.strip(" \t\n") for x in sec[key].split(","))
    return tuple(_to_float(sec, key, x) for x in entries if x)


def _fill(cls, sec, **given):
    """``cls(**given)``, where every field with a float default that is not
    given is read from the key named after it, defaulting to that default."""
    for name, default in _float_defaults(cls).items():
        if name not in given:
            given[name] = _get_float(sec, name, default)
    return cls(**given)


def _load_map_entry(sec, key: str, base: Path, synth_factory):
    raw = sec.get(key, "synthetic").strip()
    if raw == "synthetic":
        return synth_factory()
    return load_map(base / raw)


def _metrics_from(sec, prefix: str) -> CycleMetrics | None:
    if not sec.get(f"{prefix}_positive_wh_per_km", "").strip():
        for m in _OPTIONAL_METRICS:
            if f"{prefix}_{m}" in sec:
                raise _never_read(sec.name, f"{prefix}_{m}")
        return None
    avg = _get_float(sec, f"{prefix}_avg_positive_power_kw", 0.0)
    if avg < 0:
        raise ScenarioError(
            f"[calibration] {prefix}_avg_positive_power_kw = {avg:g} is negative")
    peak = _get_float(sec, f"{prefix}_peak_power_kw", avg)
    if peak < avg:
        raise ScenarioError(f"[calibration] {prefix}_peak_power_kw = {peak:g} lies "
                            f"below {prefix}_avg_positive_power_kw = {avg:g}")
    idle = _get_float(sec, f"{prefix}_percent_idle", 0.0)
    if not 0.0 <= idle <= 100.0:
        raise ScenarioError(
            f"[calibration] {prefix}_percent_idle = {idle:g} lies outside [0, 100]")
    return CycleMetrics(
        positive_propulsion_wh_per_km=_get_float(sec, f"{prefix}_positive_wh_per_km"),
        peak_power_kw=peak,
        avg_positive_power_kw=avg,
        percent_idle=idle,
    )


def load_scenario(path) -> Scenario:
    """Parse and compose a scenario file.

    Raises
    ------
    FileNotFoundError
        When the scenario or a referenced file does not exist.
    ScenarioError
        When a section or key is never read, checked first, or a required
        key is missing or malformed.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    # a [DEFAULT] key shows in every section, so it is reported first
    for name in (cp.default_section, *cp.sections()):
        for key in cp[name]:
            if key not in SCHEMA.get(name, ()):
                raise _never_read(name, key)
    cp.read_dict(dict.fromkeys(SCHEMA, {}))
    base = path.parent

    sec = cp["cycle"]
    cycle_path = sec.get("path", "").strip()
    if not cycle_path:
        raise ScenarioError("[cycle] is missing required key 'path'")
    laps = _get_float(sec, "laps", 1.0)
    if not laps.is_integer():
        raise ScenarioError(f"[cycle] laps = {laps:g} is not a whole number")
    cycle = repeat_cycle(load_cycle(base / cycle_path), int(laps))

    vp = _fill(VehicleParams, cp["vehicle"])
    drv = _fill(DrivetrainParams, cp["drivetrain"])
    sec = cp["maps"]
    assembly = _fill(
        PowertrainAssembly, sec,
        motor_map=_load_map_entry(sec, "motor", base, synthetic_motor_map),
        engine_map=_load_map_entry(sec, "engine", base, synthetic_engine_map),
        generator_map=_load_map_entry(sec, "generator", base, synthetic_generator_map),
        drivetrain=drv)
    bp = _fill(BatteryParams, cp["battery"])

    sec = cp["dp"]
    dt_s = _get_float(sec, "dt_s", DpConfig.dt_s)
    if dt_s <= 0:
        raise ScenarioError(f"[dp] dt_s = {dt_s:g} must be positive")
    deltas = _get_floats(sec, "deltas") if "deltas" in sec else DEFAULT_DELTAS
    if not deltas:
        raise ScenarioError("[dp] deltas must list at least one charge increment")
    if min(deltas) <= 0:
        raise ScenarioError(f"[dp] deltas entry {min(deltas):g} must be positive")

    sec_rule = cp["rule"]
    genset_speed = _get_float(sec_rule, "genset_speed_rpm", 2600.0)
    sized_kw = delta_to_electrical_kw(max(deltas), dt_s, bp.c_batt_kwh)
    if sec_rule.get("genset_electrical_kw", "auto").strip() == "auto":
        genset_kw = sized_kw
    else:
        genset_kw = _get_float(sec_rule, "genset_electrical_kw")
    genset_point = assembly.genset_point(genset_speed, genset_kw)
    rule = _fill(RuleConfig, sec_rule, genset_point=genset_point)
    for key in ("soc_low", "cs_trigger", "soc_high"):
        _percent(sec_rule, key, getattr(rule, key))

    if sec.get("efficiencies", "auto").strip() == "auto":
        # every increment runs the point sized for the largest one; the
        # smaller ones duty-cycle it within the interval
        sized = (genset_point if genset_kw == sized_kw
                 else assembly.genset_point(genset_speed, sized_kw))
        effs = (sized.combined_efficiency_pct,) * len(deltas)
    else:
        effs = _get_floats(sec, "efficiencies")
        if len(effs) != len(deltas):
            raise ScenarioError("[dp] efficiencies must match deltas in length")
    try:
        decisions = decision_table(deltas, effs)
    except ValueError as exc:
        raise ScenarioError(f"[dp] {exc}") from None

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

    soc_min = _percent(sec, "soc_min", _get_float(sec, "soc_min", rule.soc_low))
    soc_max = _percent(sec, "soc_max", _get_float(sec, "soc_max", rule.soc_high))
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

    sec = cp["accounting"]
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

    sec = cp["calibration"]
    mode = sec.get("mode", "none").strip()
    if mode not in ("none", "explicit", "metrics"):
        raise ScenarioError(f"[calibration] unknown mode {mode!r}")
    for key in sec:
        if ((key == "scale" and mode != "explicit")
                or (key.startswith("sim_") and mode != "metrics")):
            raise _never_read("calibration", key)
    sim = _metrics_from(sec, "sim")
    test_metrics = _metrics_from(sec, "test")
    if mode == "none":
        calibration = Calibration(energy_scale=1.0)
    elif mode == "explicit":
        calibration = Calibration(energy_scale=_get_float(sec, "scale"))
    else:
        if sim is None or test_metrics is None:
            raise ScenarioError(
                "[calibration] mode = metrics needs sim_* and test_* entries")
        calibration = calibration_factor(sim, test_metrics)
    return Scenario(
        laps=int(laps), cycle=cycle, vp=vp, assembly=assembly, bp=bp, rule=rule,
        dp=dp, uf=uf, charging_efficiency=charging_eff, calibration=calibration,
        test_metrics=test_metrics,
    )
