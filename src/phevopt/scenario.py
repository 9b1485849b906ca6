"""Scenario files: one structured-text document fully determines a run.

The format is INI-style ``key = value`` sections parsed with the standard
library, without interpolation, so ``%`` is a plain character. Paths are
resolved relative to the scenario file. Map entries accept either a CSV
path or the keyword ``synthetic``.

Each number in ``[vehicle]``, ``[drivetrain]``, ``[maps]``, ``[battery]``,
``[rule]`` and ``[dp]`` is read from the key named after the dataclass
field it fills and defaults to that field's default, so every default is
stated once, on its dataclass. The DP has no SOC window or initial SOC of
its own: it reads ``[rule] soc_low``, ``soc_high`` and ``cs_trigger``, and
the gen-set's limit is the maps'. Numbers are read with
``parse_number``: Python's ``float``, but ASCII without ``_``, finite, and
0 or of a magnitude in ``NUMBER_RANGE``.

``SCHEMA`` below lists every key each section accepts. ``load_scenario``
checks the file against it before it reads any value or file, so a
misspelled key cannot leave its default in place unseen, and is named even
where that default would fail another check. A key that depends on another
setting (a ``sim_*`` metric without ``mode = metrics``, a ``<prefix>_*``
metric without its ``<prefix>_positive_wh_per_km``) is refused once that
setting is read.

Every other rule on a value is stated once, by the record that holds it,
and its refusal begins with the field and its value. ``_build`` puts the
section first, so a refusal reads ``[section] key = value`` and the rule,
or ``[maps] engine = bad.csv: line 2: ...`` for a file a key names.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .accounting import Calibration, calibration_factor
from .cycle import CycleMetrics, DriveCycle, load_cycle, repeat_cycle
from .dpopt import DpConfig, decision_table
from .dpopt.problem import DEFAULT_DELTAS, delta_to_electrical_kw
from .dynamics import VehicleParams
from .ems import RuleConfig
from .errors import CycleFormatError, MapDomainError, MapFormatError, ScenarioError, exact, require
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
        require(0.0 <= self.uf <= 1.0, self, "uf", "must lie in [0, 1]")
        require(0.0 < self.charging_efficiency <= 1.0, self, "charging_efficiency",
                "must lie in (0, 1]")


def _float_defaults(cls) -> dict[str, float]:
    """The fields of ``cls`` that a scenario key named after them fills,
    with their defaults."""
    return {f.name: f.default for f in fields(cls) if isinstance(f.default, float)}


# read only where <prefix>_positive_wh_per_km is set
_OPTIONAL_METRICS = ("peak_power_kw", "avg_positive_power_kw", "percent_idle")

#: Most samples a trip may have: a run's per-sample series (trace, wheel and
#: motor power, CSV rows) take about 240 bytes a sample, and 128 MiB of them
#: hold 2**19 samples, 380 laps of the shipped cycle.
MAX_SAMPLES = 2**27 // 256

#: Every key each section accepts. ``load_scenario`` refuses any other
#: section or key before it reads a value or a file.
SCHEMA: dict[str, set[str]] = {
    "cycle": {"path", "laps"},
    "vehicle": {*_float_defaults(VehicleParams)},
    "drivetrain": {*_float_defaults(DrivetrainParams)},
    "maps": {*_float_defaults(PowertrainAssembly), "motor", "engine", "generator"},
    "battery": {*_float_defaults(BatteryParams)},
    "rule": {*_float_defaults(RuleConfig), "genset_speed_rpm"},
    "dp": ({*_float_defaults(DpConfig), "deltas", "efficiencies"}
           - {"c_batt_kwh", "soc_min", "soc_max"}),
    "accounting": {"uf", "charging_efficiency"},
    "calibration": {"mode", *(
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


def _get_floats(sec, key: str) -> tuple[float, ...]:
    # only ASCII blanks are stripped, so a no-break space stays in its entry
    entries = (x.strip(" \t\n") for x in sec[key].split(","))
    return tuple(_to_float(sec, key, x) for x in entries if x)


def _build(section: str, make, *args, named: str = "",
           keys: dict[str, str] | None = None, **kwargs):
    """``make(*args, **kwargs)``, with a refusal re-raised as a ``ScenarioError``
    that begins ``[section]``, then ``named``, the setting a file's format or
    a map's domain error is about (``engine = bad.csv``); a record's
    ``ValueError`` names its fields, each in ``keys`` as the key that sets it."""
    try:
        return make(*args, **kwargs)
    except (ValueError, CycleFormatError, MapFormatError, MapDomainError) as exc:
        text = re.sub(r"[\w.]+", lambda m: (keys or {}).get(m[0], m[0]), str(exc))
        raise ScenarioError(f"[{section}] {named + ': ' if named else ''}{text}") from None


def _fill(cls, sec, keys: dict[str, str] | None = None, **given):
    """``cls(**given)`` through ``_build``, where every field with a float
    default not given is read from the key named after it, or defaults."""
    for name, default in _float_defaults(cls).items():
        if name not in given:
            given[name] = _get_float(sec, name, default)
    return _build(sec.name, cls, keys=keys, **given)


def _metrics_from(sec, prefix: str) -> CycleMetrics | None:
    energy = f"{prefix}_positive_wh_per_km"
    keys = {"positive_propulsion_wh_per_km": energy,
            **{m: f"{prefix}_{m}" for m in _OPTIONAL_METRICS}}
    if not sec.get(energy, "").strip():
        for m in _OPTIONAL_METRICS:
            if keys[m] in sec:
                raise _never_read(sec.name, keys[m])
        return None
    avg = _get_float(sec, keys["avg_positive_power_kw"], 0.0)
    return _build(sec.name, CycleMetrics, keys=keys,
                  positive_propulsion_wh_per_km=_get_float(sec, energy),
                  peak_power_kw=_get_float(sec, keys["peak_power_kw"], avg),
                  avg_positive_power_kw=avg,
                  percent_idle=_get_float(sec, keys["percent_idle"], 0.0))


def load_scenario(path) -> Scenario:
    """Parse and compose a scenario file.

    Raises
    ------
    FileNotFoundError
        When the scenario or a referenced file does not exist.
    ScenarioError
        When a section or key is never read, checked first, a required key
        is missing, or a value, a file a key names or the gen-set sizing is
        refused; the message begins with the section.
    EnvelopeError
        When the gen-set cannot deliver the largest increment's power.
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
    if not (laps.is_integer() and laps >= 1):
        raise ScenarioError(f"[cycle] laps = {exact(laps)} is not a positive whole number")
    lap = _build("cycle", load_cycle, base / cycle_path, named=f"path = {cycle_path}")
    if laps > (MAX_SAMPLES - 1) // (lap.n_samples - 1):  # laps share an end sample
        raise ScenarioError(f"[cycle] laps = {exact(laps)} gives a trip of more than "
                            f"{MAX_SAMPLES} samples, the limit")
    cycle = repeat_cycle(lap, int(laps))

    vp = _fill(VehicleParams, cp["vehicle"])
    drv = _fill(DrivetrainParams, cp["drivetrain"])
    sec, maps = cp["maps"], {}
    for key, synthetic in (("motor", synthetic_motor_map), ("engine", synthetic_engine_map),
                           ("generator", synthetic_generator_map)):
        raw = sec.get(key, "synthetic").strip()
        maps[f"{key}_map"] = synthetic() if raw == "synthetic" else _build(
            "maps", load_map, base / raw, named=f"{key} = {raw}")
    assembly = _fill(PowertrainAssembly, sec, drivetrain=drv, **maps)
    bp = _fill(BatteryParams, cp["battery"])

    sec = cp["dp"]
    dt_s = _get_float(sec, "dt_s", DpConfig.dt_s)
    # the gen-set sizing divides by it, and a run needs one whole interval
    if not 0 < dt_s <= cycle.duration_s:
        raise ScenarioError(f"[dp] dt_s = {exact(dt_s)} must be positive and at most the "
                            f"trip's {exact(cycle.duration_s)} s")
    deltas = _get_floats(sec, "deltas") if "deltas" in sec else DEFAULT_DELTAS
    if not deltas:
        raise ScenarioError("[dp] deltas must list at least one charge increment")
    if min(deltas) <= 0:
        raise ScenarioError(f"[dp] deltas entry {exact(min(deltas))} must be positive")

    speed = _get_float(cp["rule"], "genset_speed_rpm", 2600.0)
    # the rule's point is sized for the largest increment
    genset_point = _build(
        "rule", assembly.genset_point, speed,
        delta_to_electrical_kw(max(deltas), dt_s, bp.c_batt_kwh),
        named=f"genset_speed_rpm = {exact(speed)} through [maps] belt_ratio = "
              f"{exact(assembly.belt_ratio)}")
    rule = _fill(RuleConfig, cp["rule"], genset_point=genset_point)

    if sec.get("efficiencies", "auto").strip() == "auto":
        # every increment runs the rule's point; the smaller ones duty-cycle
        # it within the interval
        effs = (genset_point.combined_efficiency_pct,) * len(deltas)
    else:
        effs = _get_floats(sec, "efficiencies")
        if len(effs) != len(deltas):
            raise ScenarioError("[dp] efficiencies must match deltas in length")
    decisions = _build("dp", decision_table, deltas, effs,
                       keys={"efficiency_pct": "efficiencies"})

    # the thermostat's window and CS start are the DP's
    dp = _fill(DpConfig, sec, keys={"c_batt_kwh": "[battery] c_batt_kwh"}, dt_s=dt_s,
               soc_min=rule.soc_low, soc_max=rule.soc_high, initial_soc=rule.cs_trigger,
               decisions=decisions, c_batt_kwh=bp.c_batt_kwh)

    sec = cp["accounting"]
    if not sec.get("uf", "").strip():
        raise ScenarioError(
            "[accounting] must set 'uf': the utility factor has no default")
    uf = _get_float(sec, "uf")
    charging_eff = _get_float(sec, "charging_efficiency", 0.83)

    sec = cp["calibration"]
    mode = sec.get("mode", "none").strip()
    if mode not in ("none", "metrics"):
        raise ScenarioError(f"[calibration] unknown mode {mode!r}")
    for key in sec:
        if key.startswith("sim_") and mode != "metrics":
            raise _never_read("calibration", key)
    sim = _metrics_from(sec, "sim")
    test_metrics = _metrics_from(sec, "test")
    if mode == "none":
        calibration = Calibration(energy_scale=1.0)
    else:
        if sim is None or test_metrics is None:
            raise ScenarioError(
                "[calibration] mode = metrics needs sim_* and test_* entries")
        calibration = _build("calibration", calibration_factor, sim, test_metrics, keys={
            f"{p}.positive_propulsion_wh_per_km": f"{p}_positive_wh_per_km"
            for p in ("sim", "test")})
    return _build(
        "accounting", Scenario, laps=int(laps), cycle=cycle, vp=vp, assembly=assembly,
        bp=bp, rule=rule, dp=dp, uf=uf, charging_efficiency=charging_eff,
        calibration=calibration, test_metrics=test_metrics)
