"""Component models: efficiency maps, gen-set merging, and the battery.

Efficiency maps are node grids over (speed rpm, torque Nm) with NaN marking
the infeasible region outside a component's envelope; lookups are bilinear.
Maps are loaded from CSV matrices or generated synthetically (the
published figures carry no numeric tables, so the bundled defaults are
fixed stand-ins and are labeled as such).

The battery is an internal-resistance model with one constant open-circuit
voltage: terminal power V_oc*I - R*I^2, and SOC integrated from the
chemistry power V_oc*I. Current is discharge-positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyMapError,
    EnvelopeError,
    MapDomainError,
    MapFormatError,
)

RAD_S_PER_RPM = 2.0 * math.pi / 60.0
MOTOR_V_MIN_MPS = 0.05  # below this speed the traction motor is off

_W_SNAP = 1e-12  # interpolation weights below this snap onto the node


# ---------------------------------------------------------------------------
# Efficiency maps


@dataclass
class EfficiencyMap:
    """Efficiency in % on a (speed, torque) node grid; NaN = infeasible.

    ``values[i, j]`` is the efficiency at ``speed_axis[i]``,
    ``torque_axis[j]``. Feasible nodes must lie in (0, 100].
    """

    speed_axis: np.ndarray   # rpm, strictly ascending
    torque_axis: np.ndarray  # Nm, strictly ascending
    values: np.ndarray       # %, shape (n_speed, n_torque)
    label: str = ""

    def __post_init__(self) -> None:
        self.speed_axis = np.asarray(self.speed_axis, dtype=float)
        self.torque_axis = np.asarray(self.torque_axis, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        for axis in (self.speed_axis, self.torque_axis):
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError("map axes need at least two points")
            if not np.all(np.diff(axis) > 0):
                raise ValueError("map axes must be strictly ascending")
        if self.values.shape != (self.speed_axis.size, self.torque_axis.size):
            raise ValueError("values shape must be (n_speed, n_torque)")
        finite = self.values[np.isfinite(self.values)]
        if finite.size and (np.any(finite <= 0) or np.any(finite > 100)):
            raise ValueError("feasible map values must lie in (0, 100]")


def _cells(axis: np.ndarray, x):
    """Enclosing cell indices and fractional positions, snapped onto nodes,
    and whether each point lies on the axis."""
    x = np.asarray(x, dtype=float)
    i = axis[1:-1].searchsorted(x, side="right")  # clamped to [0, n - 2]
    u = (x - axis[i]) / (axis[i + 1] - axis[i])
    u = np.where(u < _W_SNAP, 0.0, np.where(u > 1.0 - _W_SNAP, 1.0, u))
    return i, u, (axis[0] <= x) & (x <= axis[-1])


def _bilinear(m: EfficiencyMap, speed_rpm, torque_nm) -> np.ndarray:
    """Bilinear interpolation at broadcast arrays of points; exact at nodes.
    NaN where a point lies outside the axis bounding box or an enclosing
    node that carries interpolation weight is infeasible."""
    i, u, ok_speed = _cells(m.speed_axis, speed_rpm)
    j, w, ok_torque = _cells(m.torque_axis, torque_nm)
    v = m.values
    out = 0.0
    with np.errstate(invalid="ignore"):  # an infinite node times a zero weight
        for val, weight in ((v[i, j], (1 - u) * (1 - w)), (v[i + 1, j], u * (1 - w)),
                            (v[i, j + 1], (1 - u) * w), (v[i + 1, j + 1], u * w)):
            # a corner without weight adds nothing, even when it is infeasible
            out = out + np.where(weight != 0.0, val * weight, 0.0)
    return np.where(ok_speed & ok_torque & np.isfinite(out), out, np.nan)


def map_lookup(m: EfficiencyMap, speed_rpm: float, torque_nm: float) -> float:
    """Bilinear interpolation of a map at one point; exact at nodes.

    Raises
    ------
    MapDomainError
        When the query lies outside the axis bounding box.
    EnvelopeError
        When any enclosing node that carries interpolation weight is
        infeasible.
    """
    if not (m.speed_axis[0] <= speed_rpm <= m.speed_axis[-1]):
        raise MapDomainError(
            f"speed {speed_rpm:g} rpm outside [{m.speed_axis[0]:g}, {m.speed_axis[-1]:g}]")
    if not (m.torque_axis[0] <= torque_nm <= m.torque_axis[-1]):
        raise MapDomainError(
            f"torque {torque_nm:g} Nm outside [{m.torque_axis[0]:g}, {m.torque_axis[-1]:g}]")
    out = float(_bilinear(m, speed_rpm, torque_nm))
    if math.isnan(out):
        raise EnvelopeError(
            f"({speed_rpm:g} rpm, {torque_nm:g} Nm) touches the infeasible "
            f"region of map {m.label!r}")
    return out


def max_feasible_torque(m: EfficiencyMap, speed_rpm):
    """Largest torque on the axis for which map_lookup succeeds at this
    speed; 0 if none (never negative). For an array of speeds the result is
    NaN where a speed lies outside the map; a scalar speed there raises
    MapDomainError."""
    i, u, inside = _cells(m.speed_axis, speed_rpm)
    if inside.ndim == 0 and not inside:
        raise MapDomainError(f"speed {speed_rpm:g} rpm outside map {m.label!r}")
    # the limit depends only on which speed rows carry weight, so look it up
    # at every node and cell midpoint: probe 2i + 1 stands for cell i
    s = m.speed_axis
    probes = np.insert(s, np.arange(1, s.size), 0.5 * (s[:-1] + s[1:]))
    ok = ~np.isnan(_bilinear(m, probes[:, None], m.torque_axis))
    n_ok = np.cumprod(ok, axis=1).sum(axis=1)  # leading feasible torques
    limits = np.where(n_ok > 0, m.torque_axis[n_ok - 1], 0.0)
    limit = np.where(inside, limits[2 * i + (u > 0.0) + (u == 1.0)], np.nan)
    return float(limit) if limit.ndim == 0 else limit


def merge_gen_set(engine_map: EfficiencyMap, gen_map: EfficiencyMap,
                  belt_ratio: float, belt_efficiency: float) -> EfficiencyMap:
    """Combine engine and generator maps into one fuel-to-electricity map.

    The merged map lives on the engine's axes. At each engine node the
    generator is evaluated at (speed * belt_ratio, torque / belt_ratio) and
    the combined efficiency is eta_eng * eta_gen / 100 times the belt
    efficiency. Nodes whose generator point is out of range or
    infeasible become infeasible.
    """
    if belt_ratio <= 0:
        raise ValueError("belt ratio must be positive")
    if not (0 < belt_efficiency <= 1):
        raise ValueError("belt efficiency must lie in (0, 1]")
    eta_gen = _bilinear(gen_map, engine_map.speed_axis[:, None] * belt_ratio,
                        engine_map.torque_axis[None, :] / belt_ratio)
    values = engine_map.values * eta_gen / 100.0 * belt_efficiency
    if not np.isfinite(values).any():
        raise EmptyMapError(
            f"maps {engine_map.label!r} and {gen_map.label!r} have disjoint "
            f"envelopes through belt ratio {belt_ratio:g}")
    label = f"{engine_map.label}+{gen_map.label}" if engine_map.label else "gen-set"
    return EfficiencyMap(engine_map.speed_axis.copy(), engine_map.torque_axis.copy(),
                         values, label)


# ---------------------------------------------------------------------------
# Map I/O

def load_map(source) -> EfficiencyMap:
    """Read a map matrix: first row = torque axis, first column = speed
    axis, body = efficiency %, empty cell = infeasible, ``#`` comments.
    The label is the file stem, or empty for a text stream."""
    if hasattr(source, "read"):
        text = source.read()
        name = ""
    else:
        path = Path(source)
        text = path.read_text(encoding="utf-8")
        name = path.stem
    torque_axis: list[float] | None = None
    speeds: list[float] = []
    body: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if torque_axis is None:
            try:
                torque_axis = [float(p) for p in parts[1:]]
            except ValueError:
                raise MapFormatError(f"line {lineno}: non-numeric torque axis") from None
            continue
        if len(parts) != len(torque_axis) + 1:
            raise MapFormatError(
                f"line {lineno}: expected {len(torque_axis) + 1} fields, got {len(parts)}")
        try:
            speeds.append(float(parts[0]))
            body.append([float(p) if p else math.nan for p in parts[1:]])
        except ValueError:
            raise MapFormatError(f"line {lineno}: non-numeric value") from None
    if torque_axis is None or not body:
        raise MapFormatError("map file has no header row or no body rows")
    try:
        return EfficiencyMap(np.asarray(speeds), np.asarray(torque_axis),
                             np.asarray(body), name)
    except ValueError as exc:
        raise MapFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Synthetic default maps

def synthetic_motor_map() -> EfficiencyMap:
    """Traction-motor map: 94% peak efficiency near mid speed and mid
    torque, 320 Nm up to base speed, a 120 kW constant-power envelope
    above. Synthetic stand-in for unmeasured hardware."""
    speed = np.arange(0.0, 10000.1, 500.0)
    torque = np.arange(0.0, 320.1, 20.0)
    s_norm = (speed[:, None] - 5000.0) / 5000.0
    t_norm = (torque[None, :] - 160.0) / 160.0
    values = 94.0 * (1.0 - 0.18 * s_norm**2) * (1.0 - 0.12 * t_norm**2)
    power_lim = np.full_like(speed, np.inf)
    nz = speed > 0
    power_lim[nz] = 120000.0 / (speed[nz] * RAD_S_PER_RPM)
    envelope = np.minimum(320.0, power_lim[:, None])
    values = np.where(torque[None, :] <= envelope + 1e-9, values, np.nan)
    return EfficiencyMap(speed, torque, values, "synthetic-motor")


def synthetic_engine_map() -> EfficiencyMap:
    """Diesel-engine map over 800-3600 rpm: 36% peak, 170 Nm, 52 kW."""
    speed = np.arange(800.0, 3600.1, 200.0)
    torque = np.arange(0.0, 180.1, 10.0)
    s_norm = (speed[:, None] - 2200.0) / 1400.0
    t_norm = (torque[None, :] - 120.0) / 120.0
    values = 36.0 * (1.0 - 0.10 * s_norm**2) * (1.0 - 0.30 * t_norm**2)
    envelope = np.minimum(170.0, 52000.0 / (speed * RAD_S_PER_RPM))[:, None]
    values = np.where(torque[None, :] <= envelope + 1e-9, values, np.nan)
    return EfficiencyMap(speed, torque, values, "synthetic-engine")


def synthetic_generator_map() -> EfficiencyMap:
    """Generator map over 1000-10000 rpm (belt side): 92% peak, 120 Nm, 56 kW."""
    speed = np.arange(1000.0, 10000.1, 500.0)
    torque = np.arange(0.0, 120.1, 10.0)
    s_norm = (speed[:, None] - 6000.0) / 4000.0
    t_norm = (torque[None, :] - 60.0) / 60.0
    values = 92.0 * (1.0 - 0.06 * s_norm**2) * (1.0 - 0.10 * t_norm**2)
    envelope = np.minimum(120.0, 56000.0 / (speed * RAD_S_PER_RPM))[:, None]
    values = np.where(torque[None, :] <= envelope + 1e-9, values, np.nan)
    return EfficiencyMap(speed, torque, values, "synthetic-generator")


# ---------------------------------------------------------------------------
# Drivetrain and the wheel-to-motor conversion

@dataclass
class DrivetrainParams:
    """Single-speed reduction between motor and wheels."""

    gear_ratio: float = 7.82       # motor revs per wheel rev
    wheel_radius_m: float = 0.3348

    def __post_init__(self) -> None:
        if self.gear_ratio <= 0 or self.wheel_radius_m <= 0:
            raise ValueError("gear ratio and wheel radius must be positive")

    @property
    def rpm_per_mps(self) -> float:
        return self.gear_ratio * 60.0 / (2.0 * math.pi * self.wheel_radius_m)


def motor_electrical_power(motor_map: EfficiencyMap, drv: DrivetrainParams,
                           v_mps, p_wheel_kw):
    """Electrical power at the motor terminals for wheel operating points.

    Positive wheel power divides by map efficiency; negative wheel power
    (regeneration) multiplies by it, with braking torque clamped to the map
    envelope (the remainder is friction braking). Below ``MOTOR_V_MIN_MPS``
    the motor is treated as off. ``v_mps`` and ``p_wheel_kw`` may be arrays
    (broadcast); the result is then NaN wherever the scalar call would raise.

    Raises
    ------
    EnvelopeError
        When a positive demand exceeds the feasible torque at this speed.
    MapDomainError
        When the operating point lies outside the map's axes.
    """
    v = np.atleast_1d(np.asarray(v_mps, dtype=float))
    p = np.atleast_1d(np.asarray(p_wheel_kw, dtype=float))
    drive = p > 0
    with np.errstate(all="ignore"):  # points off the map come out NaN
        omega_rpm = v * drv.rpm_per_mps
        torque = p * 1000.0 / (omega_rpm * RAD_S_PER_RPM)
        t_map = np.where(drive, torque,
                         np.minimum(-torque, max_feasible_torque(motor_map, omega_rpm)))
        eta = _bilinear(motor_map, omega_rpm, t_map) / 100.0
        p_regen_kw = t_map * omega_rpm * RAD_S_PER_RPM / 1000.0
        p_elec = np.where(drive, p / eta, np.where(t_map <= 0, 0.0, -p_regen_kw * eta))
    p_elec = np.where((v < MOTOR_V_MIN_MPS) | (p == 0.0), 0.0, p_elec)
    if np.ndim(v_mps) or np.ndim(p_wheel_kw):
        return p_elec
    if np.isnan(p_elec[0]):  # let the scalar faces raise the reason
        if not drive[0]:
            max_feasible_torque(motor_map, float(omega_rpm[0]))
        map_lookup(motor_map, float(omega_rpm[0]), float(t_map[0]))
    return float(p_elec[0])


# ---------------------------------------------------------------------------
# Battery

@dataclass
class BatteryParams:
    """Internal-resistance battery model parameters; the open-circuit
    voltage is one constant."""

    c_batt_kwh: float = 18.9
    r_in_ohm: float = 0.08
    v_oc: float = 340.0

    def __post_init__(self) -> None:
        if self.c_batt_kwh <= 0:
            raise ValueError("battery capacity must be positive")
        if self.r_in_ohm < 0:
            raise ValueError("internal resistance must be nonnegative")
        if not (math.isfinite(self.v_oc) and self.v_oc > 0):
            raise ValueError("open-circuit voltage must be finite and positive")


class SocResult(NamedTuple):
    soc: float
    clamped: bool


def terminal_power_kw(b: BatteryParams, i_amps: float) -> float:
    """Power delivered to the DC bus: V_oc*I - R_in*I^2 (kW)."""
    return (b.v_oc * i_amps - b.r_in_ohm * i_amps * i_amps) / 1000.0


def current_from_power(b: BatteryParams, p_terminal_kw):
    """Invert the terminal-power relation for current.

    Solves V_oc*I - R_in*I^2 = P for the root with smaller magnitude.
    ``p_terminal_kw`` may be an array; the result is then NaN wherever the
    scalar call would raise.

    Raises
    ------
    EnvelopeError
        When the demand exceeds the maximum deliverable power
        (discriminant < 0).
    """
    v = b.v_oc
    p_w = p_terminal_kw * 1000.0
    if b.r_in_ohm == 0.0:
        return p_w / v
    disc = v * v - 4.0 * b.r_in_ohm * p_w
    if np.ndim(disc):
        return (v - np.sqrt(np.where(disc < 0, np.nan, disc))) / (2.0 * b.r_in_ohm)
    if disc < 0:
        raise EnvelopeError(
            f"terminal demand {p_terminal_kw:.2f} kW exceeds battery capability "
            f"({v * v / (4000.0 * b.r_in_ohm):.2f} kW at V_oc = {v:.0f} V)")
    return (v - math.sqrt(disc)) / (2.0 * b.r_in_ohm)


def integrate_soc(b: BatteryParams, start_soc: float, t_s, i_amps) -> SocResult:
    """Integrate SOC over a current series (trapezoidal).

    Discharge current lowers SOC:
    delta = -integral(V_oc * I) dt / (3.6e6 * C_batt) * 100.
    The result is clamped to [0, 100] after every segment; the flag reports
    whether clamping occurred.
    """
    if not (0.0 <= start_soc <= 100.0):
        raise ValueError("start_soc must lie in [0, 100]")
    t = np.asarray(t_s, dtype=float)
    i = np.asarray(i_amps, dtype=float)
    if t.size != i.size:
        raise ValueError("time and current series must have equal length")
    soc = float(start_soc)
    clamped = False
    v = b.v_oc
    for k in range(t.size - 1):
        dt = t[k + 1] - t[k]
        energy_j = v * 0.5 * (i[k] + i[k + 1]) * dt
        soc -= energy_j / (3.6e6 * b.c_batt_kwh) * 100.0
        if soc < 0.0:
            soc, clamped = 0.0, True
        elif soc > 100.0:
            soc, clamped = 100.0, True
    return SocResult(soc, clamped)


# ---------------------------------------------------------------------------
# Gen-set operating points

@dataclass
class GenSetPoint:
    """A single gen-set operating point: the engine node plus the combined
    fuel-to-electricity efficiency and electrical output there."""

    engine_speed_rpm: float
    engine_torque_nm: float
    combined_efficiency_pct: float
    electrical_power_kw: float

    def __post_init__(self) -> None:
        if not (0.0 < self.combined_efficiency_pct <= 100.0):
            raise ValueError("combined efficiency must lie in (0, 100]")
        if self.electrical_power_kw < 0:
            raise ValueError("electrical power must be nonnegative")


def genset_electrical_kw(engine_map: EfficiencyMap, gen_map: EfficiencyMap,
                         belt_ratio: float, speed_rpm: float, torque_nm: float,
                         belt_efficiency: float) -> float:
    """Electrical output of the gen-set at an engine operating point."""
    eta_gen = map_lookup(gen_map, speed_rpm * belt_ratio, torque_nm / belt_ratio)
    p_mech_kw = torque_nm * speed_rpm * RAD_S_PER_RPM / 1000.0
    return p_mech_kw * belt_efficiency * eta_gen / 100.0


def genset_point_at(engine_map: EfficiencyMap, gen_map: EfficiencyMap,
                    belt_ratio: float, speed_rpm: float, electrical_kw: float,
                    belt_efficiency: float) -> GenSetPoint:
    """Find the engine torque at a fixed speed that produces the requested
    electrical power, by bisection over the feasible torque range. The
    bisection stops once the bracket holds adjacent doubles, where further
    steps cannot move the midpoint."""
    if electrical_kw < 0:
        raise ValueError("electrical power must be nonnegative")
    t_hi = max_feasible_torque(engine_map, speed_rpm)
    t_hi = min(t_hi, max_feasible_torque(gen_map, speed_rpm * belt_ratio) * belt_ratio)
    if t_hi <= 0:
        raise EnvelopeError(f"gen-set has no feasible torque at {speed_rpm:g} rpm")
    p_hi = genset_electrical_kw(engine_map, gen_map, belt_ratio, speed_rpm, t_hi,
                                belt_efficiency)
    if electrical_kw > p_hi + 1e-12:
        raise EnvelopeError(
            f"{electrical_kw:.2f} kW exceeds the gen-set's {p_hi:.2f} kW "
            f"capability at {speed_rpm:g} rpm")
    lo, hi = 0.0, t_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        p_mid = genset_electrical_kw(engine_map, gen_map, belt_ratio, speed_rpm, mid,
                                     belt_efficiency)
        if p_mid < electrical_kw:
            lo = mid
        else:
            hi = mid
    torque = 0.5 * (lo + hi)
    eta_eng = map_lookup(engine_map, speed_rpm, torque)
    eta_gen = map_lookup(gen_map, speed_rpm * belt_ratio, torque / belt_ratio)
    combined = eta_eng * eta_gen / 100.0 * belt_efficiency
    return GenSetPoint(speed_rpm, torque, combined, electrical_kw)


# ---------------------------------------------------------------------------
# Assembly

@dataclass
class PowertrainAssembly:
    """All component maps of the series powertrain plus the merged gen-set
    map, kept together so scenario code passes one object around."""

    motor_map: EfficiencyMap
    engine_map: EfficiencyMap
    generator_map: EfficiencyMap
    belt_ratio: float = 2.7        # generator speed / engine speed
    belt_efficiency: float = 1.0
    drivetrain: DrivetrainParams = field(default_factory=DrivetrainParams)
    merged_map: EfficiencyMap = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.merged_map is None:
            self.merged_map = merge_gen_set(self.engine_map, self.generator_map,
                                            self.belt_ratio, self.belt_efficiency)

    @classmethod
    def synthetic(cls) -> "PowertrainAssembly":
        return cls(motor_map=synthetic_motor_map(),
                   engine_map=synthetic_engine_map(),
                   generator_map=synthetic_generator_map())

    def genset_point(self, speed_rpm: float, electrical_kw: float) -> GenSetPoint:
        return genset_point_at(self.engine_map, self.generator_map, self.belt_ratio,
                               speed_rpm, electrical_kw, self.belt_efficiency)
