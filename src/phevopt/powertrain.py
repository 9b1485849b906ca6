"""Component models: efficiency maps, gen-set operating points, and the
battery.

Efficiency maps are node grids over (speed rpm, torque Nm) with NaN marking
the infeasible region outside a component's envelope; lookups are bilinear.
Maps are loaded from CSV matrices or generated synthetically (the
published figures carry no numeric tables, so the bundled defaults are
fixed stand-ins and are labeled as such).

The battery is an internal-resistance model with one constant open-circuit
voltage: terminal power V_oc*I - R*I^2, and SOC stepped by the chemistry
energy V_oc*I*dt (``soc_drop_pct``). Current is discharge-positive.

The models take and return arrays, NaN where a point fails. One function
names each fault: ``map_lookup`` a map point, ``check_capability`` a
battery demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EnvelopeError, MapDomainError, MapFormatError, exact, require

RAD_S_PER_RPM = 2.0 * math.pi / 60.0
MOTOR_V_MIN_MPS = 0.05  # below this speed the traction motor is off

_W_SNAP = 1e-12  # interpolation weights below this snap onto the node
#: Magnitudes a nonzero number read from a file or the command line may have:
#: no product or quotient of a few of them overflows, as a test mass of
#: 1.8e308 kg or a charging efficiency of 5e-324 once did.
NUMBER_RANGE = (1e-9, 1e9)
# bisection steps of genset_point_at per array lookup (2**6 - 1 midpoints);
# on the shipped point (52 steps) a call took, best of 7, 1.84 / 1.71 / 1.72 /
# 2.08 / 2.46 ms at 5 / 6 / 8 / 10 / 11 levels
TREE_LEVELS = 6


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
        raise MapDomainError(f"speed {exact(speed_rpm)} rpm outside "
                             f"[{m.speed_axis[0]:g}, {m.speed_axis[-1]:g}]")
    if not (m.torque_axis[0] <= torque_nm <= m.torque_axis[-1]):
        raise MapDomainError(f"torque {exact(torque_nm)} Nm outside "
                             f"[{m.torque_axis[0]:g}, {m.torque_axis[-1]:g}]")
    out = float(_bilinear(m, speed_rpm, torque_nm))
    if math.isnan(out):
        raise EnvelopeError(
            f"({exact(speed_rpm)} rpm, {exact(torque_nm)} Nm) touches the infeasible "
            f"region of map {m.label!r}")
    return out


def max_feasible_torque(m: EfficiencyMap, speed_rpm):
    """Largest torque node up to which map_lookup succeeds on every node at
    each speed; 0 if none (never negative), NaN where a speed lies outside
    the map."""
    i, u, inside = _cells(m.speed_axis, speed_rpm)
    # leading finite torque nodes of each speed row; a speed on a node reads
    # its own row, one inside a cell the fewer of the cell's two rows
    lead = np.cumprod(np.isfinite(m.values), axis=1).sum(axis=1)
    n_ok = np.minimum(lead[i + (u == 1.0)], lead[i + (u > 0.0)])
    return np.where(inside, np.where(n_ok > 0, m.torque_axis[n_ok - 1], 0.0), np.nan)


# ---------------------------------------------------------------------------
# Map I/O

def parse_number(raw: str) -> float:
    """A finite number as Python's ``float`` reads it, but ASCII only and
    without ``_``, so ``1_8.9``, an Arabic-Indic digit or blank, ``inf`` or
    ``nan`` is not a number; and 0 or of a magnitude in ``NUMBER_RANGE``.
    Map files, scenario files and the CLI read numbers with it. The
    ``ValueError`` it raises says "is not a number", "is not a finite
    number" or "lies outside"."""
    try:
        if not raw.isascii() or "_" in raw:
            raise ValueError(raw)
        value = float(raw)
    except ValueError:
        raise ValueError("is not a number") from None
    if not math.isfinite(value):
        raise ValueError("is not a finite number")
    lo, hi = NUMBER_RANGE
    if value and not lo <= abs(value) <= hi:
        raise ValueError(f"lies outside the magnitudes [{lo:g}, {hi:g}] "
                         "of a nonzero number")
    return value


def load_map(source) -> EfficiencyMap:
    """Read a map matrix: first row = torque axis, first column = speed
    axis, body = efficiency %, empty cell = infeasible, ``#`` comments.
    Lines end only in ``\n`` or ``\r\n``. The label is the file stem, or
    empty for a text stream."""
    if hasattr(source, "read"):
        text = source.read()
        name = ""
    else:
        path = Path(source)
        text = path.read_bytes().decode("utf-8")  # no newline translation
        name = path.stem
    torque_axis: list[float] | None = None
    speeds: list[float] = []
    body: list[list[float]] = []

    def number(raw: str, lineno: int) -> float:
        try:
            return parse_number(raw)
        except ValueError as exc:  # its reason, after the line and the entry
            raise MapFormatError(f"line {lineno}: {raw!r} {exc}") from None

    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(",")
        if torque_axis is None:
            torque_axis = [number(p, lineno) for p in parts[1:]]
            continue
        if len(parts) != len(torque_axis) + 1:
            raise MapFormatError(
                f"line {lineno}: expected {len(torque_axis) + 1} fields, got {len(parts)}")
        speeds.append(number(parts[0], lineno))
        # the empty cell is the one spelling of an infeasible cell
        body.append([number(p, lineno) if p.strip(" \t") else math.nan
                     for p in parts[1:]])
    if torque_axis is None or not body:
        raise MapFormatError("map file has no header row or no body rows")
    try:
        return EfficiencyMap(np.asarray(speeds), np.asarray(torque_axis),
                             np.asarray(body), name)
    except ValueError as exc:
        raise MapFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Synthetic default maps

def _bowl_map(label: str, speed: np.ndarray, torque: np.ndarray, peak_pct: float,
              speed_bowl: tuple[float, float, float],
              torque_bowl: tuple[float, float, float],
              torque_max: float, power_w: float) -> EfficiencyMap:
    """A quadratic bowl of efficiency, ``peak_pct * (1 - a_s s**2) * (1 -
    a_t t**2)`` with each axis normalized as ``(x - centre) / half_width``
    from its bowl ``(centre, half_width, a)``, and NaN above the torque
    ceiling ``min(torque_max, power_w / omega)``, which standstill leaves at
    ``torque_max``."""
    (s_mid, s_half, a_s), (t_mid, t_half, a_t) = speed_bowl, torque_bowl
    s_norm = (speed[:, None] - s_mid) / s_half
    t_norm = (torque[None, :] - t_mid) / t_half
    values = peak_pct * (1.0 - a_s * s_norm**2) * (1.0 - a_t * t_norm**2)
    with np.errstate(divide="ignore"):  # power_w / 0 rpm is inf
        envelope = np.minimum(torque_max, power_w / (speed * RAD_S_PER_RPM))[:, None]
    values = np.where(torque[None, :] <= envelope + 1e-9, values, np.nan)
    return EfficiencyMap(speed, torque, values, label)


def synthetic_motor_map() -> EfficiencyMap:
    """Traction-motor map: 94% peak efficiency near mid speed and mid
    torque, 320 Nm up to base speed, a 120 kW constant-power envelope
    above. Synthetic stand-in for unmeasured hardware."""
    return _bowl_map("synthetic-motor", np.arange(0.0, 10000.1, 500.0),
                     np.arange(0.0, 320.1, 20.0), 94.0, (5000.0, 5000.0, 0.18),
                     (160.0, 160.0, 0.12), 320.0, 120000.0)


def synthetic_engine_map() -> EfficiencyMap:
    """Diesel-engine map over 800-3600 rpm: 36% peak, 170 Nm, 52 kW."""
    return _bowl_map("synthetic-engine", np.arange(800.0, 3600.1, 200.0),
                     np.arange(0.0, 180.1, 10.0), 36.0, (2200.0, 1400.0, 0.10),
                     (120.0, 120.0, 0.30), 170.0, 52000.0)


def synthetic_generator_map() -> EfficiencyMap:
    """Generator map over 1000-10000 rpm (belt side): 92% peak, 120 Nm, 56 kW."""
    return _bowl_map("synthetic-generator", np.arange(1000.0, 10000.1, 500.0),
                     np.arange(0.0, 120.1, 10.0), 92.0, (6000.0, 4000.0, 0.06),
                     (60.0, 60.0, 0.10), 120.0, 56000.0)


# ---------------------------------------------------------------------------
# Drivetrain and the wheel-to-motor conversion

@dataclass
class DrivetrainParams:
    """Single-speed reduction between motor and wheels."""

    gear_ratio: float = 7.82       # motor revs per wheel rev
    wheel_radius_m: float = 0.3348

    def __post_init__(self) -> None:
        for name in ("gear_ratio", "wheel_radius_m"):
            require(getattr(self, name) > 0, self, name, "must be positive")

    @property
    def rpm_per_mps(self) -> float:
        return self.gear_ratio * 60.0 / (2.0 * math.pi * self.wheel_radius_m)


def motor_operating_point(motor_map: EfficiencyMap, drv: DrivetrainParams,
                          v_mps, p_wheel_kw):
    """Motor speed (rpm) and map torque (Nm) at wheel operating points: the
    torque a positive wheel power asks for, else the braking torque clamped
    to the map envelope (the rest is friction braking); NaN off the map."""
    with np.errstate(all="ignore"):  # standstill divides by zero
        omega_rpm = v_mps * drv.rpm_per_mps
        torque = p_wheel_kw * 1000.0 / (omega_rpm * RAD_S_PER_RPM)
        return omega_rpm, np.where(p_wheel_kw > 0, torque, np.minimum(
            -torque, max_feasible_torque(motor_map, omega_rpm)))


def motor_electrical_power(motor_map: EfficiencyMap, drv: DrivetrainParams,
                           v_mps, p_wheel_kw):
    """Electrical power at the motor terminals for wheel operating points
    (broadcast arrays): positive wheel power divides by the map efficiency
    at the ``motor_operating_point``, negative wheel power multiplies by it.
    Below ``MOTOR_V_MIN_MPS`` the motor is off. NaN where the motor is on
    and ``map_lookup`` raises at the operating point."""
    v = np.asarray(v_mps, dtype=float)
    p = np.asarray(p_wheel_kw, dtype=float)
    omega_rpm, t_map = motor_operating_point(motor_map, drv, v, p)
    with np.errstate(all="ignore"):  # points off the map come out NaN
        eta = _bilinear(motor_map, omega_rpm, t_map) / 100.0
        p_regen_kw = t_map * omega_rpm * RAD_S_PER_RPM / 1000.0
        p_elec = np.where(p > 0, p / eta, np.where(t_map <= 0, 0.0, -p_regen_kw * eta))
    return np.where((v < MOTOR_V_MIN_MPS) | (p == 0.0), 0.0, p_elec)


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
        require(self.c_batt_kwh > 0, self, "c_batt_kwh", "must be positive")
        require(self.r_in_ohm >= 0, self, "r_in_ohm", "must be nonnegative")
        require(0 < self.v_oc < math.inf, self, "v_oc", "must be finite and positive")


def terminal_power_kw(b: BatteryParams, i_amps: float) -> float:
    """Power delivered to the DC bus: V_oc*I - R_in*I^2 (kW)."""
    return (b.v_oc * i_amps - b.r_in_ohm * i_amps * i_amps) / 1000.0


def current_from_power(b: BatteryParams, p_terminal_kw):
    """Invert the terminal-power relation for current at terminal demands
    (an array): the root of V_oc*I - R_in*I^2 = P with smaller magnitude.
    NaN where the demand exceeds the maximum deliverable power
    (discriminant < 0), where ``check_capability`` raises."""
    v = b.v_oc
    p_w = p_terminal_kw * 1000.0
    if b.r_in_ohm == 0.0:
        return p_w / v
    disc = v * v - 4.0 * b.r_in_ohm * p_w
    return (v - np.sqrt(np.where(disc < 0, np.nan, disc))) / (2.0 * b.r_in_ohm)


def check_capability(b: BatteryParams, p_terminal_kw: float) -> None:
    """Raise ``EnvelopeError`` when one terminal demand exceeds the maximum
    deliverable power V_oc**2 / (4 R_in), where ``current_from_power`` gives
    NaN."""
    v = b.v_oc
    if v * v - 4.0 * b.r_in_ohm * (p_terminal_kw * 1000.0) < 0:
        raise EnvelopeError(
            f"terminal demand {p_terminal_kw:.2f} kW exceeds battery capability "
            f"({v * v / (4000.0 * b.r_in_ohm):.2f} kW at V_oc = {v:.0f} V)")


def soc_drop_pct(b: BatteryParams, i_amps, dt_s):
    """SOC fall (percentage points) over a step of ``dt_s`` seconds at a
    constant current: the chemistry energy V_oc*I*dt over the capacity.
    Discharge lowers SOC, so a charging (negative) current gives a negative
    drop. ``i_amps`` and ``dt_s`` may be arrays (broadcast)."""
    return b.v_oc * i_amps * dt_s / (3.6e6 * b.c_batt_kwh) * 100.0


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
        for name in ("engine_speed_rpm", "engine_torque_nm"):
            require(not math.isnan(getattr(self, name)), self, name, "must not be NaN")
        require(0.0 < self.combined_efficiency_pct <= 100.0, self,
                "combined_efficiency_pct", "must lie in (0, 100]")
        require(self.electrical_power_kw >= 0, self, "electrical_power_kw",
                "must be nonnegative")


def genset_electrical_kw(gen_map: EfficiencyMap, belt_ratio: float, speed_rpm: float,
                         torque_nm):
    """Electrical output of the gen-set at engine torques ``torque_nm`` (an
    array) and one speed; NaN where ``map_lookup`` raises at the generator
    point ``(speed_rpm * belt_ratio, torque_nm / belt_ratio)``."""
    eta_gen = _bilinear(gen_map, speed_rpm * belt_ratio, torque_nm / belt_ratio)
    p_mech_kw = torque_nm * speed_rpm * RAD_S_PER_RPM / 1000.0
    return p_mech_kw * eta_gen / 100.0


def genset_point_at(engine_map: EfficiencyMap, gen_map: EfficiencyMap,
                    belt_ratio: float, speed_rpm: float,
                    electrical_kw: float) -> GenSetPoint:
    """Find the engine torque at a fixed speed that produces the requested
    electrical power, by bisection over the feasible torque range. The
    bisection stops once the bracket holds adjacent doubles, where further
    steps cannot move the midpoint, or after 80 steps.

    The power is evaluated ``TREE_LEVELS`` steps at a time: every midpoint
    the next levels of the bisection tree can visit comes from the same
    ``0.5 * (lo + hi)`` as the step-by-step walk, all of them go through one
    array lookup, and the walk then reads the ones it visits, so the torque
    is the same bit for bit. A visited torque off the generator map goes
    through ``map_lookup``, which raises its error."""
    if electrical_kw < 0:
        raise ValueError("electrical power must be nonnegative")
    for emap, speed in ((engine_map, speed_rpm), (gen_map, speed_rpm * belt_ratio)):
        if not emap.speed_axis[0] <= speed <= emap.speed_axis[-1]:
            raise MapDomainError(f"speed {exact(speed)} rpm outside map {emap.label!r}")
    t_hi = float(min(max_feasible_torque(engine_map, speed_rpm),
                     max_feasible_torque(gen_map, speed_rpm * belt_ratio) * belt_ratio))
    if t_hi <= 0:
        raise EnvelopeError(f"gen-set has no feasible torque at {speed_rpm:g} rpm")
    p_hi = float(genset_electrical_kw(gen_map, belt_ratio, speed_rpm, t_hi))
    if math.isnan(p_hi):  # off the map: map_lookup raises the reason
        map_lookup(gen_map, speed_rpm * belt_ratio, t_hi / belt_ratio)
    if electrical_kw > p_hi + 1e-12:
        raise EnvelopeError(
            f"{electrical_kw:.2f} kW exceeds the gen-set's {p_hi:.2f} kW "
            f"capability at {speed_rpm:g} rpm")
    lo, hi = 0.0, t_hi
    steps, converged = 80, False
    while steps and not converged:
        levels = min(TREE_LEVELS, steps)
        steps -= levels
        # the bracket edges after ``levels`` halvings; the midpoint of edges
        # a and b sits at (a + b) // 2
        edges = np.array([lo, hi])
        for _ in range(levels):
            finer = np.empty(2 * edges.size - 1)
            finer[::2] = edges
            finer[1::2] = 0.5 * (edges[:-1] + edges[1:])
            edges = finer
        power = genset_electrical_kw(gen_map, belt_ratio, speed_rpm, edges).tolist()
        edges = edges.tolist()
        a, b = 0, len(edges) - 1
        for _ in range(levels):
            m = (a + b) // 2
            mid = edges[m]
            converged = mid == lo or mid == hi
            if converged:
                break
            p_mid = power[m]
            if math.isnan(p_mid):  # off the map: map_lookup raises the reason
                map_lookup(gen_map, speed_rpm * belt_ratio, mid / belt_ratio)
            if p_mid < electrical_kw:
                lo, a = mid, m
            else:
                hi, b = mid, m
    torque = 0.5 * (lo + hi)
    eta_eng = map_lookup(engine_map, speed_rpm, torque)
    eta_gen = map_lookup(gen_map, speed_rpm * belt_ratio, torque / belt_ratio)
    combined = eta_eng * eta_gen / 100.0
    return GenSetPoint(speed_rpm, torque, combined, electrical_kw)


# ---------------------------------------------------------------------------
# Assembly

@dataclass
class PowertrainAssembly:
    """All component maps of the series powertrain and the lossless belt
    between engine and generator, kept together so scenario code passes one
    object around."""

    motor_map: EfficiencyMap
    engine_map: EfficiencyMap
    generator_map: EfficiencyMap
    belt_ratio: float = 2.7        # generator speed / engine speed
    drivetrain: DrivetrainParams = field(default_factory=DrivetrainParams)

    def __post_init__(self) -> None:
        require(self.belt_ratio > 0, self, "belt_ratio", "must be positive")

    def genset_point(self, speed_rpm: float, electrical_kw: float) -> GenSetPoint:
        return genset_point_at(self.engine_map, self.generator_map, self.belt_ratio,
                               speed_rpm, electrical_kw)
