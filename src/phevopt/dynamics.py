"""Longitudinal vehicle model: tractive force and wheel power over a cycle.

The road-load model sums inertial force (with a rotating-inertia factor),
grade force, aerodynamic drag, and rolling resistance:

    F_tr = m*i*a + m*g*sin(grade) + 0.5*rho*CdAf*v^2 + m*g*Crr*[v > V_IDLE_MPS]

Rolling resistance is gated on motion so no spurious static force appears
at standstill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycle import V_IDLE_MPS, DriveCycle


@dataclass
class VehicleParams:
    """Chassis and environment constants of the road-load model.

    Defaults describe the converted series-hybrid test mule: 2100 kg curb
    mass, 2800 kg as tested (700 kg payload), CdAf 0.75 m^2, Crr 0.009.
    Air density and the rotating-inertia factor are not part of the test
    record; standard-ambient 1.20 kg/m^3 and i = 1.04 are used.
    """

    m: float = 2100.0        # kg, curb-equivalent vehicle mass
    m_t: float = 2800.0      # kg, test mass incl. payload
    i: float = 1.04          # rotating-inertia factor on m*a
    cdaf: float = 0.75       # m^2, drag coefficient * frontal area
    crr: float = 0.009       # rolling-resistance coefficient
    rho: float = 1.20        # kg/m^3 air density
    g: float = 9.81          # N/kg

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError("m must be positive")
        if self.m_t < self.m:
            raise ValueError("test mass must be >= vehicle mass")
        if self.i < 1.0:
            raise ValueError("rotating-inertia factor must be >= 1")
        if self.cdaf < 0:
            raise ValueError("CdAf must be nonnegative")
        if not (0.0 <= self.crr < 0.1):
            raise ValueError("Crr must lie in [0, 0.1)")
        if self.rho <= 0 or self.g <= 0:
            raise ValueError("rho and g must be positive")


def tractive_force(p: VehicleParams, mass: float, v, accel, grade_deg=0.0):
    """Tractive force in N at one operating point (or elementwise on arrays).

    Parameters
    ----------
    p : VehicleParams
    mass : float
        Mass carried by the force balance, typically ``p.m_t``.
    v : float or array
        Speed in m/s, nonnegative.
    accel : float or array
        Acceleration in m/s^2.
    grade_deg : float or array
        Road grade in degrees.
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("speed must be nonnegative")
    accel = np.asarray(accel, dtype=float)
    grade = np.deg2rad(np.asarray(grade_deg, dtype=float))
    f = (mass * p.i * accel
         + mass * p.g * np.sin(grade)
         + 0.5 * p.rho * p.cdaf * v * v
         + mass * p.g * p.crr * (v > V_IDLE_MPS))
    return float(f) if f.ndim == 0 else f


def accel_series(cycle: DriveCycle) -> np.ndarray:
    """dv/dt estimated by central differences, one-sided at the ends."""
    t, v = cycle.t_s, cycle.v_mps
    a = np.empty_like(v)
    a[0] = (v[1] - v[0]) / (t[1] - t[0])
    a[-1] = (v[-1] - v[-2]) / (t[-1] - t[-2])
    a[1:-1] = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    return a


def wheel_power_series(p: VehicleParams, cycle: DriveCycle) -> np.ndarray:
    """Per-sample wheel power in kW at the test mass, aligned with ``cycle.t_s``.

    Negative values are retained: they are the regenerative-braking
    potential at the wheels.
    """
    a = accel_series(cycle)
    f = tractive_force(p, p.m_t, cycle.v_mps, a, cycle.grade_deg)
    return f * cycle.v_mps / 1000.0
