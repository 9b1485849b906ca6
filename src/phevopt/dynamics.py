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
from .errors import require

G = 9.81  # N/kg, standard gravity


@dataclass
class VehicleParams:
    """Chassis and environment constants of the road-load model.

    Defaults describe the converted series-hybrid test mule: 2100 kg curb
    mass, 2800 kg as tested (700 kg payload), CdAf 0.75 m^2, Crr 0.009.
    Air density and the rotating-inertia factor are not part of the test
    record; standard-ambient 1.20 kg/m^3 and i = 1.04 are used.
    """

    m_t: float = 2800.0      # kg, test mass incl. payload
    i: float = 1.04          # rotating-inertia factor on m*a
    cdaf: float = 0.75       # m^2, drag coefficient * frontal area
    crr: float = 0.009       # rolling-resistance coefficient
    rho: float = 1.20        # kg/m^3 air density

    def __post_init__(self) -> None:
        require(self.m_t > 0, self, "m_t", "must be positive")
        require(self.i >= 1.0, self, "i", "must be at least 1")
        require(self.cdaf >= 0, self, "cdaf", "must be nonnegative")
        require(0.0 <= self.crr < 0.1, self, "crr", "must lie in [0, 0.1)")
        require(self.rho > 0, self, "rho", "must be positive")


def tractive_force(p: VehicleParams, v, accel, grade_deg):
    """Tractive force in N, elementwise on arrays (a NumPy ``float64`` at
    one operating point), at the test mass ``p.m_t``.

    Parameters
    ----------
    p : VehicleParams
    v : float or array
        Speed in m/s, nonnegative.
    accel : float or array
        Acceleration in m/s^2.
    grade_deg : float or array
        Road grade in degrees.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("speed must be nonnegative")
    accel = np.asarray(accel, dtype=float)
    grade = np.deg2rad(np.asarray(grade_deg, dtype=float))
    return (p.m_t * p.i * accel
            + p.m_t * G * np.sin(grade)
            + 0.5 * p.rho * p.cdaf * v * v
            + p.m_t * G * p.crr * (v > V_IDLE_MPS))


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
    f = tractive_force(p, cycle.v_mps, a, cycle.grade_deg)
    return f * cycle.v_mps / 1000.0
