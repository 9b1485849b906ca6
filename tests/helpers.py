"""Shared test builders: the drive cycle the shipped scenarios load, a
constant-efficiency map and randomized optimization instances.

Grid-aligned instances keep every reachable state exactly on a value
function node (demand, charge increments, and the initial state are all
multiples of the grid step), so interpolation introduces no error and the
solver can be compared against exhaustive enumeration at tight tolerance.
"""

from dataclasses import replace

import numpy as np

from phevopt.cycle import DriveCycle
from phevopt.dpopt import DemandProfile, DpConfig, decision_table
from phevopt.powertrain import EfficiencyMap

# Keypoints (t, v) of the synthetic cycle: stop-and-go urban section, two
# arterial humps, a sustained highway stretch with a speed dip, and an urban
# return leg. Piecewise-linear, closed at rest, 1 Hz.
_SYNTH_KEYPOINTS = (
    (0.0, 0.0), (14.0, 0.0),
    (26.0, 12.0), (55.0, 12.5), (67.0, 0.0), (76.0, 0.0),
    (91.0, 14.0), (130.0, 13.5), (145.0, 0.0), (155.0, 0.0),
    (167.0, 13.0), (200.0, 13.0), (210.0, 6.0), (222.0, 15.0),
    (250.0, 14.5), (265.0, 0.0), (278.0, 0.0),
    (295.0, 20.0), (350.0, 20.5), (370.0, 0.0), (380.0, 0.0),
    (400.0, 22.0), (460.0, 21.5), (472.0, 8.0), (484.0, 20.0),
    (520.0, 21.0), (540.0, 0.0), (552.0, 0.0),
    (572.0, 20.0), (602.0, 30.0), (640.0, 33.5),
    (780.0, 33.5), (800.0, 29.0), (830.0, 33.0), (980.0, 33.0),
    (1010.0, 34.5), (1090.0, 34.5), (1140.0, 20.0), (1164.0, 0.0),
    (1176.0, 0.0),
    (1189.0, 13.0), (1240.0, 13.0), (1252.0, 8.0), (1266.0, 14.0),
    (1300.0, 13.5), (1320.0, 0.0), (1380.0, 0.0),
)


def synthetic_cycle() -> DriveCycle:
    """Deterministic mixed urban/highway cycle: roughly 20 km over 1380 s
    with about 10% idle time; accelerations stay within the default
    powertrain envelope. Its rows, written as ``%.3f,%.4f,%.4f``, are
    ``scenarios/synthetic_cycle.csv``."""
    kp = np.asarray(_SYNTH_KEYPOINTS)
    t = np.arange(0.0, kp[-1, 0] + 0.5, 1.0)
    v = np.interp(t, kp[:, 0], kp[:, 1])
    return DriveCycle(t_s=t, v_mps=v)


def flat_map(eta: float, label: str = "flat") -> EfficiencyMap:
    """Constant-efficiency map over a wide box; useful for linearity tests."""
    return EfficiencyMap(np.asarray([0.0, 20000.0]), np.asarray([0.0, 2000.0]),
                         np.full((2, 2), float(eta)), label)


def grid_aligned_instance(rng, obd: bool = False) -> tuple[DemandProfile, DpConfig]:
    """Random small instance whose states all fall on 0.005% grid nodes.
    With ``obd`` the null decision also drains a random multiple of the
    grid step per interval."""
    n = int(rng.integers(3, 11))
    d = rng.integers(-50, 81, n) * 0.005
    deltas = sorted(set(int(x) * 0.005 for x in rng.integers(1, 118, 3)))
    while len(deltas) < 3:
        deltas.append(deltas[-1] + 0.005)
    effs = rng.uniform(20.0, 40.0, 3)
    cfg = DpConfig(decisions=decision_table(deltas, effs), initial_soc=14.0,
                   grid_step=0.005)
    if obd:
        drain_pct = int(rng.integers(1, 5)) * 0.005
        cfg = replace(cfg, obd_enabled=True,
                      obd_energy_per_event_kwh=drain_pct / 100.0 * cfg.c_batt_kwh)
    return DemandProfile(np.asarray(d, dtype=float), 10.0, n * 0.15), cfg
