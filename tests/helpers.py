"""Shared test builders: a constant-efficiency map and randomized
optimization instances.

Grid-aligned instances keep every reachable state exactly on a value
function node (demand, charge increments, and the initial state are all
multiples of the grid step), so interpolation introduces no error and the
solver can be compared against exhaustive enumeration at tight tolerance.
"""

from dataclasses import replace

import numpy as np

from phevopt.dpopt import Decision, DemandProfile, DpConfig, null_decision
from phevopt.powertrain import EfficiencyMap


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
    decs = tuple([null_decision()] + [
        Decision(dl, e, f"b{dl:g}") for dl, e in zip(deltas, effs)])
    cfg = DpConfig(decisions=decs, initial_soc=14.0, grid_step=0.005)
    if obd:
        drain_pct = int(rng.integers(1, 5)) * 0.005
        cfg = replace(cfg, obd_enabled=True,
                      obd_energy_per_event_kwh=drain_pct / 100.0 * cfg.c_batt_kwh)
    return DemandProfile(np.asarray(d, dtype=float), 10.0, n * 0.15), cfg
