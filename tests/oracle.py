"""Exhaustive-enumeration oracle for small CS instances.

Enumerates every decision sequence with exact continuous-SOC transitions
and the same admissibility rules as the DP (window, gate, regeneration
curtailment, OBD drain), so small instances certify the solver's
optimality. Deliberately independent of the DP solver: no value function,
no grid, no interpolation. It lives with the tests, so that no refactor of
the package reaches the reference the DP is judged by.
"""

import numpy as np

from phevopt.dpopt.problem import SOC_EPS, DemandProfile, DpConfig
from phevopt.errors import InfeasibleProblemError

SEQUENCE_CAP = 10_000_000


class InstanceTooLargeError(Exception):
    """A brute-force enumeration would exceed the sequence cap."""


def brute_force(d: DemandProfile, cfg: DpConfig, initial_soc: float) -> float:
    """Minimum total fuel (kWh) over all admissible decision sequences.

    Raises
    ------
    InstanceTooLargeError
        When |decisions|^N exceeds the enumeration cap.
    InfeasibleProblemError
        When no sequence satisfies the window and terminal constraints.
    """
    n = d.n_intervals
    n_dec = len(cfg.decisions)
    if n_dec ** n > SEQUENCE_CAP:
        raise InstanceTooLargeError(
            f"{n_dec}^{n} sequences exceed the {SEQUENCE_CAP:,} cap")
    threshold = cfg.terminal_rule.resolve(cfg)
    deltas = cfg.delta_array()
    fuels = cfg.fuel_array()
    obd_drain = cfg.obd_drain_pct if cfg.obd_enabled else 0.0
    gate_max = cfg.max_positive_delta

    soc = np.asarray([float(initial_soc)])
    cost = np.zeros(1)
    for k in range(n):
        dk = float(d.d_pct[k])
        branches = []
        gate_ok = soc + gate_max <= cfg.soc_max + SOC_EPS
        for a in range(n_dec):
            delta = float(deltas[a])
            drain = obd_drain if delta == 0.0 else 0.0
            succ = soc + delta - dk - drain
            if dk < 0.0:
                succ = np.minimum(succ, cfg.soc_max)
            ok = (succ >= cfg.soc_min - SOC_EPS) & (succ <= cfg.soc_max + SOC_EPS)
            if delta > 0.0:
                ok &= gate_ok
            if not ok.any():
                continue
            branches.append((succ[ok], cost[ok] + fuels[a]))
        if not branches:
            raise InfeasibleProblemError(
                f"every sequence dies at interval {k}", stage=k)
        soc = np.concatenate([b[0] for b in branches])
        cost = np.concatenate([b[1] for b in branches])

    final_ok = soc >= threshold - 1e-12
    if not final_ok.any():
        raise InfeasibleProblemError(
            f"no sequence ends at or above the terminal SOC {threshold:.4f}%",
            stage=n)
    return float(cost[final_ok].min())
