"""Seeded workload inputs for the layered benchmark.

Each workload is one CLI command run on a trip built from the shipped
synthetic cycle. The cycle splits at standstill into 8 micro-trips (each
starts with the first sample of an idle stretch and ends on the first idle
sample of the next one); the seed chooses a fresh order of the 8 pieces for
every lap. Pieces join on a standstill sample whose neighbours are the same
in the trip as in the shipped lap, so every sample's physics is unchanged
and only the order in which the battery sees the load moves.

The program receives only the written trip CSV and a scenario INI copied
from a shipped fixture with its ``[cycle]`` pointing at that CSV.

The trips that start charge depleting begin at 86% SOC instead of the
fixture's 88%. A lap drains 35.95% in charge depleting whatever its order
(the open-circuit voltage is flat, so the drain of a sample does not
depend on SOC), so every seed ends lap 2 at 14.1% and crosses the 14%
trigger near the lap 2/3 boundary. Over seeds 1-30 the DP then solves
142-157 intervals, 143 at the median, with a quartile spread of 3%.
From the fixture's 88% the entry fell anywhere in lap 3, and the spread
was 10%: the benchmark would have measured the seed more than the
program.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
CYCLE_CSV = SCENARIOS / "synthetic_cycle.csv"

#: Seed whose outputs are pinned by golden digests.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str             # shipped scenario the settings come from
    laps: int
    command: tuple[str, ...]  # CLI subcommand and its strategy
    grid_step: float | None = None  # --grid-step override, percent SOC
    initial_soc: float | None = None  # [rule] initial_soc override, percent


WORKLOADS = {
    w.name: w for w in (
        Workload("dp_trip", "three_lap.ini", 3, ("simulate", "--strategy", "dp"),
                 initial_soc=86.0),
        Workload("cs_sweep", "obd_single_lap.ini", 3, ("obd",), grid_step=0.002),
        Workload("compare_trip", "three_lap.ini", 6, ("compare",), initial_soc=86.0),
    )
}


def micro_trip_bounds(v_mps: np.ndarray) -> list[int]:
    """Sample indices where each idle stretch starts, plus the last sample."""
    idle = v_mps == 0.0
    starts = [i for i in range(v_mps.size) if idle[i] and (i == 0 or not idle[i - 1])]
    if starts[0] != 0 or not idle[-1]:
        raise ValueError("the shipped cycle must start and end at standstill")
    return starts + [v_mps.size - 1]


def trip_rows(seed: int, laps: int) -> np.ndarray:
    """(t_s, v_mps, grade_deg) rows of a trip of ``laps`` reordered laps."""
    data = np.loadtxt(CYCLE_CSV, delimiter=",", skiprows=1, ndmin=2)
    bounds = micro_trip_bounds(data[:, 1])
    pieces = len(bounds) - 1
    rng = random.Random(seed)
    idx = [0]
    for _ in range(laps):
        for p in rng.sample(range(pieces), pieces):
            # the first sample of a piece is the standstill sample it shares
            # with the piece before it
            idx.extend(range(bounds[p] + 1, bounds[p + 1] + 1))
    idx = np.asarray(idx)
    dt = np.diff(data[:, 0])
    t = np.concatenate([[0.0], np.cumsum(dt[idx[1:] - 1])])
    return np.column_stack([t, data[idx, 1], data[idx, 2]])


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the trip CSV and scenario INI; return the INI path."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = trip_rows(seed, workload.laps)
    lines = ["t_s,v_mps,grade_deg"]
    lines += [f"{t:.3f},{v:.4f},{g:.4f}" for t, v, g in rows]
    (directory / "trip.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read(SCENARIOS / workload.fixture, encoding="utf-8")
    cp["cycle"]["path"] = "trip.csv"
    cp["cycle"]["laps"] = "1"
    if workload.initial_soc is not None:
        cp["rule"]["initial_soc"] = f"{workload.initial_soc:g}"
    ini = directory / "scenario.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return ini


def cli_argv(workload: Workload, ini: Path, out: Path) -> list[str]:
    argv = [*workload.command, "--scenario", str(ini), "--out", str(out)]
    if workload.grid_step is not None:
        argv += ["--grid-step", f"{workload.grid_step:g}"]
    return argv
