"""Correctness gate, run before any timing.

It checks the SHA-256 digest of every CLI data file (every output except
``run.log``) for the five commands on the three shipped scenarios, and for
the workload at its default seed, against ``golden.json``. For any seed it
runs the workload twice and requires byte-identical files, then checks on
the files the program wrote:

- every DP boundary SOC lies inside the SOC window widened by one grid step;
- the final SOC is at or above the terminal SOC less one grid step. The
  rollout carries SOC continuously and takes the decision of the nearest
  grid state, so it can end a fraction of a step short of the terminal
  SOC (dp_trip seed 2 ends at 13.947145% against 13.948103%). The test
  suite allows the larger quantum ``max_positive_delta + grid_step``;
- the DP's CS fuel per km is at or below that of the thermostat rule
  replayed on the same demand (``evaluate_rule_on_demand``), whenever the
  replay stays inside the window.

Values read back from the files carry 6 decimals, so comparisons allow
half a unit in the last place. Any failure raises ``GateError``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

from phevopt.cli import main as cli_main
from phevopt.cli import run_dp_hybrid
from phevopt.dpopt import build_demand, evaluate_rule_on_demand
from phevopt.scenario import load_scenario

from workloads import DEFAULT_SEED, SCENARIOS, WORKLOADS, Workload, cli_argv, write_inputs

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SHIPPED_SCENARIOS = ("single_lap.ini", "three_lap.ini", "obd_single_lap.ini")
SHIPPED_COMMANDS = (
    ("analyze",),
    ("simulate", "--strategy", "rule"),
    ("simulate", "--strategy", "dp"),
    ("compare",),
    ("obd",),
)
ROUNDING = 5e-7  # half the last place of a 6-decimal data file


class GateError(Exception):
    """An output is missing, differs from its golden digest or breaks an
    invariant."""


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one command in-process; return its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every data file in an output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "run.log"}


def _run_checked(label: str, argv: list[str], out: Path) -> dict[str, str]:
    code, err = run_cli(argv)
    if code != 0:
        raise GateError(f"{label}: exit code {code}: {err.strip()}")
    return digests(out)


def _compare(label: str, found: dict, expected: dict) -> None:
    if found == expected:
        return
    bad = sorted(k for k in found.keys() | expected.keys()
                 if found.get(k) != expected.get(k))
    raise GateError(f"{label}: differs from the golden digest in {', '.join(bad)}")


def shipped_digests(work: Path) -> dict[str, dict[str, str]]:
    """Digests of the five commands on the three shipped scenarios."""
    found = {}
    for scenario in SHIPPED_SCENARIOS:
        for command in SHIPPED_COMMANDS:
            key = " ".join((*command, scenario))
            out = work / "shipped" / key.replace(" ", "_")
            argv = [*command, "--scenario", str(SCENARIOS / scenario), "--out", str(out)]
            found[key] = _run_checked(key, argv, out)
    return found


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _column(path: Path, name: str) -> list[float]:
    return [float(row[name]) for row in _rows(path)]


def _keyed(path: Path) -> dict[str, str]:
    return {row["key"]: row["value"] for row in _rows(path)}


def check_invariants(w: Workload, ini: Path, out: Path) -> dict[str, int]:
    """Check the DP invariants on one workload run; return problem sizes."""
    sc = load_scenario(ini)
    if w.grid_step is not None:
        sc.dp = replace(sc.dp, grid_step=w.grid_step)
    if w.command[0] == "obd":
        cfg = sc.dp
        demand = build_demand(sc.cycle, sc.vp, sc.assembly.motor_map,
                              sc.assembly.drivetrain, sc.bp,
                              sc.calibration.energy_scale, cfg.dt_s,
                              sc.rule.regen_current_limit_a)
        start = cfg.initial_soc
        summary = _keyed(out / "obd_summary.csv")
        traj = out / "obd_trajectories.csv"
        branches = [
            ("OBD off", False, _column(traj, "soc_without_pct"),
             float(summary["ec_without_obd_wh_per_km"])),
            ("OBD on", True, _column(traj, "soc_with_pct"),
             float(summary["ec_with_obd_wh_per_km"])),
        ]
    else:
        run = run_dp_hybrid(sc)
        if run.roll is None:
            raise GateError(f"{w.name}: the trip never reaches charge sustaining")
        cfg, demand, entry = run.cfg, run.demand, run.entry_index
        start = float(run.trace.soc_pct[entry])
        if w.command[0] == "simulate":
            summary = _keyed(out / "summary.csv")
            soc = _column(out / "dp_schedule.csv", "soc_pct")
            soc.append(float(summary["final_soc_pct"]))
            ec = float(summary["ec_cs_fuel_wh_per_km"])
        else:
            soc = _column(out / "plot_dp.csv", "soc_pct")[entry:]
            dp_row, = (r for r in _rows(out / "comparison.csv") if r["strategy"] == "dp")
            ec = float(dp_row["ec_cs_fuel_wh_per_km"])
        branches = [("DP", cfg.obd_enabled, soc, ec)]

    for label, obd, soc, ec in branches:
        bcfg = replace(cfg, obd_enabled=obd)
        where = f"{w.name} {label}"
        if len(soc) != demand.n_intervals + 1:
            raise GateError(f"{where}: {len(soc)} boundary SOCs for "
                            f"{demand.n_intervals} intervals")
        slack = bcfg.grid_step + ROUNDING
        outside = [s for s in soc if not bcfg.soc_min - slack <= s <= bcfg.soc_max + slack]
        if outside:
            raise GateError(f"{where}: boundary SOC {outside[0]} leaves the window "
                            f"[{bcfg.soc_min:g}, {bcfg.soc_max:g}] by more than a grid step")
        terminal = bcfg.terminal_rule.resolve(bcfg)
        if soc[-1] < terminal - slack:
            raise GateError(f"{where}: final SOC {soc[-1]} is more than a grid step "
                            f"below the terminal SOC {terminal}")
        rule = evaluate_rule_on_demand(demand, bcfg, start, sc.rule.cs_trigger,
                                       sc.rule.soc_high)
        if rule.feasible and ec > rule.cs_ec_wh_per_km + ROUNDING:
            raise GateError(f"{where}: DP fuel {ec} Wh/km exceeds the rule replay's "
                            f"{rule.cs_ec_wh_per_km:.6f} Wh/km on the same demand")
    return {"samples": sc.cycle.n_samples, "intervals": demand.n_intervals,
            "states": cfg.n_states, "decisions": len(cfg.decisions)}


def check_workload(w: Workload, ini: Path, work: Path) -> tuple[dict[str, str], dict]:
    """Run the workload twice, require identical files and the invariants;
    return the digests and the problem sizes."""
    runs = [_run_checked(w.name, cli_argv(w, ini, work / f"gate-{rep}"), work / f"gate-{rep}")
            for rep in ("a", "b")]
    _compare(f"{w.name} second run", runs[1], runs[0])
    return runs[0], check_invariants(w, ini, work / "gate-a")


def run_gate(w: Workload, seed: int, ini: Path, work: Path) -> tuple[dict[str, str], dict]:
    """The whole gate for one benchmark run; returns what ``check_workload``
    returns, for checking the timed runs' outputs."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = shipped_digests(work)
    for key in sorted(golden["shipped"].keys() | found.keys()):
        _compare(key, found.get(key, {}), golden["shipped"].get(key, {}))
    expected, sizes = check_workload(w, ini, work)
    if seed == DEFAULT_SEED:
        _compare(f"{w.name} seed {seed}", expected, golden["workloads"][w.name])
    return expected, sizes


def write_golden(work: Path) -> None:
    """Record the current program's digests as the golden values."""
    workloads = {}
    for w in WORKLOADS.values():
        ini = write_inputs(w, DEFAULT_SEED, work / w.name)
        workloads[w.name], _ = check_workload(w, ini, work / w.name)
    golden = {"shipped": shipped_digests(work), "workloads": workloads}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
