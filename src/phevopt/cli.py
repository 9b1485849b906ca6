"""Command-line entry points.

Subcommands
-----------
analyze
    Wheel-side cycle metrics, plus calibration deltas when the scenario
    supplies dynamometer test metrics.
simulate
    Full energy-management run under ``--strategy rule`` (thermostat) or
    ``--strategy dp`` (thermostat charge-depleting prefix, optimal
    charge-sustaining remainder).
compare
    Both strategies side by side with utility-factor weighted totals: its
    two rows and two plots are exactly what ``simulate --strategy rule`` and
    ``--strategy dp`` write.
obd
    Diagnostics-drain sensitivity study on the charge-sustaining problem.

Exit codes: 0 success, 2 validation error, 3 infeasible problem or
operating point, 4 I/O failure. Data files use fixed numeric formats and
carry no timestamps; wall-clock metadata goes to ``run.log`` only.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import write_csv
from .accounting import build_uf_report, calibration_factor
from .cycle import DriveCycle, compute_metrics
from .dpopt import (
    DemandProfile,
    DpConfig,
    DpPolicy,
    RolloutResult,
    build_demand,
    obd_study,
    rollout,
    solve,
)
from .dpopt.solver import write_policy
from .dynamics import wheel_power_series
from .ems import EnergyResult, SimTrace, simulate_rule_based, write_trace
from .errors import (
    EnvelopeError,
    InfeasibleProblemError,
    InfeasibleVehicleError,
    PhevOptError,
    ScenarioError,
    ToleranceBreachError,
)
from .powertrain import parse_number
from .scenario import Scenario, load_scenario


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _write_rows(path: Path, header: str, rows) -> None:
    write_csv(path, *((name, "%s", col) for name, col
                      in zip(header.split(","), zip(*rows), strict=True)))


def _report(path: Path, header: str, rows) -> None:
    """Write the key/value ``rows``, then print them; called last, after the
    command's other files."""
    _write_rows(path, header, rows)
    for key, val in rows:
        print(f"{key} = {val}")


def _write_log(out: Path, args, extra: dict) -> None:
    lines = [
        f"command={args.command}",
        f"scenario={args.scenario}",
        f"version={__version__}",
    ]
    lines += [f"{k}={v}" for k, v in extra.items()]
    (out / "run.log").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _prepare(args) -> tuple[Scenario, Path]:
    sc = load_scenario(args.scenario)
    if args.grid_step is not None:
        try:
            sc.dp = replace(sc.dp, grid_step=args.grid_step)
        except ValueError as exc:  # named as load_scenario names a section
            raise ScenarioError(f"--grid-step: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return sc, out


def cmd_analyze(args) -> int:
    sc, out = _prepare(args)
    cyc = sc.cycle
    p_wheel = wheel_power_series(sc.vp, cyc)
    metrics = compute_metrics(cyc.t_s, p_wheel, cyc.v_mps, cyc.distance_km)

    rows = [
        ("distance_km", _fmt(cyc.distance_km)),
        ("duration_s", _fmt(cyc.duration_s)),
        ("positive_propulsion_wh_per_km", _fmt(metrics.positive_propulsion_wh_per_km)),
        ("peak_power_kw", _fmt(metrics.peak_power_kw)),
        ("avg_positive_power_kw", _fmt(metrics.avg_positive_power_kw)),
        ("percent_idle", _fmt(metrics.percent_idle)),
    ]
    if sc.test_metrics is not None:
        cal = calibration_factor(metrics, sc.test_metrics)
        rows += [
            ("test_positive_propulsion_wh_per_km",
             _fmt(sc.test_metrics.positive_propulsion_wh_per_km)),
            ("calibration_energy_scale", _fmt(cal.energy_scale)),
            ("calibration_energy_delta_pct", _fmt(cal.energy_delta_pct)),
        ]
        ratio = cal.avg_power_ratio
        if ratio is not None:
            rows += [
                ("avg_power_ratio", _fmt(ratio)),
                ("avg_power_delta_pct", _fmt(cal.avg_power_delta_pct)),
            ]
    write_csv(out / "wheel_power.csv", ("t_s", "%.3f", cyc.t_s),
              ("v_mps", "%.4f", cyc.v_mps), ("p_wheel_kw", "%.6f", p_wheel))
    _report(out / "metrics.csv", "metric,value", rows)
    return 0


@dataclass
class HybridRun:
    """One strategy's run: the thermostat's trace and energy plus, when the
    DP took over at CS entry sample ``entry_index``, its policy and rollout."""

    trace: SimTrace
    rule_energy: EnergyResult
    entry_index: int | None
    policy: DpPolicy | None = None
    roll: RolloutResult | None = None

    @property
    def demand(self) -> DemandProfile | None:
        return None if self.policy is None else self.policy.demand

    @property
    def cfg(self) -> DpConfig | None:
        return None if self.policy is None else self.policy.cfg

    @property
    def ec_cs_fuel_wh_per_km(self) -> float:
        if self.roll is None:
            return self.rule_energy.ec_cs_fuel_wh_per_km
        return self.roll.cs_ec_wh_per_km

    @property
    def final_soc(self) -> float:
        if self.roll is None:
            return self.rule_energy.final_soc
        return self.roll.final_soc


def run_rule(sc: Scenario) -> HybridRun:
    """Run the thermostat over the whole cycle."""
    trace, energy = simulate_rule_based(
        sc.cycle, sc.vp, sc.assembly.motor_map, sc.assembly.drivetrain,
        sc.bp, sc.rule, calibration=sc.calibration.energy_scale)
    return HybridRun(trace, energy, None)


def run_dp_hybrid(sc: Scenario, *, keep_costs: bool = True) -> HybridRun:
    """Simulate the rule until CS entry, then solve the remainder as the
    charge-sustaining optimization and roll the policy out. With
    ``keep_costs=False`` the policy keeps its stage-0 cost row alone, which
    the rollout needs and ``write_policy`` refuses. Raises
    ``InfeasibleProblemError`` when CS begins at a SOC outside the DP window,
    where no optimization can start."""
    rule = run_rule(sc)
    trace = rule.trace
    idx = trace.cs_entry_index()
    if idx is None or idx >= trace.n_samples - 1:
        return rule
    t0 = float(trace.t_s[idx])
    sub = DriveCycle(
        t_s=sc.cycle.t_s[idx:] - t0,
        v_mps=sc.cycle.v_mps[idx:],
        grade_deg=sc.cycle.grade_deg[idx:],
    )
    if sub.duration_s < sc.dp.dt_s:
        return HybridRun(trace, rule.rule_energy, idx)
    try:  # sc.dp holds, so only the entry's window rule can refuse
        cfg = replace(sc.dp, initial_soc=float(trace.soc_pct[idx]))
    except ValueError as exc:
        raise InfeasibleProblemError(
            f"CS begins outside [rule] soc_low to soc_high: {exc}") from None
    demand = build_demand(sub, sc.vp, sc.assembly.motor_map,
                          sc.assembly.drivetrain, sc.bp,
                          calibration=sc.calibration.energy_scale,
                          dt_s=cfg.dt_s,
                          regen_current_limit_a=sc.rule.regen_current_limit_a)
    policy = solve(demand, cfg, keep_costs=keep_costs)
    return HybridRun(trace, rule.rule_energy, idx, policy, rollout(policy, cfg.initial_soc))


def _summary_rows(sc: Scenario, strategy: str, run: HybridRun):
    energy = run.rule_energy
    rep = build_uf_report(energy.ec_cd_dc_wh_per_km, run.ec_cs_fuel_wh_per_km,
                          sc.uf, sc.charging_efficiency)
    return [
        ("strategy", strategy),
        ("laps", str(sc.laps)),
        ("distance_km", _fmt(sc.cycle.distance_km)),
        ("cd_distance_km", _fmt(energy.cd_distance_km)),
        ("cs_distance_km", _fmt(energy.cs_distance_km)),
        ("ec_cd_dc_wh_per_km", _fmt(energy.ec_cd_dc_wh_per_km)),
        ("ec_cd_ac_wh_per_km", _fmt(rep.ec_cd_ac_wh_per_km)),
        ("ec_cs_fuel_wh_per_km", _fmt(run.ec_cs_fuel_wh_per_km)),
        ("uf", _fmt(sc.uf)),
        ("uf_weighted_electric_wh_per_km", _fmt(rep.ec_uf_weighted_electric)),
        ("uf_weighted_fuel_wh_per_km", _fmt(rep.ec_uf_weighted_fuel)),
        ("uf_weighted_total_wh_per_km", _fmt(rep.ec_uf_weighted_total)),
        ("final_soc_pct", _fmt(run.final_soc)),
    ]


def _write_plot(path: Path, run: HybridRun) -> None:
    """Thermostat SOC per sample, up to CS entry when the DP took over and
    then the rolled-out SOC per interval."""
    t, v, soc = run.trace.t_s, run.trace.v_mps, run.trace.soc_pct
    if run.roll is not None:
        idx = run.entry_index
        t0 = float(t[idx])
        demand = run.policy.demand
        n = demand.n_intervals
        t_end = np.minimum(np.arange(1, n + 1) * demand.dt_s, float(t[-1]) - t0) + t0
        v = np.concatenate((v[: idx + 1], np.interp(t_end, t, v)))
        t = np.concatenate((t[: idx + 1], t_end))
        soc = np.concatenate((soc[: idx + 1], run.roll.soc_trajectory[1:]))
    write_csv(path, ("t_s", "%.3f", t), ("v_mps", "%.4f", v),
              ("soc_pct", "%.6f", soc))


def cmd_simulate(args) -> int:
    sc, out = _prepare(args)
    run = run_rule(sc) if args.strategy == "rule" else run_dp_hybrid(sc)
    rows = _summary_rows(sc, args.strategy, run)
    if args.strategy == "rule":
        rows.append(("genset_transitions",
                     str(len(run.trace.genset_transition_times()))))
    if run.roll is not None:
        n = run.policy.demand.n_intervals
        rows += [
            ("dp_fuel_kwh", _fmt(run.roll.fuel_kwh)),
            ("dp_intervals", str(n)),
            ("dp_null_intervals", str(run.roll.null_intervals)),
        ]
        write_policy(run.policy, out / "policy.csv")
        labels = np.array([d.label for d in run.policy.cfg.decisions], dtype=object)
        write_csv(out / "dp_schedule.csv",
                  ("k", "%d", np.arange(n)),
                  ("soc_pct", "%.6f", run.roll.soc_trajectory[:-1]),
                  ("decision", "%s", labels, run.roll.decision_indices))
    _write_plot(out / "plot.csv", run)
    write_trace(run.trace, out / "trace.csv")
    _report(out / "summary.csv", "key,value", rows)
    return 0


#: The summary keys ``compare`` sets side by side; they are its header.
COMPARED = ("strategy", "ec_cd_dc_wh_per_km", "ec_cd_ac_wh_per_km",
            "ec_cs_fuel_wh_per_km", "uf_weighted_electric_wh_per_km",
            "uf_weighted_fuel_wh_per_km", "uf_weighted_total_wh_per_km",
            "final_soc_pct")


def cmd_compare(args) -> int:
    sc, out = _prepare(args)
    run = run_dp_hybrid(sc, keep_costs=False)  # compare writes no policy.csv
    table = []
    for strategy, r in (("rule", HybridRun(run.trace, run.rule_energy, None)), ("dp", run)):
        summary = dict(_summary_rows(sc, strategy, r))
        table.append(tuple(summary[key] for key in COMPARED))
        _write_plot(out / f"plot_{strategy}.csv", r)
    header = ",".join(COMPARED)
    _write_rows(out / "comparison.csv", header, table)
    print(header)
    for row in table:
        print(",".join(row))
    return 0


def cmd_obd(args) -> int:
    sc, out = _prepare(args)
    study = obd_study(sc.cycle, sc.vp, sc.assembly, sc.bp, sc.dp,
                      calibration=sc.calibration.energy_scale,
                      regen_current_limit_a=sc.rule.regen_current_limit_a)
    rows = [
        ("ec_without_obd_wh_per_km", _fmt(study.ec_without_wh_per_km)),
        ("ec_with_obd_wh_per_km", _fmt(study.ec_with_wh_per_km)),
        ("increase_wh_per_km", _fmt(study.increase_wh_per_km)),
        ("increase_pct", _fmt(study.increase_pct)),
        ("event_count", str(study.event_count)),
        ("drain_per_event_pct", f"{study.drain_per_event_pct:.7f}"),
    ]
    write_csv(out / "obd_trajectories.csv",
              ("k", "%d", np.arange(study.trajectory_without.size)),
              ("soc_without_pct", "%.6f", study.trajectory_without),
              ("soc_with_pct", "%.6f", study.trajectory_with))
    _report(out / "obd_summary.csv", "key,value", rows)
    return 0


def _grid_step(raw: str) -> float:
    """``--grid-step`` reads a number as a scenario file does."""
    try:
        return parse_number(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{raw!r} {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phevopt",
        description="Series plug-in hybrid energy management toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--grid-step", type=_grid_step, default=None,
                       help="override the SOC grid step (percent)")

    p = sub.add_parser("analyze", help="wheel-side cycle metrics")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run one energy-management strategy")
    common(p)
    p.add_argument("--strategy", choices=("rule", "dp"), default="rule")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="rule vs optimized, same scenario")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("obd", help="diagnostics drain sensitivity study")
    common(p)
    p.set_defaults(func=cmd_obd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
        _write_log(Path(args.out), args,
                   {"elapsed_s": f"{time.perf_counter() - start:.3f}"})
        return code
    except (InfeasibleProblemError, InfeasibleVehicleError, EnvelopeError,
            ToleranceBreachError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (PhevOptError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
