#!/usr/bin/env python3
"""Layered benchmark of the phevopt command-line pipeline.

Run from the repository root:

    python3 layerbench/run.py --workload dp_trip --seed 1 --seconds 30 --trace 0

The seed builds the workload's trip; a correctness gate checks the
program's outputs before anything is timed. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones. Human-readable lines
come first; the last line of standard output is one JSON object. If the
gate fails the script exits non-zero and prints no metric.

``--write-golden`` records the current program's output digests in
``golden.json``; use it only in a change that states which bytes move.

The generator is a closed loop: one command at a time, in this process,
with no threads. See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, cli_argv, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".layerbench_work"

SETUP_PROBES = 9        # child processes that time import + first scenario load
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
MIN_REPS = 3 * TAIL_BEYOND  # so the tail is at least p66.7
MIN_TRACED_REPS = 3
PROBE_TIMEOUT_S = 60


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="workload to run")
    ap.add_argument("--seed", type=int, default=1, help="seed of the generated trip")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long the timed loop runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    ap.add_argument("--write-golden", action="store_true",
                    help="record the current output digests and exit")
    args = ap.parse_args(argv)
    if not args.write_golden and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def probe(kind: str, *args: str) -> dict:
    """Run probe.py in a child process and return its JSON result."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), kind, str(SRC), *args],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {kind} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


class SetupProbes:
    """Set-up probes spread over the timed loop, so that they see the same
    machine load as the commands: each times ``import phevopt`` and the
    first ``load_scenario`` in a fresh process."""

    def __init__(self, ini: Path):
        self.ini = ini
        self.runs = []

    def catch_up(self, progress: float) -> bool:
        """Run the probes due by ``progress``, the share of the loop done;
        return whether any ran."""
        done = len(self.runs)
        while len(self.runs) < SETUP_PROBES * min(progress, 1.0):
            run = probe("setup", str(self.ini))
            run["setup_s"] = run["import_s"] + run["load_scenario_s"]
            self.runs.append(run)
        return len(self.runs) > done

    def median(self, key: str) -> float:
        return statistics.median(r[key] for r in self.runs)


def reference_seconds() -> float:
    """Time a fixed piece of work that does not touch phevopt.

    It mixes interpreter arithmetic, string formatting and small numpy
    array updates, about 8 ms each on an idle core, so that it slows down
    with the machine roughly as the CLI does. Changing it changes the unit
    of every ``run_ref_*`` metric.
    """
    a = np.linspace(0.0, 1.0, 2501)
    t0 = time.perf_counter()
    s = 0.0
    for i in range(100_000):
        s += i * 0.5
    "\n".join([f"{i},{i * 0.5:.6f},{i * 0.25:.9f}" for i in range(5_000)])
    x = a
    for _ in range(1_800):
        x = np.minimum(x, a * 1.0001)
    return time.perf_counter() - t0


def timed_commands(gate, argv, out, expected, seconds, min_reps, setup, tracer=None):
    """Closed loop: run the command until ``seconds`` pass and at least
    ``min_reps`` ran. Between commands it times the reference work and runs
    the set-up probes that are due.

    Return each command's wall time, its wall time in units of the mean of
    the two reference times around it, the failures and per-command spans.
    """
    run = gate.run_cli if tracer is None else tracer.span("cli.main", gate.run_cli)
    times, ratios, failed, spans = [], [], 0, []
    start = time.perf_counter()
    ref_before = reference_seconds()
    while len(times) < min_reps or time.perf_counter() - start < seconds:
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        try:
            code, _ = run(argv)
        except Exception:  # a crash is a failed command, not a benchmark error
            code = None
        times.append(time.perf_counter() - t0)
        try:
            ok = code == 0 and gate.digests(out) == expected
        except OSError:
            ok = False
        failed += not ok
        if tracer is not None:
            spans.append(tracer.take())
        ref_after = reference_seconds()
        ratios.append(2.0 * times[-1] / (ref_before + ref_after))
        ref_before = ref_after
        if setup.catch_up((time.perf_counter() - start) / seconds):
            ref_before = reference_seconds()
    setup.catch_up(1.0)
    return times, ratios, failed, spans


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_metrics(names, spans: list[dict], untraced_p50: float, traced_p50: float,
                  setup: SetupProbes) -> dict[str, float]:
    """Per-layer metrics: medians over the traced commands."""
    def med(key):
        return statistics.median(rep.get(key, 0.0) for rep in spans)

    values = {name: med(name) for name in names}
    values["cli.self_s"] = med("cli.main.self_s")
    values["dpopt.solve.ns_per_cell"] = statistics.median(
        rep["dpopt.solve.s"] * 1e9 / rep["dpopt.solve.cells"]
        if rep.get("dpopt.solve.cells") else 0.0 for rep in spans)
    values["setup.import_s"] = setup.median("import_s")
    values["setup.load_scenario_s"] = setup.median("load_scenario_s")
    values["bench.trace_overhead_s"] = traced_p50 - untraced_p50
    return values


def environment() -> str:
    try:
        import phevopt.dpopt._dpcore  # noqa: F401
        compiled = True
    except ImportError:
        compiled = False
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"nproc={len(os.sched_getaffinity(0))} compiled_dpcore={compiled}")


def measure(args, work: Path) -> int:
    import gate
    from spans import Tracer, installed

    w = WORKLOADS[args.workload]
    ini = write_inputs(w, args.seed, work / "inputs")
    try:
        expected, sizes = gate.run_gate(w, args.seed, ini, work)
    except gate.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1

    print(f"layerbench: workload={w.name} seed={args.seed} trace={args.trace}")
    print("problem: " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    print(f"environment: {environment()}")
    print("generator: closed loop, one command at a time, one process, no threads")
    print(f"gate: {len(gate.SHIPPED_SCENARIOS) * len(gate.SHIPPED_COMMANDS)} shipped "
          f"commands match their digests; the workload repeats byte for byte and "
          f"holds the DP invariants")

    out = work / "out"
    argv = cli_argv(w, ini, out)
    setup = SetupProbes(ini)
    if args.trace == 0:
        times, ratios, failed, _ = timed_commands(gate, argv, out, expected,
                                                  args.seconds, MIN_REPS, setup)
        rss = probe("rss", *cli_argv(w, ini, work / "rss"))
        failed += rss["code"] != 0 or gate.digests(work / "rss") != expected
        attempted = len(times) + 1
        n = len(times)
        (tail_ref, pct), (tail_s, _) = tail(ratios), tail(times)
        metrics = {
            "setup_s": (setup.median("setup_s"), "s"),
            "run_ref_p50": (statistics.median(ratios), "ref"),
            "run_ref_tail": (tail_ref, "ref"),
            "peak_rss_mb": (rss["peak_rss_mb"], "MB"),
        }
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh processes spread over the "
                       f"run: import phevopt + first load_scenario",
            "run_ref_p50": f"median of {n} commands, in reference-work units",
            "run_ref_tail": f"p{pct:.1f} of {n} commands, {TAIL_BEYOND} beyond it",
            "peak_rss_mb": "max RSS of a child process running one command",
        }
        # wall-clock figures, printed for reading but not bounded: they move
        # with the load other tenants put on the machine
        unbounded = {
            "run_s_p50": (statistics.median(times), "s", f"median of {n} commands"),
            "run_s_tail": (tail_s, "s", f"p{pct:.1f} of {n} commands"),
        }
    else:
        half = args.seconds / 2
        plain, _, failed, _ = timed_commands(gate, argv, out, expected, half,
                                             MIN_TRACED_REPS, setup)
        tracer = Tracer()
        with installed(tracer):
            traced, _, traced_failed, spans = timed_commands(
                gate, argv, out, expected, half, MIN_TRACED_REPS, setup, tracer)
        failed += traced_failed
        attempted = len(plain) + len(traced)
        units = per_layer_units()
        values = layer_metrics(units, spans, statistics.median(plain),
                               statistics.median(traced), setup)
        metrics = {k: (values[k], unit) for k, unit in units.items()}
        notes = {k: f"median of {len(traced)} traced commands" for k in metrics}
        notes["bench.trace_overhead_s"] = (f"median of {len(traced)} traced minus "
                                          f"median of {len(plain)} plain commands")
        for k in ("setup.import_s", "setup.load_scenario_s"):
            notes[k] = f"median of {SETUP_PROBES} fresh processes"
        unbounded = {}

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({notes[name]})")
    for name, (value, unit, note) in unbounded.items():
        print(f"{name} = {value:.6g} {unit} ({note}; wall clock, not bounded)")
    print(f"error_rate = {failed / attempted:g} ({failed} of {attempted} commands failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phevopt" / "cli.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no phevopt sources and scenarios under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        if args.write_golden:
            import gate
            gate.write_golden(work)
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())
