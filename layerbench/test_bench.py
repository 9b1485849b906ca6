"""Tests of the layered benchmark itself, each on a throwaway copy of the
repository. They run the benchmark as a user would and take about a minute:

    python3 -m pytest -q layerbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COUNT_SUFFIXES = (".calls", ".cells", ".bytes", ".bytes_computed")


def copy_repo(dest: Path, with_program: bool = True) -> Path:
    names = ("src", "scenarios", "layerbench") if with_program else ("layerbench",)
    for name in names:
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "layerbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def declared(kind: str) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("path, old, new", [
    # cost-to-go column of policy.csv, written by simulate --strategy dp
    ("src/phevopt/dpopt/solver.py", 'f"{cost:.9f}"', 'f"{cost:.8f}"'),
    # every 6-decimal value the CLI formats itself
    ("src/phevopt/cli.py", 'f"{x:.6f}"', 'f"{x:.5f}"'),
])
def test_gate_refuses_a_one_byte_format_change(tmp_path, path, old, new):
    root = copy_repo(tmp_path)
    source = root / path
    text = source.read_text()
    assert text.count(old) == 1
    source.write_text(text.replace(old, new))
    proc = bench(root, "--workload", "dp_trip", "--seed", "2", "--seconds", "1")
    assert proc.returncode != 0
    assert "correctness gate failed" in proc.stderr
    assert "metrics" not in proc.stdout


def test_end_to_end_run_reports_every_declared_metric(tmp_path):
    res = result(bench(copy_repo(tmp_path), "--workload", "dp_trip", "--seed", "2",
                       "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counts_repeat_exactly(tmp_path):
    root = copy_repo(tmp_path)
    runs = [result(bench(root, "--workload", "cs_sweep", "--seed", "3",
                         "--seconds", "1", "--trace", "1")) for _ in range(2)]
    assert set(runs[0]["metrics"]) == declared("per_layer")
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith(COUNT_SUFFIXES)} for r in runs]
    assert counts[0] == counts[1]
    # obd solves twice on 414 intervals x 2501 states x 4 decisions
    assert counts[0]["dpopt.solve.calls"] == 2
    assert counts[0]["dpopt.solve.cells"] == 2 * 414 * 2501 * 4


def test_refuses_to_run_without_the_program(tmp_path):
    proc = bench(copy_repo(tmp_path, with_program=False),
                 "--workload", "dp_trip", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
