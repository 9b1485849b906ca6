"""The column writer against the per-row f-string loops it replaced.

The reference functions below are the per-row loops the package wrote its
CSV files with (``write_policy`` still does); the block-wise writer must
produce the same bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phevopt._csv import _BLOCK, write_csv
from phevopt.cli import run_dp_hybrid
from phevopt.cycle import save_cycle
from phevopt.dpopt.solver import write_policy
from phevopt.ems import MODE_CS, write_trace
from phevopt.scenario import load_scenario

FLOAT_SPECS = ("%.3f", "%.4f", "%.6f", "%.9f")
ROW_COUNTS = (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)
SPECIAL = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e300, -1e300, 0.0005, 2.5e-10)


def reference_rows(columns) -> str:
    """One f-string per cell, one row at a time: the old writers' loop."""
    names, specs, values = zip(*columns)
    out = [",".join(names) + "\n"]
    for k in range(len(values[0])):
        out.append(",".join(f"{v[k]:{spec[1:]}}" for spec, v in zip(specs, values))
                   + "\n")
    return "".join(out)


def reference_trace(trace) -> str:
    out = ["t_s,v_mps,mode,genset_on,genset_warm,p_wheel_kw,"
           "p_motor_elec_kw,p_genset_elec_kw,crank_kw,i_batt_a,"
           "soc_pct,fuel_step_kwh\n"]
    for k in range(trace.n_samples):
        out.append(
            f"{trace.t_s[k]:.3f},{trace.v_mps[k]:.4f},"
            f"{'CS' if trace.mode[k] == MODE_CS else 'CD'},"
            f"{int(trace.genset_on[k])},{int(trace.genset_warm[k])},"
            f"{trace.p_wheel_kw[k]:.6f},{trace.p_motor_elec_kw[k]:.6f},"
            f"{trace.p_genset_elec_kw[k]:.6f},{trace.crank_kw[k]:.6f},"
            f"{trace.i_batt_a[k]:.6f},{trace.soc_pct[k]:.6f},"
            f"{trace.fuel_step_kwh[k]:.9f}\n")
    return "".join(out)


def reference_policy(policy) -> str:
    out = ["k,soc_grid,decision_label,cost_to_go_kwh\n"]
    for k in range(policy.n_intervals):
        row_cost = policy.cost_to_go[k]
        row_idx = policy.decision_idx[k]
        for i, soc in enumerate(policy.grid):
            cost = row_cost[i]
            cost_txt = f"{cost:.9f}" if np.isfinite(cost) else "inf"
            out.append(f"{k},{soc:.6f},{policy.decisions[int(row_idx[i])].label},"
                       f"{cost_txt}\n")
    return "".join(out)


def reference_cycle(cycle) -> str:
    out = ["t_s,v_mps,grade_deg\n"]
    for t, v, g in zip(cycle.t_s, cycle.v_mps, cycle.grade_deg):
        out.append(f"{t:.3f},{v:.4f},{g:.4f}\n")
    return "".join(out)


floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
words = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


class TestWriteCsv:
    @pytest.mark.parametrize("n", ROW_COUNTS)
    @given(pool=st.lists(floats, min_size=1, max_size=24),
           ints=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8),
           flags=st.lists(st.booleans(), min_size=1, max_size=5),
           labels=st.lists(words, min_size=1, max_size=4))
    @settings(max_examples=8, deadline=None)
    def test_matches_row_loop(self, tmp_path_factory, n, pool, ints, flags, labels):
        pool = np.asarray(pool)
        columns = [(f"f{j}", spec, np.resize(np.roll(pool, j), n))
                   for j, spec in enumerate(FLOAT_SPECS)]
        columns += [
            ("i", "%d", np.resize(np.asarray(ints, dtype=np.int64), n)),
            ("b", "%d", np.resize(np.asarray(flags), n)),
            ("s", "%s", np.resize(np.asarray(labels, dtype=object), n)),
        ]
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_csv(path, *columns)
        assert path.read_bytes() == reference_rows(columns).encode("utf-8")

    def test_unequal_lengths_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(path, ("a", "%d", np.arange(_BLOCK + 1)),
                      ("b", "%d", np.arange(_BLOCK)))
        assert not path.exists()


class TestWritersMatchRowLoops:
    @pytest.fixture(scope="class")
    def run(self, scenario_dir):
        sc = load_scenario(scenario_dir / "three_lap.ini")
        run = run_dp_hybrid(sc)
        assert run.policy is not None
        return sc, run

    def test_write_policy(self, run, tmp_path):
        path = tmp_path / "policy.csv"
        write_policy(run[1].policy, path)
        expected = reference_policy(run[1].policy)
        assert ",inf\n" in expected
        assert path.read_bytes() == expected.encode("utf-8")

    def test_write_trace(self, run, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(run[1].trace, path)
        assert path.read_bytes() == reference_trace(run[1].trace).encode("utf-8")

    def test_save_cycle(self, run, tmp_path):
        path = tmp_path / "cycle.csv"
        save_cycle(run[0].cycle, path)
        assert path.read_bytes() == reference_cycle(run[0].cycle).encode("utf-8")
