"""The column writer against the per-row f-string loops it replaced.

The reference functions below are the per-row loops the package once wrote
its CSV files with; every CLI data file now goes through the block-wise
column writer, which must produce the same bytes. Repeated columns reach
it once-formatted, through ``formatted``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phevopt import cli, ems
from phevopt._csv import _BLOCK, formatted, write_csv
from phevopt.cli import run_dp_hybrid
from phevopt.dpopt import (
    Decision,
    DemandProfile,
    DpConfig,
    DpPolicy,
    obd_study,
    solver,
    studies,
)
from phevopt.dpopt.solver import solve, write_policy
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
    for k in range(policy.decision_idx.shape[0]):
        row_cost = policy.cost_to_go[k]
        row_idx = policy.decision_idx[k]
        for i, soc in enumerate(policy.grid):
            cost = row_cost[i]
            cost_txt = f"{cost:.9f}" if np.isfinite(cost) else "inf"
            out.append(f"{k},{soc:.6f},{policy.cfg.decisions[int(row_idx[i])].label},"
                       f"{cost_txt}\n")
    return "".join(out)


floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
words = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
# what a backward sweep can store: non-negative fuel, or +inf when unreachable
costs = st.one_of(st.sampled_from([x for x in SPECIAL if x >= 0]),
                  st.floats(min_value=0.0))
POLICY_STATES = 3


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


def distinct_strings(column) -> int:
    return len({id(s) for s in column})


def handed_columns(monkeypatch, module, write, *args) -> dict:
    """The ``{name: (spec, values)}`` that ``write(*args)`` hands to
    ``module.write_csv``, which writes nothing."""
    columns = {}
    monkeypatch.setattr(module, "write_csv", lambda path, *cols: columns.update(
        (name, (spec, v)) for name, spec, v in cols))
    write(*args)
    return columns


class TestFormatted:
    @given(pool=st.lists(floats, min_size=1, max_size=24),
           picks=st.lists(st.integers(0, 23)))
    @settings(max_examples=40, deadline=None)
    def test_floats_match_per_value_format(self, pool, picks):
        repeats = np.asarray(pool)[np.asarray(picks, dtype=np.intp) % len(pool)]
        values = np.concatenate([SPECIAL, repeats])
        for spec in FLOAT_SPECS:
            out = formatted(spec, values)
            assert out.dtype == object
            assert out.tolist() == [spec % v for v in values.tolist()]
            assert distinct_strings(out) == np.unique(values.view(np.uint64)).size

    @given(ints=st.lists(st.integers(-2**63, 2**63 - 1), max_size=24),
           flags=st.lists(st.booleans(), max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_ints_and_bools_match_per_value_format(self, ints, flags):
        for values in (np.asarray(ints, dtype=np.int64), np.asarray(flags, dtype=bool)):
            assert formatted("%d", values).tolist() == ["%d" % v for v in values.tolist()]

    def test_negative_zero_keeps_its_sign(self):
        # np.unique on the floats themselves merges -0.0 into 0.0
        assert formatted("%.6f", np.array([0.0, -0.0])).tolist() == [
            "0.000000", "-0.000000"]


class TestWritePolicy:
    @pytest.mark.parametrize("n", (1, _BLOCK // POLICY_STATES + 1))
    @given(lo=st.floats(-1e6, 1e6), width=st.floats(1e-6, 1e6),
           pool=st.lists(costs, min_size=1, max_size=24),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=16),
           labels=st.lists(words, min_size=1, max_size=4))
    @settings(max_examples=8, deadline=None)
    def test_matches_row_loop(self, tmp_path_factory, n, lo, width, pool, picks,
                              labels):
        shape = (n + 1, POLICY_STATES)
        hi = lo + width
        cfg = DpConfig(soc_min=lo, soc_max=hi,
                       grid_step=(hi - lo) / (POLICY_STATES - 1),
                       decisions=tuple(Decision(0.1 * j, 30.0, label)
                                       for j, label in enumerate(labels)))
        policy = DpPolicy(
            cfg=cfg, demand=DemandProfile(np.zeros(n), cfg.dt_s, 1.0),
            cost_to_go=np.resize(np.asarray(pool), shape),
            decision_idx=np.resize(np.asarray(picks, dtype=np.int32) % len(labels),
                                   shape)[:n])
        path = tmp_path_factory.mktemp("policy") / "policy.csv"
        write_policy(policy, path)
        assert path.read_bytes() == reference_policy(policy).encode("utf-8")

    @pytest.mark.parametrize("name", ["single_lap", "three_lap", "obd_single_lap"])
    def test_shipped_solves_store_no_nan_or_negative_inf(self, scenario_dir, name,
                                                         monkeypatch):
        # "%.9f" and the old isfinite branch print these two differently
        policies = []

        def recorded(*args, **kwargs):
            policies.append(solve(*args, **kwargs))
            return policies[-1]

        monkeypatch.setattr(cli, "solve", recorded)
        monkeypatch.setattr(studies, "solve", recorded)
        sc = load_scenario(scenario_dir / f"{name}.ini")
        run_dp_hybrid(sc)
        obd_study(sc.cycle, sc.vp, sc.assembly, sc.bp, sc.dp,
                  calibration=sc.calibration.energy_scale,
                  regen_current_limit_a=sc.rule.regen_current_limit_a)
        assert len(policies) == 3
        for policy in policies:
            ctg = policy.cost_to_go
            assert not np.isnan(ctg).any()
            assert not np.isneginf(ctg).any()
            assert np.isfinite(ctg).any()


class TestWritersMatchRowLoops:
    @pytest.fixture(scope="class")
    def run(self, scenario_dir):
        sc = load_scenario(scenario_dir / "three_lap.ini")
        run = run_dp_hybrid(sc)
        assert run.policy is not None
        return run

    def test_write_policy(self, run, tmp_path):
        path = tmp_path / "policy.csv"
        write_policy(run.policy, path)
        expected = reference_policy(run.policy)
        assert ",inf\n" in expected
        assert path.read_bytes() == expected.encode("utf-8")

    def test_write_trace(self, run, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(run.trace, path)
        assert path.read_bytes() == reference_trace(run.trace).encode("utf-8")

    def test_write_policy_calls_write_csv_once(self, run, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return write_csv(*args, **kwargs)

        monkeypatch.setattr(solver, "write_csv", counted)
        write_policy(run.policy, tmp_path / "policy.csv")
        assert len(calls) == 1

    def test_write_policy_formats_k_and_grid_once(self, run, tmp_path, monkeypatch):
        columns = handed_columns(monkeypatch, solver, write_policy, run.policy,
                                 tmp_path / "policy.csv")
        n, m = run.policy.decision_idx.shape
        assert n > 1 and m > 1
        for name, distinct in (("k", n), ("soc_grid", m)):
            spec, values = columns[name]
            assert spec == "%s"
            assert len(values) == n * m
            assert distinct_strings(values) == distinct

    def test_write_trace_formats_genset_columns_once(self, run, tmp_path, monkeypatch):
        columns = handed_columns(monkeypatch, ems, write_trace, run.trace,
                                 tmp_path / "trace.csv")
        for name in ("genset_on", "genset_warm", "p_genset_elec_kw", "crank_kw",
                     "fuel_step_kwh"):
            spec, values = columns[name]
            raw = getattr(run.trace, name)
            assert spec == "%s"
            assert len(values) == run.trace.n_samples
            assert distinct_strings(values) == np.unique(
                raw.view(f"u{raw.itemsize}")).size
