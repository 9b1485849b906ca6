"""The column writer against the per-row f-string loops it replaced.

The reference functions below are the per-row loops the package once wrote
its CSV files with; every CLI data file now goes through the block-wise
column writer, which must produce the same bytes. The writer formats
``%.Nf`` and ``%d`` with array arithmetic, so its bytes are also checked
against ``spec % v`` value by value, on the cases that arithmetic must hand
to ``%`` (near-ties, huge values) or write as constant cells (NaN,
infinities). Repeated columns reach it coded, as a table and an index
into it.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phevopt import _csv, ems
from phevopt._csv import _BLOCK, write_csv
from phevopt.cli import run_dp_hybrid
from phevopt.dpopt import (
    DemandProfile,
    DpConfig,
    DpPolicy,
    decision_table,
    obd_study,
    solver,
)
from phevopt.dpopt.solver import reachable, write_policy
from phevopt.ems import MODE_CS, write_trace
from phevopt.scenario import load_scenario

FLOAT_SPECS = ("%.3f", "%.4f", "%.6f", "%.9f")
ROW_COUNTS = (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)
SPECIAL = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e300, -1e300, 0.0005, 2.5e-10)
# the writer's working memory per row of ``wide_columns``, the widest file's
# shape: each column's padded bytes and the block buffer they are joined
# into, then that buffer and the bytes left once the pads are deleted;
# measures 214
CSV_BYTES_PER_ROW = 330
# tracemalloc peak of write_policy on three_lap's policy (115 x 501 rows):
# measures 0.58 MB, of which 0.17 MB are the k and soc_grid indices; with
# int64 indices it measured 1.67 MB
POLICY_WRITE_PEAK = 700_000
# text whose UTF-8 sits next to the writer's pad byte 0xFF (C3 BF, EF BF BF,
# F4 8F BF BF), bytes a row's own syntax uses, and the empty string, which is
# all pad
NEAR_PAD = ("\u00ff", "\uffff", "\U0010ffff", "\x00", ",", "\n", "")


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
signs = st.sampled_from((1.0, -1.0))
words = st.text(st.one_of(st.sampled_from("".join(NEAR_PAD)),
                          st.characters(blacklist_categories=("Cs",))), max_size=6)
# what a backward sweep can store: non-negative fuel, or +inf when unreachable
costs = st.one_of(st.sampled_from([x for x in SPECIAL if x >= 0]),
                  st.floats(min_value=0.0))
POLICY_STATES = 3


def scaled_floats(n: int):
    """Floats whose ``%.{n}f`` is hard: within a few ulps of a rounding tie
    ``(k + 0.5) * 10**-n``, either side of ``2**49 / 10**n`` (where the
    array path ends), subnormal, or special."""
    def near_tie(k, ulps, sign):
        x = (k + 0.5) / 10.0 ** n
        return sign * (x + ulps * math.ulp(x))

    edge = 2.0 ** 49 / 10.0 ** n
    return st.one_of(
        st.builds(near_tie, st.integers(0, 2 ** 50), st.integers(-4, 4), signs),
        st.builds(near_tie, st.integers(0, 10 ** 4), st.integers(-4, 4), signs),
        st.builds(lambda x, sign: sign * x, st.floats(edge / 2, 2 * edge), signs),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
        st.sampled_from(SPECIAL + (-math.nan,)),
        floats)


def per_value(name: str, spec: str, values) -> bytes:
    """The bytes of a one-column file, formatted value by value."""
    return (name + "\n" + "".join(spec % v + "\n" for v in values.tolist())).encode()


def written(tmp_path_factory, *columns) -> bytes:
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, *columns)
    return path.read_bytes()


def wide_columns(n: int) -> list:
    """Twelve columns shaped like the trace's, with infinite values."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-100.0, 100.0, (9, n))
    x[:, ::97] = np.inf
    return [(f"f{j}", FLOAT_SPECS[j % len(FLOAT_SPECS)], x[j]) for j in range(9)] + [
        ("k", "%d", np.arange(n)),
        ("mode", "%s", np.array(["CD", "CS"], dtype=object), rng.integers(0, 2, n)),
        ("on", "%d", rng.integers(0, 2, n).astype(bool))]


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

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_floats_match_per_value_format(self, tmp_path_factory, data):
        for spec in FLOAT_SPECS:
            values = np.array(data.draw(st.lists(scaled_floats(int(spec[2:-1])),
                                                 max_size=40)) + list(SPECIAL))
            assert written(tmp_path_factory, ("x", spec, values)) == per_value(
                "x", spec, values)
        # a spec the array path does not know goes through % as a whole
        values = np.array(data.draw(st.lists(scaled_floats(2), max_size=40)))
        assert written(tmp_path_factory, ("x", "%.2e", values)) == per_value(
            "x", "%.2e", values)

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_blocks_by_sign_and_kind_match_row_loop(self, tmp_path_factory, data):
        # a block holds a sign plane only if a value has its sign bit set,
        # and NaN and the infinities are written as constant cells
        n = data.draw(st.integers(0, 9))
        plus = st.one_of(st.floats(0.0, allow_infinity=False),
                         scaled_floats(n).map(abs).filter(math.isfinite))
        no_negatives = data.draw(st.lists(plus, max_size=12)) + [0.0]
        only_minus_zero = data.draw(st.lists(plus, max_size=12)) + [-0.0]
        mixed = data.draw(st.lists(scaled_floats(n), max_size=24)) + [
            math.inf, -math.inf, math.nan]
        x = np.concatenate([np.resize(np.array(pool), size) for pool, size in (
            (no_negatives, _BLOCK), (only_minus_zero, _BLOCK), (mixed, _BLOCK + 7))])
        columns = [("x", f"%.{n}f", x)]
        assert written(tmp_path_factory, *columns) == reference_rows(columns).encode()

    @given(ints=st.lists(st.integers(-2**63, 2**63 - 1), max_size=40),
           flags=st.lists(st.booleans(), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_ints_and_bools_match_per_value_format(self, tmp_path_factory, ints, flags):
        ints = np.asarray(ints + [-2**63, 2**63 - 1, 0, -1], dtype=np.int64)
        for values in (ints, np.asarray(flags, dtype=bool)):
            assert written(tmp_path_factory, ("i", "%d", values)) == per_value(
                "i", "%d", values)

    def test_negative_zero_keeps_its_sign(self, tmp_path_factory):
        assert written(tmp_path_factory, ("x", "%.6f", np.array([0.0, -0.0, -1e-12]))
                       ) == b"x\n0.000000\n-0.000000\n-0.000000\n"

    def test_overflowing_and_special_values_warn_nothing(self, tmp_path_factory):
        # 1e300 * 10**9 overflows and inf - inf is invalid in the array path
        values = np.array([math.inf, -math.inf, math.nan, -math.nan, 1e300, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in FLOAT_SPECS:
                assert written(tmp_path_factory, ("x", spec, values)) == per_value(
                    "x", spec, values)

    def test_coded_column_repeats_its_table(self, tmp_path_factory):
        labels = np.array(["a\x00,b", "\u00e9\n"], dtype=object)
        index = np.array([1, 0, 0, 1])
        assert written(tmp_path_factory, ("s", "%s", labels, index),
                       ("x", "%.3f", [0.5, -2.0], index)) == (
            "s,x\n\u00e9\n,-2.000\na\x00,b,0.500\na\x00,b,0.500\n\u00e9\n,-2.000\n"
        ).encode()

    def test_text_next_to_the_pad_byte_is_kept(self, tmp_path_factory):
        labels = np.array(NEAR_PAD, dtype=object)
        index = np.arange(len(labels))[::-1]
        assert written(tmp_path_factory, ("plain", "%s", labels),
                       ("coded", "%s", labels, index)) == reference_rows(
            [("plain", "%s", labels), ("coded", "%s", labels[index])]).encode("utf-8")

    @pytest.mark.parametrize("n", (0, 9, _BLOCK + 1))
    @given(table=st.lists(words, min_size=1, max_size=8),
           picks=st.lists(st.integers(0, 7), min_size=1, max_size=24))
    @settings(max_examples=20, deadline=None)
    def test_text_matches_row_loop(self, tmp_path_factory, n, table, picks):
        labels = np.array(table, dtype=object)
        index = np.resize(np.asarray(picks) % len(labels), n)
        plain = labels[index]
        assert written(tmp_path_factory, ("plain", "%s", plain),
                       ("coded", "%s", labels, index)) == reference_rows(
            [("plain", "%s", plain), ("coded", "%s", plain)]).encode("utf-8")

    def test_working_memory_is_bounded_per_row(self, tmp_path):
        columns = wide_columns(5 * _BLOCK + 7)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "out.csv", *columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _BLOCK * CSV_BYTES_PER_ROW

    def test_unequal_lengths_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(path, ("a", "%d", np.arange(_BLOCK + 1)),
                      ("b", "%d", np.arange(_BLOCK)))
        assert not path.exists()


def with_digits(d: int, bound: int):
    """Integers of exactly ``d`` decimal digits, at most ``bound``."""
    return st.integers(10 ** (d - 1) if d > 1 else 0, min(10 ** d - 1, bound))


class TestDigitChunks:
    """The array path splits each integer into base-10**4 chunks and peels
    their digits into byte planes; every value below reaches it, none is
    formatted on its own, so a lost chunk or a misplaced plane shows."""

    @pytest.fixture(autouse=True)
    def no_per_value(self):
        with mock.patch.object(_csv, "_per_value", side_effect=AssertionError):
            yield

    @pytest.mark.parametrize("d", range(1, 21))  # d % 4 takes every value
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_ints_of_each_digit_count(self, tmp_path_factory, d, data):
        # the column's widest value has d digits; the others mix fewer
        top = data.draw(with_digits(d, 2 ** 64 - 1))
        rest = data.draw(st.lists(st.integers(1, d).flatmap(
            lambda k: with_digits(k, top)), max_size=12))
        values = np.array([top, *rest], dtype=np.uint64)
        columns = [("u", "%d", values)]
        if top < 2 ** 63:
            sign = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(values),
                                      max_size=len(values)))
            columns.append(("i", "%d", values.astype(np.int64) * np.array(sign)))
        assert written(tmp_path_factory, *columns) == reference_rows(columns).encode()

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_ints_at_the_extremes(self, tmp_path_factory, dtype):
        info = np.iinfo(dtype)
        values = np.array([info.min, info.max, info.min + 1, info.max - 1, 0, 1], dtype)
        assert written(tmp_path_factory, ("i", "%d", values)) == per_value(
            "i", "%d", values)

    @pytest.mark.parametrize("n", range(10))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_fixed_of_each_digit_count(self, tmp_path_factory, n, data):
        # k / 10**n scales back to within an ulp of the integer k, far from
        # a tie, for every k below 2**49, where the array path ends
        ks = data.draw(st.lists(st.integers(1, 15).flatmap(
            lambda d: with_digits(d, 2 ** 49 - 1)), min_size=1, max_size=16))
        values = np.array([sign * k / 10.0 ** n for k, sign in zip(
            ks, data.draw(st.lists(signs, min_size=len(ks), max_size=len(ks))))]
            + [0.0, -0.0])
        spec = f"%.{n}f"
        assert written(tmp_path_factory, ("x", spec, values)) == per_value(
            "x", spec, values)

    def test_one_block_of_every_digit_count(self, tmp_path_factory):
        ends = [v for d in range(1, 21) for v in (10 ** (d - 1), 10 ** d - 1)]
        values = np.array([v for v in ends if v < 2 ** 64], dtype=np.uint64)
        values = np.resize(values[np.random.default_rng(0).permutation(len(values))],
                           _BLOCK)
        fixed = np.array([v / 1e9 for v in ends if v < 2 ** 49] + [0.0, -0.0])
        columns = [("u", "%d", values), ("x", "%.9f", np.resize(fixed, _BLOCK))]
        assert written(tmp_path_factory, *columns) == reference_rows(columns).encode()


def handed_columns(monkeypatch, module, write, *args) -> dict:
    """The ``{name: (spec, values)}`` or ``{name: (spec, table, index)}``
    that ``write(*args)`` hands to ``module.write_csv``, which writes nothing."""
    columns = {}
    monkeypatch.setattr(module, "write_csv", lambda path, *cols: columns.update(
        (name, tuple(rest)) for name, *rest in cols))
    write(*args)
    return columns


class TestWritePolicy:
    @pytest.mark.parametrize("n", (1, _BLOCK // POLICY_STATES + 1))
    # an SOC window lies in [0, 100]
    @given(lo=st.floats(0.0, 99.0), width=st.floats(1e-6, 100.0),
           pool=st.lists(costs, min_size=1, max_size=24),
           picks=st.lists(st.integers(0, 3), min_size=1, max_size=16),
           count=st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_matches_row_loop(self, tmp_path_factory, n, lo, width, pool, picks,
                              count):
        shape = (n + 1, POLICY_STATES)
        hi = min(lo + width, 100.0)
        cfg = DpConfig(soc_min=lo, soc_max=hi,
                       grid_step=(hi - lo) / (POLICY_STATES - 1),
                       decisions=decision_table([0.1 * j for j in range(1, count)],
                                                [30.0] * (count - 1)))
        policy = DpPolicy(
            cfg=cfg, demand=DemandProfile(np.zeros(n), cfg.dt_s, 1.0),
            cost_to_go=np.resize(np.asarray(pool), shape),
            decision_idx=np.resize(np.asarray(picks, dtype=np.uint8) % count,
                                   shape)[:n])
        path = tmp_path_factory.mktemp("policy") / "policy.csv"
        write_policy(policy, path)
        assert path.read_bytes() == reference_policy(policy).encode("utf-8")

    def test_working_memory(self, scenario_dir, tmp_path):
        policy = run_dp_hybrid(load_scenario(scenario_dir / "three_lap.ini")).policy
        assert policy.decision_idx.shape == (115, 501)
        tracemalloc.start()
        try:
            write_policy(policy, tmp_path / "policy.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < POLICY_WRITE_PEAK

    @pytest.mark.parametrize("name", ["single_lap", "three_lap", "obd_single_lap"])
    def test_shipped_solves_store_no_nan_or_negative_inf(self, scenario_dir, name,
                                                         monkeypatch):
        # "%.9f" and the old isfinite branch print these two differently
        policies = []

        def recorded(policy):
            policies.append(reachable(policy))
            return policies[-1]

        # every solve, obd_study's two included, checks its policy here
        monkeypatch.setattr(solver, "reachable", recorded)
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

    def test_write_policy_codes_k_grid_and_labels(self, run, tmp_path, monkeypatch):
        columns = handed_columns(monkeypatch, solver, write_policy, run.policy,
                                 tmp_path / "policy.csv")
        n, m = run.policy.decision_idx.shape
        assert n > 1 and m > 1
        for name, entries in (("k", n), ("soc_grid", m),
                              ("decision_label", len(run.policy.cfg.decisions))):
            spec, table, index = columns[name]
            assert len(table) == entries
            assert len(index) == n * m

    def test_write_trace_codes_mode(self, run, tmp_path, monkeypatch):
        columns = handed_columns(monkeypatch, ems, write_trace, run.trace,
                                 tmp_path / "trace.csv")
        spec, table, index = columns["mode"]
        assert len(table) == 2 and len(index) == run.trace.n_samples
        for name in ("genset_on", "genset_warm", "p_genset_elec_kw", "crank_kw",
                     "fuel_step_kwh"):
            spec, values = columns[name]
            assert spec != "%s" and values is getattr(run.trace, name)

    def test_finite_values_are_never_formatted_one_by_one(self, run, tmp_path,
                                                          monkeypatch):
        # nor are the infinities: only the two text tables reach ``%``
        seen = []

        def recorded(spec, values):
            seen.append((spec, values))
            return per_value_cells(spec, values)

        per_value_cells = _csv._per_value
        monkeypatch.setattr(_csv, "_per_value", recorded)
        write_policy(run.policy, tmp_path / "policy.csv")
        write_trace(run.trace, tmp_path / "trace.csv")
        assert [spec for spec, v in seen] == ["%s", "%s"]
        assert sorted(len(v) for spec, v in seen) == [2, len(run.policy.cfg.decisions)]
        n = run.policy.decision_idx.shape[0]
        assert np.isinf(run.policy.cost_to_go[:n]).any()
        assert ",inf\n" in (tmp_path / "policy.csv").read_text(encoding="utf-8")
