import io
import re
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phevopt.cycle
from phevopt.cycle import (
    DriveCycle,
    _trapezoid_weights,
    compute_metrics,
    load_cycle,
    repeat_cycle,
)
from phevopt.errors import CycleFormatError

from helpers import synthetic_cycle


def make_cycle(t, v, grade=None):
    return DriveCycle(t_s=np.asarray(t, float), v_mps=np.asarray(v, float),
                      grade_deg=None if grade is None else np.asarray(grade, float))


class TestLoadCycle:
    def test_two_row_distance(self):
        c = load_cycle(io.StringIO("t_s,v_mps\n0,0\n1,10\n"))
        assert c.distance_km == pytest.approx(0.005, abs=1e-12)

    def test_negative_speed_rejected(self):
        with pytest.raises(CycleFormatError):
            load_cycle(io.StringIO("t_s,v_mps\n0,0\n1,-1\n"))

    def test_non_increasing_time_rejected(self):
        with pytest.raises(CycleFormatError):
            load_cycle(io.StringIO("t_s,v_mps\n0,0\n0,5\n"))

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(CycleFormatError, match="line 3"):
            load_cycle(io.StringIO("t_s,v_mps\n0,0\nnope,5\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(CycleFormatError):
            load_cycle(io.StringIO("time,speed\n0,0\n1,1\n"))

    def test_grade_column_optional(self):
        c = load_cycle(io.StringIO("t_s,v_mps\n0,0\n1,1\n"))
        assert np.all(c.grade_deg == 0.0)
        c2 = load_cycle(io.StringIO("t_s,v_mps,grade_deg\n0,0,2\n1,1,2\n"))
        assert np.all(c2.grade_deg == 2.0)

    def test_comments_ignored(self):
        c = load_cycle(io.StringIO("# a comment\nt_s,v_mps\n0,0\n# mid\n1,3\n"))
        assert c.n_samples == 2

    def test_synthetic_distance_matches_independent_sum(self, cycle):
        t, v = cycle.t_s, cycle.v_mps
        dist = sum(0.5 * (v[i] + v[i + 1]) * (t[i + 1] - t[i])
                   for i in range(len(t) - 1))
        assert cycle.distance_km == pytest.approx(dist / 1000.0, rel=1e-12)


def reference_load_cycle(source) -> DriveCycle:
    """``load_cycle`` as it was before the one-pass parser: every line goes
    through Python's own str methods."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    # each per-line step maps a builtin, so no Python code runs per row
    lines = list(map(str.strip, text.splitlines()))
    n = len(lines)
    filled = np.fromiter(map(bool, lines), bool, n)
    comment = np.fromiter(map(str.startswith, lines, repeat("#")), bool, n)
    used = np.flatnonzero(filled & ~comment)
    if used.size == 0:
        raise CycleFormatError("missing header row 't_s,v_mps[,grade_deg]'")
    header = [p.strip() for p in lines[used[0]].split(",")]
    if header not in (["t_s", "v_mps"], ["t_s", "v_mps", "grade_deg"]):
        raise CycleFormatError(f"line {used[0] + 1}: expected header "
                               f"'t_s,v_mps[,grade_deg]', got {lines[used[0]]!r}")

    # every row before the first with a wrong field count is parsed in one
    # pass; an error names the earliest offending line
    rows = list(map(lines.__getitem__, used[1:].tolist()))
    linenos = used[1:] + 1
    width = len(header)
    counts = np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows)) + 1
    bad = np.flatnonzero(counts != width)
    n_ok = int(bad[0]) if bad.size else len(rows)
    try:
        values = np.array(",".join(rows[:n_ok]).split(",") if n_ok else [], dtype=float)
    except ValueError:
        for lineno, row in zip(linenos, rows):
            try:
                np.array(row.split(","), dtype=float)
            except ValueError:
                raise CycleFormatError(
                    f"line {lineno}: non-numeric value in {row!r}") from None
    if bad.size:
        raise CycleFormatError(f"line {linenos[n_ok]}: expected {width} fields, "
                               f"got {counts[n_ok]}")
    if len(rows) < 2:
        raise CycleFormatError(f"need at least 2 samples, got {len(rows)}")

    data = values.reshape(-1, width)
    grade = data[:, 2] if len(header) == 3 else None
    try:
        return DriveCycle(t_s=data[:, 0], v_mps=data[:, 1], grade_deg=grade)
    except ValueError as exc:
        raise CycleFormatError(str(exc)) from None


def parsed(load, text):
    """The arrays a parser returns, as (dtype, shape, bytes), or the class
    and message of what it raises."""
    try:
        c = load(io.StringIO(text))
    except CycleFormatError as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in (c.t_s, c.v_mps, c.grade_deg)]


#: Tokens the two number parsers might read differently: Python's float
#: takes underscores and non-ASCII digits, np.loadtxt's C parser does not.
ODD_TOKENS = ("", " ", "nan", "-nan", "inf", "1e500", "-1e500", "1_000", "1__0",
              "\u0661\u0662", "\uff13", "\u00a01", "0x10", "1d5", "+2", ".5", "5.",
              "1e", "abc", "1 2", "1#2")
FORMATS = ("%r", "%.3f", "%g", "%.6e", "%d")


@st.composite
def cycle_texts(draw):
    """Cycle CSV texts near the format's edges: 2 or 3 columns, headers
    with spaces, blank and comment lines around the header and the rows,
    inline comments, CRLF line ends, surrounding whitespace, wrong field
    counts, empty fields, and odd number tokens. Each kind of fault is
    switched on for a share of the texts only, so that about half of them
    are valid cycles."""
    width = draw(st.sampled_from([2, 3]))
    names = ["t_s", "v_mps", "grade_deg"][:width]
    pad = st.sampled_from(["", "", " ", "\t", "  "]) if draw(st.booleans()) else st.just("")
    header = ",".join(draw(pad) + name + draw(pad) for name in names)
    if draw(st.integers(0, 19)) == 0:
        header = draw(st.sampled_from(["time,speed", "t_s", "t_s,v_mps,grade"]))
    skipped = st.sampled_from(["", " ", "\t", "# note", "#t_s,v_mps", "  # indented"])
    lines = draw(st.lists(skipped, max_size=3)) + [header]
    lines += draw(st.lists(skipped, max_size=2))
    # the chance, in tenths, of each fault on each row
    odd, count, inline, gap = (draw(st.sampled_from([0, 0, 0, 1, 3])) for _ in range(4))
    t = 0.0
    for _ in range(draw(st.sampled_from([3, 2, 4, 8, 6, 1, 0]))):
        values = [t, draw(st.floats(0.0, 40.0)), draw(st.floats(-5.0, 5.0))][:width]
        t += draw(st.sampled_from([0.5, 1.0, 2.0, 0.1, 1e-9]))
        fields = [draw(st.sampled_from(ODD_TOKENS)) if draw(st.integers(0, 9)) < odd
                  else draw(st.sampled_from(FORMATS)) % v for v in values]
        if draw(st.integers(0, 9)) < count:
            fields = draw(st.sampled_from([fields[:-1], fields + ["1"], fields + [""]]))
        row = draw(pad) + ",".join(draw(pad) + f + draw(pad) for f in fields) + draw(pad)
        if draw(st.integers(0, 9)) < inline:
            row += draw(st.sampled_from([" # inline", "#"]))
        lines.append(row)
        if draw(st.integers(0, 9)) < gap:
            lines.append(draw(skipped))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    if draw(st.integers(0, 19)) == 0:  # one line end of the other kind
        text = text.replace(end, "\n" if end == "\r\n" else "\r\n", 1)
    return text


#: What the cycle grammar refuses and the reference reads: once ``\r\n``
#: is ``\n``, a character outside ASCII, a lone ``\r`` or a control that
#: str.splitlines or str.strip takes for a line end or a blank; and an
#: underscore between digits, which Python's float reads.
OUTSIDE_CHAR = re.compile(r"[^\x00-\x7f]|[\r\x0b\x0c\x1c-\x1f]")
DIGIT_UNDERSCORE = re.compile(r"\d_\d")


def error_line(result):
    """The line number a ``parsed`` error names, or None."""
    m = re.match(r"line (\d+): ", result[1]) if isinstance(result, tuple) else None
    return int(m.group(1)) if m else None


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """The argument tuples of every np.loadtxt call phevopt.cycle makes."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(phevopt.cycle.np, "loadtxt", counted)
    return calls


def assert_one_pass(text, calls):
    """``text`` parses as the reference parses it, in one np.loadtxt call."""
    result = parsed(load_cycle, text)
    assert len(calls) == 1
    assert result == parsed(reference_load_cycle, text)


#: Texts outside the grammar, each with the error naming its first wrong
#: line; the reference accepts all but the first and the last.
REFUSED = {
    "t_s,v_mps\n0,0 # inline\n1,1\n": "line 2: non-numeric value in '0,0 # inline'",
    "t_s,v_mps\n0,0\n1,1_0\n": "line 3: non-numeric value in '1,1_0'",
    "t_s,v_mps\n0,0\n1,\u0661\n": "line 3: character '\u0661' is not allowed",
    "t_s,v_mps\n0,0\r1,1\n": "line 2: character '\\r' is not allowed",
    **{f"t_s,v_mps\n0,0{c}1,1\n": f"line 2: character {c!r} is not allowed"
       for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"},
    "t_s,v_mps\n0,0\n1,\xa01\n": "line 3: character '\\xa0' is not allowed",
    "t_s,v_mps\n0,0 \xa0\n1,1\n": "line 2: character '\\xa0' is not allowed",
    "t_s,v_mps\n0,0\n1\n": "line 3: expected 2 fields, got 1",
}


class TestOnePassParser:
    """``load_cycle`` parses in one C pass. Inside the grammar it returns
    what the reference returns, bit for bit, or raises the same error; a
    text outside it raises ``CycleFormatError`` naming a line no later than
    any line the reference names."""

    @given(text=cycle_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, text):
        result, expected = parsed(load_cycle, text), parsed(reference_load_cycle, text)
        if OUTSIDE_CHAR.search(text.replace("\r\n", "\n")) or DIGIT_UNDERSCORE.search(text):
            assert error_line(result) is not None
            if error_line(expected) is not None:
                assert error_line(result) <= error_line(expected)
        else:
            assert result == expected

    @pytest.mark.parametrize("char", [chr(i) for i in range(33)] + [
        "\x7f", "\x85", "\xa0", "\u2000", "\u2028", "\u2029", "\u3000", "\u0661"])
    def test_every_odd_character_at_every_position(self, char):
        base = "t_s,v_mps\n0,0\n1,1.5\n2,2\n"
        for text in (base, base.replace("\n", "\r\n")):
            for pos in range(len(text) + 1):
                for odd in (text[:pos] + char + text[pos:],
                            text[:pos] + char + text[pos + 1:]):
                    folded = odd.replace("\r\n", "\n")
                    refused = OUTSIDE_CHAR.search(folded)
                    if refused:
                        line = folded.count("\n", 0, refused.start()) + 1
                        assert parsed(load_cycle, odd) == (CycleFormatError, (
                            f"line {line}: character {refused.group()!r} is not allowed"))
                    else:
                        assert parsed(load_cycle, odd) == parsed(reference_load_cycle, odd)

    @pytest.mark.parametrize("text", [
        "t_s,v_mps\n0,0\n1,1\n",
        "# a comment\n\nt_s,v_mps\n# mid\n0,0\n\n1,3\n# end\n",
        "  t_s , v_mps ,grade_deg\r\n0,0,1\r\n1,2,3\r\n",
        "t_s,v_mps\n 0 , 0 \n1,\t2\n  # indented comment\n\t\n2,2",
        "t_s,v_mps\n0,0\n  \n1,1 \n\t\n",
        "t_s,v_mps\n0,0\n1,1\n ",
        "t_s,v_mps\n0,0\n1,1\n\t",
    ])
    def test_one_pass_takes_comments_blank_lines_and_spaced_headers(self, text,
                                                                     loadtxt_calls):
        assert_one_pass(text, loadtxt_calls)

    @pytest.mark.parametrize("text", REFUSED)
    def test_one_pass_leaves_the_rest_to_the_line_reader(self, text):
        assert parsed(load_cycle, text) == (CycleFormatError, REFUSED[text])

    def test_earliest_fault_is_named_whatever_its_kind(self):
        # the reference reads 1_000 and names the 0x10 on line 8
        text = "t_s,v_mps\n0,0\n1,1\n2,2\n3,3\n4,1_000\n5,5\n6,0x10\n"
        assert parsed(load_cycle, text) == (
            CycleFormatError, "line 6: non-numeric value in '4,1_000'")

    @pytest.mark.parametrize("text", ["t_s,v_mps\r\n0,0\r1,1\r\n2,2\n", *REFUSED])
    def test_a_file_reads_as_its_text(self, tmp_path, text):
        # no newline translation: a lone \r in a file is refused as in a stream
        path = tmp_path / "cycle.csv"
        path.write_bytes(text.encode("utf-8"))
        assert parsed(lambda _: load_cycle(path), text) == parsed(load_cycle, text)

    def test_shipped_cycle(self, scenario_dir, loadtxt_calls):
        text = (scenario_dir / "synthetic_cycle.csv").read_text(encoding="utf-8")
        assert_one_pass(text, loadtxt_calls)

    def test_fixed_point_trip(self, loadtxt_calls):
        """A 3-column trip in the benchmark's ``%.3f,%.4f,%.4f`` rows."""
        rng = np.random.default_rng(3)
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, 999))])
        v = rng.uniform(0.0, 35.0, t.size)
        g = rng.uniform(-4.0, 4.0, t.size)
        lines = ["t_s,v_mps,grade_deg"] + [f"{a:.3f},{b:.4f},{c:.4f}"
                                            for a, b, c in zip(t, v, g)]
        assert_one_pass("\n".join(lines) + "\n", loadtxt_calls)


class TestRepeatCycle:
    def test_identity(self, cycle):
        r = repeat_cycle(cycle, 1)
        assert np.array_equal(r.t_s, cycle.t_s)
        assert np.array_equal(r.v_mps, cycle.v_mps)

    def test_triple_distance_of_known_lap(self):
        # closed triangular lap built to measure exactly 22.55 km
        c = make_cycle([0.0, 1127.5, 2255.0], [0.0, 20.0, 0.0])
        assert c.distance_km == pytest.approx(22.55, abs=1e-12)
        r = repeat_cycle(c, 3)
        assert r.distance_km == pytest.approx(67.65, rel=1e-9)

    def test_distance_scales_by_laps(self, cycle):
        r = repeat_cycle(cycle, 3)
        assert r.distance_km == pytest.approx(3 * cycle.distance_km, rel=1e-9)

    def test_duration_doubles(self, cycle):
        r = repeat_cycle(cycle, 2)
        assert r.duration_s == pytest.approx(2 * cycle.duration_s, rel=1e-12)

    def test_time_axis_strictly_increasing(self, cycle):
        r = repeat_cycle(cycle, 3)
        assert np.all(np.diff(r.t_s) > 0)

    def test_zero_laps_rejected(self, cycle):
        with pytest.raises(ValueError):
            repeat_cycle(cycle, 0)

    def test_open_cycle_rejected(self):
        c = make_cycle([0.0, 10.0], [0.0, 5.0])
        with pytest.raises(ValueError):
            repeat_cycle(c, 2)


class TestComputeMetrics:
    def test_constant_power_segment(self):
        t = np.arange(0.0, 101.0)
        p = np.full(101, 8.544)
        v = np.full(101, 20.0)
        m = compute_metrics(t, p, v, distance_km=2.0)
        assert m.positive_propulsion_wh_per_km == pytest.approx(118.67, abs=0.01)
        assert m.peak_power_kw == pytest.approx(8.544)
        assert m.avg_positive_power_kw == pytest.approx(8.544)
        assert m.percent_idle == 0.0

    def test_idle_cycle(self):
        t = np.arange(0.0, 10.0)
        z = np.zeros(10)
        m = compute_metrics(t, z, z, distance_km=1.0)
        assert m.positive_propulsion_wh_per_km == 0.0
        assert m.peak_power_kw == 0.0
        assert m.avg_positive_power_kw == 0.0
        assert m.percent_idle == 100.0

    def test_idle_depends_only_on_velocity(self, cycle):
        p1 = np.sin(cycle.t_s / 50.0) * 30.0
        p2 = np.cos(cycle.t_s / 90.0) * 12.0 + 5.0
        m1 = compute_metrics(cycle.t_s, p1, cycle.v_mps, cycle.distance_km)
        m2 = compute_metrics(cycle.t_s, p2, cycle.v_mps, cycle.distance_km)
        assert m1.percent_idle == m2.percent_idle

    @pytest.mark.parametrize("k", [0.5, 2.0, 7.25])
    def test_power_scaling(self, k):
        t = np.arange(0.0, 50.0)
        rng = np.random.default_rng(7)
        p = rng.uniform(0.5, 40.0, t.size)
        v = rng.uniform(1.0, 30.0, t.size)
        base = compute_metrics(t, p, v, distance_km=1.3)
        scaled = compute_metrics(t, k * p, v, distance_km=1.3)
        assert scaled.positive_propulsion_wh_per_km == pytest.approx(
            k * base.positive_propulsion_wh_per_km, rel=1e-12)
        assert scaled.peak_power_kw == pytest.approx(k * base.peak_power_kw, rel=1e-12)
        assert scaled.avg_positive_power_kw == pytest.approx(
            k * base.avg_positive_power_kw, rel=1e-12)

    def test_per_km_metrics_invariant_under_laps(self, cycle):
        p = 0.4 * cycle.v_mps**2 / 10.0 - 2.0
        r = repeat_cycle(cycle, 3)
        p3 = np.concatenate([p, p[1:], p[1:]])
        m1 = compute_metrics(cycle.t_s, p, cycle.v_mps, cycle.distance_km)
        m3 = compute_metrics(r.t_s, p3, r.v_mps, r.distance_km)
        assert m3.positive_propulsion_wh_per_km == pytest.approx(
            m1.positive_propulsion_wh_per_km, rel=1e-9)
        assert m3.percent_idle == pytest.approx(m1.percent_idle, rel=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([0.0, 1.0], [1.0], [1.0, 1.0], 1.0)


class TestDriveCycleValidation:
    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            make_cycle([0.0], [0.0])

    def test_requires_zero_start(self):
        with pytest.raises(ValueError):
            make_cycle([1.0, 2.0], [0.0, 0.0])

    def test_trapezoid_weights_sum_to_duration(self, cycle):
        assert _trapezoid_weights(cycle.t_s).sum() == pytest.approx(cycle.duration_s)

    def test_synthetic_is_closed(self):
        assert synthetic_cycle().is_closed()

    def test_synthetic_writes_the_shipped_cycle(self, scenario_dir):
        # the generator's rows in the fixed-point format of the shipped file
        c = synthetic_cycle()
        rows = ["t_s,v_mps,grade_deg"] + [f"{t:.3f},{v:.4f},{g:.4f}"
                                          for t, v, g in zip(c.t_s, c.v_mps, c.grade_deg)]
        text = "\n".join(rows) + "\n"
        assert text.encode("ascii") == (scenario_dir / "synthetic_cycle.csv").read_bytes()
