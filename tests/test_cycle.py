import io

import numpy as np
import pytest

from phevopt.cycle import (
    DriveCycle,
    compute_metrics,
    load_cycle,
    repeat_cycle,
    synthetic_cycle,
)
from phevopt.errors import CycleFormatError


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

    def test_node_weights_sum_to_duration(self, cycle):
        assert cycle.node_weights().sum() == pytest.approx(cycle.duration_s)

    def test_synthetic_is_closed(self):
        assert synthetic_cycle().is_closed()
