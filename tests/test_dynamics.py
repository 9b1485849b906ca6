import numpy as np
import pytest

from phevopt.cycle import DriveCycle
from phevopt.dynamics import (
    VehicleParams,
    accel_series,
    tractive_force,
    wheel_power_series,
)


def lossless_params():
    return VehicleParams(m=2100.0, m_t=2800.0, i=1.0, cdaf=0.0, crr=0.0)


class TestTractiveForce:
    def test_steady_20mps_flat(self, vp):
        f = tractive_force(vp, 2800.0, 20.0, 0.0)
        # 0.5*1.20*0.75*400 aero + 2800*9.81*0.009 rolling
        assert f == pytest.approx(180.0 + 247.212, abs=1e-9)

    def test_rest_is_force_free(self, vp):
        assert tractive_force(vp, 2800.0, 0.0, 0.0) == 0.0

    def test_grade_term(self, vp):
        f = tractive_force(vp, 2800.0, 0.0, 0.0, grade_deg=5.0)
        assert f == pytest.approx(2800.0 * 9.81 * np.sin(np.deg2rad(5.0)), abs=1e-9)
        assert f == pytest.approx(2393.994, abs=1e-3)

    def test_rolling_resistance_gated_at_idle(self, vp):
        crawling = tractive_force(vp, 2800.0, 0.05, 0.0)
        moving = tractive_force(vp, 2800.0, 0.2, 0.0)
        assert crawling < 1.0  # aero only at 5 cm/s
        assert moving > 247.0  # rolling resistance active

    def test_mass_monotonicity(self, vp):
        for v, a, g in [(0.0, 0.0, 0.0), (10.0, 1.0, 2.0), (30.0, 0.5, 0.0)]:
            light = tractive_force(vp, 2000.0, v, a, g)
            heavy = tractive_force(vp, 2900.0, v, a, g)
            assert heavy >= light

    def test_aero_grows_quadratically(self):
        p = VehicleParams(crr=0.0)
        for v in (5.0, 12.0, 31.0):
            aero = 0.5 * p.rho * p.cdaf * v * v
            assert tractive_force(p, 2800.0, 2 * v, 0.0) - tractive_force(
                p, 2800.0, v, 0.0) == pytest.approx(3.0 * aero, rel=1e-12)

    def test_negative_speed_rejected(self, vp):
        with pytest.raises(ValueError):
            tractive_force(vp, 2800.0, -1.0, 0.0)

    def test_nonpositive_mass_rejected(self, vp):
        with pytest.raises(ValueError):
            tractive_force(vp, 0.0, 10.0, 0.0)


class TestWheelPowerSeries:
    def test_constant_speed_power(self, vp):
        t = np.arange(0.0, 101.0)
        c = DriveCycle(t_s=t, v_mps=np.full(101, 20.0))
        p = wheel_power_series(vp, c)
        assert np.allclose(p, 427.212 * 20.0 / 1000.0, atol=1e-9)

    def test_zero_trace(self, vp):
        t = np.arange(0.0, 10.0)
        c = DriveCycle(t_s=t, v_mps=np.zeros(10))
        assert np.all(wheel_power_series(vp, c) == 0.0)

    def test_defaults_to_test_mass(self, vp, cycle):
        f = tractive_force(vp, vp.m_t, cycle.v_mps, accel_series(cycle),
                           cycle.grade_deg)
        assert np.array_equal(wheel_power_series(vp, cycle), f * cycle.v_mps / 1000.0)

    def test_symmetric_triangle_energy(self):
        p = lossless_params()
        t = np.arange(0.0, 41.0)
        up = np.linspace(0.0, 20.0, 21)
        v = np.concatenate([up, up[::-1][1:]])
        c = DriveCycle(t_s=t, v_mps=v)
        power = wheel_power_series(p, c)
        w = c.node_weights()
        e_pos = float(np.sum(w * np.maximum(power, 0.0)))
        e_neg = float(np.sum(w * np.minimum(power, 0.0)))
        assert e_pos == pytest.approx(-e_neg, rel=1e-9)

    def test_kinetic_energy_audit(self):
        p = lossless_params()
        t = np.arange(0.0, 101.0)
        v = 12.5 * (1.0 - np.cos(2.0 * np.pi * t / 200.0))  # smooth 0 -> 25 m/s
        c = DriveCycle(t_s=t, v_mps=v)
        power_kw = wheel_power_series(p, c)
        energy_j = float(np.sum(c.node_weights() * power_kw)) * 1000.0
        dke = 0.5 * p.m_t * (v[-1] ** 2 - v[0] ** 2)
        assert energy_j == pytest.approx(dke, rel=1e-3)


class TestAccelSeries:
    def test_central_differences(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        v = np.array([0.0, 2.0, 6.0, 12.0])
        c = DriveCycle(t_s=t, v_mps=v)
        a = accel_series(c)
        assert a[0] == pytest.approx(2.0)
        assert a[1] == pytest.approx((6.0 - 0.0) / 2.0)
        assert a[2] == pytest.approx((12.0 - 2.0) / 2.0)
        assert a[-1] == pytest.approx(6.0)


class TestVehicleParams:
    def test_defaults_valid(self):
        VehicleParams()

    @pytest.mark.parametrize("kwargs", [
        {"m": 0.0},
        {"m_t": 1000.0},
        {"i": 0.9},
        {"crr": 0.2},
        {"cdaf": -1.0},
        {"rho": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VehicleParams(**kwargs)

    def test_lossless_parameterization_allowed(self):
        p = lossless_params()
        assert p.crr == 0.0 and p.cdaf == 0.0
