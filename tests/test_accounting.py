import math

import pytest

from phevopt.accounting import (
    Calibration,
    UfReport,
    ac_from_dc,
    build_uf_report,
    calibration_factor,
    uf_weighted,
)
from phevopt.cycle import CycleMetrics

SIM = CycleMetrics(positive_propulsion_wh_per_km=223.75, peak_power_kw=112.50,
                   avg_positive_power_kw=14.04, percent_idle=10.55)
TEST = CycleMetrics(positive_propulsion_wh_per_km=259.21, peak_power_kw=96.96,
                    avg_positive_power_kw=16.37, percent_idle=10.55)


class TestAcFromDc:
    def test_example_round_number(self):
        assert ac_from_dc(83.0, 0.83) == pytest.approx(100.0, rel=1e-12)

    def test_cs_fuel_style_value(self):
        assert ac_from_dc(161.27, 0.83) == pytest.approx(194.30120, abs=1e-4)

    def test_perfect_charger_is_identity(self):
        assert ac_from_dc(123.456, 1.0) == 123.456

    def test_ac_never_below_dc(self):
        for eta in (0.5, 0.83, 0.99):
            assert ac_from_dc(100.0, eta) >= 100.0

    @pytest.mark.parametrize("eta", [0.0, -0.1, 1.2])
    def test_efficiency_validated(self, eta):
        with pytest.raises(ValueError):
            ac_from_dc(100.0, eta)


    @pytest.mark.parametrize("dc", [math.nan, -1.0])
    def test_energy_validated(self, dc):
        with pytest.raises(ValueError, match="nonnegative"):
            ac_from_dc(dc, 0.83)


class TestUfWeighted:
    def test_all_electric(self):
        assert uf_weighted(250.0, 800.0, 1.0) == 250.0

    def test_all_fuel(self):
        assert uf_weighted(250.0, 800.0, 0.0) == 800.0

    def test_midpoint(self):
        assert uf_weighted(200.0, 800.0, 0.5) == pytest.approx(500.0)

    def test_affine_in_uf(self):
        lo = uf_weighted(200.0, 800.0, 0.2)
        hi = uf_weighted(200.0, 800.0, 0.8)
        mid = uf_weighted(200.0, 800.0, 0.5)
        assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-12)

    def test_monotone_toward_cheaper_channel(self):
        blends = [uf_weighted(200.0, 800.0, u) for u in (0.0, 0.25, 0.5, 1.0)]
        assert blends == sorted(blends, reverse=True)

    @pytest.mark.parametrize("uf", [-0.1, 1.1])
    def test_uf_validated(self, uf):
        with pytest.raises(ValueError):
            uf_weighted(200.0, 800.0, uf)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            uf_weighted(-1.0, 800.0, 0.5)

    @pytest.mark.parametrize("ec", [(math.nan, 800.0), (200.0, math.nan)])
    def test_nan_energy_rejected(self, ec):
        with pytest.raises(ValueError, match="nonnegative"):
            uf_weighted(*ec, 0.5)


class TestUfReport:
    def test_channels_and_total(self):
        # DC 83 converts to AC 100; weights 0.6 / 0.4
        rep = build_uf_report(83.0, 50.0, uf=0.6, charging_efficiency=0.83)
        assert rep.ec_cd_ac_wh_per_km == pytest.approx(100.0, rel=1e-12)
        assert rep.ec_uf_weighted_electric == pytest.approx(60.0, rel=1e-12)
        assert rep.ec_uf_weighted_fuel == pytest.approx(20.0, rel=1e-12)
        assert rep.ec_uf_weighted_total == pytest.approx(80.0, rel=1e-12)

    def test_uf_one_keeps_only_electric(self):
        rep = build_uf_report(83.0, 999.0, uf=1.0, charging_efficiency=0.83)
        assert rep.ec_uf_weighted_fuel == 0.0
        assert rep.ec_uf_weighted_total == rep.ec_uf_weighted_electric

    def test_uf_zero_keeps_only_fuel(self):
        rep = build_uf_report(83.0, 161.27, uf=0.0, charging_efficiency=0.83)
        assert rep.ec_uf_weighted_electric == 0.0
        assert rep.ec_uf_weighted_total == pytest.approx(161.27)

    def test_fuel_channel_not_converted(self):
        rep = build_uf_report(83.0, 161.27, uf=0.5, charging_efficiency=0.83)
        assert rep.ec_cs_fuel_wh_per_km == 161.27

    def test_total_must_be_channel_sum(self):
        with pytest.raises(ValueError, match="channel sum"):
            UfReport(100.0, 200.0, 0.5, 50.0, 100.0, 200.0)

    def test_report_uf_validated(self):
        with pytest.raises(ValueError):
            UfReport(100.0, 200.0, 1.5, 150.0, 100.0, 250.0)


class TestCalibration:
    def test_energy_scale_from_metrics(self):
        cal = calibration_factor(SIM, TEST)
        assert cal.energy_scale == pytest.approx(1.1584804, abs=1e-6)
        assert cal.energy_delta_pct == pytest.approx(15.85, abs=0.01)

    def test_average_power_cross_check(self):
        cal = calibration_factor(SIM, TEST)
        assert cal.avg_power_ratio == pytest.approx(1.1659544, abs=1e-6)
        assert cal.avg_power_delta_pct == pytest.approx(16.60, abs=0.01)
        # the scale applied downstream is the energy one
        assert cal.energy_scale != pytest.approx(cal.avg_power_ratio, abs=1e-3)

    def test_identity_when_metrics_match(self):
        cal = calibration_factor(SIM, SIM)
        assert cal.energy_scale == pytest.approx(1.0, rel=1e-12)
        assert cal.energy_delta_pct == pytest.approx(0.0, abs=1e-9)

    def test_bare_scale_has_no_cross_check(self):
        cal = Calibration(energy_scale=1.1)
        assert cal.avg_power_ratio is None
        assert cal.avg_power_delta_pct is None

    def test_zero_sim_power_has_no_cross_check(self):
        sim = CycleMetrics(10.0, 5.0, 0.0, 0.0)
        cal = Calibration(energy_scale=1.1, sim=sim, test=TEST)
        assert cal.avg_power_ratio is None

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            Calibration(energy_scale=0.0)

    def test_zero_sim_energy_rejected(self):
        sim = CycleMetrics(0.0, 5.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            calibration_factor(sim, TEST)


class TestCycleMetricsValidation:
    def test_peak_below_average_rejected(self):
        with pytest.raises(ValueError):
            CycleMetrics(100.0, 5.0, 10.0, 0.0)

    def test_idle_share_bounds(self):
        with pytest.raises(ValueError):
            CycleMetrics(100.0, 20.0, 10.0, 120.0)
