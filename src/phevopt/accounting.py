"""Energy-consumption accounting: AC-side conversion, utility-factor
weighting, and model-vs-test calibration.

The CD (electric) and CS (fuel) channels are weighted separately and the
total is their sum: for this vehicle CS burns fuel only and CD draws the
battery only, so the utility factor weights the electric channel and its
complement weights the fuel channel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycle import CycleMetrics


def ac_from_dc(dc_energy: float, charging_efficiency: float) -> float:
    """Charger-side (AC) energy for a DC quantity, same unit in and out."""
    if not (0.0 < charging_efficiency <= 1.0):
        raise ValueError("charging efficiency must lie in (0, 1]")
    if not dc_energy >= 0:  # so NaN is refused too
        raise ValueError("energy consumptions must be nonnegative")
    return dc_energy / charging_efficiency


def uf_weighted(ec_cd: float, ec_cs: float, uf: float) -> float:
    """Utility-factor blend EC_CD*UF + EC_CS*(1-UF), one channel at a time."""
    if not (0.0 <= uf <= 1.0):
        raise ValueError("utility factor must lie in [0, 1]")
    if not (ec_cd >= 0 and ec_cs >= 0):  # so NaN is refused too
        raise ValueError("energy consumptions must be nonnegative")
    return ec_cd * uf + ec_cs * (1.0 - uf)


@dataclass
class UfReport:
    """Utility-factor-weighted energy consumption, split by channel."""

    ec_cd_ac_wh_per_km: float    # AC electric, CD portion
    ec_cs_fuel_wh_per_km: float  # fuel, CS portion
    uf: float
    ec_uf_weighted_electric: float
    ec_uf_weighted_fuel: float
    ec_uf_weighted_total: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.uf <= 1.0):
            raise ValueError("utility factor must lie in [0, 1]")
        expected = self.ec_uf_weighted_electric + self.ec_uf_weighted_fuel
        if abs(self.ec_uf_weighted_total - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError("weighted total must equal the channel sum")


def build_uf_report(ec_cd_dc_wh_per_km: float, ec_cs_fuel_wh_per_km: float,
                    uf: float, charging_efficiency: float) -> UfReport:
    """Weight the two channels and form the total.

    The electric channel is converted to the AC side first; CS electric and
    CD fuel consumption are zero for this powertrain, so each channel's
    blend keeps a single term.
    """
    ec_cd_ac = ac_from_dc(ec_cd_dc_wh_per_km, charging_efficiency)
    electric = uf_weighted(ec_cd_ac, 0.0, uf)
    fuel = uf_weighted(0.0, ec_cs_fuel_wh_per_km, uf)
    return UfReport(
        ec_cd_ac_wh_per_km=ec_cd_ac,
        ec_cs_fuel_wh_per_km=ec_cs_fuel_wh_per_km,
        uf=uf,
        ec_uf_weighted_electric=electric,
        ec_uf_weighted_fuel=fuel,
        ec_uf_weighted_total=electric + fuel,
    )


@dataclass
class Calibration:
    """Test-to-model wheel-energy scale with its source metrics."""

    energy_scale: float
    sim: CycleMetrics | None = None
    test: CycleMetrics | None = None

    def __post_init__(self) -> None:
        if not self.energy_scale > 0:  # so NaN is refused too
            raise ValueError("energy scale must be positive")

    @property
    def energy_delta_pct(self) -> float:
        return (self.energy_scale - 1.0) * 100.0

    @property
    def avg_power_ratio(self) -> float | None:
        """Cross-check ratio of average positive power (test over sim);
        reported alongside but never used as the scale."""
        if self.sim is None or self.test is None:
            return None
        if self.sim.avg_positive_power_kw <= 0:
            return None
        return self.test.avg_positive_power_kw / self.sim.avg_positive_power_kw

    @property
    def avg_power_delta_pct(self) -> float | None:
        ratio = self.avg_power_ratio
        return None if ratio is None else (ratio - 1.0) * 100.0


def calibration_factor(sim: CycleMetrics, test: CycleMetrics) -> Calibration:
    """Energy-based calibration: measured positive propulsion energy over
    the simulated value."""
    if sim.positive_propulsion_wh_per_km <= 0:
        raise ValueError("simulated propulsion energy must be positive")
    scale = test.positive_propulsion_wh_per_km / sim.positive_propulsion_wh_per_km
    return Calibration(energy_scale=scale, sim=sim, test=test)
