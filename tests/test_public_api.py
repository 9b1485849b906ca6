"""The package's public exports and the checks of its parameter records."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np
import pytest

import phevopt
import phevopt.dpopt
from phevopt.errors import require


@pytest.mark.parametrize("module", [phevopt, phevopt.dpopt],
                         ids=["phevopt", "phevopt.dpopt"])
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.fixture
def drivetrain():
    return phevopt.DrivetrainParams()


@pytest.fixture
def demand_profile():
    return phevopt.DemandProfile(np.zeros(1), 10.0, 1.0)


@pytest.fixture
def calibration():
    return phevopt.Calibration(1.0)


@pytest.fixture
def scenario(scenario_dir):
    return phevopt.load_scenario(scenario_dir / "single_lap.ini")


@pytest.fixture
def cycle_metrics():
    return phevopt.CycleMetrics(223.75, 112.5, 14.04, 10.55)


@pytest.fixture
def energy_result():
    return phevopt.EnergyResult(100.0, 200.0, 10.0, 5.0, 15.0)


@pytest.fixture
def uf_report():
    return phevopt.build_uf_report(100.0, 200.0, 0.8, 0.83)


@pytest.fixture
def decision():
    return phevopt.Decision(0.294, 30.0)


@pytest.fixture
def terminal_rule():
    return phevopt.TerminalRule.at(12.0)


def float_fields(cls) -> list[str]:
    """The fields of ``cls`` annotated ``float`` or ``float | None``."""
    return [f.name for f in fields(cls) if f.type in ("float", "float | None")]


#: Every record the package exports that checks its fields.
CHECKED = [obj for obj in map(vars(phevopt).get, phevopt.__all__)
           if isinstance(obj, type) and is_dataclass(obj) and hasattr(obj, "__post_init__")]

#: The fixture that holds a valid instance of each checked record with a
#: float field.
VALID = {"BatteryParams": "battery", "Calibration": "calibration",
         "CycleMetrics": "cycle_metrics", "Decision": "decision",
         "DemandProfile": "demand_profile", "DpConfig": "dp_config",
         "DrivetrainParams": "drivetrain", "EnergyResult": "energy_result",
         "GenSetPoint": "genset_point", "PowertrainAssembly": "assembly",
         "RuleConfig": "rule_config", "Scenario": "scenario",
         "TerminalRule": "terminal_rule", "UfReport": "uf_report",
         "VehicleParams": "vp"}


def nan_holes(record) -> list[str]:
    """The float fields of ``record`` that NaN passes: each is set to NaN in
    turn on a copy, which must raise a ``ValueError`` naming it as
    ``<field> = nan``."""
    holes = []
    for name in float_fields(type(record)):
        try:
            replace(record, **{name: math.nan})
        except ValueError as exc:
            if re.search(rf"\b{name} = nan\b", str(exc)):
                continue
        holes.append(name)
    return holes


def test_every_checked_record_with_a_float_field_is_walked():
    assert {cls.__name__ for cls in CHECKED if float_fields(cls)} == set(VALID)


@pytest.mark.parametrize("name", sorted(VALID))
def test_nan_field_refused_by_name(request, name):
    # a NaN crank power once ended the thermostat at SOC NaN, and a NaN
    # regen limit turned the regen clip off, without an error
    record = request.getfixturevalue(VALID[name])
    assert type(record).__name__ == name
    assert nan_holes(record) == []


def test_walker_finds_a_check_that_nan_passes():
    @dataclass
    class Made:
        x: float
        y: float | None = None

        def __post_init__(self):
            if self.x < 0:  # NaN < 0 is false, so NaN passes
                raise ValueError(f"x = {self.x:g} must be nonnegative")
            if self.y is not None:
                require(self.y >= 0, self, "y", "must be nonnegative")

    assert nan_holes(Made(1.0, 1.0)) == ["x"]


#: Fields with no upper bound, which accept infinity as they always have: a
#: NaN check written as ``isfinite`` would refuse it.
INF_ACCEPTED = [
    *[("rule_config", name)
      for name in ("min_dwell_s", "warmup_s", "crank_power_kw", "regen_current_limit_a")],
    *[("vp", name) for name in ("m_t", "i", "cdaf", "rho")],
    *[("drivetrain", name) for name in ("gear_ratio", "wheel_radius_m")],
    *[("battery", name) for name in ("c_batt_kwh", "r_in_ohm")],
    ("assembly", "belt_ratio"),
    ("genset_point", "electrical_power_kw"),
    *[("demand_profile", name) for name in ("dt_s", "distance_km")],
    ("calibration", "energy_scale"),
]


@pytest.mark.parametrize("record, name", INF_ACCEPTED,
                         ids=[f"{record}.{name}" for record, name in INF_ACCEPTED])
def test_unbounded_field_accepts_infinity(request, record, name):
    replace(request.getfixturevalue(record), **{name: math.inf})


@pytest.mark.parametrize("name", ["uf", "charging_efficiency"])
def test_scenario_share_refuses_infinity(scenario, name):
    with pytest.raises(ValueError, match=rf"^{name} = inf must lie in "):
        replace(scenario, **{name: math.inf})
