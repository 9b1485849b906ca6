"""The package's public exports and the checks of its parameter records."""

import math
from dataclasses import replace

import numpy as np
import pytest

import phevopt
import phevopt.dpopt


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


#: Each field of a public parameter record whose check once let NaN through
#: (every comparison with NaN is false), with the message that refuses it.
#: The record to vary is the fixture named first.
NAN_CHECKED = [
    *[("rule_config", name, "dwell, warmup, and crank power must be nonnegative")
      for name in ("min_dwell_s", "warmup_s", "crank_power_kw")],
    ("rule_config", "regen_current_limit_a", "regen current limit must be positive"),
    ("vp", "m_t", "test mass must be positive"),
    ("vp", "i", "rotating-inertia factor must be >= 1"),
    ("vp", "cdaf", "CdAf must be nonnegative"),
    ("vp", "rho", "rho must be positive"),
    *[("drivetrain", name, "gear ratio and wheel radius must be positive")
      for name in ("gear_ratio", "wheel_radius_m")],
    ("battery", "c_batt_kwh", "battery capacity must be positive"),
    ("battery", "r_in_ohm", "internal resistance must be nonnegative"),
    ("assembly", "belt_ratio", "belt ratio must be positive"),
    ("genset_point", "electrical_power_kw", "electrical power must be nonnegative"),
    *[("demand_profile", name, "dt must be positive and distance nonnegative")
      for name in ("dt_s", "distance_km")],
    ("calibration", "energy_scale", "energy scale must be positive"),
    ("scenario", "uf", "utility factor must lie in"),
    ("scenario", "charging_efficiency", "charging efficiency must lie in"),
]
#: The fields above with an upper bound, which refuse infinity too.
BOUNDED = {"uf", "charging_efficiency"}


@pytest.mark.parametrize("record, name, message", NAN_CHECKED,
                         ids=[f"{record}.{name}" for record, name, _ in NAN_CHECKED])
def test_nan_parameter_rejected(request, record, name, message):
    # a NaN crank power ended the thermostat at SOC NaN, and a NaN regen
    # limit turned the regen clip off, without an error
    record = request.getfixturevalue(record)
    with pytest.raises(ValueError, match=message):
        replace(record, **{name: math.nan})
    if name in BOUNDED:
        with pytest.raises(ValueError, match=message):
            replace(record, **{name: math.inf})
    else:
        replace(record, **{name: math.inf})  # infinity is accepted, as before
