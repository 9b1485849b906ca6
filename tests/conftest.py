from pathlib import Path

import pytest

from phevopt import (
    BatteryParams,
    DpConfig,
    PowertrainAssembly,
    RuleConfig,
    VehicleParams,
    decision_table,
    synthetic_engine_map,
    synthetic_generator_map,
    synthetic_motor_map,
)
from phevopt.dpopt import DEFAULT_DELTAS, delta_to_electrical_kw

from helpers import synthetic_cycle

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def cycle():
    return synthetic_cycle()


@pytest.fixture(scope="session")
def vp():
    return VehicleParams()


@pytest.fixture(scope="session")
def assembly():
    return PowertrainAssembly(synthetic_motor_map(), synthetic_engine_map(),
                              synthetic_generator_map())


@pytest.fixture(scope="session")
def battery():
    return BatteryParams()


@pytest.fixture(scope="session")
def genset_point(assembly):
    return assembly.genset_point(2600.0, 38.57868)


@pytest.fixture(scope="session")
def rule_config(genset_point):
    return RuleConfig(genset_point=genset_point, initial_soc=15.0)


@pytest.fixture(scope="session")
def decisions(assembly):
    point = assembly.genset_point(2600.0, delta_to_electrical_kw(0.567, 10.0, 18.9))
    return decision_table(DEFAULT_DELTAS,
                          [point.combined_efficiency_pct] * len(DEFAULT_DELTAS))


@pytest.fixture(scope="session")
def dp_config(decisions):
    return DpConfig(decisions=decisions, initial_soc=14.0)


@pytest.fixture(scope="session")
def scenario_dir():
    return REPO_ROOT / "scenarios"
