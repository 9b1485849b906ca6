"""A generative test of the command line: one number of a shipped scenario
set to an edge value, and ``compare`` and ``obd`` run on it twice.

Each run must end in exit 0, 2 or 3, never in a traceback; a run that
exits 2 must name the section at fault (its last line starts ``error: [``),
a run that succeeds must write no ``nan`` or ``inf`` into its summary, and
its second run the same bytes as its first. The values are the ones that
break checks written with the wrong comparison or overflow the arithmetic:
zero, the smallest and largest floats of each sign, the bounds that the
checks use (the number reader's magnitudes of either sign, 0, 1 and 100)
and the fixture's SOC window edges, each also one ulp to either side.
"""

import configparser
import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phevopt.scenario as scenario
from phevopt.cli import main
from phevopt.powertrain import NUMBER_RANGE
from phevopt.scenario import SCHEMA

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
FIXTURE = SCENARIOS / "single_lap.ini"

#: Schema keys that hold no number: file paths, map entries and the mode.
NOT_NUMBERS = {("cycle", "path"), ("maps", "motor"), ("maps", "engine"),
               ("maps", "generator"), ("calibration", "mode")}
NUMERIC_KEYS = sorted((section, key) for section, keys in SCHEMA.items()
                      for key in keys if (section, key) not in NOT_NUMBERS)

#: Bounds the number reader and the scenario checks compare with, and the
#: fixture's SOC window.
EDGES = (0.0, *NUMBER_RANGE, *(-x for x in NUMBER_RANGE), 1.0, 100.0, 12.0, 17.0)
EXTREMES = (5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
VALUES = sorted({*EXTREMES, *(v for edge in EDGES for v in (
    math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)))})

#: The summary each command writes, which must hold only finite numbers.
SUMMARIES = {"compare": "comparison.csv", "obd": "obd_summary.csv"}


def write_fixture(directory: Path, section: str, key: str, value: float) -> Path:
    """The shipped fixture with ``[section] key`` set to ``value``. A list
    key takes it as its one increment (``deltas``) or as the efficiency of
    each of the three default increments (``efficiencies``)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.read(FIXTURE, encoding="utf-8")
    cp["cycle"]["path"] = str(SCENARIOS / cp["cycle"]["path"])
    if not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = ", ".join([repr(value)] * (3 if key == "efficiencies" else 1))
    ini = directory / "case.ini"
    with ini.open("w", encoding="utf-8") as fh:
        cp.write(fh)
    return ini


def run_twice(ini: Path, command: str, directory: Path) -> int:
    """Run ``command`` on ``ini`` into two directories and check the
    property; return the exit code."""
    codes, files = [], []
    for name in ("a", "b"):
        out = directory / f"{command}-{name}"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes.append(main([command, "--scenario", str(ini), "--out", str(out)]))
        files.append({p.name: p.read_bytes() for p in sorted(out.glob("*"))
                      if p.name != "run.log"} if out.exists() else {})
    assert codes[0] in (0, 2, 3), codes
    assert codes[0] == codes[1]
    assert files[0] == files[1]
    if codes[0] == 2:
        assert err.getvalue().splitlines()[-1].startswith("error: ["), err.getvalue()
    if codes[0] == 0:
        summary = files[0][SUMMARIES[command]].decode("ascii").lower()
        assert "nan" not in summary and "inf" not in summary, summary
    return codes[0]


def check_cli(section: str, key: str, value: float) -> dict[str, int]:
    """Exit code of each command on the fixture with one number set."""
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        ini = write_fixture(directory, section, key, value)
        return {command: run_twice(ini, command, directory) for command in SUMMARIES}


def test_values_hold_each_edge_and_its_neighbours():
    assert len(NUMERIC_KEYS) == 36
    # the neighbours of 0 are the smallest floats
    assert len(VALUES) == 2 + 3 * len(EDGES)
    assert {0.9999999999999999, 1.0, 1.0000000000000002, -5e-324, 0.0, 5e-324,
            999999999.9999999, 1e9, 1000000000.0000001} <= set(VALUES)


#: Runs once refused late, after loading, with no section named, and the
#: exit codes they have now that each is refused where its value comes in.
LATE_REFUSALS = [
    # an interval longer than the trip: once refused by build_demand in obd,
    # and in compare a gen-set sized for ~0 kW that emptied the battery
    (("dp", "dt_s"), 1e9, {"compare": 2, "obd": 2}),
    # the thermostat enters CS below the DP window: a valid input whose
    # optimization cannot start (obd starts at cs_trigger itself instead)
    (("rule", "cs_trigger"), 12.000000000000002, {"compare": 3, "obd": 0}),
]


@given(entry=st.sampled_from(NUMERIC_KEYS), value=st.sampled_from(VALUES))
@example(entry=LATE_REFUSALS[0][0], value=LATE_REFUSALS[0][1])
@example(entry=LATE_REFUSALS[1][0], value=LATE_REFUSALS[1][1])
@settings(max_examples=150, deadline=None)
def test_edge_number_exits_0_2_or_3(entry, value):
    check_cli(*entry, value)


@pytest.mark.parametrize("entry,value,codes", LATE_REFUSALS,
                         ids=["dt-beyond-the-trip", "cs-entry-below-the-window"])
def test_late_refusal_exits_where_its_value_comes_in(entry, value, codes):
    assert check_cli(*entry, value) == codes


def test_uncaught_error_fails_the_property(monkeypatch):
    # a reader that raises past main's handlers for one key, as a check
    # written for the wrong type would
    real = scenario._to_float

    def faulty(sec, key, raw):
        if key == "crr":
            raise TypeError("'<' not supported between 'str' and 'float'")
        return real(sec, key, raw)

    monkeypatch.setattr(scenario, "_to_float", faulty)
    assert check_cli("vehicle", "cdaf", 0.75) == {"compare": 0, "obd": 0}
    with pytest.raises(TypeError):
        check_cli("vehicle", "crr", 0.0)
