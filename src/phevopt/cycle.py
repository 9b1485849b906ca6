"""Drive-cycle ingestion, composition, and wheel-side metrics.

A drive cycle is a timed velocity trace with an optional road grade. Cycles
are loaded from CSV (``t_s,v_mps[,grade_deg]``), composed into multi-lap
tests, and characterized with the energy metrics used to compare a simulated
wheel-power trace against chassis-dynamometer measurements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CycleFormatError

V_IDLE_MPS = 0.1  # below this speed the vehicle counts as stopped

_WH_PER_KW_S = 1.0 / 3.6  # 1 kW·s = 1/3.6 Wh


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    """Node weights w such that sum(w * y) equals trapezoid(y, t)."""
    w = np.empty_like(t)
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    return w


@dataclass
class DriveCycle:
    """A validated velocity/grade trace sampled on a strictly increasing
    time axis starting at zero.

    Parameters
    ----------
    t_s : array_like
        Sample times in seconds; strictly increasing, first sample at 0.
    v_mps : array_like
        Vehicle speed in m/s; nonnegative.
    grade_deg : array_like, optional
        Road grade in degrees; defaults to flat.
    """

    t_s: np.ndarray
    v_mps: np.ndarray
    grade_deg: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.t_s = np.asarray(self.t_s, dtype=float)
        self.v_mps = np.asarray(self.v_mps, dtype=float)
        if self.grade_deg is None:
            self.grade_deg = np.zeros_like(self.t_s)
        else:
            self.grade_deg = np.asarray(self.grade_deg, dtype=float)
        if self.t_s.ndim != 1 or self.t_s.size < 2:
            raise ValueError("cycle needs at least two samples")
        if not (self.t_s.size == self.v_mps.size == self.grade_deg.size):
            raise ValueError("t_s, v_mps, grade_deg must have equal length")
        if not np.all(np.isfinite(self.t_s)) or not np.all(np.isfinite(self.v_mps)) \
                or not np.all(np.isfinite(self.grade_deg)):
            raise ValueError("cycle samples must be finite")
        if self.t_s[0] != 0.0:
            raise ValueError("time axis must start at 0")
        if not np.all(np.diff(self.t_s) > 0):
            raise ValueError("time axis must be strictly increasing")
        if np.any(self.v_mps < 0):
            raise ValueError("speed must be nonnegative")

    @property
    def n_samples(self) -> int:
        return self.t_s.size

    @property
    def duration_s(self) -> float:
        return float(self.t_s[-1] - self.t_s[0])

    @property
    def distance_m(self) -> float:
        return float(np.trapezoid(self.v_mps, self.t_s))

    @property
    def distance_km(self) -> float:
        return self.distance_m / 1000.0

    def is_closed(self) -> bool:
        """True when the trace ends in the state it started from, so laps
        can be chained without a kinematic discontinuity."""
        return bool(self.v_mps[-1] == self.v_mps[0]
                    and self.grade_deg[-1] == self.grade_deg[0])


@dataclass
class CycleMetrics:
    """Wheel-side summary of a power trace over one cycle."""

    positive_propulsion_wh_per_km: float
    peak_power_kw: float
    avg_positive_power_kw: float
    percent_idle: float

    def __post_init__(self) -> None:
        if not (self.peak_power_kw >= self.avg_positive_power_kw >= 0.0):
            raise ValueError("peak power must be >= average positive power >= 0")
        if not (0.0 <= self.percent_idle <= 100.0):
            raise ValueError("percent_idle must lie in [0, 100]")


def load_cycle(source) -> DriveCycle:
    """Parse a drive cycle from CSV text.

    The grammar:

    - ASCII only, comment lines included; lines end in ``\n`` or
      ``\r\n``, and a lone ``\r`` or any of ``\x0b``, ``\x0c`` and
      ``\x1c``-``\x1f`` is refused wherever it stands;
    - lines of blanks, and comment lines (``#`` after optional blanks),
      are skipped;
    - the first other line is the header ``t_s,v_mps`` or
      ``t_s,v_mps,grade_deg``, with blanks allowed around the names;
    - every later line is one sample with one field per name, each a
      number as ``np.loadtxt`` reads it (blanks around it allowed).

    Parameters
    ----------
    source : path-like or text stream

    Raises
    ------
    CycleFormatError
        On input outside the grammar, naming the first line that is wrong,
        on fewer than two samples, or on invariant violations
        (non-increasing time, negative speed, ...).
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_bytes().decode("utf-8")  # no newline translation
    data = _parse_samples(text)
    grade = data[:, 2] if data.shape[1] == 3 else None
    try:
        return DriveCycle(t_s=data[:, 0], v_mps=data[:, 1], grade_deg=grade)
    except ValueError as exc:
        raise CycleFormatError(str(exc)) from None


_HEADERS = (["t_s", "v_mps"], ["t_s", "v_mps", "grade_deg"])
# Refused anywhere once \r\n is \n: a lone \r, and the ASCII controls that
# np.loadtxt reads as blanks around a number but str.splitlines reads as
# line ends (all but \x1f), so that no reader finds other lines or fields
_LINE_ODDITIES = "\r\x0b\x0c\x1c\x1d\x1e\x1f"
# a comment line or a line of blanks; np.loadtxt skips only empty lines.
# Either holds one of the marks, or ends an unended text in a blank.
_SKIPPED_LINE = re.compile(r"^[ \t]*(?:#.*)?$", re.MULTILINE)
_SKIPPED_LINE_MARKS = ("#", " \n", "\t\n")


def _has_refused_char(s: str) -> bool:
    return not s.isascii() or any(map(s.__contains__, _LINE_ODDITIES))


def _read_rows(rows: list[str]) -> np.ndarray:
    """The numbers of the cycle grammar: every string-to-float read."""
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)


def _parse_samples(text: str) -> np.ndarray:
    """The (samples x columns) table of a cycle CSV, parsed in one C pass.
    A text this pass refuses is outside the grammar, and ``_first_fault``
    names the line where it leaves it."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if _has_refused_char(text):
        raise _first_fault(text)
    if any(map(text.__contains__, _SKIPPED_LINE_MARKS)) or text.endswith((" ", "\t")):
        text = _SKIPPED_LINE.sub("", text)  # keeps every line end, so every line number
    lines = text.split("\n")
    # the header is the first line that is not blank; comment lines are blank
    # now, and where every line is, lines[0] is no header either
    h = next((i for i, line in enumerate(lines) if line.strip()), 0)
    names = [p.strip() for p in lines[h].split(",")]
    rows = lines[h + 1:]
    if names in _HEADERS and any(rows):  # np.loadtxt warns on no data
        try:
            data = _read_rows(rows)
        except ValueError:
            pass
        else:
            if data.shape[0] >= 2 and data.shape[1] == len(names):
                return data
    raise _first_fault(text)


def _first_fault(text: str) -> CycleFormatError:
    """The error for a text that ``_parse_samples`` refuses, with ``\r\n``
    already ``\n``: it names the first line outside the grammar, checking
    each sample line with the same ``np.loadtxt`` call, or else says there
    are fewer than two samples."""
    width = None
    n_rows = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        if _has_refused_char(line):
            char = next(filter(_has_refused_char, line))
            return CycleFormatError(f"line {lineno}: character {char!r} is not allowed")
        if _SKIPPED_LINE.match(line):
            continue
        line = line.strip()
        fields = line.count(",") + 1
        if width is None:
            if [p.strip() for p in line.split(",")] not in _HEADERS:
                return CycleFormatError(f"line {lineno}: expected header "
                                        f"'t_s,v_mps[,grade_deg]', got {line!r}")
            width = fields
            continue
        if fields != width:
            return CycleFormatError(f"line {lineno}: expected {width} fields, "
                                    f"got {fields}")
        try:
            _read_rows([line])
        except ValueError:
            return CycleFormatError(f"line {lineno}: non-numeric value in {line!r}")
        n_rows += 1
    if width is None:
        return CycleFormatError("missing header row 't_s,v_mps[,grade_deg]'")
    return CycleFormatError(f"need at least 2 samples, got {n_rows}")


def repeat_cycle(cycle: DriveCycle, n: int) -> DriveCycle:
    """Chain ``n`` laps of a cycle into one trace.

    Lap ``k`` is offset by ``k * duration``; the repeated lap's first sample
    coincides with the previous lap's last sample and is dropped. The cycle
    must be closed (equal first/last speed and grade) for ``n > 1`` so that
    total distance is exactly ``n`` times the single-lap distance.
    """
    if int(n) != n or n < 1:
        raise ValueError("lap count must be a positive integer")
    n = int(n)
    if n > 1 and not cycle.is_closed():
        raise ValueError("cannot repeat an open cycle without a speed discontinuity")
    offsets = np.arange(n)[:, None] * cycle.duration_s
    t = np.append(cycle.t_s[0], cycle.t_s[1:] + offsets)
    v = np.append(cycle.v_mps[0], np.tile(cycle.v_mps[1:], n))
    g = np.append(cycle.grade_deg[0], np.tile(cycle.grade_deg[1:], n))
    return DriveCycle(t, v, g)


def compute_metrics(t_s, p_wheel_kw, v_mps, distance_km: float) -> CycleMetrics:
    """Summarize a wheel-power trace with the four dynamometer metrics.

    Parameters
    ----------
    t_s, p_wheel_kw, v_mps : array_like
        Time-aligned sample times (s), wheel power (kW, negative while
        braking), and speed (m/s).
    distance_km : float
        Cycle distance used to normalize energy.

    Returns
    -------
    CycleMetrics
        Positive propulsion energy (Wh/km), peak power (kW), time-weighted
        average of the positive power samples (kW), and percent of time
        spent below the idle speed threshold.

    Notes
    -----
    All integrals and averages use trapezoid node weights, so non-uniform
    sampling is handled correctly. Percent idle depends on the velocity
    trace alone.
    """
    t = np.asarray(t_s, dtype=float)
    p = np.asarray(p_wheel_kw, dtype=float)
    v = np.asarray(v_mps, dtype=float)
    if not (t.size == p.size == v.size):
        raise ValueError("time, power, and velocity series must have equal length")
    if t.size < 2:
        raise ValueError("need at least two samples")
    if distance_km <= 0:
        raise ValueError("distance_km must be positive")

    w = _trapezoid_weights(t)
    p_pos = np.maximum(p, 0.0)
    energy_wh = float(w @ p_pos) * _WH_PER_KW_S
    pos = p > 0.0
    w_pos = float(w[pos].sum())
    avg_pos = float((w[pos] @ p[pos]) / w_pos) if w_pos > 0 else 0.0
    idle = float(w[v < V_IDLE_MPS].sum()) / float(t[-1] - t[0]) * 100.0
    return CycleMetrics(
        positive_propulsion_wh_per_km=energy_wh / distance_km,
        peak_power_kw=max(float(p.max()), 0.0),
        avg_positive_power_kw=avg_pos,
        percent_idle=idle,
    )

