"""Drive-cycle ingestion, composition, and wheel-side metrics.

A drive cycle is a timed velocity trace with an optional road grade. Cycles
are loaded from CSV (``t_s,v_mps[,grade_deg]``), composed into multi-lap
tests, and characterized with the energy metrics used to compare a simulated
wheel-power trace against chassis-dynamometer measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
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
    name : str
        Label used in reports.
    """

    t_s: np.ndarray
    v_mps: np.ndarray
    grade_deg: np.ndarray | None = None
    name: str = ""

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

    def node_weights(self) -> np.ndarray:
        return _trapezoid_weights(self.t_s)

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

    The format is a header row ``t_s,v_mps`` or ``t_s,v_mps,grade_deg``
    followed by one sample per row. Lines starting with ``#`` are ignored.
    The cycle's label is the file stem, or empty for a text stream.

    Parameters
    ----------
    source : path-like or text stream

    Raises
    ------
    CycleFormatError
        On malformed rows (reported with line number) or invariant
        violations (non-increasing time, negative speed, ...).
    """
    if hasattr(source, "read"):
        text = source.read()
        label = ""
    else:
        path = Path(source)
        text = path.read_text(encoding="utf-8")
        label = path.stem
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
        return DriveCycle(t_s=data[:, 0], v_mps=data[:, 1], grade_deg=grade, name=label)
    except ValueError as exc:
        raise CycleFormatError(str(exc)) from None


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
    if n == 1:
        return DriveCycle(cycle.t_s.copy(), cycle.v_mps.copy(),
                          cycle.grade_deg.copy(), cycle.name)
    if not cycle.is_closed():
        raise ValueError("cannot repeat an open cycle without a speed discontinuity")
    lap_t = cycle.t_s
    dur = cycle.duration_s
    t_parts = [lap_t]
    v_parts = [cycle.v_mps]
    g_parts = [cycle.grade_deg]
    for k in range(1, n):
        t_parts.append(lap_t[1:] + k * dur)
        v_parts.append(cycle.v_mps[1:])
        g_parts.append(cycle.grade_deg[1:])
    name = f"{cycle.name} x{n}" if cycle.name else f"x{n}"
    return DriveCycle(np.concatenate(t_parts), np.concatenate(v_parts),
                      np.concatenate(g_parts), name)


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


# Keypoints (t, v) of the bundled synthetic cycle: stop-and-go urban
# section, two arterial humps, a sustained highway stretch with a speed
# dip, and an urban return leg. Piecewise-linear, closed at rest, 1 Hz.
_SYNTH_KEYPOINTS = (
    (0.0, 0.0), (14.0, 0.0),
    (26.0, 12.0), (55.0, 12.5), (67.0, 0.0), (76.0, 0.0),
    (91.0, 14.0), (130.0, 13.5), (145.0, 0.0), (155.0, 0.0),
    (167.0, 13.0), (200.0, 13.0), (210.0, 6.0), (222.0, 15.0),
    (250.0, 14.5), (265.0, 0.0), (278.0, 0.0),
    (295.0, 20.0), (350.0, 20.5), (370.0, 0.0), (380.0, 0.0),
    (400.0, 22.0), (460.0, 21.5), (472.0, 8.0), (484.0, 20.0),
    (520.0, 21.0), (540.0, 0.0), (552.0, 0.0),
    (572.0, 20.0), (602.0, 30.0), (640.0, 33.5),
    (780.0, 33.5), (800.0, 29.0), (830.0, 33.0), (980.0, 33.0),
    (1010.0, 34.5), (1090.0, 34.5), (1140.0, 20.0), (1164.0, 0.0),
    (1176.0, 0.0),
    (1189.0, 13.0), (1240.0, 13.0), (1252.0, 8.0), (1266.0, 14.0),
    (1300.0, 13.5), (1320.0, 0.0), (1380.0, 0.0),
)


def synthetic_cycle() -> DriveCycle:
    """Deterministic mixed urban/highway cycle bundled with the package.

    Roughly 20 km over 1380 s with about 10% idle time; accelerations stay
    within the default powertrain envelope. Used by the shipped scenarios
    and the test fixtures.
    """
    kp = np.asarray(_SYNTH_KEYPOINTS)
    t = np.arange(0.0, kp[-1, 0] + 0.5, 1.0)
    v = np.interp(t, kp[:, 0], kp[:, 1])
    return DriveCycle(t_s=t, v_mps=v, name="synthetic-mixed")
