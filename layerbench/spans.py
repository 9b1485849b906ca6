"""Spans around the program's public functions, recorded from outside it.

The modules import each other with ``from ... import``, so a function is
wrapped in every module namespace where a caller looks it up. Each wrapper
records calls, total seconds and self seconds (total minus the time of the
spans it encloses), and for some layers a work count taken from the
arguments or the result. Spans live in memory; ``take`` hands over one
command's totals and starts the next.

A target missing from the program is skipped, so its metrics read 0: a
later refactor that removes a per-sample call shows up as a count of 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict


def _solve_work(tracer, name, bound, result):
    d, cfg = bound.args[:2]
    tracer.add(name + ".cells", d.n_intervals * cfg.n_states * len(cfg.decisions))
    tracer.add(name + ".bytes_computed",
               result.cost_to_go.nbytes + result.decision_idx.nbytes)


def _file_bytes(position):
    def hook(tracer, name, bound, result):
        tracer.add(name + ".bytes", os.path.getsize(bound.args[position]))
    return hook


#: (module, attribute, span name, work hook). A hook of None records time
#: only; "count" records calls only, for functions called per sample whose
#: timing would cost more than their work.
TARGETS = (
    ("phevopt.cli", "load_scenario", "scenario.load_scenario", None),
    ("phevopt.cli", "wheel_power_series", "dynamics.wheel_power_series", None),
    ("phevopt.cli", "simulate_rule_based", "ems.simulate_rule_based", None),
    ("phevopt.cli", "build_demand", "dpopt.build_demand", None),
    ("phevopt.cli", "solve", "dpopt.solve", _solve_work),
    ("phevopt.cli", "rollout", "dpopt.rollout", None),
    ("phevopt.cli", "obd_study", "dpopt.obd_study", None),
    ("phevopt.cli", "write_policy", "dpopt.write_policy", _file_bytes(1)),
    ("phevopt.cli", "write_trace", "ems.write_trace", _file_bytes(1)),
    ("phevopt.cli", "_write_rows", "cli.write_rows", _file_bytes(0)),
    ("phevopt.dpopt.studies", "build_demand", "dpopt.build_demand", None),
    ("phevopt.dpopt.studies", "solve", "dpopt.solve", _solve_work),
    ("phevopt.dpopt.studies", "rollout", "dpopt.rollout", None),
    ("phevopt.ems", "wheel_power_series", "dynamics.wheel_power_series", None),
    ("phevopt.ems", "motor_electrical_power",
     "powertrain.motor_electrical_power", None),
    ("phevopt.dpopt.problem", "wheel_power_series",
     "dynamics.wheel_power_series", None),
    ("phevopt.dpopt.problem", "motor_electrical_power",
     "powertrain.motor_electrical_power", None),
    ("phevopt.powertrain", "BatteryParams.v_oc", "powertrain.BatteryParams.v_oc",
     "count"),
)


class Tracer:
    """Per-command span totals, keyed ``<span>.calls``, ``<span>.s``,
    ``<span>.self_s`` and the work counts the hooks add."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._open = []  # seconds of child spans, one entry per open span

    def add(self, key, value):
        self.totals[key] += value

    def take(self):
        """Return the totals recorded since the last call and reset them."""
        if self._open:
            raise RuntimeError("take() inside an open span")
        totals, self.totals = dict(self.totals), defaultdict(float)
        return totals

    def span(self, name, fn, hook=None):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                totals = self.totals
                totals[name + ".calls"] += 1
                totals[name + ".s"] += elapsed
                totals[name + ".self_s"] += elapsed - children
            if hook:
                hook(self, name, sig.bind(*args, **kwargs), result)
            return result
        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so that each call only counts."""
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.totals[key] += 1
            return fn(*args, **kwargs)
        return wrapper


def _lookup(module, attr):
    """Return (owner, name, function) for a target, or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    # a method is replaced on its class, so read the plain function there
    fn = vars(owner).get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    return None if fn is None else (owner, leaf, fn)


@contextlib.contextmanager
def installed(tracer):
    """Wrap every present target for the duration of the block."""
    saved = []
    try:
        for module, attr, name, hook in TARGETS:
            found = _lookup(module, attr)
            if found is None:
                continue
            owner, leaf, fn = found
            saved.append(found)
            setattr(owner, leaf, tracer.counter(name, fn) if hook == "count"
                    else tracer.span(name, fn, hook))
        yield tracer
    finally:
        for owner, leaf, fn in reversed(saved):
            setattr(owner, leaf, fn)
