"""Run and span recording by wrapping the library's module bindings.

The library imports its collaborators with ``from module import name``, so a
call is only observed if the wrapper replaces the name in the module that
calls it: wrapping ``wptsim.linalg.max_eigpair`` records nothing, wrapping
``wptsim.policies.max_eigpair`` records every per-slot eigen solve.

Two levels:

* untraced: only the bindings of ``harness.run`` are wrapped, recording one
  ``RunRecord`` (kind, horizon, host seconds, summary) per simulation run;
* traced: every binding in ``SPAN_BINDINGS`` is wrapped as well, and each
  call appends a span ``(name, start, end, parent, run_id)`` to an in-memory
  list. Spans are written out only after the measurement ends.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

# (module, attribute) pairs through which simulation runs are made: the
# benchmark and harness.sweep call harness.run, the CLI calls its own binding
RUN_BINDINGS = (("wptsim.harness", "run"), ("wptsim.cli", "run"))

# (module, attribute, span name, work counter over the call's arguments)
SPAN_BINDINGS = (
    ("wptsim.harness", "sample_slot_block", "channel.sample_slot_block", lambda a, k: a[2]),
    ("wptsim.harness", "empirical_gain_spectrum", "channel.empirical_gain_spectrum", lambda a, k: a[2]),
    ("wptsim.harness", "solve_energy_threshold", "threshold.solve", None),
    ("wptsim.harness", "solve_power_threshold", "threshold.solve", None),
    ("wptsim.harness", "core_step", "policies.step", None),
    ("wptsim.harness", "_core_optimal_energy", "policies.step", None),
    ("wptsim.harness", "_core_optimal_power", "policies.step", None),
    ("wptsim.policies", "max_eigpair", "linalg.max_eigpair", None),
    ("wptsim.policies", "weighted_combine", "linalg.weighted_combine", None),
    ("wptsim.cli", "sweep", "harness.sweep", None),
    ("wptsim.cli", "_load", "cli.load", None),
    ("wptsim.cli", "_write_rows", "cli.write_rows", lambda a, k: len(a[1])),
    ("wptsim.cli", "load_preset", "config.load", None),
    ("wptsim.cli", "load_experiment_file", "config.load", None),
    ("wptsim.config", "load_preset", "config.load", None),
)

RUN_SPAN = "harness.run"
ROOT_SPAN = "bench.rep"


@dataclass
class RunRecord:
    """One call of harness.run as seen at its binding."""

    kind: str
    slots: int
    seconds: float
    summary: Any = None
    errors: list = field(default_factory=list)
    misses: list = field(default_factory=list)


class Recorder:
    """Collects run records, and spans when tracing, while installed."""

    def __init__(self):
        self.runs: list = []
        self.spans: list = []
        self.work: dict = {}
        self.missing: list = []
        self._stack: list = []
        self._run_id = -1
        self._tracing = False

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, start: float, end: float, parent: int) -> None:
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._run_id)

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        if not self._tracing:
            yield
            return
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, time.perf_counter(), parent)

    def _span_wrapper(self, name: str, fn, work):
        clock = time.perf_counter
        counts = self.work

        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, clock(), parent)
                if work is not None:
                    counts[name] = counts.get(name, 0) + work(args, kwargs)

        return wrapper

    def _run_wrapper(self, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            kind = kwargs.get("policy_kind", args[2] if len(args) > 2 else "?")
            cfg = args[0] if args else kwargs.get("cfg")
            record = RunRecord(kind, int(getattr(cfg, "slots", 0)), 0.0)
            self.runs.append(record)
            if self._tracing:
                self._run_id += 1
                idx, parent = self._open()
            start = clock()
            try:
                record.summary = fn(*args, **kwargs)
            except BaseException as err:
                record.errors.append(f"run raised {type(err).__name__}: {err}")
                raise
            finally:
                end = clock()
                record.seconds = end - start
                if self._tracing:
                    self._close(idx, RUN_SPAN, start, end, parent)
            return record.summary

        return wrapper

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self, trace: bool):
        """Patch the bindings for the duration of the block, then restore them."""
        saved = []
        self._tracing = trace
        try:
            for module_name, attr in RUN_BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._run_wrapper(original))
            if trace:
                for module_name, attr, name, work in SPAN_BINDINGS:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, self._span_wrapper(name, original, work))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._tracing = False


@dataclass
class SpanTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def span_totals(spans: list) -> dict:
    """Per span name: call count, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; the recorder is single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        t = totals.setdefault(name, SpanTotals())
        t.calls += 1
        t.seconds += end - start
        t.self_seconds += end - start - child[i]
    return totals


def get(totals: dict, name: str) -> SpanTotals:
    return totals.get(name, SpanTotals())


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted."""
    return num / den if den else 0.0
