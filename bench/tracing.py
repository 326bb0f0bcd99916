"""Spans around calls into drlfolio's public functions, recorded from outside the package.

A span name is ``<module>.<qualified name>`` inside ``drlfolio``, for example
``neural.Conv2D.forward`` or ``portfolio_math.enforce_arbitrage``. Installing
a span replaces the callable wherever it is looked up: on its class for a
method, and for a module-level function in the defining module and in every
loaded ``drlfolio`` module that imported it (``ddpg.minmax_forward_batch``,
``trading_env.enforce_arbitrage``, ...). A name that no longer exists is
recorded as absent, so a refactor that removes it does not break tracing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

SPANS = (
    "market_data.load_csv",
    "market_data.align",
    "market_data.price_tensor",
    "market_data.relative_prices",
    "portfolio_math.enforce_arbitrage",
    "portfolio_math.enforce_arbitrage_batch",
    "portfolio_math.evolve_weights",
    "portfolio_math.transaction_cost",
    "portfolio_math.step_value",
    "trading_env.TradingEnv.step",
    "trading_env.TradingEnv.start_at",
    "neural.Network.forward",
    "neural.Network.backward",
    "neural.Conv2D.forward",
    "neural.Conv2D.backward",
    "neural.Dense.forward",
    "neural.Dense.backward",
    "neural.ReLU.forward",
    "neural.ReLU.backward",
    "neural.Flatten.forward",
    "neural.minmax_forward_batch",
    "neural.minmax_vjp_batch",
    "neural.critic_input_batch",
    "neural.save_checkpoint",
    "neural.load_checkpoint",
    "ddpg.train",
    "ddpg.DDPG.act",
    "ddpg.DDPG.update_critic",
    "ddpg.DDPG.update_actor",
    "ddpg.DDPG.critic_loss_and_grads",
    "ddpg.DDPG.actor_objective_and_grads",
    "ddpg.Adam.step",
    "ddpg.soft_update",
    "ddpg.ReplayBuffer.add",
    "ddpg.ReplayBuffer.sample",
    "analytics.run_backtest",
    "analytics.metric_suite",
    "analytics.write_report",
    "baseline_factor.load_factor_csv",
    "baseline_factor.select_weights",
    "baseline_factor.run_factor_backtest",
)

# Spans whose per-call allocation is measured with tracemalloc. None of them
# calls another, so resetting the tracemalloc peak inside one is safe.
ALLOC_SPANS = (
    "neural.Conv2D.forward",
    "neural.Conv2D.backward",
    "neural.Dense.forward",
    "neural.Dense.backward",
    "neural.ReLU.forward",
    "neural.ReLU.backward",
    "neural.Flatten.forward",
    "ddpg.Adam.step",
)

PACKAGE = "drlfolio"

_INHERITED = object()


def _resolve(span: str):
    """(owner, attribute, original) for a span name, or None when the name is gone."""
    module_name, _, qualname = span.partition(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


def _lookup_sites(owner, attr: str, original):
    """Every (namespace, name) through which the package reaches ``original``."""
    if isinstance(owner, type):
        return [(owner, attr)]
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                sites.append((module, key))
    return sites


class Patcher:
    """Installs wrappers at every lookup site of each span and restores them afterwards."""

    def __init__(self):
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, spans, make_wrapper) -> None:
        for span in spans:
            found = _resolve(span)
            if found is None:
                self.absent.append(span)
                continue
            owner, attr, original = found
            wrapper = make_wrapper(span, original)
            for namespace, key in _lookup_sites(owner, attr, original):
                previous = namespace.__dict__.get(key, _INHERITED)
                self._undo.append((namespace, key, previous))
                if isinstance(previous, (staticmethod, classmethod)):
                    setattr(namespace, key, type(previous)(wrapper))
                else:
                    setattr(namespace, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            namespace, key, previous = self._undo.pop()
            if previous is _INHERITED:
                delattr(namespace, key)
            else:
                setattr(namespace, key, previous)


class SpanRecorder:
    """Keeps every span as [name, start, end, parent index] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._current: int | None = None

    def wrap(self, name: str, fn):
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            record = [name, 0.0, 0.0, parent]
            self._current = len(spans)
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self._current = parent

        return traced


class AllocRecorder:
    """Per-call peak bytes allocated inside a span, measured with tracemalloc."""

    def __init__(self):
        self.bytes: dict[str, list[int]] = defaultdict(list)

    def wrap(self, name: str, fn):
        sink = self.bytes[name]

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                sink.append(peak - before)

        return measured


@contextmanager
def traced(spans=SPANS, recorder: SpanRecorder | None = None):
    """Record spans for the duration of the block; yields (recorder, absent span names)."""
    recorder = recorder or SpanRecorder()
    patcher = Patcher()
    patcher.install(spans, recorder.wrap)
    try:
        yield recorder, patcher.absent
    finally:
        patcher.restore()


@contextmanager
def allocations():
    """Measure per-call allocation peaks for the block; yields (recorder, absent span names)."""
    recorder = AllocRecorder()
    patcher = Patcher()
    patcher.install(ALLOC_SPANS, recorder.wrap)
    tracemalloc.start()
    try:
        yield recorder, patcher.absent
    finally:
        tracemalloc.stop()
        patcher.restore()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name.

    Self time is a span's duration minus the part of its interval that its
    child spans cover. ``spans`` holds (name, start, end, parent index).
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, list] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered(children.get(index, ()), start, end)
    return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}


def unspanned(spans, lo: float, hi: float) -> float:
    """Time in [lo, hi] that no top-level span covers."""
    roots = [(start, end) for _, start, end, parent in spans if parent is None]
    return (hi - lo) - covered(roots, lo, hi)
