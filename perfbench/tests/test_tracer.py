"""Tracer arithmetic on synthetic nested calls."""

from __future__ import annotations

import sys
import time
import types

import pytest

from tracer import ROOT, Target, Tracer, edges, layer_metrics


class FakeClock:
    """A clock that moves only when the synthetic code says it worked."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def make_module(clock, monkeypatch) -> types.ModuleType:
    """A fresh module of synthetic layers: cache -> store, plus a failure."""
    module = types.ModuleType("synthetic_layers")

    class Store:
        def get(self, key):
            clock.work(2.0)
            return key

    class Cache:
        def __init__(self):
            self.store = Store()

        def lookup(self, key):
            clock.work(1.0)
            return self.store.get(key)

        def _private(self):
            return None

    class LoggingCache(Cache):
        def lookup(self, key):
            clock.work(1.0)
            return super().lookup(key)

    class Failing:
        def run(self):
            clock.work(0.5)
            raise ValueError("boom")

    def select(depth):
        clock.work(0.25)
        return module.select(depth - 1) if depth else None

    def delegate():
        clock.work(0.5)
        return module.select(1)

    for value in (Store, Cache, LoggingCache, Failing, select, delegate):
        setattr(module, value.__name__, value)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


TARGETS = (
    Target("span", "cache", "synthetic_layers", ("Cache", "LoggingCache")),
    Target("span", "store", "synthetic_layers", ("Store",), ("get",)),
    Target("span", "failing", "synthetic_layers", ("Failing",), ("run",)),
    Target("probe", "select", "synthetic_layers", (), ("select", "delegate")),
)


@pytest.fixture
def traced(monkeypatch):
    clock = FakeClock()
    module = make_module(clock, monkeypatch)
    tracer = Tracer(clock=clock)
    tracer.install(TARGETS)
    return clock, module, tracer


def test_self_times_and_unattributed_sum_to_root_wall(traced):
    clock, module, tracer = traced
    start = clock()
    clock.work(0.75)  # the harness's own time: unattributed
    module.Cache().lookup(1)
    module.LoggingCache().lookup(2)
    snapshot = tracer.snapshot(clock() - start)

    spans = {tuple(row[:3]): tuple(row[3:]) for row in snapshot["spans"]}
    assert spans[(ROOT, "cache", "Cache.lookup")] == (1, 3.0, 1.0)
    assert spans[(ROOT, "cache", "LoggingCache.lookup")] == (1, 4.0, 2.0)
    assert spans[("cache", "store", "Store.get")] == (2, 4.0, 4.0)
    self_total = sum(row[5] for row in snapshot["spans"])
    assert self_total + 0.75 == pytest.approx(snapshot["root_wall_s"])
    assert tracer.stack == [[ROOT, 7.0]]


def test_same_layer_reentry_is_counted_once(traced):
    _clock, module, tracer = traced
    cache = module.LoggingCache()
    for key in range(3):
        cache.lookup(key)
    rows = [row for row in tracer.snapshot(0.0)["spans"] if row[1] == "cache"]
    assert [(row[0], row[2], row[3]) for row in rows] == [(ROOT, "LoggingCache.lookup", 3)]


def test_exception_unwinds_the_stack(traced):
    _clock, module, tracer = traced
    with pytest.raises(ValueError, match="boom"):
        module.Failing().run()
    assert tracer.stack == [[ROOT, 0.5]]
    assert tracer.spans[(ROOT, "failing", "Failing.run")] == [1, 0.5, 0.5]
    module.Cache().lookup(0)  # spans still nest correctly afterwards
    assert tracer.spans[("cache", "store", "Store.get")][0] == 1


def test_probe_times_without_opening_a_span_and_joins_nested_calls(traced):
    _clock, module, tracer = traced
    module.select(3)
    module.delegate()
    assert tracer.snapshot(0.0)["probes"] == {"select": [2, 2.0]}
    assert tracer.stack == [[ROOT, 0.0]]


def test_only_public_methods_are_wrapped_by_default(traced):
    _clock, module, _tracer = traced
    assert hasattr(module.Cache.lookup, "__wrapped__")
    assert not hasattr(module.Cache._private, "__wrapped__")
    assert not hasattr(module.Cache.__init__, "__wrapped__")


def test_missing_targets_are_listed_not_fatal(monkeypatch):
    make_module(FakeClock(), monkeypatch)
    tracer = Tracer()
    tracer.install(
        (
            Target("span", "x", "synthetic_layers", ("Nope",), ("get",)),
            Target("span", "x", "synthetic_layers", ("Store",), ("put",)),
            Target("span", "x", "no_such_module_anywhere", ("Store",), ("get",)),
            Target("count", "x", "synthetic_layers", (), ("missing_function",)),
        )
    )
    assert tracer.missing == [
        "synthetic_layers:Nope",
        "synthetic_layers:Store.put",
        "no_such_module_anywhere",
        "synthetic_layers.missing_function",
    ]


def test_real_clock_attribution_within_one_percent(monkeypatch):
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    module = types.ModuleType("spinning_layers")

    class Inner:
        def work(self):
            spin(0.002)

    class Outer:
        def work(self):
            spin(0.001)
            for _ in range(3):
                Inner().work()

    module.Inner = Inner
    module.Outer = Outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer()
    tracer.install(
        (
            Target("span", "outer", "spinning_layers", ("Outer",)),
            Target("span", "inner", "spinning_layers", ("Inner",)),
        )
    )
    start = time.perf_counter()
    for _ in range(5):
        Outer().work()
    spin(0.003)
    root_wall = time.perf_counter() - start
    metrics = layer_metrics(tracer.snapshot(root_wall), requests=0)
    layer_self = sum(row[5] for row in tracer.snapshot(root_wall)["spans"])
    assert layer_self + metrics["trace.unattributed_s"] == pytest.approx(root_wall, rel=0.01)
    assert metrics["trace.unattributed_s"] >= 0.003
    by_edge = {(edge["parent"], edge["layer"]): edge for edge in edges(tracer.snapshot(root_wall))}
    assert by_edge[("outer", "inner")]["calls"] == 15
    assert by_edge[(ROOT, "outer")]["wall_s"] >= by_edge[("outer", "inner")]["wall_s"]


def test_layer_metrics_names_scenario_phases():
    snapshot = {
        "root_wall_s": 10.75,
        "spans": [
            [ROOT, "traces", "build_trace", 1, 2.0, 2.0],
            [ROOT, "scenario", "execute_scenario", 1, 8.25, 0.5],
            ["scenario", "nand", "NandDevice.__init__", 1, 0.25, 0.25],
            ["scenario", "ftl", "PPBFTL.__init__", 1, 0.75, 0.5],
            ["ftl", "core", "AreaAllocator.alloc_page", 4, 0.25, 0.25],
            ["scenario", "traces", "Trace.fit_to", 1, 0.5, 0.5],
            ["scenario", "sim", "SSD.warm_fill", 1, 1.0, 1.0],
            ["scenario", "traces", "SyntheticWorkload.generate", 1, 0.25, 0.25],
            ["scenario", "sim", "SSD.precondition", 1, 0.5, 0.5],
            ["scenario", "reliability", "ReliabilityManager.age_all", 1, 0.5, 0.5],
            ["scenario", "sim", "SSD.replay", 1, 4.0, 4.0],
        ],
        "probes": {"ftl.gc_select": [3, 0.125]},
        "counts": {"sim.processes": 6, "sim.timeouts": 4},
        "missing": [],
    }
    metrics = layer_metrics(snapshot, requests=5)
    # The precondition's trace generation is a scenario phase, not set-up.
    assert metrics["traces.build_s"] == 2.0
    assert metrics["traces.fit_s"] == 0.5
    assert metrics["scenario.construct_s"] == 1.0
    assert metrics["scenario.warm_fill_s"] == 1.0
    assert metrics["scenario.age_s"] == 0.5
    assert metrics["scenario.replay_s"] == 4.0
    assert metrics["scenario.precondition_s"] == 0.75
    assert metrics["core.calls"] == 4
    assert metrics["ftl.gc_select_calls"] == 3
    assert metrics["sim.events_per_request"] == 2.0
    assert metrics["sim.us_per_event"] == pytest.approx(5.5 / 10 * 1e6)
    assert metrics["trace.unattributed_s"] == pytest.approx(0.5)
