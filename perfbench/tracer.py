"""Outside-in layer tracing for the benchmark's traced run.

The traced child process installs wrappers on the public entry points
of each layer of ``repro`` *at class level*, before any simulator
object exists, so the code path under measurement is the library's own
and nothing under ``src/`` knows it is being traced.  Three kinds of
wrapper exist:

``span``
    A layer boundary.  The wrapper pushes a frame for its layer, times
    the call, and on return charges the wall time to the parent frame,
    so a span's *self time* is its wall time minus the wall time of the
    spans it called.  A call made while the innermost open span already
    belongs to the same layer (``DFTL.host_write`` calling
    ``super().host_write``) joins that span instead of opening a new one.
``probe``
    A timed region inside a layer (GC victim selection).  It records its
    own calls and inclusive wall time and leaves the span stack alone,
    so its time stays part of the enclosing layer's self time.
``count``
    A call counter with no timing (the DES kernel's per-event calls,
    which are too frequent and too small to time without distorting
    them).

Aggregates live in memory per ``(parent layer, layer, span name)``, so
"which layer called whom" survives without storing one record per call.
A wrap target that does not exist is recorded in :attr:`Tracer.missing`
and skipped: a refactor that renames an entry point degrades the traced
table instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable

#: layer of the outermost frame: the benchmark's own code around the
#: calls into the library.  Its self time is the run's unattributed time.
ROOT = "root"

#: the layers of ``repro`` the traced run reports, outermost first.
LAYERS = ("traces", "scenario", "sim", "ftl", "core", "nand", "reliability")


@dataclass(frozen=True)
class Target:
    """Where to install one kind of wrapper.

    ``owners`` names classes of ``module``; an empty tuple means the
    methods are module-level functions.  An empty ``methods`` tuple means
    every public function each owner class defines itself.
    """

    kind: str
    name: str
    module: str
    owners: tuple[str, ...]
    methods: tuple[str, ...] = ()


_NAND_ENTRY_POINTS = (
    "__init__",
    "read_ppn",
    "program_ppn",
    "copy_page",
    "erase_pbn",
    "program_multi_ppn",
    "erase_multi_pbn",
    "begin_oplog",
    "end_oplog",
    "note_retry",
    "note_recovery",
)

_FTL_HOST_API = ("__init__", "host_read", "host_write", "trim")

#: The public entry points of each layer of ``repro``.
TARGETS = (
    Target("span", "traces", "repro.scenario.run", (), ("build_trace",)),
    Target("span", "traces", "repro.traces.workloads", ("SyntheticWorkload",), ("generate",)),
    Target("span", "traces", "repro.traces.record", ("Trace",), ("fit_to",)),
    Target("span", "scenario", "repro.scenario.run", (), ("execute_scenario",)),
    Target("span", "sim", "repro.sim.ssd", ("SSD",), ("replay", "warm_fill", "precondition")),
    Target("span", "ftl", "repro.ftl.base", ("BaseFTL",), _FTL_HOST_API),
    Target("span", "ftl", "repro.ftl.conventional", ("ConventionalFTL",), ("__init__",)),
    Target("span", "ftl", "repro.ftl.fast", ("FastFTL",), _FTL_HOST_API),
    Target("span", "ftl", "repro.ftl.dftl", ("DFTL",), _FTL_HOST_API),
    Target("span", "ftl", "repro.core.ppb_ftl", ("PPBFTL",), ("__init__",)),
    Target("span", "core", "repro.core.lru", ("TwoLevelLRU",)),
    Target("span", "core", "repro.core.freqtable", ("AccessFrequencyTable",)),
    Target("span", "core", "repro.core.vblists", ("AreaAllocator",)),
    Target("span", "core", "repro.core.virtual_block", ("VirtualBlockManager",)),
    Target(
        "span",
        "core",
        "repro.core.identification",
        ("SizeCheckIdentifier", "TwoLevelLruIdentifier", "MultiHashIdentifier"),
    ),
    Target("span", "nand", "repro.nand.device", ("NandDevice",), _NAND_ENTRY_POINTS),
    Target("span", "reliability", "repro.reliability.manager", ("ReliabilityManager",)),
    Target(
        "span",
        "reliability",
        "repro.reliability.manager",
        ("ReliabilityManager",),
        ("__init__",),
    ),
    Target("span", "reliability", "repro.reliability.refresh", ("RefreshPolicy",)),
    Target(
        "probe",
        "ftl.gc_select",
        "repro.ftl.gc",
        (
            "GreedyVictimPolicy",
            "ReliabilityAwareGreedyPolicy",
            "CostBenefitVictimPolicy",
            "RandomVictimPolicy",
        ),
        ("select",),
    ),
    Target("probe", "ftl.gc_select", "repro.ftl.wear", ("WearLeveler",), ("select",)),
    Target("count", "sim.processes", "repro.sim.engine", ("Engine",), ("process",)),
    Target("count", "sim.timeouts", "repro.sim.engine", ("Engine",), ("timeout",)),
    Target("count", "sim.joins", "repro.sim.engine", ("Engine",), ("all_of",)),
    Target("count", "sim.resource_requests", "repro.sim.resources", ("Resource",), ("request",)),
)


class Tracer:
    """Span stack plus in-memory aggregates of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: open frames, innermost last: ``[layer, child wall time]``.
        self.stack: list[list[Any]] = [[ROOT, 0.0]]
        #: ``(parent layer, layer, name) -> [calls, wall_s, self_s]``.
        self.spans: dict[tuple[str, str, str], list[Any]] = {}
        #: probe name -> ``[calls, wall_s, running]``.
        self.probes: dict[str, list[Any]] = {}
        #: counter name -> ``[calls]``.
        self.counts: dict[str, list[int]] = {}
        #: ``module:Owner.method`` of every wrap target that was not found.
        self.missing: list[str] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped as a boundary of ``layer``."""
        stack = self.stack
        clock = self.clock
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += wall
                key = (parent[0], layer, name)
                cell = spans.get(key)
                if cell is None:
                    cell = spans[key] = [0, 0.0, 0.0]
                cell[0] += 1
                cell[1] += wall
                cell[2] += wall - frame[1]

        return traced

    def probe(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed into probe ``name``; a call made while any function
        of the same probe runs (``WearLeveler`` delegating to its inner
        policy) joins the outer call."""
        clock = self.clock
        cell = self.probes.setdefault(name, [0, 0.0, False])

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if cell[2]:
                return fn(*args, **kwargs)
            cell[2] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - start
                cell[2] = False

        return timed

    def count(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with its calls counted into ``name``."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every target in place; record the ones that do not exist."""
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(target.module)
                continue
            if not target.owners:
                for method in target.methods:
                    self._wrap(target, module, method, target.module)
                continue
            for owner_name in target.owners:
                owner = getattr(module, owner_name, None)
                where = f"{target.module}:{owner_name}"
                if not inspect.isclass(owner):
                    self.missing.append(where)
                    continue
                methods = target.methods or tuple(
                    name
                    for name, value in vars(owner).items()
                    if not name.startswith("_") and inspect.isfunction(value)
                )
                if not methods:
                    self.missing.append(f"{where} (no public methods)")
                for method in methods:
                    self._wrap(target, owner, method, where)

    def _wrap(self, target: Target, owner: Any, method: str, where: str) -> None:
        fn = vars(owner).get(method)
        if not inspect.isfunction(fn):
            self.missing.append(f"{where}.{method}")
            return
        label = method if inspect.ismodule(owner) else f"{owner.__name__}.{method}"
        if target.kind == "span":
            wrapped = self.span(target.name, label, fn)
        elif target.kind == "probe":
            wrapped = self.probe(target.name, fn)
        else:
            wrapped = self.count(target.name, fn)
        setattr(owner, method, wrapped)

    # -- results -----------------------------------------------------------

    def snapshot(self, root_wall_s: float) -> dict[str, Any]:
        """JSON-ready aggregates, given the wall time of the root frame."""
        return {
            "root_wall_s": root_wall_s,
            "spans": [
                [parent, layer, name, calls, wall, own]
                for (parent, layer, name), (calls, wall, own) in sorted(self.spans.items())
            ],
            "probes": {name: cell[:2] for name, cell in sorted(self.probes.items())},
            "counts": {name: cell[0] for name, cell in sorted(self.counts.items())},
            "missing": list(self.missing),
        }


def _wall_of(spans: list[list[Any]], accept: Callable[[str, str, str], bool]) -> float:
    """Summed wall time of the spans ``accept(parent, layer, name)`` keeps."""
    return sum(row[4] for row in spans if accept(row[0], row[1], row[2]))


def layer_metrics(snapshot: dict[str, Any], requests: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (see perfbench/README.md).

    ``requests`` is the measured replay's request count, the base of
    ``sim.events_per_request``.
    """
    spans = snapshot["spans"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(row[5] for row in spans if row[1] == layer)
        metrics[f"{layer}.calls"] = sum(row[3] for row in spans if row[1] == layer)
    for layer in ("ftl", "nand"):
        calls = metrics[f"{layer}.calls"]
        metrics[f"{layer}.us_per_call"] = metrics[f"{layer}.self_s"] / calls * 1e6 if calls else 0.0

    # build_trace, before execute_scenario: the trace part of setup_s.
    metrics["traces.build_s"] = _wall_of(
        spans, lambda parent, layer, _n: parent == ROOT and layer == "traces"
    )
    metrics["traces.fit_s"] = _wall_of(spans, lambda _p, _l, name: name == "Trace.fit_to")
    metrics["scenario.construct_s"] = _wall_of(
        spans, lambda parent, _l, name: parent == "scenario" and name.endswith(".__init__")
    )
    metrics["scenario.warm_fill_s"] = _wall_of(spans, lambda _p, _l, name: name == "SSD.warm_fill")
    # A precondition phase generates its own trace inside execute_scenario,
    # the only generator call made there; that time belongs to the phase.
    metrics["scenario.precondition_s"] = _wall_of(
        spans,
        lambda parent, _l, name: name == "SSD.precondition"
        or (parent == "scenario" and name == "SyntheticWorkload.generate"),
    )
    metrics["scenario.age_s"] = _wall_of(
        spans, lambda parent, _l, name: parent == "scenario" and name.endswith(".age_all")
    )
    metrics["scenario.replay_s"] = _wall_of(spans, lambda _p, _l, name: name == "SSD.replay")

    calls, wall = snapshot["probes"].get("ftl.gc_select", [0, 0.0])
    metrics["ftl.gc_select_s"] = wall
    metrics["ftl.gc_select_calls"] = calls

    counts = snapshot["counts"]
    events = 0
    for name in ("sim.processes", "sim.timeouts", "sim.joins", "sim.resource_requests"):
        metrics[name] = counts.get(name, 0)
        events += metrics[name]
    metrics["sim.events_per_request"] = events / requests if requests else 0.0
    metrics["sim.us_per_event"] = metrics["sim.self_s"] / events * 1e6 if events else 0.0

    metrics["trace.wall_s"] = snapshot["root_wall_s"]
    metrics["trace.unattributed_s"] = snapshot["root_wall_s"] - sum(row[5] for row in spans)
    return metrics


def edges(snapshot: dict[str, Any]) -> list[dict[str, Any]]:
    """Aggregates per ``parent layer -> layer`` edge, heaviest first."""
    merged: dict[tuple[str, str], list[Any]] = {}
    for parent, layer, _name, calls, wall, own in snapshot["spans"]:
        cell = merged.setdefault((parent, layer), [0, 0.0, 0.0])
        cell[0] += calls
        cell[1] += wall
        cell[2] += own
    rows = [
        {"parent": parent, "layer": layer, "calls": calls, "wall_s": wall, "self_s": own}
        for (parent, layer), (calls, wall, own) in merged.items()
    ]
    return sorted(rows, key=lambda row: -row["wall_s"])
