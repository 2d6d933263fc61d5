"""One benchmark run in a fresh process; ``run.py`` spawns it.

Usage::

    python perfbench/child.py WORKLOAD SCALE SEED TRACE SPAWNED_AT

``TRACE`` is 0 or 1.  ``SPAWNED_AT`` is the parent's ``time.monotonic()``
just before the spawn, so ``setup_s`` covers interpreter start, ``import
repro`` and ``build_trace``.  The run prints one JSON object on stdout;
an exception or a failed ``check_invariants()`` exits non-zero instead.

An untraced run wraps only ``SSD.replay`` (one call per run) to time the
replay.  A traced run installs every wrapper of :mod:`tracer` first.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any

from tracer import Tracer
from workloads import SCALES, build_spec, digest, pages_of


def _time_replay(cell: list[float]) -> None:
    """Wrap ``SSD.replay`` so its wall time accumulates into ``cell``."""
    from repro.sim.ssd import SSD

    replay = SSD.replay

    def timed(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return replay(*args, **kwargs)
        finally:
            cell[0] += time.perf_counter() - start

    SSD.replay = timed  # type: ignore[method-assign]


def run(workload: str, scale: str, seed: int, traced: bool, spawned_at: float) -> dict[str, Any]:
    """Replay ``workload`` once; returns the run's JSON record."""
    from repro.scenario import run as scenario

    spec = build_spec(workload, SCALES[scale], seed)
    tracer = Tracer() if traced else None
    replay_wall = [0.0]
    if tracer is not None:
        tracer.install()
    else:
        _time_replay(replay_wall)

    start = time.perf_counter()
    trace = scenario.build_trace(spec)
    setup_s = time.monotonic() - spawned_at
    exec_start = time.perf_counter()
    result = scenario.execute_scenario(spec, trace)
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result.ftl.check_invariants()
    record: dict[str, Any] = {
        "spec": spec.describe(),
        "setup_s": setup_s,
        "exec_s": end - exec_start,
        "work_s": end - start,
        "requests": result.num_requests,
        "pages": pages_of(spec, result),
        "peak_rss_mb": peak_rss_mb,
        "digest": digest(spec, result),
    }
    if tracer is not None:
        record["trace"] = tracer.snapshot(end - start)
    else:
        record["replay_s"] = replay_wall[0]
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("scale", choices=sorted(SCALES))
    parser.add_argument("seed", type=int)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("spawned_at", type=float)
    args = parser.parse_args(argv)
    record = run(args.workload, args.scale, args.seed, bool(args.trace), args.spawned_at)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
