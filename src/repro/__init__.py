"""Reproduction of "Boosting the Performance of 3D Charge Trap NAND
Flash with Asymmetric Feature Process Size Characteristic" (DAC 2017).

The package provides, from the bottom up:

* :mod:`repro.nand` — a 3D charge-trap NAND device model whose pages
  have layer-dependent (asymmetric) access latency;
* :mod:`repro.reliability` — process variation, retention, read
  disturb, ECC read-retry, refresh and fault injection on the same
  taper;
* :mod:`repro.traces` — MSR-Cambridge-format trace parsing and seeded
  synthetic enterprise workloads (media server, web/SQL server);
* :mod:`repro.ftl` — the speed-oblivious baselines: a conventional
  page-mapping FTL, the FAST hybrid log-buffer FTL and the
  demand-paged DFTL;
* :mod:`repro.core` — the paper's contribution: the Progressive
  Performance Boosting (PPB) strategy (four-level hotness, virtual
  blocks, hot/cold areas);
* :mod:`repro.sim` — a discrete-event simulation kernel and the SSD
  front end used for trace replay;
* :mod:`repro.scenario` — the declarative experiment layer: one frozen
  :class:`~repro.scenario.spec.ScenarioSpec` to configure, serialize
  (JSON/TOML), sweep (dotted field paths) and cache every run, and the
  memoizing :class:`~repro.scenario.memo.ReplayRunner` that runs them;
* :mod:`repro.bench` — the harness regenerating every table and figure
  of the paper's evaluation, and nothing else;
* :mod:`repro.analysis` — the ASCII tables and charts its reports use;
* :mod:`repro.lint` — the AST analyzer (``repro lint``) that checks the
  determinism and simulator invariants.

This package re-exports only the front door below.  Import every other
name from its defining module (``repro.nand.spec``,
``repro.ftl.conventional``, ...); of the subpackages, only
:mod:`repro.scenario`, :mod:`repro.ftl.transmap` and :mod:`repro.lint`
(``run_lint``) re-export any.

Quickstart::

    from repro import quick_comparison
    print(quick_comparison())

    from repro import ScenarioSpec, run_scenario
    result = run_scenario(ScenarioSpec(ftl="ppb", num_requests=4000))
"""

from repro.nand.spec import sim_spec
from repro.scenario import (
    ScenarioSpec,
    SweepAxis,
    run_scenario,
    run_scenarios,
    sweep,
)

__version__ = "1.0.0"

__all__ = [
    "ScenarioSpec",
    "SweepAxis",
    "run_scenario",
    "run_scenarios",
    "sweep",
    "quick_comparison",
    "__version__",
]


def quick_comparison(
    workload: str = "web-sql",
    num_requests: int = 30_000,
    speed_ratio: float = 4.0,
    seed: int = 42,
) -> str:
    """Small conventional-vs-PPB comparison; returns a printable report.

    This is the library's "hello world": it builds a scaled device,
    synthesizes an enterprise workload, replays it under both FTLs and
    reports the read enhancement the PPB strategy achieves.
    """
    from repro.bench.figures import SMOKE_SCALE

    spec = ScenarioSpec(
        workload=workload,
        num_requests=num_requests,
        seed=seed,
        device=sim_spec(
            speed_ratio=speed_ratio, blocks_per_chip=SMOKE_SCALE.blocks_per_chip
        ),
    )
    base_run, ppb_run = run_scenarios([spec, spec.with_(ftl="ppb")])
    base = base_run.ftl.stats  # type: ignore[attr-defined]
    ppb = ppb_run.ftl  # type: ignore[attr-defined]
    base_read, ppb_read = base.host_read_us, ppb.stats.host_read_us
    gain = (base_read - ppb_read) / base_read if base_read else 0.0
    lines = [
        f"workload       {workload} ({num_requests} requests, seed {seed})",
        f"speed ratio    {speed_ratio:.0f}x (slowest vs fastest page)",
        f"conventional   read {base_read / 1e6:.3f} s, erases {base.erase_count}",
        f"ppb            read {ppb_read / 1e6:.3f} s, erases {ppb.stats.erase_count}",
        f"read gain      {gain * 100:.2f}%",
        f"fast-half reads under PPB: {ppb.fast_page_read_fraction() * 100:.1f}%",
    ]
    return "\n".join(lines)
