"""Tunable parameters of the PPB strategy.

Defaults follow the paper where it is specific (two virtual blocks per
physical block, size-check first-stage identification) and use sensible
fractions of device capacity where it is not (tracker sizes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class PPBConfig:
    """Configuration for :class:`repro.core.ppb_ftl.PPBFTL`."""

    #: virtual blocks carved per physical block (paper default: 2; the
    #: paper notes more are possible at higher bookkeeping cost).
    vb_split: int = 2
    #: first-stage identifier: "size_check" (paper's case study),
    #: "two_level_lru" or "multi_hash".
    identifier: str = "size_check"
    #: VB list discipline: "pipelined" (keeps a slow and a fast VB open
    #: concurrently; what the paper's measured gains require) or
    #: "strict" (a literal reading of Algorithm 1; ablation).
    allocation_discipline: str = "pipelined"
    #: bound on fast VBs queued awaiting allocation per area — the
    #: "both lists are full" guard of Fig. 10b III.
    max_pending_vbs: int = 2
    #: how many promoted (icy -> cold) pages each GC pass may migrate to
    #: fast virtual blocks (paper Fig. 11a: the sorted frequency table's
    #: data "moves to its new location with suitable access speed").
    #: Write-once-read-many data lives in fully-valid blocks greedy GC
    #: never selects, so without this bounded migration it could never
    #: reach fast pages.  0 disables.
    gc_migration_batch: int = 16
    #: reads a cold page must log before it queues for migration.  Kept
    #: above ``cold_promote_reads`` so only the proven-popular head of
    #: the frequency table pays the migration copy; each migration pokes
    #: an invalid page into an otherwise-valid block, and migrating the
    #: long tail would hand greedy GC a swarm of expensive victims.
    migrate_reads: int = 3
    #: hot-list capacity as a fraction of logical pages.
    hot_list_fraction: float = 0.03
    #: iron-hot-list capacity as a fraction of logical pages.
    iron_list_fraction: float = 0.02
    #: access-frequency-table capacity as a fraction of logical pages.
    freq_table_fraction: float = 0.25
    #: reads needed for icy-cold data to be promoted to cold
    #: (paper Fig. 6: "promote if read" — a single read suffices).
    cold_promote_reads: int = 1
    #: halve all frequency counts every N tracked operations (aging); 0
    #: disables aging.
    freq_aging_period: int = 100_000
    #: minimum absolute tracker capacities (useful on tiny test devices).
    min_list_entries: int = 16
    #: weight of the predicted-reliability cost in placement decisions.
    #: 0 (default) is the paper's pure-speed PPB: frequently-read data
    #: always claims fast pages.  > 0 prices the fast (bottom-layer)
    #: pages' higher predicted RBER-at-horizon against their speed gain
    #: and diverts read-hot data to slow pages when the reliability cost
    #: wins — the speed-vs-lifetime utility knob (needs an attached
    #: reliability manager to have any effect).
    reliability_weight: float = 0.0
    #: retention horizon (seconds) at which placement predicts *cold*
    #: data's RBER — write-once data sits this long before the policy's
    #: imagined read.  Default: one week.
    placement_horizon_s: float = 7 * 86400.0
    #: per-block read count at which placement predicts *iron-hot*
    #: data's RBER — rewritten-constantly data ages ~0 but its blocks
    #: absorb this much read disturb (0 ignores disturb).
    placement_horizon_reads: int = 0

    def __post_init__(self) -> None:
        if self.vb_split < 2:
            raise ConfigError(f"vb_split must be >= 2, got {self.vb_split}")
        if self.identifier not in ("size_check", "two_level_lru", "multi_hash"):
            raise ConfigError(f"unknown identifier {self.identifier!r}")
        if self.allocation_discipline not in ("pipelined", "strict"):
            raise ConfigError(
                f"unknown allocation discipline {self.allocation_discipline!r}"
            )
        if self.max_pending_vbs < 1:
            raise ConfigError(
                f"max_pending_vbs must be >= 1, got {self.max_pending_vbs}"
            )
        if self.gc_migration_batch < 0:
            raise ConfigError(
                f"gc_migration_batch must be >= 0, got {self.gc_migration_batch}"
            )
        if self.migrate_reads < self.cold_promote_reads:
            raise ConfigError(
                f"migrate_reads ({self.migrate_reads}) must be >= "
                f"cold_promote_reads ({self.cold_promote_reads})"
            )
        for name in ("hot_list_fraction", "iron_list_fraction", "freq_table_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {value}")
        if self.cold_promote_reads < 1:
            raise ConfigError(
                f"cold_promote_reads must be >= 1, got {self.cold_promote_reads}"
            )
        if self.freq_aging_period < 0:
            raise ConfigError(
                f"freq_aging_period must be >= 0, got {self.freq_aging_period}"
            )
        if self.reliability_weight < 0:
            raise ConfigError(
                f"reliability_weight must be >= 0, got {self.reliability_weight}"
            )
        if self.placement_horizon_s < 0:
            raise ConfigError(
                f"placement_horizon_s must be >= 0, got {self.placement_horizon_s}"
            )
        if self.placement_horizon_reads < 0:
            raise ConfigError(
                f"placement_horizon_reads must be >= 0, got {self.placement_horizon_reads}"
            )

    # ------------------------------------------------------------------

    def hot_list_capacity(self, num_lpns: int) -> int:
        """Absolute hot-list capacity for a device with ``num_lpns`` pages."""
        return max(self.min_list_entries, int(num_lpns * self.hot_list_fraction))

    def iron_list_capacity(self, num_lpns: int) -> int:
        """Absolute iron-hot-list capacity."""
        return max(self.min_list_entries, int(num_lpns * self.iron_list_fraction))

    def freq_table_capacity(self, num_lpns: int) -> int:
        """Absolute access-frequency-table capacity."""
        return max(self.min_list_entries, int(num_lpns * self.freq_table_fraction))
