"""Host-facing FTL accounting.

Separates the three latency pools the paper's figures report:

* host read service time (Figs. 13/14 and the enhancement of Fig. 12),
* host write service time (Figs. 16/17 and Fig. 15),
* garbage-collection time (copies + erases), kept separate so the
  "identical write performance" claim can be checked with and without
  GC stalls attributed to writes.

Counts of erased blocks feed Fig. 18.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FtlStats:
    """Mutable counters accumulated over one simulation run."""

    # Host-visible page operations.
    host_read_pages: int = 0
    host_write_pages: int = 0
    host_read_us: float = 0.0
    host_write_us: float = 0.0
    #: reads of never-written logical pages (served without flash access).
    unmapped_reads: int = 0
    # Garbage collection.
    gc_runs: int = 0
    gc_copied_pages: int = 0
    gc_read_us: float = 0.0
    gc_write_us: float = 0.0
    erase_count: int = 0
    erase_us: float = 0.0
    # TRIM.
    trimmed_pages: int = 0
    # Strategy-specific counters (PPB fills these in).
    extra: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def gc_us(self) -> float:
        """Total time spent in garbage collection."""
        return self.gc_read_us + self.gc_write_us + self.erase_us

    @property
    def write_amplification(self) -> float:
        """(host writes + GC copies) / host writes; 1.0 when idle."""
        if not self.host_write_pages:
            return 1.0
        return (self.host_write_pages + self.gc_copied_pages) / self.host_write_pages

    @property
    def mean_read_us(self) -> float:
        """Mean host read service time per page."""
        if not self.host_read_pages:
            return 0.0
        return self.host_read_us / self.host_read_pages

    @property
    def mean_write_us(self) -> float:
        """Mean host write service time per page (excluding GC)."""
        if not self.host_write_pages:
            return 0.0
        return self.host_write_us / self.host_write_pages

    def bump(self, key: str, amount: float = 1.0) -> None:
        """Increment a strategy-specific counter."""
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for reporting and EXPERIMENTS.md tables."""
        return {
            "host_read_pages": self.host_read_pages,
            "host_write_pages": self.host_write_pages,
            "host_read_us": self.host_read_us,
            "host_write_us": self.host_write_us,
            "unmapped_reads": self.unmapped_reads,
            "gc_runs": self.gc_runs,
            "gc_copied_pages": self.gc_copied_pages,
            "gc_us": self.gc_us,
            "erase_count": self.erase_count,
            "trimmed_pages": self.trimmed_pages,
            "write_amplification": self.write_amplification,
            "mean_read_us": self.mean_read_us,
            "mean_write_us": self.mean_write_us,
            **{f"extra.{k}": v for k, v in sorted(self.extra.items())},
        }
