"""Device specification for the 3D charge-trap NAND model.

:class:`NandSpec` carries the geometry and timing parameters of Table 1 of
the paper together with the knobs the evaluation sweeps (page size, page
access speed difference).  The nominal latencies are interpreted as the
*fastest-page* (bottom gate-stack layer) values; slower pages are derived
by the latency profile in :mod:`repro.nand.latency`.

Presets
-------
``table1_spec``
    The full 64 GB device of the paper's Table 1.  Faithful but large;
    use for spec-level tests, not trace replay.
``sim_spec``
    A proportionally scaled device (same pages/block, same latencies,
    same over-provisioning ratio) sized for pure-Python trace replay.
``tiny_spec``
    A miniature device for unit tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigError

#: Latency profile names accepted by :attr:`NandSpec.latency_profile`.
VALID_PROFILES = ("linear", "geometric", "physical", "uniform")

#: Bytes per mebibyte, used for transfer-rate conversion.
_MB = 1024 * 1024


@dataclass(frozen=True)
class NandSpec:
    """Geometry and timing parameters of a 3D charge-trap NAND device.

    Parameters mirror Table 1 of the paper.  ``speed_ratio`` is the
    "page access speed difference" the evaluation sweeps from 2x to 5x:
    the slowest (top-layer) page is ``speed_ratio`` times slower than
    the fastest (bottom-layer) page.
    """

    #: Bytes per page (Table 1: 16 KB; Fig. 12/15 also evaluate 8 KB).
    page_size: int = 16 * 1024
    #: Pages per physical block (Table 1: 384).
    pages_per_block: int = 384
    #: Physical blocks per chip.
    blocks_per_chip: int = 256
    #: Number of chips in the device (the paper models a single chip).
    num_chips: int = 1
    #: Number of independent host-interface channels (buses).  Chips are
    #: interleaved across channels (chip ``c`` sits on channel
    #: ``c % num_channels``); must divide ``num_chips`` evenly so every
    #: channel serves the same number of chips.  Only the timed replay
    #: mode models channel contention — sequential-mode latencies are
    #: per-operation sums and do not overlap transfers.
    num_channels: int = 1
    #: Planes per chip.  Blocks interleave across planes (block ``b`` of
    #: a chip sits on plane ``b % planes_per_chip``, mirroring the
    #: chip-across-channel interleave); must divide ``blocks_per_chip``
    #: so every plane holds the same number of blocks.  Planes buy
    #: concurrency only in the timed replay mode (each plane's page
    #: register works independently while the die I/O port and channel
    #: serialize transfers) and enable multi-plane program/erase fusion;
    #: sequential-mode latencies are unchanged.
    planes_per_chip: int = 1
    #: Number of gate stack layers a vertical channel crosses.  Pages map
    #: onto layers in order; several pages may share one layer.
    num_layers: int = 64
    #: Fastest-page array read latency in microseconds (Table 1: 49 us).
    read_us: float = 49.0
    #: Fastest-page program latency in microseconds (Table 1: 600 us).
    program_us: float = 600.0
    #: Block erase latency in microseconds (Table 1: 4 ms).
    erase_us: float = 4000.0
    #: Bus transfer rate in MB/s (Table 1 lists "533 Mbps"; we interpret
    #: the ONFI-DDR sense of 533 MT/s on an 8-bit bus = 533 MB/s, see
    #: DESIGN.md for the rationale).
    transfer_mb_per_s: float = 533.0
    #: Ratio of slowest-page to fastest-page latency (the paper's 2x-5x).
    speed_ratio: float = 2.0
    #: Shape of the per-layer latency curve; see VALID_PROFILES.
    latency_profile: str = "linear"
    #: How strongly program latency follows the per-layer read asymmetry:
    #: 0.0 = constant program time (reads sensing-limited are layer
    #: dependent, programs ISPP-loop-limited are not — the only model
    #: consistent with the paper's "0.0001%" write-latency parity),
    #: 1.0 = programs scale with the full read multiplier.
    program_asymmetry: float = 0.0
    #: Fraction of physical pages reserved as over-provisioning.
    op_ratio: float = 0.07

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size % 512:
            raise ConfigError(f"page_size must be a positive multiple of 512, got {self.page_size}")
        if self.pages_per_block <= 1:
            raise ConfigError(f"pages_per_block must be > 1, got {self.pages_per_block}")
        if self.blocks_per_chip <= 1:
            raise ConfigError(f"blocks_per_chip must be > 1, got {self.blocks_per_chip}")
        if self.num_chips < 1:
            raise ConfigError(f"num_chips must be >= 1, got {self.num_chips}")
        if self.num_channels < 1:
            raise ConfigError(f"num_channels must be >= 1, got {self.num_channels}")
        if self.num_chips % self.num_channels:
            raise ConfigError(
                f"num_channels ({self.num_channels}) must divide num_chips "
                f"({self.num_chips}) so channels serve equal chip counts"
            )
        if self.planes_per_chip < 1:
            raise ConfigError(
                f"planes_per_chip must be >= 1, got {self.planes_per_chip}"
            )
        if self.blocks_per_chip % self.planes_per_chip:
            raise ConfigError(
                f"planes_per_chip ({self.planes_per_chip}) must divide "
                f"blocks_per_chip ({self.blocks_per_chip}) so planes hold "
                f"equal block counts"
            )
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.num_layers > self.pages_per_block:
            raise ConfigError(
                f"num_layers ({self.num_layers}) cannot exceed pages_per_block "
                f"({self.pages_per_block}): each layer holds at least one page"
            )
        if self.speed_ratio < 1.0:
            raise ConfigError(f"speed_ratio must be >= 1.0, got {self.speed_ratio}")
        if self.latency_profile not in VALID_PROFILES:
            raise ConfigError(
                f"latency_profile must be one of {VALID_PROFILES}, got {self.latency_profile!r}"
            )
        if not 0.0 <= self.op_ratio < 0.5:
            raise ConfigError(f"op_ratio must be in [0, 0.5), got {self.op_ratio}")
        if not 0.0 <= self.program_asymmetry <= 1.0:
            raise ConfigError(
                f"program_asymmetry must be in [0, 1], got {self.program_asymmetry}"
            )
        for name in ("read_us", "program_us", "erase_us", "transfer_mb_per_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------

    @property
    def total_blocks(self) -> int:
        """Physical blocks across all chips."""
        return self.blocks_per_chip * self.num_chips

    @property
    def total_pages(self) -> int:
        """Physical pages across all chips."""
        return self.total_blocks * self.pages_per_block

    @property
    def physical_bytes(self) -> int:
        """Raw capacity in bytes."""
        return self.total_pages * self.page_size

    @property
    def logical_pages(self) -> int:
        """Host-visible pages after subtracting over-provisioning."""
        return int(self.total_pages * (1.0 - self.op_ratio))

    @property
    def logical_bytes(self) -> int:
        """Host-visible capacity in bytes."""
        return self.logical_pages * self.page_size

    @property
    def full_map_entries(self) -> int:
        """Entries a dense in-RAM page map would allocate (l2p + p2l);
        what :data:`repro.ftl.mapping.FULL_MAP_MAX_ENTRIES` bounds."""
        return self.logical_pages + self.total_pages

    @property
    def blocks_per_plane(self) -> int:
        """Blocks each plane of a chip holds.

        Block ``b`` of a chip sits on plane ``b % planes_per_chip``
        (see :attr:`planes_per_chip`).
        """
        return self.blocks_per_chip // self.planes_per_chip

    def layer_of_page(self, page_index: int) -> int:
        """Map a page index inside a block to its gate stack layer.

        Page 0 sits at the *top* layer (widest channel opening, slowest)
        and the last page at the *bottom* layer (narrowest, fastest),
        consistent with the in-order programming direction used by the
        paper's virtual-block lifecycle.
        """
        if not 0 <= page_index < self.pages_per_block:
            raise ConfigError(
                f"page_index {page_index} out of range [0, {self.pages_per_block})"
            )
        layer = page_index * self.num_layers // self.pages_per_block
        return min(layer, self.num_layers - 1)

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------

    def transfer_us(self, nbytes: int | None = None) -> float:
        """Bus transfer time in microseconds for ``nbytes`` (default: one page)."""
        if nbytes is None:
            nbytes = self.page_size
        return nbytes / (self.transfer_mb_per_s * _MB) * 1e6

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def replace(self, **changes: object) -> "NandSpec":
        """Return a copy of the spec with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """Human-readable multi-line summary (mirrors Table 1)."""
        return "\n".join(
            [
                f"Flash size           {self.physical_bytes / 2**30:.2f} GiB "
                f"({self.logical_bytes / 2**30:.2f} GiB logical)",
                f"Page size            {self.page_size // 1024} KiB",
                f"Pages per block      {self.pages_per_block}",
                f"Gate stack layers    {self.num_layers}",
                f"Page write latency   {self.program_us:.0f} us (fastest page)",
                f"Page read latency    {self.read_us:.0f} us (fastest page)",
                f"Data transfer rate   {self.transfer_mb_per_s:.0f} MB/s",
                f"Block erase time     {self.erase_us / 1000:.0f} ms",
                f"Speed difference     {self.speed_ratio:.1f}x ({self.latency_profile})",
            ]
            + (
                [f"Chips / channels     {self.num_chips} / {self.num_channels}"]
                if self.num_chips > 1 or self.num_channels > 1
                else []
            )
            + (
                [f"Planes per chip      {self.planes_per_chip}"]
                if self.planes_per_chip > 1
                else []
            )
        )


def table1_spec(**overrides: object) -> NandSpec:
    """The paper's Table 1 device: 64 GB, 16 KB pages, 384 pages/block.

    64 GiB / (16 KiB * 384) = 10922.67 blocks; we round down to 10922.
    """
    spec = NandSpec(
        page_size=16 * 1024,
        pages_per_block=384,
        blocks_per_chip=10922,
        num_chips=1,
        num_layers=64,
        read_us=49.0,
        program_us=600.0,
        erase_us=4000.0,
        transfer_mb_per_s=533.0,
    )
    return spec.replace(**overrides) if overrides else spec


def sim_spec(**overrides: object) -> NandSpec:
    """A proportionally scaled device for trace-driven simulation.

    Keeps every per-page/per-block parameter of Table 1 and shrinks only
    the block count, so relative results (PPB vs conventional) transfer.
    Default: 256 blocks * 384 pages * 16 KiB = 1.5 GiB raw.
    """
    spec = NandSpec(blocks_per_chip=256)
    return spec.replace(**overrides) if overrides else spec


def tiny_spec(**overrides: object) -> NandSpec:
    """A miniature device for fast unit tests (64 blocks of 16 pages)."""
    spec = NandSpec(
        page_size=2048,
        pages_per_block=16,
        blocks_per_chip=64,
        num_layers=8,
        op_ratio=0.125,
    )
    return spec.replace(**overrides) if overrides else spec
