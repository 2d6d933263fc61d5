"""Per-page asymmetric latency model.

The paper's central hardware observation: pages within one block have
different access speeds because each page index maps to a gate stack
layer, and layer depth determines the channel opening (feature process
size).  Page 0 sits at the top layer (slowest); the last page sits at
the bottom (fastest) — "the last page of one block could be much faster
than the first page" (Section 1).

Profiles
--------
``linear``
    Multiplier falls linearly from ``speed_ratio`` (top layer) to 1.0
    (bottom layer).  Default, matches the paper's 2x-5x sweeps.
``geometric``
    Multiplier is ``speed_ratio ** (1 - depth)`` — latency halves every
    fixed number of layers, a plausible alternative shape.
``physical``
    Derived from :class:`repro.nand.physics.TaperedChannelModel` — a
    linear *radius* taper pushed through the field-concentration power
    law.  Endpoints still hit ``speed_ratio`` exactly.
``uniform``
    Every page costs the *mean* of the linear profile.  This is the
    symmetric null device: PPB can gain nothing on it, which the test
    suite uses as a sanity check.

All profiles preserve the mean-preserving comparison: the conventional
FTL and PPB replay the same trace on the same asymmetric device; PPB
wins only by *placing* hot data on fast pages.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nand.physics import TaperedChannelModel
from repro.nand.spec import NandSpec

#: Public tuple of profile names, re-exported by :mod:`repro.nand`.
LATENCY_PROFILES = ("linear", "geometric", "physical", "uniform")


def _layer_multipliers(spec: NandSpec) -> np.ndarray:
    """Per-layer latency multipliers for the spec's profile (index 0 = top)."""
    layers = spec.num_layers
    ratio = spec.speed_ratio
    if layers == 1:
        depth = np.array([1.0])
    else:
        depth = np.arange(layers, dtype=np.float64) / (layers - 1)
    if spec.latency_profile == "linear":
        return ratio - (ratio - 1.0) * depth
    if spec.latency_profile == "geometric":
        return ratio ** (1.0 - depth)
    if spec.latency_profile == "physical":
        return TaperedChannelModel(layers, ratio).multipliers()
    if spec.latency_profile == "uniform":
        linear = ratio - (ratio - 1.0) * depth
        return np.full(layers, float(np.mean(linear)))
    raise ConfigError(f"unknown latency profile {spec.latency_profile!r}")


class LatencyModel:
    """Precomputed per-page-index latencies for one device spec.

    The multiplier array is indexed by the page index *within a block*
    (0 .. pages_per_block-1); pages sharing a gate stack layer share a
    multiplier.  Read and program latencies both scale with the layer's
    multiplier, since both are driven by the same field strength.
    """

    def __init__(self, spec: NandSpec) -> None:
        self.spec = spec
        per_layer = _layer_multipliers(spec)
        pages = spec.pages_per_block
        layer_of_page = np.fromiter(
            (spec.layer_of_page(p) for p in range(pages)), dtype=np.int64, count=pages
        )
        #: latency multiplier per page index inside a block (slow -> fast).
        self.multipliers: np.ndarray = per_layer[layer_of_page]
        #: array read latency (us) per page index.
        self.read_us_by_page: np.ndarray = spec.read_us * self.multipliers
        #: program latency (us) per page index.  Programs follow the
        #: layer asymmetry only to the configured degree (default: not
        #: at all; see NandSpec.program_asymmetry).
        program_multipliers = 1.0 + (self.multipliers - 1.0) * spec.program_asymmetry
        self.program_us_by_page: np.ndarray = spec.program_us * program_multipliers
        self._page_transfer_us = spec.transfer_us(spec.page_size)
        # Flat per-page-index lookup tables for the replay hot path:
        # plain Python floats, with and without the bus transfer, built
        # from exactly the sums the scalar queries used to compute (so
        # per-op results are bit-identical, minus the numpy scalar
        # boxing that dominated the old per-read cost).
        transfer = self._page_transfer_us
        #: array-read latency per page index (no transfer), plain floats.
        self.read_array_us: list[float] = [float(t) for t in self.read_us_by_page]
        #: full read latency per page index (array + transfer).
        self.read_total_us: list[float] = [
            float(t + transfer) for t in self.read_us_by_page
        ]
        self.program_array_us: list[float] = [
            float(t) for t in self.program_us_by_page
        ]
        self.program_total_us: list[float] = [
            float(t + transfer) for t in self.program_us_by_page
        ]
        #: cost of ONE ECC retry step per page index (array read + transfer).
        self.retry_step_us: list[float] = [
            float(t) + transfer for t in self.read_us_by_page
        ]

    # ------------------------------------------------------------------
    # Scalar queries (hot path: called once per simulated page op)
    # ------------------------------------------------------------------

    def retry_read_us(self, page_index: int, steps: int) -> float:
        """Extra latency of ``steps`` ECC read-retry attempts on a page.

        Each retry step re-senses the array with shifted read reference
        voltages and re-transfers the page for another decode attempt,
        so a step costs the page's own asymmetric array read plus one
        bus transfer — retries on fast (bottom-layer) pages are cheaper
        than on slow ones, coupling the paper's latency asymmetry into
        the reliability model of :mod:`repro.reliability`.
        """
        if steps <= 0:
            return 0.0
        return steps * self.retry_step_us[page_index]

    def erase_us(self) -> float:
        """Block erase latency (layer-independent)."""
        return self.spec.erase_us

    def transfer_us(self, nbytes: int | None = None) -> float:
        """Bus transfer time for ``nbytes`` (default one page)."""
        if nbytes is None:
            return self._page_transfer_us
        return self.spec.transfer_us(nbytes)

    # ------------------------------------------------------------------
    # Aggregate / analysis helpers
    # ------------------------------------------------------------------

    def fastest_page_read_us(self) -> float:
        """Array read latency of the fastest (bottom-layer) page."""
        return float(self.read_us_by_page.min())

    def slowest_page_read_us(self) -> float:
        """Array read latency of the slowest (top-layer) page."""
        return float(self.read_us_by_page.max())

    def speed_class(self, page_index: int, num_classes: int) -> int:
        """Which of ``num_classes`` equal-size speed groups a page falls in.

        Class 0 is the slowest group (first pages, top layers); class
        ``num_classes - 1`` is the fastest.  This is exactly how virtual
        blocks carve a physical block: with ``num_classes=2`` the paper's
        VB 2n (slow half) is class 0 and VB 2n+1 (fast half) is class 1.
        """
        if num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {num_classes}")
        pages = self.spec.pages_per_block
        if not 0 <= page_index < pages:
            raise ConfigError(f"page_index {page_index} out of range [0, {pages})")
        return page_index * num_classes // pages
