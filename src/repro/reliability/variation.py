"""Process-variation model: where on the die errors concentrate.

Two spatial components multiply into a per-page RBER factor:

* **Layer variation** — the channel-radius taper of
  :class:`~repro.nand.physics.TaperedChannelModel`.  A narrower channel
  opening concentrates the electric field on the tunnel oxide, which is
  what makes bottom-layer cells *fast*; the same field accelerates
  oxide stress and charge leakage, so bottom layers also carry a higher
  raw bit error rate.  We map the relative field enhancement through a
  power law, normalized so the *bottom* (fastest, most stressed) layer
  has multiplier 1.0 and the nominal ``base_rber`` is a bottom-layer
  quantity.
* **Block variation** — lithographic/etch process variation between
  blocks, modeled as a median-1 lognormal multiplier per physical
  block (Luo et al. observe order-of-magnitude block-to-block RBER
  spread in real 3D NAND).

The ``uniform`` profile is the null model the acceptance tests lean
on: every multiplier is exactly 1.0, so enabling the reliability stack
with it (and a zero base RBER) reproduces latency-only results bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nand.physics import TaperedChannelModel
from repro.nand.spec import NandSpec

#: Accepted spatial-variation profile names.
VARIATION_PROFILES = ("tapered", "uniform")


class VariationModel:
    """Per-page RBER multipliers for one device.

    Parameters
    ----------
    spec:
        Device geometry (layer map, block count).
    profile:
        ``"tapered"`` for the physics-derived layer curve plus lognormal
        block spread, ``"uniform"`` for the all-ones null model.
    layer_exponent:
        Power applied to the relative field enhancement; 0 flattens the
        layer curve, larger values steepen it.
    block_sigma:
        Sigma of the lognormal block-to-block multiplier (median 1.0).
        0 disables block variation.
    seed:
        Seed for the block multiplier draw (deterministic per device).
    """

    def __init__(
        self,
        spec: NandSpec,
        profile: str = "tapered",
        layer_exponent: float = 2.0,
        block_sigma: float = 0.25,
        seed: int = 42,
    ) -> None:
        if profile not in VARIATION_PROFILES:
            raise ConfigError(
                f"variation profile must be one of {VARIATION_PROFILES}, got {profile!r}"
            )
        if layer_exponent < 0:
            raise ConfigError(f"layer_exponent must be >= 0, got {layer_exponent}")
        if block_sigma < 0:
            raise ConfigError(f"block_sigma must be >= 0, got {block_sigma}")
        self.spec = spec
        self.profile = profile
        self.layer_exponent = float(layer_exponent)
        self.block_sigma = float(block_sigma)
        self.seed = seed
        if profile == "uniform":
            layer_mult = np.ones(spec.num_layers)
            self.block_multipliers = np.ones(spec.total_blocks)
        else:
            taper = TaperedChannelModel(spec.num_layers, spec.speed_ratio)
            # field_enhancement is 1.0 at the bottom layer and < 1 above
            # it, so the bottom (fastest) layer is the RBER reference.
            layer_mult = np.array(
                [
                    taper.field_enhancement(layer) ** self.layer_exponent
                    for layer in range(spec.num_layers)
                ]
            )
            rng = np.random.default_rng(seed)
            self.block_multipliers = np.exp(
                rng.normal(0.0, block_sigma, size=spec.total_blocks)
            )
        #: per-layer RBER multiplier, index 0 = top layer.
        self.layer_multipliers: np.ndarray = layer_mult
        layer_of_page = np.fromiter(
            (spec.layer_of_page(p) for p in range(spec.pages_per_block)),
            dtype=np.int64,
            count=spec.pages_per_block,
        )
        #: per-page-index RBER multiplier (layer component only).
        self.page_multipliers: np.ndarray = layer_mult[layer_of_page]

    # ------------------------------------------------------------------

    def multiplier(self, pbn: int, page_index: int) -> float:
        """Combined spatial RBER multiplier for one physical page."""
        return float(self.block_multipliers[pbn] * self.page_multipliers[page_index])

    def describe(self) -> str:
        """One-line summary for logs."""
        return (
            f"VariationModel(profile={self.profile}, "
            f"layer_exp={self.layer_exponent:.1f}, block_sigma={self.block_sigma:.2f}, "
            f"layer_span={self.layer_multipliers.min():.3f}..{self.layer_multipliers.max():.3f})"
        )
