"""Tapered vertical-channel physics behind the asymmetric access speed.

Background (paper Section 2.1): vertical channels of 3D charge-trap NAND
are created by chemically eroding the gate stack.  The etchant acts
longer at the top, so the channel opening is wider at the top layer and
narrower at the bottom.  A narrower opening concentrates the electric
field around the cylindrical charge trap (the paper's ref [9], Lee et
al., "field concentration effects in arch gate SONOS"), so cells at the
bottom of the channel program and read *faster* than cells at the top.

This module turns that mechanism into numbers: a linear taper of the
channel radius across layers and a power-law mapping from the local
field-enhancement factor to an access-latency multiplier, calibrated so
the top layer is exactly ``speed_ratio`` times slower than the bottom
layer — the quantity the paper sweeps from 2x to 5x.

The result feeds :mod:`repro.nand.latency` as the ``physical`` profile.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError


class TaperedChannelModel:
    """Latency multipliers derived from a tapered cylindrical channel.

    Parameters
    ----------
    num_layers:
        Number of gate stack layers the channel crosses.
    speed_ratio:
        Desired latency ratio between the slowest (top) and fastest
        (bottom) layer; the exponent is calibrated to hit it exactly.
    top_radius_nm / bottom_radius_nm:
        Channel opening radii at the top and bottom layers.  Typical
        BiCS/TCAT values are ~120 nm tapering to ~60 nm.
    """

    def __init__(
        self,
        num_layers: int,
        speed_ratio: float,
        top_radius_nm: float = 120.0,
        bottom_radius_nm: float = 60.0,
    ) -> None:
        if num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {num_layers}")
        if speed_ratio < 1.0:
            raise ConfigError(f"speed_ratio must be >= 1.0, got {speed_ratio}")
        if bottom_radius_nm <= 0 or top_radius_nm < bottom_radius_nm:
            raise ConfigError(
                "need top_radius_nm >= bottom_radius_nm > 0, got "
                f"top={top_radius_nm}, bottom={bottom_radius_nm}"
            )
        self.num_layers = num_layers
        self.speed_ratio = float(speed_ratio)
        self.top_radius_nm = float(top_radius_nm)
        self.bottom_radius_nm = float(bottom_radius_nm)
        # Calibrate the field->latency exponent so that
        # (r_top / r_bottom) ** alpha == speed_ratio.
        ratio = self.top_radius_nm / self.bottom_radius_nm
        if ratio == 1.0 or self.speed_ratio == 1.0:
            self._alpha = 0.0
        else:
            self._alpha = math.log(self.speed_ratio) / math.log(ratio)

    # ------------------------------------------------------------------

    def depth_of_layer(self, layer: int) -> float:
        """Normalized channel depth of a layer: 0.0 = top, 1.0 = bottom."""
        if not 0 <= layer < self.num_layers:
            raise ConfigError(f"layer {layer} out of range [0, {self.num_layers})")
        if self.num_layers == 1:
            return 1.0
        return layer / (self.num_layers - 1)

    def radius_nm(self, layer: int) -> float:
        """Channel opening radius at a layer (linear taper, paper Fig. 2)."""
        d = self.depth_of_layer(layer)
        return self.top_radius_nm - (self.top_radius_nm - self.bottom_radius_nm) * d

    def field_enhancement(self, layer: int) -> float:
        """Relative electric-field strength at a layer (bottom layer = max).

        For a cylindrical charge trap the field at the tunnel oxide scales
        inversely with the channel radius (Gauss's law on a cylinder), so
        the enhancement factor relative to the bottom layer is
        ``r_bottom / r(layer)``.
        """
        return self.bottom_radius_nm / self.radius_nm(layer)

    def latency_multiplier(self, layer: int) -> float:
        """Access-latency multiplier at a layer (bottom = 1.0, top = speed_ratio).

        The stronger the local field, the faster program/read completes;
        we map the radius ratio through the calibrated power law so the
        endpoints match the requested speed ratio exactly.
        """
        return (self.radius_nm(layer) / self.bottom_radius_nm) ** self._alpha

    def multipliers(self) -> np.ndarray:
        """Per-layer latency multipliers, index 0 = top (slowest)."""
        return np.array(
            [self.latency_multiplier(layer) for layer in range(self.num_layers)],
            dtype=np.float64,
        )

    def describe(self) -> str:
        """One-line summary for logs."""
        return (
            f"TaperedChannelModel(layers={self.num_layers}, "
            f"r_top={self.top_radius_nm:.0f}nm, r_bottom={self.bottom_radius_nm:.0f}nm, "
            f"speed_ratio={self.speed_ratio:.1f}x, alpha={self._alpha:.3f})"
        )
