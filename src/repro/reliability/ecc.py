"""ECC and read-retry: turning RBER into latency.

A NAND controller's ECC corrects codewords whose raw bit error rate is
below a correction limit.  When a read fails decoding, the controller
*re-senses* the page with shifted read reference voltages (a read-retry
step); each step recenters the sensing window and effectively raises
the RBER the decoder can survive, at the cost of one more array read +
transfer.  Past the retry budget the read is uncorrectable and escalates
to slow driver-level recovery (e.g. superpage RAID rebuild).

This module is the pure arithmetic: RBER in, retry-step count and
uncorrectable flag out.  The latency of a retry step is the page's own
asymmetric read latency, computed by
:meth:`repro.nand.latency.LatencyModel.retry_read_us`, so retries on
fast (bottom-layer) pages cost less than on slow pages — coupling the
paper's latency asymmetry into the reliability model.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


class EccModel:
    """Read-retry step count as a function of instantaneous RBER.

    Parameters
    ----------
    rber_limit:
        Highest RBER the decoder corrects with zero retries.
    retry_gain:
        Multiplicative improvement of the tolerable RBER per retry step
        (> 1).  ``k`` steps tolerate ``rber_limit * retry_gain ** k``.
    max_retries:
        Retry budget; an RBER beyond the budget's reach is an
        uncorrectable read.
    """

    def __init__(
        self,
        rber_limit: float = 1e-3,
        retry_gain: float = 2.0,
        max_retries: int = 8,
    ) -> None:
        if rber_limit <= 0:
            raise ConfigError(f"rber_limit must be positive, got {rber_limit}")
        if retry_gain <= 1.0:
            raise ConfigError(f"retry_gain must be > 1, got {retry_gain}")
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        self.rber_limit = float(rber_limit)
        self.retry_gain = float(retry_gain)
        self.max_retries = int(max_retries)

    # ------------------------------------------------------------------

    def retries_needed(self, rber: float) -> tuple[int, bool]:
        """Retry steps to decode at ``rber``; ``(steps, uncorrectable)``.

        Steps are capped at :attr:`max_retries`; when even the full
        budget cannot reach ``rber`` the read is uncorrectable (the
        controller still burns the whole budget discovering that).
        """
        if rber <= self.rber_limit:
            return 0, False
        steps = math.ceil(math.log(rber / self.rber_limit) / math.log(self.retry_gain))
        if steps > self.max_retries:
            return self.max_retries, True
        return steps, False

    def describe(self) -> str:
        """One-line summary for logs."""
        return (
            f"EccModel(limit={self.rber_limit:.1e}, gain={self.retry_gain:.1f}x, "
            f"budget={self.max_retries})"
        )
