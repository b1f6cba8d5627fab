"""The per-block CRC scrubber: the slab-scan ``ScrubEngine``'s oracle."""

from __future__ import annotations

from repro.cluster.blocks import Stripe
from repro.cluster.integrity import ChecksumRegistry, ScrubReport, heal_stripe

__all__ = ["Scrubber"]


class Scrubber:
    """Scan payload-carrying stripes and heal corrupted blocks in place.

    The executable spec of the scrubber pair: detection is per-block
    CRC32 verification against its own :class:`ChecksumRegistry` (healing
    is the shared :func:`heal_stripe` loop).  The vectorized counterpart
    is :class:`~repro.cluster.scrubengine.ScrubEngine`.
    """

    def __init__(self) -> None:
        self.registry = ChecksumRegistry()

    def scrub_stripe(self, stripe: Stripe, report: ScrubReport) -> None:
        report.stripes_scanned += 1
        corrupt = self.registry.scan_stripe(stripe)
        if not corrupt:
            return
        heal_stripe(stripe, corrupt, report, self.registry.refresh)

    def scrub(self, stripes: list[Stripe]) -> ScrubReport:
        report = ScrubReport()
        for stripe in stripes:
            if stripe.payload is not None:
                self.scrub_stripe(stripe, report)
        return report

    def record_stripe(self, stripe: Stripe) -> int:
        """Checksum every stored position (the ``ScrubEngine`` surface)."""
        return self.registry.record_stripe(stripe)
