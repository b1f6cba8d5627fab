"""Periodic scrubbing of a running cluster (the BlockFixer's quieter twin).

Production HDFS runs a background *block scanner* on every DataNode
that re-reads stored blocks and verifies their checksums on a rolling
schedule; hits are reported and repaired like lost blocks.  This daemon
brings that loop into the simulated cluster: on a fixed period it scans
every payload-carrying stripe through the
:class:`~repro.cluster.scrubengine.ScrubEngine`, heals in place, and charges
the heal's block reads to the cluster metrics at the stripe's block
size — so scrub traffic shows up in the same Figure 5-style accounting
as repair traffic, with the same RS-vs-LRC economics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .integrity import ScrubReport
from .scrubengine import ScrubEngine

if TYPE_CHECKING:
    from .hdfs import HadoopCluster

__all__ = ["ScrubberDaemon"]


class ScrubberDaemon:
    """Scan-and-heal on a simulated timer.

    Parameters
    ----------
    cluster:
        The running :class:`HadoopCluster`; its files' stripes are
        scanned in creation order.
    scan_interval:
        Seconds of simulated time between full scans (production
        scanners take weeks per full pass; experiments shrink this).
    """

    #: The scan-and-heal implementation (``with_specs("scrubber")`` rebinds it).
    make_scanner = ScrubEngine

    def __init__(self, cluster: "HadoopCluster", scan_interval: float = 3600.0):
        if scan_interval <= 0:
            raise ValueError("scan_interval must be positive")
        self.cluster = cluster
        self.scan_interval = scan_interval
        self._scanner = self.make_scanner()
        self.reports: list[ScrubReport] = []
        self._started = False

    # -- bookkeeping ---------------------------------------------------------

    def record_checksums(self) -> int:
        """Snapshot every stored block of every payload-carrying stripe.

        Call after files are created and RAIDed (the write path).
        Returns the number of blocks recorded.
        """
        return sum(self._scanner.record_stripe(s) for s in self._stripes())

    def _stripes(self):
        for stored in self.cluster.files.values():
            for stripe in stored.stripes:
                if stripe.payload is not None:
                    yield stripe

    # -- the scan loop ---------------------------------------------------------

    #: Stable event name for the scan timer (checkpoint/restore contract).
    WAKEUP = "scrubber.scan"

    def start(self) -> None:
        if self._started:
            raise RuntimeError("scrubber daemon already started")
        self._started = True
        self.cluster.sim.register_callback(self.WAKEUP, self._scan)
        self.cluster.sim.schedule_named(self.scan_interval, self.WAKEUP)

    def _scan(self) -> None:
        report = self.scan_once()
        self.reports.append(report)
        self.cluster.sim.schedule_named(self.scan_interval, self.WAKEUP)

    # -- checkpoint/restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Durable daemon state as plain data (see repro.recovery).

        The scrub snapshots rebuild deterministically from the cluster's
        stripes via :meth:`record_checksums`, so only the scan history
        and lifecycle flag need to survive.
        """
        return {"started": self._started, "reports": list(self.reports)}

    def restore_state(self, state: dict) -> None:
        self._started = state["started"]
        self.reports = list(state["reports"])
        self.cluster.sim.register_callback(self.WAKEUP, self._scan)

    def scan_once(self) -> ScrubReport:
        """One full pass over all stripes, healing as it goes."""
        report = self._scanner.scrub(list(self._stripes()))
        if report.blocks_read_for_heal:
            self._charge_reads(report)
        return report

    def _charge_reads(self, report: ScrubReport) -> None:
        """Account heal reads as HDFS bytes read at block granularity.

        All heals of one scan share the scan instant; the byte volume
        is the healed blocks' source reads at the configured block size.
        """
        total = report.blocks_read_for_heal * self.cluster.config.block_size
        self.cluster.metrics.hdfs_bytes_read += total
        self.cluster.metrics.disk_series.add_point(self.cluster.sim.now, total)

    # -- summaries ---------------------------------------------------------------

    @property
    def total_healed(self) -> int:
        return sum(len(r.healed_blocks) for r in self.reports)

    @property
    def total_blocks_read(self) -> int:
        return sum(r.blocks_read_for_heal for r in self.reports)
