"""Discrete-event simulation of the HDFS-RAID / HDFS-Xorbas storage stack.

This package is the substrate standing in for the paper's Amazon EC2 and
Facebook test clusters (Section 5): DataNodes and a NameNode, a
flow-level network with max-min fair sharing, a MapReduce JobTracker with
Hadoop's FairScheduler, the RaidNode encoder and the BlockFixer repair
daemon with light/heavy decoders, plus failure injection and metric
collection at the paper's 5-minute monitoring resolution.
"""

from .blockindex import BlockIndex, RepairQueueEntry
from .blocks import BlockId, StoredFile, Stripe
from .blockfixer import BlockFixer, LightRepairTask, StripeRepairTask
from .config import ClusterConfig, ec2_config, facebook_config
from .decommission import DecommissionManager, RecreateBlockTask
from .degraded import DegradedReadConfig, ReadServiceStats, draw_placement
from .readservice import (
    OutageWindows,
    ReadSchedule,
    ReadServiceEngine,
)
from .failures import (
    EC2_FAILURE_PATTERN,
    FailureInjector,
    FailureTraceGenerator,
    trace_summary,
)
from .hdfs import DataLossError, HadoopCluster
from .integrity import (
    ChecksumRegistry,
    CorruptionInjector,
    ScrubReport,
)
from .mapreduce import JobTracker, MapReduceJob, Task
from .metrics import FailureEventRecord, MetricsCollector, TimeSeries
from .namenode import DataNode, NameNode, PlacementError
from .flownet import FlowHandle, FlowTable
from .raidnode import EncodeStripeTask, RaidNode
from .scrubber_daemon import ScrubberDaemon
from .sim import Event, Simulation
from .workload import DegradedReadStats, WordCountTask, make_wordcount_job

__all__ = [
    "BlockIndex",
    "RepairQueueEntry",
    "BlockId",
    "StoredFile",
    "Stripe",
    "BlockFixer",
    "LightRepairTask",
    "StripeRepairTask",
    "ClusterConfig",
    "ec2_config",
    "facebook_config",
    "DecommissionManager",
    "RecreateBlockTask",
    "DegradedReadConfig",
    "ReadServiceStats",
    "draw_placement",
    "OutageWindows",
    "ReadSchedule",
    "ReadServiceEngine",
    "EC2_FAILURE_PATTERN",
    "FailureInjector",
    "FailureTraceGenerator",
    "trace_summary",
    "DataLossError",
    "HadoopCluster",
    "ChecksumRegistry",
    "CorruptionInjector",
    "ScrubReport",
    "JobTracker",
    "MapReduceJob",
    "Task",
    "FailureEventRecord",
    "MetricsCollector",
    "TimeSeries",
    "DataNode",
    "NameNode",
    "PlacementError",
    "FlowHandle",
    "FlowTable",
    "EncodeStripeTask",
    "RaidNode",
    "ScrubberDaemon",
    "Event",
    "Simulation",
    "DegradedReadStats",
    "WordCountTask",
    "make_wordcount_job",
]
