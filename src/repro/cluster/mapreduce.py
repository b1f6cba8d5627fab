"""MapReduce job execution: JobTracker, slots, FairScheduler.

Repair jobs in HDFS-RAID are "not typical MR jobs" but run under the
same control mechanism alongside regular workload jobs (Section 3), which
is exactly what Figure 7 exercises: word-count jobs and repair traffic
sharing the cluster's task slots under Hadoop's FairScheduler.

The model: every node offers ``map_slots_per_node`` slots; the tracker
assigns pending tasks at heartbeat granularity; the FairScheduler picks
the job whose running-task count is furthest below its fair share
(weighted, ties to earliest submission, then to the lower job id).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .hdfs import HadoopCluster

__all__ = ["Task", "MapReduceJob", "JobTracker"]


class Task:
    """One map task.  Subclasses implement :meth:`execute`.

    Lifecycle: pending -> running (on a node) -> done/failed.  A failed
    task (executor died) is re-queued by the JobTracker, as Hadoop's
    speculative re-execution would.
    """

    def __init__(self, preferred_node: str | None = None):
        self.preferred_node = preferred_node
        self.job: MapReduceJob | None = None
        self.executor: str | None = None
        self.attempts = 0
        self.done = False

    def execute(self, cluster: "HadoopCluster", node_id: str, finish: Callable[[bool], None]) -> None:
        """Run on ``node_id``; call ``finish(success)`` exactly once."""
        raise NotImplementedError


class MapReduceJob:
    """A bag of tasks plus completion bookkeeping."""

    def __init__(
        self,
        name: str,
        tasks: list[Task],
        on_complete: Callable[["MapReduceJob"], None] | None = None,
        weight: float = 1.0,
    ):
        if weight <= 0:
            raise ValueError("job weight must be positive")
        #: Submission number within its JobTracker (set by ``submit``):
        #: the FairScheduler's final tie-break.
        self.job_id: int | None = None
        self.name = name
        self.tasks = list(tasks)
        for task in self.tasks:
            task.job = self
        self.pending: deque[Task] = deque(self.tasks)
        #: Pending tasks per preferred node: a node no pending task
        #: prefers skips the locality scan.
        self._pending_local: dict[str | None, int] = {}
        for task in self.tasks:
            self._count_pending(task.preferred_node, 1)
        self.running: set[Task] = set()
        self.completed = 0
        self.failed_attempts = 0
        self.on_complete = on_complete
        self.weight = weight
        self.submit_time: float | None = None
        self.ready_time: float | None = None
        self.start_time: float | None = None
        self.finish_time: float | None = None

    @property
    def total_tasks(self) -> int:
        return len(self.tasks)

    @property
    def is_finished(self) -> bool:
        return self.completed == self.total_tasks

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    def _count_pending(self, node_id: str | None, delta: int) -> None:
        counts = self._pending_local
        counts[node_id] = counts.get(node_id, 0) + delta

    def take_task(self, node_id: str) -> Task | None:
        """Pop a pending task, preferring data-local ones for the node.

        The queue rotates to the first task local to the node; with none
        pending the full rotation would be the identity, so the head is
        taken directly.
        """
        pending = self.pending
        if not pending:
            return None
        if self._pending_local.get(node_id):
            for _ in range(len(pending)):
                if pending[0].preferred_node == node_id:
                    break
                pending.rotate(-1)
        task = pending.popleft()
        self._count_pending(task.preferred_node, -1)
        return task

    def requeue(self, task: Task) -> None:
        """Put a failed attempt back at the tail of the pending queue."""
        self.pending.append(task)
        self._count_pending(task.preferred_node, 1)

    @property
    def elapsed(self) -> float:
        if self.submit_time is None or self.finish_time is None:
            raise RuntimeError(f"job {self.name} has not finished")
        return self.finish_time - self.submit_time


class JobTracker:
    """Slot accounting + FairScheduler assignment at heartbeat cadence."""

    def __init__(self, cluster: "HadoopCluster"):
        self.cluster = cluster
        config = cluster.config
        self.slots_free: dict[str, int] = {
            node_id: config.map_slots_per_node for node_id in cluster.namenode.nodes
        }
        self.jobs: list[MapReduceJob] = []
        self.heartbeat = config.heartbeat_interval
        self._pass_scheduled = False

    # -- submission ---------------------------------------------------------

    def submit(self, job: MapReduceJob) -> MapReduceJob:
        sim = self.cluster.sim
        job.submit_time = sim.now
        self.jobs.append(job)
        job.job_id = len(self.jobs)
        if not job.tasks:
            job.ready_time = job.finish_time = sim.now
            if job.on_complete is not None:
                sim.schedule(0.0, lambda: job.on_complete(job))
            return job
        startup = self.cluster.config.job_startup

        def become_ready() -> None:
            job.ready_time = sim.now
            self._request_pass()

        sim.schedule(startup, become_ready)
        return job

    # -- scheduling ---------------------------------------------------------

    def _request_pass(self) -> None:
        if self._pass_scheduled:
            return
        self._pass_scheduled = True
        self.cluster.sim.schedule(self.heartbeat, self._assignment_pass)

    def _schedulable_jobs(self) -> list[MapReduceJob]:
        return [
            job for job in self.jobs if job.ready_time is not None and job.has_pending
        ]

    def _assignment_pass(self) -> None:
        self._pass_scheduled = False
        namenode = self.cluster.namenode
        assigned_any = False
        # Free slots in deterministic node order (the seed's iteration
        # order), one entry per node with its free count.
        slots = [
            (node_id, free)
            for node_id, free in sorted(self.slots_free.items())
            if free > 0 and namenode.nodes[node_id].alive
        ]
        candidates = self._schedulable_jobs()
        # Each free slot, in node order, goes to the job furthest below its
        # fair share; locality only decides which task the job hands the node.
        for node_id in (node_id for node_id, free in slots for _ in range(free)):
            if not candidates:
                break
            job = min(
                candidates,
                key=lambda j: (len(j.running) / j.weight, j.submit_time, j.job_id),
            )
            self._launch(job, job.take_task(node_id), node_id)
            assigned_any = True
            if not job.has_pending:
                candidates.remove(job)
        if assigned_any or self._schedulable_jobs():
            self._request_pass()

    def _launch(self, job: MapReduceJob, task: Task, node_id: str) -> None:
        sim = self.cluster.sim
        self.slots_free[node_id] -= 1
        job.running.add(task)
        if job.start_time is None:
            job.start_time = sim.now
        task.executor = node_id
        task.attempts += 1
        startup = self.cluster.config.task_startup

        def begin() -> None:
            if not self.cluster.namenode.nodes[node_id].alive:
                self._on_task_end(job, task, node_id, success=False)
                return
            task.execute(self.cluster, node_id, lambda ok: self._on_task_end(job, task, node_id, ok))

        sim.schedule(startup, begin)

    def _on_task_end(
        self, job: MapReduceJob, task: Task, node_id: str, success: bool
    ) -> None:
        if task.done:
            return
        job.running.discard(task)
        if self.cluster.namenode.nodes[node_id].alive:
            self.slots_free[node_id] += 1
        if success:
            task.done = True
            job.completed += 1
            if job.is_finished and job.finish_time is None:
                job.finish_time = self.cluster.sim.now
                if job.on_complete is not None:
                    job.on_complete(job)
        else:
            job.failed_attempts += 1
            task.executor = None
            job.requeue(task)
        self._request_pass()

    # -- failure handling -------------------------------------------------------

    def handle_node_death(self, node_id: str) -> None:
        """Remove the node's slots; its running tasks fail via their own
        transfer-failure callbacks (the network aborts their flows)."""
        self.slots_free[node_id] = 0
