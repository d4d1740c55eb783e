"""Coordinator-side execution tracing (paper §IV-C).

Every traversal execution is logged at the coordinator: creation events come
inside the parent's :class:`~repro.net.message.ExecStatus` (which also
terminates the parent and every execution coalesced into its work unit), so

* a traversal is complete when every created execution has terminated **and**
  every declared result message has arrived;
* an execution created but not terminated within a timeout indicates a
  failure (silent loss), which triggers a restart of the whole traversal —
  the paper's stated recovery policy, with fine-grained recovery left as
  future work.

Message reordering is handled: a child's termination may arrive before the
parent's status registers its creation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.ids import COORDINATOR, ExecId, ServerId
from repro.net.message import ExecStatus


@dataclass
class ExecTracker:
    """Quiescence and progress accounting for one traversal attempt."""

    attempt: int = 0
    #: exec id -> (target server, level, origin server); origin COORDINATOR
    #: means the coordinator itself dispatched it (and can replay it).
    pending: dict[ExecId, tuple[ServerId, int, ServerId]] = field(default_factory=dict)
    early_terminated: set[ExecId] = field(default_factory=set)
    #: already-terminated ids, so duplicate reports from replayed executions
    #: are recognized instead of being mistaken for unknown executions.
    terminated_ids: set[ExecId] = field(default_factory=set)
    created_total: int = 0
    terminated_total: int = 0
    results_expected: int = 0
    results_received: int = 0
    last_activity: float = 0.0
    started: bool = False

    def register_initial(
        self, execs: list[tuple[ExecId, ServerId, int]], now: float
    ) -> None:
        """Record the executions the coordinator itself dispatched."""
        self.started = True
        self.last_activity = now
        for eid, server, level in execs:
            self._register(eid, server, level, origin=COORDINATOR)

    def _register(
        self, eid: ExecId, server: ServerId, level: int, origin: ServerId
    ) -> None:
        if eid in self.terminated_ids:
            return  # duplicate creation report from a replayed parent
        self.created_total += 1
        if eid in self.early_terminated:
            self.early_terminated.discard(eid)
            self.terminated_total += 1
            self.terminated_ids.add(eid)
            return
        self.pending[eid] = (server, level, origin)

    def on_status(self, msg: ExecStatus, now: float) -> int:
        """Apply one status report; returns how many executions it freshly
        terminated: the unit's own execution plus its ``absorbed`` ones.

        Each id is applied as its own termination — fresh, duplicate (from a
        replayed execution) or early — so a replayed unit can still carry
        fresh absorbed ids. Duplicates and stale attempts add nothing, and
        the per-traversal ``executions`` statistic is incremented by the
        fresh count only.
        """
        if msg.attempt != self.attempt:
            return 0  # stale report from a failed attempt
        self.last_activity = now
        fresh = 0
        if self._terminate(msg.exec_id):
            for eid, server, level in msg.created:
                self._register(eid, server, level, origin=msg.server)
            self.results_expected += msg.results_sent
            fresh = 1
        for eid in msg.absorbed:
            fresh += self._terminate(eid)
        return fresh

    def _terminate(self, eid: ExecId) -> bool:
        """Mark ``eid`` terminated; False for a duplicate report."""
        if eid in self.terminated_ids or eid in self.early_terminated:
            return False
        if eid in self.pending:
            del self.pending[eid]
            self.terminated_total += 1
            self.terminated_ids.add(eid)
        else:
            # Termination outracing the parent's creation report; _register
            # reconciles when the creation arrives.
            self.early_terminated.add(eid)
        return True

    def on_result(self, now: float) -> None:
        self.results_received += 1
        self.last_activity = now

    @property
    def complete(self) -> bool:
        return (
            self.started
            and not self.pending
            and not self.early_terminated
            and self.results_received >= self.results_expected
        )

    def progress(self) -> dict[int, int]:
        """Outstanding execution count per traversal level (paper §IV-C:
        "the count of current unfinished traversal executions in each step
        can still help users estimate the remaining work and time")."""
        counts: Counter = Counter()
        for _, level, _ in self.pending.values():
            counts[level] += 1
        return dict(counts)

    def idle_for(self, now: float) -> float:
        return now - self.last_activity

    def snapshot(self) -> dict[str, int]:
        return {
            "created": self.created_total,
            "terminated": self.terminated_total,
            "pending": len(self.pending),
            "results_expected": self.results_expected,
            "results_received": self.results_received,
        }


@dataclass
class SyncBarrierState:
    """Barrier bookkeeping for the synchronous engine's coordinator."""

    attempt: int = 0
    level: int = 0
    done_servers: set[ServerId] = field(default_factory=set)
    #: batches each server should expect for the *next* level
    next_expected: Counter = field(default_factory=Counter)
    results_expected: int = 0
    results_received: int = 0
    finished_steps: bool = False
    last_activity: float = 0.0

    def reset_for_level(self, level: int) -> "SyncBarrierState":
        self.level = level
        self.done_servers.clear()
        self.next_expected = Counter()
        return self

    @property
    def complete(self) -> bool:
        return self.finished_steps and self.results_received >= self.results_expected
