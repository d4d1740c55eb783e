"""One status report per work unit (paper §IV-C status tracing).

A request coalesced into a queued work unit terminates inside that unit's
:class:`~repro.net.message.ExecStatus` (its ``absorbed`` ids) instead of
sending a report of its own. These tests pin what must not change with that:

* over seeds × {Async-GT, GraphTrek} × {grouped, columnar} × plain/rtn
  plans, results equal the oracle, ``stats.executions`` equals the number of
  ``exec.terminated`` flight-recorder events, the execution DAG verifies,
  and the coordinator receives exactly one ``ExecStatus`` per processed unit
  or rtn confirmation;
* a lost report that carries absorbed ids is recovered by fine-grained
  replay, with the ``executions`` statistic of the clean run;
* absorbed ids of an older coordinator epoch are fenced with their unit's
  report, and a coordinator crash that leaves such reports in flight still
  yields the fault-free result.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, CoordinatorConfig
from repro.cluster.coordinator import Coordinator
from repro.engine import EngineKind, ReferenceEngine
from repro.engine.tracing import ExecTracker
from repro.faults.chaos import chaos_coordinator_config, run_fault_free, run_under_faults
from repro.faults.inject import FaultDecision, FaultInjector
from repro.faults.plan import CrashEvent, FaultPlan
from repro.lang import GTravel
from repro.net.message import ExecStatus
from repro.obs.trace import assemble_trace
from repro.workloads import (
    MetadataGraphConfig,
    generate_metadata_graph,
    paper_rmat1,
    pick_start_vertex,
    rmat_graph,
    rmat_kstep_query,
)

SEEDS = (1, 2, 3)
ENGINES = (EngineKind.ASYNC, EngineKind.GRAPHTREK)
LAYOUTS = ("grouped", "columnar")


def _rmat(seed: int):
    cfg = paper_rmat1(scale=7, edge_factor=8, seed=seed)
    graph = rmat_graph(cfg)
    src = pick_start_vertex(cfg)
    return graph, {
        "plain": rmat_kstep_query(src, 4).compile(),
        "rtn": GTravel.v(src).e("link").rtn().e("link").e("link").compile(),
    }


@pytest.fixture(scope="module")
def graphs():
    return {seed: _rmat(seed) for seed in SEEDS}


def _reports(events) -> int:
    """Status reports the servers sent: one per unit or rtn confirmation
    (absorbed executions terminate inside their unit's report)."""
    return sum(
        1
        for ev in events
        if ev.kind == "exec.terminated" and "absorbed_into" not in ev.attrs
    )


@pytest.mark.parametrize("shape", ("plain", "rtn"))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.name)
@pytest.mark.parametrize("seed", SEEDS)
def test_one_report_per_unit_keeps_accounting(graphs, seed, engine, layout, shape):
    graph, plans = graphs[seed]
    plan = plans[shape]
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=4, engine=engine, edge_layout=layout, trace_enabled=True
        ),
    )
    out = cluster.traverse(plan)
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))
    tid = out.result.travel_id
    events = [ev for ev in cluster.board.obs.trace.events() if ev.travel_id == tid]
    terminated = [ev for ev in events if ev.kind == "exec.terminated"]
    assert out.stats.executions == len(terminated)
    assemble_trace(events, tid)  # raises unless rooted, acyclic, no orphans
    metrics = cluster.board.obs.metrics
    reports = _reports(events)
    assert metrics.counter_total("coord.exec_status") == reports
    assert metrics.counter_total("engine.status_reports") == reports
    absorbed = len(terminated) - reports
    assert metrics.counter_total("engine.coalesced") == absorbed
    # one coord.status per terminated execution
    statuses = [ev for ev in events if ev.kind == "coord.status"]
    assert len(statuses) == len(terminated)


def test_reports_carry_absorbed_ids(graphs):
    """The batching is real: on an 8-step RMAT traversal most executions
    are absorbed, so far fewer reports than executions reach the
    coordinator."""
    graph, _ = graphs[SEEDS[0]]
    cfg = paper_rmat1(scale=7, edge_factor=8, seed=SEEDS[0])
    plan = rmat_kstep_query(pick_start_vertex(cfg), 8).compile()
    cluster = Cluster.build(graph, ClusterConfig(nservers=4, engine=EngineKind.GRAPHTREK))
    out = cluster.traverse(plan)
    reports = cluster.board.obs.metrics.counter_total("coord.exec_status")
    assert 0 < reports < out.stats.executions / 2


# -- ExecTracker: each absorbed id is its own termination ----------------------


def _status(eid, created=(), absorbed=(), results=0):
    return ExecStatus(
        travel_id=1, exec_id=eid, server=0, created=tuple(created),
        results_sent=results, absorbed=tuple(absorbed),
    )


def test_tracker_applies_absorbed_ids_fresh_duplicate_or_early():
    tracker = ExecTracker()
    tracker.register_initial([(1, 0, 0)], now=0.0)
    # unit 1 creates 2, 3, 4; its report arrives after 3's (early) report
    assert tracker.on_status(_status(3), now=1.0) == 1
    assert tracker.on_status(
        _status(1, created=[(2, 1, 1), (3, 1, 1), (4, 1, 1)]), now=2.0
    ) == 1
    # unit 2 absorbed 3 (a duplicate), 4 (fresh) and 5 (early: its creator's
    # report has not arrived yet)
    assert tracker.on_status(_status(2, absorbed=(3, 4, 5)), now=3.0) == 3
    assert tracker.early_terminated == {5}
    assert not tracker.complete
    # a replayed unit 2 is a duplicate, yet its fresh absorbed id counts
    assert tracker.on_status(_status(2, absorbed=(4, 6)), now=4.0) == 1
    assert tracker.early_terminated == {5, 6}
    assert tracker.on_status(_status(4, created=[(5, 2, 2), (6, 2, 2)]), now=5.0) == 0
    assert not tracker.complete, "duplicate report must not register children"
    # 5 and 6 were created by unit 7, whose own creation is registered last
    assert tracker.on_status(_status(7, created=[(5, 2, 2), (6, 2, 2)]), now=6.0) == 1
    tracker.register_initial([(7, 0, 0)], now=6.0)
    assert tracker.complete
    assert tracker.terminated_total == tracker.created_total == 7


# -- loss of a batched report -------------------------------------------------


class _DropFirstAbsorbedReport(FaultInjector):
    """Drops the first ``ExecStatus`` carrying absorbed ids of a unit that
    created nothing — replay can restore it (a lost report with created
    children leaves orphan terminations, which only a restart repairs)."""

    def __init__(self, plan: FaultPlan):
        super().__init__(plan)
        self.dropped: list[ExecStatus] = []

    def decide(self, src, dst, msg) -> FaultDecision:
        if (
            not self.dropped
            and isinstance(msg, ExecStatus)
            and msg.absorbed
            and not msg.created
        ):
            self.dropped.append(msg)
            return FaultDecision(drop=True)
        return super().decide(src, dst, msg)


@pytest.fixture(scope="module")
def md():
    md = generate_metadata_graph(MetadataGraphConfig(users=12, files=512, seed=42))
    plan = GTravel.v(*md.user_ids).e("run").e("hasExecutions").e("read").compile()
    return md.graph, plan


def test_lost_batched_report_recovered_by_replay(md):
    graph, plan = md
    clean = Cluster.build(graph, ClusterConfig(nservers=3, engine=EngineKind.GRAPHTREK))
    clean_out = clean.traverse(plan)

    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=EngineKind.GRAPHTREK,
            fault_plan=FaultPlan(seed=0),
            coordinator_config=CoordinatorConfig(
                exec_timeout=0.2, watch_interval=0.05,
                fine_grained_recovery=True, max_replay_rounds=2,
            ),
        ),
    )
    injector = _DropFirstAbsorbedReport(cluster.runtime.fault_plan)
    cluster.runtime.fault_injector = injector
    out = cluster.traverse(plan)
    assert injector.dropped, "no report carried absorbed ids"
    assert out.stats.restarts == 0 and out.stats.replays >= 1 + len(
        injector.dropped[0].absorbed
    )
    assert out.result.same_vertices(ReferenceEngine(graph).run(plan))
    assert out.stats.executions == clean_out.stats.executions


# -- epoch fencing of absorbed ids ----------------------------------------------


def test_coordinator_crash_fences_old_epoch_absorbed_ids(md, monkeypatch):
    """The coordinator host crashes briefly mid-traversal (journal on, raw
    wire, so the coordinator's own fence sees the traffic): units of the
    pre-crash epoch report their absorbed ids under that epoch after the
    recovery, the fence drops them, and the result is the fault-free one."""
    graph, plan = md
    baseline, duration = run_fault_free(graph, plan)
    fenced: list[ExecStatus] = []
    on_message = Coordinator.on_message

    def spy(self, msg):
        if isinstance(msg, ExecStatus) and msg.absorbed and msg.epoch != self.epoch:
            fenced.append(msg)
        on_message(self, msg)

    monkeypatch.setattr(Coordinator, "on_message", spy)
    at = 0.3 * duration
    faulty, error, _, _ = run_under_faults(
        graph,
        plan,
        FaultPlan(seed=0, crashes=[CrashEvent(0, at=at, recover_at=at + 0.02 * duration)]),
        coordinator_config=chaos_coordinator_config(duration),
        reliable=False,
        journal=True,
    )
    assert fenced, "no report with absorbed ids of an older epoch arrived"
    assert error is None and faulty == baseline
