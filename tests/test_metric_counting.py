"""Per-unit visit counting: deterministic, and equal to per-call counting.

The engines count visits once per work unit (``engine.real_visits``,
``cache.affiliate_hits``, ``engine.merged_items`` and the traversal stats
board) instead of once per vertex, and the metrics registry locks only on
the threaded runtime. These tests pin what must not change with that:

* two runs of one seed export byte-identical metrics snapshots and
  flight-recorder streams, on the columnar and the grouped layout;
* counter totals equal an independent per-call count: every vertex a unit
  served is exactly one real visit or one affiliate-cache hit;
* the telemetry plane's windowed rollups sum to the registry totals;
* on the threaded runtime with 4 workers per server the counters still sum
  to the traversal's own statistics;
* ``engine.requests``/``engine.coalesced``, counted once per unit (units a
  crash drops are counted by the crash), total the ``TraverseRequest``s the
  engines received: on a clean run, across a mid-traversal server crash,
  and on the threaded runtime.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import Cluster, ClusterConfig, CoordinatorConfig
from repro.engine import EngineKind, ReferenceEngine, graphtrek_options
from repro.faults.plan import CrashEvent, FaultPlan
from repro.lang import GTravel
from repro.obs.telemetry import TelemetryConfig
from repro.workloads import paper_rmat1, pick_start_vertex, rmat_graph, rmat_kstep_query

VISIT_COUNTERS = ("engine.real_visits", "cache.affiliate_hits", "engine.merged_items")


@pytest.fixture(scope="module")
def rmat():
    cfg = paper_rmat1(scale=8, edge_factor=8)
    graph = rmat_graph(cfg)
    src = pick_start_vertex(cfg)
    plans = [
        rmat_kstep_query(src, 5).compile(),
        GTravel.v(src).e("link").rtn().e("link").e("link").compile(),
    ]
    return graph, plans


def _run(graph, plans, layout, **cfg):
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=4, engine=EngineKind.GRAPHTREK, edge_layout=layout,
            trace_enabled=True, **cfg,
        ),
    )
    outcomes = [cluster.traverse(p) for p in plans]
    return cluster, outcomes


@pytest.mark.parametrize("layout", ("columnar", "grouped"))
def test_two_runs_export_identical_bytes(rmat, layout):
    graph, plans = rmat

    def exports():
        cluster, _ = _run(graph, plans, layout)
        return (
            json.dumps(cluster.metrics_snapshot(), sort_keys=True),
            cluster.board.obs.trace.to_json(),
            cluster.board.obs.to_json(),
        )

    first, second = exports(), exports()
    assert first[0] == second[0], "metrics snapshot differs across runs"
    assert first[1] == second[1], "flight-recorder export differs across runs"
    assert first[2] == second[2], "observability payload differs across runs"


@pytest.mark.parametrize("layout", ("columnar", "grouped"))
def test_counter_totals_equal_per_call_counting(rmat, layout):
    graph, plans = rmat
    cluster, outcomes = _run(graph, plans, layout)
    metrics = cluster.board.obs.metrics
    nservers = len(cluster.servers)
    # independent per-call count: every vertex of a unit that the server
    # stores is served exactly once — by a real visit or a cache hit
    served = [0] * nservers
    for event in cluster.board.obs.trace.events():
        if event.kind == "exec.terminated" and event.attrs.get("reason") == "ok":
            served[event.server_id] += event.attrs["vertices"]
    for server in range(nservers):
        real = metrics.counter_value("engine.real_visits", server=server)
        hits = metrics.counter_value("cache.affiliate_hits", server=server)
        assert real + hits == served[server], server
    # and the traversal stats board agrees with the registry
    assert metrics.counter_total("engine.real_visits") == sum(
        o.stats.real_io_visits for o in outcomes
    )
    assert metrics.counter_total("cache.affiliate_hits") == sum(
        o.stats.redundant_visits for o in outcomes
    )
    assert metrics.counter_total("engine.merged_items") == sum(
        o.stats.combined_visits for o in outcomes
    )
    assert metrics.counter_total("engine.real_visits") > 0


def test_telemetry_rollups_sum_to_registry_totals(rmat):
    graph, plans = rmat
    cluster, _ = _run(
        graph, plans, "columnar",
        telemetry_config=TelemetryConfig(max_windows=1 << 16),
    )
    rollups = cluster.rollups()["counters"]
    snapshot = cluster.metrics_snapshot()["counters"]
    checked = 0
    for key, total in snapshot.items():
        if not key.startswith(VISIT_COUNTERS):
            continue
        windows = rollups.get(key, [])
        assert sum(w["count"] for w in windows) == total, key
        checked += 1
    assert checked > 0


def _assert_request_totals(cluster) -> None:
    """``engine.requests`` equals the TraverseRequests delivered to the
    engines (``exec.received`` of every execution not created as an rtn
    SuccessReport), and ``engine.coalesced`` those that joined a unit."""
    events = cluster.board.obs.trace.events()
    rtn = {ev.exec_id for ev in events if ev.kind == "exec.created" and ev.attrs.get("edge") == "rtn"}
    received = sum(1 for ev in events if ev.kind == "exec.received" and ev.exec_id not in rtn)
    units = sum(
        1 for ev in events if ev.kind == "exec.terminated" and "absorbed_into" not in ev.attrs
        and ev.exec_id not in rtn
    )
    metrics = cluster.board.obs.metrics
    assert metrics.counter_total("engine.requests") == received
    coalesced = metrics.counter_total("engine.coalesced")
    assert coalesced > 0
    # a delivered request opens a unit or joins one; units a crash dropped
    # never terminate
    if metrics.counter_total("engine.crashes"):
        assert coalesced <= received - units
    else:
        assert coalesced == received - units


@pytest.mark.parametrize("case", ("clean", "crash"))
def test_request_totals_equal_delivered_requests(rmat, case):
    graph, plans = rmat
    cfg = {}
    if case == "crash":
        # late enough that server 1 holds queued units with absorbed
        # requests, which the crash drops
        _, (clean,) = _run(graph, plans[:1], "columnar")
        span = clean.stats.elapsed
        at = 0.7 * span
        cfg = dict(
            fault_plan=FaultPlan(
                seed=0, crashes=[CrashEvent(1, at=at, recover_at=at + 0.1 * span)]
            ),
            reliable=True,
            coordinator_config=CoordinatorConfig(
                exec_timeout=span, watch_interval=0.1 * span,
                fine_grained_recovery=True,
            ),
        )
    cluster, outcomes = _run(graph, plans[:1], "columnar", **cfg)
    assert outcomes[0].result.same_vertices(ReferenceEngine(graph).run(plans[0]))
    if case == "crash":
        assert cluster.board.obs.metrics.counter_total("engine.crashes") == 1
    _assert_request_totals(cluster)


def test_threaded_runtime_counters_sum_under_4_workers(rmat):
    graph, plans = rmat
    plan = plans[0]
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            engine=graphtrek_options(workers=4),
            runtime="threaded",
            coordinator_config=CoordinatorConfig(exec_timeout=1e6, watch_interval=50.0),
            trace_enabled=True,
        ),
    )
    try:
        outcome = cluster.traverse(plan)
    finally:
        cluster.shutdown()
    assert outcome.result.same_vertices(ReferenceEngine(graph).run(plan))
    metrics = cluster.board.obs.metrics
    assert metrics.counter_total("engine.real_visits") == outcome.stats.real_io_visits
    assert metrics.counter_total("cache.affiliate_hits") == outcome.stats.redundant_visits
    assert metrics.counter_total("engine.merged_items") == outcome.stats.combined_visits
    assert outcome.stats.real_io_visits > 0
    _assert_request_totals(cluster)
