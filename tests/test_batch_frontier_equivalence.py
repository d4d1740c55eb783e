"""Generative differential suite for the one engine path: columnar storage
(or a §IV-B ablation layout) + batch frontier expansion.

The async and sync engines expand every work unit through
:class:`~repro.engine.batch.BatchFrontier`; the per-vertex semantics live
only in :func:`~repro.engine.visit.expand_vertex` and the
:class:`~repro.engine.reference.ReferenceEngine` oracle. This suite proves
the batch path against both.

Legs:

* operator level: ``BatchFrontier`` over random visit data (anchors,
  ids-only reads, edge filters, several levels in one unit) produces
  exactly the sinks of per-vertex ``expand_vertex`` calls;
* the 10-seed × 3-engine × 3-planner × 3-layout matrix over random plain,
  rtn-bearing (provenance-style) and merge-heavy plans, element-identical
  to the per-vertex reference oracle;
* determinism: re-running an identical (seed, config) pair reproduces the
  result, a byte-identical metrics snapshot and flight-recorder export;
* a chaos leg: mid-traversal server crash with columnar storage on, results
  still identical to the fault-free baseline;
* a rebalance leg: migration chunks export/import columnar blocks
  losslessly (same edges, same bytes/edge accounting), and a live migration
  under the columnar layout changes no traversal's result.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.engine import EngineKind
from repro.engine.batch import BatchFrontier
from repro.engine.frontier import EMPTY_ANCHORS, intermediate_rtn_levels
from repro.engine.options import options_for
from repro.engine.reference import ReferenceEngine
from repro.engine.visit import ExpandSinks, VisitData, expand_vertex
from repro.faults.chaos import chaos_check
from repro.graph.builder import PropertyGraph
from repro.lang import EQ
from repro.lang.gtravel import GTravel
from repro.rebalance import MigrationConfig
from repro.storage import EDGE_LAYOUTS, GraphStore, LSMConfig
from repro.storage.costmodel import IOCost

from tests.conftest import ALL_ENGINES

SEEDS = range(10)
PLANNERS = ("off", "rules", "cost")
LAYOUTS = ("grouped", "columnar")
LABELS = ("link", "ref")


def random_graph(rng: random.Random, nvertices: int = 24, nedges: int = 72):
    g = PropertyGraph()
    for vid in range(nvertices):
        g.add_vertex(vid, "node", {"x": vid % 5})
    for _ in range(nedges):
        src = rng.randrange(nvertices)
        dst = rng.randrange(nvertices)
        g.add_edge(src, dst, rng.choice(LABELS), {"w": rng.randint(0, 3)})
    return g


def random_queries(rng: random.Random, nvertices: int, n: int = 3):
    queries = []
    for _ in range(n):
        q = GTravel.v(rng.randrange(nvertices))
        for _ in range(rng.randint(1, 3)):
            q = q.e(rng.choice(LABELS))
        queries.append(q.compile())
    return queries


def rtn_queries(rng: random.Random, nvertices: int):
    """Provenance-style plans: intermediate rtn() marks, with vertex and
    edge filters between them."""
    src = rng.randrange(nvertices)
    return [
        GTravel.v(src).e("link").rtn().e("ref").compile(),
        GTravel.v(src).rtn().e("link").e("link").rtn().e("ref").va("x", EQ, 1).compile(),
        GTravel.v(src, (src + 1) % nvertices).e("link", "ref").rtn()
        .e("link").ea("w", EQ, 2).e("ref").compile(),
    ]


def merge_heavy_queries(rng: random.Random, nvertices: int):
    """Long same-label chains over a small dense graph: the same vertex is
    queued at several levels of one traversal, so execution merging (§V-B)
    serves levels from one read — one of them past an rtn mark."""
    src = rng.randrange(nvertices)
    q = GTravel.v(src)
    for _ in range(6):
        q = q.e("link", "ref")
    rtn = GTravel.v(src).e("link", "ref").e("link", "ref").rtn()
    for _ in range(4):
        rtn = rtn.e("link", "ref")
    return [q.compile(), rtn.compile()]


def normalize(returned: dict) -> dict:
    return {lv: frozenset(vids) for lv, vids in returned.items() if vids}


def build(graph, engine, planner="off", layout="columnar", **cfg):
    return Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            edge_layout=layout,
            engine=options_for(engine, planner=planner),
            **cfg,
        ),
    )


# -- operator level: BatchFrontier == per-vertex expand_vertex ------------------


def _random_visit(rng: random.Random, ids_only: bool) -> VisitData:
    edges, ids = {}, {}
    for label in LABELS:
        dsts = [rng.randrange(16) for _ in range(rng.randint(0, 5))]
        if ids_only:
            ids[label] = tuple(dsts)
        else:
            edges[label] = [(d, {"w": rng.randint(0, 3)}) for d in dsts]
    props = {"x": rng.randrange(5)}
    return VisitData(props=props, edges=edges, cost=IOCost(), ids=ids)


def _random_anchors(rng: random.Random, width: int):
    return tuple(
        frozenset(rng.sample(range(16), rng.randint(1, 3))) for _ in range(width)
    )


@pytest.mark.parametrize("seed", range(20))
def test_batch_frontier_matches_expand_vertex(seed):
    rng = random.Random(seed)
    plans = [
        GTravel.v(0).e("link").e("ref").va("x", EQ, 2).e("link").compile(),
        GTravel.v(0).e("link").rtn().e("ref").ea("w", EQ, 1).e("link").compile(),
        GTravel.v(0).rtn().e("link", "ref").rtn().e("ref").va("x", EQ, 1).compile(),
        GTravel.v(0).e("link").e("ref").group_count("x").compile(),
    ]

    def owner(vid):
        return vid % 3

    for plan in plans:
        rtn_levels = intermediate_rtn_levels(plan)
        per_vertex, batched = ExpandSinks(), ExpandSinks()
        # one unit: a frontier per level, as execution merging produces
        for level in range(plan.final_level + 1):
            width = sum(1 for r in rtn_levels if r < level)
            edge_filtered = level < plan.final_level and bool(
                plan.steps[level].edge_filters
            )
            frontier = BatchFrontier(plan, level, rtn_levels)
            for vid in rng.sample(range(16), 6):
                data = _random_visit(rng, ids_only=not edge_filtered and rng.random() < 0.5)
                anchors = _random_anchors(rng, width) if width else EMPTY_ANCHORS
                outcome = expand_vertex(
                    plan, level, vid, anchors, data, owner, per_vertex, rtn_levels, "node"
                )
                admitted = frontier.add(vid, anchors, data, "node")
                assert admitted == (outcome != "filtered"), (plan.describe(), level)
            frontier.expand(owner, batched)
        assert batched.out == per_vertex.out, plan.describe()
        assert batched.final_results == per_vertex.final_results
        assert batched.anchors_by_owner == per_vertex.anchors_by_owner
        assert batched.final_groups == per_vertex.final_groups


# -- the differential matrix --------------------------------------------------


@pytest.mark.parametrize("planner", PLANNERS)
@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_matrix_element_identical(engine, planner):
    """10 seeds × every layout × plain, rtn-bearing and merge-heavy plans,
    every result element-identical to the per-vertex oracle."""
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = random_graph(rng)
        queries = random_queries(rng, 24)
        queries += rtn_queries(rng, 24) + merge_heavy_queries(rng, 24)
        oracle = ReferenceEngine(graph)
        for layout in EDGE_LAYOUTS:
            cluster = build(graph, engine, planner, layout)
            for qi, plan in enumerate(queries):
                expect = normalize(oracle.run(plan).returned)
                got = normalize(cluster.traverse(plan).result.returned)
                assert got == expect, (
                    f"seed {seed} q{qi} {plan.describe()} layout={layout}: "
                    f"{got} != {expect}"
                )


def test_merge_heavy_plans_merge():
    """The merge-heavy leg really exercises merged levels on the batch
    path, with and without rtn anchors (otherwise the matrix proves
    nothing about them)."""
    combined = [0, 0]
    for seed in SEEDS:
        rng = random.Random(seed)
        graph = random_graph(rng)
        for i, plan in enumerate(merge_heavy_queries(rng, 24)):
            outcome = build(graph, EngineKind.GRAPHTREK).traverse(plan)
            combined[i] += outcome.stats.combined_visits
    assert all(combined), combined


def test_aggregates_and_short_circuit_batched():
    """Batch expansion must honor aggregate group keys and the planner's
    final-step short-circuit, across layouts."""
    rng = random.Random(99)
    graph = random_graph(rng)
    plans = [
        GTravel.v(1).e("link").count().compile(),
        GTravel.v(1).e("link").e("ref").group_count("type").compile(),
        GTravel.v(2).e("ref").group_count("x").compile(),
    ]
    for plan in plans:
        expect = ReferenceEngine(graph).run(plan).aggregate
        for layout in LAYOUTS:
            for planner in PLANNERS:
                cluster = build(graph, EngineKind.GRAPHTREK, planner, layout)
                got = cluster.traverse(plan).result.aggregate
                assert got == expect, (layout, planner, got, expect)


def test_intermediate_rtn_on_batch_path():
    """Intermediate rtn() anchors ride the batch frontier: every engine and
    layout returns the oracle's backward-pruned anchor sets."""
    for seed in (0, 3, 7):
        rng = random.Random(seed)
        graph = random_graph(rng)
        plan = GTravel.v(rng.randrange(24)).e("link").rtn().e("ref").compile()
        expect = normalize(ReferenceEngine(graph).run(plan).returned)
        for engine in ALL_ENGINES:
            for layout in LAYOUTS:
                cluster = build(graph, engine, "off", layout)
                got = normalize(cluster.traverse(plan).result.returned)
                assert got == expect, (seed, engine, layout)


# -- determinism: byte-identical snapshots across reruns ----------------------


@pytest.mark.parametrize("layout", LAYOUTS)
def test_rerun_metrics_byte_identical(layout):
    """Same (seed, config) twice → same results, a byte-identical metrics
    snapshot (columnar decode counters included) and a byte-identical
    flight-recorder export."""
    rng = random.Random(5)
    graph = random_graph(rng)
    plans = random_queries(rng, 24, n=1) + rtn_queries(rng, 24)[:1]

    def one_run():
        cluster = build(graph, EngineKind.GRAPHTREK, "cost", layout, trace_enabled=True)
        results = [normalize(cluster.traverse(p).result.returned) for p in plans]
        snapshot = json.dumps(cluster.metrics_snapshot(), sort_keys=True)
        storage = repr([s.store.metrics_snapshot() for s in cluster.servers])
        return results, snapshot, storage, cluster.board.obs.trace.to_json()

    first, second = one_run(), one_run()
    assert first[0] == second[0]
    assert first[1] == second[1], "metrics snapshots differ across reruns"
    assert first[2] == second[2], "storage snapshots differ across reruns"
    assert first[3] == second[3], "flight-recorder exports differ across reruns"


def test_columnar_decode_counters_move():
    """Sanity: the columnar path actually decodes blocks (the counters the
    explain/profile layer attributes per step)."""
    rng = random.Random(11)
    graph = random_graph(rng)
    plan = random_queries(rng, 24, n=1)[0]
    cluster = build(graph, EngineKind.GRAPHTREK, "off", "columnar")
    cluster.traverse(plan)
    decoded = sum(s.store.decoded_blocks for s in cluster.servers)
    assert decoded > 0
    snap = cluster.servers[0].store.metrics_snapshot()
    assert "bytes_per_edge" in snap


# -- chaos leg: crash mid-traversal with columnar on ---------------------------


def test_chaos_crash_columnar():
    """A server crash mid-traversal under the columnar layout: the restart
    must reproduce the fault-free result (or fail cleanly), exactly as the
    grouped layout's chaos suite guarantees."""
    rng = random.Random(21)
    graph = random_graph(rng)
    plan = GTravel.v(3).e("link").e("ref").e("link").compile()
    engine = options_for(EngineKind.GRAPHTREK)
    ok = 0
    for seed in range(4):
        outcome = chaos_check(
            graph,
            plan,
            seed=seed,
            engine=engine,
            crash=True,
            edge_layout="columnar",
        )
        assert outcome.matched or outcome.failed_cleanly, (
            f"seed {seed}: diverged under faults: {outcome.error}"
        )
        ok += outcome.matched
    assert ok >= 2, "crash chaos never completed successfully"


# -- rebalance leg: columnar blocks migrate losslessly -------------------------


def test_migration_chunks_roundtrip_columnar_blocks():
    """export_vertices → import_vertices between columnar stores moves the
    raw blocks losslessly: same adjacency, same bytes/edge accounting."""
    rng = random.Random(31)
    graph = random_graph(rng)
    src = GraphStore(LSMConfig(), edge_layout="columnar")
    src.load_partition(graph, list(range(24)))
    dst = GraphStore(LSMConfig(), edge_layout="columnar")
    vids = list(range(12))
    pairs, meta = src.export_vertices(vids)
    assert dst.import_vertices(pairs, meta) == len(vids)
    for vid in vids:
        for label in ("link", "ref"):
            want, _ = src.edges(vid, label)
            got, _ = dst.edges(vid, label)
            assert sorted(got, key=repr) == sorted(want, key=repr), (vid, label)
    src_snap = src.metrics_snapshot()
    dst_snap = dst.metrics_snapshot()
    moved_edges = sum(
        len(src.edges(v, l)[0]) for v in vids for l in ("link", "ref")
    )
    assert dst_snap["edge_count"] == moved_edges
    # the imported representation is the same bytes, so the gauge agrees
    # with re-encoding from scratch
    fresh = GraphStore(LSMConfig(), edge_layout="columnar")
    fresh.load_partition(graph, vids)
    assert dst_snap["edge_bytes"] == fresh.metrics_snapshot()["edge_bytes"]
    assert src_snap["edge_count"] >= moved_edges


def test_cross_layout_import_reads_merge():
    """A columnar store absorbing a grouped store's chunk keeps every edge
    readable (legacy merge path), and a grouped store absorbs columnar-era
    blocks' vertices' legacy records symmetrically."""
    rng = random.Random(41)
    graph = random_graph(rng)
    grouped = GraphStore(LSMConfig(), edge_layout="grouped")
    grouped.load_partition(graph, list(range(24)))
    columnar = GraphStore(LSMConfig(), edge_layout="columnar")
    pairs, meta = grouped.export_vertices(list(range(24)))
    columnar.import_vertices(pairs, meta)
    for vid in range(24):
        for label in ("link", "ref"):
            want, _ = grouped.edges(vid, label)
            got, _ = columnar.edges(vid, label)
            assert sorted(got, key=repr) == sorted(want, key=repr), (vid, label)
        want_all, _ = grouped.all_edges(vid)
        got_all, _ = columnar.all_edges(vid)
        assert sorted(got_all, key=repr) == sorted(want_all, key=repr), vid


@pytest.mark.parametrize("engine", ALL_ENGINES, ids=lambda e: e.value)
def test_live_migration_columnar_identical(engine):
    """A migration racing a traversal under the columnar layout moves data,
    never answers (the PR-9 guarantee, extended to the new layout)."""
    rng = random.Random(51)
    graph = random_graph(rng)
    plan = GTravel.v(1).e("link").e("ref").compile()
    expect = normalize(ReferenceEngine(graph).run(plan).returned)
    cluster = Cluster.build(
        graph,
        ClusterConfig(
            nservers=3,
            edge_layout="columnar",
            engine=options_for(engine),
            migration=MigrationConfig(chunk_vertices=4, dual_window=0.02),
            journal=True,
        ),
    )
    _, travel_event = cluster.submit(plan)
    vids = tuple(sorted(cluster.servers[1].store.local_vertices())[:8])
    _, mig_event = cluster.rebalance(1, 2, vids=vids, wait=False)
    outcome = cluster.runtime.run_until_complete(travel_event)
    state = cluster.runtime.run_until_complete(mig_event)
    assert normalize(outcome.result.returned) == expect
    assert state.phase in ("done", "aborted")
    if state.phase == "done":
        for vid in vids:
            assert cluster.servers[2].store.has_vertex(vid)
    # post-migration reads on the target still serve every migrated block
    again = cluster.traverse(plan)
    assert normalize(again.result.returned) == expect
