"""Tests for the interleaved/columnar edge layouts and their cost asymmetry."""

import json

import pytest

from repro.errors import StorageError, UnknownEdgeLayout
from repro.graph import GraphBuilder, hpc_metadata_schema
from repro.lang import GTravel
from repro.storage import GraphStore, LSMConfig
from repro.storage.persist import checkpoint_graph_store, restore_graph_store
from tests.conftest import assert_engines_match_oracle


@pytest.fixture()
def multi_label_vertex():
    b = GraphBuilder()
    v = b.vertex("T")
    targets = [b.vertex("T") for _ in range(12)]
    for i, t in enumerate(targets):
        b.edge(v, t, ("read", "write", "exe")[i % 3], n=i)
    return b.build(), v, targets


def load(graph, vids, layout):
    store = GraphStore(LSMConfig(), edge_layout=layout)
    store.load_partition(graph, vids)
    return store


def test_layouts_return_identical_edges(multi_label_vertex):
    graph, v, targets = multi_label_vertex
    grouped = load(graph, [v], "grouped")
    interleaved = load(graph, [v], "interleaved")
    columnar = load(graph, [v], "columnar")
    for label in ("read", "write", "exe"):
        ga, _ = grouped.edges(v, label)
        ia, _ = interleaved.edges(v, label)
        ca, _ = columnar.edges(v, label)
        assert sorted(ga) == sorted(ia) == sorted(ca)
    g_all, _ = grouped.all_edges(v)
    i_all, _ = interleaved.all_edges(v)
    c_all, _ = columnar.all_edges(v)
    assert sorted(g_all) == sorted(i_all) == sorted(c_all)


def test_interleaved_label_scan_costs_more(multi_label_vertex):
    """The §IV-B claim: label-selective scans are cheaper when same-label
    edges are contiguous."""
    graph, v, _ = multi_label_vertex
    grouped = load(graph, [v], "grouped")
    interleaved = load(graph, [v], "interleaved")
    _, g_cost = grouped.edges(v, "read")
    _, i_cost = interleaved.edges(v, "read")
    assert i_cost.bytes > g_cost.bytes  # whole block vs one label's run


def test_interleaved_label_prop_not_exposed(multi_label_vertex):
    graph, v, _ = multi_label_vertex
    interleaved = load(graph, [v], "interleaved")
    edges, _ = interleaved.edges(v, "read")
    for _, props in edges:
        assert "__label" not in props


def test_interleaved_live_insert(multi_label_vertex):
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "interleaved")
    store.insert_edge(v, 999, "read", {"n": 99})
    edges, _ = store.edges(v, "read")
    assert (999, {"n": 99}) in edges


def test_unknown_layout_rejected():
    with pytest.raises(StorageError):
        GraphStore(LSMConfig(), edge_layout="diagonal")


def test_interleaved_checkpoint_roundtrip(multi_label_vertex, tmp_path):
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "interleaved")
    checkpoint_graph_store(store, tmp_path)
    restored = restore_graph_store(tmp_path)
    assert restored.edge_layout == "interleaved"
    original, _ = store.edges(v, "write")
    back, _ = restored.edges(v, "write")
    assert sorted(original) == sorted(back)


def test_engines_correct_on_interleaved_layout(metadata_graph):
    graph, ids = metadata_graph
    q = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").e("read", "write")
    assert_engines_match_oracle(graph, q, edge_layout="interleaved")


# -- columnar layout ----------------------------------------------------------


def test_columnar_label_read_cheaper_than_interleaved(multi_label_vertex):
    """One delta-packed block per (vertex, label) beats scanning the whole
    interleaved run for a label-selective read."""
    graph, v, _ = multi_label_vertex
    columnar = load(graph, [v], "columnar")
    interleaved = load(graph, [v], "interleaved")
    _, c_cost = columnar.edges(v, "read")
    _, i_cost = interleaved.edges(v, "read")
    assert c_cost.bytes < i_cost.bytes


def test_columnar_live_insert(multi_label_vertex):
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "columnar")
    store.insert_edge(v, 999, "read", {"n": 99})
    edges, _ = store.edges(v, "read")
    assert (999, {"n": 99}) in edges


def test_cold_start_clears_decode_memo(multi_label_vertex):
    """A cold read decodes its block again: ``cold_start`` drops the decode
    memo with the block cache, so re-reading a block after it increments
    ``decoded_blocks``; without it the warm re-read is free."""
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "columnar")
    store.edges(v, "read")
    decoded = store.decoded_blocks
    store.edges(v, "read")
    assert store.decoded_blocks == decoded  # warm: served from the memo
    store.cold_start()
    store.edges(v, "read")
    assert store.decoded_blocks == decoded + 1


def test_ids_only_read_matches_edges(multi_label_vertex):
    """``edges(ids_only=True)`` returns the neighbor ids of the full read at
    the same I/O cost, on every layout."""
    graph, v, _ = multi_label_vertex
    for layout in ("grouped", "interleaved", "columnar"):
        store = load(graph, [v], layout)
        for label in ("read", "write", "exe"):
            pairs, cost = store.edges(v, label)
            store.cold_start()
            ids, ids_cost = store.edges(v, label, ids_only=True)
            store.cold_start()
            assert list(ids) == [dst for dst, _ in pairs], (layout, label)
            assert ids_cost == cost, (layout, label)


def test_columnar_bytes_per_edge_beats_entry_per_edge():
    """The compression claim behind ``storage.bytes_per_edge``: a columnar
    store's forward footprint is smaller than grouped entry-per-edge."""
    b = GraphBuilder()
    v = b.vertex("T")
    for t in [b.vertex("T") for _ in range(64)]:
        b.edge(v, t, "link")
    graph = b.build()
    grouped = load(graph, [v], "grouped")
    columnar = load(graph, [v], "columnar")
    g_snap = grouped.metrics_snapshot()
    c_snap = columnar.metrics_snapshot()
    assert g_snap["edge_count"] == c_snap["edge_count"] == 64
    assert c_snap["bytes_per_edge"] < g_snap["bytes_per_edge"]


def test_columnar_checkpoint_roundtrip(multi_label_vertex, tmp_path):
    """Persist v2 round-trip: the layout survives, every edge comes back,
    and the bytes/edge accounting is rebuilt from the restored runs."""
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "columnar")
    checkpoint_graph_store(store, tmp_path)
    restored = restore_graph_store(tmp_path)
    assert restored.edge_layout == "columnar"
    for label in ("read", "write", "exe"):
        original, _ = store.edges(v, label)
        back, _ = restored.edges(v, label)
        assert sorted(original) == sorted(back)
    assert restored.metrics_snapshot()["bytes_per_edge"] == pytest.approx(
        store.metrics_snapshot()["bytes_per_edge"]
    )


def test_restore_rejects_unknown_layout(multi_label_vertex, tmp_path):
    """Regression for the silent-fallback bug: a manifest naming a layout
    this build does not know must raise the typed error, not quietly come
    back as ``grouped``."""
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "columnar")
    checkpoint_graph_store(store, tmp_path)
    index = tmp_path / "vertex_index.json"
    payload = json.loads(index.read_text())
    payload["layout"] = "diagonal"
    index.write_text(json.dumps(payload))
    with pytest.raises(UnknownEdgeLayout) as err:
        restore_graph_store(tmp_path)
    assert err.value.name == "diagonal"
    assert "columnar" in err.value.choices


def test_restore_missing_layout_field_defaults_grouped(
    multi_label_vertex, tmp_path
):
    """Pre-layout checkpoints carry no ``layout`` field; they keep restoring
    as grouped (backward compatibility), distinct from unknown names."""
    graph, v, _ = multi_label_vertex
    store = load(graph, [v], "grouped")
    checkpoint_graph_store(store, tmp_path)
    index = tmp_path / "vertex_index.json"
    payload = json.loads(index.read_text())
    payload.pop("layout", None)
    index.write_text(json.dumps(payload))
    restored = restore_graph_store(tmp_path)
    assert restored.edge_layout == "grouped"
    back, _ = restored.edges(v, "read")
    original, _ = store.edges(v, "read")
    assert sorted(back) == sorted(original)


def test_unknown_layout_typed_error_at_construction():
    with pytest.raises(UnknownEdgeLayout) as err:
        GraphStore(LSMConfig(), edge_layout="diagonal")
    assert err.value.name == "diagonal"
    assert isinstance(err.value, StorageError)


def test_mixed_legacy_entries_readable_on_columnar_store(multi_label_vertex):
    """A columnar store holding legacy entry-per-edge records (absorbed from
    a grouped-era chunk) merges them into every read, alongside fresh
    columnar-era inserts."""
    graph, v, _ = multi_label_vertex
    grouped = load(graph, [v], "grouped")
    columnar = GraphStore(LSMConfig(), edge_layout="columnar")
    pairs, meta = grouped.export_vertices([v])
    columnar.import_vertices(pairs, meta)
    columnar.insert_edge(v, 7777, "read", {"n": 1})
    want, _ = grouped.edges(v, "read")
    got, _ = columnar.edges(v, "read")
    assert sorted(got) == sorted(want + [(7777, {"n": 1})])
    ids, _ = columnar.edges(v, "read", ids_only=True)
    assert sorted(ids) == sorted(dst for dst, _ in got)
    want_all, _ = grouped.all_edges(v)
    got_all, _ = columnar.all_edges(v)
    assert len(got_all) == len(want_all) + 1


def test_engines_correct_on_columnar_layout(metadata_graph):
    graph, ids = metadata_graph
    q = GTravel.v(ids["users"][0]).e("run").e("hasExecutions").e("read", "write")
    assert_engines_match_oracle(graph, q, edge_layout="columnar")
