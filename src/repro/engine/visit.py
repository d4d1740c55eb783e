"""Shared per-vertex visit logic: disk-cost assembly and expansion semantics.

Both engines read every vertex through :func:`read_vertex` and expand whole
work units through :class:`~repro.engine.batch.BatchFrontier`.
:func:`expand_vertex` is the per-vertex statement of the expansion
semantics (filters, anchors, returns) the batch operator must reproduce;
the equivalence suite checks the two against each other and against the
reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.engine.frontier import extend_anchors, merge_entry
from repro.ids import ServerId, VertexId
from repro.lang.filters import FilterSet
from repro.lang.plan import TraversalPlan
from repro.net.message import Anchors, Entries
from repro.storage.costmodel import IOCost
from repro.storage.layout import GraphStore

#: edges grouped by label: label -> [(dst, props), ...]
EdgesByLabel = dict[str, list[tuple[VertexId, dict[str, Any]]]]


@dataclass
class VisitData:
    """What one disk access to a vertex yielded."""

    props: Optional[dict[str, Any]]  # None when no filter needed attributes
    edges: EdgesByLabel
    cost: IOCost
    #: neighbor ids by label, filled instead of ``edges`` for the labels of
    #: a read that needed no edge property (``read_vertex(edge_props=False)``)
    ids: dict[str, Sequence[VertexId]] = field(default_factory=dict)


@dataclass
class ExpandSinks:
    """Accumulators one request-processing pass writes into."""

    #: (next level, owner server) -> entries to dispatch
    out: dict[tuple[int, ServerId], Entries] = field(default_factory=dict)
    #: final-level vertices to return (when the final level is returned)
    final_results: set[VertexId] = field(default_factory=set)
    #: (rtn level, owner server) -> anchors that completed a path
    anchors_by_owner: dict[tuple[int, ServerId], set[VertexId]] = field(
        default_factory=dict
    )
    #: final-level vertex -> group key (only for ``group_count`` plans)
    final_groups: dict[VertexId, Any] = field(default_factory=dict)


def labels_needed(plan: TraversalPlan, levels: list[int]) -> set[str]:
    """Edge labels a combined visit at these levels must scan."""
    labels: set[str] = set()
    for lvl in levels:
        if lvl < plan.final_level:
            labels.update(plan.steps[lvl].labels)
    return labels


def edge_props_needed(plan: TraversalPlan, levels: list[int]) -> bool:
    """True if expanding any of these levels filters on edge properties."""
    return any(
        lvl < plan.final_level and plan.steps[lvl].edge_filters for lvl in levels
    )


def filters_at(
    plan: TraversalPlan, level: int, level0_override: Optional[FilterSet]
) -> FilterSet:
    """Vertex filters applied to a vertex arriving at ``level``."""
    if level == 0:
        return level0_override if level0_override is not None else plan.source_filters
    return plan.steps[level - 1].vertex_filters


def fs_needs_props(fs: FilterSet) -> bool:
    """True if evaluating ``fs`` needs the attribute block: the vertex type
    is known from the location index, so a type-only filter set does not."""
    return any(f.key != "type" for f in fs.filters)


def needs_props(
    plan: TraversalPlan, levels: list[int], level0_override: Optional[FilterSet]
) -> bool:
    agg = plan.aggregate
    if agg is not None and agg.needs_props and plan.final_level in levels:
        # a property-keyed group_count reads the attribute block at the
        # final level to resolve each vertex's group key
        return True
    for lvl in levels:
        fs = filters_at(plan, lvl, level0_override)
        if not fs:
            continue
        if plan.pushdown and not fs_needs_props(fs):
            # planner annotation: elide the attribute scan when only the
            # key-encoded type is filtered (the expansion injects it)
            continue
        return True
    return False


def read_vertex(
    store: GraphStore,
    vid: VertexId,
    want_labels: set[str],
    want_props: bool,
    edge_preds: Optional[dict[str, FilterSet]] = None,
    edge_props: bool = True,
) -> VisitData:
    """Perform the (single) storage access for a visit.

    One label → one sequential edge scan; several labels → one scan over the
    vertex's whole edge block (the layout keeps all its edges adjacent), as
    execution merging requires. Attribute scan added only when filters need
    properties. ``edge_preds`` (label → edge FilterSet) pushes predicates
    into the storage scan — safe because the expansion re-applies every
    edge filter to whatever surfaces. ``edge_props=False`` (no edge
    filter at any visited level) reads single-label adjacency as bare
    neighbor ids into :attr:`VisitData.ids`.
    """
    cost = IOCost()
    props: Optional[dict[str, Any]] = None
    if want_props:
        props, c = store.vertex_props(vid)
        cost += c
    edges: EdgesByLabel = {}
    # Reverse (~label) adjacency lives in its own grouped key region, so it
    # is always read per label; forward labels keep the merged-scan path.
    rev_labels = sorted(l for l in want_labels if l.startswith("~"))
    fwd_labels = {l for l in want_labels if not l.startswith("~")}

    def _pred(label: str):
        if edge_preds:
            fs = edge_preds.get(label)
            if fs:
                return fs.matches
        return None

    ids: dict[str, Sequence[VertexId]] = {}

    def _read_label(label: str) -> IOCost:
        if edge_props:
            edges[label], c = store.edges(vid, label, _pred(label))
        else:
            ids[label], c = store.edges(vid, label, ids_only=True)
        return c

    if len(fwd_labels) == 1:
        cost += _read_label(next(iter(fwd_labels)))
    elif fwd_labels:
        preds = None
        if edge_preds:
            preds = {l: fs.matches for l, fs in edge_preds.items() if fs} or None
        all_edges, c = store.all_edges(vid, preds)
        cost += c
        for label, dst, eprops in all_edges:
            if label in fwd_labels:
                edges.setdefault(label, []).append((dst, eprops))
        for label in fwd_labels:
            edges.setdefault(label, [])
    for label in rev_labels:
        cost += _read_label(label)
    return VisitData(props=props, edges=edges, cost=cost, ids=ids)


def expand_vertex(
    plan: TraversalPlan,
    level: int,
    vid: VertexId,
    anchors: Anchors,
    data: VisitData,
    owner_fn: Callable[[VertexId], ServerId],
    sinks: ExpandSinks,
    rtn_levels: tuple[int, ...],
    vertex_type: Optional[str],
    level0_override: Optional[FilterSet] = None,
) -> str:
    """Apply filters and produce next-level entries / returns for one
    (level, vertex, anchors) item whose disk data is already in hand.

    Returns one of ``"filtered"``, ``"final"``, ``"expanded"`` for metrics.
    """
    vfilters = filters_at(plan, level, level0_override)
    if vfilters:
        props = dict(data.props) if data.props is not None else {}
        if vertex_type is not None:
            props.setdefault("type", vertex_type)
        if not vfilters.matches(props):
            return "filtered"
    if level in rtn_levels:
        anchors = extend_anchors(anchors, vid)
    if level == plan.final_level:
        if plan.final_level in plan.return_levels:
            sinks.final_results.add(vid)
            agg = plan.aggregate
            if agg is not None and agg.needs_keys:
                if agg.needs_props:
                    props = dict(data.props) if data.props is not None else {}
                    sinks.final_groups[vid] = props.get(agg.by)
                else:
                    sinks.final_groups[vid] = vertex_type
        for i, rtn_level in enumerate(rtn_levels):
            for anchor in anchors[i]:
                sinks.anchors_by_owner.setdefault(
                    (rtn_level, owner_fn(anchor)), set()
                ).add(anchor)
        return "final"
    step = plan.steps[level]
    next_level = level + 1
    # planner annotation: a filter-free final step needs no dispatch — the
    # sender records destinations directly (legal because the planner only
    # sets the flag when the final step has no vertex filters and no
    # intermediate rtn marks compete for the anchors machinery)
    short_circuit = plan.short_circuit_final and next_level == plan.final_level
    for label in step.labels:
        dsts = [
            dst
            for dst, eprops in data.edges.get(label, ())
            if not step.edge_filters or step.edge_filters.matches(eprops)
        ]
        dsts.extend(data.ids.get(label, ()))  # read without edge props
        for dst in dsts:
            if short_circuit:
                sinks.final_results.add(dst)
                continue
            bucket = sinks.out.setdefault((next_level, owner_fn(dst)), {})
            merge_entry(bucket, dst, anchors)
    return "expanded"
