"""Batch-vectorized frontier expansion (DESIGN.md §16).

:class:`BatchFrontier` is the one expansion operator of the async and sync
engines. GRAPHITE's block-at-a-time traversal operator shows the win of
moving whole frontiers: decode adjacency once, then filter and dedup with
set operations, instead of re-reading the step descriptor and merging
destinations one ``merge_entry`` call at a time per vertex.

The engine keeps its per-vertex I/O loop — disk costs, cache lookups, and
visit accounting are per-vertex facts — and feeds each surviving vertex's
:class:`~repro.engine.visit.VisitData` into the frontier of its level; every
frontier of a unit expands in one pass at the unit's end.

Anchors (:mod:`repro.engine.frontier`): plans without intermediate
``rtn()`` carry ``EMPTY_ANCHORS`` everywhere, so per-destination anchor
merging degenerates to set union and a level's destinations move as one
``dict.fromkeys`` insert per owner. Plans with intermediate returns carry
each survivor's anchor tuple (extended by the vertex itself at an rtn
level) and union it per destination with ``merge_entry``.

The per-vertex statement of these semantics is
:func:`~repro.engine.visit.expand_vertex`; equivalence with it and with the
reference oracle is enforced by ``tests/test_batch_frontier_equivalence.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.engine.frontier import EMPTY_ANCHORS, extend_anchors, merge_entries, merge_entry
from repro.engine.visit import ExpandSinks, VisitData, filters_at
from repro.ids import ServerId, VertexId
from repro.lang.filters import FilterSet
from repro.lang.plan import TraversalPlan
from repro.net.message import Anchors, Entries


class BatchFrontier:
    """One work unit's surviving vertices at one level, expanded in a
    single pass.

    Usage: construct per (plan, level) of a unit, :meth:`add` every vertex
    whose disk data is in hand (the method applies the level's vertex
    filters and reports whether the vertex survived), then :meth:`expand`
    once to produce next-level entries / final results / completed anchors
    into an :class:`~repro.engine.visit.ExpandSinks`.
    """

    def __init__(
        self,
        plan: TraversalPlan,
        level: int,
        rtn_levels: tuple[int, ...],
        level0_override: Optional[FilterSet] = None,
    ):
        self.plan = plan
        self.level = level
        self.rtn_levels = rtn_levels
        # hoisted once per unit instead of once per vertex
        self.vfilters = filters_at(plan, level, level0_override)
        self._extends = level in rtn_levels
        #: vertices that passed the level's vertex filters
        self.width = 0
        self._survivors: list[tuple[VertexId, Anchors, VisitData, Optional[str]]] = []

    def add(
        self,
        vid: VertexId,
        anchors: Anchors,
        data: VisitData,
        vertex_type: Optional[str],
    ) -> bool:
        """Admit one visited vertex; False when the vertex filter rejects it."""
        if self.vfilters:
            props = dict(data.props) if data.props is not None else {}
            if vertex_type is not None:
                props.setdefault("type", vertex_type)
            if not self.vfilters.matches(props):
                return False
        if self._extends:
            anchors = extend_anchors(anchors, vid)
        self._survivors.append((vid, anchors, data, vertex_type))
        self.width += 1
        return True

    def expand(
        self, owner_fn: Callable[[VertexId], ServerId], sinks: ExpandSinks
    ) -> None:
        """Expand every admitted vertex into ``sinks`` in one batch pass."""
        plan, level = self.plan, self.level
        if level == plan.final_level:
            self._expand_final(owner_fn, sinks)
            return
        step = plan.steps[level]
        next_level = level + 1
        efilters = step.edge_filters
        survivors = self._survivors
        if self.rtn_levels:
            dests: Entries = {}
            for _, anchors, data, _ in survivors:
                for label in step.labels:
                    for dst, eprops in data.edges.get(label, ()):
                        if not efilters or efilters.matches(eprops):
                            merge_entry(dests, dst, anchors)
                    for dst in data.ids.get(label, ()):
                        merge_entry(dests, dst, anchors)
        else:
            dsts: set[VertexId] = set()
            for label in step.labels:
                for _, _, data, _ in survivors:
                    ids = data.ids.get(label)
                    if ids:
                        dsts.update(ids)
                    pairs = data.edges.get(label)
                    if pairs:
                        dsts.update(
                            dst for dst, eprops in pairs
                            if not efilters or efilters.matches(eprops)
                        )
            # planner annotation: a filter-free final step needs no
            # dispatch — the sender records destinations directly (the
            # planner sets it only for plans without intermediate rtn)
            if plan.short_circuit_final and next_level == plan.final_level:
                sinks.final_results.update(dsts)
                return
            dests = dict.fromkeys(dsts, EMPTY_ANCHORS)
        by_owner: dict[ServerId, Entries] = {}
        for dst, anchors in dests.items():
            owner = owner_fn(dst)
            group = by_owner.get(owner)
            if group is None:
                group = by_owner[owner] = {}
            group[dst] = anchors
        for owner, group in by_owner.items():
            bucket = sinks.out.get((next_level, owner))
            if bucket is None:
                sinks.out[(next_level, owner)] = group
            else:
                merge_entries(bucket, group)

    def _expand_final(
        self, owner_fn: Callable[[VertexId], ServerId], sinks: ExpandSinks
    ) -> None:
        plan = self.plan
        survivors = self._survivors
        if plan.final_level in plan.return_levels:
            sinks.final_results.update(vid for vid, _, _, _ in survivors)
            agg = plan.aggregate
            if agg is not None and agg.needs_keys:
                if agg.needs_props:
                    for vid, _, data, _ in survivors:
                        props: dict[str, Any] = (
                            dict(data.props) if data.props is not None else {}
                        )
                        sinks.final_groups[vid] = props.get(agg.by)
                else:
                    for vid, _, _, vertex_type in survivors:
                        sinks.final_groups[vid] = vertex_type
        for i, rtn_level in enumerate(self.rtn_levels):
            completed: set[VertexId] = set()
            for _, anchors, _, _ in survivors:
                completed.update(anchors[i])
            for anchor in completed:
                sinks.anchors_by_owner.setdefault(
                    (rtn_level, owner_fn(anchor)), set()
                ).add(anchor)
