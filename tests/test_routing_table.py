"""Unit tests for the versioned routing table: the single source of truth
for vertex ownership during an online shard migration."""

from __future__ import annotations

import random

import pytest

from repro.errors import RebalanceError, ReproError, StaleRoutingVersion
from repro.partition import HashEdgeCut
from repro.rebalance import RoutingTable


def make_table(nservers=3):
    # base partitioner: round-robin by vertex id
    return RoutingTable(lambda vid: vid % nservers, nservers)


# -- version monotonicity ------------------------------------------------------


def test_every_mutation_bumps_the_version_monotonically():
    t = make_table()
    versions = [t.version]
    versions.append(t.begin_dual([0, 3], src=0, dst=1))
    versions.append(t.cutover([0, 3], dst=1))
    versions.append(t.begin_dual([6], src=0, dst=2))
    versions.append(t.abort_dual([6]))
    assert versions == sorted(versions)
    assert len(set(versions)) == len(versions), "a mutation reused a version"
    assert t.version == versions[-1]


def test_restore_version_never_goes_backwards():
    t = make_table()
    t.begin_dual([0], src=0, dst=1)
    t.cutover([0], dst=1)
    high = t.version
    t.restore_version(high + 5)
    assert t.version == high + 6
    t.restore_version(0)  # stale floor: no-op
    assert t.version == high + 6


def test_crash_then_restore_stays_past_journaled_high_water():
    """The crash-consistency invariant: replaying a journal whose records
    carry version ``v`` must leave the live table strictly above ``v``, so
    any in-flight step stamped pre-crash is fenced, never applied."""
    t = make_table()
    t.begin_dual([0, 3], src=0, dst=1)
    journaled = t.cutover([0, 3], dst=1)
    t.on_coordinator_crash()
    assert t.dual_count == 0 and t.override_count == 0
    t.apply_override([0, 3], dst=1)  # recovery: no bump
    t.restore_version(journaled)
    assert t.version > journaled
    assert t.owner(0) == 1 and t.owner(3) == 1


# -- stale-version fencing -----------------------------------------------------


def test_require_current_fences_stale_and_future_versions():
    t = make_table()
    good = t.version
    t.require_current(good)  # no raise
    t.begin_dual([0], src=0, dst=1)
    with pytest.raises(StaleRoutingVersion) as excinfo:
        t.require_current(good, what="chunk apply")
    err = excinfo.value
    assert isinstance(err, RebalanceError) and isinstance(err, ReproError)
    assert err.expected == t.version and err.got == good
    assert "chunk apply" in str(err)


# -- double routing ------------------------------------------------------------


def test_dual_window_routes_to_both_with_source_primary():
    t = make_table()
    assert t.owners(3) == (0,)
    t.begin_dual([3], src=0, dst=2)
    assert t.owners(3) == (0, 2), "dual window must dispatch to both owners"
    assert t.owner(3) == 0, "source stays primary until cutover"
    t.cutover([3], dst=2)
    assert t.owners(3) == (2,)
    assert t.owner(3) == 2


def test_abort_dual_reverts_to_pre_window_ownership():
    t = make_table()
    t.begin_dual([0, 3], src=0, dst=1)
    t.cutover([0, 3], dst=1)
    # second hop: 1 -> 2, aborted
    t.begin_dual([0], src=1, dst=2)
    assert t.owners(0) == (1, 2)
    t.abort_dual([0])
    assert t.owners(0) == (1,), "abort must revert to the committed owner"
    assert t.owner(3) == 1, "unrelated override untouched"


def test_cutover_back_to_base_owner_clears_the_override():
    t = make_table()
    t.begin_dual([3], src=0, dst=1)
    t.cutover([3], dst=1)
    assert t.override_count == 1
    t.begin_dual([3], src=1, dst=0)
    t.cutover([3], dst=0)  # home again: base_owner(3) == 0
    assert t.override_count == 0, "an override matching the base is noise"
    assert t.owner(3) == 0


# -- admission validation ------------------------------------------------------


def test_begin_dual_rejects_bad_moves():
    t = make_table()
    with pytest.raises(RebalanceError, match="source and target"):
        t.begin_dual([0], src=1, dst=1)
    with pytest.raises(RebalanceError, match="out of range"):
        t.begin_dual([0], src=0, dst=7)
    with pytest.raises(RebalanceError, match="owned by server"):
        t.begin_dual([1], src=0, dst=2)  # vertex 1 belongs to server 1
    t.begin_dual([0], src=0, dst=1)
    with pytest.raises(RebalanceError, match="already migrating"):
        t.begin_dual([0], src=0, dst=2)
    # failed admissions must not have half-opened a window
    assert t.dual_count == 1


def test_cutover_requires_a_matching_window():
    t = make_table()
    with pytest.raises(RebalanceError, match="no double-routing window"):
        t.cutover([0], dst=1)
    t.begin_dual([0], src=0, dst=1)
    with pytest.raises(RebalanceError, match="no double-routing window"):
        t.cutover([0], dst=2)  # window targets 1, not 2
    assert t.owners(0) == (0, 1), "failed cutover left the window intact"


# -- the fast path against a memo-free reference ------------------------------
#
# ``owner`` answers from a memo of base owners whenever no override and no
# double-routing window exists. Seeded random sequences of every ownership
# mutation must leave ``owner()`` and ``owners()`` equal, for every vertex
# and after every step, to a reference that recomputes each answer from the
# base partitioner.

NSERVERS = 4
VIDS = range(48)


class SlowRouting:
    """The ownership rules written out, no fast path and no memo."""

    def __init__(self, base):
        self.base = base
        self.overrides: dict[int, int] = {}
        self.dual: dict[int, tuple[int, int]] = {}

    def owner(self, vid):
        if vid in self.dual:
            return self.dual[vid][0]
        if vid in self.overrides:
            return self.overrides[vid]
        return self.base(vid)

    def owners(self, vid):
        return self.dual[vid] if vid in self.dual else (self.owner(vid),)

    def begin_dual(self, vids, src, dst):
        if src == dst or any(v in self.dual or self.owner(v) != src for v in vids):
            raise RebalanceError("rejected")
        for v in vids:
            self.dual[v] = (src, dst)

    def cutover(self, vids, dst):
        if any(v not in self.dual or self.dual[v][1] != dst for v in vids):
            raise RebalanceError("rejected")
        self.apply_override(vids, dst)

    def abort_dual(self, vids):
        for v in vids:
            self.dual.pop(v, None)

    def apply_override(self, vids, dst):
        for v in vids:
            self.dual.pop(v, None)
            if self.base(v) == dst:
                self.overrides.pop(v, None)
            else:
                self.overrides[v] = dst

    def on_coordinator_crash(self):
        self.overrides.clear()
        self.dual.clear()


def _random_op(rng: random.Random, table: RoutingTable, slow: SlowRouting):
    """One mutation, valid most of the time; invalid ones must be rejected
    by both sides alike."""
    kind = rng.choice(
        ("begin_dual", "begin_dual", "cutover", "cutover", "abort_dual",
         "apply_override", "on_coordinator_crash", "restore_version")
    )
    vids = rng.sample(VIDS, rng.randint(1, 4))
    if kind == "begin_dual":
        src = slow.owner(vids[0]) if rng.random() < 0.8 else rng.randrange(NSERVERS)
        dst = rng.randrange(NSERVERS)
        return kind, (vids, src, dst)
    if kind == "cutover":
        if slow.dual and rng.random() < 0.8:
            vid = rng.choice(sorted(slow.dual))
            dst = slow.dual[vid][1]
            vids = [v for v in sorted(slow.dual) if slow.dual[v][1] == dst]
            vids = vids[: rng.randint(1, len(vids))]
        else:
            dst = rng.randrange(NSERVERS)
        return kind, (vids, dst)
    if kind == "abort_dual":
        if slow.dual and rng.random() < 0.8:
            vids = rng.sample(sorted(slow.dual), min(len(slow.dual), 3))
        return kind, (vids,)
    if kind == "apply_override":
        return kind, (vids, rng.randrange(NSERVERS))
    if kind == "restore_version":
        return kind, (table.version + rng.randint(-3, 3),)
    return kind, ()


@pytest.mark.parametrize("seed", range(12))
def test_fast_path_matches_slow_reference(seed):
    rng = random.Random(seed)
    base = HashEdgeCut(NSERVERS, salt=seed).owner
    table = RoutingTable(base, NSERVERS)
    slow = SlowRouting(base)
    version = table.version
    for step in range(200):
        kind, args = _random_op(rng, table, slow)
        table_error = slow_error = None
        try:
            getattr(table, kind)(*args)
        except RebalanceError as exc:
            table_error = exc
        if kind != "restore_version":
            try:
                getattr(slow, kind)(*args)
            except RebalanceError as exc:
                slow_error = exc
        assert (table_error is None) == (slow_error is None), (step, kind, args)
        assert table.version >= version, "routing versions went backwards"
        version = table.version
        for vid in VIDS:
            assert table.owner(vid) == slow.owner(vid), (step, kind, vid)
            assert table.owners(vid) == slow.owners(vid), (step, kind, vid)
        assert table.dual_count == len(slow.dual)
        assert table.overrides_snapshot() == slow.overrides


def test_memo_holds_only_base_owners():
    """Overrides and dual windows never leak into the base-owner memo: once
    they are gone, every vertex routes to its hash owner again."""
    base = HashEdgeCut(NSERVERS).owner
    table = RoutingTable(base, NSERVERS)
    assert [table.owner(v) for v in VIDS] == [base(v) for v in VIDS]
    vid = 7
    src = base(vid)
    dst = (src + 1) % NSERVERS
    table.begin_dual([vid], src, dst)
    assert table.owners(vid) == (src, dst)
    table.cutover([vid], dst)
    assert table.owner(vid) == dst
    table.on_coordinator_crash()
    assert [table.owner(v) for v in VIDS] == [base(v) for v in VIDS]
