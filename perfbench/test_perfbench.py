"""Tests for the benchmark's own code. Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

import pytest

import run
from clock import RefClock
from stats import failed_frac, latency_samples, quantile, tail_percentile, timing
from tracer import SpanRecorder
from workloads import SIZES, Deck, make_inputs


def _span(rec: SpanRecorder, nid: int, start: float, end: float, parent: int) -> int:
    rec.name_ix.append(nid)
    rec.start.append(start)
    rec.end.append(end)
    rec.parent.append(parent)
    return len(rec) - 1


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder()
    a, b, c = rec.register("A.f", "a"), rec.register("B.g", "b"), rec.register("C.h", "c")
    root = _span(rec, a, 0.0, 10.0, -1)
    child = _span(rec, b, 1.0, 5.0, root)
    _span(rec, c, 2.0, 3.0, child)
    _span(rec, c, 6.0, 7.0, root)
    assert list(rec.self_times()) == pytest.approx([8.0 - 3.0, 3.0, 1.0, 1.0])
    assert rec.layer_self_times() == pytest.approx({"a": 5.0, "b": 3.0, "c": 2.0})
    assert rec.root_time() == pytest.approx(10.0)
    assert sum(rec.layer_self_times().values()) == pytest.approx(rec.root_time())


def test_wrapped_calls_nest_and_self_times_cover_the_root():
    rec = SpanRecorder()

    def inner(x):
        return sum(range(x))

    traced_inner = rec.wrap(inner, "Inner.f", "inner")

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    traced_outer = rec.wrap(outer, "Outer.f", "outer")
    assert traced_outer(1000) == 2 * sum(range(1000))
    assert len(rec) == 0  # recording is off by default
    rec.on = True
    traced_outer(1000)
    rec.on = False
    assert list(rec.parent) == [-1, 0, 0]
    assert rec.count("Inner.f") == 2
    total = sum(rec.layer_self_times().values())
    assert total == pytest.approx(rec.root_time(), rel=1e-12)
    assert all(t >= 0 for t in rec.self_times())


def test_span_check_catches_open_spans_and_children_outside_their_parent():
    rec = SpanRecorder()
    a = rec.register("A.f", "a")
    root = _span(rec, a, 0.0, 10.0, -1)
    _span(rec, a, 1.0, 4.0, root)
    rec.check()
    _span(rec, a, 5.0, 0.0, root)  # never closed: end stays 0.0
    with pytest.raises(ValueError, match="end before"):
        rec.check()
    rec.end[2] = 11.0  # outlasts the root
    with pytest.raises(ValueError, match="outlast"):
        rec.check()
    rec.clear()
    root = _span(rec, a, 0.0, 10.0, -1)
    _span(rec, a, 0.0, 6.0, root)
    _span(rec, a, 4.0, 10.0, root)  # overlapping siblings: 12 s of children
    with pytest.raises(ValueError, match="add up"):
        rec.check()


def test_write_batches_add_a_mean_sized_user_and_only_edges_from_new_vertices():
    inputs = make_inputs("metadata_mixed", 4, SIZES["tiny"])
    old = set(inputs.graph.vertex_ids())
    batches = inputs.mixed.writer.take(3)
    assert inputs.mixed.writer.take(2) == batches[:2]  # generated once
    for ops in batches:
        new = {op[1] for op in ops if op[0] == "v"}
        assert not new & old
        assert ops[0][2] == "User"
        assert sum(1 for op in ops if op[0] == "v" and op[2] == "Job") == 12
        edges = [op for op in ops if op[0] == "e"]
        assert edges and all(op[1] in new for op in edges)
        old |= new


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99))) is None
    assert tail_percentile(list(range(1, 101))) == (0.9, 90)
    assert tail_percentile(list(range(999)))[0] == 0.9
    assert tail_percentile(list(range(1000)))[0] == 0.99
    assert tail_percentile(list(range(10000)))[0] == 0.999
    summary = timing([1.0] * 150, "s")
    assert summary["n"] == 150 and summary["p50"] == 1.0 and "p90" in summary
    assert "p90" not in timing([1.0] * 50, "s")


def test_failures_count_against_attempts_and_as_infinite_latency():
    assert failed_frac(10, 2) == 0.2
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    samples = latency_samples([0.1, 0.2], failed=3)
    assert samples.count(math.inf) == 3
    assert quantile(samples, 0.5) == math.inf
    assert quantile(latency_samples([0.1, 0.2, 0.3], failed=1), 0.5) == 0.2


def test_deck_gives_every_item_once_per_pass_and_refills_from_its_source():
    items = [1, 2, 3]
    deck = Deck(random.Random(1), lambda: items)
    assert sorted(deck.draw() for _ in range(3)) == [1, 2, 3]
    items.append(4)
    assert sorted(deck.draw() for _ in range(4)) == [1, 2, 3, 4]


def test_ref_clock_excludes_probe_time_and_plain_clock_reads_wall():
    clock = RefClock()
    spent, before = clock.probe_s, clock.now()
    clock.probe()
    assert clock.now() - before < (clock.probe_s - spent) / 2  # probe not counted
    assert clock.factor > 0 and len(clock.factors) == 2
    assert clock.timed(lambda: 7)[0] == 7
    plain = RefClock(probe_every=None)
    start, wall = plain.now(), time.perf_counter()
    time.sleep(0.01)
    assert plain.now() - start == pytest.approx(time.perf_counter() - wall, abs=2e-3)
    assert plain.factors == []


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _main(capsys, *args) -> tuple[int, dict, str]:
    code = run.main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_prints_every_metric_with_its_unit(
    workload, trace, capsys, monkeypatch, tmp_path
):
    monkeypatch.setattr(run, "STATE_DIR", tmp_path)
    code, result, out = _main(capsys, "--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == {name for name, _ in names}
    for name, unit in names:
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(result["metrics"][name]["value"])
        assert any(name in line and line.endswith(unit) for line in out.splitlines())
    report = json.loads(out.strip().splitlines()[-2])
    assert set(report["host"]) == {"git_sha", "code", "python", "numpy", "nproc", "traced"}
    assert report["host"]["traced"] is (trace == "1")


def test_digest_mismatch_between_runs_of_one_seed_fails(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "STATE_DIR", tmp_path)
    args = ("--workload", "table3_sync", "--seed", "5", "--seconds", "1", "--size", "tiny")
    assert _main(capsys, *args)[0] == 0
    assert _main(capsys, *args)[0] == 0  # same seed reproduces
    (state,) = tmp_path.glob("*.json")
    doc = json.loads(state.read_text())
    doc["records"][0][2] = "0" * 16
    state.write_text(json.dumps(doc))
    code, result, _ = _main(capsys, *args)
    assert code == 1 and result["correct"] is False


def test_wrong_answer_fails(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "STATE_DIR", tmp_path)
    real_run = run.ReferenceEngine.run

    def off_by_one(self, plan, travel_id=0):
        result = real_run(self, plan, travel_id)
        levels = dict(result.returned)
        last = max(levels)
        levels[last] = levels[last] | {-1}
        return type(result)(result.travel_id, levels, result.aggregate)

    monkeypatch.setattr(run.ReferenceEngine, "run", off_by_one)
    code, result, _ = _main(capsys, "--workload", "rmat8_cold", "--seed", "2",
                            "--seconds", "1", "--size", "tiny")
    assert code == 1 and result["correct"] is False


def test_closed_loop_runs_compare_only_what_finished_before_the_earlier_stop():
    a = [[0, 0.1, "x"], [1, 0.2, "y"], [2, 0.35, "z"]]
    b = [[0, 0.1, "x"], [1, 0.2, "y"], [2, 0.31, "w"]]
    run.compare_records(a, b, True, 0.3, 0.25)  # record 2 finished after both stops
    with pytest.raises(run.CheckFailed):
        run.compare_records(a, b, True, 0.4, 0.4)
    with pytest.raises(run.CheckFailed):
        run.compare_records(a, b, False, 0.0, 0.0)  # one at a time: common prefix
