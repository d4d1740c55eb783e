"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload rmat8_cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs the workload untraced for half of ``--seconds``, then replays exactly
the same work on a fresh cluster with layer spans recorded (see
``tracer.py``) and prints the per-layer split plus the tracing overhead.

Every traversal is checked against ``ReferenceEngine`` after the measured
region, and the per-traversal result digests are compared with those of
earlier runs of the same seed and the same code (kept under
``.perfbench_runs/``, keyed by :func:`code_identity`). A wrong
answer or a digest mismatch exits with status 1. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``; the line before it is the full report.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import ReferenceEngine  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

from clock import RefClock  # noqa: E402
from stats import failed_frac, latency_samples, quantile, timing  # noqa: E402
from tracer import LAYERS, LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    SIZES,
    WORKLOADS,
    build_cluster,
    make_inputs,
    run_workload,
    work_for,
)

#: (name, unit) printed with --trace 0, on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("travels_per_s", "1/s"),
    ("travel_wall_p50_s", "s"),
    ("virtual_p50_s", "s"),
    ("ingest_p50_us", "us"),
    ("ingest_p99_us", "us"),
    ("bytes_per_edge", "B"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) printed with --trace 1. Counts and self times are per
#: completed traversal of the traced replay; flushes, compactions and
#: memtable keys are end-of-run totals; load_s is one Cluster.build.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.self_s", "s"),
    ("runtime.messages", "count"),
    ("runtime.bytes", "B"),
    ("runtime.self_s", "s"),
    ("net.self_s", "s"),
    ("engine.real_visits", "count"),
    ("engine.combined_visits", "count"),
    ("engine.redundant_visits", "count"),
    ("engine.affiliate_hit_ratio", "ratio"),
    ("engine.visits_per_result", "ratio"),
    ("engine.queue_wait_virtual_p50_s", "s"),
    ("engine.self_s", "s"),
    ("storage.scans", "count"),
    ("storage.entries_scanned", "count"),
    ("storage.blockcache_hit_ratio", "ratio"),
    ("storage.scan_p50_us", "us"),
    ("storage.puts", "count"),
    ("storage.flushes", "count"),
    ("storage.compactions", "count"),
    ("storage.memtable_keys", "count"),
    ("storage.load_s", "s"),
    ("storage.self_s", "s"),
    ("routing.owner_calls", "count"),
    ("routing.self_s", "s"),
    ("lang.compile_calls", "count"),
    ("lang.self_s", "s"),
    ("sched.queue_wait_virtual_p90_s", "s"),
    ("sched.self_s", "s"),
    ("cluster.coord_messages", "count"),
    ("cluster.barrier_rounds", "count"),
    ("cluster.self_s", "s"),
    ("obs.metric_calls", "count"),
    ("obs.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.overhead", "ratio"),
)

STATE_DIR = ROOT / ".perfbench_runs"


class CheckFailed(Exception):
    """A wrong answer or a non-reproducible run."""


# -- host and helpers -------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def code_identity() -> str:
    """Hash of every ``.py`` file under ``src/`` and ``perfbench/``: runs of
    one seed are compared only when this matches, since a change to the
    program may move virtual times on purpose. Unlike the git sha it sees
    uncommitted changes and works in a checkout without ``.git``."""
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_stamp(traced: bool, code: str) -> dict:
    return {
        "git_sha": git_sha(),
        "code": code,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "traced": traced,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def store_totals(cluster) -> dict:
    """Storage counters summed over servers (GraphStore.metrics_snapshot)."""
    total: dict = {}
    for server in cluster.servers:
        for key, value in server.store.metrics_snapshot().items():
            total[key] = total.get(key, 0) + value
    return total


def memtable_state(cluster) -> dict:
    tables = [server.store.kv.memtable for server in cluster.servers]
    threshold = cluster.servers[0].store.kv.config.memtable_flush_bytes
    peak = max(t.size_bytes for t in tables)
    return {
        "keys": sum(len(t) for t in tables),
        "max_bytes_per_server": peak,
        "flush_threshold_bytes": threshold,
        "threshold_reached": peak >= threshold,
    }


def histogram_samples(cluster, name: str, label: str, values) -> list[float]:
    out: list[float] = []
    for value in values:
        hist = cluster.obs.metrics.histogram(name, **{label: value})
        if hist is not None:
            out.extend(hist.samples)
    return out


def data_per_server(cluster) -> dict:
    """Stored bytes per server against the block cache size."""
    sizes = [server.store.kv.approximate_bytes for server in cluster.servers]
    cache = cluster.config.block_cache_blocks * cluster.config.disk_model.block_size
    return {"max_data_bytes": max(sizes), "block_cache_bytes": cache,
            "fits_in_cache": max(sizes) <= cache}


# -- correctness --------------------------------------------------------------------


def check_oracle(graph, records, batches) -> None:
    """Every answer must equal ReferenceEngine's on the graph the cluster
    held; write batches only add vertices and their own out-edges, so the
    final mirror gives each query's answer at submission."""
    for ops in batches:
        for op in ops:
            if op[0] == "v":
                graph.add_vertex(op[1], op[2], op[3])
            else:
                graph.add_edge(op[1], op[2], op[3], op[4])
    oracle = ReferenceEngine(graph)
    for rec in records:
        if rec.failed:
            continue
        expected = oracle.run(rec.query.compile())
        if not rec.result.same_result(expected):
            raise CheckFailed(f"traversal {rec.seq} ({rec.kind}) differs from ReferenceEngine")


def digest_of(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.digest().encode())
    return h.hexdigest()[:16]


def compare_records(a, b, mixed: bool, stop_a: float, stop_b: float) -> None:
    """Records two runs of one seed must share must be identical: the
    common prefix (one at a time), or everything finished by the earlier
    stop (closed loop; later completions depend on when the run stopped)."""
    if mixed:
        stop = min(stop_a, stop_b)
        a = [r for r in a if r[1] <= stop]
        b = [r for r in b if r[1] <= stop]
    n = min(len(a), len(b))
    if mixed and len(a) != len(b):
        raise CheckFailed(f"runs finished {len(a)} vs {len(b)} traversals by t={stop!r}")
    for ra, rb in zip(a[:n], b[:n]):
        if ra != rb:
            raise CheckFailed(f"traversal {ra[0]} digest differs between runs of one seed")


def check_against_earlier(key: str, log, mixed: bool) -> None:
    rows = [[r.seq, r.done_v, r.digest()] for r in log.records]
    path = STATE_DIR / f"{key}.json"
    if path.exists():
        old = json.loads(path.read_text())
        compare_records(old["records"], rows, mixed, old["stop_v"], log.stop_v)
        if (old["stop_v"], len(old["records"])) >= (log.stop_v, len(rows)):
            return
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"stop_v": log.stop_v, "records": rows}))
    tmp.replace(path)


def check_replay(untraced, traced, mixed: bool) -> None:
    rows_u = [[r.seq, r.done_v, r.digest()] for r in untraced.records]
    rows_t = [[r.seq, r.done_v, r.digest()] for r in traced.records]
    if len(rows_u) != len(rows_t):
        raise CheckFailed("traced replay finished a different number of traversals")
    compare_records(rows_u, rows_t, mixed, untraced.stop_v, traced.stop_v)


# -- runs -------------------------------------------------------------------------


def end_to_end(inputs, size, work: int) -> tuple[dict, dict, object]:
    clock = RefClock()
    setup = []
    cluster = None
    for _ in range(size.builds):
        cluster = None
        gc.collect()
        cluster, build_s = clock.timed(lambda: build_cluster(inputs))
        setup.append(build_s)
    placement = data_per_server(cluster)
    # the one-at-a-time workloads time their ingest probe on a second cluster
    probe_cluster = build_cluster(inputs) if inputs.mixed is None else None
    gc.collect()
    wall0 = time.perf_counter()
    log = run_workload(cluster, inputs, clock, work, probe_cluster)
    wall = time.perf_counter() - wall0
    done = [r for r in log.records if not r.failed]
    failed = len(log.records) - len(done)
    store = store_totals(cluster)
    virtual = latency_samples([r.virtual_s for r in done], failed)
    values = {
        "setup_s": statistics.median(setup),
        "travels_per_s": len(done) / log.wall_s,
        "travel_wall_p50_s": quantile([r.wall_s for r in done], 0.5),
        "virtual_p50_s": quantile(virtual, 0.5),
        "ingest_p50_us": quantile(log.ingest_us, 0.5),
        "ingest_p99_us": quantile(log.ingest_us, 0.99),
        "bytes_per_edge": store["edge_bytes"] / store["edge_count"],
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "setup_s": {"unit": "s", "samples": setup},
        "travels_per_s": {"unit": "1/s", "completed": len(done), "wall_s": log.wall_s},
        "travel_wall_s": timing([r.wall_s for r in done], "s"),
        "virtual_s": timing(virtual, "s"),
        "failed_frac": {"unit": "ratio", "value": failed_frac(len(log.records), failed),
                        "attempted": len(log.records)},
        "ingest_us": timing(log.ingest_us, "us"),
        "placement": placement,
        "memtable": memtable_state(cluster),
        "storage_flushes": store["lsm.flushes"],
        "write_batches_begun": len(log.batches),
        "write_ops_landed": sum(len(ops) for ops in log.batches),
        "clock": {"mean_speed_factor": clock.mean_factor(), "probes": len(clock.factors),
                  "probe_s": clock.probe_s, "raw_wall_s": wall},
    }
    return values, report, log


def per_layer(inputs, work: int) -> tuple[dict, dict, object]:
    # The same work twice, untraced then traced, each on a fresh cluster.
    # Both halves read plain wall time: a speed probe inside the traced half
    # would land in no layer.
    clock = RefClock(probe_every=None)
    cluster = build_cluster(inputs)
    gc.collect()
    t0 = time.perf_counter()
    log_u = run_workload(cluster, inputs, clock, work)
    wall_u = time.perf_counter() - t0
    cluster = None
    gc.collect()

    tracer = LayerTracer()
    rec = tracer.recorder
    with tracer:
        rec.on = True
        cluster = build_cluster(inputs)
        rec.on = False
        load_s = float(rec.durations_of("GraphStore.load_partition").sum())
        rec.clear()
        runtime = cluster.runtime
        msgs0, bytes0 = runtime.messages_sent, runtime.bytes_sent
        store0 = store_totals(cluster)
        gc.collect()
        rec.on = True
        t0 = time.perf_counter()
        log_t = run_workload(cluster, inputs, clock, work)
        wall_t = time.perf_counter() - t0
        rec.on = False
    check_replay(log_u, log_t, inputs.mixed is not None)

    done = [r for r in log_t.records if not r.failed]
    n = max(1, len(done))
    store = store_totals(cluster)
    delta = {k: store[k] - store0.get(k, 0) for k in store}
    self_s = rec.layer_self_times()
    other = wall_t - rec.root_time()
    stats = log_t.stats
    real = sum(s.real_io_visits for s in stats)
    combined = sum(s.combined_visits for s in stats)
    redundant = sum(s.redundant_visits for s in stats)
    visits = real + combined + redundant
    results = sum(len(r.result.vertices) for r in done)
    hits, misses = delta["blockcache.hits"], delta["blockcache.misses"]
    nservers = len(cluster.servers)
    engine_wait = histogram_samples(cluster, "engine.queue_wait_seconds", "server",
                                    range(nservers))
    sched_wait = histogram_samples(cluster, "sched.wait_seconds", "tenant",
                                   ("default", "interactive", "batch"))
    scans_us = rec.durations_of("LSMStore.scan") * 1e6
    mem = memtable_state(cluster)
    values = {
        "sim.events": rec.count("Simulator.schedule") / n,
        "runtime.messages": (runtime.messages_sent - msgs0) / n,
        "runtime.bytes": (runtime.bytes_sent - bytes0) / n,
        "engine.real_visits": real / n,
        "engine.combined_visits": combined / n,
        "engine.redundant_visits": redundant / n,
        "engine.affiliate_hit_ratio": redundant / visits if visits else 0.0,
        "engine.visits_per_result": visits / results if results else 0.0,
        "engine.queue_wait_virtual_p50_s": _or0(quantile(engine_wait, 0.5)),
        "storage.scans": delta["lsm.scans"] / n,
        "storage.entries_scanned": delta["lsm.entries_scanned"] / n,
        "storage.blockcache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "storage.scan_p50_us": _or0(quantile(list(scans_us), 0.5)),
        "storage.puts": delta["lsm.puts"] / n,
        "storage.flushes": delta["lsm.flushes"],
        "storage.compactions": delta["lsm.compactions"],
        "storage.memtable_keys": mem["keys"],
        "storage.load_s": load_s,
        "routing.owner_calls": rec.count("RoutingTable.owner") / n,
        "lang.compile_calls": rec.count("GTravel.compile") / n,
        "sched.queue_wait_virtual_p90_s": _or0(quantile(sched_wait, 0.9)),
        "cluster.coord_messages": rec.count("Coordinator.on_message") / n,
        "cluster.barrier_rounds": sum(s.barrier_rounds for s in stats) / n,
        "obs.metric_calls": rec.count(
            "MetricsRegistry.count", "MetricsRegistry.observe", "MetricsRegistry.set_gauge"
        ) / n,
        "other.self_s": other / n,
        "trace.overhead": wall_t / wall_u,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer] / n
    try:
        rec.check()
    except ValueError as err:
        raise CheckFailed(f"layer spans: {err}") from err
    if other < -1e-9:
        raise CheckFailed(f"layer spans cover {-other} s more than the traced wall time")
    report = {
        "traced_wall_s": wall_t,
        "covered_s": sum(self_s.values()) + other,
        "untraced_wall_s": wall_u,
        "traced_completed": len(done),
        "spans": len(rec),
        "self_s_total": {**self_s, "other": other},
        "engine_queue_wait_samples": len(engine_wait),
        "sched_queue_wait_samples": len(sched_wait),
        "storage_scan_samples": int(len(scans_us)),
        "memtable": mem,
        "attribution": "see perfbench/tracer.py: generator glue lands under sim; "
                       "unwrapped O(1) accessors land under their caller",
    }
    return values, report, log_t


def _or0(value: float) -> float:
    """Empty-sample quantiles (a layer the workload never enters) print 0."""
    return 0.0 if math.isnan(value) else value


# -- entry point --------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="input scale; 'tiny' is for the smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    size = SIZES[args.size]
    inputs = make_inputs(args.workload, args.seed, size)
    mixed = inputs.mixed is not None
    # the traced run does its work twice, so each half gets half of it
    work = work_for(args.workload, args.seconds / (2 if args.trace else 1))
    try:
        if args.trace:
            values, report, log = per_layer(inputs, work)
            names = PER_LAYER
        else:
            values, report, log = end_to_end(inputs, size, work)
            names = END_TO_END
    except CheckFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    attempted = len(log.records)
    failed = sum(1 for r in log.records if r.failed)
    correct = True
    error = ""
    code = code_identity()
    try:
        check_oracle(inputs.graph, log.records, log.batches)
        check_against_earlier(f"{args.workload}-{args.size}-seed{args.seed}-{code}", log, mixed)
    except CheckFailed as err:
        correct, error = False, str(err)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in names}
    for name, unit in names:
        print(f"{args.workload:15s} {name:34s} {values[name]:14.6g} {unit}")
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "host": host_stamp(bool(args.trace), code),
        "shape": inputs.shape,
        "digest": digest_of(log.records),
        "traversals": attempted,
        "work": {"units": work, "per_second": work / args.seconds},
        "error": error,
        **report,
    }
    print(json.dumps(full, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not correct:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
