"""The benchmark's three workloads: seeded input generators and drivers.

Each generator takes the seed and returns only what the cluster is handed:
the graph, the query stream and (``metadata_mixed``) the write batches.
Drivers run on one OS thread against the simulated runtime and return a
:class:`RunLog`: one :class:`Record` per finished traversal plus the host
wall time of the measured region and each ingest call.

* ``rmat8_cold`` — Table I / Fig. 10: 8-step ``link`` traversals on an
  RMAT-1 graph, GraphTrek, 16 servers, cold block cache, one at a time.
* ``metadata_mixed`` — the online metadata service: 8 closed-loop clients
  (7 interactive, 1 low-weight batch tenant) on GraphTrek with WFQ and an
  in-flight cap, beside a writer that ingests new user/job/execution/file
  batches in virtual time. Warm block cache.
* ``table3_sync`` — Table III: the 6-step suspicious-user query on Sync-GT,
  32 servers, cold, one at a time.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from repro import (
    Cluster,
    ClusterConfig,
    EngineKind,
    GTravel,
    MetadataGraphConfig,
    generate_metadata_graph,
    paper_rmat1,
    rmat_graph,
)
from repro.engine import graphtrek_options
from repro.errors import TraversalError
from repro.sched.scheduler import SchedulerConfig
from repro.workloads import (
    YEAR,
    agent_exploration,
    data_audit_query,
    k_hop_lineage,
    rmat_kstep_query,
    suspicious_user_query,
)

from clock import RefClock

WORKLOADS = ("rmat8_cold", "metadata_mixed", "table3_sync")

#: Every seed runs on one graph instance per workload; the benchmark seed
#: drives sources, queries and writes. Graph instances of different seeds
#: differ enough in query cost to dominate the run-to-run spread
#: (travels_per_s of metadata_mixed: 9% over five seeds, 2% over five runs
#: of one seed).
GRAPH_SEED = 1


@dataclass(frozen=True)
class Size:
    """Input and deployment sizes. ``full`` is the benchmark; ``tiny`` is
    the smoke-test scale of the same code paths."""

    rmat_scale: int
    rmat_servers: int
    md_users: int
    md_files: int
    mixed_servers: int
    table3_servers: int
    #: Cluster.build repetitions per run; setup_s is their median
    builds: int
    #: write batches of the ingest probes, rmat8_cold (48 ingest
    #: calls each) and table3_sync (the metadata_mixed shape, ~650 calls
    #: each): the p99 of ~10k calls has ~100 samples beyond it
    probe_batches: int
    md_probe_batches: int
    #: metadata_mixed: virtual seconds between two write slices of
    #: :data:`WRITE_SLICE` ingest calls (a 20-second run lands 8 users at
    #: full size)
    slice_interval: float


SIZES = {
    "full": Size(12, 16, 48, 4096, 8, 32, builds=5, probe_batches=200,
                 md_probe_batches=16, slice_interval=0.0125),
    "tiny": Size(7, 4, 8, 256, 4, 4, builds=1, probe_batches=2,
                 md_probe_batches=1, slice_interval=0.001),
}

#: metadata_mixed closed loop: interactive query kinds, in twentieths. The
#: shares, the client split, the in-flight cap and the write rate are
#: chosen, not measured (no trace of a metadata service's traffic is
#: available offline); the 4:1 tenant weights are those of the repo's
#: ``scheduler`` ablation.
INTERACTIVE_MIX = (
    ("lookup", 6),
    ("audit", 5),
    ("lineage1", 4),
    ("count", 4),
    ("agent", 1),
)
INTERACTIVE_CLIENTS = 7
BATCH_CLIENTS = 1
TENANT_WEIGHTS = {"interactive": 1.0, "batch": 0.25}
MAX_INFLIGHT = 4
#: virtual seconds the drivers advance the simulation between two looks at
#: the host clock
CHUNK = 0.005
#: ingest calls in one write slice; the clock probes the host's speed
#: before each slice (see :func:`ingest`)
WRITE_SLICE = 64
#: work units per second of --seconds (see :func:`work_for`): the rates the
#: commit that defined the benchmark reached on its 2-core host
WORK_PER_SECOND = {
    "rmat8_cold": 0.27,  # traversals
    "metadata_mixed": 10.5,  # CHUNKs of virtual time
    "table3_sync": 3.7,  # traversals
}


@dataclass
class Record:
    """One finished traversal (or a failed attempt, ``result=None``)."""

    seq: int
    kind: str
    query: GTravel
    submit_v: float
    done_v: float
    wall_s: float
    result: object = None  # TraversalResult, None when failed
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.result is None

    @property
    def virtual_s(self) -> float:
        return self.done_v - self.submit_v

    def digest(self) -> str:
        """Hash of what the run must reproduce exactly for a seed: the
        returned vertex sets, the aggregate and both virtual clock stamps."""
        if self.result is None:
            body = f"failed:{self.error}"
        else:
            levels = sorted(
                (lv, sorted(vids)) for lv, vids in self.result.returned.items()
            )
            body = repr((levels, self.result.aggregate))
        text = f"{self.seq}|{self.kind}|{body}|{self.submit_v!r}|{self.done_v!r}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class RunLog:
    records: list[Record] = field(default_factory=list)
    #: reference-clock seconds of the whole driven region
    wall_s: float = 0.0
    ingest_us: list[float] = field(default_factory=list)
    #: outcome stats of successful traversals (engine counters)
    stats: list = field(default_factory=list)
    #: metadata_mixed: the write batches that landed, in order, and the
    #: virtual time at which clients and writer stopped
    batches: list = field(default_factory=list)
    stop_v: float = float("inf")


@dataclass
class Inputs:
    graph: object
    config: ClusterConfig
    #: one-at-a-time workloads: an endless seeded query stream
    queries: Optional[Callable[[], Iterator[tuple[str, GTravel]]]] = None
    #: metadata_mixed: seeded client streams and write batches
    mixed: Optional["MixedInputs"] = None
    #: ingest-probe batches for the one-at-a-time workloads
    probe: list = field(default_factory=list)
    shape: dict = field(default_factory=dict)


# -- generators -----------------------------------------------------------------


class Deck:
    """Seeded draws without replacement: every item of a pass comes up
    once, then ``source()`` gives the items of the next pass. A few heavy
    queries (agent and batch queries on power users) dominate a run's host
    time, so drawing them with replacement makes a run's mix, and its
    throughput, depend on the seed."""

    def __init__(self, rng: random.Random, source: Callable[[], list]):
        self.rng = rng
        self.source = source
        self._pending: list = []

    def draw(self):
        if not self._pending:
            self._pending = list(self.source())
            self.rng.shuffle(self._pending)
        return self._pending.pop()


def make_inputs(name: str, seed: int, size: Size) -> Inputs:
    if name == "rmat8_cold":
        return _rmat8_inputs(seed, size)
    if name == "metadata_mixed":
        return _mixed_inputs(seed, size)
    if name == "table3_sync":
        return _table3_inputs(seed, size)
    raise ValueError(f"unknown workload {name!r}; choices: {', '.join(WORKLOADS)}")


def _rmat8_inputs(seed: int, size: Size) -> Inputs:
    graph = rmat_graph(paper_rmat1(scale=size.rmat_scale, edge_factor=16, seed=GRAPH_SEED))
    sources = sorted(v for v in graph.vertex_ids() if graph.out_edges(v))

    def queries():
        rng = random.Random(f"rmat8_cold/{seed}/sources")
        while True:
            yield "rmat8", rmat_kstep_query(rng.choice(sources), 8)

    probe = _rmat_probe(seed, max(graph.vertex_ids()) + 1, sources, size.probe_batches)
    return Inputs(
        graph, ClusterConfig(nservers=size.rmat_servers),
        queries=queries, probe=probe,
        shape={"vertices": graph.num_vertices, "edges": graph.num_edges,
               "servers": size.rmat_servers, "cache": "cold (cleared before each traversal)",
               "query_mix": {"rmat8": 1.0}},
    )


def _rmat_probe(seed: int, first_new: int, sources: list[int], batches: int) -> list:
    """Ingest-probe batches for rmat8_cold: 16 new vertices with 2 ``link``
    out-edges each to existing vertices, per batch."""
    rng = random.Random(f"rmat8_cold/{seed}/probe")
    out, vid = [], first_new
    for _ in range(batches):
        ops = []
        for _ in range(16):
            ops.append(("v", vid, "Node", {"w": rng.randrange(1 << 16)}))
            for _ in range(2):
                ops.append(("e", vid, rng.choice(sources), "link",
                            {"w": rng.randrange(1 << 16)}))
            vid += 1
        out.append(ops)
    return out


def _metadata_graph(size: Size):
    config = MetadataGraphConfig(users=size.md_users, files=size.md_files, seed=GRAPH_SEED)
    return generate_metadata_graph(config), config


def _table3_inputs(seed: int, size: Size) -> Inputs:
    mg, md_config = _metadata_graph(size)
    users = list(mg.user_ids)

    def queries():
        rng = random.Random(f"table3_sync/{seed}/queries")
        deck = Deck(rng, lambda: users)
        while True:
            t0 = rng.uniform(0.0, YEAR / 2)
            yield "suspicious", suspicious_user_query(deck.draw(), t0, t0 + YEAR / 2)

    probe = _WriteGen(mg, md_config, seed, "table3_sync/probe").take(size.md_probe_batches)
    config = ClusterConfig(nservers=size.table3_servers, engine=EngineKind.SYNC)
    return Inputs(
        mg.graph, config, queries=queries, probe=probe,
        shape={"vertices": mg.graph.num_vertices, "edges": mg.graph.num_edges,
               "servers": size.table3_servers,
               "cache": "cold (cleared before each traversal)",
               "query_mix": {"suspicious": 1.0}},
    )


@dataclass
class MixedInputs:
    users: list[int]
    lineage_files: list[int]
    file_kinds: tuple[str, ...]
    seed: int
    writer: "_WriteGen"
    slice_interval: float


class _WriteGen:
    """Seeded write batches for the metadata graph, one new user per batch,
    drawn with :func:`generate_metadata_graph`'s distributions: the user
    runs :attr:`MetadataGraphConfig.mean_jobs_per_user` jobs (12), and
    executions per job, the executable, reads and writes per execution and
    the property values follow the generator and its config's means. The
    job count is the mean rather than a Zipf draw, so that each batch, and
    the write volume of a run, is about the same for every seed (~650
    ingest calls a batch at the default size).

    One departure keeps every answer fixed once submitted: each edge leaves
    a vertex of the same batch, so old vertices gain no edges. Reads go to
    files of the loaded graph (Zipf popularity, as generated) without the
    ``readBy`` reverse edge; writes go to the batch's own new files, with
    ``writtenBy``. A batch creates as many files per job as the loaded graph
    has (4,096 files over 576 jobs at the default size)."""

    def __init__(self, mg, config: MetadataGraphConfig, seed: int, stream: str):
        self.config = config
        self.jobs = round(config.mean_jobs_per_user)
        digest = hashlib.sha256(f"{stream}/{seed}".encode()).digest()
        self.rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        self.next_vid = max(mg.graph.vertex_ids()) + 1
        self.files = list(mg.file_ids)
        self.executables = self.files[: config.executable_pool]
        self.files_per_job = len(self.files) / max(1, len(mg.job_ids))
        self.file_cdf = _zipf_cdf(len(self.files), config.zipf_alpha)
        self.exe_cdf = _zipf_cdf(len(self.executables), 1.2)
        self.n = 0
        self.batches: list = []

    def take(self, count: int) -> list:
        """The first ``count`` batches of the stream (generated once, then
        reused, so every run of one seed writes the same batches)."""
        while len(self.batches) < count:
            self.batches.append(self._batch())
        return self.batches[:count]

    def covering(self, calls: int) -> list:
        """The first batches of the stream holding at least ``calls`` ops."""
        count, total = 0, 0
        while total < calls:
            total += len(self.take(count + 1)[count])
            count += 1
        return self.take(count)

    def _vid(self) -> int:
        self.next_vid += 1
        return self.next_vid - 1

    def _batch(self) -> list:
        cfg, rng = self.config, self.rng
        self.n += 1
        jobs = self.jobs
        verts: list = []
        edges: list = []
        user = self._vid()
        verts.append(("v", user, "User",
                      {"name": f"new{self.n:05d}", "uid": 100000 + self.n, "group": "science"}))
        files = []
        for i in range(max(1, round(jobs * self.files_per_job))):
            fid = self._vid()
            files.append(fid)
            verts.append(("v", fid, "File", {
                "name": f"/projects/new/u{self.n:05d}_{i}",
                "kind": cfg.file_kinds[int(rng.integers(len(cfg.file_kinds)))],
                "annotation": cfg.annotations[int(rng.integers(len(cfg.annotations)))],
                "size": int(rng.lognormal(14, 2)),
            }))
        for _ in range(jobs):
            ts = float(rng.uniform(0, YEAR))
            job = self._vid()
            verts.append(("v", job, "Job", {"jobid": 10 ** 6 + job,
                                            "queue": "prod" if rng.random() < 0.8 else "debug",
                                            "ts": ts}))
            edges.append(("e", user, job, "run", {"ts": ts}))
            exe = self.executables[_zipf_draw(rng, self.exe_cdf, 1)[0]]
            for rank in range(max(1, int(rng.poisson(cfg.mean_execs_per_job)))):
                ets = ts + float(rng.uniform(0, 3600))
                ex = self._vid()
                verts.append(("v", ex, "Execution", {
                    "model": cfg.models[int(rng.integers(len(cfg.models)))],
                    "params": f"-n {int(rng.integers(1, 4096))}", "ts": ets, "rank": rank,
                }))
                edges.append(("e", job, ex, "hasExecutions", {"ts": ets}))
                edges.append(("e", ex, exe, "exe", {"ts": ets}))
                reads = int(rng.poisson(cfg.mean_reads_per_exec))
                for t in np.unique(_zipf_draw(rng, self.file_cdf, reads)):
                    edges.append(("e", ex, self.files[t], "read",
                                  {"ts": ets, "readSize": int(rng.lognormal(12, 2))}))
                writes = int(rng.poisson(cfg.mean_writes_per_exec))
                for t in np.unique(rng.integers(len(files), size=writes)):
                    out = files[t]
                    edges.append(("e", ex, out, "write",
                                  {"ts": ets, "writeSize": int(rng.lognormal(13, 2))}))
                    edges.append(("e", out, ex, "writtenBy", {"ts": ets}))
        return verts + edges


def _zipf_cdf(n: int, alpha: float) -> np.ndarray:
    """Cumulative rank-frequency power law over ``n`` items, as the
    metadata generator's ``_zipf_choice`` draws them."""
    probs = np.arange(1, n + 1, dtype=np.float64) ** (-alpha)
    return np.cumsum(probs / probs.sum())


def _zipf_draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


def _mixed_inputs(seed: int, size: Size) -> Inputs:
    mg, md_config = _metadata_graph(size)
    graph = mg.graph
    lineage_files = [f for f in mg.file_ids if graph.out_edges(f, "readBy")]
    config = ClusterConfig(
        nservers=size.mixed_servers,
        engine=graphtrek_options(scheduler="wfq"),
        scheduler_config=SchedulerConfig(
            max_inflight=MAX_INFLIGHT, tenant_weights=TENANT_WEIGHTS
        ),
    )
    mixed = MixedInputs(
        users=list(mg.user_ids),
        lineage_files=lineage_files,
        file_kinds=("text", "binary", "data"),
        seed=seed,
        writer=_WriteGen(mg, md_config, seed, "metadata_mixed/writes"),
        slice_interval=size.slice_interval,
    )
    return Inputs(
        graph, config, mixed=mixed,
        shape={"vertices": graph.num_vertices, "edges": graph.num_edges,
               "servers": size.mixed_servers, "cache": "warm (never cleared)",
               "clients": {"interactive": INTERACTIVE_CLIENTS, "batch": BATCH_CLIENTS},
               "query_mix": {kind: n / 20 for kind, n in INTERACTIVE_MIX},
               "max_inflight": MAX_INFLIGHT,
               "tenant_weights": TENANT_WEIGHTS,
               "write_batch": f"1 User, {md_config.mean_jobs_per_user:g} Jobs, "
                              "generator-distributed Executions, Files, reads and writes; "
                              f"streamed {WRITE_SLICE} ingest calls per "
                              f"{size.slice_interval} virtual s"},
    )


# -- drivers --------------------------------------------------------------------


def build_cluster(inputs: Inputs) -> Cluster:
    return Cluster.build(inputs.graph, inputs.config)


def ingest(cluster: Cluster, ops: list, samples: list[float], clock: RefClock) -> None:
    """Apply ingest calls through the cluster, timing every call (µs).
    The garbage collector stays on: the collections a call's allocations
    trigger are part of its cost. The clock probes the host's speed first:
    callers pass at most :data:`WRITE_SLICE` calls, a few milliseconds."""
    clock.probe()
    for op in ops:
        t0 = clock.now()
        if op[0] == "v":
            cluster.ingest_vertex(op[1], op[2], op[3])
        else:
            cluster.ingest_edge(op[1], op[2], op[3], op[4])
        samples.append((clock.now() - t0) * 1e6)


def _advance(sim, clock: RefClock, limit: float) -> None:
    """Run one :data:`CHUNK` of virtual time, then let the clock probe."""
    sim.run(until=sim.now + CHUNK)
    if sim.orphan_failures:
        name, exc = sim.orphan_failures[0]
        raise RuntimeError(f"simulated process {name!r} crashed: {exc!r}") from exc
    if sim.now > limit:
        raise RuntimeError(f"workload did not finish by virtual time {limit}")
    clock.maybe_probe()


def run_serial(cluster: Cluster, inputs: Inputs, clock: RefClock, count: int,
               probe_cluster: Optional[Cluster] = None) -> RunLog:
    """``count`` traversals, one at a time, each on a cold block cache. The
    simulation advances in :data:`CHUNK` steps so the clock can probe the
    host's speed during long traversals.

    With ``probe_cluster``, the ingest probe lands on that second cluster,
    so the traversals see no writes: before each traversal, an equal share
    of the probe's write slices, outside the traversal's timed region and
    the run's wall time. Spreading it over the run samples the host's
    speed as often as the traversals do; run in one piece, the probe lasts
    about a second and its p99 follows that second's noise."""
    log = RunLog()
    sim = cluster.runtime.sim
    slices = [ops[i:i + WRITE_SLICE] for ops in inputs.probe
              for i in range(0, len(ops), WRITE_SLICE)] if probe_cluster is not None else []
    probing = 0.0
    start = clock.now()
    for seq, (kind, query) in zip(range(count), inputs.queries()):
        t0 = clock.now()
        for ops in slices[len(slices) * seq // count:len(slices) * (seq + 1) // count]:
            ingest(probe_cluster, ops, log.ingest_us, clock)
        probing += clock.now() - t0
        cluster.cold_start()
        v0, w0 = cluster.now, clock.now()
        _, event = cluster.submit(query)
        finished: list = []
        event.add_callback(lambda ev: finished.append((ev, cluster.now, clock.now())))
        while not finished:
            _advance(sim, clock, v0 + 60.0)
        ev, done_v, w1 = finished[0]
        if ev.failed:
            try:
                ev.value
            except TraversalError as err:
                log.records.append(Record(seq, kind, query, v0, done_v, w1 - w0,
                                          error=type(err).__name__))
            continue
        log.records.append(Record(seq, kind, query, v0, done_v, w1 - w0,
                                  result=ev.value.result))
        log.stats.append(ev.value.stats)
    log.wall_s = clock.now() - start - probing
    return log


class _MixedDriver:
    """Closed loop: each client submits its next query from the completion
    callback of its previous one. The writer, on ``cluster.runtime``,
    streams the write batches :data:`WRITE_SLICE` ingest calls at a time;
    a new user becomes a query source once its whole batch has landed.
    A part-landed batch is unreachable from every source a client may
    draw, since old vertices gain no edges."""

    def __init__(self, cluster: Cluster, inputs: Inputs, log: RunLog, clock: RefClock,
                 writes: list):
        self.cluster = cluster
        self.mixed = inputs.mixed
        self.log = log
        self.clock = clock
        self.accepting = True
        self.inflight = 0
        self.seq = 0
        self.landed_users = list(self.mixed.users)
        self.batches: list = []
        self.writes = iter(writes)
        #: the batch being streamed and how many of its ops have landed
        self.current: list = []
        self.pos = 0
        seed = self.mixed.seed

        def rng(stream: str) -> random.Random:
            return random.Random(f"metadata_mixed/{seed}/{stream}")

        kinds = [kind for kind, n in INTERACTIVE_MIX for _ in range(n)]
        self.rngs = [rng(f"client{c}") for c in range(INTERACTIVE_CLIENTS)]
        self.kinds = [
            Deck(rng(f"client{c}/kinds"), lambda: kinds) for c in range(INTERACTIVE_CLIENTS)
        ]
        # One user deck per query kind, shared by all clients. Heavy kinds
        # (agent, batch: up to 0.7 s of host time on a power user) cycle
        # over the 48 users of the loaded graph, so every run hits each of
        # them equally often. Light kinds cycle over every user landed so
        # far; new users are drawn like the original population (see
        # _WriteGen), so the mix of user sizes does not drift.
        base = list(self.mixed.users)

        def users(kind: str):
            return (lambda: base) if kind in ("agent", "batch") else (lambda: self.landed_users)

        self.users = {
            kind: Deck(rng(f"users/{kind}"), users(kind))
            for kind in ("lookup", "audit", "count", "agent", "batch")
        }
        self.file_kinds = {
            kind: Deck(rng(f"file_kinds/{kind}"), lambda: self.mixed.file_kinds)
            for kind in ("audit", "agent")
        }
        self.files = Deck(rng("files"), lambda: self.mixed.lineage_files)

    def _query(self, client: int) -> tuple[str, str, GTravel]:
        if client >= INTERACTIVE_CLIENTS:
            user = self.users["batch"].draw()
            return "batch", "batch", GTravel.v(user).e("run").e("hasExecutions").e("read")
        kind = self.kinds[client].draw()
        if kind == "lineage1":
            return kind, "interactive", k_hop_lineage(self.files.draw(), 1)
        user = self.users[kind].draw()
        if kind == "lookup":
            q = GTravel.v(user).e("run")
        elif kind == "audit":
            t0 = self.rngs[client].uniform(0.0, 0.75 * YEAR)
            q = data_audit_query(user, t0, t0 + YEAR / 4, self.file_kinds[kind].draw())
        elif kind == "count":
            q = GTravel.v(user).e("run").e("hasExecutions").count()
        else:
            q = agent_exploration(user, self.file_kinds[kind].draw())
        return kind, "interactive", q

    def submit(self, client: int) -> None:
        kind, tenant, query = self._query(client)
        seq = self.seq
        self.seq += 1
        v0, w0 = self.cluster.now, self.clock.now()
        _, event = self.cluster.submit(query, tenant=tenant)
        self.inflight += 1

        def done(ev):
            wall = self.clock.now() - w0
            self.inflight -= 1
            if ev.failed:
                try:
                    ev.value
                except TraversalError as err:
                    self.log.records.append(Record(seq, kind, query, v0, self.cluster.now,
                                                   wall, error=type(err).__name__))
            else:
                outcome = ev.value
                self.log.records.append(Record(seq, kind, query, v0, self.cluster.now,
                                               wall, result=outcome.result))
                self.log.stats.append(outcome.stats)
            if self.accepting:
                self.submit(client)

        event.add_callback(done)

    def write(self) -> None:
        if not self.accepting:
            return
        if self.pos == len(self.current):
            self.current, self.pos = next(self.writes), 0
        end = self.pos + WRITE_SLICE
        ingest(self.cluster, self.current[self.pos:end], self.log.ingest_us, self.clock)
        self.pos = min(end, len(self.current))
        if self.pos == len(self.current):
            self.batches.append(self.current)
            self.landed_users.append(self.current[0][1])
        self.cluster.runtime.schedule(self.mixed.slice_interval, self.write)

    def ingested(self) -> list:
        """The ops that landed, batch by batch; the last may be partial."""
        if 0 < self.pos < len(self.current):
            return self.batches + [self.current[:self.pos]]
        return list(self.batches)


def run_mixed(cluster: Cluster, inputs: Inputs, clock: RefClock, chunks: int) -> RunLog:
    """Advance the simulation ``chunks`` steps of :data:`CHUNK` virtual
    seconds, then stop the clients and the writer and drain the in-flight
    queries. ``log.batches`` holds the ops that landed, batch by batch."""
    log = RunLog()
    # generated before the clock starts
    slices = int(chunks * CHUNK / inputs.mixed.slice_interval) + 1
    writes = inputs.mixed.writer.covering(slices * WRITE_SLICE)
    driver = _MixedDriver(cluster, inputs, log, clock, writes)
    sim = cluster.runtime.sim
    start = clock.now()
    for client in range(INTERACTIVE_CLIENTS + BATCH_CLIENTS):
        driver.submit(client)
    cluster.runtime.schedule(inputs.mixed.slice_interval, driver.write)
    for _ in range(chunks):
        _advance(sim, clock, float("inf"))
    driver.accepting = False
    log.stop_v = sim.now
    drain_limit = sim.now + 60.0
    while driver.inflight:
        _advance(sim, clock, drain_limit)
    log.wall_s = clock.now() - start
    log.batches = driver.ingested()
    return log


def run_workload(cluster: Cluster, inputs: Inputs, clock: RefClock, work: int,
                 probe_cluster: Optional[Cluster] = None) -> RunLog:
    """Drive one workload; ``probe_cluster`` takes the ingest probe of the
    one-at-a-time workloads (see :func:`run_serial`)."""
    if inputs.mixed is not None:
        return run_mixed(cluster, inputs, clock, work)
    return run_serial(cluster, inputs, clock, work, probe_cluster)


def work_for(name: str, seconds: float) -> int:
    """Fixed work of a run: traversals (one-at-a-time workloads) or
    :data:`CHUNK` steps of virtual time (``metadata_mixed``), sized so the
    run lasts about ``seconds`` at the reference speed. The amount depends
    on ``seconds`` alone, never on how fast the host or the program is, so
    two runs of one seed do identical work."""
    return max(1, round(seconds * WORK_PER_SECOND[name]))
