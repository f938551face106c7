"""The four workloads: inputs from a seed, set-up, a timed window, checks.

Every workload drives the program through its public surface (the
engine facade, the served wire, the join operator) and checks every
answer it gets: the Section 5.1 invariants on each query, a fixed
sample against the naive oracle after the window, and the join's pairs
against a per-query loop.  A wrong answer is recorded in
``Workload.wrong`` and fails the run.

Sizes are chosen so that one run -- three to five set-ups, the window
and the checks -- stays under about 30 s on a 2-core machine; NOTES.md
gives the reasoning per workload.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field

from common import NPROC, slice_rates, files_bytes, fresh_dir, median, \
    peak_rss_mib, quantile

from repro.bench.workloads import generate_dataset
from repro.core.cache import DEFAULT_BLOCK_BUDGET, PAPER_BUDGET
from repro.core.engine import NestedSetIndex
from repro.core.join import containment_join
from repro.core.model import NestedSet
from repro.core.naive import reference_query
from repro.data.queries import BenchmarkQuery, fresh_atom
from repro.data.twitter import generate_tweets
from repro.server import ServerThread, ServiceClient
from repro.server.client import ServiceError
from repro.server.metrics import ServerMetrics
from repro.storage import wal_path
from repro.storage.codec import DEFAULT_BLOCK_SIZE

#: How ``nestcontain serve`` configures a server (its CLI defaults,
#: with ``--workers`` at the core count).
SERVE_CACHE = "frequency"
SERVE_BATCH_WINDOW_MS = 2.0
#: How often the served workloads' load generator runs the speed probe.
PROBE_EVERY_S = 0.5


@dataclass
class Outcome:
    """What one measured window produced."""

    ops: int = 0                  # completed operations
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: Completion instants (``perf_counter``) of the timed operations,
    #: one per latency.
    done_at: list[float] = field(default_factory=list)
    #: Pool position of each latency when the pool cycles (``PointMem``):
    #: the p50 and tail are then read from each query's median latency,
    #: so a burst of host noise in one pass moves neither.
    latency_keys: list[int] | None = None
    #: Rates of consecutive slices of the window (per second, per pass,
    #: per commit step or per join); their median is the reported rate,
    #: so a slice slowed by a noisy neighbour does not move it.
    rates: list[float] = field(default_factory=list)
    #: The middle instant of each rate's slice.
    rate_at: list[float] = field(default_factory=list)
    #: Workload-specific extras (denominators for per-layer metrics).
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.scaled_rate()

    def scaled_rate(self, slowness=None) -> float:
        """Median slice rate; ``slowness(t)`` scales each slice first."""
        if slowness is None:
            return median(self.rates) if self.rates else 0.0
        return median([rate * slowness(at) for rate, at
                       in zip(self.rates, self.rate_at)])

    def latency_sample(self, slowness=None) -> list[float]:
        """The latencies quantiles are read from (``slowness`` as above)."""
        latencies = self.latencies_s
        if slowness is not None:
            latencies = [latency / slowness(at) for latency, at
                         in zip(latencies, self.done_at)]
        if self.latency_keys is None:
            return latencies
        by_key: dict[int, list[float]] = {}
        for key, latency in zip(self.latency_keys, latencies):
            by_key.setdefault(key, []).append(latency)
        return [median(series) for series in by_key.values()]


def program_counters(index) -> dict[str, float]:
    """The program's own counters, flattened (read before and after)."""
    stats = index.stats()
    out: dict[str, float] = {}
    for section in ("index", "cache", "store", "wal", "mvcc"):
        for key, value in (stats.get(section) or {}).items():
            if isinstance(value, (int, float)) and \
                    not isinstance(value, bool):
                out[f"{section}.{key}"] = value
    engines = getattr(index, "shards", None) or (index,)
    for key in ("hits", "misses", "evictions"):
        out[f"block_cache.{key}"] = sum(
            getattr(engine.inverted_file.block_cache.stats, key)
            for engine in engines)
    return out


def stratified_queries(records, n: int, seed: int) -> list[BenchmarkQuery]:
    """Section 5.1 queries: sampled records, half distorted into negatives.

    The sample is stratified by record size (nodes, then atoms): one
    record is drawn at random from each of ``n`` equal strata of the
    size-sorted collection, and of every two neighbouring strata one
    becomes a negative (a fresh atom added at the root).  Query cost
    grows steeply with size on skewed data, so a plain random sample
    makes the workload's cost -- and every timing -- swing with the
    seed; strata keep the size mix the same for every seed.
    """
    rng = random.Random(("pool", seed, n).__repr__())
    ranked = sorted(records, key=lambda record: (
        sum(1 for _ in record[1].iter_sets()), len(record[1].all_atoms()),
        record[0]))
    width = len(ranked) / n
    pool = []
    for pair in range(0, n, 2):
        negative_slot = pair + rng.randrange(2)
        for slot in (pair, pair + 1):
            if slot >= n:
                break
            key, tree = ranked[int(slot * width + rng.random() * width)]
            negative = slot == negative_slot
            query = tree.with_atom(fresh_atom(slot)) if negative else tree
            pool.append(BenchmarkQuery(key=f"q{slot:04d}", query=query,
                                       positive=not negative,
                                       source_key=key))
    # Visit the strata in van der Corput order: every prefix of the
    # pool (a window ends mid-pass) then spreads evenly over all sizes.
    return sorted(pool, key=lambda bench: _radical_inverse(
        int(bench.key[1:])))


def _radical_inverse(index: int) -> float:
    """The base-2 van der Corput value of ``index`` (bits mirrored)."""
    value, weight = 0.0, 0.5
    while index:
        if index & 1:
            value += weight
        index >>= 1
        weight /= 2
    return value


def cache_facts(index) -> dict[str, object]:
    """Data size per shard against the list and block cache budgets."""
    engines = getattr(index, "shards", None) or (index,)
    stats = [engine.inverted_file.block_stats() for engine in engines]
    return {
        "lists_per_shard": [row["lists"] for row in stats],
        "list_cache_budget_lists": PAPER_BUDGET,
        "blocks_per_shard": [row["blocks"] for row in stats],
        "block_cache_budget_blocks_per_shard": DEFAULT_BLOCK_BUDGET,
        "block_cache_blocks_held_per_shard": [
            len(engine.inverted_file.block_cache) for engine in engines],
    }


def check_invariant(bench, result, wrong: list[str]) -> None:
    """Section 5.1: a positive returns its source, a negative nothing."""
    if bench.positive and bench.source_key not in result:
        wrong.append(f"{bench.key}: positive query missed its source "
                     f"record {bench.source_key}")
    elif not bench.positive and result:
        wrong.append(f"{bench.key}: negative query returned "
                     f"{len(result)} records")


class Workload:
    """Base: subclasses fill in generate / setup / measure / verify."""

    name = ""
    #: Quantile reported as ``latency_tail_ms``: the highest one with at
    #: least ten independent samples beyond it at this workload's count.
    tail_q = 0.99
    #: Set-ups per untraced run; ``setup_s`` is their median.
    n_setups = 3
    #: The run's ``calibrate.SpeedProbe`` (untraced runs only); the
    #: window calls its ``sample()`` between units of work.
    probe = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.wrong: list[str] = []
        self.facts: dict[str, object] = {}
        self.index = None

    def generate(self) -> None:
        """Make the inputs from the seed (not part of ``setup_s``)."""

    def prepare(self) -> None:
        """One-off work before the timed set-ups (disk builds)."""

    def setup(self) -> None:
        raise NotImplementedError

    def setup_window(self) -> tuple[float, float]:
        """Run one :meth:`setup`; returns its start and end instants."""
        start = time.perf_counter()
        self.setup()
        return start, time.perf_counter()

    def teardown(self) -> None:
        """Release what :meth:`setup` made (between repeated set-ups)."""
        if self.index is not None:
            self.index.close()
            self.index = None

    def measure(self, seconds: float, tracer=None) -> Outcome:
        raise NotImplementedError

    def finish(self) -> None:
        """End the load after the last window (drain, stop servers)."""

    def verify(self) -> None:
        """Oracle checks, outside the window and outside ``setup_s``."""

    def index_bytes_per_record(self) -> float:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        return program_counters(self.index)

    def peak_rss(self) -> float:
        """``peak_rss_mb``: the process's peak resident set so far."""
        return peak_rss_mib()

    def server_stats(self) -> dict | None:
        """The ``stats`` op's ``server`` section (served workloads)."""
        return None

    def reset_server_metrics(self) -> None:
        """Start the server's stage reservoirs afresh for a window."""


def _memory_bytes_per_record(index) -> float:
    """Key plus value bytes held by a memory store, per record."""
    store = index.inverted_file.store
    total = sum(len(key) + len(value) for key, value in store.items())
    return total / index.n_records


# -- point-mem ----------------------------------------------------------------


class PointMem(Workload):
    """The paper's timed unit: in-process queries on a memory index."""

    name = "point-mem"
    #: The build takes seconds and its time swings with the host, so
    #: five set-ups steady the median.
    n_setups = 5
    #: The pool cycles, so a quantile is set by distinct queries, not
    #: samples: p97.5 leaves ten of the 400 beyond it, p99 only four.
    tail_q = 0.975
    n_records = 8_000
    pool_size = 400
    oracle_sample = 12

    def generate(self) -> None:
        self.records = list(generate_dataset(
            "zipf-wide", self.n_records, seed=self.seed, theta=0.7))
        self.pool = stratified_queries(self.records, self.pool_size,
                                       self.seed)
        self.answers: dict[int, list[str]] = {}

    def setup(self) -> None:
        self.index = NestedSetIndex.build(self.records, cache=SERVE_CACHE)
        for bench in self.pool:              # warm-up: one full pass
            self.index.query(bench.query)

    def _one(self, position: int, out: Outcome) -> None:
        bench = self.pool[position]
        start = time.perf_counter()
        result = self.index.query(bench.query)
        done = time.perf_counter()
        out.latencies_s.append(done - start)
        out.done_at.append(done)
        out.latency_keys.append(position)
        out.ops += 1
        out.attempted += 1
        check_invariant(bench, result, self.wrong)
        if position < self.oracle_sample and position not in self.answers:
            self.answers[position] = result

    def measure(self, seconds: float, tracer=None) -> Outcome:
        """Whole passes over the pool until the window has run out.

        Every pass does the same work, so the rate is the median of the
        per-pass rates.  Whole passes also make per-query counts repeat
        exactly in the traced run.  The speed probe runs between passes.
        """
        out = Outcome(latency_keys=[])
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            pass_start = time.perf_counter()
            for position in range(len(self.pool)):
                if tracer is None:
                    self._one(position, out)
                else:
                    with tracer.request():
                        self._one(position, out)
            pass_end = time.perf_counter()
            out.rates.append(len(self.pool) / (pass_end - pass_start))
            out.rate_at.append((pass_start + pass_end) / 2)
            if self.probe is not None:
                self.probe.sample()
            if time.perf_counter() >= deadline:
                break
        out.elapsed_s = time.perf_counter() - start
        out.extra["queries"] = out.ops
        out.extra["passes"] = len(out.rates)
        return out

    def verify(self) -> None:
        for position in range(self.oracle_sample):
            bench = self.pool[position]
            expected = reference_query(self.records, bench.query)
            got = self.answers.get(position)
            if got is None:
                got = self.index.query(bench.query)
            if got != expected:
                self.wrong.append(f"{bench.key}: bottomup {len(got)} "
                                  f"records, naive oracle {len(expected)}")

    def index_bytes_per_record(self) -> float:
        return _memory_bytes_per_record(self.index)

    def describe(self) -> None:
        self.facts.update({
            "store": "memory", "shards": 1, "records": self.n_records,
            "dataset": "zipf-wide theta=0.7",
            "query_pool": f"{self.pool_size} (half negatives)",
            "loop": "closed, 1 caller, in-process",
            # Every block the pool touches stays cached: evictions 0.
            "block_cache_evictions": self.index.inverted_file
            .block_cache.stats.evictions,
            **cache_facts(self.index),
        })


# -- serve-disk4 --------------------------------------------------------------


class _Served(Workload):
    """A ``ServerThread`` over a diskhash index built once per run."""

    shards = 1
    #: Opening and starting a server takes well under a second, so more
    #: set-ups are cheap and steady the median.
    n_setups = 5

    def _open_and_serve(self, path: str) -> None:
        self.index = NestedSetIndex.open("diskhash", path,
                                         cache=SERVE_CACHE, workers=NPROC)
        self.server = ServerThread(
            self.index, workers=NPROC,
            batch_window_ms=SERVE_BATCH_WINDOW_MS,
            close_index_on_drain=False).start()

    def teardown(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        self.clients = []
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None
        super().teardown()

    def finish(self) -> None:
        # Stop the server; the index stays open for the checks.
        for client in self.clients:
            client.close()
        self.clients = []
        self.server.stop()
        self.server = None

    def server_stats(self) -> dict | None:
        return self.clients[0].stats()["server"]

    def reset_server_metrics(self) -> None:
        # A fresh scoreboard: the stage reservoirs then hold the
        # window's requests only, not the warm-up's.
        self.server.server.metrics = ServerMetrics()


class ServeDisk4(_Served):
    """Pipelined wire traffic over a 4-shard diskhash index."""

    name = "serve-disk4"
    #: p99 of a window's ~1,700 samples rests on its 17 slowest and
    #: swung by 30 % between runs; p95 rests on about 85.
    tail_q = 0.95
    shards = 4
    n_records = 5_000
    pool_size = 2_000
    pipeline_window = 32
    warmup_queries = 32
    oracle_sample = 6

    def generate(self) -> None:
        self.records = list(generate_dataset(
            "zipf-wide", self.n_records, seed=self.seed, theta=0.7))
        self.pool = stratified_queries(self.records, self.pool_size,
                                       self.seed)
        self.texts = [bench.query.to_text() for bench in self.pool]
        self.answers: dict[int, list[str]] = {}
        self.position = 0

    def prepare(self) -> None:
        self.path = os.path.join(fresh_dir(self.name), "index")
        start = time.perf_counter()
        index = NestedSetIndex.build(self.records, storage="diskhash",
                                     path=self.path, shards=self.shards,
                                     workers=NPROC, cache=SERVE_CACHE)
        index.close()
        self.facts["build_s"] = round(time.perf_counter() - start, 3)
        self.disk_bytes = files_bytes([self.path, wal_path(self.path)])

    def setup(self) -> None:
        self._open_and_serve(self.path)
        self.clients = [ServiceClient(port=self.server.port)]
        self.clients[0].query_pipelined(
            self.texts[:self.warmup_queries], window=self.pipeline_window)

    def measure(self, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        client = self.clients[0]
        inflight: dict[int, tuple[int, float]] = {}
        start = time.perf_counter()
        deadline = start + seconds

        def submit() -> None:
            position = self.position
            self.position = (position + 1) % len(self.pool)
            request = {"op": "query", "query": self.texts[position]}
            inflight[client.submit(request)] = (position,
                                                time.perf_counter())
            out.attempted += 1

        def receive(counted: bool) -> None:
            try:
                request_id, result = client.next_response()
            except ServiceError:
                out.failed += 1
                for lost in [rid for rid in inflight
                             if rid not in client._outstanding]:
                    del inflight[lost]
                return
            position, sent = inflight.pop(request_id)
            if counted:
                done = time.perf_counter()
                out.latencies_s.append(done - sent)
                out.done_at.append(done)
                out.ops += 1
            bench = self.pool[position]
            check_invariant(bench, result, self.wrong)
            if position < self.oracle_sample:
                self.answers.setdefault(position, result)

        def step() -> None:
            while len(inflight) < self.pipeline_window:
                submit()
            receive(True)

        next_probe = start + PROBE_EVERY_S
        while time.perf_counter() < deadline:
            if tracer is None:
                step()
            else:
                with tracer.request():
                    step()
            if self.probe is not None and \
                    time.perf_counter() >= next_probe:
                self.probe.sample()
                next_probe += PROBE_EVERY_S
        out.elapsed_s = time.perf_counter() - start
        out.rates, out.rate_at = slice_rates(out.done_at, start,
                                             start + out.elapsed_s)
        # Settle the pipeline: answers checked, latencies not counted.
        if tracer is None:
            while inflight:
                receive(False)
        else:
            with tracer.request():
                while inflight:
                    receive(False)
        out.extra["queries"] = out.ops
        return out

    def verify(self) -> None:
        # The naive oracle scans the generated records themselves, so
        # the check does not trust anything the index stored.
        for position in range(self.oracle_sample):
            bench = self.pool[position]
            expected = reference_query(self.records, bench.query)
            got = self.answers.get(position)
            if got is None:
                got = self.index.query(bench.query)
            if got != expected:
                self.wrong.append(f"{bench.key}: served {len(got)} "
                                  f"records, naive oracle {len(expected)}")

    def index_bytes_per_record(self) -> float:
        return self.disk_bytes / self.n_records

    def describe(self) -> None:
        self.facts.update({
            "store": "diskhash", "shards": self.shards,
            "records": self.n_records, "dataset": "zipf-wide theta=0.7",
            "query_pool": f"{self.pool_size} distinct (half negatives)",
            "loop": f"closed, 1 pipelined binary client, window "
                    f"{self.pipeline_window}",
            "disk_bytes": self.disk_bytes,
            **cache_facts(self.index),
        })


# -- ingest-twitter -------------------------------------------------------------


class IngestTwitter(_Served):
    """Streaming ingest over the wire beside paced nested reads."""

    name = "ingest-twitter"
    #: p90 of a window's 105 reads rests on its ten slowest and its
    #: spread over ten seeds read 0.12 in one set and 0.21 in another;
    #: p80 rests on 21.
    tail_q = 0.80
    n_base = 3_000
    n_stream = 4_000
    ingest_batch = 100
    backlog_max = 200
    #: Reads per second, open loop: about a third of what the read path
    #: sustains beside full-speed ingest, so a slow spell on a shared
    #: machine does not tip the queue into a growing backlog.
    read_rate = 7.0
    read_pool = 200
    poll_s = 0.05
    ingested_sample = 10
    oracle_sample = 4
    drain_timeout_s = 90.0
    #: ``peak_rss_mb`` is read once the window has committed this many
    #: records: the process grows by about 80 KiB per ingested tweet,
    #: so a peak over the whole window would follow how fast the host
    #: happened to run.  A 15 s window commits 1,100-2,500.
    rss_volume = 800

    def generate(self) -> None:
        tweets = list(generate_tweets(self.n_base + self.n_stream,
                                      seed=self.seed))
        self.base = tweets[:self.n_base]
        self.stream = [(key, tree.to_text())
                       for key, tree in tweets[self.n_base:]]
        self.stream_trees = [tree for _key, tree in tweets[self.n_base:]]
        self.user_bytes = [0]
        for _key, text in self.stream:
            self.user_bytes.append(self.user_bytes[-1]
                                   + len(text.encode("utf-8")))
        self.pool = stratified_queries(self.base, self.read_pool,
                                       self.seed)
        self.texts = [bench.query.to_text() for bench in self.pool]
        self.sent = 0
        self.read_position = 0
        self.committed = 0
        self.ingest_errors = 0
        self.window_start_committed = 0
        self.rss_at_volume: float | None = None

    def prepare(self) -> None:
        self.directory = fresh_dir(self.name)
        self.base_path = os.path.join(self.directory, "base")
        self.copies = 0
        start = time.perf_counter()
        NestedSetIndex.build(self.base, storage="diskhash",
                             path=self.base_path,
                             cache=SERVE_CACHE).close()
        self.facts["build_s"] = round(time.perf_counter() - start, 3)
        os.sync()

    def setup_window(self) -> tuple[float, float]:
        # Each set-up starts from a fresh copy of the base index under a
        # new name (the copy stands in for the operator's restore and is
        # not timed).
        self.copies += 1
        self.path = os.path.join(self.directory, f"index{self.copies}")
        for source, target in ((self.base_path, self.path),
                               (wal_path(self.base_path),
                                wal_path(self.path))):
            if os.path.exists(source):
                shutil.copyfile(source, target)
        # Write the copies out now: left dirty, they would be flushed by
        # the window's first WAL fsyncs (ext4 orders data before the
        # journal commit an fsync forces) and slow them by chance.
        os.sync()
        return super().setup_window()

    def setup(self) -> None:
        self._open_and_serve(self.path)
        self.clients = [ServiceClient(port=self.server.port),
                        ServiceClient(port=self.server.port)]
        for text in self.texts[:5]:
            self.clients[0].query(text)

    def _writer(self, stop: threading.Event, polls: list, snaps: list
                ) -> None:
        """Stream tweets at full speed, the ingestor backlog bounded."""
        client = self.clients[1]
        while not stop.is_set():
            backlog = self.sent - self.committed - self.ingest_errors
            if backlog < self.backlog_max and self.sent < len(self.stream):
                batch = self.stream[self.sent:self.sent + self.ingest_batch]
                reply = client.ingest(batch)
                self.sent += len(batch)
                committed, errors = reply["records_ingested"], \
                    reply["errors"]
            else:
                time.sleep(self.poll_s)
                stats = client.stats()
                server = stats["server"]
                committed = server["ingest_records"]
                errors = server["ingest_errors"]
                mvcc = stats["engine"].get("mvcc") or {}
                snaps.append(mvcc.get("open_snapshots", 0))
            self.committed, self.ingest_errors = committed, errors
            polls.append((time.perf_counter(), committed))
            if self.rss_at_volume is None and committed - \
                    self.window_start_committed >= self.rss_volume:
                self.rss_at_volume = peak_rss_mib()

    def measure(self, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        reader = self.clients[0]
        stop = threading.Event()
        polls: list[tuple[float, int]] = []
        snaps: list[int] = []
        committed_before = self.window_start_committed = self.committed
        errors_before = self.ingest_errors
        writer = threading.Thread(target=self._writer,
                                  args=(stop, polls, snaps),
                                  name="perfbench-writer")
        late: list[float] = []
        reads = 0
        start = time.perf_counter()
        writer.start()
        try:
            interval = 1.0 / self.read_rate
            due = start
            deadline = start + seconds
            next_probe = start + PROBE_EVERY_S
            while due < deadline:
                now = time.perf_counter()
                # The probe runs only where the reader would sleep.
                if self.probe is not None and now >= next_probe and \
                        due - now > 0.05:
                    self.probe.sample()
                    next_probe += PROBE_EVERY_S
                    now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                sent = time.perf_counter()
                late.append(sent - due)
                position = self.read_position
                self.read_position = (position + 1) % len(self.pool)
                try:
                    if tracer is None:
                        result = reader.query(self.texts[position])
                    else:
                        with tracer.request():
                            result = reader.query(self.texts[position])
                except ServiceError:
                    out.failed += 1
                else:
                    check_invariant(self.pool[position], result,
                                    self.wrong)
                done = time.perf_counter()
                out.latencies_s.append(done - due)
                out.done_at.append(done)
                reads += 1
                due += interval
        finally:
            stop.set()
            writer.join()
        out.elapsed_s = time.perf_counter() - start
        out.rates, out.rate_at, committed = _commit_rates(polls)
        out.ops = committed
        out.attempted = reads + committed + self.ingest_errors
        out.failed += self.ingest_errors
        out.extra.update({
            "queries": reads,
            "records": max(1, self.committed - committed_before),
            "user_bytes": (self.user_bytes[self.committed]
                           - self.user_bytes[committed_before]),
            "late_ms_p99": quantile(late, 0.99) * 1e3,
            "ingest_errors": self.ingest_errors - errors_before,
            "open_snapshots_max": max(snaps, default=0),
        })
        return out

    def peak_rss(self) -> float:
        if self.rss_at_volume is None:
            self.facts["peak_rss_note"] = (
                f"fewer than {self.rss_volume} records committed in the "
                f"window: peak_rss_mb is the window's peak")
            return peak_rss_mib()
        return self.rss_at_volume

    def finish(self) -> None:
        client = self.clients[1]
        deadline = time.monotonic() + self.drain_timeout_s
        while time.monotonic() < deadline:
            server = client.stats()["server"]
            self.committed = server["ingest_records"]
            self.ingest_errors = server["ingest_errors"]
            if self.committed + self.ingest_errors >= self.sent:
                break
            time.sleep(self.poll_s)
        else:
            self.wrong.append(f"ingest did not drain within "
                              f"{self.drain_timeout_s:.0f} s")
        super().finish()          # the drain also stops the ingestor

    def verify(self) -> None:
        self.teardown()           # close: checkpoints the WAL
        self.disk_bytes = files_bytes([self.path, wal_path(self.path)])
        index = NestedSetIndex.open("diskhash", self.path,
                                    cache=SERVE_CACHE)
        try:
            expected = self.n_base + self.committed
            if index.n_records != expected:
                self.wrong.append(f"reopened index holds "
                                  f"{index.n_records} records, expected "
                                  f"{expected}")
            step = max(1, self.committed // self.ingested_sample)
            for position in range(0, self.committed, step):
                key = self.stream[position][0]
                if key not in index.query(self.stream_trees[position]):
                    self.wrong.append(f"ingested {key} does not answer "
                                      f"its own query")
            held = self.base + list(zip(
                [key for key, _text in self.stream[:self.committed]],
                self.stream_trees[:self.committed]))
            for bench in self.pool[:self.oracle_sample]:
                got = index.query(bench.query)
                oracle = reference_query(held, bench.query)
                if got != oracle:
                    self.wrong.append(f"{bench.key}: bottomup {len(got)} "
                                      f"records, naive oracle "
                                      f"{len(oracle)}")
            self.n_final = index.n_records
        finally:
            index.close()

    def index_bytes_per_record(self) -> float:
        return self.disk_bytes / self.n_final

    def describe(self) -> None:
        self.facts.update({
            "store": "diskhash", "shards": 1, "wal": "on",
            "base_records": self.n_base, "dataset": "twitter",
            "ingest": f"1 connection, ingest op batches of "
                      f"{self.ingest_batch}, backlog <= "
                      f"{self.backlog_max}",
            "reads": f"1 connection, open loop {self.read_rate:g}/s over "
                     f"{self.read_pool} tweet queries (half negatives)",
            **cache_facts(self.index),
        })


def _commit_rates(polls: list[tuple[float, int]]
                  ) -> tuple[list[float], list[float], int]:
    """Records per second of each commit step, the middle instant of
    each step, and the records the steps hold.

    Commits land in groups, so the committed count is read at the polls
    where it changed; each step between two changes gives one rate,
    exact up to the poll interval.
    """
    changes = [(t, count) for (t, count), (_t0, before)
               in zip(polls[1:], polls[:-1]) if count != before]
    steps = list(zip(changes[:-1], changes[1:]))
    rates = [(c1 - c0) / (t1 - t0) for (t0, c0), (t1, c1) in steps]
    mids = [(t0 + t1) / 2 for (t0, _c0), (t1, _c1) in steps]
    committed = changes[-1][1] - changes[0][1] if changes else 0
    return rates, mids, committed


# -- join-prefix ----------------------------------------------------------------


class JoinPrefix(Workload):
    """The whole join Q ⋈ S through the adaptive (prefix) operator."""

    name = "join-prefix"
    tail_q = 0.90
    n_records = 50_000
    n_queries = 5_000
    n_templates = 150

    def generate(self) -> None:
        rng = random.Random(("join-prefix", self.seed).__repr__())
        t_atoms = [f"t{i}" for i in range(100)]
        c_atoms = [f"c{i}" for i in range(50)]
        w_atoms = [f"w{i}" for i in range(5_000)]
        self.records = [
            (f"r{i:06d}", NestedSet(rng.sample(t_atoms, 3)
                                    + rng.sample(c_atoms, 2)
                                    + rng.sample(w_atoms, 2)))
            for i in range(self.n_records)]
        templates = []
        for _ in range(self.n_templates):
            _key, tree = self.records[rng.randrange(self.n_records)]
            templates.append((sorted(a for a in tree.atoms
                                     if a.startswith("t")),
                              sorted(a for a in tree.atoms
                                     if a.startswith("c"))))
        self.queries = []
        for i in range(self.n_queries):
            t_part, c_part = rng.choice(templates)
            extra = [rng.choice(c_part)] if i % 2 else []
            self.queries.append((f"q{i:05d}", NestedSet(t_part + extra)))
        self.reference = None

    def setup(self) -> None:
        self.index = NestedSetIndex.build(self.records, cache=SERVE_CACHE)
        self.first = containment_join(self.index, self.queries,
                                      strategy="adaptive")

    def measure(self, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            t0 = time.perf_counter()
            if tracer is None:
                result = containment_join(self.index, self.queries,
                                          strategy="adaptive")
            else:
                with tracer.request():
                    result = containment_join(self.index, self.queries,
                                              strategy="adaptive")
            done = time.perf_counter()
            latency = done - t0
            out.latencies_s.append(latency)
            out.done_at.append(done)
            out.rates.append(self.n_queries / latency)
            out.rate_at.append((t0 + done) / 2)
            out.attempted += 1
            out.ops += 1
            if self.probe is not None:
                self.probe.sample()
            if result.pairs != self.first.pairs:
                self.wrong.append(f"join {out.ops}: {result.n_pairs} "
                                  f"pairs, first join gave "
                                  f"{self.first.n_pairs}")
            if time.perf_counter() >= deadline:
                break
        out.elapsed_s = time.perf_counter() - start
        out.extra.update({"queries": out.ops * self.n_queries,
                          "joins": out.ops,
                          "strategy": result.extra.get(
                              "dispatch", {}).get("chosen", ""),
                          "pairs": result.n_pairs})
        return out

    def verify(self) -> None:
        loop = containment_join(self.index, self.queries,
                                strategy="per-query")
        if _digest(loop.pairs) != _digest(self.first.pairs) or \
                loop.n_pairs != self.first.n_pairs:
            self.wrong.append(f"prefix join: {self.first.n_pairs} pairs, "
                              f"per-query loop {loop.n_pairs}")
        self.facts["pairs"] = loop.n_pairs
        self.facts["pairs_digest"] = _digest(loop.pairs)[:16]

    def index_bytes_per_record(self) -> float:
        return _memory_bytes_per_record(self.index)

    def describe(self) -> None:
        self.facts.update({
            "store": "memory", "shards": 1, "records": self.n_records,
            "queries_per_join": self.n_queries,
            "templates": self.n_templates,
            "shape": "flat: 3 template + 2 filler + 2 wide atoms",
            "loop": "closed, 1 caller, whole join repeated",
            **cache_facts(self.index),
        })


def _digest(pairs: list[tuple[str, str]]) -> str:
    sha = hashlib.sha256()
    for qkey, skey in sorted(pairs):
        sha.update(f"{qkey}\t{skey}\n".encode())
    return sha.hexdigest()


WORKLOADS = {cls.name: cls for cls in
             (PointMem, ServeDisk4, IngestTwitter, JoinPrefix)}

#: Fixed policies every run reports (the program's defaults as served).
POLICIES = {
    "list_cache": f"{SERVE_CACHE} (budget {PAPER_BUDGET} lists)",
    "block_cache_budget_blocks": DEFAULT_BLOCK_BUDGET,
    "block_size_postings": DEFAULT_BLOCK_SIZE,
    "server_workers": NPROC,
    "batch_window_ms": SERVE_BATCH_WINDOW_MS,
    "wal_flush": "synchronous: one fsync per commit group",
    "result_cache": "off (nestcontain serve does not enable it)",
}
