"""Per-layer metrics of a traced window.

Every metric comes from the trace (span counts, durations and self
times) or from the program's own counters read before and after the
window.  Times are seconds per operation (``s/op``): per query on the
query workloads and for the read side of ``ingest-twitter``, per
ingested record for its write side, per join on ``join-prefix``.
Counts named ``*_per_query`` are per query (per joined query on
``join-prefix``).  A layer the workload does not exercise reads zero.
"""

from __future__ import annotations

from tracer import ALL_LAYERS, SHARD_TASK

#: name -> unit, in report order.  BENCHMARK.json lists the same names.
PER_LAYER: dict[str, str] = {
    "server.decode_ms_p50": "ms",
    "server.queue_ms_p50": "ms",
    "server.queue_ms_p99": "ms",
    "server.execute_ms_p50": "ms",
    "server.encode_ms_p50": "ms",
    "server.coalesce_ratio": "ratio",
    "client.submit_s": "s/op",
    "client.wait_s": "s/op",
    "shard.fanout_s": "s/op",
    "shard.per_shard_s_max": "s",
    "shard.skew": "ratio",
    "shard.overhead_share": "ratio",
    "exec.compile_s": "s/op",
    "exec.run_s": "s/op",
    "exec.materialize_s": "s/op",
    "exec.result_cache_hit_rate": "ratio",
    "exec.memo_reuse_ratio": "ratio",
    "match.self_s": "s/op",
    "match.structural_s": "s/op",
    "match.structural_calls_per_query": "count",
    "postings.fetch_calls_per_query": "count",
    "postings.fetch_s": "s/op",
    "postings.list_length_calls_per_query": "count",
    "postings.intersect_calls_per_query": "count",
    "postings.intersect_s": "s/op",
    "postings.blocks_read_per_query": "count",
    "postings.blocks_skipped_ratio": "ratio",
    "postings.bytes_decoded_per_query": "B",
    "postings.lists_decoded_per_query": "count",
    "postings.block_cache_hit_rate": "ratio",
    "postings.block_cache_evictions": "count/query",
    "postings.list_cache_hit_rate": "ratio",
    "codec.header_decodes_per_query": "count",
    "codec.header_s": "s/op",
    "codec.block_decodes_per_query": "count",
    "codec.block_decode_s": "s/op",
    "codec.encode_s": "s/op",
    "store.gets_per_query": "count",
    "store.get_s": "s/op",
    "store.page_reads_per_query": "count",
    "store.bytes_read_per_query": "B",
    "store.page_writes_per_record": "count",
    "store.bytes_written_per_user_byte": "B/B",
    "wal.commits": "count",
    "wal.syncs": "count",
    "wal.sync_s": "s/op",
    "wal.bytes_per_user_byte": "B/B",
    "wal.checkpoints": "count",
    "wal.checkpoint_s": "s/op",
    "ingest.group_s": "s/group",
    "ingest.records_per_group": "count",
    "ingest.errors": "count",
    "mvcc.open_snapshots_max": "count",
    "join.strategy": "flag",
    "join.prefix_nodes": "count/join",
    "join.prefix_streams": "count/join",
    "join.reuse_ratio": "ratio",
    "join.pairs": "count/join",
    "join.trie_s": "s/op",
    "join.materialize_s": "s/op",
    "loadgen.late_ms_p99": "ms",
    "loadgen.cpu_s": "s/s",
    **{f"{layer}.self_s": "s/op" for layer in ALL_LAYERS
       if layer != "match"},
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

STRUCTURAL = ("heads_with_child_in", "heads_with_descendant_in",
              "nav_join", "nav_join_descendant")
FETCH = ("InvertedFile.postings", "InvertedFile.postings_overlapping")
BLOCK_DECODE = ("decode_packed_arrays", "decode_block")
ENCODE = ("encode_blocked", "append_blocked")
STORE_GETS = ("MemoryKVStore.get", "MemorySnapshot.get",
              "DiskHashTable.get", "DiskHashSnapshot.get")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _fanouts(tracer) -> tuple[float, float, float]:
    """Mean (slowest shard s, skew, overhead share) over fan-outs."""
    spans = tracer.spans()
    names = tracer.names
    fanouts = {sid: t1 - t0 for sid, _p, nid, _r, t0, t1 in spans
               if names[nid][0] == "ShardedIndex._fan_out"}
    tasks: dict[int, list[float]] = {}
    for _sid, parent, nid, _r, t0, t1 in spans:
        if names[nid][0] == SHARD_TASK and parent in fanouts:
            tasks.setdefault(parent, []).append(t1 - t0)
    rows = [(max(times), max(times) / (sum(times) / len(times)),
             _ratio(fanouts[sid] - max(times), fanouts[sid]))
            for sid, times in tasks.items() if len(times) > 1]
    if not rows:
        return 0.0, 0.0, 0.0
    n = len(rows)
    return (sum(r[0] for r in rows) / n, sum(r[1] for r in rows) / n,
            sum(r[2] for r in rows) / n)


def compute(*, tracer, main_thread: int, untraced, traced, before: dict,
            after: dict, server: dict | None, wall_s: float,
            cpu_s: float) -> dict[str, float]:
    """All :data:`PER_LAYER` metrics for one traced window."""
    agg = tracer.aggregate()

    def calls(*names: str) -> float:
        return sum(agg.get(name, {}).get("calls", 0) for name in names)

    def top_calls(*names: str) -> float:
        return sum(agg.get(name, {}).get("top_calls", 0) for name in names)

    def total(*names: str) -> float:
        return sum(agg.get(name, {}).get("total_s", 0.0) for name in names)

    def self_s(*names: str) -> float:
        return sum(agg.get(name, {}).get("self_s", 0.0) for name in names)

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    extra = traced.extra
    joins = extra.get("joins", 0)
    queries = extra.get("queries", 0)
    ops = joins or queries            # the per-op denominator of reads
    records = extra.get("records", 0)
    user_bytes = extra.get("user_bytes", 0)
    writes = records or ops

    m: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    if server:
        stages = server.get("stages_ms", {})
        for stage in ("decode", "queue", "execute", "encode"):
            m[f"server.{stage}_ms_p50"] = stages.get(stage, {}).get("p50", 0)
        m["server.queue_ms_p99"] = stages.get("queue", {}).get("p99", 0)
        m["server.coalesce_ratio"] = server.get("coalesce_ratio", 0.0)
    main = {}
    for name, row in tracer.aggregate(thread=main_thread).items():
        main[name] = row["total_s"]
    m["client.submit_s"] = _ratio(main.get("ServiceClient.submit", 0), ops)
    m["client.wait_s"] = _ratio(main.get("ServiceClient.next_response", 0)
                                + main.get("ServiceClient.call", 0), ops)

    m["shard.fanout_s"] = _ratio(total("ShardedIndex._fan_out"), ops)
    (m["shard.per_shard_s_max"], m["shard.skew"],
     m["shard.overhead_share"]) = _fanouts(tracer)

    counters = tracer.exec_counters
    evaluated = sum(c.subqueries_evaluated for c in counters)
    reused = sum(c.subqueries_reused for c in counters)
    m["exec.compile_s"] = _ratio(total("compile_query"), ops)
    m["exec.run_s"] = _ratio(total("ExecutionPlan.run"), ops)
    m["exec.materialize_s"] = _ratio(total("InvertedFile.heads_to_keys"),
                                     ops)
    m["exec.result_cache_hit_rate"] = _ratio(
        sum(c.result_cache_hits for c in counters),
        sum(c.queries for c in counters))
    m["exec.memo_reuse_ratio"] = _ratio(reused, evaluated + reused)

    m["match.structural_s"] = _ratio(total(*STRUCTURAL), ops)
    m["match.structural_calls_per_query"] = _ratio(calls(*STRUCTURAL),
                                                   queries)

    m["postings.fetch_calls_per_query"] = _ratio(calls(*FETCH), queries)
    m["postings.fetch_s"] = _ratio(total(*FETCH), ops)
    m["postings.list_length_calls_per_query"] = _ratio(
        calls("InvertedFile.list_length"), queries)
    m["postings.intersect_calls_per_query"] = _ratio(calls("intersect"),
                                                     queries)
    m["postings.intersect_s"] = _ratio(total("intersect"), ops)
    read = delta("index.blocks_read")
    skipped = delta("index.blocks_skipped")
    m["postings.blocks_read_per_query"] = _ratio(read, queries)
    m["postings.blocks_skipped_ratio"] = _ratio(skipped, read + skipped)
    m["postings.bytes_decoded_per_query"] = _ratio(
        delta("index.bytes_decoded"), queries)
    m["postings.lists_decoded_per_query"] = _ratio(
        delta("index.lists_decoded"), queries)
    hits, misses = delta("block_cache.hits"), delta("block_cache.misses")
    m["postings.block_cache_hit_rate"] = _ratio(hits, hits + misses)
    m["postings.block_cache_evictions"] = _ratio(
        delta("block_cache.evictions"), queries)
    hits, misses = delta("cache.hits"), delta("cache.misses")
    m["postings.list_cache_hit_rate"] = _ratio(hits, hits + misses)

    m["codec.header_decodes_per_query"] = _ratio(
        top_calls("decode_blocked_header"), queries)
    m["codec.header_s"] = _ratio(self_s("decode_blocked_header"), ops)
    m["codec.block_decodes_per_query"] = _ratio(top_calls(*BLOCK_DECODE),
                                                queries)
    m["codec.block_decode_s"] = _ratio(self_s(*BLOCK_DECODE), ops)
    m["codec.encode_s"] = _ratio(self_s(*ENCODE), writes)

    m["store.gets_per_query"] = _ratio(delta("store.gets"), queries)
    m["store.get_s"] = _ratio(self_s(*STORE_GETS), ops)
    m["store.page_reads_per_query"] = _ratio(delta("store.page_reads"),
                                             queries)
    m["store.bytes_read_per_query"] = _ratio(delta("store.bytes_read"),
                                             queries)
    if records:
        m["store.page_writes_per_record"] = _ratio(
            delta("store.page_writes"), records)
        m["store.bytes_written_per_user_byte"] = _ratio(
            delta("store.bytes_written"), user_bytes)
        m["wal.bytes_per_user_byte"] = _ratio(delta("wal.bytes_logged"),
                                              user_bytes)
        m["wal.sync_s"] = _ratio(total("fsync_file"), records)
        m["wal.checkpoint_s"] = _ratio(total("Pager._checkpoint_locked"),
                                       records)
        groups = calls("NestedSetIndex.insert_batch")
        m["ingest.group_s"] = _ratio(total("NestedSetIndex.insert_batch"),
                                     groups)
        m["ingest.records_per_group"] = _ratio(records, groups)
    m["wal.commits"] = delta("wal.commits")
    m["wal.syncs"] = delta("wal.syncs")
    m["wal.checkpoints"] = delta("wal.checkpoints")
    m["ingest.errors"] = extra.get("ingest_errors", 0)
    m["mvcc.open_snapshots_max"] = extra.get("open_snapshots_max", 0)

    if joins:
        nodes = sum(c.prefix_nodes for c in counters)
        m["join.strategy"] = 1.0 if extra.get("strategy") == "prefix" \
            else 0.0
        m["join.prefix_nodes"] = nodes / joins
        m["join.prefix_streams"] = sum(
            c.prefix_streams for c in counters) / joins
        m["join.reuse_ratio"] = _ratio(
            sum(c.prefix_reused for c in counters), nodes)
        m["join.pairs"] = extra.get("pairs", 0)
        m["join.trie_s"] = total("PrefixTree.candidates") / joins
        m["join.materialize_s"] = total("InvertedFile.heads_to_keys") / joins

    m["loadgen.late_ms_p99"] = extra.get("late_ms_p99", 0.0)
    m["loadgen.cpu_s"] = _ratio(cpu_s, wall_s)

    layer_self = tracer.layer_self()
    roots = main.get("request", 0.0)
    layer_self["other"] = max(0.0, wall_s - roots)
    for layer in ALL_LAYERS:
        m[f"{layer}.self_s"] = _ratio(layer_self[layer], ops)
    main_self = tracer.layer_self(thread=main_thread)
    m["trace.coverage"] = _ratio(
        sum(main_self.values()) + layer_self["other"], wall_s)
    m["trace.overhead"] = _ratio(untraced.rate, traced.rate) - 1.0
    return m




#: Metric-name prefixes that report into another layer.
LAYER_OF_PREFIX = {"client": "server", "mvcc": "ingest"}


def zero_layers(metrics: dict[str, float]) -> list[str]:
    """Layers whose every metric reads zero on this workload."""
    layers: dict[str, list[float]] = {}
    for name, value in metrics.items():
        prefix = name.split(".")[0]
        layers.setdefault(LAYER_OF_PREFIX.get(prefix, prefix),
                          []).append(value)
    return [layer for layer, values in layers.items()
            if not any(values)]
