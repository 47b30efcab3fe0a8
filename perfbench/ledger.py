"""The layer ledger of a traced run: per-layer metrics and self times.

Span aggregates come from every process of the run (``spans.report``);
work counts come from the program's own counters, read over the wire
through the ``stats`` op before and after each phase.  Span-derived
figures cover the traced rounds only; counter-derived ratios cover the
whole phase.  A layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List

#: Span name prefix -> the program module (layer) it times.
LAYERS = (
    ("client.", "net.client"),
    ("protocol.", "net.protocol"),
    ("server.", "net.server"),
    ("backend.", "net.backends"),
    ("pipeline.", "objects.pipeline"),
    ("bulk.", "objects.bulk"),
    ("snapshot.", "objects.snapshot"),
    ("conform.", "semantics"),
    ("query.", "query"),
    ("wal.", "storage.wal"),
    ("recovery.", "storage.recovery"),
    ("checkpoint.", "storage.recovery"),
    ("repl.", "net.replication"),
    ("shard.", "sharding.router"),
    ("worker.", "sharding.worker"),
)

#: Every per-layer metric, with its unit (BENCHMARK.json lists them).
PER_LAYER = {
    "protocol.codec_us_per_frame": "us",
    "net.frames_per_op": "count",
    "net.bytes_out_per_op": "bytes",
    "server.self_ms": "ms",
    "server.cpu_s_per_kop": "s",
    "backend.op_ms": "ms",
    "backend.wait_ms": "ms",
    "pipeline.write_ms": "ms",
    "pipeline.txn_capture_ms": "ms",
    "pipeline.txn_objects_copied": "count",
    "pipeline.rollbacks_per_write": "ratio",
    "conform.check_ms": "ms",
    "conform.constraints_per_write": "count",
    "conform.compiled_checks_per_row": "count",
    "bulk.batch_ms_per_krow": "ms",
    "bulk.capture_ms": "ms",
    "bulk.capture_growth": "ratio",
    "snapshot.builds_per_read": "ratio",
    "snapshot.capture_ms": "ms",
    "query.plan_hit_ratio": "ratio",
    "query.plan_ms": "ms",
    "query.execute_ms": "ms",
    "query.index_scan_ratio": "ratio",
    "query.encode_ms": "ms",
    "columnar.words_per_query": "count",
    "wal.append_ms": "ms",
    "wal.records_per_commit": "count",
    "wal.bytes_per_record": "bytes",
    "recovery.checkpoint_load_s": "s",
    "recovery.replay_s": "s",
    "recovery.validate_s": "s",
    "recovery.records_replayed": "count",
    "checkpoint.write_s": "s",
    "checkpoint.bytes_per_obj": "bytes",
    "repl.dump_s": "s",
    "repl.install_s": "s",
    "repl.dump_bytes_per_obj": "bytes",
    "shard.commands_per_row": "count",
    "shard.commands_per_ref_row": "count",
    "shard.route_ms_per_krow": "ms",
    "shard.ipc_wait_ms": "ms",
    "shard.dispatched_per_query": "count",
    "shard.pruned_per_query": "count",
    "shard.merge_ms": "ms",
    "worker.op_ms": "ms",
    "trace.span_coverage": "ratio",
    "trace.overhead_pct": "%",
}


class Spans:
    """Span aggregates of one or more processes, merged by name."""

    def __init__(self, reports: Iterable[dict]) -> None:
        self.agg: Dict[str, List[float]] = {}
        self.edges: Dict[str, float] = {}
        self.work: Dict[str, int] = {}
        self.samples: Dict[str, List[list]] = {}
        for report in reports:
            if not report:
                continue
            for name, (count, total, own) in report["agg"].items():
                rec = self.agg.setdefault(name, [0, 0.0, 0.0])
                rec[0] += count
                rec[1] += total
                rec[2] += own
            for edge, total in report.get("edges", {}).items():
                self.edges[edge] = self.edges.get(edge, 0.0) + total
            for name, work in report["work"].items():
                self.work[name] = self.work.get(name, 0) + work
            for name, samples in report["samples"].items():
                # Longest sample list wins: one process's sequence.
                if len(samples) > len(self.samples.get(name, ())):
                    self.samples[name] = samples

    def count(self, name: str) -> int:
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def own(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def prefixed(self, prefix: str, index: int) -> float:
        return sum(rec[index] for name, rec in self.agg.items()
                   if name.startswith(prefix))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def growth(samples: List[list]) -> float:
    """Mean of the last quarter of a sampled span over its first."""
    if len(samples) < 4:
        return 0.0
    quarter = len(samples) // 4
    first = statistics.mean(s[0] for s in samples[:quarter])
    last = statistics.mean(s[0] for s in samples[-quarter:])
    return ratio(last, first)


def overhead_pct(by_round: Dict[bool, List[float]]) -> float:
    """Median latency of traced rounds over untraced ones, minus one."""
    if not by_round[True] or not by_round[False]:
        return 0.0
    return (statistics.median(by_round[True])
            / statistics.median(by_round[False]) - 1.0) * 100.0


def self_times(reports: Iterable[dict]) -> Dict[str, List[float]]:
    """Layer -> [calls, self seconds] over the given reports."""
    out: Dict[str, List[float]] = {}
    for report in reports:
        if not report:
            continue
        for name, (count, _total, own) in report["agg"].items():
            layer = next((mod for prefix, mod in LAYERS
                          if name.startswith(prefix)), "other")
            rec = out.setdefault(layer, [0, 0.0])
            rec[0] += count
            rec[1] += own
    return out


def print_ledger(title: str, reports: Iterable[dict]) -> None:
    rows = sorted(self_times(reports).items(), key=lambda kv: -kv[1][1])
    print(f"-- layer self time, {title} --")
    for layer, (calls, own) in rows:
        print(f"  {layer:<20} {own * 1e3:12.1f} ms self {calls:10d} calls")


def empty() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def layers(run, reports: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of a traced wire run (see module docstring)."""
    out = empty()
    mix = run.phases["mix"]
    ingest = run.phases.get("ingest")
    shard_reports = [r for r in reports if r["role"].startswith("shard")]
    client = Spans([mix["client"]])
    server = Spans([mix["server"]])
    ingest_server = Spans([run.phases.get("before_mix")])
    # Shard workers report once, for the whole run.
    store_side = Spans(shard_reports) if shard_reports else server
    s0, s1 = mix["stats0"], mix["stats1"]

    def delta(*keys):
        return sum(s1.get(k, 0) - s0.get(k, 0) for k in keys)

    ops = mix["ops"]
    kinds = run.kinds
    traced = run.traced_kinds
    writes = kinds["write"] + 2 * kinds["txn"]
    reads = kinds["read"] + kinds["query"]

    frames = client.count("protocol.encode") + server.count("protocol.encode")
    codec = (client.total("protocol.encode") + client.total("protocol.decode")
             + server.total("protocol.encode")
             + server.total("protocol.decode"))
    out["protocol.codec_us_per_frame"] = ratio(codec, frames) * 1e6
    out["net.frames_per_op"] = ratio(delta("net.frames_in",
                                           "net.frames_out"), ops)
    out["net.bytes_out_per_op"] = ratio(delta("net.bytes_out"), ops)
    requests = server.count("server.dispatch")
    handler = server.prefixed("backend.op_", 1)
    out["server.self_ms"] = ratio(
        server.total("server.dispatch") + server.total("server.send")
        + server.total("protocol.decode") - handler
        - server.total("backend.wait"), requests) * 1e3
    out["server.cpu_s_per_kop"] = ratio(mix["server_cpu_s"], ops / 1e3)
    out["backend.op_ms"] = ratio(handler,
                                 server.prefixed("backend.op_", 0)) * 1e3
    out["backend.wait_ms"] = ratio(
        server.total("backend.wait") + server.total("backend.lock_wait"),
        requests) * 1e3
    out["pipeline.write_ms"] = ratio(store_side.total("pipeline.write"),
                                     store_side.count("pipeline.write")) * 1e3
    out["pipeline.txn_capture_ms"] = ratio(
        store_side.total("pipeline.txn_capture"),
        store_side.count("pipeline.txn_capture")) * 1e3
    out["pipeline.txn_objects_copied"] = ratio(
        store_side.work.get("pipeline.txn_capture", 0),
        store_side.count("pipeline.txn_capture"))
    out["pipeline.rollbacks_per_write"] = ratio(delta("rollbacks"), writes)
    out["conform.check_ms"] = ratio(store_side.own("conform.check"),
                                    store_side.count("pipeline.write")) * 1e3
    out["conform.constraints_per_write"] = ratio(
        delta("constraints_checked"), writes)
    out["snapshot.builds_per_read"] = ratio(delta("snapshots_built"), reads)
    out["snapshot.capture_ms"] = ratio(
        server.total("snapshot.capture"),
        server.count("snapshot.capture")) * 1e3
    out["query.plan_hit_ratio"] = ratio(
        delta("query.plan_hits"),
        delta("query.plan_hits", "query.plan_misses"))
    out["query.plan_ms"] = ratio(store_side.total("query.plan"),
                                 traced["query"]) * 1e3
    out["query.execute_ms"] = ratio(store_side.total("query.execute"),
                                    traced["query"]) * 1e3
    out["query.index_scan_ratio"] = ratio(
        delta("query.index_scans"),
        delta("query.index_scans", "query.full_scans"))
    out["query.encode_ms"] = ratio(server.own("backend.op_query"),
                                   server.count("backend.op_query")) * 1e3
    out["columnar.words_per_query"] = ratio(
        delta("bitset.words_anded", "bitset.words_andnot",
              "bitset.words_ored"), kinds["query"])
    out["wal.append_ms"] = ratio(server.total("wal.append"),
                                 server.count("pipeline.write")) * 1e3
    out["wal.records_per_commit"] = ratio(delta("wal_records"),
                                          delta("wal_commits"))
    out["wal.bytes_per_record"] = ratio(delta("wal_bytes"),
                                        delta("wal_records"))
    out["shard.ipc_wait_ms"] = ratio(server.total("shard.ipc_wait"),
                                     mix["traced_ops"]) * 1e3
    out["shard.dispatched_per_query"] = ratio(
        delta("shard.shards_dispatched"), delta("shard.queries_routed"))
    out["shard.pruned_per_query"] = ratio(
        delta("shard.shards_pruned"), delta("shard.queries_routed"))
    out["shard.merge_ms"] = ratio(
        server.own("shard.query") + server.total("shard.merge"),
        server.count("shard.query")) * 1e3
    workers = Spans(shard_reports)
    out["worker.op_ms"] = ratio(workers.total("worker.op"),
                                workers.count("worker.op")) * 1e3
    if ingest is not None:
        rows = ingest["rows"]
        i0, i1 = ingest["stats0"], ingest["stats1"]
        out["conform.compiled_checks_per_row"] = ratio(
            i1.get("compiled_checks", 0) - i0.get("compiled_checks", 0),
            rows)
        capture_side = Spans(shard_reports) if shard_reports \
            else ingest_server
        out["bulk.capture_ms"] = ratio(
            capture_side.total("bulk.capture"),
            capture_side.count("bulk.capture")) * 1e3
        out["bulk.capture_growth"] = growth(
            capture_side.samples.get("bulk.capture", []))
        batch = "shard.bulk" if shard_reports else "bulk.batch"
        out["bulk.batch_ms_per_krow"] = ratio(
            ingest_server.total(batch),
            ingest_server.work.get(batch, 0) / 1e3) * 1e3
        out["shard.commands_per_row"] = ratio(
            i1.get("shard.commands_sent", 0)
            - i0.get("shard.commands_sent", 0), rows)
        referencing = [(n, d["shard.commands_sent"])
                       for cls, n, d in ingest["per_batch"]
                       if cls != "Person"]
        out["shard.commands_per_ref_row"] = ratio(
            sum(c for _n, c in referencing), sum(n for n, _c in referencing))
        out["shard.route_ms_per_krow"] = ratio(
            ingest_server.own("shard.bulk"), rows / 1e3) * 1e3
    out["trace.overhead_pct"] = overhead_pct(run.by_round)
    covered = (client.total("protocol.encode")
               + client.total("protocol.decode")
               + server.total("protocol.decode")
               + server.total("server.dispatch")
               + server.total("server.send"))
    out["trace.span_coverage"] = ratio(covered, client.total("client.call"))
    print_ledger(f"{run.name} measured phase (traced rounds)",
                 [mix["client"], mix["server"]] + shard_reports)
    if ingest is not None:
        print_ledger(f"{run.name} ingest phase",
                     [run.phases.get("before_mix")])
    return out
