"""The server process: one ``StoreService`` over the store a workload
asks for, started the way ``repro serve`` starts it (a fresh
interpreter, the service owning its own event loop).

The parent drives it over a pipe: the child answers ``ready`` with its
address, then ``cpu`` with its CPU seconds so far, ``spans`` with its
span aggregates (which it then resets), and ``stop`` with its final
report after closing the store (shard workers close with it and write
their own reports into the run directory).
"""

from __future__ import annotations

import spans


def server_main(cfg, conn) -> None:
    try:
        spans.attach(cfg["flag"])
        if cfg["trace"]:
            spans.install()
        spans.install_process_report(cfg["report_dir"], "shard")
        from repro.net.server import StoreService
        from repro.scenarios.hospital import build_hospital_schema
        if cfg["kind"] == "sharded":
            from repro.sharding.router import ShardedStore
            store = ShardedStore(build_hospital_schema(),
                                 n_shards=cfg["shards"], processes=True)
        elif cfg.get("directory"):
            from repro.storage.recovery import open_store
            store = open_store(cfg["directory"], build_hospital_schema(),
                               durability="wal", sync=cfg["sync"])
        else:
            from repro.objects.store import ObjectStore
            store = ObjectStore(build_hospital_schema())
        service = StoreService(store)
        address = service.run_background()
    except Exception as exc:     # reported to the parent, which fails
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
        return
    conn.send({"address": list(address)})
    while True:
        request = conn.recv()
        if request == "cpu":
            conn.send(spans.cpu_seconds())
        elif request == "spans":
            conn.send(spans.report("server"))
            spans.reset()
        elif request == "stop":
            break
    service.shutdown()
    closer = getattr(store, "close", None)
    if closer is not None:
        closer()
    conn.send(spans.report("server"))
