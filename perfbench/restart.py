"""The ``restart`` workload: recovery, checkpoint and replica bootstrap
of one durable store image.

Set-up writes a durable directory -- a bulk-loaded population, a
checkpoint, then a WAL tail of mixed writes and excuse transactions --
in a fresh process.  The measured phase repeats whole rounds of the
three one-shot operations, in fresh processes forked from this one,
each timed on a collected heap:

* **recover** -- ``open_store`` with validation, on a private copy of
  the directory;
* **checkpoint** -- of that recovered copy, in the same process;
* **bootstrap** -- a ``Replica`` from the live primary (a server over
  another copy) up to the primary's WAL seq.

Every recovered store, checkpointed store and replica must match the
digest of the benchmark's own model of the committed writes, and so
must the store recovered from the first round's new checkpoint.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from collections import defaultdict
from typing import Dict, List

import ledger
import serving
import spans
from common import (IO_TIMEOUT, SETUP_REPS, HostSpeed, Process, dir_bytes,
                    environment, fresh_dir, median, one_shot)
from model import Hospital, refv, store_digest, to_library

RESTART_PATIENTS = 6000
TAIL_SETS = 1500
TAIL_MOVES = 60
TAIL_UNEXCUSED = 20


def make_tail(seed: int, hospital: Hospital) -> List[tuple]:
    """The WAL tail, as data; applied to the model here and to the
    store in the set-up process.  A move into ``Alcoholic`` and its
    move back stay adjacent, so every unexcused write meets a patient
    who is not an Alcoholic."""
    rng = random.Random(seed * 7_919 + 1)
    model = hospital.model
    plain = hospital.patients_of("Patient")
    units: List[List[tuple]] = []
    for _ in range(TAIL_SETS):
        units.append([("set", rng.choice(hospital.row_sids), "age",
                       rng.randint(1, 99))])
    for _ in range(TAIL_MOVES):
        sid = rng.choice(plain)
        units.append([
            ("move", sid, True, rng.choice(hospital.psychologists)),
            ("move", sid, False, rng.choice(hospital.physicians))])
    for _ in range(TAIL_UNEXCUSED):
        units.append([("unexcused", rng.choice(plain),
                       hospital.psychologists[0])])
    rng.shuffle(units)
    tail = [op for unit in units for op in unit]
    for op in tail:
        if op[0] == "set":
            model.set(op[1], op[2], op[3])
        elif op[0] == "move":
            model.set(op[1], "treatedBy", refv(op[3]))
            (model.classify if op[2] else model.declassify)(op[1],
                                                            "Alcoholic")
    return tail


def build(directory: str, hospital: Hospital, tail: List[tuple]) -> dict:
    from repro.errors import ConformanceError
    from repro.objects.surrogate import Surrogate
    from repro.objects.transactions import transaction
    from repro.scenarios.hospital import build_hospital_schema
    from repro.storage.recovery import open_store
    start = time.perf_counter()
    store = open_store(directory, build_hospital_schema(),
                       durability="wal", sync="group")

    def resolve(sid):
        return store.get(Surrogate(sid))

    def native(values):
        return {k: to_library(v, resolve) for k, v in values.items()}

    for cls, values in hospital.refs:
        store.create(cls, **native(values))
    store.create_index("age")
    batches = [[(classes, native(values)) for classes, values in rows]
               for rows in hospital.batches]
    ingest_start = time.perf_counter()
    for rows in batches:
        store.bulk_load(rows, check="eager")
    ingest_s = time.perf_counter() - ingest_start
    store.checkpoint()
    rejected = 0
    for op in tail:
        obj = resolve(op[1])
        if op[0] == "set":
            store.set_value(obj, op[2], op[3])
        elif op[0] == "move":
            with transaction(store):
                store.set_value(obj, "treatedBy", resolve(op[3]),
                                check="deferred")
                (store.classify if op[2] else store.declassify)(
                    obj, "Alcoholic")
        else:
            try:
                store.set_value(obj, "treatedBy", resolve(op[2]))
            except ConformanceError:
                rejected += 1
    store.close()
    return {"seconds": time.perf_counter() - start, "ingest_s": ingest_s,
            "rejected": rejected}


def recover_and_checkpoint(directory: str, scratch: str,
                           reopen: bool) -> dict:
    """Recover a private copy of the image (timed, with validation),
    then checkpoint it (timed, after a collection); with ``reopen`` also
    recover the new checkpoint."""
    from repro.storage.recovery import open_store
    shutil.copytree(directory, scratch)
    try:
        start = time.perf_counter()
        store = open_store(scratch, validate=True)
        recovered = time.perf_counter() - start
        found = store.last_recovery
        out = {"recover_s": recovered, "digest": store_digest(store),
               "violations": len(found.violations),
               "replayed": found.replayed, "last_seq": found.last_seq}
        gc.collect()
        start = time.perf_counter()
        manifest = store.checkpoint()
        out["checkpoint_s"] = time.perf_counter() - start
        out["ckpt_digest"] = store_digest(store)
        out["ckpt_bytes"] = os.path.getsize(os.path.join(
            scratch, manifest["checkpoint"]["file"])) / len(store)
        store.close()
        if reopen:
            reopened = open_store(scratch, validate=True)
            out["reopened"] = store_digest(reopened)
            out["reopen_replayed"] = reopened.last_recovery.replayed
            reopened.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out["report"] = spans.report("recover")
    return out


def bootstrap(address) -> dict:
    from repro.net.client import StoreClient
    from repro.net.replication import NetShipSource, Replica
    client = StoreClient(*address, timeout=IO_TIMEOUT, pool_size=1)
    try:
        start = time.perf_counter()
        replica = Replica(NetShipSource(client))
        replica.sync()
        seconds = time.perf_counter() - start
        out = {"seconds": seconds, "digest": store_digest(replica.store),
               "applied_seq": replica.applied_seq,
               "primary_seq": client.ping()["seq"]}
        replica.close()
    finally:
        client.close()
    out["report"] = spans.report("bootstrap")
    return out


def _round(directory, work, address, client, number, traced, objects,
           expected, check, lat, reports, extra, host) -> None:
    """One round: recover + checkpoint, then a replica bootstrap, each
    checked against the model's digest; the host's speed is sampled
    after each."""
    got = one_shot(recover_and_checkpoint, directory,
                   os.path.join(work, "scratch"), number == 0)
    host.sample()
    check(None if got["digest"] == got["ckpt_digest"] == expected
          else "recovered store digest differs from the model")
    check(None if not got["violations"]
          else f"recovery found {got['violations']} violations")
    if number == 0:
        check(None if got["reopened"] == expected
              and got["reopen_replayed"] == 0 else
              "the new checkpoint does not recover to the model")
    lat["recover"].append(got["recover_s"])
    lat["checkpoint"].append(got["checkpoint_s"])
    reports["recover"].append(got["report"] if traced else None)
    extra["replayed"].append(got["replayed"])
    extra["ckpt_bytes"].append(got["ckpt_bytes"])
    last_seq = got["last_seq"]

    before = client.stats()["net.bytes_out"] if traced else 0
    got = one_shot(bootstrap, address)
    host.sample()
    if traced:
        extra["dump_bytes"].append(
            (client.stats()["net.bytes_out"] - before) / objects)
    check(None if got["digest"] == expected
          else "replica digest differs from the model")
    check(None if got["applied_seq"] == got["primary_seq"] == last_seq else
          f"replica at seq {got['applied_seq']}, primary at "
          f"{got['primary_seq']}, recovered WAL at {last_seq}")
    lat["bootstrap"].append(got["seconds"])
    reports["bootstrap"].append(got["report"] if traced else None)


def restart(seed: int, seconds: int, trace: bool) -> dict:
    from repro.net.client import StoreClient
    work = fresh_dir("restart")
    flag = os.path.join(work, "trace.flag")
    spans.make_flag(flag)
    spans.attach(flag)
    if trace:
        spans.install()
    problems: List[str] = []
    primary = None
    client = None

    def check(problem):
        if problem and len(problems) < 20:
            problems.append(problem)

    try:
        hospital = Hospital(seed, RESTART_PATIENTS, batch=3000)
        tail = make_tail(seed, hospital)
        model = hospital.model
        expected = model.digest()
        rows = sum(len(b) for b in hospital.batches)
        # Every timing is scaled to reference host speed (HostSpeed).
        host = HostSpeed()
        setup_times, raw_setup_times, ingest_rates = [], [], []

        def set_up(rep: int) -> str:
            directory = os.path.join(work, f"store-{rep}")
            host.sample(3)
            start = time.perf_counter()
            built = one_shot(build, directory, hospital, tail)
            end = time.perf_counter()
            host.sample(3)
            raw_setup_times.append(end - start)
            setup_times.append(host.scaled(start, end))
            ingest_rates.append(rows / (built["ingest_s"]
                                        * host.factor(start, end)))
            if built["rejected"] != TAIL_UNEXCUSED:
                check(f"{built['rejected']} of {TAIL_UNEXCUSED} unexcused "
                      "tail writes were rejected")
            return directory

        # The first set-up's directory is the one the rounds use; the
        # other set-ups run between slices of the measured phase, so
        # that both spread over the whole run.
        directory = set_up(0)
        objects = len(model.objects)
        disk = dir_bytes(directory)
        served = os.path.join(work, "primary")
        shutil.copytree(directory, served)
        primary = Process(serving.server_main, {
            "flag": flag, "trace": trace, "report_dir": work,
            "kind": "single", "directory": served, "sync": "group"})
        address = tuple(primary.ready["address"])
        client = StoreClient(*address, timeout=IO_TIMEOUT, pool_size=1)

        by_kind = {False: defaultdict(list), True: defaultdict(list)}
        reports: Dict[str, List[dict]] = defaultdict(list)
        extra = defaultdict(list)
        attempted = 0
        spans.reset()
        number = 0
        raw_recover: List[float] = []
        for rep in range(SETUP_REPS):
            if rep:
                shutil.rmtree(set_up(rep))
            marks = {t: {k: len(v) for k, v in kinds.items()}
                     for t, kinds in by_kind.items()}
            host.sample(3)
            start = time.perf_counter()
            deadline = start + seconds / SETUP_REPS
            while True:
                traced = trace and number % 2 == 1
                spans.set_tracing(traced)
                attempted += 3      # recover, checkpoint, bootstrap
                _round(directory, work, address, client, number, traced,
                       objects, expected, check, by_kind[traced], reports,
                       extra, host)
                number += 1
                if time.perf_counter() >= deadline:
                    break
            # Every sample of the slice, at reference host speed.
            factor = host.factor(start, time.perf_counter())
            raw_recover += by_kind[False]["recover"][
                marks[False].get("recover", 0):]
            for t, kinds in by_kind.items():
                for kind, samples in kinds.items():
                    n0 = marks[t].get(kind, 0)
                    samples[n0:] = [x * factor for x in samples[n0:]]
        spans.set_tracing(False)
        server_spans = primary.ask("spans")
        client.close()
        client = None
        final = primary.stop()
        primary = None
        lat = by_kind[False]
        untraced = [x for samples in lat.values() for x in samples]
        # ops_per_s counts the time spent in the operations themselves:
        # the rest of a round is the benchmark's own forking, copying of
        # the image and digest checks.
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "ingest_rows_per_s": (median(ingest_rates), "rows/s"),
            "ops_per_s": (len(untraced) / sum(untraced), "ops/s"),
            "heavy_op_p50_ms": (median(lat["recover"]) * 1e3, "ms"),
            "server_rss_mb": (final["maxrss_kb"] / 1024.0, "MiB"),
        }
        layer_values = {}
        if trace:
            layer_values = _layers(reports, server_spans, by_kind, extra)
        env = environment(seed, {"client": 1, "server": 1, "shards": 0,
                                 "one_shot_children": 1, "connections": 1},
                          "wal group", work)
        return {"workload": "restart", "env": env,
                "correct": not problems, "problems": problems,
                "attempted": attempted, "failed": 0, "metrics": metrics,
                "layers": layer_values,
                "figures": {"raw_setup_s": median(raw_setup_times),
                            "raw_recover_s": median(raw_recover),
                            "calibrate_ms": host.calibrate_ms(),
                            "recover_s": median(lat["recover"]),
                            "checkpoint_s": median(lat["checkpoint"]),
                            "bootstrap_s": median(lat["bootstrap"]),
                            "disk_bytes_per_obj": disk / objects,
                            "rounds": number, "objects": objects}}
    finally:
        if client is not None:
            client.close()
        if primary is not None:
            primary.kill()
        shutil.rmtree(work, ignore_errors=True)


def _layers(reports, server_spans, by_kind, extra) -> Dict[str, float]:
    out = ledger.empty()
    recovered = ledger.Spans(r for r in reports["recover"] if r)
    n = max(1, len([r for r in reports["recover"] if r]))
    out["recovery.checkpoint_load_s"] = recovered.total(
        "recovery.checkpoint_load") / n
    out["recovery.replay_s"] = recovered.total("recovery.replay") / n
    out["recovery.validate_s"] = (
        recovered.own("recovery.recover")
        + recovered.edges.get("recovery.recover>conform.check", 0.0)) / n
    out["recovery.records_replayed"] = median(extra["replayed"])
    out["checkpoint.write_s"] = ledger.ratio(
        recovered.total("checkpoint.write"),
        recovered.count("checkpoint.write"))
    out["checkpoint.bytes_per_obj"] = median(extra["ckpt_bytes"])
    served = ledger.Spans([server_spans])
    out["repl.dump_s"] = ledger.ratio(served.total("repl.dump"),
                                      served.count("repl.dump"))
    installed = ledger.Spans(r for r in reports["bootstrap"] if r)
    out["repl.install_s"] = ledger.ratio(installed.total("repl.install"),
                                         installed.count("repl.install"))
    out["repl.dump_bytes_per_obj"] = median(extra["dump_bytes"])
    out["trace.overhead_pct"] = ledger.overhead_pct(
        {traced: [x for samples in kinds.values() for x in samples]
         for traced, kinds in by_kind.items()})
    for kind in ("recover", "bootstrap"):
        ledger.print_ledger(f"restart {kind} (traced rounds)",
                            [r for r in reports[kind] if r])
    ledger.print_ledger("restart primary server", [server_spans])
    return out
