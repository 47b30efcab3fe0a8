"""The wire workloads -- ``oltp``, ``analytic``, ``sharded`` -- and the
machinery they share: repeated set-up (start the server, bulk-load the
population), closed-loop rounds, latency samples and the end-of-run
checks.

One client process (this one) drives one connection in a closed loop:
the next request goes out when the previous answer is back and
checked.  Every run attempts whole rounds, each round the same list of
operation kinds; the seed picks their targets and operands.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import random
import shutil
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import ledger
import serving
import spans
from common import (IO_TIMEOUT, SETUP_REPS, HostSpeed, Process, dir_bytes,
                    environment, fresh_dir, median)
from model import (SPECIALTIES, Hospital, QuerySpec, check_answer,
                   check_get, refv, sym, to_client)

def quiet_client() -> None:
    """Collect, then switch off this process's cyclic garbage collector
    for a measured phase: the client's own heap (the model, the answers
    kept for checking) must not put collection pauses into the
    latencies of the program's requests.  The serving processes keep
    their collectors."""
    gc.collect()
    gc.disable()


class WireRun:
    """State of one run of a wire workload."""

    def __init__(self, name: str, seed: int, seconds: int,
                 trace: bool) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = fresh_dir(name)
        self.flag = os.path.join(self.dir, "trace.flag")
        spans.make_flag(self.flag)
        spans.attach(self.flag)
        if trace:
            spans.install()
        self.problems: List[str] = []
        #: Every timing of the run is scaled to reference host speed.
        self.host = HostSpeed()
        self.attempted = 0
        self.failed = 0
        #: Latencies (seconds) per op kind, and of the workload's heavy
        #: operation (``heavy_op_p50_ms``), untraced rounds only.
        self.lat: Dict[str, List[float]] = defaultdict(list)
        self.heavy: List[float] = []
        #: Latencies of every op, split by traced / untraced round.
        self.by_round = {False: [], True: []}
        #: Ops per kind (all rounds) and per kind in traced rounds.
        self.kinds: Dict[str, int] = defaultdict(int)
        self.traced_kinds: Dict[str, int] = defaultdict(int)
        self.proc: Optional[Process] = None
        self.client = None
        self.token: Dict[str, int] = {}
        self.metrics: Dict[str, tuple] = {}
        self.layers: Dict[str, object] = {}
        #: Printed and kept in ``--out``; not in the result line.
        self.figures: Dict[str, float] = {}
        self.phases: Dict[str, dict] = {}

    # -- checks -------------------------------------------------------

    def check(self, problem: Optional[str]) -> None:
        if problem and len(self.problems) < 20:
            self.problems.append(problem)

    # -- server set-up --------------------------------------------------

    def server_cfg(self, **extra) -> dict:
        cfg = {"flag": self.flag, "trace": self.trace,
               "report_dir": self.dir, "sync": "group", "kind": "single"}
        cfg.update(extra)
        return cfg

    def setup(self, cfg_for: Callable[[int], dict],
              prepare: Callable[[object], None], batches) -> None:
        """The first of ``SETUP_REPS`` set-ups: start the server, create
        the reference entities and indexes (``prepare``) and bulk-load
        ``batches``.  This server is kept for the measured phase, which
        runs the other set-ups between its slices (:meth:`rounds`).  A
        traced run traces this set-up's ingest."""
        payloads = [[(classes, {k: to_client(v) for k, v in values.items()})
                     for classes, values in rows] for rows in batches]
        self._setup = (cfg_for, prepare, batches, payloads)
        self._setup_s: List[float] = []
        self._raw_setup_s: List[float] = []
        self._ingest_rate: List[float] = []
        self.proc, self.client = self._set_up(0)

    def _set_up(self, rep: int):
        """One timed set-up; returns the server and its client."""
        from repro.net.client import StoreClient
        cfg_for, prepare, batches, payloads = self._setup
        keep = rep == 0
        gc.collect()
        self.host.sample(3)
        start = time.perf_counter()
        proc = Process(serving.server_main, cfg_for(rep))
        try:
            client = StoreClient(*proc.ready["address"], pool_size=1,
                                 timeout=IO_TIMEOUT)
            prepare(client)
            ingest_s = self.ingest(client, batches, payloads,
                                   self.trace and keep, keep)
        except BaseException:
            proc.kill()
            raise
        end = time.perf_counter()
        self.host.sample(3)
        self._raw_setup_s.append(end - start)
        self._setup_s.append(self.host.scaled(start, end))
        self._ingest_rate.append(sum(len(b) for b in batches) / ingest_s)
        if keep:
            return proc, client
        client.close()
        proc.stop()
        for path in glob.glob(os.path.join(self.dir, "shard-*")):
            os.remove(path)
        data = cfg_for(rep).get("directory")
        if data:
            shutil.rmtree(data, ignore_errors=True)
        return None, None

    def ingest(self, client, batches, payloads, traced: bool,
               keep: bool) -> float:
        """Eager bulk batches into the growing store; returns their
        seconds at reference host speed.  ``keep`` keeps the phase's
        counters for the ledger, and traced, its per-batch counter
        deltas."""
        per_batch = []
        stats0 = client.stats() if keep else None
        quiet_client()
        spans.set_tracing(traced)
        start = time.perf_counter()
        for rows, payload in zip(batches, payloads):
            before = client.stats() if traced else None
            self.ack(self.op("ingest", lambda: client.bulk(
                payload, check="eager"), traced, timed=False))
            if traced:
                after = client.stats()
                per_batch.append((rows[0][0][0], len(rows), {
                    k: after.get(k, 0) - before.get(k, 0)
                    for k in ("shard.commands_sent",)}))
            self.host.sample()
        end = time.perf_counter()
        elapsed = end - start - self.host.spent(start, end)
        spans.set_tracing(False)
        gc.enable()
        if keep:
            self.phases["ingest"] = {
                "rows": sum(len(b) for b in batches), "seconds": elapsed,
                "per_batch": per_batch, "stats0": stats0,
                "stats1": client.stats()}
        return self.host.scaled(start, end)

    def stop_server(self) -> List[dict]:
        """Stop the server; returns the serving processes' reports."""
        self.client.close()
        reports = [self.proc.stop()]
        self.proc = None
        for path in sorted(glob.glob(os.path.join(self.dir, "shard-*"))):
            with open(path) as handle:
                reports.append(json.load(handle))
        rss_kb = sum(report["maxrss_kb"] for report in reports)
        self.metrics["server_rss_mb"] = (rss_kb / 1024.0, "MiB")
        return reports

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.proc is not None:
            self.proc.kill()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- operations -----------------------------------------------------

    def op(self, kind: str, fn: Callable[[], object], traced: bool,
           heavy: bool = False, timed: bool = True):
        """One request; an unexpected error counts as failed.  ``timed``
        requests of the measured phase keep their latency."""
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            self.attempted += 1
            self.failed += 1
            self.check(f"{kind}: unexpected {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if not timed:
            return result
        self.kinds[kind] += 1
        self.by_round[traced].append(elapsed)
        if traced:
            self.traced_kinds[kind] += 1
            return result
        self.lat[kind].append(elapsed)
        if heavy:
            self.heavy.append(elapsed)
        return result

    def ack(self, ack) -> None:
        """Fold a write ack's vector token into the run's token."""
        if isinstance(ack, dict):
            for shard, seq in ack.get("token", {}).items():
                self.token[shard] = max(self.token.get(shard, 0), seq)

    def phase_stats(self):
        stats = self.client.stats()
        return stats, self.proc.ask("cpu")

    def rounds(self, round_fn: Callable[[int, bool], None]) -> dict:
        """The measured phase: whole rounds for ``seconds`` in all, in
        ``SETUP_REPS`` slices with one of the remaining set-ups before
        each slice after the first, so that the set-up and the measured
        samples both spread over the whole run.  Traced runs alternate
        untraced and traced rounds."""
        if self.trace:
            self.phases["before_mix"] = self.proc.ask("spans")
            spans.reset()
        stats0, cpu0 = self.phase_stats()
        ops = 0
        elapsed = 0.0           # seconds at reference host speed
        raw_elapsed = 0.0
        raw_heavy: List[float] = []
        count = 0
        for rep in range(SETUP_REPS):
            if rep:
                self._set_up(rep)
            ops0 = self.attempted
            heavy0 = len(self.heavy)
            marks = {kind: len(samples) for kind, samples in self.lat.items()}
            quiet_client()
            self.host.sample(3)
            start = time.perf_counter()
            deadline = start + self.seconds / SETUP_REPS
            while True:
                traced = self.trace and count % 2 == 1
                spans.set_tracing(traced)
                round_fn(count, traced)
                self.host.sample()
                count += 1
                if time.perf_counter() >= deadline:
                    break
            end = time.perf_counter()
            spans.set_tracing(False)
            raw_elapsed += end - start - self.host.spent(start, end)
            elapsed += self.host.scaled(start, end)
            # Every latency of the slice, at reference host speed.
            factor = self.host.factor(start, end)
            raw_heavy += self.heavy[heavy0:]
            for samples, n0 in [(self.heavy, heavy0)] + [
                    (samples, marks.get(kind, 0))
                    for kind, samples in self.lat.items()]:
                samples[n0:] = [x * factor for x in samples[n0:]]
            ops += self.attempted - ops0
            gc.enable()
        self.metrics["setup_s"] = (median(self._setup_s), "s")
        self.metrics["ingest_rows_per_s"] = (median(self._ingest_rate),
                                             "rows/s")
        self.figures["raw_setup_s"] = median(self._raw_setup_s)
        self.figures["raw_ops_per_s"] = ops / raw_elapsed
        self.figures["raw_heavy_op_p50_ms"] = median(raw_heavy) * 1e3
        self.figures["calibrate_ms"] = self.host.calibrate_ms()
        stats1, cpu1 = self.phase_stats()
        phase = {"ops": ops, "rounds": count, "seconds": raw_elapsed,
                 "stats0": stats0, "stats1": stats1,
                 "server_cpu_s": cpu1 - cpu0,
                 "traced_ops": len(self.by_round[True])}
        if self.trace:
            phase["server"] = self.proc.ask("spans")
            phase["client"] = spans.report("client")
        self.phases["mix"] = phase
        self.metrics["ops_per_s"] = (ops / elapsed, "ops/s")
        self.metrics["heavy_op_p50_ms"] = (median(self.heavy) * 1e3, "ms")
        everything = [x for samples in self.lat.values() for x in samples]
        self.figures["op_p50_ms"] = median(everything) * 1e3
        for kind, samples in sorted(self.lat.items()):
            self.figures[f"{kind}_p50_ms"] = median(samples) * 1e3
        return phase

    def verify_token(self) -> None:
        """The merged ack token must be covered after ``token_wait``."""
        out = self.client.token_wait(self.token, timeout=IO_TIMEOUT)
        position = out["position"]
        if any(position.get(shard, 0) < seq
               for shard, seq in self.token.items()):
            self.check(f"token_wait position {position} does not cover "
                       f"the merged ack token {self.token}")

    def verify_valid(self) -> None:
        violations = self.client.validate()["violations"]
        if violations:
            self.check(f"validate reports {len(violations)} violations, "
                       f"first {violations[0]}")

    def verify_sids(self, model, classes) -> None:
        for cls in classes:
            got = self.client.extent_ids(cls)
            if got != model.extent(cls):
                self.check(f"extent of {cls}: {len(got)} sids, the model "
                           f"predicts {model.count(cls)}")

    def load_refs(self, client, hospital: Hospital) -> None:
        for (cls, values), sid in zip(hospital.refs,
                                      range(1, len(hospital.refs) + 1)):
            ack = client.create(cls, {k: to_client(v)
                                      for k, v in values.items()},
                                broadcast=hospital.broadcast)
            if ack["sid"] != sid:
                raise RuntimeError(f"{cls} got sid {ack['sid']}, "
                                   f"the model predicts {sid}")

    def finish(self, env: dict) -> dict:
        return {"workload": self.name, "env": env,
                "correct": not self.problems, "problems": self.problems,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics, "layers": self.layers,
                "figures": self.figures}


def fixed_order(units: list) -> list:
    """The units of a round in an order that is the same in every round
    of every run: only targets and operands vary with the seed.  Costs
    that depend on the previous request (a read after a write rebuilds
    the snapshot, a write after a read re-privatizes the indexes) then
    occur in the same proportions in every run."""
    order = list(range(len(units)))
    random.Random(len(units)).shuffle(order)
    return [units[i] for i in order]


def _queried(run: WireRun, spec: QuerySpec, answers: dict, traced: bool,
             heavy: bool = False):
    answer = run.op("query", lambda: run.client.query(spec.text), traced,
                    heavy)
    if answer is not None:
        seen = answers.setdefault(spec.text, [spec, answer, 0])
        if seen[1] != answer:
            run.check(f"{spec.text}: two different answers in one run")
        seen[2] += 1


def _check_answers(run: WireRun, model, answers: dict) -> None:
    for spec, answer, _count in answers.values():
        run.check(check_answer(model, spec, answer))


# ----------------------------------------------------------------------
# oltp
# ----------------------------------------------------------------------

OLTP_PATIENTS = 20_000


def oltp(seed: int, seconds: int, trace: bool) -> dict:
    from repro.errors import RemoteOpError
    run = WireRun("oltp", seed, seconds, trace)
    try:
        hospital = Hospital(seed, OLTP_PATIENTS, batch=5000)
        model = hospital.model
        data = os.path.join(run.dir, "data")

        def cfg_for(rep):
            return run.server_cfg(directory=f"{data}-{rep}")

        def prepare(client):
            run.load_refs(client, hospital)
            client.create_index("age")
            client.create_index("name")

        run.setup(cfg_for, prepare, hospital.batches)
        run.verify_sids(model, ("Patient", "Alcoholic"))
        client = run.client
        patients = hospital.row_sids
        plain = hospital.patients_of("Patient")
        counted = ("Patient", "Alcoholic", "Ambulatory_Patient",
                   "Hemorrhaging_Patient")

        def get(sid, traced):
            _get(run, model, sid, traced)

        def set_age(sid, age, traced):
            ack = run.op("write", lambda: client.set_value(
                sid, "age", age), traced)
            if ack is not None:
                run.ack(ack)
                model.set(sid, "age", age)

        def unexcused(sid, traced):
            psychologist = hospital.psychologists[0]

            def attempt():
                try:
                    client.set_value(sid, "treatedBy",
                                     to_client(refv(psychologist)))
                except RemoteOpError as exc:
                    return exc.remote_type
                return "accepted"
            verdict = run.op("write", attempt, traced)
            if verdict is not None and verdict != "ConformanceError":
                run.check(f"unexcused treatedBy write on {sid}: {verdict}")

        def move(sid, into: bool, doctor, traced):
            ops = [{"op": "set", "sid": sid, "attr": "treatedBy",
                    "value": to_client(refv(doctor)), "check": "deferred"},
                   {"op": "classify" if into else "declassify",
                    "sid": sid, "cls": "Alcoholic"}]
            ack = run.op("txn", lambda: client.txn(ops), traced, heavy=True)
            if ack is not None:
                run.ack(ack)
                model.set(sid, "treatedBy", refv(doctor))
                (model.classify if into else model.declassify)(
                    sid, "Alcoholic")

        def query(form, age, traced):
            if form == 0:
                spec = QuerySpec("class", "Alcoholic",
                                 [("=", ("age",), age)])
            elif form == 1:
                spec = QuerySpec("in", "Patient", [
                    ("=", ("age",), age), ("in", (), "Ambulatory_Patient")])
            else:
                spec = QuerySpec("path", "Patient", [
                    ("=", ("age",), age), ("=", ("ward", "floor"), 3)])
            answer = run.op("query", lambda: client.query(spec.text), traced)
            if answer is not None:
                run.check(check_answer(model, spec, answer))

        def one_round(number, traced):
            rng = random.Random(seed * 1_000_003 + number)
            mover = rng.choice(plain)
            others = [s for s in rng.sample(plain, 5) if s != mover][:4]
            units = []
            units += [lambda s=rng.choice(patients): get(s, traced)
                      for _ in range(12)]
            units += [lambda c=counted[i % 4]: _count(run, model, c, traced)
                      for i in range(10)]
            # Read-modify-write: a read, then a write of the same object.
            units += [lambda s=rng.choice(patients), a=rng.randint(1, 99):
                      (get(s, traced), set_age(s, a, traced))
                      for _ in range(24)]
            # An unexcused write, then a read showing it left no trace.
            units += [lambda s=s: (unexcused(s, traced), get(s, traced))
                      for s in others]
            # Each form (they differ in cost) the same number of times.
            units += [lambda f=i % 3, a=rng.randint(20, 79): query(f, a, traced)
                      for i in range(20)]
            units = fixed_order(units)
            move(mover, True, rng.choice(hospital.psychologists), traced)
            for unit in units:
                unit()
            move(mover, False, rng.choice(hospital.physicians), traced)

        run.rounds(one_round)
        run.verify_token()
        run.verify_valid()
        reports = run.stop_server()
        run.figures["disk_bytes_per_obj"] = dir_bytes(
            f"{data}-0") / len(model.objects)
        if trace:
            run.layers = ledger.layers(run, reports)
        env = environment(seed, {"client": 1, "server": 1, "shards": 0,
                                 "connections": 1}, "wal group", run.dir)
        return run.finish(env)
    finally:
        run.close()


# ----------------------------------------------------------------------
# analytic
# ----------------------------------------------------------------------

ANALYTIC_PATIENTS = 24_000
ANALYTIC_BATCH = 1000


def analytic_specs(rng: random.Random, n_patients: int) -> List[QuerySpec]:
    """One round: 40 queries over more distinct texts than the
    256-entry plan cache holds (names alone give ``n_patients``)."""
    specs = []
    for _ in range(8):
        specs.append(QuerySpec("name", "Patient", [
            ("=", ("name",), f"p{rng.randrange(n_patients)}")],
            select=("name", "age")))
    for op in ("in", "not in"):
        for _ in range(6):
            specs.append(QuerySpec(op, "Patient", [
                ("=", ("age",), rng.randint(1, 99)),
                (op, (), "Alcoholic")]))
    for _ in range(6):
        specs.append(QuerySpec("treatedBy", "Patient", [
            ("=", ("age",), rng.randint(1, 99)),
            ("=", ("treatedBy", "specialty"), sym(rng.choice(SPECIALTIES)))],
            select=("name", ("treatedBy", "name"))))
    for _ in range(6):
        specs.append(QuerySpec("ward", "Patient", [
            ("=", ("age",), rng.randint(1, 99)),
            ("=", ("ward", "floor"), rng.randint(1, 5))]))
    for _ in range(7):
        specs.append(QuerySpec("aggregate", "Patient", [
            ("=", ("age",), rng.randint(1, 99)),
            ("=", ("ward", "floor"), rng.randint(1, 5))],
            select=("age",), aggregate=True))
    # The one wide query -- the heavy operation -- is always the same,
    # so ``heavy_op_p50_ms`` measures the same work in every run.
    specs.append(QuerySpec("wide", "Patient", [(">=", ("age",), 90)]))
    return fixed_order(specs)


def analytic(seed: int, seconds: int, trace: bool) -> dict:
    run = WireRun("analytic", seed, seconds, trace)
    try:
        hospital = Hospital(seed, ANALYTIC_PATIENTS, batch=ANALYTIC_BATCH)
        model = hospital.model

        def prepare(client):
            run.load_refs(client, hospital)
            client.create_index("age")
            client.create_index("name")

        run.setup(lambda rep: run.server_cfg(), prepare, hospital.batches)
        run.verify_sids(model, ("Patient", "Alcoholic"))
        answers: dict = {}

        def one_round(number, traced):
            rng = random.Random(seed * 1_000_003 + number)
            for spec in analytic_specs(rng, ANALYTIC_PATIENTS):
                _queried(run, spec, answers, traced, spec.kind == "wide")

        run.rounds(one_round)
        _check_answers(run, model, answers)
        run.phases["distinct_texts"] = len(answers)
        reports = run.stop_server()
        if trace:
            run.layers = ledger.layers(run, reports)
        env = environment(seed, {"client": 1, "server": 1, "shards": 0,
                                 "connections": 1}, "none (in memory)",
                          None)
        return run.finish(env)
    finally:
        run.close()


# ----------------------------------------------------------------------
# sharded
# ----------------------------------------------------------------------

SHARDS = 2
SHARDED_PATIENTS = 3000
SHARDED_BATCH = 250
#: Reaches the Hemorrhaging cohort only: one span-1 shard holds it.
SELECTIVE = "selective"
#: Every Patient is treated by a Physician or (Alcoholic) a
#: Psychologist, so deduction refutes this on every shard.
REFUTED = QuerySpec("refuted", "Patient", [
    ("not in", ("treatedBy",), "Physician"),
    ("not in", ("treatedBy",), "Psychologist")])
SCAN = QuerySpec("scan", "Patient", [
    ("=", ("bloodPressure",), sym("Normal_BP"))], select=("age",),
    aggregate=True)


def sharded(seed: int, seconds: int, trace: bool) -> dict:
    run = WireRun("sharded", seed, seconds, trace)
    try:
        hospital = Hospital(seed, SHARDED_PATIENTS, wards=False,
                            n_physicians=3, n_psychologists=2,
                            extra_people=True, batch=SHARDED_BATCH,
                            broadcast=True)
        model = hospital.model

        def prepare(client):
            run.load_refs(client, hospital)
            client.create_index("age")

        run.setup(lambda rep: run.server_cfg(kind="sharded", shards=SHARDS),
                  prepare, hospital.batches)
        run.verify_sids(model, ("Patient", "Person", "Hemorrhaging_Patient"))
        client = run.client
        everyone = hospital.row_sids
        people = [sid for sid in everyone
                  if model.classes(sid) == {"Person"}]
        workers = [sid for sid in people
                   if 16 <= model.values(sid)["age"] <= 65]
        answers: dict = {}

        def get(sid, traced):
            _get(run, model, sid, traced)

        def write(call, apply, traced):
            ack = run.op("write", call, traced)
            if ack is not None:
                run.ack(ack)
                apply()

        def one_round(number, traced):
            rng = random.Random(seed * 1_000_003 + number)
            hired = rng.choice(workers)
            units = [lambda s=rng.choice(everyone): get(s, traced)
                     for _ in range(4)]
            for _ in range(6):
                sid, age = rng.choice(people), rng.randint(16, 65)
                units.append(lambda s=sid, a=age: (get(s, traced), write(
                    lambda: client.set_value(s, "age", a),
                    lambda: model.set(s, "age", a), traced)))
            for cls in ("Patient", "Employee"):
                units.append(lambda c=cls: _count(run, model, c, traced))
            for _ in range(3):
                units.append(lambda a=rng.randint(1, 99): _queried(
                    run, QuerySpec(SELECTIVE, "Hemorrhaging_Patient",
                                   [("=", ("age",), a)]), answers, traced))
            for _ in range(2):
                units.append(lambda a=rng.randint(1, 99): _queried(
                    run, QuerySpec("aggregate", "Patient",
                                   [("=", ("age",), a)], select=("age",),
                                   aggregate=True), answers, traced))
            # One unindexed scatter aggregate over every patient, always
            # the same: the heavy operation of a round.
            units.append(lambda: _queried(run, SCAN, answers, traced,
                                          heavy=True))
            for _ in range(2):
                units.append(lambda: _queried(run, REFUTED, answers, traced))
            units = fixed_order(units)
            write(lambda: client.classify(hired, "Employee"),
                  lambda: model.classify(hired, "Employee"), traced)
            for unit in units:
                unit()
            write(lambda: client.declassify(hired, "Employee"),
                  lambda: model.declassify(hired, "Employee"), traced)

        run.rounds(one_round)
        _check_answers(run, model, answers)
        _check_pruning(run)
        run.verify_token()
        run.verify_valid()
        reports = run.stop_server()
        if trace:
            run.layers = ledger.layers(run, reports)
        env = environment(seed, {"client": 1, "server": 1,
                                 "shards": SHARDS, "connections": 1},
                          "none (in memory)", None)
        return run.finish(env)
    finally:
        run.close()


def _get(run: WireRun, model, sid: int, traced: bool) -> None:
    answer = run.op("read", lambda: run.client.get(sid), traced)
    if answer is not None:
        run.check(check_get(model, sid, answer))


def _count(run: WireRun, model, cls: str, traced: bool) -> None:
    got = run.op("read", lambda: run.client.count(cls), traced)
    if got is not None and got != model.count(cls):
        run.check(f"count {cls}: {got} != {model.count(cls)}")


def _check_pruning(run: WireRun) -> None:
    """Counter deltas over the wire: the selective query reaches 1 of
    the 2 shards, the refuted one none."""
    selective = QuerySpec(SELECTIVE, "Hemorrhaging_Patient",
                          [("=", ("age",), 50)])
    for spec, want in ((selective, (1, SHARDS - 1)), (REFUTED, (0, SHARDS))):
        before = run.client.stats()
        answer = run.client.query(spec.text)
        after = run.client.stats()
        got = tuple(after[k] - before[k] for k in ("net.shards_scattered",
                                                    "net.shards_pruned"))
        if got != want:
            run.check(f"{spec.kind} query reached/pruned {got} shards, "
                      f"expected {want}")
        if spec is REFUTED and answer["rows"]:
            run.check("refuted query returned rows")
