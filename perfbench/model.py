"""The benchmark's own model of the hospital data: inputs and oracles.

Everything here is computed apart from the program under test.  The
class hierarchy is restated by hand (not read from the schema), values
are kept in a canonical form of the benchmark's own, and queries are
evaluated in plain Python over the generated rows, with the paper's
guarded-access rule: a ``where`` conjunct that reads an attribute the
object does not have (INAPPLICABLE: unset, or excused to ``None``)
*skips* the row and counts it, conjuncts run left to right and stop at
the first false one.

Canonical values: ``int`` / ``str`` as they are, an enumeration symbol
as ``("'", name)``, a reference as ``("@", sid)``.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

#: Direct superclass of every hospital class the benchmark uses.
PARENT = {
    "Patient": "Person", "Physician": "Person", "Psychologist": "Person",
    "Employee": "Person", "Oncologist": "Physician",
    "Alcoholic": "Patient", "Ambulatory_Patient": "Patient",
    "Renal_Failure_Patient": "Patient", "Hemorrhaging_Patient": "Patient",
    "Cancer_Patient": "Patient",
}

#: Attributes whose values are entity references.
REF_ATTRS = frozenset({"treatedBy", "treatedAt", "ward", "affiliatedWith",
                       "location", "home", "supervisor", "office"})

SPECIALTIES = ("General", "Cardiology", "Pulmonology")
STYLES = ("CBT", "Psychodynamic", "Humanistic")

#: Sentinel for a guarded access that found no value.
SKIP = object()


def sym(name: str) -> tuple:
    return ("'", name)


def refv(sid: int) -> tuple:
    return ("@", sid)


def closure(classes) -> frozenset:
    out = set()
    for name in classes:
        while name is not None:
            out.add(name)
            name = PARENT.get(name)
    return frozenset(out)


# ----------------------------------------------------------------------
# Canonical forms of what the program returns
# ----------------------------------------------------------------------

def from_wire(encoded):
    """A wire/WAL-encoded value (query rows, aggregates)."""
    if isinstance(encoded, dict):
        tag = encoded.get("$")
        if tag == "ref":
            return refv(int(encoded["id"]))
        if tag == "enum":
            return sym(encoded["name"])
        if tag == "na":
            return None
        raise ValueError(f"unexpected wire value {encoded!r}")
    return encoded


def from_decoded(attr: str, value):
    """A value from ``StoreClient.get`` (references come back as sids)."""
    name = getattr(value, "name", None)
    if name is not None and type(value).__name__ == "EnumSymbol":
        return sym(name)
    if attr in REF_ATTRS:
        return refv(int(value))
    return value


def from_live(value):
    """A value read off a live store object (restart digests)."""
    surrogate = getattr(value, "surrogate", None)
    if surrogate is not None:
        return refv(surrogate.id)
    if type(value).__name__ == "EnumSymbol":
        return sym(value.name)
    return value


def to_client(value):
    """The form :class:`StoreClient` accepts for a canonical value."""
    from repro.net.client import ref
    from repro.typesys.values import EnumSymbol
    if isinstance(value, tuple):
        return ref(value[1]) if value[0] == "@" else EnumSymbol(value[1])
    return value


def to_library(value, resolve):
    """The form the in-process store API accepts (``resolve`` maps a
    sid to a live object)."""
    from repro.typesys.values import EnumSymbol
    if isinstance(value, tuple):
        return resolve(value[1]) if value[0] == "@" else EnumSymbol(value[1])
    return value


def digest_items(items) -> str:
    """sha256 over ``(sid, sorted classes, sorted values)`` in sid order."""
    h = hashlib.sha256()
    for sid, classes, values in sorted(items, key=lambda item: item[0]):
        h.update(json.dumps([sid, sorted(classes),
                             sorted((k, v) for k, v in values.items())],
                            separators=(",", ":")).encode())
    return h.hexdigest()


def store_digest(store) -> str:
    """Digest of a live (recovered or replica) store, same canonical
    form as :meth:`Model.digest`."""
    return digest_items(
        (obj.surrogate.id, obj.memberships,
         {k: from_live(v) for k, v in obj.values_snapshot().items()})
        for obj in store.instances())


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------

class Model:
    """Every object the benchmark wrote: sid -> (direct classes, values).

    Surrogate ids are predicted the way the store allocates them (one
    counter from 1, one id per create or bulk row); setup verifies the
    prediction against the program's extents.  Class members and the
    ``INDEXED`` attributes are kept indexed so that checking an answer
    costs little next to the request it checks.
    """

    INDEXED = ("age", "name")

    def __init__(self) -> None:
        self.objects: Dict[int, Tuple[set, dict]] = {}
        self.members: Dict[str, set] = {}
        self.index: Dict[str, Dict[object, set]] = {
            attr: {} for attr in self.INDEXED}
        self.next_sid = 1

    def add(self, classes, values) -> int:
        sid = self.next_sid
        self.next_sid += 1
        self.objects[sid] = (set(), {})
        for cls in classes:
            self.classify(sid, cls)
        for attr, value in values.items():
            self.set(sid, attr, value)
        return sid

    def set(self, sid: int, attr: str, value) -> None:
        values = self.objects[sid][1]
        postings = self.index.get(attr)
        if postings is not None and attr in values:
            postings[values[attr]].discard(sid)
        values[attr] = value
        if postings is not None:
            postings.setdefault(value, set()).add(sid)

    def _reindex(self, sid: int, before: frozenset) -> None:
        after = closure(self.objects[sid][0])
        for cls in before - after:
            self.members[cls].discard(sid)
        for cls in after - before:
            self.members.setdefault(cls, set()).add(sid)

    def classify(self, sid: int, cls: str) -> None:
        before = closure(self.objects[sid][0])
        self.objects[sid][0].add(cls)
        self._reindex(sid, before)

    def declassify(self, sid: int, cls: str) -> None:
        before = closure(self.objects[sid][0])
        self.objects[sid][0].discard(cls)
        self._reindex(sid, before)

    def classes(self, sid: int) -> set:
        return self.objects[sid][0]

    def values(self, sid: int) -> dict:
        return self.objects[sid][1]

    def extent(self, cls: str) -> List[int]:
        return sorted(self.members.get(cls, ()))

    def count(self, cls: str) -> int:
        return len(self.members.get(cls, ()))

    def digest(self) -> str:
        return digest_items((sid, classes, values) for sid, (classes, values)
                            in self.objects.items())

    def conforms_treated_by(self, sid: int) -> bool:
        """The paper's rule on ``treatedBy``: a Patient is treated by a
        Physician, or is an Alcoholic treated by a Psychologist."""
        classes, values = self.objects[sid]
        full = closure(classes)
        if "Patient" not in full or "treatedBy" not in values:
            return True
        doctor = closure(self.classes(values["treatedBy"][1]))
        return ("Physician" in doctor
                or ("Alcoholic" in full and "Psychologist" in doctor))

    # -- guarded evaluation ----------------------------------------------

    def read(self, sid: int, path: Sequence[str]):
        """Follow ``path`` from ``sid``; :data:`SKIP` where a step has no
        value."""
        value = refv(sid)
        for attr in path:
            if not (isinstance(value, tuple) and value[0] == "@"):
                return SKIP
            current = self.objects[value[1]][1]
            if attr not in current:
                return SKIP
            value = current[attr]
        return value

    def evaluate(self, query: "QuerySpec"):
        """``(rows, rows_skipped)`` or ``(aggregates, rows_skipped)``."""
        rows, skipped = [], 0
        members = self.members.get(query.source, set())
        kind, path, operand = query.conjuncts[0]
        if kind == "=" and len(path) == 1 and path[0] in self.index:
            # Rows outside the posting fail the first conjunct without
            # reading anything else: neither returned nor skipped.
            candidates = self.index[path[0]].get(operand, set()) & members
        else:
            candidates = members
        for sid in sorted(candidates):
            verdict = True
            for kind, path, operand in query.conjuncts:
                value = self.read(sid, path)
                if value is SKIP:
                    verdict = SKIP
                    break
                if kind in ("in", "not in"):
                    member = operand in closure(self.classes(value[1]))
                    ok = member if kind == "in" else not member
                else:
                    ok = value == operand if kind == "=" else value >= operand
                if not ok:
                    verdict = False
                    break
            if verdict is SKIP:
                skipped += 1
            elif verdict:
                rows.append((sid, [self.read(sid, path)
                                   for path in query.select]))
        if query.aggregate:
            ages = [values[0] for _sid, values in rows]
            return ([len(ages), min(ages) if ages else None,
                     max(ages) if ages else None, sum(ages)], skipped)
        return rows, skipped


class QuerySpec:
    """One query: its text and the same query as data for the model."""

    __slots__ = ("text", "source", "conjuncts", "select", "aggregate",
                 "kind")

    def __init__(self, kind: str, source: str, conjuncts, select=("name",),
                 aggregate: bool = False) -> None:
        """``conjuncts``: ``(op, path, operand)`` with op ``=``, ``>=``,
        ``in`` or ``not in``; the path is a tuple of attribute names
        read from the query variable (empty: the variable itself)."""
        self.kind = kind
        self.source = source
        self.conjuncts = tuple(conjuncts)
        self.select = tuple((s,) if isinstance(s, str) else tuple(s)
                            for s in select)
        self.aggregate = aggregate
        parts = []
        for op, path, operand in self.conjuncts:
            if op in ("in", "not in"):
                parts.append(f"{'.'.join(('p',) + path)} {op} {operand}")
            else:
                parts.append(f"p.{'.'.join(path)} {op} {_literal(operand)}")
        where = f" where {' and '.join(parts)}" if parts else ""
        if aggregate:
            items = "count, min p.age, max p.age, total p.age"
        else:
            items = ", ".join("p." + ".".join(path) for path in self.select)
        self.text = f"for p in {source}{where} select {items}"


def _literal(value) -> str:
    if isinstance(value, tuple):
        return "'" + value[1]
    if isinstance(value, str):
        return json.dumps(value)
    return str(value)


def check_answer(model: Model, query: QuerySpec, answer) -> Optional[str]:
    """None when the program's ``query`` answer equals the model's,
    else a description of the first difference."""
    expected, skipped = model.evaluate(query)
    got_skipped = answer["stats"]["rows_skipped"]
    if query.aggregate:
        got = [from_wire(v) for v in answer["agg"]]
        if got != expected:
            return f"{query.text}: aggregates {got} != {expected}"
    else:
        got = [(sid, [from_wire(v) for v in values])
               for sid, values in answer["rows"]]
        if got != expected:
            return (f"{query.text}: {len(got)} rows != {len(expected)} "
                    "expected (or values differ)")
    if got_skipped != skipped:
        return f"{query.text}: rows_skipped {got_skipped} != {skipped}"
    return None


def check_get(model: Model, sid: int, answer) -> Optional[str]:
    """None when a ``get`` answer equals the model and obeys the rule."""
    classes, values = model.objects[sid]
    got_values = {k: from_decoded(k, v) for k, v in answer["values"].items()}
    if sorted(answer["classes"]) != sorted(classes) or got_values != values:
        return f"get {sid}: {answer!r} != ({sorted(classes)}, {values})"
    if not model.conforms_treated_by(sid):
        return f"get {sid}: treatedBy breaks the paper's rule"
    return None


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

class Hospital:
    """Reference entities plus a patient population, all as model rows.

    ``refs`` are created one by one (their sids are needed by the rows);
    ``batches`` are bulk-loaded in order.  Shares of the patient
    population by class: Alcoholic (treated by a Psychologist),
    Ambulatory (no ward: excused to INAPPLICABLE), Renal_Failure
    (High_BP), Hemorrhaging (Low_BP) and plain Patients.  With
    ``extra_people`` every patient batch is followed by a batch of as
    many plain Persons, which reference nothing.
    """

    SHARES = (("Alcoholic", 0.10), ("Ambulatory_Patient", 0.10),
              ("Renal_Failure_Patient", 0.05),
              ("Hemorrhaging_Patient", 0.02))
    #: Wards (floors 1-5) when the population has wards.
    WARDS = 8

    def __init__(self, seed: int, n_patients: int, *, wards: bool = True,
                 n_physicians: int = 12, n_psychologists: int = 4,
                 extra_people: bool = False,
                 batch: int = 1000, broadcast: bool = False) -> None:
        rng = random.Random(seed)
        self.model = Model()
        self.refs: List[Tuple[str, dict]] = []
        self.broadcast = broadcast

        def ref_entity(cls, values):
            self.refs.append((cls, values))
            return self.model.add((cls,), values)

        self.physicians = [ref_entity("Physician", {
            "name": f"Dr. D{i}", "age": rng.randint(30, 65),
            "specialty": sym(SPECIALTIES[i % len(SPECIALTIES)])})
            for i in range(n_physicians)]
        self.psychologists = [ref_entity("Psychologist", {
            "name": f"Dr. P{i}", "age": rng.randint(28, 70),
            "therapyStyle": sym(STYLES[i % len(STYLES)])})
            for i in range(n_psychologists)]
        self.wards = ([ref_entity("Ward", {"floor": 1 + i % 5,
                                           "name": f"W{i}"})
                       for i in range(self.WARDS)] if wards else [])
        # Exact class counts in every block of 100 patients (only their
        # order within the block depends on the seed), so every seed
        # loads the same class sizes.
        block = [cls for cls, share in self.SHARES
                 for _ in range(round(share * 100))]
        block += ["Patient"] * (100 - len(block))
        patients = []
        for i in range(n_patients):
            if i % 100 == 0:
                rng.shuffle(block)
            cls = block[i % 100]
            values = {"name": f"p{i}", "age": rng.randint(1, 99),
                      "bloodPressure": sym("Normal_BP")}
            if cls == "Alcoholic":
                values["treatedBy"] = refv(rng.choice(self.psychologists))
            else:
                values["treatedBy"] = refv(rng.choice(self.physicians))
            if cls == "Renal_Failure_Patient":
                values["bloodPressure"] = sym("High_BP")
            elif cls == "Hemorrhaging_Patient":
                values["bloodPressure"] = sym("Low_BP")
            if wards and cls != "Ambulatory_Patient":
                values["ward"] = refv(rng.choice(self.wards))
            patients.append(((cls,), values))
        #: Bulk batches in load order; each is all patients (rows that
        #: reference entities) or all plain Persons (rows that reference
        #: nothing), so per-batch counters separate the two.
        self.batches: List[List[Tuple[Tuple[str, ...], dict]]] = []
        people = [(("Person",), {"name": f"e{i}", "age": rng.randint(1, 99)})
                  for i in range(n_patients if extra_people else 0)]
        for start in range(0, n_patients, batch):
            self.batches.append(patients[start:start + batch])
            if people:
                self.batches.append(people[start:start + batch])
        self.row_sids: List[int] = [
            self.model.add(classes, values)
            for rows in self.batches for classes, values in rows]

    def patients_of(self, cls: str) -> List[int]:
        return [sid for sid in self.row_sids
                if self.model.classes(sid) == {cls}]
