"""The three workloads: their catalogs, client loops and answer models.

Every workload keeps a model of the database in Python, built from the
seed alone, and checks each answer against it.  Two client threads run
at once, so a read may overlap another thread's write; the models track
writes in flight and accept exactly the answers some serialization of
the overlapping writes allows.  Writes are split between the threads
(thread ``t`` writes only items with ``index % 2 == t``), so one item's
writes are sequential and its committed value is known.
"""

from __future__ import annotations

import random
import threading
import time

from harness import RequestFailed, Wire, WrongAnswer

#: The §3.3 view: ``Income`` reads ``Salary``, ``Bonus`` shares the
#: object's own mutable field.
VIEW = "fn x => [Name = x.Name, Income = x.Salary, Bonus := extract(x, Bonus)]"
NAMES = "fn S => map(fn o => query(fn v => v.Name, o), S)"
SIZE = "fn S => size(S)"
THRESHOLDS = (3000, 5000, 7000)


def filter_salary(threshold: int) -> str:
    return ("fn S => map(fn o => query(fn v => v.Name, o), "
            f"filter(fn o => query(fn v => v.Salary > {threshold}, o), S))")


class Recorder:
    """One client thread's request log: (kind, start, end, ok, cpu).

    ``cpu``, when given, reads the server's CPU clock; each sample then
    carries the server CPU seconds spent between the request's start and
    its reply (meaningful when this is the only client), else None."""

    def __init__(self, cpu=None):
        self.cpu = cpu
        self.samples: list[tuple[str, float, float, bool, float | None]] = []

    def run(self, kind: str, fn):
        """Time ``fn()`` as one request of ``kind``: "w", or "r" or
        "r.<read kind>" for a read.
        Returns ``(ok, result)``; a wrong answer propagates."""
        cpu0 = self.cpu() if self.cpu else None
        start = time.perf_counter()
        try:
            result = fn()
        except RequestFailed:
            self._record(kind, start, cpu0, False)
            return False, None
        self._record(kind, start, cpu0, True)
        return True, result

    def _record(self, kind, start, cpu0, ok) -> None:
        end = time.perf_counter()
        cpu = self.cpu() - cpu0 if self.cpu else None
        self.samples.append((kind, start, end, ok, cpu))


class Workload:
    """Base class: sizes, the build, and the shared model lock."""

    name = ""

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = dict(sizes)
        #: Acknowledged writes made before the recovery repetitions, so
        #: each restart replays the same log whatever the throughput.
        self.preload_writes = self.sizes["preload_writes"]
        self.rng = random.Random(seed)
        self.lock = threading.Lock()

    def build(self, cat) -> None:
        """Load the initial catalog (the model's state before any write)."""
        raise NotImplementedError

    def iteration(self, wire: Wire, t: int, rng: random.Random,
                  rec: Recorder) -> None:
        """One loop of client ``t``: one or more requests."""
        raise NotImplementedError

    def write(self, wire: Wire, t: int, rng: random.Random,
              rec: Recorder) -> None:
        """One write request of client ``t`` (the preload phase)."""
        raise NotImplementedError

    def first_request(self) -> dict:
        """The read request that proves a restarted server serves."""
        raise NotImplementedError

    def check_durable(self, wire: Wire) -> None:
        """Read back every acknowledged write (no requests in flight)."""
        raise NotImplementedError


class ViewUpdate(Workload):
    """§3.3: read ``Income`` through a view, write ``Bonus := 3·Income``
    in one interactive transaction, then read another object."""

    name = "view_update"

    def __init__(self, seed: int, sizes: dict):
        super().__init__(seed, sizes)
        n = self.sizes["employees"]
        self.salary = [self.rng.randrange(1000, 9000) for _ in range(n)]
        self.written: set[int] = set()     # acknowledged Bonus writes
        self.uncertain: set[int] = set()   # writes that failed

    def build(self, cat) -> None:
        names = []
        for i, salary in enumerate(self.salary):
            cat.new_object(f"e{i}", Name=f"E{i}", Salary=salary,
                           mutable={"Bonus": 0})
            names.append(f"e{i}")
        cat.define_class("Staff", own=names)

    def write(self, wire, t, rng, rec) -> None:
        i = rng.randrange(t, len(self.salary), 2)
        salary = self.salary[i]

        def body(step):
            income = step({"op": "eval", "src":
                           f"query(fn v => v.Income, (e{i} as {VIEW}))"})
            if income != salary:
                raise WrongAnswer(f"e{i}: Income {income} != Salary {salary}")
            step({"op": "update", "object": f"e{i}", "label": "Bonus",
                  "value": 3 * income})

        ok, _ = rec.run("w", lambda: wire.transaction(body))
        with self.lock:
            (self.written if ok else self.uncertain).add(i)

    def iteration(self, wire, t, rng, rec) -> None:
        self.write(wire, t, rng, rec)
        j = rng.randrange(len(self.salary))
        with self.lock:
            must = j in self.written
        ok, got = rec.run("r", lambda: wire.call({"op": "eval", "src": (
            f"query(fn v => [Income = v.Income, Bonus = v.Bonus], "
            f"(e{j} as {VIEW}))")}))
        if ok:
            salary = self.salary[j]
            allowed = {3 * salary} if must else {0, 3 * salary}
            if (not isinstance(got, dict) or got.get("Income") != salary
                    or got.get("Bonus") not in allowed):
                raise WrongAnswer(f"e{j}: read {got}, salary {salary}, "
                                  f"allowed Bonus {sorted(allowed)}")

    def first_request(self) -> dict:
        return {"op": "eval", "src":
                f"query(fn v => v.Income, (e0 as {VIEW}))"}

    def check_durable(self, wire) -> None:
        rows = wire.call({"op": "extent", "class": "Staff"})
        if len(rows) != len(self.salary):
            raise WrongAnswer(f"Staff has {len(rows)} members after restart")
        for row in rows:
            i = int(row["Name"][1:])
            if row["Salary"] != self.salary[i]:
                raise WrongAnswer(f"e{i}: Salary {row['Salary']} recovered")
            if i in self.uncertain:
                continue
            want = 3 * self.salary[i] if i in self.written else 0
            if row["Bonus"] != want:
                raise WrongAnswer(f"e{i}: Bonus {row['Bonus']} recovered, "
                                  f"acknowledged {want}")


class ClassScan(Workload):
    """§4.2: class reads through a view and a predicate, and 1 in 10
    requests an ``update`` of one person's ``Salary``."""

    name = "class_scan"
    WRITE_SHARE = 0.1
    READ_KINDS = ("size", "names", "filter", "extent")

    def __init__(self, seed: int, sizes: dict):
        super().__init__(seed, sizes)
        n = self.sizes["people"]
        # Exactly half are women, so every seed scans a class of one size.
        self.female = [i < n // 2 for i in range(n)]
        self.rng.shuffle(self.female)
        self.salary = [self.rng.randrange(1000, 9000) for _ in range(n)]
        self.initial_salary = list(self.salary)
        # Values a person's Salary may take while a read runs: writes in
        # flight, plus writes that failed (never resolved).
        self.pending: dict[int, set[int]] = {}
        self.uncertain: dict[int, set[int]] = {}
        self.readers: dict[int, dict[int, set[int]]] = {}
        self.reader_ids = 0

    def build(self, cat) -> None:
        from repro.db.catalog import IncludeSpec
        names = []
        for i, salary in enumerate(self.initial_salary):
            cat.new_object(f"p{i}", Name=f"P{i}",
                           Sex="female" if self.female[i] else "male",
                           mutable={"Salary": salary})
            names.append(f"p{i}")
        cat.define_class("Staff", own=names)
        cat.define_class("Women", includes=[IncludeSpec(
            ["Staff"], "fn x => [Name = x.Name, Salary := extract(x, Salary)]",
            'fn o => query(fn x => x.Sex = "female", o)')])

    def write(self, wire, t, rng, rec) -> None:
        i = rng.randrange(t, len(self.salary), 2)
        value = rng.randrange(1000, 9000)
        with self.lock:
            self.pending.setdefault(i, set()).add(value)
            for extra in self.readers.values():
                extra.setdefault(i, set()).add(value)
        ok, _ = rec.run("w", lambda: wire.call(
            {"op": "update", "object": f"p{i}", "label": "Salary",
             "value": value}))
        with self.lock:
            self.pending[i].discard(value)
            if ok:
                self.salary[i] = value
            else:
                self.uncertain.setdefault(i, set()).add(value)

    def iteration(self, wire, t, rng, rec) -> None:
        if rng.random() < self.WRITE_SHARE:
            self.write(wire, t, rng, rec)
            return
        kind = rng.randrange(4)
        threshold = rng.choice(THRESHOLDS)
        if kind == 0:
            msg = {"op": "query", "class": "Women", "fn": SIZE}
        elif kind == 1:
            msg = {"op": "query", "class": "Women", "fn": NAMES}
        elif kind == 2:
            msg = {"op": "query", "class": "Women",
                   "fn": filter_salary(threshold)}
        else:
            msg = {"op": "extent", "class": "Women"}
        with self.lock:
            self.reader_ids += 1
            rid = self.reader_ids
            start = list(self.salary)
            extra = {i: set(v) for i, v in self.pending.items() if v}
            for i, values in self.uncertain.items():
                extra.setdefault(i, set()).update(values)
            self.readers[rid] = extra
        try:
            ok, got = rec.run("r." + self.READ_KINDS[kind],
                              lambda: wire.call(msg))
        finally:
            with self.lock:
                del self.readers[rid]
        if ok:
            self._check(kind, threshold, msg, got, start, extra)

    def _check(self, kind, threshold, msg, got, start, extra) -> None:
        women = [i for i, f in enumerate(self.female) if f]

        def allowed(i):
            return {start[i]} | extra.get(i, set())

        if kind == 0:
            ok = got == len(women)
        elif kind == 1:
            ok = sorted(got) == sorted(f"P{i}" for i in women)
        elif kind == 2:
            names = set(got)
            ok = len(names) == len(got)
            for i in women:
                votes = {v > threshold for v in allowed(i)}
                if len(votes) == 1 and ((f"P{i}" in names) != votes.pop()):
                    ok = False
            ok = ok and names <= {f"P{i}" for i in women}
        else:
            ok = len(got) == len(women)
            seen = set()
            for row in got:
                i = int(row["Name"][1:])
                seen.add(i)
                if not self.female[i] or row["Salary"] not in allowed(i):
                    ok = False
            ok = ok and len(seen) == len(women)
        if not ok:
            raise WrongAnswer(f"{msg}: answer {str(got)[:200]} disagrees "
                              "with the model")

    def first_request(self) -> dict:
        return {"op": "query", "class": "Women", "fn": SIZE}

    def check_durable(self, wire) -> None:
        rows = wire.call({"op": "extent", "class": "Staff"})
        if len(rows) != len(self.salary):
            raise WrongAnswer(f"Staff has {len(rows)} members after restart")
        for row in rows:
            i = int(row["Name"][1:])
            if row["Salary"] != self.salary[i] and \
                    row["Salary"] not in self.uncertain.get(i, ()):
                raise WrongAnswer(f"p{i}: Salary {row['Salary']} recovered, "
                                  f"acknowledged {self.salary[i]}")


class Membership(Workload):
    """§4.1: ``insert``/``delete`` of named objects in ``Pool``'s own
    extent, each followed by ``size`` of a class that includes ``Pool``."""

    name = "membership"

    def __init__(self, seed: int, sizes: dict):
        super().__init__(seed, sizes)
        n = self.sizes["objects"]
        # Half of each thread's objects start in Pool.
        members = []
        for t in (0, 1):
            own = list(range(t, n, 2))
            self.rng.shuffle(own)
            members += own[: len(own) // 2]
        self.initial_members = sorted(members)
        self.members = set(self.initial_members)
        self.pending: dict[int, int] = {}     # object -> +1 insert/-1 delete
        self.uncertain: set[int] = set()
        self.readers: dict[int, list[int]] = {}
        self.reader_ids = 0
        # Each thread alternates insert and delete, so Pool's size stays
        # within one per thread of its start.
        self.next_insert = [True, True]

    def build(self, cat) -> None:
        from repro.db.catalog import IncludeSpec
        n = self.sizes["objects"]
        for i in range(n):
            cat.new_object(f"m{i}", Name=f"M{i}", mutable={"Hits": 0})
        cat.define_class("Pool", own=[f"m{i}" for i in self.initial_members])
        cat.define_class("Members", includes=[IncludeSpec(
            ["Pool"], "fn x => [Name = x.Name]", "fn o => true")])

    def _bounds(self) -> tuple[int, int]:
        size = len(self.members)
        spread = len(self.uncertain)
        lo = size - spread + sum(min(0, d) for d in self.pending.values())
        hi = size + spread + sum(max(0, d) for d in self.pending.values())
        return lo, hi

    def _widen(self) -> None:
        lo, hi = self._bounds()
        for bounds in self.readers.values():
            bounds[0] = min(bounds[0], lo)
            bounds[1] = max(bounds[1], hi)

    def write(self, wire, t, rng, rec) -> None:
        insert = self.next_insert[t]
        self.next_insert[t] = not insert
        with self.lock:
            mine = [i for i in range(t, self.sizes["objects"], 2)
                    if (i in self.members) != insert
                    and i not in self.uncertain]
        i = rng.choice(mine)
        op = "insert" if insert else "delete"
        with self.lock:
            self.pending[i] = 1 if insert else -1
            self._widen()
        msg = {"op": op, "class": "Pool", "object": f"m{i}"}
        ok, _ = rec.run("w", lambda: wire.call(msg))
        with self.lock:
            del self.pending[i]
            if not ok:
                self.uncertain.add(i)
            elif insert:
                self.members.add(i)
            else:
                self.members.discard(i)
            self._widen()

    def iteration(self, wire, t, rng, rec) -> None:
        self.write(wire, t, rng, rec)
        with self.lock:
            self.reader_ids += 1
            rid = self.reader_ids
            self.readers[rid] = list(self._bounds())
        try:
            ok, got = rec.run("r", lambda: wire.call(
                {"op": "query", "class": "Members", "fn": SIZE}))
        finally:
            with self.lock:
                lo, hi = self.readers.pop(rid)
        if ok and not lo <= got <= hi:
            raise WrongAnswer(f"size(Members) = {got}, model allows "
                              f"{lo}..{hi}")

    def first_request(self) -> dict:
        return {"op": "query", "class": "Members", "fn": SIZE}

    def check_durable(self, wire) -> None:
        got = wire.call({"op": "query", "class": "Pool", "fn": NAMES})
        names = {int(name[1:]) for name in got}
        if (names ^ self.members) - self.uncertain:
            raise WrongAnswer(
                f"Pool after restart differs from the acknowledged model "
                f"on {sorted((names ^ self.members) - self.uncertain)[:10]}")


WORKLOADS = {w.name: w for w in (ViewUpdate, ClassScan, Membership)}

#: Sizes per workload.  ``employees`` exceeds the server's 256-entry
#: footprint-summary cache, so view_update's one-shot reads cycle it.
SIZES = {
    "view_update": {"employees": 300, "preload_writes": 300},
    "class_scan": {"people": 300, "preload_writes": 200},
    "membership": {"objects": 200, "preload_writes": 200},
}
