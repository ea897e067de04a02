"""The three workloads: data, operation streams, closed loops and checks.

Every workload is a closed loop: each load thread sends its next
operation only after the previous one has answered, as an OdeView user
waits for their window before clicking again.  The seed fixes the
operation stream of every thread (and the written values); the data a
workload starts from is generated through the program's own API.

* ``browse_ui`` — one OdeView user on the paper's lab database over one
  connection: ``next``/``previous``/``reset`` clicks and format toggles
  on the ``employee`` set with the synchronized ``dept`` window open,
  and a ``Screen.render`` after each click.  Everything fits every cache
  (client buffer cache, buffer pool, MVCC read cache), so the click path
  (core, dynlink, windowing) and small frames dominate.
* ``browse_cold`` — one connection of uniform random ``get_buffer``,
  cursor steps and ``select_pushdown`` probes on a synthetic database of
  12,000 readings with an index on ``reading.value``: about 310 pages,
  several times the buffer pool, the MVCC read cache and the client
  cache, so the storage read path dominates.  No UI and no writes.
* ``write_mix`` — on 2,000 readings (fits every server cache), one
  writer issuing autocommit updates of the indexed ``value`` plus a few
  insert-then-delete pairs, beside one browser that watches the change
  feed (``objects.watch()``) and does point reads.  The write path
  dominates; reads run beside it so a read-side gain that costs commits
  shows up.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

MAX_MESSAGES = 5


@dataclass
class Tally:
    """Latencies and outcomes of one measured window (all threads)."""

    #: Latency (ns) of every right answer, one per step.
    reads: List[int] = field(default_factory=list)
    writes: List[int] = field(default_factory=list)
    refresh: List[int] = field(default_factory=list)    # latency, ns
    #: Latency (ns, all steps summed) of every right answer, by op kind.
    by_kind: Dict[str, List[int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0          # raised an error
    wrong: int = 0           # answered, but the answer was wrong
    messages: List[str] = field(default_factory=list)
    facts: Dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def note(self, kind: str, message: str) -> None:
        with self._lock:
            if kind == "failed":
                self.failed += 1
            else:
                self.wrong += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"{kind}: {message}")

    def merge(self, reads=(), writes=(), attempted=0, by_kind=None) -> None:
        with self._lock:
            self.reads.extend(reads)
            self.writes.extend(writes)
            self.attempted += attempted
            for kind, latencies in (by_kind or {}).items():
                self.by_kind.setdefault(kind, []).extend(latencies)

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)


def data_digest(directory: Path) -> str:
    """SHA-256 of a database's catalog and page file."""
    digest = hashlib.sha256()
    for name in ("catalog.json", "data.pages"):
        digest.update((directory / name).read_bytes())
    return digest.hexdigest()


def op_stream(seed: int, stream: str, block: Tuple[Tuple[str, int], ...],
              draw: Callable[[random.Random, str], tuple]) -> Iterator[tuple]:
    """An endless seeded operation stream: ``(kind, *arguments)``.

    The stream is a sequence of blocks, each holding exactly ``count``
    operations of every ``(kind, count)`` in a seeded order, so every
    run executes the same mix and only the order and the arguments
    depend on the seed.
    """
    rng = random.Random(f"{seed}:{stream}")
    kinds = [kind for kind, count in block for _ in range(count)]
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            yield (kind,) + draw(rng, kind)


def strata(rng: random.Random, low: int, high: int, parts: int
           ) -> Iterator[int]:
    """Endless values in ``[low, high)``: each round draws one value from
    each of ``parts`` equal slices, in a seeded order, so a short run
    still covers the whole range evenly."""
    width = (high - low) / parts
    order = list(range(parts))
    while True:
        rng.shuffle(order)
        for part in order:
            start = low + int(part * width)
            end = max(start + 1, low + int((part + 1) * width))
            yield rng.randrange(start, end)


def closed_loop(deadline_ns: int, ops: Iterator[tuple],
                do: Callable[[tuple], Optional[str]], tally: Tally,
                latencies: List[int]) -> None:
    """Run ``do(op)`` back to back until the deadline.

    ``do`` returns an error message for a wrong answer, None for a right
    one, or ``(message, latency)`` when it times the operation itself
    (``latency`` in ns, or a list for an operation of several steps).
    Each right answer appends its latency (each step's) to
    ``latencies``, and the sum to the tally's row for its kind
    (``op[0]``).
    """
    clock = time.perf_counter_ns
    attempted = 0
    by_kind: Dict[str, List[int]] = {}
    while clock() < deadline_ns:
        op = next(ops)
        attempted += 1
        start = clock()
        try:
            outcome = do(op)
        except Exception as exc:   # every failure is counted, none fatal
            tally.note("failed", f"{op}: {type(exc).__name__}: {exc}")
            continue
        elapsed = clock() - start
        if isinstance(outcome, tuple):
            outcome, elapsed = outcome
        if outcome is not None:
            tally.note("wrong", f"{op}: {outcome}")
            continue
        steps = elapsed if isinstance(elapsed, list) else [elapsed]
        latencies.extend(steps)
        by_kind.setdefault(op[0], []).append(sum(steps))
    tally.merge(attempted=attempted, by_kind=by_kind)


# == browse_ui ====================================================================

#: An assumption: a user mostly steps forward, sometimes back, and now
#: and then changes a display format or starts over.  The paper gives
#: no mix.
UI_BLOCK = (("next", 55), ("previous", 30), ("reset", 3), ("toggle", 12))
SCREEN_WIDTH = 240


def ui_ops(seed: int) -> Iterator[tuple]:
    return op_stream(seed, "browse_ui", UI_BLOCK, lambda _rng, _kind: ())


def ui_expectation(position: int, truth: List[Tuple[int, str, str]]
                   ) -> List[str]:
    """Lines the rendered screen must show with the cursor at
    ``position`` (-1 = before the first employee): the set's status line
    and the text displays of the employee and of its department."""
    if position < 0:
        return [f"(no current object)  [{len(truth)} in set]"]
    number, name, dname = truth[position]
    return [f"object: lab:employee:{number}  [{position + 1}/{len(truth)}]",
            f"|name  : {name}", f"|department : {dname}"]


def check_ui(rendered: str, expectation: List[str]) -> Optional[str]:
    """Every expected line is on screen, ending at a blank or a border."""
    for text in expectation:
        if f"{text} " not in rendered and f"{text}|" not in rendered:
            return f"screen lacks {text!r}"
    return None


def user_click(kind: str, position: int, members: int) -> str:
    """The button the user clicks for a wanted move: at the end of the
    set they start over (reset), before its start they step forward, so
    every click redraws and the browse keeps covering the whole set."""
    if kind == "next" and position + 1 >= members:
        return "reset"
    if kind == "previous" and position <= 0:
        return "next"
    return kind


def next_position(position: int, kind: str, members: int) -> int:
    """The control panel's semantics (``SetNode``): next/previous stop at
    the ends, reset goes before the first member."""
    if kind == "next" and position + 1 < members:
        return position + 1
    if kind == "previous" and position > 0:
        return position - 1
    if kind == "reset":
        return -1
    return position


class BrowseUi:
    name = "browse_ui"

    def __init__(self, seed: int):
        self.seed = seed
        self.truth: List[Tuple[int, str, str]] = []
        self.database = "lab"

    def generate(self, root: Path) -> Dict[str, int]:
        from repro.data.labdb import make_lab_database

        database = make_lab_database(root)
        try:
            objects = database.objects
            truth = []
            for oid in objects.cluster("employee").oids():
                employee = objects.get_buffer(oid)
                dept = objects.get_buffer(employee.value("dept"))
                truth.append((oid.number, employee.value("name"),
                              dept.value("dname")))
            self.truth = truth
        finally:
            database.close()
        return {"objects": len(self.truth)}

    def connect(self, port: int, ui_root: Path) -> None:
        from repro.core.app import OdeView

        self.app = OdeView(ui_root, screen_width=SCREEN_WIDTH)
        session = self.app.connect_database("127.0.0.1", port, self.database)
        self.employees = session.open_object_set("employee")
        self.employees.toggle_format("text")
        self.employees.next()
        dept = self.employees.open_reference("dept")
        dept.toggle_format("text")
        self.position = 0
        self.app.render()

    def caches(self) -> List:
        return [self.app.session(self.database).database.objects.cache]

    def warm(self) -> None:
        """One pass over the whole set, back to the first employee."""
        for _ in range(len(self.truth)):
            self._click("next")
        self._click("reset")
        self._click("next")

    def _click(self, kind: str) -> str:
        browser = self.employees
        if kind == "toggle":
            self.app.click(browser.format_button_name("picture"))
        else:
            index = ("reset", "next", "previous").index(kind)
            self.app.click(f"{browser.path}.control.{kind}.{index}")
            self.position = next_position(self.position, kind,
                                          len(self.truth))
        return self.app.render()

    def loops(self, deadline_ns: int, tally: Tally) -> List[Callable]:
        clock = time.perf_counter_ns

        def click(op: tuple):
            # A format toggle opens the picture display and closes it
            # again: two clicks, so the next/previous clicks all redraw
            # the same set of windows.
            kinds = (("toggle", "toggle") if op[0] == "toggle"
                     else (user_click(op[0], self.position,
                                      len(self.truth)),))
            latencies = []
            for kind in kinds:
                start = clock()
                rendered = self._click(kind)
                latencies.append(clock() - start)
            return check_ui(rendered, ui_expectation(self.position,
                                                     self.truth)), latencies

        def user() -> None:
            reads: List[int] = []
            closed_loop(deadline_ns, ui_ops(self.seed), click, tally, reads)
            tally.merge(reads=reads)
            tally.facts["clicks"] = len(reads)

        return [user]

    def finish(self, bench) -> None:
        pass

    def close(self) -> None:
        self.app.shutdown()


# == synthetic data (browse_cold, write_mix) =======================================

def reading_value(seq: int) -> int:
    """The generator's ground truth (``repro.data.synthetic``)."""
    return (seq * 37) % 1000


def make_readings(root: Path, readings: int) -> Dict[str, int]:
    from repro.data.synthetic import make_synthetic_database

    database = make_synthetic_database(root, readings)
    try:
        database.create_index("reading", "value")
    finally:
        database.close()
    return {"objects": readings + 20}


def check_reading(buffer, seq: int, allowed: Optional[Set[int]] = None
                  ) -> Optional[str]:
    """A reading buffer is the ``seq``-th reading with a value the
    generator (or, with ``allowed``, a writer) gave it."""
    values = buffer.values
    if buffer.oid.number != seq or values.get("seq") != seq:
        return f"asked for reading {seq}, got {buffer.oid} seq={values.get('seq')}"
    expected = {reading_value(seq)} if allowed is None else allowed
    if values.get("value") not in expected:
        return f"reading {seq} has value {values.get('value')}"
    return None


def check_selection(buffers, expected: Set[int]) -> Optional[str]:
    got = {buffer.oid.number for buffer in buffers}
    if got != expected or len(buffers) != len(expected):
        return (f"selection returned {len(buffers)} rows, expected "
                f"{len(expected)} ({len(got ^ expected)} differ)")
    for buffer in buffers:
        error = check_reading(buffer, buffer.oid.number)
        if error:
            return error
    return None


# == browse_cold ===================================================================

COLD_READINGS = 12_000
#: The operation mix is an assumption; the paper gives none.  Mostly
#: point reads (a user opening objects), some cursor steps, a few
#: selections.  A range probe costs about a hundred point reads, so it
#: is rare enough to take roughly a third of the connection's time, not
#: the whole of it (the run prints each kind's share).
COLD_BLOCK = (("get", 160), ("step", 40), ("equal", 24), ("range", 1))
RANGE_WIDTH = 10   # values: 1 % of the 1,000-value domain


def cold_ops(seed: int) -> Iterator[tuple]:
    # A range probe costs in proportion to the smaller side of its range
    # (the planner probes one conjunct), so its low end is stratified.
    lows = strata(random.Random(f"{seed}:browse_cold:range"),
                  0, 1000 - RANGE_WIDTH, 11)

    def draw(rng: random.Random, kind: str) -> tuple:
        if kind == "get":
            return (rng.randrange(COLD_READINGS),)
        if kind == "equal":
            return (rng.randrange(1000),)
        if kind == "range":
            return (next(lows),)
        return ()
    return op_stream(seed, "browse_cold", COLD_BLOCK, draw)


class BrowseCold:
    """One connection: with two, each one's reads queue behind the
    other's range probes on the server's event loop, which serves reads
    inline, and the median read moved by up to 30 % between sets."""

    name = "browse_cold"
    database = "synthetic"

    def __init__(self, seed: int):
        self.seed = seed
        self.by_value: Dict[int, Set[int]] = {}
        for seq in range(COLD_READINGS):
            self.by_value.setdefault(reading_value(seq), set()).add(seq)

    def generate(self, root: Path) -> Dict[str, int]:
        return make_readings(root, COLD_READINGS)

    def connect(self, port: int, ui_root: Path) -> None:
        from repro.net.remote import RemoteDatabase

        self.client = RemoteDatabase.connect("127.0.0.1", port, self.database)
        self.cursor = self.client.objects.cursor("reading")
        self.step = -1

    def caches(self) -> List:
        return [self.client.objects.cache]

    def _do(self, op: tuple) -> Optional[str]:
        from repro.ode.oid import Oid

        objects = self.client.objects
        kind = op[0]
        if kind == "get":
            seq = op[1]
            return check_reading(
                objects.get_buffer(Oid(self.database, "reading", seq)), seq)
        if kind == "step":
            oid = self.cursor.next()
            self.step += 1
            if oid is None:
                self.cursor.reset()
                oid = self.cursor.next()
                self.step = 0
            if oid is None or oid.number != self.step:
                return f"cursor step {self.step} gave {oid}"
            return None
        if kind == "equal":
            value = op[1]
            return check_selection(
                objects.select_pushdown("reading", f"value == {value}"),
                self.by_value[value])
        low = op[1]
        expected = set().union(*(self.by_value[value] for value in
                                 range(low, low + RANGE_WIDTH)))
        return check_selection(
            objects.select_pushdown(
                "reading", f"value >= {low} && value < {low + RANGE_WIDTH}"),
            expected)

    def warm(self) -> None:
        ops = cold_ops(self.seed + 1_000_003)
        for _ in range(50):
            error = self._do(next(ops))
            if error:
                raise RuntimeError(f"warm-up answer wrong: {error}")

    def loops(self, deadline_ns: int, tally: Tally) -> List[Callable]:
        def load() -> None:
            reads: List[int] = []
            closed_loop(deadline_ns, cold_ops(self.seed), self._do, tally,
                        reads)
            tally.merge(reads=reads)

        return [load]

    def finish(self, bench) -> None:
        pass

    def close(self) -> None:
        self.client.close()


# == write_mix =====================================================================

MIX_READINGS = 2_000
#: An assumption, like every mix here: "a small share" of
#: insert-then-delete pairs, with no figure to go by.
WRITER_BLOCK = (("update", 19), ("churn", 1))
CDC_DRAIN_SECONDS = 20.0


def writer_ops(seed: int) -> Iterator[tuple]:
    def draw(rng: random.Random, kind: str) -> tuple:
        return (rng.randrange(MIX_READINGS), rng.randrange(1000))
    return op_stream(seed, "write_mix:writer", WRITER_BLOCK, draw)


def browser_ops(seed: int) -> Iterator[tuple]:
    return op_stream(seed, "write_mix:browser", (("get", 1),),
                     lambda rng, _kind: (rng.randrange(MIX_READINGS),))


def check_recovery(readback: Dict[int, Optional[int]],
                   acked: Dict[int, int], uncertain: Dict[int, Set[int]]
                   ) -> List[str]:
    """After a crash and restart every acked write reads back its last
    acked value, and every acked delete stays deleted.

    ``readback`` maps an OID number to the value read (None: the object
    does not exist); ``acked`` to the last acked value (None: deleted);
    ``uncertain`` to the values a write that failed in flight may have
    left instead.
    """
    errors = []
    for number, value in acked.items():
        got = readback.get(number, "missing")
        if got != value and got not in uncertain.get(number, ()):
            errors.append(f"reading {number}: acked {value}, recovered {got}")
    return errors


def check_cdc(writes: List[Tuple[int, int]],
              events: List[Tuple[int, bool, Set[int]]]) -> List[str]:
    """The change feed covers every acked commit.

    ``writes`` holds ``(epoch, oid number)`` of acked commits, ``events``
    ``(epoch, resync, changed oid numbers)`` as the watcher received
    them.  An event covers the epochs since the previous event; a commit
    is covered when the first event at or after its epoch names its
    object, or is a resync marker.
    """
    ordered = sorted(events, key=lambda event: event[0])
    epochs = [event[0] for event in ordered]
    errors = []
    for epoch, number in writes:
        index = bisect.bisect_left(epochs, epoch)
        if index == len(ordered):
            errors.append(f"no change event at or after epoch {epoch}")
            continue
        _epoch, resync, changed = ordered[index]
        if not resync and number not in changed:
            errors.append(f"epoch {epoch}: event {epochs[index]} does not "
                          f"name reading {number}")
    return errors


class WriteMix:
    name = "write_mix"
    database = "synthetic"

    def __init__(self, seed: int):
        self.seed = seed
        # Values every reading may hold: the generator's, then each one a
        # writer sends (added before the send, so a racing read is legal).
        self.history: Dict[int, Set[int]] = {
            seq: {reading_value(seq)} for seq in range(MIX_READINGS)}
        self.acked: Dict[int, Optional[int]] = {}
        self.uncertain: Dict[int, Set[int]] = {}
        self.commits: List[Tuple[int, int, int]] = []  # epoch, number, sent
        self.events: List[Tuple[int, bool, Set[int], int]] = []
        self.user_bytes = 0
        self.next_seq = MIX_READINGS

    def generate(self, root: Path) -> Dict[str, int]:
        return make_readings(root, MIX_READINGS)

    def connect(self, port: int, ui_root: Path) -> None:
        from repro.net.remote import RemoteDatabase

        self.writer = RemoteDatabase.connect("127.0.0.1", port, self.database)
        self.browser = RemoteDatabase.connect("127.0.0.1", port, self.database)

    def _on_event(self, event) -> None:
        # On the client's network thread: record, never call back.
        numbers = {int(oid.rsplit(":", 1)[1]) for oid in event.oids()}
        self.events.append((event.epoch, event.resync, numbers,
                            time.perf_counter_ns()))

    def caches(self) -> List:
        return [self.writer.objects.cache, self.browser.objects.cache]

    def _write(self, op: tuple) -> Tuple[Optional[str], int]:
        from repro.ode.codec import encode_value
        from repro.ode.oid import Oid

        objects = self.writer.objects
        clock = time.perf_counter_ns
        kind, seq, value = op
        if kind == "update":
            oid = Oid(self.database, "reading", seq)
            updates = {"value": value}
            self.history[seq].add(value)
            self.uncertain.setdefault(seq, set()).add(value)
            start = clock()
            buffer = objects.update(oid, updates)
            elapsed = clock() - start
            self.uncertain[seq].discard(value)
            self.acked[seq] = value
            self.user_bytes += len(encode_value(updates))
            self.commits.append((objects.epoch, seq, start))
            if buffer.values.get("value") != value:
                return f"update of {oid} answered {buffer.values}", elapsed
            return None, elapsed
        # churn: insert a reading, then delete it — two autocommits.
        values = {"seq": self.next_seq, "value": value, "tag": "churn",
                  "source": None}
        self.next_seq += 1
        start = clock()
        oid = objects.new_object("reading", values)
        inserted = clock() - start
        self.acked[oid.number] = value
        self.user_bytes += len(encode_value(values))
        self.commits.append((objects.epoch, oid.number, start))
        self.uncertain[oid.number] = {None}
        start = clock()
        objects.delete(oid)
        deleted = clock() - start
        self.acked[oid.number] = None
        self.uncertain.pop(oid.number)
        self.commits.append((objects.epoch, oid.number, start))
        return None, [inserted, deleted]

    def _read(self, op: tuple) -> Optional[str]:
        from repro.ode.oid import Oid

        seq = op[1]
        buffer = self.browser.objects.get_buffer(
            Oid(self.database, "reading", seq))
        return check_reading(buffer, seq, self.history[seq])

    def warm(self) -> None:
        """Warm reads, then attach the watch.  The watch comes last: on an
        idle subscribed connection the client's push pump can hold the
        connection lock for its read timeout after a reply, which would
        make the warm-up measure that stall (see BASELINE.md)."""
        ops = browser_ops(self.seed + 1_000_003)
        for _ in range(200):
            error = self._read(next(ops))
            if error:
                raise RuntimeError(f"warm-up answer wrong: {error}")
        self.subscription = self.browser.objects.watch(
            on_refresh=self._on_event)

    def loops(self, deadline_ns: int, tally: Tally) -> List[Callable]:
        self.commits.clear()
        self.events.clear()
        self.user_bytes = 0

        def writer() -> None:
            writes: List[int] = []
            closed_loop(deadline_ns, writer_ops(self.seed),
                        self._write, tally, writes)
            tally.merge(writes=writes)

        def browser() -> None:
            reads: List[int] = []
            closed_loop(deadline_ns, browser_ops(self.seed),
                        self._read, tally, reads)
            tally.merge(reads=reads)

        return [writer, browser]

    def verify(self, tally: Tally) -> None:
        """Refresh latencies and the change-feed coverage check."""
        self._drain()
        tally.refresh.extend(self._refresh_latencies())
        tally.facts.update(
            user_bytes=self.user_bytes,
            cdc_events=len(self.events),
            cdc_resyncs=sum(1 for event in self.events if event[1]))
        for error in check_cdc([(epoch, number)
                                for epoch, number, _sent in self.commits],
                               [event[:3] for event in self.events]):
            tally.note("wrong", f"cdc: {error}")
        tally.attempted += len(self.commits)   # one coverage check each

    def _drain(self) -> None:
        """Wait until the watcher has seen the last acked epoch."""
        if not self.commits:
            return
        last = max(epoch for epoch, _number, _sent in self.commits)
        deadline = time.monotonic() + CDC_DRAIN_SECONDS
        while time.monotonic() < deadline:
            if self.events and max(e[0] for e in self.events) >= last:
                return
            time.sleep(0.01)

    def _refresh_latencies(self) -> List[int]:
        """Writer's send -> the watcher's callback for that epoch."""
        events = sorted(self.events, key=lambda event: event[0])
        epochs = [event[0] for event in events]
        latencies = []
        for epoch, _number, sent in self.commits:
            index = bisect.bisect_left(epochs, epoch)
            if index < len(events):
                latencies.append(events[index][3] - sent)
        return latencies

    def finish(self, bench) -> None:
        """Crash the server (SIGKILL), restart it, read every acked write."""
        from repro.net.remote import RemoteDatabase
        from repro.ode.oid import Oid

        self.subscription.close()
        self.close()
        bench.server.kill()
        bench.restart_server()
        tally = bench.tally
        client = RemoteDatabase.connect("127.0.0.1", bench.server.port,
                                        self.database)
        try:
            numbers = sorted(self.acked)
            readback: Dict[int, Optional[int]] = {}
            originals = [n for n in numbers if n < MIX_READINGS]
            for index in range(0, len(originals), 256):
                chunk = [Oid(self.database, "reading", n)
                         for n in originals[index:index + 256]]
                for buffer in client.objects.get_buffers(chunk):
                    readback[buffer.oid.number] = buffer.values.get("value")
            for number in numbers[len(originals):]:
                oid = Oid(self.database, "reading", number)
                readback[number] = (
                    client.objects.get_buffer(oid).values.get("value")
                    if client.objects.exists(oid) else None)
        finally:
            client.close()
        tally.attempted += len(numbers)
        for error in check_recovery(readback, self.acked, self.uncertain):
            tally.note("wrong", f"recovery: {error}")

    def close(self) -> None:
        for client in (self.writer, self.browser):
            client.close()


WORKLOADS = {"browse_ui": BrowseUi, "browse_cold": BrowseCold,
             "write_mix": WriteMix}
