"""Self-tests of the benchmark: ``python -m pytest perfbench/tests -q``."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as W  # noqa: E402
from perfbench.layers import CLIENT_HOOKS, PER_LAYER, SERVER_HOOKS  # noqa: E402
from perfbench.stats import percentile, self_times, tail  # noqa: E402
from perfbench.tracer import Hook, Tracer  # noqa: E402


# -- the percentile rule ------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    value, supported = tail(list(range(1, 1001)), 99.0)
    assert (value, supported) == (990, True)
    _value, supported = tail(list(range(1, 1000)), 99.0)
    assert not supported


def test_short_tail_is_flagged_not_fatal():
    from perfbench.run import latency_rows

    rows = []
    latency_rows(list(range(1, 51)), "read", rows)
    notes = {name: note for name, _v, _u, _n, note in rows}
    assert notes["read_p50_us"] == "whole window"
    assert notes["read_p90_us"].startswith("too short")
    assert notes["read_p99_us"].startswith("too short")


def test_closed_loop_tallies_each_kind():
    tally = W.Tally()
    ops = itertools.cycle([("get", 1), ("range", 2), ("get", 3), ("bad", 4)])
    answers = {"get": None, "range": (None, [5, 7]), "bad": "wrong"}
    latencies = []
    deadline = W.time.perf_counter_ns() + 10_000_000
    W.closed_loop(deadline, ops, lambda op: answers[op[0]], tally, latencies)
    assert set(tally.by_kind) == {"get", "range"}
    assert tally.by_kind["range"][0] == 12
    assert tally.wrong > 0 and tally.attempted > tally.wrong


def test_nearest_rank_percentile():
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([7], 99) == 7


# -- self time ----------------------------------------------------------------

def test_self_time_is_duration_minus_children():
    spans = [
        (1, None, "click", 0, 100, None),
        (2, 1, "display", 10, 40, None),
        (3, 1, "render", 50, 70, None),
        (4, 2, "call", 15, 35, None),
    ]
    times = self_times(spans)
    assert times == {1: 50, 2: 10, 3: 20, 4: 20}


def test_tracer_records_nesting_and_skips_reentry():
    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return self.again()

        def again(self):
            return 1

    module = SimpleNamespace(__name__="fake_layer", Layer=Layer)
    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer()
        tracer.install([Hook("outer", "fake_layer:Layer.outer"),
                        Hook("inner", "fake_layer:Layer.inner"),
                        Hook("inner", "fake_layer:Layer.again")])
        assert Layer().outer() == 2
    finally:
        del sys.modules["fake_layer"]
    names = [span[2] for span in tracer.spans]
    assert sorted(names) == ["inner", "inner", "outer"]   # again re-enters
    outer = next(span for span in tracer.spans if span[2] == "outer")
    assert all(span[1] == outer[0] for span in tracer.spans
               if span[2] == "inner")


def test_class_level_wrapping_keeps_bound_method_identity():
    class Subscriber:
        def offer(self, item):
            return item

    module = SimpleNamespace(__name__="fake_cdc", Subscriber=Subscriber)
    sys.modules["fake_cdc"] = module
    try:
        subscriber = Subscriber()
        Tracer().install([Hook("cdc", "fake_cdc:Subscriber.offer")])
        callbacks = [subscriber.offer]
        callbacks.remove(subscriber.offer)   # an unsubscribe by equality
        assert subscriber.offer(3) == 3
    finally:
        del sys.modules["fake_cdc"]


def test_missing_hook_target_is_unmeasured_not_fatal():
    tracer = Tracer()
    tracer.install([Hook("gone", "repro.ode.store:ObjectStore.no_such_method"),
                    Hook("gone", "repro.no_such_module:f")])
    assert [target for target, _ in tracer.unmeasured] == [
        "repro.ode.store:ObjectStore.no_such_method", "repro.no_such_module:f"]
    assert tracer.installed == []


def test_every_hook_target_exists_in_the_program():
    for hooks in (CLIENT_HOOKS, SERVER_HOOKS):
        tracer = Tracer()
        try:
            tracer.install(hooks)
            assert tracer.unmeasured == []
        finally:
            _restore(tracer)


def _restore(tracer: Tracer) -> None:
    """Undo a test's installs so later tests see the plain program."""
    import importlib

    for target in tracer.installed:
        module_name, _, path = target.partition(":")
        owner_name, _, attr = path.rpartition(".")
        owner = importlib.import_module(module_name)
        for part in filter(None, owner_name.split(".")):
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        inner = getattr(raw, "__func__", raw)
        original = inner.__wrapped__
        if isinstance(raw, staticmethod):
            original = staticmethod(original)
        setattr(owner, attr, original)
        for module in list(sys.modules.values()):
            if getattr(module, attr, None) is raw:
                setattr(module, attr, original)


def test_per_layer_metric_names_are_unique():
    names = [name for name, _unit in PER_LAYER]
    assert len(names) == len(set(names))


# -- checkers reject planted wrong answers -------------------------------------

TRUTH = [(0, "rakesh", "db research"), (1, "narain", "languages")]


def _screen(status: str, name: str, dname: str) -> str:
    return (f"||{status}   ||\n|name  : {name}     |\n"
            f"|department : {dname} |\n")


def test_ui_checker():
    right = _screen("object: lab:employee:1  [2/2]", "narain", "languages")
    assert W.check_ui(right, W.ui_expectation(1, TRUTH)) is None
    for wrong in (
            _screen("object: lab:employee:0  [1/2]", "narain", "languages"),
            _screen("object: lab:employee:1  [2/2]", "rakesh", "languages"),
            _screen("object: lab:employee:1  [2/2]", "narain", "unix"),
            _screen("object: lab:employee:1  [2/2]", "narainx", "languages")):
        assert W.check_ui(wrong, W.ui_expectation(1, TRUTH)) is not None
    before = "|(no current object)  [2 in set]   |"
    assert W.check_ui(before, W.ui_expectation(-1, TRUTH)) is None
    assert W.check_ui(right, W.ui_expectation(-1, TRUTH)) is not None


def test_user_never_clicks_a_no_op():
    assert W.user_click("next", 1, 2) == "reset"
    assert W.user_click("next", 0, 2) == "next"
    assert W.user_click("previous", 0, 2) == "next"
    assert W.user_click("previous", -1, 2) == "next"
    assert W.user_click("previous", 1, 2) == "previous"


def test_control_panel_model():
    assert W.next_position(-1, "next", 2) == 0
    assert W.next_position(1, "next", 2) == 1
    assert W.next_position(0, "previous", 2) == 0
    assert W.next_position(1, "reset", 2) == -1
    assert W.next_position(1, "toggle", 2) == 1


def _reading(seq: int, value: int, number=None):
    oid = SimpleNamespace(number=seq if number is None else number)
    return SimpleNamespace(oid=oid, values={"seq": seq, "value": value})


def test_reading_checker():
    assert W.check_reading(_reading(7, W.reading_value(7)), 7) is None
    assert W.check_reading(_reading(7, W.reading_value(7) + 1), 7)
    assert W.check_reading(_reading(8, W.reading_value(8)), 7)
    assert W.check_reading(_reading(7, 5), 7, allowed={5, 6}) is None
    assert W.check_reading(_reading(7, 4), 7, allowed={5, 6})


def test_selection_checker():
    expected = {seq for seq in range(3000) if W.reading_value(seq) == 37}
    right = [_reading(seq, 37) for seq in sorted(expected)]
    assert W.check_selection(right, expected) is None
    assert W.check_selection(right[1:], expected)               # a row lost
    assert W.check_selection(right + [_reading(2, 74)], expected)  # extra
    assert W.check_selection(right + right[:1], expected)       # duplicate
    planted = right[:-1] + [_reading(right[-1].oid.number, 38)]
    assert W.check_selection(planted, expected)                 # bad value


def test_recovery_checker():
    acked = {1: 10, 2: 20, 2001: None}
    assert W.check_recovery({1: 10, 2: 20, 2001: None}, acked, {}) == []
    assert W.check_recovery({1: 10, 2: 19, 2001: None}, acked, {})
    assert W.check_recovery({1: 10, 2: 20, 2001: 5}, acked, {})
    assert W.check_recovery({1: 10, 2: 20}, acked, {})
    assert W.check_recovery({1: 10, 2: 21, 2001: None}, acked,
                            {2: {21}}) == []


def test_cdc_checker():
    writes = [(5, 1), (6, 2), (7, 3)]
    events = [(5, False, {1}), (6, False, {2}), (7, False, {3})]
    assert W.check_cdc(writes, events) == []
    assert W.check_cdc(writes, events[:2])                  # epoch 7 lost
    assert W.check_cdc(writes, [events[0], (6, False, {9}), events[2]])
    assert W.check_cdc(writes, [events[0], (7, True, set())]) == []
    merged = [(5, False, {1}), (7, False, {2, 3})]          # a batched push
    assert W.check_cdc(writes, merged) == []


# -- determinism ----------------------------------------------------------------

def _first(stream, count=200):
    return list(itertools.islice(stream, count))


def test_same_seed_same_operations():
    for make in (W.ui_ops, W.cold_ops, W.writer_ops, W.browser_ops):
        assert _first(make(3)) == _first(make(3))
        assert _first(make(3)) != _first(make(4))


def test_same_data_digest(tmp_path):
    digests = []
    for index in range(2):
        root = tmp_path / f"db{index}"
        W.make_readings(root, 300)
        digests.append(W.data_digest(root / "synthetic.odb"))
    assert digests[0] == digests[1]
    lab = []
    for index in range(2):
        workload = W.BrowseUi(seed=1)
        workload.generate(tmp_path / f"lab{index}")
        lab.append((W.data_digest(tmp_path / f"lab{index}" / "lab.odb"),
                    workload.truth))
    assert lab[0] == lab[1]
    assert len(lab[0][1]) == 55


def test_host_probe_times_reference_tasks(tmp_path):
    from perfbench.proc import LIVE, HostProbe

    probe = HostProbe(tmp_path)
    costs = probe.stop()
    assert costs and all(cost > 0 for cost in costs)
    assert probe not in LIVE
