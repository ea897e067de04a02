"""Which public calls the traced run times, and the per-layer metrics.

Each metric names the span(s) it is computed from; a span whose hook
could not be installed makes the metric ``unmeasured`` (with the hook's
target), and a hook that was installed but never called on a workload
gives 0 with the metric listed as ``no calls``.  Every metric below is
reported on every workload.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.stats import self_times
from perfbench.tracer import Hook


def _opcode_class(args, kwargs, _result) -> str:
    from repro.net.protocol import WRITE_OPCODES

    opcode = args[1] if len(args) > 1 else kwargs.get("opcode")
    return "w" if opcode in WRITE_OPCODES else "r"


def _result_len(_args, _kwargs, result) -> int:
    return len(result)


def _wire_size(_args, _kwargs, result) -> int:
    return result.wire_size


def _rows_examined(_args, _kwargs, plan) -> int:
    if plan.access == "scan":
        return plan.cardinality
    return len(plan.candidates or ())


_REMOTE = "repro.net.remote:RemoteObjectManager."
_CURSOR = "repro.net.remote:RemoteCursor."

#: Hooks installed in the load process (OdeView, the client library, and
#: the data generator, which calls the object manager directly).
CLIENT_HOOKS: Tuple[Hook, ...] = (
    Hook("core.sequence", "repro.core.objectbrowser:ObjectBrowser.sequence",
         tag=lambda _args, _kwargs, report: report.nodes_refreshed),
    Hook("dynlink.display", "repro.dynlink.registry:DisplayRegistry.display"),
    Hook("windowing.render", "repro.windowing.screen:Screen.render"),
    Hook("dagplace.place", "repro.dagplace.layout:place"),
    *(Hook("net.remote", _REMOTE + method) for method in (
        "get_buffer", "get_buffers", "scan", "count", "exists", "cursor",
        "select_pushdown", "explain", "new_object", "update", "delete",
        "begin", "commit", "abort")),
    *(Hook("net.remote", _CURSOR + method)
      for method in ("next", "previous", "reset", "seek")),
    Hook("net.client.call", "repro.net.client:OdeClient.call",
         tag=_opcode_class),
    Hook("net.protocol.encode", "repro.net.protocol:encode_frame",
         tag=_result_len),
    # Only the protocol module's own binding: the codec calls its
    # decode_value recursively and for stored objects too.
    Hook("net.protocol.decode", "repro.net.protocol:decode_value",
         rebind=False),
    Hook("net.protocol.read_frame", "repro.net.protocol:read_frame",
         tag=_wire_size),
    Hook("ode.ingest", "repro.ode.objectmanager:ObjectManager.new_object"),
    Hook("ode.ingest.commit", "repro.ode.objectmanager:ObjectManager.commit"),
    Hook("ode.ingest.index", "repro.ode.database:Database.create_index"),
)

#: Hooks installed in the server process by ``perfbench.traced_serve``.
SERVER_HOOKS: Tuple[Hook, ...] = (
    Hook("net.session.dispatch", "repro.net.session:ServerSession.dispatch",
         tag=_opcode_class),
    Hook("net.session.write_prepare",
         "repro.net.session:ServerSession.write_prepare"),
    Hook("ode.objectmanager.commit_wait",
         "repro.ode.objectmanager:ObjectManager.commit_wait"),
    Hook("net.protocol.encode", "repro.net.protocol:encode_frame",
         tag=_result_len),
    Hook("net.protocol.decode", "repro.net.protocol:decode_value",
         rebind=False),
    Hook("ode.objectmanager.get_buffer",
         "repro.ode.objectmanager:ObjectManager.get_buffer"),
    Hook("ode.store.snapshot", "repro.ode.store:ObjectStore.snapshot"),
    Hook("ode.store.snapshot_close", "repro.ode.store:Snapshot.close"),
    Hook("ode.store.commit_stage", "repro.ode.store:ObjectStore.commit_stage"),
    Hook("ode.store.commit_wait", "repro.ode.store:ObjectStore.commit_wait"),
    Hook("ode.bufferpool.fetch", "repro.ode.bufferpool:BufferPool.fetch"),
    Hook("ode.pagefile.read", "repro.ode.pagefile:PageFile.read_page"),
    Hook("ode.pagefile.write", "repro.ode.pagefile:PageFile.write_page"),
    Hook("ode.codec.decode_object", "repro.ode.codec:decode_object"),
    Hook("ode.wal.sync", "repro.ode.wal:WriteAheadLog.sync"),
    Hook("ode.wal.group_sync", "repro.ode.wal:WriteAheadLog.group_sync"),
    Hook("ode.wal.submit", "repro.ode.wal:GroupCommit.submit",
         count_only=True),
    Hook("ode.wal.encode_frame", "repro.ode.wal:WriteAheadLog.encode_frame",
         tag=_result_len),
    Hook("ode.wal.checkpoint", "repro.ode.wal:WriteAheadLog.checkpoint"),
    Hook("ode.index.apply", "repro.ode.index:IndexManager.apply_effects"),
    Hook("ode.index.probe", "repro.ode.index:AttributeIndex.equal"),
    Hook("ode.index.probe", "repro.ode.index:AttributeIndex.range"),
    Hook("core.queryplan.plan", "repro.core.queryplan:SelectionPlanner.plan",
         tag=_rows_examined),
    Hook("core.queryplan.execute",
         "repro.core.queryplan:SelectionPlanner.execute"),
    Hook("cdc.offer", "repro.cdc.router:CdcSubscriber.offer"),
    Hook("obs.observe", "repro.obs.metrics:Histogram.observe",
         count_only=True),
)

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.click_self_us", "us"),
    ("core.windows_refreshed_per_click", "count"),
    ("dynlink.display_us_per_click", "us"),
    ("windowing.render_us", "us"),
    ("dagplace.layout_ms", "ms"),
    ("net.remote.calls_per_op", "count"),
    ("net.remote.cache_hit_ratio", "ratio"),
    ("net.client.round_trips_per_op", "count"),
    ("net.client.rtt_read_us", "us"),
    ("net.client.rtt_write_us", "us"),
    ("net.client.read_syscalls_per_op", "count"),
    ("net.server.syscalls_per_op", "count"),
    ("net.server.ctx_switches_per_op", "count"),
    ("net.protocol.encode_us.client", "us"),
    ("net.protocol.decode_us.client", "us"),
    ("net.protocol.encode_us.server", "us"),
    ("net.protocol.decode_us.server", "us"),
    ("net.protocol.request_bytes", "bytes"),
    ("net.protocol.reply_bytes", "bytes"),
    ("net.wire_us", "us"),
    ("net.session.dispatch_read_us", "us"),
    ("net.session.dispatch_write_us", "us"),
    ("ode.objectmanager.get_buffer_us", "us"),
    ("ode.store.snapshot_open_us", "us"),
    ("ode.store.snapshot_close_us", "us"),
    ("ode.store.ingest_us_per_object", "us"),
    ("ode.store.commit_stage_us", "us"),
    ("ode.store.commit_wait_us", "us"),
    ("ode.bufferpool.fetches_per_op", "count"),
    ("ode.bufferpool.hit_ratio", "ratio"),
    ("ode.pagefile.read_us", "us"),
    ("ode.pagefile.writes_per_commit", "count"),
    ("ode.codec.decode_object_us", "us"),
    ("ode.wal.fsyncs_per_commit", "count"),
    ("ode.wal.sync_us", "us"),
    ("ode.wal.group_batch", "count"),
    ("ode.wal.bytes_per_user_byte", "ratio"),
    ("ode.wal.checkpoints", "count"),
    ("ode.wal.checkpoint_ms", "ms"),
    ("ode.index.maintain_us_per_commit", "us"),
    ("ode.index.probe_us", "us"),
    ("core.queryplan.plan_us", "us"),
    ("core.queryplan.rows_examined_per_row_returned", "ratio"),
    ("cdc.offer_us_per_commit", "us"),
    ("cdc.events_per_commit", "count"),
    ("cdc.resyncs", "count"),
    ("obs.observe_calls_per_op", "count"),
    ("trace.overhead_pct", "%"),
)


class SpanSet:
    """The spans of one process, cut to a time window."""

    def __init__(self, spans: Iterable[tuple], start_ns: int, end_ns: int):
        self.spans = [span for span in spans if start_ns <= span[3] < end_ns]
        timed = [span for span in self.spans if span[0] is not None]
        self._self_ns = self_times(timed)

    def select(self, name: str, tag=None) -> List[tuple]:
        return [span for span in self.spans
                if span[2] == name and (tag is None or span[5] == tag)]

    def count(self, name: str, tag=None) -> int:
        return len(self.select(name, tag))

    def total_us(self, name: str, tag=None) -> float:
        return sum(span[4] - span[3] for span in self.select(name, tag)) / 1e3

    def mean_us(self, name: str, tag=None) -> Optional[float]:
        spans = self.select(name, tag)
        if not spans:
            return None
        return sum(span[4] - span[3] for span in spans) / len(spans) / 1e3

    def mean_self_us(self, name: str) -> Optional[float]:
        spans = [span for span in self.select(name) if span[0] is not None]
        if not spans:
            return None
        return sum(self._self_ns[span[0]] for span in spans) / len(spans) / 1e3

    def tag_sum(self, name: str) -> int:
        return sum(span[5] or 0 for span in self.select(name))

    def self_time_by_name(self) -> Dict[str, float]:
        """Total self time per span name, in ms."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span[0] is not None:
                totals[span[2]] = (totals.get(span[2], 0.0)
                                   + self._self_ns[span[0]] / 1e6)
        return totals


def _ratio(numerator: Optional[float], denominator: float) -> Optional[float]:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


#: The span names each metric is computed from (client side "c:",
#: server side "s:"), for the unmeasured report.
_SOURCES: Dict[str, Sequence[str]] = {
    "core.click_self_us": ("c:core.sequence",),
    "core.windows_refreshed_per_click": ("c:core.sequence",),
    "dynlink.display_us_per_click": ("c:dynlink.display",),
    "windowing.render_us": ("c:windowing.render",),
    "dagplace.layout_ms": ("c:dagplace.place",),
    "net.remote.calls_per_op": ("c:net.remote",),
    "net.client.round_trips_per_op": ("c:net.client.call",),
    "net.client.rtt_read_us": ("c:net.client.call",),
    "net.client.rtt_write_us": ("c:net.client.call",),
    "net.protocol.encode_us.client": ("c:net.protocol.encode",),
    "net.protocol.decode_us.client": ("c:net.protocol.decode",),
    "net.protocol.encode_us.server": ("s:net.protocol.encode",),
    "net.protocol.decode_us.server": ("s:net.protocol.decode",),
    "net.protocol.request_bytes": ("c:net.protocol.encode",),
    "net.protocol.reply_bytes": ("c:net.protocol.read_frame",),
    "net.wire_us": ("c:net.client.call", "s:net.session.dispatch"),
    "net.session.dispatch_read_us": ("s:net.session.dispatch",),
    "net.session.dispatch_write_us": ("s:net.session.write_prepare",
                                      "s:ode.objectmanager.commit_wait"),
    "ode.objectmanager.get_buffer_us": ("s:ode.objectmanager.get_buffer",),
    "ode.store.snapshot_open_us": ("s:ode.store.snapshot",),
    "ode.store.snapshot_close_us": ("s:ode.store.snapshot_close",),
    "ode.store.ingest_us_per_object": ("c:ode.ingest",),
    "ode.store.commit_stage_us": ("s:ode.store.commit_stage",),
    "ode.store.commit_wait_us": ("s:ode.store.commit_wait",),
    "ode.bufferpool.fetches_per_op": ("s:ode.bufferpool.fetch",),
    "ode.bufferpool.hit_ratio": ("s:ode.bufferpool.fetch",
                                 "s:ode.pagefile.read"),
    "ode.pagefile.read_us": ("s:ode.pagefile.read",),
    "ode.pagefile.writes_per_commit": ("s:ode.pagefile.write",
                                       "s:ode.store.commit_stage"),
    "ode.codec.decode_object_us": ("s:ode.codec.decode_object",),
    "ode.wal.fsyncs_per_commit": ("s:ode.wal.sync", "s:ode.wal.group_sync",
                                  "s:ode.store.commit_stage"),
    "ode.wal.sync_us": ("s:ode.wal.sync", "s:ode.wal.group_sync"),
    "ode.wal.group_batch": ("s:ode.wal.submit", "s:ode.wal.group_sync"),
    "ode.wal.bytes_per_user_byte": ("s:ode.wal.encode_frame",),
    "ode.wal.checkpoints": ("s:ode.wal.checkpoint",),
    "ode.wal.checkpoint_ms": ("s:ode.wal.checkpoint",),
    "ode.index.maintain_us_per_commit": ("s:ode.index.apply",
                                         "s:ode.store.commit_stage"),
    "ode.index.probe_us": ("s:ode.index.probe",),
    "core.queryplan.plan_us": ("s:core.queryplan.plan",),
    "core.queryplan.rows_examined_per_row_returned": (
        "s:core.queryplan.plan", "s:core.queryplan.execute"),
    "cdc.offer_us_per_commit": ("s:cdc.offer", "s:ode.store.commit_stage"),
    "cdc.events_per_commit": ("s:ode.store.commit_stage",),
    "obs.observe_calls_per_op": ("s:obs.observe",),
}


def _hook_targets(side_hooks: Sequence[Hook], span: str) -> List[str]:
    return [hook.target for hook in side_hooks if hook.span == span]


def compute(client: SpanSet, server: SpanSet, setup: SpanSet,
            facts: Dict[str, float],
            unmeasured_targets: Iterable[str]) -> Tuple[Dict[str, float],
                                                        Dict[str, str]]:
    """Per-layer metrics of one traced run.

    ``client``/``server`` hold the measured window's spans, ``setup``
    the load process's spans while the last setup ran.  ``facts`` are
    counts the workload and the OS gave: ``ops``, ``clicks``,
    ``cache_hits``, ``cache_misses``,
    ``client_syscr``, ``server_syscalls``, ``server_ctx_switches``,
    ``user_bytes``, ``cdc_events``, ``cdc_resyncs`` and
    ``overhead_pct``.  Returns ``(values, notes)``; a note says why a
    metric reads 0 (``unmeasured: <hook>`` or ``no calls``).
    """
    ops = facts["ops"]
    clicks = facts.get("clicks", 0)
    commits = server.count("ode.store.commit_stage")
    syncs = server.count("ode.wal.sync") + server.count("ode.wal.group_sync")
    group_syncs = server.count("ode.wal.group_sync")
    fetches = server.count("ode.bufferpool.fetch")
    rtt_read = client.mean_us("net.client.call", "r")
    dispatch_read = server.mean_us("net.session.dispatch", "r")
    dispatch_write = server.mean_us("net.session.dispatch", "w")
    if dispatch_write is None:
        prepare = server.mean_us("net.session.write_prepare")
        wait = server.mean_us("ode.objectmanager.commit_wait")
        if prepare is not None:
            dispatch_write = prepare + (wait or 0.0)
    examined = server.tag_sum("core.queryplan.plan")
    returned = server.tag_sum("core.queryplan.execute")
    hits = facts.get("cache_hits", 0)
    lookups = hits + facts.get("cache_misses", 0)
    values: Dict[str, Optional[float]] = {
        "core.click_self_us": client.mean_self_us("core.sequence"),
        "core.windows_refreshed_per_click": _ratio(
            client.tag_sum("core.sequence")
            if client.count("core.sequence") else None,
            client.count("core.sequence")),
        "dynlink.display_us_per_click": _ratio(
            client.total_us("dynlink.display")
            if client.count("dynlink.display") else None, clicks),
        "windowing.render_us": client.mean_us("windowing.render"),
        "dagplace.layout_ms": (setup.total_us("dagplace.place") / 1e3
                               if setup.count("dagplace.place") else None),
        "net.remote.calls_per_op": _ratio(client.count("net.remote"), ops),
        "net.remote.cache_hit_ratio": _ratio(hits, lookups),
        "net.client.round_trips_per_op": _ratio(
            client.count("net.client.call"), ops),
        "net.client.rtt_read_us": rtt_read,
        "net.client.rtt_write_us": client.mean_us("net.client.call", "w"),
        "net.client.read_syscalls_per_op": _ratio(facts["client_syscr"], ops),
        "net.server.syscalls_per_op": _ratio(facts["server_syscalls"], ops),
        "net.server.ctx_switches_per_op": _ratio(
            facts["server_ctx_switches"], ops),
        "net.protocol.encode_us.client": client.mean_us("net.protocol.encode"),
        "net.protocol.decode_us.client": client.mean_us("net.protocol.decode"),
        "net.protocol.encode_us.server": server.mean_us("net.protocol.encode"),
        "net.protocol.decode_us.server": server.mean_us("net.protocol.decode"),
        "net.protocol.request_bytes": _ratio(
            client.tag_sum("net.protocol.encode"),
            client.count("net.protocol.encode")),
        "net.protocol.reply_bytes": _ratio(
            client.tag_sum("net.protocol.read_frame"),
            client.count("net.protocol.read_frame")),
        "net.wire_us": (rtt_read - dispatch_read
                        if rtt_read is not None and dispatch_read is not None
                        else None),
        "net.session.dispatch_read_us": dispatch_read,
        "net.session.dispatch_write_us": dispatch_write,
        "ode.objectmanager.get_buffer_us": server.mean_us(
            "ode.objectmanager.get_buffer"),
        "ode.store.snapshot_open_us": server.mean_us("ode.store.snapshot"),
        "ode.store.snapshot_close_us": server.mean_us(
            "ode.store.snapshot_close"),
        "ode.store.ingest_us_per_object": setup.mean_us("ode.ingest"),
        "ode.store.commit_stage_us": server.mean_us("ode.store.commit_stage"),
        "ode.store.commit_wait_us": server.mean_us("ode.store.commit_wait"),
        "ode.bufferpool.fetches_per_op": _ratio(fetches, ops),
        "ode.bufferpool.hit_ratio": (
            1.0 - server.count("ode.pagefile.read") / fetches
            if fetches else None),
        "ode.pagefile.read_us": server.mean_us("ode.pagefile.read"),
        "ode.pagefile.writes_per_commit": _ratio(
            server.count("ode.pagefile.write"), commits),
        "ode.codec.decode_object_us": server.mean_us(
            "ode.codec.decode_object"),
        "ode.wal.fsyncs_per_commit": _ratio(syncs, commits),
        "ode.wal.sync_us": _ratio(
            server.total_us("ode.wal.sync")
            + server.total_us("ode.wal.group_sync"), syncs),
        "ode.wal.group_batch": _ratio(server.count("ode.wal.submit"),
                                      group_syncs),
        "ode.wal.bytes_per_user_byte": _ratio(
            server.tag_sum("ode.wal.encode_frame")
            if server.count("ode.wal.encode_frame") else None,
            facts.get("user_bytes", 0)),
        "ode.wal.checkpoints": float(server.count("ode.wal.checkpoint")),
        "ode.wal.checkpoint_ms": (server.mean_us("ode.wal.checkpoint") / 1e3
                                  if server.count("ode.wal.checkpoint")
                                  else None),
        "ode.index.maintain_us_per_commit": _ratio(
            server.total_us("ode.index.apply")
            if server.count("ode.index.apply") else None, commits),
        "ode.index.probe_us": server.mean_us("ode.index.probe"),
        "core.queryplan.plan_us": server.mean_us("core.queryplan.plan"),
        "core.queryplan.rows_examined_per_row_returned": _ratio(
            examined if server.count("core.queryplan.plan") else None,
            returned),
        "cdc.offer_us_per_commit": _ratio(
            server.total_us("cdc.offer")
            if server.count("cdc.offer") else None, commits),
        "cdc.events_per_commit": _ratio(facts.get("cdc_events"), commits),
        "cdc.resyncs": float(facts.get("cdc_resyncs", 0)),
        "obs.observe_calls_per_op": _ratio(server.count("obs.observe"), ops),
        "trace.overhead_pct": facts.get("overhead_pct"),
    }
    missing = set(unmeasured_targets)
    notes: Dict[str, str] = {}
    result: Dict[str, float] = {}
    for name, _unit in PER_LAYER:
        value = values[name]
        lost = []
        for source in _SOURCES.get(name, ()):
            side, _, span = source.partition(":")
            hooks = CLIENT_HOOKS if side == "c" else SERVER_HOOKS
            lost += [target for target in _hook_targets(hooks, span)
                     if target in missing]
        if lost:
            notes[name] = "unmeasured: " + ", ".join(sorted(set(lost)))
        if value is None:
            notes.setdefault(name, "no calls")
            value = 0.0
        result[name] = float(value)
    return result, notes
