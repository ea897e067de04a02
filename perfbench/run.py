"""Run one benchmark workload against a real OdeView server.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload browse_ui|browse_cold|write_mix \\
        --seed N --seconds S --trace 0|1

The server is the program's own ``python -m repro serve`` in a child
process, with default settings; the load comes from this process, at
most two threads and connections, in a closed loop (see
``perfbench/workloads.py`` for the three workloads and why each exists).

``--trace 0`` sets the workload up three times (set-up time is the
median), then measures for ``S`` seconds and reports the end-to-end
metrics.  ``--trace 1`` runs the workload twice for ``S/2`` seconds
each — untraced, then with spans around the calls into every layer's
public functions in both processes — and reports the per-layer metrics
of :mod:`perfbench.layers` and the tracing overhead.  Either way every
answer is checked; a failed or wrong answer counts in ``failed``.

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 3

#: ``(name, unit)`` of the end-to-end metrics in the result line of
#: ``--trace 0``: those steady enough on every workload to gate a change
#: on this kind of host (see BASELINE.md).  Every other end-to-end
#: metric is printed above it with its unit and sample count.
END_TO_END = (
    ("setup_s", "s"),
    ("cpu_per_op_ref", "ref"),
    ("server_rss_mb", "MiB"),
)


class Bench:
    """One workload instance, its server and its measured windows."""

    def __init__(self, workload_cls, seed: int, work: Path):
        self.workload_cls = workload_cls
        self.seed = seed
        self.work = work
        self.tmp = work / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.server = None
        self.workload = None

    def setup(self, index: int, spans_path=None) -> dict:
        """Generate the data, start the server until its first reply,
        connect and warm up; returns the phase timings in seconds."""
        from perfbench.proc import Server

        self.db_root = self.work / f"db{index}"
        ui_root = self.work / f"ui{index}"
        ui_root.mkdir()
        clock = time.perf_counter
        start = clock()
        self.workload = self.workload_cls(self.seed)
        self.data = self.workload.generate(self.db_root)
        generated = clock()
        self.server = Server(self.db_root, SRC, self.tmp,
                             self.work / "server.log", spans_path)
        served = clock()
        self.workload.connect(self.server.port, ui_root)
        connected = clock()
        self.workload.warm()
        warmed = clock()
        return {"total": warmed - start, "generate": generated - start,
                "serve": served - generated, "connect": connected - served,
                "warm": warmed - connected}

    def restart_server(self) -> None:
        from perfbench.proc import Server

        self.server = Server(self.db_root, SRC, self.tmp,
                             self.work / "server.log")

    def database_facts(self) -> dict:
        from perfbench.workloads import data_digest
        from repro.ode.page import PAGE_SIZE

        directory = next(self.db_root.glob("*.odb"))
        pages = (directory / "data.pages").stat().st_size // PAGE_SIZE
        return {"database": directory.name, "objects": self.data["objects"],
                "pages": pages, "sha256": data_digest(directory)}

    def measure(self, seconds: float) -> "Window":
        """Run the workload's load threads until the deadline, reading
        the OS counters before and after, with the host probe running."""
        from perfbench import proc
        from perfbench.workloads import Tally

        pid = self.server.pid
        caches = self.workload.caches()
        self.tally = Tally()
        probe = proc.HostProbe(self.work)
        clock = time.perf_counter_ns
        before = _counters(pid, caches)
        start = clock()
        deadline = start + int(seconds * 1e9)
        threads = [threading.Thread(target=loop, daemon=True)
                   for loop in self.workload.loops(deadline, self.tally)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = clock()
        after = _counters(pid, caches)
        reference = probe.stop()
        rss = proc.peak_rss_mb(pid)
        verify = getattr(self.workload, "verify", None)
        if verify is not None:
            verify(self.tally)
        return Window(self.tally, start, end,
                      {key: after[key] - before[key] for key in before},
                      rss, reference)

    def finish(self) -> None:
        """Workload-specific checks after the window, then stop."""
        self.workload.finish(self)
        self.teardown()

    def teardown(self) -> None:
        self.workload.close()
        self.server.stop()


def _counters(pid: int, caches) -> dict:
    from perfbench import proc

    server_io = proc.io_counters(pid)
    return {
        "server_cpu": proc.cpu_seconds(pid),
        "client_cpu": proc.self_cpu_seconds(),
        "server_syscalls": server_io["syscr"] + server_io["syscw"],
        "server_ctx_switches": proc.ctx_switches(pid),
        "client_syscr": proc.io_counters("self")["syscr"],
        "host_steal": proc.host_steal_ticks(),
        "host_ticks": proc.host_ticks(),
        "cache_hits": sum(cache.hits for cache in caches),
        "cache_misses": sum(cache.misses for cache in caches),
    }


class Window:
    """One measured window: its tally, its span in ns, the change of
    every OS counter over it, the server's peak RSS and the CPU seconds
    of each host reference task run during it."""

    def __init__(self, tally, start_ns, end_ns, deltas, rss_mb, reference):
        self.tally = tally
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.deltas = deltas
        self.rss_mb = rss_mb
        self.reference = reference

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def latency_rows(latencies, name: str, rows: list) -> None:
    """p50, p90 and p99 (µs) of ``latencies`` (ns) over the whole window;
    a tail with fewer than ten samples beyond it is flagged, never fatal."""
    from perfbench.stats import median, tail

    rows.append((f"{name}_p50_us", median(latencies) / 1e3, "us",
                 len(latencies), "whole window"))
    for p in (90.0, 99.0):
        value, ok = tail(latencies, p)
        rows.append((f"{name}_p{p:.0f}_us", value / 1e3, "us", len(latencies),
                     "whole window" if ok
                     else f"too short: < 10 samples beyond p{p:.0f}"))


def end_to_end_rows(window: Window, setup_seconds) -> list:
    """Every end-to-end metric as ``(name, value, unit, samples, note)``."""
    tally = window.tally
    ops = tally.ops
    rows = [("setup_s", statistics.median(setup_seconds), "s",
             len(setup_seconds), f"median of {len(setup_seconds)} setups")]
    for name, latencies in (("read", tally.reads), ("write", tally.writes)):
        if latencies:
            latency_rows(latencies, name, rows)
            rows.append((f"{name}s_per_s", len(latencies) / window.seconds,
                         "1/s", len(latencies), "whole window"))
    if tally.refresh:
        latency_rows(tally.refresh, "refresh", rows)
    errors = tally.failed + tally.wrong
    rows.append(("error_ratio", errors / max(tally.attempted, 1), "ratio",
                 tally.attempted, ""))

    # CPU per operation over the whole window: a slice holds too few of
    # the rare expensive operations (range probes) to average them.
    def per_op(*keys) -> float:
        return sum(window.deltas[key] for key in keys) / max(ops, 1) * 1e6

    cpu = per_op("server_cpu", "client_cpu")
    reference_us = statistics.mean(window.reference) * 1e6
    rows.append(("cpu_per_op_ref", cpu / reference_us, "ref", ops,
                 "cpu_us_per_op / reference task CPU in the same window"))
    rows.append(("cpu_us_per_op", cpu, "us", ops, "server + load process"))
    rows.append(("server_cpu_us_per_op", per_op("server_cpu"), "us", ops, ""))
    rows.append(("client_cpu_us_per_op", per_op("client_cpu"), "us", ops, ""))
    rows.append(("server_rss_mb", window.rss_mb, "MiB", 1, "VmHWM"))
    rows.append(("host_reference_us", reference_us, "us",
                  len(window.reference), "mean CPU of the host reference task"))
    rows.append(("host_steal_pct", 100.0 * window.deltas["host_steal"]
                 / max(window.deltas["host_ticks"], 1), "%", 1,
                 "CPU time the host gave to other guests"))
    return rows


def print_rows(title: str, rows) -> None:
    print(title)
    for name, value, unit, samples, note in rows:
        print(f"  {name:<48} {value:>14.4f} {unit:<6} n={samples:<8} {note}")


def print_kinds(tally) -> None:
    """Latency by operation kind and each kind's share of all latency, so
    the weight the mix gives each kind is visible."""
    from perfbench.stats import median

    total = sum(sum(latencies) for latencies in tally.by_kind.values())
    print("by kind (count, p50 us, mean us, share of latency):")
    for kind, latencies in sorted(tally.by_kind.items()):
        print(f"  {kind:<10} n={len(latencies):<8} "
              f"p50={median(latencies) / 1e3:<12.1f} "
              f"mean={sum(latencies) / len(latencies) / 1e3:<12.1f} "
              f"share={sum(latencies) / max(total, 1):.3f}")


def run_untraced(workload_cls, seed, seconds, work) -> tuple:
    setups = []
    bench = None
    for index in range(SETUPS):
        if bench is not None:
            bench.teardown()
        bench = Bench(workload_cls, seed, work)
        setups.append(bench.setup(index))
    print("setup (s): " + "; ".join(
        " ".join(f"{k}={v:.3f}" for k, v in phases.items())
        for phases in setups))
    print("database: " + json.dumps(bench.database_facts()))
    window = bench.measure(seconds)
    bench.finish()
    rows = end_to_end_rows(window, [phases["total"] for phases in setups])
    print_rows(f"end-to-end ({window.seconds:.2f} s measured):", rows)
    print_kinds(window.tally)
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _n, _note in rows
               if name in dict(END_TO_END)}
    return window.tally, metrics


def headline(tally) -> float:
    """The p50 the tracing overhead is taken on: the writer's acked
    write where there is one, else the read (a click on browse_ui)."""
    from perfbench.stats import median

    return median(tally.writes if tally.writes else tally.reads)


def run_traced(workload_cls, seed, seconds, work) -> tuple:
    from perfbench import tracer as tracing
    from perfbench.layers import CLIENT_HOOKS, PER_LAYER, SpanSet, compute

    half = seconds / 2.0
    plain = Bench(workload_cls, seed, work / "untraced")
    plain.setup(0)
    untraced = plain.measure(half)
    plain.finish()

    spans_path = work / "server-spans.json"
    client_tracer = tracing.Tracer()
    client_tracer.install(CLIENT_HOOKS)
    bench = Bench(workload_cls, seed, work / "traced")
    setup_start = time.perf_counter_ns()
    phases = bench.setup(0, spans_path)
    setup_end = time.perf_counter_ns()
    print("setup (s): " + " ".join(f"{k}={v:.3f}" for k, v in phases.items()))
    print("database: " + json.dumps(bench.database_facts()))
    window = bench.measure(half)
    bench.server.dump_spans()
    server_trace = tracing.load(str(spans_path))
    bench.finish()

    client = SpanSet(client_tracer.spans, window.start_ns, window.end_ns)
    server = SpanSet(server_trace["spans"], window.start_ns, window.end_ns)
    setup = SpanSet(client_tracer.spans, setup_start, setup_end)
    tally = window.tally
    overhead = (headline(tally) / headline(untraced.tally) - 1.0) * 100.0
    print(f"tracing overhead: headline p50 {headline(tally) / 1e3:.1f} us "
          f"traced vs {headline(untraced.tally) / 1e3:.1f} us untraced")
    facts = dict(tally.facts, ops=tally.ops, overhead_pct=overhead,
                 **{key: window.deltas[key] for key in (
                     "cache_hits", "cache_misses", "client_syscr",
                     "server_syscalls", "server_ctx_switches")})
    unmeasured = client_tracer.unmeasured + server_trace["unmeasured"]
    values, notes = compute(client, server, setup, facts,
                            [target for target, _reason in unmeasured])
    units = dict(PER_LAYER)
    print_rows(f"per-layer ({window.seconds:.2f} s traced, "
               f"{untraced.seconds:.2f} s untraced):",
               [(name, values[name], units[name], "-", notes.get(name, ""))
                for name, _unit in PER_LAYER])
    for target, reason in unmeasured:
        print(f"unmeasured hook: {target} ({reason})")
    print("setup (ms): " + " ".join(
        f"{name}={setup.total_us(name) / 1e3:.1f}"
        for name in ("ode.ingest", "ode.ingest.commit", "ode.ingest.index",
                     "dagplace.place"))
          + f" of {phases['total'] * 1e3:.1f}"
          + f" ({setup.count('ode.ingest')} objects)")
    for side, spans in (("client", client), ("server", server)):
        ranked = sorted(spans.self_time_by_name().items(),
                        key=lambda item: -item[1])
        print(f"{side} self time (ms): " + ", ".join(
            f"{name}={ms:.1f}" for name, ms in ranked[:10]))
        # The client blocks in read_frame while the server works: that
        # self time is waiting, not a stage of the load process.
        busy = [name for name, _ms in ranked
                if name != "net.protocol.read_frame"]
        if busy:
            print(f"{side} largest self time: {busy[0]}")
    combined = untraced.tally
    tally.attempted += combined.attempted
    tally.failed += combined.failed
    tally.wrong += combined.wrong
    tally.messages = (combined.messages + tally.messages)[:5]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash order must not differ between runs of one seed (CI runs
        # with the same setting).
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import proc
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so the children are still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    try:
        print(f"workload {args.workload} seed {args.seed} "
              f"seconds {args.seconds:g} trace {args.trace}")
        print("environment: " + json.dumps(proc.environment(ROOT, SRC, work)))
        run = run_traced if args.trace else run_untraced
        tally, metrics = run(WORKLOADS[args.workload], args.seed,
                             args.seconds, work)
        for message in tally.messages:
            print(f"error: {message}")
        failed = tally.failed + tally.wrong
        print(json.dumps({"correct": failed == 0,
                          "attempted": tally.attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        for child in list(proc.LIVE):
            child.kill()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
