"""The server child process, OS counters and the recorded environment."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import platform
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_SERVING = re.compile(r"^serving .* on [^:]+:(\d+) as ")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
STARTUP_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
SPANS_TIMEOUT = 60.0
FSYNC_ROUNDS = 20


def child_env(src: Path) -> Dict[str, str]:
    """The server's environment: this checkout's sources, the hash seed
    CI uses, and no ``ODE_IO_MODEL`` — the server runs its default core."""
    env = dict(os.environ)
    env.pop("ODE_IO_MODEL", None)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(src.parent)])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


#: Every child (server or host probe) started and not yet stopped, so a
#: failing run can still stop them all.
LIVE: set = set()


class Server:
    """``python -m repro serve <root> 127.0.0.1 0`` in a child process.

    With ``spans_path`` the traced launcher (``perfbench.traced_serve``)
    runs instead; it installs the server-side hooks and then calls the
    same CLI entry, and writes its spans to ``spans_path`` on SIGUSR1.
    """

    def __init__(self, root: Path, src: Path, tmpdir: Path, log_path: Path,
                 spans_path: Optional[Path] = None):
        self.spans_path = spans_path
        self.log_path = log_path
        env = child_env(src)
        env["TMPDIR"] = str(tmpdir)
        if spans_path is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, "-m", "perfbench.traced_serve",
                       str(spans_path)]
        command += ["serve", str(root), "127.0.0.1", "0"]
        with open(log_path, "ab") as log:
            self.process = subprocess.Popen(
                command, env=env, cwd=str(src.parent),
                stdout=subprocess.PIPE, stderr=log, text=True)
        LIVE.add(self)
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            match = _SERVING.match(line)
            if match:
                return int(match.group(1))
        self.kill()
        raise RuntimeError("server did not start: "
                           + self.log_path.read_text(errors="replace")[-2000:])

    @property
    def pid(self) -> int:
        return self.process.pid

    def dump_spans(self) -> None:
        """Ask the traced launcher to write its spans; wait for the file."""
        assert self.spans_path is not None
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + SPANS_TIMEOUT
        while not self.spans_path.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("traced server wrote no spans")
            time.sleep(0.02)

    def stop(self) -> None:
        """Graceful stop (SIGINT runs the server's ordered shutdown)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close_pipes()

    def kill(self) -> None:
        """SIGKILL: the crash the recovery check restarts from."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        LIVE.discard(self)
        if self.process.stdout is not None:
            self.process.stdout.close()


class HostProbe:
    """``perfbench/reference.py`` in a child process: the host's speed
    over a measured window (see that module)."""

    def __init__(self, work: Path):
        self.path = work / "host-probe.json"
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("reference.py")),
             str(self.path)], stdout=subprocess.PIPE, text=True)
        LIVE.add(self)
        if self.process.stdout.readline().strip() != "ready":
            self.kill()
            raise RuntimeError("host probe did not start")

    def stop(self) -> List[float]:
        """CPU seconds of every reference task run since the start."""
        self.process.terminate()
        self.process.wait(STOP_TIMEOUT)
        self.kill()
        costs = json.loads(self.path.read_text())
        if not costs:
            raise RuntimeError("host probe timed no reference task")
        return costs

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        LIVE.discard(self)
        self.process.stdout.close()


# -- OS counters ---------------------------------------------------------------

def cpu_seconds(pid: int) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "r") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def self_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def io_counters(pid) -> Dict[str, int]:
    """``/proc/<pid>/io`` (syscr, syscw, ...) for the whole process."""
    counters = {}
    with open(f"/proc/{pid}/io", "r") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            counters[key.strip()] = int(value)
    return counters


def ctx_switches(pid: int) -> int:
    """Voluntary + involuntary context switches over the live threads."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/status", "r") as fh:
                for line in fh:
                    if "ctxt_switches:" in line:
                        total += int(line.split()[-1])
        except FileNotFoundError:
            continue   # the thread exited
    return total


def _host_cpu() -> List[int]:
    with open("/proc/stat", "r") as fh:
        return [int(field) for field in fh.readline().split()[1:]]


def host_ticks() -> int:
    """All CPU time of the host's CPUs so far, in clock ticks."""
    return sum(_host_cpu()[:8])


def host_steal_ticks() -> int:
    """Ticks the hypervisor gave to other guests (``steal``)."""
    return _host_cpu()[7]


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a process in MiB."""
    with open(f"/proc/{pid}/status", "r") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- environment -----------------------------------------------------------------

def fsync_cost_us(directory: Path) -> float:
    """Median cost of a 4 KiB append + fsync in ``directory``."""
    path = directory / "fsync.probe"
    costs: List[float] = []
    block = b"\0" * 4096
    with open(path, "wb") as fh:
        for _ in range(FSYNC_ROUNDS):
            fh.write(block)
            fh.flush()
            start = time.perf_counter()
            os.fsync(fh.fileno())
            costs.append((time.perf_counter() - start) * 1e6)
    path.unlink()
    costs.sort()
    return costs[len(costs) // 2]


def source_digest(src: Path) -> str:
    """SHA-256 over the program's sources (the checkout may not be a git
    repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(root), capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def defaults_in_force() -> Dict[str, object]:
    """The server's flush policy and cache sizes, read from the code."""
    from repro.net.remote import CACHE_CAPACITY
    from repro.ode.database import Database
    from repro.ode.store import ObjectStore

    def default(function, name):
        parameter = inspect.signature(function).parameters.get(name)
        return None if parameter is None else parameter.default

    return {
        "group_commit_window_ms": default(Database.__init__,
                                          "group_commit_window_ms"),
        "pool_pages": default(Database.__init__, "pool_capacity"),
        "mvcc_cache_limit": default(ObjectStore.__init__,
                                    "mvcc_cache_limit"),
        "client_cache_capacity": CACHE_CAPACITY,
        "io_model": "server default (ODE_IO_MODEL scrubbed)",
    }


def environment(root: Path, src: Path, work: Path) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(src),
        "fsync_us": round(fsync_cost_us(work), 1),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        **defaults_in_force(),
    }
