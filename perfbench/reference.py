"""The host reference: a fixed task of the standard library only, timed
over and over in its own process while a workload is measured.

On a shared cloud guest (2 vCPUs at 2.1 GHz, for instance) other guests
slow this kind of work (small objects, dicts, strings) by up to 2x from
one second to the next and by a quarter over minutes.  The task uses no
code of the program, so a change to the program cannot move it;
dividing a workload's CPU per operation by the task's CPU time in the
same window cancels the host's speed.

Usage: ``python3 perfbench/reference.py OUT`` prints ``ready``, then
runs the task, pausing :data:`PAUSE_S` seconds between runs, until
SIGTERM, and writes the CPU seconds of every run to ``OUT`` as a JSON
list.  A task of a fifth the size, run five times as often on each CPU
in turn, tracked ``browse_cold`` far worse (spread 0.10 against 0.02
over ten runs), likely because its working set is too small to feel the
memory contention that slows the storage read path.
"""

from __future__ import annotations

import json
import signal
import sys
import time

PAUSE_S = 0.5
ENTRIES = 20_000


def task() -> None:
    table = {}
    for number in range(ENTRIES):
        table[str(number)] = [number, str(number * 7), {"k": number}]
    json.loads(json.dumps(table))
    sorted(table.items(), key=lambda item: item[1][1])


def main(out: str) -> int:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    print("ready", flush=True)
    costs = []
    while not stopping:
        start = time.process_time()
        task()
        costs.append(time.process_time() - start)
        time.sleep(PAUSE_S)
    with open(out, "w") as fh:
        json.dump(costs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
