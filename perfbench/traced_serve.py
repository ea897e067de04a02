"""Traced server launcher: ``python -m perfbench.traced_serve <spans.json>
serve <root> [host] [port]``.

Installs the server-side hooks of :mod:`perfbench.layers` on the
program's public classes and functions, then calls the same CLI entry as
``python -m repro serve``, so the traced and untraced servers differ
only by the wrappers.  Spans stay in memory; SIGUSR1 writes them to
``<spans.json>``, and so does the normal end of the server.
"""

from __future__ import annotations

import signal
import sys

from perfbench.layers import SERVER_HOOKS
from perfbench.tracer import Tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(SERVER_HOOKS)
    signal.signal(signal.SIGUSR1, lambda _sig, _frame: tracer.dump(spans_path))
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
