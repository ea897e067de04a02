"""Spans around calls into the program's public functions.

A :class:`Hook` names one public callable (``"module:function"`` or
``"module:Class.method"``) and the span its calls are recorded under.
:meth:`Tracer.install` replaces that callable *where it is defined* — on
the class or in the module — so every instance, bound method and
callback sees the same wrapper from the start, and the identity of a
callable handed to ``subscribe``/``unsubscribe`` never changes.  A hook
whose target no longer exists is reported in :attr:`Tracer.unmeasured`
and never fails the run.

Spans are kept in memory as ``(span_id, parent_id, name, start_ns,
end_ns, tag)`` tuples and written out only when asked (:meth:`dump`).
Times come from ``time.perf_counter_ns``, which on Linux reads
``CLOCK_MONOTONIC``: spans from the load process and the server process
share one time base and can be cut to the same measurement window.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

Span = Tuple[Optional[int], Optional[int], str, int, int, Any]


@dataclass(frozen=True)
class Hook:
    """One traced callable.

    ``tag(args, kwargs, result)`` may attach a small value to each span
    (a byte count, an opcode class).  ``count_only`` hooks record a bare
    timestamp: for hot calls whose number matters, not their time.
    ``rebind`` also replaces the function in every loaded ``repro``
    module that imported it by name (``from m import f``).
    """

    span: str
    target: str
    tag: Optional[Callable[[tuple, dict, Any], Any]] = None
    count_only: bool = False
    rebind: bool = True


class Tracer:
    """Installs hooks and collects their spans for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(target, reason)`` for every hook that could not be installed.
        self.unmeasured: List[Tuple[str, str]] = []
        self.installed: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- installation ----------------------------------------------------------

    def install(self, hooks) -> None:
        for hook in hooks:
            try:
                self._install(hook)
            except (ImportError, AttributeError, TypeError) as exc:
                self.unmeasured.append((hook.target, str(exc)))

    def _install(self, hook: Hook) -> None:
        module_name, _, path = hook.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_name.split(".")):
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(self._wrap(raw.__func__, hook))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, hook))
        elif inspect.isfunction(raw):
            replacement = self._wrap(raw, hook)
        else:
            raise TypeError(f"{hook.target} is not a plain function")
        setattr(owner, attr, replacement)
        if hook.rebind and owner is module:
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "") or ""
                if (other is not module and name.startswith("repro")
                        and getattr(other, attr, None) is raw):
                    setattr(other, attr, replacement)
        self.installed.append(hook.target)

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        if inspect.iscoroutinefunction(fn):
            raise TypeError(f"{hook.target} is a coroutine function")
        spans = self.spans
        clock = time.perf_counter_ns
        name = hook.span
        if hook.count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                now = clock()
                spans.append((None, None, name, now, now, None))
                return fn(*args, **kwargs)
            return counted
        tag = hook.tag
        if inspect.isgeneratorfunction(fn):
            # The body of a generator runs interleaved with its consumer,
            # so it takes no place on the span stack: its span covers the
            # whole iteration and its tag is the number of items yielded.
            @functools.wraps(fn)
            def iterated(*args, **kwargs):
                start = clock()
                count = 0
                try:
                    for item in fn(*args, **kwargs):
                        count += 1
                        yield item
                finally:
                    spans.append((None, None, name, start, clock(), count))
            return iterated
        local = self._local
        ids = self._ids

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)   # a re-entrant call of one layer
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = None
                if tag is not None:
                    try:
                        value = tag(args, kwargs, result)
                    except Exception:   # a tag never breaks the program
                        value = None
                spans.append((sid, parent, name, start, end, value))
        return timed

    # -- output -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans and unmeasured hooks as JSON, atomically."""
        temporary = f"{path}.tmp"
        with open(temporary, "w", encoding="utf-8") as fh:
            json.dump({"spans": list(self.spans),
                       "unmeasured": self.unmeasured,
                       "installed": self.installed}, fh)
        os.replace(temporary, path)


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["spans"] = [tuple(span) for span in data["spans"]]
    data["unmeasured"] = [tuple(item) for item in data["unmeasured"]]
    return data
