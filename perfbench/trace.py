"""Per-layer attribution, from outside: cProfile buckets and call spans.

Two instruments, both used only by the traced run (``--trace 1``):

* :func:`profile_layers` buckets a ``cProfile`` run by source path into
  this repo's packages (the *layers*), giving each layer's call count and
  share of self time.  On the simulated workloads the counts repeat
  exactly; the shares are wall-clock.  ``cProfile`` taxes every Python
  call and no native work, so many-small-call layers look bigger than
  they are: a share is a ranking, not a budget.

* :class:`SpanRecorder` wraps the synchronous public entry points of the
  wire path for the length of one repetition and keeps
  ``[name, start_ns, end_ns, parent, note]`` per call in memory.  A sync
  span's parent is the wrapped call it ran inside; ``WireClient.call``
  spans are roots (they interleave on the event loop, so they are never
  anyone's parent).  Self time is duration minus direct children.
"""

from __future__ import annotations

import functools
import os
import pstats
import sys
import sysconfig
import time
from typing import Any, Callable, Optional

#: Every layer a profile is bucketed into (``other`` catches the rest:
#: third-party packages, this benchmark's own load generator, repro
#: packages neither path exercises).
LAYERS = (
    "simkit", "netsim", "ingest", "storage", "metadata", "durability",
    "telemetry", "resilience", "core", "frontdoor", "adal.wire.client",
    "adal.wire.server", "adal.wire.protocol", "stdlib.json",
    "stdlib.asyncio", "stdlib", "builtins", "other",
)

_STDLIB = os.path.realpath(sysconfig.get_paths()["stdlib"]) + os.sep
_REPRO = os.sep + "repro" + os.sep
_ASYNCIO = ("asyncio", "selectors.py", "socket.py")


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    if filename.startswith(("~", "<")):
        return "builtins"  # C functions and exec'd/frozen code
    path = os.path.realpath(filename)
    at = path.rfind(_REPRO)
    if at >= 0:
        parts = path[at + len(_REPRO):].split(os.sep)
        if parts[:2] == ["adal", "wire"]:
            name = "adal.wire." + parts[2].removesuffix(".py")
        else:
            name = parts[0].removesuffix(".py")
        return name if name in LAYERS else "other"
    if path.startswith(_STDLIB) and "site-packages" not in path:
        head = path[len(_STDLIB):].split(os.sep)[0]
        if head == "json":
            return "stdlib.json"
        if head in _ASYNCIO:
            return "stdlib.asyncio"
        return "stdlib"
    return "other"


def profile_layers(profiler, ops: int) -> dict[str, float]:
    """``<layer>.calls_per_op`` and ``<layer>.self_share`` for one profile."""
    calls = dict.fromkeys(LAYERS, 0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in (
            pstats.Stats(profiler).stats.items()):
        layer = layer_of(filename)
        calls[layer] += ncalls
        self_time[layer] += tottime
    total = sum(self_time.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
        out[f"{layer}.self_share"] = self_time[layer] / total
    return out


class SpanRecorder:
    """Wrap public callables, record one span per call, undo on exit."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent index or -1, note]`` per call.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             note: Optional[Callable[[tuple, Any], Any]] = None) -> None:
        """Record a sync span around ``owner.attr``; ``note(args, result)``
        (when given) fills the span's free-form last field."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, now(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = now()
                stack.pop()
                if note is not None:
                    span[4] = note(args, result)

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def wrap_async_root(self, owner: type, attr: str, name: str,
                        note: Callable[[tuple], Any]) -> None:
        """Record a root span around coroutine method ``owner.attr``;
        ``note(args)`` fills the span's last field."""
        fn = owner.__dict__[attr]
        spans, now = self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = [name, now(), 0, -1, note(args)]
            spans.append(span)
            try:
                return await fn(*args, **kwargs)
            finally:
                span[2] = now()

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def wrap_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap a module-level function in its home module *and* in every
        loaded ``repro.*`` module that imported the name directly."""
        original = getattr(module, attr)
        holders = [m for modname, m in sorted(sys.modules.items())
                   if modname.startswith("repro.")
                   and getattr(m, attr, None) is original]
        self.wrap(module, attr, name)
        wrapper = getattr(module, attr)
        for holder in holders:
            if holder is not module:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- reading -------------------------------------------------------------
    def self_ns(self) -> list[int]:
        """Self time of every span: its duration minus its direct children."""
        out = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                out[span[3]] -= span[2] - span[1]
        return out
