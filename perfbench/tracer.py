"""Call-boundary spans around tsclab's public functions, installed from outside.

Nothing under ``src/`` knows about tracing: a :class:`Patcher` replaces a
function in every ``tsclab`` namespace that binds it (``models`` calls
kernels as ``L.<kernel>``, ``optim`` binds ``forward_batch`` at import,
``cli`` calls ``M.save_model``) and puts the originals back on close.

A :class:`Tracer` keeps, per (architecture, span name), the call count,
inclusive time and self time (inclusive minus traced children), plus
counters such as FLOPs computed from argument and result shapes.  Spans
nest per thread, so the ``jobs > 1`` thread pool of ``cli`` is handled;
aggregates are merged under a lock.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter


class Patcher:
    """Replace functions in every loaded ``tsclab`` module that binds them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name == "tsclab" or name.startswith("tsclab."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Per-architecture span aggregates; ``context`` names the run being traced."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        # (context, name) -> [calls, inclusive seconds, self seconds]
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])
        # (context, name, parent) -> calls
        self.edges: dict = defaultdict(int)
        # (context, counter) -> value
        self.counters: dict = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def context(self) -> str:
        return getattr(self._local, "context", "-")

    def set_context(self, value: str) -> None:
        self._local.context = value

    def span(self, name: str, counters=None, context_from=None):
        """Decorator factory: time calls as ``name``.

        ``counters(args, result)`` returns ``{counter: value}`` to add;
        ``context_from(args)`` names the context for the call's subtree.
        """
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                stack = self._stack()
                saved = self.context
                if context_from is not None:
                    self.set_context(context_from(args))
                frame = [name, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[1] += elapsed
                    context = self.context
                    self.set_context(saved)
                    with self._lock:
                        agg = self.spans[(context, name)]
                        agg[0] += 1
                        agg[1] += elapsed
                        agg[2] += elapsed - frame[1]
                        self.edges[(context, name, parent[0] if parent else None)] += 1
                if counters is not None:
                    extra = counters(args, result)
                    with self._lock:
                        for key, value in extra.items():
                            self.counters[(context, key)] += value
                return result
            return wrapper
        return make

    def total(self, name: str, field: int = 1):
        """One aggregate field of ``name`` (0 calls, 1 inclusive s, 2 self s), summed
        over contexts."""
        return sum(v[field] for (_, n), v in self.spans.items() if n == name)

    def counter(self, key: str) -> int:
        return sum(v for (_, k), v in self.counters.items() if k == key)

    def calls_under(self, name: str, parent: str) -> int:
        return sum(v for (_, n, p), v in self.edges.items() if n == name and p == parent)

    def contexts(self) -> list[str]:
        return sorted({c for c, _ in self.spans})
